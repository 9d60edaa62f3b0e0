"""Run one ``repro`` verb with its layer boundaries traced.

    python3 perfbench/traced.py SPANS_DIR REPRO_ARGS...

Wraps the boundaries (see :mod:`layers`) before the verb starts and
writes this process's spans to ``SPANS_DIR/<pid>.json`` when it ends;
forked sweep workers write their own files beside it.
"""

from __future__ import annotations

import os
import sys

import layers


def main(argv) -> int:
    spans_dir, verb = argv[0], argv[1:]
    recorder = layers.SpanRecorder()
    absent = layers.install(recorder, spans_dir)
    from repro.cli import main as repro_main

    try:
        return repro_main(verb)
    finally:
        recorder.dump(os.path.join(spans_dir, f"{os.getpid()}.json"), absent)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
