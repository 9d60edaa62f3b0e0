"""Self-test of the benchmark: ``python3 -m pytest perfbench`` (~5 min).

It runs the real verbs at the benchmark's scale, so it is not part of
the tier-1 suite under ``tests/``.
"""

import contextlib
import io
import json
import os
import time

import pytest

import layers
import run

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    BENCHMARK = json.load(f)


def run_main(argv, references=None):
    """``run.main`` as the command line calls it: (printed lines, result)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv, references=references) == 0
    lines = out.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def assert_printed(lines, result, metrics):
    """Each metric is in the result and on a line of its own with its
    unit."""
    for metric in metrics:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert any(line.strip().startswith(f"{name} [{unit}]:")
                   for line in lines), name


def test_corrupted_reference_digest_fails_every_run():
    with open(run.REFERENCE_PATH, encoding="utf-8") as handle:
        digests = json.load(handle)["digests"]
    corrupted = {
        workload: {seed: "0" * 64 for seed in by_seed}
        for workload, by_seed in digests.items()
    }
    lines, result = run_main(
        ["--workload", "sweep-e5645", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        references=corrupted,
    )
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False
    assert f"fail_ratio: {result['failed']}/{result['attempted']} = 1.000" \
        in lines
    assert_printed(lines, result, BENCHMARK["end_to_end"])


def test_traced_mode_prints_every_per_layer_metric():
    lines, result = run_main(
        ["--workload", "sweep-e5645", "--seed", "0", "--trace", "1"])
    assert result["correct"] is True and result["failed"] == 0
    assert_printed(lines, result, BENCHMARK["per_layer"])
    values = {name: entry["value"]
              for name, entry in result["metrics"].items()}
    assert all(value is not None for value in values.values())
    # sweep --jobs 1 characterizes each of its 17 cells exactly once.
    assert values["uarch.counters.calls"] == 17
    assert values["experiments.memo_hit_ratio"] == 0.0
    assert values["exec.journal_appends"] == 17


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_work_counts_repeat_exactly(workload, tmp_path):
    with open(run.REFERENCE_PATH, encoding="utf-8") as handle:
        references = json.load(handle)["digests"]
    counts = []
    for _ in range(2):
        invocation = run.run_verb(workload, 0, str(tmp_path),
                                  deadline=time.monotonic() + 600,
                                  references=references, traced=True)
        assert not invocation.failed, invocation.problems
        counts.append({name: invocation.layers[name]
                       for name in layers.WORK_COUNTS})
    assert counts[0] == counts[1]
    assert any(counts[0].values())
