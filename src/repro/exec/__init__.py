"""``repro.exec``: the supervised parallel sweep executor.

Decomposes an experiment session into independent seeded cells
(:mod:`~repro.exec.cells`), runs them across N supervised worker
processes with timeouts, heartbeat hang detection, capped-backoff
retry, poison-cell quarantine and serial degradation
(:mod:`~repro.exec.supervisor` / :mod:`~repro.exec.pool`), journals
progress crash-safely for ``--resume`` (:mod:`~repro.exec.checkpoint`),
and merges cells back into one record only after provenance-hash
validation (:mod:`~repro.exec.merge`).  :func:`run_sweep` is the one
entry point that sets all of this up for a caller.
"""

from repro.exec.cells import (  # noqa: F401
    DEFAULT_CELL_FN,
    CellResult,
    SweepCell,
    decompose,
    provenance_hash,
)
from repro.exec.checkpoint import (  # noqa: F401
    SweepCheckpoint,
    SweepLock,
    sweep_id,
)
from repro.exec.merge import (  # noqa: F401
    merge_results,
    telemetry_lines,
    validate_cell,
)
from repro.exec.supervisor import (  # noqa: F401
    SweepExecutor,
    SweepOutcome,
    run_sweep,
)
from repro.exec.tracing import (  # noqa: F401
    SpanWriter,
    SweepTracer,
    merge_sweep_trace,
    read_span_records,
    worker_lane,
)

__all__ = [
    "DEFAULT_CELL_FN",
    "CellResult",
    "SpanWriter",
    "SweepCell",
    "SweepCheckpoint",
    "SweepExecutor",
    "SweepLock",
    "SweepOutcome",
    "SweepTracer",
    "decompose",
    "merge_results",
    "merge_sweep_trace",
    "provenance_hash",
    "read_span_records",
    "run_sweep",
    "sweep_id",
    "telemetry_lines",
    "validate_cell",
    "worker_lane",
]
