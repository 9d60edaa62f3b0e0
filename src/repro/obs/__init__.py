"""Observability for the simulated cluster: spans, telemetry, profiling.

The measurement substrate the source paper had on real hardware —
performance counters, framework logs, sampled system metrics — rebuilt
for the simulator.  Everything is default-off: with no tracer attached
the instrumented code paths record nothing and schedules stay
bit-identical.
"""

from repro.obs.anchors import (
    PAPER_ANCHORS,
    Anchor,
    AnchorCheck,
    anchored_experiments,
    anchors_for,
    evaluate_record,
)
from repro.obs.export import (
    render_trace_summary,
    sweep_records_to_chrome,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.dashboard import render_history_page, render_site
from repro.obs.hostprof import (
    HostProfile,
    HotFunction,
    module_of,
    profile_call,
)
from repro.obs.observatory import (
    ObservatoryModel,
    SkippedArtifact,
    SweepView,
    build_model,
)
from repro.obs.perf import (
    BenchResult,
    BenchTarget,
    PerfDiff,
    bench_targets,
    load_budgets,
    perfdiff,
    run_bench,
)
from repro.obs.stats import (
    RobustStats,
    bootstrap_ci_median,
    intervals_separated,
    mad,
    median,
    robust_summary,
)
from repro.obs.metrics import (
    ClusterTelemetry,
    Counter,
    CounterRegistry,
    NodeSample,
    TimelineTotals,
    UtilizationTimeline,
)
from repro.obs.registry import (
    SCHEMA_VERSION,
    RunRecord,
    RunRegistry,
    build_provenance,
    flatten_rows,
    runs_dir_default,
)
from repro.obs.report import (
    DiffResult,
    History,
    Scorecard,
    diff_records,
    history,
    scorecard,
    sparkline,
)
from repro.obs.stream import (
    PROGRESS_SCHEMA_VERSION,
    ProgressStream,
    TerminalRenderer,
    read_progress,
    render_openmetrics,
)
from repro.obs.tracer import (
    SPAN_CATEGORIES,
    CounterSample,
    InstantEvent,
    Span,
    Tracer,
)

__all__ = [
    "PAPER_ANCHORS",
    "PROGRESS_SCHEMA_VERSION",
    "SCHEMA_VERSION",
    "SPAN_CATEGORIES",
    "Anchor",
    "AnchorCheck",
    "BenchResult",
    "BenchTarget",
    "ClusterTelemetry",
    "Counter",
    "CounterRegistry",
    "CounterSample",
    "DiffResult",
    "History",
    "HostProfile",
    "HotFunction",
    "InstantEvent",
    "NodeSample",
    "ObservatoryModel",
    "PerfDiff",
    "ProgressStream",
    "RobustStats",
    "RunRecord",
    "RunRegistry",
    "Scorecard",
    "SkippedArtifact",
    "Span",
    "SweepView",
    "TerminalRenderer",
    "TimelineTotals",
    "Tracer",
    "UtilizationTimeline",
    "anchored_experiments",
    "anchors_for",
    "bench_targets",
    "bootstrap_ci_median",
    "build_model",
    "build_provenance",
    "diff_records",
    "evaluate_record",
    "flatten_rows",
    "history",
    "intervals_separated",
    "load_budgets",
    "mad",
    "median",
    "module_of",
    "perfdiff",
    "profile_call",
    "read_progress",
    "render_history_page",
    "render_openmetrics",
    "render_site",
    "render_trace_summary",
    "robust_summary",
    "run_bench",
    "runs_dir_default",
    "scorecard",
    "sparkline",
    "sweep_records_to_chrome",
    "to_chrome_trace",
    "write_chrome_trace",
]
