"""Tracing-overhead guardrail: observed sweeps must stay cheap and exact.

Runs the same fixed-seed Figure 4 regeneration twice — once bare, once
with the full observability stack attached (cross-process tracer +
progress stream + merged Chrome trace) — and records the wall-clock
ratio into the bench trajectory.  The hard assertion is the PR 2
invariant: the observed run's fidelity metrics are bit-identical to
the unobserved run's, byte for byte under ``json.dumps``.
"""

import json
import os
import time

from conftest import run_once

from repro.exec import (
    SweepExecutor,
    SweepTracer,
    decompose,
    merge_sweep_trace,
)
from repro.exec.supervisor import DEFAULT_CELL_TIMEOUT
from repro.experiments import ExperimentContext, fig4_cache
from repro.obs import ProgressStream, RunRegistry
from repro.obs.perf import obs_overhead_record
from repro.uarch import XEON_E5645, platform_key
from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS

#: Smaller than BENCH_SCALE: this bench runs the experiment twice.
OVERHEAD_SCALE = 0.2


def _run_fig4(tracer=None, stream=None):
    """Figure 4 from the counters of a two-worker executor run."""
    definitions = list(REPRESENTATIVE_WORKLOADS) + list(MPI_WORKLOADS)
    cells = decompose(
        [d.workload_id for d in definitions], [platform_key(XEON_E5645)],
        OVERHEAD_SCALE, [0],
    )
    executor = SweepExecutor(
        jobs=2, cell_timeout=DEFAULT_CELL_TIMEOUT,
        tracer=tracer, observer=stream,
    )
    context = ExperimentContext(scale=OVERHEAD_SCALE, seed=0)
    context.adopt_cells(executor.run(cells).results)
    return fig4_cache.run(context)


def test_tracing_overhead_and_bit_identity(benchmark, tmp_path):
    untraced_t0 = time.perf_counter()
    untraced = _run_fig4()
    untraced_s = time.perf_counter() - untraced_t0

    # Mutable: filled during the benchmarked call, read at record time.
    extras = {"bench.untraced_s": untraced_s}

    def traced_fig4():
        trace_dir = str(tmp_path / "trace")
        tracer = SweepTracer(trace_dir)
        stream = ProgressStream(
            str(tmp_path / "progress.jsonl"), sweep="bench-overhead"
        )
        t0 = time.perf_counter()
        result = _run_fig4(tracer=tracer, stream=stream)
        traced_s = time.perf_counter() - t0
        stream.close()
        tracer.close()
        merge_sweep_trace(trace_dir, str(tmp_path / "trace.json"))
        extras["bench.traced_s"] = traced_s
        extras["bench.overhead_ratio"] = traced_s / max(1e-9, untraced_s)
        return result

    traced = run_once(benchmark, traced_fig4, extra_timings=extras)

    # Persist the ratio through the schema-versioned bench-record path
    # too (experiment ``bench.obs-overhead``), so the observatory's
    # bench page charts the overhead trajectory alongside the harness
    # targets.
    RunRegistry().save(
        obs_overhead_record(
            untraced_s=untraced_s,
            traced_s=extras["bench.traced_s"],
            scale=OVERHEAD_SCALE,
            seed=0,
        )
    )

    print()
    print(
        f"  untraced {untraced_s:.2f}s  traced {extras['bench.traced_s']:.2f}s"
        f"  ratio {extras['bench.overhead_ratio']:.3f}"
    )

    # Bit-identity: observation must not change one computed byte.
    assert (
        json.dumps(untraced.fidelity_metrics(), sort_keys=True)
        == json.dumps(traced.fidelity_metrics(), sort_keys=True)
    )
    # The merged trace exists and the guardrail itself: tracing a real
    # sweep may not double its cost.
    assert os.path.isfile(tmp_path / "trace.json")
    assert extras["bench.overhead_ratio"] < 2.0
