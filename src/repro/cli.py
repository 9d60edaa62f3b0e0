"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's experiments:

    python -m repro list                     # the workload catalog
    python -m repro run S-WordCount          # run + characterize one workload
    python -m repro reduce [--k 17]          # the 77 -> 17 reduction
    python -m repro fig 1|2|3|4|5|locality   # regenerate a figure
    python -m repro table 1|2|4              # regenerate a table
    python -m repro stacks                   # the §5.5 stack study
    python -m repro system                   # §3.2 classification
    python -m repro faults [--seed 7]        # stack fault resilience
    python -m repro chaos [--seeds 20]       # invariant-audited chaos soak
    python -m repro trace S-WordCount        # span-trace one run
    python -m repro sweep --jobs 4           # supervised parallel sweep
    python -m repro profile S-WordCount      # host hot-path profiler
    python -m repro metrics                  # OpenMetrics counter scrape
    python -m repro report                   # fidelity scorecard vs paper
    python -m repro diff <run-a> <run-b>     # per-metric drift, CI gate
    python -m repro history fig3             # metric trajectory, sparklines
    python -m repro lint [--dynamic]         # determinism sanitizer
    python -m repro dash [--out DIR]         # static HTML observatory
    python -m repro bench fig4 --reps 5      # noise-aware wall-clock bench
    python -m repro perfdiff                 # CI perf gate vs budgets

Every metric-producing command also writes a versioned run record into
the registry directory (``.repro-runs/`` by default; override with
``--runs-dir`` or ``REPRO_RUNS_DIR``, suppress with ``--no-record``) —
that registry is what ``report``/``diff``/``history`` read.

``sweep`` (and ``fig``/``table`` with ``--jobs N``) fan the
workload x platform x seed matrix out across supervised worker
processes (:mod:`repro.exec`): per-cell timeouts with SIGKILL
escalation, heartbeat hang detection, capped-backoff retry,
poison-cell quarantine, and a crash-safe checkpoint under
``<runs dir>/sweeps/`` that ``--resume`` restarts from.  Each such run
also records per-process span files merged into one Chrome/Perfetto
trace (``--no-trace`` disables) and streams JSONL progress events next
to the checkpoint (``--progress`` forces the live status line on).
Bad input (unknown workload, invalid ``--seed``/``--scale``, missing
``--replay``) exits 2 with a one-line typed error, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.experiments import (
    ExperimentContext,
    fault_resilience,
    fig1_instruction_mix,
    fig2_integer_breakdown,
    fig3_ipc,
    fig4_cache,
    fig5_tlb,
    fig6to9_locality,
    stack_impact,
    system_behaviors,
    table1_datasets,
    table2_reduction,
    table4_branch,
)
from repro.obs.registry import (
    RunRecord,
    RunRegistry,
    build_provenance,
    runs_dir_default,
)
from repro.uarch import (
    ATOM_D510,
    PLATFORMS,
    XEON_E5645,
    characterize,
    platform_by_key,
    platform_key,
)
from repro.workloads import (
    ALL_WORKLOADS,
    MPI_WORKLOADS,
    REPRESENTATIVE_WORKLOADS,
    workload,
)

_FIGURES = {
    "1": fig1_instruction_mix,
    "2": fig2_integer_breakdown,
    "3": fig3_ipc,
    "4": fig4_cache,
    "5": fig5_tlb,
}

_TABLES = {
    "2": table2_reduction,
    "4": table4_branch,
}


def _registry(args) -> RunRegistry:
    return RunRegistry(args.runs_dir)


def _save_record(args, record: RunRecord, quiet: bool = False) -> str:
    """Persist one run record unless ``--no-record`` was given."""
    if args.no_record:
        return ""
    path = _registry(args).save(record)
    if not quiet:
        print(f"\nrecorded {record.run_id} -> {path}")
    return path


def _record_experiment(
    args,
    context: ExperimentContext,
    experiment: str,
    result,
    *,
    kind: str = "experiment",
    platforms=None,
    config=None,
    quiet: bool = False,
) -> RunRecord:
    """Build + persist the record for one experiment result."""
    record = context.make_record(
        experiment,
        result.fidelity_metrics(),
        kind=kind,
        platforms=platforms,
        config=config,
    )
    _save_record(args, record, quiet=quiet)
    return record


def _cmd_list(_args) -> int:
    print(f"{'workload':26s} {'stack':8s} {'dataset':16s} {'category':22s} rep")
    for definition in ALL_WORKLOADS + MPI_WORKLOADS:
        marker = f"x{definition.represents}" if definition.representative else ""
        print(
            f"{definition.workload_id:26s} {definition.stack:8s} "
            f"{definition.dataset:16s} {definition.category.value:22s} {marker}"
        )
    print(f"\n{len(ALL_WORKLOADS)} catalog workloads + {len(MPI_WORKLOADS)} MPI versions")
    return 0


def _cmd_run(args) -> int:
    definition = workload(args.workload)
    platform = platform_by_key(args.platform)
    if not args.json:
        print(f"running {definition.workload_id} ({definition.description}) ...")
    cluster = None
    if getattr(args, "cluster", False):
        from repro.cluster.cluster import Cluster

        cluster = Cluster()
    result = definition.runner(scale=args.scale, seed=args.seed,
                               cluster=cluster)
    counters = characterize(result.profile, platform, seed=1234 + args.seed)
    metrics = dict(counters.metric_dict())
    if result.system is not None:
        for name, value in result.system.to_dict().items():
            metrics[f"system.{name}"] = float(value)
    record = RunRecord(
        experiment=f"run.{definition.workload_id}",
        kind="run",
        metrics=metrics,
        provenance=build_provenance(
            experiment=f"run.{definition.workload_id}",
            seed=args.seed,
            scale=args.scale,
            platforms=[platform.name],
        ),
    )
    if args.json:
        _save_record(args, record, quiet=True)
        print(
            json.dumps(
                {
                    "workload": definition.workload_id,
                    "platform": platform.name,
                    "scale": args.scale,
                    "seed": args.seed,
                    "run_id": record.run_id,
                    "metrics": metrics,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    print(f"platform: {platform.name}")
    for name, value in metrics.items():
        print(f"  {name:26s} {value:12.4f}")
    _save_record(args, record)
    return 0


def _cmd_trace(args) -> int:
    from repro.cluster.cluster import Cluster
    from repro.cluster.events import Simulation
    from repro.obs import Tracer, render_trace_summary, write_chrome_trace

    definition = workload(args.workload)
    tracer = Tracer(sample_interval=args.sample_interval)
    cluster = Cluster(sim=Simulation(tracer=tracer))
    print(f"tracing {definition.workload_id} ({definition.description}) ...")
    definition.runner(scale=args.scale, cluster=cluster, seed=args.seed)
    n_events = write_chrome_trace(
        tracer, args.out, process_name=f"repro {definition.workload_id}"
    )
    print(render_trace_summary(tracer))
    # Span counts and simulated durations are deterministic for a fixed
    # seed/scale, so the trace summary is a legitimate registry metric.
    metrics = {"trace.events": float(n_events)}
    by_category = {}
    for span in tracer.spans:
        bucket = by_category.setdefault(span.category, [0, 0.0])
        bucket[0] += 1
        bucket[1] += span.duration
    for category, (count, seconds) in sorted(by_category.items()):
        metrics[f"trace.{category}.spans"] = float(count)
        metrics[f"trace.{category}.seconds"] = seconds
    experiment = f"trace.{definition.workload_id}"
    record = RunRecord(
        experiment=experiment,
        kind="trace",
        metrics=metrics,
        provenance=build_provenance(
            experiment=experiment,
            seed=args.seed,
            scale=args.scale,
            platforms=[],
        ),
    )
    _save_record(args, record)
    print(
        f"\nwrote {n_events} trace events to {args.out} — load it in "
        f"Perfetto (ui.perfetto.dev) or chrome://tracing"
    )
    return 0


def _cmd_reduce(args) -> int:
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    with context.time_experiment("reduce"):
        result = table2_reduction.run(context, k=args.k, seed=args.seed)
    record = context.make_record(
        "reduce",
        result.fidelity_metrics(),
        series=result.to_dict(),
        config={"k": args.k},
    )
    if args.json:
        _save_record(args, record, quiet=True)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    for representative in result.reduction.representatives:
        members = result.reduction.clusters[representative]
        print(f"{representative:26s} represents {len(members)}")
    _save_record(args, record)
    return 0


def _print_timings(context: ExperimentContext) -> None:
    lines = context.timing_lines()
    if lines:
        print("\ntimings:")
        for line in lines:
            print(f"  {line}")


def _run_sweep(args, name: str, config: dict, cells, *,
               quiet: bool = False):
    """One verb's sweep through :func:`repro.exec.run_sweep`.

    Tracing is on unless ``--no-trace``; the terminal status line
    engages with ``--progress``, or by default on a tty.  Both are pure
    observers: the executor's results are bit-identical either way.
    After the sweep the per-process span files are merged into one
    Chrome trace, ``trace.json`` in the checkpoint directory.
    """
    from repro.errors import TraceMergeError
    from repro.exec import merge_sweep_trace, run_sweep
    from repro.obs.stream import TerminalRenderer

    want_line = (
        args.progress if args.progress is not None else sys.stderr.isatty()
    )
    outcome = run_sweep(
        args.runs_dir, name, config, args.seed, cells,
        jobs=args.jobs, cell_timeout=args.cell_timeout, resume=args.resume,
        trace=not args.no_trace,
        renderer=TerminalRenderer() if want_line else None,
    )
    if args.no_trace:
        return outcome
    out = os.path.join(outcome.sweep_dir, "trace.json")
    try:
        n_events, n_flows = merge_sweep_trace(
            os.path.join(outcome.sweep_dir, "trace"), out
        )
    except TraceMergeError as error:
        print(f"warning: could not merge sweep trace: {error}",
              file=sys.stderr)
        return outcome
    print(
        f"merged sweep trace: {n_events} event(s), {n_flows} retry "
        f"flow link(s) -> {out}",
        file=sys.stderr if quiet else sys.stdout,
    )
    return outcome


def _prime_context(args, context: ExperimentContext, name: str,
                   workload_ids, platforms) -> None:
    """Fan a verb's characterization cells out across worker processes.

    One cell per workload on each platform, platform by platform.  Only
    engages for ``--jobs > 1`` (or ``--resume``); the adopted counters
    are bit-identical to serially computed ones, and quarantined cells
    silently fall back to in-process computation.
    """
    if args.jobs <= 1 and not args.resume:
        return
    from repro.exec import decompose

    cells = [
        cell
        for platform in platforms
        for cell in decompose(
            workload_ids, [platform_key(platform)], args.scale, [args.seed]
        )
    ]
    config = {
        "verb": name,
        "pairs": sorted(
            [cell.workload, platform_by_key(cell.platform).name]
            for cell in cells
        ),
        "scale": args.scale,
        "seed": args.seed,
    }
    outcome = _run_sweep(args, name, config, cells)
    context.adopt_cells(outcome.results)
    for key, value in outcome.telemetry.items():
        context.registry.add(f"exec.{key}", value)
    if outcome.quarantined:
        print(
            f"warning: {len(outcome.quarantined)} sweep cell(s) "
            f"quarantined; they will be computed serially in-process:\n"
            f"{outcome.render_quarantine()}",
            file=sys.stderr,
        )


_REPRESENTATIVES = [d.workload_id for d in REPRESENTATIVE_WORKLOADS]


def _fig_workloads(figure: str):
    """The workloads a figure plots, all on the Xeon."""
    workload_ids = list(_REPRESENTATIVES)
    if figure != "2":  # every other figure also plots the MPI six
        workload_ids += [d.workload_id for d in MPI_WORKLOADS]
    return workload_ids


def _cmd_fig(args) -> int:
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    if args.figure == "locality":
        _prime_context(args, context, "fig-locality",
                       _fig_workloads("locality"), [XEON_E5645])
        with context.time_experiment("fig-locality"):
            result = fig6to9_locality.run(context)
        print(result.render())
        _print_timings(context)
        _record_experiment(args, context, "fig-locality", result,
                           kind="figure")
        return 0
    module = _FIGURES.get(args.figure)
    if module is None:
        print(f"unknown figure {args.figure!r}; choose 1-5 or 'locality'",
              file=sys.stderr)
        return 2
    _prime_context(args, context, f"fig{args.figure}",
                   _fig_workloads(args.figure), [XEON_E5645])
    with context.time_experiment(f"fig-{args.figure}"):
        result = module.run(context)
    print(result.render())
    _print_timings(context)
    _record_experiment(args, context, f"fig{args.figure}", result,
                       kind="figure")
    return 0


def _cmd_table(args) -> int:
    if args.table == "1":
        context = ExperimentContext(scale=args.scale, seed=args.seed)
        with context.time_experiment("table-1"):
            result = table1_datasets.run()
        print(result.render())
        _record_experiment(args, context, "table1", result, kind="table")
        return 0
    module = _TABLES.get(args.table)
    if module is None:
        print(f"unknown table {args.table!r}; choose 1, 2 or 4", file=sys.stderr)
        return 2
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    platforms = [XEON_E5645, ATOM_D510] if args.table == "4" else [XEON_E5645]
    _prime_context(args, context, f"table{args.table}", _REPRESENTATIVES,
                   platforms)
    with context.time_experiment(f"table-{args.table}"):
        result = module.run(context)
    print(result.render())
    _print_timings(context)
    _record_experiment(args, context, f"table{args.table}", result,
                       kind="table", platforms=[p.name for p in platforms])
    return 0


def _cmd_sweep(args) -> int:
    """The supervised parallel sweep over workload x platform x seed."""
    from repro.errors import InvalidParameterError
    from repro.exec import decompose, merge_results, telemetry_lines

    if args.workloads:
        workload_ids = [w.strip() for w in args.workloads.split(",") if w.strip()]
    else:
        workload_ids = list(_REPRESENTATIVES)
    for workload_id in workload_ids:
        workload(workload_id)  # typed UnknownWorkloadError before any work
    platforms = [p.strip() for p in args.platforms.split(",") if p.strip()]
    if not platforms:
        raise InvalidParameterError("--platforms must name at least one platform")
    platform_names = [platform_by_key(key).name for key in platforms]
    seeds = list(range(args.seed, args.seed + args.seeds))
    cells = decompose(workload_ids, platforms, args.scale, seeds)

    config = {
        "workloads": workload_ids,
        "platforms": platforms,
        "scale": args.scale,
        "seeds": seeds,
    }
    outcome = _run_sweep(args, args.name or "sweep", config, cells,
                         quiet=args.json)

    if outcome.quarantined:
        print(
            f"sweep incomplete: {len(outcome.quarantined)} of "
            f"{len(cells)} cell(s) quarantined",
            file=sys.stderr,
        )
        print(outcome.render_quarantine(), file=sys.stderr)
        print("re-run with --resume after fixing the cause", file=sys.stderr)
        return 1

    merged = merge_results(cells, outcome.results,
                           single_seed=len(seeds) == 1)
    experiment = f"sweep.{args.name}" if args.name else "sweep"
    record = RunRecord(
        experiment=experiment,
        kind="sweep",
        metrics=merged,
        provenance=build_provenance(
            experiment=experiment,
            seed=args.seed,
            scale=args.scale,
            platforms=platform_names,
            config=config,
        ),
        timings={f"exec.{k}": v for k, v in outcome.telemetry.items()},
    )
    if args.json:
        _save_record(args, record, quiet=True)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"sweep of {len(workload_ids)} workload(s) x {len(platforms)} "
        f"platform(s) x {len(seeds)} seed(s) = {len(cells)} cells "
        f"({len(merged)} metrics)"
    )
    for line in telemetry_lines(outcome.telemetry):
        print(f"  {line}")
    _save_record(args, record)
    return 0


def _cmd_profile(args) -> int:
    """Host hot-path profile of one workload characterization.

    Every measured number is wall-clock and therefore quarantined: the
    record's ``metrics`` are the ordinary (deterministic) performance
    counters, while the whole attribution lands in ``timings``.
    """
    from repro.obs.hostprof import profile_call

    definition = workload(args.workload)
    platform = platform_by_key(args.platform)
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    if not args.json:
        print(
            f"profiling {definition.workload_id} on {platform.name} "
            f"(host wall-clock, scale {args.scale}) ..."
        )
    counters, profile = profile_call(
        context.counters, definition.workload_id, platform
    )
    experiment = f"profile.{definition.workload_id}"
    record = RunRecord(
        experiment=experiment,
        kind="profile",
        metrics=dict(counters.metric_dict()),
        provenance=build_provenance(
            experiment=experiment,
            seed=args.seed,
            scale=args.scale,
            platforms=[platform.name],
        ),
        timings=profile.timings(),
    )
    if args.json:
        _save_record(args, record, quiet=True)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    print(profile.render_table(args.top))
    print()
    print(profile.render_flame())
    print(
        f"\nattributed {100 * profile.attributed_fraction():.1f}% of "
        f"{profile.total_s:.3f}s measured self time "
        f"({100 * profile.uarch_fraction():.1f}% inside repro.uarch)"
    )
    _save_record(args, record)
    return 0


def _cmd_metrics(args) -> int:
    """OpenMetrics-style exposition of registry and sweep counters."""
    from repro.obs.stream import render_openmetrics

    sys.stdout.write(render_openmetrics(args.runs_dir))
    return 0


def _cmd_stacks(args) -> int:
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    with context.time_experiment("stacks"):
        result = stack_impact.run(context)
    record = context.make_record(
        "stacks", result.fidelity_metrics(), series=result.to_dict()
    )
    if args.json:
        _save_record(args, record, quiet=True)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    print(result.render())
    _save_record(args, record)
    return 0


def _cmd_system(args) -> int:
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    with context.time_experiment("system"):
        result = system_behaviors.run(context)
    record = context.make_record(
        "system", result.fidelity_metrics(), series=result.to_dict()
    )
    if args.json:
        _save_record(args, record, quiet=True)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    print(result.render())
    _save_record(args, record)
    return 0


def _cmd_faults(args) -> int:
    from repro.errors import InvariantViolation

    context = ExperimentContext(scale=args.scale, seed=args.seed)
    try:
        with context.time_experiment("faults"):
            result = fault_resilience.run(context)
    except InvariantViolation as violation:
        # A lost wave or broken invariant is a simulator bug, never a
        # legitimate stack outcome: fail the command.
        print(f"invariant violation: {violation}", file=sys.stderr)
        return 1
    record = context.make_record(
        "faults", result.fidelity_metrics(), kind="faults",
        series=result.to_dict(),
    )
    if args.json:
        _save_record(args, record, quiet=True)
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(result.render())
    _save_record(args, record)
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos import (
        load_replay,
        replay_to_dict,
        run_plan,
        save_replay,
        shrink_plan,
        violation_signature,
    )
    from repro.experiments import chaos_soak

    if args.replay:
        data = load_replay(args.replay)
        case = run_plan(
            data["workload"], data["stack"], data["plan"],
            scale=data.get("scale", args.scale),
        )
        if args.json:
            print(json.dumps(case.to_dict(), indent=2, sort_keys=True))
        else:
            print(
                f"replayed {data['workload']}/{data['stack']} "
                f"({len(data['plan'].faults)} faults): outcome={case.outcome}"
            )
            for violation in case.violations:
                print(f"  {violation.invariant}: {violation.detail}")
        if case.violations:
            print("violation reproduced", file=sys.stderr)
            return 1
        if not args.json:
            print("clean: the violation no longer reproduces")
        return 0

    workloads = args.workloads.split(",") if args.workloads else None
    stacks = args.stacks.split(",") if args.stacks else None
    context = ExperimentContext(scale=args.scale, seed=args.seed)
    result = chaos_soak.run(
        context, seeds=args.seeds, workloads=workloads, stacks=stacks
    )
    artifacts = []
    if not result.clean:
        # Minimise each violating plan and pin it to a replay file.
        os.makedirs(args.artifact_dir, exist_ok=True)
        for campaign in result.campaigns:
            for case in campaign.dirty_cases:
                plan = case.case.plan
                if not args.no_shrink:
                    plan = shrink_plan(
                        plan,
                        lambda candidate: violation_signature(
                            run_plan(
                                case.case.workload, case.case.stack,
                                candidate, scale=args.scale,
                            ).violations
                        ),
                    )
                path = os.path.join(
                    args.artifact_dir,
                    f"chaos-seed{campaign.seed}-{case.case.workload}-"
                    f"{case.case.stack}.json",
                )
                save_replay(
                    path,
                    replay_to_dict(
                        case.case.workload,
                        case.case.stack,
                        plan,
                        args.scale,
                        scenario=case.case.scenario,
                        seed=campaign.seed,
                        violations=[v.to_dict() for v in case.violations],
                    ),
                )
                artifacts.append(path)
    record = context.make_record(
        "chaos", result.fidelity_metrics(), kind="chaos",
        config={"seeds": args.seeds, "workloads": workloads,
                "stacks": stacks},
    )
    if args.json:
        _save_record(args, record, quiet=True)
        payload = result.to_dict()
        payload["artifacts"] = artifacts
        payload["run_id"] = record.run_id
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.render())
        for path in artifacts:
            print(f"minimized replay written to {path}")
        _save_record(args, record)
    return 0 if result.clean else 1


def _cmd_report(args) -> int:
    from repro.obs.report import scorecard

    experiments = args.experiments.split(",") if args.experiments else None
    card = scorecard(_registry(args), experiments=experiments)
    if args.json:
        print(json.dumps(card.to_dict(), indent=2, sort_keys=True))
    else:
        print(card.render())
    return 1 if args.strict and not card.ok else 0


def _cmd_diff(args) -> int:
    from repro.obs.report import diff_records

    registry = _registry(args)
    try:
        record_a = registry.resolve(args.run_a)
        record_b = registry.resolve(args.run_b)
    except (KeyError, ValueError) as error:
        print(f"cannot resolve run record: {error}", file=sys.stderr)
        return 3
    result = diff_records(
        record_a, record_b,
        rel_threshold=args.rel_threshold,
        abs_threshold=args.abs_threshold,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return result.exit_code


def _cmd_history(args) -> int:
    from repro.obs.report import history

    result = history(
        _registry(args), args.experiment, metrics=args.metric or None
    )
    if args.html:
        out = args.out or f"history-{args.experiment}.html"
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(result.to_html())
        print(f"wrote {out}")
        return 0
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        return 0
    print(result.render())
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis import (
        default_baseline_path,
        default_lint_root,
        hashseed_crosscheck,
        lint_tree,
        load_baseline,
        new_findings,
        render_json,
        render_text,
        rule_catalog,
        save_baseline,
    )
    from repro.errors import InvalidParameterError

    if args.rules:
        for doc in rule_catalog():
            print(doc.render())
            print()
        return 0

    if args.dynamic:
        try:
            hash_seeds = tuple(
                int(s) for s in args.hash_seeds.split(",") if s.strip()
            )
        except ValueError:
            raise InvalidParameterError(
                f"--hash-seeds must be comma-separated integers, "
                f"got {args.hash_seeds!r}"
            )
        result = hashseed_crosscheck(
            workload=args.workload,
            scale=args.scale,
            seed=args.seed,
            hash_seeds=hash_seeds,
        )
        if args.json:
            print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
        else:
            print(result.render())
        return 0 if result.identical else 1

    root = args.path or default_lint_root()
    report = lint_tree(root)

    baseline_path = args.baseline or default_baseline_path()
    if args.update_baseline:
        target = args.baseline or default_baseline_path() or "tools/lint_baseline.json"
        count = save_baseline(target, report.findings)
        print(
            f"baseline {target} updated: {count} finding(s) grandfathered"
        )
        return 0
    baseline = load_baseline(baseline_path) if baseline_path else None
    fresh = new_findings(report.findings, baseline or {})
    if args.json:
        print(
            json.dumps(
                render_json(report, fresh, baseline_path, baseline),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(render_text(report, fresh, baseline_path, baseline))
    return 1 if fresh else 0


def _cmd_fsck(args) -> int:
    """Scan (and optionally repair) the runs directory; diff-style exits."""
    from repro.obs.fsck import fsck_repair, fsck_scan

    try:
        result = fsck_scan(args.runs_dir)
    except FileNotFoundError:
        print(f"fsck: runs directory {args.runs_dir!r} does not exist",
              file=sys.stderr)
        return 3
    payload = result.to_dict()
    exit_clean = result.clean
    if args.repair and result.findings:
        fsck_repair(result)
        after = fsck_scan(args.runs_dir)
        payload = result.to_dict()
        payload["post_repair"] = after.to_dict()
        exit_clean = after.clean
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(result.render())
        if args.repair and "post_repair" in payload:
            repaired = sum(1 for f in result.findings if f.repaired)
            print(f"\nrepaired {repaired} finding(s); post-repair scan: "
                  + ("clean" if exit_clean else "still has errors"))
    return 0 if exit_clean else 1


def _cmd_dash(args) -> int:
    """Render the static HTML observatory from the runs directory.

    Strictly read-only over ``--runs-dir`` (corrupt artifacts are
    reported on the health page, never touched) and byte-deterministic
    for a fixed directory state, so the output is diffable and
    cacheable.  No run record is written: the dash *reads* the
    registry, it is not an experiment.
    """
    from repro.obs.dashboard import render_site
    from repro.obs.observatory import build_model

    model = build_model(args.runs_dir)
    paths = render_site(model, args.out)
    summary = {
        "out": args.out,
        "pages": [os.path.basename(p) for p in paths],
        "records": len(model.records),
        "experiments": len(model.experiments()),
        "sweeps": len(model.sweeps),
        "skipped_artifacts": len(model.skipped),
        "health_errors": len(model.error_findings),
    }
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    print(
        f"observatory: {len(model.records)} record(s), "
        f"{len(model.experiments())} experiment(s), "
        f"{len(model.sweeps)} sweep(s) from {args.runs_dir}"
    )
    if model.skipped:
        print(
            f"  {len(model.skipped)} damaged/foreign artifact(s) skipped "
            "(see health.html)"
        )
    for path in paths:
        print(f"  wrote {path}")
    return 0


def _cmd_bench(args) -> int:
    """Noise-aware wall-clock benchmark of one named target."""
    from repro.obs.perf import bench_targets, run_bench

    if args.list:
        targets = bench_targets()
        width = max(len(name) for name in targets)
        for name in sorted(targets):
            target = targets[name]
            print(f"{name:<{width}s}  [{target.kind}] {target.description}")
        return 0
    if not args.target:
        print("bench: name a target (or use --list)", file=sys.stderr)
        return 2
    targets = bench_targets()
    if args.target not in targets:
        from repro.errors import InvalidParameterError

        raise InvalidParameterError(
            f"unknown bench target {args.target!r} "
            f"(known: {', '.join(sorted(targets))})"
        )
    result = run_bench(
        targets[args.target],
        reps=args.reps,
        warmup=args.warmup,
        scale=args.scale,
        seed=args.seed,
    )
    record = result.to_record()
    if args.json:
        _save_record(args, record, quiet=True)
        print(json.dumps(record.to_dict(), indent=2, sort_keys=True))
        return 0
    # Save before printing: a closed stdout (| head) must not cost the
    # measurement.
    path = _save_record(args, record, quiet=True)
    print(result.render())
    if path:
        print(f"\nrecorded {record.run_id} -> {path}")
    return 0


def _cmd_perfdiff(args) -> int:
    """Gate the latest bench records against the committed budgets."""
    from repro.obs.perf import load_budgets, perfdiff, update_budgets

    registry = _registry(args)
    targets = (
        [t for t in args.targets.split(",") if t.strip()]
        if args.targets else None
    )
    if args.update_budgets:
        manifest = update_budgets(registry, args.budgets, targets=targets)
        print(
            f"budget manifest {args.budgets} updated: "
            f"{len(manifest['budgets'])} target(s)"
        )
        return 0
    manifest = load_budgets(args.budgets)
    result = perfdiff(
        registry, manifest, budgets_path=args.budgets, targets=targets
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    if args.warn_only and result.exit_code != 0:
        # CI annotation format; the gate reports but does not fail
        # until enough baselines exist to trust the intervals.
        for verdict in result.failures:
            print(
                f"::warning title=perf {verdict.status} ({verdict.target})::"
                f"{verdict.detail}"
            )
        print("perfdiff: the gate failed, but --warn-only is set (exit 0)")
        return 0
    return result.exit_code


def _cmd_crashsim(args) -> int:
    """Run the crash-consistency campaign over a scratch sweep."""
    import shutil
    import tempfile

    from repro.analysis.crashsim import run_campaign

    work_dir = args.work_dir or tempfile.mkdtemp(prefix="repro-crashsim-")
    cleanup = args.work_dir is None
    try:
        result = run_campaign(
            work_dir,
            seed=args.seed,
            scale=args.scale,
            jobs=args.jobs,
            max_points=args.max_points,
            errno_points=args.errno_points,
            fsync_lie_points=args.fsync_lie_points,
            artifact_dir=args.artifact_dir,
        )
    finally:
        if cleanup:
            shutil.rmtree(work_dir, ignore_errors=True)
    _save_record(args, RunRecord(
        experiment="crashsim",
        kind="analysis",
        metrics=result.fidelity_metrics(),
        provenance=build_provenance(
            experiment="crashsim", seed=args.seed, scale=args.scale,
            platforms=[],
            config={"max_points": args.max_points,
                    "errno_points": args.errno_points,
                    "fsync_lie_points": args.fsync_lie_points,
                    "jobs": args.jobs},
        ),
    ), quiet=True)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(result.render())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Characterization and Architectural "
                    "Implications of Big Data Workloads' (ISPASS 2016).",
    )
    parser.add_argument("--scale", type=float, default=0.5,
                        help="workload scale factor (default 0.5)")
    parser.add_argument(
        "--runs-dir", default=runs_dir_default(), metavar="DIR",
        help="run-record registry directory (default .repro-runs/, "
             "or $REPRO_RUNS_DIR)",
    )
    parser.add_argument(
        "--no-record", action="store_true",
        help="do not write a run record for this invocation",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list the workload catalog")

    run_parser = commands.add_parser("run", help="run one workload")
    run_parser.add_argument("workload", help="workload id, e.g. S-WordCount")
    run_parser.add_argument("--platform", choices=tuple(PLATFORMS),
                            default=platform_key(XEON_E5645))
    run_parser.add_argument(
        "--seed", type=int, default=0,
        help="workload + characterization seed (default 0)",
    )
    run_parser.add_argument(
        "--cluster", action="store_true",
        help="replay the workload on the simulated cluster and record "
             "system.* metrics (partition-layout sensitive)",
    )
    run_parser.add_argument("--json", action="store_true",
                            help="emit metrics as JSON instead of a table")

    trace_parser = commands.add_parser(
        "trace",
        help="run one workload on a traced cluster; export a Chrome trace",
    )
    trace_parser.add_argument("workload", help="workload id, e.g. S-WordCount")
    trace_parser.add_argument(
        "--out", default="trace.json",
        help="Chrome trace_event output path (default trace.json)",
    )
    trace_parser.add_argument(
        "--sample-interval", type=float, default=None, metavar="S",
        help="sample per-node utilization every S simulated seconds "
             "(default: wave boundaries only)",
    )
    trace_parser.add_argument("--seed", type=int, default=0)

    reduce_parser = commands.add_parser("reduce", help="the 77 -> 17 reduction")
    reduce_parser.add_argument("--k", type=int, default=17)
    reduce_parser.add_argument("--seed", type=int, default=0)
    reduce_parser.add_argument(
        "--json", action="store_true",
        help="emit the registry run-record schema instead of a table",
    )

    def add_executor_flags(sub) -> None:
        sub.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for the characterization sweep "
                 "(default 1: serial in-process)",
        )
        sub.add_argument(
            "--cell-timeout", type=float, default=None, metavar="S",
            help="wall-clock seconds one sweep cell may take before its "
                 "worker is SIGKILLed and the cell retried (default 300)",
        )
        sub.add_argument(
            "--resume", action="store_true",
            help="resume from this configuration's sweep checkpoint, "
                 "re-running only incomplete cells",
        )
        sub.add_argument(
            "--no-trace", action="store_true",
            help="skip the per-process span files and merged Chrome "
                 "trace this run would otherwise record",
        )
        sub.add_argument(
            "--progress", action=argparse.BooleanOptionalAction,
            default=None,
            help="force the live progress line on (or off with "
                 "--no-progress); default: on when stderr is a tty",
        )

    fig_parser = commands.add_parser("fig", help="regenerate a figure")
    fig_parser.add_argument("figure", help="1-5 or 'locality' (6-9)")
    fig_parser.add_argument("--seed", type=int, default=0)
    add_executor_flags(fig_parser)

    table_parser = commands.add_parser("table", help="regenerate a table")
    table_parser.add_argument("table", help="1, 2 or 4")
    table_parser.add_argument("--seed", type=int, default=0)
    add_executor_flags(table_parser)

    sweep_parser = commands.add_parser(
        "sweep",
        help="characterize a workload x platform x seed matrix across "
             "supervised worker processes, with checkpoint/resume",
    )
    sweep_parser.add_argument(
        "--workloads", default=None, metavar="A,B,...",
        help="comma-separated workload ids (default: the 17 "
             "representatives)",
    )
    sweep_parser.add_argument(
        "--platforms", default=platform_key(XEON_E5645), metavar="P,Q",
        help=f"comma-separated platforms: {', '.join(PLATFORMS)} "
             f"(default {platform_key(XEON_E5645)})",
    )
    sweep_parser.add_argument(
        "--seed", type=int, default=0,
        help="first seed of the matrix (default 0)",
    )
    sweep_parser.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="number of consecutive seeds starting at --seed (default 1)",
    )
    sweep_parser.add_argument(
        "--name", default=None,
        help="sweep name, used in the record id and checkpoint key "
             "(default 'sweep')",
    )
    sweep_parser.add_argument("--json", action="store_true")
    add_executor_flags(sweep_parser)

    profile_parser = commands.add_parser(
        "profile",
        help="host hot-path profiler: attribute one workload "
             "characterization's wall-clock to repro functions "
             "(cProfile; all timings quarantined)",
    )
    profile_parser.add_argument(
        "workload", help="workload id, e.g. S-WordCount"
    )
    profile_parser.add_argument(
        "--platform", choices=tuple(PLATFORMS),
        default=platform_key(XEON_E5645),
    )
    profile_parser.add_argument(
        "--seed", type=int, default=0,
        help="characterization seed (default 0)",
    )
    profile_parser.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows in the hot-function table (default 20)",
    )
    profile_parser.add_argument(
        "--json", action="store_true",
        help="emit the registry run-record schema instead of the report",
    )

    commands.add_parser(
        "metrics",
        help="OpenMetrics-style text exposition of registry record "
             "counts, executor telemetry and sweep progress",
    )

    stacks_parser = commands.add_parser(
        "stacks", help="the §5.5 software-stack study"
    )
    stacks_parser.add_argument("--seed", type=int, default=0)
    stacks_parser.add_argument(
        "--json", action="store_true",
        help="emit the registry run-record schema instead of a table",
    )

    system_parser = commands.add_parser(
        "system", help="§3.2 system-behaviour classification"
    )
    system_parser.add_argument("--seed", type=int, default=0)
    system_parser.add_argument(
        "--json", action="store_true",
        help="emit the registry run-record schema instead of a table",
    )

    faults_parser = commands.add_parser(
        "faults",
        help="fault resilience: Hadoop vs Spark vs MPI under a node crash",
    )
    faults_parser.add_argument(
        "--seed", type=int, default=7,
        help="fault-plan seed (same seed, same faults, same metrics)",
    )
    faults_parser.add_argument(
        "--json", action="store_true",
        help="emit the resilience results as JSON instead of a table",
    )

    chaos_parser = commands.add_parser(
        "chaos",
        help="invariant-audited chaos campaigns over the workload x stack "
             "matrix; exits nonzero on any violation",
    )
    chaos_parser.add_argument(
        "--seeds", type=int, default=5,
        help="number of consecutive campaign seeds to run (default 5)",
    )
    chaos_parser.add_argument(
        "--seed", type=int, default=0,
        help="first campaign seed (default 0)",
    )
    chaos_parser.add_argument(
        "--workloads", default=None,
        help="comma-separated workloads (default wordcount,grep; "
             "also: sort)",
    )
    chaos_parser.add_argument(
        "--stacks", default=None,
        help="comma-separated stacks (default Hadoop,Spark,MPI)",
    )
    chaos_parser.add_argument(
        "--artifact-dir", default="chaos-artifacts",
        help="where minimized replay files for violations land "
             "(default chaos-artifacts/)",
    )
    chaos_parser.add_argument(
        "--replay", default=None, metavar="FILE",
        help="re-run one saved replay file instead of a campaign; "
             "exits 1 if its violation still reproduces",
    )
    chaos_parser.add_argument(
        "--no-shrink", action="store_true",
        help="save violating plans as-is instead of minimizing them",
    )
    chaos_parser.add_argument(
        "--json", action="store_true",
        help="emit campaign verdicts as JSON instead of a table",
    )

    report_parser = commands.add_parser(
        "report",
        help="paper-fidelity scorecard: latest recorded runs vs the "
             "paper's anchor numbers",
    )
    report_parser.add_argument(
        "--experiments", default=None, metavar="A,B,...",
        help="restrict the scorecard to these experiments "
             "(default: every anchored experiment)",
    )
    report_parser.add_argument(
        "--strict", action="store_true",
        help="exit 1 if any anchor fails or lacks a recorded run",
    )
    report_parser.add_argument("--json", action="store_true")

    diff_parser = commands.add_parser(
        "diff",
        help="per-metric drift between two run records; exits 1 on "
             "drift, 2 on metric-set mismatch",
    )
    diff_parser.add_argument(
        "run_a",
        help="baseline: a record path, run id, experiment name "
             "(latest), or experiment~N",
    )
    diff_parser.add_argument("run_b", help="candidate, same forms")
    diff_parser.add_argument(
        "--rel-threshold", type=float, default=0.005, metavar="R",
        help="relative drift a metric must exceed to count (default 0.005)",
    )
    diff_parser.add_argument(
        "--abs-threshold", type=float, default=1e-9, metavar="A",
        help="absolute drift floor (default 1e-9)",
    )
    diff_parser.add_argument("--json", action="store_true")

    history_parser = commands.add_parser(
        "history",
        help="one experiment's metric trajectory across recorded runs",
    )
    history_parser.add_argument("experiment", help="e.g. fig3 or faults")
    history_parser.add_argument(
        "--metric", action="append", metavar="NAME",
        help="restrict to this metric (repeatable; default: all)",
    )
    history_parser.add_argument("--json", action="store_true")
    history_parser.add_argument(
        "--html", action="store_true",
        help="write a standalone HTML page with SVG trend lines",
    )
    history_parser.add_argument(
        "--out", default=None,
        help="HTML output path (default history-<experiment>.html)",
    )

    lint_parser = commands.add_parser(
        "lint",
        help="determinism sanitizer: AST lint of src/repro against the "
             "committed baseline; exits 1 on new findings",
    )
    lint_parser.add_argument(
        "path", nargs="?", default=None,
        help="file or directory to lint (default: the installed repro "
             "package tree)",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline of grandfathered findings "
             "(default: tools/lint_baseline.json when present)",
    )
    lint_parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to grandfather the current findings",
    )
    lint_parser.add_argument(
        "--rules", action="store_true",
        help="print the rule catalogue (IDs, rationale, fix hints) and exit",
    )
    lint_parser.add_argument(
        "--dynamic", action="store_true",
        help="runtime cross-check instead of static rules: run one "
             "fixed-seed workload under two PYTHONHASHSEED values and "
             "require byte-identical registry records",
    )
    lint_parser.add_argument(
        "--workload", default="H-WordCount",
        help="workload for --dynamic (default H-WordCount; Hadoop "
             "workloads expose partition skew to the cluster replay)",
    )
    lint_parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed for --dynamic (default 0)",
    )
    lint_parser.add_argument(
        "--hash-seeds", default="1,731", metavar="A,B",
        help="PYTHONHASHSEED values for --dynamic (default 1,731)",
    )
    lint_parser.add_argument("--json", action="store_true")

    fsck_parser = commands.add_parser(
        "fsck",
        help="scan the runs directory for torn, corrupt or orphaned "
             "artifacts; exits 1 on errors, 3 if the directory is missing",
    )
    fsck_parser.add_argument(
        "--repair", action="store_true",
        help="quarantine corrupt artifacts, drop torn journal tails, "
             "rebuild divergent snapshots and remove leaked tmp files / "
             "stale locks, then rescan",
    )
    fsck_parser.add_argument(
        "--json", action="store_true",
        help="emit typed findings as JSON instead of a report",
    )

    dash_parser = commands.add_parser(
        "dash",
        help="render the static HTML observatory (scorecard, history, "
             "sweep timelines, hot functions, bench trends, health) "
             "from the runs directory",
    )
    dash_parser.add_argument(
        "--out", default="observatory", metavar="DIR",
        help="output directory for the site (default observatory/)",
    )
    dash_parser.add_argument(
        "--json", action="store_true",
        help="emit a render summary as JSON instead of the page list",
    )

    bench_parser = commands.add_parser(
        "bench",
        help="noise-aware wall-clock benchmark of one target "
             "(experiment regen or repro.uarch kernel); records a "
             "kind=bench run record with median/MAD/bootstrap-CI",
    )
    bench_parser.add_argument(
        "target", nargs="?", default=None,
        help="target name, e.g. fig4 or uarch.cache-walk (see --list)",
    )
    bench_parser.add_argument(
        "--reps", type=int, default=5, metavar="N",
        help="measured repetitions (default 5)",
    )
    bench_parser.add_argument(
        "--warmup", type=int, default=1, metavar="K",
        help="discarded warmup repetitions (default 1)",
    )
    bench_parser.add_argument(
        "--seed", type=int, default=0,
        help="workload/characterization seed (default 0)",
    )
    bench_parser.add_argument(
        "--list", action="store_true",
        help="list the bench targets and exit",
    )
    bench_parser.add_argument(
        "--json", action="store_true",
        help="emit the registry run-record schema instead of the report",
    )

    perfdiff_parser = commands.add_parser(
        "perfdiff",
        help="compare the latest kind=bench records against the "
             "committed perf budgets; exits 1 only when a candidate's "
             "confidence interval separates above its budget's",
    )
    perfdiff_parser.add_argument(
        "--budgets", default=os.path.join(
            "benchmarks", "baselines", "perf_budgets.json"
        ), metavar="FILE",
        help="budget manifest (default benchmarks/baselines/"
             "perf_budgets.json)",
    )
    perfdiff_parser.add_argument(
        "--targets", default=None, metavar="A,B,...",
        help="restrict the gate to these targets (default: every "
             "budgeted target)",
    )
    perfdiff_parser.add_argument(
        "--warn-only", action="store_true",
        help="report gate failures as CI warning annotations but exit 0",
    )
    perfdiff_parser.add_argument(
        "--update-budgets", action="store_true",
        help="rewrite the manifest from the latest bench records "
             "(preserves hot_functions/note annotations)",
    )
    perfdiff_parser.add_argument("--json", action="store_true")

    crashsim_parser = commands.add_parser(
        "crashsim",
        help="crash-consistency campaign: crash/errno/fsync-lie faults "
             "at every sampled syscall of an instrumented sweep must "
             "leave a state repro fsck can certify or repair, with "
             "bit-identical resumed metrics",
    )
    crashsim_parser.add_argument(
        "--seed", type=int, default=0,
        help="campaign seed: drives torn-write lengths and rename "
             "rollback choices (default 0)",
    )
    crashsim_parser.add_argument(
        "--jobs", type=int, default=2,
        help="worker processes for the instrumented sweeps (default 2)",
    )
    crashsim_parser.add_argument(
        "--max-points", type=int, default=24, metavar="N",
        help="crash points sampled across the op space (default 24)",
    )
    crashsim_parser.add_argument(
        "--errno-points", type=int, default=6, metavar="N",
        help="ENOSPC/EIO injection points (default 6)",
    )
    crashsim_parser.add_argument(
        "--fsync-lie-points", type=int, default=4, metavar="N",
        help="crash points additionally re-run with a lying fsync "
             "(default 4)",
    )
    crashsim_parser.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="scratch directory for campaign sweeps (default: a "
             "temporary directory, removed afterwards)",
    )
    crashsim_parser.add_argument(
        "--artifact-dir", default="crashsim-artifacts", metavar="DIR",
        help="where minimized crash traces for failing points land "
             "(default crashsim-artifacts/)",
    )
    crashsim_parser.add_argument(
        "--json", action="store_true",
        help="emit the campaign verdict as JSON instead of a report",
    )
    return parser


_HANDLERS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "trace": _cmd_trace,
    "reduce": _cmd_reduce,
    "fig": _cmd_fig,
    "table": _cmd_table,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "metrics": _cmd_metrics,
    "stacks": _cmd_stacks,
    "system": _cmd_system,
    "faults": _cmd_faults,
    "chaos": _cmd_chaos,
    "report": _cmd_report,
    "diff": _cmd_diff,
    "history": _cmd_history,
    "lint": _cmd_lint,
    "fsck": _cmd_fsck,
    "dash": _cmd_dash,
    "bench": _cmd_bench,
    "perfdiff": _cmd_perfdiff,
    "crashsim": _cmd_crashsim,
}


def _validate_args(args) -> None:
    """Range-check shared numeric options before any work starts."""
    from repro.errors import InvalidParameterError

    scale = getattr(args, "scale", None)
    if scale is not None and not (0 < scale <= 100):
        raise InvalidParameterError(
            f"--scale must be in (0, 100], got {scale!r}"
        )
    seed = getattr(args, "seed", None)
    if seed is not None and seed < 0:
        raise InvalidParameterError(f"--seed must be >= 0, got {seed!r}")
    seeds = getattr(args, "seeds", None)
    if seeds is not None and seeds < 1:
        raise InvalidParameterError(f"--seeds must be >= 1, got {seeds!r}")
    jobs = getattr(args, "jobs", None)
    if jobs is not None and jobs < 1:
        raise InvalidParameterError(f"--jobs must be >= 1, got {jobs!r}")
    cell_timeout = getattr(args, "cell_timeout", None)
    if cell_timeout is not None and cell_timeout <= 0:
        raise InvalidParameterError(
            f"--cell-timeout must be > 0, got {cell_timeout!r}"
        )
    top = getattr(args, "top", None)
    if top is not None and top < 1:
        raise InvalidParameterError(f"--top must be >= 1, got {top!r}")
    reps = getattr(args, "reps", None)
    if reps is not None and reps < 1:
        raise InvalidParameterError(f"--reps must be >= 1, got {reps!r}")
    warmup = getattr(args, "warmup", None)
    if warmup is not None and warmup < 0:
        raise InvalidParameterError(
            f"--warmup must be >= 0, got {warmup!r}"
        )


def main(argv=None) -> int:
    from repro.errors import FaultPlanError, LintError, UsageError

    args = build_parser().parse_args(argv)
    try:
        _validate_args(args)
        return _HANDLERS[args.command](args)
    except UsageError as error:
        # Bad input is a one-line answer, never a traceback (exit 2).
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return error.exit_code
    except FaultPlanError as error:
        # Malformed replay/fault plans are input errors too.
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 2
    except LintError as error:
        # A sanitizer that cannot analyse is a failing sanitizer.
        print(f"{type(error).__name__}: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
