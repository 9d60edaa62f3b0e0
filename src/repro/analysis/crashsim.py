"""The crash-consistency campaign: enumerate crash points, prove recovery.

ALICE/CrashMonkey transplanted onto the run-registry storage tier.  The
campaign runs one small instrumented sweep (journal + snapshot +
manifest + progress stream + supervisor spans + registry record, all
through one :class:`repro.fsio.FaultyIO` backend), counts every
syscall-shaped operation, then re-runs it once per enumerated fault:

- **crash points** — the run is killed (``SimulatedCrash``) at
  operation *k*; the backend then reshapes the disk into a state the
  dead process could have left (torn unsynced tails, rolled-back
  renames, leaked ``*.tmp`` files);
- **errno points** — operation *k* fails with ``ENOSPC`` or ``EIO``
  (writes first land a seeded short prefix); the run either survives
  (best-effort writers must *count* the drop — silent loss fails the
  point) or aborts like any I/O-failed process;
- **fsync-lie points** — a handful of crash points re-run with an
  fsync that reports success without persisting, the volatile
  write-cache lie, which widens every loss window.

Each damaged state must then satisfy the durability contract
(DESIGN §5i): ``repro fsck`` finds it clean or ``--repair`` makes it
clean, a ``--resume`` completes the sweep, and the resumed merged
metrics are **bit-identical** to the uninterrupted serial baseline.
Any deviation fails the point and emits a minimized crash trace (the
op log tail, the fsck findings, the metric diff) for the CI artifact.

Scale note: the probe cells are tiny closed-form functions
(:func:`probe_cell`), not real characterizations — the campaign
stresses the *storage* tier, and a cheap cell lets CI enumerate dozens
of crash points in seconds.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import SimulationError
from repro.exec.cells import decompose
from repro.exec.merge import merge_results
from repro.exec.supervisor import run_sweep
from repro.fsio import DEFAULT_FAULT_ERRNOS, FaultyIO, SimulatedCrash
from repro.obs.fsck import fsck_repair, fsck_scan
from repro.obs.registry import RunRecord, RunRegistry, build_provenance
from repro.uarch.platforms import XEON_E5645, platform_key

#: Dotted path of the campaign's cheap deterministic cell callable.
PROBE_CELL_FN = "repro.analysis.crashsim.probe_cell"

#: The default probe matrix: 3 workloads x 1 platform x 2 seeds.
PROBE_WORKLOADS = ("wordcount", "grep", "sort")
PROBE_PLATFORMS = (platform_key(XEON_E5645),)
PROBE_SEEDS = 2

#: Snapshot cadence for campaign checkpoints — low, so snapshot
#: rewrites (the richest crash surface) happen inside a 6-cell sweep.
PROBE_SNAPSHOT_EVERY = 2

__all__ = [
    "PROBE_CELL_FN",
    "CampaignPoint",
    "CampaignResult",
    "probe_cell",
    "run_campaign",
]


def probe_cell(spec: dict) -> dict:
    """A closed-form deterministic cell: pure function of its spec."""
    return {
        "metrics": {
            "value": float(spec["seed"]) * 10.0 + float(len(spec["workload"])),
            "scale": float(spec["scale"]),
        }
    }


@dataclass
class CampaignPoint:
    """One enumerated fault and how its recovery went."""

    kind: str  # "crash" | "errno" | "fsync-lie"
    op: int
    detail: str  # which op / errno was hit
    status: str  # "recovered" | "clean" | "survived" | "failed"
    fsck_errors: int = 0
    repaired: int = 0
    drift: int = 0
    #: Populated only on failure: the minimized reproduction trace.
    crash_trace: Optional[dict] = None

    def to_dict(self) -> dict:
        data = {
            "kind": self.kind,
            "op": self.op,
            "detail": self.detail,
            "status": self.status,
            "fsck_errors": self.fsck_errors,
            "repaired": self.repaired,
            "drift": self.drift,
        }
        if self.crash_trace is not None:
            data["crash_trace"] = self.crash_trace
        return data


@dataclass
class CampaignResult:
    """The campaign verdict: every point must have recovered."""

    seed: int
    n_ops: int
    points: List[CampaignPoint] = field(default_factory=list)
    silent_loss: int = 0  # errno points where drops went uncounted

    @property
    def failures(self) -> List[CampaignPoint]:
        return [p for p in self.points if p.status == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failures and self.silent_loss == 0

    def fidelity_metrics(self) -> Dict[str, float]:
        return {
            "crashsim.ops": float(self.n_ops),
            "crashsim.points": float(len(self.points)),
            "crashsim.failed": float(len(self.failures)),
            "crashsim.repaired": float(
                sum(p.repaired for p in self.points)
            ),
            "crashsim.silent_loss": float(self.silent_loss),
        }

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ops": self.n_ops,
            "ok": self.ok,
            "silent_loss": self.silent_loss,
            "points": [p.to_dict() for p in self.points],
        }

    def render(self) -> str:
        by_status: Dict[str, int] = {}
        for point in self.points:
            by_status[point.status] = by_status.get(point.status, 0) + 1
        lines = [
            f"crash-consistency campaign: {self.n_ops} op(s) in the "
            f"instrumented sweep, {len(self.points)} fault point(s)"
        ]
        for status in sorted(by_status):
            lines.append(f"  {status}: {by_status[status]}")
        for point in self.failures:
            lines.append(
                f"  FAILED {point.kind}@op{point.op} ({point.detail}): "
                f"{point.fsck_errors} unrepaired error(s), "
                f"{point.drift} drifted metric(s)"
            )
        if self.silent_loss:
            lines.append(
                f"  SILENT LOSS: {self.silent_loss} errno point(s) "
                f"dropped writer data without counting it"
            )
        lines.append("verdict: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The instrumented sweep
# ---------------------------------------------------------------------------

def _probe_cells(scale: float, seed: int):
    return decompose(
        list(PROBE_WORKLOADS), list(PROBE_PLATFORMS), scale,
        list(range(seed, seed + PROBE_SEEDS)), fn=PROBE_CELL_FN,
    )


def _probe_config(scale: float, seed: int) -> dict:
    return {
        "workloads": list(PROBE_WORKLOADS),
        "platforms": list(PROBE_PLATFORMS),
        "scale": scale,
        "seeds": list(range(seed, seed + PROBE_SEEDS)),
    }


def _run_instrumented(runs_dir: str, *, scale: float, seed: int,
                      jobs: int, io=None, resume: bool = False) -> dict:
    """One full sweep through the storage tier under ``io``.

    Runs through :func:`repro.exec.run_sweep`, the entry point every
    sweep verb uses, and exercises every writer fsck must understand:
    checkpoint manifest / journal / snapshot / lock, progress stream,
    supervisor span file and a registry record.  (The merged Chrome
    trace is a CLI step after the sweep and is not written here.)
    Returns the merged metrics plus the observability drop counters.
    """
    cells = _probe_cells(scale, seed)
    config = _probe_config(scale, seed)
    outcome = run_sweep(
        runs_dir, "crashsim", config, seed, cells, jobs=jobs, resume=resume,
        io=io, snapshot_every=PROBE_SNAPSHOT_EVERY,
    )
    merged = merge_results(cells, outcome.results)
    registry = RunRegistry(runs_dir, io=io)
    registry.save(RunRecord(
        experiment="crashsim-probe",
        kind="sweep",
        metrics=merged,
        provenance=build_provenance(
            experiment="crashsim-probe", seed=seed, scale=scale,
            platforms=list(PROBE_PLATFORMS), config=config,
        ),
        timings={f"exec.{k}": v for k, v in outcome.telemetry.items()},
    ))
    return {"merged": merged, "counters": outcome.telemetry}


def _diff_metrics(baseline: Dict[str, float],
                  candidate: Dict[str, float]) -> List[str]:
    """Keys that differ bit-for-bit between two merged metric maps."""
    drifted = []
    for key in sorted(set(baseline) | set(candidate)):
        if baseline.get(key) != candidate.get(key):
            drifted.append(key)
    return drifted


def _fresh_dir(base: str, label: str) -> str:
    path = os.path.join(base, label)
    if os.path.isdir(path):
        shutil.rmtree(path)
    os.makedirs(path)
    return path


def _sample_points(n_ops: int, max_points: int) -> List[int]:
    """Deterministic crash-point sample: all ops, or an even stride
    that always includes the first and last operation."""
    if n_ops <= 0 or max_points <= 0:
        return []
    if max_points == 1:
        return [n_ops - 1]
    if n_ops <= max_points:
        return list(range(n_ops))
    points = sorted({
        round(i * (n_ops - 1) / (max_points - 1))
        for i in range(max_points)
    })
    return points


def _recover_and_verify(point: CampaignPoint, runs_dir: str, io: FaultyIO,
                        baseline: Dict[str, float], *, scale: float,
                        seed: int, jobs: int) -> None:
    """fsck (+repair) the damaged dir, resume, require bit-identity."""
    findings_dump: List[dict] = []
    try:
        scan = fsck_scan(runs_dir)
        point.fsck_errors = len(scan.errors)
        findings_dump = [f.to_dict() for f in scan.findings]
        if not scan.clean:
            fsck_repair(scan)
            point.repaired = sum(1 for f in scan.findings if f.repaired)
            rescan = fsck_scan(runs_dir)
            if not rescan.clean:
                point.status = "failed"
                point.crash_trace = _crash_trace(
                    point, io, findings_dump,
                    unrepaired=[f.to_dict() for f in rescan.errors],
                )
                return
        resumed = _run_instrumented(
            runs_dir, scale=scale, seed=seed, jobs=jobs, io=None,
            resume=True,
        )
        drifted = _diff_metrics(baseline, resumed["merged"])
        point.drift = len(drifted)
        if drifted:
            point.status = "failed"
            point.crash_trace = _crash_trace(
                point, io, findings_dump, drifted=drifted[:10],
            )
            return
        final = fsck_scan(runs_dir)
        if final.errors:
            point.status = "failed"
            point.crash_trace = _crash_trace(
                point, io, findings_dump,
                unrepaired=[f.to_dict() for f in final.errors],
            )
            return
    except SimulationError as error:
        point.status = "failed"
        point.crash_trace = _crash_trace(
            point, io, findings_dump, error=f"{type(error).__name__}: {error}",
        )
        return
    point.status = "recovered" if point.fsck_errors else "clean"


def _crash_trace(point: CampaignPoint, io: FaultyIO,
                 findings: List[dict], **extra) -> dict:
    """The minimized reproduction artifact for one failed point."""
    trace = {
        "kind": point.kind,
        "op": point.op,
        "detail": point.detail,
        "op_log_tail": io.op_log_tail(upto=point.op),
        "fsck_findings": findings,
    }
    trace.update(extra)
    return trace


def run_campaign(work_dir: str, *, seed: int = 0, scale: float = 0.2,
                 jobs: int = 2, max_points: int = 24,
                 errno_points: int = 6, fsync_lie_points: int = 4,
                 artifact_dir: Optional[str] = None) -> CampaignResult:
    """Enumerate crash/errno/fsync-lie points over the probe sweep.

    ``work_dir`` holds one scratch runs-directory per point (recreated
    each time); failing points additionally write their minimized
    crash trace under ``artifact_dir`` as
    ``crashsim-<kind>-op<k>.json``.
    """
    os.makedirs(work_dir, exist_ok=True)

    # 1. The uninterrupted serial baseline: the bit-identity oracle.
    baseline_dir = _fresh_dir(work_dir, "baseline")
    baseline = _run_instrumented(
        baseline_dir, scale=scale, seed=seed, jobs=1, io=None,
    )["merged"]

    # 2. The count run: a fault-free FaultyIO enumerates the op space
    #    and proves the backend itself is transparent.
    count_dir = _fresh_dir(work_dir, "count")
    count_io = FaultyIO(seed=seed)
    counted = _run_instrumented(
        count_dir, scale=scale, seed=seed, jobs=jobs, io=count_io,
    )["merged"]
    transparent = not _diff_metrics(baseline, counted)
    result = CampaignResult(seed=seed, n_ops=count_io.op_count)
    if not transparent:
        point = CampaignPoint(
            kind="crash", op=-1, detail="fault-free backend run",
            status="failed",
        )
        point.crash_trace = _crash_trace(
            point, count_io, [],
            drifted=_diff_metrics(baseline, counted)[:10],
        )
        result.points.append(point)
        _dump_artifacts(result, artifact_dir)
        return result

    # 3. Crash points (plus a few with a lying fsync).
    crash_points = _sample_points(count_io.op_count, max_points)
    lie_points = set(_sample_points(count_io.op_count, fsync_lie_points))
    for k in crash_points:
        for lies in ((False, True) if k in lie_points else (False,)):
            kind = "fsync-lie" if lies else "crash"
            point_dir = _fresh_dir(work_dir, "point")
            io = FaultyIO(seed=seed + k, crash_at=k, fsync_lies=lies)
            point = CampaignPoint(kind=kind, op=k, detail=f"crash at op {k}",
                                  status="pending")
            try:
                _run_instrumented(
                    point_dir, scale=scale, seed=seed, jobs=jobs, io=io,
                )
                # Fewer ops than the count run reached this index (the
                # jobs-2 schedule interleaves differently): nothing to
                # crash, the run simply completed.
                point.status = "survived"
            except SimulatedCrash as crash:
                point.detail = f"crash at op {k} ({crash.op} {crash.path})"
                io.apply_crash()
                _recover_and_verify(
                    point, point_dir, io, baseline,
                    scale=scale, seed=seed, jobs=jobs,
                )
            result.points.append(point)
            if point.status == "failed":
                _dump_point(point, artifact_dir)

    # 4. Errno injection: ENOSPC / EIO at sampled ops.
    errno_ops = _sample_points(count_io.op_count, errno_points)
    for index, k in enumerate(errno_ops):
        code = DEFAULT_FAULT_ERRNOS[index % len(DEFAULT_FAULT_ERRNOS)]
        point_dir = _fresh_dir(work_dir, "point")
        io = FaultyIO(seed=seed + k, errors={k: code})
        point = CampaignPoint(
            kind="errno", op=k, detail=f"errno {code} at op {k}",
            status="pending",
        )
        try:
            run = _run_instrumented(
                point_dir, scale=scale, seed=seed, jobs=jobs, io=io,
            )
        except SimulationError as error:
            # The executor refused to trust the sweep — the durable
            # path failed loudly.  Same recovery contract as a crash.
            point.detail += f" -> {type(error).__name__}"
            _recover_and_verify(
                point, point_dir, io, baseline,
                scale=scale, seed=seed, jobs=jobs,
            )
        except OSError as error:
            # A durable writer propagated the injected error (the
            # journal/manifest path must fail loudly, never swallow).
            point.detail += f" -> OSError errno {error.errno}"
            _recover_and_verify(
                point, point_dir, io, baseline,
                scale=scale, seed=seed, jobs=jobs,
            )
        else:
            # The run survived: the fault landed on a best-effort
            # writer.  The contract is *counted* degradation — if no
            # counter recorded an error, data was dropped silently.
            point.status = "survived"
            counters = run["counters"]
            errors_counted = (
                counters.get("stream_writer_errors", 0.0)
                + counters.get("trace_writer_errors", 0.0)
            )
            # Directory fsyncs are best-effort by contract: if one
            # fails and the process *survives*, every acknowledged
            # byte is still on disk (files are fsynced individually),
            # so a swallowed fsync-dir errno is not silent data loss.
            fault_was_exercised = any(
                entry[0] == k and entry[1] != "fsync-dir"
                for entry in io.log
            )
            if fault_was_exercised and errors_counted == 0:
                result.silent_loss += 1
                point.status = "failed"
                point.crash_trace = _crash_trace(
                    point, io, [],
                    error="injected errno produced no writer_errors count",
                )
            drifted = _diff_metrics(baseline, run["merged"])
            point.drift = len(drifted)
            if drifted:
                point.status = "failed"
                point.crash_trace = _crash_trace(
                    point, io, [], drifted=drifted[:10],
                )
        result.points.append(point)
        if point.status == "failed":
            _dump_point(point, artifact_dir)

    _dump_artifacts(result, artifact_dir)
    return result


def _dump_point(point: CampaignPoint, artifact_dir: Optional[str]) -> None:
    if artifact_dir is None or point.crash_trace is None:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(
        artifact_dir, f"crashsim-{point.kind}-op{point.op}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(point.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def _dump_artifacts(result: CampaignResult,
                    artifact_dir: Optional[str]) -> None:
    if artifact_dir is None or result.ok:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(artifact_dir, "crashsim-campaign.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
