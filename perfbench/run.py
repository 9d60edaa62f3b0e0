"""The repo benchmark: cold runs of three ``repro`` verbs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a source checkout.  Every invocation of a verb is
a fresh ``python3 -m repro`` process with a new, empty ``--runs-dir``,
so no checkpoint, record or cache on disk carries from one invocation
to the next.  All load comes from this one benchmark process; the only
other processes are the verb's own sweep workers.

``--trace 0`` measures the end-to-end metrics of one cold invocation
of the verb, and the median set-up time of probes around it.  A run is
that one invocation: the verb sets its length (13-45 s on 2 cores), and
``--seconds`` is accepted for the common benchmark interface only.
``--trace 1`` runs the verb once untraced and once with every layer
boundary wrapped (see ``layers.py``), and reports the per-layer
metrics.

Every invocation is checked: exit code 0, exactly one run record, no
quarantined sweep cell, the record's invariants, and, at a seed with a
committed reference, the digest of the record's metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: The characterization scale every workload runs at (the CLI default).
SCALE = "0.5"

#: workload name -> the verb's arguments.
WORKLOADS = {
    "sweep-e5645": ["sweep", "--jobs", "1"],
    "table4-jobs2": ["table", "4", "--jobs", "2"],
    "locality": ["fig", "locality"],
}

#: Set-up probes per run: each starts the interpreter, imports the CLI
#: and parses the verb's arguments, then exits.  Half run before the
#: verb and half after it, so the median spans the whole run rather
#: than one burst of host load.
SETUP_PROBES = 10

#: A whole run must end within this many seconds; the verb is killed
#: (and the invocation counted as failed) when it would overrun.
RUN_BUDGET_S = 170.0

REFERENCE_PATH = os.path.join(HERE, "reference.json")


class Invocation:
    """One cold verb process: its cost, its record and its verdict."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.wall_s = self.cpu_s = self.peak_rss_mb = 0.0
        self.digest = ""
        self.problems = []
        self.layers = None

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def verb_argv(workload: str, seed: int, runs_dir: str) -> list:
    return (["--scale", SCALE, "--runs-dir", runs_dir]
            + WORKLOADS[workload] + ["--seed", str(seed)])


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list, deadline: float, log_path: str):
    """Run ``argv`` to completion; return (exit code, wall s, rusage).

    The child leads its own process group, so a run that would pass
    ``deadline`` is killed together with any worker it forked.
    """
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                _kill_group, args=(process.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
            wall = time.perf_counter() - started
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            timer.cancel()
            _kill_group(process.pid)  # workers that outlived the verb
    return os.waitstatus_to_exitcode(status), wall, usage


def _kill_group(pgid: int) -> None:
    """SIGKILL a process group and wait (up to 10 s) until it is gone."""
    for _ in range(1000):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_verb(workload: str, seed: int, workdir: str, deadline: float,
             references: dict, traced: bool = False) -> Invocation:
    """One cold invocation of the workload's verb, checked."""
    inv = Invocation(workload, seed)
    work = tempfile.mkdtemp(dir=workdir)
    runs_dir = os.path.join(work, "runs")
    spans_dir = os.path.join(work, "spans")
    os.makedirs(spans_dir)
    argv = verb_argv(workload, seed, runs_dir)
    if traced:
        argv = [sys.executable, os.path.join(HERE, "traced.py"),
                spans_dir] + argv
    else:
        argv = [sys.executable, "-m", "repro"] + argv
    log_path = os.path.join(work, "verb.log")
    code, inv.wall_s, usage = spawn(argv, deadline, log_path)
    inv.cpu_s = usage.ru_utime + usage.ru_stime
    inv.peak_rss_mb = usage.ru_maxrss / 1024.0  # KiB on Linux
    if code != 0:
        inv.problems.append(f"exit code {code}")
    else:
        check_record(inv, runs_dir, references)
        if traced:
            inv.layers = layers.rollup(layers.load(spans_dir))
    if inv.failed:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            tail = log.read()[-2000:]
        print(f"{workload} seed {seed} FAILED: {'; '.join(inv.problems)}\n"
              f"--- verb output (tail) ---\n{tail}", file=sys.stderr)
    shutil.rmtree(work, ignore_errors=True)
    return inv


# ---- output check -----------------------------------------------------------
def digest(metrics: dict) -> str:
    """SHA-256 of a record's deterministic metrics, exact to the bit."""
    canonical = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_record(inv: Invocation, runs_dir: str, references: dict) -> None:
    records = [name for name in os.listdir(runs_dir)
               if name.endswith(".json")]
    if len(records) != 1:
        inv.problems.append(f"{len(records)} run records, expected 1")
        return
    with open(os.path.join(runs_dir, records[0]), encoding="utf-8") as f:
        record = json.load(f)
    metrics = record["metrics"]
    if record.get("timings", {}).get("exec.cells_quarantined", 0):
        inv.problems.append("quarantined sweep cells")
    inv.problems.extend(INVARIANTS[inv.workload](metrics))
    inv.digest = digest(metrics)
    expected = references.get(inv.workload, {}).get(str(inv.seed))
    if expected is not None and expected != inv.digest:
        inv.problems.append(
            f"metrics digest {inv.digest[:16]} != reference {expected[:16]}")


def _finite_ratios(metrics: dict, suffixes) -> list:
    problems = []
    for key, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{key} is {value}")
        elif key.endswith(suffixes) and not 0.0 <= value <= 1.0:
            problems.append(f"{key} = {value} outside [0, 1]")
    return problems


def _sweep_invariants(metrics: dict) -> list:
    problems = _finite_ratios(metrics, ("miss_ratio", "mispred_ratio"))
    workloads = {key.split(".")[0] for key in metrics}
    if len(workloads) != 17 or len(metrics) != 17 * 45:
        problems.append(f"{len(metrics)} metrics over {len(workloads)} "
                        f"workloads, expected 45 x 17")
    return problems


def _table4_invariants(metrics: dict) -> list:
    problems = _finite_ratios(metrics, ("_mispred",))
    means = {}
    for platform in ("e5645", "d510"):
        rows = [value for key, value in metrics.items()
                if key.startswith("workload.")
                and key.endswith(f".{platform}_mispred")]
        if len(rows) != 17:
            problems.append(f"{len(rows)} {platform} rows, expected 17")
            continue
        means[platform] = math.fsum(rows) / len(rows)
        summary = metrics.get(f"summary.{platform}_mispred", math.nan)
        if not math.isclose(summary, means[platform], rel_tol=1e-9):
            problems.append(f"summary.{platform}_mispred {summary} is not "
                            f"the mean of its rows {means[platform]}")
    if len(means) == 2:
        ratio = means["d510"] / max(1e-9, means["e5645"])
        if not math.isclose(metrics.get("summary.ratio", math.nan), ratio,
                            rel_tol=1e-9):
            problems.append("summary.ratio is not d510 / e5645")
    return problems


def _locality_invariants(metrics: dict) -> list:
    problems = _finite_ratios(metrics, ())
    sizes = {16 << i for i in range(10)} | {-1}
    for key, value in metrics.items():
        if key.startswith("knee_kb.") and value not in sizes:
            problems.append(f"{key} = {value} is not a swept size")
        elif key.startswith("floor."):
            start = metrics.get("start." + key[len("floor."):], math.nan)
            if not 0.0 <= value <= start <= 1.0:
                problems.append(f"{key} = {value} not within [0, start "
                                f"{start}]")
    if len(metrics) != 17:
        problems.append(f"{len(metrics)} metrics, expected 17")
    return problems


INVARIANTS = {
    "sweep-e5645": _sweep_invariants,
    "table4-jobs2": _table4_invariants,
    "locality": _locality_invariants,
}


# ---- set-up time ------------------------------------------------------------
def setup_times(workload: str, seed: int, workdir: str, deadline: float,
                probes: int) -> list:
    """Interpreter start, imports and argument parsing, timed from here."""
    probe = ("import sys\nfrom repro.cli import build_parser\n"
             "build_parser().parse_args(sys.argv[1:])\n")
    argv = ([sys.executable, "-c", probe]
            + verb_argv(workload, seed, os.path.join(workdir, "unused")))
    log_path = os.path.join(workdir, "setup.log")
    times = []
    for _ in range(probes):
        code, wall, _ = spawn(argv, deadline, log_path)
        if code != 0:
            with open(log_path, encoding="utf-8", errors="replace") as log:
                raise RuntimeError(f"set-up probe exited {code}:\n"
                                   f"{log.read()[-2000:]}")
        times.append(wall)
    return times


# ---- reporting --------------------------------------------------------------
def end_to_end(invocation: Invocation, setups: list, units: dict) -> dict:
    q1, median, q3 = statistics.quantiles(setups, n=4)
    values = {
        "wall_s": invocation.wall_s,
        "cpu_s": invocation.cpu_s,
        "peak_rss_mb": invocation.peak_rss_mb,
        "setup_s": median,
    }
    for name in ("wall_s", "cpu_s", "peak_rss_mb"):
        print(f"  {name} [{units[name]}]: {values[name]:.4f}")
    print(f"  setup_s [{units['setup_s']}]: median {median:.4f} "
          f"q1 {q1:.4f} q3 {q3:.4f} (n={len(setups)})")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def per_layer(traced: Invocation, untraced: Invocation,
              units: dict) -> dict:
    """The traced invocation's layers; all absent if it failed."""
    values = dict(traced.layers or dict.fromkeys(units))
    values["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    for name, value in values.items():
        shown = ("absent" if value is None else
                 value if isinstance(value, int) else f"{value:.6g}")
        print(f"  {name} [{units[name]}]: {shown}")
    # The base for a layer's share of the run; not a per-layer metric.
    print(f"  traced wall_s: {traced.wall_s:.4f} "
          f"(untraced {untraced.wall_s:.4f})")
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def load_benchmark_units(section: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main(argv=None, references=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="accepted and unused: a run is one invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"no repro source under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    if references is None:
        with open(REFERENCE_PATH, encoding="utf-8") as f:
            references = json.load(f)["digests"]

    deadline = time.monotonic() + RUN_BUDGET_S
    # Byte-compile once, so that no timed process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q",
                    os.path.join(ROOT, "src")], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        invocations, metrics = measure(args, workdir, deadline, references)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(inv.failed for inv in invocations)
    for inv in invocations:
        print(f"{inv.workload} seed {inv.seed}: metrics digest "
              f"{inv.digest or '-'} {'FAIL' if inv.failed else 'ok'}")
    print(f"fail_ratio: {failed}/{len(invocations)} = "
          f"{failed / len(invocations):.3f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(invocations),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def measure(args, workdir: str, deadline: float, references: dict):
    print(f"workload {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'untraced'}, scale {SCALE})")
    if args.trace:
        untraced = run_verb(args.workload, args.seed, workdir, deadline,
                            references)
        traced = run_verb(args.workload, args.seed, workdir, deadline,
                          references, traced=True)
        units = load_benchmark_units("per_layer")
        return [untraced, traced], per_layer(traced, untraced, units)

    before = SETUP_PROBES // 2
    setups = setup_times(args.workload, args.seed, workdir, deadline, before)
    invocation = run_verb(args.workload, args.seed, workdir, deadline,
                          references)
    setups += setup_times(args.workload, args.seed, workdir, deadline,
                          SETUP_PROBES - before)
    units = load_benchmark_units("end_to_end")
    return [invocation], end_to_end(invocation, setups, units)


if __name__ == "__main__":
    raise SystemExit(main())
