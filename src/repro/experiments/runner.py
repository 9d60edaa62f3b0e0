"""Shared experiment context: run-once caching of characterizations.

Figures 1, 3, 4 and 5 all consume the same per-workload perf-counter
samples; the context memoises workload executions, behaviour profiles
and characterizations per platform so a full experiment session costs
one sweep.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.comparison import SUITES
from repro.obs.metrics import CounterRegistry
from repro.obs.registry import RunRecord, build_provenance
from repro.stacks.base import WorkloadResult
from repro.uarch.counters import PerfCounters, characterize
from repro.uarch.platforms import ATOM_D510, XEON_E5645, Platform
from repro.workloads import MPI_WORKLOADS, REPRESENTATIVE_WORKLOADS, workload

#: Application-category and system-behaviour groupings used by several
#: figures ("from the application category dimension ...").
CATEGORY_GROUPS = ("data analysis", "service", "interactive analysis")
BEHAVIOR_GROUPS = ("CPU-Intensive", "IO-Intensive", "Hybrid")


class ExperimentContext:
    """Caches workload runs and characterizations for one session."""

    def __init__(self, scale: float = 0.5, seed: int = 0):
        self.scale = scale
        self.seed = seed
        self._results: Dict[str, WorkloadResult] = {}
        self._counters: Dict[tuple, PerfCounters] = {}
        self._suite_counters: Dict[tuple, List[PerfCounters]] = {}
        #: Wall-clock accounting: ``workload.<id>.seconds/.calls`` per
        #: cached execution, read back via :meth:`timing_lines`.
        self.registry = CounterRegistry()

    # ---- workload layer ---------------------------------------------------
    def result(self, workload_id: str) -> WorkloadResult:
        """Functional + profiled execution of one catalog workload."""
        if workload_id not in self._results:
            definition = workload(workload_id)
            with self.registry.timer(f"workload.{workload_id}"):
                self._results[workload_id] = definition.runner(
                    scale=self.scale, seed=self.seed
                )
        return self._results[workload_id]

    def counters(
        self, workload_id: str, platform: Platform = XEON_E5645
    ) -> PerfCounters:
        """Characterization of one workload on one platform."""
        key = (workload_id, platform.name)
        if key not in self._counters:
            profile = self.result(workload_id).profile
            self._counters[key] = characterize(
                profile, platform, seed=1234 + self.seed
            )
        return self._counters[key]

    def representative_counters(
        self, platform: Platform = XEON_E5645
    ) -> Dict[str, PerfCounters]:
        """Counters for the 17 representatives, in Table 2 order."""
        return {
            definition.workload_id: self.counters(
                definition.workload_id, platform
            )
            for definition in REPRESENTATIVE_WORKLOADS
        }

    def mpi_counters(
        self, platform: Platform = XEON_E5645
    ) -> Dict[str, PerfCounters]:
        """Counters for the six MPI workloads of §4.1."""
        return {
            definition.workload_id: self.counters(
                definition.workload_id, platform
            )
            for definition in MPI_WORKLOADS
        }

    # ---- comparison suites ---------------------------------------------------
    def suite_counters(
        self, suite_name: str, platform: Platform = XEON_E5645
    ) -> List[PerfCounters]:
        """Counters for every member of a comparison suite."""
        key = (suite_name, platform.name)
        if key not in self._suite_counters:
            benchmarks = SUITES[suite_name]
            samples = []
            for benchmark in benchmarks:
                profile = benchmark.profile(scale=self.scale)
                samples.append(
                    characterize(profile, platform, seed=1234 + self.seed)
                )
            self._suite_counters[key] = samples
        return self._suite_counters[key]

    def suite_average(
        self, suite_name: str, metric: str, platform: Platform = XEON_E5645
    ) -> float:
        """Suite-mean of one metric."""
        samples = self.suite_counters(suite_name, platform)
        values = [sample.metric_dict()[metric] for sample in samples]
        return sum(values) / len(values)

    # ---- grouping helpers -------------------------------------------------------
    def category_of(self, workload_id: str) -> str:
        return workload(workload_id).category.value

    def behavior_of(self, workload_id: str) -> str:
        return workload(workload_id).expected_system_behavior.value

    def group_average(
        self,
        metric: str,
        group_kind: str,
        group_value: str,
        platform: Platform = XEON_E5645,
    ) -> float:
        """Mean of a metric over a category or behaviour subgroup of the
        17 representatives (the paper's per-subclass averages)."""
        chooser = (
            self.category_of if group_kind == "category" else self.behavior_of
        )
        values = [
            self.counters(d.workload_id, platform).metric_dict()[metric]
            for d in REPRESENTATIVE_WORKLOADS
            if chooser(d.workload_id) == group_value
        ]
        if not values:
            raise ValueError(f"no representatives in group {group_value!r}")
        return sum(values) / len(values)

    def bigdata_average(
        self, metric: str, platform: Platform = XEON_E5645
    ) -> float:
        """Mean of a metric over all 17 representatives."""
        values = [
            self.counters(d.workload_id, platform).metric_dict()[metric]
            for d in REPRESENTATIVE_WORKLOADS
        ]
        return sum(values) / len(values)

    @property
    def atom(self) -> Platform:
        return ATOM_D510

    @property
    def xeon(self) -> Platform:
        return XEON_E5645

    # ---- parallel sweeps ------------------------------------------------
    def adopt_cells(self, results) -> None:
        """Install completed characterize cells into the counters cache.

        ``results`` is a ``cell_id -> CellResult`` mapping whose
        ``counters`` payloads were produced by
        :func:`repro.exec.cells.characterize_cell` in sweep workers;
        rehydration is lossless, so an adopted sample is bit-identical
        to one computed here.
        """
        for result in results.values():
            if result.status != "ok" or not result.counters:
                continue
            counters = PerfCounters.from_dict(result.counters)
            self._counters[(counters.workload, counters.platform)] = counters

    # ---- wall-clock accounting ---------------------------------------------
    def time_experiment(self, name: str):
        """Context manager timing one experiment under ``experiment.<name>``."""
        return self.registry.timer(f"experiment.{name}")

    def timing_lines(self) -> List[str]:
        """One ``name: seconds`` line per timed workload and experiment."""
        lines = []
        for key, value in self.registry.snapshot().items():
            if not key.endswith(".seconds"):
                continue
            name = key[: -len(".seconds")]
            lines.append(f"{name}: {value:.3f}s wall")
        return lines

    # ---- run records --------------------------------------------------------
    def make_record(
        self,
        experiment: str,
        metrics: Dict[str, float],
        *,
        kind: str = "experiment",
        platforms: Optional[List[str]] = None,
        series: Optional[Dict[str, object]] = None,
        config: Optional[Dict[str, object]] = None,
    ) -> RunRecord:
        """A registry record of one experiment run under this context.

        Provenance captures this context's seed/scale plus any
        experiment-specific ``config``; the wall-clock counter snapshot
        rides along under ``timings`` (informational — never part of a
        drift comparison).
        """
        return RunRecord(
            experiment=experiment,
            kind=kind,
            metrics=dict(metrics),
            provenance=build_provenance(
                experiment=experiment,
                seed=self.seed,
                scale=self.scale,
                platforms=(
                    list(platforms)
                    if platforms is not None
                    else [XEON_E5645.name]
                ),
                config=config,
            ),
            series=dict(series) if series else {},
            timings=self.registry.snapshot(),
        )
