"""Trace-driven micro-architecture simulation substrate.

This package stands in for the hardware performance counters (Intel PMU +
Perf) and the MARSSx86 simulator used by the paper.  Workload behaviour
models (instruction mix, code footprint, data working sets, branch
behaviour) are turned into synthetic instruction/address/branch streams,
and set-associative cache, TLB and branch-predictor simulators *measure*
miss rates from those streams the same way a PMU would.

Public entry points:

- :class:`repro.uarch.platforms.Platform` — machine configs (Xeon E5645,
  Atom D510 per Tables 3 and 4 of the paper).
- :func:`repro.uarch.counters.characterize` — run a
  :class:`repro.uarch.profile.BehaviorProfile` on a platform and obtain a
  :class:`repro.uarch.counters.PerfCounters` sample.
- :class:`repro.uarch.simulator.CacheSweepSimulator` — the MARSSx86-like
  miss-ratio-versus-capacity sweep used for Figures 6-9.
"""

from repro.uarch.isa import InstructionClass, InstructionMix, IntBreakdown
from repro.uarch.profile import (
    BehaviorProfile,
    BranchProfile,
    CodeFootprint,
    CodeRegion,
    DataFootprint,
)
from repro.uarch.platforms import (
    ATOM_D510,
    PLATFORMS,
    XEON_E5645,
    Platform,
    platform_by_key,
    platform_key,
)
from repro.uarch.counters import PerfCounters, characterize
from repro.uarch.simulator import CacheSweepSimulator, SweepResult

__all__ = [
    "InstructionClass",
    "InstructionMix",
    "IntBreakdown",
    "BehaviorProfile",
    "BranchProfile",
    "CodeFootprint",
    "CodeRegion",
    "DataFootprint",
    "Platform",
    "XEON_E5645",
    "ATOM_D510",
    "PLATFORMS",
    "platform_by_key",
    "platform_key",
    "PerfCounters",
    "characterize",
    "CacheSweepSimulator",
    "SweepResult",
]
