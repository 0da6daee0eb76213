"""Host-time profiling of the simulator hot loop (``repro profile``).

The paper's methodology explains *virtual* time; ROADMAP item 1 (make
the DES hot loop as fast as CPython allows) needs the same story for
*host* time.  :func:`profile_run` runs one experiment's representative
scenario (see :mod:`repro.obs.scenarios`) with three instruments
attached at once:

* a :class:`~repro.obs.profile.hostprof.HostProfiler` -- a
  ``sys.setprofile`` call accumulator producing per-function and
  folded-stack tables;
* a :class:`~repro.simthread.stats.SchedStats` -- scheduler-level
  counters (events per command kind, heap traffic, generator steps),
  derived from the counts of the same loop body ``repro run``
  executes, plus per-:class:`~repro.simthread.sync.SimLock`
  acquisition rows;
* a :class:`~repro.obs.profile.phases.PhaseSampler` -- attribution of
  host nanoseconds to virtual-time phases.

Determinism contract: call counts, event counts, phase boundaries and
every virtual-time column are pure functions of ``(exp_id, seed,
micro)`` and are safe to gate on; host-nanosecond columns are
informational and excluded from byte-comparisons (the renderers in
:mod:`~repro.obs.profile.report` keep them in separable columns).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs.profile.hostprof import HostProfiler, code_key
from repro.obs.profile.phases import PhaseSampler
from repro.obs.profile.report import (counters_text, folded_text,
                                      profile_report, save_profile)
from repro.simthread.stats import SchedStats, lock_rows

__all__ = [
    "HostProfiler",
    "PhaseSampler",
    "ProfileResult",
    "code_key",
    "counters_text",
    "folded_text",
    "profile_report",
    "profile_run",
    "save_profile",
]

#: default number of virtual-time phases to slice a run into
DEFAULT_PHASES = 8


@dataclass
class ProfileResult:
    """Everything one :func:`profile_run` measured."""

    exp_id: str
    seed: int
    micro: bool
    label: str                     #: design label from the scenario map
    elapsed_ns: int                #: virtual time of the profiled run
    events_processed: int
    host_wall_ns: int              #: host time of the instrumented pass
    sched: dict = field(default_factory=dict)   #: SchedStats.as_dict()
    phases: list = field(default_factory=list)  #: PhaseSampler.rows
    locks: list = field(default_factory=list)   #: stats.lock_rows rows
    functions: list = field(default_factory=list)
    folded: list = field(default_factory=list)

    @property
    def tracer_branches(self) -> int:
        """Total tracer-guard branch hits derived from the lock rows."""
        return sum(row["tracer_branches"] for row in self.locks)


def profile_run(exp_id: str, seed: int = 1, phases: int = DEFAULT_PHASES,
                micro: bool = False) -> ProfileResult:
    """Profile ``exp_id``'s representative scenario on the host clock.

    Two passes: an uninstrumented run first learns the total virtual
    time (cheap -- the scenarios are small and seeded), fixing the
    phase width at ``elapsed // phases`` so phase boundaries are
    deterministic; the second pass runs with the profiler and phase
    sampler attached and scheduler stats counted.  ``micro=True`` uses the scaled-
    down scenario shape for smoke tests.
    """
    if phases < 1:
        raise ValueError(f"phases must be >= 1, got {phases}")
    from repro.obs.scenarios import representative_run, scenario_label

    _, elapsed = representative_run(exp_id, seed=seed, micro=micro)
    phase_ns = max(1, elapsed // phases)

    profiler = HostProfiler()
    sampler = PhaseSampler(phase_ns)
    captured: dict = {}

    def instrument(sched, world):
        captured["sched"] = sched
        captured["stats"] = SchedStats(sched)
        sampler.attach(sched)
        profiler.start()

    started = time.perf_counter_ns()
    try:
        result, elapsed2 = representative_run(exp_id, seed=seed,
                                              instrument=instrument,
                                              micro=micro)
    finally:
        profiler.stop()
    host_wall = time.perf_counter_ns() - started
    sampler.finalize()

    sched = captured["sched"]
    if elapsed2 != elapsed:  # pragma: no cover - determinism guard
        raise RuntimeError(f"profiled run diverged: {elapsed} != {elapsed2} "
                           "(instrumentation must not perturb the schedule)")
    profile = ProfileResult(
        exp_id=exp_id,
        seed=seed,
        micro=micro,
        label=scenario_label(exp_id),
        elapsed_ns=elapsed2,
        events_processed=sched.events_processed,
        host_wall_ns=host_wall,
        sched=captured["stats"].as_dict(),
        phases=list(sampler.rows),
        locks=lock_rows(sched),
        functions=profiler.function_rows(),
        folded=profiler.folded_rows(),
    )
    return profile
