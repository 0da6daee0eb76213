"""Virtual-time phase attribution for host nanoseconds.

The scheduler's sampler hook fires deterministically -- before the
first event whose virtual time reaches ``due`` -- so slicing a run into
phases of ``phase_ns`` virtual nanoseconds yields phase boundaries,
event counts and generator-step counts that are pure functions of the
seed.  Only the host-nanosecond column varies run to run, and it is
explicitly informational.

This is how the profiler answers "*where in the run* does host time
go": early phases are dominated by connection/window setup, the steady
state by the matching and progress path, the tail by drain/finalize.
"""

from __future__ import annotations

import time

from repro.simthread.stats import SchedStats


class PhaseSampler:
    """Scheduler sampler that buckets host time by virtual-time phase.

    Install via :meth:`attach` (it installs the sampler and takes a
    :class:`~repro.simthread.stats.SchedStats` snapshot); call
    :meth:`finalize` after ``sched.run()`` to flush the last partial
    phase.  Each row is ``(start_ns, end_ns, events, gen_steps,
    host_ns)`` where ``end_ns`` is the virtual time of the first event
    at-or-past the phase boundary (deterministic).  That event counts
    in the closing phase's ``events``; its generator step, which runs
    after the hook, counts in the next phase's ``gen_steps``.
    """

    def __init__(self, phase_ns: int, clock=time.perf_counter_ns):
        if phase_ns < 1:
            raise ValueError(f"phase_ns must be >= 1, got {phase_ns}")
        self.phase_ns = phase_ns
        self.due = phase_ns
        self.rows: list[dict] = []
        self._clock = clock
        self._sched = None
        self._stats = None
        self._start_vns = 0
        self._start_host = 0
        self._start_events = 0
        self._start_steps = 0

    def attach(self, sched) -> None:
        """Register with ``sched`` and open the first phase now."""
        self._sched = sched
        sched.set_sampler(self)
        self._start_vns = sched.now
        self._start_host = self._clock()
        self._start_events = sched.events_processed
        self._stats = SchedStats(sched)
        self._start_steps = 0

    def _flush(self, now: int) -> None:
        sched = self._sched
        host = self._clock()
        steps = self._stats.gen_steps
        self.rows.append({
            "start_ns": self._start_vns,
            "end_ns": now,
            "events": sched.events_processed - self._start_events,
            "gen_steps": steps - self._start_steps,
            "host_ns": host - self._start_host,
        })
        self._start_vns = now
        self._start_host = host
        self._start_events = sched.events_processed
        self._start_steps = steps

    def sample(self, now: int) -> None:
        """Sampler hook: close the phase that ``now`` stepped past."""
        self._flush(now)
        self.due = (now // self.phase_ns + 1) * self.phase_ns

    def finalize(self) -> None:
        """Flush the trailing partial phase (empty tails are dropped).

        When the run's final event lands exactly on a phase boundary,
        ``sample`` flushed *before* that event's generator step ran, so
        the residual (steps + host time, zero events) is folded into
        the last row rather than appended as a degenerate phase.
        """
        if self._sched is None:
            return
        now = self._sched.now
        if self._sched.events_processed != self._start_events or not self.rows:
            self._flush(now)
        else:
            steps = self._stats.gen_steps
            last = self.rows[-1]
            last["gen_steps"] += steps - self._start_steps
            last["host_ns"] += self._clock() - self._start_host
            last["end_ns"] = max(last["end_ns"], now)
            self._start_steps = steps
        self._sched.set_sampler(None)
