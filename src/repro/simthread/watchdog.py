"""Scheduler watchdog: turn silent no-progress into a diagnosable error.

The watchdog piggybacks on the event loop exactly like the metrics
sampler (see :meth:`Scheduler.set_watchdog`): before the first event
at or past ``due`` it checks how long it has been since anyone called
:meth:`Watchdog.note`.  Components that *complete* work (the MPI event
dispatcher) note the watchdog; if the gap exceeds ``stall_ns`` while the
``pending`` probe reports outstanding work, the run is aborted with a
:class:`~repro.simthread.errors.StallError` naming the stall instead of
spinning forever.  An idle gap with nothing pending just re-arms.
"""

from __future__ import annotations

from repro.simthread.errors import StallError


class Watchdog:
    """No-progress detector driven by the scheduler's event loop."""

    __slots__ = ("sched", "stall_ns", "pending", "last_progress_at", "due",
                 "checks", "notes")

    def __init__(self, sched, stall_ns: int, pending=None):
        if stall_ns < 1:
            raise ValueError("stall_ns must be >= 1")
        self.sched = sched
        self.stall_ns = stall_ns
        #: zero-argument probe returning the amount of outstanding work;
        #: ``None`` means "always assume work is pending".
        self.pending = pending
        self.last_progress_at = sched.now
        self.due = sched.now + stall_ns
        self.checks = 0
        self.notes = 0

    def note(self) -> None:
        """Record that real progress (a completion) happened now."""
        self.notes += 1
        self.last_progress_at = self.sched.now

    def check(self, now: int) -> None:
        """Event-loop hook: raise if stalled, else re-arm ``due``."""
        self.checks += 1
        if now - self.last_progress_at >= self.stall_ns:
            outstanding = self.pending() if self.pending is not None else 1
            if outstanding > 0:
                raise StallError(now, self.last_progress_at, outstanding,
                                 self.stall_ns)
            # Idle, not stalled: nothing is owed to anyone.
            self.last_progress_at = now
        self.due = self.last_progress_at + self.stall_ns
