"""Simulated thread handle.

A :class:`SimThread` wraps a user generator.  The scheduler resumes the
generator at the appropriate virtual instants; the handle records state,
result and joiners.  Identity (``id(thread)``) is the thread's key for
thread-local storage.
"""

from __future__ import annotations


class SimThread:
    """Handle for one simulated thread.

    Attributes
    ----------
    name:
        Human-readable label, used in error messages and traces.
    done:
        True once the generator returned or raised.
    result:
        The generator's return value (``None`` until done).
    started_at / finished_at:
        Virtual timestamps bracketing the thread's lifetime.
    """

    __slots__ = (
        "_sched",
        "_gen",
        "_send",
        "name",
        "done",
        "failed",
        "result",
        "started_at",
        "finished_at",
        "_resume_value",
        "_parked",
        "_joiners",
        "_run_ns",
    )

    def __init__(self, sched, gen, name: str):
        self._sched = sched
        self._gen = gen
        # prebound for the scheduler hot loop: one attribute load instead
        # of two per generator step
        self._send = gen.send
        self.name = name
        self.done = False
        self.failed = False
        self.result = None
        self.started_at = sched.now
        self.finished_at: int | None = None
        self._resume_value = None
        self._parked = False
        self._joiners: list[SimThread] = []
        self._run_ns = 0

    @property
    def run_time_ns(self) -> int:
        """Cumulative virtual time this thread spent *running* (ns).

        The sum of every ``Delay`` cost the thread has yielded -- its
        on-CPU time in the simulation -- plus any spin the model elided
        (:meth:`add_run_time`).  Time parked on a lock or waiting for a
        wake is excluded, so ``lifetime - run_time_ns`` is the thread's
        blocked time.  Read-only: the scheduler accounts it as delays
        are processed.
        """
        return self._run_ns

    def add_run_time(self, ns: int) -> None:
        """Count ``ns`` of on-CPU time spent outside ``Delay`` commands
        (a spin the model elided while the thread was parked)."""
        self._run_ns += ns

    # ------------------------------------------------------------------
    def _finish(self, result) -> None:
        self.done = True
        self.result = result
        self.finished_at = self._sched.now
        self._wake_joiners()

    def _abort(self, exc) -> None:
        self.done = True
        self.failed = True
        self.finished_at = self._sched.now
        self._wake_joiners()

    def _wake_joiners(self) -> None:
        joiners, self._joiners = self._joiners, []
        for j in joiners:
            self._sched.wake(j, self.result)

    # ------------------------------------------------------------------
    def join(self):
        """Generator: park until this thread finishes; returns its result.

        Usage from another simulated thread::

            result = yield from other.join()
        """
        from repro.simthread.scheduler import SUSPEND
        from repro.simthread.errors import SimThreadError

        me = self._sched.current
        if me is self:
            raise SimThreadError(f"thread {self.name} cannot join itself")
        if self.done:
            return self.result
        self._joiners.append(me)
        value = yield SUSPEND
        return value

    def __repr__(self):  # pragma: no cover - debug aid
        state = "done" if self.done else ("parked" if self._parked else "ready")
        return f"<SimThread {self.name} {state}>"
