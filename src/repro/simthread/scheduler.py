"""Virtual-time discrete-event scheduler driving simulated threads.

The scheduler owns a single event heap keyed by ``(virtual_time, tick)``
where ``tick`` is a monotonically increasing tie-breaker, so runs are fully
deterministic for a given seed.  Randomness (cost jitter, unfair lock
grants) flows exclusively through the scheduler's seeded ``random.Random``.

Simulated threads communicate with the scheduler by yielding *commands*:

``Delay(ns)``
    Resume this thread after ``ns`` nanoseconds of virtual time (optionally
    perturbed by jitter to model run-to-run hardware variation).

``YieldNow()``
    Cooperative yield: resume at the same virtual time, after every event
    already queued for this instant.

``SUSPEND``
    Park the thread.  Some other component (a lock release, a thread
    finishing) is responsible for calling :meth:`Scheduler.wake` later.

Anything more elaborate (locks, barriers, atomics) is built on top of these
three primitives in sibling modules.

Hot-loop design (see ``docs/PERFORMANCE.md``)
---------------------------------------------
Event records are bare tuples on the heap: ``(when, tick, item)`` where
``item`` is either a :class:`SimThread` or a plain ``(fn, args)`` tuple
for a :meth:`call_at` callback -- no per-event wrapper objects are
allocated.  :meth:`run` is the only loop body, whether or not anything
observes it: heap ops, the rng, the tick counter and the loop's counts
are bound to locals, and the most frequent command (``Delay``) is
tested first.

Observability adds one int compare per event: the sampler and the
watchdog (*hooks*) share one local ``due``, the smallest among them.
Every hook keeps ``due`` past the time it last ran, so hooks fire at
most once per instant, before its first event, and a hook already due
at entry fires at the first event.  The
:class:`~repro.simthread.stats.SchedStats` counters are derived from
counts the loop keeps in branches it already has (callbacks, yields,
suspends, thread ends, stale entries) plus ``events_processed``; the
loop keeps the former in locals and writes them back when a hook fires
and when :meth:`run` returns.
"""

from __future__ import annotations

import heapq
import itertools
import random

from repro.obs.tracer import NULL_TRACER
from repro.simthread.errors import DeadlockError, SimThreadError
from repro.simthread.thread import SimThread

#: hook ``due`` when no hook is installed: past any reachable virtual time
_NEVER = 1 << 63


class Delay:
    """Command: advance this thread's clock by ``ns`` nanoseconds.

    ``jitter=True`` (the default) perturbs the cost by the scheduler's
    configured relative jitter, modeling cycle-level timing noise.  Pass
    ``jitter=False`` for quantities that must be exact (e.g. a calibrated
    wire latency whose jitter is modeled separately).

    Delay records are immutable in practice: the scheduler only reads
    ``ns``/``jitter``, so hot paths may allocate one per constant cost and
    yield it repeatedly (the sync primitives and the MPI layer do).
    """

    __slots__ = ("ns", "jitter")

    def __init__(self, ns: int, jitter: bool = True):
        self.ns = ns
        self.jitter = jitter

    def __repr__(self):  # pragma: no cover - debug aid
        return f"Delay({self.ns}, jitter={self.jitter})"


class YieldNow:
    """Command: reschedule at the current instant, after queued peers."""

    __slots__ = ()


class _Suspend:
    """Command singleton: park the thread until an explicit wake."""

    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debug aid
        return "SUSPEND"


SUSPEND = _Suspend()


class Scheduler:
    """Deterministic virtual-time event loop for simulated threads.

    Parameters
    ----------
    seed:
        Seed for the run's single random stream.  Two runs with the same
        seed and the same spawned generators produce identical schedules.
    jitter:
        Relative timing noise applied to jitterable :class:`Delay` costs,
        e.g. ``0.05`` perturbs each cost uniformly within +/-5%.  Zero
        disables noise entirely.
    """

    def __init__(self, seed: int = 0, jitter: float = 0.05):
        self._now: int = 0
        self.rng = random.Random(seed)
        self.jitter = float(jitter)
        #: events popped so far (kept current while :meth:`run` runs)
        self.events_processed: int = 0
        self.current: SimThread | None = None
        #: observability hook; a no-op NullTracer unless a
        #: :class:`repro.obs.Tracer` is attached.
        self.tracer = NULL_TRACER
        self._heap: list = []
        self._tick = itertools.count()
        self._threads: list[SimThread] = []
        self._locks: list = []
        self._nparked = 0
        self._sampler = None
        self._watchdog = None
        # loop counts behind SchedStats, written back when a hook fires
        # and when run() returns
        self._callbacks = 0
        self._yields = 0
        self._suspends = 0
        self._ends = 0       # generator steps that finished or aborted a thread
        self._stale = 0      # heap entries of already-finished threads
        self._wakes = 0
        self._inflight = 0   # popped events a hook saw before their dispatch

    @property
    def now(self) -> int:
        """Current virtual time in nanoseconds (read-only).

        Only the event loop advances this; components read it to stamp
        events and compute durations.  Tests and the tracer should use
        this property rather than reaching into the event heap.
        """
        return self._now

    def set_sampler(self, sampler) -> None:
        """Install (or, with ``None``, remove) a metrics sampler.

        The sampler must expose ``due`` (next virtual time it wants to
        run, ns) and ``sample(now)``; the event loop invokes it before
        the first event at or past ``due``, and ``sample`` must move
        ``due`` past ``now``.  Used by :class:`repro.obs.MetricsRegistry`
        for interval time-series without keeping the event heap
        artificially alive.  Install before :meth:`run` or from inside a
        hook; :meth:`run` reads ``due`` at entry and after each hook.
        """
        self._sampler = sampler

    @property
    def locks(self) -> tuple:
        """Every SimLock created against this scheduler, creation order."""
        return tuple(self._locks)

    def register_lock(self, lock) -> None:
        """Record a lock for per-lock observability (called by SimLock)."""
        self._locks.append(lock)

    def set_watchdog(self, watchdog) -> None:
        """Install (or, with ``None``, remove) a no-progress watchdog.

        Same event-loop contract as :meth:`set_sampler`: the watchdog
        exposes ``due`` and ``check(now)``, and ``check`` may raise (a
        :class:`~repro.simthread.errors.StallError`) to abort the run.
        See :class:`repro.simthread.watchdog.Watchdog`.
        """
        self._watchdog = watchdog

    # ------------------------------------------------------------------
    # thread lifecycle
    # ------------------------------------------------------------------
    def spawn(self, gen, name: str | None = None) -> SimThread:
        """Register a generator as a new simulated thread, runnable now."""
        if not hasattr(gen, "send"):
            raise SimThreadError(f"spawn() needs a generator, got {type(gen).__name__}")
        thread = SimThread(self, gen, name or f"thread-{len(self._threads)}")
        self._threads.append(thread)
        heapq.heappush(self._heap, (self._now, next(self._tick), thread))
        return thread

    @property
    def threads(self) -> tuple[SimThread, ...]:
        """Every thread ever spawned, in creation order."""
        return tuple(self._threads)

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def wake(self, thread: SimThread, value=None, delay: int = 0) -> None:
        """Unpark a suspended thread, resuming it ``delay`` ns from now.

        ``value`` becomes the result of the ``yield SUSPEND`` expression in
        the thread body.
        """
        if thread.done:
            raise SimThreadError(f"cannot wake finished thread {thread.name}")
        if not thread._parked:
            raise SimThreadError(f"thread {thread.name} is not parked")
        self._nparked -= 1
        self._wakes += 1
        thread._resume_value = value
        thread._parked = False
        heapq.heappush(self._heap, (self._now + delay, next(self._tick), thread))

    def call_at(self, when: int, fn, *args) -> None:
        """Run a plain callback (not a thread) at virtual time ``when``.

        Used by the network model to deliver messages: the callback runs
        with ``self.now == when`` and must not yield.  The callback is
        stored as a bare ``(fn, args)`` tuple on the heap -- no wrapper
        object is allocated per event.
        """
        heapq.heappush(self._heap, (when, next(self._tick), (fn, args)))

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def _hooks_due(self) -> int:
        """The smallest ``due`` among the installed hooks (or ``_NEVER``)."""
        due = _NEVER
        for hook in (self._sampler, self._watchdog):
            if hook is not None and hook.due < due:
                due = hook.due
        return due

    def _fire_hooks(self, now: int) -> int:
        """Run every hook due at ``now``; return the next ``due``.

        The event that reached ``due`` is already in ``events_processed``
        but not yet dispatched; ``_inflight`` tells SchedStats so, and
        stays raised if a hook aborts the run (the event never runs).
        """
        self._inflight += 1
        sampler = self._sampler
        if sampler is not None and now >= sampler.due:
            sampler.sample(now)
        watchdog = self._watchdog
        if watchdog is not None and now >= watchdog.due:
            watchdog.check(now)
        self._inflight -= 1
        due = self._hooks_due()
        if due <= now:
            raise SimThreadError(
                f"a scheduler hook left due={due} at or before now={now}")
        return due

    def _store_counts(self, callbacks, yields, suspends, ends, stale) -> None:
        self._callbacks = callbacks
        self._yields = yields
        self._suspends = suspends
        self._ends = ends
        self._stale = stale

    def run(self) -> int:
        """Drain the event heap; return the final virtual time in ns.

        Installed hooks run before the first event at or past their
        ``due``; a hook already due at entry runs before the first event.

        Raises
        ------
        DeadlockError
            If the heap empties while threads remain parked.
        SimThreadError
            If a thread yields an unknown command, or a hook leaves its
            ``due`` at or before the time it ran.
        Exception
            Any exception escaping a thread body or a hook is re-raised
            here (the simulation is aborted at that point).
        """
        heap = self._heap
        heappop = heapq.heappop
        heappush = heapq.heappush
        tick = self._tick.__next__
        rng_random = self.rng.random
        jitter = self.jitter
        due = self._hooks_due()
        callbacks = self._callbacks
        yields = self._yields
        suspends = self._suspends
        ends = self._ends
        stale = self._stale
        try:
            while heap:
                when, _, item = heappop(heap)
                self._now = when
                self.events_processed += 1
                if when >= due:
                    self._store_counts(callbacks, yields, suspends, ends,
                                       stale)
                    due = self._fire_hooks(when)
                if item.__class__ is tuple:
                    callbacks += 1
                    item[0](*item[1])
                    continue
                if item.done:  # stale heap entry for an aborted thread
                    stale += 1
                    continue
                value = item._resume_value
                if value is not None:
                    item._resume_value = None
                self.current = item
                try:
                    cmd = item._send(value)
                except StopIteration as stop:
                    self.current = None
                    ends += 1
                    item._finish(stop.value)
                    continue
                except Exception as exc:
                    self.current = None
                    ends += 1
                    item._abort(exc)
                    raise
                except BaseException:
                    self.current = None
                    ends += 1
                    raise
                self.current = None
                cls = cmd.__class__
                if cls is Delay:  # by far the most frequent command
                    ns = cmd.ns
                    if cmd.jitter:
                        if ns <= 0:
                            ns = 0
                        elif jitter:
                            ns = int(ns * (1.0 + jitter * (2.0 * rng_random() - 1.0)))
                            if ns < 0:
                                ns = 0
                    item._run_ns += ns
                    heappush(heap, (when + ns, tick(), item))
                elif cmd is SUSPEND:
                    suspends += 1
                    item._parked = True
                    self._nparked += 1
                elif cls is YieldNow:
                    yields += 1
                    heappush(heap, (when, tick(), item))
                else:
                    ends += 1
                    exc = SimThreadError(
                        f"thread {item.name} yielded unknown command {cmd!r}")
                    item._abort(exc)
                    raise exc
        finally:
            self._store_counts(callbacks, yields, suspends, ends, stale)
        if self._nparked:
            parked = [t for t in self._threads if t._parked and not t.done]
            if parked:
                raise DeadlockError(parked)
        return self._now
