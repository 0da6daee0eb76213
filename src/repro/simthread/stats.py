"""Scheduler-level event counters behind the host-time profiler.

:class:`SchedStats` reports what the event loop actually did -- events
dispatched per command kind, heap pushes/pops, generator steps, wakes
and spawns.  Everything here is a pure function of the seed: the counts
describe the *simulation's* control flow, not the host's clock, so the
profiler can gate on them while treating host nanoseconds as weather.

Nothing is installed on the scheduler.  :meth:`Scheduler.run` keeps a
few counts in branches it already has (callbacks, yields, suspends,
thread ends, stale heap entries; ``wake`` counts wakes) and the rest is
derived: every non-callback, non-stale event is one generator step,
every step not ending in a yield, suspend or thread end is a
``Delay``, every event is one heap pop, and every push is either popped
or still on the heap.  A :class:`SchedStats` is a snapshot of those
totals; :meth:`SchedStats.as_dict` returns the change since it was
taken.  The totals are current outside ``run()`` and inside scheduler
hooks (sampler, watchdog), which is where the profiler reads them.
"""

from __future__ import annotations


def _totals(sched) -> dict:
    """The scheduler's lifetime counters, in the documented key order."""
    events = sched.events_processed
    callbacks = sched._callbacks
    yields = sched._yields
    suspends = sched._suspends
    steps = events - callbacks - sched._stale - sched._inflight
    return {
        "events_delay": steps - yields - suspends - sched._ends,
        "events_yield": yields,
        "events_suspend": suspends,
        "events_callback": callbacks,
        "heap_pushes": events + len(sched._heap),
        "heap_pops": events,
        "gen_steps": steps,
        "wakes": sched._wakes,
        "spawns": len(sched._threads),
    }


class SchedStats:
    """Deterministic tallies of one scheduler's event loop since creation.

    Each counter is readable as an attribute (``stats.gen_steps``):

    ``events_delay`` / ``events_yield`` / ``events_suspend``
        ``Delay`` / ``YieldNow`` / ``SUSPEND`` commands dispatched;
    ``events_callback``
        ``call_at`` callbacks executed;
    ``heap_pushes`` / ``heap_pops``
        event-heap insertions / removals;
    ``gen_steps``
        generator ``send()`` resumptions;
    ``wakes`` / ``spawns``
        explicit ``wake()`` calls / threads spawned.
    """

    __slots__ = ("_sched", "_base")

    def __init__(self, sched):
        self._sched = sched
        self._base = _totals(sched)

    def as_dict(self) -> dict:
        """Flat ``{counter: change since creation}`` in a fixed order."""
        base = self._base
        return {key: value - base[key]
                for key, value in _totals(self._sched).items()}

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.as_dict()[name]
        except KeyError:
            raise AttributeError(name) from None


def lock_rows(sched) -> list[dict]:
    """Per-:class:`~repro.simthread.sync.SimLock` counter rows.

    Every lock created against ``sched`` registers itself in creation
    order (see ``Scheduler.locks``), so the rows -- acquisition counts
    and virtual-time wait/hold totals -- are deterministic per seed.
    Tracer-guard branch hits are derived from the same counters: each
    acquisition checks the guard twice (acquire + release), contended
    acquisitions add a wait-begin/wait-end pair, and failed trylocks
    and owner migrations one check each.
    """
    rows = []
    for lock in sched.locks:
        tracer_branches = (2 * lock.acquisitions
                           + 2 * lock.contended_acquisitions
                           + lock.tryfails + lock.migrations)
        rows.append({
            "name": lock.name,
            "acquisitions": lock.acquisitions,
            "contended": lock.contended_acquisitions,
            "tryfails": lock.tryfails,
            "migrations": lock.migrations,
            "wait_ns": lock.wait_time_ns,
            "hold_ns": lock.hold_time_ns,
            "tracer_branches": tracer_branches,
        })
    return rows
