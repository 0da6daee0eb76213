"""Modeled atomic operations.

Within the discrete-event model a read-modify-write executed between two
yields is atomic by construction (threads are never preempted mid-step), so
these classes only need to (a) charge the hardware cost of an atomic RMW and
(b) expose the familiar fetch-and-add interface the paper's round-robin
instance assignment relies on (Algorithm 1).

The *value* is updated at the instant the operation starts -- later callers
observe later values -- while the caller pays the RMW latency before
continuing, matching how an x86 ``lock xadd`` globally orders immediately
but stalls the issuing core.
"""

from __future__ import annotations

from repro.simthread.scheduler import Delay


class AtomicCounter:
    """Atomic integer with fetch-and-add semantics."""

    __slots__ = ("_sched", "_value", "cost_ns", "operations", "cost_delay")

    def __init__(self, sched, start: int = 0, cost_ns: int = 30):
        self._sched = sched
        self._value = start
        self.cost_ns = cost_ns
        self.operations = 0
        #: one reusable record for the constant RMW cost (hot: sequence
        #: counters and round-robin tickets hit this per message)
        self.cost_delay = Delay(cost_ns)

    @property
    def value(self) -> int:
        """Relaxed read (cost-free, like a plain load)."""
        return self._value

    def fetch_add(self, n: int = 1):
        """Generator: atomically add ``n``; returns the previous value."""
        old = self.take(n)
        yield self.cost_delay
        return old

    def take(self, n: int = 1) -> int:
        """Plain-call half of :meth:`fetch_add`: add ``n`` and count the
        operation now, returning the previous value.

        The caller must then ``yield`` :attr:`cost_delay` itself; that is
        all :meth:`fetch_add` adds, so a loop taking many tickets can do
        it inline without creating a generator per ticket.
        """
        old = self._value
        self._value += n
        self.operations += 1
        return old

    def credit(self, n: int) -> None:
        """Account ``n`` single tickets (``take()`` calls) taken without
        running them: value and operations both advance by ``n``, and
        nobody pays their cost."""
        self._value += n
        self.operations += n

    def store(self, value: int):
        """Generator: atomic store."""
        self._value = value
        self.operations += 1
        yield self.cost_delay


class AtomicFlag:
    """Atomic boolean with test-and-set / clear."""

    __slots__ = ("_sched", "_value", "cost_ns")

    def __init__(self, sched, value: bool = False, cost_ns: int = 30):
        self._sched = sched
        self._value = bool(value)
        self.cost_ns = cost_ns

    @property
    def value(self) -> bool:
        """Current flag state (read without cost)."""
        return self._value

    def test_and_set(self):
        """Generator: set the flag; returns the previous value."""
        old = self._value
        self._value = True
        yield Delay(self.cost_ns)
        return old

    def clear(self):
        """Generator: clear the flag."""
        self._value = False
        yield Delay(self.cost_ns)
