"""Atomic counters/flags and thread-local storage."""

import pytest

from repro.simthread import AtomicCounter, AtomicFlag, Delay, Scheduler, ThreadLocal
from repro.simthread.errors import SimThreadError


class TestAtomicCounter:
    def test_fetch_add_returns_previous_and_is_unique(self):
        sched = Scheduler(seed=7)
        ctr = AtomicCounter(sched)
        seen = []

        def worker():
            for _ in range(25):
                v = yield from ctr.fetch_add()
                seen.append(v)
                yield Delay(10)

        for _ in range(4):
            sched.spawn(worker())
        sched.run()
        assert sorted(seen) == list(range(100))  # unique, gap-free
        assert ctr.value == 100
        assert ctr.operations == 100

    def test_fetch_add_charges_cost(self):
        sched = Scheduler(jitter=0.0)
        ctr = AtomicCounter(sched, cost_ns=123)

        def body():
            yield from ctr.fetch_add()

        sched.spawn(body())
        assert sched.run() == 123

    def test_custom_increment_and_store(self):
        sched = Scheduler()
        ctr = AtomicCounter(sched, start=5)

        def body():
            old = yield from ctr.fetch_add(10)
            assert old == 5
            yield from ctr.store(99)

        sched.spawn(body())
        sched.run()
        assert ctr.value == 99

    def test_take_then_cost_delay_matches_fetch_add(self):
        """``take`` + yielding ``cost_delay`` is ``fetch_add`` split in two:
        the value and the operation count move at once, the time when the
        caller yields."""
        runs = {}
        for mode in ("fetch_add", "take"):
            sched = Scheduler(seed=3, jitter=0.1)
            ctr = AtomicCounter(sched, start=2, cost_ns=77)
            seen = []

            def body():
                for _ in range(3):
                    if mode == "fetch_add":
                        v = yield from ctr.fetch_add(4)
                    else:
                        v = ctr.take(4)
                        assert ctr.value == v + 4 and sched.now == before[-1]
                        yield ctr.cost_delay
                    seen.append((v, sched.now))
                    before.append(sched.now)

            before = [0]
            sched.spawn(body())
            sched.run()
            runs[mode] = (seen, ctr.value, ctr.operations)
        assert runs["take"] == runs["fetch_add"]
        assert runs["take"][1:] == (14, 3)


class TestAtomicFlag:
    def test_test_and_set(self):
        sched = Scheduler()
        flag = AtomicFlag(sched)
        results = []

        def racer():
            was = yield from flag.test_and_set()
            results.append(was)

        sched.spawn(racer())
        sched.spawn(racer())
        sched.run()
        assert sorted(results) == [False, True]  # exactly one winner
        assert flag.value

    def test_clear(self):
        sched = Scheduler()
        flag = AtomicFlag(sched, value=True)

        def body():
            yield from flag.clear()

        sched.spawn(body())
        sched.run()
        assert not flag.value


class TestThreadLocal:
    def test_isolation_between_threads(self):
        sched = Scheduler(seed=1)
        tls = ThreadLocal(sched, default="unset")
        observed = {}

        def worker(i):
            assert tls.get() == "unset"
            assert not tls.is_set()
            tls.set(i)
            yield Delay(100)  # give others a chance to clobber (they can't)
            observed[i] = tls.get()

        for i in range(6):
            sched.spawn(worker(i))
        sched.run()
        assert observed == {i: i for i in range(6)}

    def test_clear(self):
        sched = Scheduler()
        tls = ThreadLocal(sched, default=None)

        def body():
            tls.set("x")
            tls.clear()
            assert tls.get() is None
            if False:
                yield

        sched.spawn(body())
        sched.run()

    def test_access_outside_thread_is_error(self):
        tls = ThreadLocal(Scheduler())
        with pytest.raises(SimThreadError):
            tls.get()
