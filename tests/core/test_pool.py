"""CRI pool and Algorithm 1 assignment strategies."""

import pytest

from repro.core import CostModel, CRIPool, ThreadingConfig
from repro.netsim import Fabric, IB_EDR
from repro.simthread import Delay, Scheduler


def make_pool(sched, instances=4, assignment="dedicated", costs=None):
    fabric = Fabric(sched, IB_EDR)
    nic = fabric.create_nic()
    return CRIPool(sched, nic, ThreadingConfig(num_instances=instances,
                                               assignment=assignment),
                   costs or CostModel())


def test_pool_creates_one_context_per_instance(sched):
    pool = make_pool(sched, instances=5)
    assert len(pool) == 5
    contexts = {cri.context for cri in pool.instances}
    assert len(contexts) == 5
    assert [cri.index for cri in pool.instances] == list(range(5))


def test_round_robin_cycles(sched):
    pool = make_pool(sched, instances=3, assignment="round_robin")
    picks = []

    def worker():
        for _ in range(7):
            cri = yield from pool.get_instance_round_robin()
            picks.append(cri.index)

    sched.spawn(worker())
    sched.run()
    assert picks == [0, 1, 2, 0, 1, 2, 0]


def test_dedicated_sticks_per_thread(sched):
    pool = make_pool(sched, instances=4, assignment="dedicated")
    picks = {i: [] for i in range(3)}

    def worker(i):
        for _ in range(5):
            cri = yield from pool.get_instance()
            picks[i].append(cri.index)
            yield Delay(50)

    for i in range(3):
        sched.spawn(worker(i))
    sched.run()
    for i, seq in picks.items():
        assert len(set(seq)) == 1  # each thread always gets its instance
    assert len({seq[0] for seq in picks.values()}) == 3  # all distinct


def test_dedicated_shares_when_threads_exceed_instances(sched):
    pool = make_pool(sched, instances=2, assignment="dedicated")
    first_pick = {}

    def worker(i):
        cri = yield from pool.get_instance()
        first_pick[i] = cri.index

    for i in range(5):
        sched.spawn(worker(i))
    sched.run()
    assert set(first_pick.values()) == {0, 1}  # wrapped around, shared


def test_round_robin_assignment_mode_switch_penalty(sched):
    costs = CostModel(instance_switch_ns=10_000)
    pool = make_pool(sched, instances=4, assignment="round_robin", costs=costs)

    def worker():
        before = sched.now
        yield from pool.get_instance()   # first use: no switch
        first = sched.now - before
        before = sched.now
        yield from pool.get_instance()   # rotated: pays the switch
        second = sched.now - before
        return first, second

    t = sched.spawn(worker())
    sched.run()
    first, second = t.result
    assert second - first > 9_000


def test_switch_penalty_override(sched):
    costs = CostModel(instance_switch_ns=0, rma_instance_switch_ns=50_000)
    pool = make_pool(sched, instances=2, assignment="round_robin", costs=costs)

    def worker():
        yield from pool.get_instance(switch_ns=costs.rma_instance_switch_ns)
        before = sched.now
        yield from pool.get_instance(switch_ns=costs.rma_instance_switch_ns)
        return sched.now - before

    t = sched.spawn(worker())
    sched.run()
    assert t.result > 45_000
    assert pool.switches == 1


def test_dedicated_never_switches(sched):
    pool = make_pool(sched, instances=4, assignment="dedicated")

    def worker():
        for _ in range(10):
            yield from pool.get_instance()

    for _ in range(4):
        sched.spawn(worker())
    sched.run()
    assert pool.switches == 0


def test_dedicated_index_and_round_robin_ticket(sched):
    pool = make_pool(sched, instances=3, assignment="dedicated")
    log = {}

    def worker(i):
        k1 = yield from pool.dedicated_index()
        k2 = yield from pool.dedicated_index()
        before = sched.now
        ticket = pool.rr_counter.take()
        yield pool.rr_counter.cost_delay
        log[i] = (k1, k2, ticket, sched.now - before)

    for i in range(2):
        sched.spawn(worker(i))
    sched.run()
    for k1, k2, _, cost in log.values():
        assert k1 == k2  # dedicated index is stable
        assert cost > 0  # the caller pays the RMW
    assert log[0][0] != log[1][0]
    # the two first-touch assignments took tickets 0 and 1
    assert sorted(t for _, _, t, _ in log.values()) == [2, 3]


def test_round_robin_ticket_reduces_over_live_instances(sched):
    """A ticket is reduced modulo the live instance count after its RMW
    delay, on the plain-call path as on Algorithm 1's generator path."""
    pool = make_pool(sched, instances=3, assignment="round_robin")
    picks = []

    def worker():
        for _ in range(2):
            yield from pool.get_instance_round_robin()  # tickets 0, 1
        ticket = pool.rr_counter.take()  # 2
        pool.fail_instance(0)  # lands inside the RMW delay
        yield pool.rr_counter.cost_delay
        picks.append(pool.instances[ticket % len(pool.instances)].index)
        cri = yield from pool.get_instance_round_robin()  # ticket 3
        picks.append(cri.index)

    sched.spawn(worker())
    sched.run()
    assert picks == [1, 2]
