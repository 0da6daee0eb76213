"""Idle ``MPI_Win_flush`` pollers park under concurrent progress.

The polled reference is the same run with the park predicate
monkeypatched off (a test-only reference, not an option).  At zero
jitter an idle concurrent round draws no random numbers, so a parked run
must reproduce polling exactly on every observable the model exposes;
only the number of simulated events may drop.
"""

import pytest

from repro.core import ThreadingConfig
from repro.core.pool import CRIPool
from repro.experiments import TRINITITE_HASWELL
from repro.faults import FaultPlan
from repro.mpi import MpiWorld
from repro.mpi.rma import ops
from repro.obs.tracer import Tracer
from repro.simthread import Scheduler
from repro.simthread.scheduler import Delay
from repro.workloads import RmaMtConfig, run_rmamt
from tests.conftest import make_world

SIZES = (1, 4096, 16384)
MODES = ("single", "dedicated", "round_robin")


def no_parking(monkeypatch):
    monkeypatch.setattr(ops, "_parks", lambda process: False)


def count_parks(monkeypatch) -> list:
    """Record every park (its key) without changing what parks."""
    keys = []
    real = ops._park

    def recording(env, win, target):
        keys.append((env.rank, target))
        return (yield from real(env, win, target))

    monkeypatch.setattr(ops, "_park", recording)
    return keys


def threading_for(mode: str, progress: str) -> ThreadingConfig:
    if mode == "single":
        return ThreadingConfig(num_instances=1, assignment="dedicated",
                               progress=progress)
    return ThreadingConfig(num_instances=TRINITITE_HASWELL.default_instances,
                           assignment=mode, progress=progress)


def rmamt(nbytes, mode, progress="concurrent", seed=1, jitter=0.0,
          fault_plan=None, traced=False):
    """One 32-thread put+flush run; returns its observables."""
    captured = {}

    def instrument(sched, world):
        sched.jitter = jitter
        captured["sched"], captured["world"] = sched, world
        if traced:
            captured["tracer"] = Tracer(sched)

    result = run_rmamt(
        RmaMtConfig(threads=32, ops_per_thread=5, msg_bytes=nbytes, seed=seed),
        threading=threading_for(mode, progress), costs=TRINITITE_HASWELL.costs,
        fabric=TRINITITE_HASWELL.fabric, instrument=instrument,
        fault_plan=fault_plan)
    sched, world = captured["sched"], captured["world"]
    proc = world.processes[0]
    counter = proc.pool.rr_counter
    return {
        "elapsed_ns": result.elapsed_ns,
        "finished_at": [t.finished_at for t in sched.threads],
        "run_time_ns": [t.run_time_ns for t in sched.threads],
        "calls": proc.progress_engine.calls,
        "rr_value": counter.value,
        "rr_operations": counter.operations,
        "spc": [p.spc.as_dict() for p in world.processes],
        "events": result.events_processed,
        "tracer": captured.get("tracer"),
    }


def observables(run: dict) -> dict:
    return {k: v for k, v in run.items() if k not in ("events", "tracer")}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("nbytes", SIZES)
def test_parked_equals_polled_at_zero_jitter(monkeypatch, nbytes, mode):
    parks = count_parks(monkeypatch)
    parked = rmamt(nbytes, mode)
    no_parking(monkeypatch)
    polled = rmamt(nbytes, mode)
    assert observables(parked) == observables(polled)
    assert parked["events"] <= polled["events"]
    if mode != "single" and nbytes >= 4096:
        assert parks
        assert parked["events"] < polled["events"]


@pytest.mark.parametrize("mode", ("dedicated", "round_robin"))
def test_serial_progress_never_parks(monkeypatch, mode):
    parks = count_parks(monkeypatch)
    run = rmamt(16384, mode, progress="serial")
    assert parks == []
    no_parking(monkeypatch)
    assert rmamt(16384, mode, progress="serial")["events"] == run["events"]


def test_fault_plan_run_never_parks(monkeypatch):
    plan = FaultPlan(seed=3, drop_rate=0.05)
    parks = count_parks(monkeypatch)
    run = rmamt(16384, "dedicated", fault_plan=plan, jitter=0.05)
    assert parks == []
    no_parking(monkeypatch)
    polled = rmamt(16384, "dedicated", fault_plan=plan, jitter=0.05)
    assert run["events"] == polled["events"]
    assert observables(run) == observables(polled)


def test_traced_and_untraced_runs_agree(monkeypatch):
    parks = count_parks(monkeypatch)
    plain = rmamt(16384, "dedicated", jitter=0.05)
    traced = rmamt(16384, "dedicated", jitter=0.05, traced=True)
    assert parks and len(parks) % 2 == 0
    assert traced["elapsed_ns"] == plain["elapsed_ns"]
    assert traced["events"] == plain["events"]
    instants = [i for i in traced["tracer"].instants
                if i[1] == "rma.flush.park"]
    assert len(instants) == len(parks) // 2
    assert all(args["k"] >= 0 for *_, args in instants)
    assert sum(args["k"] for *_, args in instants) > 0


def test_parked_flusher_wakes_on_two_sided_arrival(monkeypatch):
    # Rank 0's only thread posts receives, then flushes a 1 MiB put whose
    # ack comes back long after rank 1's messages land.  The arrivals can
    # only be matched by the flusher's own progress rounds, so they are
    # matched before the flush returns only if a CQ push woke it.
    sched = Scheduler(seed=7, jitter=0.05)
    world = make_world(sched, instances=2, progress="concurrent")
    comm = world.comm_world
    win = world.env(0).win_allocate(comm, 1 << 20)
    parks = count_parks(monkeypatch)
    pushes_seen = []
    real_wake = CRIPool._wake_parked

    def counting_wake(pool):
        pushes_seen.append(len(pool.parked))
        real_wake(pool)

    monkeypatch.setattr(CRIPool, "_wake_parked", counting_wake)
    messages = 8
    seen = {}

    def flusher(env):
        requests = []
        for tag in range(messages):
            req = yield from env.irecv(comm, src=1, tag=tag, nbytes=8)
            requests.append(req)
        yield from env.win_lock_all(win)
        yield from env.put(win, 1, nbytes=1 << 20)
        yield from env.flush(win, 1)
        seen["done_at_flush"] = sum(1 for r in requests if r.completed)
        yield from env.waitall(requests)
        yield from env.win_unlock_all(win)

    def sender(env):
        yield Delay(20_000)         # the flusher is parked by now
        for tag in range(messages):
            yield from env.send(comm, 0, tag=tag, nbytes=8)

    sched.spawn(flusher(world.env(0)))
    sched.spawn(sender(world.env(1)))
    sched.run()                     # no DeadlockError
    assert parks and pushes_seen and all(pushes_seen)
    assert seen["done_at_flush"] == messages
    assert world.processes[0].spc.messages_received == messages
    assert world.processes[1].spc.messages_sent == messages


def _flush_all_world(call, monkeypatch, parking: bool):
    sched = Scheduler(seed=5, jitter=0.0)
    world = MpiWorld(sched, nprocs=3, nodes=3,
                     config=ThreadingConfig(num_instances=4,
                                            assignment="dedicated",
                                            progress="concurrent"))
    win = world.env(0).win_allocate(world.comm_world, 64 * 1024)
    if not parking:
        no_parking(monkeypatch)

    def origin(env):
        if call != "fence":
            yield from env.win_lock_all(win)
        else:
            yield from env.fence(win)
        for target in (1, 2):
            yield from env.put(win, target, nbytes=(16 << 10) * target)
        if call == "flush":
            yield from env.flush(win, None)
        elif call == "unlock_all":
            yield from env.win_unlock_all(win)
        else:
            yield from env.fence(win)
        assert win.outstanding(0) == 0

    def peer(env):
        yield from env.fence(win)
        yield from env.fence(win)

    threads = [sched.spawn(origin(world.env(0)))]
    if call == "fence":
        threads += [sched.spawn(peer(world.env(r))) for r in (1, 2)]
    elapsed = sched.run()
    return elapsed, [t.finished_at for t in threads], sched.events_processed


@pytest.mark.parametrize("call", ("flush", "unlock_all", "fence"))
def test_flush_all_paths_wait_on_the_origin_total(monkeypatch, call):
    parks = count_parks(monkeypatch)
    elapsed, finished, events = _flush_all_world(call, monkeypatch, True)
    assert parks and set(parks) == {(0, None)}
    p_elapsed, p_finished, p_events = _flush_all_world(call, monkeypatch,
                                                       False)
    assert (elapsed, finished) == (p_elapsed, p_finished)
    assert events < p_events
