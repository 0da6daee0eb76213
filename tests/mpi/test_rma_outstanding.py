"""The window's per-target outstanding count against a brute-force scan.

``Window.outstanding(origin, target)`` reads a count kept beside the
pending-op set; these tests recount the set on every flush poll and
check the two agree, including on the error-return path and when one
op is retired twice.
"""

import numpy as np
import pytest

from repro.mpi.errors import ERRORS_RETURN, TransportError
from repro.mpi.rma.window import Window, WindowOp
from tests.conftest import make_world
from tests.faults.test_errhandler import make_world as make_faulty_world


def brute_force(win, origin, target):
    return sum(1 for op in win._pending[origin] if op.target == target)


def check_every_poll(monkeypatch, win, polls):
    """Make every ``win.outstanding`` call (flush polls included) assert
    the count equals a recount, for every target, before answering."""
    real = win.outstanding

    def checked(origin, target=None):
        for t in win.comm.ranks:
            assert real(origin, t) == brute_force(win, origin, t)
        polls.append({t: real(origin, t) for t in win.comm.ranks})
        return real(origin, target)

    monkeypatch.setattr(win, "outstanding", checked)


@pytest.mark.parametrize("progress", ["serial", "concurrent"])
def test_count_matches_recount_at_every_flush_poll(monkeypatch, sched, progress):
    world = make_world(sched, nprocs=3, progress=progress)
    win = world.env(0).win_allocate(world.comm_world, 64 * 1024)
    polls = []
    check_every_poll(monkeypatch, win, polls)

    def body(env):
        yield from env.win_lock_all(win)
        # interleaved targets, 16 KiB transfers: ops to both targets are
        # still on the wire when the flushes start polling
        for target in (1, 2):
            yield from env.accumulate(win, target, np.array([1], dtype=np.int64))
        for target in (1, 2):
            yield from env.get(win, target, nbytes=16 * 1024, target_offset=8)
        for target in (1, 2):
            yield from env.put(win, target, nbytes=16 * 1024,
                               target_offset=32 * 1024)
        yield from env.flush(win, target=1)
        assert win.outstanding(0, 1) == 0
        yield from env.flush_all(win)
        yield from env.win_unlock_all(win)

    sched.spawn(body(world.env(0)))
    sched.run()
    assert polls, "flush never polled the count"
    assert max(p[1] for p in polls) > 0 and max(p[2] for p in polls) > 0
    assert polls[-1] == {0: 0, 1: 0, 2: 0}


def test_count_ends_at_zero_after_errors_return_failure(monkeypatch):
    sched, world = make_faulty_world()
    world.comm_world.set_errhandler(ERRORS_RETURN)
    win = world.env(0).win_allocate(world.comm_world, 256)
    polls = []
    check_every_poll(monkeypatch, win, polls)
    caught = []

    def origin(env):
        yield from env.win_lock_all(win)
        yield from env.put(win, target=1, nbytes=64)
        yield from env.put(win, target=1, nbytes=64, target_offset=64)
        try:
            yield from env.flush(win, target=1)
        except TransportError as exc:
            caught.append(exc)

    sched.spawn(origin(world.env(0)))
    sched.run()
    assert caught
    assert polls[0][1] == 2
    assert win.outstanding(0, 1) == 0 and win.outstanding(0) == 0


def test_retire_and_track_are_idempotent(world):
    win = Window(world, world.comm_world, 16)
    op = WindowOp("put", 4, win, origin=0, target=1, target_offset=0)
    other = WindowOp("put", 4, win, origin=0, target=1, target_offset=4)
    win.track(op)
    win.track(op)
    win.track(other)
    assert win.outstanding(0, 1) == 2 == brute_force(win, 0, 1)
    op._retire()
    op._retire()
    assert win.outstanding(0, 1) == 1 == brute_force(win, 0, 1)
    other._retire()
    other._retire()
    assert win.outstanding(0, 1) == 0 == win.outstanding(0)
    assert win.outstanding(0, 0) == 0


def test_double_retire_after_completion_keeps_count_at_zero(sched, world):
    win = world.env(0).win_allocate(world.comm_world, 16)
    ops = []

    def body(env):
        yield from env.win_lock_all(win)
        ops.append((yield from env.put(win, target=1, nbytes=4)))
        yield from env.flush_all(win)
        yield from env.win_unlock_all(win)

    sched.spawn(body(world.env(0)))
    sched.run()
    (op,) = ops
    assert op.completed
    op._retire()  # a second completion path firing again is harmless
    assert win.outstanding(0, 1) == 0 == win.outstanding(0)
