"""One-sided operations and synchronization.

The initiating thread's path mirrors the two-sided send path minus
matching: acquire a CRI (round-robin or dedicated), post the RDMA
descriptor, done -- the target CPU is never involved.  ``flush`` spins in
the progress engine until the initiator's outstanding operations to the
target have been acked by the remote NIC.  Under concurrent progress an
idle flush poller parks instead (see :func:`flush`).
"""

from __future__ import annotations

import numpy as np

from repro.core.progress import ConcurrentProgress
from repro.mpi.rma.window import WindowOp
from repro.simthread.scheduler import SUSPEND, Delay

# Accumulate operators over typed views.
SUM_OP = "sum"
REPLACE_OP = "replace"
MAX_OP = "max"
MIN_OP = "min"


def _post(env, win, op: WindowOp, post_cost_ns: int):
    """Generator: shared CRI-acquire/post/release path for all RMA ops."""
    process = env.process
    trc = env.sched.tracer
    traced = trc.enabled
    if traced:
        tid = trc.thread_track(env.sched.current)
        trc.begin(tid, f"rma.{op.kind}", "rma",
                  {"target": op.target, "nbytes": op.nbytes})
    cri = yield from process.pool.get_instance(switch_ns=env.costs.rma_instance_switch_ns)
    yield from cri.lock.acquire()
    # No host_reserve here: one-sided ops are NIC offload -- no matching,
    # no unexpected-buffer allocation -- so the per-process host message
    # pipeline does not bound them (that is RMA's whole advantage).
    yield Delay(post_cost_ns)
    endpoint = process.endpoint_for(cri, op.target)
    win.track(op)
    yield from cri.context.post_rma(endpoint, op)
    yield from cri.lock.release()
    process.spc.rma_ops += 1
    if traced:
        trc.end(tid, {"cri": cri.index})
    return op


def put(env, win, target: int, nbytes: int, target_offset: int = 0, data=None):
    """Generator: remote write; returns the operation handle."""
    win.comm.check_member(target, "target")
    win.require_epoch(env.rank, target)
    win.check_range(target, target_offset, nbytes)
    if data is not None:
        data = np.frombuffer(bytes(data), dtype=np.uint8)
        if len(data) != nbytes:
            raise ValueError(f"data is {len(data)} bytes but nbytes={nbytes}")
    target_buf = win.buffer(target)

    def remote_write(op):
        op.remote_applied_at = env.sched.now
        if data is not None:
            target_buf[target_offset:target_offset + nbytes] = data

    op = WindowOp("put", nbytes, win, env.rank, target, target_offset, remote_write)
    op = yield from _post(env, win, op, env.costs.rma_put_post_ns)
    return op


def get(env, win, target: int, nbytes: int, target_offset: int = 0):
    """Generator: remote read; ``op.result`` holds the bytes after the op
    completes (flush or wait-on-completed)."""
    win.comm.check_member(target, "target")
    win.require_epoch(env.rank, target)
    win.check_range(target, target_offset, nbytes)
    target_buf = win.buffer(target)

    def remote_read(op):
        op.remote_applied_at = env.sched.now
        return bytes(target_buf[target_offset:target_offset + nbytes])

    op = WindowOp("get", nbytes, win, env.rank, target, target_offset, remote_read)
    op = yield from _post(env, win, op, env.costs.rma_get_post_ns)
    return op


def accumulate(env, win, target: int, values, target_offset: int = 0, op=SUM_OP):
    """Generator: remote atomic update on a typed view of the window.

    ``values`` must be a NumPy array; the target bytes at the offset are
    reinterpreted with the same dtype and combined elementwise.  The
    whole update applies atomically (MPI guarantees per-element only;
    we give the stronger guarantee the hardware event model makes free).
    """
    win.comm.check_member(target, "target")
    win.require_epoch(env.rank, target)
    values = np.asarray(values)
    nbytes = values.nbytes
    win.check_range(target, target_offset, nbytes)
    if op not in (SUM_OP, REPLACE_OP, MAX_OP, MIN_OP):
        raise ValueError(f"unknown accumulate op {op!r}")
    target_buf = win.buffer(target)

    def remote_accumulate(handle):
        handle.remote_applied_at = env.sched.now
        view = target_buf[target_offset:target_offset + nbytes].view(values.dtype)
        flat = values.reshape(-1)
        if op == SUM_OP:
            view += flat
        elif op == REPLACE_OP:
            view[:] = flat
        elif op == MAX_OP:
            np.maximum(view, flat, out=view)
        else:
            np.minimum(view, flat, out=view)

    handle = WindowOp("accumulate", nbytes, win, env.rank, target,
                      target_offset, remote_accumulate)
    handle = yield from _post(env, win, handle, env.costs.rma_acc_post_ns)
    return handle


# ----------------------------------------------------------------------
# synchronization
# ----------------------------------------------------------------------
def _parks(process) -> bool:
    """Whether an idle flush poller of ``process`` may park.

    Only under concurrent progress on a perfect fabric, and only while
    every CQ of the pool is empty: an idle round's one shared effect is
    then its round-robin tickets, which the wake credits.  An idle serial
    round holds ``opal-progress`` (other threads' try-locks see it), and
    under a fault plan completions and failovers take paths the poll-grid
    arithmetic does not model, so both keep their real rounds.
    """
    return (process.progress_engine.__class__ is ConcurrentProgress
            and process.nic.fabric.faults is None
            and all(cri.cq.empty for cri in process.pool.instances))


class _ParkedPoller:
    """A flush poller parked until its count reaches 0 or a CQ is pushed.

    Polling would check the count at ``parked_at + backoff + k*period``
    (the top of the loop) and at ``parked_at + (k+1)*period`` (after an
    idle round), ``period`` being one backoff plus one idle concurrent
    round: a ticket per live instance and the empty-round delay.
    """

    __slots__ = ("sched", "thread", "win", "key", "process", "parked_at",
                 "backoff_ns", "period_ns")

    def __init__(self, env, win, target):
        costs = env.costs
        pool = env.process.pool
        self.sched = env.sched
        self.thread = env.sched.current
        self.win = win
        self.key = (env.rank, target)
        self.process = env.process
        self.parked_at = env.sched.now
        self.backoff_ns = costs.rma_flush_backoff_ns
        self.period_ns = (self.backoff_ns + costs.progress_empty_ns
                          + len(pool.instances) * pool.rr_counter.cost_ns)

    def wake(self) -> None:
        """Resume the poller at the first instant of its poll grid at or
        after now, crediting the idle rounds it skipped."""
        self.win.drop_waiter(self.key, self)
        pool = self.process.pool
        pool.unpark(self)
        elapsed = self.sched.now - self.parked_at
        period = self.period_ns
        q, r = divmod(elapsed, period)
        if r == 0 and q:            # exactly at the end of round q - 1
            rounds, top, span = q, False, elapsed
        elif r <= self.backoff_ns:  # at the top of the loop, before round q
            rounds, top, span = q, True, q * period + self.backoff_ns
        else:                       # at the end of round q
            rounds, top, span = q + 1, False, (q + 1) * period
        self.process.progress_engine.calls += rounds
        pool.rr_counter.credit(rounds * len(pool.instances))
        self.thread.add_run_time(span)
        self.sched.wake(self.thread, (rounds, top), span - elapsed)


def _park(env, win, target):
    """Generator: park an idle flush poller; returns whether it resumed
    at the top of the poll loop (else just after an idle round)."""
    poller = _ParkedPoller(env, win, target)
    win.add_waiter(poller.key, poller)
    env.process.pool.park(poller)
    rounds, top = yield SUSPEND
    trc = env.sched.tracer
    if trc.enabled:
        trc.instant(trc.thread_track(env.sched.current), "rma.flush.park",
                    "rma", {"k": rounds})
    return top


def flush(env, win, target: int | None = None):
    """Generator: complete this process's outstanding ops (to ``target``,
    or all targets when ``None``).

    Completion of one-sided operations is a hardware counter, so the loop
    just polls it (with a progress call folded in so concurrently pending
    two-sided traffic still advances, as a real MPI_Win_flush would).

    Under concurrent progress an idle poller parks instead of spinning
    (see :func:`_parks`): it resumes when the count it polls reaches 0,
    or a CQ of its pool is pushed, at the instant its own poll grid would
    have got there, and the skipped rounds are credited to the engine's
    ``calls``, the round-robin counter and the thread's run time.  At
    zero jitter this is exactly what polling does."""
    costs = env.costs
    process = env.process
    process.spc.rma_flushes += 1
    trc = env.sched.tracer
    traced = trc.enabled
    if traced:
        tid = trc.thread_track(env.sched.current)
        trc.begin(tid, "rma.flush", "rma",
                  {"outstanding": win.outstanding(env.rank, target)})
    yield Delay(costs.rma_flush_ns)
    rank = env.rank
    progress = process.progress_engine.progress
    backoff = Delay(costs.rma_flush_backoff_ns)
    repoll = Delay(costs.wait_poll_ns)
    while win.outstanding(rank, target):
        n = yield from progress()
        while not n and win.outstanding(rank, target) and _parks(process):
            if (yield from _park(env, win, target)):
                break               # resumed at the top of the loop
        else:                       # just after a round
            if win.outstanding(rank, target):
                yield backoff if n == 0 else repoll
    if traced:
        trc.end(tid)
    errors = win.take_errors(rank)
    if errors:
        raise errors[0]


def win_lock(env, win, target: int, exclusive: bool = False):
    """Generator: open a passive-target access epoch to ``target``."""
    win.comm.check_member(target, "target")
    win.open_epoch(env.rank, target)
    yield Delay(env.costs.lock_acquire_ns)


def win_unlock(env, win, target: int):
    """Generator: flush ops to ``target``, then close the epoch."""
    yield from flush(env, win, target)
    win.close_epoch(env.rank, target)
    yield Delay(env.costs.lock_release_ns)


def win_lock_all(env, win):
    """Generator: open a shared epoch to every target at once."""
    win.open_epoch(env.rank, "all")
    yield Delay(env.costs.lock_acquire_ns)


def win_unlock_all(env, win):
    """Generator: flush everything, close the shared epoch."""
    yield from flush(env, win, None)
    win.close_epoch(env.rank, "all")
    yield Delay(env.costs.lock_release_ns)


def fence(env, win):
    """Generator: active-target fence: complete local ops, toggle the
    fence epoch, and synchronize the window's group with a barrier."""
    yield from flush(env, win, None)
    if win.has_epoch(env.rank, "fence"):
        win.close_epoch(env.rank, "fence")
    else:
        win.open_epoch(env.rank, "fence")
    from repro.mpi import collectives

    yield from collectives.barrier(env, win.comm)


def win_sync(env, win):
    """Generator: memory barrier on the window (MPI_Win_sync)."""
    yield Delay(env.costs.atomic_rmw_ns)
