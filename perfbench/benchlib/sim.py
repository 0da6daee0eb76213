"""The two simulation workloads: ``rma-flush`` and ``p2p-match``.

Both are closed loops of in-process calls to the public workload drivers
(``repro.workloads.run_rmamt`` / ``run_multirate``): the next trial starts
when the previous one returns.  The workload seed fixes the order of the
trial list and every trial's simulation seed; the same list is replayed
on every pass of a run, so each pass must produce the same ``sim_digest``.

* ``rma-flush`` -- 32-thread put + flush on the Trinitite-Haswell preset,
  message size {1 B, 4 KiB, 16 KiB} x progress {serial, concurrent} x CRI
  mode {single, dedicated, round-robin}, four simulation seeds each, at
  :data:`RMA_OPS_PER_THREAD` puts per thread.  Flush polling, progress
  rounds and the per-target ``Window.outstanding`` scan make the event
  count and the per-event cost grow with message size; matching does no
  work here.
* ``p2p-match`` -- Multirate-pairwise, 0-byte messages at 20 thread pairs
  on the Alembert preset (the paper's Table II point), the three Figure 3
  panels x CRIs {1, 20 dedicated, 20 round-robin}, four simulation seeds
  each.  Matching, out-of-sequence buffering, serial-progress
  serialization and CRI lock contention do the work; RMA code does none.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time

from benchlib import CheckFailed, stats
from benchlib.spans import Patches, Tracer

#: puts each of the 32 threads issues per rma-flush trial
RMA_OPS_PER_THREAD = 5
RMA_THREADS = 32
RMA_SIZES = (1, 4096, 16384)
RMA_MODES = ("single", "dedicated", "round_robin")
RMA_REPS = 4

P2P_PAIRS = 20
P2P_WINDOW = 32
P2P_WINDOWS = 1
#: Figure 3 panels: (progress, communicator per pair)
P2P_PANELS = (("serial", False), ("concurrent", False), ("concurrent", True))
P2P_CRIS = ((1, "dedicated"), (20, "dedicated"), (20, "round_robin"))
P2P_REPS = 4

PROGRESS = ("serial", "concurrent")


@dataclasses.dataclass(frozen=True)
class Trial:
    """One simulation call of the trial list."""

    kind: str                 #: "rma" or "p2p"
    progress: str
    instances: int            #: CRIs per process; 0 = the testbed default
    assignment: str
    seed: int
    msg_bytes: int = 0
    comm_per_pair: bool = False

    @property
    def label(self) -> str:
        """Short human-readable configuration name."""
        if self.kind == "rma":
            mode = "single" if self.instances == 1 else self.assignment
            return f"{self.msg_bytes}B/{self.progress}/{mode}"
        panel = "cpp" if self.comm_per_pair else self.progress
        return f"{panel}/{self.instances}-{self.assignment}"


def trial_list(workload: str, seed: int) -> list[Trial]:
    """The workload's trial list for workload seed ``seed``."""
    rng = random.Random(seed)
    trials = []
    if workload == "rma-flush":
        for size in RMA_SIZES:
            for progress in PROGRESS:
                for mode in RMA_MODES:
                    for _ in range(RMA_REPS):
                        trials.append(Trial(
                            "rma", progress,
                            1 if mode == "single" else 0,
                            "dedicated" if mode == "single" else mode,
                            rng.randrange(1, 2**31), msg_bytes=size))
    elif workload == "p2p-match":
        for progress, cpp in P2P_PANELS:
            for instances, assignment in P2P_CRIS:
                for _ in range(P2P_REPS):
                    trials.append(Trial("p2p", progress, instances,
                                        assignment, rng.randrange(1, 2**31),
                                        comm_per_pair=cpp))
    else:
        raise ValueError(f"not a simulation workload: {workload!r}")
    rng.shuffle(trials)
    return trials


def sim_ops(trial: Trial) -> int:
    """Simulated operations (puts or messages) one trial completes."""
    if trial.kind == "rma":
        return RMA_THREADS * RMA_OPS_PER_THREAD
    return P2P_PAIRS * P2P_WINDOW * P2P_WINDOWS


# ----------------------------------------------------------------------
# one trial
# ----------------------------------------------------------------------
def run_trial(trial: Trial) -> dict:
    """Run one trial through the public driver and check its outputs.

    Returns the virtual-time outputs that go into the digest plus the
    deterministic counters read from the scheduler, its locks and SPC.
    Raises :class:`CheckFailed` when an output is wrong.
    """
    from repro.core.config import ThreadingConfig
    from repro.experiments.testbeds import ALEMBERT, TRINITITE_HASWELL

    seen = {}

    def capture(sched, world):
        seen["sched"], seen["world"] = sched, world

    if trial.kind == "rma":
        from repro.workloads import RmaMtConfig, run_rmamt

        testbed = TRINITITE_HASWELL
        instances = trial.instances or testbed.default_instances
        cfg = RmaMtConfig(threads=RMA_THREADS,
                          ops_per_thread=RMA_OPS_PER_THREAD,
                          msg_bytes=trial.msg_bytes, op="put", sync="flush",
                          seed=trial.seed)
        result = run_rmamt(
            cfg, threading=ThreadingConfig(num_instances=instances,
                                           assignment=trial.assignment,
                                           progress=trial.progress),
            costs=testbed.costs, fabric=testbed.fabric, instrument=capture)
        spc = seen["world"].spc_total()
        if spc.rma_ops != cfg.total_ops:
            raise CheckFailed(f"{trial.label}: {spc.rma_ops} puts issued, "
                              f"expected {cfg.total_ops}")
    else:
        from repro.workloads import MultirateConfig, run_multirate

        testbed = ALEMBERT
        cfg = MultirateConfig(pairs=P2P_PAIRS, window=P2P_WINDOW,
                              windows=P2P_WINDOWS, msg_bytes=0,
                              comm_per_pair=trial.comm_per_pair,
                              seed=trial.seed)
        result = run_multirate(
            cfg, threading=ThreadingConfig(num_instances=trial.instances,
                                           assignment=trial.assignment,
                                           progress=trial.progress),
            costs=testbed.costs, fabric=testbed.fabric, instrument=capture)
        want = P2P_WINDOW * P2P_WINDOWS
        if result.per_pair_received != [want] * P2P_PAIRS:
            raise CheckFailed(f"{trial.label}: pairs received "
                              f"{result.per_pair_received}, expected {want}")
        spc = result.spc
    sched = seen["sched"]
    if result.events_processed != sched.events_processed:
        raise CheckFailed(f"{trial.label}: result and scheduler disagree "
                          "on events processed")
    locks = sched.locks
    return {
        "digest": [trial.label, trial.seed, result.elapsed_ns,
                   result.events_processed, repr(result.message_rate),
                   spc.as_dict()],
        "events": result.events_processed,
        "acquisitions": sum(lk.acquisitions for lk in locks),
        "contended": sum(lk.contended_acquisitions for lk in locks),
        "tryfails": sum(lk.tryfails for lk in locks),
        "oos": spc.out_of_sequence,
    }


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PassResult:
    """One pass over the trial list."""

    wall_s: float
    trial_s: list            #: host s per trial, in list order; None = failed
    ops: int                 #: simulated ops of the trials that succeeded
    attempted: int
    failed: int
    digest: str
    counts: dict             #: summed deterministic counters
    errors: list


def run_pass(trials, runner=run_trial) -> PassResult:
    """Run every trial once, in order; a raising trial counts as failed."""
    trial_s, records, errors = [], [], []
    counts = {"events": 0, "acquisitions": 0, "contended": 0,
              "tryfails": 0, "oos": 0}
    ops = failed = 0
    start = time.perf_counter()
    for trial in trials:
        t0 = time.perf_counter()
        try:
            out = runner(trial)
        except Exception as exc:  # an op failure, not a benchmark crash
            failed += 1
            errors.append(f"{trial.label} seed={trial.seed}: "
                          f"{type(exc).__name__}: {exc}")
            records.append([trial.label, trial.seed, "failed"])
            trial_s.append(None)
            continue
        trial_s.append(time.perf_counter() - t0)
        ops += sim_ops(trial)
        records.append(out["digest"])
        for key in counts:
            counts[key] += out[key]
    wall = time.perf_counter() - start
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16]
    return PassResult(wall, trial_s, ops, len(trials), failed, digest,
                      counts, errors)


# ----------------------------------------------------------------------
# traced pass
# ----------------------------------------------------------------------
def _is_idle(tracer: Tracer, value) -> None:
    if not value:
        tracer.count("core.progress.idle")


def _is_empty(tracer: Tracer, value) -> None:
    if not value:
        tracer.count("netsim.cq.poll.empty")


def layer_patches(tracer: Tracer) -> Patches:
    """Wrappers on the public entry points of each simulation layer."""
    from repro.core.progress import ConcurrentProgress, SerialProgress
    from repro.mpi.matching import MatchingEngine
    from repro.mpi.rma import ops as rma_ops
    from repro.mpi.rma.window import Window
    from repro.netsim.context import NetworkContext
    from repro.netsim.cq import CompletionQueue
    from repro.simthread.scheduler import Scheduler

    return Patches(tracer, [
        (Scheduler, "run", "simthread.run"),
        (CompletionQueue, "poll", "netsim.cq.poll", _is_empty),
        (NetworkContext, "post_send", "netsim.post_send"),
        (NetworkContext, "post_rma", "netsim.post_rma"),
        (NetworkContext, "deliver", "netsim.deliver"),
        (SerialProgress, "progress", "core.progress", _is_idle),
        (ConcurrentProgress, "progress", "core.progress", _is_idle),
        (Window, "outstanding", "mpi.rma.outstanding"),
        (rma_ops, "flush", "mpi.rma.flush"),
        (MatchingEngine, "handle_arrival", "mpi.match.arrival"),
        (MatchingEngine, "post_recv", "mpi.match.post_recv"),
    ])


def run_coarse(trials, tracer: Tracer) -> PassResult:
    """An untraced pass, except that each trial and each ``Scheduler.run``
    is one span: the reference wall for ``tracing.overhead`` and the
    source of the loop's events per host second."""
    from repro.simthread.scheduler import Scheduler

    def traced_trial(trial):
        frame = tracer.begin("workloads.trial")
        try:
            return run_trial(trial)
        finally:
            tracer.end(frame)

    with Patches(tracer, [(Scheduler, "run", "simthread.run")]):
        return run_pass(trials, traced_trial)


def run_traced(trials, tracer: Tracer) -> PassResult:
    """A pass with every simulation-layer wrapper installed."""
    with layer_patches(tracer):
        return run_pass(trials)


SIM_LAYER_METRICS = (
    ("simthread.events_per_op", "count"),
    ("simthread.events_per_s", "1/s"),
    ("simthread.self_s", "s"),
    ("simthread.lock_tryfail_ratio", "ratio"),
    ("simthread.lock_contended_ratio", "ratio"),
    ("netsim.cq_polls_per_op", "count"),
    ("netsim.cq_empty_ratio", "ratio"),
    ("netsim.self_s", "s"),
    ("core.progress_calls_per_op", "count"),
    ("core.progress_idle_ratio", "ratio"),
    ("core.self_s", "s"),
    ("mpi.rma.outstanding_calls_per_put", "count"),
    ("mpi.rma.outstanding_s", "s"),
    ("mpi.rma.flush_s", "s"),
    ("mpi.match.arrivals_per_msg", "count"),
    ("mpi.match.self_s", "s"),
    ("mpi.spc.oos_per_msg", "count"),
    ("workloads.build_s", "s"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(coarse: PassResult, coarse_tr: Tracer,
                  traced: PassResult, tr: Tracer) -> dict:
    """Per-layer values from one scheduler-only pass and one traced pass.

    Host-time values are whole-pass totals in seconds.  ``*_per_op`` and
    ``*_ratio`` values (except the rate) are deterministic counts.
    """
    names = tr.by_name()
    counts = tr.counts()
    coarse_names = coarse_tr.by_name()

    def self_s(*spans):
        return sum(names.get(s, {}).get("self_s", 0.0) for s in spans)

    ops = traced.ops
    c = coarse.counts
    run_s = coarse_names.get("simthread.run", {}).get("total_s", 0.0)
    trial_s = coarse_names.get("workloads.trial", {}).get("total_s", 0.0)
    polls = counts.get("netsim.cq.poll", 0)
    progress = counts.get("core.progress", 0)
    return {
        "simthread.events_per_op": _ratio(c["events"], coarse.ops),
        "simthread.events_per_s": _ratio(c["events"], run_s),
        "simthread.self_s": self_s("simthread.run"),
        "simthread.lock_tryfail_ratio": _ratio(
            c["tryfails"], c["acquisitions"] + c["tryfails"]),
        "simthread.lock_contended_ratio": _ratio(c["contended"],
                                                 c["acquisitions"]),
        "netsim.cq_polls_per_op": _ratio(polls, ops),
        "netsim.cq_empty_ratio": _ratio(
            counts.get("netsim.cq.poll.empty", 0), polls),
        "netsim.self_s": self_s("netsim.cq.poll", "netsim.post_send",
                                "netsim.post_rma", "netsim.deliver"),
        "core.progress_calls_per_op": _ratio(progress, ops),
        "core.progress_idle_ratio": _ratio(
            counts.get("core.progress.idle", 0), progress),
        "core.self_s": self_s("core.progress"),
        "mpi.rma.outstanding_calls_per_put": _ratio(
            counts.get("mpi.rma.outstanding", 0), ops),
        "mpi.rma.outstanding_s": self_s("mpi.rma.outstanding"),
        "mpi.rma.flush_s": self_s("mpi.rma.flush"),
        "mpi.match.arrivals_per_msg": _ratio(
            counts.get("mpi.match.arrival", 0), ops),
        "mpi.match.self_s": self_s("mpi.match.arrival",
                                   "mpi.match.post_recv"),
        "mpi.spc.oos_per_msg": _ratio(c["oos"], coarse.ops),
        "workloads.build_s": trial_s - run_s,
    }


def end_to_end(trials, passes: list[PassResult]) -> tuple[dict, dict]:
    """End-to-end values over a run's passes, and notes on sample counts.

    ``wall_s`` is one pass over the trial list with each trial at its
    median host time over the run's passes: a burst of host load during
    one trial of one pass moves it much less than it moves that pass's
    wall.  ``ops_per_s`` divides the simulated ops by that wall.  The
    trial-time median and tail pool every pass's trials.
    """
    typical = [(trial, stats.median([t for t in times if t is not None]))
               for trial, times in zip(trials, zip(*(p.trial_s
                                                     for p in passes)))
               if any(t is not None for t in times)]
    wall = sum(t for _, t in typical)
    samples = [[t for t in p.trial_s if t is not None] for p in passes]
    tail = stats.pooled_tail(samples)
    values = {
        "wall_s": wall,
        "ops_per_s": sum(sim_ops(trial) for trial, _ in typical) / wall
        if wall else None,
        "op_s.p50": stats.median([t for s in samples for t in s])
        if any(samples) else None,
        "op_s.tail": tail[1] if tail else None,
    }
    notes = {
        "passes": len(passes),
        "samples_per_pass": len(samples[0]),
        "tail_percentile": tail[0] if tail else None,
    }
    return values, notes
