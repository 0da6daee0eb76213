"""Tiny-size smoke of the simulation workloads, digests and failures."""

import json

import pytest

import run
from benchlib import sim
from benchlib.spans import Tracer


@pytest.fixture
def tiny(monkeypatch):
    """Shrink both trial lists to a few milliseconds per trial."""
    monkeypatch.setattr(sim, "RMA_OPS_PER_THREAD", 2)
    monkeypatch.setattr(sim, "RMA_SIZES", (1, 16384))
    monkeypatch.setattr(sim, "RMA_REPS", 1)
    monkeypatch.setattr(sim, "P2P_PAIRS", 4)
    monkeypatch.setattr(sim, "P2P_WINDOW", 4)
    monkeypatch.setattr(sim, "P2P_REPS", 1)


@pytest.mark.parametrize("workload, n", [("rma-flush", 12),
                                         ("p2p-match", 9)])
def test_smoke_pass_is_correct_and_deterministic(tiny, workload, n):
    trials = sim.trial_list(workload, seed=3)
    assert len(trials) == n
    assert trials == sim.trial_list(workload, seed=3)
    assert trials != sim.trial_list(workload, seed=4)
    first, second = sim.run_pass(trials), sim.run_pass(trials)
    assert first.failed == 0 and first.attempted == n
    assert len(first.trial_s) == n
    assert first.ops == sum(sim.sim_ops(t) for t in trials)
    # counts and digest repeat exactly; only host times differ
    assert first.digest == second.digest
    assert first.counts == second.counts
    assert first.counts["events"] > 0


@pytest.mark.parametrize("workload", ["rma-flush", "p2p-match"])
def test_traced_digest_equals_untraced(tiny, workload):
    trials = sim.trial_list(workload, seed=5)
    plain = sim.run_pass(trials)
    coarse_tr, tr = Tracer(), Tracer()
    coarse = sim.run_coarse(trials, coarse_tr)
    traced = sim.run_traced(trials, tr)
    assert plain.digest == coarse.digest == traced.digest
    layers = sim.layer_metrics(coarse, coarse_tr, traced, tr)
    assert {k for k, _ in sim.SIM_LAYER_METRICS} == set(layers)
    assert layers["simthread.events_per_op"] > 0
    assert layers["core.progress_calls_per_op"] > 0
    if workload == "rma-flush":
        assert layers["mpi.rma.outstanding_calls_per_put"] > 0
        assert layers["mpi.match.arrivals_per_msg"] == 0
    else:
        assert layers["mpi.match.arrivals_per_msg"] > 0
        assert layers["mpi.rma.outstanding_calls_per_put"] == 0
    # the wrappers are gone after the pass
    from repro.simthread.scheduler import Scheduler
    assert not hasattr(Scheduler.run, "__wrapped__")


def test_failing_trial_counts_against_error_rate(tiny):
    trials = sim.trial_list("rma-flush", seed=1)
    bad = sim.Trial("rma", "no-such-progress", 1, "dedicated", 1, 1)
    result = sim.run_pass([bad] + trials)
    assert result.attempted == len(trials) + 1
    assert result.failed == 1
    assert "no-such-progress" in result.errors[0]


def test_failing_trial_reaches_the_result_line(tiny, monkeypatch, capsys):
    real = sim.trial_list

    def with_bad_trial(workload, seed):
        return [sim.Trial("p2p", "serial", 0, "dedicated", 1)] + \
            real(workload, seed)

    monkeypatch.setattr(sim, "trial_list", with_bad_trial)
    monkeypatch.setattr(run, "SIM_SETUPS", 1)
    assert run.main(["--workload", "p2p-match", "--seed", "1",
                     "--seconds", "0", "--trace", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    # one bad trial in each of the run.MIN_PASSES passes
    assert result["failed"] == 3 and result["attempted"] == 30
    assert any(line.startswith("error_rate 0.1 ") for line in lines)
    assert set(result["metrics"]) == {k for k, _ in run.END_TO_END}


def test_wall_takes_each_trial_at_its_median_over_passes():
    trials = [sim.Trial("p2p", "serial", 1, "dedicated", 1),
              sim.Trial("p2p", "serial", 20, "dedicated", 2)]

    def result(times):
        return sim.PassResult(sum(t or 0 for t in times), times, 0,
                              len(times), 0, "d", {}, [])

    # the 100 s burst in pass two moves no trial's median
    passes = [result([1.0, 10.0]), result([1.0, 100.0]),
              result([2.0, 10.0])]
    values, notes = sim.end_to_end(trials, passes)
    assert values["wall_s"] == 11.0
    assert values["ops_per_s"] == 2 * sim.sim_ops(trials[0]) / 11.0
    assert notes["passes"] == 3 and notes["samples_per_pass"] == 2
    assert values["op_s.tail"] is None   # two samples per pass: no tail
    # a trial that failed in one pass keeps the median of the others
    passes[1].trial_s[1] = None
    assert sim.end_to_end(trials, passes)[0]["wall_s"] == 11.0
