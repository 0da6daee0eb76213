"""Golden byte-identity suite: observing a run cannot change it.

The scheduler has one loop body; tracing and the scheduler hooks (a
metrics sampler and a no-progress watchdog, see docs/PERFORMANCE.md)
only read it.  These tests run the tiny (micro) fig3a and chaos
scenarios three ways -- plain, traced, and with a ``MetricsRegistry``
and a ``Watchdog`` installed -- and compare the deterministic artifacts
byte-for-byte against goldens committed under ``tests/goldens/``:

* the run-summary CSV (virtual elapsed, events, SPCs, latency summary)
  must be identical for all three runs -- neither the tracer nor a hook
  firing at an instant boundary may move a single virtual nanosecond;
* the traced run's Chrome JSON export must equal the committed trace.

Regenerate the goldens after an *intentional* behaviour change with::

    REPRO_UPDATE_GOLDENS=1 python -m pytest tests/test_golden_identity.py

and commit the diff (the review of that diff is the behaviour review).
"""

import os
import pathlib

import pytest

from repro.faults import pending_work
from repro.obs.export import to_chrome_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.scenarios import representative_run
from repro.obs.tracer import Tracer
from repro.simthread.watchdog import Watchdog

GOLDENS = pathlib.Path(__file__).resolve().parent / "goldens"
EXPS = ("fig3a", "chaos")
#: hook periods inside the micro runs (39-101 us of virtual time); the
#: stall threshold also exceeds fig3a's start-up gap before its first
#: completion (15-20 us), so the watchdog checks without raising
METRICS_INTERVAL_NS = 5_000
STALL_NS = 20_000


def _run_micro(exp: str, trace: bool):
    """One micro representative run; returns (result, tracer-or-None)."""
    captured = {}

    def instrument(sched, world):
        captured["tracer"] = Tracer(sched)

    result, _ = representative_run(
        exp, seed=1, micro=True, instrument=instrument if trace else None)
    tracer = captured.get("tracer")
    if tracer is not None:
        tracer.detach()
    return result, tracer


def _run_micro_hooked(exp: str):
    """One micro run with a metrics sampler and a watchdog installed."""
    captured = {}

    def instrument(sched, world):
        captured["metrics"] = MetricsRegistry(
            world, interval_ns=METRICS_INTERVAL_NS)
        watchdog = Watchdog(sched, STALL_NS,
                            pending=lambda: pending_work(world))
        world.watchdog = watchdog
        sched.set_watchdog(watchdog)
        captured["watchdog"] = watchdog

    result, _ = representative_run(exp, seed=1, micro=True,
                                   instrument=instrument)
    captured["metrics"].finalize()
    return result, captured["metrics"], captured["watchdog"]


def _summary_csv(result) -> bytes:
    """Deterministic run-summary CSV (pure function of the virtual run)."""
    rows = [("metric", "value")]
    rows.append(("elapsed_ns", str(result.elapsed_ns)))
    rows.append(("events_processed", str(result.events_processed)))
    rows.append(("message_rate", repr(result.message_rate)))
    rows.append(("messages", str(result.messages)))
    rows.append(("per_pair_received", ";".join(map(str, result.per_pair_received))))
    for key, value in sorted(result.spc.as_dict().items()):
        rows.append((f"spc.{key}", repr(value)))
    for key, value in sorted(result.latency.items()):
        rows.append((f"latency.{key}", repr(value)))
    for key, value in sorted((result.faults or {}).items()):
        rows.append((f"faults.{key}", repr(value)))
    return ("\n".join(f"{k},{v}" for k, v in rows) + "\n").encode("ascii")


def check_golden(name: str, payload: bytes) -> None:
    path = GOLDENS / name
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(payload)
        return
    assert path.exists(), (
        f"missing golden {path}; regenerate with "
        f"REPRO_UPDATE_GOLDENS=1 python -m pytest {__file__}")
    assert payload == path.read_bytes(), (
        f"{name} diverged from its committed golden -- the simulation's "
        f"virtual-time behaviour changed.  If intentional, regenerate with "
        f"REPRO_UPDATE_GOLDENS=1 and commit the diff.")


@pytest.mark.parametrize("exp", EXPS)
def test_untraced_run_matches_golden_csv(exp):
    result, _ = _run_micro(exp, trace=False)
    check_golden(f"{exp}_micro.summary.csv", _summary_csv(result))


@pytest.mark.parametrize("exp", EXPS)
def test_traced_run_matches_the_same_golden_csv(exp):
    # tracing toggled ON must not change any deterministic artifact
    result, _ = _run_micro(exp, trace=True)
    check_golden(f"{exp}_micro.summary.csv", _summary_csv(result))


@pytest.mark.parametrize("exp", EXPS)
def test_traced_export_matches_golden_trace(exp):
    _, tracer = _run_micro(exp, trace=True)
    check_golden(f"{exp}_micro.trace.json", to_chrome_json(tracer).encode("utf-8"))


@pytest.mark.parametrize("exp", EXPS)
def test_hooked_run_matches_the_same_golden_csv(exp):
    # a sampler and a watchdog firing at instant boundaries must not
    # change any deterministic artifact either
    result, metrics, watchdog = _run_micro_hooked(exp)
    assert len(metrics.rows) > 1
    assert watchdog.checks >= 1
    check_golden(f"{exp}_micro.summary.csv", _summary_csv(result))
