"""Scheduler hooks (sampler, watchdog): when they fire and what they see."""

import pytest

from repro.simthread import Delay, Scheduler, SchedStats, SimThreadError


class Recorder:
    """Sampler that logs every call and re-arms ``step`` ns later."""

    def __init__(self, sched, due, step=1, on_sample=None):
        self.sched = sched
        self.due = due
        self.step = step
        self.on_sample = on_sample
        self.calls = []

    def sample(self, now):
        self.calls.append(now)
        if self.on_sample is not None:
            self.on_sample(now)
        self.due = now + self.step


def ticker(delays, log=None, sched=None):
    """A thread that yields ``Delay(10)`` ``delays`` times, logging times."""
    for _ in range(delays):
        if log is not None:
            log.append(sched.now)
        yield Delay(10)
    if log is not None:
        log.append(sched.now)


def test_sampler_fires_once_per_instant_before_its_first_event():
    sched = Scheduler(jitter=0.0)
    log = []
    seen = []
    rec = Recorder(sched, due=1,
                   on_sample=lambda now: seen.append(log.count(now)))
    sched.set_sampler(rec)
    for _ in range(3):  # three events at every instant
        sched.spawn(ticker(3, log, sched))
    sched.run()
    assert rec.calls == [10, 20, 30]  # not at 0: due=1 was still ahead
    assert seen == [0, 0, 0]          # no event of the instant ran yet


def test_hook_sees_the_triggering_event_popped_but_not_stepped():
    sched = Scheduler(jitter=0.0)
    stats = SchedStats(sched)
    views = []

    def look(now):
        views.append((sched.events_processed, stats.as_dict()))

    sched.set_sampler(Recorder(sched, due=5, step=100, on_sample=look))
    sched.spawn(ticker(2))
    sched.run()
    ((events, counts),) = views
    assert events == 2                 # t=0 step + the t=10 event
    assert counts["heap_pops"] == 2
    assert counts["gen_steps"] == 1    # the t=10 step has not run
    assert counts["events_delay"] == 1
    assert counts["heap_pushes"] == 2  # both pushes already popped


def test_hook_already_due_at_entry_fires_at_the_first_event():
    sched = Scheduler(jitter=0.0)
    sched.spawn(ticker(10))
    sched.run()
    assert sched.now == 100
    sched.spawn(ticker(1))             # first event at t=100 == now
    rec = Recorder(sched, due=50)
    sched.set_sampler(rec)
    sched.run()
    assert rec.calls == [100, 110]


def test_hook_that_does_not_move_due_past_now_raises():
    sched = Scheduler(jitter=0.0)

    class Stuck:
        due = 10

        def sample(self, now):
            pass

    sched.set_sampler(Stuck())
    sched.spawn(ticker(3))
    with pytest.raises(SimThreadError, match="due=10"):
        sched.run()


def test_stats_created_mid_run_count_only_what_follows():
    sched = Scheduler(jitter=0.0)
    made = []
    sched.set_sampler(Recorder(sched, due=10, step=10**9,
                               on_sample=lambda now: made.append(
                                   SchedStats(sched))))
    sched.spawn(ticker(4))             # events at t=0, 10, 20, 30, 40
    sched.run()
    (stats,) = made
    assert stats.as_dict() == {
        "events_delay": 3,     # the steps at t=10, 20, 30
        "events_yield": 0,
        "events_suspend": 0,
        "events_callback": 0,
        "heap_pushes": 3,
        "heap_pops": 3,        # t=20, 30, 40: the t=10 pop preceded it
        "gen_steps": 4,        # t=10 (in flight at creation) to t=40
        "wakes": 0,
        "spawns": 0,
    }
