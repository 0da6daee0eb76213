"""In-memory span tracer and the class-level wrappers that feed it.

The benchmark measures the program from outside: it replaces public
functions and methods with timing wrappers for the duration of a traced
pass and restores them afterwards.  Wrappers go on the *class* (or the
module attribute the caller looks up), and they must be installed before
the simulated world is built, because hot objects bind methods such as
``progress`` once at construction.

A span is one call of a plain function, or one *resumption* of a
generator: a simulated thread that suspends inside ``flush`` is not
charged for the virtual time it sleeps, only for the host time each
resumption takes.  Spans nest per host thread; a span's self time is its
duration minus the durations of its direct children.

Hot layers produce millions of spans per pass, so closed spans are folded
into per-(name, parent) aggregates as they end; the first
:attr:`Tracer.keep` raw spans (name, start, end, parent) are also kept so
the report can show real nesting.  Names listed in ``sample_names`` keep
every duration, for medians.
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

_now = time.perf_counter_ns


class _Agg:
    """Totals of one span name under one parent name."""

    __slots__ = ("spans", "total_ns", "self_ns")

    def __init__(self):
        self.spans = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Collects spans from every host thread that runs wrapped code.

    ``sample_names`` are span names whose individual durations are kept
    (for per-call medians).  ``keep`` bounds the raw span list.
    """

    def __init__(self, sample_names=(), keep: int = 20000):
        self.sample_names = frozenset(sample_names)
        self.keep = keep
        self.raw: list[tuple[str, int, int, str | None]] = []
        self.samples: dict[str, list[int]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[tuple[dict, dict]] = []

    # -- per-thread state ------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local.aggs, local.counts
        except AttributeError:
            local.stack = []
            local.aggs = {}
            local.counts = {}
            with self._lock:
                self._threads.append((local.aggs, local.counts))
            return local.stack, local.aggs, local.counts

    def count(self, name: str, n: int = 1) -> None:
        """Add ``n`` to the tally ``name`` on the calling thread.

        Wrappers count each invocation under the span name (a generator
        counts once, not per resumption); ``on_return`` hooks add
        outcome tallies.
        """
        counts = self._state()[2]
        counts[name] = counts.get(name, 0) + n

    # -- spans -------------------------------------------------------------
    def begin(self, name: str) -> list:
        """Open a span on the calling thread; returns its frame."""
        stack = self._state()[0]
        frame = [name, _now(), 0]
        stack.append(frame)
        return frame

    def end(self, frame: list) -> None:
        """Close the innermost span (``frame``) on the calling thread."""
        end = _now()
        stack, aggs, _ = self._state()
        stack.pop()
        name, start, child_ns = frame
        dur = end - start
        parent = None
        if stack:
            outer = stack[-1]
            outer[2] += dur
            parent = outer[0]
        key = (name, parent)
        agg = aggs.get(key)
        if agg is None:
            agg = aggs[key] = _Agg()
        agg.spans += 1
        agg.total_ns += dur
        agg.self_ns += dur - child_ns
        if name in self.sample_names or len(self.raw) < self.keep:
            with self._lock:
                if name in self.sample_names:
                    self.samples.setdefault(name, []).append(dur)
                if len(self.raw) < self.keep:
                    self.raw.append((name, start, end, parent))

    # -- reading -----------------------------------------------------------
    def table(self) -> dict[tuple[str, str | None], _Agg]:
        """Aggregates merged over every thread, by (name, parent)."""
        merged: dict = {}
        with self._lock:
            per_thread = [aggs for aggs, _ in self._threads]
        for aggs in per_thread:
            for key, agg in list(aggs.items()):
                into = merged.get(key)
                if into is None:
                    into = merged[key] = _Agg()
                into.spans += agg.spans
                into.total_ns += agg.total_ns
                into.self_ns += agg.self_ns
        return merged

    def counts(self) -> dict[str, int]:
        """Tallies from :meth:`count`, summed over every thread."""
        total: dict[str, int] = {}
        with self._lock:
            per_thread = [counts for _, counts in self._threads]
        for counts in per_thread:
            for name, n in list(counts.items()):
                total[name] = total.get(name, 0) + n
        return total

    def by_name(self) -> dict[str, dict]:
        """``{name: {"spans", "total_s", "self_s"}}`` summed over parents."""
        out: dict[str, dict] = {}
        for (name, _parent), agg in self.table().items():
            row = out.setdefault(name, {"spans": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            row["spans"] += agg.spans
            row["total_s"] += agg.total_ns / 1e9
            row["self_s"] += agg.self_ns / 1e9
        return out

    def dump(self) -> dict:
        """JSON-able snapshot: aggregates, samples, counts, raw spans."""
        return {
            "edges": [{"name": n, "parent": p, "spans": a.spans,
                       "total_ns": a.total_ns, "self_ns": a.self_ns}
                      for (n, p), a in sorted(self.table().items(),
                                              key=lambda kv: str(kv[0]))],
            "samples": {k: list(v) for k, v in self.samples.items()},
            "counts": self.counts(),
            "raw": [list(s) for s in self.raw],
        }


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _timed_generator(tracer: Tracer, name: str, gen, on_return):
    """Drive ``gen`` and time each of its resumptions as one span.

    Values sent in, exceptions thrown in, yielded commands and the return
    value all pass through unchanged, so ``yield from`` over the wrapper
    behaves exactly like ``yield from`` over ``gen``.
    """
    send_value = None
    thrown = None
    while True:
        frame = tracer.begin(name)
        try:
            if thrown is None:
                command = gen.send(send_value)
            else:
                exc, thrown = thrown, None
                command = gen.throw(exc)
        except StopIteration as stop:
            tracer.end(frame)
            if on_return is not None:
                on_return(tracer, stop.value)
            return stop.value
        except BaseException:
            tracer.end(frame)
            raise
        tracer.end(frame)
        try:
            send_value = yield command
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into the wrapped body
            thrown = exc
            send_value = None


def wrap(tracer: Tracer, fn, name: str, on_return=None):
    """A timing wrapper for ``fn`` that records spans named ``name``.

    ``on_return(tracer, value)``, if given, sees every return value (a
    generator's ``StopIteration`` value), for outcome tallies such as
    "progress call that completed nothing".
    """
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.count(name)
            return _timed_generator(tracer, name, fn(*args, **kwargs),
                                    on_return)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.count(name)
        frame = tracer.begin(name)
        try:
            value = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if on_return is not None:
            on_return(tracer, value)
        return value
    return wrapper


class Patches:
    """Install wrappers on owners (classes or modules); undo on exit.

    Each entry is ``(owner, attribute, span_name[, on_return])``.  Used as
    a context manager so a failing pass still restores the originals.
    """

    def __init__(self, tracer: Tracer, entries):
        self.tracer = tracer
        self.entries = list(entries)
        self._saved: list = []

    def __enter__(self) -> "Patches":
        for owner, attr, name, *rest in self.entries:
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            on_return = rest[0] if rest else None
            setattr(owner, attr, wrap(self.tracer, original, name, on_return))
            self._saved.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
