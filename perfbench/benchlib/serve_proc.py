"""The server process of the ``serve-mixed`` workload.

Runs ``repro serve`` (the public CLI entry point) with the arguments
after ``--``.  With ``--trace-out FILE`` it first wraps the public entry
points of the serve, engine, experiments and obs layers, and writes the
span tracer's dump to FILE once the server has shut down (on SIGINT).

Usage::

    python serve_proc.py --src SRC [--trace-out FILE] -- serve --root R ...
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchlib.spans import Patches, Tracer  # noqa: E402

#: span names whose per-call durations are kept for medians
SAMPLED = ("serve.request_key", "serve.submit", "serve.handler",
           "engine.cache_get", "engine.cache_put", "experiments.save")


def serve_patches(tracer: Tracer, queue_waits: list) -> Patches:
    """Wrappers on the serve-side layers, plus a submit -> start probe.

    ``queue_waits`` receives, per cold job, the host seconds from its
    admitting ``JobIndex.submit`` to the start of ``JobHandle.execute``.
    """
    from repro.engine.cache import TrialCache
    from repro.engine.engine import Engine
    from repro.engine.handle import JobHandle
    from repro.experiments import artifacts
    from repro.obs.live.session import LiveTelemetry, PoolMonitor
    from repro.serve import jobs
    from repro.serve.jobs import JobIndex
    from repro.serve.server import ServeHandler

    admitted: dict[str, int] = {}

    def note_admission(_tracer, value):
        job, created = value
        if created:
            admitted[job.id] = time.perf_counter_ns()

    original_execute = JobHandle.execute

    def execute(self):
        start = admitted.pop(self.id, None)
        if start is not None:
            queue_waits.append((time.perf_counter_ns() - start) / 1e9)
        return original_execute(self)

    entries = [
        (jobs, "request_key", "serve.request_key"),
        (JobIndex, "submit", "serve.submit", note_admission),
        (ServeHandler, "do_POST", "serve.handler"),
        (ServeHandler, "do_GET", "serve.handler"),
        (Engine, "run_tasks", "engine.run_tasks"),
        (TrialCache, "get", "engine.cache_get"),
        (TrialCache, "put", "engine.cache_put"),
        (artifacts, "save_result", "experiments.save"),
    ]
    for cls in (LiveTelemetry, PoolMonitor):
        for attr, value in vars(cls).items():
            if callable(value) and not attr.startswith("_"):
                entries.append((cls, attr, "obs.live"))
    JobHandle.execute = execute
    return Patches(tracer, entries)


def main(argv=None) -> int:
    """Run the server; dump the trace after it stops."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    from repro.cli import main as repro_main

    serve_args = args.serve_args
    if serve_args[:1] == ["--"]:
        serve_args = serve_args[1:]
    if not args.trace_out:
        return repro_main(serve_args)
    tracer = Tracer(sample_names=SAMPLED)
    queue_waits: list = []
    with serve_patches(tracer, queue_waits):
        code = repro_main(serve_args)
    doc = tracer.dump()
    doc["queue_waits_s"] = queue_waits
    pathlib.Path(args.trace_out).write_text(json.dumps(doc))
    return code


if __name__ == "__main__":
    sys.exit(main())
