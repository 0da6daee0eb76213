"""The repository benchmark: one command, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rma-flush --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace 1``
runs one untraced pass and one traced pass and reports the per-layer
metrics (see ``perfbench/README.md``).  Human-readable lines come first;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits
with 2, printing no result, when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from benchlib import served, sim, stats  # noqa: E402
from benchlib.spans import Tracer  # noqa: E402

WORKLOADS = ("rma-flush", "p2p-match", "serve-mixed")
SIM_SETUPS = 5
#: a run makes at least this many passes, even past ``--seconds``, so
#: that per-op medians over passes can drop a pass hit by a load burst
MIN_PASSES = 3

#: the gated end-to-end metrics, reported in the JSON line
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
    ("op_s.p50", "s"), ("peak_rss_mb", "MiB"),
)
#: printed as lines only: their run-to-run spread on a small shared host
#: is wider than any bound the benchmark could hold (see README.md)
LINES_ONLY = (("op_s.tail", "s"), ("cold_s.p50", "s"), ("cached_s.p50", "s"),
              ("artifact_s.p50", "s"))
SERVE_LAYER_METRICS = (
    ("experiments.save_s", "s"),
    ("engine.run_tasks_s", "s"),
    ("engine.overhead_s", "s"),
    ("engine.utilization", "ratio"),
    ("engine.cache_get_s.p50", "s"),
    ("engine.cache_put_s.p50", "s"),
    ("engine.cache_hit_ratio", "ratio"),
    ("serve.request_key_s.p50", "s"),
    ("serve.submit_s.p50", "s"),
    ("serve.handler_s.p50", "s"),
    ("serve.queue_wait_s.p50", "s"),
    ("serve.dedup_hit_ratio", "ratio"),
    ("obs.live.self_s", "s"),
    ("obs.live.events_per_trial", "count"),
)
PER_LAYER = sim.SIM_LAYER_METRICS + SERVE_LAYER_METRICS + (
    ("tracing.overhead", "ratio"),)

#: what the generic end-to-end names mean on each workload
ALIASES = {
    "rma-flush": {"ops_per_s": "sim_ops_per_s (puts)",
                  "op_s.p50": "trial_s.p50", "op_s.tail": "trial_s.tail"},
    "p2p-match": {"ops_per_s": "sim_ops_per_s (messages)",
                  "op_s.p50": "trial_s.p50", "op_s.tail": "trial_s.tail"},
    "serve-mixed": {"ops_per_s": "ops per s of the timed phases",
                    "op_s.p50": "hit_s.p50", "op_s.tail": "hit_s.tail"},
}

_SETUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from repro.core.config import ThreadingConfig
from repro.experiments.testbeds import ALEMBERT, TRINITITE_HASWELL
from repro.workloads import run_multirate, run_rmamt
print("ready", flush=True)
"""


def sim_setup_s() -> list[float]:
    """Seconds from interpreter launch until the simulation modules are
    imported and the testbeds built, for :data:`SIM_SETUPS` fresh
    interpreters."""
    samples = []
    for _ in range(SIM_SETUPS):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        samples.append(time.perf_counter() - start)
        proc.stdout.close()
        if proc.wait(60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed")
    return samples


# ----------------------------------------------------------------------
# simulation workloads
# ----------------------------------------------------------------------
def run_sim(args, out: dict) -> None:
    trials = sim.trial_list(args.workload, args.seed)
    setups = sim_setup_s()
    import repro.workloads  # noqa: F401  (warm imports stay out of timing)
    from repro.core.config import ThreadingConfig  # noqa: F401
    from repro.experiments import testbeds  # noqa: F401

    out["setup_s"] = setups
    if args.trace:
        coarse_tr, tr = Tracer(), Tracer()
        coarse = sim.run_coarse(trials, coarse_tr)
        traced = sim.run_traced(trials, tr)
        passes = [coarse, traced]
        layers = sim.layer_metrics(coarse, coarse_tr, traced, tr)
        layers["tracing.overhead"] = traced.wall_s / coarse.wall_s
        out["layers"] = layers
        out["spans"] = tr.dump()
        out["exact"] = dict(coarse.counts, sim_ops=coarse.ops, **tr.counts())
    else:
        passes = []
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(sim.run_pass(trials))
        values, notes = sim.end_to_end(trials, passes)
        out["values"] = values
        out["notes"] = notes
        out["exact"] = dict(passes[0].counts, sim_ops=passes[0].ops)
    out["pass_walls"] = [p.wall_s for p in passes]
    # in a traced run this compares the traced pass with the untraced one
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        out["errors"].append(f"passes disagree on sim_digest: {digests}")
    out["digest"] = ("sim_digest", digests[0])
    out["attempted"] = sum(p.attempted for p in passes)
    out["failed"] = sum(p.failed for p in passes)
    for p in passes:
        out["errors"].extend(p.errors)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def _p50(samples) -> float:
    return stats.median(samples) / 1e9 if samples else 0.0


def merge_dumps(paths) -> dict:
    """One span dump from the dumps of several server incarnations."""
    merged = {"edges": [], "samples": {}, "counts": {}, "raw": [],
              "queue_waits_s": []}
    for path in paths:
        dump = json.loads(path.read_text())
        merged["edges"] += dump["edges"]
        merged["raw"] += dump["raw"]
        merged["queue_waits_s"] += dump["queue_waits_s"]
        for name, values in dump["samples"].items():
            merged["samples"].setdefault(name, []).extend(values)
        for name, n in dump["counts"].items():
            merged["counts"][name] = merged["counts"].get(name, 0) + n
    return merged


def serve_layers(traced: served.PassResult, dump: dict) -> dict:
    """Per-layer values of one traced serve-mixed pass."""
    by_name: dict[str, dict] = {}
    for edge in dump["edges"]:
        row = by_name.setdefault(edge["name"], {"total": 0, "self": 0})
        row["total"] += edge["total_ns"]
        row["self"] += edge["self_ns"]
    samples = dump["samples"]
    counters = [doc["counters"] for doc in traced.jobs]
    trials = sum(c["trials"] for c in counters)
    wall = sum(c["wall_ns"] for c in counters)
    busy = sum(c["busy_ns"] for c in counters)
    events = sum(m["telemetry"]["events_total"] for m in traced.manifests)
    st = traced.stats
    return {
        "experiments.save_s": _p50(samples.get("experiments.save")),
        "engine.run_tasks_s":
            by_name.get("engine.run_tasks", {}).get("total", 0) / 1e9,
        "engine.overhead_s": sum(c["wall_ns"] - c["busy_ns"] / served.ENGINE_JOBS
                                 for c in counters if c["batches"]) / 1e9,
        "engine.utilization":
            busy / (wall * served.ENGINE_JOBS) if wall else 0.0,
        "engine.cache_get_s.p50": _p50(samples.get("engine.cache_get")),
        "engine.cache_put_s.p50": _p50(samples.get("engine.cache_put")),
        "engine.cache_hit_ratio":
            sum(c["cache_hits"] for c in counters) / trials if trials else 0.0,
        "serve.request_key_s.p50": _p50(samples.get("serve.request_key")),
        "serve.submit_s.p50": _p50(samples.get("serve.submit")),
        "serve.handler_s.p50": _p50(samples.get("serve.handler")),
        "serve.queue_wait_s.p50": stats.median(dump["queue_waits_s"])
        if dump["queue_waits_s"] else 0.0,
        "serve.dedup_hit_ratio":
            st["dedup_hits"] / st["requests"] if st.get("requests") else 0.0,
        "obs.live.self_s": by_name.get("obs.live", {}).get("self", 0) / 1e9,
        "obs.live.events_per_trial": events / trials if trials else 0.0,
    }


def run_serve(args, out: dict, work: pathlib.Path) -> None:
    passes = []
    if args.trace:
        # untraced, traced, untraced: the first pass also warms the host
        # (page cache, lazy imports), so the overhead compares with the last
        trace_file = work / "serve-trace.json"
        passes.append(served.run_pass(SRC, work, args.seed, 0))
        traced = served.run_pass(SRC, work, args.seed, 1, trace_out=trace_file)
        passes.append(traced)
        passes.append(served.run_pass(SRC, work, args.seed, 2))
        if traced.trace_files and all(f.is_file()
                                      for f in traced.trace_files):
            dump = merge_dumps(traced.trace_files)
            layers = serve_layers(traced, dump)
            layers["tracing.overhead"] = (traced.wall_s / passes[2].wall_s
                                          if passes[2].wall_s else 0.0)
            out["layers"] = layers
            out["spans"] = dump
        else:
            out["errors"].append("traced server wrote no trace")
    else:
        deadline = time.perf_counter() + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(served.run_pass(SRC, work, args.seed, len(passes)))
            if passes[-1].failed:
                break
        values, extra, notes = served.end_to_end(passes)
        out["values"] = values
        out["extra"] = extra
        out["notes"] = notes
    out["exact"] = {k: passes[-1].stats.get(k)
                    for k in ("requests", "dedup_hits", "cold_runs")}
    out["pass_walls"] = [p.wall_s for p in passes]
    digests = sorted({p.artifact_digest for p in passes})
    if len(digests) != 1:
        out["errors"].append(f"passes disagree on artifact bytes: {digests}")
    out["digest"] = ("artifact_digest", digests[0])
    out["setup_s"] = [s for p in passes for s in p.setup_s]
    out["attempted"] = sum(p.attempted for p in passes)
    out["failed"] = sum(p.failed for p in passes)
    for p in passes:
        out["errors"].extend(p.errors)
    out["peak_rss_mb"] = served.peak_rss_mb()


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def report(args, out: dict) -> dict:
    """Print the human-readable lines; return the final JSON object."""
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}")
    name, digest = out["digest"]
    print(f"{name} {digest}")
    attempted, failed = out["attempted"], out["failed"]
    print(f"error_rate {failed / attempted if attempted else 1.0!r} ratio "
          f"({failed} of {attempted} ops failed)")
    for line in out["errors"][:20]:
        print(f"  error: {line}")
    print(f"exact counts {json.dumps(out.get('exact', {}), sort_keys=True)}")
    setups = out["setup_s"]
    metrics = {}
    if args.trace:
        for key, unit in PER_LAYER:
            value = out.get("layers", {}).get(key, 0.0)
            metrics[key] = {"value": value, "unit": unit}
            print(f"{key:<36} {value!r} {unit}")
    else:
        notes = out.get("notes", {})
        print(f"passes {notes.get('passes')}  samples per pass "
              f"{notes.get('samples_per_pass')}  "
              f"tail = p{notes.get('tail_percentile')}  "
              f"set-ups {len(setups)}")
        print("pass walls (s) "
              + " ".join(f"{w:.3f}" for w in out["pass_walls"]))
        values = dict(out.get("values", {}), setup_s=stats.median(setups),
                      peak_rss_mb=out["peak_rss_mb"])
        values.update(out.get("extra", {}))
        for key, unit in END_TO_END + LINES_ONLY:
            if key not in values:
                continue
            value = values[key]
            alias = ALIASES[args.workload].get(key)
            label = f"{key} [{alias}]" if alias else key
            gated = (key, unit) in END_TO_END
            print(f"{label:<44} {value!r} {unit}"
                  + ("" if gated else "  (line only)"))
            if gated:
                metrics[key] = {"value": 0.0 if value is None else value,
                                "unit": unit}
    correct = not out["errors"] and not failed
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                         dir=ROOT / ".bench_work"))
    saved = os.environ.get("TMPDIR"), tempfile.tempdir
    os.environ["TMPDIR"] = tempfile.tempdir = str(work)
    out = {"errors": []}
    try:
        if args.workload == "serve-mixed":
            run_serve(args, out, work)
        else:
            run_sim(args, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if saved[0] is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved[0]
        tempfile.tempdir = saved[1]
    if "spans" in out:
        spans = ROOT / ".bench_work" / f"{args.workload}.spans.json"
        spans.write_text(json.dumps(out["spans"]))
        print(f"spans of the traced pass: {spans.relative_to(ROOT)}")
    result = report(args, out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
