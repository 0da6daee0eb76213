"""The ``serve-mixed`` workload: the HTTP experiment service under a
closed-loop request mix.

The service runs in its own process (``repro serve --jobs 2 --workers 1``
through :mod:`benchlib.serve_proc`), so one job at a time fans out over
two engine processes.  Two client threads in this process drive it
through ``repro.serve.ServeClient``; each sends its next request when the
previous one has been answered.  One pass is:

1. **cold** -- one POST per exhibit of :data:`EXHIBITS` (201), each
   followed until the job is ``done``;
2. **reads** -- :data:`HITS_PER_EXHIBIT` identical POSTs per exhibit
   (dedup hits, 200), every artifact fetched (200) and re-fetched with
   ``If-None-Match`` (304), and one SSE replay of each job's events, in an
   order set by the workload seed;
3. **restart** -- the server is stopped and started over the same root;
4. **cached** -- the cold POSTs again: new jobs whose every trial is a
   trial-cache hit, whose artifacts must be byte-identical to phase 1's.

Writes (compute plus cache, telemetry and artifact writes) sit beside
reads (dedup hits, cached jobs, 304s), so a change that speeds one side
at the other's cost shows.  Each pass uses a fresh service root.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pathlib
import random
import resource
import signal
import socket
import subprocess
import sys
import threading
import time

from benchlib import CheckFailed, stats

#: quick exhibits served: about 0 s, 1 s and 0.7 s cold on two cores
EXHIBITS = ("table1", "chaos", "ext-modes")
HITS_PER_EXHIBIT = 100
CLIENTS = 2
ENGINE_JOBS = 2
SERVE_PROC = pathlib.Path(__file__).resolve().with_name("serve_proc.py")
START_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 60.0


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerProcess:
    """One ``repro serve`` process over ``root`` (optionally traced)."""

    def __init__(self, src: pathlib.Path, root: pathlib.Path,
                 log: pathlib.Path, trace_out: pathlib.Path | None = None):
        self.src = src
        self.root = root
        self.log = log
        self.trace_out = trace_out
        #: one span dump per server incarnation (traced servers only)
        self.trace_files: list[pathlib.Path] = []
        self.port = _free_port()
        self.url = f"http://127.0.0.1:{self.port}"
        self.proc: subprocess.Popen | None = None

    def start(self) -> float:
        """Start the server; returns the seconds until ``/healthz`` is 200."""
        from repro.serve import ServeClient

        cmd = [sys.executable, str(SERVE_PROC), "--src", str(self.src)]
        if self.trace_out is not None:
            path = self.trace_out.with_name(
                f"{self.trace_out.stem}-{len(self.trace_files)}.json")
            self.trace_files.append(path)
            cmd += ["--trace-out", str(path)]
        cmd += ["--", "serve", "--root", str(self.root),
                "--port", str(self.port), "--jobs", str(ENGINE_JOBS),
                "--workers", "1"]
        env = dict(os.environ, TMPDIR=str(self.root.parent))
        client = ServeClient(self.url, timeout_s=5.0)
        start = time.perf_counter()
        with open(self.log, "ab") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=log,
                                         env=env, cwd=self.root.parent)
        while True:
            try:
                if client.healthz().status == 200:
                    return time.perf_counter() - start
            except OSError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode}"
                                   f" before serving; see {self.log}")
            if time.perf_counter() - start > START_TIMEOUT_S:
                raise RuntimeError("server did not answer /healthz")
            time.sleep(0.005)

    def stop(self) -> None:
        """Interrupt the server (orderly shutdown) and wait for it."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise RuntimeError("server did not stop on SIGINT")
        if proc.returncode != 0:
            raise RuntimeError(f"server exited with {proc.returncode}")


# ----------------------------------------------------------------------
# one pass
# ----------------------------------------------------------------------
@dataclasses.dataclass
class PassResult:
    """Latency samples, accounting and checks of one pass."""

    wall_s: float = 0.0      #: cold + reads + cached phases
    timed_ops: int = 0       #: ops of those phases
    setup_s: list = dataclasses.field(default_factory=list)
    samples: dict = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    artifact_digest: str = ""
    jobs: list = dataclasses.field(default_factory=list)   #: status docs
    manifests: list = dataclasses.field(default_factory=list)
    stats: dict = dataclasses.field(default_factory=dict)  #: first /stats
    trace_files: list = dataclasses.field(default_factory=list)

    def add(self, kind: str, seconds: float) -> None:
        self.samples.setdefault(kind, []).append(seconds)


class _Pass:
    """Client-side state shared by the two client threads of one pass."""

    def __init__(self, result: PassResult):
        self.result = result
        self.lock = threading.Lock()
        self.ids: dict[str, str] = {}
        self.bodies: dict[tuple[str, str], bytes] = {}
        self.posts = 0
        self.hits = 0

    def run_phase(self, client, ops) -> None:
        """Run ``ops`` over :data:`CLIENTS` closed-loop client threads."""
        pending = list(reversed(ops))

        def loop():
            while True:
                with self.lock:
                    if not pending:
                        return
                    op = pending.pop()
                self.run_op(client, op)

        threads = [threading.Thread(target=loop, name=f"client-{n}")
                   for n in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def run_op(self, client, op) -> None:
        """Run one op; an exception or failed check counts it failed."""
        with self.lock:
            self.result.attempted += 1
        try:
            getattr(self, "op_" + op[0])(client, *op[1:])
        except Exception as exc:  # an op failure, not a benchmark crash
            with self.lock:
                self.result.failed += 1
                self.result.errors.append(
                    f"{op}: {type(exc).__name__}: {exc}")

    def _expect(self, response, status: int, what: str) -> None:
        if response.status != status:
            raise CheckFailed(f"{what}: HTTP {response.status}, expected "
                              f"{status}: {response.body[:200]!r}")

    def _post(self, client, exhibit: str, status: int):
        response = client.submit(exhibit)
        with self.lock:
            self.posts += 1
            if status == 200:
                self.hits += 1
        self._expect(response, status, f"POST {exhibit}")
        return response.json()["id"]

    # -- ops ---------------------------------------------------------------
    def op_cold(self, client, exhibit: str, kind: str = "cold") -> None:
        start = time.perf_counter()
        job_id = self._post(client, exhibit, 201)
        doc = client.wait(job_id, timeout_s=120.0, poll_s=0.01)
        elapsed = time.perf_counter() - start
        if doc["state"] != "done":
            raise CheckFailed(f"{exhibit} job {doc['state']}: {doc['error']}")
        counters = doc["counters"]
        if kind == "cached" and (counters["cache_hits"] != counters["trials"]
                                 or counters["cache_misses"]):
            raise CheckFailed(f"{exhibit} after restart: {counters}")
        with self.lock:
            self.ids[exhibit] = job_id
            self.result.jobs.append(doc)
            self.result.add(kind, elapsed)

    def op_cached(self, client, exhibit: str) -> None:
        self.op_cold(client, exhibit, kind="cached")

    def op_hit(self, client, exhibit: str) -> None:
        start = time.perf_counter()
        self._post(client, exhibit, 200)
        elapsed = time.perf_counter() - start
        with self.lock:
            self.result.add("hit", elapsed)

    def op_artifact(self, client, exhibit: str, name: str) -> None:
        job_id = self.ids[exhibit]
        start = time.perf_counter()
        first = client.artifact(job_id, name)
        mid = time.perf_counter()
        self._expect(first, 200, f"GET {exhibit}/{name}")
        again = client.artifact(job_id, name, etag=first.etag)
        end = time.perf_counter()
        self._expect(again, 304, f"GET {exhibit}/{name} If-None-Match")
        with self.lock:
            self.bodies[(exhibit, name)] = first.body
            self.result.add("artifact", mid - start)
            self.result.add("artifact", end - mid)

    def op_sse(self, client, exhibit: str) -> None:
        frames = list(client.events(self.ids[exhibit], timeout_s=60.0))
        kinds = [data.get("kind") for event, _, data in frames
                 if event == "message"]
        if not kinds or kinds[0] != "sweep.start" \
                or kinds[-1] != "sweep.finish" \
                or frames[-1][0] != "end" or frames[-1][2] != {"state": "done"}:
            raise CheckFailed(f"{exhibit} SSE replay malformed: {kinds[:3]}"
                              f"...{kinds[-2:]} then {frames[-1][:1]}")

    def op_same_bytes(self, client, exhibit: str, name: str) -> None:
        response = client.artifact(self.ids[exhibit], name)
        self._expect(response, 200, f"GET {exhibit}/{name} after restart")
        if response.body != self.bodies[(exhibit, name)]:
            raise CheckFailed(f"{exhibit}/{name} differs after restart")

    def op_served(self, client, exhibit: str) -> None:
        """The job manifest's ``served`` block matches this client's count
        of requests made up to the job's completion: one cold POST."""
        response = client.artifact(self.ids[exhibit], "manifest.json")
        self._expect(response, 200, f"GET {exhibit}/manifest.json")
        manifest = response.json()
        want = {"requests": 1, "dedup_hits": 0, "cold_runs": 1}
        if manifest.get("served") != want:
            raise CheckFailed(f"{exhibit} served block {manifest.get('served')}"
                              f", expected {want}")
        with self.lock:
            self.result.manifests.append(manifest)

    def op_stats(self, client, cold_runs: int) -> None:
        """``/stats`` matches this client's own request accounting."""
        doc = client.stats()
        want = {"requests": self.posts, "dedup_hits": self.hits,
                "cold_runs": cold_runs, "rejected": 0}
        got = {k: doc.get(k) for k in want}
        if got != want:
            raise CheckFailed(f"/stats {got}, client counted {want}")
        with self.lock:
            if not self.result.stats:
                self.result.stats = doc


def reads_list(rng: random.Random, names: dict) -> list:
    """The seeded read-phase op list (hits, artifact pairs, SSE replays)."""
    ops = [("hit", ex) for ex in EXHIBITS for _ in range(HITS_PER_EXHIBIT)]
    ops += [("artifact", ex, name) for ex in EXHIBITS for name in names[ex]]
    ops += [("sse", ex) for ex in EXHIBITS]
    rng.shuffle(ops)
    return ops


def run_pass(src: pathlib.Path, work: pathlib.Path, seed: int, index: int,
             trace_out: pathlib.Path | None = None) -> PassResult:
    """One full pass (cold, reads, restart, cached) over a fresh root."""
    from repro.serve import ServeClient

    rng = random.Random(seed)
    root = work / f"serve-{index}"
    result = PassResult()
    state = _Pass(result)
    server = ServerProcess(src, root, work / f"serve-{index}.log", trace_out)
    cold = [("cold", ex) for ex in EXHIBITS]
    rng.shuffle(cold)
    try:
        result.setup_s.append(server.start())
        client = ServeClient(server.url, timeout_s=60.0)
        t0 = time.perf_counter()
        state.run_phase(client, cold)
        cold_s = time.perf_counter() - t0
        if result.failed:
            return result
        names = {ex: [n for n in client.artifact(state.ids[ex]).json()
                      ["artifacts"] if n != "manifest.json"]
                 for ex in EXHIBITS}
        state.run_phase(client, [("served", ex) for ex in EXHIBITS])
        reads = reads_list(rng, names)
        t0 = time.perf_counter()
        state.run_phase(client, reads)
        reads_s = time.perf_counter() - t0
        state.run_op(client, ("stats", len(EXHIBITS)))

        server.stop()
        result.setup_s.append(server.start())
        state.posts = state.hits = 0
        cached = [("cached", ex) for ex in EXHIBITS]
        rng.shuffle(cached)
        t0 = time.perf_counter()
        state.run_phase(client, cached)
        cached_s = time.perf_counter() - t0
        state.run_phase(client, [("same_bytes", ex, name) for ex in EXHIBITS
                                 for name in names[ex]])
        state.run_op(client, ("stats", len(EXHIBITS)))
        state.run_phase(client, [("served", ex) for ex in EXHIBITS])
        result.wall_s = cold_s + reads_s + cached_s
        result.timed_ops = len(cold) + len(reads) + len(cached)
        digest = hashlib.sha256()
        for key in sorted(state.bodies):
            digest.update(repr(key).encode() + state.bodies[key])
        result.artifact_digest = digest.hexdigest()[:16]
    finally:
        server.stop()
        result.trace_files = server.trace_files
    return result


def peak_rss_mb() -> float:
    """Peak RSS of the largest reaped server or engine-worker process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def end_to_end(passes: list[PassResult]) -> tuple[dict, dict, dict]:
    """End-to-end values over a run's passes, the per-request-kind medians
    the JSON does not carry, and notes on sample counts.

    ``wall_s`` is the median over passes; ``ops_per_s`` (ops of the timed
    phases per second of them) and the latencies pool every pass.
    """
    def pooled(kind):
        return [v for p in passes for v in p.samples.get(kind, [])]

    def p50(kind):
        return stats.median(pooled(kind)) if pooled(kind) else None

    tail = stats.pooled_tail([p.samples.get("hit", []) for p in passes])
    values = {
        "wall_s": stats.median([p.wall_s for p in passes]),
        "ops_per_s": sum(p.timed_ops for p in passes)
        / sum(p.wall_s for p in passes) if any(p.wall_s for p in passes)
        else None,
        "op_s.p50": p50("hit"),
        "op_s.tail": tail[1] if tail else None,
    }
    extra = {
        "cold_s.p50": p50("cold"),
        "cached_s.p50": p50("cached"),
        "artifact_s.p50": p50("artifact"),
    }
    notes = {
        "passes": len(passes),
        "samples_per_pass": len(passes[0].samples.get("hit", [])),
        "tail_percentile": tail[0] if tail else None,
    }
    return values, extra, notes
