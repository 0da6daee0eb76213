"""Tiny-size smoke of the serve-mixed workload."""

import pathlib

import pytest

import run
from benchlib import served

SRC = pathlib.Path(run.SRC)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(served, "EXHIBITS", ("table1", "ext-modes"))
    monkeypatch.setattr(served, "HITS_PER_EXHIBIT", 6)


def test_smoke_pass(tiny, tmp_path):
    result = served.run_pass(SRC, tmp_path, seed=2, index=0)
    assert result.errors == [] and result.failed == 0
    assert len(result.samples["hit"]) == 12
    assert len(result.samples["cold"]) == len(result.samples["cached"]) == 2
    assert result.stats["dedup_hits"] == 12
    assert len(result.setup_s) == 2 and result.artifact_digest
    assert all(job["state"] == "done" for job in result.jobs)


def test_traced_pass_writes_one_dump_per_server(tiny, tmp_path):
    result = served.run_pass(SRC, tmp_path, seed=2, index=0,
                             trace_out=tmp_path / "trace.json")
    assert result.failed == 0
    assert len(result.trace_files) == 2
    dump = run.merge_dumps(result.trace_files)
    layers = run.serve_layers(result, dump)
    assert {k for k, _ in run.SERVE_LAYER_METRICS} == set(layers)
    assert layers["serve.dedup_hit_ratio"] == 12 / 14
    assert layers["engine.cache_hit_ratio"] == 0.5
    assert layers["engine.run_tasks_s"] > 0


def test_rejected_request_counts_as_failed(tmp_path):
    from repro.serve import ServeClient

    server = served.ServerProcess(SRC, tmp_path / "root", tmp_path / "log")
    state = served._Pass(served.PassResult())
    try:
        server.start()
        state.run_op(ServeClient(server.url), ("cold", "no-such-exhibit"))
    finally:
        server.stop()
    assert state.result.attempted == 1 and state.result.failed == 1
    assert "HTTP 404" in state.result.errors[0]
