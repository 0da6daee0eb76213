"""The command's contract outside a full checkout."""

import shutil
import subprocess
import sys

import run


def test_exits_2_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rma-flush",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "no program sources" in proc.stderr


def test_metric_lists_match_benchmark_json():
    import json

    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == \
        list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
