"""Checks on the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import PER_LAYER  # noqa: E402
from workloads import WORKLOADS, Op, Workload  # noqa: E402


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [m for m, _ in PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    metrics, attempted, failures, _ = run.measure(WORKLOADS["cli_batch"], seed=3, seconds=0)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert attempted > 0 and not failures


def test_wrong_or_raising_ops_fail_without_stopping_the_cycle():
    def boom():
        raise ZeroDivisionError("x")

    ops = [Op("right", lambda: True, lambda o: o is True),
           Op("wrong", lambda: False, lambda o: o is True),
           Op("raises", boom, lambda o: True),
           Op("after", lambda: True, lambda o: o is True)]
    seen = []
    run.run_cycle(Workload(), ops, lambda op, s, outcome, ok: seen.append((op.label, ok)))
    assert seen == [("right", True), ("wrong", False), ("raises", False), ("after", True)]


def test_dropped_set_up_puts_the_run_import_back():
    _, (lib, _, _) = run.timed_set_up(WORKLOADS["cli_batch"], seed=3, keep=True)
    before = run.library_modules()
    elapsed, state = run.timed_set_up(WORKLOADS["cli_batch"], seed=3, keep=False)
    assert elapsed > 0 and state is None
    after = run.library_modules()
    assert after.keys() == before.keys() and all(after[n] is before[n] for n in before)
    assert after["courantalg.cli"] is lib.cli


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_changes_no_outcome(name):
    cls = WORKLOADS[name]
    _, _, _, plain = run.trace_pass(cls, seed=7, cycles=1, traced=False)
    _, _, tracer, traced = run.trace_pass(cls, seed=7, cycles=1, traced=True)
    assert plain == traced
    assert all(ok for _, _, ok in traced)
    assert tracer.spans


def _traced_counts(workload: str, hashseed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}


@pytest.mark.parametrize("name", ["jacobi", "cli_batch"])
def test_layer_counts_repeat_across_runs_and_hash_seeds(name):
    first = _traced_counts(name, "0")
    assert any(first.values())
    assert _traced_counts(name, "1") == first
    assert _traced_counts(name, "0") == first


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jacobi", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
