"""Self-tests of the benchmark. Run from the checkout root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_benchmark_json_names_the_workloads_it_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_matches_references_and_reports_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_writes_the_same_bytes_as_an_untraced_one(workload, tmp_path):
    wl = WORKLOADS[workload](True)
    wl.prepare(tmp_path)
    entries = list(range(wl.entries_per_pass))
    plain = wl.run_pass(entries, tmp_path, None)
    rec = tracer.Recorder()
    patches = tracer.install(rec)
    try:
        traced = wl.run_pass(entries, tmp_path, rec)
    finally:
        patches.restore()
    assert traced.outputs == plain.outputs
    assert all(REFERENCES["tiny"][workload][k] == v for k, v in plain.outputs.items())
    assert rec.summary(), "the traced pass recorded no spans"


def test_child_peak_rss_is_its_own_not_the_benchmarks(tmp_path):
    from workloads import _Spawner

    big = [sys.executable, "-c", "b = bytearray(64 << 20); b[::4096] = b'x' * len(b[::4096])"]
    small = [sys.executable, "-c", "pass"]
    ballast = bytearray(96 << 20)  # this process's peak must not show in a child's
    ballast[::4096] = b"x" * len(ballast[::4096])
    with _Spawner() as spawner:
        code_big, big_kb = spawner.run(big, dict(os.environ), tmp_path / "big.txt")
        code_small, small_kb = spawner.run(small, dict(os.environ), tmp_path / "small.txt")
    del ballast
    assert code_big == code_small == 0
    assert big_kb > 64 * 1024
    assert small_kb < 48 * 1024


def test_self_time_subtracts_direct_children_and_busy_skips_same_layer_parents():
    rec = tracer.Recorder()
    rec.names = ["experiments.csv.write", "experiments.csv.format", "trainer.train", "trainer.step.linear"]
    rec._name_ids = {n: i for i, n in enumerate(rec.names)}
    # write [0, 10] contains format [2, 5]; train [20, 30] contains step [21, 24].
    for nid, start, end, parent in [(0, 0, 10, -1), (1, 2, 5, 0), (2, 20, 30, -1), (3, 21, 24, 2)]:
        rec.name_id.append(nid)
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
    s = rec.summary()
    assert s["experiments.csv.write"]["self_s"] == 7.0
    assert s["experiments.csv.format"]["busy_s"] == 0.0
    assert s["experiments.csv.write"]["busy_s"] == 10.0
    assert s["trainer.step.linear"]["busy_s"] == 3.0
    assert s["trainer.train"]["self_s"] == 7.0


def test_saved_trace_loads_back_identically(tmp_path):
    rec = tracer.Recorder()
    outer = rec.begin("trainer.train")
    rec.finish(rec.begin("rng.permutation"))
    rec.finish(outer)
    rec.counters["data.generate.rows"] += 5
    rec.keys["rng.permutation"].add("1,2")
    rec.save(tmp_path / "t.npz")
    back = tracer.Recorder.load(tmp_path / "t.npz")
    assert back.summary() == rec.summary()
    assert back.counters == rec.counters and back.keys == rec.keys


def test_run_without_the_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "imbalance_sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
