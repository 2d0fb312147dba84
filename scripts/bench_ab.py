#!/usr/bin/env python3
"""A/B-compare two checkouts on the perfbench benchmark and write a BENCH json.

For every workload in BENCHMARK.json this runs `perfbench/run.py --trace 0`
for BENCHMARK.json's `run_seconds` in the parent checkout (A) and the change
checkout (B) for 10 pairs, alternating which side goes first and giving pair
i the benchmark seed 300 + i, then one `--trace 1` run on each side. It
writes every run's metrics, each side's median and quartiles per end-to-end
metric, the number of pairs the change won, and the machine the runs were
made on.

Usage, from any directory:

    python3 scripts/bench_ab.py --parent ../dicelab-parent --change . --out BENCH_3.json

The two checkouts must carry the same benchmark (perfbench/ and
BENCHMARK.json); the script refuses to compare them otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SEED_BASE = 300


def _git(checkout: Path, *args: str) -> bytes:
    result = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True)
    return result.stdout if result.returncode == 0 else b""


def describe(checkout: Path) -> dict:
    """Commit of a checkout ('' outside git) and the sha256 of its uncommitted diff.

    An uncommitted change side names its parent's commit, so only
    `diff_sha256`, the digest of `git diff HEAD --binary` (null when the
    tracked files are clean), tells the two sides apart.
    """
    diff = _git(checkout, "diff", "HEAD", "--binary")
    return {
        "commit": _git(checkout, "rev-parse", "HEAD").decode().strip(),
        "dirty": bool(diff),
        "diff_sha256": hashlib.sha256(diff).hexdigest() if diff else None,
    }


def benchmark_digest(checkout: Path) -> str:
    h = hashlib.sha256((checkout / "BENCHMARK.json").read_bytes())
    for path in sorted((checkout / "perfbench").glob("*.py")) + [checkout / "perfbench" / "references.json"]:
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} in {checkout} exited with {proc.returncode}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "seed": seed,
        "trace": trace,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "passes": detail["passes"],
        "machine": detail["machine"],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: both sides' quartiles, wins of the change, relative shifts."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = [p["parent"]["metrics"][name] for p in pairs]
        b = [p["change"]["metrics"][name] for p in pairs]
        qa, qb = quartiles(a), quartiles(b)
        wins = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        out[name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": qa,
            "change": qb,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_frac": qb["median"] / qa["median"] - 1.0 if qa["median"] else None,
            "parent_iqr_frac": (qa["q3"] - qa["q1"]) / qa["median"] if qa["median"] else None,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit (A)")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change (B)")
    parser.add_argument("--out", type=Path, required=True, help="BENCH json to write")
    args = parser.parse_args(argv)

    parent, change = args.parent.resolve(), args.change.resolve()
    if benchmark_digest(parent) != benchmark_digest(change):
        sys.stderr.write("bench_ab: the two checkouts carry different benchmarks\n")
        return 2
    spec = json.loads((change / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    sides = {"parent": parent, "change": change}

    report = {
        "host": {"platform": platform.platform(), "python": platform.python_version()},
        "parent": describe(parent),
        "change": describe(change),
        "settings": {"pairs": PAIRS, "seconds": seconds, "seed_base": SEED_BASE},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_once(sides[side], workload, SEED_BASE + i, seconds, 0)
                print(f"{workload} pair {i} {side}: {pair[side]['metrics']}", file=sys.stderr, flush=True)
            pairs.append(pair)
        traced = {side: run_once(sides[side], workload, SEED_BASE, seconds, 1) for side in ("change", "parent")}
        report["machine"] = pairs[0]["parent"]["machine"]
        report["workloads"][workload] = {
            "all_correct": all(p[s]["correct"] for p in pairs for s in sides) and all(t["correct"] for t in traced.values()),
            "summary": summarize(pairs, spec["end_to_end"]),
            "pairs": pairs,
            "traced": traced,
        }
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
