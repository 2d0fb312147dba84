"""dicelab benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload runs in passes until S seconds have passed (at least its fixed
number of latency passes, two with --trace 1). Every pass's output bytes are
hashed and compared with `references.json`, recorded at the seed commit; a
mismatch or an exception fails the pass's items. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 passes alternate
untraced and traced and the metrics are the per-layer ones from the traced
passes (see tracer.py). The line before it carries the machine, the item
counts and the output hashes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7


def machine() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
    }


def setup_seconds(payload: dict) -> list[float]:
    """Spawn-to-ready times of fresh set-up probes that build the config `payload`."""
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), json.dumps(payload)],
            stdout=subprocess.PIPE,
        ) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten items beyond it, and that percentile."""
    ordered = sorted(values)
    n = len(ordered)
    i = max(0, n - 11)
    return ordered[i], 100.0 * (i + 1) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for self-tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "dicelab" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no dicelab sources under {src}; run from a checkout root\n")
        return 2
    sys.path.insert(0, str(src))
    import_start = time.perf_counter()
    import dicelab.cli

    import_s = time.perf_counter() - import_start
    if Path(dicelab.__file__).resolve().parent != (src / "dicelab").resolve():
        sys.stderr.write(f"perfbench: imported dicelab from {dicelab.__file__}, not {src}\n")
        return 2

    import tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    with open(HERE / "references.json", encoding="utf-8") as fh:
        references = json.load(fh)[args.size][args.workload]
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    # One CPU for this process and its children: on a shared 2-core machine
    # this made run medians steadier than letting the scheduler move them.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    wl = WORKLOADS[args.workload](args.size == "tiny")
    host = machine()
    setup = setup_seconds(wl.payload())

    out_dir = root / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    rec = tracer.Recorder()
    passes = []  # (traced, Pass or None)
    try:
        wl.prepare(out_dir)
        order = random.Random(args.seed).sample(range(wl.pool_size), wl.pool_size)
        per = wl.entries_per_pass
        # A pass starts only if one like the last of its kind can end by the
        # deadline, so a run measures for at most --seconds after its first
        # passes: the workload's latency passes, or two with --trace 1.
        min_passes = 2 if args.trace else wl.latency_passes
        deadline = time.perf_counter() + args.seconds
        last = {}
        k = 0
        while True:
            traced = bool(args.trace) and k % 2 == 1
            if k >= min_passes and time.perf_counter() + last.get(traced, 0.0) > deadline:
                break
            started = time.perf_counter()
            entries = [order[(k * per + i) % wl.pool_size] for i in range(per)]
            patches = tracer.install(rec) if traced else None
            try:
                result = wl.run_pass(entries, out_dir, rec if traced else None)
            except Exception:
                traceback.print_exc()
                result = None
            finally:
                if patches is not None:
                    patches.restore()
            passes.append((traced, result))
            last[traced] = time.perf_counter() - started
            k += 1
        if args.trace:
            rec.save(root / ".perfbench_out" / f"trace-{args.workload}.npz")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    attempted = failed = 0
    hashes = {}
    for _, p in passes:
        attempted += wl.items_per_pass()
        if p is None:
            failed += wl.items_per_pass()
            continue
        hashes.update(p.outputs)
        failed += sum(1 for it in p.items if p.outputs.get(it.ref_key) != references.get(it.ref_key))
        failed += wl.items_per_pass() - len(p.items)

    done = [p for _, p in passes if p is not None]
    untraced = [p for t, p in passes if p is not None and not t]
    traced = [p for t, p in passes if p is not None and t]
    # Item latencies come from a fixed number of passes, so the item that
    # the tail percentile picks does not shift when more passes fit.
    latencies = [it.latency_s for p in untraced[: wl.latency_passes] for it in p.items]
    tail_s, tail_pct = tail(latencies) if latencies else (0.0, 0.0)
    if args.trace:
        values = tracer.layer_metrics(rec, max(1, len(traced)))
        child_imports = rec.samples.get("cli.import_s")
        values["cli.import_s"] = statistics.median(child_imports) if child_imports else import_s
        values["trace.overhead_frac"] = (
            statistics.median(p.wall_s for p in traced) / statistics.median(p.wall_s for p in untraced) - 1.0
            if traced and untraced
            else 0.0
        )
    else:
        # The CLI workload's program runs in child processes; the others in this one.
        child_kb = max((p.child_maxrss_kb for p in untraced), default=0)
        maxrss_kb = child_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p.wall_s for p in untraced) if untraced else 0.0,
            "item_p50_s": statistics.median(latencies) if latencies else 0.0,
            "item_tail_s": tail_s,
            "examples_per_s": statistics.median(p.examples / p.wall_s for p in untraced) if untraced else 0.0,
            "peak_rss_mb": maxrss_kb / 1024.0,
        }
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "machine": host,
        "passes": len(done),
        "traced_passes": len(traced),
        "items": len(latencies),
        "latency_passes": min(len(untraced), wl.latency_passes),
        "pass_wall_s": [p.wall_s for p in untraced],
        "item_tail_percentile": tail_pct,
        "setup_s": setup,
        "outputs": hashes,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
