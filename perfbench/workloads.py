"""The benchmark's four workloads.

Each workload runs in passes. A pass is one complete use of the program (a
sweep written to CSV, a few `dicelab run` processes, or one data pipeline)
and consumes entries of a fixed pool of inputs. The benchmark seed only
orders the pool, so every output a pass can produce has a reference hash
recorded in `references.json` at the seed commit, whatever the seed.
Item latencies come from each run's first `latency_passes` passes, a count
fixed per workload: a little under the passes that fit in a 25-second run on
the 2-core machine the benchmark was built on. BENCHMARK.json says why each
workload exists and which layers it should and should not move.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

from dicelab import cli, data, experiments
from dicelab.losses import LossKind

from tracer import Patches, Recorder

HERE = Path(__file__).resolve().parent

@dataclass
class Item:
    latency_s: float
    ref_key: str


@dataclass
class Pass:
    wall_s: float
    examples: int
    items: list[Item]
    outputs: dict[str, str]  # ref_key -> sha256 of the output bytes
    child_maxrss_kb: int = 0  # largest resident set of a program child process


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def sha256_batch(batch: data.LabeledBatch) -> str:
    h = hashlib.sha256(batch.features.astype("<f8").tobytes())
    h.update(batch.labels.astype("<i8").tobytes())
    return h.hexdigest()


class _ReplicateTimer:
    """Times each replicate run (train plus evaluate) inside a sweep.

    Two calls per replicate go through this hook, so it runs in the untraced
    passes too; it also counts training examples (rows x epochs).
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.examples = 0
        self._started = 0.0

    def install(self) -> Patches:
        p = Patches()

        def train_hook(fn):
            def wrapper(batch, loss_spec, model_spec, train_spec):
                self.examples += batch.n * train_spec.epochs
                self._started = time.perf_counter()
                return fn(batch, loss_spec, model_spec, train_spec)

            return wrapper

        def evaluate_hook(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.latencies.append(time.perf_counter() - self._started)
                return result

            return wrapper

        p.wrap(experiments, "train", train_hook)
        p.wrap(experiments, "evaluate", evaluate_hook)
        return p


class _Sweep:
    """Shared pass logic of the two sweep workloads: one replicate seed per pass.

    Short passes give each run many of them to take the median of: on a
    shared 2-core machine, pass times drift by about 10% from pass to pass.
    """

    entries_per_pass = 1
    runs: int  # replicate runs in one pass

    def prepare(self, out_dir: Path) -> None:
        self.base = experiments.config_from_dict(self.payload())

    def run_pass(self, entries, out_dir: Path, rec: Recorder | None) -> Pass:
        (entry,) = entries
        config = replace(self.base, replicate_seeds=(entry + 1,))
        out = out_dir / f"{self.name}-{entry}.csv"
        timer = _ReplicateTimer()
        hooks = timer.install()
        try:
            start = time.perf_counter()
            experiments.write_csv(self.sweep(config), out)
            wall = time.perf_counter() - start
        finally:
            hooks.restore()
        key = f"seed={entry + 1}"
        items = [Item(t, key) for t in timer.latencies]
        return Pass(wall, timer.examples, items, {key: sha256_file(out)})

    def items_per_pass(self) -> int:
        return self.runs


class ImbalanceSweep(_Sweep):
    name = "imbalance_sweep"
    losses = (LossKind.CE, LossKind.DSC_SELFADJ)
    ratios = (1.0, 10.0, 100.0)
    runs = 6

    def __init__(self, tiny: bool):
        self.n_positive = 20 if tiny else 200
        self.epochs = 2 if tiny else 20
        self.pool_size = 3 if tiny else 40
        self.latency_passes = 1 if tiny else 14

    def payload(self) -> dict:
        return {
            "data": {"n_positive": self.n_positive, "ratio": 10.0, "easy_negative_fraction": 0.95},
            "loss": {"kind": "CE"},
            "train": {"epochs": self.epochs},
        }

    def sweep(self, config):
        return experiments.sweep(config, list(self.losses), list(self.ratios))


class TverskySweep(_Sweep):
    name = "tversky_sweep"
    alphas = tuple(round(0.1 * i, 1) for i in range(1, 10))
    runs = 9

    def __init__(self, tiny: bool):
        self.n_positive = 20 if tiny else 200
        self.epochs = 2 if tiny else 15
        self.pool_size = 3 if tiny else 24
        self.latency_passes = 1 if tiny else 7

    def payload(self) -> dict:
        return {
            "data": {"n_positive": self.n_positive, "ratio": 50.0},
            "loss": {"kind": "TL", "gamma": 1.0},
            "train": {"epochs": self.epochs},
        }

    def sweep(self, config):
        return experiments.sweep_tversky(config, list(self.alphas))


class _Spawner:
    """Client of spawner.py, which starts children so that each child's
    ru_maxrss is its own and not this process's peak."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        return self

    def run(self, argv, env: dict, stderr_path: Path, timeout_s: int = 150) -> tuple[int, int]:
        """Run one child to its end; return its exit code and ru_maxrss (KiB)."""
        cmd = {"argv": argv, "env": env, "stderr": str(stderr_path), "timeout_s": timeout_s}
        self.proc.stdin.write(json.dumps(cmd) + "\n")
        self.proc.stdin.flush()
        code, maxrss = self.proc.stdout.readline().split()
        return int(code), int(maxrss)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()


class MlpCliRun:
    """Sequential `python -m dicelab run` processes, one replicate seed each.

    An item is one whole process, so its latency includes interpreter start,
    imports and config parsing as a user of the CLI pays them.
    """

    name = "mlp_cli_run"

    def __init__(self, tiny: bool):
        self.n_positive = 20 if tiny else 200
        self.epochs = 2 if tiny else 30
        self.entries_per_pass = 2 if tiny else 3
        self.pool_size = 4 if tiny else 72
        self.latency_passes = 1 if tiny else 13

    def payload(self, entry: int = 0) -> dict:
        return {
            "data": {"n_positive": self.n_positive, "ratio": 10.0},
            "loss": {"kind": "DL_set"},
            "transform": {"kind": "add_both"},
            "model": {"arch": "mlp", "hidden_units": 16},
            "train": {"epochs": self.epochs},
            "replicate_seeds": [entry + 1],
        }

    def prepare(self, out_dir: Path) -> None:
        for entry in range(self.pool_size):
            path = out_dir / f"config-{entry}.json"
            path.write_text(json.dumps(self.payload(entry)), encoding="utf-8")
        # Training rows do not depend on the seed: measure them once here.
        cfg = experiments.config_from_dict(self.payload())
        batch = data.generate(cfg.data)
        grown = data.transform(batch, cfg.transform.kind, growth_factor=cfg.transform.growth_factor)
        self.examples_per_run = grown.n * self.epochs
        self.env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))

    def items_per_pass(self) -> int:
        return self.entries_per_pass

    def run_pass(self, entries, out_dir: Path, rec: Recorder | None) -> Pass:
        items, outs, traces = [], [], []
        maxrss = 0
        with _Spawner() as spawner:
            start = time.perf_counter()
            for entry in entries:
                cfg = out_dir / f"config-{entry}.json"
                out = out_dir / f"{self.name}-{entry}.csv"
                if out.exists():
                    out.unlink()
                argv = ["run", "--config", str(cfg), "--out", str(out)]
                if rec is None:
                    cmd = [sys.executable, "-m", "dicelab", *argv]
                else:
                    trace_out = out_dir / f"child-trace-{entry}.npz"
                    traces.append(trace_out)
                    cmd = [sys.executable, str(HERE / "cli_child.py"), str(trace_out), *argv]
                err = out_dir / f"stderr-{entry}.txt"
                t = time.perf_counter()
                code, child_kb = spawner.run(cmd, self.env, err)
                items.append(Item(time.perf_counter() - t, f"seed={entry + 1}"))
                maxrss = max(maxrss, child_kb)
                if code != 0:
                    sys.stderr.write(err.read_text(errors="replace"))
                outs.append(out if code == 0 else None)
            wall = time.perf_counter() - start
        for path in traces:
            rec.merge(Recorder.load(path))
        outputs = {it.ref_key: sha256_file(o) if o is not None else "" for it, o in zip(items, outs)}
        return Pass(wall, self.examples_per_run * len(entries), items, outputs, maxrss)


class DataOracles:
    """gen-data, load_csv, every transform kind and gradcheck; no training."""

    name = "data_oracles"
    entries_per_pass = 1
    ratio = 100.0
    # (kind, target_fraction_positive, growth_factor); targets are reachable
    # from a ratio-100 batch, so no transform is infeasible.
    transforms = (
        (data.TransformKind.ORIGINAL, 0.5, 1.5),
        (data.TransformKind.ADD_POSITIVE, 0.2, 1.5),
        (data.TransformKind.ADD_NEGATIVE, 0.008, 1.5),
        (data.TransformKind.DOWNSAMPLE_NEGATIVE, 0.5, 1.5),
        (data.TransformKind.ADD_BOTH, 0.5, 1.5),
    )

    def __init__(self, tiny: bool):
        self.n_positive = 20 if tiny else 1000
        self.samples = 10 if tiny else 3000
        self.pool_size = 3 if tiny else 24
        self.latency_passes = 1 if tiny else 6

    def payload(self) -> dict:
        # Only the data section is used; config_from_dict requires a loss.
        return {"data": {"n_positive": self.n_positive, "ratio": self.ratio}, "loss": {"kind": "CE"}}

    def prepare(self, out_dir: Path) -> None:
        self.spec = experiments.config_from_dict(self.payload()).data

    def items_per_pass(self) -> int:
        return 3 + len(self.transforms)

    def _cli(self, argv) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"dicelab {argv[0]} exited with {code}")

    def run_pass(self, entries, out_dir: Path, rec: Recorder | None) -> Pass:
        (entry,) = entries
        csv_path = out_dir / f"data-{entry}.csv"
        report_path = out_dir / f"gradcheck-{entry}.json"
        timings, results = [], []
        start = time.perf_counter()
        t = time.perf_counter()
        self._cli(
            [
                "gen-data",
                "--n-positive", str(self.n_positive),
                "--ratio", str(self.ratio),
                "--seed", str(entry + 1),
                "--out", str(csv_path),
            ]
        )
        timings.append(("gen-data", time.perf_counter() - t))
        t = time.perf_counter()
        batch = data.load_csv(csv_path)
        timings.append(("load_csv", time.perf_counter() - t))
        results.append(("load_csv", batch))
        for i, (kind, target, growth) in enumerate(self.transforms):
            t = time.perf_counter()
            out = data.transform(
                batch,
                kind,
                target_fraction_positive=target,
                seed=1000 * entry + i,
                jitter_sigma=self.spec.jitter_sigma,
                growth_factor=growth,
            )
            timings.append((kind.value, time.perf_counter() - t))
            results.append((kind.value, out))
        t = time.perf_counter()
        self._cli(["gradcheck", "--samples", str(self.samples), "--seed", str(entry), "--out", str(report_path)])
        timings.append(("gradcheck", time.perf_counter() - t))
        wall = time.perf_counter() - start

        outputs = {f"{entry}/gen-data": sha256_file(csv_path), f"{entry}/gradcheck": sha256_file(report_path)}
        outputs.update({f"{entry}/{op}": sha256_batch(b) for op, b in results})
        examples = 2 * batch.n + sum(b.n for _, b in results[1:]) + 7 * self.samples
        items = [Item(dt, f"{entry}/{op}") for op, dt in timings]
        return Pass(wall, examples, items, outputs)


WORKLOADS = {w.name: w for w in (ImbalanceSweep, TverskySweep, MlpCliRun, DataOracles)}
