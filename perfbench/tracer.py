"""Span and counter recorder for the traced benchmark run.

The recorder wraps the public functions of each dicelab layer from outside
the package: nothing under `src/` knows it exists. Each wrapped call records
a span (name, start, end, parent span) in flat arrays kept in memory; counts
and distinct-key sets are recorded at the same boundaries. `summary()` turns
the spans into per-name call counts, total time, self time (duration minus
the direct children's durations) and busy time (spans whose parent belongs
to another layer), and `save()` writes the raw table out once the run ends.

Functions are patched where callers look them up. Names imported with
`from .x import f` are patched in the importing module too, because patching
only `dicelab.x.f` would leave those callers on the original function.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from collections import defaultdict

import numpy as np

from dicelab import cli, data, experiments, losses, metrics, trainer, verify


class Recorder:
    """In-memory span table plus counters, distinct-key sets and samples."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.samples: dict[str, list[float]] = defaultdict(list)

    def _id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def merge(self, other: "Recorder") -> None:
        """Append another recorder's spans (e.g. a child process's) as new roots."""
        offset = len(self.start)
        remap = [self._id(n) for n in other.names]
        self.name_id.extend(remap[i] for i in other.name_id)
        self.start.extend(other.start)
        self.end.extend(other.end)
        self.parent.extend(p + offset if p >= 0 else -1 for p in other.parent)
        for k, v in other.counters.items():
            self.counters[k] += v
        for k, v in other.keys.items():
            self.keys[k] |= v
        for k, v in other.samples.items():
            self.samples[k].extend(v)

    def save(self, path) -> None:
        meta = {
            "names": self.names,
            "counters": dict(self.counters),
            "keys": {k: sorted(v) for k, v in self.keys.items()},
            "samples": dict(self.samples),
        }
        with open(path, "wb") as fh:
            np.savez(
                fh,
                name_id=np.frombuffer(self.name_id, dtype=np.int32),
                start=np.frombuffer(self.start, dtype=np.float64),
                end=np.frombuffer(self.end, dtype=np.float64),
                parent=np.frombuffer(self.parent, dtype=np.int32),
                meta=np.array(json.dumps(meta)),
            )

    @classmethod
    def load(cls, path) -> "Recorder":
        rec = cls()
        with np.load(path, allow_pickle=False) as z:
            meta = json.loads(str(z["meta"]))
            rec.name_id.extend(z["name_id"].tolist())
            rec.start.extend(z["start"].tolist())
            rec.end.extend(z["end"].tolist())
            rec.parent.extend(z["parent"].tolist())
        for name in meta["names"]:
            rec._id(name)
        rec.counters.update(meta["counters"])
        rec.keys.update({k: set(v) for k, v in meta["keys"].items()})
        rec.samples.update(meta["samples"])
        return rec

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total_s, self_s and busy_s (see module docstring)."""
        out = {}
        if not self.start:
            return out
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        has_parent = parent >= 0
        child_s = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_s = dur - child_s
        # A span is busy time for its layer unless its parent is in the same
        # layer (e.g. csv formatting inside csv writing).
        layer_of = {}
        span_layer = np.array(
            [layer_of.setdefault(".".join(n.split(".")[:2]), len(layer_of)) for n in self.names]
        )[nid]
        top = ~has_parent
        top[has_parent] = span_layer[parent[has_parent]] != span_layer[has_parent]
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        selfs = np.bincount(nid, weights=self_s, minlength=n)
        busy = np.bincount(nid[top], weights=dur[top], minlength=n)
        for i, name in enumerate(self.names):
            out[name] = {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(selfs[i]),
                "busy_s": float(busy[i]),
            }
        return out


class Patches:
    """Attribute replacements that `restore()` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, make_wrapper) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _spanned(rec: Recorder, name, observe=None):
    """Wrapper factory: one span per call; `name` may be a function of the args.

    `observe(args, kwargs, result, exc)` records counters after the call.
    """

    def factory(fn):
        def wrapper(*args, **kwargs):
            idx = rec.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec.finish(idx)
                if observe is not None:
                    observe(args, kwargs, None, exc)
                raise
            rec.finish(idx)
            if observe is not None:
                observe(args, kwargs, result, None)
            return result

        return wrapper

    return factory


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def install(rec: Recorder) -> Patches:
    """Wrap every layer boundary the benchmark measures; returns the undo list."""
    p = Patches()

    def on_generate(args, kwargs, result, exc):
        rec.keys["data.generate"].add(repr(_arg(args, kwargs, 0, "spec")))
        if result is not None:
            rec.counters["data.generate.rows"] += result.n

    def on_transform(args, kwargs, result, exc):
        if isinstance(exc, data.InfeasibleTransformError):
            rec.counters["data.transform.infeasible"] += 1
        if result is not None:
            rec.counters["data.transform.rows_added"] += max(0, result.n - args[0].n)

    def on_save(args, kwargs, result, exc):
        if exc is None:
            rec.counters["data.csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def on_load(args, kwargs, result, exc):
        if exc is None:
            rec.counters["data.csv.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))

    def on_permutation(args, kwargs, result, exc):
        rec.keys["rng.permutation"].add(f"{args[0]},{args[1]}")

    def on_init(args, kwargs, result, exc):
        model_spec, input_dim, train_spec = args[:3]
        rec.keys["trainer.init"].add(repr((model_spec, input_dim, train_spec.seed, train_spec.init_scale)))

    def on_train(args, kwargs, result, exc):
        if isinstance(exc, trainer.TrainingDivergedError):
            rec.counters["trainer.diverged"] += 1

    def on_gradcheck(args, kwargs, result, exc):
        if result is not None:
            rec.counters["verify.samples"] += sum(r.sample_count for r in result)

    generate = _spanned(rec, "data.generate", on_generate)
    for module in (data, experiments, cli):
        p.wrap(module, "generate", generate)
    for module in (data, experiments):
        p.wrap(module, "transform", _spanned(rec, "data.transform", on_transform))
    for module in (data, cli):
        p.wrap(module, "save_csv", _spanned(rec, "data.csv.save", on_save))
    p.wrap(data, "load_csv", _spanned(rec, "data.csv.load", on_load))
    p.wrap(trainer, "permutation", _spanned(rec, "rng.permutation", on_permutation))
    p.wrap(trainer, "initial_parameters", _spanned(rec, "trainer.init", on_init))
    p.wrap(
        trainer,
        "loss_and_param_grad",
        _spanned(rec, lambda a, k: "trainer.step." + _arg(a, k, 1, "model_spec").arch),
    )
    p.wrap(losses, "batch_value_grad", _spanned(rec, lambda a, k: "losses." + a[0].kind.value))
    p.wrap(metrics, "binary_metrics", _spanned(rec, "metrics.binary_metrics"))
    p.wrap(experiments, "train", _spanned(rec, "trainer.train", on_train))
    p.wrap(experiments, "evaluate", _spanned(rec, "trainer.evaluate"))
    p.wrap(experiments, "run", _spanned(rec, "experiments.run"))
    p.wrap(experiments, "rows_to_csv", _spanned(rec, "experiments.csv.format"))
    p.wrap(experiments, "write_csv", _spanned(rec, "experiments.csv.write"))
    p.wrap(verify, "finite_diff_grad", _spanned(rec, "verify.finite_diff_grad"))
    gradcheck = _spanned(rec, "verify.gradcheck_all", on_gradcheck)
    for module in (verify, cli):
        p.wrap(module, "gradcheck_all", gradcheck)
    p.wrap(cli, "main", _spanned(rec, "cli.main"))
    return p


LOSS_KINDS = ("CE", "DSC_selfadj", "TL", "DL_set")


def _unique_frac(rec: Recorder, name: str, calls: int) -> float:
    return len(rec.keys.get(name, ())) / calls if calls else 0.0


def layer_metrics(rec: Recorder, passes: int) -> dict[str, float]:
    """Per-layer metrics, as totals per traced pass (ratios are not divided)."""
    s = rec.summary()

    def get(name, field):
        return s.get(name, {}).get(field, 0.0)

    def busy(*names):
        return sum(get(n, "busy_s") for n in names)

    step_names = ("trainer.step.linear", "trainer.step.mlp")
    step_calls = sum(get(n, "calls") for n in step_names)
    step_total = sum(get(n, "total_s") for n in step_names)
    loss_calls = sum(get("losses." + k.value, "calls") for k in losses.LossKind)
    perm_calls = get("rng.permutation", "calls")
    gen_calls = get("data.generate", "calls")
    init_calls = get("trainer.init", "calls")
    gradcheck_s = busy("verify.gradcheck_all")
    per_pass = {
        "trainer.step.calls": step_calls,
        "trainer.fwd_bwd.linear.self_s": get("trainer.step.linear", "self_s"),
        "trainer.fwd_bwd.mlp.self_s": get("trainer.step.mlp", "self_s"),
        "losses.batch_value_grad.calls": loss_calls,
        "rng.permutation.calls": perm_calls,
        "rng.permutation.busy_s": busy("rng.permutation"),
        "data.generate.calls": gen_calls,
        "data.generate.busy_s": busy("data.generate"),
        "data.generate.rows": rec.counters.get("data.generate.rows", 0.0),
        "data.transform.calls": get("data.transform", "calls"),
        "data.transform.busy_s": busy("data.transform"),
        "data.transform.rows_added": rec.counters.get("data.transform.rows_added", 0.0),
        "data.csv.busy_s": busy("data.csv.save", "data.csv.load"),
        "data.csv.bytes": rec.counters.get("data.csv.bytes", 0.0),
        "verify.finite_diff_grad.calls": get("verify.finite_diff_grad", "calls"),
        "verify.gradcheck_all.busy_s": gradcheck_s,
        "metrics.binary_metrics.calls": get("metrics.binary_metrics", "calls"),
        "metrics.binary_metrics.busy_s": busy("metrics.binary_metrics"),
        "trainer.train.self_s": get("trainer.train", "self_s"),
        "trainer.init.busy_s": busy("trainer.init"),
        "trainer.evaluate.busy_s": busy("trainer.evaluate"),
        "trainer.diverged": rec.counters.get("trainer.diverged", 0.0),
        "data.transform.infeasible": rec.counters.get("data.transform.infeasible", 0.0),
        "experiments.run.self_s": get("experiments.run", "self_s"),
        "experiments.csv.busy_s": busy("experiments.csv.format", "experiments.csv.write"),
        "cli.main.busy_s": busy("cli.main"),
    }
    out = {k: v / passes for k, v in per_pass.items()}
    out["trainer.step.us_per_call"] = 1e6 * step_total / step_calls if step_calls else 0.0
    for kind in LOSS_KINDS:
        calls = get("losses." + kind, "calls")
        out[f"losses.{kind}.us_per_call"] = 1e6 * get("losses." + kind, "total_s") / calls if calls else 0.0
    out["rng.permutation.unique_frac"] = _unique_frac(rec, "rng.permutation", perm_calls)
    out["data.generate.unique_frac"] = _unique_frac(rec, "data.generate", gen_calls)
    out["trainer.init.unique_frac"] = _unique_frac(rec, "trainer.init", init_calls)
    samples = rec.counters.get("verify.samples", 0.0)
    out["verify.samples_per_s"] = samples / gradcheck_s if gradcheck_s else 0.0
    return out
