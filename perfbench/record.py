"""Record the reference output hashes that every benchmark run checks against.

Runs every pool entry of every workload once, untraced, at both sizes, and
writes `perfbench/references.json`. Run it only at a commit whose outputs are
the reference (the ROADMAP requires speed-ups to keep CSV bytes unchanged):

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, "src")

from run import HERE, machine  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PATH = HERE / "references.json"


def record(name: str, tiny: bool, out_dir: Path) -> dict[str, str]:
    wl = WORKLOADS[name](tiny)
    wl.prepare(out_dir)
    outputs: dict[str, str] = {}
    entries = list(range(wl.pool_size))
    per = wl.entries_per_pass
    for i in range(0, len(entries), per):
        p = wl.run_pass(entries[i : i + per], out_dir, None)
        if len(p.items) != len(entries[i : i + per]) * wl.items_per_pass() // per:
            raise RuntimeError(f"{name}: pass over {entries[i:i + per]} produced {len(p.items)} items")
        outputs.update(p.outputs)
        print(f"{name} {'tiny' if tiny else 'full'} entries {entries[i:i + per]}: {p.wall_s:.2f}s", flush=True)
    return outputs


def main() -> int:
    refs = {"recorded_on": machine()}
    out_dir = Path(".perfbench_out") / "record"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for size in ("tiny", "full"):
            refs[size] = {name: record(name, size == "tiny", out_dir) for name in sorted(WORKLOADS)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
