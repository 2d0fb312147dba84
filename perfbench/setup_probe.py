"""Set-up probe: a fresh interpreter that gets ready to run a workload, then exits.

It imports numpy and dicelab (and the CLI, which two workloads drive), builds
the workload's config from its JSON payload and prints one line. The
benchmark times it from spawn to that line, so `setup_s` covers the
interpreter, the imports and the config, and none of the benchmark's own
modules.

Usage (from the checkout root): python3 perfbench/setup_probe.py CONFIG_JSON
"""

import json
import sys

sys.path.insert(0, "src")

import numpy  # noqa: E402,F401

import dicelab.cli  # noqa: E402,F401
from dicelab import experiments  # noqa: E402

experiments.config_from_dict(json.loads(sys.argv[1]))
print("ready", flush=True)
