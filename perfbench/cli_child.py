"""Traced `dicelab` CLI process for the mlp_cli_run workload.

Times the import of dicelab.cli (numpy included), runs `dicelab.cli.main`
with every layer wrapped, and saves the span table for the parent to merge.

Usage: python3 perfbench/cli_child.py TRACE_OUT.npz CLI_ARGS...
(PYTHONPATH must name the checkout's src directory.)
"""

import sys
import time

started = time.perf_counter()
import dicelab.cli  # noqa: E402

import_s = time.perf_counter() - started

import tracer  # noqa: E402

rec = tracer.Recorder()
rec.samples["cli.import_s"].append(import_s)
patches = tracer.install(rec)
try:
    code = dicelab.cli.main(sys.argv[2:])
finally:
    patches.restore()
rec.save(sys.argv[1])
sys.exit(code)
