"""Small process that starts the `dicelab run` children of mlp_cli_run.

On Linux a process's ru_maxrss counts the high-water mark of the address
space it replaced at exec, which is that of the process it was spawned from.
Spawned straight from the benchmark, whose numpy and dicelab imports are
about as large as a `dicelab run` child, every child would report the
benchmark's own peak. Spawned from this process, which imports little, a
child's ru_maxrss is its own.

Reads one JSON command a line on stdin, {"argv", "env", "stderr",
"timeout_s"}; starts it with stdout to /dev/null and stderr to the named
file, kills it after timeout_s, reaps it with wait4 and writes one line
"<exit code> <ru_maxrss in KiB>" to stdout. Ends at end of input.

Usage: python3 perfbench/spawner.py
"""

import json
import os
import signal
import sys


def main() -> None:
    for line in sys.stdin:
        cmd = json.loads(line)
        pid = os.posix_spawn(
            cmd["argv"][0],
            cmd["argv"],
            cmd["env"],
            file_actions=[
                (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
                (os.POSIX_SPAWN_OPEN, 2, cmd["stderr"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            ],
        )
        signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
        signal.alarm(cmd["timeout_s"])
        _, status, usage = os.wait4(pid, 0)
        signal.alarm(0)
        print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, flush=True)


if __name__ == "__main__":
    main()
