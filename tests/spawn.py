"""Run a command to its end as a process of its own, and measure it.

A child's `ru_maxrss` starts at its spawner's resident size, so a verb spawned
straight from pytest would report pytest's size. A small `python -S` trampoline
starts the command with the caller's streams, reaps it with `os.wait4` and
writes its exit code, wall seconds and own peak on a separate pipe.
"""

import os
import subprocess
import sys

TRAMPOLINE = """
import os, sys, time
report = int(sys.argv[1])
os.set_inheritable(report, False)
start = time.perf_counter()
pid = os.posix_spawnp(sys.argv[2], sys.argv[2:], os.environ)
_, status, usage = os.wait4(pid, 0)
os.write(report, b"%d %r %d" % (os.waitstatus_to_exitcode(status), time.perf_counter() - start, usage.ru_maxrss))
"""


def cli_command(*argv):
    """The command and environment that run this checkout's `framekit.cli`."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return [sys.executable, "-m", "framekit.cli", *argv], dict(os.environ, PYTHONPATH=src)


def spawn(command, env=None, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=False):
    """Exit code, stdout, stderr, wall seconds and peak KiB of `command`."""
    read, write = os.pipe()
    try:
        proc = subprocess.run([sys.executable, "-S", "-c", TRAMPOLINE, str(write), *command], stdout=stdout,
                              stderr=stderr, text=text, env=env, timeout=60, pass_fds=(write,))
    finally:
        os.close(write)
    with os.fdopen(read, "rb") as pipe:
        report = pipe.read().split()
    assert len(report) == 3, ("trampoline failed", proc.returncode, proc.stderr)
    return int(report[0]), proc.stdout, proc.stderr, float(report[1]), int(report[2])


def spawn_cli(*argv, **streams):
    """`spawn` this checkout's `framekit.cli` with `argv`."""
    command, env = cli_command(*argv)
    return spawn(command, env=env, **streams)
