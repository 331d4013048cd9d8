"""Start Python, or the qre command line, in a fresh interpreter that
imports this checkout's package: the one place the tests build a child's
environment."""

import os
import subprocess
import sys
from pathlib import Path

import qre

SRC = str(Path(qre.__file__).resolve().parent.parent)

# The arguments that run the command line as `python -m qre.cli`.
QRE = ("-m", "qre.cli")


def _env(env_vars):
    # PYTHONUNBUFFERED is dropped: a closed-pipe test needs stdout's buffer.
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return env


def run_python(*args, **env_vars):
    """Run ``python *args`` to its end, with ``env_vars`` added to the
    environment; the CompletedProcess, its output captured as text."""
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=_env(env_vars), timeout=300)


def start_python(*args):
    """Start ``python *args`` with its stdout and stderr on pipes, read as
    bytes; the caller reads, closes and waits."""
    return subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=_env({}))
