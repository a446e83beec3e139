"""Shared test fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from ade import procs

SRC = Path(__file__).resolve().parents[1] / "src"


def _run_ade(args, cwd, env_extra=None):
    """Run `python -m ade.cli args` in cwd against this checkout's source."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update(env_extra or {})
    return subprocess.run([sys.executable, "-m", "ade.cli", *args], cwd=cwd,
                          env=env, capture_output=True, text=True)


@pytest.fixture(scope="session")
def run_ade():
    return _run_ade


@pytest.fixture
def cpus(monkeypatch):
    """`cpus(count)` makes `procs._cpus()`, the CPU count every fork and
    thread rule reads, return `count` (None leaves it to the affinity
    mask), and returns the list of the pids this process forks from then
    on."""
    def force(count):
        if count is not None:
            monkeypatch.setattr(procs, "_cpus", lambda: count)
        forks = []
        real = os.fork

        def spy():
            pid = real()
            if pid:
                forks.append(pid)
            return pid
        monkeypatch.setattr(os, "fork", spy)
        return forks
    return force
