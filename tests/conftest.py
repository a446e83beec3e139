"""Shared test fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

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
