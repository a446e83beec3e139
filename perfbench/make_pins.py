"""Write pins.json: outputs of the default seed that later commits must keep.

Usage, from the root of the repository:  python3 perfbench/make_pins.py

Run it only on a commit whose outputs are the reference. `ade corrupt` at
Pe = 0 must stay bitwise, so its chain.adet sha256 is pinned. At Pe > 0 a
kernel rewrite may move low bits, so `ade chain` pins the L2 norm of every
snapshot and channel, checked at checks.NORM_RTOL relative.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

import ade.cli  # noqa: E402

import checks  # noqa: E402

SEED = 0


def pinned_outputs(name: str, work: Path) -> dict:
    spec = run.WORKLOADS[name]
    (work / "in").mkdir(parents=True)
    job = spec["generate"](work / "in", SEED)
    os.chdir(work)
    if ade.cli.main(list(spec["argv"])) != 0:
        raise SystemExit(f"{name}: command failed")
    if name == "corrupt_gray256_still":
        return {"sha256": {n: checks.file_sha256(Path("out") / n)
                           for n in job["chains"]}}
    return {"norms": {n: checks.channel_norms(Path("out") / n)
                      for n in job["chains"]}}


def main() -> int:
    os.environ.pop("ADE_CONFIG", None)
    pins = {}
    for name in ("corrupt_gray256_still", "chain_rgb64_turb"):
        work = run.ROOT / ".perfbench_work" / f"pins-{os.getpid()}"
        try:
            pins[name] = pinned_outputs(name, work)
        finally:
            os.chdir(run.ROOT)
            shutil.rmtree(work, ignore_errors=True)
    (run.ROOT / ".perfbench_work").rmdir()
    (run.HERE / "pins.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
