"""Layer benchmark of the `ade` engine: fixed-size calls, timed in fresh
processes.

Usage, from the root of the repository:

    python3 bench/layers.py [--runs N] [--calls N] [--case NAME ...]
                            [--json-out PATH] [--tiny]

A case is one fixed-size in-process call. Today every case is the 51-step
loop of a chain, `forward_chain` over the 8-level ladder sigma 0.5 -> 4
that `perfbench` runs, into a sink that keeps nothing, at one size and
Peclet number, with the lattice's partner process and without it (see
`ade.corruption`): `on` lowers the partner's size gate to 0, so the
partner is forked wherever the CPU count allows, and `off` runs the loop
in one process. A run is a fresh interpreter that imports `ade` from this
checkout's `src`, makes one untimed warm-up call and times `--calls`
calls, reporting their median. The runs of a case alternate between `on`
and `off`, and the report gives the median and the interquartile range of
each variant's runs, in ms per call. `--json-out` also records the numpy
version, numpy's dispatch target, the CPU count of the affinity mask and
the git revision. `--tiny` runs every case on a 16 x 16 grid, as a
self-test of the script. This is not a gate: perfbench's end-to-end pairs
stay the rule for a workload's claim.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# name -> (channels, grid size, Peclet number)
CASES = {
    "loop51_1x128_pe0": (1, 128, 0.0),
    "loop51_1x256_pe0": (1, 256, 0.0),
    "loop51_3x64_pe0": (3, 64, 0.0),
    "loop51_1x128_pe0.1": (1, 128, 0.1),
    "loop51_3x64_pe0.1": (3, 64, 0.1),
    "loop51_3x96_pe0": (3, 96, 0.0),
    "loop51_3x96_pe0.1": (3, 96, 0.1),
    "loop51_3x128_pe0": (3, 128, 0.0),
    "loop51_3x128_pe0.1": (3, 128, 0.1),
    "loop51_3x256_pe0.1": (3, 256, 0.1),
}
VARIANTS = ("on", "off")
TINY = 16  # grid size of `measure(..., tiny=True)`


def measure(case: str, partner: bool, calls: int,
            tiny: bool = False) -> float:
    """Median seconds of `calls` timed calls of `case`, after one warm-up
    call, in this process; a `tiny` case runs on a TINY x TINY grid."""
    from ade import corruption, procs
    from ade.rng import CounterRng
    from ade.schedule import DiffusionSchedule, sigma_to_fo

    channels, size, peclet = CASES[case]
    size = TINY if tiny else size
    schedule = DiffusionSchedule.build(sigma_to_fo(0.5, size),
                                       sigma_to_fo(4.0, size), 8,
                                       float(size), peclet=peclet)
    u0 = CounterRng(24, 0).uniforms(channels * size * size).reshape(
        channels, size, size)
    gate, cpus = corruption._PARTNER_MIN_NODES, procs._cpus
    if partner:
        corruption._PARTNER_MIN_NODES = 0
    else:
        procs._cpus = lambda: 1
    try:
        times = []
        for _ in range(calls + 1):
            start = time.perf_counter()
            corruption.forward_chain(u0, schedule, 0, sink=lambda snap: None)
            times.append(time.perf_counter() - start)
    finally:
        corruption._PARTNER_MIN_NODES, procs._cpus = gate, cpus
    return statistics.median(times[1:])


def _fresh(case: str, partner: bool, calls: int, tiny: bool) -> float:
    """`measure` in a fresh interpreter."""
    job = json.dumps({"case": case, "partner": partner, "calls": calls,
                      "tiny": tiny})
    proc = subprocess.run([sys.executable, __file__, "--worker", job],
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.split()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def environment() -> dict:
    """numpy version and dispatch target, CPUs, git revision."""
    import numpy as np
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    have = getattr(umath, "__cpu_features__", {})
    targets = [t for t in (list(getattr(umath, "__cpu_baseline__", []))
                           + list(getattr(umath, "__cpu_dispatch__", [])))
               if have.get(t)]
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    try:
        rev = subprocess.run(["git", "describe", "--always", "--dirty"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = None
    return {"numpy": np.__version__,
            "dispatch_target": targets[-1] if targets else None,
            "cpus": cpus, "git_revision": rev}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=11,
                        help="fresh processes per case and variant")
    parser.add_argument("--calls", type=int, default=5,
                        help="timed calls per process")
    parser.add_argument("--case", action="append", choices=sorted(CASES),
                        help="a case to run (default: all)")
    parser.add_argument("--json-out", type=Path)
    parser.add_argument("--tiny", action="store_true",
                        help="run every case on a 16 x 16 grid")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        job = json.loads(args.worker)
        print(measure(job["case"], job["partner"], job["calls"],
                      job["tiny"]))
        return 0

    env = environment()
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    results = {}
    for case in args.case or list(CASES):
        runs = {v: [] for v in VARIANTS}
        for i in range(args.runs):
            # alternate which variant runs first
            for v in VARIANTS[::1 if i % 2 == 0 else -1]:
                runs[v].append(
                    _fresh(case, v == "on", args.calls, args.tiny) * 1e3)
        entry = {}
        for v in VARIANTS:
            q1, q2, q3 = _quartiles(runs[v])
            entry[v] = {"median_ms": q2, "iqr_ms": q3 - q1, "runs_ms": runs[v]}
        entry["on_over_off"] = entry["on"]["median_ms"] / entry["off"][
            "median_ms"]
        results[case] = entry
        print(f"{case}: on {entry['on']['median_ms']:.2f} ms "
              f"(IQR {entry['on']['iqr_ms']:.2f}), off "
              f"{entry['off']['median_ms']:.2f} ms "
              f"(IQR {entry['off']['iqr_ms']:.2f}), on/off "
              f"{entry['on_over_off']:.3f}", flush=True)
    if args.json_out:
        args.json_out.write_text(json.dumps(
            {**env, "runs": args.runs, "calls": args.calls,
             "tiny": args.tiny, "unit": "ms per call", "cases": results},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
