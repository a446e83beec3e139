"""Layer benchmark of the `ade` engine: fixed-size calls, timed in fresh
processes.

Usage, from the root of the repository:

    python3 bench/layers.py [--runs N] [--calls N] [--case NAME ...]
                            [--json-out PATH] [--tiny]

A case is one fixed-size in-process call, of two kinds.

A loop case (`CASES`) is the 51-step loop of a chain, `forward_chain`
over the 8-level ladder sigma 0.5 -> 4 that `perfbench` runs, into a sink
that keeps nothing, at one size and Peclet number, with the lattice's
partner process and without it (see `ade.corruption`): `on` lowers the
partner's size gate to 0, so the partner is forked wherever the CPU count
allows, and `off` runs the loop in one process. Its runs alternate between
`on` and `off`, and time `--calls` calls each, in ms per call.

A kernel case (`KERNELS`) is one call of one layer on a fixed input, in
us per call: `collide` with and without a flow and `apply_bounce_back`
on a float64 state, `TurbulenceGenerator.generate` (a new step each call)
and `velocity_factor`, `CounterRng.normals` for one field's values,
outside an `ahead` scope and per draw inside one, `TensorWriter.append`
of one entry, hashed and unhashed, into the same entry of a temp file,
and `TensorReader.read_into` of one entry. Its runs time at least
`KERNEL_CALLS` calls each and also report the minor page faults per call,
read from `getrusage`.

A run is a fresh interpreter that imports `ade` from this checkout's
`src`, makes one untimed warm-up call and times the calls, reporting their
median. The report gives the median and the interquartile range of each
case's (and variant's) runs. `--json-out` also records the numpy version,
numpy's dispatch target, the CPU count of the affinity mask and the git
revision. `--tiny` runs every case on a 16 x 16 grid, as a self-test of
the script. This is not a gate: perfbench's end-to-end pairs stay the
rule for a workload's claim.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
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
# name -> (layer call, channels, grid size)
KERNELS = {
    "collide_still_3x64": ("collide_still", 3, 64),
    "collide_flow_3x64": ("collide_flow", 3, 64),
    "bounce_back_3x64": ("bounce_back", 3, 64),
    "collide_still_1x256": ("collide_still", 1, 256),
    "collide_flow_1x256": ("collide_flow", 1, 256),
    "bounce_back_1x256": ("bounce_back", 1, 256),
    "generate_64": ("generate", 1, 64),
    "generate_256": ("generate", 1, 256),
    "velocity_factor_64": ("velocity_factor", 1, 64),
    "velocity_factor_256": ("velocity_factor", 1, 256),
    "normals_3x256": ("normals", 3, 256),
    "normals_ahead_3x256": ("normals_ahead", 3, 256),
    "append_hashed_3x256": ("append_hashed", 3, 256),
    "append_unhashed_3x256": ("append_unhashed", 3, 256),
    "read_into_3x256": ("read_into", 3, 256),
}
KERNEL_CALLS = 100  # timed calls of a kernel case per process, at least
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


@contextlib.contextmanager
def _kernel(kind: str, channels: int, size: int, calls: int):
    """A call of the layer `kind` on a fixed input of channels x size x
    size, without arguments, that may be made `calls` times in the block."""
    import numpy as np
    from ade import io, lattice
    from ade.rng import CounterRng
    from ade.turbulence import TurbulenceGenerator, TurbulenceSpec

    shape = (channels, size, size)
    u0 = CounterRng(24, 0).uniforms(math.prod(shape)).reshape(shape)
    gen = TurbulenceGenerator(TurbulenceSpec(size=size), 0)
    if kind in ("collide_still", "collide_flow", "bounce_back"):
        state = lattice.init_from_image(u0)
        vel = gen.generate(0, 1e-3) if kind == "collide_flow" else None
        yield ((lambda: lattice.apply_bounce_back(state))
               if kind == "bounce_back"
               else lambda: lattice.collide(state, vel, 0.8))
    elif kind == "generate":
        steps = itertools.count()
        yield lambda: gen.generate(next(steps), 1e-3)
    elif kind == "velocity_factor":
        vx, vy = gen.generate(0, 1e-3)
        out = np.empty((9, size, size))
        yield lambda: lattice.velocity_factor(vx, vy, out=out)
    elif kind in ("normals", "normals_ahead"):
        rng = CounterRng(24, 1)
        with (rng.ahead(calls) if kind == "normals_ahead"
              else contextlib.nullcontext()):
            yield lambda: rng.normals(u0.size)
    elif kind in ("append_hashed", "append_unhashed"):
        header, dtype = io._tensor_header((calls,) + shape, np.float64)
        with tempfile.TemporaryFile() as f:
            writer = io.TensorWriter(f, (calls,) + shape, dtype, header,
                                     hashed=kind == "append_hashed")

            def append():
                f.seek(len(header))  # the file holds one entry's pages
                writer.append(u0)
            yield append
    else:  # read_into
        with tempfile.TemporaryDirectory() as tmp:
            io.write_tensor(Path(tmp) / "entry.adet", u0[None])
            with io.open_tensor(Path(tmp) / "entry.adet") as reader:
                out = np.empty(shape)
                yield lambda: reader.read_into(0, out)


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def measure_kernel(case: str, calls: int,
                   tiny: bool = False) -> tuple[float, float]:
    """(median seconds, minor faults) per call of `max(calls,
    KERNEL_CALLS)` timed calls of `case`, after one warm-up call, in this
    process; a `tiny` case runs on a TINY x TINY grid."""
    kind, channels, size = KERNELS[case]
    calls = max(calls, KERNEL_CALLS)
    times = []
    with _kernel(kind, channels, TINY if tiny else size, calls + 1) as call:
        call()
        faults = _minor_faults()
        for _ in range(calls):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        faults = _minor_faults() - faults
    return statistics.median(times), faults / calls


def _fresh(job: dict):
    """`measure` or `measure_kernel` of `job` in a fresh interpreter."""
    proc = subprocess.run([sys.executable, __file__, "--worker",
                           json.dumps(job)],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


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
                        help="timed calls per process (at least "
                             f"{KERNEL_CALLS} for a kernel case)")
    parser.add_argument("--case", action="append",
                        choices=sorted(CASES) + sorted(KERNELS),
                        help="a case to run (default: all)")
    parser.add_argument("--json-out", type=Path)
    parser.add_argument("--tiny", action="store_true",
                        help="run every case on a 16 x 16 grid")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        job = json.loads(args.worker)
        if job["case"] in KERNELS:
            print(json.dumps(measure_kernel(job["case"], job["calls"],
                                            job["tiny"])))
        else:
            print(json.dumps(measure(job["case"], job["partner"],
                                     job["calls"], job["tiny"])))
        return 0

    env = environment()
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    chosen = args.case or list(CASES) + list(KERNELS)
    job = {"calls": args.calls, "tiny": args.tiny}
    results, kernels = {}, {}
    for case in (c for c in chosen if c in KERNELS):
        runs = [_fresh({**job, "case": case}) for _ in range(args.runs)]
        times = [s * 1e6 for s, _ in runs]
        q1, q2, q3 = _quartiles(times)
        kernels[case] = entry = {
            "median_us": q2, "iqr_us": q3 - q1, "runs_us": times,
            "minor_faults_per_call": statistics.median(f for _, f in runs),
            "calls": max(args.calls, KERNEL_CALLS)}
        print(f"{case}: {q2:.2f} us (IQR {q3 - q1:.2f}), "
              f"{entry['minor_faults_per_call']:.2f} minor faults per call",
              flush=True)
    for case in (c for c in chosen if c in CASES):
        runs = {v: [] for v in VARIANTS}
        for i in range(args.runs):
            # alternate which variant runs first
            for v in VARIANTS[::1 if i % 2 == 0 else -1]:
                runs[v].append(
                    _fresh({**job, "case": case, "partner": v == "on"})
                    * 1e3)
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
             "tiny": args.tiny, "unit": "ms per call", "cases": results,
             "kernel_unit": "us per call", "kernels": kernels},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
