"""Benchmark of the `ade` engine: CLI workloads, end to end and per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Each workload drives one CLI command through `ade.cli.main(argv)` inside a
worker process (worker.py). The inputs are made here from
`numpy.random.default_rng(seed)`, never from `ade.rng`, so a change to the
engine's generator cannot change them. A set-up is input generation, a
fresh interpreter with its imports and one warm-up command. A run sets up
SETUPS times, one after another, and reports the median as `setup_s`; only
the last worker goes on to run the timed commands, for `--seconds` and at
least MIN_COMMANDS commands, so `cmd_s_p75` always has ten commands beyond
it and names the same percentile whatever the speed.

With `--trace 0` the last line of stdout is a JSON object whose metrics are
the end-to-end ones; with `--trace 1` every second command runs under the
outside-in layer tracer (layertrace.py) and the metrics are per layer. The
lines before it report the machine, the workload and each metric with its
unit. A command fails on a nonzero exit, an exception, a failed output
check or pin (checks.py) or outputs whose sha256 differs from the run's
first command. The fail ratio, `failed / attempted`, is printed on a report line
and carried by the JSON's `attempted` and `failed`; it is no JSON metric,
because a metric that reads 0 has no relative bound.

Inputs and outputs live in `.perfbench_work/` under the repository root,
which the run removes before it exits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layertrace  # noqa: E402

SETUPS = 3
TAIL_PCT = 75
MIN_COMMANDS = 40  # ten commands beyond the TAIL_PCT percentile
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")


def _write_images(inputs: Path, rng, count: int, shape: tuple[int, ...],
                  suffix: str) -> list[str]:
    names = []
    for i in range(count):
        pixels = rng.integers(0, 256, shape, dtype=np.uint8)
        names.append(f"im{i:02d}{suffix}")
        (inputs / names[-1]).write_bytes(checks.pnm_bytes(pixels))
    return names


def gen_chain(inputs: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    names = _write_images(inputs, rng, 4, (64, 64, 3), ".ppm")
    return {"chains": {f"{Path(n).stem}_chain.adet": f"in/{n}"
                       for n in names}}


def gen_still(inputs: Path, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    (name,) = _write_images(inputs, rng, 1, (256, 256), ".pgm")
    return {"chains": {"chain.adet": f"in/{name}"}}


def gen_reverse(inputs: Path, seed: int) -> dict:
    """A 3x256x256 chain with K = 32, written snapshot by snapshot so the
    whole 51 MB tensor is never held in memory."""
    rng = np.random.default_rng(seed)
    shape = (REVERSE_K + 1, 3, 256, 256)
    with open(inputs / "chain.adet", "wb") as f:
        f.write(checks.adet_header(shape))
        for _ in range(shape[0]):
            f.write(rng.random(shape[1:]).astype("<f8").tobytes())
    return {"chain": "in/chain.adet", "walk_steps": REVERSE_K}


REVERSE_K = 32
CHAIN_LENGTH = 8
CHAIN_FLAGS = ["--steps", str(CHAIN_LENGTH), "--sigma-max", "4"]

# Why each workload exists is in BENCHMARK.json. `nodes` is C*H*W summed
# over the images of one command; `working_set_bytes` is the largest
# state a command works on: one channel's f and f_new, or the chain tensor.
WORKLOADS = {
    "chain_rgb64_turb": {
        "argv": ["chain", "--in-dir", "in", "--out", "out", "--pe", "0.1",
                 *CHAIN_FLAGS],
        "schedule_argv": ["schedule", "--length", "64", "--pe", "0.1",
                          *CHAIN_FLAGS],
        "nodes": 4 * 3 * 64 * 64,
        "working_set_bytes": 2 * 9 * 64 * 64 * 8,
        "generate": gen_chain,
    },
    "corrupt_gray256_still": {
        "argv": ["corrupt", "--in", "in/im00.pgm", "--out", "out", "--pe",
                 "0", *CHAIN_FLAGS],
        "schedule_argv": ["schedule", "--length", "256", "--pe", "0",
                          *CHAIN_FLAGS],
        "nodes": 256 * 256,
        "working_set_bytes": 2 * 9 * 256 * 256 * 8,
        "generate": gen_still,
    },
    "reverse_rgb256_record": {
        "argv": ["reverse", "--chain", "in/chain.adet", "--predictor",
                 "oracle", "--record", "--out", "out"],
        "nodes": 3 * 256 * 256,
        "working_set_bytes": (REVERSE_K + 1) * 3 * 256 * 256 * 8,
        "generate": gen_reverse,
    },
}


def _cache_bytes(level: int) -> int | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            if (int((index / "level").read_text()) == level
                    and (index / "type").read_text().strip() != "Instruction"):
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1 << 20}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
        except (OSError, ValueError):
            return None
    return None


def machine() -> dict:
    model = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def percentile(times: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(times)
    return ordered[max(1, math.ceil(pct * len(ordered) / 100)) - 1]


def run_workers(name: str, seed: int, seconds: float, trace: bool,
                started: float) -> tuple[list[float], dict, bool]:
    """Set up SETUPS workers in turn, the last of which runs the timed
    commands; their set-up times, that worker's result and whether every
    warm-up command passed."""
    spec = WORKLOADS[name]
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if k != "ADE_CONFIG"}
    setups, warm = [], True
    try:
        for i in range(SETUPS):
            timed = i == SETUPS - 1
            shutil.rmtree(work, ignore_errors=True)
            begin = time.monotonic()
            (work / "in").mkdir(parents=True)
            job = spec["generate"](work / "in", seed)
            job.update({
                "workdir": str(work), "out": "out", "argv": spec["argv"],
                "schedule_argv": spec.get("schedule_argv"),
                "chain_length": CHAIN_LENGTH,
                "seconds": seconds if timed else 0.0,
                "min_commands": MIN_COMMANDS if timed else 0,
                "trace": trace, "result": str(work / "result.json"),
                "pins": pins_for(name, seed),
            })
            (work / "job.json").write_text(json.dumps(job))
            with open(work / "stdout.log", "wb") as log:
                proc = subprocess.Popen(
                    [sys.executable, str(HERE / "worker.py"),
                     str(work / "job.json")],
                    cwd=work, env=env, stdout=log, stdin=subprocess.DEVNULL)
                try:
                    code = proc.wait(timeout=max(
                        1.0, TIME_LIMIT_S - (time.monotonic() - started)))
                except subprocess.TimeoutExpired:
                    raise RuntimeError("worker ran out of time") from None
                finally:
                    if proc.poll() is None:
                        proc.kill()
                        proc.wait()
            if code != 0:
                raise RuntimeError(f"worker exited with code {code}")
            result = json.loads((work / "result.json").read_text())
            setups.append(result["ready"] - begin)
            warm = warm and result["warmup_ok"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # not empty: another run is using it
    return setups, result, warm


def pins_for(name: str, seed: int) -> dict | None:
    """Pinned outputs of the default seed (pins.json, see make_pins.py)."""
    if seed != 0:
        return None
    return json.loads((HERE / "pins.json").read_text()).get(name)


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ade" / "cli.py").is_file():
        print(f"run.py: no engine source at {ROOT / 'src' / 'ade'}",
              file=sys.stderr)
        return 2
    spec = WORKLOADS[args.workload]
    try:
        setups, result, warm = run_workers(
            args.workload, args.seed, args.seconds, bool(args.trace), started)
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    reference = next((r["digest"] for r in records if r["digest"]), None)
    failed = sum(r["digest"] is None or r["digest"] != reference
                 for r in records)
    steps = result["work_steps"]
    node_steps = spec["nodes"] * steps

    info = machine()
    print("machine " + json.dumps(info))
    llc = info["l3_bytes"]
    print(f"workload {args.workload}: ade {' '.join(spec['argv'])}; "
          f"steps={steps} node_steps/command={node_steps} "
          f"working_set_bytes={spec['working_set_bytes']} llc_bytes={llc} "
          f"over_4x_llc={bool(llc) and spec['working_set_bytes'] > 4 * llc}")

    untraced = [r["s"] for r in records if not r["traced"]]
    p50 = statistics.median(untraced)
    end_to_end = {
        "mnode_steps_per_s": (node_steps / p50 / 1e6, "Mnode-steps/s"),
        "cmd_s_p50": (p50, "s"),
        "peak_rss_mb": (result["maxrss_kb"] * 1024 / 1e6, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    if len(untraced) >= MIN_COMMANDS:  # a traced run times only half
        end_to_end[f"cmd_s_p{TAIL_PCT}"] = (percentile(untraced, TAIL_PCT),
                                            "s")
    print(f"commands={len(records)} untraced={len(untraced)} "
          f"failed={failed} fail_ratio={failed / len(records)!r} "
          f"warmups_ok={warm} setups_s={[round(v, 4) for v in setups]}")
    for name, (value, unit) in end_to_end.items():
        print(f"{name} {value!r} {unit}")
    metrics = end_to_end
    if args.trace:
        traced = [r["s"] for r in records if r["traced"]]
        summary = result["trace"]
        layers = layertrace.layer_metrics(
            summary, len(traced), sum(traced),
            statistics.median(traced) / p50)
        for absent in summary["absent"]:
            print(f"absent: {absent} (its metrics are left out)")
        metrics = {name: (value, layertrace.UNITS[name])
                   for name, value in layers.items()}
        for name, (value, unit) in metrics.items():
            print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0 and warm,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
