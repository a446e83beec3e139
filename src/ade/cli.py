"""Command line interface.

Each subcommand is one table of `Param`s (see `ade.params`) plus the
function that does its work. The table drives the flags, the layering
(defaults, then the `ADE_CONFIG` file, then `--config`, then flags) and the
manifest written into `--out`: `command`, every resolved param that is not
None, then the input and output sha256 lines, so a manifest replays through
`--config`. Each sha256 is of the bytes the command read or wrote, hashed
from those bytes in hand: no file is read back to be hashed. `--out`,
`--config`, `--plot` and `--record` only choose where and which extra
files to write, so they stay out of it. Params are resolved and checked
before `--out` is created, and a failed run removes the `--out`
directories it created while they are still empty.

Usage errors exit with 2 (argparse); engine and I/O failures print a single
`ade: error: <kind>: <message>` line on stderr and exit 1.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import analysis, io, reverse
from .corruption import (CorruptionChain, NoiseParams, forward_chain,
                         precompute_dataset)
from .errors import EngineError, ShapeMismatchError, ValidationError
from .params import REQUIRED, Param, add_flags, manifest, resolve
from .rng import CounterRng
from .schedule import DiffusionSchedule, fo_to_sigma, sigma_to_fo
from .turbulence import TurbulenceGenerator, TurbulenceSpec

CAP = Param("cap", float, 1e-3, "velocity cap")
SEED = Param("seed", int, 0)
PRECISION = Param("precision", str, "f64", choices=("f32", "f64"))
SCHEDULE = [
    Param("steps", int, 8, "number of corruption levels"),
    Param("fo_min", float, None), Param("fo_max", float, None),
    Param("sigma_min", float, None, "blur floor in pixels (default 0.5)"),
    Param("sigma_max", float, None, "blur target in pixels (default L/4)"),
    Param("pe", float, 0.0, "Peclet number"), Param("tau_max", float, 1.0),
    CAP,
]
TURBULENCE = [Param("slope", float, -2.0, "spectral slope"),
              Param("dt_turb", float, 1e-4), Param("sharpness", float, 1.0)]
_DTYPES = {"f32": np.float32, "f64": np.float64}
_SWITCHES = {"plot": "also write PGM previews",
             "record": "also write trajectory.adet"}


class Command(NamedTuple):
    run: Callable  # (params, args, out dir or None) -> manifest hash lines
    help: str
    params: list
    out: bool | None = None  # --out required (True), optional (False), none
    switches: tuple = ()  # keys of _SWITCHES


COMMANDS: dict[str, Command] = {}


def command(name, *spec, **kw):
    """Register the decorated function as subcommand `name`."""
    def register(run):
        COMMANDS[name] = Command(run, *spec, **kw)
        return run
    return register


def _check_bounds(p: dict) -> None:
    """Fo bounds come in pairs and exclude sigma bounds. Needs no image, so
    `main` checks it, for every command, before --out is made."""
    fo = (p.get("fo_min"), p.get("fo_max"))
    if fo != (None, None):
        if (p.get("sigma_min"), p.get("sigma_max")) != (None, None):
            raise ValidationError("give Fo bounds or sigma bounds, not both")
        if None in fo:
            raise ValidationError("need both fo_min and fo_max")


def _make_schedule(p: dict, width: int) -> DiffusionSchedule:
    """Schedule for L = the `length` param, else the image width; the
    bounds have passed `_check_bounds`."""
    length = float(width) if p.get("length") is None else p["length"]
    fo = (p["fo_min"], p["fo_max"])
    if fo == (None, None):
        sigma_min = 0.5 if p["sigma_min"] is None else p["sigma_min"]
        sigma_max = length / 4.0 if p["sigma_max"] is None else p["sigma_max"]
        fo = (sigma_to_fo(sigma_min, length), sigma_to_fo(sigma_max, length))
    return DiffusionSchedule.build(*fo, p["steps"], length, peclet=p["pe"],
                                   tau_max=p["tau_max"], cap=p["cap"])


def _turbulence(p: dict, size: int) -> TurbulenceSpec:
    return TurbulenceSpec(size=size, slope=p["slope"], dt_turb=p["dt_turb"],
                          cap=p["cap"], sharpness=p["sharpness"])


def _flow(p: dict, shape: tuple) -> TurbulenceSpec | None:
    """Turbulence for a [C, H, W] stack; None where the chain has no flow."""
    flows = p["pe"] > 0.0 and shape[1] == shape[2]
    return _turbulence(p, shape[1]) if flows else None


@command("schedule", "print a corruption schedule", SCHEDULE + [
    Param("length", float, 64.0, "characteristic length L in nodes")])
def cmd_schedule(p, args, out):
    schedule = _make_schedule(p, p["length"])
    for k, (fo, iv) in enumerate(zip(schedule.levels, schedule.intervals),
                                 start=1):
        print(f"k={k} fo={fo!r} sigma={fo_to_sigma(fo, schedule.length)!r} "
              f"lattice_steps={iv.n_steps} tau={iv.tau!r} "
              f"alpha={iv.alpha!r} rms={iv.target_rms!r}")
    print(f"levels={schedule.chain_length} "
          f"total_lattice_steps={schedule.lattice_steps} "
          f"fo_max={schedule.levels[-1]!r}")
    return {}


@command("gen-velocity", "write turbulence snapshots", TURBULENCE + [
    Param("size", int, REQUIRED, "grid size N"), SEED,
    Param("vel_steps", int, 1, "number of time snapshots"),
    Param("rms", float, 1e-3, "target RMS speed"), CAP],
    out=True, switches=("plot",))
def cmd_gen_velocity(p, args, out):
    steps, size = p["vel_steps"], p["size"]
    if steps < 1:
        raise ValidationError(f"vel_steps must be >= 1, got {steps}")
    gen = TurbulenceGenerator(_turbulence(p, size), p["seed"])
    shape = (steps, 2, size, size)
    peaks = []  # the largest speed of each step
    with io.tensor_writer(out / "velocity.adet", shape) as written:
        for t in range(steps):
            vel = gen.generate(t, p["rms"])
            written.append(np.stack(vel))
            peaks.append(np.sqrt(vel.vx ** 2 + vel.vy ** 2).max())
    if args.plot:  # from the written fields, one step at a time
        with io.open_tensor(out / "velocity.adet") as fields:
            for t, (vx, vy) in enumerate(fields):
                io.write_heatmap(out / f"speed_{t}.pgm",
                                 np.sqrt(vx ** 2 + vy ** 2))
    print(f"velocity.adet shape={shape} "
          f"max_speed={float(np.max(peaks))!r}")
    return {"output.velocity.adet": written.hexdigest()}


@command("corrupt", "corrupt one image into a chain", SCHEDULE + TURBULENCE + [
    Param("in_path", str, REQUIRED, "PGM/PPM image", flag="--in"), SEED,
    PRECISION], out=True, switches=("plot",))
def cmd_corrupt(p, args, out):
    blob = Path(p["in_path"]).read_bytes()  # one read, parsed and hashed
    stack, _ = io.parse_image(blob)
    schedule = _make_schedule(p, stack.shape[2])
    shape = (schedule.chain_length + 1,) + stack.shape
    dtype = _DTYPES[p["precision"]]
    with io.tensor_writer(out / "chain.adet", shape, dtype) as chain:
        forward_chain(stack, schedule, p["seed"], _flow(p, stack.shape),
                      dtype, sink=chain.append)
    if args.plot:  # from the written chain; write_image clamps to [0, 1]
        with io.open_tensor(out / "chain.adet") as snaps:
            for k, snap in enumerate(snaps):
                io.write_image(out / f"snapshot_{k}.pgm", snap)
    print(f"chain.adet shape={shape} "
          f"lattice_steps={schedule.lattice_steps}")
    return {"input_sha256": hashlib.sha256(blob).hexdigest(),
            "output.chain.adet": chain.hexdigest()}


@command("chain", "corrupt a directory of images", SCHEDULE + TURBULENCE + [
    Param("in_dir", str, REQUIRED, "directory of PGM/PPM images"), SEED,
    PRECISION,
    Param("length", float, None, "override L (default: image width)")],
    out=True)
def cmd_chain(p, args, out):
    # schedule and flow follow the first readable image of the one scan
    report = precompute_dataset(p["in_dir"], out,
                                lambda shape: _make_schedule(p, shape[2]),
                                p["seed"],
                                turbulence=lambda shape: _flow(p, shape),
                                dtype=_DTYPES[p["precision"]])
    print(f"written={len(report['written'])} errors={len(report['errors'])} "
          f"manifest={out / 'manifest.txt'}")
    lines = {f"output.{n}": sha for n, sha in report["written"].items()}
    for name, message in report["errors"].items():
        print(f"error {name}: {message}", file=sys.stderr)
        lines[f"error.{name}"] = message.replace("\n", " ")
    return lines


@command("reverse", "sample back from a chain prior", [
    Param("chain_path", str, REQUIRED, "chain tensor", flag="--chain"),
    Param("predictor", str, "oracle", "oracle | zero | extern:<dir>"),
    Param("sigma_s", float, NoiseParams().sigma_sample, "sampling noise"),
    SEED, Param("timeout", float, 30.0, "extern predictor timeout in s")],
    out=True, switches=("record", "plot"))
def cmd_reverse(p, args, out):
    name = p["predictor"]
    if name not in ("oracle", "zero") and not name.startswith("extern:"):
        raise ValidationError(
            f"predictor must be oracle, zero or extern:<dir>, got {name!r}")
    with io.open_tensor(p["chain_path"]) as snaps:
        if snaps.ndim not in (3, 4) or len(snaps) < 2 or 0 in snaps.shape:
            raise ValidationError(f"chain tensor must be [K+1, (C,) H, W] "
                                  f"with K >= 1, nonempty, got {snaps.shape}")
        chain = CorruptionChain(snaps)  # the oracle reads one entry a step
        predictor = (reverse.OraclePredictor(chain) if name == "oracle"
                     else reverse.ZeroPredictor() if name == "zero"
                     else reverse.ExternPredictor(name.split(":", 1)[1],
                                                  timeout=p["timeout"]))
        walk = (chain.prior, predictor, chain.chain_length, p["sigma_s"],
                CounterRng(p["seed"], 0))
        if args.record:  # float64, like the walk; not in the manifest
            with io.tensor_writer(out / "trajectory.adet", snaps.shape,
                                  hashed=False) as trajectory:
                recon = reverse.sample(*walk, sink=trajectory.append)
        else:
            recon = reverse.sample(*walk)
        clean = snaps[0]
    recon_sha256 = io.write_tensor(out / "recon.adet", recon)
    if args.plot:
        io.write_image(out / "recon.pgm", recon)
    print(f"max_abs_error={float(np.abs(recon - clean).max())!r}")
    return {"output.recon.adet": recon_sha256}


@command("spectrum", "radial energy spectrum and slope", [
    Param("in_path", str, REQUIRED, "PGM/PPM image or .adet tensor",
          flag="--in"),
    Param("fit_lo", int, None), Param("fit_hi", int, None)],
    out=False, switches=("plot",))
def cmd_spectrum(p, args, out):
    if args.plot and out is None:
        raise ValidationError("--plot needs --out")
    path = p["in_path"]
    if path.endswith(".adet"):
        with io.open_tensor(path) as tensor:
            stack = tensor[0] if tensor.ndim >= 3 else tensor.read()
    else:
        stack = io.read_image(path)[0]
    if 0 in stack.shape:  # before indexing: an empty axis has no entry 0
        raise ShapeMismatchError(f"tensor has an empty axis: {stack.shape}")
    field = stack[(0,) * (stack.ndim - 2)]  # first of every leading axis
    profile = analysis.radial_energy_spectrum(field)
    n = min(field.shape)
    lo, hi = analysis.default_fit_band(n, 2.0 * np.pi / n, np.pi * n)
    lo = lo if p["fit_lo"] is None else p["fit_lo"]
    hi = hi if p["fit_hi"] is None else p["fit_hi"]
    print(f"total_energy={profile.total!r} dc={profile.dc!r}")
    try:
        energy_fit = analysis.fit_loglog_slope(profile, (lo, hi))
        amp_fit = analysis.fit_amplitude_slope(profile, (lo, hi))
        print(f"band=[{lo},{hi}] energy_slope={energy_fit.slope!r} "
              f"amplitude_slope={amp_fit.slope!r}")
    except EngineError as exc:
        print(f"band=[{lo},{hi}] fit_skipped={exc}")
    if out is None:
        return {}
    rows = ["# m kappa energy count"] + [
        f"{m} {kappa!r} {energy!r} {count}" for m, kappa, energy, count in
        zip(profile.k_index, profile.kappa, profile.energy, profile.counts)]
    spectrum_sha256 = io.atomic_write_bytes(
        out / "spectrum.txt", ("\n".join(rows) + "\n").encode())
    if args.plot:
        f = np.fft.fftshift(np.abs(np.fft.fft2(field)))
        io.write_heatmap(out / "spectrum.pgm", np.log1p(f))
    return {"output.spectrum.txt": spectrum_sha256}


@command("audit", "mass-conservation report for a chain", [
    Param("chain_path", str, REQUIRED, "chain tensor", flag="--chain")])
def cmd_audit(p, args, out):
    with io.open_tensor(p["chain_path"]) as snaps:
        report = analysis.mass_audit(snaps)
    for k in range(report.totals.shape[0]):
        worst = float(np.fmax.reduce(report.drift[k]))  # NaN only if all are
        print(f"k={k} total={float(report.totals[k].sum())!r} drift={worst!r}")
    print(f"max_drift={report.max_drift!r}")
    return {}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ade",
        description="Lattice Boltzmann advection-diffusion corruption "
                    "chains with spectral turbulence.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--config", help="key=value file (flags override)")
        add_flags(sp, cmd.params)
        if cmd.out is not None:
            sp.add_argument("--out", required=cmd.out, help="output directory")
        for switch in cmd.switches:
            sp.add_argument(f"--{switch}", action="store_true",
                            help=_SWITCHES[switch])
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out) if getattr(args, "out", None) else None
    made: list[Path] = []  # the directories this run creates, deepest first
    try:
        cmd = COMMANDS[args.command]
        p = resolve(args.command, cmd.params, args,
                    (os.environ.get("ADE_CONFIG"), args.config))
        _check_bounds(p)
        if out is not None:
            made = [d for d in (out, *out.parents) if not d.exists()]
            out.mkdir(parents=True, exist_ok=True)
        lines = cmd.run(p, args, out)
        if out is not None:
            io.write_config(out / "manifest.txt",
                            manifest(args.command, p, lines))
        return 0
    except (EngineError, OSError) as exc:
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()  # succeeds only while it is empty
        message = str(exc).replace("\n", " ")
        print(f"ade: error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
