import gc
import hashlib
import os
import struct
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ade import cli, io, reverse
from ade.corruption import CorruptionChain
from ade.errors import PredictorTimeoutError
from ade.params import REQUIRED, resolve
from ade.rng import CounterRng
from ade.turbulence import TurbulenceGenerator, TurbulenceSpec

from conftest import SRC



def _stdout_value(proc, key):
    for line in proc.stdout.splitlines():
        for token in line.split():
            if token.startswith(key + "="):
                return token.split("=", 1)[1]
    raise AssertionError(f"{key}= not found in: {proc.stdout!r}")


@pytest.fixture(scope="module")
def corrupt_run(tmp_path_factory, run_ade):
    """One corrupt invocation reused by the replay and reverse tests."""
    root = tmp_path_factory.mktemp("cli")
    field = 0.3 + 0.4 * CounterRng(77, 0).uniforms(256).reshape(16, 16)
    io.write_image(root / "input.pgm", field[None], maxval=255)
    proc = run_ade(["corrupt", "--in", "input.pgm", "--out", "run1",
                    "--steps", "3", "--sigma-max", "2", "--pe", "0.05",
                    "--seed", "11"], cwd=root)
    assert proc.returncode == 0, proc.stderr
    return root


def test_corrupt_writes_chain_and_manifest(corrupt_run):
    chain = io.read_tensor(corrupt_run / "run1" / "chain.adet")
    assert chain.shape == (4, 1, 16, 16)
    manifest = io.read_config(corrupt_run / "run1" / "manifest.txt")
    assert manifest["command"] == "corrupt"
    assert manifest["seed"] == "11"
    assert manifest["output.chain.adet"] == io.file_sha256(
        corrupt_run / "run1" / "chain.adet")


def test_manifest_replay_is_byte_identical(corrupt_run, run_ade):
    proc = run_ade(["corrupt", "--config", "run1/manifest.txt",
                    "--out", "run2"], cwd=corrupt_run)
    assert proc.returncode == 0, proc.stderr
    assert (io.file_sha256(corrupt_run / "run1" / "chain.adet")
            == io.file_sha256(corrupt_run / "run2" / "chain.adet"))


# numpy's CPU dispatch targets below the default, each named by the
# features NPY_DISABLE_CPU_FEATURES turns off: AVX2 (no AVX-512), and the
# X86_V2 baseline (no AVX2 either)
_TARGETS = ("X86_V4 AVX512_ICL AVX512_SPR",
            "X86_V3 X86_V4 AVX512_ICL AVX512_SPR")


def _dispatched(features):
    """Whether numpy dispatches kernels for every one of `features` and
    this CPU has them, so disabling them changes the target."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        return False
    dispatch = getattr(umath, "__cpu_dispatch__", [])
    have = getattr(umath, "__cpu_features__", {})
    return all(name in dispatch and have.get(name) for name in
               features.split())


def test_a_still_chain_is_the_same_bits_on_every_dispatch_target(tmp_path,
                                                                 run_ade):
    # Pe 0 steps with +, x and copies alone, whose bits no SIMD target
    # changes; log, exp, power and tanh (Pe > 0, noise) may differ
    targets = [t for t in _TARGETS if _dispatched(t)]
    if not targets:
        pytest.skip("numpy dispatches no target below this CPU's default")
    _field_image(tmp_path / "a.pgm", 3, n=32)
    digests = set()
    for run, disabled in enumerate([None] + targets):
        env = {"NPY_DISABLE_CPU_FEATURES": disabled} if disabled else {}
        if disabled:
            # the variable took effect: the child has none of the features
            probe = subprocess.run(
                [sys.executable, "-c",
                 "from numpy._core import _multiarray_umath as m; "
                 f"print(any(m.__cpu_features__[n] for n in {disabled!r}"
                 ".split()))"],
                env={**os.environ, **env}, capture_output=True, text=True)
            assert probe.stdout.strip() == "False", probe.stderr
        proc = run_ade(["corrupt", "--in", "a.pgm", "--out", f"run{run}",
                        "--steps", "4", "--sigma-max", "4", "--pe", "0",
                        "--seed", "3"], cwd=tmp_path, env_extra=env)
        assert proc.returncode == 0, proc.stderr
        digests.add(io.file_sha256(tmp_path / f"run{run}" / "chain.adet"))
    assert len(digests) == 1


def test_config_can_come_from_the_environment(corrupt_run, run_ade):
    proc = run_ade(["corrupt", "--out", "run3"], cwd=corrupt_run,
                   env_extra={"ADE_CONFIG": "run1/manifest.txt"})
    assert proc.returncode == 0, proc.stderr
    assert (io.file_sha256(corrupt_run / "run1" / "chain.adet")
            == io.file_sha256(corrupt_run / "run3" / "chain.adet"))


def test_flags_override_the_config(corrupt_run, run_ade):
    proc = run_ade(["corrupt", "--config", "run1/manifest.txt",
                    "--out", "run4", "--seed", "12"], cwd=corrupt_run)
    assert proc.returncode == 0, proc.stderr
    assert (io.file_sha256(corrupt_run / "run1" / "chain.adet")
            != io.file_sha256(corrupt_run / "run4" / "chain.adet"))
    assert io.read_config(corrupt_run / "run4" / "manifest.txt")["seed"] == "12"


def test_reverse_oracle_reconstructs(corrupt_run, run_ade):
    proc = run_ade(["reverse", "--chain", "run1/chain.adet", "--out", "rev",
                    "--seed", "5", "--record", "--plot"], cwd=corrupt_run)
    assert proc.returncode == 0, proc.stderr
    assert float(_stdout_value(proc, "max_abs_error")) == 0.0
    recon = io.read_tensor(corrupt_run / "rev" / "recon.adet")
    chain = io.read_tensor(corrupt_run / "run1" / "chain.adet")
    assert np.array_equal(recon, chain[0])
    traj = io.read_tensor(corrupt_run / "rev" / "trajectory.adet")
    assert traj.shape == (4, 1, 16, 16)
    assert (corrupt_run / "rev" / "recon.pgm").exists()


def test_audit_reports_tiny_drift(corrupt_run, run_ade):
    proc = run_ade(["audit", "--chain", "run1/chain.adet"], cwd=corrupt_run)
    assert proc.returncode == 0, proc.stderr
    assert float(_stdout_value(proc, "max_drift")) < 1e-10
    # one line per snapshot plus the summary
    assert len(proc.stdout.splitlines()) == 5


def test_command_key_guards_against_wrong_replay(corrupt_run, run_ade):
    proc = run_ade(["reverse", "--config", "run1/manifest.txt",
                    "--out", "never"], cwd=corrupt_run)
    assert proc.returncode == 1
    assert proc.stderr.startswith("ade: error:")
    assert len(proc.stderr.strip().splitlines()) == 1


def test_schedule_prints_the_plan(tmp_path, run_ade):
    proc = run_ade(["schedule", "--length", "64", "--steps", "4",
                    "--sigma-min", "0.5", "--sigma-max", "4"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("k=")]
    assert len(lines) == 4
    assert "fo=" in lines[0] and "sigma=" in lines[0] and "tau=" in lines[0]
    # last level reaches the requested blur
    assert "sigma=4.0" in lines[-1]


def test_gen_velocity_and_spectrum(tmp_path, run_ade):
    proc = run_ade(["gen-velocity", "--size", "32", "--vel-steps", "2",
                    "--rms", "1e-4", "--seed", "3", "--out", "vel",
                    "--plot"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    fields = io.read_tensor(tmp_path / "vel" / "velocity.adet")
    assert fields.shape == (2, 2, 32, 32)
    assert (tmp_path / "vel" / "speed_0.pgm").exists()
    assert (tmp_path / "vel" / "speed_1.pgm").exists()
    assert float(_stdout_value(proc, "max_speed")) < 1e-3

    proc = run_ade(["spectrum", "--in", "vel/velocity.adet", "--out", "spec",
                    "--plot"], cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "total_energy=" in proc.stdout
    text = (tmp_path / "spec" / "spectrum.txt").read_text()
    assert text.startswith("# m kappa energy count")
    assert (tmp_path / "spec" / "spectrum.pgm").exists()


def test_usage_errors_exit_with_2(tmp_path, run_ade):
    assert run_ade([], cwd=tmp_path).returncode == 2
    assert run_ade(["frobnicate"], cwd=tmp_path).returncode == 2
    # --out is argparse-required for corrupt
    assert run_ade(["corrupt", "--in", "x.pgm"], cwd=tmp_path).returncode == 2


def test_runtime_errors_are_one_line_and_exit_1(tmp_path, run_ade):
    proc = run_ade(["corrupt", "--in", "missing.pgm", "--out", "d"],
                   cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("ade: error:")
    assert len(proc.stderr.strip().splitlines()) == 1
    proc = run_ade(["reverse", "--out", "d"], cwd=tmp_path)
    assert proc.returncode == 1
    assert "chain" in proc.stderr


# The tests below call ade.cli.main in-process: same exit codes, no
# interpreter start-up per command.
def _field_image(path, seed, n=16):
    field = 0.3 + 0.4 * CounterRng(seed, 0).uniforms(n * n).reshape(n, n)
    io.write_image(path, field[None], maxval=255)


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("ade: error:")
    assert len(err.strip().splitlines()) == 1
    return err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ADE_CONFIG", raising=False)
    return tmp_path


_TURB = ["--slope", "-1.5", "--dt-turb", "2e-4", "--sharpness", "2"]
# One case per artifact command: argv giving every table param a
# non-default value, the files that must replay byte for byte, and the
# params the case leaves out (Fo and sigma bounds exclude each other).
_ROUND_TRIPS = {
    "corrupt": (["corrupt", "--in", "a.pgm", "--steps", "3",
                 "--sigma-min", "0.7", "--sigma-max", "2", "--pe", "0.05",
                 "--tau-max", "0.9", "--cap", "2e-3", "--seed", "11",
                 "--precision", "f32"] + _TURB,
                ["chain.adet"], {"fo_min", "fo_max"}),
    "chain": (["chain", "--in-dir", "in", "--steps", "2",
               "--fo-min", "1e-3", "--fo-max", "4e-3", "--pe", "0.05",
               "--tau-max", "0.9", "--cap", "2e-3", "--seed", "4",
               "--precision", "f32", "--length", "20"]
              + _TURB,
              ["a_chain.adet", "b_chain.adet"], {"sigma_min", "sigma_max"}),
    "reverse": (["reverse", "--chain", "chain.adet", "--predictor", "zero",
                 "--sigma-s", "0.01", "--seed", "5", "--timeout", "3"],
                ["recon.adet"], set()),
    "gen-velocity": (["gen-velocity", "--size", "16", "--seed", "3",
                      "--vel-steps", "2", "--rms", "2e-4", "--cap", "2e-3"]
                     + _TURB,
                     ["velocity.adet"], set()),
    "spectrum": (["spectrum", "--in", "a.pgm", "--fit-lo", "1",
                  "--fit-hi", "5"],
                 ["spectrum.txt"], set()),
}


def _resolved(argv):
    args = cli.build_parser().parse_args(argv)
    return resolve(argv[0], cli.COMMANDS[argv[0]].params, args, [args.config])


@pytest.mark.parametrize("name", sorted(_ROUND_TRIPS))
def test_manifest_replays_every_param(workdir, name):
    argv, outputs, left_out = _ROUND_TRIPS[name]
    _field_image(workdir / "a.pgm", 1)
    (workdir / "in").mkdir()
    _field_image(workdir / "in" / "a.pgm", 2)
    _field_image(workdir / "in" / "b.pgm", 3)
    io.write_tensor(workdir / "chain.adet",
                    CounterRng(4, 0).uniforms(3 * 64).reshape(3, 1, 8, 8))
    replay = [name, "--config", "run1/manifest.txt", "--out", "run2"]
    resolved = _resolved(argv + ["--out", "x"])
    assert cli.main(argv + ["--out", "run1"]) == 0
    assert cli.main(replay) == 0
    assert _resolved(replay) == resolved
    first = io.read_config(workdir / "run1" / "manifest.txt")
    for q in cli.COMMANDS[name].params:
        if q.name not in left_out:
            assert q.type(first[q.name]) == resolved[q.name] != q.default
    assert io.read_config(workdir / "run2" / "manifest.txt") == first
    for out_name in outputs:
        assert ((workdir / "run1" / out_name).read_bytes()
                == (workdir / "run2" / out_name).read_bytes())
        assert first[f"output.{out_name}"] == io.file_sha256(
            workdir / "run1" / out_name)


# Written by `ade corrupt --in input.pgm --out run0 --steps 3
# --sigma-min 0.7 --sigma-max 2 --seed 11 --tau-max 0.9 --precision f32`
# in the earlier manifest format, which recorded the derived Fo bounds and
# every turbulence key instead of the params as given.
_OLD_CORRUPT_MANIFEST = """\
command=corrupt
in_path=input.pgm
steps=3
fo_min=0.0009570312499999999
fo_max=0.0078125
pe=0.0
tau_max=0.9
cap=0.001
seed=11
precision=f32
slope=-2.0
dt_turb=0.0001
sharpness=1.0
input_sha256=dedc568f52e93c100cf89eab8579567a7f29de7f337e26694c3b9f803cf69f23
output.chain.adet=999428d693b328672bed0b662811494484b13726a28d265d1aaada74ed43a0a0
"""

# Written by `ade chain --in-dir in --out run0 --steps 3 --sigma-max 2
# --pe 0.05 --seed 7 --precision f32` while `chain` still had a `workers`
# param; replay ignores the key.
_OLD_CHAIN_MANIFEST = """\
command=chain
steps=3
sigma_max=2.0
pe=0.05
tau_max=1.0
cap=0.001
slope=-2.0
dt_turb=0.0001
sharpness=1.0
in_dir=in
seed=7
precision=f32
workers=1
output.a_chain.adet=84be7cc8b2c703ca5878749031f2a85d8151562b98d4764b0cdd09ddf25215d4
output.b_chain.adet=f4434d88439ac2bf6ae6c7dd7ff5c314d855b3c3c3593f242e2f3310c41c8514
"""


def test_old_corrupt_manifest_still_replays(workdir):
    field = 0.3 + 0.4 * CounterRng(77, 0).uniforms(256).reshape(16, 16)
    io.write_image(workdir / "input.pgm", field[None], maxval=255)
    (workdir / "old.txt").write_text(_OLD_CORRUPT_MANIFEST)
    old = io.read_config(workdir / "old.txt")
    assert io.file_sha256(workdir / "input.pgm") == old["input_sha256"]
    assert cli.main(["corrupt", "--config", "old.txt", "--out", "run"]) == 0
    assert (io.file_sha256(workdir / "run" / "chain.adet")
            == old["output.chain.adet"])

    (workdir / "in").mkdir()
    _field_image(workdir / "in" / "a.pgm", 21)
    _field_image(workdir / "in" / "b.pgm", 22)
    (workdir / "old_chain.txt").write_text(_OLD_CHAIN_MANIFEST)
    old = io.read_config(workdir / "old_chain.txt")
    assert cli.main(["chain", "--config", "old_chain.txt",
                     "--out", "run_chain"]) == 0
    for name in ("a_chain.adet", "b_chain.adet"):
        assert (io.file_sha256(workdir / "run_chain" / name)
                == old[f"output.{name}"])


def test_chain_skips_an_unreadable_first_image(workdir, capsys):
    (workdir / "in").mkdir()
    (workdir / "in" / "a.pgm").write_bytes(b"not an image")
    _field_image(workdir / "in" / "b.pgm", 11, n=12)
    _field_image(workdir / "in" / "c.pgm", 12, n=12)
    assert cli.main(["chain", "--in-dir", "in", "--out", "out",
                     "--steps", "2", "--seed", "3"]) == 0
    assert "error a.pgm:" in capsys.readouterr().err
    assert sorted(p.name for p in (workdir / "out").glob("*_chain.adet")) == [
        "b_chain.adet", "c_chain.adet"]
    manifest = io.read_config(workdir / "out" / "manifest.txt")
    assert manifest["command"] == "chain"
    assert manifest["seed"] == "3"
    assert "error.a.pgm" in manifest
    assert manifest["output.b_chain.adet"] == io.file_sha256(
        workdir / "out" / "b_chain.adet")
    assert "output.c_chain.adet" in manifest


@pytest.mark.parametrize("argv", [["corrupt", "--in", "a.pgm"],
                                  ["chain", "--in-dir", "in"]],
                         ids=["corrupt", "chain"])
def test_bound_errors_leave_no_out_dir(workdir, capsys, argv):
    _field_image(workdir / "a.pgm", 1)
    (workdir / "in").mkdir()
    _field_image(workdir / "in" / "a.pgm", 2)
    for bad, message in (
            (["--fo-min", "1e-3", "--fo-max", "2e-3", "--sigma-max", "2"],
             "not both"),
            (["--fo-min", "1e-3"], "need both")):
        assert cli.main(argv + ["--out", "o"] + bad) == 1
        assert message in _one_error_line(capsys)
        assert not (workdir / "o").exists()


def test_failed_runs_leave_no_out_dir(workdir, capsys):
    assert cli.main(["corrupt", "--in", "missing.pgm", "--out", "o1"]) == 1
    _one_error_line(capsys)
    assert not (workdir / "o1").exists()
    assert cli.main(["corrupt", "--in", "missing.pgm", "--out", "p/o"]) == 1
    _one_error_line(capsys)
    assert not (workdir / "p").exists()
    (workdir / "in").mkdir()
    (workdir / "in" / "a.pgm").write_bytes(b"not an image")
    assert cli.main(["chain", "--in-dir", "in", "--out", "o2"]) == 1
    assert "no readable images" in _one_error_line(capsys)
    assert not (workdir / "o2").exists()


def test_failed_run_keeps_an_existing_out_dir(workdir, capsys):
    (workdir / "o").mkdir()
    assert cli.main(["corrupt", "--in", "missing.pgm", "--out", "o"]) == 1
    _one_error_line(capsys)
    assert (workdir / "o").is_dir()


def test_overflowing_tensor_header_is_one_error_line(workdir, capsys):
    # dims (2**32, 2**32) multiply to 0 in int64: an empty payload
    header = io.MAGIC + struct.pack("<IBI", io.VERSION, 1, 2)
    (workdir / "big.adet").write_bytes(
        header + struct.pack("<2Q", 2**32, 2**32))
    assert cli.main(["audit", "--chain", "big.adet"]) == 1
    assert "FormatError" in _one_error_line(capsys)


@pytest.mark.parametrize("dims", [(0, 2**63), (2**62, 0, 2**62)],
                         ids=["dim_past_intp", "nonzero_product_past_intp"])
def test_unrepresentable_empty_tensor_is_one_error_line(workdir, capsys,
                                                        dims):
    # a zero dim makes the payload size check pass; numpy still refuses
    header = io.MAGIC + struct.pack("<IBI", io.VERSION, 1, len(dims))
    (workdir / "big.adet").write_bytes(
        header + struct.pack(f"<{len(dims)}Q", *dims))
    assert cli.main(["audit", "--chain", "big.adet"]) == 1
    assert "FormatError" in _one_error_line(capsys)


def test_a_failed_write_leaves_no_out_dir(workdir, capsys, monkeypatch):
    _field_image(workdir / "a.pgm", 1)

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(io.os, "replace", fail)
    assert cli.main(["corrupt", "--in", "a.pgm", "--out", "o",
                     "--steps", "2"]) == 1
    assert "disk full" in _one_error_line(capsys)
    assert not (workdir / "o").exists()


# Written by `ade reverse --chain chain.adet --predictor oracle --sigma-s
# 0.01 --seed 5 --record --out run0` on the chain the test below makes,
# with the trajectory's sha256 taken from the same run.
_OLD_REVERSE_MANIFEST = """\
command=reverse
chain_path=chain.adet
predictor=oracle
sigma_s=0.01
seed=5
timeout=30.0
output.recon.adet=a1ab2abf6401570e2941eb662921e537d56c5e0bbbb72eb908415cd953413182
"""
_OLD_CHAIN_SHA256 = (
    "605b421859e9ebcdab1c9c5ce6968ba5cd916d2da6570638e2d60430dbf49eb1")
_OLD_TRAJECTORY_SHA256 = (
    "f33ec6d440d38fd38441c849f360ad13ae38cc67ddb3e4f33071414752987e2e")


def test_old_reverse_manifest_replays_byte_for_byte(workdir):
    snaps = CounterRng(8, 0).uniforms(5 * 256).reshape(5, 16, 16)
    io.write_tensor(workdir / "chain.adet", snaps.astype(np.float32))
    assert io.file_sha256(workdir / "chain.adet") == _OLD_CHAIN_SHA256
    (workdir / "old.txt").write_text(_OLD_REVERSE_MANIFEST)
    assert cli.main(["reverse", "--config", "old.txt", "--out", "run",
                     "--record"]) == 0
    old = io.read_config(workdir / "old.txt")
    assert (io.file_sha256(workdir / "run" / "recon.adet")
            == old["output.recon.adet"])
    assert (io.file_sha256(workdir / "run" / "trajectory.adet")
            == _OLD_TRAJECTORY_SHA256)
    assert io.read_config(workdir / "run" / "manifest.txt") == old


def test_non_utf8_config_is_one_error_line(workdir, capsys):
    (workdir / "bad.cfg").write_bytes(b"seed=1\nsteps=\xff\n")
    assert cli.main(["corrupt", "--config", "bad.cfg", "--out", "d"]) == 1
    err = _one_error_line(capsys)
    assert "FormatError" in err and "(byte 13)" in err


def _reverse_chain(path, dtype, shape=(5, 2, 12, 12), seed=31):
    snaps = CounterRng(seed, 0).uniforms(int(np.prod(shape))).reshape(shape)
    io.write_tensor(path, snaps.astype(dtype))
    return io.read_tensor(path)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("name", ["oracle", "zero"])
def test_streamed_reverse_writes_the_bytes_of_the_recorded_walk(
        workdir, name, dtype):
    snaps = _reverse_chain(workdir / "chain.adet", dtype)
    predictor = (reverse.OraclePredictor(CorruptionChain(snaps))
                 if name == "oracle" else reverse.ZeroPredictor())
    states = []
    recon = reverse.sample(snaps[-1], predictor, 4, 0.02, CounterRng(6, 0),
                           sink=states.append)
    io.write_tensor(workdir / "recon.adet", recon)
    io.write_tensor(workdir / "trajectory.adet", np.stack(states))
    flags = ["--chain", "chain.adet", "--predictor", name, "--sigma-s",
             "0.02", "--seed", "6"]
    assert cli.main(["reverse", *flags, "--out", "rec", "--record"]) == 0
    assert cli.main(["reverse", *flags, "--out", "plain"]) == 0
    for run, names in (("rec", ("recon.adet", "trajectory.adet")),
                       ("plain", ("recon.adet",))):
        for file in names:
            assert ((workdir / run / file).read_bytes()
                    == (workdir / file).read_bytes()), (run, file)
    assert not (workdir / "plain" / "trajectory.adet").exists()


def test_recorded_reverse_holds_one_snapshot_not_the_chain(workdir):
    # K = 64 levels of 3x64x64 float64: a 6.1 MiB payload
    _reverse_chain(workdir / "chain.adet", np.float64, (65, 3, 64, 64))
    payload = 65 * 3 * 64 * 64 * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(["reverse", "--chain", "chain.adet", "--out", "o",
                         "--record"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < payload / 4
    # header: magic, version, dtype, ndim and four dims
    assert ((workdir / "o" / "trajectory.adet").stat().st_size
            == 13 + 8 * 4 + payload)


def test_streamed_corrupt_holds_one_snapshot_not_the_chain(workdir):
    # K = 16 levels of 1x128x128 float64: a 2.2 MB payload, against 2.4 MB
    # of populations; neither the chain nor a velocity table is held
    _field_image(workdir / "a.pgm", 5, n=128)
    argv = ["corrupt", "--in", "a.pgm", "--steps", "16", "--sigma-max", "8"]
    assert cli.main(argv + ["--out", "warm"]) == 0  # first-use imports
    payload = 17 * 128 * 128 * 8
    populations = 2 * 9 * 128 * 128 * 8
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv + ["--out", "o"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < populations + payload / 4
    assert ((workdir / "o" / "chain.adet").stat().st_size
            == 13 + 8 * 4 + payload)


@pytest.mark.parametrize("precision", ["f32", "f64"])
def test_corrupt_plot_writes_every_snapshot(workdir, precision):
    field = CounterRng(6, 0).uniforms(3 * 12 * 12).reshape(3, 12, 12)
    io.write_image(workdir / "a.ppm", field)
    assert cli.main(["corrupt", "--in", "a.ppm", "--out", "o", "--steps",
                     "3", "--pe", "0.1", "--precision", precision,
                     "--plot"]) == 0
    chain = io.read_tensor(workdir / "o" / "chain.adet")
    assert chain.shape == (4, 3, 12, 12)
    assert sorted(p.name for p in (workdir / "o").glob("*.pgm")) == [
        f"snapshot_{k}.pgm" for k in range(4)]
    for k, snap in enumerate(chain):
        io.write_image(workdir / "expect.pgm", snap)
        assert ((workdir / "o" / f"snapshot_{k}.pgm").read_bytes()
                == (workdir / "expect.pgm").read_bytes()), k


def test_streamed_gen_velocity_holds_one_step_not_the_fields(workdir):
    # 32 steps of 2x128x128 float64: an 8.4 MB payload
    argv = ["gen-velocity", "--size", "128", "--vel-steps", "32"]
    assert cli.main(argv + ["--out", "warm"]) == 0  # first-use imports
    payload = 32 * 2 * 128 * 128 * 8
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv + ["--out", "o"]) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < payload / 2
    assert ((workdir / "o" / "velocity.adet").stat().st_size
            == 13 + 8 * 4 + payload)


def test_gen_velocity_writes_the_stacked_fields(workdir, capsys):
    assert cli.main(["gen-velocity", "--size", "24", "--vel-steps", "3",
                     "--rms", "2e-4", "--seed", "5", "--out", "o",
                     "--plot"]) == 0
    # the fields and speeds as one stack, written whole
    gen = TurbulenceGenerator(TurbulenceSpec(size=24), 5)
    fields = np.stack([np.stack(gen.generate(t, 2e-4)) for t in range(3)])
    speed = np.sqrt(fields[:, 0] ** 2 + fields[:, 1] ** 2)
    io.write_tensor(workdir / "expect.adet", fields)
    assert ((workdir / "o" / "velocity.adet").read_bytes()
            == (workdir / "expect.adet").read_bytes())
    assert capsys.readouterr().out == (
        f"velocity.adet shape=(3, 2, 24, 24) "
        f"max_speed={float(speed.max())!r}\n")
    for t in range(3):
        io.write_heatmap(workdir / "expect.pgm", speed[t])
        assert ((workdir / "o" / f"speed_{t}.pgm").read_bytes()
                == (workdir / "expect.pgm").read_bytes()), t
    assert cli.main(["gen-velocity", "--size", "24", "--vel-steps", "0",
                     "--out", "none"]) == 1
    assert "vel_steps must be >= 1" in _one_error_line(capsys)
    assert not (workdir / "none").exists()


@pytest.mark.parametrize("argv", [["corrupt", "--in", "a.pgm", "--plot"],
                                  ["chain", "--in-dir", "in"]],
                         ids=["corrupt", "chain"])
def test_a_chain_that_fails_midway_leaves_no_file(workdir, capsys,
                                                  monkeypatch, argv):
    _field_image(workdir / "a.pgm", 1)
    (workdir / "in").mkdir()
    _field_image(workdir / "in" / "a.pgm", 2)
    real = io.TensorWriter.append

    def fail_at_level_2(self, row):
        if self.count == 2:
            raise OSError("disk full")
        real(self, row)
    monkeypatch.setattr(io.TensorWriter, "append", fail_at_level_2)
    assert cli.main(argv + ["--out", "o", "--steps", "3"]) == 1
    assert "disk full" in _one_error_line(capsys)
    assert not (workdir / "o").exists()
    (workdir / "o").mkdir()
    assert cli.main(argv + ["--out", "o", "--steps", "3"]) == 1
    assert "disk full" in _one_error_line(capsys)
    assert list((workdir / "o").iterdir()) == []


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_dataset_that_fails_at_image_2_publishes_image_1_alone(
        workdir, capsys, monkeypatch, cpus, workers):
    (workdir / "in").mkdir()
    for i, name in enumerate("abcd"):
        _field_image(workdir / "in" / f"{name}.pgm", 70 + i, n=12)
    (workdir / "o").mkdir()
    (workdir / "o" / "c_chain.adet").write_bytes(b"an earlier run")
    failing = io.read_image(workdir / "in" / "b.pgm")[0]
    real = io.TensorWriter.append

    def fail_at_image_2(self, row):
        if self.count == 0 and np.array_equal(row, failing):
            raise OSError("disk full")
        real(self, row)
    monkeypatch.setattr(io.TensorWriter, "append", fail_at_image_2)
    cpus(workers)
    assert cli.main(["chain", "--in-dir", "in", "--out", "o", "--steps", "2",
                     "--pe", "0.1"]) == 1
    assert "OSError: disk full" in _one_error_line(capsys)
    assert sorted(p.name for p in (workdir / "o").iterdir()) == [
        "a_chain.adet", "c_chain.adet"]
    assert (workdir / "o" / "c_chain.adet").read_bytes() == b"an earlier run"
    assert io.read_tensor(workdir / "o" / "a_chain.adet").shape[1:] == (
        1, 12, 12)
    assert list(workdir.rglob(".stage-*")) == []
    assert list(workdir.rglob("*.tmp")) == []
    with pytest.raises(ChildProcessError):  # no child left
        os.waitpid(-1, os.WNOHANG)


def test_a_chain_name_taken_twice_is_an_error_line(workdir, capsys):
    (workdir / "in").mkdir()
    _field_image(workdir / "in" / "a.PGM", 81, n=12)
    _field_image(workdir / "in" / "a.pgm", 82, n=12)
    _field_image(workdir / "in" / "b.pgm", 83, n=12)
    assert cli.main(["chain", "--in-dir", "in", "--out", "o",
                     "--steps", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("written=2 errors=1 ")
    assert captured.err == ("error a.pgm: chain name a_chain.adet already "
                            "taken by a.PGM\n")
    manifest = io.read_config(workdir / "o" / "manifest.txt")
    assert list(manifest)[-3:] == ["output.a_chain.adet",
                                   "output.b_chain.adet", "error.a.pgm"]
    assert manifest["error.a.pgm"] == (
        "chain name a_chain.adet already taken by a.PGM")
    chain = io.read_tensor(workdir / "o" / "a_chain.adet")
    assert np.array_equal(chain[0], io.read_image(workdir / "in" / "a.PGM")[0])


def _sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_corrupt_names_the_input_bytes_it_chained(workdir, monkeypatch):
    _field_image(workdir / "a.pgm", 51)
    original = (workdir / "a.pgm").read_bytes()
    argv = ["corrupt", "--in", "a.pgm", "--steps", "2", "--pe", "0.1"]
    assert cli.main(argv + ["--out", "clean"]) == 0
    real = cli.forward_chain

    def rewrite_the_input(*args, **kwargs):
        _field_image(workdir / "a.pgm", 52)
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "forward_chain", rewrite_the_input)
    assert cli.main(argv + ["--out", "run"]) == 0
    assert (workdir / "a.pgm").read_bytes() != original
    manifest = io.read_config(workdir / "run" / "manifest.txt")
    assert manifest["input_sha256"] == hashlib.sha256(original).hexdigest()
    for name in ("chain.adet", "manifest.txt"):
        assert ((workdir / "run" / name).read_bytes()
                == (workdir / "clean" / name).read_bytes())


def test_no_command_reads_its_own_output_back_to_hash_it(workdir,
                                                         monkeypatch, cpus):
    # each file_sha256 call, a forked chain child's too, is logged to a
    # file outside every --out
    log = workdir / "hashed.log"
    real = io.file_sha256

    def logged(path):
        with open(log, "a") as f:
            f.write(f"{Path(path).resolve()}\n")
        return real(path)
    monkeypatch.setattr(io, "file_sha256", logged)
    cpus(2)
    _field_image(workdir / "a.pgm", 61)
    (workdir / "in").mkdir()
    for i, name in enumerate("abc"):
        _field_image(workdir / "in" / f"{name}.pgm", 62 + i, n=12)
    runs = {"corrupt": ["corrupt", "--in", "a.pgm", "--steps", "2",
                        "--pe", "0.1"],
            "chain": ["chain", "--in-dir", "in", "--steps", "2",
                      "--pe", "0.1"],
            "reverse": ["reverse", "--chain", "corrupt/chain.adet",
                        "--record"],
            "velocity": ["gen-velocity", "--size", "16", "--vel-steps", "2"],
            "spectrum": ["spectrum", "--in", "a.pgm"]}
    for out, argv in runs.items():
        assert cli.main(argv + ["--out", out]) == 0
        manifest = io.read_config(workdir / out / "manifest.txt")
        outputs = {key.split(".", 1)[1]: sha for key, sha in manifest.items()
                   if key.startswith("output.")}
        assert outputs, out
        for name, sha in outputs.items():
            assert sha == _sha256_of(workdir / out / name), (out, name)
    assert (io.read_config(workdir / "corrupt" / "manifest.txt")
            ["input_sha256"] == _sha256_of(workdir / "a.pgm"))
    hashed = log.read_text().split() if log.exists() else []
    assert [path for path in hashed if any(
        Path(path).is_relative_to(workdir.resolve() / out)
        for out in runs)] == []


def test_chain_with_piped_stdout_prints_one_summary_line(tmp_path, run_ade):
    (tmp_path / "in").mkdir()
    for i, name in enumerate("abc"):
        _field_image(tmp_path / "in" / f"{name}.pgm", 90 + i, n=12)
    proc = run_ade(["chain", "--in-dir", "in", "--out", "o", "--steps", "2",
                    "--pe", "0.1"], cwd=tmp_path,
                   env_extra={"PYTHONUNBUFFERED": ""})  # block-buffered
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines()
            if line.startswith("written=")] == [proc.stdout.strip()]
    assert proc.stdout.startswith("written=3 errors=0 ")


@pytest.mark.parametrize("sharpness", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["gen-velocity", "--size", "16"],
    ["corrupt", "--in", "a.pgm", "--pe", "0.1", "--steps", "2"],
    ["chain", "--in-dir", "in", "--pe", "0.1", "--steps", "2"]],
    ids=["gen-velocity", "corrupt", "chain"])
def test_a_sharpness_that_is_not_positive_is_one_error_line(
        workdir, capsys, argv, sharpness):
    _field_image(workdir / "a.pgm", 1, n=12)
    (workdir / "in").mkdir()
    _field_image(workdir / "in" / "a.pgm", 2, n=12)
    assert cli.main(argv + ["--sharpness", sharpness, "--out", "o"]) == 1
    err = _one_error_line(capsys)
    assert err.startswith("ade: error: ValidationError: sharpness must be "
                          "positive")
    assert not (workdir / "o").exists()


def test_a_chain_truncated_after_its_header_is_one_error_line(tmp_path,
                                                              run_ade):
    header = io.MAGIC + struct.pack("<IBI", io.VERSION, 1, 4)
    (tmp_path / "chain.adet").write_bytes(
        header + struct.pack("<4Q", 3, 1, 8, 8))
    proc = run_ade(["reverse", "--chain", "chain.adet", "--out", "o",
                    "--record"], cwd=tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("ade: error: FormatError:")
    assert len(proc.stderr.strip().splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("shape", [(1, 4, 4), (3, 0, 4, 4), (3, 4, 0)])
def test_reverse_rejects_a_chain_without_a_step_or_a_field(workdir, capsys,
                                                            shape):
    io.write_tensor(workdir / "chain.adet", np.zeros(shape))
    assert cli.main(["reverse", "--chain", "chain.adet", "--out", "o",
                     "--record"]) == 1
    assert "ValidationError" in _one_error_line(capsys)
    assert not (workdir / "o").exists()


@pytest.mark.parametrize("shape", [(2, 0, 4, 4), (0, 5), (3, 4, 0),
                                   (2, 3, 0, 4)])
def test_spectrum_rejects_a_tensor_with_an_empty_axis(workdir, capsys,
                                                      shape):
    io.write_tensor(workdir / "x.adet", np.zeros(shape))
    assert cli.main(["spectrum", "--in", "x.adet"]) == 1
    assert _one_error_line(capsys).startswith(
        "ade: error: ShapeMismatchError")


def test_a_walk_that_fails_midway_leaves_no_trajectory(workdir, capsys,
                                                       monkeypatch):
    _reverse_chain(workdir / "chain.adet", np.float64)
    real = reverse.OraclePredictor.predict

    def fail_at_level_2(self, u_hat, k):
        if k == 2:
            raise PredictorTimeoutError("partner went away")
        return real(self, u_hat, k)
    monkeypatch.setattr(reverse.OraclePredictor, "predict", fail_at_level_2)
    (workdir / "o").mkdir()
    assert cli.main(["reverse", "--chain", "chain.adet", "--out", "o",
                     "--record"]) == 1
    assert "partner went away" in _one_error_line(capsys)
    assert list((workdir / "o").iterdir()) == []


_FLOAT_PARAMS = [(name, q) for name, cmd in sorted(cli.COMMANDS.items())
                 for q in cmd.params if q.type is float]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("name, q", _FLOAT_PARAMS,
                         ids=[f"{n}-{q.name}" for n, q in _FLOAT_PARAMS])
def test_a_non_finite_float_param_is_one_error_line(workdir, capsys, name,
                                                    q, value):
    cmd = cli.COMMANDS[name]
    argv = [name]
    for r in cmd.params:  # required params need only get through parsing
        if r.default is REQUIRED:
            argv += [r.option, "8" if r.type is int else "missing"]
    if cmd.out is not None:
        argv += ["--out", "o/deep"]
    (workdir / "bad.cfg").write_text(f"{q.name}={value}\n")
    for source in ([q.option, value], ["--config", "bad.cfg"]):
        assert cli.main(argv + source) == 1
        assert _one_error_line(capsys).startswith(
            f"ade: error: ValidationError: {q.name} must be finite")
        assert not (workdir / "o").exists()


def test_spectrum_plot_needs_out(workdir, capsys):
    # the input does not exist: the check comes before it is read
    assert cli.main(["spectrum", "--in", "missing.pgm", "--plot"]) == 1
    assert _one_error_line(capsys) == (
        "ade: error: ValidationError: --plot needs --out\n")


@pytest.mark.parametrize("timeout", ["0", "-1"])
def test_reverse_needs_a_positive_timeout(workdir, capsys, timeout):
    _reverse_chain(workdir / "chain.adet", np.float64)
    assert cli.main(["reverse", "--chain", "chain.adet", "--out", "r",
                     "--predictor", "extern:ext", "--timeout", timeout]) == 1
    assert _one_error_line(capsys).startswith(
        "ade: error: ValidationError: timeout must be > 0")
    assert not (workdir / "r").exists()
    assert not (workdir / "ext").exists()


# runs the CLI with two chain processes (the command and one child) and
# every normal draw split across two threads, even on one CPU and for a
# small draw
_FORKING_ADE = (
    "import sys\n"
    "from ade import cli, procs, rng\n"
    "procs._cpus = lambda: 2\n"
    "rng._SPLIT_MIN_VALUES = 0\n"
    "sys.exit(cli.main(sys.argv[1:]))\n")


def _children(pid):
    kids = set()
    for task in Path(f"/proc/{pid}/task").iterdir():
        kids.update(int(c) for c in (task / "children").read_text().split())
    return kids


def _gone_or_zombie(pid):
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _kill_mid_run(argv, cwd, ready, children):
    """Start `ade argv`, wait until `ready()` holds and the command has
    `children` child processes, SIGKILL the command and require each child
    to be gone or a zombie within 2 s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.Popen([sys.executable, "-c", _FORKING_ADE, *argv],
                            cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while not (ready() and len(kids := _children(proc.pid)) == children):
            assert proc.poll() is None, "the command ended before the kill"
            assert time.monotonic() < deadline, "no children to watch"
            time.sleep(0.01)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 2.0
        while not all(_gone_or_zombie(pid) for pid in kids):
            assert time.monotonic() < deadline, "a child outlived its parent"
            time.sleep(0.01)
    finally:
        proc.kill()
        proc.wait()


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc")
def test_chain_workers_die_with_a_killed_parent(workdir):
    (workdir / "in").mkdir()
    for i in range(4):
        rgb = CounterRng(90 + i, 0).uniforms(3 * 128 * 128)
        io.write_image(workdir / "in" / f"im{i}.ppm",
                       rgb.reshape(3, 128, 128))
    # min(2 CPUs, 4 images) processes: the command and one child
    _kill_mid_run(["chain", "--in-dir", "in", "--out", "out", "--pe", "1"],
                  workdir, ready=lambda: True, children=1)


def test_chain_forks_its_workers_without_a_process_pool(tmp_path):
    (tmp_path / "in").mkdir()
    for i, name in enumerate("ab"):
        _field_image(tmp_path / "in" / f"{name}.pgm", 95 + i, n=12)
    script = _FORKING_ADE.replace(
        "sys.exit(cli.main(sys.argv[1:]))\n",
        "code = cli.main(sys.argv[1:])\n"
        "print(sorted({'concurrent.futures', 'multiprocessing'}\n"
        "             & set(sys.modules)))\n"
        "sys.exit(code)\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script, "chain", "--in-dir",
                           "in", "--out", "o", "--steps", "2", "--pe", "0.1"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("written=2 errors=0 ")
    assert proc.stdout.splitlines()[-1] == "[]"
