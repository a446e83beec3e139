"""Tests of the benchmark itself: its output checks catch corrupted outputs,
and its tracer counts exactly and puts the engine back as it found it.

Run from the root of the repository:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import ade.cli  # noqa: E402
import ade.lattice  # noqa: E402

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

K = 4


def write_adet(path: Path, array: np.ndarray) -> None:
    path.write_bytes(checks.adet_header(array.shape)
                     + array.astype("<f8").tobytes())


@pytest.fixture
def chain_files(tmp_path):
    """A valid 3-channel chain: every snapshot is the input, so mass is
    exactly conserved."""
    pixels = np.random.default_rng(0).integers(0, 256, (8, 8, 3),
                                               dtype=np.uint8)
    image = tmp_path / "im.ppm"
    image.write_bytes(checks.pnm_bytes(pixels))
    snaps = np.repeat(checks.read_pnm(image)[None], K + 1, axis=0)
    chain = tmp_path / "chain.adet"
    write_adet(chain, snaps)
    return chain, image, snaps


def test_valid_chain_passes(chain_files):
    chain, image, _ = chain_files
    assert checks.chain_problems(chain, image, K) == []


@pytest.mark.parametrize("corrupt, expected", [
    (lambda s: s.__setitem__((0, 1, 2, 3), s[0, 1, 2, 3] + 1e-3),
     "snapshot 0 differs"),
    (lambda s: s.__setitem__((2, 0, 0, 0), np.nan), "non-finite"),
    (lambda s: s.__setitem__(3, s[3] * 1.001), "mass drift"),
])
def test_corrupted_chain_fails(chain_files, corrupt, expected):
    chain, image, snaps = chain_files
    corrupt(snaps)
    write_adet(chain, snaps)
    problems = checks.chain_problems(chain, image, K)
    assert any(expected in p for p in problems), problems


def test_flipped_byte_fails(chain_files):
    chain, image, _ = chain_files
    blob = bytearray(chain.read_bytes())
    blob[len(checks.adet_header((K + 1, 3, 8, 8))) + 5] ^= 0x10
    chain.write_bytes(bytes(blob))
    assert checks.chain_problems(chain, image, K)


def test_truncated_or_misshapen_chain_fails(chain_files):
    chain, image, snaps = chain_files
    assert checks.chain_problems(chain, image, K + 1)
    chain.write_bytes(chain.read_bytes()[:-8])
    assert checks.chain_problems(chain, image, K)


def test_reverse_checks(tmp_path, chain_files):
    chain, _, snaps = chain_files
    recon, traj = tmp_path / "recon.adet", tmp_path / "trajectory.adet"
    walk = np.concatenate([snaps[::-1][:-1], snaps[:1] + 1e-15])
    write_adet(recon, walk[-1])
    write_adet(traj, walk)
    assert checks.reverse_problems(chain, recon, traj, K) == []

    write_adet(recon, walk[-1] + 1e-9)
    assert any("recon error" in p
               for p in checks.reverse_problems(chain, recon, traj, K))
    write_adet(recon, walk[-1])
    walk[0, 0, 0, 0] += 1.0
    write_adet(traj, walk)
    assert any("prior" in p
               for p in checks.reverse_problems(chain, recon, traj, K))


def test_pins_and_digest_catch_a_changed_output(tmp_path, chain_files):
    chain, image, _ = chain_files
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(chain, out / "chain.adet")
    job = {"chains": {"chain.adet": str(image)},
           "pins": {"sha256": {"chain.adet": checks.file_sha256(chain)},
                    "norms": {"chain.adet": checks.channel_norms(chain)}}}
    problems, digest = checks.check_command(job, out, K)
    assert problems == [] and digest

    snaps = checks.read_adet(chain)
    snaps[2, 0, 0, 0] += 1e-6  # moves mass within a channel, so the
    snaps[2, 0, 0, 1] -= 1e-6  # chain checks still pass
    write_adet(out / "chain.adet", snaps)
    problems, digest_after = checks.check_command(job, out, K)
    assert any("sha256" in p for p in problems)
    assert any("norms" in p for p in problems)
    assert digest_after is None  # a failed pin fails the command
    assert checks.outputs_sha256([out / "chain.adet"]) != digest


def test_tail_percentile_has_ten_commands_beyond():
    for n in range(run.MIN_COMMANDS, 3 * run.MIN_COMMANDS):
        times = [float(i) for i in range(n)]
        assert n - 1 - run.percentile(times, run.TAIL_PCT) >= 10
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0


def _corrupt_small(tmp_path) -> list[str]:
    pixels = np.random.default_rng(1).integers(0, 256, (16, 16),
                                               dtype=np.uint8)
    (tmp_path / "im.pgm").write_bytes(checks.pnm_bytes(pixels))
    return ["corrupt", "--in", str(tmp_path / "im.pgm"), "--out",
            str(tmp_path / "out"), "--steps", "2", "--sigma-max", "1"]


def test_tracer_counts_exactly_and_restores(tmp_path):
    argv = _corrupt_small(tmp_path)
    original = ade.lattice.collide
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert ade.lattice.collide is not original
        assert ade.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert ade.lattice.collide is original
    assert tracer.absent == []

    ids = {span[0]: span for span in tracer.spans}
    for _, parent, name, _, start, end, self_s, _ in tracer.spans:
        assert 0.0 <= self_s <= end - start
        assert (parent is None) == (name == "cli.main")
        if parent is not None:
            assert ids[parent][4] <= start and end <= ids[parent][5]

    summary = tracer.summary()
    steps = summary["names"]["lattice.collide"]["calls"]
    wall = summary["names"]["cli.main"]["dur"]
    metrics = layertrace.layer_metrics(summary, 1, wall, 1.0)
    assert metrics["lattice.node_steps"] == 16 * 16 * steps
    assert metrics["lattice.calls"] == 3 * steps
    assert metrics["turbulence.calls"] == 0
    # cli.main is the root, so the layers below it and its own self time
    # make up its whole duration.
    assert metrics["trace.covered_share"] + metrics["cli.share"] == (
        pytest.approx(1.0))
    assert 0.0 < metrics["trace.covered_share"] < 1.0
    assert set(metrics) == set(layertrace.UNITS)


def test_missing_attribute_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(ade.lattice, "collide")
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["lattice.collide"]
    metrics = layertrace.layer_metrics(tracer.summary(), 1, 1.0, 1.0)
    assert "lattice.collide_ns_per_node_step" not in metrics
    assert "lattice.calls" not in metrics
    assert "reverse.self_s" in metrics


def test_fails_without_the_engine(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: exit nonzero, print
    no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         "corrupt_gray256_still", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _short_run(monkeypatch, capsys, *flags) -> dict:
    """run.main on the corrupt workload with two commands and one set-up;
    its JSON result."""
    monkeypatch.setattr(run, "MIN_COMMANDS", 2)
    monkeypatch.setattr(run, "SETUPS", 1)
    assert run.main(["--workload", "corrupt_gray256_still", "--seconds", "0",
                     *flags]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_short_run_is_correct(monkeypatch, capsys):
    result = _short_run(monkeypatch, capsys, "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 2
    assert set(result["metrics"]) == set(layertrace.UNITS)


def test_wrong_pin_fails_the_run(monkeypatch, capsys):
    monkeypatch.setattr(run, "pins_for", lambda name, seed: {
        "sha256": {"chain.adet": "0" * 64}})
    result = _short_run(monkeypatch, capsys)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
