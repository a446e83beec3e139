"""Output checks of the benchmark, independent of the `ade` package.

The benchmark reads the engine's files with its own parsers, so a defect in
`ade.io` cannot hide itself, and checking never enters a traced function.
Each check returns a list of problems; an empty list means the output
passed.

Tensor files are read as documented in `ade.io`: magic "ADET", version u32,
dtype u8 (0 = float32, 1 = float64), ndim u32, ndim u64 dims, then the
little-endian row-major payload.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

MASS_DRIFT_LIMIT = 1e-10  # acceptance criterion 3, float64
RECON_LIMIT = 1e-12
NORM_RTOL = 1e-12

_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckError(Exception):
    """A file the benchmark reads is malformed."""


def adet_header(shape: tuple[int, ...]) -> bytes:
    """Header of a float64 tensor file; the payload follows it."""
    return (b"ADET" + struct.pack("<IBI", 1, 1, len(shape))
            + struct.pack(f"<{len(shape)}Q", *shape))


def _layout(path: Path) -> tuple[tuple[int, ...], np.dtype, int]:
    with open(path, "rb") as f:
        head = f.read(13)
        if len(head) < 13 or head[:4] != b"ADET":
            raise CheckError(f"{path.name}: not a tensor file")
        version, code, ndim = struct.unpack("<IBI", head[4:])
        if version != 1 or code not in _DTYPES or not 1 <= ndim <= 32:
            raise CheckError(
                f"{path.name}: bad header {version}/{code}/{ndim}")
        raw = f.read(8 * ndim)
    if len(raw) != 8 * ndim:
        raise CheckError(f"{path.name}: truncated dims")
    dims = struct.unpack(f"<{ndim}Q", raw)
    dtype = _DTYPES[code]
    offset = 13 + 8 * ndim
    count = 1
    for d in dims:
        count *= d
    if path.stat().st_size != offset + count * dtype.itemsize:
        raise CheckError(f"{path.name}: size does not match dims {dims}")
    return dims, dtype, offset


def read_adet(path: Path, index: int | None = None) -> np.ndarray:
    """The whole tensor, or only entry `index` along its first axis."""
    dims, dtype, offset = _layout(path)
    if index is None:
        count, shape = int(np.prod(dims)), dims
    else:
        shape = dims[1:]
        count = int(np.prod(shape))
        offset += index * count * dtype.itemsize
    data = np.fromfile(path, dtype=dtype, count=count, offset=offset)
    return data.reshape(shape).astype(np.float64)


def adet_dims(path: Path) -> tuple[int, ...]:
    return _layout(path)[0]


def pnm_bytes(pixels: np.ndarray) -> bytes:
    """8-bit binary PGM ([H, W]) or PPM ([H, W, 3]) file contents."""
    magic = b"P5" if pixels.ndim == 2 else b"P6"
    height, width = pixels.shape[:2]
    return magic + f"\n{width} {height}\n255\n".encode() + pixels.tobytes()


def read_pnm(path: Path) -> np.ndarray:
    """A file written by `pnm_bytes` as the [C, H, W] stack the engine
    must start from: sample / 255 in float64."""
    magic, dims, _, payload = Path(path).read_bytes().split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    channels = 1 if magic == b"P5" else 3
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width,
                                                          channels)
    return raw.transpose(2, 0, 1).astype(np.float64) / 255.0


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def chain_problems(chain_path: Path, image_path: Path,
                   steps: int) -> list[str]:
    """Shape [K+1, C, H, W], snapshot 0 equal to the input bit for bit,
    finite values and relative mass drift within MASS_DRIFT_LIMIT."""
    name = chain_path.name
    try:
        snaps = read_adet(chain_path)
    except (OSError, CheckError) as exc:
        return [f"{name}: {exc}"]
    image = read_pnm(image_path)
    expected = (steps + 1,) + image.shape
    if snaps.shape != expected:
        return [f"{name}: shape {snaps.shape}, expected {expected}"]
    problems = []
    if not same_bits(snaps[0], image):
        problems.append(f"{name}: snapshot 0 differs from the input")
    if not np.all(np.isfinite(snaps)):
        problems.append(f"{name}: non-finite values")
        return problems
    mass = snaps.sum(axis=(2, 3))
    drift = float(np.max(np.abs(mass - mass[0]) / np.abs(mass[0])))
    if not drift <= MASS_DRIFT_LIMIT:
        problems.append(f"{name}: mass drift {drift!r} > {MASS_DRIFT_LIMIT}")
    return problems


def reverse_problems(chain_path: Path, recon_path: Path, traj_path: Path,
                     steps: int) -> list[str]:
    """recon within RECON_LIMIT of snapshot 0; trajectory [K+1, ...] that
    starts at the prior and ends at recon, both bit for bit."""
    try:
        clean = read_adet(chain_path, 0)
        prior = read_adet(chain_path, steps)
        recon = read_adet(recon_path)
        traj_dims = adet_dims(traj_path)
        expected = (steps + 1,) + clean.shape
        if recon.shape != clean.shape or traj_dims != expected:
            return [f"shapes recon {recon.shape}, trajectory {traj_dims}, "
                    f"expected {clean.shape} and {expected}"]
        first = read_adet(traj_path, 0)
        last = read_adet(traj_path, steps)
    except (OSError, CheckError) as exc:
        return [str(exc)]
    problems = []
    if not np.all(np.isfinite(recon)):
        problems.append("recon has non-finite values")
    else:
        err = float(np.max(np.abs(recon - clean)))
        if not err <= RECON_LIMIT:
            problems.append(f"recon error {err!r} > {RECON_LIMIT}")
    if not same_bits(first, prior):
        problems.append("trajectory[0] differs from the prior")
    if not same_bits(last, recon):
        problems.append("trajectory[-1] differs from recon")
    return problems


def channel_norms(chain_path: Path) -> list[list[float]]:
    """L2 norm of every snapshot and channel, [K+1][C]."""
    snaps = read_adet(chain_path)
    return np.sqrt(np.sum(snaps * snaps, axis=(2, 3))).tolist()


def norm_problems(name: str, got: list[list[float]],
                  pinned: list[list[float]]) -> list[str]:
    a, b = np.asarray(got), np.asarray(pinned)
    if a.shape != b.shape:
        return [f"{name}: norms shape {a.shape}, pinned {b.shape}"]
    rel = float(np.max(np.abs(a - b) / np.abs(b)))
    if not rel <= NORM_RTOL:
        return [f"{name}: snapshot norms off the pin by {rel!r} relative"]
    return []


def _hash_into(digest, path: Path) -> None:
    with open(path, "rb") as f:
        while chunk := f.read(1 << 20):
            digest.update(chunk)


def outputs_sha256(paths: list[Path]) -> str:
    """One digest over the names and bytes of the given files."""
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.name.encode() + b"\0")
        _hash_into(digest, path)
    return digest.hexdigest()


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    _hash_into(digest, path)
    return digest.hexdigest()


def check_command(job: dict, out: Path,
                  steps: int) -> tuple[list[str], str | None]:
    """Problems with one command's outputs in `out`, and their digest; the
    digest is None whenever there is a problem, so a failed pin fails the
    command as any other check does.

    `job["chains"]` maps each chain file the command must write to the
    image it starts from; a reverse job names its `chain` instead. `steps`
    is the chain length K. Pins in `job["pins"]` are checked only when the
    job carries them.
    """
    if "chains" in job:
        files = [out / name for name in job["chains"]]
        problems = []
        for path, image in zip(files, job["chains"].values()):
            problems += chain_problems(path, Path(image), steps)
    else:
        files = [out / "recon.adet", out / "trajectory.adet"]
        problems = reverse_problems(Path(job["chain"]), *files, steps)
    if problems:
        return problems, None
    pins = job.get("pins") or {}
    for name, want in pins.get("sha256", {}).items():
        if file_sha256(out / name) != want:
            problems.append(f"{name}: sha256 differs from the pin")
    for name, want in pins.get("norms", {}).items():
        problems += norm_problems(name, channel_norms(out / name), want)
    if problems:
        return problems, None
    return problems, outputs_sha256(files)
