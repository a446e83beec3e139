"""File formats: raw tensors, PNM images, key=value configs.

All writers go through a per-process temp file in the destination directory
followed by os.replace, so readers never observe a partial artifact; a
failed write removes its temp file and leaves the destination as it was.

Tensor files are little-endian throughout: magic "ADET", version u32 (=1),
dtype u8 (0 = float32, 1 = float64), ndim u32, then ndim u64 dims and the
row-major payload. The tensor reader and writer hold one copy of the
payload: it is read straight into the returned array and written straight
from the caller's array (or one contiguous copy of a strided view).

Large tensors need not be held whole. `open_tensor` checks the header as
`read_tensor` does and then reads single entries along axis 0 by offset;
`tensor_writer` writes the header up front and appends one entry at a
time, under the same temp file and os.replace contract.

The writers hash the bytes as they write them: `atomic_write_bytes` and
`write_tensor` return the hex sha256 of the file they made, and a
`tensor_writer`'s `hexdigest()` is its file's once the block ends.
`parse_image` reads an image from bytes in hand, so a caller can hash the
same bytes it parsed. No artifact is read back to be hashed; `file_sha256`
is the independent re-read.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError, ShapeMismatchError, ValidationError

MAGIC = b"ADET"
VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODE_FOR = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


@contextlib.contextmanager
def _atomic_file(path: str | Path):
    """An open temp file next to path that replaces it when the block ends
    without error; on any error the temp file is removed instead."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def atomic_write_bytes(path: str | Path, payload: bytes | np.ndarray,
                       header: bytes = b"") -> str:
    """Write header, then payload, to path via a temp file and os.replace;
    return the hex sha256 of header + payload, the file's bytes.

    The payload may be any C-contiguous buffer whose len() is its byte
    count (bytes, or a flat uint8 array), so it is written and hashed
    without a copy.
    """
    digest = hashlib.sha256(header)
    digest.update(payload)
    with _atomic_file(path) as f:
        f.write(header)
        f.write(payload)
    return digest.hexdigest()


def _tensor_header(shape: tuple[int, ...], dtype) -> tuple[bytes, np.dtype]:
    """Header bytes for a tensor of shape and dtype, and its file dtype."""
    code = _CODE_FOR.get(np.dtype(dtype))
    if code is None:
        raise ValidationError(
            f"tensor dtype must be float32 or float64, got {dtype}")
    if len(shape) < 1:
        raise ValidationError("0-dimensional tensors are not supported")
    header = MAGIC + struct.pack("<IBI", VERSION, code, len(shape))
    return header + struct.pack(f"<{len(shape)}Q", *shape), _DTYPE_CODES[code]


def write_tensor(path: str | Path, array: np.ndarray) -> str:
    """Serialize a float32/float64 array, other dtypes being rejected;
    return the hex sha256 of the file written."""
    array = np.asarray(array)
    header, dtype = _tensor_header(array.shape, array.dtype)
    data = np.ascontiguousarray(array, dtype=dtype)
    return atomic_write_bytes(path, data.reshape(-1).view(np.uint8), header)


class TensorWriter:
    """Writes a tensor file's header, then appends its entries; a hashed
    writer hashes each byte it writes."""

    def __init__(self, f, shape: tuple[int, ...], dtype: np.dtype,
                 header: bytes, hashed: bool):
        f.write(header)
        self._file = f
        self._digest = hashlib.sha256(header) if hashed else None
        self.shape = shape
        self.dtype = dtype
        self.count = 0

    def append(self, row: np.ndarray) -> None:
        """Write the next entry along axis 0, cast to the file dtype."""
        row = np.asarray(row)
        if row.shape != self.shape[1:]:
            raise ShapeMismatchError(
                f"row shape {row.shape}, expected {self.shape[1:]}")
        data = np.ascontiguousarray(row, dtype=self.dtype).reshape(-1)
        self._file.write(data.view(np.uint8))
        if self._digest is not None:
            self._digest.update(data)
        self.count += 1

    def hexdigest(self) -> str:
        """Hex sha256 of the header and the entries appended so far, for a
        hashed writer."""
        return self._digest.hexdigest()


@contextlib.contextmanager
def tensor_writer(path: str | Path, shape: tuple[int, ...],
                  dtype=np.float64, hashed: bool = True):
    """Write a tensor file one entry along axis 0 at a time.

    Yields a TensorWriter; the header goes out first, each `append` writes
    one entry, and the file replaces `path` when the block ends having
    appended exactly shape[0] entries. The writer's `hexdigest()` is then
    the file's sha256, hashed from the bytes as they were written; with
    `hashed=False`, for a file no manifest names, nothing is hashed. Left
    early, by an error or with the wrong count, it removes its temp file
    and raises.
    """
    shape = tuple(shape)
    header, dtype = _tensor_header(shape, dtype)
    with _atomic_file(path) as f:
        writer = TensorWriter(f, shape, dtype, header, hashed)
        yield writer
        if writer.count != shape[0]:
            raise ValidationError(
                f"wrote {writer.count} of {shape[0]} tensor rows")


class TensorReader:
    """A tensor file's header, with its payload read on demand.

    `reader[i]` reads entry i along axis 0 (negative i counts from the
    end) by its offset; `read()` reads the whole tensor. Both return
    native-endian arrays of their own. `read_into(i, out)` reads entry i
    into a C-contiguous native-endian array of the entry's shape and
    dtype instead, with the checks and errors of `reader[i]`.
    """

    def __init__(self, f):
        self._file = f
        head = f.read(13)
        if head[:4] != MAGIC:
            raise FormatError(f"bad magic {head[:4]!r}, expected {MAGIC!r}",
                              offset=0)
        if len(head) < 13:
            raise FormatError("truncated header", offset=len(head))
        version, code, ndim = struct.unpack_from("<IBI", head, 4)
        if version != VERSION:
            raise FormatError(f"unsupported version {version}", offset=4)
        if code not in _DTYPE_CODES:
            raise FormatError(f"unknown dtype code {code}", offset=8)
        if ndim < 1 or ndim > 32:
            raise FormatError(f"implausible ndim {ndim}", offset=9)
        raw_dims = f.read(8 * ndim)
        if len(raw_dims) < 8 * ndim:
            raise FormatError("truncated dims", offset=13 + len(raw_dims))
        dims = struct.unpack(f"<{ndim}Q", raw_dims)
        self._start = 13 + 8 * ndim
        self._file_dtype = _DTYPE_CODES[code]
        # Python ints: no overflow. numpy refuses shapes whose nonzero dims
        # times the item size pass intp, even with a zero dim and no payload.
        if (math.prod(d for d in dims if d) * self._file_dtype.itemsize
                > np.iinfo(np.intp).max):
            raise FormatError(f"dims {dims} exceed the addressable size",
                              offset=13)
        expected = math.prod(dims) * self._file_dtype.itemsize
        size = os.fstat(f.fileno()).st_size - self._start
        if size != expected:
            raise FormatError(f"payload is {size} bytes, expected {expected}",
                              offset=self._start)
        self.shape = dims
        self.dtype = self._file_dtype.newbyteorder("=")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __getitem__(self, index: int) -> np.ndarray:
        return self._read(np.empty(self.shape[1:], self._file_dtype),
                          self._index(index))

    def read_into(self, index: int, out: np.ndarray) -> np.ndarray:
        """Entry `index` read into `out`, which is returned."""
        index = self._index(index)
        if (out.shape != self.shape[1:] or out.dtype != self.dtype
                or not out.flags.c_contiguous):
            raise ValidationError(
                f"need a C-contiguous {self.dtype} array of shape "
                f"{self.shape[1:]}, got {out.dtype} {out.shape}")
        self._read(out, index)
        if self._file_dtype != self.dtype:  # big-endian host
            out.byteswap(inplace=True)
        return out

    def read(self) -> np.ndarray:
        return self._read(np.empty(self.shape, self._file_dtype), 0)

    def _index(self, index: int) -> int:
        n = len(self)
        if not isinstance(index, (int, np.integer)) or not -n <= index < n:
            raise ValidationError(
                f"tensor index {index!r} out of range for {n} entries")
        return int(index) % n

    def _read(self, data: np.ndarray, index: int) -> np.ndarray:
        """Fill `data` with the payload bytes from entry `index` on."""
        start = self._start + index * data.nbytes
        self._file.seek(start)
        got = self._file.readinto(data.reshape(-1).view(np.uint8))
        if got != data.nbytes:
            raise FormatError(
                f"payload is {got} bytes, expected {data.nbytes}",
                offset=start + got)
        return data.astype(self.dtype, copy=False)


@contextlib.contextmanager
def open_tensor(path: str | Path):
    """Open a tensor file for row access; yields a TensorReader whose
    header has passed every check `read_tensor` makes."""
    with open(path, "rb") as f:
        yield TensorReader(f)


def read_tensor(path: str | Path) -> np.ndarray:
    """Parse a tensor file; malformed input raises FormatError with the
    byte offset of the first problem."""
    with open_tensor(path) as tensor:
        return tensor.read()


def _next_token(blob: bytes, pos: int) -> tuple[bytes, int]:
    # skip whitespace and '#' comments, netpbm style
    n = len(blob)
    while pos < n:
        c = blob[pos:pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and blob[pos:pos + 1] != b"\n":
                pos += 1
        else:
            break
    if pos >= n:
        raise FormatError("truncated image header", offset=pos)
    start = pos
    while pos < n and not blob[pos:pos + 1].isspace():
        pos += 1
    return blob[start:pos], pos


def read_image(path: str | Path) -> tuple[np.ndarray, int]:
    """Read a binary PGM (P5) or PPM (P6) image file; see `parse_image`."""
    return parse_image(Path(path).read_bytes())


def parse_image(blob: bytes) -> tuple[np.ndarray, int]:
    """Parse the bytes of a binary PGM (P5) or PPM (P6) image.

    Returns a [C, H, W] float64 stack with values sample/maxval in [0, 1]
    (C = 1 for P5, 3 for P6) plus the image's maxval. 16-bit samples are
    big-endian per the netpbm convention. Malformed bytes raise
    FormatError with the offset of the first problem. A caller that hashes
    the blob it parsed names exactly the bytes it used.
    """
    magic, pos = _next_token(blob, 0)
    if magic not in (b"P5", b"P6"):
        raise FormatError(f"unsupported image magic {magic!r}", offset=0)
    fields = []
    for _ in range(3):
        tok, pos = _next_token(blob, pos)
        if not tok.isdigit():
            raise FormatError(f"expected integer, got {tok!r}",
                              offset=pos - len(tok))
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"bad dimensions {width}x{height}", offset=0)
    if not 0 < maxval < 65536:
        raise FormatError(f"maxval {maxval} out of range", offset=0)
    pos += 1  # single whitespace byte after maxval
    channels = 1 if magic == b"P5" else 3
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    count = width * height * channels
    expected = count * dtype.itemsize
    if len(blob) - pos != expected:
        raise FormatError(
            f"payload is {len(blob) - pos} bytes, expected {expected}",
            offset=pos)
    raw = np.frombuffer(blob, dtype=dtype, offset=pos).astype(np.float64)
    if np.any(raw > maxval):
        raise FormatError(f"sample exceeds maxval {maxval}", offset=pos)
    stack = raw.reshape(height, width, channels).transpose(2, 0, 1)
    return stack / float(maxval), maxval


def write_image(path: str | Path, stack: np.ndarray,
                maxval: int = 255) -> None:
    """Write a [C, H, W] (or [H, W]) stack as P5 (C=1) or P6 (C=3).

    Values are clamped to [0, 1] and quantized with round-half-to-even, so
    read_image -> write_image at the same maxval is byte-identical.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim == 2:
        stack = stack[None]
    if stack.ndim != 3 or stack.shape[0] not in (1, 3):
        raise ValidationError(
            f"expected [C, H, W] with C in (1, 3), got {stack.shape}")
    if maxval not in (255, 65535):
        raise ValidationError(f"maxval must be 255 or 65535, got {maxval}")
    if not np.all(np.isfinite(stack)):
        raise ValidationError("image values contain NaN or Inf")
    channels, height, width = stack.shape
    q = np.clip(np.rint(np.clip(stack, 0.0, 1.0) * maxval), 0, maxval)
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    payload = q.transpose(1, 2, 0).astype(dtype).tobytes()
    magic = b"P5" if channels == 1 else b"P6"
    header = magic + f"\n{width} {height}\n{maxval}\n".encode()
    atomic_write_bytes(path, header + payload)


def write_heatmap(path: str | Path, field: np.ndarray,
                  maxval: int = 255) -> None:
    """Min-max normalized grayscale rendering of a 2D field."""
    field = np.asarray(field, dtype=np.float64)
    if field.ndim != 2:
        raise ValidationError(f"heatmap field must be 2D, got {field.shape}")
    lo, hi = field.min(), field.max()
    if hi > lo:
        norm = (field - lo) / (hi - lo)
    else:
        norm = np.full_like(field, 0.5)
    write_image(path, norm[None], maxval=maxval)


def read_config(path: str | Path) -> dict[str, str]:
    """Parse key=value lines; '#' starts a comment, blanks are skipped.

    Later duplicates win. A non-empty line without '=' is a format error.
    """
    out: dict[str, str] = {}
    offset = 0
    for line in Path(path).read_bytes().splitlines(keepends=True):
        try:
            text = line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise FormatError("config is not UTF-8 text",
                              offset=offset + exc.start) from None
        if text and not text.startswith("#"):
            if "=" not in text:
                raise FormatError(f"expected key=value, got {text!r}",
                                  offset=offset)
            key, value = text.split("=", 1)
            out[key.strip()] = value.strip()
        offset += len(line)
    return out


def write_config(path: str | Path, entries: dict[str, object]) -> None:
    """Write key=value lines in insertion order."""
    lines = [f"{k}={v}" for k, v in entries.items()]
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def file_sha256(path: str | Path) -> str:
    """Hex sha256 of a file, streamed through one 64 KiB buffer: small
    enough for malloc to serve from its heap, not by a fresh mmap."""
    digest = hashlib.sha256()
    block = memoryview(bytearray(1 << 16))
    with open(path, "rb", buffering=0) as f:
        while size := f.readinto(block):
            digest.update(block[:size])
    return digest.hexdigest()
