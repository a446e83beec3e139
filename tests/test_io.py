import hashlib
import os
import struct
import tracemalloc

import numpy as np
import pytest

from ade import io
from ade.errors import (EngineError, FormatError, ShapeMismatchError,
                        ValidationError)
from ade.rng import CounterRng


def test_tensor_round_trip_f64(tmp_path):
    arr = CounterRng(1, 0).uniforms(60).reshape(3, 4, 5)
    path = tmp_path / "t.adet"
    io.write_tensor(path, arr)
    back = io.read_tensor(path)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)
    back[0, 0, 0] = -1.0  # returned array must be writable


def test_tensor_round_trip_f32(tmp_path):
    arr = np.linspace(0, 1, 12, dtype=np.float32).reshape(4, 3)
    path = tmp_path / "t.adet"
    io.write_tensor(path, arr)
    back = io.read_tensor(path)
    assert back.dtype == np.float32
    assert np.array_equal(back, arr)


def test_tensor_header_size():
    # magic + version + dtype + ndim + 2 dims + one f64 value
    assert 4 + 4 + 1 + 4 + 2 * 8 + 8 == 37


def test_smallest_tensor_is_37_bytes(tmp_path):
    path = tmp_path / "t.adet"
    io.write_tensor(path, np.zeros((1, 1)))
    assert path.stat().st_size == 37
    assert not list(tmp_path.glob("*.tmp*"))  # atomic write left no litter


def test_tensor_rejects_unsupported_dtypes(tmp_path):
    with pytest.raises(ValidationError):
        io.write_tensor(tmp_path / "t.adet", np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ValidationError):
        io.write_tensor(tmp_path / "t.adet", np.float64(3.0))


def test_tensor_accepts_noncontiguous_views(tmp_path):
    arr = np.arange(24, dtype=np.float64).reshape(4, 6)
    view = arr[:, ::2]
    path = tmp_path / "t.adet"
    io.write_tensor(path, view)
    assert np.array_equal(io.read_tensor(path), view)


def _poke(tmp_path, name, mutate):
    path = tmp_path / name
    io.write_tensor(path, np.zeros((2, 2)))
    raw = bytearray(path.read_bytes())
    mutate(raw)
    path.write_bytes(bytes(raw))
    return path


def test_corrupt_tensor_errors_carry_byte_offsets(tmp_path):
    def bad_magic(raw):
        raw[0:4] = b"NOPE"
    with pytest.raises(FormatError, match=r"\(byte 0\)"):
        io.read_tensor(_poke(tmp_path, "a.adet", bad_magic))

    def bad_version(raw):
        raw[4] = 9
    with pytest.raises(FormatError, match=r"\(byte 4\)"):
        io.read_tensor(_poke(tmp_path, "b.adet", bad_version))

    def bad_dtype(raw):
        raw[8] = 7
    with pytest.raises(FormatError, match=r"\(byte 8\)"):
        io.read_tensor(_poke(tmp_path, "c.adet", bad_dtype))

    def truncate(raw):
        del raw[-5:]
    with pytest.raises(FormatError):
        io.read_tensor(_poke(tmp_path, "d.adet", truncate))

    def pad(raw):
        raw.extend(b"\x00" * 3)
    with pytest.raises(FormatError):
        io.read_tensor(_poke(tmp_path, "e.adet", pad))


@pytest.mark.parametrize("dims", [(0, 2**63), (2**62, 0, 2**62), (0, 2**60)],
                         ids=["dim_past_intp", "nonzero_product_past_intp",
                              "bytes_past_intp"])
def test_zero_payload_dims_numpy_cannot_hold_are_a_format_error(tmp_path,
                                                                 dims):
    # each shape multiplies to a valid empty payload, but np.empty refuses it
    path = tmp_path / "t.adet"
    path.write_bytes(io.MAGIC + struct.pack("<IBI", io.VERSION, 1, len(dims))
                     + struct.pack(f"<{len(dims)}Q", *dims))
    with pytest.raises(FormatError, match=r"\(byte 13\)"):
        io.read_tensor(path)


def test_empty_tensors_round_trip(tmp_path):
    path = tmp_path / "t.adet"
    io.write_tensor(path, np.zeros((0, 5)))
    back = io.read_tensor(path)
    assert back.shape == (0, 5) and back.dtype == np.float64


def test_a_file_that_shrinks_while_read_is_a_format_error(tmp_path,
                                                          monkeypatch):
    path = tmp_path / "t.adet"
    io.write_tensor(path, np.ones((4, 4)))
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-8])  # one value went missing
    real_fstat = os.fstat

    def stale_fstat(fd):  # the size the file had when it was opened
        return os.stat_result((*real_fstat(fd)[:6], size, 0, 0, 0))
    monkeypatch.setattr(io.os, "fstat", stale_fstat)
    with pytest.raises(FormatError, match=r"\(byte 149\)"):
        io.read_tensor(path)


def test_failed_atomic_write_keeps_the_old_file_and_no_temp(tmp_path,
                                                            monkeypatch):
    path = tmp_path / "t.adet"
    io.write_tensor(path, np.ones((2, 2)))
    before = path.read_bytes()

    def fail(src, dst):
        raise OSError("disk full")
    monkeypatch.setattr(io.os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        io.write_tensor(path, np.zeros((3, 3)))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.adet"]


def test_atomic_writes_keep_plain_open_permissions(tmp_path):
    with open(tmp_path / "plain", "wb"):
        pass
    io.write_tensor(tmp_path / "t.adet", np.ones(3))
    assert ((tmp_path / "t.adet").stat().st_mode
            == (tmp_path / "plain").stat().st_mode)


def test_temp_files_are_named_per_process(tmp_path, monkeypatch):
    seen = []
    real_replace = os.replace

    def spy(src, dst):
        seen.append(os.path.basename(src))
        real_replace(src, dst)
    monkeypatch.setattr(io.os, "replace", spy)
    io.write_tensor(tmp_path / "t.adet", np.ones(3))
    assert seen == [f"t.adet.{os.getpid()}.tmp"]


def _peak_bytes(fn, *args):
    """Peak traced memory of fn(*args) above what was allocated before;
    numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_tensor_io_holds_one_copy_of_the_payload(tmp_path):
    arr = CounterRng(3, 0).uniforms(4 * 128 * 128).reshape(4, 128, 128)
    payload = arr.nbytes
    path = tmp_path / "t.adet"
    assert _peak_bytes(io.write_tensor, path, arr) <= 64 * 1024 + payload / 20
    assert _peak_bytes(io.read_tensor, path) <= 1.05 * payload + 64 * 1024


def test_pgm_round_trip_8bit(tmp_path):
    field = CounterRng(2, 0).uniforms(48).reshape(1, 6, 8)
    path = tmp_path / "img.pgm"
    io.write_image(path, field, maxval=255)
    stack, maxval = io.read_image(path)
    assert maxval == 255
    assert stack.shape == (1, 6, 8)
    # second pass through the quantizer is the identity
    second = tmp_path / "img2.pgm"
    io.write_image(second, stack, maxval=255)
    assert path.read_bytes() == second.read_bytes()


def test_ppm_round_trip_16bit(tmp_path):
    field = CounterRng(3, 0).uniforms(3 * 4 * 5).reshape(3, 4, 5)
    path = tmp_path / "img.ppm"
    io.write_image(path, field, maxval=65535)
    stack, maxval = io.read_image(path)
    assert maxval == 65535
    assert stack.shape == (3, 4, 5)
    second = tmp_path / "img2.ppm"
    io.write_image(second, stack, maxval=65535)
    assert path.read_bytes() == second.read_bytes()


def test_16bit_samples_are_big_endian(tmp_path):
    path = tmp_path / "img.pgm"
    io.write_image(path, np.array([[1.0 / 257.0]]), maxval=65535)
    raw = path.read_bytes()
    # 65535/257 = 255 -> 0x00ff, most significant byte first
    assert raw.endswith(b"\x00\xff")


def test_quantization_rounds_half_to_even(tmp_path):
    path = tmp_path / "img.pgm"
    io.write_image(path, np.array([[0.5 / 255.0, 1.5 / 255.0]]), maxval=255)
    assert path.read_bytes().endswith(bytes([0, 2]))


def test_read_image_handles_comments_and_whitespace(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5 # magic\n# a comment line\n 2\t1 \n255\n\x00\xff")
    stack, maxval = io.read_image(path)
    assert maxval == 255
    assert stack.tolist() == [[[0.0, 1.0]]]


def test_read_image_rejects_out_of_range_samples(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n1 1\n100\n\xff")
    with pytest.raises(FormatError):
        io.read_image(path)


def test_write_image_validation(tmp_path):
    with pytest.raises(ValidationError):
        io.write_image(tmp_path / "x.pgm", np.zeros((2, 4, 4)))
    with pytest.raises(ValidationError):
        io.write_image(tmp_path / "x.pgm", np.zeros((4, 4)), maxval=1023)
    with pytest.raises(ValidationError):
        io.write_image(tmp_path / "x.pgm", np.full((4, 4), np.nan))


def test_heatmap_normalizes_and_handles_flat_fields(tmp_path):
    path = tmp_path / "h.pgm"
    io.write_heatmap(path, np.array([[2.0, 4.0], [6.0, 10.0]]))
    stack, _ = io.read_image(path)
    assert stack.min() == 0.0 and stack.max() == 1.0
    io.write_heatmap(path, np.full((3, 3), 7.0))
    stack, _ = io.read_image(path)
    assert np.all(stack == stack[0, 0, 0])
    assert 0.4 < stack[0, 0, 0] < 0.6


def test_config_round_trip_and_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    io.write_config(path, {"steps": 8, "pe": 0.25, "name": "trial a"})
    cfg = io.read_config(path)
    assert cfg == {"steps": "8", "pe": "0.25", "name": "trial a"}
    path.write_text("a=1\n# comment\n\na = 2  \n")
    assert io.read_config(path) == {"a": "2"}


def test_config_rejects_bare_tokens(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("a=1\nnot a pair\n")
    with pytest.raises(FormatError, match=r"\(byte 4\)"):
        io.read_config(path)


def test_sha256_of_empty_file(tmp_path):
    path = tmp_path / "empty"
    path.write_bytes(b"")
    assert io.file_sha256(path) == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_sha256_spans_its_read_blocks(tmp_path):
    blob = (CounterRng(6, 0).uniforms(330_000) * 255).astype(np.uint8)
    blob = blob.tobytes() * 8  # 2.5 MiB: two whole blocks and a part
    path = tmp_path / "blob"
    path.write_bytes(blob)
    assert io.file_sha256(path) == hashlib.sha256(blob).hexdigest()


def _chain_file(tmp_path, dtype=np.float64):
    snaps = CounterRng(11, 0).uniforms(5 * 2 * 3 * 4).reshape(5, 2, 3, 4)
    path = tmp_path / "chain.adet"
    io.write_tensor(path, snaps.astype(dtype))
    return path, snaps.astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_reader_reads_entries_by_offset(tmp_path, dtype):
    path, snaps = _chain_file(tmp_path, dtype)
    with io.open_tensor(path) as reader:
        assert reader.shape == snaps.shape and reader.ndim == 4
        assert reader.dtype == np.dtype(dtype) and len(reader) == 5
        for k in (3, 0, 4, 1):  # in any order
            assert reader[k].tobytes() == snaps[k].tobytes()
        assert reader[-1].tobytes() == snaps[4].tobytes()  # the prior
        assert reader[-5].tobytes() == snaps[0].tobytes()
        assert reader.read().tobytes() == snaps.tobytes()
        rows = list(reader)
        rows[0][...] = -1.0  # each entry is an array of its own
        assert reader[0].tobytes() == snaps[0].tobytes()


def test_tensor_reader_rejects_bad_indices_with_typed_errors(tmp_path):
    path, _ = _chain_file(tmp_path)
    with io.open_tensor(path) as reader:
        for bad in (5, -6, 1.0, slice(0, 2)):
            with pytest.raises(EngineError, match="out of range"):
                reader[bad]


def test_tensor_reader_checks_the_header_like_read_tensor(tmp_path):
    def bad_version(raw):
        raw[4] = 9
    path = _poke(tmp_path, "a.adet", bad_version)
    with pytest.raises(FormatError, match=r"\(byte 4\)"):
        with io.open_tensor(path):
            pass
    path = tmp_path / "b.adet"
    io.write_tensor(path, np.ones((3, 2)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError, match=r"payload is 40 bytes.*\(byte 29\)"):
        with io.open_tensor(path):
            pass


def test_a_short_row_read_is_a_format_error(tmp_path):
    # rows larger than the file buffer, so a row read reaches the disk
    snaps = CounterRng(12, 0).uniforms(4 * 64 * 64).reshape(4, 64, 64)
    path = tmp_path / "t.adet"
    io.write_tensor(path, snaps)
    with io.open_tensor(path) as reader:
        with open(path, "r+b") as f:  # the file shrinks after the header
            f.truncate(path.stat().st_size - 8)
        assert reader[2].tobytes() == snaps[2].tobytes()
        with pytest.raises(FormatError,
                           match=rf"\(byte {37 + snaps.nbytes - 8}\)"):
            reader[3]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_read_into_fills_the_given_buffer_with_the_entry(tmp_path, dtype):
    path, snaps = _chain_file(tmp_path, dtype)
    with io.open_tensor(path) as reader:
        out = np.full(snaps.shape[1:], np.nan, dtype)
        for k in (3, 0, -1, 4):
            assert reader.read_into(k, out) is out
            assert out.tobytes() == reader[k].tobytes() == snaps[k].tobytes()
        for bad in (5, -6, 1.0):
            with pytest.raises(ValidationError, match="out of range"):
                reader.read_into(bad, out)
        other = np.float64 if dtype == np.float32 else np.float32
        for wrong in (np.empty(snaps.shape[1:], other),
                      np.empty(snaps.shape[2:], dtype),
                      np.empty(snaps.shape[1:][::-1], dtype).T):
            with pytest.raises(ValidationError, match="C-contiguous"):
                reader.read_into(1, wrong)
        assert out.tobytes() == snaps[4].tobytes()  # left as it was


def test_read_into_a_shrunk_file_fails_at_the_offset_of_a_row_read(tmp_path):
    snaps = CounterRng(12, 0).uniforms(4 * 64 * 64).reshape(4, 64, 64)
    path = tmp_path / "t.adet"
    io.write_tensor(path, snaps)
    with io.open_tensor(path) as reader:
        with open(path, "r+b") as f:  # the file shrinks after the header
            f.truncate(path.stat().st_size - 8)
        out = np.empty((64, 64))
        assert reader.read_into(2, out).tobytes() == snaps[2].tobytes()
        errors = []
        for read in (lambda: reader[3], lambda: reader.read_into(3, out)):
            with pytest.raises(FormatError) as info:
                read()
            errors.append((str(info.value), info.value.offset))
        assert errors[0] == errors[1]
        assert errors[1][1] == 37 + snaps.nbytes - 8


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tensor_writer_matches_write_tensor(tmp_path, dtype):
    _, snaps = _chain_file(tmp_path)
    io.write_tensor(tmp_path / "whole.adet", snaps.astype(dtype))
    for hashed in (True, False):
        with io.tensor_writer(tmp_path / "rows.adet", snaps.shape,
                              dtype, hashed) as writer:
            for row in snaps:
                writer.append(row)
        assert ((tmp_path / "rows.adet").read_bytes()
                == (tmp_path / "whole.adet").read_bytes())
    assert not list(tmp_path.glob("*.tmp"))


def _sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_every_writer_returns_the_digest_of_its_file(tmp_path, dtype, rows):
    snaps = CounterRng(13, 0).uniforms(rows * 3 * 7 * 5).reshape(
        rows, 3, 7, 5)
    with io.tensor_writer(tmp_path / "rows.adet", snaps.shape,
                          dtype) as writer:
        for row in snaps:
            writer.append(row)
    assert writer.hexdigest() == _sha256_of(tmp_path / "rows.adet")
    whole = io.write_tensor(tmp_path / "whole.adet", snaps.astype(dtype))
    assert whole == _sha256_of(tmp_path / "whole.adet")
    payload = snaps.astype(dtype).reshape(-1).view(np.uint8)
    for header in (b"", b"a header "):
        digest = io.atomic_write_bytes(tmp_path / "raw", payload, header)
        assert digest == _sha256_of(tmp_path / "raw")


def test_tensor_writer_left_early_or_miscounted_leaves_nothing(tmp_path):
    path = tmp_path / "t.adet"
    with pytest.raises(RuntimeError, match="walk failed"):
        with io.tensor_writer(path, (3, 2)) as writer:
            writer.append(np.ones(2))
            raise RuntimeError("walk failed")
    with pytest.raises(ValidationError, match="wrote 2 of 3"):
        with io.tensor_writer(path, (3, 2)) as writer:
            writer.append(np.ones(2))
            writer.append(np.ones(2))
    with pytest.raises(ValidationError, match="wrote 2 of 1"):
        with io.tensor_writer(path, (1, 2)) as writer:
            writer.append(np.ones(2))
            writer.append(np.ones(2))
    with pytest.raises(ShapeMismatchError):
        with io.tensor_writer(path, (1, 2)) as writer:
            writer.append(np.ones(3))
    with pytest.raises(ValidationError):
        with io.tensor_writer(path, (1, 2), np.int32):
            pass
    assert list(tmp_path.iterdir()) == []


def _mutants(blob, rng, count):
    """`count` copies of blob, each with one byte flipped, a truncation or
    one byte inserted, at positions drawn from rng."""
    for kind, where, value in rng.uniforms(3 * count).reshape(count, 3):
        pos = int(where * len(blob))
        byte = bytes([1 + int(value * 255)])
        if kind < 1 / 3:
            yield blob[:pos] + bytes([blob[pos] ^ byte[0]]) + blob[pos + 1:]
        elif kind < 2 / 3:
            yield blob[:pos]
        else:
            yield blob[:pos] + byte + blob[pos:]


def test_mutated_files_fail_only_with_typed_errors(tmp_path):
    field = CounterRng(5, 0).uniforms(3 * 4 * 5).reshape(3, 4, 5)
    io.write_tensor(tmp_path / "t.adet", field)
    io.write_image(tmp_path / "rgb.ppm", field, maxval=255)
    io.write_image(tmp_path / "gray.pgm", field[:1], maxval=65535)
    io.write_config(tmp_path / "run.cfg", {"command": "corrupt", "seed": 3,
                                           "fo_min": 1e-3, "name": "a b"})
    readers = [("t.adet", io.read_tensor), ("rgb.ppm", io.read_image),
               ("gray.pgm", io.read_image), ("run.cfg", io.read_config)]
    for stream, (name, read) in enumerate(readers):
        blob = (tmp_path / name).read_bytes()
        failures = 0
        for mutant in _mutants(blob, CounterRng(2024, stream), 400):
            (tmp_path / "mutant").write_bytes(mutant)
            try:
                read(tmp_path / "mutant")
            except (FormatError, ValidationError):
                failures += 1
        assert failures > 0, name  # the mutations do reach the checks
