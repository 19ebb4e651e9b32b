"""Property tests of the PVOL1 and PIMG1 file formats: random dims and values
round-trip exactly, and truncated payloads, overlong payloads and bad
headers raise FormatError or DimsError, never anything else. Every writer
overwrites its output in place and leaves exactly the new bytes, and a
writer killed part way never leaves a file that loads."""

import os
import signal
import stat
import string
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from panoray import volume
from panoray.errors import DimsError, FormatError
from panoray.ray_geometry import GeometryConfig, build_fan, save_rayfan
from panoray.reconstructor import ReconReport, save_report
from panoray.renderer import SimPXImage, load_image, save_image, save_pgm16
from panoray.volume import (
    DensityVolume,
    load_raw_volume,
    load_volume,
    save_raw_volume,
    save_volume,
)

# (magic, number of dims, loaders that must reject a bad file)
FORMATS = {
    "PVOL1": ("PVOL1", 3, (load_raw_volume, load_volume)),
    "PIMG1": ("PIMG1", 2, (load_image,)),
}
small_dims = st.integers(1, 6)
# float32 values, so the stored payload holds them exactly
unit = st.floats(0.0, 1.0, width=32)
below_one = st.floats(0.0, 1.0, width=32, exclude_max=True)
any_f32 = st.floats(width=32, allow_nan=False)


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return tmp_path_factory.mktemp("formats") / "file.bin"


def _valid_blob(magic, dims, rng):
    payload = rng.uniform(0.0, 0.9, dims).astype("<f4").tobytes()
    return f"{magic} {' '.join(map(str, dims))}\n".encode("ascii"), payload


@st.composite
def bad_headers(draw, magic, n):
    """A header line of `magic` and n dims, broken in one drawn way."""
    fields = [magic] + [str(d) for d in draw(st.lists(small_dims, min_size=n, max_size=n))]
    i = draw(st.integers(1, n))
    kind = draw(st.sampled_from(
        ["magic", "dim", "nonpositive", "count", "ascii", "overlong"]))
    if kind == "magic":
        fields[0] = draw(st.text(string.ascii_uppercase + string.digits, max_size=8)
                         .filter(lambda t: t != magic))
    elif kind == "dim":
        # no digits: int() accepts none of these
        fields[i] = draw(st.sampled_from(["", "2.0", "1e3", "0x10", "nan", "inf"])
                         | st.text(string.ascii_letters + ".-+", min_size=1, max_size=4))
    elif kind == "nonpositive":
        fields[i] = str(draw(st.integers(-5, 0)))
    elif kind == "count":
        if draw(st.booleans()):
            del fields[i]
        else:
            fields.append(str(draw(small_dims)))
    elif kind == "ascii":
        fields[i] += draw(st.sampled_from(["é", "²", "２"]))
    else:
        fields[i] = "0" * 300 + fields[i]  # past the 256-byte header limit
    return " ".join(fields).encode("utf-8") + b"\n"


class TestRoundTrip:
    @settings(max_examples=50, deadline=None)
    @given(st.tuples(small_dims, small_dims, small_dims).flatmap(
        lambda d: hnp.arrays(np.float32, d, elements=unit)))
    def test_volume(self, path, data):
        vol = DensityVolume(data.astype(np.float64))
        save_volume(vol, path)
        nz, ny, nx = data.shape
        blob = path.read_bytes()
        assert blob == f"PVOL1 {nz} {ny} {nx}\n".encode() + data.astype("<f4").tobytes()
        back = load_volume(path)
        assert back.data.dtype == np.float32
        assert back.dims == vol.dims and np.array_equal(back.data, vol.data)

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(small_dims, small_dims, small_dims).flatmap(
        lambda d: hnp.arrays(np.float32, d, elements=any_f32)))
    def test_raw_volume(self, path, data):
        save_raw_volume(data.astype(np.float64), path)
        back = load_raw_volume(path)
        assert back.dtype == np.float32 and np.array_equal(back, data)

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(small_dims, small_dims).flatmap(
        lambda d: hnp.arrays(np.float32, d, elements=below_one)))
    def test_image(self, path, data):
        img = SimPXImage(data.astype(np.float64))
        save_image(img, path)
        h, w = data.shape
        assert path.read_bytes() == f"PIMG1 {h} {w}\n".encode() + data.astype("<f4").tobytes()
        back = load_image(path)
        assert back.dims == img.dims and np.array_equal(back.pixels, img.pixels)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
class TestBadFiles:
    @settings(max_examples=40, deadline=None)
    @given(dims=st.lists(small_dims, min_size=3, max_size=3), cut=st.integers(0, 10**6),
           seed=st.integers(0, 2**32 - 1))
    def test_truncated(self, path, fmt, dims, cut, seed):
        magic, n, loaders = FORMATS[fmt]
        header, payload = _valid_blob(magic, dims[:n], np.random.default_rng(seed))
        blob = header + payload
        path.write_bytes(blob[:cut % len(blob)])  # every strict prefix, header ones too
        for load in loaders:
            with pytest.raises(FormatError):
                load(path)

    @settings(max_examples=40, deadline=None)
    @given(dims=st.lists(small_dims, min_size=3, max_size=3),
           extra=st.binary(min_size=1, max_size=16), seed=st.integers(0, 2**32 - 1))
    def test_overlong(self, path, fmt, dims, extra, seed):
        magic, n, loaders = FORMATS[fmt]
        header, payload = _valid_blob(magic, dims[:n], np.random.default_rng(seed))
        path.write_bytes(header + payload + extra)
        for load in loaders:
            with pytest.raises(FormatError, match="payload"):
                load(path)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_bad_header(self, path, fmt, data, seed):
        magic, n, loaders = FORMATS[fmt]
        header = data.draw(bad_headers(magic, n))
        _, payload = _valid_blob(magic, [2] * n, np.random.default_rng(seed))
        path.write_bytes(header + payload)
        for load in loaders:
            with pytest.raises((FormatError, DimsError)):
                load(path)


# dims that claim more payload bytes than can be allocated, then 4 bytes
HUGE_CLAIMS = [
    pytest.param(b"PVOL1 100000 100000 100000\n", load_volume, id="load_volume"),
    pytest.param(b"PVOL1 100000 100000 100000\n", load_raw_volume, id="load_raw_volume"),
    pytest.param(b"PIMG1 10000000 100000000\n", load_image, id="load_image"),
]


def _feed_fifo(path, blob, piece=None):
    """Make path a FIFO and start a thread that writes blob into it, in one
    write or in pieces of `piece` bytes, each flushed and followed by a 1 ms
    pause, so that a reader waiting on the pipe gets each piece alone."""
    os.mkfifo(path)

    def write():
        try:
            with open(path, "wb") as fh:
                for start in range(0, len(blob), piece or len(blob)):
                    fh.write(blob[start:start + (piece or len(blob))])
                    fh.flush()
                    if piece:
                        time.sleep(1e-3)
        except BrokenPipeError:  # the reader stopped early
            pass

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    return writer


class TestPayloadClaims:
    @pytest.mark.parametrize("header,load", HUGE_CLAIMS)
    def test_huge_claim_is_a_format_error(self, tmp_path, header, load):
        path = tmp_path / "huge.bin"
        path.write_bytes(header + b"\0" * 4)
        with pytest.raises(FormatError, match="payload"):
            load(path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("header,load", HUGE_CLAIMS)
    def test_huge_claim_through_a_fifo(self, tmp_path, header, load):
        writer = _feed_fifo(tmp_path / "huge.fifo", header + b"\0" * 4)
        with pytest.raises(FormatError, match="payload"):
            load(tmp_path / "huge.fifo")
        writer.join(timeout=10)
        assert not writer.is_alive()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_volume_through_a_fifo(self, tmp_path):
        # a pipe reports size 0; this payload spans several bounded reads
        data = np.random.default_rng(5).uniform(0.0, 1.0, (4, 300, 300)).astype("<f4")
        save_raw_volume(data, tmp_path / "vol.pvol")
        writer = _feed_fifo(tmp_path / "vol.fifo", (tmp_path / "vol.pvol").read_bytes())
        back = load_volume(tmp_path / "vol.fifo")
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(back.data, data)


def _values(loaded):
    return loaded.data if isinstance(loaded, DensityVolume) else loaded


def _traced_peak(fn):
    """fn()'s result and the peak bytes that tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreaming:
    """Payloads are read straight into the float32 array that is returned,
    which starts at the file's size or _READ_CHUNK bytes and doubles only as
    bytes arrive; float32 data is written from views of its own memory, and
    any other data one cast slab of about _READ_CHUNK bytes at a time."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("load", FORMATS["PVOL1"][2])
    def test_fifo_in_three_byte_pieces(self, tmp_path, monkeypatch, load):
        # a pipe gives no size, so the 120-byte payload starts in 20 bytes
        # of room that doubles three times, and a read of what has arrived
        # through the pipe ends inside a value
        monkeypatch.setattr(volume, "_READ_CHUNK", 16)
        data = np.random.default_rng(7).uniform(0.0, 1.0, (2, 3, 5)).astype("<f4")
        save_raw_volume(data, tmp_path / "vol.pvol")
        writer = _feed_fifo(tmp_path / "vol.fifo", (tmp_path / "vol.pvol").read_bytes(), piece=3)
        back = load(tmp_path / "vol.fifo")
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert np.array_equal(_values(back), data)

    @pytest.mark.parametrize("delta", [-3, -2, -1, 1, 2, 3])
    @pytest.mark.parametrize("fmt", sorted(FORMATS))
    def test_payload_a_few_bytes_off(self, tmp_path, monkeypatch, fmt, delta):
        # the message gives the exact count of a short payload and the
        # claim a long one exceeds
        monkeypatch.setattr(volume, "_READ_CHUNK", 64)
        magic, n, _ = FORMATS[fmt]
        header, payload = _valid_blob(magic, (4, 5, 7)[:n], np.random.default_rng(8))
        blob = header + payload + b"\0" * delta if delta > 0 else header + payload[:delta]
        (tmp_path / "bad.bin").write_bytes(blob)
        expected = len(payload)
        holds = f"more than {expected}" if delta > 0 else str(expected + delta)
        for load in FORMATS[fmt][2]:
            with pytest.raises(FormatError, match=f"payload holds {holds} bytes, "
                                                  f"expected exactly {expected} for"):
                load(tmp_path / "bad.bin")

    @pytest.mark.parametrize("load", [load_volume, load_raw_volume])
    def test_multi_chunk_file_in_one_allocation(self, tmp_path, load):
        # 1.44 MB of payload, more than _READ_CHUNK; the array is sized from
        # the file and read into directly, so the peak is it alone: no
        # staging chunk and no regrowth
        data = np.random.default_rng(9).uniform(0.0, 1.0, (4, 300, 300)).astype("<f4")
        save_raw_volume(data, tmp_path / "vol.pvol")
        back, peak = _traced_peak(lambda: load(tmp_path / "vol.pvol"))
        values = _values(back)
        assert np.array_equal(values, data)
        assert values.dtype == np.float32
        assert peak < values.nbytes + (1 << 16)

    @pytest.mark.parametrize("through", ["file", "fifo"])
    @pytest.mark.parametrize("header,load", HUGE_CLAIMS)
    def test_huge_claim_stays_within_a_few_chunks(self, tmp_path, through, header, load):
        if through == "fifo" and not hasattr(os, "mkfifo"):
            pytest.skip("needs FIFOs")
        path = tmp_path / "huge.bin"
        writer = None
        if through == "fifo":
            writer = _feed_fifo(path, header + b"\0" * 4)
        else:
            path.write_bytes(header + b"\0" * 4)

        def read():
            with pytest.raises(FormatError, match="payload"):
                load(path)

        _, peak = _traced_peak(read)
        if writer is not None:
            writer.join(timeout=10)
            assert not writer.is_alive()
        assert peak < 4 * volume._READ_CHUNK

    @pytest.mark.parametrize("field", [
        # non-contiguous float64, and crossing counts' broadcast int64 view
        np.random.default_rng(10).uniform(-2.0, 2.0, (300, 300, 8)).transpose(2, 1, 0),
        np.broadcast_to(np.arange(90000).reshape(300, 300), (8, 300, 300)),
    ], ids=["transposed", "broadcast"])
    def test_writer_streams_through_one_slab(self, tmp_path, field):
        # 2.9 MB as float32: the bytes are those of one whole-array cast,
        # and the peak stays near one 1 MB slab, with no copy of the field
        _, peak = _traced_peak(lambda: save_raw_volume(field, tmp_path / "f.pvol"))
        assert (tmp_path / "f.pvol").read_bytes() == (
            b"PVOL1 8 300 300\n" + np.ascontiguousarray(field, dtype="<f4").tobytes())
        assert peak < 2 * volume._READ_CHUNK

    def test_float32_volume_is_written_from_views(self, tmp_path):
        # 2.9 MB of contiguous float32: every slab is a view of the volume,
        # so the write allocates nothing near a slab's size
        vol = DensityVolume(
            np.random.default_rng(11).uniform(0.0, 1.0, (8, 300, 300)).astype(np.float32))
        _, peak = _traced_peak(lambda: save_volume(vol, tmp_path / "v.pvol"))
        assert (tmp_path / "v.pvol").read_bytes() == b"PVOL1 8 300 300\n" + vol.data.tobytes()
        assert peak < 1 << 16


# every writer of the package, each with a small fixed output
WRITERS = {
    "save_volume": lambda p: save_volume(DensityVolume(np.full((2, 3, 4), 0.5, np.float32)), p),
    "save_raw_volume": lambda p: save_raw_volume(np.arange(-12.0, 12.0).reshape(2, 3, 4), p),
    "save_image": lambda p: save_image(SimPXImage(np.full((3, 5), 0.25)), p),
    "save_pgm16": lambda p: save_pgm16(np.linspace(0.0, 1.0, 15).reshape(3, 5), p),
    "save_report": lambda p: save_report(
        ReconReport(loss_history=[(0, 1.5, 1.0, 0.5, 1.0), (1, 0.75, 0.5, 0.25, 0.5)]), p),
    "save_rayfan": lambda p: save_rayfan(build_fan(GeometryConfig(width=20), bounds=(16, 16)), p),
}
writers = pytest.mark.parametrize("write", list(WRITERS.values()), ids=list(WRITERS))


def _fresh_bytes(tmp_path, write):
    write(tmp_path / "fresh.out")
    return (tmp_path / "fresh.out").read_bytes()


def _failing_slabs(monkeypatch, exc):
    """Make every PVOL1/PIMG1 write raise exc after its first slab."""
    real = volume._f32_slabs

    def slabs(data):
        for i, slab in enumerate(real(data)):
            if i:
                raise exc
            yield slab

    monkeypatch.setattr(volume, "_f32_slabs", slabs)


class TestInPlaceWrites:
    """Outputs are overwritten in place, never truncated when opened."""

    @writers
    def test_longer_file_is_cut_to_the_new_bytes(self, tmp_path, write):
        fresh = _fresh_bytes(tmp_path, write)
        path = tmp_path / "old.out"
        path.write_bytes(b"\xab" * (len(fresh) + 4096))
        write(path)
        assert path.read_bytes() == fresh

    @writers
    def test_inode_kept_and_hard_link_sees_the_new_bytes(self, tmp_path, write):
        fresh = _fresh_bytes(tmp_path, write)
        path, link = tmp_path / "old.out", tmp_path / "link.out"
        path.write_bytes(b"\xab" * (2 * len(fresh)))
        os.link(path, link)
        inode = path.stat().st_ino
        write(path)
        assert path.stat().st_ino == inode
        assert link.read_bytes() == fresh

    @writers
    def test_new_file_mode_follows_the_umask(self, tmp_path, write):
        old = os.umask(0o027)
        try:
            write(tmp_path / "new.out")
        finally:
            os.umask(old)
        assert stat.S_IMODE((tmp_path / "new.out").stat().st_mode) == 0o640

    def test_error_after_the_first_slab_propagates_and_the_file_is_rejected(
            self, tmp_path, monkeypatch):
        # the old file has the new one's dims, so any of its tail left behind
        # the new bytes would make a file that loads
        monkeypatch.setattr(volume, "_READ_CHUNK", 64)
        path = tmp_path / "vol.pvol"
        save_volume(DensityVolume(np.full((4, 5, 7), 0.75, np.float32)), path)
        _failing_slabs(monkeypatch, RuntimeError("disk gone"))
        with pytest.raises(RuntimeError, match="disk gone"):
            save_volume(DensityVolume(np.full((4, 5, 7), 0.25, np.float32)), path)
        assert path.stat().st_size == len(b"PVOL1 4 5 7\n") + 4 * 5 * 7
        for load in (load_volume, load_raw_volume):
            with pytest.raises(FormatError, match="bad header"):
                load(path)

    def test_error_propagates_when_the_cut_fails_too(self, tmp_path, monkeypatch):
        monkeypatch.setattr(volume, "_READ_CHUNK", 64)
        path = tmp_path / "vol.pvol"
        path.write_bytes(b"\xab" * 4096)
        _failing_slabs(monkeypatch, RuntimeError("disk gone"))

        def ftruncate(fd, length):
            raise OSError("cannot cut")

        monkeypatch.setattr(volume.os, "ftruncate", ftruncate)
        with pytest.raises(RuntimeError, match="disk gone"):
            save_raw_volume(np.zeros((4, 5, 7)), path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @writers
    def test_fifo_gets_the_bytes_uncut(self, tmp_path, write):
        fresh = _fresh_bytes(tmp_path, write)
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        write(fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [fresh]

    @pytest.mark.skipif(not os.path.exists(os.devnull), reason="needs a null device")
    @writers
    def test_null_device_is_not_cut(self, write):
        write(os.devnull)  # ftruncate of a character device fails with EINVAL


# writers with a loader, each writing 4 slabs of 64 KiB (at the chunk the
# child below sets) in which every value is v
SLAB_WRITERS = {
    "save_volume": (lambda p, v: save_volume(
        DensityVolume(np.full((4, 64, 256), v, np.float32)), p), load_volume),
    "save_raw_volume": (lambda p, v: save_raw_volume(np.full((4, 64, 256), v), p),
                        load_raw_volume),
    "save_image": (lambda p, v: save_image(SimPXImage(np.full((256, 256), v)), p),
                   load_image),
}

# the child runs one writer of this module (a SLAB_WRITERS one with v=0.25)
# and SIGKILLs itself at one point of the write, so that no except branch,
# finally clause or exit handler runs
_KILLED_WRITE = """
import os, signal, sys
tests, table, name, path, point = sys.argv[1:]
sys.path.insert(0, tests)
import test_formats
from panoray import volume

die = lambda *args: os.kill(os.getpid(), signal.SIGKILL)
write = getattr(test_formats, table)[name]
if table == "SLAB_WRITERS":
    write = lambda p, write=write[0]: write(p, 0.25)
    volume._READ_CHUNK = 1 << 16
if point == "slab":  # once the first slab reached the file
    real = volume._f32_slabs

    def slabs(data):
        for i, slab in enumerate(real(data)):
            if i:
                die()
            yield slab

    volume._f32_slabs = slabs
else:  # at the cut or at the header, once every other byte was written
    setattr(os, {"cut": "ftruncate", "header": "pwrite"}[point], die)
write(path)
"""


def _killed_write(table, name, path, point):
    src = str(Path(volume.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _KILLED_WRITE, str(Path(__file__).parent), table, name,
         str(path), point], capture_output=True, text=True, env=env)
    assert proc.returncode == -signal.SIGKILL, proc.stderr


class TestKilledWrites:
    """A writer killed part way through rewriting a file leaves one that no
    loader accepts, also where the old file has the new one's dims and
    length, so that the new header over the old tail would load."""

    @pytest.mark.parametrize("point", ["slab", "header"])
    @pytest.mark.parametrize("name", list(SLAB_WRITERS))
    def test_same_dims_rewrite_is_rejected(self, tmp_path, name, point):
        write, load = SLAB_WRITERS[name]
        path = tmp_path / "old.out"
        write(path, 0.75)
        size = path.stat().st_size
        _killed_write("SLAB_WRITERS", name, path, point)
        assert path.stat().st_size == size
        with pytest.raises(FormatError, match="bad header"):
            load(path)

    @pytest.mark.parametrize("name", list(WRITERS))
    def test_file_killed_at_the_cut_begins_with_nul(self, tmp_path, name):
        fresh = _fresh_bytes(tmp_path, WRITERS[name])
        path = tmp_path / "old.out"
        path.write_bytes(b"\xab" * (len(fresh) + 4096))
        _killed_write("WRITERS", name, path, "cut")
        got = path.read_bytes()
        assert got[:1] == b"\0" and got != fresh
        if name in SLAB_WRITERS:
            with pytest.raises(FormatError, match="bad header"):
                SLAB_WRITERS[name][1](path)


class TestEmptyDims:
    def test_zero_dim_rejected_with_the_loaders_message(self, tmp_path):
        path = tmp_path / "empty.pvol"
        path.write_bytes(b"PVOL1 0 4 4\n")
        with pytest.raises(DimsError) as loaded:
            load_raw_volume(path)
        with pytest.raises(DimsError) as saved:
            save_raw_volume(np.zeros((0, 4, 4)), path)
        assert str(saved.value) == str(loaded.value)

    @pytest.mark.parametrize("dims", [(0, 4, 4), (4, 0, 4), (4, 4, 0)])
    def test_existing_file_left_untouched_and_none_created(self, tmp_path, dims):
        path = tmp_path / "vol.pvol"
        save_raw_volume(np.ones((2, 3, 4)), path)
        before = path.read_bytes()
        with pytest.raises(DimsError):
            save_raw_volume(np.zeros(dims), path)
        assert path.read_bytes() == before
        with pytest.raises(DimsError):
            save_raw_volume(np.zeros(dims), tmp_path / "new.pvol")
        assert not (tmp_path / "new.pvol").exists()
