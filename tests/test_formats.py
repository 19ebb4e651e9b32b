"""Property tests of the PVOL1 and PIMG1 file formats: random dims and values
round-trip exactly, and truncated payloads, overlong payloads and bad
headers raise FormatError or DimsError, never anything else."""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from panoray.errors import DimsError, FormatError
from panoray.renderer import SimPXImage, load_image, save_image
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
        assert back.dims == vol.dims and np.array_equal(back.data, vol.data)

    @settings(max_examples=50, deadline=None)
    @given(st.tuples(small_dims, small_dims, small_dims).flatmap(
        lambda d: hnp.arrays(np.float32, d, elements=any_f32)))
    def test_raw_volume(self, path, data):
        save_raw_volume(data.astype(np.float64), path)
        back = load_raw_volume(path)
        assert back.dtype == np.float64 and np.array_equal(back, data)

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
