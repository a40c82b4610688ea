import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codeclab import (
    ImageBuffer,
    PnmError,
    SourceVector,
    generate_uniform_source,
    load_dataset,
    parse_pnm,
    serialize_pnm,
)


class TestParsePnm:
    def test_pgm_2x2(self):
        img = parse_pnm(b"P5 2 2 255 " + bytes([0, 64, 128, 255]))
        assert (img.width, img.height, img.channels) == (2, 2, 1)
        assert list(img.samples) == [0, 64, 128, 255]

    def test_ppm_1x1(self):
        img = parse_pnm(b"P6 1 1 255 " + bytes([10, 20, 30]))
        assert (img.width, img.height, img.channels) == (1, 1, 3)
        assert list(img.samples) == [10, 20, 30]

    def test_comments_and_whitespace(self):
        data = b"P5\n# a comment\n 2 # inline\n2\n255\n" + bytes(4)
        img = parse_pnm(data)
        assert (img.width, img.height) == (2, 2)

    def test_bad_maxval(self):
        with pytest.raises(PnmError, match="maxval"):
            parse_pnm(b"P5 2 2 65535 " + bytes(8))

    def test_bad_magic(self):
        with pytest.raises(PnmError, match="magic"):
            parse_pnm(b"P3 1 1 255 abc")

    def test_truncated(self):
        with pytest.raises(PnmError, match="truncated"):
            parse_pnm(b"P5 4 4 255 " + bytes(3))

    def test_non_numeric_header(self):
        with pytest.raises(PnmError, match="header"):
            parse_pnm(b"P5 x 2 255 " + bytes(4))


class TestSerializePnm:
    def test_canonical_1x1(self):
        img = ImageBuffer(1, 1, 1, np.zeros(1, np.uint8))
        assert serialize_pnm(img) == b"P5\n1 1\n255\n\x00"

    def test_rgb_magic(self):
        img = ImageBuffer(1, 1, 3, np.zeros(3, np.uint8))
        assert serialize_pnm(img).startswith(b"P6\n")

    @given(
        w=st.integers(1, 16),
        h=st.integers(1, 16),
        c=st.sampled_from([1, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_roundtrip(self, w, h, c, seed):
        rng = np.random.default_rng(seed)
        img = ImageBuffer(w, h, c, rng.integers(0, 256, w * h * c, dtype=np.uint8))
        back = parse_pnm(serialize_pnm(img))
        assert back.same_as(img)


class TestUniformSource:
    def test_deterministic(self):
        a = generate_uniform_source(5, 123)
        b = generate_uniform_source(5, 123)
        assert np.array_equal(a.values, b.values)

    def test_range(self):
        v = generate_uniform_source(1000, 7).values
        assert np.all(v >= 0.0) and np.all(v < 1.0)

    def test_mean_bound(self):
        n = 100_000
        v = generate_uniform_source(n, 99).values
        # std error of the mean of U(0,1) is 1/sqrt(12n)
        assert abs(v.mean() - 0.5) <= 3.0 / np.sqrt(12 * n)

    def test_zero_n(self):
        with pytest.raises(ValueError):
            generate_uniform_source(0, 1)


class TestLoadDataset:
    def test_sorted_order(self, tmp_path):
        img = ImageBuffer(1, 1, 1, np.zeros(1, np.uint8))
        (tmp_path / "b.pgm").write_bytes(serialize_pnm(img))
        (tmp_path / "a.pgm").write_bytes(serialize_pnm(img))
        ds = load_dataset(tmp_path)
        assert ds.item_names == ["a.pgm", "b.pgm"]

    def test_empty_dir(self, tmp_path):
        with pytest.raises(ValueError, match="no loadable"):
            load_dataset(tmp_path)

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path / "nope")

    def test_non_pnm_warned(self, tmp_path):
        img = ImageBuffer(2, 2, 3, np.zeros(12, np.uint8))
        (tmp_path / "x.ppm").write_bytes(serialize_pnm(img))
        (tmp_path / "notes.txt").write_text("hello")
        ds = load_dataset(tmp_path)
        assert len(ds) == 1
        assert len(ds.warnings) == 1
        assert "notes.txt" in ds.warnings[0]


class TestImageBuffer:
    def test_sample_length_checked(self):
        with pytest.raises(ValueError):
            ImageBuffer(2, 2, 1, np.zeros(3, np.uint8))

    def test_bad_channels(self):
        with pytest.raises(ValueError):
            ImageBuffer(1, 1, 2, np.zeros(2, np.uint8))

    def test_non_integer_samples_rejected(self):
        # a uint8 cast would silently give [12, 0]
        with pytest.raises(ValueError, match="integers"):
            ImageBuffer(2, 1, 1, [12.7, float("nan")])
        with pytest.raises(ValueError, match="integers"):
            ImageBuffer(1, 1, 1, np.array([7.0]))
        img = ImageBuffer(2, 1, 1, [12, 255])
        assert img.samples.dtype == np.uint8
        assert list(img.samples) == [12, 255]


class TestSourceVector:
    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5, float("inf")])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SourceVector([0.5, bad])

    def test_bounds_accepted(self):
        assert list(SourceVector([0.0, 1.0]).values) == [0.0, 1.0]

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SourceVector([])

    def test_factored_values_are_table_at_cells(self):
        cells = np.array([2, 0, 2, 1], np.uint8)
        v = SourceVector(cells=cells, table=[0.25, 0.5, 1.0])
        assert len(v) == 4 and np.shares_memory(v.cells, cells)
        assert list(v.values) == [1.0, 0.25, 1.0, 0.5]
        assert v.values is v.values  # built once, then kept

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_factored_table_range_checked(self, bad):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SourceVector(cells=np.zeros(3, np.uint16), table=[0.5, bad])

    @pytest.mark.parametrize("values,kwargs", [
        (None, {}), (None, {"cells": np.zeros(2, np.uint8)}), (None, {"table": [0.5]}),
        ([0.5], {"cells": np.zeros(1, np.uint8), "table": [0.5]}),
    ], ids=["nothing", "cells-only", "table-only", "values-and-factors"])
    def test_one_form_required(self, values, kwargs):
        with pytest.raises(ValueError, match="either values"):
            SourceVector(values, **kwargs)

    @pytest.mark.parametrize("cells", [np.zeros(2, np.int64), np.zeros((1, 2), np.uint8)],
                             ids=["int64", "2-d"])
    def test_cells_compact_and_flat(self, cells):
        with pytest.raises(ValueError, match="uint8 or uint16"):
            SourceVector(cells=cells, table=[0.5])

    def test_factored_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            SourceVector(cells=np.zeros(0, np.uint8), table=[0.5])

    def test_read_only(self):
        caller = np.array([0.25, 0.75])
        plain = SourceVector(values=caller)
        factored = SourceVector(cells=np.array([1, 0], np.uint8), table=caller)
        for a in (plain.values, factored.values, factored.cells, factored.table):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0
        caller[0] = 0.5  # the caller's own array keeps its flags
