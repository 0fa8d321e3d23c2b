"""Unit and property tests for the Hilbert curve."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hilbert import (
    hilbert_decode,
    hilbert_encode,
    hilbert_sort_key,
    required_bits,
    scaled_hilbert_key,
)
from repro.hilbert.curve import _axes_to_transpose, _interleave


class TestRequiredBits:
    def test_small_values(self):
        assert required_bits(0) == 1
        assert required_bits(1) == 1
        assert required_bits(2) == 2
        assert required_bits(255) == 8
        assert required_bits(256) == 9

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            required_bits(-1)


class TestEncodeDecode:
    @pytest.mark.parametrize("dims", [1, 2, 3, 4, 5])
    def test_roundtrip_random(self, dims, rng):
        bits = 6
        pts = rng.integers(0, 1 << bits, size=(300, dims))
        idx = hilbert_encode(pts, bits)
        back = hilbert_decode(idx, dims, bits)
        assert np.array_equal(back.astype(np.int64), pts)

    def test_curve_is_contiguous_2d(self):
        bits = 4
        idx = np.arange(1 << (2 * bits), dtype=np.uint64)
        coords = hilbert_decode(idx, 2, bits).astype(np.int64)
        steps = np.abs(np.diff(coords, axis=0)).sum(axis=1)
        assert (steps == 1).all()

    def test_curve_is_contiguous_3d(self):
        bits = 3
        idx = np.arange(1 << (3 * bits), dtype=np.uint64)
        coords = hilbert_decode(idx, 3, bits).astype(np.int64)
        steps = np.abs(np.diff(coords, axis=0)).sum(axis=1)
        assert (steps == 1).all()

    def test_bijection_covers_all_cells(self):
        bits, dims = 3, 2
        coords = np.array(
            [(x, y) for x in range(8) for y in range(8)], dtype=np.int64
        )
        idx = hilbert_encode(coords, bits)
        assert len(set(idx.tolist())) == 64

    def test_empty_input(self):
        assert hilbert_encode(np.empty((0, 3), dtype=np.int64), 4).size == 0

    def test_out_of_range_coordinates(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.array([[16, 0]]), 4)
        with pytest.raises(ValueError):
            hilbert_encode(np.array([[-1, 0]]), 4)

    def test_too_many_bits(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.zeros((1, 5), dtype=np.int64), 13)

    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            hilbert_encode(np.zeros(5, dtype=np.int64), 4)
        with pytest.raises(ValueError):
            hilbert_decode(np.zeros((2, 2), dtype=np.uint64), 2, 4)


@given(
    dims=st.integers(min_value=1, max_value=5),
    bits=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_roundtrip_property(dims, bits, data):
    """encode/decode are mutually inverse for any admissible point set."""
    if bits * dims > 40:
        bits = 40 // dims
    n = data.draw(st.integers(min_value=1, max_value=20))
    pts = data.draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=(1 << bits) - 1),
                min_size=dims,
                max_size=dims,
            ),
            min_size=n,
            max_size=n,
        )
    )
    arr = np.array(pts, dtype=np.int64)
    idx = hilbert_encode(arr, bits)
    back = hilbert_decode(idx, dims, bits)
    assert np.array_equal(back.astype(np.int64), arr)


class TestSortKeys:
    def test_sort_key_shifts_negative_coordinates(self, rng):
        pts = rng.integers(-50, 50, size=(100, 2))
        keys = hilbert_sort_key(pts)
        assert keys.shape == (100,)

    def test_scaled_keys_preserve_order_on_line(self):
        # Points along one dimension should be monotone in curve order
        # after scaling (the 1-D Hilbert curve is the identity).
        pts = np.arange(10).reshape(-1, 1)
        keys = scaled_hilbert_key(pts, np.array([0]), np.array([9]))
        assert (np.diff(keys.astype(np.int64)) > 0).all()

    def test_scaled_keys_improve_normalized_locality(self, rng):
        """The motivating bug: with mixed-cardinality domains (CENSUS's
        Age(79) x Gender(2) x Education(17)) the unscaled curve treats a
        gender flip as one step, but the information-loss metric charges
        it a full attribute span.  Under the metric's normalization,
        windows of the scaled curve must be tighter."""
        n = 3000
        lows = np.array([17, 0, 1])
        highs = np.array([95, 1, 17])
        pts = np.column_stack(
            [
                rng.integers(17, 96, n),
                rng.integers(0, 2, n),
                rng.integers(1, 18, n),
            ]
        )
        widths = (highs - lows).astype(float)

        def mean_normalized_span(keys):
            order = np.argsort(keys)
            spans = []
            for start in range(0, n - 60, 60):
                window = pts[order[start : start + 60]]
                extent = window.max(axis=0) - window.min(axis=0)
                spans.append(float((extent / widths).mean()))
            return np.mean(spans)

        scaled = scaled_hilbert_key(pts, lows, highs)
        unscaled = hilbert_sort_key(pts)
        assert mean_normalized_span(scaled) < mean_normalized_span(unscaled)

    def test_scaled_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            scaled_hilbert_key(
                np.zeros((2, 2)), np.array([0, 0]), np.array([-1, 1])
            )

    def test_scaled_empty(self):
        out = scaled_hilbert_key(
            np.empty((0, 2)), np.array([0, 0]), np.array([1, 1])
        )
        assert out.size == 0


# ----------------------------------------------------------------------
# Oracle: a masked fancy-index transform that encodes every row
# ----------------------------------------------------------------------

_U1 = np.uint64(1)


def _axes_to_transpose_masked(x, bits):
    """Reference ``_axes_to_transpose``: masked fancy-index updates."""
    n, d = x.shape
    m = np.uint64(1) << np.uint64(bits - 1)
    q = m
    while q > _U1:
        p = q - _U1
        for i in range(d):
            has_bit = (x[:, i] & q) != 0
            x[has_bit, 0] ^= p
            t = (x[~has_bit, 0] ^ x[~has_bit, i]) & p
            x[~has_bit, 0] ^= t
            x[~has_bit, i] ^= t
        q >>= _U1
    for i in range(1, d):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = m
    while q > _U1:
        sel = (x[:, d - 1] & q) != 0
        t[sel] ^= q - _U1
        q >>= _U1
    for i in range(d):
        x[:, i] ^= t


def _encode_every_row(points, bits):
    """Reference ``hilbert_encode``: every row, masked transform."""
    x = np.asarray(points).astype(np.uint64).copy()
    _axes_to_transpose_masked(x, bits)
    return _interleave(x, bits)


def _random_points(rng, n, d, bits):
    hi = np.uint64((1 << bits) - 1)
    raw = rng.integers(0, 2**63, size=(n, d), dtype=np.uint64)
    return raw & hi if bits < 64 else raw * np.uint64(2) + (raw & _U1)


class TestEncodeOracle:
    @pytest.mark.parametrize(
        "d,bits", [(1, 1), (1, 12), (1, 64), (2, 32), (3, 12), (4, 16),
                   (5, 12), (8, 8), (64, 1)]
    )
    def test_transform_matches_masked(self, d, bits, rng):
        x = _random_points(rng, 500, d, bits)
        expected = x.copy()
        _axes_to_transpose_masked(expected, bits)
        _axes_to_transpose(x, bits)
        assert np.array_equal(x, expected)

    @pytest.mark.parametrize(
        "d,bits", [(1, 7), (1, 64), (2, 32), (5, 12), (8, 8), (64, 1)]
    )
    def test_repeated_shuffled_points(self, d, bits, rng):
        """Every point occurs several times, in shuffled order."""
        distinct = _random_points(rng, 40, d, bits)
        points = distinct[rng.permutation(np.repeat(np.arange(40), 5))]
        keys = hilbert_encode(points, bits)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, _encode_every_row(points, bits))

    def test_all_rows_one_point(self):
        points = np.full((50, 4), 9, dtype=np.int64)
        assert np.array_equal(
            hilbert_encode(points, 4), _encode_every_row(points, 4)
        )


@given(
    dims=st.integers(min_value=1, max_value=6),
    bits=st.integers(min_value=1, max_value=10),
    data=st.data(),
)
@settings(max_examples=80, deadline=None)
def test_encode_matches_every_row_oracle(dims, bits, data):
    """Deduplicated encoding equals encoding each row, repeats or not."""
    pool = data.draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=(1 << bits) - 1),
                min_size=dims, max_size=dims,
            ),
            min_size=1, max_size=8,
        )
    )
    picks = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=40)
    )
    points = np.array([pool[i] for i in picks], dtype=np.int64)
    assert np.array_equal(
        hilbert_encode(points, bits), _encode_every_row(points, bits)
    )
