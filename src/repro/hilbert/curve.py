"""Vectorized d-dimensional Hilbert space-filling curve.

BUREL materializes equivalence classes by picking, for each bucket, the
tuples nearest to a seed tuple in QI-space; nearest-neighbour search is
approximated by sorting tuples along a Hilbert curve (Section 4.5, citing
Moon et al.).  This module provides the curve itself as a reusable
substrate: an encoder mapping integer coordinate vectors to curve indices
and the inverse decoder, both vectorized over numpy arrays.

The implementation follows John Skilling, "Programming the Hilbert
curve" (AIP Conf. Proc. 707, 2004): coordinates are converted to/from the
"transpose" bit representation with Gray-code correction sweeps (the
encoder's are whole-column ``np.where`` updates).  All bit manipulation
is done on ``uint64`` arrays, so ``bits * dims`` must not exceed 64 —
comfortably enough for microdata QI-spaces (<= 8 attributes of
cardinality <= 65536 at 8 dims x 8 bits, or our default 5 dims x 12
bits).  The same bound lets the encoder pack each point into one
``uint64``, transform only the distinct points and expand their keys by
the inverse map: QI tuples repeat heavily in microdata (49,118 distinct
in 200K census rows).
"""

from __future__ import annotations

import numpy as np

from .._distinct import distinct_rows

_U0 = np.uint64(0)
_U1 = np.uint64(1)


def required_bits(max_coordinate: int) -> int:
    """Number of bits needed to represent coordinates in ``[0, max]``."""
    if max_coordinate < 0:
        raise ValueError("coordinates must be non-negative")
    return max(1, int(max_coordinate).bit_length())


def hilbert_encode(points: np.ndarray, bits: int) -> np.ndarray:
    """Map integer points to their Hilbert curve index.

    Args:
        points: Array of shape ``(n, d)`` with non-negative integer
            coordinates, each strictly less than ``2**bits``.
        bits: Curve order (bits per dimension).

    Returns:
        ``uint64`` array of shape ``(n,)`` with curve indices in
        ``[0, 2**(bits*d))``.
    """
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise ValueError("points must have shape (n, d)")
    n, d = pts.shape
    if d < 1:
        raise ValueError("at least one dimension is required")
    if bits < 1 or bits * d > 64:
        raise ValueError(f"bits*dims must be in [1, 64], got {bits}*{d}")
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    if pts.min() < 0 or pts.max() >= (1 << bits):
        raise ValueError(f"coordinates must lie in [0, 2**{bits})")

    first, inverse = distinct_rows(pts.T, [1 << bits] * d)
    x = pts[first].astype(np.uint64)
    _axes_to_transpose(x, bits)
    return _interleave(x, bits)[inverse]


def hilbert_decode(indices: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Inverse of :func:`hilbert_encode`.

    Args:
        indices: ``(n,)`` array of curve indices.
        dims: Number of dimensions ``d``.
        bits: Curve order (bits per dimension).

    Returns:
        ``(n, d)`` ``uint64`` array of coordinates.
    """
    idx = np.asarray(indices, dtype=np.uint64)
    if idx.ndim != 1:
        raise ValueError("indices must be one-dimensional")
    if dims < 1 or bits < 1 or bits * dims > 64:
        raise ValueError("invalid dims/bits")
    x = _deinterleave(idx, dims, bits)
    _transpose_to_axes(x, bits)
    return x


def hilbert_sort_key(points: np.ndarray, bits: int | None = None) -> np.ndarray:
    """Hilbert indices suitable for sorting arbitrary integer points.

    Convenience wrapper that shifts points to non-negative coordinates and
    picks the smallest adequate curve order when ``bits`` is omitted.

    Note: dimensions keep their raw extents, so domains of very different
    cardinalities occupy a thin slab of the curve's cube and curve
    locality degrades.  For QI-space sorting prefer
    :func:`scaled_hilbert_key`.
    """
    pts = np.asarray(points)
    if pts.ndim != 2:
        raise ValueError("points must have shape (n, d)")
    if pts.shape[0] == 0:
        return np.empty(0, dtype=np.uint64)
    lo = pts.min(axis=0)
    shifted = pts - lo
    if bits is None:
        bits = required_bits(int(shifted.max(initial=0)))
        bits = min(bits, 64 // pts.shape[1])
        hi = int(shifted.max(initial=0))
        if hi >= (1 << bits):
            raise ValueError(
                f"coordinates too large for {pts.shape[1]} dims: max {hi}"
            )
    return hilbert_encode(shifted, bits)


def scaled_hilbert_key(
    points: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    bits: int | None = None,
) -> np.ndarray:
    """Hilbert indices after normalizing each dimension to the full grid.

    Every attribute's domain ``[lows[j], highs[j]]`` is stretched onto
    ``[0, 2**bits - 1]`` before encoding, so the curve sees a cube that
    the data can fill in every direction.  This matches the information-
    loss metric's per-attribute normalization (Eq. 2: each attribute's
    full span counts equally) and is essential for locality when domain
    cardinalities differ by orders of magnitude (e.g. Age(79) vs
    Gender(2) in the CENSUS schema).

    Args:
        points: ``(n, d)`` integer coordinates.
        lows/highs: Inclusive per-dimension domain bounds.
        bits: Grid resolution per dimension; defaults to the largest
            value with ``bits * d <= 60`` capped at 12 (4096 cells per
            axis — finer than any microdata attribute).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must have shape (n, d)")
    n, d = pts.shape
    if n == 0:
        return np.empty(0, dtype=np.uint64)
    lows = np.asarray(lows, dtype=float)
    highs = np.asarray(highs, dtype=float)
    if lows.shape != (d,) or highs.shape != (d,):
        raise ValueError("lows/highs must have one entry per dimension")
    if np.any(highs < lows):
        raise ValueError("highs must be >= lows")
    if bits is None:
        bits = min(12, max(1, 60 // d))
    span = np.maximum(highs - lows, 1.0)
    grid_max = (1 << bits) - 1
    scaled = np.rint((pts - lows) / span * grid_max).astype(np.int64)
    scaled = np.clip(scaled, 0, grid_max)
    return hilbert_encode(scaled, bits)


# ----------------------------------------------------------------------
# Skilling transform internals (operate in place on uint64 (n, d) arrays)
# ----------------------------------------------------------------------


def _axes_to_transpose(x: np.ndarray, bits: int) -> None:
    """Convert coordinates to Hilbert transpose form, in place."""
    n, d = x.shape
    m = np.uint64(1) << np.uint64(bits - 1)

    # Inverse undo: from highest bit plane down to 2.
    q = m
    while q > _U1:
        p = q - _U1
        for i in range(d):
            has_bit = (x[:, i] & q) != 0
            # Where the bit is set: invert the low bits of x[:, 0].
            # Elsewhere: exchange the low bits of x[:, 0] and x[:, i]
            # (for i == 0 the exchange is a no-op: t is zero).
            t = np.where(has_bit, _U0, (x[:, 0] ^ x[:, i]) & p)
            x[:, 0] ^= np.where(has_bit, p, t)
            x[:, i] ^= t
        q >>= _U1

    # Gray encode.
    for i in range(1, d):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(n, dtype=np.uint64)
    q = m
    while q > _U1:
        t ^= np.where((x[:, d - 1] & q) != 0, q - _U1, _U0)
        q >>= _U1
    for i in range(d):
        x[:, i] ^= t


def _transpose_to_axes(x: np.ndarray, bits: int) -> None:
    """Convert Hilbert transpose form back to coordinates, in place."""
    n, d = x.shape
    top = np.uint64(2) << np.uint64(bits - 1)

    # Gray decode by H ^ (H/2).
    t = x[:, d - 1] >> _U1
    for i in range(d - 1, 0, -1):
        x[:, i] ^= x[:, i - 1]
    x[:, 0] ^= t

    # Undo excess work: from bit plane 2 up to the highest.
    q = np.uint64(2)
    while q != top:
        p = q - _U1
        for i in range(d - 1, -1, -1):
            has_bit = (x[:, i] & q) != 0
            x[has_bit, 0] ^= p
            t2 = (x[~has_bit, 0] ^ x[~has_bit, i]) & p
            x[~has_bit, 0] ^= t2
            x[~has_bit, i] ^= t2
        q <<= _U1


def _interleave(x: np.ndarray, bits: int) -> np.ndarray:
    """Pack transpose form into a single index, MSB-first across dims."""
    n, d = x.shape
    out = np.zeros(n, dtype=np.uint64)
    for bit in range(bits - 1, -1, -1):
        shift = np.uint64(bit)
        for i in range(d):
            out = (out << _U1) | ((x[:, i] >> shift) & _U1)
    return out


def _deinterleave(idx: np.ndarray, dims: int, bits: int) -> np.ndarray:
    """Unpack a single index into transpose form (inverse of _interleave)."""
    n = idx.shape[0]
    x = np.zeros((n, dims), dtype=np.uint64)
    pos = bits * dims  # next bit to read, counting down from the MSB side
    for bit in range(bits - 1, -1, -1):
        for i in range(dims):
            pos -= 1
            x[:, i] |= ((idx >> np.uint64(pos)) & _U1) << np.uint64(bit)
    return x
