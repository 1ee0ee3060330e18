"""Vectorised bit-manipulation kernels.

These are the hot inner loops of every space-filling-curve computation
in this package, so they are written as branch-free NumPy expressions
operating on ``uint64`` arrays (following the standard
"magic masks" constructions; see e.g. Morton order bit-spreading).

Conventions
-----------
* All public functions accept scalars or ndarrays and return ``int64``
  ndarrays (or Python ints for scalar inputs where noted).
* Coordinates are limited to 31 bits per axis in 2D and 21 bits per axis
  in 3D so the interleaved result fits into a signed 64-bit integer,
  which is far beyond any resolution the experiments use
  (the paper's largest lattice is :math:`4096 = 2^{12}`).
"""

from __future__ import annotations

import numpy as np

from repro._typing import IntArray

__all__ = [
    "MAX_BITS_2D",
    "MAX_BITS_3D",
    "interleave2",
    "deinterleave2",
    "interleave3",
    "deinterleave3",
    "gray_encode",
    "gray_decode",
    "popcount",
    "is_power_of_two",
    "bit_length",
]

#: Maximum supported bits per coordinate for 2D interleaving.
MAX_BITS_2D = 31
#: Maximum supported bits per coordinate for 3D interleaving.
MAX_BITS_3D = 21

_U = np.uint64  # terse local alias for mask literals


def _as_u64(value) -> np.ndarray:
    arr = np.asarray(value)
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"expected integer input, got dtype {arr.dtype}")
    if arr.size and np.any(arr < 0):
        raise ValueError("bit kernels require non-negative inputs")
    return arr.astype(np.uint64, copy=False)


def _as_i64(arr: np.ndarray, scalar_in: bool) -> IntArray:
    out = arr.astype(np.int64, copy=False)
    return out[()] if scalar_in and out.ndim == 0 else out


def _spread2(v: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of ``v`` into the even bit positions."""
    v = v & _U(0xFFFFFFFF)
    v = (v | (v << _U(16))) & _U(0x0000FFFF0000FFFF)
    v = (v | (v << _U(8))) & _U(0x00FF00FF00FF00FF)
    v = (v | (v << _U(4))) & _U(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << _U(2))) & _U(0x3333333333333333)
    v = (v | (v << _U(1))) & _U(0x5555555555555555)
    return v


def _squash2(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread2`: gather the even bit positions."""
    v = v & _U(0x5555555555555555)
    v = (v | (v >> _U(1))) & _U(0x3333333333333333)
    v = (v | (v >> _U(2))) & _U(0x0F0F0F0F0F0F0F0F)
    v = (v | (v >> _U(4))) & _U(0x00FF00FF00FF00FF)
    v = (v | (v >> _U(8))) & _U(0x0000FFFF0000FFFF)
    v = (v | (v >> _U(16))) & _U(0x00000000FFFFFFFF)
    return v


def _spread3(v: np.ndarray) -> np.ndarray:
    """Spread the low 21 bits of ``v`` to every third bit position."""
    v = v & _U(0x1FFFFF)
    v = (v | (v << _U(32))) & _U(0x1F00000000FFFF)
    v = (v | (v << _U(16))) & _U(0x1F0000FF0000FF)
    v = (v | (v << _U(8))) & _U(0x100F00F00F00F00F)
    v = (v | (v << _U(4))) & _U(0x10C30C30C30C30C3)
    v = (v | (v << _U(2))) & _U(0x1249249249249249)
    return v


def _squash3(v: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_spread3`."""
    v = v & _U(0x1249249249249249)
    v = (v | (v >> _U(2))) & _U(0x10C30C30C30C30C3)
    v = (v | (v >> _U(4))) & _U(0x100F00F00F00F00F)
    v = (v | (v >> _U(8))) & _U(0x1F0000FF0000FF)
    v = (v | (v >> _U(16))) & _U(0x1F00000000FFFF)
    v = (v | (v >> _U(32))) & _U(0x1FFFFF)
    return v


def interleave2(x, y) -> IntArray:
    """Interleave two coordinate arrays into Morton (Z-order) codes.

    Bit ``i`` of ``x`` lands at position ``2i + 1`` and bit ``i`` of ``y``
    at position ``2i``, i.e. ``x`` supplies the **high** bit of every
    pair.  With this convention the first coordinate selects the quadrant
    column, matching the curve illustrations in the paper (Fig. 1(b)).
    """
    scalar = np.isscalar(x) and np.isscalar(y)
    xu, yu = _as_u64(x), _as_u64(y)
    if xu.size and (np.any(xu >> _U(MAX_BITS_2D)) or np.any(yu >> _U(MAX_BITS_2D))):
        raise ValueError(f"coordinates exceed {MAX_BITS_2D} bits")
    return _as_i64((_spread2(xu) << _U(1)) | _spread2(yu), scalar)


def deinterleave2(code) -> tuple[IntArray, IntArray]:
    """Split Morton codes back into ``(x, y)`` coordinate arrays."""
    scalar = np.isscalar(code)
    c = _as_u64(code)
    return _as_i64(_squash2(c >> _U(1)), scalar), _as_i64(_squash2(c), scalar)


def interleave3(x, y, z) -> IntArray:
    """Interleave three coordinate arrays into 3D Morton codes.

    ``x`` supplies the highest bit of every triple, then ``y``, then ``z``.
    """
    scalar = np.isscalar(x) and np.isscalar(y) and np.isscalar(z)
    xu, yu, zu = _as_u64(x), _as_u64(y), _as_u64(z)
    for a in (xu, yu, zu):
        if a.size and np.any(a >> _U(MAX_BITS_3D)):
            raise ValueError(f"coordinates exceed {MAX_BITS_3D} bits")
    code = (_spread3(xu) << _U(2)) | (_spread3(yu) << _U(1)) | _spread3(zu)
    return _as_i64(code, scalar)


def deinterleave3(code) -> tuple[IntArray, IntArray, IntArray]:
    """Split 3D Morton codes back into ``(x, y, z)`` coordinate arrays."""
    scalar = np.isscalar(code)
    c = _as_u64(code)
    return (
        _as_i64(_squash3(c >> _U(2)), scalar),
        _as_i64(_squash3(c >> _U(1)), scalar),
        _as_i64(_squash3(c), scalar),
    )


def gray_encode(value) -> IntArray:
    """Map binary integers to their reflected Gray code: ``g = v ^ (v >> 1)``."""
    scalar = np.isscalar(value)
    v = _as_u64(value)
    return _as_i64(v ^ (v >> _U(1)), scalar)


def gray_decode(code) -> IntArray:
    """Invert :func:`gray_encode` via a logarithmic prefix-XOR cascade."""
    scalar = np.isscalar(code)
    v = _as_u64(code).copy()
    shift = 1
    while shift < 64:
        v ^= v >> _U(shift)
        shift <<= 1
    return _as_i64(v, scalar)


def popcount(value) -> IntArray:
    """Count set bits per element (SWAR algorithm on ``uint64``)."""
    scalar = np.isscalar(value)
    v = _as_u64(value).copy()
    v = v - ((v >> _U(1)) & _U(0x5555555555555555))
    v = (v & _U(0x3333333333333333)) + ((v >> _U(2)) & _U(0x3333333333333333))
    v = (v + (v >> _U(4))) & _U(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):  # the SWAR multiply wraps mod 2**64 by design
        v = (v * _U(0x0101010101010101)) >> _U(56)
    return _as_i64(v, scalar)


def is_power_of_two(value: int) -> bool:
    """Return ``True`` when ``value`` is a positive power of two."""
    v = int(value)
    return v > 0 and (v & (v - 1)) == 0


def bit_length(value) -> IntArray:
    """Per-element bit length (position of highest set bit plus one).

    Exact for every ``uint64``: the ``np.frexp`` exponent of a positive
    float is its bit length, and each 32-bit half of the input converts
    to ``float64`` without rounding (a whole ``uint64`` above ``2**53``
    would not).
    """
    scalar = np.isscalar(value)
    v = _as_u64(value)
    high = np.frexp((v >> _U(32)).astype(np.float64))[1]
    low = np.frexp((v & _U(0xFFFFFFFF)).astype(np.float64))[1]
    return _as_i64(np.asarray(np.maximum(high + 32 * (high != 0), low)), scalar)
