"""Unit and property tests for the bit-manipulation kernels."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import (
    MAX_BITS_2D,
    MAX_BITS_3D,
    bit_length,
    deinterleave2,
    deinterleave3,
    gray_decode,
    gray_encode,
    interleave2,
    interleave3,
    is_power_of_two,
    popcount,
)

coords2d = st.integers(min_value=0, max_value=(1 << MAX_BITS_2D) - 1)
coords3d = st.integers(min_value=0, max_value=(1 << MAX_BITS_3D) - 1)
u63 = st.integers(min_value=0, max_value=(1 << 63) - 1)


class TestInterleave2:
    def test_known_values(self):
        # x supplies the high bit of each pair
        assert interleave2(0, 0) == 0
        assert interleave2(0, 1) == 1
        assert interleave2(1, 0) == 2
        assert interleave2(1, 1) == 3
        assert interleave2(2, 0) == 8
        assert interleave2(3, 3) == 15

    def test_vectorised_matches_scalar(self):
        xs = np.array([0, 1, 5, 100, 2**20])
        ys = np.array([3, 1, 2, 50, 2**19])
        vec = interleave2(xs, ys)
        for i in range(xs.size):
            assert vec[i] == interleave2(int(xs[i]), int(ys[i]))

    @given(coords2d, coords2d)
    def test_roundtrip(self, x, y):
        code = interleave2(x, y)
        assert deinterleave2(code) == (x, y)

    @given(coords2d, coords2d)
    def test_monotone_in_high_coordinate(self, x, y):
        # Fixing y, increasing x can only increase the code.
        if x < (1 << MAX_BITS_2D) - 1:
            assert interleave2(x + 1, y) > interleave2(x, y)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            interleave2(-1, 0)

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            interleave2(1 << MAX_BITS_2D, 0)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            interleave2(np.array([0.5]), np.array([1.0]))


class TestInterleave3:
    def test_known_values(self):
        assert interleave3(0, 0, 0) == 0
        assert interleave3(0, 0, 1) == 1
        assert interleave3(0, 1, 0) == 2
        assert interleave3(1, 0, 0) == 4
        assert interleave3(1, 1, 1) == 7

    @given(coords3d, coords3d, coords3d)
    def test_roundtrip(self, x, y, z):
        assert deinterleave3(interleave3(x, y, z)) == (x, y, z)

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            interleave3(1 << MAX_BITS_3D, 0, 0)


class TestGray:
    def test_sequence_prefix(self):
        # Classic reflected Gray sequence
        assert [int(gray_encode(i)) for i in range(8)] == [0, 1, 3, 2, 6, 7, 5, 4]

    def test_adjacent_codes_differ_in_one_bit(self):
        vals = gray_encode(np.arange(1024))
        diffs = popcount(vals[1:] ^ vals[:-1])
        assert np.all(diffs == 1)

    @given(u63)
    def test_roundtrip(self, v):
        assert gray_decode(gray_encode(v)) == v

    @given(u63)
    def test_decode_then_encode(self, v):
        assert gray_encode(gray_decode(v)) == v


class TestPopcount:
    def test_known_values(self):
        assert popcount(0) == 0
        assert popcount(1) == 1
        assert popcount(0xFF) == 8
        assert popcount((1 << 63) - 1) == 63

    @given(u63)
    def test_matches_python(self, v):
        assert popcount(v) == bin(v).count("1")

    def test_vectorised(self):
        vals = np.array([0, 3, 7, 255, 2**40 - 1])
        assert popcount(vals).tolist() == [0, 2, 3, 8, 40]


def masked_loop_bit_length(value) -> np.ndarray:
    """Reference: binary search for the highest set bit, six masked passes."""
    v = np.asarray(value).astype(np.uint64)
    out = np.zeros(v.shape, dtype=np.int64)
    shift = 32
    while shift:
        mask = v >> np.uint64(shift) != 0
        out[mask] += shift
        v = np.where(mask, v >> np.uint64(shift), v)
        shift >>= 1
    out += (v != 0).astype(np.int64)
    return out


class TestBitLength:
    @given(u63)
    def test_matches_python(self, v):
        assert bit_length(v) == v.bit_length()

    def test_vectorised(self):
        vals = np.array([0, 1, 2, 3, 4, 255, 256])
        assert bit_length(vals).tolist() == [0, 1, 2, 2, 3, 8, 9]

    def test_matches_masked_loop_on_every_uint64_boundary(self):
        powers = [1 << k for k in range(64)]
        vals = np.array(
            [0, (1 << 64) - 1] + powers + [p - 1 for p in powers] + [p + 1 for p in powers],
            dtype=np.uint64,
        )
        got = bit_length(vals)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, masked_loop_bit_length(vals))
        assert got.tolist() == [int(v).bit_length() for v in vals.tolist()]

    def test_matches_masked_loop_on_random_values(self):
        rng = np.random.default_rng(64)
        raw = rng.integers(0, np.iinfo(np.uint64).max, 200_000, dtype=np.uint64, endpoint=True)
        vals = raw >> rng.integers(0, 64, raw.size).astype(np.uint64)  # every bit length
        np.testing.assert_array_equal(bit_length(vals), masked_loop_bit_length(vals))

    def test_uint64_max_above_float64_precision(self):
        # float64(2**64 - 1) rounds up to 2**64; the halves never round.
        assert bit_length(np.uint64((1 << 64) - 1)) == 64
        assert bit_length(np.uint64((1 << 53) + 1)) == 54


class TestScalarAndShapeContract:
    """Every public kernel honours the scalar/0-d/empty conventions.

    Scalars in -> integer scalars out (not 0-d arrays); 0-d arrays in ->
    0-d arrays out; empty arrays pass through with shape preserved.
    """

    # (callable taking positional uint inputs, arity, tuple-valued?)
    KERNELS = [
        (interleave2, 2, False),
        (deinterleave2, 1, True),
        (interleave3, 3, False),
        (deinterleave3, 1, True),
        (gray_encode, 1, False),
        (gray_decode, 1, False),
        (popcount, 1, False),
        (bit_length, 1, False),
    ]

    @staticmethod
    def _outputs(result, is_tuple):
        return result if is_tuple else (result,)

    @pytest.mark.parametrize("fn,arity,is_tuple", KERNELS)
    def test_scalar_in_scalar_out(self, fn, arity, is_tuple):
        for out in self._outputs(fn(*([3] * arity)), is_tuple):
            assert np.isscalar(out), f"{fn.__name__} returned {type(out)}"
            assert not isinstance(out, np.ndarray)

    @pytest.mark.parametrize("fn,arity,is_tuple", KERNELS)
    def test_numpy_scalar_in_scalar_out(self, fn, arity, is_tuple):
        # np.isscalar(np.int64(3)) is True, so numpy scalars count too.
        for out in self._outputs(fn(*([np.int64(3)] * arity)), is_tuple):
            assert np.isscalar(out)

    @pytest.mark.parametrize("fn,arity,is_tuple", KERNELS)
    def test_zero_d_array_in_dimensionless_int64_out(self, fn, arity, is_tuple):
        # NumPy collapses 0-d operands to scalars inside the kernels, so
        # 0-d arrays come back as dimensionless int64 values.
        for out in self._outputs(fn(*([np.array(3)] * arity)), is_tuple):
            assert np.ndim(out) == 0
            assert np.asarray(out).dtype == np.int64

    @pytest.mark.parametrize("fn,arity,is_tuple", KERNELS)
    def test_empty_array_passes_through(self, fn, arity, is_tuple):
        empty = np.array([], dtype=np.int64)
        for out in self._outputs(fn(*([empty] * arity)), is_tuple):
            assert isinstance(out, np.ndarray)
            assert out.shape == (0,) and out.dtype == np.int64

    def test_interleave2_exact_31_bit_limit(self):
        top = (1 << MAX_BITS_2D) - 1
        code = interleave2(top, top)
        assert code == (1 << 2 * MAX_BITS_2D) - 1  # fits in int64
        assert deinterleave2(code) == (top, top)
        with pytest.raises(ValueError):
            interleave2(top + 1, 0)
        with pytest.raises(ValueError):
            interleave2(0, top + 1)

    def test_interleave3_exact_21_bit_limit(self):
        top = (1 << MAX_BITS_3D) - 1
        code = interleave3(top, top, top)
        assert code == (1 << 3 * MAX_BITS_3D) - 1
        assert deinterleave3(code) == (top, top, top)
        for args in [(top + 1, 0, 0), (0, top + 1, 0), (0, 0, top + 1)]:
            with pytest.raises(ValueError):
                interleave3(*args)

    def test_is_power_of_two_scalar_inputs(self):
        assert is_power_of_two(np.int64(64))
        assert not is_power_of_two(np.int64(65))
        assert isinstance(is_power_of_two(2), bool)


class TestIsPowerOfTwo:
    @pytest.mark.parametrize("v", [1, 2, 4, 8, 1024, 2**30])
    def test_powers(self, v):
        assert is_power_of_two(v)

    @pytest.mark.parametrize("v", [0, -1, -2, 3, 6, 12, 2**30 + 1])
    def test_non_powers(self, v):
        assert not is_power_of_two(v)
