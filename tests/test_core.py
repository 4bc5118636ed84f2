import numpy as np
import pytest

from polarkit import (CodeSpec, bit_reversal_permutation, bit_reverse, encode,
                      generator_matrix)


def test_bit_reverse_examples():
    assert bit_reverse(0, 3) == 0
    assert bit_reverse(1, 3) == 4
    assert bit_reverse(6, 3) == 3


def test_bit_reverse_involution():
    for m in range(1, 9):
        for i in range(1 << m):
            assert bit_reverse(bit_reverse(i, m), m) == i


def test_bit_reverse_range_errors():
    with pytest.raises(ValueError):
        bit_reverse(8, 3)
    with pytest.raises(ValueError):
        bit_reverse(-1, 3)
    with pytest.raises(ValueError):
        bit_reverse(0, 0)


def test_codespec_validation():
    spec = CodeSpec(8, 4)
    assert spec.m == 3
    assert spec.rate == 0.5
    with pytest.raises(ValueError):
        CodeSpec(1, 1)  # m >= 1 required
    with pytest.raises(ValueError):
        CodeSpec(6, 3)
    with pytest.raises(ValueError):
        CodeSpec(8, 0)
    with pytest.raises(ValueError):
        CodeSpec(8, 9)


def test_generator_matrix_examples():
    assert generator_matrix(CodeSpec(2, 1)).tolist() == [[1, 0], [1, 1]]
    g4 = generator_matrix(CodeSpec(4, 2))
    assert g4[1].tolist() == [1, 0, 1, 0]  # row 2, 1-based


def test_generator_matrix_capacity_bound():
    with pytest.raises(ValueError):
        generator_matrix(CodeSpec(2048, 1024), max_n=1024)


def test_encode_examples():
    spec = CodeSpec(4, 4)
    assert encode(np.zeros(4, dtype=int), spec).tolist() == [0, 0, 0, 0]
    assert encode(np.array([1, 0, 0, 0]), spec).tolist() == [1, 0, 0, 0]
    assert encode(np.array([0, 1, 0, 0]), spec).tolist() == [1, 0, 1, 0]


def test_encode_length_mismatch():
    with pytest.raises(ValueError):
        encode(np.zeros(5, dtype=int), CodeSpec(4, 4))


def test_encode_matches_generator_matrix():
    rng = np.random.default_rng(42)
    for n in (2, 4, 8, 16, 32):
        spec = CodeSpec(n, n)
        g = generator_matrix(spec)
        u = rng.integers(0, 2, size=(100, n), dtype=np.int8)
        assert np.array_equal(encode(u, spec), (u @ g) % 2)


def test_encode_linearity():
    rng = np.random.default_rng(7)
    spec = CodeSpec(16, 16)
    a = rng.integers(0, 2, size=(50, 16), dtype=np.int8)
    b = rng.integers(0, 2, size=(50, 16), dtype=np.int8)
    assert np.array_equal(encode(a ^ b, spec), encode(a, spec) ^ encode(b, spec))


def test_encode_is_self_inverse():
    rng = np.random.default_rng(11)
    for n in (2, 4, 8, 16):
        spec = CodeSpec(n, n)
        u = rng.integers(0, 2, size=(64, n), dtype=np.int8)
        assert np.array_equal(encode(encode(u, spec), spec), u)


def test_bit_reversal_permutation_is_involution():
    for m in (1, 2, 3, 5):
        perm = bit_reversal_permutation(m)
        assert np.array_equal(perm[perm], np.arange(1 << m))


def test_bit_reversal_permutation_matches_scalar_reference():
    for m in range(1, 13):
        perm = bit_reversal_permutation(m)
        assert perm.dtype == np.int64
        assert perm.tolist() == [bit_reverse(i, m) for i in range(1 << m)]
    first = bit_reversal_permutation(4)
    first[:] = 0
    assert bit_reversal_permutation(4).tolist() == [bit_reverse(i, 4) for i in range(16)]
    with pytest.raises(ValueError):
        bit_reversal_permutation(0)
