"""Mother-code parameters, bit-reversal permutation, and the polar encoder."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

GENERATOR_MATRIX_MAX_N = 1024
# Elements in one slab of large elementwise work (see ``slabs``): 256 KB of
# float64 per operand, so the five live operands of ``f_node`` fit in a
# 2 MB L2 cache.
SLAB_ELEMS = 32768


@dataclass(frozen=True)
class CodeSpec:
    """Parameters of the mother polar code.

    Parameters
    ----------
    n_mother : int
        Block length N; must be a power of two, N >= 2.
    k_info : int
        Number of information bits K, 1 <= K <= N.
    """

    n_mother: int
    k_info: int
    m: int = field(init=False)

    def __post_init__(self):
        n = self.n_mother
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_mother must be a power of 2 with n_mother >= 2, got {n}")
        if not 1 <= self.k_info <= n:
            raise ValueError(f"k_info must be in [1, {n}], got {self.k_info}")
        object.__setattr__(self, "m", n.bit_length() - 1)

    @property
    def rate(self) -> float:
        return self.k_info / self.n_mother


def bit_reverse(index: int, m: int) -> int:
    """Reverse the m-bit binary representation of a 0-based index.

    Involutive: bit_reverse(bit_reverse(i, m), m) == i.
    """
    if m < 1:
        raise ValueError(f"bit width m must be >= 1, got {m}")
    if not 0 <= index < (1 << m):
        raise ValueError(f"index {index} out of range for {m} bits")
    out = 0
    for _ in range(m):
        out = (out << 1) | (index & 1)
        index >>= 1
    return out


def bit_reversal_permutation(m: int) -> np.ndarray:
    """Permutation array p with p[i] = bit_reverse(i, m), length 2**m.

    Every call returns a new array, so callers may modify it.
    """
    if m < 1:
        raise ValueError(f"bit width m must be >= 1, got {m}")
    idx = np.arange(1 << m, dtype=np.int64)
    out = np.zeros_like(idx)
    for b in range(m):
        out |= ((idx >> b) & 1) << (m - 1 - b)
    return out


def butterflies(x: np.ndarray):
    """The m stages of the polar butterfly along axis 0 of ``x`` (length
    2**m), widest first: for each, the views ``(a, b)`` of the upper and lower
    halves of every contiguous block of rows, ``b`` half a block below ``a``.

    A caller combines each pair in place, so stage s sees stage s - 1's
    output.  Applied to metrics in bit-reversed order, this widest-first walk
    reaches the input bit-channels in natural order.
    """
    n = x.shape[0]
    half = n // 2
    while half:
        blocks = x.reshape((n // (2 * half), 2 * half) + x.shape[1:])
        yield blocks[:, :half], blocks[:, half:]
        half //= 2


def slabs(shape) -> list[slice]:
    """Consecutive axis-0 slices covering an array of ``shape`` (at least
    1-d), each of at most ``SLAB_ELEMS`` elements but never less than one
    row; an array with no rows is one empty slab.

    Elementwise work on a large array runs slab by slab, so that each slab's
    operands stay in cache.  Each element still goes through the same ufuncs
    in the same order, so the results are bit-identical to whole-array ops.
    """
    rows = shape[0]
    step = max(1, SLAB_ELEMS // max(1, math.prod(shape[1:])))
    if step >= rows:
        return [slice(0, rows)]
    return [slice(i, min(i + step, rows)) for i in range(0, rows, step)]


def polar_transform(x: np.ndarray) -> np.ndarray:
    """x F2^(kron m) along axis 0 of the int8 bits ``x``, in place; each
    ``butterflies`` stage XORs b into a (XOR stages commute, so their order
    is free).  B_N commutes with F2^(kron m), so this maps inputs u to the
    codeword u B_N F2^(kron m) in bit-reversed order."""
    for a, b in butterflies(x):
        a ^= b
    return x


def encode(u, spec: CodeSpec) -> np.ndarray:
    """Encode input bits ``u`` (last axis N, leading axes a batch) to a new
    int8 array of codewords u B_N F2^(kron m), by ``polar_transform``."""
    u = np.asarray(u)
    n = spec.n_mother
    if u.shape[-1] != n:
        raise ValueError(f"input length {u.shape[-1]} does not match N={n}")
    x = polar_transform(np.moveaxis(u, -1, 0).astype(np.int8, order="C"))
    return np.ascontiguousarray(np.moveaxis(x[bit_reversal_permutation(spec.m)], 0, -1))


def generator_matrix(spec: CodeSpec) -> np.ndarray:
    """Dense N x N generator matrix B_N F2^(kron m) over GF(2).

    Sized for testing and inspection; refuses N above ``GENERATOR_MATRIX_MAX_N``.
    """
    n = spec.n_mother
    if n > GENERATOR_MATRIX_MAX_N:
        raise ValueError(f"N={n} exceeds the dense-matrix bound {GENERATOR_MATRIX_MAX_N}")
    f2 = np.array([[1, 0], [1, 1]], dtype=np.int8)
    g = np.array([[1]], dtype=np.int8)
    for _ in range(spec.m):
        g = np.kron(g, f2)
    perm = bit_reversal_permutation(spec.m)
    return g[perm, :]
