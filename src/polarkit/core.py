"""Mother-code parameters, bit-reversal permutation, and the polar encoder."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

GENERATOR_MATRIX_MAX_N = 1024


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


def encode(u, spec: CodeSpec) -> np.ndarray:
    """Encode input bits with the mother polar transform.

    Implements the natural-order butterfly network preceded by an explicit
    bit-reversal permutation of the input, which equals multiplication by
    B_N F2^(kron m) over GF(2).

    Parameters
    ----------
    u : array-like of {0,1}
        Input bits; the last axis must have length N.  Leading axes are
        treated as a batch.

    Returns
    -------
    ndarray of int8, same shape as ``u``.
    """
    u = np.asarray(u)
    n = spec.n_mother
    if u.shape[-1] != n:
        raise ValueError(f"input length {u.shape[-1]} does not match N={n}")
    perm = bit_reversal_permutation(spec.m)
    x = np.ascontiguousarray(u[..., perm]).astype(np.int8)
    for stage in range(spec.m):
        step = 1 << (stage + 1)
        half = step >> 1
        blocks = x.reshape(x.shape[:-1] + (n // step, step))
        blocks[..., :half] ^= blocks[..., half:]
    return x


def generator_matrix(spec: CodeSpec, max_n: int = GENERATOR_MATRIX_MAX_N) -> np.ndarray:
    """Dense N x N generator matrix B_N F2^(kron m) over GF(2).

    Sized for testing and inspection; refuses N above ``max_n``.
    """
    n = spec.n_mother
    if n > max_n:
        raise ValueError(f"N={n} exceeds the dense-matrix bound {max_n}")
    f2 = np.array([[1, 0], [1, 1]], dtype=np.int8)
    g = np.array([[1]], dtype=np.int8)
    for _ in range(spec.m):
        g = np.kron(g, f2)
    perm = bit_reversal_permutation(spec.m)
    return g[perm, :]
