"""LLR-domain successive-cancellation decoding, CRC-aided list decoding, and
the CRC-16 codec (generator x^16 + x^12 + x^5 + 1).

Both decoders operate on batches of frames: every tree operation is a numpy
op across the batch, which keeps Monte Carlo runs fast without native code.
A decoder instance holds per-call scratch state, so one instance must not be
shared across concurrent decodes; instances are cheap to construct.

The list decoder copies path state lazily (see ``SCLDecoder``): all paths
share the channel LLR layer, a prune copies only the layers that later steps
read, and decided bits are recovered by backtracking parent pointers.  A
batch of B frames holds about B*L*N floats plus B*L*K one-byte bits and
pointers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CodeSpec, bit_reversal_permutation

CRC16_POLY = 0x1021
CRC16_LEN = 16
_CRC16_SHIFTS = np.arange(CRC16_LEN - 1, -1, -1)


def f_node(l_a, l_b):
    """Check-node combination 2 atanh(tanh(l_a/2) tanh(l_b/2)).

    Computed in the numerically safe Jacobian form
    sign(a) sign(b) min(|a|, |b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|),
    which is exact in reals and never overflows.
    """
    l_a = np.asarray(l_a, dtype=np.float64)
    l_b = np.asarray(l_b, dtype=np.float64)
    base = np.sign(l_a) * np.sign(l_b) * np.minimum(np.abs(l_a), np.abs(l_b))
    corr = np.log1p(np.exp(-np.abs(l_a + l_b))) - np.log1p(np.exp(-np.abs(l_a - l_b)))
    out = base + corr
    return float(out) if out.ndim == 0 else out


def g_node(l_a, l_b, v_hat):
    """Variable-node combination (1 - 2 v_hat) l_a + l_b."""
    l_a = np.asarray(l_a, dtype=np.float64)
    l_b = np.asarray(l_b, dtype=np.float64)
    sign = 1.0 - 2.0 * np.asarray(v_hat, dtype=np.float64)
    out = sign * l_a + l_b
    return float(out) if out.ndim == 0 else out


@dataclass
class DecodeResult:
    """Decoder output: full input estimate, the information bits, and the CRC
    verdict (list decoding only)."""

    u_hat: np.ndarray
    info_bits: np.ndarray
    crc_ok: bool | None = None


def _info_mask(spec: CodeSpec, info_set) -> np.ndarray:
    mask = np.zeros(spec.n_mother, dtype=bool)
    idx = np.asarray(sorted(info_set), dtype=np.int64) - 1
    if idx.size and (idx[0] < 0 or idx[-1] >= spec.n_mother):
        raise ValueError("information set outside [1, N]")
    mask[idx] = True
    return mask


class SCDecoder:
    """Batch successive-cancellation decoder.

    Parameters
    ----------
    spec : CodeSpec
    info_set : iterable of int
        1-based input positions carrying data; the complement is frozen to 0.
    """

    def __init__(self, spec: CodeSpec, info_set):
        self.spec = spec
        self.info_mask = _info_mask(spec, info_set)
        self._perm = bit_reversal_permutation(spec.m)
        self._u = None

    def decode(self, llrs: np.ndarray) -> np.ndarray:
        """Decode a (B, N) batch of channel LLR vectors to (B, N) input bits."""
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
        if llrs.shape[1] != self.spec.n_mother:
            raise ValueError(f"LLR length {llrs.shape[1]} != N={self.spec.n_mother}")
        self._u = np.zeros(llrs.shape, dtype=np.int8)
        self._recurse(llrs[:, self._perm], 0)
        return self._u

    def _recurse(self, llr: np.ndarray, base: int) -> np.ndarray:
        width = llr.shape[1]
        if width == 1:
            if self.info_mask[base]:
                bits = (llr[:, 0] < 0).astype(np.int8)
            else:
                bits = np.zeros(llr.shape[0], dtype=np.int8)
            self._u[:, base] = bits
            return bits[:, None]
        half = width // 2
        a, b = llr[:, :half], llr[:, half:]
        c_left = self._recurse(f_node(a, b), base)
        c_right = self._recurse(g_node(a, b, c_left), base + half)
        return np.concatenate([c_left ^ c_right, c_right], axis=1)


class SCLDecoder:
    """Batch CRC-aided successive-cancellation list decoder.

    Path metrics follow the standard LLR-domain formulation: a path pays
    |LLR| whenever its decision contradicts the sign of its decision LLR.
    With ``crc_len`` > 0 the last ``crc_len`` information positions are
    treated as CRC bits; the best-metric path passing the CRC is returned,
    falling back to the overall best-metric path with ``crc_ok`` False.

    Path state is copied lazily (Tal & Vardy, "List decoding of polar
    codes", IEEE T-IT 2015).  The channel LLRs (layer 0) are stored once per
    frame and shared by every path.  When the list is pruned at an
    information leaf, only the state that later steps will read follows the
    surviving paths: the LLR layer of each ancestor whose right half is
    still to come, and the left partial sums of each ancestor whose right
    half is being decoded.  Decided bits are not copied at all: each
    information leaf records every surviving path's bit and parent path, and
    the information bits of the final list are read by walking those parent
    pointers back.  Per batch of B frames this keeps about B*L*N floats of
    LLRs and B*L*K one-byte bits and pointers.  The stable sort of the 2L
    candidates fixes the order of tied metrics, which punctured codes (LLRs
    exactly 0) produce often.
    """

    def __init__(self, spec: CodeSpec, info_set, list_size: int = 8,
                 crc_len: int = 0):
        if list_size < 1:
            raise ValueError(f"list_size must be >= 1, got {list_size}")
        if crc_len not in (0, CRC16_LEN):
            raise ValueError(f"crc_len must be 0 or {CRC16_LEN}, got {crc_len}")
        self.spec = spec
        self.info_mask = _info_mask(spec, info_set)
        self.info_idx = np.flatnonzero(self.info_mask)
        if crc_len and crc_len >= self.info_idx.size:
            raise ValueError("information set too small to carry the CRC")
        self.list_size = list_size
        self.crc_len = crc_len
        self._perm = bit_reversal_permutation(spec.m)

    def decode(self, llrs: np.ndarray):
        """Decode a (B, N) batch; returns (u_hat (B, N), crc_ok (B,) or None)."""
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
        n, m = self.spec.n_mother, self.spec.m
        if llrs.shape[1] != n:
            raise ValueError(f"LLR length {llrs.shape[1]} != N={n}")
        batch, lsz = llrs.shape[0], self.list_size

        # _llr[d] and _cleft[d] are the LLR input and the left half's partial
        # sums of the node being decoded at depth d, for every path.
        self._llr = [np.broadcast_to(llrs[:, None, self._perm], (batch, lsz, n))]
        self._llr += [None] * m
        self._cleft = [None] * m
        self._pm = np.full((batch, lsz), np.inf)
        self._pm[:, 0] = 0.0
        self._row_base = np.arange(batch)[:, None] * lsz
        self._trail = []

        self._recurse(0, 0)

        info, pm = self._backtrack(), self._pm
        if self.crc_len:
            payload = info[:, :, :-self.crc_len]
            want = info[:, :, -self.crc_len:]
            got = crc16_remainder_bits(payload)
            ok = np.all(got == want, axis=2)
            masked = np.where(ok, pm, np.inf)
            any_ok = ok.any(axis=1)
            chosen = np.where(any_ok, np.argmin(masked, axis=1), np.argmin(pm, axis=1))
            crc_ok = any_ok
        else:
            chosen = np.argmin(pm, axis=1)
            crc_ok = None
        u_hat = np.zeros((batch, n), dtype=np.int8)
        u_hat[:, self.info_idx] = info[np.arange(batch), chosen]
        return u_hat, crc_ok

    def _recurse(self, depth: int, base: int) -> np.ndarray:
        width = self.spec.n_mother >> depth
        if width == 1:
            return self._leaf(base)[:, :, None]
        half = width // 2
        arr = self._llr[depth]
        self._llr[depth + 1] = f_node(arr[..., :half], arr[..., half:])
        self._cleft[depth] = self._recurse(depth + 1, base)
        # Free each child's LLRs once its subtree is done: dropping them
        # before the next large allocation keeps the heap from growing.
        self._llr[depth + 1] = None
        arr = self._llr[depth]  # may have been replaced by a prune
        self._llr[depth + 1] = g_node(arr[..., :half], arr[..., half:],
                                      self._cleft[depth])
        c_right = self._recurse(depth + 1, base + half)
        self._llr[depth + 1] = None
        return np.concatenate([self._cleft[depth] ^ c_right, c_right], axis=2)

    def _leaf(self, base: int) -> np.ndarray:
        """Extend every path by input bit ``base``; returns the (B, L) bits."""
        llr = self._llr[self.spec.m][:, :, 0]
        if not self.info_mask[base]:
            self._pm = self._pm + np.where(llr < 0, -llr, 0.0)
            return np.zeros(llr.shape, dtype=np.int8)
        lsz = self.list_size
        pen0 = np.where(llr < 0, -llr, 0.0)
        pen1 = np.where(llr > 0, llr, 0.0)
        cand = np.concatenate([self._pm + pen0, self._pm + pen1], axis=1)
        sel = np.argsort(cand, axis=1, kind="stable")[:, :lsz]
        src = sel % lsz
        bits = (sel >= lsz).astype(np.int8)
        self._pm = np.take_along_axis(cand, sel, axis=1)
        self._prune(base, src)
        self._trail.append((bits, src.astype(np.min_scalar_type(lsz - 1))))
        return bits

    def _prune(self, base: int, src: np.ndarray) -> None:
        """Make path j continue path src[:, j] in the state still to be read.

        Bit d (from the most significant end) of the leaf index tells which
        half of its depth-d ancestor the leaf lies in.  In the left half the
        ancestor's LLRs are read again by g; in the right half its left
        partial sums are read again by the concatenation.  Layer 0 is shared
        and the leaf layer is not read again.
        """
        m = self.spec.m
        rows = (self._row_base + src).ravel()
        for d in range(m):
            if (base >> (m - 1 - d)) & 1:
                self._cleft[d] = _take_paths(self._cleft[d], rows)
            elif d:
                self._llr[d] = _take_paths(self._llr[d], rows)

    def _backtrack(self) -> np.ndarray:
        """The (B, L, K) information bits of the final list, from the trail.

        The bit axis is outermost in memory, so the CRC's per-bit slices are
        contiguous.
        """
        batch, lsz = self._pm.shape
        info = np.empty((len(self._trail), batch, lsz), dtype=np.int8)
        path = np.broadcast_to(np.arange(lsz), (batch, lsz))
        for k in range(len(self._trail) - 1, -1, -1):
            bits, src = self._trail[k]
            info[k] = np.take_along_axis(bits, path, axis=1)
            path = np.take_along_axis(src, path, axis=1)
        return info.transpose(1, 2, 0)


def _take_paths(arr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of a (B, L, W) array viewed as (B*L, W), as (B, L, W)."""
    return np.take(arr.reshape(-1, arr.shape[2]), rows, axis=0).reshape(arr.shape)


def sc_decode(llr, frozen, spec: CodeSpec) -> DecodeResult:
    """Successive-cancellation decode of one LLR vector.

    ``frozen`` holds the 1-based frozen input positions (complement of the
    information set).  Punctured channel positions must already carry LLR 0.
    """
    info = _complement(frozen, spec)
    u_hat = SCDecoder(spec, info).decode(np.asarray(llr, dtype=np.float64))[0]
    info_idx = np.asarray(info, dtype=np.int64) - 1
    return DecodeResult(u_hat=u_hat, info_bits=u_hat[info_idx], crc_ok=None)


def scl_decode(llr, frozen, spec: CodeSpec, list_size: int = 8,
               crc_len: int = 0) -> DecodeResult:
    """CRC-aided list decode of one LLR vector (see SCLDecoder)."""
    info = _complement(frozen, spec)
    dec = SCLDecoder(spec, info, list_size=list_size, crc_len=crc_len)
    u_hat, crc_ok = dec.decode(np.asarray(llr, dtype=np.float64))
    info_idx = np.asarray(info, dtype=np.int64) - 1
    return DecodeResult(u_hat=u_hat[0], info_bits=u_hat[0, info_idx],
                        crc_ok=None if crc_ok is None else bool(crc_ok[0]))


def _complement(frozen, spec: CodeSpec) -> tuple[int, ...]:
    frozen = set(int(i) for i in frozen)
    if frozen and not all(1 <= i <= spec.n_mother for i in frozen):
        raise ValueError("frozen positions outside [1, N]")
    return tuple(i for i in range(1, spec.n_mother + 1) if i not in frozen)


# ---------------------------------------------------------------------------
# CRC-16 (poly 0x1021, zero initial register, no reflection).
# ---------------------------------------------------------------------------

def crc16_ccitt(payload_bits) -> int:
    """Remainder of payload(x) * x^16 modulo the generator, as a 16-bit int.

    The payload is a bit sequence (MSB-first polynomial coefficients).  The
    appended-CRC convention holds: crc16_ccitt(payload + crc_bits) == 0.
    """
    bits = crc16_remainder_bits(np.ravel(payload_bits))
    return int((bits.astype(np.int64) << _CRC16_SHIFTS).sum())


def crc16_remainder_bits(payload_bits: np.ndarray) -> np.ndarray:
    """Vectorized CRC-16 over the last axis; returns 16 bits, MSB first.

    ``payload_bits`` may have any leading batch shape.
    """
    bits = np.asarray(payload_bits, dtype=np.int64)
    reg = np.zeros(bits.shape[:-1], dtype=np.int64)
    for j in range(bits.shape[-1]):
        msb = ((reg >> 15) & 1) ^ bits[..., j]
        reg = ((reg << 1) & 0xFFFF) ^ (msb * CRC16_POLY)
    return ((reg[..., None] >> _CRC16_SHIFTS) & 1).astype(np.int8)


def crc16_append(payload_bits) -> np.ndarray:
    """Payload with its 16 CRC bits appended (1-D input)."""
    payload = np.asarray(payload_bits, dtype=np.int8).ravel()
    return np.concatenate([payload, crc16_remainder_bits(payload)])


def crc16_check(codeword_bits) -> bool:
    """True iff the bit sequence (payload followed by CRC) has remainder 0."""
    return crc16_ccitt(codeword_bits) == 0
