"""LLR-domain successive-cancellation decoding, CRC-aided list decoding, and
the CRC-16 codec (generator x^16 + x^12 + x^5 + 1).

Both decoders operate on batches of frames: every tree operation is a numpy
op across the batch, which keeps Monte Carlo runs fast without native code.
A decoder instance holds per-call scratch state, so one instance must not be
shared across concurrent decodes; instances are cheap to construct.

The list decoder copies path state lazily (see ``SCLDecoder``): arrays that
every path shares are held once, a subtree that prunes the list returns a map
from its surviving paths to the paths that entered it, and decided bits are
recovered by backtracking parent pointers.
"""

from __future__ import annotations

import numpy as np

from . import core
from .core import CodeSpec, bit_reversal_permutation, slabs

CRC16_POLY = 0x1021
CRC16_LEN = 16
_CRC16_SHIFTS = np.arange(CRC16_LEN - 1, -1, -1)


def f_node(l_a, l_b):
    """Check-node combination 2 atanh(tanh(l_a/2) tanh(l_b/2)).

    Computed in the numerically safe Jacobian form
    sign(a) sign(b) min(|a|, |b|) + log1p(e^-|a+b|) - log1p(e^-|a-b|),
    which is exact in reals and never overflows.  The output is computed
    slab by slab (``core.slabs``), in place in the output's slab and in two
    scratch arrays of one slab; an output of one slab is computed whole.

    No ``np.sign`` is taken: the first term is min(|a|, |b|) with the XOR of
    the operands' sign bits, and -|x| is x with its sign bit set, both
    through int64 views.  Every other ufunc runs in the order the formula
    reads.  The first term then differs from the formula's only where the
    min is 0, as a zero of the other sign; there a or b is ±0, so
    |a+b| = |a-b| and the last two terms cancel to +0, which absorbs the
    sign.  So every value is bit-identical to the formula evaluated with
    whole-array temporaries.
    """
    l_a = np.asarray(l_a, dtype=np.float64)
    l_b = np.asarray(l_b, dtype=np.float64)
    out = np.empty(np.broadcast(l_a, l_b).shape)
    rows = np.atleast_1d(out)  # a 0-d output is one slab of one row
    if rows.size <= core.SLAB_ELEMS:
        _f_slab(rows, l_a, l_b, np.empty((2,) + rows.shape))
    else:
        cuts = slabs(rows.shape)
        scratch = np.empty((2,) + rows[cuts[0]].shape)
        for cut in cuts:
            o = rows[cut]
            _f_slab(o, _slab(l_a, cut, rows), _slab(l_b, cut, rows),
                    scratch[:, :len(o)])
    return float(out) if out.ndim == 0 else out


_SIGN_BIT = np.int64(np.iinfo(np.int64).min)  # only the IEEE sign bit set


def _f_slab(o, a, b, scratch):
    """``f_node`` of one slab into ``o``, with ``scratch`` two arrays of
    ``o``'s shape."""
    t, s = scratch
    ti, si = t.view(np.int64), s.view(np.int64)
    np.minimum(np.abs(a, out=t), np.abs(b, out=s), out=o)
    np.bitwise_xor(a.view(np.int64), b.view(np.int64), out=ti)
    np.bitwise_and(ti, _SIGN_BIT, out=ti)
    np.bitwise_or(o.view(np.int64), ti, out=o.view(np.int64))
    for tmp, bits, combine in ((t, ti, np.add), (s, si, np.subtract)):
        combine(a, b, out=tmp)
        np.bitwise_or(bits, _SIGN_BIT, out=bits)
        np.exp(tmp, out=tmp)
        np.log1p(tmp, out=tmp)
    np.subtract(t, s, out=t)
    np.add(o, t, out=o)


def g_node(l_a, l_b, v_hat):
    """Variable-node combination (1 - 2 v_hat) l_a + l_b.

    Computed in place in the output slab by slab (``core.slabs``), or whole
    for an output of one slab, each element through the ufuncs of the
    formula in its order, so every value is bit-identical to the formula
    evaluated with whole-array temporaries.
    """
    l_a = np.asarray(l_a, dtype=np.float64)
    l_b = np.asarray(l_b, dtype=np.float64)
    v_hat = np.asarray(v_hat)
    out = np.empty(np.broadcast(l_a, l_b, v_hat).shape)
    rows = np.atleast_1d(out)
    if rows.size <= core.SLAB_ELEMS:
        _g_slab(rows, l_a, l_b, v_hat)
    else:
        for cut in slabs(rows.shape):
            _g_slab(rows[cut], _slab(l_a, cut, rows), _slab(l_b, cut, rows),
                    _slab(v_hat, cut, rows))
    return float(out) if out.ndim == 0 else out


def _g_slab(o, a, b, v):
    """``g_node`` of one slab into ``o``."""
    np.multiply(v, 2.0, out=o, dtype=np.float64)
    np.subtract(1.0, o, out=o)
    np.multiply(o, a, out=o)
    np.add(o, b, out=o)


def _slab(x: np.ndarray, cut: slice, out: np.ndarray) -> np.ndarray:
    """The operand ``x`` of an elementwise op into ``out``, for the slab
    ``cut`` of ``out``'s rows: its own rows, or all of ``x`` when it
    broadcasts along axis 0 or has fewer dimensions than ``out`` (as SCL's
    (w, B, 1) LLRs against (w, B, L) partial sums do along axis 2)."""
    if x.ndim == out.ndim and x.shape[0] == out.shape[0]:
        return x[cut]
    return x


def _info_mask(spec: CodeSpec, info_set) -> np.ndarray:
    """The (N,) mask of the 1-based ``info_set``, which must be non-empty,
    within [1, N] and free of duplicates.  Every decoder, and so every
    simulation run, validates its information set here."""
    idx = np.asarray(sorted(info_set), dtype=np.int64) - 1
    if idx.size == 0 or idx[0] < 0 or idx[-1] >= spec.n_mother:
        raise ValueError("information set must be non-empty within [1, N]")
    mask = np.zeros(spec.n_mother, dtype=bool)
    mask[idx] = True
    if np.count_nonzero(mask) != idx.size:
        raise ValueError("information set contains duplicate positions")
    return mask


class SCDecoder:
    """Batch successive-cancellation decoder.

    LLRs go down the tree and partial sums come back up in (width, B)
    arrays, so each half of a node is one contiguous block and every kernel
    call runs over it in long contiguous row slabs.  ``SCLDecoder``
    subclasses this walk.

    Rate-0 subtrees, whose input positions are all frozen, decode to zeros
    whatever their LLRs are, so the decoder never descends into them
    (Alamdar-Yazdi & Kschischang, "A simplified successive-cancellation
    decoder for polar codes", IEEE Comm. Letters 2011): it skips ``f`` for a
    rate-0 left child and ``g`` for a rate-0 right child, and after a rate-0
    left child ``g`` reduces to a + b.  The output is bit-identical to the
    full tree walk.  Punctured codes freeze long runs of inputs, so they gain
    most.  Rate-1 subtrees (all information) are walked in full: a hard
    decision on their LLRs differs from SC when LLRs are exactly 0, as at
    punctured positions (a width-2 node with LLRs (0, b) decodes to
    (0, h(b)) under SC but to (h(b), h(b)) by hard decision and re-encoding).

    Punctured outputs are skipped the same way.  Puncturing sets whole rows
    of the tree's channel LLRs to exactly 0, so the walk carries a mask of
    the rows that are ±0 in every frame of the batch, read from the LLRs
    themselves with one ``~llr.any(axis=1)`` pass (no pattern is needed).
    An ``f`` row is known to be 0 if either operand row is, since
    f(±0, b) = +0; a ``g`` row, or an a + b row after a rate-0 left child,
    if both operand rows are, since a sum of two ±0 is ±0.  ``f_node`` runs
    only on the other rows (``_f_rows``), and the known rows are written as
    +0, bit for bit what ``f_node`` gives them.  ``g`` is computed in full.

    Parameters
    ----------
    spec : CodeSpec
    info_set : iterable of int
        1-based input positions carrying data, distinct and within [1, N];
        the complement is frozen to 0.
    """

    def __init__(self, spec: CodeSpec, info_set):
        self.spec = spec
        self.info_mask = _info_mask(spec, info_set)
        self.info_idx = np.flatnonzero(self.info_mask)
        # _info_count[i] is the number of information positions below i.
        self._info_count = np.concatenate([[0], np.cumsum(self.info_mask)])
        self._perm = bit_reversal_permutation(spec.m)
        self._info = None

    def _rate0(self, base: int, width: int) -> bool:
        return self._info_count[base + width] == self._info_count[base]

    def _tree_llrs(self, llrs: np.ndarray) -> np.ndarray:
        """The (B, N) channel LLRs as the tree's (N, B) bit-reversed array."""
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
        n = self.spec.n_mother
        if llrs.shape[1] != n:
            raise ValueError(f"LLR length {llrs.shape[1]} != N={n}")
        return llrs.T[self._perm]

    def decode(self, llrs: np.ndarray) -> np.ndarray:
        """Decode a (B, N) batch of channel LLR vectors to (B, N) input bits."""
        return self._input_bits(self._decode_tree(self._tree_llrs(llrs))[0])

    def _input_bits(self, info: np.ndarray) -> np.ndarray:
        """(K, B) information bits as (B, N) input bits, frozen positions 0."""
        u_hat = np.zeros((info.shape[1], self.spec.n_mother), dtype=np.int8)
        u_hat[:, self.info_idx] = info.T
        return u_hat

    def _decode_tree(self, llr: np.ndarray):
        """Decode the tree's (N, B) channel LLRs; returns the (K, B)
        information bits and crc_ok, which is None (SC checks no CRC)."""
        self._info = np.zeros((self.info_idx.size, llr.shape[1]), dtype=np.int8)
        if not self._rate0(0, llr.shape[0]):
            self._recurse(llr, 0, ~llr.any(axis=1))
        return self._info, None

    def _recurse(self, llr: np.ndarray, base: int, zero: np.ndarray):
        """Decode the subtree at ``base`` from its (width, B, ...) LLRs,
        whose rows marked in the (width,) mask ``zero`` are ±0 in every frame.

        Returns its partial sums and path map: None if the subtree made no
        prune (always so in SC), else the (B, L) index of the entering path
        that each leaving path continues.
        """
        width = llr.shape[0]
        if width == 1:
            return self._leaf(llr[0], base)
        # No names are bound to the halves of ``llr``: once the left child
        # has pruned, the gathered ``llr`` must replace the entering one in
        # memory, not sit beside it for the rest of the subtree.
        half = width // 2
        # A sum of two ±0 rows is ±0; f of a ±0 row and any row is +0.
        both, either = zero[:half] & zero[half:], zero[:half] | zero[half:]
        if self._rate0(base, half):
            # Left partial sums are 0, so g(a, b, 0) = 1.0 * a + b = a + b.
            c_right, paths = self._recurse(llr[:half] + llr[half:], base + half,
                                           both)
            return np.concatenate([c_right, c_right]), paths
        c_left, left = self._recurse(_f_rows(llr, either), base, either)
        if self._rate0(base + half, half):
            return np.concatenate([c_left, np.zeros_like(c_left)]), left
        llr = _follow(llr, left)
        c_right, right = self._recurse(g_node(llr[:half], llr[half:], c_left),
                                       base + half, both)
        paths = left
        if right is not None:
            c_left = _follow(c_left, right)
            if left is not None:
                paths = left[np.arange(len(left))[:, None], right]
            else:
                paths = right
        return np.concatenate([c_left ^ c_right, c_right]), paths

    def _leaf(self, llr: np.ndarray, base: int):
        """Decide information bit ``base`` from its (B,) LLRs."""
        bits = (llr < 0).astype(np.int8)
        self._info[self._info_count[base]] = bits
        return bits[None], None


class SCLDecoder(SCDecoder):
    """Batch CRC-aided successive-cancellation list decoder.

    Path metrics follow the standard LLR-domain formulation: a path pays
    |LLR| whenever its decision contradicts the sign of its decision LLR.
    With ``crc_len`` > 0 the last ``crc_len`` information positions are
    treated as CRC bits; the best-metric path passing the CRC is returned,
    falling back to the overall best-metric path with ``crc_ok`` False.

    Path state is copied lazily (Tal & Vardy, "List decoding of polar
    codes", IEEE T-IT 2015).  The decoder inherits the tree walk of
    ``SCDecoder`` and differs in its leaf rule and in visiting every leaf:
    frozen leaves charge path metrics, so skipping rate-0 subtrees is not
    exact.  Tree arrays are (width, B, L'), where L' = 1 while every path
    still shares the array, so the channel LLRs and all the work before the
    first information leaf are held and computed once per frame.
    A subtree that prunes the list also returns a (B, L) path map: for each
    path leaving it, the entering path it continues.  The parent gathers the
    arrays it still holds once per child subtree (its LLRs before ``g``,
    the left partial sums before combining) and composes the maps of its
    two children.  Decided bits are not copied at all: each information
    leaf records every surviving path's bit and parent path, and the
    information bits of the final list are read by walking those parent
    pointers back.  The stable sort of the 2L candidates fixes the order of
    tied metrics, which punctured codes (LLRs exactly 0) produce often.  A
    decision penalty too small to change its path metric in floating point
    still raises it by one ulp, so with ``list_size`` 1 the decoder makes
    exactly the hard decisions of SC.
    """

    def __init__(self, spec: CodeSpec, info_set, list_size: int = 8,
                 crc_len: int = 0):
        if list_size < 1:
            raise ValueError(f"list_size must be >= 1, got {list_size}")
        if crc_len not in (0, CRC16_LEN):
            raise ValueError(f"crc_len must be 0 or {CRC16_LEN}, got {crc_len}")
        super().__init__(spec, info_set)
        if crc_len and crc_len >= self.info_idx.size:
            raise ValueError("information set too small to carry the CRC")
        self.list_size = list_size
        self.crc_len = crc_len

    def _rate0(self, base: int, width: int) -> bool:
        return False

    def decode(self, llrs: np.ndarray):
        """Decode a (B, N) batch; returns (u_hat (B, N), crc_ok (B,) or None)."""
        info, crc_ok = self._decode_tree(self._tree_llrs(llrs))
        return self._input_bits(info), crc_ok

    def _decode_tree(self, llr: np.ndarray):
        """Decode the tree's (N, B) channel LLRs; returns the chosen path's
        (K, B) information bits and crc_ok (B,) or None."""
        batch = llr.shape[1]
        self._pm = np.full((batch, self.list_size), np.inf)
        self._pm[:, 0] = 0.0
        self._trail = []

        self._recurse(llr[:, :, None], 0, ~llr.any(axis=1))

        info, pm, crc_ok = self._backtrack(), self._pm, None
        if self.crc_len:
            words = np.moveaxis(info, 0, -1)  # (B, L, K)
            got = crc16_remainder_bits(words[:, :, :-self.crc_len])
            ok = np.all(got == words[:, :, -self.crc_len:], axis=2)
            crc_ok = ok.any(axis=1)
            # The best path passing the CRC, or the best path if none does.
            pm = np.where(ok | ~crc_ok[:, None], pm, np.inf)
        return info[:, np.arange(batch), np.argmin(pm, axis=1)], crc_ok

    def _leaf(self, llr: np.ndarray, base: int):
        """Extend every path by input bit ``base`` given its (B, L') LLRs.

        Returns the bit as (1, B, L') partial sums (L' = L after a prune)
        and the path map, as ``_recurse`` does.
        """
        if not self.info_mask[base]:
            self._pm = self._pm + np.where(llr < 0, -llr, 0.0)
            return np.zeros((1,) + llr.shape, dtype=np.int8), None
        lsz = self.list_size
        pen0 = np.where(llr < 0, -llr, 0.0)
        pen1 = np.where(llr > 0, llr, 0.0)
        cand = np.concatenate([_charge(self._pm, pen0), _charge(self._pm, pen1)],
                              axis=1)
        sel = np.argsort(cand, axis=1, kind="stable")[:, :lsz]
        src = sel % lsz
        bits = (sel >= lsz).astype(np.int8)
        self._pm = np.take_along_axis(cand, sel, axis=1)
        self._trail.append((bits, src.astype(np.min_scalar_type(lsz - 1))))
        return bits[None], src

    def _backtrack(self) -> np.ndarray:
        """The (K, B, L) information bits of the final list, from the trail."""
        batch, lsz = self._pm.shape
        info = np.empty((len(self._trail), batch, lsz), dtype=np.int8)
        path = np.broadcast_to(np.arange(lsz), (batch, lsz))
        for k in range(len(self._trail) - 1, -1, -1):
            bits, src = self._trail[k]
            info[k] = np.take_along_axis(bits, path, axis=1)
            path = np.take_along_axis(src, path, axis=1)
        return info


def _f_rows(llr: np.ndarray, zero: np.ndarray) -> np.ndarray:
    """``f_node`` of the two halves of the (width, B, ...) ``llr``, called
    only on the rows that can be nonzero.

    A row marked in the (width / 2,) ``zero`` has an operand row that is ±0
    in every frame, and f(±0, b) = +0 for every b but NaN (the first term is
    a signed zero and the other two cancel), so it is written as +0.  The
    other rows go to ``f_node`` as views when they are one contiguous run,
    else in one row gather.
    """
    half = zero.size
    live = np.flatnonzero(~zero)
    if live.size == half:
        return f_node(llr[:half], llr[half:])
    out = np.zeros((half,) + llr.shape[1:])
    if live.size:
        lo, hi = live[0], live[-1] + 1
        rows = slice(lo, hi) if hi - lo == live.size else live
        out[rows] = f_node(llr[:half][rows], llr[half:][rows])
    return out


def _charge(pm: np.ndarray, pen: np.ndarray) -> np.ndarray:
    """pm + pen, raised by one ulp where a positive penalty was rounded away.

    A path metric far above a tiny |LLR| would otherwise tie the two
    decisions, and the stable sort would then take bit 0 against the LLR's
    sign; this way a path never prefers the decision its LLR contradicts.
    """
    out = pm + pen
    lost = (pen > 0) & (out == pm)
    if lost.any():
        out[lost] = np.nextafter(pm[lost], np.inf)
    return out


def _follow(arr: np.ndarray, paths) -> np.ndarray:
    """The (W, B, L') array ``arr`` as seen by the paths leaving a prune.

    ``paths`` is a path map (or None for no prune).  An array with one
    column (L' = 1) predates the first prune and serves every path as it is.
    """
    if paths is None or arr.shape[2] == 1:
        return arr
    return arr[:, np.arange(arr.shape[1])[:, None], paths]


# ---------------------------------------------------------------------------
# CRC-16 (poly 0x1021, zero initial register, no reflection).
# ---------------------------------------------------------------------------

def _crc16_table() -> np.ndarray:
    """Entry v is v(x) * x^16 mod the generator: what a register whose top
    byte is v contributes after one more byte has been shifted in."""
    table = np.zeros(256, dtype=np.uint16)
    for byte in range(256):
        reg = byte << 8
        for _ in range(8):
            reg = ((reg << 1) ^ CRC16_POLY if reg & 0x8000 else reg << 1) & 0xFFFF
        table[byte] = reg
    return table


_CRC16_TABLE = _crc16_table()


def crc16_ccitt(payload_bits) -> int:
    """Remainder of payload(x) * x^16 modulo the generator, as a 16-bit int.

    The payload is a bit sequence (MSB-first polynomial coefficients).  The
    appended-CRC convention holds: crc16_ccitt(payload + crc_bits) == 0.
    """
    bits = crc16_remainder_bits(np.ravel(payload_bits))
    return int((bits.astype(np.int64) << _CRC16_SHIFTS).sum())


def crc16_remainder_bits(payload_bits: np.ndarray) -> np.ndarray:
    """Vectorized CRC-16 over the last axis; returns 16 bits, MSB first.

    ``payload_bits`` may have any leading batch shape.  The bits are packed
    into bytes and the register advances a byte at a time through a 256-entry
    table.  Zeros are padded at the front to fill the first byte, which leaves
    a zero initial register unchanged.
    """
    bits = np.asarray(payload_bits)
    k = bits.shape[-1]
    padded = np.zeros(bits.shape[:-1] + (-(-k // 8) * 8,), dtype=np.uint8)
    padded[..., padded.shape[-1] - k:] = bits
    # Byte axis first and contiguous, so each step reads one block.
    packed = np.moveaxis(np.packbits(padded, axis=-1), -1, 0).copy()
    reg = np.zeros(bits.shape[:-1], dtype=np.uint16)
    for byte in packed:
        reg = (reg << 8) ^ _CRC16_TABLE[(reg >> 8) ^ byte]
    return ((reg[..., None] >> _CRC16_SHIFTS) & 1).astype(np.int8)


def crc16_append(payload_bits) -> np.ndarray:
    """Payload with its 16 CRC bits appended (1-D input)."""
    payload = np.asarray(payload_bits, dtype=np.int8).ravel()
    return np.concatenate([payload, crc16_remainder_bits(payload)])


def crc16_check(codeword_bits) -> bool:
    """True iff the bit sequence (payload followed by CRC) has remainder 0."""
    return crc16_ccitt(codeword_bits) == 0
