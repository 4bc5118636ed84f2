"""LLR-domain successive-cancellation decoding, CRC-aided list decoding, and
the CRC-16 codec (generator x^16 + x^12 + x^5 + 1).

Both decoders operate on batches of frames: every tree operation is a numpy
op across the batch, which keeps Monte Carlo runs fast without native code.
A decoder instance holds per-call scratch state, so one instance must not be
shared across concurrent decodes; instances are cheap to construct.

The list decoder copies path state lazily (see ``SCLDecoder``): arrays that
every path shares are held once, and a subtree that prunes the list returns a
map from its surviving paths to the paths that entered it.  Both decoders
read their decided bits off the root's partial sums.

The tree walk writes each node's right-child LLRs over the right half of the
node's own LLR array whenever they have its shape (always in SC, and in SCL
once the node's LLRs carry every path), as Tal & Vardy overwrite each
stage's LLRs: a node's LLRs are dead once its right child's are formed.  So
the walk consumes its input array; ``decode`` walks a copy of the caller's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import CodeSpec, bit_reversal_permutation, slabs

CRC16_POLY = 0x1021
CRC16_LEN = 16
_CRC16_SHIFTS = np.arange(CRC16_LEN - 1, -1, -1)
# The least value of the guard chain at which SC takes a rate-1 node's hard
# decision (``_rate1_walk``): about 10^7 times f_node's error.
RATE1_GUARD = 1e-9
# RATE1_THRESHOLDS[k - 1] is θ_k, the least |LLR| of a frame at which SC takes
# the hard decision of a rate-1 node of width 2^k.  Each is the least m whose
# chain of f_node(m, m) applied k times reaches RATE1_GUARD, raised by 1e-5
# relative and rounded up to six digits, so that its chain reaches the guard
# under other SIMD dispatches of exp and log1p too.  Wider nodes are not
# shortcut.
RATE1_THRESHOLDS = (4.47219e-05, 0.00945759, 0.13775, 0.537013, 1.13112, 1.79717,
                    2.48338, 3.17479, 3.8675, 4.56055, 5.25368, 5.94682, 6.63997,
                    7.33313, 8.02628, 8.71944, 9.41259, 10.1058, 10.7989, 11.4921)


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
    return _by_slabs(_f_slab, 2, l_a, l_b)


_SIGN_BIT = np.int64(np.iinfo(np.int64).min)  # only the IEEE sign bit set


def _f_slab(o, a, b, t, s):
    """``f_node`` of one slab into ``o``, with ``t`` and ``s`` two scratch
    arrays of ``o``'s shape."""
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


def g_node(l_a, l_b, v_hat, out=None):
    """Variable-node combination (1 - 2 v_hat) l_a + l_b.

    Computed slab by slab (``core.slabs``), or whole for an output of one
    slab: (1 - 2 v_hat) l_a goes into a scratch array of one slab, then
    l_b is added into the output's slab, each element through the ufuncs
    of the formula in its order, so every value is bit-identical to the
    formula evaluated with whole-array temporaries.  The output is written
    into ``out``, an array of the broadcast shape, if one is given, and
    ``out`` is returned; it may be ``l_b`` itself, as each slab of ``l_b``
    is read only by the add that overwrites it.
    """
    return _by_slabs(_g_slab, 1, l_a, l_b, np.asarray(v_hat), out=out)


def _by_slabs(kernel, scratch, l_a, l_b, *rest, out=None):
    """The output of the elementwise ``kernel(o, a, b, *rest, *spare)`` over
    the float64 LLRs ``l_a`` and ``l_b`` and the arrays ``rest``, with
    ``spare`` its ``scratch`` arrays of ``o``'s shape: ``out`` if given,
    else a float for 0-d operands, else a new broadcast array.

    An output of at most one slab (``core.SLAB_ELEMS``) is computed by one
    kernel call on the whole operands.  A larger one is computed slab by slab
    (``core.slabs``), in place in the output's slab and in scratch arrays of
    one slab, each operand cut to the slab's rows by ``_slab``.
    """
    operands = (np.asarray(l_a, dtype=np.float64), np.asarray(l_b, dtype=np.float64), *rest)
    given = out is not None
    if not given:
        out = np.empty(np.broadcast(*operands).shape)
    rows = np.atleast_1d(out)  # a 0-d output is one slab of one row
    if rows.size <= core.SLAB_ELEMS:
        kernel(rows, *operands, *[np.empty(rows.shape) for _ in range(scratch)])
    else:
        cuts = slabs(rows.shape)
        spare = [np.empty(rows[cuts[0]].shape) for _ in range(scratch)]
        for cut in cuts:
            o = rows[cut]
            kernel(o, *[_slab(x, cut, rows) for x in operands], *[t[:len(o)] for t in spare])
    return out if given or out.ndim else float(out)


def _g_slab(o, a, b, v, t):
    """``g_node`` of one slab into ``o``, with ``t`` a scratch array of
    ``o``'s shape; ``o`` may be ``b``."""
    np.multiply(v, 2.0, out=t, dtype=np.float64)
    np.subtract(1.0, t, out=t)
    np.multiply(t, a, out=t)
    np.add(t, b, out=o)


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
    most.  A rate-1 subtree (all information) returns the hard decision on
    its LLRs as its partial sums (Sarkis et al., "Fast polar decoders",
    IEEE JSAC 2014), in each frame that passes a guard proving that the full
    walk returns the same bits under ``f_node``'s rounding
    (``_rate1_walk``); the other frames walk it in full.  The leaves
    record nothing: ``_decode_tree`` reads the information bits off the
    root's partial sums, whose polar transform is the decided input vector
    (frozen inputs decode to 0).

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

    def _frozen(self, base: int, width: int) -> bool:
        return self._info_count[base + width] == self._info_count[base]

    def _rate0(self, base: int, width: int) -> bool:
        return self._frozen(base, width)

    def _rate1(self, base: int, width: int) -> bool:
        return (width <= 1 << len(RATE1_THRESHOLDS)
                and self._info_count[base + width] - self._info_count[base] == width)

    def _tree_llrs(self, llrs: np.ndarray) -> np.ndarray:
        """The (B, N) channel LLRs as the tree's (N, B) bit-reversed array;
        raises ValueError on a wrong length or a NaN or infinite LLR."""
        llrs = np.atleast_2d(np.asarray(llrs, dtype=np.float64))
        n = self.spec.n_mother
        if llrs.shape[1] != n:
            raise ValueError(f"LLR length {llrs.shape[1]} != N={n}")
        if not np.isfinite(llrs).all():
            raise ValueError("LLRs must be finite, got NaN or infinity")
        return llrs.T[self._perm]

    def decode(self, llrs: np.ndarray) -> np.ndarray:
        """Decode a (B, N) batch of channel LLR vectors to (B, N) input bits.

        Every LLR must be finite: a NaN or ±inf raises ValueError (the
        kernels would turn inf - inf into NaN and decide against it).
        Saturate certain bits at a large finite value instead.
        """
        return self._input_bits(self._decode_tree(self._tree_llrs(llrs))[0])

    def _input_bits(self, info: np.ndarray) -> np.ndarray:
        """(K, B) information bits as (B, N) input bits, frozen positions 0."""
        u_hat = np.zeros((info.shape[1], self.spec.n_mother), dtype=np.int8)
        u_hat[:, self.info_idx] = info.T
        return u_hat

    def _decode_tree(self, llr: np.ndarray):
        """Decode the tree's (N, B) channel LLRs; returns the (K, B)
        information bits and crc_ok, which is None (SC checks no CRC).
        The walk overwrites ``llr``.

        ``SCLDecoder`` passes (N, B, 1) LLRs and gets (K, B, L) bits, one
        column per path of its final list.
        """
        x, _ = self._recurse(llr, 0, ~llr.reshape(len(llr), -1).any(axis=1))
        return core.polar_transform(x)[self.info_idx], None

    def _recurse(self, llr: np.ndarray, base: int, zero: np.ndarray):
        """Decode the subtree at ``base`` from its (width, B, ...) LLRs,
        whose rows marked in the (width,) mask ``zero`` are ±0 in every frame.

        Returns its partial sums and path map: None if the subtree made no
        prune (always so in SC), else the (B, L) flat row-major index
        (b * L + l) of the entering path that each leaving path continues.
        """
        width = llr.shape[0]
        if width == 1:
            return self._leaf(llr[0], base)
        # A rate-1 node returns the hard decision in the frames where
        # ``_rate1_walk`` proves it exact, and the others walk it below on a
        # gather of their columns.  With a row ±0 in every frame, all walk.
        hard = None
        if self._rate1(base, width) and not zero.any():
            hard, walk = (llr < 0).view(np.int8), _rate1_walk(llr)
            if not walk.size:
                return hard, None
            llr = llr[:, walk]
        # No names are bound to the halves of ``llr`` before the left child:
        # once it has pruned, the gathered ``llr`` must replace the entering
        # one in memory, not sit beside it for the rest of the subtree.  The
        # right child's LLRs are written over the right half whenever they
        # have its shape, as ``llr`` is dead once they are formed.
        half = width // 2
        # A sum of two ±0 rows is ±0; f of a ±0 row and any row is +0.
        both, either = zero[:half] & zero[half:], zero[:half] | zero[half:]
        if self._rate0(base, half):
            # Left partial sums are 0, so g(a, b, 0) = 1.0 * a + b = a + b.
            c_right, paths = self._recurse(np.add(llr[:half], llr[half:], out=llr[half:]),
                                           base + half, both)
            return np.concatenate([c_right, c_right]), paths
        c_left, left = self._recurse(_f_rows(llr, either), base, either)
        if self._rate0(base + half, half):
            return np.concatenate([c_left, np.zeros_like(c_left)]), left
        llr = _follow(llr, left)
        a, b = llr[:half], llr[half:]
        if self._frozen(base, half):
            # SCL walked the rate-0 left child: its partial sums are 0 and
            # ``left`` is None, so again g = a + b.
            c_right, right = self._recurse(np.add(a, b, out=b), base + half, both)
        else:
            # In SCL, (w, B, 1) LLRs that every path shares meet (w, B, L)
            # partial sums in a new array.
            c_right, right = self._recurse(
                g_node(a, b, c_left, out=b if c_left.shape == b.shape else None),
                base + half, both)
        paths = left
        if right is not None:
            c_left = _follow(c_left, right)
            paths = right if left is None else np.take(left, right)
        out = np.concatenate([c_left ^ c_right, c_right])
        if hard is None:
            return out, paths
        hard[:, walk] = out
        return hard, paths

    def _leaf(self, llr: np.ndarray, base: int):
        """The hard decision on information bit ``base`` from its (B,)
        LLRs, as (1, B) partial sums."""
        return (llr < 0).view(np.int8)[None], None


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
    exact, and an information leaf keeps both decisions, so a rate-1 subtree
    has no one hard decision.  A walked rate-0 subtree still prunes nothing
    and returns zeros, so after a rate-0 left child the right child's LLRs
    are a + b, as in SC.  Tree arrays are (width, B, L'), where L' = 1
    while every path still shares the array, so the channel LLRs and all the
    work before the first information leaf are held and computed once per
    frame.
    A subtree that prunes the list also returns a (B, L) path map: for each
    path leaving it, the entering path it continues, as a flat row-major
    index b * L + l into the B * L path columns.  The parent gathers the
    arrays it still holds once per child subtree (its LLRs before ``g``,
    the left partial sums before combining), each in one ``np.take`` along
    the (W, B * L) view, and composes the maps of its two children as
    ``np.take(left, right)``.  Decided bits need no record of their own:
    the left partial sums follow the right child's map, so column l of the
    root's partial sums is the codeword of final path l, and its polar
    transform holds that path's information bits, read off as in SC (Tal &
    Vardy return their codeword the same way).

    At an information leaf each path's two extensions cost pm for the
    decision its LLR's sign favours and pm + |LLR| for the other, so the
    contradicting candidate is charged once per path and the other is pm
    itself.  The stable sort of the 2L candidates fixes the order of tied
    metrics, which punctured codes (LLRs exactly 0) produce often.  A
    decision penalty too small to change its path metric in floating point
    still raises it by one ulp, so with ``list_size`` 1 the decoder makes
    exactly the hard decisions of SC.
    """

    def __init__(self, spec: CodeSpec, info_set, list_size: int = 8,
                 crc_len: int = 0):
        config = DecoderConfig(list_size, crc_len)
        super().__init__(spec, info_set)
        config.check_room(self.info_idx)
        self.list_size = list_size
        self.crc_len = crc_len

    def _rate0(self, base: int, width: int) -> bool:
        return False

    def _rate1(self, base: int, width: int) -> bool:
        return False

    def decode(self, llrs: np.ndarray):
        """Decode a (B, N) batch of finite LLRs (see ``SCDecoder.decode``);
        returns (u_hat (B, N), crc_ok (B,) or None)."""
        info, crc_ok = self._decode_tree(self._tree_llrs(llrs))
        return self._input_bits(info), crc_ok

    def _decode_tree(self, llr: np.ndarray):
        """Decode the tree's (N, B) channel LLRs; returns the chosen path's
        (K, B) information bits and crc_ok (B,) or None.  The walk
        overwrites ``llr``."""
        batch, lsz = llr.shape[1], self.list_size
        self._pm = np.full((batch, lsz), np.inf)
        self._pm[:, 0] = 0.0
        self._rows = np.arange(0, batch * lsz, lsz)[:, None]  # b * L
        self._cand = np.empty((batch, 2 * lsz))

        info, _ = super()._decode_tree(llr[:, :, None])
        pm, crc_ok = self._pm, None
        if self.crc_len:
            words = np.moveaxis(info, 0, -1)  # (B, L, K)
            got = crc16_remainder_bits(words[:, :, :-self.crc_len])
            ok = np.all(got == words[:, :, -self.crc_len:], axis=2)
            crc_ok = ok.any(axis=1)
            # The best path passing the CRC, or the best path if none does.
            pm = np.where(ok | ~crc_ok[:, None], pm, np.inf)
        best = self._rows[:, 0] + np.argmin(pm, axis=1)
        return np.take(info.reshape(len(info), -1), best, axis=1), crc_ok

    def _leaf(self, llr: np.ndarray, base: int):
        """Extend every path by input bit ``base`` given its (B, L') LLRs.

        Returns the bit as (1, B, L') partial sums (L' = L after a prune)
        and the path map, as ``_recurse`` does.
        """
        pm, lsz = self._pm, self.list_size
        if not self.info_mask[base]:
            # pm + max(-llr, 0) bit for bit: pm - llr is pm + (-llr), and
            # subtracting a zero leaves pm.
            np.subtract(pm, np.minimum(llr, 0.0), out=pm)
            return np.zeros((1,) + llr.shape, dtype=np.int8), None
        # Candidate l extends path l by bit 0 and candidate L + l by bit 1.
        # The one the LLR's sign contradicts costs |LLR| (bit 0 where the
        # sign bit is set), the other keeps pm; they are placed by XOR of
        # int64 views.  A -0.0 LLR charges nothing, so either placement holds.
        bad = _charge(pm, np.abs(llr))
        pmi, badi, cand = pm.view(np.int64), bad.view(np.int64), self._cand
        swap = np.bitwise_xor(pmi, badi)
        np.bitwise_and(swap, llr.view(np.int64) >> 63, out=swap)
        np.bitwise_xor(pmi, swap, out=cand[:, :lsz].view(np.int64))
        np.bitwise_xor(badi, swap, out=cand[:, lsz:].view(np.int64))
        # The L best candidates, ties in candidate order, as one-byte
        # indices: the path-map arithmetic below runs faster on them.
        sel = np.argsort(cand, axis=1, kind="stable")[:, :lsz].astype(
            np.min_scalar_type(2 * lsz - 1))
        self._pm = np.take(cand, 2 * self._rows + sel)
        high = sel >= lsz
        src = sel - high.astype(sel.dtype) * lsz
        return high.view(np.int8)[None], self._rows + src


@dataclass(frozen=True)
class DecoderConfig:
    """The decoder a simulation runs: a list decoder keeping ``list_size``
    paths, whose last ``crc_len`` information bits (0 or 16) carry a CRC.

    The default, one path and no CRC, is SC.  A list decoder with one path
    makes SC's decisions (Tal & Vardy), and a CRC has no other path to
    choose, so ``build`` runs SC's faster walk whenever ``list_size`` is 1,
    with the same output.  ``SCLDecoder`` checks its settings here too.
    """

    list_size: int = 1
    crc_len: int = 0

    def __post_init__(self):
        if self.list_size < 1:
            raise ValueError(f"list_size must be >= 1, got {self.list_size}")
        if self.crc_len not in (0, CRC16_LEN):
            raise ValueError(f"crc_len must be 0 or {CRC16_LEN}, got {self.crc_len}")

    def build(self, spec: CodeSpec, info_set) -> SCDecoder:
        """The decoder for ``info_set``: ``SCDecoder`` for one path,
        ``SCLDecoder`` otherwise.  The decoder validates the information set;
        one too small to carry the CRC is rejected (``check_room``)."""
        if self.list_size > 1:
            return SCLDecoder(spec, info_set, self.list_size, self.crc_len)
        dec = SCDecoder(spec, info_set)
        self.check_room(dec.info_idx)
        return dec

    def check_room(self, info_idx: np.ndarray) -> None:
        """Reject ``info_idx``, the information positions, if they are too
        few to carry the CRC and at least one data bit."""
        if self.crc_len >= info_idx.size:
            raise ValueError("information set too small to carry the CRC")


def _rate1_walk(llr: np.ndarray) -> np.ndarray:
    """The frames (column indices) of a rate-1 node's (w, B) LLRs α that
    SC must walk.  In every other frame, the node's walk returns the hard
    decision h(α) = (α < 0) as its partial sums, bit for bit.

    The guard takes each frame's m = min |α| and compares it with θ_k,
    k = log2 w, from ``RATE1_THRESHOLDS``: a frame passes when m >= θ_k.  A
    frame with a ±0 LLR has m = 0 and walks.  θ_k is chosen so that φ(x) =
    f(x, x) applied k times to θ_k through ``f_node`` (the guard chain)
    reaches ``RATE1_GUARD``, which a test checks for every k under the
    running SIMD dispatch.

    In reals: f(a, b) has the sign of ab and magnitude f(|a|, |b|), which
    grows with each magnitude, and φ(x) <= x.  By induction on the width,
    a rate-1 node whose LLRs, and all LLRs below them, are nonzero returns
    h(α): its left child gets f(α_L, α_R) and returns h(α_L) ^ h(α_R);
    then (1 - 2 β_L) α_L has the sign of α_R, so the right child's
    g = ±|α_L| ± |α_R| adds same-signed magnitudes and has the sign of
    α_R, and the node returns (h(α_L), h(α_R)) = h(α).  Every LLR at depth
    d of the node then has magnitude at least φ^d(m): ``f`` maps operands
    of at least φ^d(m) to at least φ^(d+1)(m), and ``g`` to at least
    φ^d(m) >= φ^(d+1)(m).

    In floats: ``f_node``'s first term, ± min(|a|, |b|), is exact and
    carries the sign of ab; its other two terms are at most ln 2 each and
    only they are rounded, so f_node is within δ ≈ 1e-16 of f, and its sign
    is that of ab wherever |f| > δ.  ``g`` on same-signed operands rounds a
    sum of like signs, which keeps the sign and is no smaller than either
    magnitude.  As φ grows with slope at most 1, every LLR at depth d of the
    walk is then at least φ^d(m) - dδ in magnitude, and the guard chain of
    θ_k is within kδ of φ^k(θ_k), so φ^k(θ_k) >= 1e-9 - kδ.  φ is monotone,
    so a frame with m >= θ_k has φ^k(m) >= φ^k(θ_k): every LLR of its node,
    and every true |f| the walk computes, is at 1e-9 - 2kδ or more, about
    10^7 times δ, so every sign the walk computes is the sign in reals.
    """
    theta = RATE1_THRESHOLDS[llr.shape[0].bit_length() - 2]
    return np.flatnonzero(np.abs(llr).min(axis=0) < theta)


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

    ``paths`` is a flat path map (or None for no prune), gathered along
    the (W, B * L) view.  An array with one column (L' = 1) predates the
    first prune and serves every path as it is.
    """
    if paths is None or arr.shape[2] == 1:
        return arr
    return np.take(arr.reshape(arr.shape[0], -1), paths, axis=1)


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
