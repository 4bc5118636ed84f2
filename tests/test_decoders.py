import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import (ChannelModel, CodeSpec, PuncturingPattern, SCDecoder,
                      SCLDecoder, bit_reversal_permutation, channel_llrs,
                      crc16_append, crc16_ccitt, crc16_check, decoders, encode,
                      f_node, g_node, ga_llr_means, load_pattern, qup_pattern,
                      reference_pattern_path, select_information_set)
from polarkit.decoders import _charge, crc16_remainder_bits
from polarkit.puncturing import candidate_bits

finite_llr = st.floats(min_value=-60, max_value=60, allow_nan=False)


def test_f_node_examples():
    assert f_node(0.0, 5.0) == 0.0
    exact = 2 * math.atanh(math.tanh(1.0) * math.tanh(1.0))
    assert f_node(2.0, 2.0) == pytest.approx(exact, abs=1e-12)
    assert f_node(2.0, 2.0) == pytest.approx(1.32503, abs=1e-4)
    v = f_node(-3.0, 4.0)
    assert v < 0 and abs(v) <= 3.0


def test_f_node_matches_tanh_form():
    rng = np.random.default_rng(0)
    a = rng.uniform(-25, 25, 500)
    b = rng.uniform(-25, 25, 500)
    naive = 2 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
    assert np.allclose(f_node(a, b), naive, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(finite_llr, finite_llr)
def test_f_node_properties(a, b):
    v = f_node(a, b)
    assert abs(v) <= min(abs(a), abs(b)) + 1e-12
    assert v == pytest.approx(f_node(b, a), abs=1e-12)


def test_f_node_extreme_inputs_saturate():
    assert np.isfinite(f_node(1e6, -1e6))
    # boxplus of two equal strong LLRs approaches a - ln 2
    assert f_node(1e6, 1e6) == pytest.approx(1e6 - math.log(2), abs=1e-6)


def test_g_node_examples():
    assert g_node(2.0, 3.0, 0) == 5.0
    assert g_node(2.0, 3.0, 1) == 1.0
    for v_hat in (0, 1):
        assert g_node(0.0, -7.25, v_hat) == -7.25


def test_sc_noiseless_all_zero():
    spec = CodeSpec(8, 4)
    llr = np.full((1, 8), 50.0)
    u_hat = SCDecoder(spec, (4, 6, 7, 8)).decode(llr)
    # SC gives no CRC verdict: decode returns the bits alone.
    assert isinstance(u_hat, np.ndarray) and u_hat.shape == (1, 8)
    assert np.array_equal(u_hat[0], np.zeros(8, dtype=np.int8))
    assert u_hat[0, [3, 5, 6, 7]].tolist() == [0, 0, 0, 0]


def test_sc_inverts_encode_exhaustive_n4():
    spec = CodeSpec(4, 4)
    for word in range(16):
        u = np.array([(word >> i) & 1 for i in range(4)], dtype=np.int8)
        llr = (1.0 - 2.0 * encode(u, spec)) * 40.0
        u_hat = SCDecoder(spec, range(1, 5)).decode(llr[None])
        assert np.array_equal(u_hat[0], u)


def test_sc_inverts_encode_random_n16():
    spec = CodeSpec(16, 16)
    rng = np.random.default_rng(12)
    u = rng.integers(0, 2, size=(10000, 16), dtype=np.int8)
    llr = (1.0 - 2.0 * encode(u, spec)) * 40.0
    assert np.array_equal(SCDecoder(spec, range(1, 17)).decode(llr), u)


def test_sc_frozen_positions_forced_zero():
    spec = CodeSpec(8, 4)
    rng = np.random.default_rng(1)
    llr = rng.normal(size=(200, 8))
    u_hat = SCDecoder(spec, (4, 6, 7, 8)).decode(llr)
    frozen_idx = [0, 1, 2, 4]
    assert np.all(u_hat[:, frozen_idx] == 0)


def test_sc_punctured_subtree_annihilation():
    # puncture {4}: the very first decision LLR collapses to zero, so u1 is
    # decided 0 even when the transmitted u1 was 1
    spec = CodeSpec(4, 4)
    u = np.array([1, 0, 0, 0], dtype=np.int8)
    llr = (1.0 - 2.0 * encode(u, spec)) * 40.0
    llr[3] = 0.0
    u_hat = SCDecoder(spec, range(1, 5)).decode(llr[None])
    assert u_hat[0, 0] == 0


def test_zero_llr_propagation():
    spec = CodeSpec(16, 16)
    u_hat = SCDecoder(spec, range(1, 17)).decode(np.zeros((1, 16)))
    assert np.array_equal(u_hat[0], np.zeros(16, dtype=np.int8))


def _f_rows_per_frame(monkeypatch, decoder, llrs):
    """Rows ``decoder`` hands to ``f_node`` while decoding ``llrs``, and its
    rate-1 guard evaluations, per frame of the batch: (tree rows, guard
    evaluations).  A call on (rows, B', ...) operands counts rows in each of
    its B' frames, and a guard on a node's (w, B') LLRs one evaluation in
    each."""
    tree, guard = [], []
    f, walk = decoders.f_node, decoders._rate1_walk

    def counting_f(l_a, l_b):
        tree.append(np.shape(l_a)[0] * np.shape(l_a)[1])
        return f(l_a, l_b)

    def counting_walk(llr):
        guard.append(llr.shape[1])
        return walk(llr)

    monkeypatch.setattr(decoders, "f_node", counting_f)
    monkeypatch.setattr(decoders, "_rate1_walk", counting_walk)
    decoder.decode(llrs)
    monkeypatch.setattr(decoders, "f_node", f)
    monkeypatch.setattr(decoders, "_rate1_walk", walk)
    return Fraction(sum(tree), len(llrs)), Fraction(sum(guard), len(llrs))


def _structural_f_rows(spec, pattern, info, skip_rate0, llrs=None):
    """(f rows, guard evaluations) per frame with no operand row known to
    be ±0, when only the punctured rows of the channel LLRs are ±0: the
    tree walk on masks alone.  SC skips rate-0 subtrees (``skip_rate0``);
    SCL visits every node.

    Given the (B, N) channel ``llrs``, SC's rate-1 shortcut as well: at a
    rate-1 node of width w >= 2 with no ±0 row, each frame still walking
    takes one guard evaluation, and leaves the walk when its min |LLR| over
    the node is at least the threshold θ_k, w = 2^k.  The node LLRs are
    computed in full by ``f_node`` and ``g_node`` from the plain list
    decoder's decisions, with no shortcut.
    """
    info_mask = np.zeros(spec.n_mother, dtype=bool)
    info_mask[np.asarray(info) - 1] = True
    perm = bit_reversal_permutation(spec.m)
    zero = np.zeros(spec.n_mother, dtype=bool)
    zero[pattern.zero_based()] = True
    shortcut = llrs is not None
    if shortcut:
        u, _ = _reference_scl(llrs, info, 1, 0)
    else:  # one notional frame, whose LLRs are not used
        llrs, u = np.ones((1, spec.n_mother)), np.zeros((1, spec.n_mother), np.int8)

    def walk(zero, base, llr, frames):
        """(f rows, guard rows) summed over ``frames`` (indices into the
        batch), whose (len(frames), width) node LLRs are ``llr``."""
        half = zero.size // 2
        if not half:
            return 0, 0
        left, right = info_mask[base:base + half], info_mask[base + half:base + 2 * half]
        guard = 0
        if shortcut and left.all() and right.all() and not zero.any():
            guard = frames.size
            walking = (np.abs(llr).min(axis=1)
                       < decoders.RATE1_THRESHOLDS[half.bit_length() - 1])
            llr, frames = llr[walking], frames[walking]
        both, either = zero[:half] & zero[half:], zero[half:] | zero[:half]
        a, b = llr[:, :half], llr[:, half:]
        if skip_rate0 and not left.any():
            rows, guards = walk(both, base + half, a + b, frames)
            return rows, guard + guards
        rows, guards = walk(either, base, f_node(a, b), frames)
        rows += frames.size * int(np.count_nonzero(~either))
        if not skip_rate0 or right.any():
            c_left = _reference_partial_sums(u[frames, base:base + half])
            more = walk(both, base + half, g_node(a, b, c_left), frames)
            rows, guards = rows + more[0], guards + more[1]
        return rows, guard + guards

    rows, guards = walk(zero[perm], 0, llrs[:, perm], np.arange(len(llrs)))
    return Fraction(rows, len(llrs)), Fraction(guards, len(llrs))


def _count_case(spec, pattern, ebn0_db):
    rate = spec.k_info / pattern.n_transmitted
    info = select_information_set(ga_llr_means(spec, ebn0_db, pattern, rate),
                                  spec.k_info)
    _, llr = _noisy_frames(spec, info, ebn0_db, 6, seed=5, pattern=pattern)
    return info, llr


def test_f_runs_only_on_rows_that_can_be_nonzero(monkeypatch):
    # A punctured LLR row is ±0 in every frame, and f(±0, b) = +0, so the
    # decoders call f_node only on the other rows.  Without the skip, SC at
    # N=1024 on QUP takes 3487 rows per frame and SCL at N=128 takes 448.
    # LLRs scaled to 1e-10 or less fail every rate-1 guard, so SC walks its
    # whole tree and evaluates one guard per frame at each rate-1 node.
    spec = CodeSpec(1024, 512)
    pattern = qup_pattern(spec, 224)
    info, llr = _count_case(spec, pattern, 2.0)
    assert _structural_f_rows(spec, pattern, info, skip_rate0=True) == (3039, 0)
    tiny = llr * 1e-12
    want = _structural_f_rows(spec, pattern, info, True, tiny)
    assert _f_rows_per_frame(monkeypatch, SCDecoder(spec, info), tiny) == want == (3039, 416)
    # On noisy frames most frames pass the guards and skip the nodes' rows.
    want = _structural_f_rows(spec, pattern, info, True, llr)
    assert _f_rows_per_frame(monkeypatch, SCDecoder(spec, info), llr) == want
    assert want[0] < 3039 and 0 < want[1] < 416

    # scattered punctured rows (the reduced space's odd bits): one row gather
    spec = CodeSpec(64, 32)
    rng = np.random.default_rng(3)
    pattern = PuncturingPattern(64, tuple(sorted(
        int(i) for i in rng.choice(candidate_bits(spec), 24, replace=False))))
    info, llr = _count_case(spec, pattern, 4.0)
    want = _structural_f_rows(spec, pattern, info, skip_rate0=True)
    assert _f_rows_per_frame(monkeypatch, SCDecoder(spec, info), llr * 1e-12)[0] \
        == want[0] == 89
    full = _structural_f_rows(spec, PuncturingPattern(64, ()), info, skip_rate0=True)
    assert want[0] < full[0]
    assert _f_rows_per_frame(monkeypatch, SCDecoder(spec, info), llr) \
        == _structural_f_rows(spec, pattern, info, True, llr)

    spec = CodeSpec(128, 64)
    pattern, info, _ = load_pattern(reference_pattern_path("de_n128_k64_np28.json"))
    _, llr = _noisy_frames(spec, info, 2.0, 6, seed=5, pattern=pattern)
    for decoder in (SCLDecoder(spec, info, 4, 16), SCLDecoder(spec, info, 1)):
        assert _f_rows_per_frame(monkeypatch, decoder, llr) == (448 - 139, 0)
    assert _structural_f_rows(spec, pattern, info, skip_rate0=False) == (448 - 139, 0)


def test_f_is_never_called_when_every_llr_is_zero(monkeypatch):
    # A BEC with epsilon 1 erases every bit: every tree row is ±0 by the data.
    spec = CodeSpec(64, 32)
    pattern = qup_pattern(spec, 8)
    x = np.zeros((5, 64), dtype=np.int8)
    llr = channel_llrs(x, ChannelModel.bec(1.0), pattern, 0.5, np.random.default_rng(0))
    info = range(33, 65)
    for decoder in (SCDecoder(spec, info), SCLDecoder(spec, info, 4, 16)):
        assert _f_rows_per_frame(monkeypatch, decoder, llr) == (0, 0)
    assert not np.any(SCDecoder(spec, info).decode(llr))


def test_sc_llr_length_validation():
    with pytest.raises(ValueError):
        SCDecoder(CodeSpec(8, 8), range(1, 9)).decode(np.zeros((1, 7)))
    with pytest.raises(ValueError):
        SCDecoder(CodeSpec(8, 8), (9,))
    # every decoder validates its information set: distinct and non-empty
    for decoder in (SCDecoder, SCLDecoder):
        with pytest.raises(ValueError, match="duplicate"):
            decoder(CodeSpec(8, 3), (3, 3, 5))
        with pytest.raises(ValueError, match="non-empty"):
            decoder(CodeSpec(8, 1), ())


def _noisy_frames(spec, info, ebn0_db, count, seed, pattern=None):
    pattern = pattern or PuncturingPattern(spec.n_mother, ())
    rng = np.random.default_rng(seed)
    u = np.zeros((count, spec.n_mother), dtype=np.int8)
    idx = np.asarray(info, dtype=np.int64) - 1
    u[:, idx] = rng.integers(0, 2, size=(count, idx.size), dtype=np.int8)
    x = encode(u, spec)
    llr = channel_llrs(x, ChannelModel.awgn(ebn0_db), pattern, spec.rate, rng)
    return u, llr


def test_scl_list1_equals_sc():
    spec = CodeSpec(32, 16)
    rel = ga_llr_means(spec, 2.0, PuncturingPattern(32, ()), 0.5)
    info = select_information_set(rel, 16)
    u, llr = _noisy_frames(spec, info, 1.0, 1000, seed=5)
    sc = SCDecoder(spec, info).decode(llr)
    scl, crc_ok = SCLDecoder(spec, info, list_size=1).decode(llr)
    assert crc_ok is None
    assert np.array_equal(sc, scl)


@st.composite
def _sc_cases(draw, max_m=8, min_k=1):
    """A code with an edge-case information set of at least ``min_k``
    positions, and LLRs holding exact +-0."""
    m = draw(st.integers(max(1, (min_k - 1).bit_length()), max_m))
    n = 1 << m
    kinds = ["random", "frozen_prefix", "k1", "k_n"] if min_k == 1 \
        else ["random", "frozen_prefix", "k_n"]
    kind = draw(st.sampled_from(kinds))
    if kind == "random":
        info = draw(st.sets(st.integers(1, n), min_size=min_k, max_size=n))
    elif kind == "frozen_prefix":
        info = range(draw(st.integers(1, n - min_k + 1)), n + 1)
    elif kind == "k1":
        info = {draw(st.integers(1, n))}
    else:
        info = range(1, n + 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = draw(st.integers(1, 12))
    llr = rng.normal(draw(st.sampled_from([0.0, 1.0, 4.0])), 2.0, size=(batch, n))
    llr[rng.random((batch, n)) < draw(st.sampled_from([0.0, 0.2, 0.6]))] = 0.0
    llr[rng.random((batch, n)) < 0.1] = -0.0
    punctured = rng.choice(n, size=draw(st.integers(0, n - 1)), replace=False)
    llr[:, punctured] = 0.0
    return CodeSpec(n, len(info)), tuple(sorted(info)), llr


@settings(max_examples=150, deadline=None)
@given(_sc_cases())
def test_sc_equals_scl_list1_on_edge_case_information_sets(case):
    # SCL shares SC's tree walk but enters every subtree, frozen or not, so
    # this checks SC's skipping of all-frozen subtrees against the unskipped
    # walk, and that SCL's leaf rule at one path makes SC's decisions.  The
    # walk itself is checked by test_sc_matches_plain_list_decoder_with_one_path.
    spec, info, llr = case
    sc = SCDecoder(spec, info).decode(llr)
    scl, _ = SCLDecoder(spec, info, list_size=1).decode(llr)
    assert sc.dtype == np.int8 and sc.shape == llr.shape
    assert np.array_equal(sc, scl)
    frozen = np.setdiff1d(np.arange(spec.n_mother), np.asarray(info) - 1)
    assert not sc[:, frozen].any()


def _reference_scl(llrs, info, list_size, crc_len):
    """Plain list decoder: every path keeps its decided bits in full, and
    each leaf LLR is recomputed from the channel LLRs down the tree."""
    batch, n = llrs.shape
    mask = np.zeros(n, dtype=bool)
    mask[np.asarray(info) - 1] = True
    tree = np.broadcast_to(llrs[:, None, bit_reversal_permutation(n.bit_length() - 1)],
                           (batch, list_size, n))
    u = np.zeros((batch, list_size, 0), dtype=np.int8)
    pm = np.full((batch, list_size), np.inf)
    pm[:, 0] = 0.0
    for i in range(n):
        llr = _reference_leaf_llr(tree, u, i)
        if not mask[i]:
            pm = pm + np.where(llr < 0, -llr, 0.0)
            u = np.concatenate([u, np.zeros((batch, list_size, 1), np.int8)], axis=2)
            continue
        pen0 = np.where(llr < 0, -llr, 0.0)
        pen1 = np.where(llr > 0, llr, 0.0)
        cand = np.concatenate([_charge(pm, pen0), _charge(pm, pen1)], axis=1)
        sel = np.argsort(cand, axis=1, kind="stable")[:, :list_size]
        pm = np.take_along_axis(cand, sel, axis=1)
        u = np.take_along_axis(u, (sel % list_size)[:, :, None], axis=1)
        bits = (sel >= list_size).astype(np.int8)
        u = np.concatenate([u, bits[:, :, None]], axis=2)
    chosen = np.argmin(pm, axis=1)
    crc_ok = None
    if crc_len:
        word = u[:, :, mask]
        ok = np.all(crc16_remainder_bits(word[:, :, :-crc_len])
                    == word[:, :, -crc_len:], axis=2)
        crc_ok = ok.any(axis=1)
        for row in np.flatnonzero(crc_ok):
            chosen[row] = min(np.flatnonzero(ok[row]), key=lambda j: pm[row, j])
    return u[np.arange(batch), chosen], crc_ok


def _reference_leaf_llr(llr, u, i):
    """LLR of leaf i given the decided bits ``u`` (..., i) of each path."""
    while llr.shape[-1] > 1:
        half = llr.shape[-1] // 2
        a, b = llr[..., :half], llr[..., half:]
        if i < half:
            llr = f_node(a, b)
        else:
            llr = g_node(a, b, _reference_partial_sums(u[..., :half]))
            u, i = u[..., half:], i - half
    return llr[..., 0]


def _reference_partial_sums(u):
    """u F^(kron m) over GF(2) along the last axis: the bits a subtree
    returns to its parent, in the tree's order."""
    x = u.copy()
    step = 1
    while step < x.shape[-1]:
        view = x.reshape(x.shape[:-1] + (x.shape[-1] // (2 * step), 2, step))
        view[..., 0, :] ^= view[..., 1, :]
        step *= 2
    return x


@settings(max_examples=150, deadline=None)
@given(_sc_cases(max_m=6))
def test_sc_matches_plain_list_decoder_with_one_path(case):
    # The plain list decoder shares no code with SCDecoder's tree walk or its
    # rate-0 skipping, so it is an independent reference for SC.
    spec, info, llr = case
    want, _ = _reference_scl(llr, info, 1, 0)
    assert np.array_equal(SCDecoder(spec, info).decode(llr), want)


def _rate1_case(rng):
    """A code of N = 2..64 with a rate-1-heavy information set (K = N, a
    suffix, or dense random), and LLRs at the edge of ``f_node``'s
    precision: magnitudes from 1e-19 to 1e-8 with mixed signs, exact ±0,
    and some large values."""
    n = 1 << int(rng.integers(1, 7))
    kind = rng.integers(3)
    if kind == 0:
        info = range(1, n + 1)
    elif kind == 1:
        info = range(int(rng.integers(1, n + 1)), n + 1)
    else:
        info = np.flatnonzero(rng.random(n) < 0.8) + 1
        info = info if info.size else [n]
    batch = int(rng.integers(1, 9))
    llr = rng.choice([-1.0, 1.0], (batch, n)) * 10.0 ** rng.uniform(-19, -8, (batch, n))
    llr[rng.random((batch, n)) < 0.1] = rng.choice([0.0, -0.0])
    big = rng.random((batch, n)) < rng.choice([0.0, 0.1, 0.5])
    llr[big] = rng.normal(0.0, 20.0, np.count_nonzero(big))
    return CodeSpec(n, len(info)), tuple(int(i) for i in info), llr


def test_sc_rate1_nodes_match_plain_list_decoder_on_tiny_llrs():
    # A rate-1 node's hard decision is SC's output only where f_node's sign
    # is right, which fails for operands near 1e-16; the guard sends such
    # frames through the full walk.  Without the guard, most of these cases
    # decode differently from the plain list decoder.
    rng = np.random.default_rng(2011)
    for case in range(300):
        spec, info, llr = _rate1_case(rng)
        want, _ = _reference_scl(llr, info, 1, 0)
        got = SCDecoder(spec, info).decode(llr)
        assert np.array_equal(got, want), (case, spec, info)


def test_rate1_thresholds_reach_the_guard_and_are_tight():
    # The rate-1 shortcut's proof needs f_node's chain at θ_k to reach the
    # guard under the SIMD dispatch in use; the bits of θ_k are not pinned,
    # since the chain's last bits differ between dispatches.  Each θ_k is
    # also no more than 0.1% above the least value that reaches it.
    def chain(m, k):
        m = np.array([m])
        for _ in range(k):
            m = f_node(m, m)
        return m[0]

    assert len(decoders.RATE1_THRESHOLDS) == 20
    for k, theta in enumerate(decoders.RATE1_THRESHOLDS, 1):
        assert chain(theta, k) >= decoders.RATE1_GUARD, k
        assert chain(theta * (1 - 1e-3), k) < decoders.RATE1_GUARD, k


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scl_matches_plain_list_decoder(data):
    crc_len = data.draw(st.sampled_from([0, 16]))
    spec, info, llr = data.draw(_sc_cases(max_m=6, min_k=crc_len + 1))
    list_size = data.draw(st.sampled_from([2, 3, 4, 8, 16]))
    # Sign the LLRs by a random codeword, so that CRC-16 words pass too.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    u = np.zeros(llr.shape, dtype=np.int8)
    payload = rng.integers(0, 2, size=(llr.shape[0], len(info) - crc_len),
                           dtype=np.int8)
    u[:, np.asarray(info) - 1] = np.concatenate(
        [payload, crc16_remainder_bits(payload)[:, :crc_len]], axis=1)
    llr = llr * (1.0 - 2.0 * encode(u, spec))
    u_hat, crc_ok = SCLDecoder(spec, info, list_size, crc_len).decode(llr)
    want_u, want_ok = _reference_scl(llr, info, list_size, crc_len)
    assert np.array_equal(u_hat, want_u)
    if crc_len:
        assert np.array_equal(crc_ok, want_ok)
    else:
        assert crc_ok is None and want_ok is None


def _first_leaf_rule(pm, llr, list_size):
    """The information-leaf rule as first written: both extensions of each
    path charged through ``_charge``, survivors gathered by
    ``take_along_axis``.  Returns the new metrics, bits, source paths and
    the (B, 2L) candidates."""
    pen0 = np.where(llr < 0, -llr, 0.0)
    pen1 = np.where(llr > 0, llr, 0.0)
    cand = np.concatenate([_charge(pm, pen0), _charge(pm, pen1)], axis=1)
    sel = np.argsort(cand, axis=1, kind="stable")[:, :list_size]
    return (np.take_along_axis(cand, sel, axis=1), (sel >= list_size).astype(np.int8),
            sel % list_size, cand)


def _information_leaf(pm, llr):
    """One information leaf of ``SCLDecoder`` from (B, L) path metrics and
    (B, L') LLRs, with the list state set up as ``_decode_tree`` does.
    Returns what ``_first_leaf_rule`` does: the bits are the leaf's (1, B, L)
    partial sums and the sources its flat path map less each frame's b * L."""
    batch, list_size = pm.shape
    dec = SCLDecoder(CodeSpec(2, 1), (2,), list_size)
    dec._pm = pm.copy()
    dec._rows = np.arange(0, batch * list_size, list_size)[:, None]
    dec._cand = np.empty((batch, 2 * list_size))
    partial, paths = dec._leaf(llr, 1)
    assert partial.dtype == np.int8 and partial.shape == (1, batch, list_size)
    return dec._pm, partial[0], paths - dec._rows, dec._cand


def test_scl_leaf_rule_matches_the_first_formula():
    # A metric far above |LLR|: each path extends by its LLR's sign at pm,
    # and the contradicting candidate rises by exactly one ulp.
    for list_size in (4, 16):
        rng = np.random.default_rng(list_size)
        llr = 1e-12 * rng.choice([-1.0, 1.0], size=(3, list_size))
        pm = np.full(llr.shape, 1e6)
        got = _information_leaf(pm, llr)
        want = _first_leaf_rule(pm, llr, list_size)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        new_pm, bits, src, cand = got
        assert np.all(new_pm == 1e6)
        assert np.array_equal(bits, np.take_along_axis(llr < 0, src.astype(np.int64), axis=1))
        neg = llr < 0
        assert np.all(cand == np.where(np.concatenate([neg, ~neg], axis=1),
                                       np.nextafter(1e6, np.inf), 1e6))

    # The ramp-up: infinite metrics, ±0 LLRs and exact ties, first as the
    # one shared column of LLRs, then per path.  The survivors and their
    # order must be the first formula's at every step.
    for list_size in (1, 2, 3, 4, 16):
        rng = np.random.default_rng(7 + list_size)
        pm = np.full((6, list_size), np.inf)
        pm[:, 0] = 0.0
        for step in range(6):
            llr = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -2.5],
                             size=(6, 1 if step < 2 else list_size))
            got = _information_leaf(pm, llr)
            want = _first_leaf_rule(pm, llr, list_size)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            pm = got[0]


@pytest.mark.parametrize("batch", [0, 1])
@pytest.mark.parametrize("list_size", [1, 4, 16])
def test_scl_decodes_batches_of_zero_and_one_frame(batch, list_size):
    spec = CodeSpec(32, 24)
    info = tuple(range(9, 33))
    llr = np.random.default_rng(batch).normal(1.0, 2.0, size=(batch, 32))
    llr[:, :4] = 0.0
    for crc_len in (0, 16):
        u_hat, crc_ok = SCLDecoder(spec, info, list_size, crc_len).decode(llr)
        assert u_hat.dtype == np.int8 and u_hat.shape == (batch, 32)
        assert crc_ok is None if not crc_len else crc_ok.shape == (batch,)
        want_u, want_ok = _reference_scl(llr, info, list_size, crc_len)
        assert np.array_equal(u_hat, want_u)
        assert crc_ok is None or np.array_equal(crc_ok, want_ok)
    u_hat = SCDecoder(spec, info).decode(llr)
    assert u_hat.dtype == np.int8 and u_hat.shape == (batch, 32)
    assert np.array_equal(u_hat, _reference_scl(llr, info, 1, 0)[0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_decoders_reject_non_finite_llrs(bad):
    # Signed as ±inf, this codeword decoded to all zeros under SC and SCL
    # (inf - inf in the kernels); at ±30 it decodes right.
    spec, info = CodeSpec(8, 4), (4, 6, 7, 8)
    u = np.array([0, 0, 0, 1, 0, 1, 0, 1], dtype=np.int8)
    signs = 1.0 - 2.0 * encode(u, spec)
    sc, scl = SCDecoder(spec, info), SCLDecoder(spec, info, list_size=4)
    assert np.array_equal(sc.decode(30.0 * signs[None]), u[None])
    assert np.array_equal(scl.decode(30.0 * signs[None])[0], u[None])
    llr = np.tile(30.0 * signs, (3, 1))
    llr[1, 5] = bad
    for decoder in (sc, scl):
        with pytest.raises(ValueError, match="finite"):
            decoder.decode(llr)
        with pytest.raises(ValueError, match="finite"):
            decoder.decode(abs(bad) * signs[None])


def test_scl_noiseless_crc_ok():
    spec = CodeSpec(16, 8)
    info = (9, 10, 11, 12, 13, 14, 15, 16)
    # no CRC: clean frame decodes exactly
    u = np.zeros(16, dtype=np.int8)
    u[np.array(info) - 1] = [1, 0, 1, 1, 0, 0, 1, 0]
    llr = (1.0 - 2.0 * encode(u, spec)) * 30.0
    u_hat, _ = SCLDecoder(spec, info, list_size=4).decode(llr[None])
    assert np.array_equal(u_hat[0], u)

    # with CRC-16 on a larger code the clean frame must verify
    spec = CodeSpec(64, 32)
    rel = ga_llr_means(spec, 3.0, PuncturingPattern(64, ()), 0.5)
    info = select_information_set(rel, 32)
    rng = np.random.default_rng(2)
    payload = rng.integers(0, 2, size=16, dtype=np.int8)
    word = crc16_append(payload)
    u = np.zeros(64, dtype=np.int8)
    u[np.asarray(info) - 1] = word
    llr = (1.0 - 2.0 * encode(u, spec)) * 30.0
    u_hat, crc_ok = SCLDecoder(spec, info, list_size=8, crc_len=16).decode(llr[None])
    assert crc_ok.tolist() == [True]
    assert np.array_equal(u_hat[0, np.asarray(info) - 1], word)


def test_scl_not_worse_than_sc_paired():
    # list decoding dominates SC on the same noise realizations
    spec = CodeSpec(16, 8)
    rel = ga_llr_means(spec, 2.0, PuncturingPattern(16, ()), 0.5)
    info = select_information_set(rel, 8)
    u, llr = _noisy_frames(spec, info, 2.0, 1000, seed=77)
    idx = np.asarray(info) - 1
    sc_errors = (SCDecoder(spec, info).decode(llr)[:, idx] != u[:, idx]).any(axis=1)
    scl_hat, _ = SCLDecoder(spec, info, list_size=4).decode(llr)
    scl_errors = (scl_hat[:, idx] != u[:, idx]).any(axis=1)
    assert scl_errors.sum() <= sc_errors.sum()


def test_scl_validation():
    spec = CodeSpec(8, 4)
    with pytest.raises(ValueError):
        SCLDecoder(spec, (5, 6, 7, 8), list_size=0)
    with pytest.raises(ValueError):
        SCLDecoder(spec, (5, 6, 7, 8), crc_len=8)
    with pytest.raises(ValueError):
        SCLDecoder(spec, (5, 6, 7, 8), crc_len=16)  # K=4 cannot carry CRC-16


# ---------------------------------------------------------------------------
# CRC-16
# ---------------------------------------------------------------------------

def long_division_crc(bits):
    """Oracle: explicit polynomial long division of bits * x^16 by the
    generator, working on coefficient lists."""
    gen = [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1]  # x^16+x^12+x^5+1
    work = list(bits) + [0] * 16
    for i in range(len(work) - 16):
        if work[i]:
            for j, g in enumerate(gen):
                work[i + j] ^= g
    remainder = work[-16:]
    return int("".join(str(b) for b in remainder), 2)


def test_crc_examples():
    assert crc16_ccitt([]) == 0
    assert crc16_ccitt([0] * 64) == 0
    assert crc16_ccitt([1]) == 0x1021


def test_crc_against_long_division_oracle():
    rng = np.random.default_rng(100)
    for _ in range(300):
        length = int(rng.integers(0, 257))
        bits = rng.integers(0, 2, size=length)
        assert crc16_ccitt(bits) == long_division_crc(bits)


def test_crc_linearity():
    rng = np.random.default_rng(8)
    for _ in range(50):
        length = int(rng.integers(1, 128))
        a = rng.integers(0, 2, size=length)
        b = rng.integers(0, 2, size=length)
        assert crc16_ccitt(a ^ b) == crc16_ccitt(a) ^ crc16_ccitt(b)


def test_crc_append_and_check():
    rng = np.random.default_rng(21)
    for _ in range(100):
        payload = rng.integers(0, 2, size=int(rng.integers(1, 200)))
        word = crc16_append(payload)
        assert crc16_check(word)
        corrupted = word.copy()
        corrupted[rng.integers(0, word.size)] ^= 1
        assert not crc16_check(corrupted)


def test_crc_batch_matches_scalar():
    rng = np.random.default_rng(3)
    payloads = rng.integers(0, 2, size=(20, 4, 48))
    batch = crc16_remainder_bits(payloads)
    for i in range(20):
        for j in range(4):
            expected = crc16_ccitt(payloads[i, j])
            got = int("".join(str(int(b)) for b in batch[i, j]), 2)
            assert got == expected
