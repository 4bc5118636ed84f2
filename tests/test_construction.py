import itertools
import math

import numpy as np
import pytest

from polarkit import (CodeSpec, PuncturingPattern, ReliabilityVector,
                      bec_bhattacharyya, bit_reversal_permutation, construction,
                      ga_llr_means, noise_variance, qup_pattern,
                      select_information_set)
from polarkit.construction import design_noise_variance, ga_phi, ga_phi_inv
from polarkit.core import butterflies


def analytic_n4_pattern1(eps):
    return np.array([1.0, 2 * eps - eps**2, eps + eps**2 - eps**3, eps**3])


def test_bec_n4_analytic_values():
    spec = CodeSpec(4, 2)
    for eps in (0.1, 0.3, 0.5, 0.9):
        z = bec_bhattacharyya(spec, eps, PuncturingPattern(4, (1,)))
        assert np.allclose(z.values, analytic_n4_pattern1(eps), atol=1e-12)


def test_bec_first_and_last_pattern_equivalent():
    for n in (4, 8):
        spec = CodeSpec(n, n // 2)
        for eps in (0.2, 0.5, 0.8):
            z1 = bec_bhattacharyya(spec, eps, PuncturingPattern(n, (1,)))
            zn = bec_bhattacharyya(spec, eps, PuncturingPattern(n, (n,)))
            assert np.allclose(z1.values, zn.values, atol=1e-12)


def test_bec_perfect_channel():
    z = bec_bhattacharyya(CodeSpec(4, 2), 0.0, PuncturingPattern(4, ()))
    assert np.array_equal(z.values, np.zeros(4))


def test_bec_epsilon_validation():
    with pytest.raises(ValueError):
        bec_bhattacharyya(CodeSpec(4, 2), 1.5, PuncturingPattern(4, ()))
    with pytest.raises(ValueError, match="pattern is for N=8"):
        bec_bhattacharyya(CodeSpec(16, 8), 0.5, PuncturingPattern(8, (1,)))


def test_bec_erasure_conservation():
    # the pairwise recursion preserves the metric sum layer by layer
    rng = np.random.default_rng(3)
    for n in (4, 16, 64):
        spec = CodeSpec(n, n // 2)
        n_p = int(rng.integers(0, n // 2))
        punct = tuple(sorted(rng.choice(np.arange(1, n + 1), size=n_p,
                                        replace=False))) if n_p else ()
        eps = float(rng.uniform(0.1, 0.9))
        z = bec_bhattacharyya(spec, eps, PuncturingPattern(n, punct))
        leaf_sum = n_p * 1.0 + (n - n_p) * eps
        assert np.isclose(z.values.sum(), leaf_sum, atol=1e-9)


def brute_force_bec_erasure(spec, eps, pattern):
    """Independent oracle: enumerate every erasure configuration of the coded
    bits and propagate known/erased flags through the decoding tree."""
    n = spec.n_mother
    perm = bit_reversal_permutation(spec.m)
    p_erase = np.full(n, eps)
    p_erase[pattern.zero_based()] = 1.0

    def walk(erased):
        if erased.size == 1:
            return erased.astype(float)
        half = erased.size // 2
        a, b = erased[:half], erased[half:]
        return np.concatenate([walk(a | b), walk(a & b)])

    total = np.zeros(n)
    for mask in itertools.product([False, True], repeat=n):
        mask = np.array(mask)
        prob = np.prod(np.where(mask, p_erase, 1.0 - p_erase))
        if prob == 0.0:
            continue
        total += prob * walk(mask[perm])
    return total


def test_bec_against_enumeration_oracle():
    spec = CodeSpec(4, 2)
    for punct in ((), (1,), (2,), (3,)):
        for eps in (0.3, 0.7):
            expected = brute_force_bec_erasure(spec, eps, PuncturingPattern(4, punct))
            got = bec_bhattacharyya(spec, eps, PuncturingPattern(4, punct))
            assert np.allclose(got.values, expected, atol=1e-12), (punct, eps)


def _evolve(leaves, upper, lower):
    """Reference walk: the polar recursion from bit-reversed leaf metrics to
    input-bit metrics in natural order, ``upper`` giving the first-decoded
    branch."""
    if leaves.size == 1:
        return leaves
    half = leaves.size // 2
    a, b = leaves[:half], leaves[half:]
    return np.concatenate([_evolve(upper(a, b), upper, lower),
                           _evolve(lower(a, b), upper, lower)])


def _ga_upper_reference(a, b):
    pa = np.array([ga_phi(x) for x in a])
    pb = np.array([ga_phi(x) for x in b])
    target = pa + pb - pa * pb
    floor = np.minimum(a, b)
    return np.array([ga_phi_inv(t) if t > 0.0 else lim
                     for t, lim in zip(target, floor)])


def _oracle_cases():
    rng = np.random.default_rng(16)
    for n in (2, 4, 16, 64, 256, 1024):
        patterns = [PuncturingPattern(n, ())]
        for _ in range(2):
            n_p = int(rng.integers(1, n))
            patterns.append(PuncturingPattern(n, tuple(int(i) for i in np.sort(
                rng.choice(np.arange(1, n + 1), size=n_p, replace=False)))))
        for pattern in patterns:
            yield CodeSpec(n, n // 2), pattern


@pytest.mark.parametrize("spec,pattern", _oracle_cases(),
                         ids=lambda v: f"N{v.n_mother}" if isinstance(v, CodeSpec)
                         else f"np{v.n_p}")
def test_stage_loop_matches_recursive_oracle(spec, pattern):
    perm = bit_reversal_permutation(spec.m)
    punct = pattern.zero_based()
    rate = spec.k_info / pattern.n_transmitted
    for ebn0 in (-2.0, 1.5, 4.0, 12.0):
        mu = np.full(spec.n_mother, 2.0 / design_noise_variance(ebn0, rate))
        mu[punct] = 0.0
        want = _evolve(mu[perm], _ga_upper_reference, lambda a, b: a + b)
        got = ga_llr_means(spec, ebn0, pattern, rate).values
        assert got.tobytes() == want.tobytes(), ebn0
    for eps in (0.0, 0.1, 0.5, 0.93, 1.0):
        z = np.full(spec.n_mother, eps)
        z[punct] = 1.0
        want = _evolve(z[perm], lambda a, b: a + b - a * b, lambda a, b: a * b)
        got = bec_bhattacharyya(spec, eps, pattern).values
        assert got.tobytes() == want.tobytes(), eps


def test_ga_memo_returns_the_bits_of_a_fresh_call():
    # The check-node rule is memoised: a cold and a warm memo give the same
    # bytes, and a cached +0.0 serves -0.0 (and the reverse) with the bits a
    # fresh call of either gives.
    rule = construction._ga_upper_mean
    spec = CodeSpec(256, 128)
    cases = [(qup_pattern(spec, 56), 2.0), (PuncturingPattern(256, (1, 3, 9, 77)), 6.0)]
    rule.cache_clear()
    cold = [ga_llr_means(spec, ebn0, p, 128 / 200).values.tobytes() for p, ebn0 in cases]
    assert rule.cache_info().hits > 0
    warm = [ga_llr_means(spec, ebn0, p, 128 / 200).values.tobytes() for p, ebn0 in cases]
    assert warm == cold
    fresh = rule.__wrapped__
    for b in (0.0, -0.0, 1e-300, 0.7, 9.99, 10.0, 523.0, 1e300):
        for first, second in ((0.0, -0.0), (-0.0, 0.0)):
            rule.cache_clear()
            rule(first, b)
            got = rule(second, b)
            assert rule.cache_info().hits == 1
            want = fresh(second, b)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert np.float64(want).tobytes() == np.float64(fresh(first, b)).tobytes()


def test_stage_loop_walks_axis_zero_of_a_batch():
    spec = CodeSpec(64, 32)
    columns = [(0.2, PuncturingPattern(64, ())),
               (0.5, PuncturingPattern(64, (1, 9, 33, 40))),
               (0.8, PuncturingPattern(64, tuple(range(1, 25))))]
    z = np.empty((64, 3))
    for j, (eps, pattern) in enumerate(columns):
        z[:, j] = eps
        z[pattern.zero_based(), j] = 1.0
    z = z[bit_reversal_permutation(spec.m)]
    for a, b in butterflies(z):
        a[...], b[...] = a + b - a * b, a * b
    for j, (eps, pattern) in enumerate(columns):
        assert z[:, j].tobytes() == bec_bhattacharyya(spec, eps, pattern).values.tobytes()


def test_ga_phi_basics():
    assert ga_phi(0.0) == 1.0
    xs = np.linspace(0.01, 40, 200)
    for x in (0.5, 3.0, 9.0, 15.0, 60.0):
        assert abs(ga_phi_inv(ga_phi(x)) - x) < 1e-6 * max(x, 1.0)
    # decreasing within each piece
    vals = [ga_phi(x) for x in xs]
    assert vals[0] > vals[-1]


def test_ga_n2_trivial_cases():
    spec = CodeSpec(2, 1)
    rel = ga_llr_means(spec, 0.0, PuncturingPattern(2, ()), 0.5)
    mu = 2.0 / noise_variance(0.0, 0.5)
    assert np.isclose(rel.values[1], 2 * mu, rtol=1e-12)  # lower = sum
    rel_p = ga_llr_means(spec, 0.0, PuncturingPattern(2, (1,)), 0.5)
    assert rel_p.values[0] == 0.0  # upper branch dies with an erased leaf


def test_ga_n4_pattern1_signs():
    spec = CodeSpec(4, 2)
    rel = ga_llr_means(spec, 2.0, PuncturingPattern(4, (1,)), 0.75)
    assert rel.values[0] == 0.0
    assert np.all(rel.values[1:] > 0.0)
    with pytest.raises(ValueError, match="pattern is for N=8"):
        ga_llr_means(CodeSpec(16, 8), 2.0, PuncturingPattern(8, (1,)), 0.75)


def test_ga_monotone_in_design_snr():
    rng = np.random.default_rng(9)
    spec = CodeSpec(16, 8)
    for _ in range(5):
        n_p = int(rng.integers(1, 6))
        punct = tuple(sorted(rng.choice(np.arange(1, 17), size=n_p, replace=False)))
        lo = ga_llr_means(spec, 1.0, PuncturingPattern(16, punct), 0.6)
        hi = ga_llr_means(spec, 3.0, PuncturingPattern(16, punct), 0.6)
        assert np.all(hi.values >= lo.values - 1e-9)


def test_noise_variance_example():
    assert noise_variance(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        noise_variance(1.0, 0.0)


def test_select_information_set_examples():
    eps = 0.5
    rel = ReliabilityVector(analytic_n4_pattern1(eps), "bhattacharyya")
    assert select_information_set(rel, 2) == (3, 4)
    assert select_information_set(rel, 4) == (1, 2, 3, 4)
    flat = ReliabilityVector(np.ones(4), "bhattacharyya")
    assert select_information_set(flat, 2) == (1, 2)
    with pytest.raises(ValueError):
        select_information_set(rel, 5)


def test_select_information_set_llr_kind():
    rel = ReliabilityVector(np.array([0.5, 3.0, 2.0, 3.0]), "llr_mean")
    assert select_information_set(rel, 2) == (2, 4)
    assert select_information_set(rel, 3) == (2, 3, 4)


def test_select_is_deterministic():
    rng = np.random.default_rng(1)
    vals = rng.uniform(size=32)
    rel = ReliabilityVector(vals, "bhattacharyya")
    picks = {select_information_set(rel, 10) for _ in range(5)}
    assert len(picks) == 1


def test_reliability_vector_kind_validation():
    with pytest.raises(ValueError):
        ReliabilityVector(np.ones(4), "nonsense")


def test_noise_variance_is_finite_and_positive_or_the_noiseless_zero():
    assert noise_variance(math.inf, 0.5) == 0.0
    for ebn0, rate in ((-math.inf, 0.5), (-1e308, 0.5), (1e308, 0.5), (3080.0, 0.5),
                       (math.nan, 0.5), (3.0, math.inf)):
        with pytest.raises(ValueError, match="noise variance"):
            noise_variance(ebn0, rate)
