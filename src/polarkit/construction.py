"""Per-bit-channel reliability under puncturing and information-set selection.

Two metrics are supported: exact Bhattacharyya parameters for the BEC, and
LLR means propagated with the Gaussian approximation for BPSK over AWGN.
Both run one walk (``_walk``) over the encoder's stage loop
(``core.butterflies``): leaf metrics sit on the coded bits, a punctured bit's
at the metric of a bit never received, are permuted by bit reversal, and are
combined in place pair by pair, widest stage first, until they reach the
input bits in natural order.  The two differ only in their leaf values and
their pair rule.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import CodeSpec, bit_reversal_permutation, butterflies
from .puncturing import PuncturingPattern

BHATTACHARYYA = "bhattacharyya"
LLR_MEAN = "llr_mean"
# Largest channel LLR scale 2/sigma^2 (about 3000 dB at rate 1/2): far above
# any physical SNR, and low enough that no LLR, GA mean or sum of N of them
# overflows.
MAX_LLR_SCALE = 1e300


@dataclass(frozen=True)
class ReliabilityVector:
    """Per input-bit-channel reliability metric, in input order.

    kind 'bhattacharyya': lower is better.  kind 'llr_mean': higher is better.
    """

    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in (BHATTACHARYYA, LLR_MEAN):
            raise ValueError(f"unknown reliability kind {self.kind!r}")
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))


def _walk(spec: CodeSpec, pattern: PuncturingPattern, leaf: float, punctured: float,
          combine, kind: str) -> ReliabilityVector:
    """The reliability of ``kind`` of the input bit-channels: every coded bit
    starts at ``leaf``, a punctured one at ``punctured``, and each stage of
    ``core.butterflies`` over the bit-reversed leaves replaces a pair (a, b)
    by ``combine(a, b)``, upper (degraded) branch first."""
    if pattern.n_mother != spec.n_mother:
        raise ValueError(f"pattern is for N={pattern.n_mother}, "
                         f"code has N={spec.n_mother}")
    x = np.full(spec.n_mother, leaf)
    x[pattern.zero_based()] = punctured
    x = x[bit_reversal_permutation(spec.m)]
    for a, b in butterflies(x):
        a[...], b[...] = combine(a, b)
    return ReliabilityVector(x, kind)


def bec_bhattacharyya(spec: CodeSpec, epsilon: float,
                      pattern: PuncturingPattern) -> ReliabilityVector:
    """Exact Bhattacharyya parameters of the input bit-channels over a BEC.

    Punctured coded bits behave as erased with probability 1; the remaining
    leaves carry ``epsilon``.  The pairwise recursion
    Z_upper = Za + Zb - Za*Zb, Z_lower = Za*Zb is exact for the BEC.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    return _walk(spec, pattern, float(epsilon), 1.0,
                 lambda a, b: (a + b - a * b, a * b), BHATTACHARYYA)


# ---------------------------------------------------------------------------
# Gaussian approximation.  phi is the standard two-piece mean transform:
#   phi(x) = exp(-0.4527 x^0.86 + 0.0218)            for 0 < x < 10
#   phi(x) = sqrt(pi/x) exp(-x/4) (1 - 10/(7x))      for x >= 10
# with phi(0) = 1, inverted by bisection.
# ---------------------------------------------------------------------------

_PHI_SPLIT = 10.0
# Bisection in ga_phi_inv stops once the bracket is this narrow relative to
# max(x, 1).
_PHI_INV_REL_TOL = 1e-9


def ga_phi(x: float) -> float:
    if x < 0:
        raise ValueError("phi is defined for x >= 0")
    if x == 0.0:
        return 1.0
    if x < _PHI_SPLIT:
        return math.exp(-0.4527 * x ** 0.86 + 0.0218)
    return math.sqrt(math.pi / x) * math.exp(-x / 4.0) * (1.0 - 10.0 / (7.0 * x))


def ga_phi_inv(y: float) -> float:
    """Numerical inverse of ga_phi on (0, 1] by bisection."""
    if y >= 1.0:
        return 0.0
    if y <= 0.0:
        raise ValueError("phi_inv needs y in (0, 1]")
    lo, hi = 0.0, 1.0
    while ga_phi(hi) > y:
        hi *= 2.0
        if hi > 1e9:  # phi underflows long before this
            return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if ga_phi(mid) > y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= _PHI_INV_REL_TOL * max(hi, 1.0):
            break
    return 0.5 * (lo + hi)


# A search builds every candidate's GA from the same two leaf means, so the
# check-node rule sees few distinct pairs (about 600 in a generation of 20
# candidates at N=64, which makes 3840 calls): each is computed once.  The
# rule is pure, so the memo returns the bits a fresh call would.  +0.0 and
# -0.0 share an entry, and give the same result: phi(±0) = 1, so the min
# branch is never taken with a zero operand.  The bound keeps the memo under
# about 1 MB: an entry (two float arguments, the result and the cache's
# links) takes about 220 bytes.
@functools.lru_cache(maxsize=1 << 12)
def _ga_upper_mean(a: float, b: float) -> float:
    pa, pb = ga_phi(a), ga_phi(b)
    # 1 - (1-pa)(1-pb), written to survive pa, pb below double precision
    target = pa + pb - pa * pb
    # min(a, b) is the exact limit once phi underflows entirely
    return ga_phi_inv(target) if target > 0.0 else min(a, b)


# The GA's check-node rule, element-wise on arrays of any shape.
_ga_upper = np.vectorize(_ga_upper_mean, otypes=[float])


def noise_variance(ebn0_db: float, effective_rate: float) -> float:
    """BPSK noise variance 1/(2 R 10^(Eb/N0/10)); 0 for the noiseless +inf
    Eb/N0.  Raises ValueError if the variance is not a finite positive number,
    or so small that the LLR scale 2/sigma^2 exceeds ``MAX_LLR_SCALE``."""
    if not effective_rate > 0:
        raise ValueError(f"effective_rate must be > 0, got {effective_rate}")
    if ebn0_db == math.inf:
        return 0.0
    try:
        sigma2 = 1.0 / (2.0 * effective_rate * 10.0 ** (ebn0_db / 10.0))
    except (OverflowError, ZeroDivisionError):
        sigma2 = math.nan
    if not 0.0 < sigma2 < math.inf:
        raise ValueError(f"Eb/N0 {ebn0_db} dB gives no finite positive noise variance")
    if 2.0 / sigma2 > MAX_LLR_SCALE:
        raise ValueError(f"Eb/N0 {ebn0_db} dB gives a noise variance too small "
                         f"for finite LLRs (2/sigma^2 > {MAX_LLR_SCALE:g})")
    return sigma2


def design_noise_variance(design_ebn0_db: float, effective_rate: float) -> float:
    """``noise_variance`` at a design Eb/N0, which must give a finite positive
    variance: the GA construction has no noiseless limit."""
    sigma2 = noise_variance(design_ebn0_db, effective_rate)
    if sigma2 == 0.0:
        raise ValueError("design Eb/N0 must be finite for the GA construction")
    return sigma2


def ga_llr_means(spec: CodeSpec, design_ebn0_db: float,
                 pattern: PuncturingPattern,
                 effective_rate: float) -> ReliabilityVector:
    """Mean decision LLRs of the input bit-channels under the Gaussian
    approximation, with punctured coded bits entering at mean 0."""
    sigma2 = design_noise_variance(design_ebn0_db, effective_rate)
    return _walk(spec, pattern, 2.0 / sigma2, 0.0,
                 lambda a, b: (_ga_upper(a, b), a + b), LLR_MEAN)


def select_information_set(reliability: ReliabilityVector, k: int) -> tuple[int, ...]:
    """The k most reliable input positions (1-based, sorted ascending).

    Ties break toward the lower index, so selection is deterministic.
    """
    n = reliability.values.size
    if not 0 < k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    if reliability.kind == BHATTACHARYYA:
        order = np.argsort(reliability.values, kind="stable")
    else:
        order = np.argsort(-reliability.values, kind="stable")
    chosen = np.sort(order[:k]) + 1
    return tuple(int(i) for i in chosen)

