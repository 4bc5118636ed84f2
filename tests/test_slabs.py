"""The slab kernels: ``f_node``, ``g_node``, the LLR formation and the channel
draw run large elementwise work on axis-0 slabs of ``core.SLAB_ELEMS``
elements, and must give the bytes of the whole-array formulas.

The references below evaluate each formula with full-array temporaries, the
ufuncs in the order the formula reads.
"""

import dataclasses
import math

import numpy as np
import pytest

from polarkit import (ChannelModel, CodeSpec, DecoderConfig, core, f_node, g_node,
                      load_pattern, qup_pattern, reference_pattern_path, simulate)
from polarkit.core import slabs
from test_scl_golden import GOLDEN, SC_GOLDEN, SNRS_DB, _digest, _sc_digest


def _ref_f(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return (np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
            + (np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))))


def _ref_g(a, b, v):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return (1.0 - 2.0 * np.asarray(v, dtype=np.float64)) * a + b


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.int64)


_SPECIAL = np.array([0.0, -0.0, 1e4, -1e4, 5e-324, -5e-324, 2.2e-308, -1e-310,
                     1e-300, 0.5, -0.5, 37.0, -700.0, 1e300])


def _llrs(shape, rng):
    """Random LLRs of ``shape`` with the special values mixed in."""
    x = rng.normal(0.0, 8.0, size=shape)
    flat = x.reshape(-1)
    where = rng.choice(flat.size, size=min(flat.size, 4 * _SPECIAL.size), replace=False)
    flat[where] = rng.choice(_SPECIAL, size=where.size)
    return x


# (shape of l_a, shape of l_b, shape of v_hat) at the default slab size
_SHAPES = [
    ((37, 3000), (37, 3000), (37, 3000)),       # slabs of 10 rows, the last 7
    ((1000, 100), (1000, 100), (1000, 100)),    # slabs of 327 rows, the last 19
    ((3, 40000), (3, 40000), (3, 40000)),       # one row longer than a slab
    ((70001,), (70001,), (70001,)),             # 1-D: slabs of 32768 elements
    ((40, 1000, 1), (40, 1000, 1), (40, 1000, 8)),  # SCL: shared LLRs, L sums
    ((40, 1000, 8), (40, 1000, 8), (40, 1000, 1)),
    ((40, 1000, 1), (40, 1000, 8), (40, 1000, 8)),
    ((1, 5000), (20, 5000), (20, 5000)),        # broadcast along axis 0
    ((5000,), (20, 5000), (5000,)),             # fewer dimensions
    ((0, 64), (0, 64), (0, 64)),                # no rows
    ((), (), ()),
]


def _shape_id(shapes):
    return "-".join("x".join(map(str, s)) or "scalar" for s in shapes)


@pytest.mark.parametrize("shapes", _SHAPES, ids=_shape_id)
def test_kernels_match_whole_array_formulas(shapes):
    rng = np.random.default_rng(len(_shape_id(shapes)))
    sa, sb, sv = shapes
    a, b = _llrs(sa, rng), _llrs(sb, rng)
    v = rng.integers(0, 2, size=sv, dtype=np.int8)
    got_f, got_g = f_node(a, b), g_node(a, b, v)
    want_f, want_g = _ref_f(a, b), _ref_g(a, b, v)
    for got, want in ((got_f, want_f), (got_g, want_g)):
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(_bits(got), _bits(want))
    if not sa:
        assert type(got_f) is float and type(got_g) is float


# _SHAPES scaled down for slabs of 1 and 7 elements
_SMALL_SHAPES = [
    ((37, 3), (37, 3), (37, 3)),
    ((3, 11), (3, 11), (3, 11)),
    ((23,), (23,), (23,)),
    ((6, 4, 1), (6, 4, 1), (6, 4, 3)),
    ((6, 4, 3), (6, 4, 3), (6, 4, 1)),
    ((6, 4, 1), (6, 4, 3), (6, 4, 3)),
    ((1, 5), (9, 5), (9, 5)),
    ((5,), (9, 5), (5,)),
    ((0, 4), (0, 4), (0, 4)),
    ((), (), ()),
]


@pytest.mark.parametrize("slab", [1, 7])
def test_kernels_match_at_tiny_slabs(monkeypatch, slab):
    monkeypatch.setattr(core, "SLAB_ELEMS", slab)
    rng = np.random.default_rng(slab)
    for sa, sb, sv in _SMALL_SHAPES:
        a, b = _llrs(sa, rng), _llrs(sb, rng)
        v = rng.integers(0, 2, size=sv, dtype=np.int8)
        assert np.array_equal(_bits(f_node(a, b)), _bits(_ref_f(a, b)))
        assert np.array_equal(_bits(g_node(a, b, v)), _bits(_ref_g(a, b, v)))
    # every pair of special values, in one row and in one column
    a, b = np.meshgrid(_SPECIAL, _SPECIAL)
    for x, y in ((a, b), (a.T.copy(), b.T.copy()), (a.reshape(-1), b.reshape(-1))):
        assert np.array_equal(_bits(f_node(x, y)), _bits(_ref_f(x, y)))
        for v in (0, 1):
            assert np.array_equal(_bits(g_node(x, y, v)), _bits(_ref_g(x, y, v)))


def test_slabs_cover_every_row_once(monkeypatch):
    monkeypatch.setattr(core, "SLAB_ELEMS", 7)
    assert slabs((10, 3)) == [slice(0, 2), slice(2, 4), slice(4, 6), slice(6, 8),
                              slice(8, 10)]
    assert slabs((3, 8)) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert slabs((15,)) == [slice(0, 7), slice(7, 14), slice(14, 15)]
    assert slabs((0, 4)) == [slice(0, 0)]
    assert slabs((4, 0)) == [slice(0, 4)]


@pytest.mark.parametrize("slab", [1, 7])
@pytest.mark.parametrize("case", sorted(SC_GOLDEN), ids=lambda c: "N%d-K%d-np%d-%s" % c)
def test_sc_golden_hashes_at_tiny_slabs(monkeypatch, slab, case):
    monkeypatch.setattr(core, "SLAB_ELEMS", slab)
    for snr_index in range(len(SNRS_DB)):
        assert _sc_digest(*case, snr_index) == SC_GOLDEN[case][snr_index]


@pytest.mark.parametrize("slab", [1, 7])
@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "N%d-K%d-np%d-L%d-crc%d" % c)
def test_scl_golden_hashes_at_tiny_slabs(monkeypatch, slab, case):
    monkeypatch.setattr(core, "SLAB_ELEMS", slab)
    for snr_index in range(len(SNRS_DB)):
        assert _digest(*case, snr_index) == GOLDEN[case][snr_index]


def _report(report):
    return {k: (v.tobytes() if isinstance(v, np.ndarray) else v)
            for k, v in dataclasses.asdict(report).items()}


@pytest.mark.parametrize("model", [ChannelModel.awgn(2.0), ChannelModel.bec(0.3),
                                   ChannelModel.awgn(math.inf)],
                         ids=["awgn", "bec", "noiseless"])
def test_simulate_reports_do_not_depend_on_the_slab_size(monkeypatch, model):
    spec = CodeSpec(1024, 512)
    pattern = qup_pattern(spec, 224)
    info = tuple(range(513, 1025))
    kwargs = dict(trials=70, seed=11)
    want = _report(simulate(spec, pattern, info, model, **kwargs))
    pattern128, info128, _ = load_pattern(reference_pattern_path("de_n128_k64_np28.json"))
    scl = dict(decoder=DecoderConfig(list_size=4, crc_len=16), trials=50, seed=12)
    want_scl = _report(simulate(CodeSpec(128, 64), pattern128, info128, model, **scl))
    for slab in (1, 7, 1000):
        monkeypatch.setattr(core, "SLAB_ELEMS", slab)
        assert _report(simulate(spec, pattern, info, model, **kwargs)) == want
        assert _report(simulate(CodeSpec(128, 64), pattern128, info128, model,
                                **scl)) == want_scl
