import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarkit import (CodeSpec, PatternFileError, PuncturingPattern,
                      bit_reverse, branch_role_counts, candidate_bits,
                      load_pattern, qup_pattern, reference_pattern_path,
                      rqup_pattern, save_pattern, vector_to_pattern)


def test_qup_examples():
    assert qup_pattern(CodeSpec(8, 4), 2).indices == (1, 5)
    assert qup_pattern(CodeSpec(8, 4), 1).indices == (1,)
    assert qup_pattern(CodeSpec(16, 8), 4).indices == (1, 5, 9, 13)


def test_rqup_examples():
    assert rqup_pattern(CodeSpec(8, 4), 2).indices == (4, 8)
    assert rqup_pattern(CodeSpec(8, 4), 1).indices == (8,)
    assert rqup_pattern(CodeSpec(4, 2), 1).indices == (4,)


def test_baselines_against_bit_reversal_oracle():
    for n in (8, 16, 32, 64):
        spec = CodeSpec(n, n // 2)
        m = spec.m
        for n_p in (1, 3, n // 4):
            q = {bit_reverse(i, m) + 1 for i in range(n_p)}
            r = {bit_reverse(i, m) + 1 for i in range(n - n_p, n)}
            assert set(qup_pattern(spec, n_p).indices) == q
            assert set(rqup_pattern(spec, n_p).indices) == r


def test_qup_rqup_disjoint_for_small_np():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(2 ** rng.integers(3, 8))
        n_p = int(rng.integers(1, n // 2 + 1))
        spec = CodeSpec(n, n // 2)
        q = set(qup_pattern(spec, n_p).indices)
        r = set(rqup_pattern(spec, n_p).indices)
        assert not q & r


def test_np_range_validation():
    # n_p lies in [1, N - K], so that the N - n_p transmitted bits carry K
    cases = [(CodeSpec(8, 4), n_p) for n_p in (0, 5, 8, 9, -1)] + [(CodeSpec(16, 12), 5)]
    for spec, bad in cases:
        with pytest.raises(ValueError, match=f"n_p={bad}"):
            qup_pattern(spec, bad)
        with pytest.raises(ValueError, match=f"n_p={bad}"):
            rqup_pattern(spec, bad)
    assert qup_pattern(CodeSpec(16, 12), 4).n_transmitted == 12


def forbidden(spec):
    """Coded bits outside the reduced search space."""
    return set(range(1, spec.n_mother + 1)) - set(candidate_bits(spec).tolist())


def test_forbidden_set_examples():
    assert forbidden(CodeSpec(8, 4)) == {2, 4, 6, 7, 8}
    assert forbidden(CodeSpec(4, 2)) == {2, 3, 4}
    f128 = forbidden(CodeSpec(128, 64))
    assert len(f128) == 65
    assert 127 in f128 and all(i in f128 for i in range(2, 129, 2))


def test_forbidden_and_reduced_sizes():
    for n in (4, 8, 32, 128):
        spec = CodeSpec(n, n // 2)
        assert len(forbidden(spec)) == n // 2 + 1
        assert candidate_bits(spec).size == n // 2 - 1
        assert candidate_bits(spec, reduced=False).tolist() == list(range(1, n + 1))


def traversal_roles(n):
    """Walk the encoder graph: at each layer, consecutive wires pair up and
    the even (0-based) one is the upper arm; the pair becomes one wire of the
    next layer."""
    m = n.bit_length() - 1
    out = []
    for wire in range(n):
        upper = lower = 0
        idx = wire
        for _ in range(m):
            if idx % 2 == 0:
                upper += 1
            else:
                lower += 1
            idx //= 2
        out.append((upper, lower))
    return out


def test_branch_roles_match_reference_counts_n8():
    counts = branch_role_counts(CodeSpec(8, 4))
    assert [c[0] for c in counts] == [3, 2, 2, 1, 2, 1, 1, 0]
    assert [c[1] for c in counts] == [0, 1, 1, 2, 1, 2, 2, 3]


def test_branch_roles_popcount_vs_traversal():
    for n in (4, 8, 16):
        spec = CodeSpec(n, n // 2)
        counts = branch_role_counts(spec)
        assert counts == traversal_roles(n)
        for i, (upper, lower) in enumerate(counts):
            assert lower == bin(i).count("1")
            assert upper + lower == spec.m


def test_vector_to_pattern_reference_example():
    spec = CodeSpec(8, 4)
    cand = np.array([0.68471631, 0.144816, 0.26360207])
    assert vector_to_pattern(cand, 2, spec, reduced=True).indices == (1, 5)


def test_vector_to_pattern_tie_break():
    spec = CodeSpec(8, 4)
    assert vector_to_pattern(np.full(3, 0.5), 2, spec, reduced=True).indices == (1, 3)


def test_vector_to_pattern_full_space():
    spec = CodeSpec(8, 4)
    cand = np.array([0.1, 0.9, 0.2, 0.8, 0.0, 0.0, 0.0, 0.0])
    assert vector_to_pattern(cand, 1, spec, reduced=False).indices == (2,)


def test_vector_to_pattern_validation():
    spec = CodeSpec(8, 4)
    with pytest.raises(ValueError):
        vector_to_pattern(np.zeros(4), 2, spec, reduced=True)  # D must be 3
    with pytest.raises(ValueError):
        vector_to_pattern(np.zeros(3), 4, spec, reduced=True)  # n_p > D
    with pytest.raises(ValueError, match="n_p=8"):  # D = N, but a bit must stay
        vector_to_pattern(np.zeros(8), 8, spec, reduced=False)
    with pytest.raises(ValueError, match="n_p=5"):  # D = 7, but N - K = 4
        vector_to_pattern(np.zeros(7), 5, CodeSpec(16, 12), reduced=True)
    for n_p in (-1, 0):
        with pytest.raises(ValueError):
            vector_to_pattern(np.zeros(3), n_p, spec, reduced=True)
    with pytest.raises(ValueError, match="^candidate must be a 1-D vector$"):
        vector_to_pattern(np.zeros((1, 3)), 2, spec, reduced=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 5),
       st.lists(st.floats(-2, 3, allow_nan=False), min_size=31, max_size=31),
       st.integers(1, 10))
def test_reduced_projection_avoids_forbidden(m, genes, n_p):
    n = 1 << m
    spec = CodeSpec(n, n // 2)
    n_p = min(n_p, n // 2 - 1)
    pattern = vector_to_pattern(np.array(genes[:n // 2 - 1]), n_p, spec, reduced=True)
    assert set(pattern.indices) <= set(candidate_bits(spec).tolist())
    assert all(i % 2 == 1 for i in pattern.indices)


def test_pattern_dataclass_validation():
    with pytest.raises(ValueError):
        PuncturingPattern(8, (1, 1))
    with pytest.raises(ValueError):
        PuncturingPattern(8, (0,))
    with pytest.raises(ValueError):
        PuncturingPattern(8, (9,))
    with pytest.raises(ValueError):
        PuncturingPattern(4, (1, 2, 3, 4))
    assert PuncturingPattern(8, (5, 1)).indices == (1, 5)  # stored sorted


def test_pattern_file_round_trip(tmp_path):
    pattern = PuncturingPattern(16, (1, 5, 9))
    path = tmp_path / "p.json"
    save_pattern(path, pattern, info_set=(10, 12, 14, 16), provenance="unit test")
    loaded, info, prov = load_pattern(path)
    assert loaded == pattern
    assert info == (10, 12, 14, 16)
    assert prov == "unit test"
    # byte-exact re-emission
    path2 = tmp_path / "p2.json"
    save_pattern(path2, loaded, info_set=info, provenance=prov)
    assert path.read_bytes() == path2.read_bytes()


def test_pattern_file_field_errors(tmp_path):
    def write(doc):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        return p

    good = {"schema": "polar-pattern/1", "n_mother": 8, "n_p": 2,
            "indices": [1, 5], "provenance": ""}

    with pytest.raises(PatternFileError, match="schema"):
        load_pattern(write({**good, "schema": "nope"}))
    with pytest.raises(PatternFileError, match="n_mother"):
        load_pattern(write({**good, "n_mother": 6}))
    with pytest.raises(PatternFileError, match="indices"):
        load_pattern(write({**good, "indices": [1, 9]}))
    with pytest.raises(PatternFileError, match="duplicate"):
        load_pattern(write({**good, "indices": [1, 1], "n_p": 2}))
    with pytest.raises(PatternFileError, match="n_p"):
        load_pattern(write({**good, "n_p": 3}))
    with pytest.raises(PatternFileError, match="info_set"):
        load_pattern(write({**good, "info_set": [0, 3]}))
    with pytest.raises(PatternFileError, match="top level"):
        load_pattern(write([good]))
    # A JSON boolean is not a position, here as in the integer fields.
    for field, value, match in [("indices", [True, 2], "'indices': must be a list"),
                                ("indices", ["1", 5], "'indices': must be a list"),
                                ("info_set", "x", "'info_set': must be a list"),
                                ("info_set", [True, 3], "'info_set': must be a list"),
                                ("info_set", [3, 3], "'info_set': duplicate"),
                                ("n_mother", 8.0, "'n_mother': must be an integer"),
                                ("n_mother", True, "'n_mother': must be an integer"),
                                ("n_p", 2.0, "'n_p': must be an integer"),
                                ("n_p", True, "'n_p': must be an integer")]:
        with pytest.raises(PatternFileError, match=match):
            load_pattern(write({**good, field: value}))
    with pytest.raises(PatternFileError, match="JSON"):
        p = tmp_path / "garbage.json"
        p.write_text("{not json")
        load_pattern(p)
    with pytest.raises(FileNotFoundError):
        load_pattern(tmp_path / "missing.json")


def test_shipped_reference_patterns():
    cases = {
        "de_n128_k64_np28.json": (128, 28, 64),
        "de_n64_k32_np24.json": (64, 24, 32),
    }
    for name, (n, n_p, k) in cases.items():
        pattern, info, prov = load_pattern(reference_pattern_path(name))
        assert pattern.n_mother == n
        assert pattern.n_p == n_p
        assert info is not None and len(info) == k
        assert all(i % 2 == 1 for i in pattern.indices), "only odd coded bits"
        assert n - 1 not in pattern.indices
        assert prov


def test_reference_pattern_path_missing():
    with pytest.raises(FileNotFoundError):
        reference_pattern_path("nope.json")
