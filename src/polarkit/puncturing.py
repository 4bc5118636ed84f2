"""Puncturing patterns: representations, baseline generators, search-space
reduction, branch-role counting, the genotype-to-pattern projection, and the
pattern file format."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import CodeSpec, bit_reverse

PATTERN_SCHEMA = "polar-pattern/1"


class PatternFileError(ValueError):
    """Raised when a pattern file fails validation; names the offending field."""


@dataclass(frozen=True)
class PuncturingPattern:
    """Set of coded-bit positions withheld from transmission.

    ``indices`` are 1-based positions into the length-N codeword, stored
    sorted ascending.
    """

    n_mother: int
    indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in self.indices))
        object.__setattr__(self, "indices", idx)
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate puncturing indices: {idx}")
        if idx and not (1 <= idx[0] and idx[-1] <= self.n_mother):
            raise ValueError(
                f"puncturing indices must lie in [1, {self.n_mother}], got {idx}")
        if len(idx) >= self.n_mother:
            raise ValueError("cannot puncture every coded bit")

    @property
    def n_p(self) -> int:
        return len(self.indices)

    @property
    def n_transmitted(self) -> int:
        return self.n_mother - self.n_p

    def zero_based(self) -> np.ndarray:
        return np.array(self.indices, dtype=np.int64) - 1


def qup_pattern(spec: CodeSpec, n_p: int) -> PuncturingPattern:
    """Quasi-uniform puncturing: bit-reversed images of the first n_p integers."""
    check_np(spec, n_p)
    idx = {bit_reverse(i, spec.m) + 1 for i in range(n_p)}
    return PuncturingPattern(spec.n_mother, tuple(idx))


def rqup_pattern(spec: CodeSpec, n_p: int) -> PuncturingPattern:
    """Reversal variant: bit-reversed images of the last n_p integers."""
    check_np(spec, n_p)
    n = spec.n_mother
    idx = {bit_reverse(i, spec.m) + 1 for i in range(n - n_p, n)}
    return PuncturingPattern(n, tuple(idx))


def check_np(spec: CodeSpec, n_p: int, dimension: float = np.inf) -> None:
    """Require 1 <= n_p <= N - K, so that the N - n_p transmitted bits carry
    the K information bits (a code of rate at most 1), and n_p <= ``dimension``
    for a search over that many candidate bits.  Since K >= 1, a pattern always
    keeps a coded bit."""
    high = min(spec.n_mother - spec.k_info, dimension)
    if not 1 <= n_p <= high:
        raise ValueError(f"n_p={n_p} must lie in [1, {high}]")


def candidate_bits(spec: CodeSpec, reduced: bool = True) -> np.ndarray:
    """The 1-based coded bits a search may puncture, one per genotype column.

    The reduced space holds the odd bits 1, 3, ..., N-3: on AWGN channels the
    even bits and bit N-1 can be avoided for puncturing.  The full space is
    bits 1..N.
    """
    n = spec.n_mother
    return np.arange(1, n - 2, 2) if reduced else np.arange(1, n + 1)


def branch_role_counts(spec: CodeSpec) -> list[tuple[int, int]]:
    """Per coded bit, how often its branch acts as the upper versus the lower
    arm of a butterfly across the m encoding layers.

    Entry i describes coded bit i+1.  The lower count equals the popcount of
    the 0-based bit index; upper + lower = m for every bit.
    """
    out = []
    for i in range(spec.n_mother):
        lower = bin(i).count("1")
        out.append((spec.m - lower, lower))
    return out


def vector_to_pattern(candidate, n_p: int, spec: CodeSpec,
                      reduced: bool = True) -> PuncturingPattern:
    """Project a real-valued candidate vector onto a puncturing pattern.

    The n_p largest entries win (ties broken toward the lower column); column
    j stands for ``candidate_bits(spec, reduced)[j]``.  n_p must pass
    ``check_np`` over the D candidate bits.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    if candidate.ndim != 1:
        raise ValueError("candidate must be a 1-D vector")
    bits = candidate_bits(spec, reduced)
    if candidate.size != bits.size:
        raise ValueError(
            f"candidate length {candidate.size} does not match D={bits.size} "
            f"({'reduced' if reduced else 'full'} space, N={spec.n_mother})")
    check_np(spec, n_p, bits.size)
    cols = np.argsort(-candidate, kind="stable")[:n_p]
    return PuncturingPattern(spec.n_mother, tuple(int(b) for b in bits[cols]))


# ---------------------------------------------------------------------------
# Pattern file format: JSON document with a versioned schema field.
# ---------------------------------------------------------------------------

def save_pattern(path, pattern: PuncturingPattern, info_set=None,
                 provenance=None) -> None:
    """Write a pattern file.  Round-trips bit-exactly through load_pattern."""
    doc = {
        "schema": PATTERN_SCHEMA,
        "n_mother": pattern.n_mother,
        "n_p": pattern.n_p,
        "indices": list(pattern.indices),
    }
    if info_set is not None:
        doc["info_set"] = sorted(int(i) for i in info_set)
    doc["provenance"] = provenance if provenance is not None else ""
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_pattern(path):
    """Read a pattern file.

    Returns
    -------
    (pattern, info_set, provenance)
        ``info_set`` is a sorted tuple of 1-based input positions or None.
    """
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PatternFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PatternFileError("top level must be an object")
    if doc.get("schema") != PATTERN_SCHEMA:
        raise PatternFileError(
            f"field 'schema': expected {PATTERN_SCHEMA!r}, got {doc.get('schema')!r}")

    n = _require_int(doc, "n_mother")
    if n < 2 or (n & (n - 1)) != 0:
        raise PatternFileError(f"field 'n_mother': {n} is not a power of 2 >= 2")
    n_p = _require_int(doc, "n_p")
    indices = _require_positions(doc, "indices", n)
    if len(indices) != n_p:
        raise PatternFileError(
            f"field 'n_p': declared {n_p} but 'indices' has {len(indices)} entries")

    info_set = None
    if doc.get("info_set") is not None:
        info_set = tuple(sorted(_require_positions(doc, "info_set", n)))

    pattern = PuncturingPattern(n, tuple(indices))
    return pattern, info_set, doc.get("provenance", "")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(doc: dict, key: str) -> int:
    value = doc.get(key)
    if not _is_int(value):
        raise PatternFileError(f"field {key!r}: must be an integer, got {value!r}")
    return value


def _require_positions(doc: dict, key: str, n: int) -> list[int]:
    """Field ``key`` as a list of distinct 1-based positions in [1, n]."""
    value = doc.get(key)
    if not isinstance(value, list) or not all(_is_int(i) for i in value):
        raise PatternFileError(f"field {key!r}: must be a list of integers")
    bad = [i for i in value if not 1 <= i <= n]
    if bad:
        raise PatternFileError(f"field {key!r}: values {bad} outside [1, {n}]")
    if len(set(value)) != len(value):
        raise PatternFileError(f"field {key!r}: duplicate entries")
    return value


def reference_pattern_path(name: str) -> Path:
    """Path of a pattern file shipped with the package (see polarkit/data)."""
    root = Path(__file__).parent / "data"
    path = root / name
    if not path.exists():
        available = sorted(p.name for p in root.glob("*.json"))
        raise FileNotFoundError(f"no shipped pattern {name!r}; available: {available}")
    return path
