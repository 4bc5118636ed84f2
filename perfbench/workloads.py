"""The benchmark's workloads: set-up, warm-up, one timed operation, and the
check of that operation's output.

Each workload turns the benchmark's ``--seed`` into the inputs it hands to
polarkit (a DE master seed or a Monte Carlo ``--seed``); polarkit only ever
sees those generated inputs.  README.md says why each workload exists.

Run as a script, ``python3 perfbench/workloads.py <workload> <seed> <dir>``
performs one workload's set-up in a fresh interpreter; ``run.py`` times such
runs to measure set-up time.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINS = Path(__file__).resolve().parent / "pins.json"
CSV_HEADER = ["ebn0_db", "blocks", "block_errors", "bit_errors", "bler", "ber", "seed"]


def import_polarkit() -> None:
    """Import polarkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "polarkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no polarkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarkit
    if Path(polarkit.__file__).resolve().parent != SRC / "polarkit":
        raise SystemExit(f"perfbench: imported polarkit from {polarkit.__file__}, "
                         f"not from {SRC}")


def derived_seed(workload: str, seed: int) -> int:
    """The seed polarkit receives, generated from the benchmark seed."""
    return random.Random(f"{workload}/{seed}").randrange(2 ** 31)


@dataclass
class OpResult:
    """What one timed operation did, and what must repeat exactly."""

    evals: int
    frames: int
    points: int
    fingerprint: tuple
    problems: list


class Search:
    """``de_optimize`` at the README shape, N=64, K=32, n_p=24."""

    name = "search-n64"
    N, K, NP = 64, 32, 24
    POP, GENERATIONS, EBN0, TRIALS, WORKERS = 20, 2, 4.0, 16384, 2

    def __init__(self, seed: int, workdir: Path):
        self.master_seed = derived_seed(self.name, seed)
        self.first = None

    def inputs(self) -> dict:
        return {"n": self.N, "k": self.K, "n_p": self.NP, "pop_size": self.POP,
                "generations": self.GENERATIONS, "ebn0_db": self.EBN0,
                "trials": self.TRIALS, "workers": self.WORKERS,
                "master_seed": self.master_seed,
                "candidates_per_op": self.POP * (self.GENERATIONS + 1)}

    def setup(self) -> None:
        from polarkit import CodeSpec, DeConfig
        self.spec = CodeSpec(self.N, self.K)
        self.config = DeConfig(
            pop_size=self.POP, ebn0_db=self.EBN0, trials=self.TRIALS,
            workers=self.WORKERS, confirm_trials=None,
            max_iters=self.GENERATIONS, stall_generations=self.GENERATIONS + 1,
            master_seed=self.master_seed)

    def warm_up(self) -> None:
        from polarkit import ChannelModel, objective, qup_pattern
        objective(self.spec, qup_pattern(self.spec, self.NP),
                  ChannelModel.awgn(self.EBN0), trials=self.TRIALS,
                  seed=self.master_seed, workers=self.WORKERS)

    def op(self, index: int) -> OpResult:
        from polarkit import evolution
        result = evolution.de_optimize(self.spec, self.NP, self.config)
        candidates = self.POP * (result.generations + 1)
        fingerprint = (result.pattern.indices, result.info_set,
                       tuple(result.history), result.evaluations)
        problems = []
        idx = result.pattern.indices
        if len(set(idx)) != self.NP or any(i % 2 == 0 or i > self.N - 3 for i in idx):
            problems.append(f"pattern is not {self.NP} distinct odd bits <= N-3: {idx}")
        info = result.info_set
        if len(set(info)) != self.K or not all(1 <= i <= self.N for i in info):
            problems.append(f"info set is not {self.K} positions in [1, N]: {info}")
        if result.generations != self.GENERATIONS:
            problems.append(f"ran {result.generations} generations, "
                            f"not {self.GENERATIONS}")
        h = result.history
        if len(h) != result.generations + 1 or any(b > a for a, b in zip(h, h[1:])):
            problems.append(f"history is not non-increasing per generation: {h}")
        if not 1 <= result.evaluations <= candidates:
            problems.append(f"{result.evaluations} Monte Carlo runs for "
                            f"{candidates} candidates")
        if self.first is None:
            self.first = fingerprint
        elif fingerprint != self.first:
            problems.append("identical searches gave different results")
        return OpResult(evals=candidates, frames=result.evaluations * self.TRIALS,
                        points=0, fingerprint=fingerprint, problems=problems)


class Evaluate:
    """``polarkit evaluate`` over one SNR point per operation, cycling through
    ``POINTS``; every point stops after a fixed number of frames."""

    def __init__(self, seed: int, workdir: Path):
        self.mc_seed = derived_seed(self.name, seed)
        self.pattern = workdir / "pattern.json"
        self.out = workdir / "curve.csv"
        self.rows: dict[float, list] = {}
        self.pins = json.loads(PINS.read_text()).get(self.name, {}).get(str(seed))

    def inputs(self) -> dict:
        return {"ebn0_db_points": list(self.POINTS), "frames_per_point": self.FRAMES,
                "evaluate_args": self.EVAL_ARGS, "mc_seed": self.mc_seed,
                "pinned_seed": self.pins is not None}

    def setup(self) -> None:
        _cli(self.SETUP_ARGS + ["--out", str(self.pattern)])
        self.k = _check_setup(self)

    def _evaluate(self, snr: float, extra: list[str]) -> list:
        _cli(["evaluate", "--pattern", str(self.pattern), "--ebn0", repr(snr),
              "--seed", str(self.mc_seed), "--out", str(self.out)]
             + self.EVAL_ARGS + extra)
        with open(self.out, newline="") as handle:
            rows = list(csv.reader(handle))
        if rows[0] != CSV_HEADER:
            raise ValueError(f"CSV header {rows[0]}")
        return rows[1:]

    def warm_up(self) -> None:
        self._evaluate(self.POINTS[0], ["--trials", str(self.WARM_UP_FRAMES)])

    def op(self, index: int) -> OpResult:
        snr = self.POINTS[index % len(self.POINTS)]
        rows = self._evaluate(snr, [])
        problems = self._check(snr, rows)
        blocks = sum(int(r[1]) for r in rows)
        return OpResult(evals=len(rows), frames=blocks, points=len(rows),
                        fingerprint=tuple(map(tuple, rows)), problems=problems)

    def _check(self, snr: float, rows: list) -> list:
        if len(rows) != 1:
            return [f"{len(rows)} CSV rows for one SNR point"]
        ebn0, blocks, errs, bits, bler, ber, seed = rows[0]
        blocks, errs, bits = int(blocks), int(errs), int(bits)
        problems = []
        if float(ebn0) != snr or int(seed) != self.mc_seed:
            problems.append(f"row is for ebn0 {ebn0} seed {seed}")
        if blocks != self.FRAMES:
            problems.append(f"{blocks} blocks, expected {self.FRAMES}")
        if not (0 <= errs <= blocks and errs <= bits <= blocks * self.k):
            problems.append(f"inconsistent counts: {blocks} {errs} {bits}")
        if float(bler) != errs / blocks or float(ber) != bits / (blocks * self.k):
            problems.append(f"bler/ber {bler}/{ber} disagree with the counts")
        if self.pins is not None and [blocks, errs, bits] != self.pins[repr(snr)]:
            problems.append(f"(blocks, block_errors, bit_errors) = "
                            f"{(blocks, errs, bits)}, pinned {self.pins[repr(snr)]}")
        first = self.rows.setdefault(snr, rows[0])
        if rows[0] != first:
            problems.append(f"repeated point {snr} gave {rows[0]}, first {first}")
        return problems


class EvaluateSC(Evaluate):
    """Long-code SC sweep on a QUP pattern built in set-up."""

    name = "evaluate-sc-n1024"
    POINTS = (1.5, 2.0, 2.5)
    # Default budget (100000) and early stop (200 block errors): at these
    # points BLER > 0.1, so each point stops after exactly one increment.
    FRAMES = 20000
    WARM_UP_FRAMES = 2048
    SETUP_ARGS = ["pattern", "--method", "qup", "--n", "1024", "--k", "512",
                  "--np", "224", "--ebn0", "2"]
    EVAL_ARGS = ["--decoder", "sc", "--workers", "1"]
    N, NP = 1024, 224


class EvaluateSCL(Evaluate):
    """CRC-aided SCL on the shipped N=128 pattern."""

    name = "evaluate-scl-n128"
    POINTS = (1.5, 2.0, 2.5)
    FRAMES = 3000  # below one 20000-frame increment, so the budget stops it
    WARM_UP_FRAMES = 256
    SETUP_ARGS = ["pattern", "--method", "file", "--in",
                  str(SRC / "polarkit" / "data" / "de_n128_k64_np28.json")]
    EVAL_ARGS = ["--decoder", "scl", "--list-size", "8", "--crc", "16",
                 "--workers", "1", "--trials", str(FRAMES)]
    N, NP = 128, 28


WORKLOADS = {w.name: w for w in (Search, EvaluateSC, EvaluateSCL)}


def _cli(argv: list[str]) -> None:
    from polarkit import cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"polarkit {' '.join(argv)} exited with {code}")


def _check_setup(workload: Evaluate) -> int:
    """Validate the set-up pattern file; return its information-set size."""
    from polarkit import load_pattern
    pattern, info_set, _ = load_pattern(workload.pattern)
    if pattern.n_mother != workload.N or pattern.n_p != workload.NP or not info_set:
        raise ValueError(f"set-up wrote a pattern with N={pattern.n_mother}, "
                         f"n_p={pattern.n_p}, info set {info_set}")
    return len(info_set)


if __name__ == "__main__":
    import_polarkit()
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[name](seed, workdir).setup()
