"""Differential evolution over puncturing genotypes.

Candidate vectors are real-valued; only the relative order of their entries
matters, since a candidate is projected onto a puncturing pattern by taking
the columns of its n_p largest entries.  Every projected pattern gets its
information set re-selected with the Gaussian approximation and is scored by
the Monte Carlo sum of information-bit error rates.  rand/1/bin mutation and
crossover with greedy selection drive the population.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass

import numpy as np

from .construction import design_noise_variance
from .core import CodeSpec
from .montecarlo import (ChannelModel, SimulationRun, WorkerPool, derive_seed,
                         matched_information_set, run_batch)
from .puncturing import (PuncturingPattern, candidate_bits, check_np,
                         vector_to_pattern)

# a generation whose relative improvement of the best objective is below this
# counts toward the stall
_MIN_IMPROVEMENT = 1e-3


@dataclass(frozen=True)
class DeConfig:
    """Search parameters.

    ``scale`` is the mutation factor F, ``crossover`` the rate C_r.  The run
    stops after ``max_iters`` generations or once the relative improvement of
    the best objective stays below ``_MIN_IMPROVEMENT`` (0.1%) for
    ``stall_generations`` consecutive generations.  When ``fresh_incumbents``
    is set, incumbents are re-evaluated under each generation's evaluation
    seed instead of reusing cached values; ``in_place`` switches from
    synchronous generation updates to row-by-row replacement.

    ``seed_policy`` controls common random numbers: 'per-generation' derives a
    fresh evaluation seed for every generation, while 'fixed' evaluates every
    pattern in the whole run under the generation-0 seed, which freezes the
    noisy objective into a deterministic function of the pattern (useful for
    comparisons against an exhaustive search at matched seed and trials).

    ``workers`` > 1 opens one pool of that many processes for the whole
    search, confirmation run included.  Each batch of evaluations (a whole
    generation, or one row with ``in_place``) sends the Monte Carlo chunks of
    all its candidates to the pool together; the information sets are
    selected in this process.  The candidates share the generation's seed,
    and ``run_batch`` deals them to the workers in equal contiguous shares,
    each of which draws each chunk's payload and channel once (see
    ``montecarlo.run_batch`` for the shares and how a chunk is streamed).
    Results do not depend on ``workers``.
    ``confirm_trials`` is the trial count of a final re-evaluation of the
    winner under a separate seed, or None to skip it.  ``master_seed`` is an
    integer in [0, 2^63), the range that the Philox key of the search's own
    draws holds exactly.
    """

    pop_size: int
    scale: float = 0.6
    crossover: float = 0.8
    max_iters: int = 50
    stall_generations: int = 3
    reduced_space: bool = True
    ebn0_db: float = 6.0
    trials: int = 20000
    master_seed: int = 0
    in_place: bool = False
    fresh_incumbents: bool = False
    confirm_trials: int | None = 1_000_000
    workers: int = 1
    seed_policy: str = "per-generation"

    def __post_init__(self):
        if self.pop_size < 4:
            raise ValueError("pop_size must be >= 4 (mutation draws 3 distinct rows)")
        if not 0.0 <= self.crossover <= 1.0:
            raise ValueError(f"crossover must lie in [0, 1], got {self.crossover}")
        if not 0.0 < self.scale < np.inf:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")
        if self.max_iters < 1 or self.trials < 1 or self.stall_generations < 1:
            raise ValueError("max_iters, trials and stall_generations must be >= 1")
        if self.seed_policy not in ("per-generation", "fixed"):
            raise ValueError("seed_policy must be 'per-generation' or 'fixed'")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if (not isinstance(self.master_seed, (int, np.integer))
                or not 0 <= self.master_seed < 2 ** 63):
            raise ValueError(f"master_seed must be an integer in [0, 2^63), "
                             f"got {self.master_seed!r}")
        if self.confirm_trials is not None and self.confirm_trials < 1:
            raise ValueError(f"confirm_trials must be None or >= 1, "
                             f"got {self.confirm_trials}")


@dataclass
class Population:
    """Current genotypes with their cached evaluations, row-aligned."""

    genes: np.ndarray
    objectives: np.ndarray
    patterns: list[PuncturingPattern]
    info_sets: list[tuple[int, ...]]


@dataclass
class DeResult:
    pattern: PuncturingPattern
    info_set: tuple[int, ...]
    history: list[float]
    generations: int
    evaluations: int
    best_objective: float
    confirmed_objective: float | None = None


def make_trial(genes: np.ndarray, i: int, config: DeConfig,
               rng: np.random.Generator) -> np.ndarray:
    """rand/1/bin trial vector for row i.

    Three distinct rows r0, r1, r2 (all different from i) are drawn; gene j
    becomes z[j, r0] + F (z[j, r1] - z[j, r2]) when rand <= C_r or j is the
    forced coordinate j_rand, otherwise it is copied from row i.  Mutant genes
    are deliberately not clamped to [0, 1]: projection only uses rank order.
    """
    pop_size, dim = genes.shape
    if pop_size < 4:
        raise ValueError("population must have at least 4 rows")
    others = np.delete(np.arange(pop_size), i)
    r0, r1, r2 = rng.choice(others, size=3, replace=False)
    j_rand = int(rng.integers(dim))
    mutate = rng.random(dim) <= config.crossover
    mutate[j_rand] = True
    mutant = genes[r0] + config.scale * (genes[r1] - genes[r2])
    return np.where(mutate, mutant, genes[i])


class _Evaluator:
    """The one place a gene row becomes a scored pattern, with caching keyed
    by (pattern, seed).

    The constructor checks every input that scoring depends on, so a search
    builds it before it opens a pool: n_p must pass ``check_np`` over the
    ``dimension`` candidate bits of the search space, and the design Eb/N0
    must give a finite positive noise variance at the design rate
    K/(N - n_p), as the GA construction needs.  ``pool`` is a one-worker
    ``WorkerPool`` (score in this process) until the search sets it to its
    open pool.  Distinct genotypes projecting onto the same pattern share one
    Monte Carlo run per evaluation seed.
    """

    def __init__(self, spec: CodeSpec, n_p: int, config: DeConfig):
        self.dimension = candidate_bits(spec, config.reduced_space).size
        check_np(spec, n_p, self.dimension)
        design_noise_variance(config.ebn0_db, spec.k_info / (spec.n_mother - n_p))
        self.spec, self.n_p, self.config = spec, n_p, config
        self.model = ChannelModel.awgn(config.ebn0_db)
        self.pool = WorkerPool(1)
        self.cache: dict = {}
        self.evaluations = 0

    def score(self, genes, seed: int) -> list[tuple]:
        """(pattern, information set, objective) of each gene row under
        ``seed``.  Each row is projected with ``vector_to_pattern``; this
        process selects the information set of every uncached pattern, then
        the Monte Carlo chunks of all of them run as one batch on the pool."""
        patterns = [vector_to_pattern(row, self.n_p, self.spec,
                                      reduced=self.config.reduced_space)
                    for row in genes]
        keys = [(pattern.indices, seed) for pattern in patterns]
        todo = {key: pattern for key, pattern in zip(keys, patterns)
                if key not in self.cache}
        infos = [matched_information_set(self.spec, pattern, self.model)
                 for pattern in todo.values()]
        runs = [SimulationRun.plan(self.spec, pattern, info, self.model,
                                   trials=self.config.trials, seed=seed)
                for pattern, info in zip(todo.values(), infos)]
        for key, info, report in zip(todo, infos, run_batch(runs, self.pool)):
            self.cache[key] = (info, report.objective)
        self.evaluations += len(todo)
        return [(pattern, *self.cache[key]) for pattern, key in zip(patterns, keys)]


def evaluation_seed(master_seed: int, generation: int) -> int:
    """Seed used for objective evaluations in the given generation."""
    return derive_seed(master_seed, "evaluation", generation)


def _generation_seed(config: DeConfig, generation: int) -> int:
    if config.seed_policy == "fixed":
        generation = 0
    return evaluation_seed(config.master_seed, generation)


def init_population(spec: CodeSpec, n_p: int, config: DeConfig,
                    rng: np.random.Generator | None = None,
                    evaluator: _Evaluator | None = None) -> Population:
    """Population of pop_size x D genes i.i.d. uniform on [0, 1], with every
    row scored by ``_Evaluator.score`` under the generation-0 seed.  Without
    an ``evaluator`` one is built here, which checks n_p and the design
    Eb/N0, and the rows are scored in this process, whatever
    ``config.workers`` is."""
    if evaluator is None:
        evaluator = _Evaluator(spec, n_p, config)
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=[config.master_seed, 0]))
    genes = rng.random((config.pop_size, evaluator.dimension))
    scored = evaluator.score(genes, _generation_seed(config, 0))
    patterns, info_sets, values = zip(*scored)
    return Population(genes=genes, objectives=np.array(values),
                      patterns=list(patterns), info_sets=list(info_sets))


def de_optimize(spec: CodeSpec, n_p: int, config: DeConfig,
                log_path=None) -> DeResult:
    """Search for the puncturing pattern (and matched information set)
    minimizing the summed information-bit BER at the configured Eb/N0.

    Returns the best pattern, its information set, and the best-objective
    history (one entry for the initial population plus one per generation).
    With default settings the history is non-increasing and the whole run is
    reproducible from ``config.master_seed`` alone, independent of
    ``config.workers``.  With ``config.workers`` > 1 one pool serves the whole
    search and the confirmation run.

    With ``log_path`` the run log gets one JSON line per generation, 0
    included: ``generation``, ``best_objective`` and ``best_pattern``.  The
    file is opened once generation 0 has been scored.

    n_p and the design Eb/N0 are checked by building the ``_Evaluator``
    before the pool opens, so bad input raises ValueError with no pool made
    and no log written.  Rows are scored only in ``_Evaluator.score``.
    """
    evaluator = _Evaluator(spec, n_p, config)
    rng = np.random.Generator(np.random.Philox(key=[config.master_seed, 0]))
    rows = list(range(config.pop_size))
    # in_place: each replacement is visible to the next row's trial vector
    batches = [[i] for i in rows] if config.in_place else [rows]
    with contextlib.ExitStack() as stack:
        evaluator.pool = stack.enter_context(WorkerPool(config.workers))
        pop = init_population(spec, n_p, config, rng=rng, evaluator=evaluator)
        log = stack.enter_context(open(log_path, "w")) if log_path else None
        history, stall = [], 0
        for generation in range(config.max_iters + 1):
            if generation:
                seed = _generation_seed(config, generation)
                for batch in batches:
                    _select(pop, batch, evaluator, rng, seed)
            best_idx = int(np.argmin(pop.objectives))
            best = float(pop.objectives[best_idx])
            if history:
                prev = history[-1]
                improvement = (prev - best) / prev if prev > 0 else 0.0
                stall = stall + 1 if improvement < _MIN_IMPROVEMENT else 0
            history.append(best)
            if log is not None:
                record = {"generation": generation, "best_objective": best,
                          "best_pattern": list(pop.patterns[best_idx].indices)}
                log.write(json.dumps(record) + "\n")
            if stall >= config.stall_generations:
                break
        result = DeResult(pattern=pop.patterns[best_idx],
                          info_set=pop.info_sets[best_idx], history=history,
                          generations=generation, evaluations=evaluator.evaluations,
                          best_objective=best)
        if config.confirm_trials is not None:
            run = SimulationRun.plan(spec, result.pattern, result.info_set,
                                     evaluator.model, trials=config.confirm_trials,
                                     seed=derive_seed(config.master_seed,
                                                      "confirmation"))
            result.confirmed_objective = run_batch([run], evaluator.pool)[0].objective
    return result


def _select(pop: Population, rows: list[int], evaluator: _Evaluator,
            rng: np.random.Generator, seed: int) -> None:
    """Greedy selection of each row against its rand/1/bin trial vector.

    The rows' trial vectors are drawn in row order, then scored as one batch
    by ``_Evaluator.score`` together with, under ``fresh_incumbents``, the
    incumbent rows (which project onto their cached patterns).  Rows are
    compared independently, so replacing a row here equals staging every
    replacement to the end of the batch.
    """
    config = evaluator.config
    trials = [make_trial(pop.genes, i, config, rng) for i in rows]
    incumbents = [pop.genes[i] for i in rows] if config.fresh_incumbents else []
    scored = evaluator.score(trials + incumbents, seed)
    for i, (_, info, value) in zip(rows, scored[len(rows):]):
        pop.info_sets[i] = info
        pop.objectives[i] = value
    for i, trial, (pattern, info, value) in zip(rows, trials, scored):
        if value < pop.objectives[i]:
            pop.genes[i] = trial
            pop.patterns[i] = pattern
            pop.info_sets[i] = info
            pop.objectives[i] = value
