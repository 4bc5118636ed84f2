"""Channel models and seeded Monte Carlo simulation.

Runs are deterministic: trials are processed in fixed chunks of
``CHUNK_TRIALS`` (the last one short) and every chunk draws from a
counter-based Philox generator keyed by (seed, chunk index), so results are
bit-identical regardless of how many workers execute the chunks.
The draw order is the contract: a chunk of B frames draws its (B, K - crc)
random payload bits, then its (B, N) channel draw (AWGN noise or BEC
uniforms).  A chunk then works in the decoders' (N, B) tree layout, whose
row i is codeword bit perm[i] (perm the bit-reversal): it encodes there
without a permutation, gathers the channel draw into it, and decodes to
(K, B) information bits there, so nothing passes through natural order.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .construction import (bec_bhattacharyya, ga_llr_means, noise_variance,
                           select_information_set)
from .core import CodeSpec, polar_transform
from .decoders import CRC16_LEN, SCDecoder, SCLDecoder, crc16_remainder_bits
from .puncturing import PuncturingPattern

HARD_LLR = 1e4
CHUNK_TRIALS = 8192
# Tags of the seed streams (see ``derive_seed``): a search's evaluations per
# generation, its final confirmation run, and a sweep's increments per point.
SEED_STREAMS = {"evaluation": 1, "confirmation": 2, "sweep": 3}


def derive_seed(base_seed: int, stream: str, *counters: int) -> int:
    """64-bit run seed of ``SeedSequence((base_seed, tag, *counters))``, tag
    the ``SEED_STREAMS`` entry of ``stream``."""
    ss = np.random.SeedSequence((base_seed, SEED_STREAMS[stream], *counters))
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class ChannelModel:
    """Memoryless channel: BPSK over AWGN (parameterized by Eb/N0 in dB) or a
    binary erasure channel (parameterized by the erasure probability)."""

    kind: str
    ebn0_db: float = math.nan
    epsilon: float = math.nan

    def __post_init__(self):
        if self.kind == "awgn_bpsk":
            if math.isnan(self.ebn0_db):  # nan is also the default: none given
                raise ValueError(f"Eb/N0 {self.ebn0_db} dB gives no finite positive "
                                 "noise variance")
        elif self.kind == "bec":
            if not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")

    @classmethod
    def awgn(cls, ebn0_db: float) -> "ChannelModel":
        return cls(kind="awgn_bpsk", ebn0_db=float(ebn0_db))

    @classmethod
    def bec(cls, epsilon: float) -> "ChannelModel":
        return cls(kind="bec", epsilon=float(epsilon))


@dataclass(frozen=True)
class DecoderConfig:
    """The decoder a simulation runs: a list decoder keeping ``list_size``
    paths, whose last ``crc_len`` information bits (0 or 16) carry a CRC.

    The default, one path and no CRC, is SC.  A list decoder with one path
    makes SC's decisions (Tal & Vardy), and a CRC has no other path to
    choose, so ``build`` runs SC's faster walk whenever ``list_size`` is 1,
    with the same output.
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
        one too small to carry the CRC is rejected here."""
        if self.list_size == 1:
            dec = SCDecoder(spec, info_set)
        else:
            dec = SCLDecoder(spec, info_set, self.list_size, self.crc_len)
        if self.crc_len >= dec.info_idx.size:
            raise ValueError("information set too small to carry the CRC")
        return dec


@dataclass(eq=False)
class BerReport:
    """Tallies of one simulation run.

    ``objective`` is the sum of per-bit error rates over the information set.
    Raw error counts are included so consumers can attach confidence bounds.
    """

    per_bit_ber: np.ndarray
    per_bit_errors: np.ndarray
    bler: float
    block_errors: int
    objective: float
    trials: int
    seed: int
    info_set: tuple[int, ...] = field(default=())


def channel_llrs(x, model: ChannelModel, pattern: PuncturingPattern,
                 effective_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Channel LLRs for codeword bits ``x`` (last axis = N), with punctured
    positions set to exactly 0.

    AWGN: BPSK maps bit b to 1-2b, noise variance is
    1/(2 * effective_rate * 10^(ebn0_db/10)), and LLR = 2y/sigma^2.  A +inf
    ebn0_db is the noiseless sentinel (saturated LLRs, no randomness).
    """
    x = np.asarray(x)
    n = x.shape[-1]
    llr = _llrs(x.reshape(-1, n).T, model, pattern, effective_rate, rng,
                np.arange(n))
    return llr.T.reshape(x.shape)


def _llrs(x, model, pattern, effective_rate, rng, perm):
    """Channel LLRs of the (N, B) codeword bits ``x`` whose row i is codeword
    bit perm[i] (perm an involution): the (B, N) channel draw is gathered
    into that layout."""
    shape = x.shape[::-1]
    sigma2 = (noise_variance(model.ebn0_db, effective_rate)
              if model.kind == "awgn_bpsk" else 0.0)
    if sigma2:  # in place, in the formula's order, so bit-identical to it
        llr = rng.normal(0.0, math.sqrt(sigma2), size=shape).T[perm]
        llr += 1.0 - np.multiply(x, 2.0, dtype=np.float64)
        llr *= 2.0
        llr /= sigma2
    else:
        llr = (1.0 - np.multiply(x, 2.0, dtype=np.float64)) * HARD_LLR
        if model.kind == "bec":
            llr[rng.random(shape).T[perm] < model.epsilon] = 0.0
    llr[perm[pattern.zero_based()]] = 0.0
    return llr


def _simulate_chunk(job) -> tuple[np.ndarray, int]:
    """Per-information-bit and block errors of one chunk of frames, built and
    decoded in the tree layout (see the module docstring)."""
    run, chunk_index, chunk_trials = job
    spec, info_idx, decoder = run.spec, run.info_idx, run.decoder
    rng = np.random.Generator(np.random.Philox(key=[run.seed, chunk_index]))
    word = rng.integers(0, 2, size=(chunk_trials, info_idx.size - decoder.crc_len),
                        dtype=np.int8)
    if decoder.crc_len:
        word = np.concatenate([word, crc16_remainder_bits(word)], axis=1)

    dec = decoder.build(spec, info_idx + 1)
    x = np.zeros((spec.n_mother, chunk_trials), dtype=np.int8)
    x[info_idx] = word.T
    llr = _llrs(polar_transform(x), run.model, run.pattern, run.effective_rate,
                rng, dec._perm)
    diff = dec._decode_tree(llr)[0] != word.T
    return diff.sum(axis=1, dtype=np.int64), int(diff.any(axis=0).sum())


@dataclass(frozen=True, eq=False)
class SimulationRun:
    """One validated Monte Carlo run: the chunk jobs it splits into and the
    tally of their results into a ``BerReport``.

    ``simulate`` runs one of these; a differential-evolution generation runs
    many through ``run_batch`` on one pool.  Build it with ``plan``.
    """

    spec: CodeSpec
    pattern: PuncturingPattern
    info_idx: np.ndarray
    model: ChannelModel
    decoder: DecoderConfig
    effective_rate: float
    trials: int
    seed: int

    @classmethod
    def plan(cls, spec: CodeSpec, pattern: PuncturingPattern, info_set,
             model: ChannelModel, decoder: DecoderConfig = DecoderConfig(),
             trials: int = 10000, seed: int = 0,
             effective_rate: float | None = None) -> "SimulationRun":
        """Validate ``simulate``'s arguments (``workers`` aside), the AWGN
        noise variance included.  The information set is checked by building
        the run's decoder once (``DecoderConfig.build``)."""
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if pattern.n_mother != spec.n_mother:
            raise ValueError(f"pattern is for N={pattern.n_mother}, "
                             f"code has N={spec.n_mother}")
        info_idx = decoder.build(spec, info_set).info_idx
        if effective_rate is None:
            effective_rate = spec.k_info / pattern.n_transmitted
        if model.kind == "awgn_bpsk":  # a point with no usable noise fails here
            noise_variance(model.ebn0_db, effective_rate)
        return cls(spec, pattern, info_idx, model, decoder, effective_rate,
                   trials, seed)

    def jobs(self) -> list[tuple]:
        """``_simulate_chunk``'s (run, chunk index, chunk trials) for each
        chunk of ``CHUNK_TRIALS``, in chunk order."""
        sizes = [CHUNK_TRIALS] * (self.trials // CHUNK_TRIALS)
        if self.trials % CHUNK_TRIALS:
            sizes.append(self.trials % CHUNK_TRIALS)
        return [(self, ci, sz) for ci, sz in enumerate(sizes)]

    def tally(self, results) -> BerReport:
        """Sum the chunk results of ``jobs()`` into the run's report."""
        per_info_errors = np.zeros(self.info_idx.size, dtype=np.int64)
        block_errors = 0
        for errs, blocks in results:
            per_info_errors += errs
            block_errors += blocks

        per_bit_errors = np.zeros(self.spec.n_mother, dtype=np.int64)
        per_bit_errors[self.info_idx] = per_info_errors
        per_bit_ber = per_bit_errors / self.trials
        return BerReport(
            per_bit_ber=per_bit_ber,
            per_bit_errors=per_bit_errors,
            bler=block_errors / self.trials,
            block_errors=block_errors,
            objective=float(per_bit_ber[self.info_idx].sum()),
            trials=self.trials,
            seed=self.seed,
            info_set=tuple(int(i) + 1 for i in self.info_idx),
        )


def worker_pool(workers: int):
    """Context manager giving a ``multiprocessing`` pool of ``workers``
    processes, or ``None`` when ``workers`` is 1 (chunks then run in-process)."""
    if workers > 1:
        return multiprocessing.Pool(processes=workers)
    return contextlib.nullcontext()


def run_batch(runs: list[SimulationRun], pool=None) -> list[BerReport]:
    """Reports of ``runs``, in order.

    The chunks of all runs go to ``pool`` in one map, one chunk per task, so
    the workers stay busy across run boundaries; with no pool they run
    in-process.  Each chunk draws from its own (seed, chunk index) generator,
    so the reports do not depend on the pool.
    """
    jobs = [run.jobs() for run in runs]
    flat = [job for run_jobs in jobs for job in run_jobs]
    if pool is None:
        results = [_simulate_chunk(job) for job in flat]
    else:
        results = pool.map(_simulate_chunk, flat, chunksize=1)
    reports, start = [], 0
    for run, run_jobs in zip(runs, jobs):
        reports.append(run.tally(results[start:start + len(run_jobs)]))
        start += len(run_jobs)
    return reports


def simulate(spec: CodeSpec, pattern: PuncturingPattern, info_set, model: ChannelModel,
             decoder: DecoderConfig = DecoderConfig(), trials: int = 10000,
             seed: int = 0, effective_rate: float | None = None,
             workers: int = 1) -> BerReport:
    """Monte Carlo estimate of per-bit BER, BLER, and the scalar objective.

    Each trial draws a uniform payload, encodes, passes the codeword through
    the channel with punctured LLRs zeroed, decodes, and tallies
    per-information-bit and block errors.  Given identical arguments the
    report is bit-for-bit reproducible, independent of ``workers``.

    Trials run in fixed chunks of ``CHUNK_TRIALS``, so the report depends
    only on the arguments and ``seed``.  With ``workers`` > 1 and more than
    one chunk, the call opens its own pool of that many processes and closes
    it before returning; otherwise the chunks run in this process.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    run = SimulationRun.plan(spec, pattern, info_set, model, decoder=decoder,
                             trials=trials, seed=seed,
                             effective_rate=effective_rate)
    with worker_pool(workers if trials > CHUNK_TRIALS else 1) as pool:
        return run_batch([run], pool)[0]


def matched_information_set(spec: CodeSpec, pattern: PuncturingPattern,
                            model: ChannelModel) -> tuple[int, ...]:
    """The K most reliable positions for ``pattern`` on ``model``: Gaussian
    approximation at the model's Eb/N0 and the punctured code's rate, or exact
    Bhattacharyya parameters on a BEC."""
    if model.kind == "bec":
        reliability = bec_bhattacharyya(spec, model.epsilon, pattern)
    else:
        reliability = ga_llr_means(spec, model.ebn0_db, pattern,
                                   spec.k_info / pattern.n_transmitted)
    return select_information_set(reliability, spec.k_info)


def objective(spec: CodeSpec, pattern: PuncturingPattern, model: ChannelModel,
              trials: int = 10000, seed: int = 0,
              workers: int = 1) -> tuple[tuple[int, ...], float]:
    """Re-select the information set for ``pattern`` and evaluate the summed
    information-bit BER under SC decoding, the search's objective.

    The information set is ``matched_information_set``'s; the value is
    ``simulate``'s Monte Carlo estimate of the objective for that pair.
    """
    info = matched_information_set(spec, pattern, model)
    report = simulate(spec, pattern, info, model, trials=trials, seed=seed,
                      workers=workers)
    return info, report.objective
