"""Channel models and seeded Monte Carlo simulation.

Runs are deterministic: trials are processed in fixed chunks of
``CHUNK_TRIALS`` (the last one short) and every chunk draws from a
counter-based Philox generator keyed by (seed, chunk index), so results are
bit-identical regardless of how many workers execute the chunks.
The draw order is the contract: a chunk of B frames draws its (B, K - crc)
random payload bits, then its (B, N) channel draw (AWGN noise or BEC
uniforms), the latter in consecutive blocks of frames that continue one
stream.  A chunk then works in the decoders' (N, B) tree layout, whose
row i is codeword bit perm[i] (perm the bit-reversal): it encodes there
without a permutation, gathers each block of the channel draw into it,
forms the LLRs there on cache-sized row slabs (``core.slabs``), and
decodes to (K, B) information bits there, so nothing passes through
natural order.

Runs that agree on a chunk's draw key (``SimulationRun.draw_key``, with the
chunk's index and size) draw the same payload and channel for it, as a
search's candidates under one evaluation seed do.  ``run_batch`` hands such
runs to one task, which makes the draws once and then encodes, forms LLRs,
decodes and compares for each run in turn; every LLR comes from the same
ops in the same order as in a task of its own, so reports do not change.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .construction import (bec_bhattacharyya, ga_llr_means, noise_variance,
                           select_information_set)
from .core import CodeSpec, polar_transform, slabs
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
    binary erasure channel (parameterized by the erasure probability).

    The parameter a kind does not use is None, never NaN: a NaN is unequal to
    itself, so a model holding one would compare and hash unequal to its own
    pickled copy, and a run planned from it would get another draw key.
    """

    kind: str
    ebn0_db: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind == "awgn_bpsk":
            if self.ebn0_db is None or math.isnan(self.ebn0_db):
                raise ValueError(f"Eb/N0 {self.ebn0_db} dB gives no finite positive "
                                 "noise variance")
        elif self.kind == "bec":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
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
    bits, perm = x.reshape(-1, n).T, np.arange(n)
    draw = _channel_draw(model, effective_rate, rng, bits.shape[::-1], perm)
    llr = _llrs(bits, model, pattern, effective_rate, draw, perm)
    return llr.T.reshape(x.shape)


def _channel_draw(model, effective_rate, rng, shape, perm):
    """The (B, N) channel draw of ``shape`` gathered into the (N, B) layout
    whose row i is codeword bit perm[i] (perm an involution): the AWGN noise,
    the BEC's erasures (True where erased), or None for the noiseless
    channel, which draws nothing.

    The draw is made in consecutive blocks of frames, the rows of
    ``core.slabs(shape)``, one generator call each; the calls continue one
    stream, so the draw is the one a single (B, N) call makes.  Each block
    is gathered into the layout while it is in cache.
    """
    if model.kind == "bec":
        draw = np.empty(shape[::-1], dtype=bool)
    else:
        sigma2 = noise_variance(model.ebn0_db, effective_rate)
        if not sigma2:
            return None
        draw, scale = np.empty(shape[::-1]), math.sqrt(sigma2)
    for frames in slabs(shape):
        size = (frames.stop - frames.start, shape[1])
        if model.kind == "bec":
            draw[:, frames] = (rng.random(size) < model.epsilon).T[perm]
        else:
            draw[:, frames] = rng.normal(0.0, scale, size=size).T[perm]
    return draw


def _llrs(x, model, pattern, effective_rate, draw, perm, in_place=True):
    """Channel LLRs of the (N, B) codeword bits ``x`` in ``_channel_draw``'s
    layout, from its ``draw``.  The arithmetic runs slab by slab
    (``core.slabs``) in the formula's order, so it is bit-identical to it;
    AWGN LLRs are formed in ``draw`` itself unless ``in_place`` is False."""
    sigma2 = (noise_variance(model.ebn0_db, effective_rate)
              if model.kind == "awgn_bpsk" else 0.0)
    llr = draw if sigma2 and in_place else np.empty(x.shape)
    for rows in slabs(x.shape):
        out = llr[rows]
        signs = 1.0 - np.multiply(x[rows], 2.0, dtype=np.float64)
        if sigma2:  # noise + signs is signs + noise: addition commutes
            np.add(draw[rows], signs, out=out)
            out *= 2.0
            out /= sigma2
        else:
            np.multiply(signs, HARD_LLR, out=out)
            if model.kind == "bec":
                out[draw[rows]] = 0.0
    llr[perm[pattern.zero_based()]] = 0.0
    return llr


def _draw(run, chunk_index, chunk_trials, perm):
    """A chunk's draws, in the contract order: the (B, K) words sent (random
    payload bits, then their CRC) and the ``_channel_draw`` in the tree
    layout ``perm``."""
    rng = np.random.Generator(np.random.Philox(key=[run.seed, chunk_index]))
    word = rng.integers(0, 2, size=(chunk_trials, run.info_idx.size - run.decoder.crc_len),
                        dtype=np.int8)
    if run.decoder.crc_len:
        word = np.concatenate([word, crc16_remainder_bits(word)], axis=1)
    return word, _channel_draw(run.model, run.effective_rate, rng,
                               (chunk_trials, run.spec.n_mother), perm)


def _simulate_chunk(task) -> list[tuple[np.ndarray, int]]:
    """Per-information-bit and block errors of one chunk for each run of the
    task ``(runs, chunk index, chunk trials)``, whose runs share one draw key
    (``SimulationRun.draw_key``).  The chunk's draws are made once; each run
    then encodes, forms its LLRs, decodes and compares in the tree layout
    (see the module docstring).  The last run forms its LLRs in place in the
    channel draw, so a one-run task allocates what a chunk of its own always
    did; the earlier runs of a task each hold one more (N, B) float array
    while they decode."""
    runs, chunk_index, chunk_trials = task
    results = []
    for i, run in enumerate(runs):
        dec = run.decoder.build(run.spec, run.info_idx + 1)
        if not i:
            word, draw = _draw(run, chunk_index, chunk_trials, dec._perm)
        x = np.zeros((run.spec.n_mother, chunk_trials), dtype=np.int8)
        x[run.info_idx] = word.T
        llr = _llrs(polar_transform(x), run.model, run.pattern, run.effective_rate,
                    draw, dec._perm, in_place=i == len(runs) - 1)
        diff = dec._decode_tree(llr)[0] != word.T
        results.append((diff.sum(axis=1, dtype=np.int64), int(diff.any(axis=0).sum())))
    return results


@dataclass(frozen=True, eq=False)
class SimulationRun:
    """One validated Monte Carlo run: the chunk jobs it splits into and the
    tally of their results into a ``BerReport``.

    ``simulate`` runs one of these; a differential-evolution generation runs
    many through ``run_batch`` on one pool.  Runs of equal ``draw_key``, such
    as a generation's candidates under its one evaluation seed, draw the same
    payload and channel for each chunk, and ``run_batch`` makes those draws
    once for all of them; the report is the one the run gets alone.  Build it
    with ``plan``.
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
        """``_simulate_chunk``'s one-run task ((run,), chunk index, chunk
        trials) for each chunk of ``CHUNK_TRIALS``, in chunk order."""
        sizes = [CHUNK_TRIALS] * (self.trials // CHUNK_TRIALS)
        if self.trials % CHUNK_TRIALS:
            sizes.append(self.trials % CHUNK_TRIALS)
        return [((self,), ci, sz) for ci, sz in enumerate(sizes)]

    def draw_key(self) -> tuple:
        """What a chunk's draws depend on besides its index and trials: runs
        with equal keys draw the same payload and channel for such a chunk."""
        return (self.seed, self.spec.n_mother, self.info_idx.size,
                self.decoder.crc_len, self.model, self.effective_rate)

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


class WorkerPool:
    """A ``multiprocessing`` pool of ``workers`` processes, closed (its
    processes terminated) on leaving the ``with`` block.  ``run_batch``
    splits its work by ``workers``."""

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = multiprocessing.Pool(processes=workers)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self._pool.terminate()

    def map(self, fn, tasks: list) -> list:
        """``fn`` of each task, in order; the processes take one task at a time."""
        return self._pool.map(fn, tasks, chunksize=1)


def worker_pool(workers: int):
    """Context manager giving a ``WorkerPool`` of ``workers`` processes, or
    ``None`` when ``workers`` is 1 (chunks then run in-process)."""
    if workers > 1:
        return WorkerPool(workers)
    return contextlib.nullcontext()


def run_batch(runs: list[SimulationRun], pool: WorkerPool | None = None) -> list[BerReport]:
    """Reports of ``runs``, in order.

    The chunks of all runs are grouped by draw key
    (``SimulationRun.draw_key``, chunk index and chunk trials), so the runs
    of a group share their draws, as a search's candidates under one
    evaluation seed do.  Each group is split
    into ``pool.workers`` tasks, or one per run if it has fewer runs, its runs
    dealt out in turn; each task makes the group's draws once for all its
    runs.  All tasks go to ``pool`` in one map, one task at a time, so the
    workers stay busy across group boundaries; with no pool each group is one
    task, run in-process.  A task of several runs holds one extra (N, B)
    float array while it decodes (an in-process ``compare`` at N=1024 pays
    this); a run alone in its group, such as every ``evaluate`` point,
    allocates what it did as a task of its own.  Each
    run's LLRs come from the same draws and ops whatever task holds it, so
    the reports do not depend on the pool.
    """
    groups: dict[tuple, list[int]] = {}
    for r, run in enumerate(runs):
        for _, ci, sz in run.jobs():
            groups.setdefault((run.draw_key(), ci, sz), []).append(r)
    processes = 1 if pool is None else pool.workers
    members, tasks = [], []
    for (_, ci, sz), rows in groups.items():
        parts = min(processes, len(rows))
        for part in (rows[i::parts] for i in range(parts)):
            members.append(part)
            tasks.append((tuple(runs[r] for r in part), ci, sz))
    if pool is None:
        results = [_simulate_chunk(task) for task in tasks]
    else:
        results = pool.map(_simulate_chunk, tasks)
    chunks: list[list] = [[] for _ in runs]
    for part, result in zip(members, results):
        for r, chunk in zip(part, result):
            chunks[r].append(chunk)
    return [run.tally(run_chunks) for run, run_chunks in zip(runs, chunks)]


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
