"""Channel models and seeded Monte Carlo simulation.

Runs are deterministic: trials are processed in fixed chunks of
``CHUNK_TRIALS`` (the last one short) and every chunk draws from a
counter-based Philox generator keyed by (seed, chunk index), so results are
bit-identical regardless of how many worker processes execute the chunks.
The draw order is the contract: a chunk of B frames draws its (B, K - crc)
random payload bits, then its (B, N) channel draw (AWGN noise or BEC
uniforms), the latter in consecutive blocks of frames that continue one
stream.  A chunk then works in the decoders' (N, B) tree layout, whose
row i is codeword bit perm[i] (perm the bit-reversal), one block of
frames at a time, whose tree arrays hold at most ``BLOCK_ELEMS`` elements
(N x L x frames, L the largest list size of the chunk's runs) unless a
list size would cut it below ``MIN_BLOCK_FRAMES`` frames: it encodes the
block's words there without a permutation, gathers the block's channel
draw into it, forms the LLRs from the draw, which it only reads, on
cache-sized row slabs (``core.slabs``), and decodes to (K, frames)
information bits there, so nothing passes through natural order.  The
chunk holds its payload and CRC packed, eight bits a byte, and unpacks
each block's words as it streams them; the decoder consumes the block's
LLRs, writing each right child's LLRs over its parent's.  SC and SCL
decide each frame on its own, so the errors do not depend on the block
size, and a chunk holds its LLRs and tree arrays for one block, not for
all B frames.  A chunk of several blocks whose channel draws something
makes its channel draws one block ahead in one helper thread, in the same
order, while it decodes the block before; the draw releases the
interpreter lock, so it runs beside the decode.

Runs that agree on a chunk's draw key (``SimulationRun.draw_key``, with the
chunk's index and size) draw the same payload and channel for it, as a
search's candidates under one evaluation seed do.  ``run_batch`` deals a
batch to its pool's workers in equal contiguous shares of trials, splitting
at most one group per cut, and a share hands the runs of each group it
holds to one chunk job, which makes each draw once and then encodes, forms
LLRs, decodes and compares for each run in turn, block by block; every LLR
comes from the same ops in the same order as in a job of its own, so
reports do not change.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import multiprocessing
from dataclasses import dataclass, field

import numpy as np

from .construction import (bec_bhattacharyya, ga_llr_means, noise_variance,
                           select_information_set)
from .core import CodeSpec, polar_transform, slabs
from .decoders import DecoderConfig, crc16_remainder_bits
from .puncturing import PuncturingPattern

HARD_LLR = 1e4
CHUNK_TRIALS = 8192
# Tree elements (N x L x frames, L the largest list size of the chunk's runs)
# in one block of a chunk (see ``_simulate_chunk``): 8 MB of float64 LLRs,
# 1024 frames for SC at N=1024 and for L=8 at N=128.  An SC chunk at
# N <= 128 is one block.
BLOCK_ELEMS = 2 ** 20
# The fewest frames a list size cuts a block to; SC keeps BLOCK_ELEMS // N
# frames.  SCL makes a fixed number of numpy calls per leaf and block, so
# small blocks spread that overhead over few frames: a 1024-frame N=1024,
# L=8 chunk ran at 0.81 of its one-block speed in blocks of 128 frames, 0.95
# in blocks of 256 and 1.03 in blocks of 512 (BENCH_27.json's sweep).
MIN_BLOCK_FRAMES = 512
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

    The parameter a kind does not use must be None, never NaN or a value: a
    NaN is unequal to itself, so a model holding one would compare and hash
    unequal to its own pickled copy, and a model holding a value would differ
    from the same channel built without it.  Either way a run planned from
    it would get another draw key.
    """

    kind: str
    ebn0_db: float | None = None
    epsilon: float | None = None

    def __post_init__(self):
        if self.kind == "awgn_bpsk":
            if self.ebn0_db is None or math.isnan(self.ebn0_db):
                raise ValueError(f"Eb/N0 {self.ebn0_db} dB gives no finite positive "
                                 "noise variance")
            unused = ("epsilon", self.epsilon)
        elif self.kind == "bec":
            if self.epsilon is None or not 0.0 <= self.epsilon <= 1.0:
                raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
            unused = ("Eb/N0", self.ebn0_db)
        else:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if unused[1] is not None:
            raise ValueError(f"channel kind {self.kind!r} takes no {unused[0]}, "
                             f"got {unused[1]}")

    @classmethod
    def awgn(cls, ebn0_db: float) -> "ChannelModel":
        return cls(kind="awgn_bpsk", ebn0_db=float(ebn0_db))

    @classmethod
    def bec(cls, epsilon: float) -> "ChannelModel":
        return cls(kind="bec", epsilon=float(epsilon))


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


def _channel_draw(model, effective_rate, rng, shape, perm, out=None):
    """The (B, N) channel draw of ``shape`` gathered into the (N, B) layout
    whose row i is codeword bit perm[i] (perm an involution): the AWGN noise,
    the BEC's erasures (True where erased), or None for the noiseless
    channel, which draws nothing.  The draw is written into ``out``, an
    (N, B) array of ``_draw_dtype``, if one is given.

    The draw is made in consecutive slabs of frames, the rows of
    ``core.slabs(shape)``, one generator call each; the calls continue one
    stream, so the draw is the one a single (B, N) call makes.  Each slab
    is gathered into the layout while it is in cache.
    """
    dtype = _draw_dtype(model, effective_rate)
    if dtype is None:
        return None
    draw = np.empty(shape[::-1], dtype) if out is None else out
    scale = 0.0 if model.kind == "bec" else math.sqrt(
        noise_variance(model.ebn0_db, effective_rate))
    for frames in slabs(shape):
        size = (frames.stop - frames.start, shape[1])
        if model.kind == "bec":
            draw[:, frames] = (rng.random(size) < model.epsilon).T[perm]
        else:
            draw[:, frames] = rng.normal(0.0, scale, size=size).T[perm]
    return draw


def _draw_dtype(model, effective_rate):
    """The dtype of ``_channel_draw``'s draw: bool erasures on a BEC, float64
    noise on AWGN, or None for the noiseless channel."""
    if model.kind == "bec":
        return np.dtype(bool)
    return np.dtype(np.float64) if noise_variance(model.ebn0_db, effective_rate) else None


def _llrs(x, model, pattern, effective_rate, draw, perm, out=None):
    """Channel LLRs of the (N, B) codeword bits ``x`` in ``_channel_draw``'s
    layout, from its ``draw``, which is only read.  They are written into
    ``out``, an (N, B) float64 array, if one is given, else into a new
    array.  The arithmetic runs slab by slab (``core.slabs``), and each step
    is exact or rounds what the formula rounds, so it is bit-identical to
    it."""
    sigma2 = (noise_variance(model.ebn0_db, effective_rate)
              if model.kind == "awgn_bpsk" else 0.0)
    llr = np.empty(x.shape) if out is None else out
    for rows in slabs(x.shape):
        # The formula's bits: the signs -2x + 1 are exactly 1 - 2x, and with
        # y = signs + noise, y / (sigma2 / 2) is 2y / sigma2 because 2y and
        # sigma2 / 2 (sigma2 >= 2 / MAX_LLR_SCALE) are exact.
        slab = llr[rows]
        np.multiply(x[rows], -2.0, out=slab, dtype=np.float64)
        slab += 1.0
        if sigma2:
            slab += draw[rows]
            slab /= sigma2 / 2
        else:
            slab *= HARD_LLR
            if model.kind == "bec":
                slab[draw[rows]] = 0.0
    llr[perm[pattern.zero_based()]] = 0.0
    return llr


def _simulate_chunk(job) -> list[tuple[np.ndarray, int]]:
    """Per-information-bit and block errors of one chunk for each run of the
    chunk job ``(runs, chunk index, chunk trials)``, whose runs share one draw
    key (``SimulationRun.draw_key``).

    The chunk draws its payload (and CRC) once and holds it packed with
    ``np.packbits``, B x ceil(K / 8) bytes, then streams its frames in
    blocks of BLOCK_ELEMS // (N x L) frames, L the largest list size of its
    runs (a group can mix list sizes, as its draw key holds none), so that
    every path's tree arrays fit the budget; a list size cuts a block to no
    fewer than ``MIN_BLOCK_FRAMES`` frames, and SC keeps BLOCK_ELEMS // N.
    Each block unpacks its (K, frames) words sent and makes its
    ``_channel_draw``, continuing the chunk's one stream, and each run then
    encodes the block's words, forms its LLRs, decodes and counts its errors
    in the tree layout (see the module docstring).  Frames decode
    independently, so the counts do not depend on the block size.  Every
    run forms its LLRs in one float array of one block that the chunk
    allocates here, from the block's channel draw, which it only reads; the
    decoder overwrites them, and the next run forms its own.

    A chunk of several blocks whose channel draws something makes its
    channel draws in one helper thread, one block ahead of the decoding,
    into one buffer of one block that it allocates here.  Block b + 1's draw
    is submitted once the last run has formed its LLRs from block b's draw,
    so the helper makes it while this thread decodes that run and encodes
    block b + 1 for the first run; block 0's draw runs beside the CRC and
    block 0's first encode.  The helper alone calls the generator after the
    payload draw, block by block in stream order, so the draws are the ones
    of a chunk without it.  It runs only ``_channel_draw``, and it is
    joined, and its errors re-raised here, before the chunk returns.
    """
    runs, chunk_index, chunk_trials = job
    decs = [run.decoder.build(run.spec, run.info_idx + 1) for run in runs]
    first, perm = runs[0], decs[0]._perm
    n = first.spec.n_mother
    rng = np.random.Generator(np.random.Philox(key=[first.seed, chunk_index]))
    word = rng.integers(0, 2, size=(chunk_trials, first.info_idx.size - first.decoder.crc_len),
                        dtype=np.int8)
    list_size = max(run.decoder.list_size for run in runs)
    blocks = slabs((chunk_trials,), max(BLOCK_ELEMS // (n * list_size),
                                        min(MIN_BLOCK_FRAMES, BLOCK_ELEMS // n)))
    dtype = _draw_dtype(first.model, first.effective_rate)
    helped = len(blocks) > 1 and dtype is not None
    llr_buffer = np.empty(n * (blocks[0].stop - blocks[0].start))  # the largest block's
    with contextlib.ExitStack() as stack:
        if helped:
            # Imported here: a chunk of one block, and importing polarkit,
            # do not load concurrent.futures and the logging it imports.
            from concurrent.futures import ThreadPoolExecutor
            helper = stack.enter_context(ThreadPoolExecutor(1))
            draw_buffer = np.empty(llr_buffer.size, dtype)

        def draw(b):
            """Block b's channel draw, as a call that returns it once made."""
            frames = blocks[b].stop - blocks[b].start
            args = (first.model, first.effective_rate, rng, (frames, n), perm)
            if not helped:
                made = _channel_draw(*args)
                return lambda: made
            return helper.submit(_channel_draw, *args,
                                 draw_buffer[:n * frames].reshape(n, frames)).result

        pending = draw(0)
        if first.decoder.crc_len:
            word = np.concatenate([word, crc16_remainder_bits(word)], axis=1)
        k = word.shape[1]
        word = np.packbits(word, axis=1)  # (B, ceil(K / 8)) bytes
        errors = [np.zeros(k, dtype=np.int64) for _ in runs]
        blocks_wrong = [0] * len(runs)
        for b, frames in enumerate(blocks):
            sent = np.ascontiguousarray(
                np.unpackbits(word[frames], axis=1, count=k).T).view(np.int8)
            llr = llr_buffer[:n * sent.shape[1]].reshape(n, -1)
            for i, (run, dec) in enumerate(zip(runs, decs)):
                x = np.zeros((n, sent.shape[1]), dtype=np.int8)
                x[run.info_idx] = sent
                # The first run encodes while block b's draw may still run.
                _llrs(polar_transform(x), run.model, run.pattern, run.effective_rate,
                      pending(), perm, llr)
                del x  # the codeword bits are not held while the tree arrays grow
                if i == len(runs) - 1 and b + 1 < len(blocks):
                    pending = draw(b + 1)  # every run has read block b's draw
                diff = dec._decode_tree(llr)[0] != sent
                errors[i] += diff.sum(axis=1, dtype=np.int64)
                blocks_wrong[i] += int(diff.any(axis=0).sum())
            del sent, diff  # a block's arrays are not held into the next
    return list(zip(errors, blocks_wrong))


def _simulate_share(jobs: list[tuple]) -> list[list[tuple[np.ndarray, int]]]:
    """``_simulate_chunk`` of each chunk job of one ``run_batch`` share, in
    order."""
    return [_simulate_chunk(job) for job in jobs]


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
        noise variance included.  ``seed`` must be an integer in [0, 2^64),
        the range of derived seeds (``derive_seed``).  The information set is
        checked by building the run's decoder once (``DecoderConfig.build``)."""
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2 ** 64:
            raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
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
        """``_simulate_chunk``'s one-run job ((run,), chunk index, chunk
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
    """The ``workers`` processes that ``run_batch`` splits its work over: a
    ``multiprocessing`` pool, closed (its processes terminated) on leaving
    the ``with`` block, or for one worker this process itself."""

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        if workers > 1:
            self._pool = multiprocessing.Pool(processes=workers)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        if self.workers > 1:
            self._pool.terminate()

    def map(self, fn, tasks: list) -> list:
        """``fn`` of each task, in order; the processes take one task at a time."""
        if self.workers == 1:
            return [fn(task) for task in tasks]
        return self._pool.map(fn, tasks, chunksize=1)


def run_batch(runs: list[SimulationRun],
              pool: WorkerPool = WorkerPool(1)) -> list[BerReport]:
    """Reports of ``runs``, in order.

    The chunks of all runs are grouped by draw key
    (``SimulationRun.draw_key``, chunk index and chunk trials), so the runs of
    a group share their draws, as a search's candidates under one evaluation
    seed do.  The batch is dealt to the pool in ``pool.workers`` shares by
    McNaughton's wrap-around rule: the (group, run) items are laid end to
    end, each as long as its chunk's trials, the line is cut into
    ``pool.workers`` equal lengths, and each item goes to the share that
    holds its midpoint.  A share is one task: its part of each group it
    touches is one chunk job ((runs), chunk index, chunk trials), and it
    runs its jobs in order (``_simulate_share``), so each share makes a
    chunk's draws once for all its runs.  At most ``pool.workers`` - 1
    groups are split between shares, and each cut lies within half a chunk
    of an equal split.  On a one-worker pool, the default, the batch is one
    share, run in this process.
    A job streams its chunk in blocks of at most ``BLOCK_ELEMS`` tree
    elements, every list path counted (``_simulate_chunk``; for SC 1024
    frames at N=1024 and the whole chunk at N <= 128, for L=8 1024 frames at
    N=128 and ``MIN_BLOCK_FRAMES`` at N=1024), so its LLRs and tree arrays
    are sized by one block, not by the chunk: a job holds one LLR array and
    one channel draw of one block for all its runs.  ``pool.workers`` counts
    processes: a job of several blocks also makes its channel draws in one
    helper thread while it decodes, so even a share run in-process can keep
    two cores busy.  Each run's LLRs
    come from the same draws and ops whatever job holds it and however its
    chunk is blocked, so the reports do not depend on the pool.
    """
    groups: dict[tuple, list[int]] = {}
    for r, run in enumerate(runs):
        for _, ci, sz in run.jobs():
            groups.setdefault((run.draw_key(), ci, sz), []).append(r)
    total = sum(sz * len(rows) for (_, _, sz), rows in groups.items())
    jobs, line = [], 0  # (share, rows, chunk index, chunk trials), in line order
    for (_, ci, sz), rows in groups.items():
        for i, r in enumerate(rows):
            share = (2 * line + sz) * pool.workers // (2 * total)  # holds the midpoint
            line += sz
            if i == 0 or share != jobs[-1][0]:
                jobs.append((share, [], ci, sz))
            jobs[-1][1].append(r)
    tasks = [[(tuple(runs[r] for r in rows), ci, sz) for _, rows, ci, sz in part]
             for _, part in itertools.groupby(jobs, key=lambda job: job[0])]
    results = [chunk for share in pool.map(_simulate_share, tasks) for chunk in share]
    chunks: list[list] = [[] for _ in runs]
    for (_, rows, _, _), result in zip(jobs, results):
        for r, chunk in zip(rows, result):
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
    only on the arguments and ``seed``.  The chunks run on
    ``WorkerPool(min(workers, chunks))``, which rejects ``workers`` < 1: a
    run of several chunks with ``workers`` > 1 opens its own pool of one
    process per chunk, at most ``workers``, and closes it before returning;
    any other runs in this process.
    """
    run = SimulationRun.plan(spec, pattern, info_set, model, decoder=decoder,
                             trials=trials, seed=seed,
                             effective_rate=effective_rate)
    with WorkerPool(min(workers, len(run.jobs()))) as pool:
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
