import dataclasses
import importlib
import importlib.util
import math
import pickle
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from polarkit import (BerReport, ChannelModel, CodeSpec, DecoderConfig, DeConfig,
                      PuncturingPattern, SCDecoder, SCLDecoder, bit_reversal_permutation,
                      channel_llrs, core, de_optimize, generator_matrix, load_pattern,
                      montecarlo, noise_variance, objective, qup_pattern,
                      reference_pattern_path, simulate)
from polarkit.construction import MAX_LLR_SCALE
from polarkit.decoders import crc16_remainder_bits
from polarkit.montecarlo import (CHUNK_TRIALS, SimulationRun, WorkerPool, _simulate_chunk,
                                 matched_information_set, run_batch)


def test_channel_model_validation():
    ChannelModel.awgn(2.0)
    ChannelModel.bec(0.4)
    with pytest.raises(ValueError, match="^Eb/N0 None dB gives no finite positive noise"):
        ChannelModel("awgn_bpsk")
    with pytest.raises(ValueError, match="^epsilon must lie in"):
        ChannelModel("bec")
    with pytest.raises(ValueError, match="^Eb/N0 nan dB gives no finite positive noise"):
        ChannelModel.awgn(math.nan)
    with pytest.raises(ValueError):
        ChannelModel.bec(1.5)
    with pytest.raises(ValueError):
        ChannelModel(kind="laplace", ebn0_db=0.0)
    # The unused parameter is rejected, so one channel has one model (and one
    # draw key), whichever way it was built.
    with pytest.raises(ValueError, match="^channel kind 'bec' takes no Eb/N0, got 5.0$"):
        ChannelModel("bec", ebn0_db=5.0, epsilon=0.3)
    with pytest.raises(ValueError, match="^channel kind 'awgn_bpsk' takes no epsilon, got 0.3$"):
        ChannelModel("awgn_bpsk", ebn0_db=2.0, epsilon=0.3)
    with pytest.raises(ValueError, match="takes no epsilon, got nan"):
        ChannelModel("awgn_bpsk", ebn0_db=2.0, epsilon=math.nan)
    assert ChannelModel("bec", epsilon=0.3) == ChannelModel.bec(0.3)
    assert ChannelModel("awgn_bpsk", ebn0_db=2.0) == ChannelModel.awgn(2.0)


@pytest.mark.parametrize("model", [ChannelModel.awgn(4.0), ChannelModel.bec(0.3),
                                   ChannelModel.awgn(math.inf)],
                         ids=["awgn", "bec", "noiseless"])
def test_channel_model_survives_a_pickle_round_trip(model):
    # A model that crossed a process boundary must keep its run's draw key,
    # or the run silently stops sharing draws with its generation.
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model and hash(copy) == hash(model)
    spec = CodeSpec(16, 8)
    pattern = qup_pattern(spec, 4)
    info = (8, 10, 11, 12, 13, 14, 15, 16)
    run = SimulationRun.plan(spec, pattern, info, model, trials=100, seed=4)
    for other in (SimulationRun.plan(spec, pattern, info, copy, trials=100, seed=4),
                  pickle.loads(pickle.dumps(run))):
        assert other.draw_key() == run.draw_key()
        assert hash(other.draw_key()) == hash(run.draw_key())


def test_decoder_config_validation():
    assert [f.name for f in dataclasses.fields(DecoderConfig)] == ["list_size", "crc_len"]
    DecoderConfig()
    DecoderConfig(list_size=8, crc_len=16)
    DecoderConfig(list_size=1, crc_len=16)
    for list_size in (0, -2):
        with pytest.raises(ValueError):
            DecoderConfig(list_size=list_size)
    with pytest.raises(ValueError):
        DecoderConfig(list_size=8, crc_len=8)


def test_noise_variance_at_0db_rate_half():
    assert noise_variance(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_channel_llrs_punctured_exact_zero():
    rng = np.random.default_rng(0)
    x = rng.integers(0, 2, size=(50, 8), dtype=np.int8)
    pattern = PuncturingPattern(8, (1, 5))
    llr = channel_llrs(x, ChannelModel.awgn(3.0), pattern, 0.75, rng)
    assert np.all(llr[:, [0, 4]] == 0.0)
    assert np.all(llr[:, [1, 2, 3, 5, 6, 7]] != 0.0)


def test_channel_llrs_noiseless_signs():
    rng = np.random.default_rng(1)
    x = rng.integers(0, 2, size=(20, 8), dtype=np.int8)
    pattern = PuncturingPattern(8, ())
    llr = channel_llrs(x, ChannelModel.awgn(math.inf), pattern, 0.5, rng)
    assert np.all(np.sign(llr) == (1 - 2 * x))


def test_channel_llrs_high_snr_sign_agreement():
    rng = np.random.default_rng(2)
    x = rng.integers(0, 2, size=(200, 16), dtype=np.int8)
    llr = channel_llrs(x, ChannelModel.awgn(25.0), PuncturingPattern(16, ()),
                       0.5, rng)
    assert np.all(np.sign(llr) == (1 - 2 * x))


def test_channel_llrs_bec():
    rng = np.random.default_rng(3)
    x = rng.integers(0, 2, size=(400, 8), dtype=np.int8)
    llr = channel_llrs(x, ChannelModel.bec(0.5), PuncturingPattern(8, (2,)),
                       0.5, rng)
    assert np.all(llr[:, 1] == 0.0)
    live = llr[:, [0, 2, 3, 4, 5, 6, 7]]
    erased_frac = (live == 0.0).mean()
    assert 0.4 < erased_frac < 0.6
    nonzero = live[live != 0.0]
    signs = (1 - 2 * x[:, [0, 2, 3, 4, 5, 6, 7]])[live != 0.0]
    assert np.all(np.sign(nonzero) == signs)


def test_simulate_deterministic_and_worker_independent():
    spec = CodeSpec(16, 8)
    pattern = qup_pattern(spec, 4)
    info = (8, 10, 11, 12, 13, 14, 15, 16)
    kwargs = dict(trials=20000, seed=123)
    # Three chunks of at most CHUNK_TRIALS, so workers=3 runs one chunk each.
    run = SimulationRun.plan(spec, pattern, info, ChannelModel.awgn(2.0), **kwargs)
    assert [(ci, sz) for _, ci, sz in run.jobs()] == [(0, 8192), (1, 8192), (2, 3616)]
    a = simulate(spec, pattern, info, ChannelModel.awgn(2.0), **kwargs)
    b = simulate(spec, pattern, info, ChannelModel.awgn(2.0), **kwargs)
    c = simulate(spec, pattern, info, ChannelModel.awgn(2.0), workers=3, **kwargs)
    for other in (b, c):
        assert np.array_equal(a.per_bit_errors, other.per_bit_errors)
        assert a.block_errors == other.block_errors
        assert a.objective == other.objective


@pytest.mark.parametrize("workers", [0, -3])
def test_simulate_rejects_non_positive_workers(workers):
    spec = CodeSpec(16, 8)
    with pytest.raises(ValueError, match="workers"):
        simulate(spec, qup_pattern(spec, 4), (8, 10, 11, 12, 13, 14, 15, 16),
                 ChannelModel.awgn(2.0), trials=100, workers=workers)


def test_simulate_opens_one_process_per_chunk_at_most(pools_made):
    # WorkerPool(min(workers, chunks)): one chunk runs in this process at any
    # workers, three chunks open three processes at workers=4, and the
    # reports equal those at workers=1.
    spec = CodeSpec(16, 8)
    args = (spec, qup_pattern(spec, 4), (8, 10, 11, 12, 13, 14, 15, 16),
            ChannelModel.awgn(2.0))
    for trials, workers, pools in [(CHUNK_TRIALS, 2, []), (2 * CHUNK_TRIALS + 7, 4, [3])]:
        pools_made.clear()
        got = simulate(*args, trials=trials, seed=31, workers=workers)
        assert pools_made == pools
        assert _fields(got) == _fields(simulate(*args, trials=trials, seed=31))


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5, 2.0, "7", None])
def test_plan_rejects_a_seed_outside_the_derived_range(pools_made, seed):
    # Derived seeds span [0, 2^64).  A float seed would draw the stream of
    # its integer part yet be reported as itself.
    spec = CodeSpec(16, 8)
    args = (spec, qup_pattern(spec, 4), (8, 10, 11, 12, 13, 14, 15, 16),
            ChannelModel.awgn(2.0))
    with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\^64\), got "):
        SimulationRun.plan(*args, seed=seed)
    with pytest.raises(ValueError, match="^seed must be"):
        simulate(*args, trials=3 * CHUNK_TRIALS, seed=seed, workers=2)
    assert pools_made == []
    for edge in (0, 2 ** 64 - 1, np.uint64(2 ** 64 - 1), np.int64(5)):
        assert SimulationRun.plan(*args, seed=edge).seed == edge


def test_simulate_report_invariants():
    spec = CodeSpec(16, 8)
    pattern = qup_pattern(spec, 4)
    info = (8, 10, 11, 12, 13, 14, 15, 16)
    rep = simulate(spec, pattern, info, ChannelModel.awgn(1.0), trials=20000, seed=5)
    assert isinstance(rep, BerReport)
    info_idx = np.asarray(info) - 1
    frozen_idx = np.setdiff1d(np.arange(16), info_idx)
    assert np.all(rep.per_bit_ber[frozen_idx] == 0.0)
    assert rep.objective == rep.per_bit_ber[info_idx].sum()
    assert rep.bler >= rep.per_bit_ber.max()
    assert rep.per_bit_errors.sum() <= rep.trials * len(info)
    assert rep.block_errors <= rep.trials
    assert rep.info_set == info


def test_simulate_noiseless_perfect():
    spec = CodeSpec(8, 4)
    rep = simulate(spec, PuncturingPattern(8, ()), (4, 6, 7, 8),
                   ChannelModel.awgn(math.inf), trials=2000, seed=0)
    assert rep.objective == 0.0
    assert rep.bler == 0.0


def test_simulate_validation():
    spec = CodeSpec(8, 4)
    with pytest.raises(ValueError):
        simulate(spec, PuncturingPattern(8, ()), (4, 6, 7, 8),
                 ChannelModel.awgn(1.0), trials=0)
    with pytest.raises(ValueError):
        simulate(spec, PuncturingPattern(8, ()), (), ChannelModel.awgn(1.0),
                 trials=10)
    with pytest.raises(ValueError):
        simulate(spec, PuncturingPattern(8, ()), (4, 4, 7, 8),
                 ChannelModel.awgn(1.0), trials=10)
    with pytest.raises(ValueError):
        simulate(spec, PuncturingPattern(16, ()), (4, 6, 7, 8),
                 ChannelModel.awgn(1.0), trials=10)
    for list_size in (1, 2):
        with pytest.raises(ValueError, match="too small to carry the CRC"):
            simulate(CodeSpec(32, 16), PuncturingPattern(32, ()), tuple(range(17, 33)),
                     ChannelModel.awgn(1.0),
                     decoder=DecoderConfig(list_size=list_size, crc_len=16), trials=10)


def test_simulate_scl_with_crc_runs():
    spec = CodeSpec(32, 20)
    pattern = qup_pattern(spec, 8)
    info = tuple(range(13, 33))
    rep = simulate(spec, pattern, info, ChannelModel.awgn(4.0),
                   decoder=DecoderConfig(list_size=4, crc_len=16),
                   trials=2000, seed=9)
    assert 0.0 <= rep.bler <= 1.0


def test_even_bit_puncturing_is_worse():
    spec = CodeSpec(8, 4)
    _, good = objective(spec, PuncturingPattern(8, (1, 5)),
                        ChannelModel.awgn(2.0), trials=100000, seed=3)
    _, bad = objective(spec, PuncturingPattern(8, (4, 8)),
                       ChannelModel.awgn(2.0), trials=100000, seed=3)
    assert good < bad


def test_objective_monotone_in_snr():
    spec = CodeSpec(32, 16)
    pattern = qup_pattern(spec, 8)
    _, at_0db = objective(spec, pattern, ChannelModel.awgn(0.0),
                          trials=100000, seed=5)
    _, at_4db = objective(spec, pattern, ChannelModel.awgn(4.0),
                          trials=100000, seed=5)
    assert at_4db < at_0db


def test_objective_returns_info_set():
    spec = CodeSpec(8, 4)
    info, value = objective(spec, PuncturingPattern(8, (1,)),
                            ChannelModel.awgn(2.0), trials=5000, seed=1)
    assert len(info) == 4
    assert all(1 <= i <= 8 for i in info)
    assert value >= 0.0


def test_objective_bec_model():
    spec = CodeSpec(8, 4)
    info, value = objective(spec, PuncturingPattern(8, (1,)),
                            ChannelModel.bec(0.2), trials=5000, seed=1)
    assert len(info) == 4
    assert 0.0 <= value <= 4.0


def test_objective_unpunctured_high_snr_near_zero():
    spec = CodeSpec(16, 8)
    _, value = objective(spec, PuncturingPattern(16, ()),
                         ChannelModel.awgn(8.0), trials=20000, seed=2)
    assert value < 1e-3


# ---------------------------------------------------------------------------
# An independent oracle for one Monte Carlo chunk.  It makes the same Philox
# draws in the same order as the simulator (payload, then the channel draw of
# shape (B, N)), but encodes with the dense generator matrix, writes the LLR
# formula out and decodes through the public ``decode`` methods, all in the
# natural (B, N) order.
# ---------------------------------------------------------------------------

def _oracle_chunk(job):
    run, chunk_index, chunk_trials = job
    spec, pattern, info_idx, model, decoder, eff_rate = (
        run.spec, run.pattern, run.info_idx, run.model, run.decoder,
        run.effective_rate)
    rng = np.random.Generator(np.random.Philox(key=[run.seed, chunk_index]))
    n = spec.n_mother
    data_len = info_idx.size - decoder.crc_len
    payload = rng.integers(0, 2, size=(chunk_trials, data_len), dtype=np.int8)
    word = payload
    if decoder.crc_len:
        word = np.concatenate([payload, crc16_remainder_bits(payload)], axis=1)
    u = np.zeros((chunk_trials, n), dtype=np.int8)
    u[:, info_idx] = word

    # A float64 product of 0/1 matrices is exact: every sum is an integer <= N.
    x = (u.astype(np.float64) @ generator_matrix(spec).astype(np.float64)) % 2
    signs = 1.0 - 2.0 * x
    if model.kind == "awgn_bpsk" and math.isinf(model.ebn0_db):
        llr = signs * 1e4
    elif model.kind == "awgn_bpsk":
        sigma2 = 1.0 / (2.0 * eff_rate * 10.0 ** (model.ebn0_db / 10.0))
        y = signs + rng.normal(0.0, math.sqrt(sigma2), size=(chunk_trials, n))
        llr = 2.0 * y / sigma2
    else:
        erased = rng.random((chunk_trials, n)) < model.epsilon
        llr = signs * 1e4
        llr[erased] = 0.0
    llr[:, pattern.zero_based()] = 0.0

    info_set = tuple(int(i) + 1 for i in info_idx)
    if decoder.list_size == 1 and not decoder.crc_len:
        u_hat = SCDecoder(spec, info_set).decode(llr)
    else:
        u_hat, _ = SCLDecoder(spec, info_set, list_size=decoder.list_size,
                              crc_len=decoder.crc_len).decode(llr)
    diff = u_hat[:, info_idx] != word
    return diff.sum(axis=0), int(diff.any(axis=1).sum())


_SC = DecoderConfig()
_CHUNK_CASES = [
    # (N, K, n_p, pattern, model, decoder, trials, chunk trials)
    (2, 1, 1, "qup", ChannelModel.awgn(1.0), _SC, 45, 16),
    (4, 2, 1, "random", ChannelModel.bec(0.3), _SC, 45, 16),
    (8, 4, 2, "qup", ChannelModel.awgn(math.inf), _SC, 45, 16),
    (16, 8, 5, "random", ChannelModel.awgn(1.0), _SC, 300, 128),
    (32, 24, 8, "qup", ChannelModel.awgn(4.0),
     DecoderConfig(list_size=4, crc_len=16), 300, 128),
    # one path with a CRC: the chunk walks SC, the oracle one-path SCL
    (32, 24, 8, "random", ChannelModel.awgn(2.0),
     DecoderConfig(list_size=1, crc_len=16), 300, 128),
    (64, 32, 24, "random", ChannelModel.awgn(1.0),
     DecoderConfig(list_size=4), 300, 128),
    (64, 32, 24, "qup", ChannelModel.bec(0.4),
     DecoderConfig(list_size=8, crc_len=16), 300, 128),
    (128, 64, 28, "random", ChannelModel.awgn(4.0),
     DecoderConfig(list_size=8, crc_len=16), 200, 96),
    (128, 64, 28, "qup", ChannelModel.awgn(1.0), _SC, 200, 96),
    (256, 128, 0, "qup", ChannelModel.awgn(1.0), _SC, 200, 96),
    (512, 256, 100, "random", ChannelModel.bec(0.3), _SC, 100, 48),
    (512, 256, 100, "qup", ChannelModel.awgn(math.inf), _SC, 100, 48),
    (1024, 512, 224, "qup", ChannelModel.awgn(1.0), _SC, 100, 48),
    (1024, 512, 224, "random", ChannelModel.awgn(4.0), _SC, 100, 48),
    # chunks spanning several channel-draw blocks of SLAB_ELEMS // N frames
    # (512 at N=64, 32 at N=1024), not a multiple of one
    (64, 32, 24, "qup", ChannelModel.awgn(2.0), _SC, 2700, 1300),
    (64, 32, 24, "random", ChannelModel.bec(0.35), _SC, 2700, 1300),
    (64, 32, 24, "random", ChannelModel.awgn(math.inf), _SC, 2700, 1300),
    (1024, 512, 224, "qup", ChannelModel.awgn(2.0), _SC, 250, 100),
    (1024, 512, 224, "qup", ChannelModel.bec(0.2), _SC, 250, 100),
    (1024, 512, 224, "random", ChannelModel.awgn(math.inf), _SC, 250, 100),
    # CRC-aided SCL at L=8 in blocks of BLOCK_ELEMS // (N x L) = 1024 frames:
    # each 1300-frame chunk decodes as 1024 + 276
    (128, 64, 28, "random", ChannelModel.awgn(2.0),
     DecoderConfig(list_size=8, crc_len=16), 2700, 1300),
]


# Every chunk draws a random payload; the ids keep their "-random" suffix so
# that they stay stable.
@pytest.mark.parametrize("case", _CHUNK_CASES, ids=lambda c: f"N{c[0]}-{c[3]}-"
                         f"{c[4].kind}{c[4].ebn0_db if c[4].kind != 'bec' else c[4].epsilon}-"
                         f"{'sc' if c[5].list_size == 1 else 'scl'}{c[5].list_size}"
                         f"crc{c[5].crc_len}-random")
def test_chunk_matches_independent_oracle(case):
    n, k, n_p, kind, model, decoder, trials, chunk = case
    spec = CodeSpec(n, k)
    rng = np.random.default_rng(n + n_p)
    if n_p == 0:
        pattern = PuncturingPattern(n, ())
    elif kind == "qup":
        pattern = qup_pattern(spec, n_p)
    else:
        pattern = PuncturingPattern(n, tuple(
            sorted(int(i) + 1 for i in rng.choice(n, n_p, replace=False))))
    info = tuple(sorted(int(i) + 1 for i in rng.choice(n, k, replace=False)))
    run = SimulationRun.plan(spec, pattern, info, model, decoder=decoder,
                             trials=trials, seed=n * 7 + 1)
    # The case's own small chunks, keyed (seed, chunk index) as run.jobs()
    # keys its CHUNK_TRIALS ones; the last chunk is a short one.
    jobs = [(run, ci, min(chunk, trials - start))
            for ci, start in enumerate(range(0, trials, chunk))]
    assert jobs[-1][-1] < chunk
    results = [_simulate_chunk(((run,), ci, sz))[0] for run, ci, sz in jobs]
    for job, (errs, blocks) in zip(jobs, results):
        want_errs, want_blocks = _oracle_chunk(job)
        assert errs.dtype == np.int64
        assert np.array_equal(errs, want_errs)
        assert blocks == want_blocks
    # The channel is noisy enough somewhere that the comparison is not empty.
    if model.kind == "bec" or not math.isinf(model.ebn0_db):
        assert sum(blocks for _, blocks in results) > 0


def _random_pattern(spec, n_p, rng):
    return PuncturingPattern(spec.n_mother, tuple(
        sorted(int(i) + 1 for i in rng.choice(spec.n_mother, n_p, replace=False))))


def _random_info(spec, rng):
    return tuple(sorted(int(i) + 1 for i in rng.choice(spec.n_mother, spec.k_info,
                                                        replace=False)))


_SHARED_CASES = [
    # (N, K, n_p, model, decoders of the task's runs, frames per block or None
    # for BLOCK_ELEMS's): the runs differ in pattern and information set at
    # one n_p, so they share every draw
    (64, 32, 24, ChannelModel.awgn(1.0), [_SC] * 3, None),
    (64, 32, 24, ChannelModel.awgn(math.inf), [_SC] * 3, None),
    (64, 32, 24, ChannelModel.bec(0.3), [_SC] * 3, None),
    (256, 128, 40, ChannelModel.awgn(1.5), [_SC] * 2, None),
    # chunks of several channel-draw slabs (32 frames at N=1024)
    (1024, 512, 224, ChannelModel.awgn(2.0), [_SC] * 2, None),
    # one path with a CRC (the chunk walks SC) next to CRC-aided SCL
    (32, 24, 8, ChannelModel.awgn(2.0),
     [DecoderConfig(list_size=1, crc_len=16), DecoderConfig(list_size=4, crc_len=16),
      DecoderConfig(list_size=1, crc_len=16)], None),
    # 128-frame chunks in blocks of 40, 40, 40 and 8 frames, drawn ahead by
    # the helper thread into the chunk's one draw buffer
    (64, 32, 24, ChannelModel.awgn(1.5), [_SC] * 3, 40),
]


@pytest.mark.parametrize("case", _SHARED_CASES, ids=lambda c: f"N{c[0]}-{c[3].kind}"
                         f"{c[3].ebn0_db if c[3].kind != 'bec' else c[3].epsilon}-"
                         f"{len(c[4])}runs")
def test_shared_draw_chunk_matches_independent_oracle(monkeypatch, threads_started, case):
    # One task carries several runs under one draw key; each run's errors
    # are the oracle's for that run alone, so no run sees another's LLRs.
    n, k, n_p, model, decoders, block_frames = case
    if block_frames is not None:
        monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", n * block_frames)
    spec = CodeSpec(n, k)
    rng = np.random.default_rng(n + n_p + len(decoders))
    patterns = [qup_pattern(spec, n_p)] + [_random_pattern(spec, n_p, rng)
                                            for _ in decoders[1:]]
    runs = [SimulationRun.plan(spec, pattern, _random_info(spec, rng), model,
                               decoder=decoder, trials=300, seed=n * 11 + 3)
            for pattern, decoder in zip(patterns, decoders)]
    assert len({run.draw_key() for run in runs}) == 1
    assert len({run.pattern.indices for run in runs}) == len(runs)
    blocks = 0
    for ci, sz in [(0, 128), (1, 128), (2, 44)]:
        results = _simulate_chunk((tuple(runs), ci, sz))
        assert len(results) == len(runs)
        for run, (errs, run_blocks) in zip(runs, results):
            want_errs, want_blocks = _oracle_chunk((run, ci, sz))
            assert errs.dtype == np.int64
            assert np.array_equal(errs, want_errs)
            assert run_blocks == want_blocks
            blocks += run_blocks
    if model.kind == "bec" or not math.isinf(model.ebn0_db):
        assert blocks > 0
    # in blocks of 40 frames every chunk, the 44-frame one too, draws ahead
    assert len(threads_started) == (0 if block_frames is None else 3)


def _fields(report):
    return (report.per_bit_ber.tobytes(), report.per_bit_errors.tobytes(), report.bler,
            report.block_errors, report.objective, report.trials, report.seed,
            report.info_set)


_SCL4 = DecoderConfig(list_size=4, crc_len=16)
# (n_p, model, [(pattern, decoder, trials)]), pattern 0 the QUP one: runs of
# three and two chunks (the last short) and of one short chunk, two n_p,
# three channels and SC next to CRC-aided SCL
_BATCH = [(4, ChannelModel.awgn(1.0), [(0, _SC, 20000), (1, _SC, 20000), (2, _SC, 5000)]),
          (8, ChannelModel.awgn(1.0), [(0, _SC, 20000), (1, _SCL4, 5000), (2, _SCL4, 5000)]),
          (4, ChannelModel.awgn(math.inf), [(0, _SC, 5000), (1, _SC, 5000)]),
          (8, ChannelModel.bec(0.3), [(0, _SC, 5000), (1, _SC, 5000), (0, _SCL4, 5000)]),
          (8, ChannelModel.awgn(2.0), [(0, _SC, 10000), (1, _SC, 10000), (2, _SCL4, 10000)])]


def test_batch_matches_runs_alone_with_and_without_pool(pools_made):
    # At two seeds, the batch groups and splits the runs' chunks, yet every
    # report equals its run's alone, in input order.  A one-worker pool runs
    # them in this process.
    spec = CodeSpec(32, 20)
    rng = np.random.default_rng(17)
    runs = []
    for seed in (5, 6):
        for n_p, model, members in _BATCH:
            patterns = [qup_pattern(spec, n_p), _random_pattern(spec, n_p, rng),
                        _random_pattern(spec, n_p, rng)]
            runs += [SimulationRun.plan(spec, patterns[p], _random_info(spec, rng), model,
                                        decoder, trials=trials, seed=seed)
                     for p, decoder, trials in members]
    chunks = [(run.draw_key(), ci, sz) for run in runs for _, ci, sz in run.jobs()]
    assert len(set(chunks)) == 30 and len(chunks) == 46
    alone = [_fields(run_batch([run])[0]) for run in runs]
    assert [_fields(r) for r in run_batch(runs)] == alone
    with WorkerPool(1) as pool:
        assert [_fields(r) for r in run_batch(runs, pool)] == alone
    assert pools_made == []
    for workers in (2, 3):
        with WorkerPool(workers) as pool:
            assert [_fields(r) for r in run_batch(runs, pool)] == alone
    assert pools_made == [2, 3]


@pytest.fixture
def shares_sent(monkeypatch):
    """The chunk jobs of each share that ``WorkerPool.map`` receives, as
    (draw key, chunk index, chunk trials, runs)."""
    shares = []
    real_map = montecarlo.WorkerPool.map

    def recording_map(self, fn, tasks):
        shares.extend([(runs[0].draw_key(), ci, sz, len(runs)) for runs, ci, sz in share]
                      for share in tasks)
        return real_map(self, fn, tasks)

    monkeypatch.setattr(montecarlo.WorkerPool, "map", recording_map)
    return shares


@pytest.mark.parametrize("trials, chunks", [(2 * CHUNK_TRIALS, (8192, 8192)),
                                            (10000, (8192, 1808)),
                                            (20000, (8192, 8192, 3616))],
                         ids=["16384", "10000", "20000"])
@pytest.mark.parametrize("members", [2, 5], ids=["2runs", "5runs"])
def test_batch_is_dealt_in_equal_contiguous_shares(shares_sent, trials, chunks, members):
    # A generation's runs share a seed, so each chunk index is one group.
    # Two workers get one share each: each share holds each group it touches
    # once, as one job, at most one group is split, and each share's trials
    # lie within half a chunk of half the batch.
    spec = CodeSpec(16, 8)
    rng = np.random.default_rng(members)
    runs = [SimulationRun.plan(spec, _random_pattern(spec, 4, rng), _random_info(spec, rng),
                               ChannelModel.awgn(2.0), trials=trials, seed=3)
            for _ in range(members)]
    assert tuple(sz for _, _, sz in runs[0].jobs()) == chunks
    alone = [_fields(run_batch([run])[0]) for run in runs]
    shares_sent.clear()
    with WorkerPool(2) as pool:
        assert [_fields(r) for r in run_batch(runs, pool)] == alone

    assert len(shares_sent) == 2
    groups = [[(key, ci, sz) for key, ci, sz, _ in share] for share in shares_sent]
    assert all(len(set(share)) == len(share) for share in groups)
    assert sum(g in groups[1] for g in groups[0]) <= 1
    dealt = [sum(sz * n for _, _, sz, n in share) for share in shares_sent]
    assert sum(dealt) == members * trials
    assert all(abs(d - members * trials / 2) <= max(chunks) / 2 for d in dealt)
    if chunks == (8192, 8192):
        # one chunk draw per share, not one per share and chunk
        key = runs[0].draw_key()
        assert shares_sent == [[(key, 0, 8192, members)], [(key, 1, 8192, members)]]


@pytest.mark.parametrize("workers", [0, -1])
def test_worker_pool_rejects_fewer_than_one_worker(pools_made, workers):
    with pytest.raises(ValueError, match=f"^workers must be >= 1, got {workers}$"):
        WorkerPool(workers)
    assert pools_made == []


def test_runs_sharing_a_seed_draw_each_chunk_once(monkeypatch):
    # One payload draw per (group, chunk), and one channel draw per block of
    # the chunk, continuing the chunk's stream: chunk 0 in blocks of 3000
    # frames, the last short, and the short chunk 1 in one block.
    spec = CodeSpec(16, 8)
    rng = np.random.default_rng(3)
    patterns = {_random_pattern(spec, 4, rng) for _ in range(40)}
    runs = [SimulationRun.plan(spec, pattern, _random_info(spec, rng),
                               ChannelModel.awgn(2.0), trials=CHUNK_TRIALS + 100, seed=9)
            for pattern in sorted(patterns, key=lambda p: p.indices)[:6]]
    assert len({run.pattern.indices for run in runs}) == 6
    draws = []
    real_generator, real_channel_draw = np.random.Generator, montecarlo._channel_draw

    class CountingGenerator:
        def __init__(self, bit_generator):
            self._rng = real_generator(bit_generator)

        def integers(self, *args, size, **kwargs):
            draws.append(("payload",) + size)
            return self._rng.integers(*args, size=size, **kwargs)

        def __getattr__(self, name):
            return getattr(self._rng, name)

    def counting_channel_draw(model, effective_rate, rng, shape, perm, out=None):
        draws.append(("channel",) + shape)
        return real_channel_draw(model, effective_rate, rng, shape, perm, out)

    monkeypatch.setattr(np.random, "Generator", CountingGenerator)
    monkeypatch.setattr(montecarlo, "_channel_draw", counting_channel_draw)
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", 16 * 3000)
    run_batch(runs)
    assert draws == [("payload", CHUNK_TRIALS, 8), ("channel", 3000, 16),
                     ("channel", 3000, 16), ("channel", CHUNK_TRIALS - 6000, 16),
                     ("payload", 100, 8), ("channel", 100, 16)]


# ---------------------------------------------------------------------------
# The draw pipeline: a chunk of several blocks whose channel draws something
# makes its channel draws one block ahead in one helper thread.
# ---------------------------------------------------------------------------

@pytest.fixture
def threads_started(monkeypatch):
    """Names of every ``threading.Thread`` started."""
    started = []
    real_start = threading.Thread.start

    def recording_start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", recording_start)
    return started


def _chunk_task(n, model, trials, decoder=DecoderConfig()):
    spec = CodeSpec(n, n // 2)
    pattern = qup_pattern(spec, n // 8)
    run = SimulationRun.plan(spec, pattern, tuple(range(n // 2 + 1, n + 1)), model,
                             decoder, trials=trials, seed=4)
    return run.jobs()[0]


def test_pipelined_chunk_joins_its_helper_thread(monkeypatch, threads_started):
    # Six blocks of 100 frames: one helper thread, gone when the chunk returns,
    # and the counts of the chunk as one block.
    task = _chunk_task(256, ChannelModel.awgn(2.0), 600)
    want = _simulate_chunk(task)
    assert threads_started == []
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", 256 * 100)
    before = threading.active_count()
    got = _simulate_chunk(task)
    assert threading.active_count() == before
    assert len(threads_started) == 1
    assert [(e.tolist(), b) for e, b in got] == [(e.tolist(), b) for e, b in want]


def test_decoder_error_in_a_pipelined_chunk_reaches_the_caller(monkeypatch, threads_started):
    # The decoder raises on the second block while the helper draws the third:
    # the helper is joined and the caller gets the decoder's own exception.
    boom = RuntimeError("second block")
    calls = []
    real_decode = SCDecoder._decode_tree

    def failing_decode(self, llr):
        calls.append(llr.shape)
        if len(calls) == 2:
            raise boom
        return real_decode(self, llr)

    monkeypatch.setattr(SCDecoder, "_decode_tree", failing_decode)
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", 256 * 100)
    before = threading.active_count()
    with pytest.raises(RuntimeError) as caught:
        _simulate_chunk(_chunk_task(256, ChannelModel.awgn(2.0), 600))
    assert caught.value is boom
    assert threading.active_count() == before
    assert len(threads_started) == 1 and calls == [(256, 100)] * 2


def test_next_block_is_drawn_after_every_run_has_read_the_draw(monkeypatch):
    # A chunk has one draw buffer: block b + 1's draw may start only once the
    # last run of block b has formed its LLRs from block b's draw, and it is
    # submitted then, so it runs beside that run's decode.
    events, lock = [], threading.Lock()
    real_llrs, real_channel_draw = montecarlo._llrs, montecarlo._channel_draw

    def recording_llrs(*args):
        llr = real_llrs(*args)
        with lock:
            events.append("llrs")
        return llr

    def recording_channel_draw(*args):
        with lock:
            events.append("draw")
        return real_channel_draw(*args)

    monkeypatch.setattr(montecarlo, "_llrs", recording_llrs)
    monkeypatch.setattr(montecarlo, "_channel_draw", recording_channel_draw)
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", 256 * 100)
    _simulate_chunk(_group_job(256, [_SC] * 3, 350))  # blocks of 100, 100, 100, 50
    assert events == ["draw"] + (["llrs"] * 3 + ["draw"]) * 3 + ["llrs"] * 3


@pytest.mark.parametrize("n, model, trials, block_frames", [
    (256, ChannelModel.awgn(2.0), 600, None),  # one block
    (256, ChannelModel.awgn(math.inf), 600, 100),  # six blocks, nothing drawn
    (64, ChannelModel.awgn(2.0), CHUNK_TRIALS, None),
    (128, ChannelModel.bec(0.3), CHUNK_TRIALS, None),
], ids=["one-block", "noiseless", "N64", "N128"])
def test_chunks_with_nothing_to_draw_ahead_start_no_thread(monkeypatch, threads_started,
                                                           n, model, trials, block_frames):
    if block_frames is not None:
        monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", n * block_frames)
    task = _chunk_task(n, model, trials)
    assert len(core.slabs((trials, n), montecarlo.BLOCK_ELEMS)) == (
        1 if block_frames is None else 6)
    _simulate_chunk(task)
    assert threads_started == []


# ---------------------------------------------------------------------------
# Block sizes: a block's tree arrays hold at most BLOCK_ELEMS elements counting
# every list path, N x L x frames, L the largest list size of the chunk's
# runs, and a list size cuts a block to no fewer than MIN_BLOCK_FRAMES frames.
# ---------------------------------------------------------------------------

@pytest.fixture
def blocks_decoded(monkeypatch):
    """(decoder class name, frames) of every block a chunk decodes."""
    decoded = []
    real_sc, real_scl = SCDecoder._decode_tree, SCLDecoder._decode_tree

    def sc_decode(self, llr):
        if llr.ndim == 2:  # not SCL's own (N, B, 1) call of SC's walk
            decoded.append(("SCDecoder", llr.shape[1]))
        return real_sc(self, llr)

    def scl_decode(self, llr):
        decoded.append(("SCLDecoder", llr.shape[1]))
        return real_scl(self, llr)

    monkeypatch.setattr(SCDecoder, "_decode_tree", sc_decode)
    monkeypatch.setattr(SCLDecoder, "_decode_tree", scl_decode)
    return decoded


def _group_job(n, decoders, trials):
    """A chunk job of one run per decoder, all under one draw key."""
    spec = CodeSpec(n, n // 2)
    pattern = qup_pattern(spec, n // 8)
    runs = tuple(SimulationRun.plan(spec, pattern, tuple(range(n // 2 + 1, n + 1)),
                                    ChannelModel.awgn(2.0), decoder, trials=trials, seed=6)
                 for decoder in decoders)
    assert len({run.draw_key() for run in runs}) == 1
    return runs, 0, trials


_SCL8 = DecoderConfig(list_size=8, crc_len=16)


@pytest.mark.parametrize("n, decoders, trials, frames", [
    (128, [_SCL8], 2500, [1024, 1024, 452]),
    # one path with a CRC walks SC, in the blocks of the group's L=4 run
    (128, [DecoderConfig(list_size=1, crc_len=16), DecoderConfig(list_size=4, crc_len=16)],
     2500, [2048, 452]),
    (128, [_SC], 2500, [2500]),
    (1024, [_SC], 2500, [1024, 1024, 452]),
    # BLOCK_ELEMS // (N x L) is 128 frames here; the floor raises it to 512
    (1024, [_SCL8], 600, [512, 88]),
], ids=["N128-L8", "N128-L1-L4", "N128-sc", "N1024-sc", "N1024-L8"])
def test_blocks_count_every_list_path(blocks_decoded, n, decoders, trials, frames):
    _simulate_chunk(_group_job(n, decoders, trials))
    kinds = ["SCDecoder" if d.list_size == 1 else "SCLDecoder" for d in decoders]
    assert blocks_decoded == [(kind, f) for f in frames for kind in kinds]


def test_scl_chunk_holds_one_block_of_every_path(monkeypatch):
    # In blocks of N x L x 512 elements, a 2048-frame N=128, L=8 chunk traces
    # about 1.7 times 8 B x BLOCK_ELEMS at its peak; in blocks that count N x
    # frames only, it is one block and traces about 5.7 times.
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", 128 * 8 * 512)
    pattern, info, _ = load_pattern(reference_pattern_path("de_n128_k64_np28.json"))
    run = SimulationRun.plan(CodeSpec(128, 64), pattern, info, ChannelModel.awgn(2.0),
                             _SCL8, trials=2048, seed=1)
    tracemalloc.start()
    try:
        (_, blocks), = _simulate_chunk(run.jobs()[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks > 0
    assert peak <= 3 * 8 * montecarlo.BLOCK_ELEMS


def test_group_of_several_blocks_holds_two_block_arrays_and_the_tree():
    # Two N=1024 SC runs over 3072 frames, three blocks of BLOCK_ELEMS: the
    # chunk holds its one LLR array and one draw buffer, and traces about 3.6
    # times 8 B x BLOCK_ELEMS at its peak with the tree's arrays and the
    # payload; with a ring of two draw buffers and a new LLR array for every
    # run but the last, it traced about 4.5 times.
    job = _group_job(1024, [_SC] * 2, 3072)
    assert len(core.slabs((3072, 1024), montecarlo.BLOCK_ELEMS)) == 3
    tracemalloc.start()
    try:
        _simulate_chunk(job)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * montecarlo.BLOCK_ELEMS


def test_sc_chunk_decodes_in_place_and_holds_its_payload_packed():
    # One N=1024 SC run over 3072 frames, three blocks of BLOCK_ELEMS with the
    # draw-ahead helper: the tree writes each right child's LLRs over its
    # parent's right half and the chunk holds its payload as packed bits, so
    # it traces about 3.16 times 8 B x BLOCK_ELEMS at its peak.  With a new
    # array for every right child and a byte per payload bit, it traced
    # about 3.51 times.
    spec = CodeSpec(1024, 512)
    pattern = qup_pattern(spec, 224)
    model = ChannelModel.awgn(2.0)
    run = SimulationRun.plan(spec, pattern, matched_information_set(spec, pattern, model),
                             model, trials=3072, seed=4)
    assert len(core.slabs((3072, 1024), montecarlo.BLOCK_ELEMS)) == 3
    tracemalloc.start()
    try:
        (_, blocks), = _simulate_chunk(run.jobs()[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks > 0
    assert peak <= 3.3 * 8 * montecarlo.BLOCK_ELEMS


def _load_tracer(monkeypatch):
    """The benchmark's ``perfbench/tracer.py``, loaded from the checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # for its dataclass
    spec.loader.exec_module(tracer)
    return tracer


def test_pipelined_chunk_calls_every_traced_name_on_the_calling_thread(monkeypatch,
                                                                       threads_started):
    # The benchmark's tracer keeps one span stack, which is not thread-safe:
    # the helper thread must call none of the functions it wraps.  They are
    # replaced as the tracer replaces them, by identity in every module it
    # names.
    tracer = _load_tracer(monkeypatch)
    callers = {}
    replace = {}
    for mod, attr in tracer.FUNCTIONS.values():
        fn = getattr(importlib.import_module(f"polarkit.{mod}"), attr)

        def wrapper(*args, _fn=fn, _name=attr, **kwargs):
            callers.setdefault(_name, set()).add(threading.get_ident())
            return _fn(*args, **kwargs)
        replace[id(fn)] = (fn, wrapper)
    for module in [importlib.import_module("polarkit")] + [
            importlib.import_module(f"polarkit.{m}") for m in tracer.MODULES]:
        for attr, value in list(vars(module).items()):
            hit = replace.get(id(value))
            if hit is not None and hit[0] is value:
                monkeypatch.setattr(module, attr, hit[1])
    monkeypatch.setattr(montecarlo, "BLOCK_ELEMS", 1024 * 100)
    _simulate_chunk(_chunk_task(1024, ChannelModel.awgn(2.0), 350,
                                DecoderConfig(list_size=1, crc_len=16)))
    assert len(threads_started) == 1
    assert {"f_node", "g_node", "bit_reversal_permutation",
            "crc16_remainder_bits"} <= callers.keys()
    assert all(threads == {threading.get_ident()} for threads in callers.values())


def test_one_chunk_generation_sends_a_task_to_every_process(monkeypatch):
    # Each generation's candidates share one chunk; it is split between the
    # two processes' shares at the midpoint of the batch, so neither idles.
    sent = []
    real_map = montecarlo.WorkerPool.map

    def recording_map(self, fn, tasks):
        sent.append([[(len(runs), ci, sz) for runs, ci, sz in share] for share in tasks])
        return real_map(self, fn, tasks)

    monkeypatch.setattr(montecarlo.WorkerPool, "map", recording_map)
    config = DeConfig(pop_size=6, max_iters=2, stall_generations=5, ebn0_db=3.0,
                      trials=800, confirm_trials=None, workers=2)
    result = de_optimize(CodeSpec(16, 8), 4, config)
    assert sent == [[[(3, 0, 800)], [(3, 0, 800)]], [[(3, 0, 800)], [(3, 0, 800)]],
                    [[(2, 0, 800)], [(3, 0, 800)]]]
    assert result.evaluations == 17
    serial = de_optimize(CodeSpec(16, 8), 4, dataclasses.replace(config, workers=1))
    assert (serial.history, serial.pattern) == (result.history, result.pattern)


@pytest.mark.parametrize("model", [ChannelModel.awgn(2.0), ChannelModel.awgn(math.inf),
                                   ChannelModel.bec(0.4)],
                         ids=["awgn", "noiseless", "bec"])
def test_channel_llrs_keep_natural_order_and_zero_punctured(model):
    n, rate = 16, 0.6
    pattern = PuncturingPattern(n, (2, 7, 11))
    punctured = pattern.zero_based()
    for shape in [(n,), (40, n), (3, 5, n)]:
        x = np.random.default_rng(4).integers(0, 2, size=shape, dtype=np.int8)
        before = x.copy()
        llr = channel_llrs(x, model, pattern, rate, np.random.default_rng(5))

        rng = np.random.default_rng(5)
        signs = 1.0 - 2.0 * x
        if model.kind == "bec":
            want = signs * 1e4
            want[rng.random(x.shape) < model.epsilon] = 0.0
        elif math.isinf(model.ebn0_db):
            want = signs * 1e4
        else:
            sigma2 = 1.0 / (2.0 * rate * 10.0 ** (model.ebn0_db / 10.0))
            noise = rng.normal(0.0, math.sqrt(sigma2), size=x.shape)
            want = 2.0 * (signs + noise) / sigma2
        want[..., punctured] = 0.0
        assert llr.dtype == np.float64 and llr.shape == x.shape
        assert np.array_equal(llr, want)
        assert np.all(llr[..., punctured] == 0.0)
        assert not np.signbit(llr[..., punctured]).any()
        assert np.array_equal(x, before)


# in-place: into a view of a larger, dirty buffer, as a chunk forms each run's
# LLRs in its one LLR array; copy: into a new array, as ``channel_llrs`` does.
@pytest.mark.parametrize("into_buffer", [True, False], ids=["in-place", "copy"])
@pytest.mark.parametrize("model", [ChannelModel.awgn(2.0), ChannelModel.awgn(2996.19788),
                                   ChannelModel.awgn(-70.0), ChannelModel.awgn(math.inf),
                                   ChannelModel.bec(0.4)],
                         ids=["awgn", "awgn-top-scale", "awgn-low", "noiseless", "bec"])
@pytest.mark.parametrize("n, frames", [(64, 1300), (1024, 100)])
def test_blocked_draw_and_llrs_match_the_formula(n, frames, model, into_buffer):
    # The draw spans several blocks of SLAB_ELEMS // n frames, not a multiple
    # of one; the LLRs equal the natural-order formula over one (B, N) draw.
    # The AWGN points span the noise range: 2 / sigma^2 just under
    # MAX_LLR_SCALE, a moderate sigma^2 and one of 1e6 or more.  The draw is
    # only read, and nothing outside the LLRs is written.
    spec, rate = CodeSpec(n, n // 2), 0.6
    if model.ebn0_db == 2996.19788:
        assert MAX_LLR_SCALE * 0.9999 < 2.0 / noise_variance(model.ebn0_db, rate) <= MAX_LLR_SCALE
    elif model.ebn0_db == -70.0:
        assert noise_variance(model.ebn0_db, rate) >= 1e6
    pattern = qup_pattern(spec, n // 4)
    perm = bit_reversal_permutation(spec.m)
    bits = np.random.default_rng(n).integers(0, 2, size=(frames, n), dtype=np.int8)
    draw = montecarlo._channel_draw(model, rate, np.random.Generator(np.random.Philox(key=[7, 0])),
                                    (frames, n), perm)
    before = None if draw is None else draw.copy()
    buffer = np.full(n * (frames + 3), np.nan)
    out = buffer[:n * frames].reshape(n, frames) if into_buffer else None
    llr = montecarlo._llrs(bits.T[perm], model, pattern, rate, draw, perm, out)

    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    signs = 1.0 - 2.0 * bits
    if model.kind == "bec":
        want = signs * 1e4
        want[rng.random((frames, n)) < model.epsilon] = 0.0
    elif math.isinf(model.ebn0_db):
        want = signs * 1e4
    else:
        sigma2 = noise_variance(model.ebn0_db, rate)
        want = 2.0 * (signs + rng.normal(0.0, math.sqrt(sigma2), size=(frames, n))) / sigma2
    want[:, pattern.zero_based()] = 0.0
    assert llr.shape == (n, frames)
    assert np.array_equal(llr.view(np.int64), want.T[perm].view(np.int64))
    assert llr is not draw and (draw is None or draw.tobytes() == before.tobytes())
    if into_buffer:
        assert llr is out and np.isnan(buffer[n * frames:]).all()
