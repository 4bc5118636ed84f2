import dataclasses
import math
import pickle

import numpy as np
import pytest

from polarkit import (BerReport, ChannelModel, CodeSpec, DecoderConfig, DeConfig,
                      PuncturingPattern, SCDecoder, SCLDecoder, bit_reversal_permutation,
                      channel_llrs, de_optimize, generator_matrix, montecarlo,
                      noise_variance, objective, qup_pattern, simulate)
from polarkit.decoders import crc16_remainder_bits
from polarkit.montecarlo import (CHUNK_TRIALS, SimulationRun, _simulate_chunk, run_batch,
                                 worker_pool)


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
    # (N, K, n_p, model, decoders of the task's runs): the runs differ in
    # pattern and information set at one n_p, so they share every draw
    (64, 32, 24, ChannelModel.awgn(1.0), [_SC] * 3),
    (64, 32, 24, ChannelModel.awgn(math.inf), [_SC] * 3),
    (64, 32, 24, ChannelModel.bec(0.3), [_SC] * 3),
    (256, 128, 40, ChannelModel.awgn(1.5), [_SC] * 2),
    # chunks of several channel-draw blocks (32 frames at N=1024)
    (1024, 512, 224, ChannelModel.awgn(2.0), [_SC] * 2),
    # one path with a CRC (the chunk walks SC) next to CRC-aided SCL
    (32, 24, 8, ChannelModel.awgn(2.0),
     [DecoderConfig(list_size=1, crc_len=16), DecoderConfig(list_size=4, crc_len=16),
      DecoderConfig(list_size=1, crc_len=16)]),
]


@pytest.mark.parametrize("case", _SHARED_CASES, ids=lambda c: f"N{c[0]}-{c[3].kind}"
                         f"{c[3].ebn0_db if c[3].kind != 'bec' else c[3].epsilon}-"
                         f"{len(c[4])}runs")
def test_shared_draw_chunk_matches_independent_oracle(case):
    # One task carries several runs under one draw key; each run's errors
    # are the oracle's for that run alone, so no run sees another's LLRs.
    n, k, n_p, model, decoders = case
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


def _fields(report):
    return (report.per_bit_ber.tobytes(), report.per_bit_errors.tobytes(), report.bler,
            report.block_errors, report.objective, report.trials, report.seed,
            report.info_set)


_SCL4 = DecoderConfig(list_size=4, crc_len=16)
# (n_p, model, [(pattern, decoder, trials)]), pattern 0 the QUP one: runs of
# three chunks (the last short) and of one short chunk, two n_p, three
# channels and SC next to CRC-aided SCL
_BATCH = [(4, ChannelModel.awgn(1.0), [(0, _SC, 20000), (1, _SC, 20000), (2, _SC, 5000)]),
          (8, ChannelModel.awgn(1.0), [(0, _SC, 20000), (1, _SCL4, 5000), (2, _SCL4, 5000)]),
          (4, ChannelModel.awgn(math.inf), [(0, _SC, 5000), (1, _SC, 5000)]),
          (8, ChannelModel.bec(0.3), [(0, _SC, 5000), (1, _SC, 5000), (0, _SCL4, 5000)])]


def test_batch_matches_runs_alone_with_and_without_pool():
    # At two seeds, the batch groups and splits the runs' chunks, yet every
    # report equals its run's alone, in input order.
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
    assert len(set(chunks)) == 22 and len(chunks) == 34
    alone = [_fields(run_batch([run])[0]) for run in runs]
    assert [_fields(r) for r in run_batch(runs)] == alone
    with worker_pool(2) as pool:
        assert [_fields(r) for r in run_batch(runs, pool)] == alone


def test_runs_sharing_a_seed_draw_each_chunk_once(monkeypatch):
    spec = CodeSpec(16, 8)
    rng = np.random.default_rng(3)
    patterns = {_random_pattern(spec, 4, rng) for _ in range(40)}
    runs = [SimulationRun.plan(spec, pattern, _random_info(spec, rng),
                               ChannelModel.awgn(2.0), trials=CHUNK_TRIALS + 100, seed=9)
            for pattern in sorted(patterns, key=lambda p: p.indices)[:6]]
    assert len({run.pattern.indices for run in runs}) == 6
    draws = []
    real_draw = montecarlo._draw

    def counting_draw(run, chunk_index, chunk_trials, perm):
        draws.append((chunk_index, chunk_trials))
        return real_draw(run, chunk_index, chunk_trials, perm)

    monkeypatch.setattr(montecarlo, "_draw", counting_draw)
    run_batch(runs)
    assert draws == [(0, CHUNK_TRIALS), (1, 100)]


def test_one_chunk_generation_sends_a_task_to_every_process(monkeypatch):
    # Each generation's candidates share one chunk; split across the two
    # processes, its runs dealt out in turn, so neither process idles.
    sent = []
    real_map = montecarlo.WorkerPool.map

    def recording_map(self, fn, tasks):
        sent.append([(len(runs), ci, sz) for runs, ci, sz in tasks])
        return real_map(self, fn, tasks)

    monkeypatch.setattr(montecarlo.WorkerPool, "map", recording_map)
    config = DeConfig(pop_size=6, max_iters=2, stall_generations=5, ebn0_db=3.0,
                      trials=800, confirm_trials=None, workers=2)
    result = de_optimize(CodeSpec(16, 8), 4, config)
    assert sent == [[(3, 0, 800), (3, 0, 800)], [(3, 0, 800), (3, 0, 800)],
                    [(3, 0, 800), (2, 0, 800)]]
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


@pytest.mark.parametrize("in_place", [True, False], ids=["in-place", "copy"])
@pytest.mark.parametrize("model", [ChannelModel.awgn(2.0), ChannelModel.awgn(math.inf),
                                   ChannelModel.bec(0.4)],
                         ids=["awgn", "noiseless", "bec"])
@pytest.mark.parametrize("n, frames", [(64, 1300), (1024, 100)])
def test_blocked_draw_and_llrs_match_the_formula(n, frames, model, in_place):
    # The draw spans several blocks of SLAB_ELEMS // n frames, not a multiple
    # of one; the LLRs equal the natural-order formula over one (B, N) draw.
    spec, rate = CodeSpec(n, n // 2), 0.6
    pattern = qup_pattern(spec, n // 4)
    perm = bit_reversal_permutation(spec.m)
    bits = np.random.default_rng(n).integers(0, 2, size=(frames, n), dtype=np.int8)
    draw = montecarlo._channel_draw(model, rate, np.random.Generator(np.random.Philox(key=[7, 0])),
                                    (frames, n), perm)
    before = None if draw is None else draw.copy()
    llr = montecarlo._llrs(bits.T[perm], model, pattern, rate, draw, perm,
                           in_place=in_place)

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
    if model.kind == "awgn_bpsk" and in_place and draw is not None:
        assert llr is draw
    elif draw is not None:
        assert llr is not draw and np.array_equal(draw, before)
