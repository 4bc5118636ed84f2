import math

import numpy as np
import pytest

from polarkit import (BerReport, ChannelModel, CodeSpec, DecoderConfig,
                      PuncturingPattern, channel_llrs, noise_variance,
                      objective, qup_pattern, simulate)


def test_channel_model_validation():
    ChannelModel.awgn(2.0)
    ChannelModel.bec(0.4)
    with pytest.raises(ValueError):
        ChannelModel("awgn_bpsk")
    with pytest.raises(ValueError):
        ChannelModel.bec(1.5)
    with pytest.raises(ValueError):
        ChannelModel(kind="laplace", ebn0_db=0.0)


def test_decoder_config_validation():
    DecoderConfig("sc")
    DecoderConfig("scl", list_size=8, crc_len=16)
    with pytest.raises(ValueError):
        DecoderConfig("sc", list_size=4)
    with pytest.raises(ValueError):
        DecoderConfig("turbo")
    for list_size in (0, -2):
        with pytest.raises(ValueError):
            DecoderConfig("scl", list_size=list_size)
    with pytest.raises(ValueError):
        DecoderConfig("scl", list_size=8, crc_len=8)


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
    kwargs = dict(trials=20000, seed=123, chunk_size=4096)
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


def test_simulate_zero_payload_mode():
    spec = CodeSpec(8, 4)
    rep = simulate(spec, PuncturingPattern(8, ()), (4, 6, 7, 8),
                   ChannelModel.awgn(math.inf), trials=500, seed=0, payload="zero")
    assert rep.bler == 0.0
    with pytest.raises(ValueError):
        simulate(spec, PuncturingPattern(8, ()), (4, 6, 7, 8),
                 ChannelModel.awgn(1.0), trials=10, seed=0, payload="ones")


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


def test_simulate_scl_with_crc_runs():
    spec = CodeSpec(32, 20)
    pattern = qup_pattern(spec, 8)
    info = tuple(range(13, 33))
    rep = simulate(spec, pattern, info, ChannelModel.awgn(4.0),
                   decoder=DecoderConfig("scl", list_size=4, crc_len=16),
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
