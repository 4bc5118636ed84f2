import json
import math

import numpy as np
import pytest

from polarkit import (ChannelModel, CodeSpec, DeConfig, PuncturingPattern,
                      candidate_bits, de_optimize, evaluation_seed,
                      init_population, make_trial, objective)

SPEC8 = CodeSpec(8, 4)


def small_config(**overrides):
    base = dict(pop_size=6, max_iters=4, ebn0_db=3.0, trials=2000,
                master_seed=1, confirm_trials=None)
    base.update(overrides)
    return DeConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        DeConfig(pop_size=3)
    with pytest.raises(ValueError):
        DeConfig(pop_size=8, crossover=1.2)
    for scale in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="scale"):
            DeConfig(pop_size=8, scale=scale)
    with pytest.raises(ValueError):
        DeConfig(pop_size=8, seed_policy="fancy")


@pytest.mark.parametrize("bad", [dict(workers=0), dict(workers=-3),
                                 dict(confirm_trials=0), dict(confirm_trials=-5),
                                 dict(stall_generations=0)])
def test_config_rejects_non_positive_workers_and_confirm_trials(bad):
    with pytest.raises(ValueError):
        DeConfig(pop_size=8, **bad)
    assert DeConfig(pop_size=8, workers=1, confirm_trials=None).confirm_trials is None
    assert DeConfig(pop_size=8, workers=2, confirm_trials=1).workers == 2


def test_init_population_shape_and_range():
    cfg = small_config(pop_size=4)
    pop = init_population(SPEC8, 2, cfg)
    assert pop.genes.shape == (4, 3)
    assert np.all((pop.genes >= 0.0) & (pop.genes <= 1.0))
    assert pop.objectives.shape == (4,)
    assert np.all(np.isfinite(pop.objectives))
    assert len(pop.patterns) == 4 and len(pop.info_sets) == 4
    for row, pattern in zip(pop.genes, pop.patterns):
        cols = np.argsort(-row, kind="stable")[:2] + 1
        assert pattern.indices == tuple(sorted(2 * cols - 1))


def test_init_population_deterministic():
    cfg = small_config(pop_size=5)
    a = init_population(SPEC8, 2, cfg)
    b = init_population(SPEC8, 2, cfg)
    assert np.array_equal(a.genes, b.genes)
    assert np.array_equal(a.objectives, b.objectives)


def test_init_population_np_too_large():
    with pytest.raises(ValueError):
        init_population(SPEC8, 4, small_config())  # reduced space has D=3


# the reduced space has D=3; the full space has D=N=8, but n_p is at most N - K = 4
@pytest.mark.parametrize("n_p,reduced", [(0, True), (4, True), (8, False), (5, False)],
                         ids=["0", "4", "full-8", "full-5"])
def test_search_rejects_n_p_outside_dimension_before_opening_a_pool(pools_made, n_p,
                                                                    reduced):
    with pytest.raises(ValueError, match="n_p"):
        de_optimize(SPEC8, n_p, small_config(workers=2, reduced_space=reduced))
    assert pools_made == []


# none of these gives a finite positive design noise variance, which the GA needs
@pytest.mark.parametrize("ebn0_db", [math.nan, math.inf, -math.inf, 1e308, 3080.0])
def test_search_rejects_design_ebn0_before_opening_a_pool(pools_made, ebn0_db):
    with pytest.raises(ValueError, match="Eb/N0"):
        de_optimize(SPEC8, 2, small_config(workers=2, ebn0_db=ebn0_db))
    assert pools_made == []


# a Philox key list holds a master seed exactly only below 2^63
@pytest.mark.parametrize("master_seed", [-1, 2 ** 63, 2 ** 64, 1.5, 3.0, "3", None])
def test_search_rejects_master_seed_outside_the_key_before_opening_a_pool(pools_made,
                                                                          master_seed):
    with pytest.raises(ValueError,
                       match=r"^master_seed must be an integer in \[0, 2\^63\), got "):
        de_optimize(SPEC8, 2, small_config(workers=2, master_seed=master_seed))
    assert pools_made == []
    for edge in (0, 2 ** 63 - 1, np.int64(2 ** 63 - 1), np.uint64(7)):
        assert small_config(master_seed=edge).master_seed == edge


def _constant_rows(values, dim=6):
    return np.array([[v] * dim for v in values], dtype=float)


def test_make_trial_full_crossover_ignores_incumbent():
    genes = _constant_rows([100.0, 0.0, 1.0, 2.0, 3.0])
    cfg = DeConfig(pop_size=5, crossover=1.0, scale=0.5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        trial = make_trial(genes, 0, cfg, rng)
        assert not np.any(trial == 100.0)


def test_make_trial_zero_crossover_single_gene():
    genes = _constant_rows([100.0, 0.0, 1.0, 2.0, 3.0])
    cfg = DeConfig(pop_size=5, crossover=0.0, scale=0.5)
    rng = np.random.default_rng(1)
    for _ in range(10):
        trial = make_trial(genes, 0, cfg, rng)
        assert np.sum(trial != 100.0) == 1  # exactly j_rand mutates


def test_make_trial_zero_scale_copies_base_row():
    genes = _constant_rows([9.0, 0.0, 1.0, 2.0, 3.0])
    cfg = DeConfig(pop_size=5, crossover=1.0, scale=1e-12)
    rng = np.random.default_rng(2)
    trial = make_trial(genes, 0, cfg, rng)
    # every gene equals some other row's value (difference term vanishes)
    assert set(np.round(trial, 6)) <= {0.0, 1.0, 2.0, 3.0}


def test_make_trial_needs_four_rows():
    with pytest.raises(ValueError):
        make_trial(np.zeros((3, 4)), 0, DeConfig(pop_size=4), np.random.default_rng(0))


def test_history_non_increasing_and_deterministic():
    cfg = small_config(max_iters=6)
    a = de_optimize(SPEC8, 2, cfg)
    b = de_optimize(SPEC8, 2, cfg)
    assert a.pattern == b.pattern
    assert a.info_set == b.info_set
    assert a.history == b.history
    assert all(later <= earlier for earlier, later in zip(a.history, a.history[1:]))
    assert a.best_objective == a.history[-1] or a.best_objective <= a.history[-1]


def test_worker_count_does_not_change_result():
    base = small_config(max_iters=3, trials=9000)
    seq = de_optimize(SPEC8, 2, base)
    par = de_optimize(SPEC8, 2, small_config(max_iters=3, trials=9000, workers=2))
    assert seq.pattern == par.pattern
    assert seq.history == par.history
    assert seq.info_set == par.info_set


@pytest.mark.parametrize("trials,confirm_trials", [(5000, 3000), (20000, 10000)])
def test_search_uses_one_pool_and_matches_serial(pools_made, trials, confirm_trials):
    # 5000 trials fit in one 8192-trial chunk, so only a pool shared across
    # candidates can run them in parallel; 20000 and 10000 span chunks
    config = dict(max_iters=3, stall_generations=4, trials=trials,
                  confirm_trials=confirm_trials)
    par = de_optimize(SPEC8, 2, small_config(workers=2, **config))
    assert par.generations == 3
    assert pools_made == [2]
    seq = de_optimize(SPEC8, 2, small_config(workers=1, **config))
    assert pools_made == [2]
    for field in ("pattern", "info_set", "history", "generations", "evaluations",
                  "best_objective", "confirmed_objective"):
        assert getattr(par, field) == getattr(seq, field)


def test_reduced_space_avoids_forbidden_bits():
    for seed in range(3):
        res = de_optimize(SPEC8, 2, small_config(master_seed=seed, max_iters=3))
        assert set(res.pattern.indices) <= set(candidate_bits(SPEC8).tolist())


def test_full_space_mode_runs():
    cfg = small_config(reduced_space=False, max_iters=2)
    res = de_optimize(SPEC8, 2, cfg)
    assert res.pattern.n_p == 2


def test_in_place_and_fresh_incumbent_modes_run():
    res1 = de_optimize(SPEC8, 2, small_config(in_place=True, max_iters=3))
    res2 = de_optimize(SPEC8, 2, small_config(fresh_incumbents=True, max_iters=3))
    assert res1.pattern.n_p == 2 and res2.pattern.n_p == 2


def test_stall_terminates_early():
    cfg = small_config(max_iters=40, seed_policy="fixed")
    res = de_optimize(SPEC8, 2, cfg)
    # a frozen objective over 3 patterns converges long before 40 generations
    assert res.generations < 40
    assert len(res.history) == res.generations + 1


def test_confirmation_pass():
    cfg = small_config(max_iters=2, confirm_trials=4000)
    res = de_optimize(SPEC8, 2, cfg)
    assert res.confirmed_objective is not None
    assert res.confirmed_objective >= 0.0


def test_run_log_records(tmp_path):
    log = tmp_path / "run.log"
    cfg = small_config(max_iters=3)
    res = de_optimize(SPEC8, 2, cfg, log_path=log)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == len(res.history)
    for generation, line in enumerate(lines):
        record = json.loads(line)
        assert record["generation"] == generation
        assert record["best_objective"] == res.history[generation]
        assert len(record["best_pattern"]) == 2


def test_matches_exhaustive_search_at_fixed_seed():
    cfg = small_config(pop_size=8, max_iters=10, trials=4000,
                      master_seed=77, seed_policy="fixed")
    res = de_optimize(SPEC8, 2, cfg)
    seed0 = evaluation_seed(77, 0)
    oracle = min(objective(SPEC8, PuncturingPattern(8, pair),
                           ChannelModel.awgn(3.0), trials=4000, seed=seed0)[1]
                 for pair in ((1, 3), (1, 5), (3, 5)))
    assert res.best_objective == oracle


def test_evaluation_cache_shares_patterns():
    cfg = small_config(pop_size=8, max_iters=5, seed_policy="fixed")
    res = de_optimize(SPEC8, 2, cfg)
    # only 3 projectable patterns exist and one seed is in play
    assert res.evaluations <= 3


def test_large_block_length_smoke():
    # scaled-down search at the N=128 operating point: completes and emits a
    # well-formed pattern of 28 odd coded bits
    spec = CodeSpec(128, 64)
    cfg = DeConfig(pop_size=6, max_iters=2, ebn0_db=6.0, trials=1000,
                   master_seed=0, confirm_trials=None)
    res = de_optimize(spec, 28, cfg)
    assert res.pattern.n_p == 28
    assert all(i % 2 == 1 for i in res.pattern.indices)
    assert set(res.pattern.indices) <= set(candidate_bits(spec).tolist())
    assert len(res.info_set) == 64
