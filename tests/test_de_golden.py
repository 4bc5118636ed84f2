"""Golden pins of ``de_optimize`` results.

The expected values were produced by the search that evaluated candidates one
``objective`` call at a time, each ``simulate`` opening its own pool.  Any
reorganisation of how evaluations are scheduled (batching, a shared pool) must
reproduce them exactly, for every worker count.  Trials of 5000 fit in one
8192-trial chunk; 20000 span three.
"""

import pytest

from polarkit import CodeSpec, DeConfig, de_optimize

BASE = dict(pop_size=6, max_iters=3, ebn0_db=3.0, master_seed=5, confirm_trials=3000)
INFO16 = (8, 10, 11, 12, 13, 14, 15, 16)

# name -> ((N, K, n_p), config overrides, expected result fields)
CASES = {
    "sync-5000": (
        (16, 8, 4), dict(trials=5000),
        dict(pattern=(1, 3, 5, 9), info_set=INFO16,
             history=[0.19440000000000002, 0.19440000000000002, 0.1672, 0.1672],
             generations=3, evaluations=21, best_objective=0.1672,
             confirmed_objective=0.176)),
    "sync-20000": (
        (16, 8, 4), dict(trials=20000, confirm_trials=10000),
        dict(pattern=(1, 5, 9, 11), info_set=INFO16,
             history=[0.20695, 0.19579999999999997, 0.19579999999999997,
                      0.19579999999999997],
             generations=3, evaluations=20, best_objective=0.19579999999999997,
             confirmed_objective=0.1849)),
    "in_place-5000": (
        (16, 8, 4), dict(trials=5000, in_place=True),
        dict(pattern=(1, 3, 5, 9), info_set=INFO16,
             history=[0.19440000000000002, 0.19240000000000002, 0.1672, 0.1672],
             generations=3, evaluations=18, best_objective=0.1672,
             confirmed_objective=0.176)),
    "in_place-20000": (
        (16, 8, 4), dict(trials=20000, in_place=True),
        dict(pattern=(1, 3, 5, 9), info_set=INFO16,
             history=[0.20695, 0.19579999999999997, 0.18315, 0.18315],
             generations=3, evaluations=16, best_objective=0.18315,
             confirmed_objective=0.176)),
    "fresh-20000": (
        (16, 8, 4), dict(trials=20000, fresh_incumbents=True),
        dict(pattern=(1, 5, 9, 13), info_set=INFO16,
             history=[0.20695, 0.19579999999999997, 0.2013, 0.19315000000000002],
             generations=3, evaluations=22, best_objective=0.19315000000000002,
             confirmed_objective=0.196)),
    "fresh-in_place-5000": (
        (16, 8, 4), dict(trials=5000, fresh_incumbents=True, in_place=True),
        dict(pattern=(1, 3, 5, 9), info_set=INFO16,
             history=[0.19440000000000002, 0.1966, 0.1672, 0.1726],
             generations=3, evaluations=21, best_objective=0.1726,
             confirmed_objective=0.176)),
    "fixed-5000": (
        (16, 8, 4), dict(trials=5000, seed_policy="fixed", max_iters=8,
                         confirm_trials=None),
        dict(pattern=(1, 3, 5, 9), info_set=INFO16,
             history=[0.19440000000000002, 0.19440000000000002, 0.1624, 0.1624,
                      0.1624, 0.1624],
             generations=5, evaluations=13, best_objective=0.1624,
             confirmed_objective=None)),
    "full_space-20000": (
        (16, 8, 4), dict(trials=20000, reduced_space=False),
        dict(pattern=(2, 5, 10, 13), info_set=INFO16,
             history=[0.24645, 0.21785, 0.1926, 0.1926],
             generations=3, evaluations=23, best_objective=0.1926,
             confirmed_objective=0.20299999999999999)),
    "n32-5000": (
        (32, 16, 8), dict(trials=5000, pop_size=8, master_seed=2),
        dict(pattern=(1, 5, 11, 13, 17, 19, 25, 27),
             info_set=(14, 15, 16, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32),
             history=[0.4074, 0.4074, 0.4074, 0.393],
             generations=3, evaluations=32, best_objective=0.393,
             confirmed_objective=0.42700000000000005)),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(CASES))
def test_de_optimize_matches_golden(name, workers):
    (n, k, n_p), overrides, expected = CASES[name]
    config = DeConfig(**{**BASE, **overrides, "workers": workers})
    result = de_optimize(CodeSpec(n, k), n_p, config)
    got = dict(pattern=result.pattern.indices, info_set=result.info_set,
               history=result.history, generations=result.generations,
               evaluations=result.evaluations, best_objective=result.best_objective,
               confirmed_objective=result.confirmed_objective)
    assert got == expected


# name -> full text of the JSON-lines run log: one record per generation,
# generation 0 included, with the population's best objective and pattern.
LOGS = {
    "fresh-in_place-5000": (
        '{"generation": 0, "best_objective": 0.19440000000000002, "best_pattern": [1, 3, 9, 13]}\n'
        '{"generation": 1, "best_objective": 0.1966, "best_pattern": [1, 5, 9, 11]}\n'
        '{"generation": 2, "best_objective": 0.1672, "best_pattern": [1, 3, 5, 9]}\n'
        '{"generation": 3, "best_objective": 0.1726, "best_pattern": [1, 3, 5, 9]}\n'),
    # stops on stall at generation 5
    "fixed-5000": (
        '{"generation": 0, "best_objective": 0.19440000000000002, "best_pattern": [1, 3, 9, 13]}\n'
        '{"generation": 1, "best_objective": 0.19440000000000002, "best_pattern": [1, 3, 9, 13]}\n'
        '{"generation": 2, "best_objective": 0.1624, "best_pattern": [1, 3, 5, 9]}\n'
        '{"generation": 3, "best_objective": 0.1624, "best_pattern": [1, 3, 5, 9]}\n'
        '{"generation": 4, "best_objective": 0.1624, "best_pattern": [1, 3, 5, 9]}\n'
        '{"generation": 5, "best_objective": 0.1624, "best_pattern": [1, 3, 5, 9]}\n'),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", list(LOGS))
def test_de_optimize_log_matches_golden(tmp_path, name, workers):
    (n, k, n_p), overrides, _ = CASES[name]
    config = DeConfig(**{**BASE, **overrides, "workers": workers})
    log = tmp_path / "run.log"
    de_optimize(CodeSpec(n, k), n_p, config, log_path=log)
    assert log.read_text() == LOGS[name]
