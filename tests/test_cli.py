import csv
import json
from pathlib import Path

import pytest

from polarkit import (CodeSpec, DeConfig, de_optimize, load_pattern, montecarlo,
                      reference_pattern_path)
from polarkit.cli import main

CSV_HEADER = ["ebn0_db", "blocks", "block_errors", "bit_errors", "bler", "ber", "seed"]
DE64 = str(reference_pattern_path("de_n64_k32_np24.json"))


def read_csv(path):
    with open(path) as handle:
        return list(csv.reader(handle))


def test_pattern_qup(tmp_path):
    out = tmp_path / "qup.json"
    rc = main(["pattern", "--method", "qup", "--n", "8", "--k", "4",
               "--np", "2", "--ebn0", "3", "--out", str(out)])
    assert rc == 0
    pattern, info, prov = load_pattern(out)
    assert pattern.indices == (1, 5)
    assert info is not None and len(info) == 4
    assert "design_ebn0_db=3" in prov


def test_pattern_rqup(tmp_path):
    out = tmp_path / "rqup.json"
    rc = main(["pattern", "--method", "rqup", "--n", "8", "--k", "4",
               "--np", "2", "--ebn0", "3", "--out", str(out)])
    assert rc == 0
    pattern, _, _ = load_pattern(out)
    assert pattern.indices == (4, 8)


def test_pattern_file_mode_round_trips_reference_byte_exact(tmp_path):
    for name in ("de_n128_k64_np28.json", "de_n64_k32_np24.json"):
        src = reference_pattern_path(name)
        out = tmp_path / name
        rc = main(["pattern", "--method", "file", "--in", str(src),
                   "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == src.read_bytes()


def test_pattern_missing_flags_usage_error(tmp_path):
    rc = main(["pattern", "--method", "qup", "--n", "8", "--out",
               str(tmp_path / "x.json")])
    assert rc == 1
    rc = main(["pattern", "--method", "file", "--out", str(tmp_path / "x.json")])
    assert rc == 1


@pytest.mark.parametrize("method", ["qup", "rqup"])
def test_pattern_rejects_nan_design_snr(tmp_path, capsys, method):
    out = tmp_path / "nan.json"
    rc = main(["pattern", "--method", method, "--n", "16", "--k", "8",
               "--np", "4", "--ebn0", "nan", "--out", str(out)])
    assert rc == 3
    assert "error" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def chunks_simulated(monkeypatch):
    """Every Monte Carlo task ((runs), chunk index, chunk trials) simulated
    in this process."""
    chunks = []
    real_chunk = montecarlo._simulate_chunk

    def counting_chunk(job):
        chunks.append(job)
        return real_chunk(job)

    monkeypatch.setattr(montecarlo, "_simulate_chunk", counting_chunk)
    return chunks


def test_chunks_simulated_records_every_task(tmp_path, chunks_simulated):
    # The fixture wraps the function that simulates, so the tests asserting
    # it stays empty cannot pass vacuously.  Both points of an SNR share one
    # seed and pattern, so each SNR is one task of two runs.
    argv = ["compare", "--patterns", DE64, DE64, "--ebn0", "2,3", "--trials", "100",
            "--out", str(tmp_path / "c.csv")]
    assert main(argv) == 0
    assert [(len(runs), ci, sz) for runs, ci, sz in chunks_simulated] == [(2, 0, 100)] * 2


# optimize flags -> the DeConfig fields they must set; at these settings the
# three searches differ in history, and so do the second and third with any one
# of their fields left out; --confirm-trials 0 disables the confirmation run
_SEARCH_MODES = [(["--confirm-trials", "0"], dict(confirm_trials=None)),
                 (["--confirm-trials", "1000", "--in-place", "--fresh-incumbents"],
                  dict(confirm_trials=1000, in_place=True, fresh_incumbents=True)),
                 (["--confirm-trials", "1000", "--full-space"],
                  dict(confirm_trials=1000, reduced_space=False))]


def test_optimize_writes_pattern_and_log(tmp_path):
    for mode, (flags, fields) in enumerate(_SEARCH_MODES):
        config = DeConfig(pop_size=6, crossover=0.8, scale=0.6, max_iters=3,
                          ebn0_db=3.0, trials=500, master_seed=11, **fields)
        result = de_optimize(CodeSpec(16, 8), 4, config)
        assert (result.confirmed_objective is None) == (mode == 0)
        files = []
        for workers in ("1", "2"):
            out = tmp_path / f"opt{mode}-{workers}.json"
            rc = main(["optimize", "--n", "16", "--k", "8", "--np", "4", "--ebn0", "3",
                       "--pop-size", "6", "--cr", "0.8", "--f", "0.6",
                       "--max-iters", "3", "--trials", "500",
                       "--seed", "11", "--workers", workers, "--out", str(out)] + flags)
            assert rc == 0
            files.append((out.read_bytes(), Path(f"{out}.log").read_bytes()))
        # neither the pattern file nor the log depends on --workers
        assert files[0] == files[1]
        pattern, info, prov = load_pattern(out)
        assert (pattern.indices, info) == (result.pattern.indices, result.info_set)
        for token in ("seed=11", "pop_size=6", "cr=0.8", "f=0.6", "trials=500",
                      f"confirmed_objective={result.confirmed_objective!r}"):
            assert token in prov
        records = [json.loads(line) for line in files[0][1].decode().splitlines()]
        assert all(set(record) == {"generation", "best_objective", "best_pattern"}
                   for record in records)
        assert [record["best_objective"] for record in records] == result.history


@pytest.mark.parametrize("flag,value", [("--workers", "0"), ("--workers", "-3"),
                                        ("--confirm-trials", "-5"), ("--seed", "-1"),
                                        ("--np", "0"), ("--np", "-2"),
                                        ("--pop-size", "3"), ("--max-iters", "0"),
                                        ("--trials", "0")])
def test_optimize_rejects_bad_counts_before_searching(tmp_path, capsys, flag, value):
    out = tmp_path / "opt.json"
    rc = main(["optimize", "--n", "8", "--k", "4", "--np", "2", "--ebn0", "3",
               "--pop-size", "4", "--max-iters", "2", "--trials", "500",
               flag, value, "--out", str(out)])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "opt.json.log").exists()


@pytest.mark.parametrize("seed", [str(2 ** 63), str(2 ** 64)])
def test_optimize_rejects_a_seed_the_search_cannot_key(tmp_path, capsys, seed):
    # From 2^63 the search's Philox key cannot hold the seed exactly, so it
    # is a domain error: exit 3, one line, no file.
    out = tmp_path / "o.json"
    rc = main(["optimize", "--n", "16", "--k", "8", "--np", "2", "--ebn0", "3",
               "--seed", seed, "--out", str(out)])
    assert rc == 3
    err = capsys.readouterr().err
    assert err == f"error: master_seed must be an integer in [0, 2^63), got {seed}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("f", ["nan", "inf"])
def test_optimize_rejects_non_finite_mutation_factor(tmp_path, capsys, f):
    out = tmp_path / "opt.json"
    rc = main(["optimize", "--n", "16", "--k", "8", "--np", "4", "--ebn0", "3",
               "--pop-size", "4", "--max-iters", "1", "--trials", "100",
               "--f", f, "--out", str(out)])
    assert rc == 3
    assert "scale must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_PATTERN = ["pattern", "--method", "qup", "--n", "16", "--ebn0", "3"]
_OPTIMIZE = ["optimize", "--n", "16", "--ebn0", "3", "--pop-size", "4",
             "--max-iters", "1", "--trials", "100"]
_NP_COMMANDS = {"pattern": _PATTERN + ["--k", "8"], "optimize": _OPTIMIZE + ["--k", "8"],
                "pattern-k16": _PATTERN + ["--k", "16"],
                "optimize-k16": _OPTIMIZE + ["--k", "16"]}


# the upper bound depends on N and K: n_p <= N - K for pattern, and also
# n_p <= D = N/2 - 1 for optimize, so a value above it is a domain error rather
# than a usage error; K = N leaves no bit to puncture
@pytest.mark.parametrize("command,n_p,code", [
    ("pattern", "0", 1), ("pattern", "-2", 1), ("pattern", "20", 3),
    ("pattern-k16", "4", 3),
    ("optimize", "0", 1), ("optimize", "-2", 1), ("optimize", "8", 3),
    ("optimize-k16", "4", 3)])
def test_np_below_one_is_usage_error_and_above_the_bound_domain_error(
        tmp_path, capsys, command, n_p, code):
    out = tmp_path / "x.json"
    rc = main(_NP_COMMANDS[command] + ["--np", n_p, "--out", str(out)])
    assert rc == code
    assert ("usage error" if code == 1 else "error: ") in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_optimize_missing_required_flag():
    assert main(["optimize", "--n", "8", "--k", "4", "--np", "2"]) == 1


def test_evaluate_csv_shape_and_determinism(tmp_path):
    pat = tmp_path / "p.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(pat)])
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evaluate", "--pattern", str(pat), "--ebn0", "0,4",
            "--trials", "4000", "--max-block-errors", "1000000",
            "--seed", "5", "--out"]
    assert main(args + [str(out1)]) == 0
    assert main(args + [str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    rows = read_csv(out1)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 3
    bler_0db = float(rows[1][4])
    bler_4db = float(rows[2][4])
    assert bler_0db > bler_4db
    assert all(row[6] == "5" for row in rows[1:])
    blocks = int(rows[1][1])
    assert int(rows[1][2]) == round(float(rows[1][4]) * blocks)


def test_evaluate_empty_snr_list(tmp_path):
    pat = tmp_path / "p.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(pat)])
    out = tmp_path / "empty.csv"
    assert main(["evaluate", "--pattern", str(pat), "--ebn0", "",
                 "--trials", "100", "--out", str(out)]) == 0
    assert read_csv(out) == [CSV_HEADER]
    # A list with an entry that is not a number is a usage error.
    bad = tmp_path / "bad.csv"
    assert main(["evaluate", "--pattern", str(pat), "--ebn0", "4,x",
                 "--trials", "100", "--out", str(bad)]) == 1
    assert not bad.exists()


def test_evaluate_early_stop_on_block_errors(tmp_path):
    pat = tmp_path / "p.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(pat)])
    out = tmp_path / "stop.csv"
    assert main(["evaluate", "--pattern", str(pat), "--ebn0", "0",
                 "--trials", "1000000", "--max-block-errors", "50",
                 "--seed", "1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert int(rows[1][1]) < 1000000  # stopped well before the budget
    assert int(rows[1][2]) >= 50


def test_evaluate_scl_mode(tmp_path):
    pat = tmp_path / "p.json"
    main(["pattern", "--method", "qup", "--n", "32", "--k", "20", "--np", "8",
          "--ebn0", "4", "--out", str(pat)])
    out = tmp_path / "scl.csv"
    rc = main(["evaluate", "--pattern", str(pat), "--ebn0", "4",
               "--decoder", "scl", "--list-size", "4", "--crc", "16",
               "--trials", "2000", "--max-block-errors", "100000",
               "--out", str(out)])
    assert rc == 0
    assert len(read_csv(out)) == 2


def test_evaluate_sc_with_crc_is_usage_error(tmp_path):
    pat = tmp_path / "p.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(pat)])
    rc = main(["evaluate", "--pattern", str(pat), "--ebn0", "1",
               "--decoder", "sc", "--crc", "16", "--out", str(tmp_path / "x.csv")])
    assert rc == 1


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_list_size_with_sc_is_usage_error(tmp_path, capsys, command):
    pat = tmp_path / "p.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(pat)])
    inputs = (["--pattern", str(pat)] if command == "evaluate"
              else ["--patterns", str(pat), str(pat)])
    out = tmp_path / "x.csv"
    rc = main([command] + inputs + ["--ebn0", "1", "--decoder", "sc",
                                    "--list-size", "4", "--out", str(out)])
    assert rc == 1
    assert "--list-size requires --decoder scl" in capsys.readouterr().err
    assert not out.exists()


def test_scl_list_size_defaults_to_8(tmp_path):
    pat = tmp_path / "p.json"
    main(["pattern", "--method", "qup", "--n", "16", "--k", "8", "--np", "4",
          "--ebn0", "3", "--out", str(pat)])
    curves = []
    for extra in ([], ["--list-size", "8"], ["--list-size", "1"]):
        out = tmp_path / f"scl{len(curves)}.csv"
        assert main(["evaluate", "--pattern", str(pat), "--ebn0", "0,1",
                     "--decoder", "scl", "--trials", "3000",
                     "--max-block-errors", "1000000", "--out", str(out)]
                    + extra) == 0
        curves.append(out.read_bytes())
    assert curves[0] == curves[1] != curves[2]


def test_scl_with_one_path_writes_the_sc_rows(tmp_path):
    # one path is SC, so both runs decode with SC's walk
    pattern = str(reference_pattern_path("de_n64_k32_np24.json"))
    rows = []
    for decoder in (["sc"], ["scl", "--list-size", "1"]):
        out = tmp_path / f"{decoder[0]}.csv"
        assert main(["evaluate", "--pattern", pattern, "--ebn0", "3,5",
                     "--trials", "3000", "--seed", "4", "--decoder", *decoder,
                     "--out", str(out)]) == 0
        rows.append(out.read_bytes())
    assert rows[0] == rows[1]
    assert int(read_csv(tmp_path / "sc.csv")[1][2]) > 0  # errors were compared


_BAD_COUNTS = [(flag, value)
               for flag in ("--trials", "--max-block-errors", "--workers", "--list-size")
               for value in ("0", "-3", "many")] + [("--seed", "-1")]


@pytest.mark.parametrize("command", ["evaluate", "compare"])
@pytest.mark.parametrize("flag,value", _BAD_COUNTS,
                         ids=[f"{value}-{flag}" for flag, value in _BAD_COUNTS])
def test_evaluate_and_compare_reject_non_positive_counts(tmp_path, capsys,
                                                        command, flag, value):
    pat = tmp_path / "p.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(pat)])
    inputs = (["--pattern", str(pat)] if command == "evaluate"
              else ["--patterns", str(pat), str(pat)])
    out = tmp_path / "x.csv"
    rc = main([command] + inputs + ["--ebn0", "1", flag, value, "--out", str(out)])
    assert rc == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_missing_pattern_file(tmp_path):
    rc = main(["evaluate", "--pattern", str(tmp_path / "absent.json"),
               "--ebn0", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


def test_evaluate_malformed_pattern_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "polar-pattern/1", "n_mother": 8,
                               "n_p": 1, "indices": [9]}))
    rc = main(["evaluate", "--pattern", str(bad), "--ebn0", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    # A sweep needs the file's information set.
    bad.write_text(json.dumps({"schema": "polar-pattern/1", "n_mother": 8,
                               "n_p": 1, "indices": [1]}))
    rc = main(["evaluate", "--pattern", str(bad), "--ebn0", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert not (tmp_path / "x.csv").exists()


def test_compare_two_patterns(tmp_path):
    p1, p2 = tmp_path / "qup.json", tmp_path / "rqup.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(p1)])
    main(["pattern", "--method", "rqup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(p2)])
    out = tmp_path / "cmp.csv"
    rc = main(["compare", "--patterns", str(p1), str(p2), "--ebn0", "2,3",
               "--trials", "3000", "--max-block-errors", "1000000",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["pattern"] + CSV_HEADER
    assert len(rows) == 5
    labels = {row[0] for row in rows[1:]}
    assert labels == {"qup", "rqup"}


def test_compare_single_file_is_domain_error(tmp_path):
    p1 = tmp_path / "one.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(p1)])
    rc = main(["compare", "--patterns", str(p1), "--ebn0", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_compare_mismatched_n_is_domain_error(tmp_path):
    p1, p2 = tmp_path / "n8.json", tmp_path / "n16.json"
    main(["pattern", "--method", "qup", "--n", "8", "--k", "4", "--np", "2",
          "--ebn0", "3", "--out", str(p1)])
    main(["pattern", "--method", "qup", "--n", "16", "--k", "8", "--np", "4",
          "--ebn0", "3", "--out", str(p2)])
    rc = main(["compare", "--patterns", str(p1), str(p2), "--ebn0", "1",
               "--out", str(tmp_path / "x.csv")])
    assert rc == 3


def test_unknown_command_and_empty_invocation():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_unwritable_output_is_io_error(tmp_path, capsys, chunks_simulated):
    # an output path whose directory is missing, or that is a directory, fails
    # before any pattern file is loaded or any frame is simulated
    missing = str(tmp_path / "no_dir" / "x")
    sweep = ["--ebn0", "2,3", "--trials", "2000", "--max-block-errors", "100000"]
    search = ["optimize", "--n", "16", "--k", "8", "--np", "4", "--ebn0", "3",
              "--pop-size", "4", "--max-iters", "1", "--trials", "500",
              "--confirm-trials", "2000"]
    for argv in (["evaluate", "--pattern", DE64, "--ebn0", "", "--out", missing],
                 ["evaluate", "--pattern", DE64, *sweep, "--out", missing],
                 ["evaluate", "--pattern", DE64, *sweep, "--out", str(tmp_path)],
                 ["compare", "--patterns", DE64, DE64, *sweep, "--out", missing],
                 ["compare", "--patterns", DE64, *sweep, "--out", missing],
                 search + ["--out", missing, "--log", str(tmp_path / "o.log")],
                 search + ["--out", str(tmp_path / "o.json"), "--log", missing],
                 search + ["--out", str(tmp_path / "o.json"), "--log", str(tmp_path)],
                 ["pattern", "--method", "file", "--in", DE64, "--out", missing]):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("i/o error: ")
    assert chunks_simulated == []
    assert list(tmp_path.iterdir()) == []


_EBN0_COMMANDS = {
    "pattern": ["pattern", "--method", "qup", "--n", "16", "--k", "8", "--np", "4"],
    "evaluate": ["evaluate", "--pattern", DE64, "--trials", "100"],
    "optimize": ["optimize", "--n", "16", "--k", "8", "--np", "4", "--pop-size", "4",
                 "--max-iters", "1", "--trials", "100"],
}


_NO_VARIANCE = [(command, ebn0) for command in sorted(_EBN0_COMMANDS)
                for ebn0 in ("-inf", "-1e308", "1e308", "3080", "nan")]


@pytest.mark.parametrize("command,ebn0", _NO_VARIANCE)
def test_snr_without_finite_noise_variance_is_domain_error(tmp_path, capsys, command,
                                                           ebn0):
    rc = main(_EBN0_COMMANDS[command] + [f"--ebn0={ebn0}", "--out", str(tmp_path / "x")])
    assert rc == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "noise variance" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("ebn0", ["2,nan", "2,-inf"])
def test_bad_snr_fails_before_any_frame_is_simulated(tmp_path, chunks_simulated, ebn0):
    out = tmp_path / "x.csv"
    rc = main(_EBN0_COMMANDS["evaluate"] + [f"--ebn0={ebn0}", "--workers", "1",
                                           "--out", str(out)])
    assert rc == 3
    assert not out.exists()
    assert chunks_simulated == []


def test_infinite_snr_stays_the_noiseless_sentinel(tmp_path, capsys):
    out = tmp_path / "inf.csv"
    assert main(_EBN0_COMMANDS["evaluate"] + ["--ebn0=inf", "--out", str(out)]) == 0
    assert read_csv(out)[1][:4] == ["inf", "100", "0", "0"]
    for command in ("pattern", "optimize"):
        rc = main(_EBN0_COMMANDS[command] + ["--ebn0=inf", "--out", str(tmp_path / "x")])
        assert rc == 3
        assert "must be finite for the GA" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [out]  # no pattern file, no log
