"""Golden pins of ``polarkit evaluate``/``compare`` CSV output.

The expected rows were produced by the sweep that ran each (pattern, SNR)
point alone, one ``simulate`` call per 20000-frame increment.  Any change to
how the sweep schedules its increments (rounds across points, a shared pool)
must reproduce them byte for byte, for every worker count.

The cases cover SC and CRC-aided SCL at list size 4, points that stop on
``--max-block-errors`` after one or two increments, points that stop on the
budget after a partial last increment, and a budget of one chunk.
"""

import pytest

from polarkit import reference_pattern_path
from polarkit.cli import main

DE64 = str(reference_pattern_path("de_n64_k32_np24.json"))
SCL4 = ["--decoder", "scl", "--list-size", "4", "--crc", "16"]

# name -> (arguments before --workers/--out, expected CSV lines)
CASES = {
    "evaluate-sc": (
        ["evaluate", "--pattern", DE64, "--ebn0", "4,6,7", "--trials", "45000",
         "--max-block-errors", "100", "--seed", "2"],
        ["ebn0_db,blocks,block_errors,bit_errors,bler,ber,seed",
         "4.0,20000,1278,9139,0.0639,0.0142796875,2",
         "6.0,40000,148,747,0.0037,0.00058359375,2",
         "7.0,45000,26,101,0.0005777777777777778,7.013888888888888e-05,2"]),
    "evaluate-scl4-crc16": (
        ["evaluate", "--pattern", DE64, "--ebn0", "2,5", "--trials", "25000",
         "--max-block-errors", "50", "--seed", "2"] + SCL4,
        ["ebn0_db,blocks,block_errors,bit_errors,bler,ber,seed",
         "2.0,20000,2781,27855,0.13905,0.0435234375,2",
         "5.0,25000,3,19,0.00012,2.375e-05,2"]),
    "compare-sc": (
        ["compare", "--patterns", DE64, "{qup}", "{rqup}", "--ebn0", "3,5,6",
         "--trials", "25000", "--max-block-errors", "100", "--seed", "7"],
        ["pattern,ebn0_db,blocks,block_errors,bit_errors,bler,ber,seed",
         "de_n64_k32_np24,3.0,20000,3509,28305,0.17545,0.0442265625,7",
         "de_n64_k32_np24,5.0,20000,345,1923,0.01725,0.0030046875,7",
         "de_n64_k32_np24,6.0,25000,93,485,0.00372,0.00060625,7",
         "qup,3.0,20000,3661,27967,0.18305,0.0436984375,7",
         "qup,5.0,20000,402,2374,0.0201,0.003709375,7",
         "qup,6.0,25000,126,676,0.00504,0.000845,7",
         "rqup,3.0,20000,3737,34272,0.18685,0.05355,7",
         "rqup,5.0,20000,404,3233,0.0202,0.0050515625,7",
         "rqup,6.0,25000,118,828,0.00472,0.001035,7"]),
    "compare-scl4-crc16": (
        ["compare", "--patterns", DE64, "{qup}", "--ebn0", "3,4", "--trials", "3000",
         "--seed", "3"] + SCL4,
        ["pattern,ebn0_db,blocks,block_errors,bit_errors,bler,ber,seed",
         "de_n64_k32_np24,3.0,3000,93,834,0.031,0.0086875,3",
         "de_n64_k32_np24,4.0,3000,16,135,0.005333333333333333,0.00140625,3",
         "qup,3.0,3000,85,785,0.028333333333333332,0.008177083333333333,3",
         "qup,4.0,3000,13,117,0.004333333333333333,0.00121875,3"]),
}


@pytest.fixture(scope="module")
def baselines(tmp_path_factory):
    """QUP and RQUP pattern files for N=64, K=32, n_p=24, designed at 4 dB."""
    root = tmp_path_factory.mktemp("baselines")
    paths = {}
    for method in ("qup", "rqup"):
        paths[method] = str(root / f"{method}.json")
        assert main(["pattern", "--method", method, "--n", "64", "--k", "32",
                     "--np", "24", "--ebn0", "4", "--out", paths[method]]) == 0
    return paths


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_rows_match_golden(tmp_path, baselines, pools_made, case, workers):
    args, expected = CASES[case]
    out = tmp_path / "rows.csv"
    argv = [arg.format(**baselines) for arg in args]
    assert main(argv + ["--workers", str(workers), "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(expected) + "\n"
    # one pool serves every point and increment, even a one-chunk budget
    assert pools_made == ([workers] if workers > 1 else [])
