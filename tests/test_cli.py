import argparse
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest

from beattydim import GOLDEN_MEAN, NonConvergence, cli, dims
from beattydim.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_r9(capsys):
    code, out = run_cli(
        capsys, "classify", "--alpha", "2", "--beta", "0",
        "--gamma", "4", "--delta", "2",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["region"] == "R9"
    assert rep["d"]["finite"][0] == "1/2"
    assert rep["d"]["d_inf"] == "1/4"
    assert rep["exact"] is True


def test_dim_kps(capsys):
    code, out = run_cli(
        capsys, "dim", "--alpha", "1", "--beta", "0", "--gamma", "2",
        "--delta", "0", "--matrix", "11;10", "--which", "both",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["coincide"] is False
    assert abs(rep["dim_H"]["value"] - 0.811370462752) < 1e-9
    assert rep["dim_H"]["value"] < rep["dim_M"]["value"]


def test_verify_pass(capsys):
    code, out = run_cli(
        capsys, "verify", "--alpha", "3/2", "--beta", "0", "--gamma", "3",
        "--delta", "0", "--matrix", "11;10", "--n", "20",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert {c["name"] for c in rep["checks"]} == {
        "oracle-equality", "chain-product-consistency", "partition"
    }
    assert all(c["status"] == "PASS" for c in rep["checks"])


def test_verify_fixed_point(capsys):
    # 1 = f(1) for (sqrt(2), 0, sqrt(3), 0): the residual element 1 is a
    # one-vertex cycle, which the chain product counts as trace(A)
    code, out = run_cli(
        capsys, "verify", "--alpha", "sqrt(2)", "--gamma", "sqrt(3)",
        "--matrix", "11;10", "--n", "20",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    assert all(c["status"] == "PASS" for c in rep["checks"])


def _cap_child():
    # 2 GiB of address space: a table sized by the shifts fails at once
    # with MemoryError instead of being allocated; 60 s of CPU ends a hang
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


def run_capped(*argv):
    """``python -m beattydim.cli ARGV`` in a capped child; returns (exit
    code, stdout, stderr, child CPU seconds, child peak RSS in KB), the
    last two from the child's own rusage."""
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-m", "beattydim.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=root,
                                preexec_fn=_cap_child)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                usage.ru_utime + usage.ru_stime, usage.ru_maxrss)


SHIFTED_VERIFY = ["verify", "--alpha=3/2", "--gamma=3", "--matrix=11;10"]


@pytest.mark.parametrize("argv", [
    ["--delta=-100000000000", "--n=10"],
    ["--delta=100000000000", "--n=300"],
    ["--beta=1000000000000", "--n=300"],
])
def test_verify_large_shift_scans_only_the_window(argv):
    # chains headed above n are found from their entry points into
    # [1, n], so no table or head scan grows with the shifts
    code, out, err, cpu, _ = run_capped(*SHIFTED_VERIFY, *argv)
    assert code == 0, err
    assert json.loads(out)["pass"] is True
    assert cpu < 1.0


def test_verify_peak_rss_does_not_grow_with_the_shift():
    rss = [run_capped(*SHIFTED_VERIFY, f"--delta={d}", "--n=10")[4]
           for d in (-10**5, -10**11)]
    assert abs(rss[0] - rss[1]) < 5 * 1024, rss


def test_verify_shift_past_the_lane_bound_is_invalid_input():
    # the predecessors of the chains entering [1, 10] lie near 10^20
    code, out, err, _, _ = run_capped(*SHIFTED_VERIFY, f"--delta=-{10**20}",
                                      "--n=10")
    assert code == 2 and out == ""
    assert err.startswith("invalid input: ") and "2^62" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "--alpha=2", "--gamma=3", "--matrix=11;10",
     "--n=1000000000000"],
    ["densities", "--alpha=2", "--gamma=3", "--mode=empirical",
     "--n=1000000000000"],
])
def test_window_past_the_memory_cap_is_invalid_input(argv):
    # the tables of [1, 10^12] do not fit under the child's 2 GiB cap:
    # exit 2, not the code of a failed check
    code, out, err, _, _ = run_capped(*argv)
    assert code == 2 and out == ""
    assert err.startswith("invalid input: ") and "memory" in err
    assert "Traceback" not in err


def test_horizon_does_not_size_the_tallies():
    # the class tallies grow with the longest chain, not with the horizon
    argv = ["densities", "--alpha=2", "--gamma=3", "--mode=empirical",
            "--n=100"]
    code, out, err, _, _ = run_capped(*argv, "--horizon=1000000000000")
    assert code == 0, err
    assert out == run_capped(*argv)[1]


def test_verify_skips_product_form_for_chains_leaving_n(capsys):
    # the chain 37 -> 25 -> 1 leaves N at f(1) = -47, so its elements are
    # residual yet constrained: the product form does not apply, and the
    # check is skipped instead of rejecting the input
    code, out = run_cli(
        capsys, "verify", "--alpha=3/2", "--gamma=3", "--delta=-50",
        "--matrix=11;10", "--n=300",
    )
    assert code == 0
    status = {c["name"]: c["status"] for c in json.loads(out)["checks"]}
    assert status == {"oracle-equality": "SKIPPED", "partition": "PASS",
                      "chain-product-consistency": "SKIPPED"}


def test_verify_counts_past_int_str_digit_limit(capsys):
    # the golden-mean count on [1, 24000] has more than 4300 digits
    code, out = run_cli(
        capsys, "verify", "--alpha", "2", "--gamma", "3",
        "--matrix", "11;10", "--n", "24000",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"] is True
    detail = {c["name"]: c["detail"] for c in rep["checks"]}
    prod, dp = detail["chain-product-consistency"].split()
    assert len(prod) > 4300 and prod.split("=")[1] == dp.split("=")[1]


def test_densities_large_negative_shift(capsys):
    # the sequence S(2, -10^11) starts at k = 5*10^10: the scan must not
    # step (or allocate) through the k with non-positive values
    code, out = run_cli(
        capsys, "densities", "--alpha", "2", "--beta=-100000000000",
        "--gamma", "3", "--mode", "empirical", "--n", "1000",
    )
    assert code == 0
    assert json.loads(out)["region"]


def test_densities_modes(capsys):
    code, out = run_cli(
        capsys, "densities", "--alpha", "2", "--beta", "0", "--gamma", "3",
        "--delta", "0", "--mode", "both", "--n", "20000",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["region"] == "R10"
    assert rep["closed"]["finite"][0] == "1/3"
    assert rep["max_abs_gap"] < 5e-3


def test_densities_csv(capsys):
    code, out = run_cli(
        capsys, "densities", "--alpha", "2", "--beta", "0", "--gamma", "4",
        "--delta", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,value"
    assert lines[1] == "1,1/2"
    assert lines[-1] == "inf,1/4"


def test_exit_code_on_bad_input(capsys):
    assert main(["classify", "--alpha", "zebra", "--gamma", "2"]) == 2
    capsys.readouterr()
    assert main(["dim", "--alpha", "1", "--gamma", "2",
                 "--matrix", "12;10"]) == 2
    capsys.readouterr()
    assert main(["classify", "--alpha", "3", "--gamma", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("matrix,start", [("01;00", 2), ("010;001;000", 3)])
def test_dim_nilpotent_matrix_is_invalid_input(capsys, matrix, start):
    # |A^l| = 0 from l = m on, where the Minkowski series has weight
    assert main(["dim", "--alpha", "2", "--gamma", "3",
                 "--matrix", matrix]) == 2
    err = capsys.readouterr().err
    assert err == (f"invalid input: matrix is nilpotent: |A^l| = 0 for "
                   f"l >= {start}, so log_m |A^l| is undefined\n")


@pytest.mark.parametrize("argv", [
    ["dim", f"--alpha={10**20}", f"--gamma={10**20 + 1}", "--matrix=11;10"],
    ["densities", f"--alpha={10**20}", f"--gamma={10**20 + 1}",
     "--mode=empirical", "--n=100"],
    ["dim", "--alpha=sqrt(2)", f"--gamma=sqrt(2)+1/{10**20}",
     "--matrix=11;10"],
    ["dim", f"--alpha={10**20}", f"--gamma={10**20 + 1}", "--matrix=11;10",
     "--which=hausdorff"],
])
def test_ratio_that_rounds_to_one_is_a_numeric_failure(capsys, argv):
    # alpha < gamma holds exactly, but gamma/alpha rounds to 1 in float64:
    # the input is valid, so this is a numeric failure (3), not exit 2
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numeric failure: ") and "rounds to 1" in err
    assert "Traceback" not in err


def test_undecidable_order_is_invalid_input(capsys):
    # alpha = gamma written as two radicand sums: the exact comparison
    # finds them equal, so alpha < gamma fails (2)
    assert main(["classify", "--alpha", "sqrt(2)+sqrt(3)",
                 "--gamma", "sqrt(3)+sqrt(2)"]) == 2
    err = capsys.readouterr().err
    assert err == "invalid input: parameters must satisfy alpha < gamma\n"


@pytest.mark.parametrize("alpha,gamma,code", [
    ("1+sqrt(2)", "sqrt(2)+1", 2),  # alpha = gamma in one field
    ("sqrt(2)-2/5", "3", 0),  # alpha - 1 = sqrt(2) - 7/5, terms of either sign
    # a gap of about 7e-12 in either order
    ("sqrt(2)", "141421356238/100000000000", 0),
    ("141421356238/100000000000", "sqrt(2)", 2),
])
def test_order_checks_near_ties(capsys, alpha, gamma, code):
    # the exact sign tests of alpha >= 1 and alpha < gamma decide each
    # case (alpha = 1 itself is accepted in test_dim_kps)
    assert main(["classify", f"--alpha={alpha}", f"--gamma={gamma}"]) == code
    out, err = capsys.readouterr()
    if code:
        assert err == "invalid input: parameters must satisfy alpha < gamma\n"
    else:
        assert json.loads(out)["region"] and err == ""


def test_more_than_four_radicands_is_invalid_input(capsys):
    t0 = time.perf_counter()
    code = main(["classify", "--alpha", "sqrt(2)+sqrt(3)", "--beta",
                 "sqrt(5)", "--gamma", "sqrt(7)+sqrt(11)"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert capsys.readouterr().err == (
        "invalid input: the parameters use 5 distinct square-free radicands; "
        "at most 4 are supported\n")
    # four radicands (sqrt(8) is 2*sqrt(2)) are accepted
    code, out = run_cli(capsys, "classify", "--alpha", "sqrt(2)+sqrt(3)",
                        "--beta", "sqrt(5)-sqrt(8)", "--gamma",
                        "sqrt(7)+sqrt(3)")
    assert code == 0 and json.loads(out)["region"] == "Unknown"


def test_multi_radicand_inclusion_scans_fast(capsys):
    # gamma = 2*alpha exactly, with alpha of two radicands: the inclusion
    # certificate proves every chain of length 2 or more infinite, so
    # d = (1 - 1/alpha, 0, ...) and d_inf = 1/alpha - 1/gamma
    n = 20000
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "densities", "--alpha", "sqrt(2)+sqrt(3)",
                        "--gamma", "2*sqrt(2)+2*sqrt(3)", "--mode",
                        "empirical", "--n", str(n))
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    rep = json.loads(out)
    alpha = 2**0.5 + 3**0.5
    tol = 2 / n**0.5
    assert rep["region"] == "Unknown"
    assert abs(rep["d"]["finite"][0] - (1 - 1 / alpha)) < tol
    assert all(v == 0 for v in rep["d"]["finite"][1:])
    assert abs(rep["d"]["d_inf"] - (1 / alpha - 1 / (2 * alpha))) < tol


def test_classify_large_rational_numerators(capsys):
    # alpha = 4997/1000, gamma = 1543/100: coprime numerators, so g = 1
    # and the residue count takes O(a + c) steps, not b*d = 7.7e6
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "classify", "--alpha", "4.997",
                        "--gamma", "15.43")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    rep = json.loads(out)
    d1 = (1 - Fraction(1000, 4997)) * (1 - Fraction(100, 1543))
    assert rep["d"]["finite"][0] == str(d1)
    assert rep["d"]["d_inf"] == "0"


def test_classify_large_distinct_radicands(capsys):
    # sqrt(d1)*sqrt(d2) is built from gcd(d1, d2): no trial division of
    # d1*d2 ~ 1e18
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "classify", "--alpha", "sqrt(1000000007)",
                        "--gamma", "sqrt(1000000009)")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    assert json.loads(out)["region"] == "R4"


def test_classify_long_alpha_denominator(capsys):
    # alpha = 100001/100000: residue_set takes 10^5 integer floors from
    # one closure
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "classify", "--alpha", "1.00001",
                        "--gamma", "3")
    assert time.perf_counter() - t0 < 5.0
    assert code == 0
    rep = json.loads(out)
    d1 = (1 - Fraction(100000, 100001)) * (1 - Fraction(1, 3))
    assert rep["d"]["finite"][0] == str(d1)
    assert rep["d"]["d_inf"] == "0"


def test_classify_past_float_overflow(capsys):
    # sqrt(2)**i leaves the float range near i = 2048: the R4 entries
    # past it come out finite and decreasing, and those before it keep
    # their bits
    code, out = run_cli(capsys, "classify", "--alpha", "sqrt(2)",
                        "--gamma", "sqrt(3)", "--K", "2048")
    assert code == 0
    finite = json.loads(out)["d"]["finite"]
    assert len(finite) == 2048
    assert all(0 <= b <= a for a, b in zip(finite, finite[1:]))
    # d_2048 = d_2047 / sqrt(2), near 1e-309
    assert abs(finite[-1] * 2 ** 0.5 / finite[-2] - 1) < 1e-9
    code, out = run_cli(capsys, "classify", "--alpha", "sqrt(2)",
                        "--gamma", "sqrt(3)", "--K", "2000")
    assert code == 0
    assert json.loads(out)["d"]["finite"] == finite[:2000]
    code, out = run_cli(capsys, "dim", "--alpha", "sqrt(2)", "--gamma",
                        "sqrt(3)", "--matrix", "11;10", "--K", "2100")
    assert code == 0
    assert json.loads(out)["region"] == "R4"


def test_classify_density_past_digit_limit(capsys):
    # the K = 2500 entries of (2, 0, 3, 0) have denominators of about 750
    # digits, past a lowered int-to-str limit of 640
    argv = ("classify", "--alpha", "2", "--gamma", "3", "--K", "2500")
    code, want = run_cli(capsys, *argv)
    assert code == 0
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out = run_cli(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    assert out == want
    assert max(len(v) for v in json.loads(out)["d"]["finite"]) > 640


@pytest.mark.parametrize("shift", ["--beta", "--delta"])
def test_densities_shift_past_int64(capsys, shift):
    # member indices near 10^30: the certificate declines instead of
    # overflowing the int64 lanes of its period check
    code, out = run_cli(capsys, "densities", "--alpha", "3/2", "--gamma", "3",
                        f"{shift}=-{10**30}", "--mode", "empirical",
                        "--n", "3000")
    assert code == 0
    d = json.loads(out)["d"]
    assert 0 <= sum(d["finite"]) + d["d_inf"] <= 1


@pytest.mark.parametrize("shift", ["--beta", "--delta"])
def test_densities_surd_shift_past_int64(capsys, shift):
    # first_k of sqrt(2)*k - 10^30 comes from an enclosure narrower than 1,
    # not from stepping across the 2^-64 enclosure of sqrt(2) times 10^30
    code, out = run_cli(capsys, "densities", "--alpha", "sqrt(2)",
                        "--gamma", "2+sqrt(2)", f"{shift}=-{10**30}",
                        "--mode", "empirical", "--n", "1000")
    assert code == 0
    d = json.loads(out)["d"]
    assert 0 <= sum(d["finite"]) + d["d_inf"] <= 1


@pytest.mark.parametrize("shift", ["--beta", "--delta"])
def test_densities_positive_shift_past_int64(capsys, shift):
    # values near 10^30: the membership table of that sequence on [1, n]
    # is empty, and no floor of it enters an int64 lane
    code, out = run_cli(capsys, "densities", "--alpha", "3/2", "--gamma", "3",
                        f"{shift}={10**30}", "--mode", "empirical",
                        "--n", "3000")
    assert code == 0
    d = json.loads(out)["d"]
    assert 0 <= sum(d["finite"]) + d["d_inf"] <= 1


# one step of gamma passes 2^63 while floor(gamma + delta) = 5 is inside
# the window
STEP_PAST_INT64 = ["--alpha", "2", "--gamma", "10000000000000000000*sqrt(2)",
                   "--delta=5-10000000000000000000*sqrt(2)", "--n", "100"]


@pytest.mark.parametrize("argv", [
    ["densities", "--mode", "empirical", *STEP_PAST_INT64],
    ["verify", *STEP_PAST_INT64, "--matrix", "11;10"],
], ids=["densities", "verify"])
def test_step_past_int64(capsys, argv):
    # no lane past the last member of S(gamma, delta) on the window is
    # evaluated, so no floor leaves int64
    code = main(argv)
    captured = capsys.readouterr()
    assert 0 <= code <= 3
    assert "Traceback" not in captured.err


# gamma/alpha = 5 * 10^399 is past the float range
RATIO_PAST_FLOAT = ["--alpha", "2", "--gamma", "1" + "0" * 400]


@pytest.mark.parametrize("argv", [
    ["dim", *RATIO_PAST_FLOAT, "--matrix", "11;10"],
    ["densities", "--mode", "empirical", *RATIO_PAST_FLOAT, "--n", "100"],
    ["verify", *RATIO_PAST_FLOAT, "--matrix", "11;10"],
], ids=["dim", "densities", "verify"])
def test_ratio_past_float_range(capsys, argv):
    # alpha/gamma comes from the exact quotient (it underflows to 0) and
    # log(gamma/alpha) from the exact numerator and denominator
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err


# Z = 10^400: gamma past the float range in a surd region
_Z = "1" + "0" * 400
GAMMA_PAST_FLOAT = {
    "R1": ["--alpha", "1", "--gamma", f"{_Z}*sqrt(2)"],
    "R3": ["--alpha", "sqrt(2)", "--gamma", _Z],
    "R4": ["--alpha", "sqrt(2)", "--gamma", f"{_Z}*sqrt(3)"],
}


@pytest.mark.parametrize("command", [
    ["classify"], ["dim", "--matrix", "11;10"]], ids=["classify", "dim"])
@pytest.mark.parametrize("region", sorted(GAMMA_PAST_FLOAT))
def test_closed_form_with_gamma_past_float(capsys, command, region):
    # the closed forms take 1/gamma from the exact reciprocal where gamma
    # itself does not fit a float
    code = main([*command, *GAMMA_PAST_FLOAT[region]])
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    assert json.loads(captured.out)["region"] == region


def test_scan_with_a_certificate_past_int64(capsys):
    # gamma = 10^400 * alpha (R6Open): the inclusion certificate starts
    # near 10^400, and every chain stops there after one step instead of
    # walking to twice the horizon through floors of 400*j digits
    t0 = time.perf_counter()
    code = main(["densities", "--alpha", "sqrt(2)", "--gamma",
                 f"{_Z}*sqrt(2)", "--mode", "empirical", "--n", "3000"])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert code == 0
    assert "Traceback" not in captured.err
    d = json.loads(captured.out)["d"]
    assert d["finite"][1:] == [0.0] * 39
    assert abs(d["d_inf"] - (1 - d["finite"][0])) < 1e-12
    assert elapsed < 20


def test_dim_mode_both(capsys):
    code, out = run_cli(
        capsys, "dim", "--alpha", "2", "--beta", "0", "--gamma", "3",
        "--delta", "0", "--matrix", "11;10", "--mode", "both", "--n", "20000",
    )
    assert code == 0
    rep = json.loads(out)
    assert set(rep) == {"closed", "empirical"}
    gap = abs(rep["closed"]["dim_H"]["value"] - rep["empirical"]["dim_H"]["value"])
    assert gap < 5e-3


def test_densities_empirical_mode(capsys):
    code, out = run_cli(
        capsys, "densities", "--alpha", "2", "--beta", "0", "--gamma", "3",
        "--delta", "0", "--mode", "empirical", "--n", "30000",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["exact"] is False
    assert abs(rep["d"]["finite"][0] - 1 / 3) < 5e-3


def test_report_byte_stability(capsys):
    args = ["dim", "--alpha", "2", "--beta", "0", "--gamma", "3",
            "--delta", "0", "--matrix", "11;10"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run_cli(
        capsys, "classify", "--alpha", "1", "--beta", "0", "--gamma", "2",
        "--delta", "0", "--out", str(path),
    )
    assert code == 0 and out == ""
    rep = json.loads(path.read_text())
    assert rep["region"] == "R7"


def test_empirical_mode_open_region(capsys):
    code, out = run_cli(
        capsys, "densities", "--alpha", "sqrt(2)", "--beta", "0",
        "--gamma", "3*sqrt(2)", "--delta", "0", "--n", "20000",
    )
    assert code == 0
    rep = json.loads(out)
    assert rep["region"] == "R6Open"
    assert rep["exact"] is False
    # alpha = sqrt(2), gamma/alpha = 3: heads are ~ the left sequence mass
    assert abs(rep["d"]["finite"][0]) < 0.35


def test_densities_rejects_non_positive_horizon(capsys):
    code = main(["densities", "--alpha", "2", "--gamma", "3", "--mode",
                 "empirical", "--n", "100", "--horizon=-3"])
    assert code == 2
    assert "horizon must be >= 1" in capsys.readouterr().err


def test_verify_rejects_non_positive_horizon(capsys):
    code, _ = run_cli(
        capsys, "verify", "--alpha", "2", "--gamma", "3", "--matrix", "11;10",
        "--n", "10", "--horizon=-1",
    )
    assert code == 2



@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "sqrt(2)", "--gamma", "3*sqrt(2)",
     "--search-bound", "5"],
    ["dim", "--alpha", "2", "--gamma", "3", "--matrix", "11;10",
     "--seed", "1"],
])
def test_removed_flags_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


NEAR_ONE_ARGV = ["dim", "--alpha", "501/500", "--gamma", "251/250",
                 "--matrix", "10011111;11011000;11110101;10110101;"
                             "11111110;10110101;10101010;11000111",
                 "--which", "hausdorff"]


def test_dim_near_one_closes_before_the_transfer_sums_overflow(capsys):
    # alpha/gamma = 501/502 with an 8x8 primitive matrix: the bracket of
    # the remaining terms closes long before T(i) passes the float range;
    # 0.8023567432684916 is the full series summed in log space
    assert main(NEAR_ONE_ARGV) == 0
    dim_h = json.loads(capsys.readouterr().out)["dim_H"]
    assert abs(dim_h["value"] - 0.8023567432684916) <= dim_h["err"]


def test_dim_overflowing_transfer_sums_is_a_numeric_failure(capsys,
                                                            monkeypatch):
    # without the bracket the recursion runs to its full N, the transfer
    # sums T(i) pass the float range, and the report would read NaN
    monkeypatch.setattr(dims, "BRACKET_TOL", 0.0)
    code = main(NEAR_ONE_ARGV)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("numeric failure: Hausdorff series left the "
                            "float range: the transfer sums T(i) overflow\n")


def test_emit_rejects_a_non_finite_report():
    args = build_parser().parse_args(["classify", "--alpha", "2",
                                      "--gamma", "3"])
    with pytest.raises(FloatingPointError):
        cli._emit({"value": float("nan")}, args)


def test_solver_step_cap_is_a_numeric_failure(capsys, monkeypatch):
    # d_inf = 1/4 > 0 for (2, 0, 4, 2), so the Hausdorff value needs t*
    monkeypatch.setattr(dims, "SOLVER_MAX_STEPS", 0)
    with pytest.raises(NonConvergence):
        dims.solve_t(GOLDEN_MEAN, 2)
    code = main(["dim", "--alpha", "2", "--gamma", "4", "--delta", "2",
                 "--matrix", "11;10"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == ("numeric failure: t-solver certificate still "
                            "shrinking after 0 steps\n")

@pytest.mark.parametrize("eps", ["-1", "0", "nan", "inf"])
def test_dim_rejects_bad_eps(capsys, eps):
    code, _ = run_cli(
        capsys, "dim", "--alpha", "2", "--gamma", "3", "--matrix", "11;10",
        f"--eps={eps}",
    )
    assert code == 2


def test_dim_empty_row(capsys):
    # d_2 > 0 for (2, 0, 3, 0): T(2) needs every row of A nonempty
    code = main(["dim", "--alpha", "2", "--gamma", "3", "--matrix", "11;00"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "invalid input: matrix has an empty row" in captured.err


VERIFY = ["verify", "--alpha", "3/2", "--gamma", "3", "--matrix", "11;10",
          "--n", "18"]
DIM = ["dim", "--alpha", "2", "--gamma", "3", "--matrix", "11;10",
       "--n", "500", "--which", "minkowski"]
CLASSIFY = ["classify", "--alpha", "2", "--gamma", "4", "--delta", "2"]
REJECTED = ["verify", "--alpha", "2", "--matrix", "11;10"]  # no --gamma
INVALID = ["verify", "--alpha", "zebra", "--gamma", "3", "--matrix", "11;10"]


def _call(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the argv
        code = exc.code
    return code, capsys.readouterr().out


def _fresh(capsys, argv):
    """Exit code and stdout of a call on a newly built parser."""
    build_parser.cache_clear()
    return _call(capsys, argv)


def test_parser_is_built_once():
    build_parser.cache_clear()
    assert build_parser() is build_parser()


@pytest.mark.parametrize("sequence, codes", [
    ([VERIFY, VERIFY], [0, 0]),
    ([VERIFY, DIM, CLASSIFY, VERIFY], [0, 0, 0, 0]),
    ([REJECTED, VERIFY, DIM], [2, 0, 0]),
    ([INVALID, VERIFY, CLASSIFY], [2, 0, 0]),
], ids=["verify-twice", "verify-dim-classify-verify", "after-rejection",
        "after-invalid-input"])
def test_reused_parser_matches_fresh_calls(capsys, sequence, codes):
    fresh = [_fresh(capsys, argv) for argv in sequence]
    assert [code for code, _ in fresh] == codes
    build_parser.cache_clear()
    assert [_call(capsys, argv) for argv in sequence] == fresh


@pytest.mark.parametrize("argv", [
    ["classify", "--alpha", "2", "--gamma", "3", "--matrix", "nonsense"],
    ["densities", "--alpha", "2", "--gamma", "3", "--matrix", "11;10"],
    [*VERIFY, "--K", "5"],
    [*VERIFY, "--format", "json"],
    [*VERIFY, "--format", "csv"],
], ids=["classify-matrix", "densities-matrix", "verify-K", "verify-format",
        "verify-csv"])
def test_flags_a_subcommand_does_not_read_are_rejected(capsys, argv):
    # argparse rejects them before any check runs: exit 2, no report
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


def _flag_count():
    """Option flags over all subcommands, --help left out."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return sum(bool(a.option_strings) and a.dest != "help"
               for sp in sub.choices.values() for a in sp._actions)


def test_cli_flag_count():
    assert _flag_count() == 38
