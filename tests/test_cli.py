import csv
import dataclasses
import hashlib
import importlib
import json
import math
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import corrpois
from corrpois import (
    build_phi_nu,
    c_constant,
    d2_exact_product,
    equal_probs,
    fit_rate,
    poisson_binomial_pmf,
    poisson_pmf,
    spec_phi2,
    spec_poisson,
    tv,
)
from corrpois import cli

from conftest import random_prob_vectors


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "corrpois", *args],
                          capture_output=True, text=True, **kwargs)


@pytest.fixture
def probs_file(tmp_path):
    f = tmp_path / "three.txt"
    f.write_text("0.1\n0.2\n0.3\n")
    return str(f)


class TestPmfCommand:
    def test_binomial_order2_matches_library(self):
        r = run_cli("pmf", "--binomial", "10", "1", "--order", "2")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        want = build_phi_nu(spec_phi2(equal_probs(10, 1.0)))
        assert payload["label"] == "phi2"
        assert payload["support_max"] == want.pmf.support_max
        assert np.allclose(payload["mass"], want.pmf.mass, rtol=1e-15)

    def test_probs_file_order1_is_poisson(self, probs_file):
        r = run_cli("pmf", "--probs", probs_file, "--order", "1")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        pois = poisson_pmf(0.6, payload["support_max"])
        assert np.allclose(payload["mass"], pois.mass, rtol=1e-12)

    def test_order_zero_is_exact_distribution(self, probs_file):
        r = run_cli("pmf", "--probs", probs_file, "--order", "0")
        payload = json.loads(r.stdout)
        assert payload["label"] == "poisson-binomial"
        assert payload["support_max"] == 3
        assert payload["mass"][0] == pytest.approx(0.504, rel=1e-14)

    def test_mean_exceeding_n_is_domain_error(self):
        r = run_cli("pmf", "--binomial", "4", "5")
        assert r.returncode == 3
        assert "error" in r.stderr

    def test_bad_file_is_input_error(self, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("0.5\n1.5\n")
        r = run_cli("pmf", "--probs", str(f))
        assert r.returncode == 2
        r = run_cli("pmf", "--probs", str(tmp_path / "missing.txt"))
        assert r.returncode == 2

    def test_zero_mean_with_correction_is_domain_error(self, tmp_path):
        f = tmp_path / "zeros.txt"
        f.write_text("0.0\n0.0\n")
        r = run_cli("pmf", "--probs", str(f), "--order", "2")
        assert r.returncode == 3

    def test_tiny_mean_with_correction_is_domain_error(self, tmp_path):
        f = tmp_path / "tiny.txt"
        f.write_text("1e-200\n")
        r = run_cli("pmf", "--probs", str(f), "--order", "2")
        assert r.returncode == 3
        assert r.stderr.startswith("error: mean 1e-200 too small for order 2")

    def test_unequal_probabilities_order5(self, probs_file):
        r = run_cli("pmf", "--probs", probs_file, "--order", "5")
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["label"] == "phi5"
        assert abs(math.fsum(payload["mass"]) - 1.0) <= payload["tail_bound"] + 1e-12

    def test_rounding_of_a_large_kernel_is_bounded(self):
        # sum |c_i| = 1.2e5: the rounding of the masses, not their truncation,
        # keeps the sum off 1, and the recorded bound must cover it
        r = run_cli("pmf", "--binomial", "507", "85.61372097324887", "--order", "6")
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert abs(math.fsum(payload["mass"]) - 1.0) <= payload["tail_bound"]

    @pytest.mark.parametrize("lam,order", [("728", "2"), ("735", "1"), ("740", "1"),
                                           ("800", "1")])
    def test_means_where_exp_underflows(self, lam, order):
        r = run_cli("pmf", "--binomial", "2000", lam, "--order", order)
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert abs(math.fsum(payload["mass"]) - 1.0) <= payload["tail_bound"]

    def test_mean_from_1416_is_domain_error(self):
        r = run_cli("pmf", "--binomial", "3000", "1416", "--order", "1")
        assert r.returncode == 3
        assert "1416" in r.stderr

    def test_json_array_file(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text("[0.1, 0.2, 0.3]")
        r = run_cli("pmf", "--probs", str(f), "--order", "0")
        assert r.returncode == 0
        assert json.loads(r.stdout)["support_max"] == 3

    def test_json_integer_beyond_binary64_is_input_error(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(f"[{10**400}]")
        r = run_cli("pmf", "--probs", str(f), "--order", "0")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: JSON probability file holds an integer beyond binary64: {f}\n"

    def test_unknown_flag_rejected(self):
        r = run_cli("pmf", "--binomial", "4", "1", "--bogus")
        assert r.returncode == 2

    def test_csv_format(self):
        r = run_cli("pmf", "--binomial", "4", "1", "--order", "0", "--format", "csv")
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "k,mass"
        assert len(lines) == 6


class TestDistanceCommand:
    def test_exact_product_route(self):
        r = run_cli("distance", "--metric", "d2", "--binomial", "16", "1",
                    "--order", "2", "--exact")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["method"] == "exact-product"
        want = d2_exact_product(equal_probs(16, 1.0), spec_phi2(equal_probs(16, 1.0)))
        assert payload["value"] == pytest.approx(want.value, rel=1e-15)

    def test_tv_with_order3(self, probs_file):
        r = run_cli("distance", "--metric", "tv", "--probs", probs_file, "--order", "3")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["method"] == "pointwise"
        assert 0 < payload["value"] < 1
        assert payload["truncation_error"] >= 0

    def test_hellinger_refuses_signed_order(self):
        r = run_cli("distance", "--metric", "hellinger", "--binomial", "8", "1",
                    "--order", "2")
        assert r.returncode == 4

    def test_hellinger_poisson_ok(self):
        r = run_cli("distance", "--metric", "hellinger", "--binomial", "8", "1",
                    "--order", "1")
        assert r.returncode == 0

    def test_exact_flag_requires_d2(self, probs_file):
        r = run_cli("distance", "--metric", "tv", "--probs", probs_file, "--exact")
        assert r.returncode == 2

    def test_large_mean_exact_matches_series(self):
        args = ("distance", "--metric", "d2", "--binomial", "400", "100", "--order", "3")
        exact, series = run_cli(*args, "--exact"), run_cli(*args)
        assert exact.returncode == 0 and series.returncode == 0
        value = json.loads(exact.stdout)["value"]
        assert math.isfinite(value)
        assert value == pytest.approx(json.loads(series.stdout)["value"], rel=1e-11)

    def test_large_mean_theorem2_holds(self):
        r = run_cli("bounds", "--check", "theorem2", "--binomial", "400", "100")
        assert r.returncode == 0
        assert json.loads(r.stdout)["all_hold"] is True

    @pytest.mark.parametrize("args", [
        ("--metric", "d2", "--binomial", "1000", "155", "--order", "2"),
        ("--metric", "d2tilde", "--binomial", "60", "30", "--order", "2"),
    ])
    def test_large_mean_moment_series(self, args):
        r = run_cli("distance", *args)
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert math.isfinite(payload["value"])
        assert 0 <= payload["truncation_error"] <= 1e-12 * payload["value"]

    def test_overflow_is_domain_error(self):
        # e^(2 lam) itself leaves binary64 at lam = 450
        r = run_cli("distance", "--metric", "d2", "--binomial", "3000", "450", "--order", "2")
        assert r.returncode == 3
        assert r.stdout == ""
        assert r.stderr.startswith("error: numeric overflow")
        assert len(r.stderr.strip().splitlines()) == 1

    def test_large_mean_masses_need_no_moments(self):
        p = equal_probs(1000, 400.0)
        r = run_cli("pmf", "--binomial", "1000", "400", "--order", "2")
        assert r.returncode == 0
        assert json.loads(r.stdout)["mass"] == build_phi_nu(spec_phi2(p)).pmf.mass.tolist()
        r = run_cli("distance", "--metric", "tv", "--binomial", "1000", "400", "--order", "1")
        assert r.returncode == 0
        want = tv(poisson_binomial_pmf(p), build_phi_nu(spec_poisson(p.lam)).pmf)
        assert json.loads(r.stdout)["value"] == want.value

    def test_seventeen_digit_floats(self):
        r = run_cli("distance", "--metric", "d2", "--binomial", "16", "1",
                    "--order", "2", "--exact")
        raw = re.search(r'"value": ([^,]+),', r.stdout).group(1)
        assert raw == format(float(raw), ".17g")


class TestBoundsCommand:
    def test_theorem2_all_hold(self):
        r = run_cli("bounds", "--check", "theorem2", "--binomial", "20", "1")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["all_hold"] is True

    def test_sandwich_report_count(self, probs_file):
        r = run_cli("bounds", "--check", "sandwich", "--probs", probs_file,
                    "--mmax", "15")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert len(payload["reports"]) == 30

    def test_lower3(self, probs_file):
        r = run_cli("bounds", "--check", "lower3", "--probs", probs_file,
                    "--mmax", "10")
        payload = json.loads(r.stdout)
        assert len(payload["reports"]) == 10
        assert payload["all_hold"] is True

    def test_sandwich_rows_do_not_depend_on_the_cut(self, tmp_path):
        # the rows of m = 1..3 at --mmax 3 and --mmax 25 for n = 26, all but
        # the digest, which hashes mmax
        f = tmp_path / "p.txt"
        f.write_text("\n".join(map(repr, random_prob_vectors(50)[0].probs)) + "\n")
        rows = []
        for mmax in ("3", "25"):
            r = run_cli("bounds", "--check", "sandwich", "--probs", str(f), "--mmax", mmax,
                        "--format", "csv")
            assert (r.returncode, r.stderr) == (0, "")
            rows.append([line.rsplit(",", 1)[0] for line in r.stdout.splitlines()[1:7]])
        assert [row.split(",", 1)[0] for row in rows[0]] == [
            f"mu-{side}[m={m}]" for m in (1, 2, 3) for side in ("lower2", "upper3")]
        assert rows[0] == rows[1]

    def test_theta_single(self, probs_file):
        r = run_cli("bounds", "--check", "theta", "--probs", probs_file,
                    "--j", "1", "--m", "3", "--s", "2")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["reports"][0]["rhs"] >= 0

    def test_theta_sweep(self, probs_file):
        r = run_cli("bounds", "--check", "theta", "--probs", probs_file)
        payload = json.loads(r.stdout)
        assert payload["reports"][0]["name"].startswith("theta-min")
        assert payload["all_hold"] is True

    def test_remark2_limit(self):
        r = run_cli("bounds", "--check", "remark2", "--lambda", "1")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        limit = math.exp(-1) / 8
        assert payload["limit"] == pytest.approx(limit, rel=1e-12)
        assert abs(payload["n2_scaled_last"] - limit) <= 0.05 * limit

    def test_classic(self, probs_file):
        r = run_cli("bounds", "--check", "classic", "--probs", probs_file)
        assert r.returncode == 0

    def test_missing_input(self):
        r = run_cli("bounds", "--check", "theorem2")
        assert r.returncode == 2


class TestGammaTableCommand:
    def test_order_three_values(self):
        r = run_cli("gamma-table", "--nu", "3")
        payload = json.loads(r.stdout)
        assert payload["gamma"]["2"] == [[1, "1/2"]]
        assert payload["gamma"]["3"] == [[2, "-1/3"]]
        assert payload["gamma"]["4"] == [[2, "-1/8"]]

    def test_order_two_single_entry(self):
        r = run_cli("gamma-table", "--nu", "2")
        payload = json.loads(r.stdout)
        assert list(payload["gamma"]) == ["2"]

    def test_compare_paper_reports_misprint(self):
        r = run_cli("gamma-table", "--nu", "7", "--compare-paper")
        payload = json.loads(r.stdout)
        mism = payload["comparison"]["mismatches"]
        assert len(mism) == 1
        assert mism[0]["published"] == "17/388"
        assert mism[0]["computed"] == "17/288"

    @pytest.mark.parametrize("nu, compare, digest", [
        (2, False, "6c28ee80d4c21cfe4634ceeea49db6830fe35e4688a68a9614058d85e2945de0"),
        (2, True, "f547f64f63cfef43596a322ef66a8a6726babebba5784c07f6b9f99a4d41eb77"),
        (3, False, "bcbd4713b9c3b89f451f6459e89353adb4cb7eb48ffcbb953af60e97c02df09d"),
        (3, True, "ed2bca306c2777546f7b38afc8567f7d8c36c145bd630ca20191aeccd14dbe2e"),
        (4, False, "3ffabaa0f72b781e65f1b334b8439c8ecb3ed976e5eda47345ff710b548f0ecb"),
        (4, True, "3d40fc1e0e3b9f1700fcd54779e1b34bd8a06509d971ae18e8e333de8fa71d79"),
        (5, False, "9c15ebf106747efef27ef9a03140253fc899e4dd190d7c3b689fe00ff61f2f8a"),
        (5, True, "996c5d75a85d00b17f3eb4160066567f443f782812d62e4c79370f9b85ca0ee0"),
        (6, False, "329ac07d3eb49b3e89f80911ea1e3be285f2bde1db5be0ee4426f8f71d5271d1"),
        (6, True, "548ec061aaf6047c93d1bf328823dc8a340e5e5fce14d7b201f9c2b4545fee1c"),
        (7, False, "d75c65085c500a354d6ebef4af9c17b9c0b1783eb384ed9138e04f0d7a6088ae"),
        (7, True, "d5a7d68bd806367ba8d216100d838340629dc56d0fdc4db335c99851e2e14f1c"),
        (8, False, "62fe18b8113522580d320c750f0de23f62c9df9f8475dfd2ccd851ec79294a2a"),
        (8, True, "44c77dce30cc45e3ffd4fc74fc4de4908b824e2b1c76539a89007dbd1176fd6f"),
    ])
    def test_stdout_pinned(self, nu, compare, digest):
        r = run_cli("gamma-table", "--nu", str(nu), *(["--compare-paper"] if compare else []))
        assert (r.returncode, r.stderr) == (0, "")
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest

    def test_out_of_range(self):
        assert run_cli("gamma-table", "--nu", "9").returncode == 2


class TestQpolyCommand:
    def test_first_polynomial(self):
        payload = json.loads(run_cli("qpoly", "--nu", "1").stdout)
        assert payload["coefficients"] == ["4/3", "1"]

    def test_third_polynomial(self):
        payload = json.loads(run_cli("qpoly", "--nu", "3").stdout)
        assert payload["coefficients"] == ["16/5", "52/9", "8/3", "1/3"]

    def test_constant_evaluation(self):
        payload = json.loads(run_cli("qpoly", "--nu", "0", "--lambda", "1").stdout)
        assert payload["coefficients"] == ["1"]
        assert payload["c_order"] == 1
        assert payload["c_value"] == pytest.approx(math.e**2, rel=1e-12)


class TestScanCommand:
    def test_rate_scan_slopes(self):
        r = run_cli("scan", "--lambda", "1", "--n-grid", "8,16,32,64,128",
                    "--orders", "1,2,3", "--metric", "d2")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "n,order,distance,bound"
        fits = json.loads(lines[-1])["fits"]
        slopes = {f["order"]: f["slope"] for f in fits}
        assert slopes[1] == pytest.approx(-1.0, abs=0.2)
        assert slopes[2] == pytest.approx(-2.0, abs=0.2)
        assert slopes[3] == pytest.approx(-3.0, abs=0.2)

    def test_distances_respect_printed_bound(self):
        r = run_cli("scan", "--lambda", "0.5", "--n-grid", "8,16,32,64",
                    "--orders", "4", "--metric", "d2")
        lines = r.stdout.strip().splitlines()
        for line in lines[1:-1]:
            _, _, dist, bound = line.split(",")
            assert float(dist) <= float(bound)

    def test_row_equals_distance_command(self):
        scan = run_cli("scan", "--lambda", "1.7", "--n-grid", "20,40,80", "--orders", "5")
        assert scan.returncode == 0
        row = scan.stdout.splitlines()[3]
        assert row.startswith("80,5,")
        r = run_cli("distance", "--metric", "d2", "--exact", "--binomial", "80", "1.7",
                    "--order", "5")
        assert row.split(",")[2] == re.search(r'"value": ([^,]+),', r.stdout).group(1)

    @pytest.mark.parametrize("orders", ["9", "0", "2,9"])
    def test_order_outside_range_is_input_error(self, orders):
        r = run_cli("scan", "--lambda", "1", "--n-grid", "8,16,32", "--orders", orders)
        assert r.returncode == 2
        assert "orders 1..8 are supported" in r.stderr
        assert r.stdout == ""

    @pytest.mark.parametrize("command", [("scan", "--orders", "2"),
                                         ("bounds", "--check", "remark2")])
    @pytest.mark.parametrize("grid, reason", [
        ("8,8,16", "grid [8, 8, 16] must hold sizes >= 1 in strictly increasing order"),
        ("16,8,32", "grid [16, 8, 32] must hold sizes >= 1 in strictly increasing order"),
        ("0,8,16", "grid [0, 8, 16] must hold sizes >= 1 in strictly increasing order"),
    ])
    def test_grid_outside_range_is_input_error(self, command, grid, reason):
        # refused before any point is computed
        r = run_cli(*command, "--lambda", "1", "--n-grid", grid)
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == f"error: {reason}\n"

    def test_too_few_points(self):
        r = run_cli("scan", "--lambda", "1", "--n-grid", "4", "--orders", "2")
        assert r.returncode == 5

    def test_remark2_too_few_points(self):
        # every f_n(0) - phi(0) rounds to 0 at this mean, so the fit has no points
        r = run_cli("bounds", "--check", "remark2", "--lambda", "1e-300")
        assert (r.returncode, r.stdout) == (5, "")
        assert r.stderr == "error: fit refused: fewer than 3 usable points\n"

    def test_remark2_negative_difference_is_named(self):
        # f_1(0) - phi(0) = -0.0613 at n = lam is dropped as negative, not underflowed
        r = run_cli("bounds", "--check", "remark2", "--lambda", "1", "--n-grid", "1,10,100,1000")
        assert (r.returncode, r.stderr) == (0, "")
        assert json.loads(r.stdout)["fit"]["note"] == "dropped 1 negative value(s)"

    def test_remark2_grid_below_1000_is_input_error(self):
        r = run_cli("bounds", "--check", "remark2", "--lambda", "1e-300", "--n-grid", "10,100")
        assert (r.returncode, r.stdout) == (2, "")
        assert r.stderr == "error: grid must reach at least 10^3\n"

    def test_rows_and_fits_are_fit_rates(self):
        # the n = 10^5 distance underflows to 0: the fit drops it and notes it,
        # and its row still prints 0
        r = run_cli("scan", "--lambda", "1e-160", "--n-grid", "10,20,40,100000", "--orders", "1",
                    "--metric", "tv")
        assert (r.returncode, r.stderr) == (0, "")
        *table, last = r.stdout.splitlines()
        fits = fit_rate(1e-160, [1], [10, 20, 40, 100000], metric="tv")
        assert last == cli._to_json({"fits": fits})
        assert fits[0].note == "dropped 1 underflowed distance(s)"
        assert table == ["n,order,distance,bound",
                         *(f"{n},1,{cli._fmt_float(d)},{cli._fmt_float(c_constant(1, 1e-160) / n)}"
                           for n, d in zip(fits[0].grid, fits[0].distances)),
                         f"100000,1,0,{cli._fmt_float(c_constant(1, 1e-160) / 100000)}"]

    def test_size_below_twice_the_mean_is_fit_rates_refusal(self):
        with pytest.raises(ValueError) as refusal:
            fit_rate(1.0, [2], [1, 2, 3])
        r = run_cli("scan", "--lambda", "1", "--n-grid", "1,2,3", "--orders", "2")
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == f"error: {refusal.value}\n"

    def test_byte_identical_reruns(self):
        args = ("scan", "--lambda", "1", "--n-grid", "8,16,32", "--orders", "1,3t")
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


@pytest.mark.parametrize("args", [
    ("qpoly", "--nu", "2", "--lambda", "nan"),
    ("qpoly", "--nu", "2", "--lambda", "inf"),
    ("bounds", "--check", "remark2", "--lambda", "-1"),
    ("bounds", "--check", "remark2", "--lambda", "0"),
    ("bounds", "--check", "remark2", "--lambda", "nan"),
    ("bounds", "--check", "remark2", "--lambda", "inf"),
    ("scan", "--lambda", "nan", "--n-grid", "8,16,32", "--orders", "2"),
    ("scan", "--lambda", "inf", "--n-grid", "8,16,32", "--orders", "2"),
])
def test_lambda_must_be_finite_and_positive(args):
    # the timeout makes a runaway series (as a nan mean can start) fail, not hang
    r = run_cli(*args, timeout=60)
    assert r.returncode == 3
    assert r.stdout == ""
    assert len(r.stderr.strip().splitlines()) == 1
    lam = float(args[args.index("--lambda") + 1])
    assert r.stderr == f"error: lam must be finite and positive, got {lam!r}\n"


class TestEdgeInputsPinned:
    """Inputs where the exact layer has nothing to round: stdout byte for byte.
    The masses are exact; a pmf's tail_bound is the tree's bound, read off n."""

    @pytest.mark.parametrize("lines, want", [
        ("0\n0\n0\n", '{"support_max": 0, "mass": [1], "tail_bound": 0, '
                       '"label": "poisson-binomial"}\n'),
        ("1\n1\n0.5\n", '{"support_max": 3, "mass": [0, 0, 0.5, 0.5], '
                         '"tail_bound": 8.8817841970012681e-16, "label": "poisson-binomial"}\n'),
    ])
    def test_pmf_of_a_file(self, tmp_path, lines, want):
        f = tmp_path / "p.txt"
        f.write_text(lines)
        r = run_cli("pmf", "--probs", str(f), "--order", "0")
        assert (r.returncode, r.stdout, r.stderr) == (0, want, "")

    def test_pmf_of_certain_indicators(self):
        r = run_cli("pmf", "--binomial", "5", "5", "--order", "0")
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout == ('{"support_max": 5, "mass": [0, 0, 0, 0, 0, 1], '
                            '"tail_bound": 1.831867990631515e-15, "label": "poisson-binomial"}\n')

    def test_sandwich_of_one_entry(self, tmp_path):
        f = tmp_path / "p.txt"
        f.write_text("0.3\n")
        r = run_cli("bounds", "--check", "sandwich", "--probs", str(f))
        assert (r.returncode, r.stderr) == (0, "")
        assert r.stdout.startswith('{"reports": [{"name": "mu-lower2[m=1]", '
                                   '"lhs": 0.29999999999999999, "rhs": 0.29999999999999999, ')
        digest = hashlib.sha256(r.stdout.encode()).hexdigest()
        assert digest == "1763c4f43ceb06e15267b1ad1644ab95ab1bd659af02ce2a04a768af5e3140c6"

    def test_pmf_at_n_1e5_records_its_rounding(self):
        # the masses sum to 1 + 6.9e-12, within the product tree's proven bound
        r = run_cli("pmf", "--binomial", "100000", "50", "--order", "0")
        assert (r.returncode, r.stderr) == (0, "")
        payload = json.loads(r.stdout)
        assert abs(math.fsum(payload["mass"]) - 1.0) <= payload["tail_bound"] < 2e-10

    def test_overflowing_mean_keeps_its_exit(self):
        r = run_cli("distance", "--metric", "d2", "--binomial", "3000", "450", "--order", "2")
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == ("error: numeric overflow: e^(2 lam) times the moment differences "
                            "exceeds binary64 at the mean lam = 450.0\n")


@pytest.mark.parametrize("args, lam", [
    (("distance", "--metric", "d2", "--exact", "--binomial", "1000", "400", "--order", "2"),
     "400.0"),
    (("distance", "--metric", "d2", "--binomial", "3000", "450", "--order", "2"), "450.0"),
    (("distance", "--metric", "d2tilde", "--binomial", "1000", "400", "--order", "2"), "400.0"),
    (("bounds", "--check", "theorem2", "--binomial", "2000", "400"), "400.0"),
    (("bounds", "--check", "classic", "--binomial", "2000", "400"), "400.0"),
    (("scan", "--lambda", "400", "--n-grid", "1000,2000,4000", "--orders", "2"), "400.0"),
])
def test_overflow_names_e2lam_and_the_mean(args, lam):
    r = run_cli(*args, timeout=120)
    assert (r.returncode, r.stdout) == (3, "")
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith("error: numeric overflow: e^(2 lam) ")
    assert r.stderr.rstrip().endswith(f"at the mean lam = {lam}")


@pytest.mark.parametrize("args", [
    ("--check", "sandwich", "--binomial", "2000", "1000", "--mmax", "110"),
    ("--check", "lower3", "--binomial", "2000", "1000", "--mmax", "400"),
    ("--check", "theta", "--binomial", "2000", "1000", "--j", "0", "--m", "400", "--s", "1"),
])
def test_bound_overflow_names_the_power(args):
    r = run_cli("bounds", *args, timeout=120)
    assert (r.returncode, r.stdout) == (3, "")
    assert len(r.stderr.splitlines()) == 1 and "lam^" in r.stderr


@pytest.mark.parametrize("check, name", [("sandwich", "mu-lower2[m=154]"),
                                         ("lower3", "mu-lower-refined[m=153]")])
def test_overflowed_bound_side_is_refused(check, name):
    # (m)_2/2 l2 lam^(m-2) and the lambda_4 term leave binary64 first at these orders
    r = run_cli("bounds", "--check", check, "--binomial", "1000", "100", "--mmax", "154")
    assert (r.returncode, r.stdout) == (3, "")
    assert len(r.stderr.splitlines()) == 1
    assert r.stderr.startswith(f"error: numeric overflow: {name} leaves binary64: lhs = -inf")


def test_overflowed_tolerance_is_refused():
    r = run_cli("bounds", "--check", "theorem2", "--binomial", "20", "2",
                "--atol", "1e308", "--rtol", "1e308")
    assert (r.returncode, r.stdout) == (3, "")
    assert len(r.stderr.splitlines()) == 1 and r.stderr.rstrip().endswith("tolerance = inf")


def test_scan_keeps_its_rows_where_the_bound_overflows():
    # C_5(340) leaves binary64 although every tv is finite: the bound column
    # is left empty, as for "3t", and the rows and fits are printed
    r = run_cli("scan", "--lambda", "340", "--n-grid", "1000,2000,4000", "--orders", "5",
                "--metric", "tv", timeout=120)
    assert (r.returncode, r.stderr) == (0, "")
    lines = r.stdout.splitlines()
    assert lines[0] == "n,order,distance,bound"
    rows = [line.split(",") for line in lines[1:4]]
    assert [row[:2] for row in rows] == [["1000", "5"], ["2000", "5"], ["4000", "5"]]
    assert all(math.isfinite(float(row[2])) and row[3] == "" for row in rows)
    assert "Infinity" not in r.stdout and "fits" in json.loads(lines[4])


def test_qpoly_constant_overflow_is_null():
    r = run_cli("qpoly", "--nu", "4", "--lambda", "340")
    assert (r.returncode, r.stderr) == (0, "")
    payload = json.loads(r.stdout)
    assert payload["c_order"] == 5 and payload["c_value"] is None
    assert len(payload["coefficients"]) == 5


@pytest.mark.parametrize("metric", ["tv", "wass", "d2", "d2tilde"])
def test_kmax_applies_only_to_hellinger(metric):
    r = run_cli("distance", "--metric", metric, "--binomial", "20", "1", "--order", "1",
                "--kmax", "30")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: --kmax applies only to --metric hellinger\n"
    assert run_cli("distance", "--metric", "hellinger", "--binomial", "20", "1", "--order", "1",
                   "--kmax", "30").returncode == 0


def test_kmax_applies_only_to_corrected_orders():
    r = run_cli("pmf", "--binomial", "20", "1", "--order", "0", "--kmax", "30")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: --kmax applies only to --order 1..8\n"


@pytest.mark.parametrize("args, low", [
    (("pmf", "--binomial", "20", "1", "--order", "2", "--kmax"), 0),
    (("distance", "--metric", "hellinger", "--binomial", "20", "1", "--order", "1", "--kmax"), 0),
    (("bounds", "--check", "sandwich", "--binomial", "20", "1", "--mmax"), 1),
    (("bounds", "--check", "lower3", "--binomial", "20", "1", "--mmax"), 1),
    (("bounds", "--check", "theta", "--binomial", "20", "1", "--m", "1", "--s", "1", "--j"), 0),
    (("bounds", "--check", "theta", "--binomial", "20", "1", "--j", "0", "--s", "1", "--m"), 0),
    (("bounds", "--check", "theta", "--binomial", "20", "1", "--j", "0", "--m", "1", "--s"), 1),
])
def test_flag_below_its_range_is_input_error(args, low):
    r = run_cli(*args, str(low - 1))
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: {args[-1].lstrip('-')} must be >= {low}, got {low - 1}\n"
    assert run_cli(*args, str(low)).returncode == 0


def test_theta_index_above_its_order_is_input_error():
    r = run_cli("bounds", "--check", "theta", "--binomial", "20", "1",
                "--j", "2", "--m", "1", "--s", "1")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: j must be <= m, got 2 > 1\n"


@pytest.mark.parametrize("flag", ["--atol", "--rtol"])
@pytest.mark.parametrize("value", ["-1", "nan", "inf"])
def test_malformed_tolerance_is_input_error(flag, value):
    # lhs 2.79 against rhs 3.64 holds: -1 and nan made it fail, inf made every check hold
    args = ("bounds", "--check", "theorem2", "--binomial", "20", "2", flag)
    r = run_cli(*args, value)
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == f"error: {flag} must be finite and >= 0, got {float(value)}\n"
    assert run_cli(*args, "0").returncode == 0


@pytest.mark.parametrize("lam", ["0.1", "0.01"])
def test_remark2_small_mean_keeps_its_digits(lam):
    # f_n(0) - simplified(0) is computed without cancellation, so the fit
    # sees the n^-2 rate and the limit check holds
    r = run_cli("bounds", "--check", "remark2", "--lambda", lam)
    assert (r.returncode, r.stderr) == (0, "")
    payload = json.loads(r.stdout)
    assert payload["fit"]["slope"] == pytest.approx(-2.0, abs=0.05)
    assert payload["all_hold"] is True


@pytest.mark.parametrize("lam, p", [("20", "2.0"), ("1e100", "1e+99")])
def test_remark2_size_below_the_mean_is_domain_error(lam, p):
    # n = 10 of the default grid gives lam/n > 1: refused before any point
    r = run_cli("bounds", "--check", "remark2", "--lambda", lam)
    assert (r.returncode, r.stdout) == (3, "")
    assert r.stderr == f"error: probability outside [0, 1]: {p}\n"


def test_theta_of_one_indicator_is_decided_by_its_rounding(tmp_path):
    # theta is exactly 0 for one probability; its binary64 value is -2.7e-11,
    # within its proven rounding bound, so the report holds (exit 1 before)
    f = tmp_path / "one.txt"
    f.write_text("0.9999\n")
    r = run_cli("bounds", "--check", "theta", "--probs", str(f), "--j", "0", "--m", "20",
                "--s", "2000", "--atol", "0", "--rtol", "0")
    assert r.returncode == 0
    row = json.loads(r.stdout)["reports"][0]
    assert row["lhs"] < row["rhs"] < 0.0


def test_theta_binomial_overflow_names_the_coefficient():
    r = run_cli("bounds", "--check", "theta", "--binomial", "2000", "0.5",
                "--j", "0", "--m", "1100", "--s", "1", timeout=120)
    assert (r.returncode, r.stdout) == (3, "")
    assert len(r.stderr.splitlines()) == 1 and "C(1100, " in r.stderr


@pytest.mark.parametrize("name, argv", [("solve_gamma_table", ["gamma-table", "--nu", "3"]),
                                        ("q_polynomial", ["qpoly", "--nu", "2"])])
def test_library_refusal_is_exit_3_in_every_subcommand(monkeypatch, capsys, name, argv):
    def refuse(*args, **kwargs):
        raise ValueError("x")

    monkeypatch.setattr(corrpois.binomial, name, refuse)
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", "error: x\n")


def test_json_writer_takes_numpy_values_and_fractions():
    payload = {"a": np.array([0.5, 1.0]), "b": np.float32(0.25), "c": np.int64(7),
               "d": Fraction(1, 3), "e": (True, None, "s")}
    assert cli._to_json(payload) == ('{"a": [0.5, 1], "b": 0.25, "c": 7, "d": "1/3", '
                                     '"e": [true, null, "s"]}')


REPORT_HEADER = "name,lhs,rhs,holds,slack,tolerance,inputs_digest"


def test_remark2_table_is_its_report_row():
    r = run_cli("bounds", "--check", "remark2", "--lambda", "2", "--format", "csv")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == REPORT_HEADER and len(lines) == 2
    assert lines[1].startswith("simplified-order3-limit-gap,")


FIVE = "0.1\n0.2\n0.3\n0.45\n0.05\n"


def test_sandwich_lower_row_fails_at_zero_tolerance(tmp_path):
    # mu_2 = 0.8650000000000001 and the lower bound rounds to 0.8650000000000002:
    # with no tolerance the m = 2 lower row fails, though lower <= upper
    f = tmp_path / "five.txt"
    f.write_text(FIVE)
    r = run_cli("bounds", "--check", "sandwich", "--probs", str(f), "--mmax", "3",
                "--atol", "0", "--rtol", "0")
    assert r.returncode == 1
    payload = json.loads(r.stdout)
    row = payload["reports"][2]
    assert row["name"] == "mu-lower2[m=2]"
    assert (row["lhs"], row["rhs"], row["holds"]) == (0.8650000000000002, 0.8650000000000001,
                                                      False)
    assert payload["all_hold"] is False
    assert [x["holds"] for x in payload["reports"]] == [True, True, False, True, True, True]


@pytest.mark.parametrize("tolerances", [[], ["--atol", "0", "--rtol", "0"]])
@pytest.mark.parametrize("check", ["theorem2", "theorem3", "sandwich", "lower3", "theta",
                                   "remark2", "classic"])
def test_every_report_row_is_its_inequality(capsys, tmp_path, check, tolerances):
    f = tmp_path / "five.txt"
    f.write_text(FIVE)
    argv = ["bounds", "--check", check, *tolerances]
    argv += ["--lambda", "1"] if check == "remark2" else ["--probs", str(f), "--mmax", "3"]
    cli.main(argv)
    rows = json.loads(capsys.readouterr().out)["reports"]
    assert rows and all(r["holds"] == (r["lhs"] <= r["rhs"] + r["tolerance"]) for r in rows)
    assert all(r["slack"] == r["rhs"] - r["lhs"] for r in rows)


@pytest.mark.parametrize("check", ["theorem2", "theorem3", "sandwich", "lower3", "theta",
                                   "remark2", "classic"])
def test_every_bounds_table_has_the_report_fields(capsys, check):
    argv = ["bounds", "--check", check, "--format", "csv"]
    argv += ["--lambda", "1"] if check == "remark2" else ["--binomial", "20", "1"]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = [f.name for f in dataclasses.fields(corrpois.bounds.BoundReport)]
    assert lines[0] == ",".join(fields) == REPORT_HEADER
    assert len(lines) > 1 and not any(line.startswith("{") for line in lines)
    rows = list(csv.reader(lines))
    assert all(len(row) == len(fields) for row in rows)


def test_lower3_stops_at_an_underflowed_moment():
    # 2^m mu_m / m! is stored below 2^-1022 from m = 287 on for 1500 probabilities
    # 5/1500 (subnormal up to 296, 0.0 from 297)
    r = run_cli("bounds", "--check", "lower3", "--binomial", "1500", "5", "--mmax", "300")
    assert (r.returncode, r.stdout) == (3, "")
    assert len(r.stderr.splitlines()) == 1 and "order 287 " in r.stderr


def test_theta_names_are_quoted_cells(capsys):
    assert cli.main(["bounds", "--check", "theta", "--binomial", "20", "1", "--j", "1",
                     "--m", "3", "--s", "2", "--format", "csv"]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    # lhs is -e, the proven bound on the rounding of theta (``bounds._theta``)
    assert row.startswith('"theta[j=1,m=3,s=2]",-9.5416730072715272e-18,')
    assert next(csv.reader([row]))[0] == "theta[j=1,m=3,s=2]"
    assert [cli._cell(v) for v in ('a"b', "a,b", "ab", 0.5)] == ['"a""b"', '"a,b"', "ab", "0.5"]


# -- start-up: each probe runs in a fresh interpreter -----------------------

def loaded_after(code):
    """The modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    r = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    return set(r.stdout.split())


def loaded_by_call(*argv):
    """The modules one ``python -m corrpois`` call has loaded when it exits."""
    return loaded_after(
        "import contextlib, io, runpy, sys\n"
        f"sys.argv = ['corrpois', *{list(argv)!r}]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):\n"
        "    runpy.run_module('corrpois', run_name='__main__')")


def test_package_import_loads_no_submodule():
    loaded = loaded_after("import corrpois")
    assert "corrpois" in loaded
    assert not {m for m in loaded if m.startswith("corrpois.") or m.split(".")[0] == "numpy"}


@pytest.mark.parametrize("argv", [
    ("pmf", "--binomial", "20", "2", "--order", "0"),
    ("pmf", "--binomial", "20", "2", "--order", "3"),
    ("distance", "--metric", "tv", "--binomial", "20", "2", "--order", "3"),
    ("distance", "--metric", "hellinger", "--binomial", "20", "2", "--order", "1"),
])
def test_pmf_and_distance_load_no_bound_or_exact_table_module(argv):
    loaded = loaded_by_call(*argv)
    assert "corrpois.pmf" in loaded
    assert not loaded & {"corrpois.bounds", "corrpois.binomial", "fractions", "hashlib"}
    assert ("corrpois.corrected" in loaded) == (argv[-1] != "0")


@pytest.mark.parametrize("argv", [("gamma-table", "--nu", "3"), ("qpoly", "--nu", "2")])
def test_exact_tables_load_no_bound_or_distance_module(argv):
    loaded = loaded_by_call(*argv)
    assert "corrpois.binomial" in loaded
    assert not loaded & {"corrpois.bounds", "corrpois.distances", "hashlib"}


def test_every_public_name_is_its_module_object():
    assert len(set(corrpois.__all__)) == len(corrpois.__all__)
    for name in corrpois.__all__:
        value = getattr(corrpois, name)
        module = sys.modules[f"corrpois.{corrpois._NAMES[name]}"]
        assert value is getattr(module, name)
        assert name in module.__all__ and name in dir(corrpois)


def test_every_module_exports_its_whole_all():
    for module, names in corrpois._EXPORTS.items():
        assert sorted(names) == sorted(importlib.import_module(f"corrpois.{module}").__all__)
    from corrpois import FitRefused
    assert FitRefused is sys.modules["corrpois.bounds"].FitRefused


def test_star_import_binds_every_name():
    namespace = {}
    exec("from corrpois import *", namespace)
    assert all(namespace[name] is getattr(corrpois, name) for name in corrpois.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        corrpois.no_such_name
