"""Each output check passes the program's real output and rejects a wrong one.

    python3 -m pytest perfbench
"""

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import checks
import inputs

inputs.use_checkout_package()

from corrpois import (  # noqa: E402
    CorrectionSpec,
    ProbVector,
    build_phi_nu,
    check_order2_bound,
    check_sandwich,
    d2,
    d2_exact_product,
    equal_probs,
    factorial_moments_sn,
    gamma_floats,
    poisson_binomial_pmf,
    spec_phi2,
    spec_phi3,
    spec_poisson,
    tv,
)
from corrpois import cli  # noqa: E402

P = ProbVector((0.1, 0.25, 0.4, 0.05, 0.3, 0.2))


def corpus_outputs(kind, spec):
    f = poisson_binomial_pmf(P)
    phi = build_phi_nu(spec)
    reports = check_order2_bound(P) if kind == "phi2" else []
    return dict(phi_mass=phi.pmf.mass, dtv=tv(f, phi.pmf),
                series=d2(factorial_moments_sn(P), phi.moments),
                exact=d2_exact_product(P, spec), bound_reports=reports)


def corpus_errors(kind, **out):
    return checks.corpus_item(P.probs, kind, **out)


@pytest.mark.parametrize("kind,make", [("poisson", lambda p: spec_poisson(p.lam)),
                                       ("phi2", spec_phi2), ("phi3", spec_phi3)])
def test_corpus_accepts_real_output(kind, make):
    assert corpus_errors(kind, **corpus_outputs(kind, make(P))) == []


def test_corpus_rejects_flipped_gamma2():
    spec = spec_phi2(P)
    flipped = CorrectionSpec(2, spec.lam, {2: -spec.gamma[2]})
    errors = corpus_errors("phi2", **corpus_outputs("phi2", flipped))
    assert any("phi2 mass at" in e for e in errors)


def test_corpus_rejects_wrong_distances():
    out = corpus_outputs("phi3", spec_phi3(P))
    exact = out["exact"]
    off = dataclasses.replace(exact, value=exact.value * (1 + 1e-9))
    assert any("exact" in e for e in corpus_errors("phi3", **{**out, "exact": off}))
    series = dataclasses.replace(exact, method="moment-series")
    assert any("route" in e for e in corpus_errors("phi3", **{**out, "exact": series}))
    big_tv = dataclasses.replace(out["dtv"], value=2 * out["series"].value + 1e-6)
    assert any("tv" in e for e in corpus_errors("phi3", **{**out, "dtv": big_tv}))
    huge = out["exact"].value * 1e9
    over = {"exact": dataclasses.replace(exact, value=huge),
            "series": dataclasses.replace(out["series"], value=huge)}
    assert any("above its bound" in e for e in corpus_errors("phi3", **{**out, **over}))


def test_corpus_rejects_failing_report():
    out = corpus_outputs("phi2", spec_phi2(P))
    bad = [dataclasses.replace(out["bound_reports"][0], holds=False)]
    assert any("report" in e for e in corpus_errors("phi2", **{**out, "bound_reports": bad}))


def large_n_outputs(p, equal):
    f = poisson_binomial_pmf(p)
    mu = factorial_moments_sn(p)
    pois = build_phi_nu(spec_poisson(p.lam)).pmf
    higher = {}
    if equal:
        for nu in (4, 5, 6):
            spec = CorrectionSpec(nu, p.lam, gamma_floats(nu, p.n), "binomial-closed-form")
            higher[nu] = build_phi_nu(spec)
    return dict(pmf=f, mu=[mu(m) for m in range(1, 21)], tv_poisson=tv(f, pois),
                sandwich=check_sandwich(p, 15), higher=higher)


@pytest.fixture(scope="module")
def unequal():
    w = np.random.default_rng(0).uniform(0.2, 1.8, 600)
    return ProbVector(tuple((12.0 * w / w.sum()).tolist()))


def test_large_n_accepts_real_output(unequal):
    assert checks.large_n_item(unequal.probs, **large_n_outputs(unequal, False)) == []
    for lam in (1.03, 9.0):  # at 1.03 the support ends where mu_6 still has 1e-8
        p = equal_probs(834, lam)
        assert checks.large_n_item(p.probs, **large_n_outputs(p, True)) == []


def test_large_n_rejects_shifted_pmf(unequal):
    out = large_n_outputs(unequal, False)
    shifted = np.concatenate(([0.0], out["pmf"].mass[:-1]))
    errors = checks.large_n_item(unequal.probs, **{**out, "pmf": dataclasses.replace(
        out["pmf"], mass=shifted)})
    assert any("pmf mean" in e for e in errors)


def test_large_n_rejects_wrong_moment_and_tv(unequal):
    out = large_n_outputs(unequal, False)
    mu = list(out["mu"])
    mu[1] *= 1 + 1e-6
    assert any("mu_2" in e for e in checks.large_n_item(unequal.probs, **{**out, "mu": mu}))
    low = dataclasses.replace(out["tv_poisson"], value=out["tv_poisson"].value / 100)
    assert any("Poisson tv" in e
               for e in checks.large_n_item(unequal.probs, **{**out, "tv_poisson": low}))


def test_large_n_rejects_wrong_higher_order():
    p = equal_probs(834, 9.0)
    out = large_n_outputs(p, True)
    phi5 = out["higher"][5]
    bent = phi5.pmf.mass.copy()
    bent[3] += 1e-7
    bent[4] -= 1e-7
    higher = {**out["higher"], 5: dataclasses.replace(
        phi5, pmf=dataclasses.replace(phi5.pmf, mass=bent))}
    errors = checks.large_n_item(p.probs, **{**out, "higher": higher})
    assert any(e.startswith("phi5 mu_") for e in errors)


def run_main(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue().encode()


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    return inputs.cli_calls(0, tmp_path_factory.mktemp("cli"))


def test_cli_accepts_real_output(calls):
    outs = [run_main(a) for a in calls]
    for argv, out in zip(calls, outs):
        assert checks.cli_call(argv, out) == []
    assert checks.cli_round(calls, outs) == []


def edited(out, key, value):
    payload = json.loads(out)
    payload[key] = value
    return json.dumps(payload).encode()


@pytest.mark.parametrize("argv,key,value", [
    (["pmf", "--binomial", "20", "2", "--order", "3"], "tail_bound", 0.0),
    (["bounds", "--check", "remark2", "--lambda", "1"], "all_hold", False),
    (["gamma-table", "--nu", "7", "--compare-paper"], "comparison", {"mismatches": []}),
    (["qpoly", "--nu", "0", "--lambda", "1"], "c_value", math.exp(2.0) * (1 + 1e-14)),
])
def test_cli_rejects_wrong_payload(argv, key, value):
    out = run_main(argv)
    if key == "tail_bound":
        payload = json.loads(out)
        payload["mass"][0] += 1e-9
        out = json.dumps(payload).encode()
    assert checks.cli_call(argv, edited(out, key, value))


def test_cli_rejects_wrong_scan_slope():
    argv = ["scan", "--lambda", "0.5", "--n-grid", "8,16,32,64,128", "--orders", "2,3"]
    lines = run_main(argv).decode().splitlines()
    fits = json.loads(lines[-1])
    fits["fits"][1]["slope"] = -2.5
    bad = "\n".join(lines[:-1] + [json.dumps(fits)]).encode()
    assert checks.cli_call(argv, bad)


def test_cli_rejects_exact_series_gap(calls):
    exact = next(a for a in calls if "--exact" in a)
    series = [a for a in exact if a != "--exact"]
    out_e, out_s = run_main(exact), run_main(series)
    value = json.loads(out_s)["value"]
    assert checks.cli_round([exact, series], [out_e, out_s]) == []
    wrong = edited(out_s, "value", value * (1 + 1e-10))
    assert checks.cli_round([exact, series], [out_e, wrong])
