"""Output checks made apart from the program under test.

Each check recomputes what it needs from the raw inputs: power sums with
``math.fsum``, Poisson masses from log-factorials, Charlier polynomials by
their three-term recurrence, factorial moments by summing over a mass
function.  None of them compares against a saved copy of earlier output.
Every check returns a list of problems; an empty list means the output
passed.  Results are read through their attributes (``value``,
``truncation_error``, ``method``, ``lhs``, ``rhs``, ``holds``, ``mass``,
``spec.lam``, ``spec.gamma``) and through nothing else.

The tolerance is the package-wide one, 1e-12 absolute plus 1e-9 relative,
unless a check states its own.
"""

from __future__ import annotations

import json
import math

import numpy as np

ABS_TOL = 1e-12
REL_TOL = 1e-9


def at_most(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + ABS_TOL + REL_TOL * max(abs(lhs), abs(rhs))


def close(a: float, b: float, rel: float = REL_TOL, abs_: float = ABS_TOL) -> bool:
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


def power_sums(probs, jmax: int) -> list[float]:
    """[lambda_1, ..., lambda_jmax], each by compensated summation."""
    return [math.fsum(x**j for x in probs) for j in range(1, jmax + 1)]


def poisson_masses(lam: float, kmax: int) -> np.ndarray:
    k = np.arange(kmax + 1)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, kmax + 1)))))
    return np.exp(k * math.log(lam) - lam - log_fact)


def charlier_rows(lam: float, kmax: int, degree: int) -> np.ndarray:
    """P_0..P_degree on 0..kmax by P_{m+1} = (k - m - lam) P_m - m lam P_{m-1}."""
    k = np.arange(kmax + 1, dtype=float)
    rows = np.empty((degree + 1, kmax + 1))
    rows[0] = 1.0
    if degree >= 1:
        rows[1] = k - lam
    for m in range(1, degree):
        rows[m + 1] = (k - m - lam) * rows[m] - m * lam * rows[m - 1]
    return rows


def corrected_masses(lam: float, gamma: dict[int, float], kmax: int) -> np.ndarray:
    """Poisson(k) (1 - sum_j gamma_j P_j(k)) for k = 0..kmax."""
    factor = np.ones(kmax + 1)
    if gamma:
        rows = charlier_rows(lam, kmax, max(gamma))
        for j, g in gamma.items():
            factor -= g * rows[j]
    return poisson_masses(lam, kmax) * factor


def moment_gamma(kind: str, ls: list[float]) -> dict[int, float]:
    """The correction coefficients that match the moments of S_n (orders 1-3)."""
    lam, l2 = ls[0], ls[1]
    if kind == "poisson":
        return {}
    gamma = {2: l2 / (2.0 * lam**2)}
    if kind == "phi3":
        gamma[3] = -ls[2] / (3.0 * lam**3)
        gamma[4] = -(l2**2) / (8.0 * lam**4)
    return gamma


def d2_bound(kind: str, ls: list[float]) -> float:
    """The paper's d2 bound for each spec.

    For Poisson: domination gives d2 = (e^{2 lam} - prod(1 + 2 p_i)) / 2, and
    prod(1 + 2 p_i) >= e^{2 lam - 2 lambda_2} since log(1 + x) >= x - x^2/2,
    so d2 <= lambda_2 e^{2 lam}.
    """
    lam, l2, l3, l4 = ls
    e2 = math.exp(2.0 * lam)
    if kind == "poisson":
        return l2 * e2
    if kind == "phi2":
        return (4.0 / 3.0 * l3 + l2**2) * e2
    return 2.0 / 3.0 * (lam**2 + 4.0 * lam + 3.0) * e2 * l4


def falling_moments(mass: np.ndarray, mmax: int) -> list[float]:
    """sum_k (k)_m mass(k) for m = 1..mmax."""
    k = np.arange(mass.size, dtype=float)
    ff = np.ones(mass.size)
    out = []
    for m in range(1, mmax + 1):
        ff = ff * (k - (m - 1))
        out.append(math.fsum((ff * mass).tolist()))
    return out


def reports(name: str, reps) -> list[str]:
    """Every bound report holds, by its own flag and by a fresh comparison."""
    return [f"{name}: report {r.name} fails ({r.lhs!r} > {r.rhs!r})"
            for r in reps if not (r.holds and at_most(r.lhs, r.rhs))]


def corpus_item(probs, kind: str, phi_mass: np.ndarray, dtv, series, exact,
                bound_reports) -> list[str]:
    """One corpus vector against one spec (``poisson``, ``phi2`` or ``phi3``)."""
    errors = []
    ls = power_sums(probs, 4)
    want = corrected_masses(ls[0], moment_gamma(kind, ls), phi_mass.size - 1)
    bad = np.abs(phi_mass - want) > ABS_TOL + REL_TOL * np.maximum(np.abs(phi_mass), np.abs(want))
    if bad.any():
        k = int(np.argmax(bad))
        errors.append(f"{kind} mass at k={k} is {phi_mass[k]!r}, expected {want[k]!r}")
    if exact.method != "exact-product":
        errors.append(f"{kind}: exact d2 took the {exact.method} route")
    if not math.isfinite(series.truncation_error):
        errors.append(f"{kind}: d2 series tail not certified")
    elif abs(exact.value - series.value) > 1e-11 * max(exact.value, series.value, 1e-300):
        errors.append(f"{kind}: d2 exact {exact.value!r} != series {series.value!r}")
    if not at_most(dtv.value, series.value + dtv.truncation_error + series.truncation_error):
        errors.append(f"{kind}: tv {dtv.value!r} > d2 {series.value!r}")
    if not at_most(exact.value, d2_bound(kind, ls)):
        errors.append(f"{kind}: d2 {exact.value!r} above its bound {d2_bound(kind, ls)!r}")
    return errors + reports(kind, bound_reports)


def large_n_item(probs, pmf, mu: list[float], tv_poisson, sandwich,
                 higher: dict[int, object]) -> list[str]:
    """One large-n vector: the exact law, its moments, the Poisson rate.

    ``mu`` holds mu_1..mu_20 as returned by the program; ``higher`` maps an
    order nu to the order-nu corrected measure (equal probabilities only).
    Its moments are summed over the returned masses plus the tail beyond
    them, which the check evaluates itself from the measure's coefficients:
    at a mean near 1 the support ends at k = 16, and the tail there still
    carries about 1e-8 of mu_6.
    """
    errors = []
    ls = power_sums(probs, 3)
    lam, l2, l3 = ls
    f = pmf.mass
    k = np.arange(f.size, dtype=float)
    total = math.fsum(f.tolist())
    mean = math.fsum((k * f).tolist())
    var = math.fsum(((k - lam) ** 2 * f).tolist())
    for name, got, want in (("mass", total, 1.0), ("mean", mean, lam), ("variance", var, lam - l2)):
        if not close(got, want):
            errors.append(f"pmf {name} {got!r} != {want!r}")
    closed = (lam, lam**2 - l2, lam**3 - 3.0 * lam * l2 + 2.0 * l3)
    summed = falling_moments(f, 4)
    for m in range(1, 5):
        if m <= 3 and not close(mu[m - 1], closed[m - 1]):
            errors.append(f"mu_{m} {mu[m - 1]!r} != closed form {closed[m - 1]!r}")
        if not close(mu[m - 1], summed[m - 1]):
            errors.append(f"mu_{m} {mu[m - 1]!r} != sum over the pmf {summed[m - 1]!r}")
    lower = min(1.0, 1.0 / lam) / 32.0 * l2
    upper = (1.0 - math.exp(-lam)) / lam * l2
    slack = tv_poisson.truncation_error
    if not (at_most(lower, tv_poisson.value + slack) and at_most(tv_poisson.value, upper + slack)):
        errors.append(f"Poisson tv {tv_poisson.value!r} outside [{lower!r}, {upper!r}]")
    errors += reports("sandwich", sandwich)
    n, p = len(probs), probs[0]
    for nu, phi in higher.items():
        want = [math.prod(n - i for i in range(m)) * p**m for m in range(1, nu + 1)]
        kmax = phi.pmf.mass.size - 1
        tail = corrected_masses(phi.spec.lam, phi.spec.gamma, kmax + 200)[kmax + 1:]
        got = falling_moments(np.concatenate((phi.pmf.mass, tail)), nu)
        for m in range(1, nu + 1):
            if not close(got[m - 1], want[m - 1]):
                errors.append(f"phi{nu} mu_{m} {got[m - 1]!r} != (n)_m p^m {want[m - 1]!r}")
    return errors


def cli_call(argv: list[str], stdout: bytes) -> list[str]:
    """One ``python -m corrpois`` call that exited 0: its stdout parses and
    shows the facts its subcommand must show."""
    what = " ".join(argv)
    lines = stdout.decode().splitlines()
    try:
        payload = json.loads(lines[-1])
    except (IndexError, ValueError) as exc:
        return [f"{what}: stdout does not parse: {exc}"]
    errors = []
    command = argv[0]
    if command == "pmf":
        total = math.fsum(payload["mass"])
        if not abs(total - 1.0) <= payload["tail_bound"] + ABS_TOL:
            errors.append(f"{what}: masses sum to {total!r}")
    elif command == "bounds":
        if payload["all_hold"] is not True or not all(r["holds"] for r in payload["reports"]):
            errors.append(f"{what}: not every bound holds")
    elif command == "gamma-table":
        mism = payload["comparison"]["mismatches"]
        known = [{"j": 8, "power": 5, "published": "17/388", "computed": "17/288",
                  "flagged_suspect": True}]
        if mism != known:
            errors.append(f"{what}: mismatches {mism!r}, expected only the 17/388 misprint")
    elif command == "qpoly":
        if abs(payload["c_value"] - math.exp(2.0)) > 1e-15 * math.exp(2.0):
            errors.append(f"{what}: C_1(1) = {payload['c_value']!r}, expected e^2")
    elif command == "scan":
        if lines[0] != "n,order,distance,bound":
            errors.append(f"{what}: bad CSV header {lines[0]!r}")
        for fit in payload["fits"]:
            if abs(fit["slope"] + fit["order"]) > 0.2 or fit["r_squared"] < 0.98:
                errors.append(f"{what}: order {fit['order']} slope {fit['slope']!r}, "
                              f"r^2 {fit['r_squared']!r}")
    elif command == "distance":
        if not (payload["value"] >= 0.0 and math.isfinite(payload["truncation_error"])):
            errors.append(f"{what}: value {payload['value']!r} "
                          f"+/- {payload['truncation_error']!r}")
    return errors


def cli_round(calls: list[list[str]], stdouts: list[bytes]) -> list[str]:
    """Facts across the calls of one round: every ``d2 --exact`` call agrees
    with the series call on the same input within 1e-11 relative."""
    errors = []
    by_argv = {tuple(a): out for a, out in zip(calls, stdouts)}
    for argv, out in by_argv.items():
        if "--exact" not in argv:
            continue
        series = by_argv.get(tuple(a for a in argv if a != "--exact"))
        if series is None:
            continue
        x = json.loads(out)["value"]
        y = json.loads(series)["value"]
        if abs(x - y) > 1e-11 * max(abs(x), abs(y), 1e-300):
            errors.append(f"{' '.join(argv)}: exact {x!r} != series {y!r}")
    return errors
