"""Each range rule on an argument is checked once, in the library, before any
work: its refusal is a ``pmf.InputError``, a ValueError, which the command
line prints as exit 2.  ``cli_refusals.txt`` is the command line's table of
refusals: each row's exit code, empty stdout and one stderr line."""

import pathlib
import subprocess
import sys

import pytest

from corrpois import (
    InputError,
    PowerSums,
    ProbVector,
    build_phi_nu,
    check_lower3,
    check_sandwich,
    check_simplified_order3,
    check_theta,
    compare_with_published,
    fit_loglog,
    fit_rate,
    simplified_order3_differences,
    solve_gamma_table,
    spec_for_order,
    spec_poisson,
    theta,
)
from corrpois import binomial, bounds, corrected, pmf

P = ProbVector((0.3, 0.4, 0.5))
ORDERS = "(orders 1..8 are supported)"
GRID = "must hold sizes >= 1 in strictly increasing order"


@pytest.fixture
def no_work(monkeypatch):
    """Every entry to S_n's record, the corrected masses, the rate points and
    the exact coefficient table raises."""
    def refuse(*args, **kwargs):
        raise AssertionError("work was done before the refusal")

    for owner, name in ((pmf._Sn, "floats"), (pmf._Sn, "power_sums"), (pmf._Sn, "array"),
                        (corrected, "_charlier_masses"), (corrected, "_measure"),
                        (bounds, "rate_distance"), (binomial, "gamma_from_power_sums")):
        monkeypatch.setattr(owner, name, refuse)


# each function, its arguments and the message of its refusal
REFUSALS = [
    (spec_for_order, (P, 9), f"unsupported order: 9 {ORDERS}"),
    (spec_for_order, (P, 0), f"unsupported order: 0 {ORDERS}"),
    (spec_for_order, (P, "3s"), f"unsupported order: '3s' {ORDERS}"),
    (fit_rate, (1.0, [2, 9], [8, 16, 32]), f"unsupported order: 9 {ORDERS}"),
    (build_phi_nu, (spec_poisson(1.0), -1), "kmax must be >= 0, got -1"),
    (check_sandwich, (P, 0), "mmax must be >= 1, got 0"),
    (check_lower3, (P, -3), "mmax must be >= 1, got -3"),
    (check_theta, (P, (-1, 1, 1)), "j must be >= 0, got -1"),
    (check_theta, (P, (0, -1, 1)), "m must be >= 0, got -1"),
    (check_theta, (P, (0, 1, 0)), "s must be >= 1, got 0"),
    (check_theta, (P, (2, 1, 1)), "j must be <= m, got 2 > 1"),
    (theta, (2, 1, 1, PowerSums((0.5, 0.25))), "j must be <= m, got 2 > 1"),
    (fit_loglog, ([0, 8, 16], [1.0, 1.0, 1.0], 2), f"grid [0, 8, 16] {GRID}"),
    (fit_rate, (1.0, [2], (8, 8, 16)), f"grid [8, 8, 16] {GRID}"),
    (fit_rate, (1.0, [9], [16, 8, 32]), f"grid [16, 8, 32] {GRID}"),
    (check_simplified_order3, (1.0, [1000, 10, 2000]), f"grid [1000, 10, 2000] {GRID}"),
    (simplified_order3_differences, (1.0, [10, 100]), "grid must reach at least 10^3"),
    (solve_gamma_table, (9,), "nu must be between 2 and 8, got 9"),
    (solve_gamma_table, (1,), "nu must be between 2 and 8, got 1"),
    (compare_with_published, (0,), "nu must be between 2 and 8, got 0"),
]


@pytest.mark.parametrize("function, args, message", REFUSALS,
                         ids=[f"{f.__name__}-{msg}" for f, _, msg in REFUSALS])
def test_library_refuses_an_argument_before_any_work(no_work, function, args, message):
    with pytest.raises(InputError) as refusal:
        function(*args)
    assert isinstance(refusal.value, ValueError)
    assert str(refusal.value) == message


def test_a_domain_refusal_is_no_input_error():
    # a mean outside (0, inf) is a domain error, exit 3 on the command line
    with pytest.raises(ValueError) as refusal:
        fit_rate(float("nan"), [9], [0])
    assert type(refusal.value) is ValueError
    assert str(refusal.value) == "lam must be finite and positive, got nan"


TABLE = pathlib.Path(__file__).with_name("cli_refusals.txt")


def table_rows():
    for line in TABLE.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            code, args, text = (field.strip() for field in line.split(" | "))
            yield pytest.param(int(code), args.split(), text, id=args)


@pytest.mark.parametrize("code, argv, text", list(table_rows()))
def test_cli_refusal_table(code, argv, text):
    r = subprocess.run([sys.executable, "-m", "corrpois", *argv], capture_output=True,
                       text=True, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (code, "", f"error: {text}\n")
