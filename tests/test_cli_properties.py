"""Property test of the command line, run in process through ``cli.main``.

Every call over p in [0, 1], n <= 10^4 and means up to 10^3 must end in a
documented exit code (0 to 5) with at most one stderr line and no traceback,
and must print no Infinity or NaN.  A printed tv is at most the printed d2 of
the same input plus both errors.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrpois import cli

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])

probs_lists = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=200)
# n and a mean up to min(n, 10^3), so p = lam / n stays in [0, 1]
binomials = st.integers(1, 10_000).flatmap(
    lambda n: st.tuples(st.just(n), st.floats(0.0, min(n, 1000.0))))


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # a warning would print lines of its own
        code = cli.main(argv)
    stdout, stderr = out.getvalue(), err.getvalue()
    assert code in range(6), (argv, code, stderr)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert len(stderr.splitlines()) <= 1, (argv, stderr)
    assert "Traceback" not in stderr
    assert "Infinity" not in stdout and "NaN" not in stdout, (argv, stdout)
    return code, stdout


@contextlib.contextmanager
def source(data):
    """Input flags for a probability list, through a file, or for --binomial."""
    if isinstance(data, tuple):
        yield ["--binomial", str(data[0]), repr(data[1])]
        return
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write("".join(f"{x!r}\n" for x in data))
        yield ["--probs", path]
    finally:
        os.unlink(path)


inputs = st.one_of(probs_lists, binomials)
orders = st.integers(0, 8)


@SETTINGS
@given(inputs, orders, st.sampled_from(["json", "csv"]))
def test_pmf(data, order, fmt):
    with source(data) as flags:
        call(["pmf", *flags, "--order", str(order), "--format", fmt])


@SETTINGS
@given(inputs, st.integers(1, 8))
def test_distance_tv_below_d2(data, order):
    with source(data) as flags:
        printed = {}
        for metric in ("tv", "d2"):
            code, out = call(["distance", *flags, "--metric", metric, "--order", str(order)])
            if code == 0:
                printed[metric] = json.loads(out)
    if len(printed) == 2:
        tv, d2 = printed["tv"], printed["d2"]
        assert tv["value"] <= d2["value"] + tv["truncation_error"] + d2["truncation_error"]


@SETTINGS
@given(inputs, st.integers(1, 8), st.sampled_from(["wass", "d2tilde", "hellinger"]),
       st.booleans())
def test_distance_other_metrics(data, order, metric, exact):
    with source(data) as flags:
        call(["distance", *flags, "--metric", metric, "--order", str(order),
              *(["--exact"] if exact else [])])


@SETTINGS
@given(inputs, st.sampled_from(["theorem2", "theorem3", "sandwich", "lower3", "theta",
                                "classic"]))
def test_bounds(data, check):
    with source(data) as flags:
        call(["bounds", *flags, "--check", check])


@SETTINGS
@given(st.floats(0.0, 1000.0), st.lists(st.integers(1, 10_000), min_size=1, max_size=5),
       st.lists(st.sampled_from(["1", "2", "3", "3t", "5", "8"]), min_size=1, max_size=3),
       st.sampled_from(["d2", "tv"]))
def test_scan(lam, grid, orders, metric):
    call(["scan", "--lambda", repr(lam), "--n-grid", ",".join(map(str, sorted(set(grid)))),
          "--orders", ",".join(orders), "--metric", metric])


@SETTINGS
@given(st.floats(0.0, 1000.0))
def test_remark2(lam):
    call(["bounds", "--check", "remark2", "--lambda", repr(lam)])
