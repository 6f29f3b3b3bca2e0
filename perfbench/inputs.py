"""Seeded inputs for the benchmark workloads, and the package under test.

Every input is a pure function of the workload's ``--seed``.  The package is
always imported from the ``src`` directory of the checkout that holds this
file, never from an installed copy, so the benchmark measures the code it
ships with.
"""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

CORPUS_VECTORS = 1000
CORPUS_NMAX = 30
CORPUS_PMAX = 0.5

# large_n: one round is one vector per size on a log-spaced grid, so every
# round costs the same whatever the seed; the O(n^2) moment recurrence makes
# the item time grow like n^2, so the sizes alone order the items by cost.
# Seven sizes in fourteen rounds put both percentiles inside one size's items
# (p50 on the 7th of 14 at n = 894, p89 on the 4th of 14 at n = 1600), not
# on the edge between two sizes, where one slow item would move them.  The
# sizes stop at 1600, where an item takes about 0.8 s: longer items straddle
# the swings in machine speed that the gauge in workloads.py corrects only
# between items.
LARGE_N_GRID = tuple(round(500 * 3.2 ** (i / 6)) for i in range(7))  # 500 .. 1600
LARGE_N_EQUAL = (0, 6)  # grid positions with equal probabilities
LARGE_N_ROUNDS = 14  # distinct rounds in the input pool
LARGE_N_LAM = (1.0, 100.0)
# Equal-probability vectors, which also get the orders 4-6, keep their mean
# below 30: at n = 500 and a mean above about 70 the order-5 and order-6
# masses miss 1 by more than SignedPmf allows, and the build raises.
LARGE_N_EQUAL_LAM_MAX = 30.0


def use_checkout_package() -> None:
    """Put the checkout's ``src`` first on ``sys.path``; exit if it is missing."""
    if not (SRC / "corrpois" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {SRC / 'corrpois'}; "
                         "run from the root of a full checkout")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's package comes first.

    OpenBLAS gets one thread: otherwise its worker threads spin while numpy
    is imported, which here adds about 0.1 s of CPU time (with a wide
    spread) to every child without shortening it, and the package makes no
    BLAS calls.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    return env


def corpus(seed: int) -> list:
    """1000 vectors with n uniform on 1..30 and entries uniform on [0, 0.5)."""
    from corrpois import ProbVector

    rng = np.random.default_rng([seed, 1])
    out = []
    for _ in range(CORPUS_VECTORS):
        n = int(rng.integers(1, CORPUS_NMAX + 1))
        out.append(ProbVector(tuple(rng.uniform(0.0, CORPUS_PMAX, n).tolist())))
    return out


def large_n(seed: int) -> list[tuple[list, list[bool]]]:
    """Rounds of (vectors, equal-probability flags), one vector per grid size.

    Means are stratified log-uniformly over 1..100 (1..30 for equal
    probabilities), one stratum per grid size in a seeded order.  The
    vectors at the LARGE_N_EQUAL positions have equal probabilities; the
    others spread the mean by weights uniform on [0.2, 1.8).
    """
    from corrpois import ProbVector

    rng = np.random.default_rng([seed, 2])
    lo, hi = (math.log(x) for x in LARGE_N_LAM)
    size = len(LARGE_N_GRID)
    rounds = []
    for _ in range(LARGE_N_ROUNDS):
        strata = rng.permutation(size)
        vectors, equal = [], []
        for i, n in enumerate(LARGE_N_GRID):
            eq = i in LARGE_N_EQUAL
            top = math.log(LARGE_N_EQUAL_LAM_MAX) if eq else hi
            lam = math.exp(lo + (top - lo) * (strata[i] + rng.uniform()) / size)
            if eq:
                probs = (lam / n,) * n
            else:
                w = rng.uniform(0.2, 1.8, n)
                probs = tuple((lam * w / math.fsum(w.tolist())).tolist())
            vectors.append(ProbVector(probs))
            equal.append(eq)
        rounds.append((vectors, equal))
    return rounds


def cli_calls(seed: int, workdir: Path) -> list[list[str]]:
    """Argument lists for ``python -m corrpois``, after writing their input files.

    Two probability files are drawn from the seed: a text file of 20 entries
    below 0.5 and a JSON array of 40 entries below 0.3.
    """
    rng = np.random.default_rng([seed, 3])
    workdir.mkdir(parents=True, exist_ok=True)
    a = workdir / "probs_a.txt"
    b = workdir / "probs_b.json"
    a.write_text("".join(f"{x!r}\n" for x in rng.uniform(0.0, 0.5, 20).tolist()))
    b.write_text(json.dumps(rng.uniform(0.0, 0.3, 40).tolist()))
    a, b = str(a), str(b)
    return [
        ["pmf", "--probs", a, "--order", "0"],
        ["pmf", "--probs", b, "--order", "2"],
        ["pmf", "--binomial", "3000", "10", "--order", "0"],
        ["pmf", "--binomial", "20", "2", "--order", "3"],
        ["pmf", "--binomial", "100", "4", "--order", "5"],
        ["distance", "--metric", "tv", "--probs", a, "--order", "3"],
        ["distance", "--metric", "d2", "--exact", "--probs", a, "--order", "2"],
        ["distance", "--metric", "d2", "--probs", a, "--order", "2"],
        ["distance", "--metric", "d2", "--exact", "--probs", b, "--order", "3"],
        ["distance", "--metric", "d2", "--probs", b, "--order", "3"],
        ["bounds", "--check", "theorem2", "--probs", a],
        ["bounds", "--check", "theorem3", "--probs", b],
        ["bounds", "--check", "sandwich", "--probs", a, "--mmax", "15"],
        ["bounds", "--check", "classic", "--probs", b],
        ["bounds", "--check", "theta", "--probs", a],
        ["bounds", "--check", "remark2", "--lambda", "1"],
        ["gamma-table", "--nu", "7", "--compare-paper"],
        ["qpoly", "--nu", "0", "--lambda", "1"],
        ["scan", "--lambda", "1", "--n-grid", "8,16,32,64,128", "--orders", "1,2,3,4"],
        ["scan", "--lambda", "0.5", "--n-grid", "8,16,32,64,128", "--orders", "2,3"],
    ]


def build(workload: str, seed: int, workdir: Path):
    """The inputs of one workload; ``workdir`` receives any files they need."""
    if workload == "corpus":
        return corpus(seed)
    if workload == "large_n":
        return large_n(seed)
    if workload == "cli":
        return cli_calls(seed, workdir)
    raise ValueError(f"unknown workload: {workload!r}")
