"""The three workloads, and the spans that time their calls into the package.

Each workload runs whole rounds over a fixed pool of inputs until the run
time is spent, and at least a set number of rounds, so every run has enough
items for its tail percentile.  One item is timed from its first call into
the package to its last; its output is checked after the timer stops.

Every time here is CPU time (``time.process_time`` in this process, user
plus system time for a child), scaled to a reference machine speed by
SpeedGauge; README.md says why.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import select
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from corrpois import (
    CorrectionSpec,
    build_phi_nu,
    certify_domination,
    check_order2_bound,
    check_order3_bound,
    check_sandwich,
    d2,
    d2_exact_product,
    factorial_moments_sn,
    gamma_floats,
    poisson_binomial_pmf,
    spec_phi2,
    spec_phi3,
    spec_poisson,
    tv,
)
from corrpois import cli as corrpois_cli

import checks
import inputs

CALL_TIMEOUT_S = 60.0
CORPUS_BLOCK = 40  # vectors between two speed measurements

# The gauge loop takes CAL_REF_S CPU seconds at the reference speed, about
# the median speed of the machine the README's figures come from.
CAL_LOOP = 12000
CAL_REF_S = 0.010


def _gauge_loop() -> float:
    """Fixed interpreter-bound work of the kind the package's hot loops do:
    float arithmetic and single-element numpy updates."""
    a = np.zeros(64)
    s = 0.0
    for i in range(CAL_LOOP):
        a[i & 63] += 0.5 * a[(i + 1) & 63] + 1.0
        s += math.sqrt(i + 1.0)
    return s


class SpeedGauge:
    """Scale factors that turn CPU seconds into seconds at the reference speed.

    A block of work is bracketed by two runs of a fixed loop; its CPU times
    are multiplied by CAL_REF_S over the mean CPU time of the two loops.
    Each measurement closes one block and opens the next.
    """

    def __init__(self):
        self.before = self._loop_seconds()

    @staticmethod
    def _loop_seconds() -> float:
        start = time.process_time()
        _gauge_loop()
        return time.process_time() - start

    def block_scale(self) -> float:
        after = self._loop_seconds()
        scale = 2.0 * CAL_REF_S / (self.before + after)
        self.before = after
        return scale


class Tracer:
    """Spans around calls into the package, kept in memory until the run ends.

    A span is [name, item, start, end, scale]: raw CPU clock readings and
    the scale of the block it fell in, so it lasted (end - start) * scale
    seconds at the reference speed.  Every span of one item carries that
    item's index.  Spans do not nest: each covers one outer call, so work a
    call does through other modules counts to it.  Disabled, ``call`` is a
    plain call and nothing is kept.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.item = -1
        self.spans: list[list] = []
        self.unscaled = 0  # index of the first span whose block is still open
        self.counts: Counter[str] = Counter()

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        start = time.process_time()
        try:
            return fn(*args)
        finally:
            self.spans.append([name, self.item, start, time.process_time(), 1.0])

    def count(self, name: str, amount: int) -> None:
        if self.enabled:
            self.counts[name] += amount

    def close_block(self, scale: float) -> None:
        for span in self.spans[self.unscaled:]:
            span[4] = scale
        self.unscaled = len(self.spans)


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)  # at the reference speed
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    rounds: int = 0
    child_rss_kb: int = 0  # cli: the largest child process
    pending: list[float] = field(default_factory=list)  # raw CPU s, block still open
    gauge: SpeedGauge = field(default_factory=SpeedGauge)

    def close_block(self, tracer: Tracer) -> None:
        scale = self.gauge.block_scale()
        self.latencies += [t * scale for t in self.pending]
        self.pending.clear()
        tracer.close_block(scale)


def _attempt(tally: Tally, tracer: Tracer, fn, *args):
    """Run one item: (output, CPU seconds), or None if it raised."""
    tracer.item += 1
    start = time.process_time()
    try:
        out = fn(tracer, *args)
    except Exception as exc:  # the run goes on and reports the failure
        tally.failed += 1
        print(f"perfbench: item {tracer.item} failed: {exc!r}", file=sys.stderr)
        return None
    return out, time.process_time() - start


def _timed(tally: Tally, tracer: Tracer, fn, *args):
    """Run one in-process item and record its CPU time; None if it raised."""
    got = _attempt(tally, tracer, fn, *args)
    if got is None:
        return None
    tally.pending.append(got[1])
    return got[0]


def _run_rounds(seconds: float, min_rounds: int, pool: int, one_round) -> Tally:
    tally = Tally()
    start = time.perf_counter()
    while tally.rounds < min_rounds or time.perf_counter() - start < seconds:
        one_round(tally.rounds % pool, tally)
        tally.rounds += 1
    return tally


# -- corpus ----------------------------------------------------------------

CORPUS_SPECS = (
    ("poisson", lambda p: spec_poisson(p.lam)),
    ("phi2", spec_phi2),
    ("phi3", spec_phi3),
)
CORPUS_BOUND = {"phi2": check_order2_bound, "phi3": check_order3_bound}


def _corpus_item(tr: Tracer, p, kind: str, make_spec):
    f = tr.call("pmf.poisson_binomial_pmf", poisson_binomial_pmf, p)
    spec = tr.call("corrected.spec", make_spec, p)
    phi = tr.call("corrected.build_phi_nu", build_phi_nu, spec)
    tr.count("corrected.build_phi_nu.mass_points", phi.pmf.mass.size)
    dtv = tr.call("distances.tv", tv, f, phi.pmf)
    mu = tr.call("pmf.factorial_moments_sn", factorial_moments_sn, p)
    series = tr.call("distances.d2", d2, mu, phi.moments)
    tr.call("distances.certify_domination", certify_domination, p, spec)
    exact = tr.call("distances.d2_exact_product", d2_exact_product, p, spec)
    reports = []
    if kind in CORPUS_BOUND:
        check = CORPUS_BOUND[kind]
        reports = tr.call(f"bounds.{check.__name__}", check, p)
    return phi.pmf.mass, dtv, series, exact, reports


def run_corpus(vectors, seconds: float, tracer: Tracer) -> Tally:
    """One round is one pass over the corpus, so every run sees it whole."""
    def one_round(_, tally: Tally) -> None:
        for i, p in enumerate(vectors):
            for kind, make_spec in CORPUS_SPECS:
                out = _timed(tally, tracer, _corpus_item, p, kind, make_spec)
                if out is not None:
                    tally.errors += checks.corpus_item(p.probs, kind, *out)
            if (i + 1) % CORPUS_BLOCK == 0 or i + 1 == len(vectors):
                tally.close_block(tracer)

    return _run_rounds(seconds, 3, 1, one_round)


# -- large_n ---------------------------------------------------------------

def _moments_1_to_20(p) -> list[float]:
    mu = factorial_moments_sn(p)
    return [mu(m) for m in range(1, 21)]


def _large_n_item(tr: Tracer, p, equal: bool):
    f = tr.call("pmf.poisson_binomial_pmf", poisson_binomial_pmf, p)
    mu = tr.call("pmf.factorial_moments_sn", _moments_1_to_20, p)
    tvs = []
    for _, make_spec in CORPUS_SPECS:
        spec = tr.call("corrected.spec", make_spec, p)
        phi = tr.call("corrected.build_phi_nu", build_phi_nu, spec)
        tr.count("corrected.build_phi_nu.mass_points", phi.pmf.mass.size)
        tvs.append(tr.call("distances.tv", tv, f, phi.pmf))
    sandwich = tr.call("bounds.check_sandwich", check_sandwich, p, 15)
    higher = {}
    if equal:
        for nu in (4, 5, 6):
            gamma = tr.call("binomial.gamma_floats", gamma_floats, nu, p.n)
            spec = tr.call("corrected.spec", CorrectionSpec, nu, p.lam, gamma,
                           "binomial-closed-form")
            phi = tr.call("corrected.build_phi_nu", build_phi_nu, spec)
            tr.count("corrected.build_phi_nu.mass_points", phi.pmf.mass.size)
            tr.call("distances.tv", tv, f, phi.pmf)
            higher[nu] = phi
    return f, mu, tvs[0], sandwich, higher


def run_large_n(rounds, seconds: float, tracer: Tracer) -> Tally:
    """One round is one vector per grid size; the pool is used whole first."""
    def one_round(r: int, tally: Tally) -> None:
        vectors, equal = rounds[r]
        for p, eq in zip(vectors, equal):
            out = _timed(tally, tracer, _large_n_item, p, eq)
            tally.close_block(tracer)
            if out is not None:
                tally.errors += checks.large_n_item(p.probs, *out)

    return _run_rounds(seconds, len(rounds), len(rounds), one_round)


# -- cli -------------------------------------------------------------------

def spawn(argv: list[str], stderr) -> tuple[float, bytes, int]:
    """Run a child to its end: (CPU seconds, stdout, peak RSS in KiB).

    The child is reaped with wait4 so that its own peak memory is read; it
    is killed if it outlives CALL_TIMEOUT_S.  A non-zero exit raises.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=stderr,
                            env=inputs.child_env(), cwd=inputs.ROOT)
    try:
        fd = proc.stdout.fileno()
        chunks = []
        while True:
            left = start + CALL_TIMEOUT_S - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError(f"{' '.join(argv)} ran past {CALL_TIMEOUT_S} s")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime, b"".join(chunks), usage.ru_maxrss


def _cli_item(tr: Tracer, argv: list[str], stderr) -> tuple[float, bytes, int]:
    return spawn([sys.executable, "-m", "corrpois", *argv], stderr)


def _main_in_process(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = corrpois_cli.main(argv)
    if code != 0:
        raise RuntimeError(f"in-process {' '.join(argv)} returned {code}")
    return buf.getvalue()


def run_cli(calls: list[list[str]], seconds: float, tracer: Tracer) -> Tally:
    """One round is the call list once; every round after the first must
    print exactly what the first printed.  Traced, each call is also run
    in-process through ``corrpois.cli.main`` after its timed subprocess."""
    first: dict[int, bytes] = {}
    inputs.OUT.mkdir(parents=True, exist_ok=True)

    def one_round(_, tally: Tally) -> None:
        outs = []
        with open(inputs.OUT / "cli-stderr.txt", "wb") as stderr:
            for i, argv in enumerate(calls):
                got = _attempt(tally, tracer, _cli_item, argv, stderr)
                if got is None:
                    continue
                cpu, out, rss = got[0]
                tally.pending.append(cpu)
                tally.close_block(tracer)
                tally.child_rss_kb = max(tally.child_rss_kb, rss)
                tracer.count("cli.stdout_bytes", len(out))
                tally.errors += checks.cli_call(argv, out)
                if first.setdefault(i, out) != out:
                    tally.errors.append(f"{' '.join(argv)}: stdout differs from round 1")
                if tracer.enabled:
                    text = tracer.call("cli.main", _main_in_process, argv)
                    if text.encode() != out:
                        tally.errors.append(f"{' '.join(argv)}: in-process stdout differs")
                outs.append((argv, out))
        tally.errors += checks.cli_round([a for a, _ in outs], [o for _, o in outs])

    return _run_rounds(seconds, 5, 1, one_round)


RUNS = {"corpus": run_corpus, "large_n": run_large_n, "cli": run_cli}
