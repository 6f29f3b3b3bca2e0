"""Command-line surface.

Subcommands expose construction (pmf), distances, bound verification, the
exact coefficient table, the Q polynomials and rate scans as machine
readable JSON or CSV on stdout.  Diagnostics go to stderr.  Every float is
emitted with 17 significant digits so output round-trips bit-exactly, and
identical invocations produce byte-identical output on one kind of CPU: for
vectors of 31 or more entries the last bits of S_n's arrays follow the
OpenBLAS dot kernel behind ``np.convolve``.

Exit codes: 0 success (for bounds: every check holds), 1 some bound check
fails, 2 input error (an unreadable or malformed file or flag, or an
argument the library refuses as outside its range, ``pmf.InputError``), 3
domain error or numeric overflow (every other refusal the library raises as
ValueError or OverflowError), 4 metric domain error, 5 insufficient data (a
rate fit's refusal, ``bounds.FitRefused``).  Every refusal prints one
``error:`` line on stderr and nothing on stdout; ``main`` decides the code,
from ``CliError`` or the library's exception.  Each range rule is checked
once, in the library; this module checks only what the library does not
see: flag combinations, ``--atol``/``--rtol``, the cap on qpoly's ``--nu``,
Hellinger's signed orders, and the parsing of files and flags.

Each handler imports, when it runs, only the package's modules its subcommand
calls, and loading this module loads none of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import numbers
import sys
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

import numpy as np

if TYPE_CHECKING:
    from .bounds import BoundReport
    from .pmf import ProbVector

__all__ = ["main", "entrypoint"]


class CliError(Exception):
    """A refusal and its exit code (see the module docstring)."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


def _to_json(obj: Any) -> str:
    """JSON text of a payload; numpy arrays and scalars are written as lists
    and numbers, a ``Fraction`` (any non-integer ``numbers.Rational``) as its
    string, and a dataclass instance as its fields in declaration order."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, (str, numbers.Rational)):
        return json.dumps(str(obj))
    if dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        parts = [f"{json.dumps(str(k))}: {_to_json(v)}" for k, v in obj.items()]
        return "{" + ", ".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_to_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _cell(v: Any) -> str:
    """One CSV cell; as in RFC 4180, a cell holding a comma or a quote is
    quoted, with its quotes doubled."""
    if isinstance(v, bool):
        return "true" if v else "false"
    text = _fmt_float(v) if isinstance(v, float) else str(v)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write(fmt: str, payload: Any, header: str = "", rows: Iterable[Sequence[Any]] = ()) -> None:
    """Print ``payload`` as JSON or, for ``csv``, the header and one line per row."""
    if fmt == "csv":
        lines = [header, *(",".join(map(_cell, row)) for row in rows)]
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_to_json(payload) + "\n")


# ---------------------------------------------------------------------------
# shared input handling
# ---------------------------------------------------------------------------

def _add_input_flags(sub: argparse.ArgumentParser, required: bool = True) -> None:
    grp = sub.add_mutually_exclusive_group(required=required)
    grp.add_argument("--probs", metavar="FILE",
                     help="probability file (one decimal per line, or a JSON array)")
    grp.add_argument("--binomial", nargs=2, metavar=("N", "LAMBDA"),
                     help="equal probabilities lambda/n repeated n times")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _load_vector(args: argparse.Namespace) -> ProbVector:
    from . import pmf
    if args.probs is not None:
        try:
            return pmf.load_probs(args.probs)
        except OSError as exc:
            raise CliError(2, f"cannot read {args.probs}: {exc}") from exc
        except ValueError as exc:  # a malformed file, JSON included
            raise CliError(2, str(exc)) from exc
    n_text, lam_text = args.binomial
    try:
        n = int(n_text)
        lam = float(lam_text)
    except ValueError as exc:
        raise CliError(2, f"--binomial expects an integer and a decimal: {exc}") from exc
    return pmf.equal_probs(n, lam)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_pmf(args: argparse.Namespace) -> int:
    from . import pmf
    p = _load_vector(args)
    if args.order == 0:
        if args.kmax is not None:
            from .corrected import MAX_ORDER
            raise CliError(2, f"--kmax applies only to --order 1..{MAX_ORDER}")
        out = pmf.poisson_binomial_pmf(p)
    else:
        from . import corrected
        out = corrected.build_phi_nu(corrected.spec_for_order(p, args.order), args.kmax).pmf
    payload = {
        "support_max": out.support_max,
        "mass": out.mass,
        "tail_bound": out.tail_bound,
        "label": out.label,
    }
    _write(args.format, payload, "k,mass", enumerate(out.mass.tolist()))
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    from . import corrected, distances, pmf
    p = _load_vector(args)
    if args.exact and args.metric != "d2":
        raise CliError(2, "--exact applies only to --metric d2")
    if args.kmax is not None and args.metric != "hellinger":
        raise CliError(2, "--kmax applies only to --metric hellinger")
    if args.metric == "hellinger" and args.order >= 2:
        raise CliError(4, "Hellinger distance is undefined for signed corrected measures "
                          f"(order {args.order})")
    spec = corrected.spec_for_order(p, args.order)
    if args.metric == "hellinger":  # the measure first: it refuses a --kmax below 0
        measure = corrected.build_phi_nu(spec, args.kmax).pmf
        result = distances.hellinger(pmf.poisson_binomial_pmf(p), measure)
    else:
        result = distances.sn_distance(p, spec, args.metric)
    if not math.isfinite(result.value):
        raise CliError(3, result.note or f"{args.metric} is not finite")
    _write(args.format, result, "value,truncation_error,method",
           [(result.value, result.truncation_error, result.method)])
    return 0


def _retolerated(reports: list[BoundReport], args: argparse.Namespace) -> list[BoundReport]:
    """Each report re-made under ``--atol``/``--rtol``, the library's where unset."""
    from . import bounds
    atol = bounds.ABS_TOL if args.atol is None else args.atol
    rtol = bounds.REL_TOL if args.rtol is None else args.rtol
    return [bounds.BoundReport.make(r.name, r.lhs, r.rhs, r.inputs_digest, atol, rtol)
            for r in reports]


def _theta_at(args: argparse.Namespace) -> tuple[int, int, int] | None:
    """--j, --m and --s, or None when none is given."""
    at = (args.j, args.m, args.s)
    if at == (None, None, None):
        return None
    if None in at:
        raise CliError(2, "--j, --m and --s must be given together")
    return at


def _remark2(bounds: ModuleType, args: argparse.Namespace) -> tuple[list[BoundReport], dict]:
    if args.lam is None:
        raise CliError(2, "--check remark2 requires --lambda")
    grid = _parse_grid(args.n_grid) if args.n_grid else None  # None: the library's grid
    probe = bounds.check_simplified_order3(args.lam, grid)
    return [probe.report], {"fit": probe.fit, "n2_scaled_last": probe.n2_scaled_last,
                            "limit": probe.limit}


# --check NAME: the library's reports, and the payload fields written before
# them, from the module ``bounds`` once ``_cmd_bounds`` has imported it
_CHECKS: dict[str, Callable[[ModuleType, argparse.Namespace],
                            tuple[list[BoundReport], dict]]] = {
    "theorem2": lambda b, a: (b.check_order2_bound(_load_vector(a)), {}),
    "theorem3": lambda b, a: (b.check_order3_bound(_load_vector(a)), {}),
    "sandwich": lambda b, a: (b.check_sandwich(_load_vector(a), a.mmax), {}),
    "lower3": lambda b, a: (b.check_lower3(_load_vector(a), a.mmax), {}),
    "theta": lambda b, a: (b.check_theta(_load_vector(a), _theta_at(a)), {}),
    "remark2": _remark2,
    "classic": lambda b, a: (b.check_classic_chain(_load_vector(a)), {}),
}


def _cmd_bounds(args: argparse.Namespace) -> int:
    from . import bounds
    if args.check != "remark2" and args.probs is None and args.binomial is None:
        raise CliError(2, f"--check {args.check} requires --probs or --binomial")
    for flag, value in (("--atol", args.atol), ("--rtol", args.rtol)):
        if value is not None and not 0 <= value < math.inf:
            raise CliError(2, f"{flag} must be finite and >= 0, got {value}")
    reports, payload = _CHECKS[args.check](bounds, args)
    reports = _retolerated(reports, args)
    ok = all(r.holds for r in reports)
    payload.update(reports=reports, all_hold=ok)
    header = ",".join(f.name for f in dataclasses.fields(bounds.BoundReport))
    _write(args.format, payload, header, map(dataclasses.astuple, reports))
    return 0 if ok else 1


def _cmd_gamma_table(args: argparse.Namespace) -> int:
    from . import binomial
    table = binomial.solve_gamma_table(args.nu)
    payload = table.to_json_dict()
    if args.compare_paper:
        payload["comparison"] = {
            "mismatches": binomial.compare_with_published(args.nu),
        }
    _write("json", payload)
    return 0


def _cmd_qpoly(args: argparse.Namespace) -> int:
    from . import binomial
    if not 0 <= args.nu <= 10:
        raise CliError(2, "--nu must be between 0 and 10")
    q = binomial.q_polynomial(args.nu)
    payload: dict[str, Any] = {
        "nu": args.nu,
        "coefficients": [str(c) for c in q.coeffs],
    }
    if args.lam is not None:
        payload["c_order"] = args.nu + 1
        try:
            payload["c_value"] = binomial.c_constant(args.nu + 1, args.lam)
        except OverflowError:
            payload["c_value"] = None  # C_(nu+1)(lam) leaves binary64
    _write("json", payload)
    return 0


def _parse_grid(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise CliError(2, f"--n-grid expects comma-separated integers: {exc}") from exc


def _parse_orders(text: str) -> tuple[int | str, ...]:
    orders: list[int | str] = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok == "3t":
            orders.append("3t")
        else:
            try:
                orders.append(int(tok))
            except ValueError as exc:
                raise CliError(2, f"--orders expects integers or 3t: {tok!r}") from exc
    return tuple(orders)


def _cmd_scan(args: argparse.Namespace) -> int:
    from . import binomial, bounds
    grid = _parse_grid(args.n_grid)
    fits = bounds.fit_rate(args.lam, _parse_orders(args.orders), grid, args.metric)
    rows = []
    for fit in fits:
        c = None  # none for "3t", or where C_nu(lam) leaves binary64
        if isinstance(fit.order, int):
            try:
                c = binomial.c_constant(fit.order, args.lam)
            except OverflowError:
                pass
        kept = dict(zip(fit.grid, fit.distances))  # a size the fit dropped prints 0
        rows += [(n, fit.order, kept.get(n, 0.0), "" if c is None else c / n**fit.order)
                 for n in grid]
    _write("csv", None, "n,order,distance,bound", rows)
    _write("json", {"fits": fits})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrpois",
        description="Corrected Poisson approximations for sums of independent "
                    "indicators: construction, distances, and bound checks.")
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("pmf", help="emit exact or corrected mass functions")
    _add_input_flags(sp)
    sp.add_argument("--order", type=int, default=1,
                    help="correction order (0 = exact distribution of the sum)")
    sp.add_argument("--kmax", type=int, default=None, help="support cutoff (default auto)")
    sp.set_defaults(func=_cmd_pmf)

    sp = subs.add_parser("distance", help="distance between the exact sum and a "
                                          "corrected measure")
    _add_input_flags(sp)
    sp.add_argument("--metric", required=True,
                    choices=("tv", "d2", "d2tilde", "wass", "hellinger"))
    sp.add_argument("--order", type=int, default=1)
    sp.add_argument("--exact", action="store_true",
                    help="accepted with --metric d2 only, and changes nothing: every "
                         "d2 reads the same proven difference of S_n and the measure")
    sp.add_argument("--kmax", type=int, default=None,
                    help="support cutoff of the measure for hellinger (default auto)")
    sp.set_defaults(func=_cmd_distance)

    sp = subs.add_parser("bounds", help="verify inequalities and report slack")
    _add_input_flags(sp, required=False)
    sp.add_argument("--check", required=True, choices=tuple(_CHECKS))
    sp.add_argument("--mmax", type=int, default=15)
    sp.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="mean for --check remark2")
    sp.add_argument("--n-grid", default=None, help="comma-separated sizes for remark2")
    sp.add_argument("--j", type=int, default=None)
    sp.add_argument("--m", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--atol", type=float, default=None)
    sp.add_argument("--rtol", type=float, default=None)
    sp.set_defaults(func=_cmd_bounds)

    sp = subs.add_parser("gamma-table", help="exact correction coefficients for the "
                                             "equal-probability case")
    sp.add_argument("--nu", type=int, required=True)
    sp.add_argument("--compare-paper", action="store_true",
                    help="diff against the published coefficient listing")
    sp.set_defaults(func=_cmd_gamma_table)

    sp = subs.add_parser("qpoly", help="exact Q polynomial coefficients")
    sp.add_argument("--nu", type=int, required=True)
    sp.add_argument("--lambda", dest="lam", type=float, default=None,
                    help="also evaluate the distance constant of order nu+1")
    sp.set_defaults(func=_cmd_qpoly)

    sp = subs.add_parser("scan", help="distance-versus-n scan with rate fits")
    sp.add_argument("--lambda", dest="lam", type=float, required=True)
    sp.add_argument("--n-grid", required=True)
    sp.add_argument("--orders", required=True,
                    help="comma-separated correction orders (integers or 3t)")
    sp.add_argument("--metric", choices=("tv", "d2"), default="d2")
    sp.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except CliError as exc:
        code, reason = exc.code, str(exc)
    except ValueError as exc:  # the library's refusal of an argument, a domain or a rate fit
        pmf = sys.modules.get(f"{__package__}.pmf")  # loaded by every library call
        bounds = sys.modules.get(f"{__package__}.bounds")  # loaded if a fit ran
        code = (5 if bounds and isinstance(exc, bounds.FitRefused)
                else 2 if pmf and isinstance(exc, pmf.InputError) else 3)
        reason = str(exc)
    except OverflowError as exc:
        code, reason = 3, f"numeric overflow: {exc}"
    print(f"error: {reason}", file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main())
