"""Corrected (signed) Poisson approximations for sums of independent indicators.

The package builds the exact Poisson-binomial distribution of
S_n = I_1 + ... + I_n, constructs corrected Poisson measures whose factorial
moments match those of S_n to increasing order, measures how close the two
are in several metrics, and numerically verifies the inequalities that make
the corrections work.

Each public name, and each submodule, is imported on first access (PEP 562),
so ``import corrpois`` alone loads neither a submodule nor numpy.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "binomial": (
        "GammaTable", "PUBLISHED_GAMMA_TABLE", "RationalPolynomial",
        "SUSPECT_PUBLISHED_ENTRIES", "c_constant", "c_constant_series",
        "compare_with_published", "gamma_floats", "q_polynomial", "solve_gamma_table",
        "stirling_unsigned",
    ),
    "bounds": (
        "BoundReport", "FitRefused", "RateFit", "SimplifiedOrder3Probe",
        "check_classic_chain", "check_lower3", "check_order2_bound", "check_order3_bound",
        "check_sandwich", "check_simplified_order3", "check_theta", "falling_factorial",
        "fit_loglog", "fit_rate", "simplified_order3_differences", "theta",
    ),
    "corrected": (
        "CorrectedMeasure", "CorrectionSpec", "build_phi_nu", "gamma_from_power_sums",
        "invert_moments", "spec_phi2", "spec_phi3", "spec_for_order", "spec_phi3_tilde",
        "spec_poisson",
    ),
    "distances": (
        "DistanceResult", "certify_domination", "d2", "d2_exact_product", "hellinger",
        "sn_distance", "tv",
    ),
    "pmf": (
        "FactorialMoments", "PowerSums", "ProbVector", "SignedPmf", "equal_probs",
        "factorial_moments_sn", "load_probs", "poisson_binomial_pmf", "poisson_pmf",
        "poisson_tail_bound", "power_sums",
    ),
}
_NAMES = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = {*_EXPORTS, "cli"}

__all__ = list(_NAMES)


def __getattr__(name: str):
    if name in _NAMES:
        module = importlib.import_module(f".{_NAMES[name]}", __name__)
        globals().update((n, getattr(module, n)) for n in _EXPORTS[_NAMES[name]])
        return globals()[name]
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_NAMES, *_SUBMODULES})
