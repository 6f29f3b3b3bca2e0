"""Corrected (signed) Poisson approximations for sums of independent indicators.

The package builds the exact Poisson-binomial distribution of
S_n = I_1 + ... + I_n, constructs corrected Poisson measures whose factorial
moments match those of S_n to increasing order, measures how close the two
are in several metrics, and numerically verifies the inequalities that make
the corrections work.
"""

from .binomial import (
    GammaTable,
    RationalPolynomial,
    c_constant,
    c_constant_series,
    compare_with_published,
    falling_factorial_remainder,
    gamma_floats,
    q_polynomial,
    solve_gamma_table,
    stirling_unsigned,
)
from .bounds import (
    BoundReport,
    RateFit,
    check_classic_chain,
    check_lower3,
    check_order2_bound,
    check_order3_bound,
    check_sandwich,
    check_simplified_order3,
    fit_loglog,
    fit_rate,
    random_prob_vectors,
    theta,
)
from .charlier import (
    charlier,
    charlier_values,
    covariance_identity_check,
    falling_factorial,
    orthogonality_check,
)
from .corrected import (
    CorrectedMeasure,
    CorrectionSpec,
    build_phi2,
    build_phi3,
    build_phi3_tilde,
    build_phi_nu,
    invert_moments,
    spec_phi2,
    spec_phi3,
    spec_for_order,
    spec_phi3_tilde,
    spec_poisson,
)
from .distances import (
    DistanceResult,
    certify_domination,
    d2,
    d2_exact_product,
    d2_tilde,
    hellinger,
    sn_distance,
    tv,
    wasserstein,
    weighted_l1,
)
from .pmf import (
    FactorialMoments,
    PowerSums,
    ProbVector,
    SignedPmf,
    elementary_symmetric,
    equal_probs,
    factorial_moments_sn,
    load_probs,
    poisson_binomial_pmf,
    poisson_pmf,
    poisson_tail_bound,
    power_sums,
)

__version__ = "0.1.0"
