"""Explicit-formula rank bounds and moment statistics for quadratic twist
families of elliptic curves."""

from .arith import (
    ParityDecomposition,
    PrimeTable,
    fundamental_discriminant,
    kronecker,
    mobius,
    parity_decompose,
    sieve_primes,
    squarefree_part,
)
from .curve import (
    CurveModel,
    TwistedCurve,
    ap,
    builtin_catalog,
    cpm,
    load_catalog,
)
from .explicit_formula import ExplicitFormulaReport, ef_total, prime_side
from .family_moments import (
    MomentConfig,
    MomentRow,
    X_k,
    empirical_rank_tail,
    lowzero_density_bound,
    rank_density_bound,
    sign_partition_stats,
    theoretical_moment_bound,
    weighted_moment,
)
from .kernel import (
    SmoothWeight,
    TriangleKernel,
    archimedean_integral,
    mellin_phi,
    mellin_phi_quadrature,
    triangle,
    weight_eval,
    weight_fourier,
    weight_l_eval,
)

__version__ = "0.1.0"
