"""f-divergences through power chi expansions.

The library computes f-divergences between probability distributions by
expanding the generator around u = 1 in power chi pseudo-distances
``chi_i(p:q) = integral (q - p)^i / p^(i-1)``: exactly when the expansion
is finite (polynomial generators, odd-alpha divergences), truncated with
certified remainder bounds when the density ratio is bounded, and in
closed form for affine exponential families.
"""

from __future__ import annotations

from .errors import (
    DivergenceError,
    FchiError,
    InputError,
    OverflowSaturationError,
)
from .generators import (
    CATALOG,
    Generator,
    alpha_generator,
    catalog_coeff,
    conjugate_coeffs,
    conjugate_generator,
    exponential,
    from_spec,
    generalized_binomial,
    harmonic,
    jeffreys,
    jensen_shannon,
    kl,
    polynomial_generator,
    reverse_kl,
)
from .families import (
    DiscreteDistribution,
    MixtureSpec,
    PairSpec,
    bernoulli,
    categorical,
    family_from_name,
    gaussian_iso,
    load_pair_spec,
    poisson,
    ratio_bounds_discrete,
    trunc_exp,
    vmf,
)
from .chi import (
    ChiBasis,
    basis_build_count,
    chi_abs,
    chi_pm,
    chi_pm_quadrature,
    compute_basis,
    provenance,
    reset_basis_build_count,
)
from .expansion import (
    DEFAULT_TOL,
    ExpansionReport,
    RatioBounds,
    alpha_odd_expansion,
    batch_evaluate,
    chi_expansion,
    converge,
    pair_ratio_bounds,
    remainder_bound,
)
from .reference import (
    exact_alpha_aef,
    exact_f_divergence_discrete,
    quadrature_f_divergence,
)

__version__ = "0.1.0"

__all__ = [
    "DivergenceError",
    "FchiError",
    "InputError",
    "OverflowSaturationError",
    "CATALOG",
    "Generator",
    "alpha_generator",
    "catalog_coeff",
    "conjugate_coeffs",
    "conjugate_generator",
    "exponential",
    "from_spec",
    "generalized_binomial",
    "harmonic",
    "jeffreys",
    "jensen_shannon",
    "kl",
    "polynomial_generator",
    "reverse_kl",
    "DiscreteDistribution",
    "MixtureSpec",
    "PairSpec",
    "bernoulli",
    "categorical",
    "family_from_name",
    "gaussian_iso",
    "load_pair_spec",
    "poisson",
    "ratio_bounds_discrete",
    "trunc_exp",
    "vmf",
    "ChiBasis",
    "basis_build_count",
    "chi_abs",
    "chi_pm",
    "chi_pm_quadrature",
    "compute_basis",
    "provenance",
    "reset_basis_build_count",
    "DEFAULT_TOL",
    "ExpansionReport",
    "RatioBounds",
    "alpha_odd_expansion",
    "batch_evaluate",
    "chi_expansion",
    "converge",
    "pair_ratio_bounds",
    "remainder_bound",
    "exact_alpha_aef",
    "exact_f_divergence_discrete",
    "quadrature_f_divergence",
    "__version__",
]
