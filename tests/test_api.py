"""fchi.__all__, pinned: removing or adding a name is a test change."""

import fchi
from fchi import chi, expansion

PUBLIC = [
    "DivergenceError", "FchiError", "InputError", "OverflowSaturationError",
    "CATALOG", "Generator", "alpha_generator", "catalog_coeff",
    "conjugate_coeffs", "conjugate_generator", "exponential", "from_spec",
    "generalized_binomial", "harmonic", "jeffreys", "jensen_shannon", "kl",
    "polynomial_generator", "reverse_kl",
    "DiscreteDistribution", "MixtureSpec", "PairSpec", "bernoulli",
    "categorical", "family_from_name", "gaussian_iso", "load_pair_spec",
    "poisson", "ratio_bounds_discrete", "trunc_exp", "vmf",
    "ChiBasis", "basis_build_count", "chi_abs", "chi_pm", "chi_pm_quadrature",
    "compute_basis", "provenance", "reset_basis_build_count",
    "DEFAULT_TOL", "ExpansionReport", "RatioBounds", "alpha_odd_expansion",
    "batch_evaluate", "chi_expansion", "converge", "pair_ratio_bounds",
    "remainder_bound",
    "exact_alpha_aef", "exact_f_divergence_discrete",
    "quadrature_f_divergence",
    "__version__",
]

# the per-route chi functions and the terms view that the pair-level
# chi_pm, chi_pm_orders, chi_abs and converge(...).terms replaced
REMOVED = ["chi_pm_discrete", "chi_abs_discrete", "chi_pm_aef",
           "chi_pm_mixture", "chi_pm_trunc_exp_closed", "expansion_terms"]


def test_all_is_the_pinned_public_api():
    assert len(PUBLIC) == 52
    assert fchi.__all__ == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(fchi, name)]
    assert missing == []


def test_removed_names_are_gone():
    for module in (fchi, chi, expansion):
        assert [name for name in REMOVED if hasattr(module, name)
                or name in module.__all__] == []
