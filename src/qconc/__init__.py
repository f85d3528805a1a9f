"""Entanglement measures for N x N bipartite states.

Pure-state entanglement of formation and quadratic concurrences, the
generalized concurrence D built on (m, n) eigenvalue profiles, closed-form
lower bounds on decomposition-averaged D and on entanglement of formation
for mixed states, a numeric convex-roof optimizer to cross-check the
bounds, and reproducible samplers.  The ``qconc`` console script exposes
everything on the command line.

Each public name is imported from its module on first access (PEP 562),
so ``import qconc`` loads no module that the caller does not use.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the module that defines it, in the order of ``__all__``.
_EXPORTS = {
    **dict.fromkeys(("QconcError", "InputError", "NumericalError", "ProfileMismatch"), "errors"),
    **dict.fromkeys(("hermitian_eig", "sqrt_psd", "takagi"), "linalg"),
    **dict.fromkeys((
        "PureState",
        "SpectrumProfile",
        "from_coefficients",
        "reduced_density",
        "schmidt_spectrum",
        "eof_pure",
        "concurrence_c2",
        "concurrence_cn",
        "local_invariants",
        "spectrum_profile",
        "generalized_concurrence_D",
        "psi_condition_iii",
    ), "purestate"),
    **dict.fromkeys((
        "EigFamily",
        "eof_from_spectrum",
        "eof_of_d",
        "d_two_eigen",
        "lemma_value",
        "dE_dD",
        "convexity_value",
        "arith3_closed_forms",
    ), "spectra"),
    **dict.fromkeys((
        "DensityMatrix",
        "Decomposition",
        "SIndex",
        "LambdaSpectrum",
        "validate_density",
        "pure_density",
        "mix_pure_states",
        "canonical_indices",
        "s_matrix",
        "d_ipjq_pure",
        "lambda_spectrum",
        "tau_matrix",
        "optimal_index_decomposition",
        "d_lower_bound",
        "index_deficits",
        "bound_from_deficits",
        "eof_lower_bound",
        "ppt_check",
        "form_a_check",
        "example_3x3_bound",
    ), "mixed"),
    **dict.fromkeys((
        "AverageE",
        "AverageD",
        "RoofProblem",
        "RoofResult",
        "RoofStart",
        "transform_decomposition",
        "average_objective",
        "minimize_roof",
        "certify_bound",
    ), "roofopt"),
    **dict.fromkeys((
        "generator",
        "haar_unitary",
        "random_pure",
        "random_form_a_state",
        "random_form_a_mixture",
    ), "sampling"),
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
