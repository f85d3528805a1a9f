"""Entanglement measures for N x N bipartite states.

Pure-state entanglement of formation and quadratic concurrences, the
generalized concurrence D built on (m, n) eigenvalue profiles, closed-form
lower bounds on decomposition-averaged D and on entanglement of formation
for mixed states, a numeric convex-roof optimizer to cross-check the
bounds, and reproducible samplers.  The ``qconc`` console script exposes
everything on the command line.
"""

__version__ = "0.1.0"

from .errors import (
    InputError,
    NumericalError,
    ProfileMismatch,
    QconcError,
)
from .linalg import hermitian_eig, sqrt_psd, takagi
from .mixed import (
    Decomposition,
    DensityMatrix,
    LambdaSpectrum,
    SIndex,
    canonical_indices,
    d_ipjq_pure,
    d_lower_bound,
    eof_lower_bound,
    example_3x3_bound,
    form_a_check,
    lambda_spectrum,
    mix_pure_states,
    optimal_index_decomposition,
    ppt_check,
    pure_density,
    s_matrix,
    tau_matrix,
    validate_density,
)
from .purestate import (
    PureState,
    SpectrumProfile,
    concurrence_c2,
    concurrence_cn,
    eof_pure,
    from_coefficients,
    generalized_concurrence_D,
    local_invariants,
    psi_condition_iii,
    reduced_density,
    schmidt_spectrum,
    spectrum_profile,
)
from .roofopt import (
    AverageD,
    AverageE,
    RoofProblem,
    RoofResult,
    average_objective,
    certify_bound,
    minimize_roof,
    transform_decomposition,
)
from .sampling import (
    generator,
    haar_unitary,
    random_form_a_mixture,
    random_form_a_state,
    random_pure,
)
from .spectra import (
    EigFamily,
    arith3_closed_forms,
    convexity_value,
    dE_dD,
    d_two_eigen,
    eof_from_spectrum,
    eof_of_d,
    lemma_value,
)

__all__ = [
    "__version__",
    "QconcError",
    "InputError",
    "NumericalError",
    "ProfileMismatch",
    "hermitian_eig",
    "sqrt_psd",
    "takagi",
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
    "EigFamily",
    "eof_from_spectrum",
    "eof_of_d",
    "d_two_eigen",
    "lemma_value",
    "dE_dD",
    "convexity_value",
    "arith3_closed_forms",
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
    "eof_lower_bound",
    "ppt_check",
    "form_a_check",
    "example_3x3_bound",
    "AverageE",
    "AverageD",
    "RoofProblem",
    "RoofResult",
    "transform_decomposition",
    "average_objective",
    "minimize_roof",
    "certify_bound",
    "generator",
    "haar_unitary",
    "random_pure",
    "random_form_a_state",
    "random_form_a_mixture",
]
