"""Pure bipartite states and their single-state entanglement measures.

A pure state of two N-level systems is stored as its N x N complex
coefficient matrix A: component (i, p) of A is the amplitude of the
product basis vector e_i (x) e_p.  The flattened (row-major) matrix is the
state vector, so index N*(i-1) + p in 1-based terms carries a_ip.

Everything observable here derives from the reduced density matrix
``A @ A.conj().T``: the entanglement of formation is its eigenvalue
entropy, the quadratic concurrences come from the trace invariants
I0 = tr(AA^H) and I1 = tr((AA^H)^2), and the generalized concurrence D is
built from an eigenvalue profile of n distinct values with a common
multiplicity m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    NonFinite,
    NotNormalized,
    NumericalInconsistency,
    ProfileMismatch,
    ZeroState,
)
from .linalg import lapack_errors
from .spectra import concurrence_of_values, entropy_bits

NORM_TOL = 1e-10
CLUSTER_TOL = 1e-8
PROFILE_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit-norm pure state on an N x N bipartite system.

    Attributes
    ----------
    dim : int
        Local dimension N >= 2.
    coeffs : numpy.ndarray
        N x N complex coefficient matrix with unit Frobenius norm.
    """

    dim: int
    coeffs: np.ndarray

    def vector(self) -> np.ndarray:
        """State vector: row-major flattening of the coefficient matrix."""
        return self.coeffs.reshape(-1)


@dataclass(frozen=True)
class SpectrumProfile:
    """n distinct nonzero reduced-density eigenvalues, multiplicity m each."""

    n: int
    m: int
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.values) != self.n:
            raise ProfileMismatch(f"expected {self.n} values, got {len(self.values)}")
        if any(v <= 0 or v > 1.0 / self.m + 1e-8 for v in self.values):
            raise ProfileMismatch(f"values outside (0, 1/m]: {self.values}")


def from_coefficients(A, tol: float = NORM_TOL, renormalize: bool = False) -> PureState:
    """Build a PureState from a square coefficient matrix.

    Parameters
    ----------
    A : array_like
        N x N complex matrix, N >= 2.
    tol : float
        Allowed deviation of the Frobenius norm from 1.
    renormalize : bool
        When true, rescale to unit norm instead of rejecting.

    Raises
    ------
    ZeroState
        Norm below 1e-12.
    NotNormalized
        Norm outside ``tol`` and ``renormalize`` not set.
    DimensionMismatch
        Not a square matrix with N >= 2.
    NonFinite
        NaN or infinite entries, or entries so large that the norm overflows.
    """
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 2:
        raise DimensionMismatch(f"need a square N x N matrix with N >= 2, got {M.shape}")
    if not np.isfinite(M).all():
        raise NonFinite("coefficient matrix has NaN or infinite entries")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(M))
    if norm == np.inf:
        raise NonFinite("the norm of the coefficient matrix overflows")
    if norm < 1e-12:
        raise ZeroState("coefficient matrix has vanishing norm")
    if abs(norm - 1.0) > tol and not renormalize:
        raise NotNormalized(f"Frobenius norm {norm!r} differs from 1 by more than {tol}")
    return PureState(M.shape[0], M / norm)


def reduced_density(psi: PureState) -> np.ndarray:
    """Reduced density matrix of the first factor, ``A @ A.conj().T``."""
    return psi.coeffs @ psi.coeffs.conj().T


def schmidt_spectrum(psi: PureState) -> np.ndarray:
    """Descending eigenvalues of A A^H for the coefficients A, clamped at 0: the one Schmidt-spectrum kernel.

    LAPACK failures raise ConvergenceFailure.
    """
    A = psi.coeffs
    with lapack_errors():
        return np.maximum(np.linalg.eigvalsh(A @ A.conj().T)[::-1], 0.0)


def eof_pure(psi: PureState) -> float:
    """Entanglement of formation in bits: eigenvalue entropy of AA^H.

    0 * log 0 is taken as 0; the result lies in [0, log2 N].
    """
    return entropy_bits(schmidt_spectrum(psi))


def concurrence_c2(psi: PureState) -> float:
    """Two-qubit concurrence 2|a11 a22 - a12 a21|; requires N = 2."""
    if psi.dim != 2:
        raise DimensionMismatch(f"concurrence_c2 needs N = 2, got N = {psi.dim}")
    A = psi.coeffs
    return float(2.0 * abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]))


def local_invariants(psi: PureState) -> tuple[float, float]:
    """Trace invariants (I0, I1) = (tr AA^H, tr (AA^H)^2).

    Both are unchanged under local unitaries A -> U A V^T.  I0 is 1 for a
    normalized state and I1 ranges over [1/N, 1].
    """
    G = reduced_density(psi)
    i0 = float(np.trace(G).real)
    i1 = float(np.vdot(G, G).real)
    return i0, i1


def concurrence_cn(psi: PureState) -> float:
    """Quadratic N-dimensional concurrence sqrt(N/(N-1) (I0^2 - I1)).

    Vanishes exactly on product states and equals concurrence_c2 at N = 2.
    A slightly negative radicand (> -1e-12, pure roundoff) is clamped.
    """
    i0, i1 = local_invariants(psi)
    rad = (psi.dim / (psi.dim - 1.0)) * (i0 * i0 - i1)
    if rad < -1e-12:
        raise NumericalInconsistency(f"negative radicand {rad!r} in concurrence_cn")
    return float(np.sqrt(max(rad, 0.0)))


def _cluster(values: np.ndarray, tol: float) -> list[list[float]]:
    """Group a descending list of positives by relative gap tol."""
    clusters: list[list[float]] = []
    for v in values:
        if clusters and (clusters[-1][0] - v) <= tol * clusters[-1][0]:
            clusters[-1].append(float(v))
        else:
            clusters.append([float(v)])
    return clusters


def profile_from_values(
    spectrum,
    m: int,
    n: int,
    tol: float = CLUSTER_TOL,
    allow_coincident: bool = False,
) -> SpectrumProfile:
    """Match a descending nonnegative spectrum against an (m, n) profile.

    The values are split into clusters whenever the relative gap exceeds
    ``tol``; values below ``tol`` count as zero, and only the whole
    spectrum must sum to 1 (within 1e-8).  The profile matches when there
    are exactly n clusters of size m.

    With ``allow_coincident`` set, clusters whose size is a multiple of m
    may stand in for several coincident distinct values (a cluster of size
    k*m contributes k copies of its mean).  D and the related identities
    are continuous across such collisions, so downstream measures opt in.

    Raises
    ------
    ProfileMismatch
        With a diagnostic of the observed clustering.
    """
    if m < 1 or n < 1:
        raise ProfileMismatch(f"need m, n >= 1, got m={m} n={n}")
    lam = np.asarray(spectrum, dtype=float)
    if abs(lam.sum() - 1.0) > 1e-8:
        raise ProfileMismatch(f"spectrum sums to {float(lam.sum())!r}, expected 1")
    nonzero = lam[lam >= tol]
    clusters = _cluster(nonzero, tol)
    sizes = [len(c) for c in clusters]

    values: list[float] = []
    if sizes == [m] * n:
        values = [float(np.mean(c)) for c in clusters]
    elif allow_coincident and sum(sizes) == m * n and all(s % m == 0 for s in sizes):
        for c in clusters:
            values.extend([float(np.mean(c))] * (len(c) // m))
    else:
        means = [float(np.mean(c)) for c in clusters]
        diag = f"observed clusters of sizes {sizes} with means {means}"
        raise ProfileMismatch(f"profile (m={m}, n={n}) not matched; {diag}")
    return SpectrumProfile(n=n, m=m, values=tuple(values))


def spectrum_profile(psi: PureState, m: int, n: int, allow_coincident: bool = False) -> SpectrumProfile:
    """Match the reduced-density spectrum of a state against an (m, n) profile.

    See ``profile_from_values`` for the rules; clusters split at CLUSTER_TOL.
    """
    if m < 1 or n < 1 or m * n > psi.dim:
        raise ProfileMismatch(f"need m, n >= 1 and m*n <= N, got m={m} n={n} N={psi.dim}")
    return profile_from_values(schmidt_spectrum(psi), m, n, CLUSTER_TOL, allow_coincident)


def generalized_concurrence_D(psi: PureState, m: int, n: int) -> float:
    """Generalized concurrence D = m*n*sqrt(product of the n distinct values).

    The (m, n) profile is matched with the coincident-cluster override so
    that colliding distinct values (the D = 1 endpoint of the rows-2=3
    family, for instance) are still accepted.  The value is returned raw;
    callers that care can flag D outside [0, 1].
    """
    return concurrence_of_values(spectrum_profile(psi, m, n, allow_coincident=True).values, m)


def psi_condition_iii(psi: PureState, m: int, n: int) -> bool:
    """Check D = (mn/sqrt 2) * sqrt(I0^2 - I1) within 1e-8.

    This ties the spectral product definition of D to the quadratic
    invariants; it holds automatically for any state with exactly two
    simple nonzero eigenvalues and fails for generic spectra.
    """
    d = generalized_concurrence_D(psi, m, n)
    i0, i1 = local_invariants(psi)
    rhs = (m * n / np.sqrt(2.0)) * np.sqrt(max(i0 * i0 - i1, 0.0))
    return bool(abs(d - rhs) <= 1e-8)
