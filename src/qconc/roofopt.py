"""Convex-roof minimization over pure-state decompositions.

Any decomposition of a rank-r density matrix into t >= r pure states is
parametrized by a t x r isometry Q acting on the subnormalized
eigenvectors: |w_k> = sum_l conj(Q_kl) |v_l>.  ``minimize_roof`` searches
these isometries from several starts (the Riemannian conjugate-gradient
search of ``roofsearch``) and recomputes the winner's value through
``average_objective`` from the member states.  This is an independent
numeric check of the closed-form lower bounds; it never certifies global
optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotIsometry, OutOfRange, ProfileMismatch
from .mixed import DensityMatrix, Decomposition, d_lower_bound, eigen_vectors_subnormalized
from .purestate import profile_from_values, schmidt_spectrum
from .sampling import generator, haar_isometry
from .spectra import concurrence_of_values, entropy_bits

ISOMETRY_TOL = 1e-10
PROFILE_TOL = 1e-6


@dataclass(frozen=True)
class AverageE:
    """Decomposition-averaged entanglement of formation (bits)."""


@dataclass(frozen=True)
class AverageD:
    """Decomposition-averaged generalized concurrence with an (m, n) profile.

    Members whose normalized spectrum fails the profile at relative
    tolerance ``tol`` (coincident-cluster rule applied) are nonconforming:
    ``average_objective`` raises ProfileMismatch and the search scores
    them +inf.  For m = 1, a member with fewer than n Schmidt values at or
    above ``tol`` is not a mismatch: it scores the continuous limit
    n sqrt(lambda_1 ... lambda_n) of its top n values, which is 0 for a
    product state.
    """

    m: int
    n: int
    tol: float = PROFILE_TOL


@dataclass(frozen=True)
class RoofProblem:
    """Roof-minimization instance.

    t_max caps the decomposition cardinality (None means rank + 2);
    restarts counts optimization starts per cardinality, the first being
    the eigendecomposition itself.  tol is the threshold on the Frobenius
    norm of the Riemannian gradient (at kinks, the minimum-norm
    subgradient) below which a start has converged.  max_sweeps caps the
    conjugate-gradient cycles of a start; a cycle is 2tr - r^2 iterations
    (the real dimension of the t x r isometries), after which the
    direction restarts at steepest descent.
    """

    target: DensityMatrix
    objective: AverageE | AverageD
    t_max: int | None = None
    restarts: int = 4
    seed: int = 0
    tol: float = 1e-8
    max_sweeps: int = 100

    def __post_init__(self):
        if self.restarts < 1:
            raise OutOfRange(f"restarts must be >= 1, got {self.restarts}")
        if not (self.tol > 0.0):
            raise OutOfRange(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class RoofStart:
    """One start of the search: its cardinality t, start index and outcome.

    ``kinks`` counts the members at a D(1, 2) kink at the end of the start.
    """

    t: int
    start: int
    value: float
    iterations: int
    converged: bool
    kinks: int


@dataclass(frozen=True)
class RoofResult:
    """Best decomposition found, its objective value, and search metadata.

    ``iterations`` counts search iterations summed over every start (an
    iteration is one line-search step, or one accepted rotation probe);
    ``trace`` holds the search's objective value before the first and
    after every iteration of the winning start, nonincreasing up to the
    objective's rounding (``roofsearch.FLAT`` relative); ``converged``
    reports whether the winning start's gradient norm fell below tol;
    ``starts`` holds one record per (cardinality, start).
    """

    value: float
    decomposition: Decomposition
    iterations: int
    converged: bool
    trace: tuple[float, ...] = field(repr=False, default=())
    starts: tuple[RoofStart, ...] = field(repr=False, default=())


def _profile_values(lam, m: int, n: int, tol: float):
    """The n profile values of a descending normalized spectrum, coincident clusters allowed.

    The m = 1 wall rule: fewer than n values at or above tol give the top n
    values.  Any other mismatch raises ProfileMismatch.
    """
    try:
        return profile_from_values(lam, m, n, tol, allow_coincident=True).values
    except ProfileMismatch:
        if m == 1 and n <= len(lam) and np.count_nonzero(lam >= tol) < n:
            return lam[:n]
        raise


def _pure_measure(objective):
    """The objective's value of a normalized Schmidt spectrum; the one objective dispatch."""
    if isinstance(objective, AverageE):
        return entropy_bits
    if isinstance(objective, AverageD):
        m, n, tol = objective.m, objective.n, objective.tol
        return lambda lam: concurrence_of_values(_profile_values(lam, m, n, tol), m)
    raise OutOfRange(f"unknown objective {objective!r}")


def transform_decomposition(vectors, V) -> Decomposition:
    """Decomposition |w_k> = sum_l conj(V_kl) |v_l> from eigenvectors.

    ``vectors`` are the subnormalized eigenvectors of the target density;
    V must have orthonormal columns (t x r, t >= r), which guarantees the
    members reconstruct the density.  Members with squared norm below
    1e-14 are dropped and the weights renormalized.

    Raises
    ------
    NotIsometry
        If V'V deviates from the identity by more than 1e-10.
    """
    Vmat = np.array(vectors, dtype=complex)
    A = np.asarray(V, dtype=complex)
    if A.ndim != 2 or A.shape[1] != Vmat.shape[0] or A.shape[0] < A.shape[1]:
        raise NotIsometry(f"expected t x r with t >= r = {Vmat.shape[0]}, got {A.shape}")
    if np.linalg.norm(A.conj().T @ A - np.eye(A.shape[1])) > ISOMETRY_TOL:
        raise NotIsometry("columns are not orthonormal within 1e-10")
    N = int(round(math.sqrt(Vmat.shape[1])))
    return Decomposition.from_rows(A.conj() @ Vmat, N)


def average_objective(decomposition: Decomposition, objective) -> float:
    """Weighted average sum_a p_a f(psi_a) of the objective's pure measure.

    f is the entropy of the Schmidt spectrum for AverageE and the
    generalized concurrence D (at the objective's profile tolerance, with
    the m = 1 wall rule of AverageD) for AverageD.

    Raises
    ------
    ProfileMismatch
        For AverageD when a member's spectrum fails the (m, n) profile.
    """
    f = _pure_measure(objective)
    return float(math.fsum(p * f(schmidt_spectrum(psi)) for p, psi in decomposition.members))


def minimize_roof(problem: RoofProblem) -> RoofResult:
    """Best decomposition over cardinalities rank..t_max and all restarts.

    Start 0 at each cardinality is the eigendecomposition (identity
    isometry); later starts use ``sampling.haar_isometry`` drawn from
    ``generator(seed, cardinality, start)``, so results are reproducible
    bit for bit and independent of evaluation order.  Each start runs the
    conjugate-gradient search until the gradient norm falls below tol, a
    line search fails, or the cycle cap is hit; the objective trace does
    not increase beyond rounding.  A result is always returned; a winning start that did not
    converge is reported with converged=False rather than raised.  The
    value is recomputed from the winning decomposition's members by
    ``average_objective`` (+inf if a member fails the profile).
    """
    rho = problem.target
    N = rho.dim
    V = eigen_vectors_subnormalized(rho)
    r = V.shape[0]
    t_hi = r + 2 if problem.t_max is None else problem.t_max
    if t_hi < r:
        raise OutOfRange(f"t_max {t_hi} below the density's rank {r}")
    # Imported on first use, so that processes which never search never compile it.
    from .roofsearch import Descent, member_kernel, search

    descent = Descent(V, N, *member_kernel(problem.objective, rho))

    best = None
    starts = []
    for t in range(r, t_hi + 1):
        for k in range(problem.restarts):
            if k == 0:
                iso = np.eye(t, r, dtype=complex)
            else:
                iso = haar_isometry(t, r, generator(problem.seed, t, k))
            Q, trace, converged, kinks = search(descent, iso, problem.tol, problem.max_sweeps)
            starts.append(RoofStart(t, k, trace[-1], len(trace) - 1, converged, kinks))
            if best is None or trace[-1] < best[0]:
                best = (trace[-1], Q, tuple(trace), converged)

    _, Q, trace, converged = best
    decomposition = Decomposition.from_rows(Q.conj() @ V, N)
    try:
        value = average_objective(decomposition, problem.objective)
    except ProfileMismatch:
        value = math.inf
    return RoofResult(
        value=float(value),
        decomposition=decomposition,
        iterations=sum(s.iterations for s in starts),
        converged=converged,
        trace=trace,
        starts=tuple(starts),
    )


@dataclass(frozen=True)
class CertifyReport:
    """Closed-form bound vs. numeric roof minimum for average D."""

    bound: float
    roof_min: float
    gap: float
    violation: bool
    converged: bool


def certify_bound(rho: DensityMatrix, m: int, n: int, **search) -> CertifyReport:
    """Compare d_lower_bound against minimize_roof(AverageD).

    ``search`` holds RoofProblem's search settings (t_max, restarts, seed,
    tol, max_sweeps), with RoofProblem's defaults.  gap = roof_min - bound;
    a gap below -1e-6 is flagged as a violation (the bound is supposed to
    sit below every decomposition average).
    """
    bound = d_lower_bound(rho, m, n, clamp=True)
    result = minimize_roof(RoofProblem(target=rho, objective=AverageD(m, n), **search))
    gap = result.value - bound
    return CertifyReport(
        bound=float(bound),
        roof_min=float(result.value),
        gap=float(gap),
        violation=bool(gap < -1e-6),
        converged=result.converged,
    )
