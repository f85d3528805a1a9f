"""Convex-roof minimization over pure-state decompositions.

Any decomposition of a rank-r density matrix into t >= r pure states is
parametrized by a t x r isometry Q acting on the subnormalized
eigenvectors: |w_k> = sum_l conj(Q_kl) |v_l>.  ``minimize_roof`` searches
these isometries from several starts (the Riemannian search of
``roofsearch``: BFGS, conjugate gradients past a D kink) and recomputes the
winner's value through ``average_objective`` from the member states.
Average D is the closed-form bound's own 2x2-minor form on every support,
in the search and in the reported value alike.
This is an independent numeric check of the closed-form lower bounds; it
never certifies global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BadShape, NonFinite, NotIsometry, OutOfRange
from .linalg import lapack_errors
from .mixed import (
    DensityMatrix,
    Decomposition,
    _index_deficits,
    _support_table,
    bound_from_deficits,
    check_profile,
    d_lower_bound,
    eigen_vectors_subnormalized,
)
from .purestate import PROFILE_TOL, schmidt_spectrum  # PROFILE_TOL is re-exported for bench/probe.py
from .sampling import generator, haar_isometry
from .spectra import entropy_bits

ISOMETRY_TOL = 1e-10


@dataclass(frozen=True)
class AverageE:
    """Decomposition-averaged entanglement of formation (bits)."""


@dataclass(frozen=True)
class AverageD:
    """Decomposition-averaged generalized concurrence D(m, n) in its 2x2-minor form.

    Each member psi_k scores (mn / 2) 2 ||2x2 minors of psi_k||
    = mn sqrt(e2(lambda)), e2 the second elementary symmetric function of
    its Schmidt spectrum: the closed-form bound (mn / 2) sqrt(sum of squared
    deficits) of that pure member, as ``average_objective`` reads it, so a
    product member scores 0 up to rounding; the bound bounds its average
    (the Takagi step of Mintert, Kus and Buchleitner, PRL 92, 167902, 2004).
    At (1, 2) it is the I-concurrence of Rungta et al. (PRA 64, 042315,
    2001).  It equals the spectral ``generalized_concurrence_D`` exactly
    where every member meets ``psi_condition_iii``, so at (1, 2) on Schmidt
    rank <= 2.  m >= 1 is the multiplicity and n >= 2 the number of
    distinct values; anything else raises OutOfRange.
    """

    m: int
    n: int

    def __post_init__(self):
        if self.m < 1 or self.n < 2:
            raise OutOfRange(f"need m >= 1 and n >= 2, got m={self.m} n={self.n}")


@dataclass(frozen=True)
class RoofProblem:
    """Roof-minimization instance.

    t_max caps the decomposition cardinality (None means rank + 2); for a
    rank-r target ``minimize_roof`` takes r <= t_max <= max(r^2, r + 2), as
    r^2 members reach any convex roof on a rank-r support (Uhlmann's
    Caratheodory bound).  restarts counts optimization starts per
    cardinality, each a Haar draw from ``generator(seed, t, k)``, so a
    result depends on the seed, at restarts=1 too.  tol is the
    threshold on the Frobenius norm of the Riemannian gradient (at kinks,
    the minimum-norm subgradient) below which a start has converged.
    max_sweeps caps the cycles of a start; a cycle is 2tr - r^2 iterations
    (the real dimension of the t x r isometries).  A start keeps its BFGS
    inverse Hessian across cycles; an AverageD start that has met a kink
    takes conjugate-gradient directions, which restart at steepest descent
    after each cycle.  restarts or max_sweeps below 1, a negative seed, a
    tol that is not positive and finite, an AverageD profile with m n > N
    and an objective other than AverageE or AverageD raise OutOfRange.
    """

    target: DensityMatrix
    objective: AverageE | AverageD
    t_max: int | None = None
    restarts: int = 4
    seed: int = 0
    tol: float = 1e-8
    max_sweeps: int = 100

    def __post_init__(self):
        for name in ("restarts", "max_sweeps"):
            if getattr(self, name) < 1:
                raise OutOfRange(f"{name} must be >= 1, got {getattr(self, name)}")
        if isinstance(self.objective, AverageD):
            check_profile(self.objective.m, self.objective.n, self.target.dim)
        elif not isinstance(self.objective, AverageE):
            raise OutOfRange(f"unknown objective {self.objective!r}")
        if self.seed < 0:
            raise OutOfRange(f"seed must be >= 0, got {self.seed}")
        if not (0.0 < self.tol < math.inf):
            raise OutOfRange(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class RoofStart:
    """One start of the search: its cardinality t, start index and outcome.

    ``kinks`` counts the members at a D(1, 2) kink at the end of the start;
    ``iterations`` counts its line-search steps and ``evaluations`` the
    decompositions it scored, one per kernel call.
    """

    t: int
    start: int
    value: float
    iterations: int
    converged: bool
    kinks: int
    evaluations: int


@dataclass(frozen=True)
class RoofResult:
    """Best decomposition found, its objective value, and search metadata.

    ``iterations`` counts search iterations summed over every start (an
    iteration is one line-search step);
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


def transform_decomposition(vectors, V) -> Decomposition:
    """Decomposition |w_k> = sum_l conj(V_kl) |v_l> from eigenvectors.

    ``vectors`` are the subnormalized eigenvectors of the target density;
    V must have orthonormal columns (t x r, t >= r), which guarantees the
    members reconstruct the density.  Members with squared norm below
    1e-14 are dropped and the weights renormalized.

    Raises
    ------
    BadShape
        If ``vectors`` is not r rows of length N^2 for an integer N.
    NonFinite
        If ``vectors`` has a NaN or infinite entry.
    NotIsometry
        If V'V deviates from the identity by more than 1e-10, or is not finite.
    ZeroState
        If every member is dropped (``Decomposition.from_rows``).
    """
    Vmat = np.array(vectors, dtype=complex)
    N = math.isqrt(Vmat.shape[1]) if Vmat.ndim == 2 else 0
    if Vmat.ndim != 2 or N * N != Vmat.shape[1]:
        raise BadShape(f"expected r rows of length N^2, got shape {Vmat.shape}")
    if not np.isfinite(Vmat).all():
        raise NonFinite("eigenvectors have NaN or infinite entries")
    A = np.asarray(V, dtype=complex)
    if A.ndim != 2 or A.shape[1] != Vmat.shape[0] or A.shape[0] < A.shape[1]:
        raise NotIsometry(f"expected t x r with t >= r = {Vmat.shape[0]}, got {A.shape}")
    with np.errstate(invalid="ignore"):
        gap = np.linalg.norm(A.conj().T @ A - np.eye(A.shape[1]))
    if not gap <= ISOMETRY_TOL:
        raise NotIsometry("columns are not orthonormal within 1e-10")
    return Decomposition.from_rows(A.conj() @ Vmat, N)


def average_objective(decomposition: Decomposition, objective) -> float:
    """Weighted average sum_a p_a f(psi_a) of the objective's pure measure.

    f is the entropy of the Schmidt spectrum for AverageE and, for
    AverageD(m, n), the pure member's closed-form bound (mn / 2) 2 ||2x2
    minors|| (``AverageD``), so a product member reads 0 up to rounding.  A
    member whose N cannot have the (m, n) profile raises OutOfRange.
    """
    members = decomposition.members
    if isinstance(objective, AverageE):
        return float(math.fsum(p * entropy_bits(schmidt_spectrum(psi)) for p, psi in members))
    if not isinstance(objective, AverageD):
        raise OutOfRange(f"unknown objective {objective!r}")
    m, n = objective.m, objective.n
    scores = []
    for p, psi in members:
        check_profile(m, n, psi.dim)
        scores.append(p * bound_from_deficits(_index_deficits(psi.vector()[None], _support_table(psi.dim)), m, n, clamp=False))
    return float(math.fsum(scores))


def minimize_roof(problem: RoofProblem) -> RoofResult:
    """Best decomposition over cardinalities rank..t_max and all restarts.

    Every start is ``sampling.haar_isometry`` drawn from
    ``generator(seed, cardinality, start)``, so results are reproducible
    bit for bit and independent of evaluation order; no start is the
    eigendecomposition, a saddle of symmetric states.  Each start runs the
    search (BFGS directions until a step ends with an AverageD member at
    a kink or near a product state, then conjugate-gradient directions,
    restarted at steepest descent every cycle) until the gradient norm
    falls below tol, a line search fails, or the cycle cap is hit; the
    objective trace does not increase beyond rounding.  Every
    AverageD(m, n) runs the D(1, 2) search, and its trace and start
    values are multiplied here by mn / 2 (exactly 1.0 at (1, 2)).  A
    result is always returned; a winning start that did not converge is
    reported with converged=False rather than raised; a LAPACK failure
    inside the search raises ConvergenceFailure.  The value is the winning
    members' ``average_objective``: for D the search's own minor formula,
    so trace[-1] up to rounding.
    """
    rho = problem.target
    N = rho.dim
    V = eigen_vectors_subnormalized(rho)
    r = V.shape[0]
    t_hi, cap = r + 2 if problem.t_max is None else problem.t_max, max(r * r, r + 2)
    if not r <= t_hi <= cap:
        raise OutOfRange(f"t_max {t_hi} outside [rank, max(rank^2, rank + 2)] = [{r}, {cap}]")
    from .roofsearch import Descent, search  # on first use: the CLI's other subcommands never search

    objective = problem.objective
    is_d = isinstance(objective, AverageD)
    descent = Descent(V, N, is_d)
    scale = objective.m * objective.n / 2.0 if is_d else 1.0

    best = None
    starts = []
    for t in range(r, t_hi + 1):
        for k in range(problem.restarts):
            iso = haar_isometry(t, r, generator(problem.seed, t, k))
            scored = descent.evaluations
            with lapack_errors():
                Q, trace, converged, kinks = search(descent, iso, problem.tol, problem.max_sweeps)
            trace = [scale * F for F in trace]
            starts.append(RoofStart(t, k, trace[-1], len(trace) - 1, converged, kinks,
                                    descent.evaluations - scored))
            if best is None or trace[-1] < best[0]:
                best = (trace[-1], Q, tuple(trace), converged)

    _, Q, trace, converged = best
    decomposition = Decomposition.from_rows(Q.conj() @ V, N)
    return RoofResult(
        value=average_objective(decomposition, objective),
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
    sit below every decomposition average of the minor form ``AverageD``).
    """
    problem = RoofProblem(target=rho, objective=AverageD(m, n), **search)
    bound = d_lower_bound(rho, m, n, clamp=True)
    result = minimize_roof(problem)
    gap = result.value - bound
    return CertifyReport(
        bound=float(bound),
        roof_min=float(result.value),
        gap=float(gap),
        violation=bool(gap < -1e-6),
        converged=result.converged,
    )
