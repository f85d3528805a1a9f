"""Convex-roof minimization over pure-state decompositions.

Any decomposition of a rank-r density matrix into t >= r pure states is
parametrized by a t x r columns-orthonormal matrix V acting on the
subnormalized eigenvectors, |w_k> = sum_l conj(V_kl) |v_l>.  The optimizer
does multi-start derivative-free local search in V: sweeps of two-row
complex Givens-style rotations (two angles per row pair), each angle
minimized by golden-section search, accepting only strict improvement.
Each member is scored by the package's shared kernels: its Schmidt
spectrum from ``purestate.schmidt_values``, then ``spectra.entropy_bits``
or the (m, n) profile match and ``spectra.concurrence_of_values``; the
final ``average_objective`` recompute sees bit-identical spectra.
This is an independent numeric check of the closed-form lower bounds; it
never certifies global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import NotIsometry, OutOfRange, ProfileMismatch
from .mixed import MEMBER_DROP, DensityMatrix, Decomposition, d_lower_bound, eigen_vectors_subnormalized
from .purestate import profile_from_values, schmidt_spectrum, schmidt_values
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
    ``average_objective`` raises ProfileMismatch and the optimizer treats
    the candidate as +inf.
    """

    m: int
    n: int
    tol: float = PROFILE_TOL


@dataclass(frozen=True)
class RoofProblem:
    """Roof-minimization instance.

    t_max caps the decomposition cardinality (None means rank + 2);
    restarts counts optimization starts per cardinality, the first being
    the eigendecomposition itself; tol is the per-sweep objective-change
    convergence threshold.
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
class RoofResult:
    """Best decomposition found, its objective value, and search metadata.

    ``iterations`` counts sweeps summed over every start; ``trace`` holds
    the per-sweep objective values of the winning start (nonincreasing);
    ``converged`` reports whether the winning start stalled below tol
    before hitting the sweep cap.
    """

    value: float
    decomposition: Decomposition
    iterations: int
    converged: bool
    trace: tuple[float, ...] = field(repr=False, default=())


def _pure_measure(objective):
    """The objective's value of a normalized Schmidt spectrum; the one objective dispatch.

    AverageD matches the (m, n) profile with coincident clusters allowed and
    raises ProfileMismatch on failure.
    """
    if isinstance(objective, AverageE):
        return entropy_bits
    if isinstance(objective, AverageD):
        m, n, tol = objective.m, objective.n, objective.tol

        def d_of(lam) -> float:
            prof = profile_from_values(lam, m, n, tol, allow_coincident=True)
            return concurrence_of_values(prof.values, m)

        return d_of
    raise OutOfRange(f"unknown objective {objective!r}")


def _member(w: np.ndarray, N: int, measure) -> float:
    """p * f(psi) of one subnormalized row, weighted and normalized as in Decomposition.from_rows.

    A profile mismatch scores +inf.
    """
    p = float(np.vdot(w, w).real)
    if p <= MEMBER_DROP:
        return 0.0
    A = w.reshape(N, N)
    try:
        return p * measure(schmidt_values(A / float(np.linalg.norm(A))))
    except ProfileMismatch:
        return math.inf


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
    generalized concurrence D (at the objective's profile tolerance) for
    AverageD, through the same kernels the roof search scores members with.

    Raises
    ------
    ProfileMismatch
        For AverageD when a member's spectrum fails the (m, n) profile.
    """
    f = _pure_measure(objective)
    return float(math.fsum(p * f(schmidt_spectrum(psi)) for p, psi in decomposition.members))


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, iters: int = 30) -> tuple[float, float]:
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def _rotated(wa: np.ndarray, wb: np.ndarray, theta: float, phi: float):
    c = math.cos(theta)
    s = math.sin(theta) * complex(math.cos(phi), math.sin(phi))
    return c * wa + s * wb, -np.conj(s) * wa + c * wb


def _pair_step(W: np.ndarray, vals: list[float], a: int, b: int, member) -> float:
    """Optimize one row pair in place; returns the achieved decrease."""
    wa, wb = W[a], W[b]
    base = vals[a] + vals[b]

    def at(theta: float, phi: float) -> float:
        na, nb = _rotated(wa, wb, theta, phi)
        return member(na) + member(nb)

    t1, f1 = _golden_min(lambda t: at(t, 0.0), -math.pi / 2, math.pi / 2)
    t2, f2 = _golden_min(lambda t: at(t, math.pi / 2), -math.pi / 2, math.pi / 2)
    theta, phi, best = (t1, 0.0, f1) if f1 <= f2 else (t2, math.pi / 2, f2)
    p3, f3 = _golden_min(lambda p: at(theta, p), -math.pi, math.pi)
    if f3 < best:
        phi, best = p3, f3
    t4, f4 = _golden_min(lambda t: at(t, phi), -math.pi / 2, math.pi / 2)
    if f4 < best:
        theta, best = t4, f4

    if not best < base:
        return 0.0
    na, nb = _rotated(wa, wb, theta, phi)
    W[a], W[b] = na, nb
    vals[a], vals[b] = member(na), member(nb)
    return base - (vals[a] + vals[b])


def _run_start(W: np.ndarray, member, tol: float, max_sweeps: int):
    t = W.shape[0]
    vals = [member(W[k]) for k in range(t)]
    trace = [math.fsum(vals)]
    for _ in range(max_sweeps):
        for a in range(t):
            for b in range(a + 1, t):
                _pair_step(W, vals, a, b, member)
        trace.append(math.fsum(vals))
        if math.isfinite(trace[-1]) and trace[-2] - trace[-1] < tol:
            return trace, True
    return trace, False


def minimize_roof(problem: RoofProblem) -> RoofResult:
    """Best decomposition over cardinalities rank..t_max and all restarts.

    Start 0 at each cardinality is the eigendecomposition (identity
    isometry); later starts use ``sampling.haar_isometry`` drawn from
    ``generator(seed, cardinality, start)``, so results are
    reproducible bit for bit and independent of evaluation order.  Within
    a start, row-pair rotations are swept until the per-sweep improvement
    falls below tol or the sweep cap is hit; the objective trace never
    increases.  A result is always returned; a winning start that hit the
    cap is reported with converged=False rather than raised.
    """
    rho = problem.target
    N = rho.dim
    Vmat = eigen_vectors_subnormalized(rho)
    r = Vmat.shape[0]
    t_hi = r + 2 if problem.t_max is None else problem.t_max
    if t_hi < r:
        raise OutOfRange(f"t_max {t_hi} below the density's rank {r}")
    member = partial(_member, N=N, measure=_pure_measure(problem.objective))

    best = None
    total_sweeps = 0
    for t in range(r, t_hi + 1):
        for k in range(problem.restarts):
            if k == 0:
                iso = np.eye(t, r, dtype=complex)
            else:
                iso = haar_isometry(t, r, generator(problem.seed, t, k))
            W = iso.conj() @ Vmat
            trace, converged = _run_start(W, member, problem.tol, problem.max_sweeps)
            total_sweeps += len(trace) - 1
            if best is None or trace[-1] < best[0]:
                best = (trace[-1], W.copy(), tuple(trace), converged)

    value, W, trace, converged = best
    decomposition = Decomposition.from_rows(W, N)
    if math.isfinite(value):
        value = average_objective(decomposition, problem.objective)
    return RoofResult(
        value=float(value),
        decomposition=decomposition,
        iterations=total_sweeps,
        converged=converged,
        trace=trace,
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
