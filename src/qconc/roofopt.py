"""Convex-roof minimization over pure-state decompositions.

Any decomposition of a rank-r density matrix into t >= r pure states is
parametrized by a t x r columns-orthonormal matrix V acting on the
subnormalized eigenvectors, |w_k> = sum_l conj(V_kl) |v_l>.  The optimizer
does multi-start derivative-free local search in V: sweeps of two-row
complex Givens-style rotations (two angles per row pair), each angle
minimized by golden-section search, accepting only strict improvement.
This is an independent numeric check of the closed-form lower bounds; it
never certifies global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotIsometry, OutOfRange, ProfileMismatch
from .mixed import MEMBER_DROP, DensityMatrix, Decomposition, d_lower_bound, eigen_vectors_subnormalized
from .purestate import (
    PureState,
    eof_pure,
    generalized_concurrence_D,
    profile_from_values,
)

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


def _eig_desc(G: np.ndarray, N: int) -> list[float]:
    """Descending eigenvalues of a small Hermitian matrix.

    N = 2 and N = 3 use closed forms (quadratic / trigonometric), which the
    golden-section inner loop hits thousands of times per sweep; larger N
    falls back to LAPACK.
    """
    if N == 2:
        t = G[0, 0].real + G[1, 1].real
        det = G[0, 0].real * G[1, 1].real - (G[0, 1].real ** 2 + G[0, 1].imag ** 2)
        disc = math.sqrt(max(t * t - 4.0 * det, 0.0))
        return [0.5 * (t + disc), 0.5 * (t - disc)]
    if N == 3:
        a, b, c = G[0, 0].real, G[1, 1].real, G[2, 2].real
        p1 = abs(G[0, 1]) ** 2 + abs(G[0, 2]) ** 2 + abs(G[1, 2]) ** 2
        q = (a + b + c) / 3.0
        p2 = (a - q) ** 2 + (b - q) ** 2 + (c - q) ** 2 + 2.0 * p1
        if p2 <= 0.0:
            return [q, q, q]
        p = math.sqrt(p2 / 6.0)
        d0, d1, d2 = a - q, b - q, c - q
        detB = (
            d0 * (d1 * d2 - abs(G[1, 2]) ** 2)
            - (G[0, 1] * (G[0, 1].conjugate() * d2 - G[1, 2] * G[0, 2].conjugate())).real
            + (G[0, 2] * (G[0, 1].conjugate() * G[1, 2].conjugate() - d1 * G[0, 2].conjugate())).real
        ) / (p * p * p)
        r = min(max(detB / 2.0, -1.0), 1.0)
        phi = math.acos(r) / 3.0
        hi = q + 2.0 * p * math.cos(phi)
        lo = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
        return [hi, 3.0 * q - hi - lo, lo]
    return np.linalg.eigvalsh(G)[::-1].tolist()


def _member_entropy(w: np.ndarray, N: int) -> float:
    """Weighted EoF contribution p*E(psi) from one subnormalized row."""
    p = float(np.vdot(w, w).real)
    if p <= MEMBER_DROP:
        return 0.0
    A = w.reshape(N, N)
    ent = 0.0
    for lam in _eig_desc(A @ A.conj().T, N):
        if lam > 0.0:
            ent -= lam * math.log2(lam)
    return ent + p * math.log2(p)


def _member_dconc(w: np.ndarray, N: int, m: int, n: int, tol: float) -> float:
    """Weighted D contribution p*D(psi), +inf when the profile fails."""
    p = float(np.vdot(w, w).real)
    if p <= MEMBER_DROP:
        return 0.0
    A = w.reshape(N, N)
    lam = [max(v / p, 0.0) for v in _eig_desc(A @ A.conj().T, N)]
    try:
        prof = profile_from_values(lam, m, n, tol, allow_coincident=True)
    except ProfileMismatch:
        return math.inf
    prod = float(np.prod(prof.values))
    return p * m * n * math.sqrt(prod)


def _member_fn(objective, N: int):
    if isinstance(objective, AverageE):
        return lambda w: _member_entropy(w, N)
    if isinstance(objective, AverageD):
        return lambda w: _member_dconc(w, N, objective.m, objective.n, objective.tol)
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

    f is eof_pure for AverageE and generalized_concurrence_D (at the
    objective's profile tolerance) for AverageD.

    Raises
    ------
    ProfileMismatch
        For AverageD when a member's spectrum fails the (m, n) profile.
    """
    if isinstance(objective, AverageE):
        f = eof_pure
    elif isinstance(objective, AverageD):
        def f(psi: PureState) -> float:
            return generalized_concurrence_D(psi, objective.m, objective.n, objective.tol)
    else:
        raise OutOfRange(f"unknown objective {objective!r}")
    return float(math.fsum(p * f(psi) for p, psi in decomposition.members))


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


def _random_isometry(t: int, r: int, rng: np.random.Generator) -> np.ndarray:
    A = rng.standard_normal((t, r)) + 1j * rng.standard_normal((t, r))
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def _run_start(W: np.ndarray, member, tol: float, max_sweeps: int):
    t = W.shape[0]
    vals = [member(W[k]) for k in range(t)]
    trace = [math.fsum(vals)]
    converged = False
    sweeps = 0
    for _ in range(max_sweeps):
        for a in range(t):
            for b in range(a + 1, t):
                _pair_step(W, vals, a, b, member)
        total = math.fsum(vals)
        sweeps += 1
        drop = trace[-1] - total
        trace.append(total)
        if math.isfinite(total) and drop < tol:
            converged = True
            break
    return trace, sweeps, converged


def minimize_roof(problem: RoofProblem) -> RoofResult:
    """Best decomposition over cardinalities rank..t_max and all restarts.

    Start 0 at each cardinality is the eigendecomposition (identity
    isometry); later starts use Haar-random isometries drawn from a
    deterministic per-(cardinality, start) seed stream, so results are
    reproducible bit for bit and independent of evaluation order.  Within
    a start, row-pair rotations are swept until the per-sweep improvement
    falls below tol or the sweep cap is hit; the objective trace never
    increases.  A result is always returned; a winning start that hit the
    cap is reported with converged=False rather than raised.
    """
    rho = problem.target
    N = rho.dim
    vecs = eigen_vectors_subnormalized(rho)
    r = len(vecs)
    t_hi = r + 2 if problem.t_max is None else problem.t_max
    if t_hi < r:
        raise OutOfRange(f"t_max {t_hi} below the density's rank {r}")
    Vmat = np.array(vecs)
    member = _member_fn(problem.objective, N)

    best = None
    total_sweeps = 0
    for t in range(r, t_hi + 1):
        for k in range(problem.restarts):
            if k == 0:
                iso = np.eye(t, r, dtype=complex)
            else:
                ss = np.random.SeedSequence(entropy=problem.seed, spawn_key=(t, k))
                iso = _random_isometry(t, r, np.random.Generator(np.random.PCG64(ss)))
            W = iso.conj() @ Vmat
            trace, sweeps, converged = _run_start(W, member, problem.tol, problem.max_sweeps)
            total_sweeps += sweeps
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


def certify_bound(
    rho: DensityMatrix,
    m: int,
    n: int,
    seed: int = 0,
    restarts: int = 4,
    t_max: int | None = None,
    tol: float = 1e-8,
    max_sweeps: int = 100,
) -> CertifyReport:
    """Compare d_lower_bound against minimize_roof(AverageD).

    gap = roof_min - bound; a gap below -1e-6 is flagged as a violation
    (the bound is supposed to sit below every decomposition average).
    """
    bound = d_lower_bound(rho, m, n, clamp=True)
    result = minimize_roof(
        RoofProblem(
            target=rho,
            objective=AverageD(m, n),
            t_max=t_max,
            restarts=restarts,
            seed=seed,
            tol=tol,
            max_sweeps=max_sweeps,
        )
    )
    gap = result.value - bound
    return CertifyReport(
        bound=float(bound),
        roof_min=float(result.value),
        gap=float(gap),
        violation=bool(gap < -1e-6),
        converged=result.converged,
    )
