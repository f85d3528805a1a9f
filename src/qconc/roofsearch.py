"""The roof search behind ``roofopt.minimize_roof``.

A decomposition of a rank-r density into t >= r members is a t x r
isometry Q acting on the subnormalized eigenvectors V: the rows are
W = conj(Q) V.  ``search`` runs a Riemannian descent over these
isometries, the variational method of Audenaert, Verstraete and De Moor
(PRA 64, 052304, 2001) and Rothlisberger et al. (PRA 79, 042301, 2009).
Steps are Q <- exp(-eta H) Q along a skew-Hermitian direction H, the
exponential taken through ``eigh`` of iH; the step length comes from a
strong-Wolfe line search (Armijo decrease, curvature test, cubic
interpolation clipped into the inner 80% of the bracket, so that an
overlong first trial is not halved back one evaluation at a time).  The
Riemannian gradient is Omega = B - B^H with
B = E Q^H, where row k of E = conj(G) V^T is member k's Euclidean
gradient with respect to conj(Q_k).

The direction rule depends on the state of the start, not on the
objective.  Every start takes BFGS directions first (Riemannian BFGS in
the Lie-algebra coordinates, Huang, Gallivan and Absil, SIAM J. Optim.
25, 1660, 2015): with w the coordinates of Omega in the orthonormal
basis of the O(t^2) index map ``_skew_layout`` (which ``_coordinates``,
``_from_coordinates``, the kink rule and the snap read), the
gradient in the coordinates x of exp(-X) Q is g = -w / 2, the step is p = -Hinv g with a
first guess eta = 1, and after it ``_bfgs_update`` takes s = eta p and
y = g_new - g when s . y > 0.  Hinv starts empty at each start, and is
emptied again by a failed line search, which is retried along Omega
with the same first trial; while it is empty the step follows Omega.
D has kinks at product members, where BFGS can take twenty times the
evaluations of CG.  So the first step that ends (after its snap) with
a member at a kink or loose drops Hinv, and the start
takes Polak-Ribiere+ conjugate-gradient directions from then on,
restarted at Omega every 2tr - r^2 iterations.  E has no kinks, and its
starts stay BFGS throughout.  Everything else (line search, snap, kink
rule, stopping test and iteration cap) is shared.

The kernel contract (``Descent.members``): conjugated isometry rows
conj(Q) (n, r) in; every member's value p f(psi) and its r-space gradient
E (n, r) out.  Every D search, whatever its (m, n) and support, scores the
minor form D(1, 2) = 2 ||2x2 minors||, which ``roofopt.minimize_roof``
scales by mn / 2.  ``Descent`` picks the E kernel from one support test,
``mixed._rank_two_support``: rho_A or rho_B of the eigenvector rows has
rank <= 2 (at N = 2, and on form-(a), C^2 x C^N and C^N x C^2 supports),
so every member has Schmidt rank <= 2.

* ``d12_members`` (every AverageD): the value 2 ||2x2 minors of A|| =
  2 sqrt(e2(M)) by Cauchy-Binet (A the member's coefficient matrix,
  M = A A^H), which equals the spectral D(1, 2) on Schmidt rank <= 2.  It
  reads the bound's r x r tau cores:
  with C_x = conj(tau_x), the minors of the row q V are y_x = q C_x q^T / 2, so
  one (n, r) x (r, K r) product with the ``d12_cores`` gives Z_x = q C_x,
  y = Z q / 2 and E = 2 conj(u)^T Z for the unit minor vector u; no
  ``eigh`` and nothing N^2 wide.
* ``e12_members`` (AverageE on a rank-two support): Wootters' two-level
  map of the concurrence c = d / p, p H(c) with H(c) = ``eof_of_d(c, 1)``,
  built on ``d12_members``'s d and gradient and the weight p = q G q^H
  (G = V V^H); no ``eigh``.
* ``e_members`` (AverageE on any other support): one batched ``eigh`` of
  the rows W = conj(Q) V (n, N^2), G_k = 2 X A_k with
  X = (log p - log M) / ln 2 on the range of M, mapped back to
  E = conj(G) V^T.

``Descent.values``, the kernel's one caller, scores one isometry per
call and keeps the member values and E (``Scored``).

The D(1, 2) sum of minor norms has kinks at product members, where the
entanglement is smooth (its gradient vanishes there), so the kink rule
and the snap serve ``d12_members`` alone.  A member within SNAP_TOL of a
product state is snapped onto it by a rank-truncated Newton step on its
minors alone, its weight free (singular values below SNAP_RCOND of the
largest dropped), when that does not raise the objective; at a kink
(minor norm at most KINK_TOL * p) the search uses the minimum-norm
subgradient, found by relaxing the member's unit minor vector to the unit
ball (the group-lasso test), as both the stationarity test and the
descent direction; both tests read the minor norms f / 2 of the values f
the kernel returned.  Every line search starts from one trial step, and
every point it scores keeps its ``Scored`` members, so no decomposition
is scored twice.  There is no second-order test: every start is a Haar
draw, and a first-order descent from a random start almost surely
avoids strict saddles such as the eigendecomposition of a symmetric
state (Lee, Simchowitz, Jordan and Recht, COLT 2016).  ``_rotate`` forms every exp(-eta H) Q.

Imports run one way: this module imports nothing from ``roofopt``, whose
``minimize_roof`` imports it on the first search, since the CLI's other
subcommands never search.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .mixed import _rank_two_support, _support_table, _tau_cores
from .spectra import eof_of_d

# Eigenvalues of M at or below RANGE_TOL * p are outside the range of M.
RANGE_TOL = 1e-12
# A D(1, 2) member whose minor norm is at most SNAP_TOL * p is snapped onto
# the nearest product state when that lowers the objective; one at most
# KINK_TOL * p sits at a kink of the objective; snapping stops at SNAP_FLOOR * p.
SNAP_TOL = 1e-4
KINK_TOL = 1e-10
SNAP_FLOOR = 1e-13
# The snap's linearized system drops singular values below SNAP_RCOND times
# the largest: near a product state the small ones are rounding, and
# inverting them turns the member by up to a radian, away from the state.
SNAP_RCOND = 1e-4
ARMIJO = 1e-4
CURVATURE = 0.1
# Relative rounding of a summed objective value.
FLAT = 1e-13
MAX_EVALS = 30
BALL_SWEEPS = 100
LN2 = math.log(2.0)


# -- member kernels (the contract is ``Descent.members``) ---------------


def d12_cores(V: np.ndarray, N: int) -> np.ndarray:
    """The bound's cores C_x = V[:, J_x] S4 V[:, J_x]^T = conj(tau_x) as one (r, K r) matrix [C_1 ... C_K].

    The 2x2 minor x of the row w = q V is y_x = q C_x q^T / 2.  The cores
    come index-major, (r, r, K), from one gather.
    """
    C = _tau_cores(V.take(_support_table(N).T, axis=1))
    return C.transpose(0, 2, 1).reshape(len(V), -1)


def _core_minors(Qbar: np.ndarray, cores: np.ndarray):
    """The minors y (n, K) of the rows W = Qbar V and Z (n, K, r) with Z_kx = Qbar_k C_x = d y_kx / d Qbar_k."""
    n, r = Qbar.shape
    Z = (Qbar @ cores).reshape(n, -1, r)
    return 0.5 * (Z @ Qbar[:, :, None])[..., 0], Z


def d12_members(Qbar: np.ndarray, cores: np.ndarray):
    """D(1, 2) of rank-<=2 rows, 2 ||y||, and its r-space gradient E = 2 conj(u)^T Z with u = y / ||y||.

    y and Z come from ``_core_minors`` on the ``d12_cores``; E stays
    bounded as a member nears a product state, where y is mostly rounding.
    """
    y, Z = _core_minors(Qbar, cores)
    norms = np.sqrt(np.add.reduce((y.conj() * y).real, axis=1))  # np.linalg.norm(y, axis=1)
    u = y / np.where(norms > 0.0, norms, 1.0)[:, None]
    return 2.0 * norms, 2.0 * (u.conj()[:, None, :] @ Z)[:, 0]


def e12_members(Qbar: np.ndarray, cores: np.ndarray, gram: np.ndarray):
    """Entanglement p H(c) of rank-<=2 rows, c = d / p the concurrence, and its r-space gradient.

    d and its gradient E_d come from ``d12_members``, the weight
    p = q G q^H from the Gram matrix G = V V^H of the eigenvector rows, and
    H(c) = ``eof_of_d(c, 1)``, with c = min(d / p, 1) in [0, 1], is
    Wootters' two-level map (PRL 80, 2245).
    The gradient is (H - c H') 2 conj(q G) + H' E_d with
    H'(c) = c ln((1 + w) / c) / (w ln 2), w = sqrt((1 - c)(1 + c)); it
    vanishes at product members (c = 0), and H' -> c / ln 2 as w -> 0.
    Below c of about 1e-8, w rounds to 1 and H to 0.
    The scalar map runs on Python floats: on the t <= 5 members of one
    isometry, each numpy call would cost more than the map itself.
    """
    d, E_d = d12_members(Qbar, cores)
    QG = Qbar @ gram
    p = (QG * Qbar.conj()).sum(axis=1).real
    values, coef = [], []
    for dk, pk in zip(d.tolist(), p.tolist()):
        c = min(dk / pk, 1.0) if pk > 0.0 else 0.0
        H = eof_of_d(c, 1)
        w = math.sqrt((1.0 - c) * (1.0 + c))
        if c == 0.0:
            slope = 0.0
        elif w == 0.0:
            slope = c / LN2
        else:
            # ln((1 + w) / c) as log1p((w + (1 - c)) / c), accurate as c -> 1.
            slope = c * math.log1p((w + (1.0 - c)) / c) / (w * LN2)
        values.append(pk * H)
        coef.append((2.0 * (H - c * slope), slope))
    coef = np.array(coef)
    return np.array(values), coef[:, :1] * QG.conj() + coef[:, 1:] * E_d


def e_members(Qbar: np.ndarray, V: np.ndarray, N: int):
    """Entanglement p S(lambda / p) of each row W = Qbar V and its r-space gradient conj(G) V^T, G = 2 X A."""
    A = (Qbar @ V).reshape(-1, N, N)
    p = np.einsum("kij,kij->k", A.conj(), A).real
    lam, U = np.linalg.eigh(A @ A.conj().transpose(0, 2, 1))
    live = lam > 0.0
    logp = np.log(np.where(p > 0.0, p, 1.0))[:, None]
    x = np.where(live, logp - np.log(np.where(live, lam, 1.0)), 0.0) / math.log(2.0)
    values = np.sum(lam * x, axis=1)
    x = np.where(lam > RANGE_TOL * p[:, None], x, 0.0)
    X = (U * x[:, None, :]) @ U.conj().transpose(0, 2, 1)
    return values, (2.0 * (X @ A)).reshape(len(A), -1).conj() @ V.T


# -- the Riemannian search: BFGS, conjugate gradients past a kink ------


def _ball_lsq(a: np.ndarray, blocks: list[np.ndarray]) -> list[np.ndarray]:
    """min ||a + sum_g B_g x_g|| subject to ||x_g|| <= 1, by block coordinate descent.

    Each block step is a trust-region subproblem solved exactly through
    the SVD of B_g and a safeguarded Newton iteration on the secular
    equation ||z(lam)|| = 1.
    """
    svds = [np.linalg.svd(B, full_matrices=False) for B in blocks]
    xs = [np.zeros(B.shape[1]) for B in blocks]
    res = a.copy()
    for _ in range(BALL_SWEEPS):
        moved = 0.0
        for g, (U, s, Vt) in enumerate(svds):
            base = res - blocks[g] @ xs[g]
            live = s > 1e-12 * s[0]
            sc = np.where(live, s * (U.T @ base), 0.0)
            s2 = np.where(live, s * s, 1.0)
            z = -sc / s2
            if math.sqrt(z.dot(z)) > 1.0:
                lo, hi, lam = 0.0, math.sqrt(sc.dot(sc)), 0.0
                for _ in range(100):
                    z = -sc / (s2 + lam)
                    nz = math.sqrt(z.dot(z))
                    if abs(nz - 1.0) <= 1e-14:
                        break
                    lo, hi = (lam, hi) if nz > 1.0 else (lo, lam)
                    lam += (nz - 1.0) * nz * nz / float((sc * sc / (s2 + lam) ** 3).sum())
                    if not lo < lam < hi:
                        lam = 0.5 * (lo + hi)
                z /= max(math.sqrt(z.dot(z)), 1.0)
            x = Vt.T @ z
            moved = max(moved, float(np.abs(x - xs[g]).max()))
            xs[g] = x
            res = base + blocks[g] @ x
        if moved <= 1e-13:
            break
    return xs


class Scored(NamedTuple):
    """A kernel call's member values f (t,) and r-space gradients E (t, r) for one isometry."""

    f: np.ndarray
    E: np.ndarray


class Descent:
    """Objective, gradient and kink rule of one problem at an isometry Q.

    ``kinked`` is true for an AverageD search (any true value, such as its
    (m, n), will do) and false for AverageE.  ``__init__`` is the one place
    that picks the kernel: D takes ``d12_members`` and its kink rule; E
    takes ``e12_members`` where ``_rank_two_support(V, N)`` holds,
    ``e_members`` elsewhere.  The direction rule is ``search``'s, and
    reads only the kink and loose members that ``gradient`` reports.  The
    cored kernels read the ``d12_cores`` and the Gram matrix V V^H built
    here.  ``members`` is the kernel contract: conjugated isometry rows
    conj(Q) in, member values and r-space gradients E = conj(G) V^T out.
    ``values``, its one caller, scores one isometry per kernel call and
    hands the members on as a ``Scored``, which the gradient and the kink
    rule read instead of scoring them again.  ``evaluations`` counts the
    decompositions scored so far, one per isometry that reaches the
    kernel.
    """

    def __init__(self, V: np.ndarray, N: int, kinked: bool):
        self.kinked = bool(kinked)
        if self.kinked or _rank_two_support(V, N):
            self.cores, self.gram = d12_cores(V, N), V @ V.conj().T
            self.kernel = d12_members if self.kinked else e12_members
            self.inputs = (self.cores,) if self.kinked else (self.cores, self.gram)
        else:
            self.kernel, self.inputs = e_members, (V, N)
        self.evaluations = 0

    def members(self, Qbar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values (n,) and r-space gradients E (n, r) of the members whose isometry rows are conj(Qbar)."""
        return self.kernel(Qbar, *self.inputs)

    def values(self, Q: np.ndarray) -> tuple[float, Scored]:
        """(F, Scored) of one isometry Q (t, r), from one kernel call."""
        self.evaluations += 1
        f, E = self.members(Q.conj())
        return math.fsum(f.tolist()), Scored(f, E)

    def omega(self, Q: np.ndarray, S: Scored) -> np.ndarray:
        """Skew-Hermitian Omega = B - B^H with B = E Q^H, for the member gradients E of S at Q."""
        B = S.E @ Q.conj().T
        return B - B.conj().T

    def gradient(self, Q: np.ndarray, S: Scored):
        """Riemannian gradient at Q (min-norm subgradient at kinks), kink and loose members.

        The kink and loose tests read the minor norms ||y|| = f / 2 that the
        D(1, 2) kernel scored Q with.  ``loose`` lists the members whose
        minor norm lies in (SNAP_FLOOR, SNAP_TOL] * p, which a snap could
        move onto a product state.
        """
        kinks, loose = [], []
        if self.kinked:
            p = ((Q.conj() @ self.gram) * Q).sum(axis=1).real
            norms = list(enumerate(zip((0.5 * S.f).tolist(), p.tolist())))
            kinks = [k for k, (y, pk) in norms if y <= KINK_TOL * pk]
            loose = [k for k, (y, pk) in norms if SNAP_FLOOR * pk < y <= SNAP_TOL * pk]
        if not kinks:
            return self.omega(Q, S), [], loose
        E = S.E.copy()
        E[kinks] = 0.0
        a = _coordinates(self.omega(Q, Scored(S.f, E)))
        # Along exp(-eta B) Q, the kink term 2 Re<u, minors_k> changes at
        # rate 2 Re<u, dy>, which is -1/2 <B, Omega>: Omega's coordinates
        # are -4 (Re dy, Im dy) (Re u, Im u).
        Z = _core_minors(Q.conj(), self.cores)[1]
        blocks = [-4.0 * np.concatenate([dy.real, dy.imag], axis=1) for dy in self._changes(Q, Z, kinks)]
        xs = _ball_lsq(a, blocks)
        return _from_coordinates(a + sum(B @ x for B, x in zip(blocks, xs)), len(Q)), kinks, loose

    def _changes(self, Q: np.ndarray, Z: np.ndarray, members: list[int]):
        """d minors_k (t^2, K) along dQ = -B Q for every basis element B, per member: dq Z_k^T with dq = conj(dQ_k)."""
        t = len(Q)
        src, scale = (a.reshape(t, 2 * t) for a in _skew_layout(t))
        for k in members:
            R = np.zeros((t * t, 2 * t))  # the real view of row k of every B
            R[src[k], np.arange(2 * t)] = scale[k]
            yield (-(R.view(complex) @ Q)).conj() @ Z[k].T

    def snap(self, Q: np.ndarray, members: list[int]) -> np.ndarray:
        """One Newton step exp(-Omega) Q towards product states for ``members``.

        Omega is the minimum-norm skew-Hermitian solution of the linearized
        equations minors_k + d minors_k = 0 under dQ = -Omega Q; each member's
        weight is free, so it moves onto a product state in the support,
        whatever that state's weight.  The solve drops singular values below
        SNAP_RCOND times the largest.
        """
        y, Z = _core_minors(Q.conj(), self.cores)
        rows = [np.concatenate([dy.real, dy.imag], axis=1).T for dy in self._changes(Q, Z, members)]
        rhs = [np.concatenate([-yk.real, -yk.imag]) for yk in y[members]]
        coef = np.linalg.lstsq(np.vstack(rows), np.concatenate(rhs), rcond=SNAP_RCOND)[0]
        theta, U = np.linalg.eigh(1j * _from_coordinates(coef, len(Q)))
        return _rotate(theta, U, U.conj().T @ Q, 1.0)


@lru_cache
def _skew_layout(t: int) -> tuple[np.ndarray, np.ndarray]:
    """An orthonormal real basis B_i of the t x t skew-Hermitian matrices as an index map (src, scale), 2 t^2 entries each.

    Over j <= l row by row: i e_jj, or (e_jl - e_lj) / sqrt 2 then i (e_jl + e_lj) / sqrt 2.
    Float p of a row-major t x t complex matrix's real view is entry scale[p] of B_src[p].
    """
    c = 1.0 / math.sqrt(2.0)
    src, scale = np.zeros((t, t, 2), dtype=np.intp), np.zeros((t, t, 2))
    for j in range(t):
        i = j * (2 * t - j)  # i e_jj follows the j (2t - j) elements of rows 0 .. j - 1
        src[j, j], scale[j, j, 1] = i, 1.0
        for l in range(j + 1, t):
            src[j, l] = src[l, j] = i + 2 * (l - j) - 1, i + 2 * (l - j)
            scale[j, l], scale[l, j] = (c, c), (-c, c)
    src.flags.writeable = scale.flags.writeable = False
    return src.reshape(-1), scale.reshape(-1)


def _nearest_isometry(Q: np.ndarray) -> np.ndarray:
    """The isometry U V^H nearest Q = U s V^H, which undoes the rounding drift of many steps."""
    U, _, Vh = np.linalg.svd(Q, full_matrices=False)
    return U @ Vh


def _inner(X: np.ndarray, Y: np.ndarray) -> float:
    return float(np.vdot(X, Y).real)


def search(problem: Descent, Q: np.ndarray, tol: float, max_cycles: int):
    """Riemannian descent from Q until the gradient norm is below tol; returns (Q, trace, converged, kinks).

    After each step, members near a product state are snapped onto it
    when that does not raise the objective.  The direction is BFGS's
    until the first step whose end point, after the snap, has a member
    at a kink or loose (``_nonsmooth``); from that step on, Hinv is
    dropped and the direction is Polak-Ribiere+ CG's, which takes that
    step as a steepest-descent one and restarts at the gradient every
    cycle.  E never reports such members and stays BFGS.  Before that,
    Hinv is emptied only by a failed line search, retried along the
    gradient with the same first trial.  Each line search's first trial
    is the unit step at the start's first step and along a BFGS
    direction, and eta * last / slope otherwise: the last step's length
    scaled by the ratio of the last slope to this one (Nocedal and
    Wright, eq. 3.60).  Every cycle, Q is replaced by
    ``_nearest_isometry(Q)``, a move at rounding level, and keeps the
    ``Scored`` members of the point the step reached.
    """
    t, r = Q.shape
    cycle = 2 * t * r - r * r
    F, S = problem.values(Q)
    trace = [F]
    grad, kinks, _ = problem.gradient(Q, S)
    H = grad
    eta = slope = Hinv = None
    smooth = True
    for it in range(max_cycles * cycle):
        gnorm2 = _inner(grad, grad)
        if math.sqrt(gnorm2) < tol:
            return Q, trace, True, len(kinks)
        if it % cycle == 0 and not smooth:
            H = grad
        last = slope
        slope = 0.5 * _inner(H, grad)
        if slope <= 0.0:
            H, slope, Hinv = grad, 0.5 * gnorm2, None
        guess = eta * last / slope if Hinv is None and eta is not None else 1.0
        step = _line_search(problem, Q, F, H, slope, guess)
        if step is None and H is not grad:
            H, slope, Hinv = grad, 0.5 * gnorm2, None
            step = _line_search(problem, Q, F, H, slope, guess)
        if step is None:
            return Q, trace, False, len(kinks)
        eta, Q, F, S = step
        if (it + 1) % cycle == 0:
            Q = _nearest_isometry(Q)
        new, kinks, loose = problem.gradient(Q, S)
        if loose:
            Qs = problem.snap(Q, loose)
            Fs, Ss = problem.values(Qs)
            if Fs <= F + FLAT * abs(F):
                Q, F, S = Qs, Fs, Ss
                new, kinks, loose = problem.gradient(Q, S)
        if smooth and _nonsmooth(kinks, loose):
            # CG takes over as if this step had followed the gradient.
            smooth, H, Hinv = False, grad, None
        if smooth:
            # In the coordinates of exp(-X) Q the gradient is g = -w / 2.
            w = _coordinates(new)
            Hinv = _bfgs_update(Hinv, eta * _coordinates(H), 0.5 * (_coordinates(grad) - w))
            H = new if Hinv is None else _from_coordinates(0.5 * (Hinv @ w), t)
        else:
            beta = max(0.0, _inner(new - grad, new) / gnorm2)
            H = new + beta * H
        grad = new
        trace.append(F)
    return Q, trace, math.sqrt(_inner(grad, grad)) < tol, len(kinks)


def _coordinates(A: np.ndarray) -> np.ndarray:
    """The real coordinates x_i = Re <B_i, A> of a skew-Hermitian A in the orthonormal basis B of ``_skew_layout``."""
    src, scale = _skew_layout(len(A))
    return np.bincount(src, A.reshape(-1).view(float) * scale, A.size)


def _from_coordinates(x: np.ndarray, t: int) -> np.ndarray:
    """The t x t skew-Hermitian matrix sum_i x_i B_i whose ``_coordinates`` are x; (..., t, t) for x (..., t^2)."""
    src, scale = _skew_layout(t)
    # + 0.0 gives zero entries the sign of the sum over the basis, which eigh reads.
    return (x.take(src, axis=-1) * scale + 0.0).view(complex).reshape(x.shape[:-1] + (t, t))


def _nonsmooth(kinks: list[int], loose: list[int]) -> bool:
    """Whether a step ended with a member at a kink or loose, which ends a start's BFGS directions."""
    return bool(kinks or loose)


def _bfgs_update(Hinv: np.ndarray | None, s: np.ndarray, y: np.ndarray) -> np.ndarray | None:
    """BFGS's inverse Hessian after the step s with gradient change y; Hinv itself unless s . y > 0.

    The rank-two form H+ = (I - rho s y^T) H (I - rho y s^T) + rho s s^T,
    rho = 1 / (s . y), expanded so that it costs O(d^2) for d coordinates;
    it satisfies the secant equation H+ y = s and keeps H positive
    definite.  Hinv None (no curvature seen yet) starts from
    (s . y / y . y) I (Nocedal and Wright, eq. 6.20).
    """
    sy = float(s @ y)
    if not sy > 0.0:
        return Hinv
    if Hinv is None:
        Hinv = sy / float(y @ y) * np.eye(len(s))
    Hy = Hinv @ y
    rho = 1.0 / sy
    Hinv = Hinv + (rho * rho * float(y @ Hy) + rho) * np.outer(s, s)
    return Hinv - rho * (np.outer(s, Hy) + np.outer(Hy, s))


def _rotate(theta: np.ndarray, U: np.ndarray, UhQ: np.ndarray, eta: float) -> np.ndarray:
    """exp(-eta H) Q for eigh(i H) = (theta, U), UhQ = U^H Q."""
    return (U * np.exp(1j * eta * theta)) @ UhQ


def _cubic_step(a, fa, da, b, fb, db) -> float:
    """Minimizer of the cubic through (a, fa, da) and (b, fb, db), clipped into the bracket.

    A finite minimizer is clipped to [lo + w / 10, hi - w / 10], w the
    bracket's width, so that every step shrinks the bracket by at least
    a tenth and one that lands near an end keeps its side (Moré and
    Thuente, ACM TOMS 20, 286, 1994); the midpoint stands in for a
    minimizer that is not finite.  The arguments are taken as Python
    floats, whose overflow gives inf, not numpy's warning.
    """
    a, fa, da, b, fb, db = map(float, (a, fa, da, b, fb, db))
    lo, hi = min(a, b), max(a, b)
    d1 = da + db - 3.0 * (fa - fb) / (a - b)
    rad = d1 * d1 - da * db
    x = math.nan
    if math.isfinite(rad) and rad >= 0.0:
        d2 = math.copysign(math.sqrt(rad), b - a)
        den = db - da + 2.0 * d2
        if den != 0.0:
            x = b - (b - a) * (db + d2 - d1) / den
    if not math.isfinite(x):
        return 0.5 * (lo + hi)
    margin = 0.1 * (hi - lo)
    return min(max(x, lo + margin), hi - margin)


def _line_search(problem: Descent, Q, F0: float, H, slope: float, guess: float):
    """Strong-Wolfe line search along exp(-eta H) Q; (eta, Q, F, S) or None.

    phi(eta) = F(exp(-eta H) Q) has phi'(0) = -slope.  A point is
    accepted when it passes the Armijo test and |phi'| <= CURVATURE *
    slope.  Where the expected decrease eta * slope is below the rounding
    of F (FLAT * |F|), values within that rounding count as equal, so the
    search still finds the root of phi' from the accurate derivatives.
    A bracket is refined at the minimizer of the cubic through its ends
    (``_cubic_step``), clipped to lie at least a tenth of the bracket's
    width inside either end, or at the midpoint when that minimizer is
    not finite; so each trial cuts the bracket by at least a tenth, and a
    trial that overshot by orders of magnitude is cut back by the cubic's
    own estimate, not by halving.  The first trial is min(guess, cap),
    cap = pi / max|theta| the half period of the fastest rotation; a
    trial that decreases with phi' still negative is doubled, up to cap.
    """
    theta, U = np.linalg.eigh(1j * H)
    top = float(np.abs(theta).max())
    if top == 0.0:
        return None
    cap = math.pi / top
    UhQ = U.conj().T @ Q

    def at(eta):
        Qn = _rotate(theta, U, UhQ, eta)
        Fn, Sn = problem.values(Qn)
        return eta, Qn, Fn, Sn, -0.5 * _inner(H, problem.omega(Qn, Sn))

    noise = FLAT * abs(F0)

    def decreases(pt) -> bool:
        if pt[0] * slope <= noise:
            return pt[2] <= F0 + noise
        return pt[2] <= F0 - ARMIJO * pt[0] * slope

    def zoom(lo, hi, best):
        for _ in range(MAX_EVALS):
            if abs(hi[0] - lo[0]) <= 1e-14 * max(lo[0], hi[0]):
                break
            pt = at(_cubic_step(lo[0], lo[2], lo[4], hi[0], hi[2], hi[4]))
            if not decreases(pt) or pt[2] > lo[2] + noise:
                hi = pt
                continue
            best = pt
            if abs(pt[4]) <= CURVATURE * slope:
                break
            if pt[4] * (hi[0] - lo[0]) >= 0.0:
                hi = lo
            lo = pt
        return None if best is None else best[:4]

    prev = (0.0, Q, F0, None, -slope)
    pt = at(min(guess, cap))
    best = None
    for _ in range(MAX_EVALS):
        if not decreases(pt) or (prev[0] > 0.0 and pt[2] > prev[2] + noise):
            return zoom(prev, pt, best)
        best = pt
        if abs(pt[4]) <= CURVATURE * slope or pt[0] >= cap:
            return pt[:4]
        if pt[4] >= 0.0:
            return zoom(pt, prev, best)
        prev, pt = pt, at(min(2.0 * pt[0], cap))
    return best[:4]
