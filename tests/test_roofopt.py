"""Tests for the convex-roof optimizer: BFGS, then Polak-Ribiere+ conjugate gradients once a D start meets a kink."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qconc import (
    DensityMatrix,
    eof_pure,
    from_coefficients,
    generalized_concurrence_D,
    local_invariants,
    pure_density,
    random_form_a_mixture,
)
from qconc.cli import load_state
from qconc.errors import BadShape, ConvergenceFailure, NonFinite, NotIsometry, OutOfRange, ProfileMismatch, ZeroState
from qconc.mixed import (
    Decomposition,
    d_lower_bound,
    eigen_vectors_subnormalized,
    eof_lower_bound,
    index_deficits,
)
from qconc.roofopt import (
    AverageD,
    AverageE,
    RoofProblem,
    average_objective,
    certify_bound,
    minimize_roof,
    transform_decomposition,
)
from qconc import mixed, roofsearch
from qconc.roofsearch import SCAN, Descent, _pair_rotations, _probe, _rotate, _scan, d12_cores, d12_members, search
from qconc.roofsearch import _ball_lsq, _core_minors, e12_members, e_members
from qconc.roofsearch import _bfgs_update, _coordinates, _cubic_step, _from_coordinates, _skew_layout
from qconc.sampling import generator, haar_isometry, haar_unitary, random_form_a_state, random_pure
from qconc.spectra import eof_of_d

from conftest import random_density
from oracles import ball_lsq_projected, minors, probe_loop, roof_member, scan_loop, skew_basis
from oracles import d12_members as oracle_d12_members

BELL = from_coefficients(np.eye(2) / np.sqrt(2))


def werner(p):
    phi = pure_density(BELL).matrix
    return DensityMatrix(2, p * phi + (1.0 - p) * np.eye(4) / 4.0)


def test_transform_identity_recovers_eigendecomposition():
    rho = random_form_a_mixture(3, 81)
    vecs = eigen_vectors_subnormalized(rho)
    dec = transform_decomposition(vecs, np.eye(len(vecs)))
    eigvals = sorted(float(np.vdot(v, v).real) for v in vecs)
    assert sorted(dec.weights()) == pytest.approx(eigvals, abs=1e-12)
    np.testing.assert_allclose(dec.density(), rho.matrix, atol=1e-10)


def test_transform_rejects_non_isometry():
    rho = random_form_a_mixture(2, 82)
    vecs = eigen_vectors_subnormalized(rho)
    with pytest.raises(NotIsometry):
        transform_decomposition(vecs, np.ones((2, 2)))
    with pytest.raises(NotIsometry):
        transform_decomposition(vecs, np.eye(1, 2))
    # A NaN or infinite entry fails the test instead of dropping members.
    for bad, where in itertools.product((np.nan, np.inf), ((0, 0), (0, 1))):
        V = np.eye(2, dtype=complex)
        V[where] = bad
        with pytest.raises(NotIsometry):
            transform_decomposition(vecs, V)


def test_transform_rejects_non_finite_and_vanishing_eigenvectors():
    """NaN or infinite eigenvector entries raise NonFinite, and rows that all drop raise ZeroState, not an empty decomposition that averages to 0."""
    vecs = eigen_vectors_subnormalized(random_form_a_mixture(2, 82))
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        V = vecs.astype(complex)
        V[0, 1] = bad
        with pytest.raises(NonFinite):
            transform_decomposition(V, np.eye(2))
    for scale in (0.0, 1e-8):  # squared norms 0 and below MEMBER_DROP = 1e-14
        with pytest.raises(ZeroState):
            transform_decomposition(scale * vecs, np.eye(2))
    with pytest.raises(ZeroState):
        Decomposition.from_rows(np.zeros((2, 9)), 3)


def test_from_rows_rejects_any_non_finite_row():
    """A NaN or infinite row raises NonFinite, also when the other rows are finite; it is not dropped as a zero row."""
    finite = np.zeros(9)
    finite[0] = 0.5
    for bad in (np.nan, np.inf, complex(0.0, np.nan)):
        for rows in ([np.full(9, bad), finite], [finite, np.full(9, bad)], np.full((2, 9), bad)):
            with pytest.raises(NonFinite):
                Decomposition.from_rows(np.array(rows, dtype=complex), 3)
        rows = np.array([finite, finite], dtype=complex)
        rows[1, 4] = bad
        with pytest.raises(NonFinite):
            Decomposition.from_rows(rows, 3)


def test_from_rows_rejects_rows_that_are_not_n_squared_long():
    """Rows that are not N^2 long and a W that is not 2-D raise BadShape, not numpy's reshape error."""
    for W, N in ((np.ones((2, 8)), 3), (np.ones((2, 9)), 2), (np.ones(9), 3), (np.ones((1, 9, 1)), 3)):
        with pytest.raises(BadShape):
            Decomposition.from_rows(W, N)


def test_transform_rejects_rows_that_are_not_n_squared_long():
    """Rows of length 8 or 3, which are no N^2, and a 1-D vector raise BadShape, not numpy's reshape or index error."""
    for shape in ((2, 8), (2, 3)):
        with pytest.raises(BadShape):
            transform_decomposition(np.ones(shape) / 4, np.eye(2))
    with pytest.raises(BadShape):
        transform_decomposition(np.ones(9) / 3, np.eye(1))


def test_transform_taller_isometry_reconstructs():
    rng = generator(83)
    rho = random_form_a_mixture(3, 84)
    vecs = eigen_vectors_subnormalized(rho)
    r = len(vecs)
    g = rng.standard_normal((r + 1, r)) + 1j * rng.standard_normal((r + 1, r))
    iso, _ = np.linalg.qr(g)
    dec = transform_decomposition(vecs, iso)
    np.testing.assert_allclose(dec.density(), rho.matrix, atol=1e-9)
    assert abs(math.fsum(dec.weights()) - 1.0) < 1e-10


def test_transform_permutation_preserves_weights():
    rho = random_form_a_mixture(3, 85)
    vecs = eigen_vectors_subnormalized(rho)
    perm = np.eye(len(vecs))[::-1]
    dec = transform_decomposition(vecs, perm)
    base = transform_decomposition(vecs, np.eye(len(vecs)))
    assert sorted(dec.weights()) == pytest.approx(sorted(base.weights()), abs=1e-12)


def test_average_objective_values():
    rng = generator(86)
    psi = random_pure(2, rng)
    single = transform_decomposition(
        eigen_vectors_subnormalized(pure_density(psi)), np.eye(1)
    )
    assert abs(average_objective(single, AverageE()) - eof_pure(psi)) < 1e-12

    rho = random_form_a_mixture(3, 87)
    dec = transform_decomposition(
        eigen_vectors_subnormalized(rho), np.eye(3)
    )
    manual = math.fsum(
        p * generalized_concurrence_D(psi, 1, 2) for p, psi in dec.members
    )
    assert abs(average_objective(dec, AverageD(1, 2)) - manual) < 1e-12


def test_average_objective_scores_a_generic_state_by_its_invariants():
    """A Schmidt-rank-3 state scores the minor form (mn / sqrt 2) sqrt(I0^2 - I1) = sqrt(2 (1 - I1)) at (1, 2)."""
    rng = generator(88)
    psi = random_pure(3, rng)  # generic spectrum: not two-value
    dec = transform_decomposition(
        eigen_vectors_subnormalized(pure_density(psi)), np.eye(1)
    )
    _, i1 = local_invariants(psi)
    assert average_objective(dec, AverageD(1, 2)) == pytest.approx(math.sqrt(2.0 * (1.0 - i1)), abs=1e-12)
    with pytest.raises(OutOfRange):
        average_objective(dec, "not-an-objective")


@given(N=st.integers(2, 5), schmidt_rank=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_average_d_of_one_pure_member_is_mn_sqrt_e2(N, schmidt_rank, seed):
    """One member's AverageD(m, n) is mn sqrt(e2(lambda)) within 1e-12, for every (m, n) with mn <= N.

    e2 is summed here over the squared singular values of the member's
    coefficient matrix, which has Schmidt rank at most ``schmidt_rank``.
    """
    rng = generator(seed)
    k = min(schmidt_rank, N)
    left, right = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for shape in ((N, k), (k, N)))
    psi = from_coefficients(left @ right, renormalize=True)
    lam = np.linalg.svd(psi.coeffs, compute_uv=False) ** 2
    e2 = math.fsum(lam[i] * lam[j] for i in range(N) for j in range(i + 1, N))
    one = Decomposition(((1.0, psi),))
    for m in range(1, N // 2 + 1):
        for n in range(2, N // m + 1):
            assert abs(average_objective(one, AverageD(m, n)) - m * n * math.sqrt(e2)) <= 1e-12, (m, n)


def test_average_d_rejects_a_profile_the_members_cannot_have():
    """AverageD(m, n) with mn > N on the members raises OutOfRange, as RoofProblem does, instead of a value."""
    bell = Decomposition(((1.0, BELL),))
    assert average_objective(bell, AverageD(1, 2)) == pytest.approx(1.0, abs=1e-15)
    for objective in (AverageD(1, 3), AverageD(2, 2)):
        with pytest.raises(OutOfRange):
            average_objective(bell, objective)


def test_roof_problem_validation():
    rho = werner(0.5)
    with pytest.raises(OutOfRange):
        RoofProblem(target=rho, objective=AverageE(), restarts=0)
    for tol in (0.0, math.inf, math.nan):
        with pytest.raises(OutOfRange):
            RoofProblem(target=rho, objective=AverageE(), tol=tol)
    with pytest.raises(OutOfRange):
        RoofProblem(target=rho, objective=AverageE(), seed=-1)
    with pytest.raises(OutOfRange):
        RoofProblem(target=rho, objective="not-an-objective")
    with pytest.raises(OutOfRange):
        minimize_roof(RoofProblem(target=rho, objective=AverageE(), t_max=2))
    for sweeps in (0, -1):
        with pytest.raises(OutOfRange):
            RoofProblem(target=rho, objective=AverageE(), max_sweeps=sweeps)
    for m, n in ((0, 2), (1, 1), (-1, 3)):
        with pytest.raises(OutOfRange):
            AverageD(m, n)
    for m, n in ((1, 3), (2, 2)):
        with pytest.raises(OutOfRange):
            RoofProblem(target=rho, objective=AverageD(m, n))
    RoofProblem(target=random_form_a_mixture(2, 94), objective=AverageD(1, 3), max_sweeps=1)


def test_t_max_above_the_caratheodory_cap_raises():
    """t_max runs from the rank r to max(r^2, r + 2); r^2 members reach any roof on a rank-r support."""
    cases = ((pure_density(BELL), 1, 3), (random_form_a_mixture(2, 104, 0), 2, 4), (random_form_a_mixture(3, 104, 1), 3, 9))
    for rho, rank, cap in cases:
        for objective in (AverageD(1, 2), AverageE()):
            with pytest.raises(OutOfRange, match=rf"\[{rank}, {cap}\]"):
                minimize_roof(RoofProblem(target=rho, objective=objective, t_max=cap + 1))
    for rho, rank, cap in cases[:2]:
        result = minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), t_max=rank * rank, restarts=1, max_sweeps=1))
        assert [start.t for start in result.starts] == list(range(rank, rank * rank + 1))
        assert math.isfinite(result.value)


def test_minimize_roof_eigendecomposes_rho_once(eigh_calls):
    """The D(1, 2) route is chosen from the rows the search already has."""
    rho = random_form_a_mixture(3, 95)
    minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), t_max=3, restarts=1, max_sweeps=1))
    assert eigh_calls.of(rho.matrix) == 1


def test_minimize_roof_builds_the_d12_cores_once(monkeypatch):
    """The D(1, 2) search builds its core stack once and reads no index table inside its loop."""
    calls = {"_tau_cores": 0, "_support_table": 0}

    def counting(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        return counted

    for name in calls:
        counted = counting(name, getattr(mixed, name))
        for module in (mixed, roofsearch):
            monkeypatch.setattr(module, name, counted)
    rho = random_form_a_mixture(3, 104, 3)
    result = minimize_roof(
        RoofProblem(target=rho, objective=AverageD(1, 2), t_max=4, restarts=2, tol=1e-7, max_sweeps=30)
    )
    assert sum(s.evaluations for s in result.starts) > 100
    assert calls == {"_tau_cores": 1, "_support_table": 1}


def test_skew_basis_maps_stay_small_and_a_rerun_finds_the_same_roof():
    """At t = 40 the coordinate maps peak under 1 MB and one member's ``_changes`` under 2 MB; the dense basis alone was 41 MB.

    ``_changes`` scatters row k of every element into one (t^2, 2t) real
    array, 16 t^3 bytes (1.02 MB at t = 40), and takes its product with Q.
    A t = 2..4 roof run twice gives the same value, trace and starts.
    """
    problem = RoofProblem(target=random_form_a_mixture(2, 104, 0), objective=AverageD(1, 2), t_max=4, restarts=1)
    first = minimize_roof(problem)
    second = minimize_roof(problem)
    assert (second.value, second.trace, second.starts) == (first.value, first.trace, first.starts)

    t = 40
    V = eigen_vectors_subnormalized(problem.target)
    descent = Descent(V, 3, True)
    Q = haar_isometry(t, len(V), generator(113))
    Z = _core_minors(Q.conj(), descent.cores)[1]
    B = generator(114).standard_normal((t, t, 2)).view(complex)[..., 0]
    A = B - B.conj().T
    calls = [
        (lambda: _coordinates(A), 1e6),
        (lambda: _from_coordinates(_coordinates(A), t), 1e6),
        (lambda: next(descent._changes(Q, Z, [t // 2])), 2e6),
    ]
    for i, (call, bound) in enumerate(calls):
        _skew_layout.cache_clear()
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (i, peak)


@given(
    N=st.sampled_from([2, 3]),
    rank=st.integers(1, 6),
    grow=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_core_kernel_matches_the_row_oracle(N, rank, grow, seed):
    """d12_members on the cores gives the N^2-wide row kernel's values and conj(G) V^T.

    Form-(a) mixtures of rank 1..6 and two-qubit states of rank 1..4, with
    t = r .. r + 2.  One member is planted on a product state: row l of V
    becomes a|1>|b> of the same norm and row k of the isometry is e_l, the
    rest a Haar isometry on the other rows and columns, so both kernels
    see minors that are exactly zero.
    """
    rank = min(rank, 4) if N == 2 else rank
    rho = random_form_a_mixture(rank, 111, seed) if N == 3 else random_density(2, rank, 111, seed)
    V = eigen_vectors_subnormalized(rho).copy()
    r = len(V)
    t = r + grow
    k, l = seed % t, seed % r
    b = random_pure(N, generator(112, seed)).coeffs[0]
    product = np.zeros((N, N), dtype=complex)
    product[0] = b * (np.linalg.norm(V[l]) / np.linalg.norm(b))
    V[l] = product.reshape(-1)
    Q = np.zeros((t, r), dtype=complex)
    Q[k, l] = 1.0
    if r > 1:
        others = np.ix_([i for i in range(t) if i != k], [j for j in range(r) if j != l])
        Q[others] = haar_isometry(t - 1, r - 1, generator(113, seed, t))
    values, E = d12_members(Q.conj(), d12_cores(V, N))
    want, G = oracle_d12_members(Q.conj() @ V, N)
    want_E = G.conj() @ V.T
    assert values[k] == 0.0 and want[k] == 0.0
    assert not E[k].any() and not want_E[k].any()
    np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-13 * np.max(np.abs(want)))
    np.testing.assert_allclose(E, want_E, rtol=0.0, atol=1e-13 * np.max(np.abs(want_E)))


@given(
    N=st.sampled_from([2, 3]),
    rank=st.integers(1, 6),
    grow=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
def test_e12_kernel_matches_the_member_oracle_and_e_members(N, rank, grow, seed):
    """e12_members scores each row as its Schmidt spectrum does, and as p eof_of_d(d / p, 1).

    Form-(a) mixtures of rank 1..6 and two-qubit states of rank 1..4, with
    t = r .. r + 2 rows of a Haar isometry; values within 1e-12 p of each
    member, and values and gradients within 1e-12 of the eigh kernel's.
    """
    rank = min(rank, 4) if N == 2 else rank
    rho = random_form_a_mixture(rank, 116, seed) if N == 3 else random_density(2, rank, 116, seed)
    V = eigen_vectors_subnormalized(rho)
    r = len(V)
    Qbar = haar_isometry(r + grow, r, generator(117, seed, grow)).conj()
    cores = d12_cores(V, N)
    values, E = e12_members(Qbar, cores, V @ V.conj().T)
    d, _ = d12_members(Qbar, cores)
    W = Qbar @ V
    for k, w in enumerate(W):
        p = float(np.vdot(w, w).real)
        assert abs(values[k] - roof_member(w, N, "E")) <= 1e-12 * p, k
        assert abs(values[k] - p * eof_of_d(min(d[k] / p, 1.0), 1)) <= 1e-12 * p, k
    want, want_E = e_members(Qbar, V, N)
    np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
    np.testing.assert_allclose(E, want_E, rtol=0.0, atol=1e-12 * np.max(np.abs(want_E)))


def _qubit_block(B, N):
    """The N x N coefficient matrix of a 2 x 2 block B: B at N = 2; at N = 3, rows 2 and 3 share B's second row (form (a))."""
    if N == 2:
        return B
    A = np.zeros((3, 3), dtype=complex)
    A[0, :2] = B[0]
    A[1, :2] = A[2, :2] = B[1] / math.sqrt(2.0)
    return A


# Member 1 of the rows at Q = I has concurrence sin(2 theta): 0 (a product
# member), 1e-9 (where w rounds to 1), generic, and 1 (w = 0 at N = 2,
# about 2e-8 at N = 3).
_E12_THETAS = (0.0, 5e-10, 0.3, math.pi / 4)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("theta", _E12_THETAS)
@given(
    grow=st.integers(0, 1),
    seed=st.integers(0, 2**16),
    direction=arrays(np.float64, (2, 3, 3), elements=st.floats(-1.0, 1.0)),
)
def test_e12_gradient_matches_central_differences(N, theta, grow, seed, direction):
    """-1/2 <H, Omega> of the cored E kernel is the derivative along exp(-eta H) Q at Q = I.

    Row 1 is a state of concurrence sin(2 theta) at weight 0.6, row 2 a
    random Schmidt-rank-2 state at weight 0.4; with grow = 1 the third
    member has weight 0.
    """
    g = generator(118, seed)
    B = g.standard_normal((2, 2)) + 1j * g.standard_normal((2, 2))
    V = np.array([
        math.sqrt(0.6) * _qubit_block(np.diag([math.cos(theta), math.sin(theta)]), N).reshape(-1),
        math.sqrt(0.4) * _qubit_block(B / np.linalg.norm(B), N).reshape(-1),
    ], dtype=complex)
    problem = Descent(V, N, None)
    assert problem.kernel is e12_members
    t = 2 + grow
    Q = np.eye(t, 2, dtype=complex)
    F, S = problem.values(Q)
    if theta == 0.0:
        assert S.f[0] == 0.0 and not S.E[0].any()
    H = _skew(direction[0, :t, :t] + 1j * direction[1, :t, :t])
    assume(np.linalg.norm(H) > 0.1)
    omega = problem.omega(Q, S)
    theta_H, U = np.linalg.eigh(1j * H)

    def along(eta):
        return problem.values((U * np.exp(1j * eta * theta_H)) @ U.conj().T @ Q)[0]

    h = 1e-5
    fd = (along(h) - along(-h)) / (2.0 * h)
    exact = -0.5 * float(np.vdot(H, omega).real)
    assert abs(fd - exact) <= 1e-6 * np.linalg.norm(H) * np.linalg.norm(omega), (fd, exact)


def test_cored_e_roofs_agree_with_the_eigh_kernel_on_the_corpus(monkeypatch):
    """The benchmark corpus's E roofs at criterion 4's settings move by at most 1e-12 with the kernel."""
    problems = [
        RoofProblem(target=random_form_a_mixture(2 + k % 2, 104, k), objective=AverageE(),
                    t_max=2 + k % 2, restarts=2, tol=1e-7, max_sweeps=30)
        for k in range(5)
    ]
    cored = [minimize_roof(problem) for problem in problems]
    monkeypatch.setattr(roofsearch, "_rank_two_support", lambda V, N: False)
    rows = [minimize_roof(problem) for problem in problems]
    for k, (got, want) in enumerate(zip(cored, rows)):
        assert got.converged and want.converged, k
        assert abs(got.value - want.value) <= 1e-12, (k, got.value, want.value)


def test_two_row_supports_take_the_cored_kernels_and_keep_their_roofs(monkeypatch):
    """C^2 x C^3 and C^3 x C^2 mixtures of rank 2 and 3 take the cored kernels.

    With the support test patched to false the E roofs take the eigh
    kernel instead and agree to 1e-12; the D roofs, whose minor-form
    kernel does not read the support test, agree to 1e-9 where both
    searches converge.
    """
    problems = []
    for qubit in ("A", "B"):
        for rank in (2, 3):
            rho = random_density(3, rank, 119, rank, qubit=qubit)
            V = eigen_vectors_subnormalized(rho)
            assert Descent(V, 3, (1, 2)).kernel is d12_members and Descent(V, 3, None).kernel is e12_members
            problems += [RoofProblem(target=rho, objective=objective, t_max=rank, restarts=2, tol=1e-7, max_sweeps=30)
                         for objective in (AverageD(1, 2), AverageE())]
    cored = [minimize_roof(problem) for problem in problems]
    monkeypatch.setattr(roofsearch, "_rank_two_support", lambda V, N: False)
    rows = [minimize_roof(problem) for problem in problems]
    compared = 0
    for k, (problem, got, want) in enumerate(zip(problems, cored, rows)):
        assert got.converged, k
        if isinstance(problem.objective, AverageE):
            assert abs(got.value - want.value) <= 1e-12, (k, got.value, want.value)
        elif want.converged:
            assert abs(got.value - want.value) <= 1e-9, (k, got.value, want.value)
            compared += 1
    assert compared >= 2


def test_cored_e_roof_makes_no_eigh_call_in_its_kernel(eigh_calls, monkeypatch):
    """The E kernel on a form-(a) support reads the cores; only the search's rotations call eigh."""
    inside = []

    def counted(*args):
        before = len(eigh_calls)
        out = e12_members(*args)
        inside.append(len(eigh_calls) - before)
        return out

    monkeypatch.setattr(roofsearch, "e12_members", counted)
    for k in (1, 3):
        rho = random_form_a_mixture(3, 104, k)
        minimize_roof(RoofProblem(target=rho, objective=AverageE(), t_max=3, restarts=2, tol=1e-7, max_sweeps=30))
    assert len(inside) > 100 and not any(inside)
    assert len(eigh_calls) > 0


@given(seed=st.integers(0, 2**16), zeros=st.sampled_from([0.0, 0.3, 0.8]))
def test_skew_coordinates_read_the_skew_basis(seed, zeros):
    """The index map gives the dense products with ``oracles.skew_basis`` byte for byte, signed zeros included, at t = 1..9.

    ``_from_coordinates`` of the unit vectors is the basis itself;
    ``_from_coordinates`` and ``_coordinates`` equal the products with the
    basis reshaped to t^2 x t^2 on coordinate vectors and skew-Hermitian
    matrices with a share ``zeros`` of exact zeros (both signs in the
    coordinates); ``Descent._changes`` equals the product of row k of every
    dense element with Q, Q an isometry or the eigendecomposition's
    identity; ``_pair_rotations`` equals one ``eigh`` per two-row element.
    """
    for t in range(1, 10):
        basis = skew_basis(t)
        dense = basis.reshape(t * t, -1)
        assert _from_coordinates(np.eye(t * t), t).tobytes() == basis.tobytes()
        rng = generator(112, t, seed)
        x = rng.standard_normal((3, t * t))
        x[rng.random(x.shape) < zeros] = 0.0
        x[rng.random(x.shape) < zeros / 2] = -0.0
        B = rng.standard_normal((t, t)) + 1j * rng.standard_normal((t, t))
        B[rng.random((t, t)) < zeros] = 0.0
        for xi in x:
            assert _from_coordinates(xi, t).tobytes() == (xi @ dense).reshape(t, t).tobytes()
        for A in (B - B.conj().T, _from_coordinates(x[0], t)):
            assert _coordinates(A).tobytes() == (dense.conj() @ A.ravel()).real.tobytes()

        thetas, Us = _pair_rotations(t)
        want = [np.linalg.eigh(1j * b) for b in basis if not b.diagonal().any()]
        assert len(thetas) == len(want) == t * (t - 1)
        for theta, U, (theta_want, U_want) in zip(thetas, Us, want):
            assert theta.tobytes() == theta_want.tobytes() and U.tobytes() == U_want.tobytes()

        rho = random_form_a_mixture(min(t, 3), 104, seed)
        V = eigen_vectors_subnormalized(rho)
        descent = Descent(V, 3, True)
        for Q in (np.eye(t, len(V), dtype=complex), haar_isometry(t, len(V), rng)):
            Z = _core_minors(Q.conj(), descent.cores)[1]
            for k, dy in enumerate(descent._changes(Q, Z, list(range(t)))):
                dq = (-(basis[:, k, :] @ Q)).conj()
                assert dy.tobytes() == (dq @ Z[k].T).tobytes()


@given(d=st.integers(1, 12), seed=st.integers(0, 2**16), start=st.booleans())
def test_bfgs_update_is_positive_definite_and_meets_the_secant_equation(d, seed, start):
    """H+ is symmetric positive definite with H+ y = s; a pair with s . y <= 0 leaves H as it was."""
    rng = generator(111, d, seed)
    A = rng.standard_normal((d, d))
    H = None if start else A @ A.T + 0.1 * np.eye(d)
    s, y = rng.standard_normal(d), rng.standard_normal(d)
    y *= math.copysign(1.0, float(s @ y))
    assume(float(s @ y) > 1e-3 * np.linalg.norm(s) * np.linalg.norm(y))
    got = _bfgs_update(H, s, y)
    assert np.array_equal(got, got.T)
    assert np.linalg.eigvalsh(got)[0] > 0.0
    assert np.linalg.norm(got @ y - s) <= 1e-10 * (np.linalg.norm(got) * np.linalg.norm(y) + np.linalg.norm(s))
    assert _bfgs_update(H, s, -y) is H
    assert _bfgs_update(H, s, 0.0 * y) is H


def test_bfgs_e_roofs_agree_with_conjugate_gradients_in_fewer_iterations(monkeypatch):
    """E roofs with the CG directions forced back reach the BFGS minima within 1e-12, in more iterations.

    The five benchmark corpus mixtures take ``e12_members``, the three
    generic N = 3 rank-3 mixtures ``e_members``; both kernels' searches
    take BFGS directions.  CG is forced by making ``_nonsmooth`` read
    every step's end as a kink, so that each start switches after its
    first step, which follows the gradient either way.
    """
    knobs = dict(restarts=2, tol=1e-7, max_sweeps=30)
    targets = [(random_form_a_mixture(2 + k % 2, 104, k), 2 + k % 2) for k in range(5)]
    targets += [(random_density(3, 3, 900, s), 4) for s in range(3)]
    kernels = [Descent(eigen_vectors_subnormalized(rho), 3, None).kernel for rho, _ in targets]
    assert kernels == [e12_members] * 5 + [e_members] * 3
    problems = [RoofProblem(target=rho, objective=AverageE(), t_max=t, **knobs) for rho, t in targets]
    bfgs = [minimize_roof(problem) for problem in problems]
    monkeypatch.setattr(roofsearch, "_nonsmooth", lambda kinks, loose: True)
    cg = [minimize_roof(problem) for problem in problems]
    for k, (got, want) in enumerate(zip(bfgs, cg)):
        assert got.converged and want.converged, k
        assert abs(got.value - want.value) <= 1e-12, (k, got.value, want.value)
    assert sum(r.iterations for r in bfgs) < sum(r.iterations for r in cg)


def test_a_lapack_failure_in_the_search_raises_convergence_failure(monkeypatch):
    """A LinAlgError inside ``search`` (here the line search's ``eigh``) leaves ``minimize_roof`` as ConvergenceFailure."""
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(roofsearch, "_line_search", fail)
    for objective in (AverageD(1, 2), AverageE()):
        with pytest.raises(ConvergenceFailure, match="did not converge"):
            minimize_roof(RoofProblem(target=random_form_a_mixture(2, 104, 0), objective=objective, restarts=1))


def test_a_failed_bfgs_line_search_retries_along_the_gradient_from_a_scan(monkeypatch):
    """The first BFGS step's line search is made to fail: the search scans along Omega and starts Hinv afresh."""
    guesses, fresh = [], []
    line_search, update = roofsearch._line_search, roofsearch._bfgs_update

    def failing_once(problem, Q, F0, H, slope, guess):
        guesses.append(guess)
        if guess == 1.0 and guesses.count(1.0) == 1:
            return None
        return line_search(problem, Q, F0, H, slope, guess)

    def recorded(Hinv, s, y):
        fresh.append(Hinv is None)
        return update(Hinv, s, y)

    monkeypatch.setattr(roofsearch, "_line_search", failing_once)
    monkeypatch.setattr(roofsearch, "_bfgs_update", recorded)
    problem = Descent(eigen_vectors_subnormalized(random_form_a_mixture(3, 104, 1)), 3, None)
    _, trace, converged, _ = search(problem, np.eye(3, dtype=complex), 1e-7, 30)
    i = guesses.index(1.0)
    assert guesses[i + 1] is None and fresh[i] and not fresh[i + 1]
    assert converged and all(b <= a + 1e-13 * abs(a) for a, b in zip(trace, trace[1:]))


def test_d_starts_update_the_inverse_hessian_only_before_their_first_kink(monkeypatch):
    """A D start makes BFGS updates until a step ends with a kink or loose member, and none after; E starts update throughout.

    D(1, 2) on the corpus and D(1, 3) on a generic mixture, then the E roof
    of that mixture.  Per start, each step's end is read as smooth or
    kinked from the kink and loose lists of the last ``Descent.gradient``
    call, the one after the snap; the start's events must be (smooth,
    update) pairs, ended by at most one kinked reading.
    """
    starts, last = [], []
    search, gradient, nonsmooth = roofsearch.search, Descent.gradient, roofsearch._nonsmooth

    def started(*args):
        starts.append([])
        return search(*args)

    def graded(self, Q, S):
        last[:] = [gradient(self, Q, S)]
        return last[0]

    def read(kinks, loose):
        assert kinks is last[0][1] and loose is last[0][2]
        starts[-1].append("kinked" if kinks or loose else "smooth")
        return nonsmooth(kinks, loose)

    def updated(*args):
        starts[-1].append("update")
        return _bfgs_update(*args)

    monkeypatch.setattr(roofsearch, "search", started)
    monkeypatch.setattr(Descent, "gradient", graded)
    monkeypatch.setattr(roofsearch, "_nonsmooth", read)
    monkeypatch.setattr(roofsearch, "_bfgs_update", updated)
    knobs = dict(restarts=2, tol=1e-7, max_sweeps=30)
    for k in range(5):
        rho = random_form_a_mixture(2 + k % 2, 104, k)
        minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), t_max=2 + k % 2, **knobs))
    rho = random_density(3, 3, 900, 0)
    minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 3), t_max=4, **knobs))
    d_starts, starts[:] = starts[:], []
    minimize_roof(RoofProblem(target=rho, objective=AverageE(), t_max=4, **knobs))
    for events in d_starts + starts:
        updates = events.count("update")
        assert events in (["smooth", "update"] * updates, ["smooth", "update"] * updates + ["kinked"]), events
    assert all(events and events[-1] == "update" for events in starts)
    switched = [events.count("update") for events in d_starts if events[-1:] == ["kinked"]]
    assert min(switched) == 0 < max(switched) and len(switched) < len(d_starts), (switched, len(d_starts))


@given(rank=st.integers(1, 6), grow=st.integers(0, 2), seed=st.integers(0, 2**16))
def test_roof_objective_dominates_the_bound_through_minkowski_and_each_index(rank, grow, seed):
    """R = sum_k ||y_k|| >= M = sqrt(sum_x (sum_k |y_xk|)^2) >= bound, y = 2 minors of the rows.

    R is the D(1, 2) average of a decomposition of a form-(a) mixture;
    each index's sum_k |y_xk| is at least its signed Lambda deficit.
    """
    rho = random_form_a_mixture(rank, 96, seed)
    V = eigen_vectors_subnormalized(rho)
    r = len(V)
    iso = haar_isometry(r + grow, r, generator(97, seed, grow))
    W = iso.conj() @ V
    y = 2.0 * minors(W, 3)
    R = math.fsum(np.linalg.norm(y, axis=1).tolist())
    values, _ = d12_members(iso.conj(), d12_cores(V, 3))
    assert abs(R - math.fsum(values.tolist())) <= 1e-12
    assert abs(R - average_objective(transform_decomposition(V, iso), AverageD(1, 2))) <= 1e-12
    per_index = np.sum(np.abs(y), axis=0)
    M = math.sqrt(math.fsum((per_index**2).tolist()))
    assert R >= M - 1e-12
    assert np.all(per_index >= index_deficits(rho) - 1e-12)
    assert M >= d_lower_bound(rho, 1, 2) - 1e-12


@given(N=st.integers(3, 4), rank=st.integers(2, 4), seed=st.integers(0, 2**16))
def test_minor_form_roofs_on_generic_supports_are_finite_and_dominate_the_bound(N, rank, seed):
    """On random supports of rank 2-4 at N = 3, 4 every D search scores the minor form.

    ``d12_members`` is 2 ||minors|| of the rows; the D(1, 2) roof is finite
    and above ``d_lower_bound``; the D(1, 3) roof is the same search
    scaled by mn / 2 = 1.5.
    """
    rho = random_density(N, rank, 113, seed)
    V = eigen_vectors_subnormalized(rho)
    r = len(V)
    iso = haar_isometry(r + 1, r, generator(114, seed))
    values, _ = d12_members(iso.conj(), d12_cores(V, N))
    want = 2.0 * np.linalg.norm(minors(iso.conj() @ V, N), axis=1)
    np.testing.assert_allclose(values, want, rtol=0.0, atol=1e-13)
    knobs = dict(t_max=r, restarts=2, tol=1e-7, max_sweeps=30)
    two = minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), **knobs))
    three = minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 3), **knobs))
    assert math.isfinite(two.value) and two.value >= d_lower_bound(rho, 1, 2) - 1e-9
    assert abs(three.value - 1.5 * two.value) <= 1e-12
    assert abs(three.trace[-1] - 1.5 * two.trace[-1]) <= 1e-12


def test_roof_on_pure_state_returns_its_entropy():
    rng = generator(89)
    psi = random_pure(2, rng)
    result = minimize_roof(
        RoofProblem(target=pure_density(psi), objective=AverageE(), restarts=2)
    )
    assert abs(result.value - eof_pure(psi)) < 1e-9
    assert result.converged


def test_roof_werner_entanglement_of_formation():
    """Known two-qubit mixed-state value: E at concurrence 1/4."""
    result = minimize_roof(
        RoofProblem(
            target=werner(0.5),
            objective=AverageE(),
            t_max=4,
            restarts=2,
            tol=1e-7,
            max_sweeps=40,
        )
    )
    assert abs(result.value - eof_of_d(0.25, 1)) < 1e-12


def test_roof_trace_is_monotone_and_result_consistent():
    rho = random_form_a_mixture(2, 90)
    problem = RoofProblem(
        target=rho, objective=AverageD(1, 2), t_max=2, restarts=2, max_sweeps=30
    )
    result = minimize_roof(problem)
    assert all(b <= a + 1e-12 for a, b in zip(result.trace, result.trace[1:]))
    np.testing.assert_allclose(result.decomposition.density(), rho.matrix, atol=1e-8)
    assert result.value == average_objective(result.decomposition, AverageD(1, 2))


def test_roof_is_reproducible_bit_for_bit():
    rho = random_form_a_mixture(2, 91)
    problem = RoofProblem(
        target=rho, objective=AverageD(1, 2), t_max=3, restarts=3, max_sweeps=20
    )
    first = minimize_roof(problem)
    second = minimize_roof(problem)
    assert first.value == second.value
    assert first.trace == second.trace
    assert first.iterations == second.iterations


def test_roof_dominates_closed_form_bound():
    rho = random_form_a_mixture(2, 92)
    bound = d_lower_bound(rho, 1, 2)
    result = minimize_roof(
        RoofProblem(
            target=rho, objective=AverageD(1, 2), t_max=2, restarts=2,
            tol=1e-7, max_sweeps=30,
        )
    )
    assert result.value >= bound - 1e-6
    e_bound = eof_lower_bound(rho, 1, 2)
    e_result = minimize_roof(
        RoofProblem(
            target=rho, objective=AverageE(), t_max=2, restarts=2,
            tol=1e-7, max_sweeps=30,
        )
    )
    assert e_result.value >= e_bound - 1e-6
    assert 0.0 < e_bound <= max(eof_pure(psi) for _, psi in e_result.decomposition.members) + 1e-9


def test_certify_bound_werner():
    report = certify_bound(werner(0.5), 1, 2, restarts=2, t_max=4, max_sweeps=40, tol=1e-7)
    assert abs(report.bound - 0.25) < 1e-10
    assert report.gap >= -1e-6
    assert not report.violation


def test_certify_bound_pure_form_a():
    rng = generator(93)
    psi = random_form_a_state(rng)
    report = certify_bound(pure_density(psi), 1, 2, restarts=2, t_max=1, max_sweeps=20)
    assert abs(report.gap) < 1e-7
    assert not report.violation


def test_roof_and_average_objective_agree_at_the_profile_threshold():
    """The roof's value is its decomposition's ``average_objective``, bit for bit, near the old threshold.

    The second Schmidt value sits a relative 1e-9 or 1e-12 from 1e-6,
    where average D once switched between a profile match and a mismatch;
    the minor form has no threshold, so the result is finite and is the
    recompute of its own members, with nothing scored +inf.
    """
    objective = AverageD(1, 2)
    for offset in (1e-9, 1e-12):
        for k in range(400):
            g = generator(78, k)
            U, V = haar_unitary(3, g), haar_unitary(3, g)
            t = 1e-6 * (1.0 + (offset if k % 2 else -offset))
            A = U @ np.diag([math.sqrt(1.0 - t), math.sqrt(t), 0.0]) @ V.T
            psi = from_coefficients(A, renormalize=True)
            result = minimize_roof(
                RoofProblem(target=pure_density(psi), objective=objective, t_max=1, restarts=1)
            )
            try:
                expect = average_objective(result.decomposition, objective)
            except ProfileMismatch:
                expect = math.inf
            assert result.value == expect, (offset, k)


def test_roof_results_equal_average_objective_bit_for_bit():
    for objective in (AverageD(1, 2), AverageE()):
        for rank in (2, 3):
            rho = random_form_a_mixture(rank, 104, rank)
            result = minimize_roof(
                RoofProblem(target=rho, objective=objective, t_max=rank, restarts=2,
                            tol=1e-7, max_sweeps=5)
            )
            assert result.value == average_objective(result.decomposition, objective)


def test_d_roof_value_is_its_search_minimum():
    """The reported D(1, 2) roof is the winning start's last search value within 1e-14.

    The search and ``average_objective`` read D from the same 2x2 minors:
    on the benchmark corpus at criterion 4's settings and on two density
    fixtures at RoofProblem's defaults.
    """
    cases = [
        (random_form_a_mixture(2 + k % 2, 104, k), dict(t_max=2 + k % 2, restarts=2, tol=1e-7, max_sweeps=30))
        for k in range(5)
    ]
    cases += [(load_state(f"fixtures/{name}.json"), {}) for name in ("form_a_mix", "werner_p05")]
    for i, (rho, search) in enumerate(cases):
        result = minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), **search))
        assert abs(result.value - result.trace[-1]) <= 1e-14, (i, result.value, result.trace[-1])


def test_snapped_product_member_of_corpus_mixture_3_reads_zero():
    """Corpus mixture 3's D roof ends at a kink; its product member (p = 0.09) scores D <= 1e-14."""
    result = minimize_roof(RoofProblem(
        target=random_form_a_mixture(3, 104, 3), objective=AverageD(1, 2), t_max=3, restarts=2, tol=1e-7, max_sweeps=30,
    ))
    assert any(s.kinks for s in result.starts)
    scores = [(average_objective(Decomposition(((1.0, psi),)), AverageD(1, 2)), p) for p, psi in result.decomposition.members]
    d, p = min(scores)
    assert p > 0.05 and d <= 1e-14, (p, d)


def _densities():
    """The benchmark's roof corpus (criterion 4's mixtures 0..4) and the three fixtures."""
    out = [random_form_a_mixture(2 + k % 2, 104, k) for k in range(5)]
    for name in ("bell", "werner_p05", "form_a_mix"):
        state = load_state(f"fixtures/{name}.json")
        out.append(state if isinstance(state, DensityMatrix) else pure_density(state))
    return out


def test_batched_member_kernels_match_the_per_member_oracle():
    """Each batched kernel scores every row as the slow Schmidt-spectrum route does."""
    for i, rho in enumerate(_densities()):
        V = eigen_vectors_subnormalized(rho)
        r = len(V)
        for t, k in ((r, 0), (r, 1), (r + 1, 2)):
            iso = np.eye(t, r) if k == 0 else haar_isometry(t, r, generator(105, i, k))
            W = iso.conj() @ V
            for profile, kind in (((1, 2), 2), (None, "E")):
                values, _ = Descent(V, rho.dim, profile).members(iso.conj())
                expect = [roof_member(w, rho.dim, kind) for w in W]
                np.testing.assert_allclose(values, expect, rtol=0.0, atol=1e-12)


def _skew(M):
    return 0.5 * (M - M.conj().T)


_GRADIENT_CASES = [
    (random_form_a_mixture(3, 104, 1), (1, 2)),
    (random_form_a_mixture(3, 104, 1), None),
    (load_state("fixtures/werner_p05.json"), (1, 2)),
    (random_density(3, 3, 106), (1, 3)),
]


@given(
    case=st.integers(0, len(_GRADIENT_CASES) - 1),
    grow=st.integers(0, 1),
    iso=arrays(np.float64, (2, 5, 4), elements=st.floats(-1.0, 1.0)),
    direction=arrays(np.float64, (2, 5, 5), elements=st.floats(-1.0, 1.0)),
)
def test_member_gradients_match_central_differences(case, grow, iso, direction):
    """-1/2 <H, Omega> is the derivative of the roof objective along exp(-eta H) Q."""
    rho, profile = _GRADIENT_CASES[case]
    V = eigen_vectors_subnormalized(rho)
    r = len(V)
    t = r + grow
    # Centred on a fixed generic isometry: the eigendecomposition of a
    # symmetric density can hold product members, where D is not differentiable.
    base = haar_isometry(t, r, generator(107, t))
    Q, _ = np.linalg.qr(iso[0, :t, :r] + 1j * iso[1, :t, :r] + base)
    H = _skew(direction[0, :t, :t] + 1j * direction[1, :t, :t])
    assume(np.linalg.norm(H) > 0.1)
    problem = Descent(V, rho.dim, profile)
    F, G = problem.values(Q)
    assume(math.isfinite(F))
    omega = problem.omega(Q, G)
    theta, U = np.linalg.eigh(1j * H)

    def along(eta):
        return problem.values((U * np.exp(1j * eta * theta)) @ U.conj().T @ Q)[0]

    h = 1e-5
    fd = (along(h) - along(-h)) / (2.0 * h)
    exact = -0.5 * float(np.vdot(H, omega).real)
    assert abs(fd - exact) <= 1e-6 * np.linalg.norm(H) * np.linalg.norm(omega), (fd, exact)


def test_product_member_scores_zero_in_search_and_recompute():
    """A product member has no nonzero 2x2 minor: it scores 0 for every (1, n).

    Both (1, 2) and (1, 3) score it on the cores with ``d12_members``.
    """
    for rows in ([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]):
        psi = from_coefficients(np.outer(rows, [0.0, 1.0, 0.0]))
        rho = pure_density(psi)
        for objective in (AverageD(1, 2), AverageD(1, 3)):
            V = eigen_vectors_subnormalized(rho)
            problem = Descent(V, 3, (objective.m, objective.n))
            assert problem.kernel is d12_members
            values, _ = problem.members(np.eye(1))
            assert values.tolist() == [0.0]
            assert average_objective(Decomposition(((1.0, psi),)), objective) == 0.0
            result = minimize_roof(RoofProblem(target=rho, objective=objective, t_max=1, restarts=1))
            assert result.value == 0.0 and result.converged


def test_start_records_account_for_the_search(monkeypatch):
    """Each start's evaluations times its t add up to the rows the kernel scored."""
    rows = []

    def counted(Qbar, cores):
        rows.append(len(Qbar))
        return d12_members(Qbar, cores)

    monkeypatch.setattr(roofsearch, "d12_members", counted)
    rho = random_form_a_mixture(3, 104, 3)
    result = minimize_roof(
        RoofProblem(target=rho, objective=AverageD(1, 2), t_max=4, restarts=2, tol=1e-7, max_sweeps=30)
    )
    assert [(s.t, s.start) for s in result.starts] == [(3, 0), (3, 1), (4, 0), (4, 1)]
    assert sum(s.iterations for s in result.starts) == result.iterations
    winner = min(result.starts, key=lambda s: s.value)
    assert winner.value == result.trace[-1]
    assert winner.converged is result.converged
    assert all(s.kinks >= 0 for s in result.starts)
    assert all(s.evaluations > 0 for s in result.starts)
    assert sum(s.evaluations * s.t for s in result.starts) == sum(rows)


def test_every_snap_lowers_the_minor_norm_of_each_snapped_member(monkeypatch):
    """The snap turns members towards their product states, never away.

    Near a product state the snap's linearized system has singular values
    that are rounding; solved to full rank, it turned members by up to a
    radian and raised their minor norms on this search.
    """
    snap = Descent.snap
    outcomes = []
    rho = random_form_a_mixture(3, 104, 3)
    V = eigen_vectors_subnormalized(rho)

    def checked(self, Q, members):
        Qs = snap(self, Q, members)
        before = np.linalg.norm(minors(Q.conj() @ V, 3)[members], axis=1)
        after = np.linalg.norm(minors(Qs.conj() @ V, 3)[members], axis=1)
        outcomes.append(bool(np.all(after < before)))
        return Qs

    monkeypatch.setattr(Descent, "snap", checked)
    minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), t_max=3, restarts=2, tol=1e-7, max_sweeps=30))
    assert outcomes and all(outcomes), (len(outcomes), outcomes.count(False))


def test_two_snaps_land_a_loose_member_on_its_kink():
    """Two snaps take a member at minor norm ~1e-5 p to a kink, minor norm <= KINK_TOL p.

    Corpus mixture 3's converged D decomposition has a product member;
    a 1e-5 turn along (e_02 - e_20) / sqrt 2 loosens it.  The snap leaves
    the member's weight free, so it moves onto the product state in the
    support; with the weight held fixed, two snaps left it at 2e-7 p.
    """
    V = eigen_vectors_subnormalized(random_form_a_mixture(3, 104, 3))
    descent = Descent(V, 3, True)
    Q, _, converged, _ = search(descent, np.eye(3, dtype=complex), 1e-7, 30)

    def relative_norms(Q):
        W = Q.conj() @ V
        return np.linalg.norm(minors(W, 3), axis=1) / np.einsum("ki,ki->k", W.conj(), W).real

    k = int(np.argmin(relative_norms(Q)))
    assert converged and relative_norms(Q)[k] <= roofsearch.KINK_TOL
    theta, U = np.linalg.eigh(1j * _from_coordinates(1e-5 * np.eye(9)[3], 3))
    Q = _rotate(theta, U, U.conj().T @ Q, 1.0)
    assert 1e-6 < relative_norms(Q)[k] < 1e-4
    for _ in range(2):
        Q = descent.snap(Q, [k])
    assert relative_norms(Q)[k] <= roofsearch.KINK_TOL, relative_norms(Q)[k]


def _mixed_profile_density():
    """A rank-2 N = 3 density whose eigenvectors have Schmidt rank 2 but whose rotations have rank 3.

    Its rho_A and rho_B have rank 3, so E takes ``e_members``; D scores
    every rotation of it finite on the minor form.
    """
    psi = np.zeros((3, 3), dtype=complex)
    psi[0, 0], psi[1, 1] = 0.8, 0.6
    prod = np.zeros((3, 3), dtype=complex)
    prod[2, 2] = 1.0
    a, b = psi.reshape(-1), prod.reshape(-1)
    return DensityMatrix(3, 0.7 * np.outer(a, a.conj()) + 0.3 * np.outer(b, b.conj()))


_KERNEL_CASES = [
    (random_form_a_mixture(3, 104, 1), (1, 2)),
    (random_form_a_mixture(3, 104, 1), None),
    (random_density(3, 3, 106), (1, 3)),
    (random_density(3, 3, 106), None),
    (_mixed_profile_density(), (1, 2)),
]


def test_batched_scores_match_one_value_call_per_candidate():
    """``Descent.values`` on a stack equals ``Descent.values`` of each isometry alone, every value finite."""
    kernels = set()
    for i, (rho, profile) in enumerate(_KERNEL_CASES):
        V = eigen_vectors_subnormalized(rho)
        r = len(V)
        problem = Descent(V, rho.dim, profile)
        kernels.add(problem.kernel.__name__)
        for t in (r, r + 1):
            isos = [np.eye(t, r, dtype=complex), haar_isometry(t, r, generator(108, i, t))]
            stack = np.concatenate([Q[None] for Q in isos] + [
                _rotate(theta, U, U.conj().T @ Q, np.linspace(0.1, 4.0, 5))
                for Q in isos for theta, U in zip(*_pair_rotations(t))])
            batched, _ = problem.values(stack)
            single = [problem.values(q)[0] for q in stack]
            for got, want in zip(batched, single):
                assert math.isfinite(want) and abs(got - want) <= 1e-13 * abs(want), (i, got, want)
    assert kernels == {"d12_members", "e12_members", "e_members"}


def test_batched_scan_and_probe_pick_the_loop_winner():
    """On the benchmark's corpus, at each search's start and end, the batched scan and probe keep the loop's point."""
    for k in range(5):
        rank = 2 + k % 2
        rho = random_form_a_mixture(rank, 104, k)
        V = eigen_vectors_subnormalized(rho)
        for profile in ((1, 2), None):
            problem = Descent(V, 3, profile)

            def value(Q):
                return problem.values(Q)[0]

            starts = [np.eye(rank, dtype=complex), haar_isometry(rank, rank, generator(0, rank, 1))]
            ends = [search(problem, Q, 1e-7, 30)[0] for Q in starts]
            for Q in starts + ends:
                F, G = problem.values(Q)
                H = problem.gradient(Q, G)[0]
                theta, U = np.linalg.eigh(1j * H)
                etas = 2.0 * (math.pi / float(np.max(np.abs(theta)))) * np.arange(SCAN) / SCAN
                assert _scan(problem, theta, U, U.conj().T @ Q, etas, F)[0] == scan_loop(value, Q, H, SCAN)
                want_F, want_Q = probe_loop(value, Q, SCAN)
                got_Q, got_F, _ = _probe(problem, Q, np.finfo(float).max)
                assert got_F == want_F, (k, profile)
                np.testing.assert_array_equal(got_Q, want_Q)


def test_bench_corpus_roofs_converge_at_the_criterion_settings():
    """The corpus roofs converge, and each D value is the minor oracle sum_k p_k 2 ||minors of psi_k|| within 1e-12.

    The oracle gathers every 2x2 minor of the members' unit coefficient
    matrices explicitly (``oracles.minors``), so a product member reads 0
    up to rounding on any normalization, where a Schmidt spectrum's
    lambda_2 is rounding of order 1e-17 and its D reads up to about 1e-8 p.
    """
    for k in range(5):
        rank = 2 + k % 2
        rho = random_form_a_mixture(rank, 104, k)
        for objective in (AverageD(1, 2), AverageE()):
            result = minimize_roof(
                RoofProblem(target=rho, objective=objective, t_max=rank, restarts=2, tol=1e-7, max_sweeps=30)
            )
            assert result.converged, (k, objective)
            if isinstance(objective, AverageD):
                oracle = math.fsum(
                    p * 2.0 * np.linalg.norm(minors(psi.vector()[None], 3)) for p, psi in result.decomposition.members
                )
                assert abs(result.value - oracle) <= 1e-12, (k, result.value, oracle)


def _quadratic_ends(a, b, m):
    """(a, fa, da, b, fb, db) of (x - m)^2, a cubic with its minimizer at m."""
    return a, (a - m) ** 2, 2.0 * (a - m), b, (b - m) ** 2, 2.0 * (b - m)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0)])
def test_cubic_step_clips_its_minimizer_into_the_inner_bracket(a, b):
    """A minimizer left or right of [lo + w/10, hi - w/10] lands on that end; one inside is kept."""
    for m in (-3.0, 0.0, 0.03):
        assert _cubic_step(*_quadratic_ends(a, b, m)) == 0.1
    for m in (0.95, 1.0, 40.0):
        assert _cubic_step(*_quadratic_ends(a, b, m)) == 0.9
    for m in (0.1, 0.4, 0.9):
        assert _cubic_step(*_quadratic_ends(a, b, m)) == pytest.approx(m, abs=1e-15)


def test_cubic_step_takes_the_midpoint_when_the_minimizer_is_not_finite():
    """A cubic with no real stationary point (radicand < 0) and one that overflows both give the midpoint."""
    # d1 = da + db - 3 (fa - fb) / (a - b) = 0, so d1^2 - da db = -1.
    assert _cubic_step(0.0, 1.0 + 2.0 / 3.0, -1.0, 1.0, 1.0, -1.0) == 0.5
    assert _cubic_step(2.0, 1.0, 1e300, 4.0, 0.0, -1e300) == 3.0


def test_cubic_step_gives_numpy_scalars_the_arithmetic_of_floats():
    """np.float64 bracket ends (the scan's np.arange) overflow to inf and fall back, with no RuntimeWarning."""
    args = (0.0, 0.5, -1e-3, 2e-323, 0.6, 1e-3)
    want = _cubic_step(*args)
    assert want == 1e-323
    assert _cubic_step(np.float64(0.0), 0.5, -1e-3, np.float64(2e-323), 0.6, 1e-3) == want
    assert _cubic_step(*map(np.float64, args)) == want
    for m in (-3.0, 0.4, 0.95):
        ends = _quadratic_ends(0.0, 1.0, m)
        assert _cubic_step(*map(np.float64, ends)) == _cubic_step(*ends)


# D(1, 2) roofs of the five benchmark corpus mixtures at criterion 4's
# settings, as the search found them before its cubic steps were clipped;
# mixture 3's decomposition read through its members' 2x2 minors.
_CORPUS_D_BEFORE_CLIPPING = (
    0.5924665559813924, 0.3868733436484886, 0.4401600046675125, 0.788821597229019, 0.6809871501111724,
)


def test_corpus_d_roofs_take_at_most_1000_evaluations_and_keep_their_minima():
    """Clipped cubic steps take the corpus D roofs from 1217 evaluations to at most 1000, minima within 1e-9."""
    evaluations = 0
    for k, before in enumerate(_CORPUS_D_BEFORE_CLIPPING):
        rank = 2 + k % 2
        rho = random_form_a_mixture(rank, 104, k)
        result = minimize_roof(
            RoofProblem(target=rho, objective=AverageD(1, 2), t_max=rank, restarts=2, tol=1e-7, max_sweeps=30)
        )
        assert result.converged and abs(result.value - before) <= 1e-9, (k, result.value)
        evaluations += sum(start.evaluations for start in result.starts)
    assert evaluations <= 1000, evaluations


def test_svd_step_moves_the_corpus_d_isometries_at_rounding_level_and_keeps_kinks_and_loose(monkeypatch):
    """The periodic SVD step hands the scored members on: scoring again at its isometry changes no kink or loose set.

    Over the five corpus D roofs at criterion 4's settings, each step moves
    Q by at most 1e-13, and the gradient at the new isometry reads the same
    kinked and loose members from the values scored before the step as
    from those scored after it, on steps with such members too.
    """
    steps = []
    nearest_isometry = roofsearch._nearest_isometry

    def spy(Q):
        after = nearest_isometry(Q)
        steps.append((Q.copy(), after))
        return after

    monkeypatch.setattr(roofsearch, "_nearest_isometry", spy)
    flagged = total = 0
    for k in range(5):
        rank = 2 + k % 2
        rho = random_form_a_mixture(rank, 104, k)
        minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), t_max=rank, restarts=2, tol=1e-7, max_sweeps=30))
        problem = Descent(eigen_vectors_subnormalized(rho), rho.dim, True)
        for before, after in steps:
            assert np.linalg.norm(after - before) <= 1e-13, k
            _, kinks, loose = problem.gradient(after, problem.values(before)[1])
            assert problem.gradient(after, problem.values(after)[1])[1:] == (kinks, loose), k
            flagged += bool(kinks or loose)
        total += len(steps)
        steps.clear()
    assert flagged > 0 and total > flagged, (flagged, total)


def test_no_isometry_reaches_the_kernel_twice(monkeypatch):
    """Over the benchmark corpus's D and E roofs, each scored decomposition is scored once.

    A scanned point that the line search brackets on, and the probe's
    winner, carry the gradients of the batch that scored them.
    """
    seen, repeats = set(), []

    def once(kernel, t):
        def wrapped(W, *inputs):
            for rows in np.split(W, len(W) // t):
                key = rows.tobytes()
                (repeats.append if key in seen else seen.add)(key)
            return kernel(W, *inputs)
        return wrapped

    for k in range(5):
        rank = 2 + k % 2
        rho = random_form_a_mixture(rank, 104, k)
        # The kernel the search calls; e12_members calls d12_members inside.
        for objective, kernel in ((AverageD(1, 2), d12_members), (AverageE(), e12_members)):
            seen.clear()
            monkeypatch.setattr(roofsearch, kernel.__name__, once(kernel, rank))
            minimize_roof(RoofProblem(target=rho, objective=objective, t_max=rank, restarts=2, tol=1e-7, max_sweeps=30))
            monkeypatch.undo()
            assert seen, (k, objective)
    assert not repeats, f"{len(repeats)} isometries scored twice"


def test_ball_lsq_with_an_active_ball_matches_projected_gradient():
    """The kink rule's block solve where the unconstrained minimizer leaves the unit ball.

    One block and three blocks, tall so that the minimizer is unique; the
    secular-equation Newton step runs in every block solve that hits the ball.
    """
    rng = generator(110)
    for count in (1, 3):
        for _ in range(5):
            blocks = [rng.standard_normal((16, 4)) for _ in range(count)]
            a = 10.0 * rng.standard_normal(16)
            assert np.linalg.norm(np.linalg.lstsq(np.hstack(blocks), -a, rcond=None)[0]) > 1.0
            got = _ball_lsq(a, blocks)
            want = ball_lsq_projected(a, blocks)
            assert all(np.linalg.norm(x) <= 1.0 + 1e-12 for x in got)
            assert any(abs(np.linalg.norm(x) - 1.0) <= 1e-12 for x in got)
            for x, y in zip(got, want):
                np.testing.assert_allclose(x, y, rtol=0.0, atol=1e-9)


# Each entry of a complex (n, K) minor array: zero, or a real and an
# imaginary part of up to 10 at one of the magnitudes the search meets,
# near underflow and far above one.
_MINOR_ENTRIES = st.builds(
    lambda re, im, scale: complex(re * scale, im * scale),
    st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.sampled_from([0.0, 1.0, 1e-300, 3e-308, 1e150]),
)


@given(
    arrays(np.complex128, st.tuples(st.integers(1, 6), st.integers(1, 10)), elements=_MINOR_ENTRIES),
    st.lists(st.booleans(), min_size=6, max_size=6),
    arrays(np.float64, st.integers(1, 10), elements=_MINOR_ENTRIES.map(lambda z: z.real)),
)
def test_inlined_norms_are_numpys_norms_bit_for_bit(y, zero_rows, z):
    """The search's row norm (``d12_members``) and 1-D norm (``_ball_lsq``) are numpy's own expressions.

    Complex (n, K) minors, some rows zero, and real vectors, with entries
    near 1e-300 and 1e150; equality is by bytes, so a numpy whose
    ``linalg.norm`` evaluates them differently fails here.
    """
    y[np.array(zero_rows[: len(y)])] = 0.0
    rows = np.sqrt(np.add.reduce((y.conj() * y).real, axis=1))
    assert rows.dtype == np.float64 and rows.tobytes() == np.linalg.norm(y, axis=1).tobytes()
    assert math.sqrt(z.dot(z)).hex() == float(np.linalg.norm(z)).hex()


def test_d12_members_scores_numpys_row_norm_of_the_minors():
    """On the corpus, ``d12_members`` reads 2 np.linalg.norm(y, axis=1) of its minors y bit for bit."""
    for k in range(5):
        rho = random_form_a_mixture(2 + k % 2, 104, k)
        V = eigen_vectors_subnormalized(rho)
        cores = d12_cores(V, rho.dim)
        for seed in range(4):
            Qbar = haar_isometry(len(V) + seed % 2, len(V), generator(111, k, seed)).conj()
            f, _ = d12_members(Qbar, cores)
            y, _ = roofsearch._core_minors(Qbar, cores)
            assert f.tobytes() == (2.0 * np.linalg.norm(y, axis=1)).tobytes(), (k, seed)


# Per start (t, start, iterations, evaluations, kinks), the start values and
# the roof value of the five benchmark corpus mixtures at criterion 4's
# settings: 700 D and 533 E evaluations, 127 D and 94 E iterations.
_CORPUS_RECORDS = {
    "D": (
        ([(2, 0, 6, 34, 0), (2, 1, 6, 33, 0)], [0.5924665559813922, 0.5924665559813922], 0.5924665559813929),
        ([(3, 0, 17, 89, 0), (3, 1, 20, 98, 0)], [0.38687334364848674, 0.38687334364848613], 0.38687334364848586),
        ([(2, 0, 4, 31, 0), (2, 1, 5, 30, 0)], [0.44016000466751315, 0.44016000466751204], 0.44016000466751265),
        ([(3, 0, 30, 159, 1), (3, 1, 27, 161, 1)], [0.7888215972290131, 0.7888215972290185], 0.7888215972290132),
        ([(2, 0, 7, 35, 0), (2, 1, 5, 30, 0)], [0.6809871501111726, 0.6809871501111722], 0.6809871501111724),
    ),
    "E": (
        ([(2, 0, 7, 35, 0), (2, 1, 6, 33, 0)], [0.46091294306301184, 0.46091294306301167], 0.4609129430630118),
        ([(3, 0, 13, 81, 0), (3, 1, 17, 85, 0)], [0.2469974142907892, 0.24699741429078914], 0.24699741429078872),
        ([(2, 0, 4, 31, 0), (2, 1, 4, 29, 0)], [0.29242852992161383, 0.2924285299216144], 0.2924285299216159),
        ([(3, 0, 18, 90, 0), (3, 1, 14, 84, 0)], [0.7291504732956692, 0.7291504732956702], 0.729150473295668),
        ([(2, 0, 6, 33, 0), (2, 1, 5, 32, 0)], [0.5679567773994223, 0.5679567773994221], 0.5679567773994232),
    ),
}


@pytest.mark.parametrize("objective", ["D", "E"])
def test_corpus_roofs_keep_their_search_record(objective):
    """The corpus searches keep every start's trajectory: its counts exactly, its values within 1e-15 relative.

    A change that claims to score the same points faster must leave
    these as they are; one that moves the trajectory changes the counts.
    """
    evaluations = iterations = 0
    for k, (records, values, value) in enumerate(_CORPUS_RECORDS[objective]):
        rank = 2 + k % 2
        result = minimize_roof(RoofProblem(
            target=random_form_a_mixture(rank, 104, k), objective=AverageD(1, 2) if objective == "D" else AverageE(),
            t_max=rank, restarts=2, tol=1e-7, max_sweeps=30,
        ))
        got = [(s.t, s.start, s.iterations, s.evaluations, s.kinks) for s in result.starts]
        assert got == records, (k, got)
        assert all(s.converged for s in result.starts), k
        for got, want in zip([s.value for s in result.starts] + [result.value], values + [value]):
            assert abs(got - want) <= 1e-15 * want, (k, got, want)
        evaluations += sum(s.evaluations for s in result.starts)
        iterations += result.iterations
    assert (evaluations, iterations) == {"D": (700, 127), "E": (533, 94)}[objective]


def test_generic_d12_roof_converges_at_every_start():
    """The D(1, 2) roof of a generic N = 3 rank-4 density converges at every start, at or below its old minimum.

    With CG directions from the first step, start (t = 6, start 1) ran
    its 960 iterations without converging and ended at 0.658801966203576.
    """
    rho = random_density(3, 4, 900, 1)
    result = minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), restarts=2, tol=1e-7, max_sweeps=30))
    assert all(start.converged for start in result.starts), [(s.t, s.start, s.iterations) for s in result.starts]
    assert result.value <= 0.658801966203576 + 1e-12, result.value


def test_criterion_4_mixture_39_d_roof_keeps_its_minimum_in_fewer_iterations():
    """Criterion-4 mixture 39's D roof stays within 1e-12 of its CG-only minimum, in at most 200 iterations (326 before)."""
    rho = random_form_a_mixture(3, 104, 39)
    result = minimize_roof(RoofProblem(target=rho, objective=AverageD(1, 2), t_max=3, restarts=2, tol=1e-7, max_sweeps=30))
    assert result.converged and abs(result.value - 0.3109793666280465) <= 1e-12, result.value
    assert result.iterations <= 200, result.iterations
