"""Tests for the seeded samplers."""
import numpy as np
import pytest

from qconc import (
    concurrence_cn,
    eof_pure,
    form_a_check,
    generalized_concurrence_D,
    generator,
    haar_unitary,
    psi_condition_iii,
    random_form_a_mixture,
    random_form_a_state,
    random_pure,
    schmidt_spectrum,
    validate_density,
)
from qconc.errors import BadRank, OutOfRange
from qconc.sampling import haar_isometry


def test_haar_unitary_is_unitary():
    rng = generator(61)
    for n in (1, 2, 3, 5):
        u = haar_unitary(n, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)


def test_haar_unitary_rejects_bad_dim():
    with pytest.raises(OutOfRange):
        haar_unitary(0, generator(62))


def test_generator_rejects_a_negative_seed():
    with pytest.raises(OutOfRange):
        generator(-1, 0)


def test_haar_unitary_deterministic_and_fresh():
    a = haar_unitary(3, generator(63))
    b = haar_unitary(3, generator(63))
    np.testing.assert_array_equal(a, b)
    rng = generator(63)
    c, d = haar_unitary(3, rng), haar_unitary(3, rng)
    assert np.linalg.norm(c - d) > 1e-3


def test_haar_isometry_has_orthonormal_columns():
    rng = generator(65)
    for t, r in ((1, 1), (3, 2), (5, 3), (4, 4)):
        iso = haar_isometry(t, r, rng)
        assert iso.shape == (t, r)
        np.testing.assert_allclose(iso.conj().T @ iso, np.eye(r), atol=1e-12)
    square = haar_isometry(3, 3, generator(66))
    np.testing.assert_array_equal(square, haar_unitary(3, generator(66)))
    for t, r in ((2, 3), (2, 0)):
        with pytest.raises(OutOfRange):
            haar_isometry(t, r, generator(67))


def test_haar_unitary_first_entry_moment():
    """E|U_11|^2 = 1/N under the invariant measure."""
    rng = generator(64)
    samples = [abs(haar_unitary(3, rng)[0, 0]) ** 2 for _ in range(10_000)]
    assert abs(np.mean(samples) - 1.0 / 3.0) < 0.01


def test_random_pure_normalized():
    rng = generator(65)
    for n in (2, 3, 4):
        psi = random_pure(n, rng)
        assert psi.dim == n
        assert abs(np.linalg.norm(psi.coeffs) - 1.0) < 1e-12
    with pytest.raises(OutOfRange):
        random_pure(1, rng)


def test_random_pure_concurrence_in_range():
    rng = generator(66)
    for _ in range(100):
        c = concurrence_cn(random_pure(3, rng))
        assert -1e-12 <= c <= 1.0 + 1e-12


def test_form_a_state_rows_equal():
    rng = generator(67)
    for _ in range(20):
        psi = random_form_a_state(rng)
        np.testing.assert_array_equal(psi.coeffs[1], psi.coeffs[2])
        assert psi_condition_iii(psi, 1, 2)


def test_form_a_state_minor_product_identity():
    """lam1 * lam2 = 2 sum of squared top-row-pair minors on this class."""
    rng = generator(68)
    for _ in range(50):
        psi = random_form_a_state(rng)
        lam = schmidt_spectrum(psi)
        a = psi.coeffs
        total = 0.0
        for p in range(3):
            for q in range(p + 1, 3):
                total += abs(a[0, p] * a[1, q] - a[0, q] * a[1, p]) ** 2
        assert abs(lam[0] * lam[1] - 2.0 * total) < 1e-10
        d = generalized_concurrence_D(psi, 1, 2)
        assert abs(d - 2.0 * np.sqrt(lam[0] * lam[1])) < 1e-10


def test_form_a_mixture_validates_and_stays_on_subspace():
    for rank in range(1, 7):
        rho = random_form_a_mixture(rank, 69, rank)
        validate_density(rho.matrix, 3)
        assert form_a_check(rho)


def test_form_a_mixture_rank_one_is_pure():
    rho = random_form_a_mixture(1, 70)
    purity = np.trace(rho.matrix @ rho.matrix).real
    assert abs(purity - 1.0) < 1e-12


def test_form_a_mixture_deterministic():
    a = random_form_a_mixture(3, 71, 5)
    b = random_form_a_mixture(3, 71, 5)
    np.testing.assert_array_equal(a.matrix, b.matrix)
    c = random_form_a_mixture(3, 71, 6)
    assert np.linalg.norm(a.matrix - c.matrix) > 1e-3


def test_form_a_mixture_rejects_bad_rank():
    with pytest.raises(BadRank):
        random_form_a_mixture(0, 72)
    with pytest.raises(BadRank):
        random_form_a_mixture(7, 72)


def test_form_a_mixture_batch():
    for k in range(50):
        rho = random_form_a_mixture(1 + k % 4, 73, k)
        validate_density(rho.matrix, 3)


def test_mean_entanglement_regression():
    """Frozen sample mean; the asymptotic ensemble value is about 0.4809 bits."""
    vals = [eof_pure(random_pure(2, generator(314159, k))) for k in range(10_000)]
    assert abs(float(np.mean(vals)) - 0.4836) < 0.01
