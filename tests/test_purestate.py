"""Tests for pure-state measures: entropy, concurrences, spectrum profiles."""
import math

import numpy as np
import pytest

from qconc import (
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
from qconc.errors import (
    DimensionMismatch,
    NonFinite,
    NotNormalized,
    ProfileMismatch,
    ZeroState,
)
from qconc.mixed import Decomposition
from qconc.purestate import SpectrumProfile, profile_from_values
from qconc.roofopt import AverageD, average_objective
from qconc.sampling import generator, haar_unitary, random_form_a_state, random_pure

BELL = from_coefficients(np.eye(2) / np.sqrt(2))
PRODUCT = from_coefficients([[1.0, 0.0], [0.0, 0.0]])


def form_a(c, d):
    return from_coefficients([[c, 0, 0], [0, d, 0], [0, d, 0]])


def test_from_coefficients_validation():
    with pytest.raises(DimensionMismatch):
        from_coefficients(np.ones((2, 3)) / np.sqrt(6))
    with pytest.raises(DimensionMismatch):
        from_coefficients([[1.0]])
    with pytest.raises(ZeroState):
        from_coefficients(np.zeros((2, 2)))
    with pytest.raises(NotNormalized):
        from_coefficients(np.eye(2))
    for bad_value in (np.nan, np.inf, complex(0.0, np.inf)):
        with pytest.raises(NonFinite):
            from_coefficients([[0.5, bad_value], [0.5, 0.5]], renormalize=True)
    psi = from_coefficients(np.eye(2), renormalize=True)
    assert abs(np.linalg.norm(psi.coeffs) - 1.0) < 1e-14


def test_vector_uses_row_major_layout():
    """Coefficient (i, p) must land at flat position N*(i-1) + p, 1-based."""
    a = np.arange(1.0, 10.0).reshape(3, 3)
    psi = from_coefficients(a, renormalize=True)
    np.testing.assert_allclose(psi.vector(), a.reshape(-1) / np.linalg.norm(a))


def test_eof_pure_examples():
    assert abs(eof_pure(BELL) - 1.0) < 1e-12
    assert eof_pure(PRODUCT) < 1e-12
    psi = from_coefficients(np.eye(3) / np.sqrt(3))
    assert abs(eof_pure(psi) - math.log2(3)) < 1e-12


def test_schmidt_spectrum_sums_to_one():
    rng = generator(21)
    for n in (2, 3, 4):
        lam = schmidt_spectrum(random_pure(n, rng))
        assert abs(lam.sum() - 1.0) < 1e-12
        rho1 = reduced_density(random_pure(n, rng))
        assert abs(np.trace(rho1).real - 1.0) < 1e-12


def test_concurrence_c2_examples():
    assert abs(concurrence_c2(BELL) - 1.0) < 1e-12
    assert concurrence_c2(PRODUCT) < 1e-12
    psi = from_coefficients(np.diag([np.sqrt(0.3), np.sqrt(0.7)]))
    assert abs(concurrence_c2(psi) - 2.0 * np.sqrt(0.21)) < 1e-12
    with pytest.raises(DimensionMismatch):
        concurrence_c2(from_coefficients(np.eye(3) / np.sqrt(3)))


def test_local_invariants_examples():
    assert np.allclose(local_invariants(PRODUCT), (1.0, 1.0), atol=1e-12)
    psi = from_coefficients(np.eye(3) / np.sqrt(3))
    i0, i1 = local_invariants(psi)
    assert abs(i0 - 1.0) < 1e-12
    assert abs(i1 - 1.0 / 3.0) < 1e-12


def test_concurrence_cn_matches_c2_for_qubits():
    rng = generator(22)
    for _ in range(100):
        psi = random_pure(2, rng)
        assert abs(concurrence_cn(psi) - concurrence_c2(psi)) < 1e-12


def test_concurrence_cn_maximally_entangled():
    psi = from_coefficients(np.eye(3) / np.sqrt(3))
    assert abs(concurrence_cn(psi) - 1.0) < 1e-12


def all_ordered_minors_squared(psi):
    a = psi.coeffs
    n = psi.dim
    total = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            for p in range(n):
                for q in range(n):
                    if p == q:
                        continue
                    total += abs(a[i, p] * a[j, q] - a[i, q] * a[j, p]) ** 2
    return total


def test_minor_sum_identity():
    """Sum of |2x2 minors|^2 over ordered index pairs equals 2(I0^2 - I1)."""
    rng = generator(23)
    for n in (2, 3, 4):
        for _ in range(25):
            psi = random_pure(n, rng)
            i0, i1 = local_invariants(psi)
            assert abs(all_ordered_minors_squared(psi) - 2.0 * (i0 * i0 - i1)) < 1e-10


def test_local_unitary_invariance():
    """E, C_N and the trace invariants under A -> U A V^T, many trials."""
    rng = generator(24)
    for trial in range(1000):
        n = 2 + trial % 3
        psi = random_pure(n, rng)
        u, v = haar_unitary(n, rng), haar_unitary(n, rng)
        rotated = from_coefficients(u @ psi.coeffs @ v.T, renormalize=True)
        assert abs(eof_pure(rotated) - eof_pure(psi)) < 1e-9
        assert abs(concurrence_cn(rotated) - concurrence_cn(psi)) < 1e-9
        for a, b in zip(local_invariants(rotated), local_invariants(psi)):
            assert abs(a - b) < 1e-9
        if n == 2:
            assert abs(concurrence_c2(rotated) - concurrence_c2(psi)) < 1e-9


def test_generalized_concurrence_invariance_on_two_value_states():
    rng = generator(25)
    for _ in range(100):
        psi = random_form_a_state(rng)
        u, v = haar_unitary(3, rng), haar_unitary(3, rng)
        rotated = from_coefficients(u @ psi.coeffs @ v.T, renormalize=True)
        d0 = generalized_concurrence_D(psi, 1, 2)
        assert abs(generalized_concurrence_D(rotated, 1, 2) - d0) < 1e-9


def test_spectrum_profile_strictness_on_coincident_values():
    """A doubly degenerate value is one cluster: it fails (1, 2), fits (2, 1)."""
    with pytest.raises(ProfileMismatch):
        spectrum_profile(BELL, 1, 2)
    prof = spectrum_profile(BELL, 2, 1)
    assert prof.m == 2 and prof.n == 1
    np.testing.assert_allclose(prof.values, [0.5], atol=1e-12)


def test_spectrum_profile_coincident_override():
    prof = spectrum_profile(BELL, 1, 2, allow_coincident=True)
    np.testing.assert_allclose(prof.values, [0.5, 0.5], atol=1e-12)


def test_spectrum_profile_rejects_wrong_multiplicity():
    rng = generator(26)
    psi = random_pure(3, rng)  # generic: three distinct eigenvalues
    with pytest.raises(ProfileMismatch):
        spectrum_profile(psi, 2, 1)
    with pytest.raises(ProfileMismatch):
        spectrum_profile(psi, 1, 4)  # m*n exceeds N
    with pytest.raises(ProfileMismatch, match="expected 2 values"):
        SpectrumProfile(2, 1, (0.5,))
    with pytest.raises(ProfileMismatch, match="outside"):
        SpectrumProfile(2, 2, (0.4, 0.6))
    with pytest.raises(ProfileMismatch, match="need m, n >= 1"):
        profile_from_values(np.array([0.5, 0.5]), 0, 2)
    with pytest.raises(ProfileMismatch, match="sums to"):
        profile_from_values(np.array([0.5, 0.4]), 1, 2)


def test_profile_from_values_reports_cluster_sizes():
    with pytest.raises(ProfileMismatch, match="cluster"):
        profile_from_values(np.array([0.5, 0.3, 0.2]), 3, 1)


def test_average_d_scores_every_schmidt_value_through_e2():
    """Average D(1, 2) reads a member's whole spectrum as 2 sqrt(e2), small third values included.

    Below, at and above the old profile tolerance of 1e-6, the third value
    t enters e2 = sum_{i<j} lambda_i lambda_j; nothing is dropped or rejected.
    """
    for t in (5e-8, 5e-7, 2e-6, 0.1):
        lam = (0.6, 0.4 - t, t)
        psi = from_coefficients(np.diag(np.sqrt(lam)))
        value = average_objective(Decomposition(((1.0, psi),)), AverageD(1, 2))
        e2 = lam[0] * lam[1] + lam[0] * lam[2] + lam[1] * lam[2]
        assert value == pytest.approx(2.0 * math.sqrt(e2), abs=1e-12)


def test_generalized_concurrence_form_a_endpoint():
    """c = 1/sqrt2, d = 1/2 gives the coincident spectrum (1/2, 1/2) and D = 1."""
    psi = form_a(1.0 / np.sqrt(2.0), 0.5)
    assert abs(generalized_concurrence_D(psi, 1, 2) - 1.0) < 1e-12


def test_generalized_concurrence_formula_on_form_a():
    rng = generator(27)
    for _ in range(50):
        psi = random_form_a_state(rng)
        lam = schmidt_spectrum(psi)
        expect = 2.0 * np.sqrt(lam[0] * lam[1])
        assert abs(generalized_concurrence_D(psi, 1, 2) - expect) < 1e-10


def test_generalized_concurrence_can_exceed_one():
    """The raw value is not clamped; (m, n) = (2, 1) on a Bell state gives sqrt 2."""
    d = generalized_concurrence_D(BELL, 2, 1)
    assert abs(d - np.sqrt(2.0)) < 1e-12


def test_condition_iii_for_two_value_spectra():
    rng = generator(28)
    assert psi_condition_iii(BELL, 1, 2)
    for _ in range(20):
        assert psi_condition_iii(random_form_a_state(rng), 1, 2)
        assert psi_condition_iii(random_pure(2, rng), 1, 2)


def test_condition_iii_fails_for_generic_spectra():
    rng = generator(29)
    psi = random_pure(4, rng)
    assert not psi_condition_iii(psi, 1, 4)
