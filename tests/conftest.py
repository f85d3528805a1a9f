import numpy as np
import pytest
from hypothesis import settings

from qconc import DensityMatrix, from_coefficients, generator, mix_pure_states, random_pure

# Property tests draw the same examples on every run, so tier-1 stays deterministic.
settings.register_profile("qconc", derandomize=True, max_examples=25, deadline=None, database=None)
settings.load_profile("qconc")

CRITERION_LINES = []


def record_criterion(num, label, ok, elapsed, budget):
    """Collect one acceptance line; echoed after the run summary."""
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num}: {label} ({elapsed:.1f}s of {budget:.0f}s budget)"
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


class LinalgCalls(list):
    """Copies of the arguments of every call to one ``np.linalg`` function, in call order."""

    def of(self, matrix) -> int:
        """How many calls decomposed a matrix equal to ``matrix``."""
        return sum(np.array_equal(a, matrix) for a in self)


def _record(monkeypatch, name):
    calls = LinalgCalls()
    original = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        calls.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return calls


@pytest.fixture
def eigh_calls(monkeypatch):
    """Record each ``np.linalg.eigh`` argument while the test runs."""
    return _record(monkeypatch, "eigh")


@pytest.fixture
def svd_calls(monkeypatch):
    """Record each ``np.linalg.svd`` argument while the test runs."""
    return _record(monkeypatch, "svd")


def random_density(dim, rank, seed, *key, qubit=None):
    """Random rank-limited density matrix as a mixture of pure states.

    qubit="A" keeps rows 0 and 1 of each member's coefficient matrix, so
    the support lies in C^2 x C^dim; qubit="B" keeps columns 0 and 1
    (C^dim x C^2).
    """
    states = [random_pure(dim, generator(seed, *key, k)) for k in range(rank)]
    if qubit is not None:
        keep = np.zeros((dim, dim))
        keep[:2] = 1.0
        keep = keep if qubit == "A" else keep.T
        states = [from_coefficients(psi.coeffs * keep, renormalize=True) for psi in states]
    if rank == 1:
        weights = [1.0]
    else:
        rng = generator(seed, *key, rank)
        weights = rng.dirichlet(np.ones(rank)).tolist()
    return mix_pure_states(weights, states)


def random_separable_density(dim, terms, seed, *key):
    """Convex mixture of product states; PPT by construction."""
    def local_vector(rng):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        return z / np.linalg.norm(z)

    mats = []
    weights = []
    rng = generator(seed, *key)
    for _ in range(terms):
        vec = np.kron(local_vector(rng), local_vector(rng))
        mats.append(np.outer(vec, vec.conj()))
        weights.append(rng.random())
    total = sum(weights)
    out = sum((w / total) * m for w, m in zip(weights, mats))
    return DensityMatrix(dim=dim, matrix=out)
