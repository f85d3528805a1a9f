"""Reproducible random generators: Haar isometries and unitaries, random pure
states, and random mixtures supported on the rows-2=3 class.

All randomness flows through NumPy's PCG64 bit generator seeded with
``SeedSequence(entropy=seed, spawn_key=key)``.  Identical seeds and keys
give bitwise-identical output on every platform; batch constructions split
the seed per item through the spawn key rather than drawing sequentially,
so individual items are reproducible in isolation.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BadRank, OutOfRange
from .mixed import DensityMatrix, mix_pure_states
from .purestate import PureState, from_coefficients


def generator(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for (seed, key); the single source of randomness.  A negative seed raises OutOfRange."""
    if seed < 0:
        raise OutOfRange(f"seed must be >= 0, got {seed}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=tuple(key))
    return np.random.Generator(np.random.PCG64(ss))


def haar_isometry(t: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed t x r isometry (orthonormal columns), t >= r >= 1.

    Complex standard-normal matrix drawn from the Generator ``rng``, QR
    orthonormalization, then the R diagonal's phases are absorbed into Q
    to remove the QR gauge.
    """
    if not (1 <= r <= t):
        raise OutOfRange(f"need t >= r >= 1, got t={t} r={r}")
    A = rng.standard_normal((t, r)) + 1j * rng.standard_normal((t, r))
    Q, R = np.linalg.qr(A)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def haar_unitary(N: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed N x N unitary drawn from ``rng``: the square case of ``haar_isometry``."""
    return haar_isometry(N, N, rng)


def random_pure(N: int, rng: np.random.Generator) -> PureState:
    """Random pure state on the N x N space drawn from ``rng``, uniform under the Haar measure."""
    if N < 2:
        raise OutOfRange(f"need N >= 2, got {N}")
    A = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
    return from_coefficients(A, renormalize=True)


def random_form_a_state(rng: np.random.Generator) -> PureState:
    """Random N = 3 pure state drawn from ``rng`` whose coefficient rows 2 and 3 coincide.

    The reduced density then has a kernel along (0, 1, -1)/sqrt(2) and two
    nonzero eigenvalues almost surely, so the state sits in the worked
    family with profile (m=1, n=2).
    """
    rows = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    A = np.vstack([rows[0], rows[1], rows[1]])
    return from_coefficients(A, renormalize=True)


def random_form_a_mixture(rank: int, seed: int, *key: int) -> DensityMatrix:
    """Random rank-``rank`` mixture of rows-2=3 states, Dirichlet(1) weights.

    Member k is drawn from the split seed (seed, *key, k) and the weight
    vector from (seed, *key, rank), so members are individually
    reproducible.  The admissible support is 6-dimensional, capping the
    rank.

    Raises
    ------
    BadRank
        If rank is outside 1..6.
    """
    if not (1 <= rank <= 6):
        raise BadRank(f"rank must be in 1..6, got {rank}")
    states = [random_form_a_state(generator(seed, *key, k)) for k in range(rank)]
    if rank == 1:
        weights = np.array([1.0])
    else:
        g = generator(seed, *key, rank)
        weights = g.dirichlet(np.ones(rank))
        weights = weights / math.fsum(weights.tolist())
    return mix_pure_states(weights, states)
