"""Local projector sets, the singlet projection, and feature extraction.

A feature is the conditional probability of projecting the two middle
qubits of the collective state onto the singlet, given that both local
measurements succeeded. A preset names which (x, y) local pairs to use;
effect index k is the k-th effect of `local_effects(kind)`.

The singlet projector is (I - SWAP)/2, so the two-copy state is never
needed. With the conditional qubit states sigma_x = Tr_2[rho (I x E_x)],

    P_xy = (1/2) (Tr sigma_x Tr sigma_y - Tr[sigma_x sigma_y]) / (Tr sigma_x Tr sigma_y),

the denominator being the probability of the local outcomes x and y.
`feature_traces_stack` computes the features this way for a stack of
states; the tests check it against the literal trace of the singlet
projector over the collective state.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, UnknownPreset
from .states import SystemKind

#: Denominators below this mean the local projections almost never fire.
DENOM_TOL = 1e-12

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)

_TETRA_SIGNS = ((1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1))


@dataclass(frozen=True)
class MeasurementPreset:
    kind: SystemKind
    name: str
    pairs: tuple[tuple[int, int], ...]

    @property
    def b(self) -> int:
        return len(self.pairs)


def qubit_tetrahedron() -> np.ndarray:
    """Four subnormalized effects (4, 2, 2) whose Bloch vectors form a regular tetrahedron.

    Kept at trace 1/2 exactly as defined; the conditional-probability ratio
    cancels the normalization anyway.
    """
    return np.array([(np.eye(2) + (s1 * SIGMA_X + s2 * SIGMA_Y + s3 * SIGMA_Z) / np.sqrt(3)) / 4.0
                     for s1, s2, s3 in _TETRA_SIGNS])


def qutrit_nine() -> np.ndarray:
    """Nine rank-1 projectors (9, 3, 3) covering the three 2-dimensional subspaces.

    Each subspace pair carries the three relative phase patterns built from
    the cube roots of unity; together the projectors sum to 3I.
    """
    omega = np.exp(2j * np.pi / 3)
    subspaces = ((0, 2), (1, 0), (2, 1))
    phases = ((1.0, 1.0), (omega, omega.conjugate()), (omega.conjugate(), omega))
    effects = []
    for u, v in subspaces:
        for alpha, beta in phases:
            ket = np.zeros(3, dtype=np.complex128)
            ket[u] = alpha
            ket[v] = beta
            ket /= np.sqrt(2.0)
            effects.append(np.outer(ket, ket.conj()))
    return np.array(effects)


@lru_cache(maxsize=None)
def local_effects(kind: SystemKind) -> np.ndarray:
    """The local-measurement set for the kind's second (non-Bell) subsystem,
    one read-only (K, d2, d2) stack shared by every caller; a preset's
    effect index k names the k-th (1-based) of them."""
    effects = qubit_tetrahedron() if kind is SystemKind.TWO_QUBIT else qutrit_nine()
    effects.flags.writeable = False
    return effects


_TWO_QUBIT_TABLE = (
    ("B1", ((1, 1),)),
    ("B3", ((1, 1), (2, 2), (3, 3))),
    ("B5", ((1, 1), (2, 2), (3, 3), (4, 4), (1, 3))),
    ("B7", ((1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (1, 4), (2, 4))),
    ("B10", ((1, 1), (2, 2), (3, 3), (4, 4), (1, 3), (1, 4), (2, 4), (1, 2), (2, 3), (3, 4))),
)

_QUBIT_QUTRIT_TABLE = (
    ("B1", ((1, 1),)),
    ("B5", ((1, 1), (3, 3), (5, 5), (8, 8), (9, 9))),
    ("B9", ((1, 1), (3, 3), (5, 5), (8, 8), (9, 9), (2, 2), (4, 4), (6, 6), (7, 7))),
    ("B13", ((1, 1), (3, 3), (5, 5), (8, 8), (9, 9), (2, 2), (4, 4), (6, 6), (7, 7),
             (1, 2), (3, 4), (4, 5), (8, 9))),
    ("B45", tuple((i, j) for i in range(1, 10) for j in range(i, 10))),
)


def builtin_presets(kind: SystemKind) -> tuple[MeasurementPreset, ...]:
    table = _TWO_QUBIT_TABLE if kind is SystemKind.TWO_QUBIT else _QUBIT_QUTRIT_TABLE
    return tuple(MeasurementPreset(kind, name, pairs) for name, pairs in table)


def preset_by_name(kind: SystemKind, name: str) -> MeasurementPreset:
    for preset in builtin_presets(kind):
        if preset.name == name:
            return preset
    raise UnknownPreset(f"unknown preset {name!r} for {kind.value}")


def check_pairs(kind: SystemKind, pairs) -> None:
    """Raise DimensionMismatch unless pairs is non-empty and each is two effect indices of the kind."""
    if not pairs:
        raise DimensionMismatch("no effect index pairs: a preset measures at least one")
    k = len(local_effects(kind))
    for pair in pairs:
        if len(pair) != 2 or not all(type(i) is int and 1 <= i <= k for i in pair):
            raise DimensionMismatch(f"effect index pair {pair} invalid for {kind.value}")


def feature_traces_stack(mats: np.ndarray, kind: SystemKind,
                         pairs: tuple[tuple[int, int], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Numerator and denominator traces of every pair for a stack of density
    matrices (m, d, d); shapes (m, B) each.

    The K conditional qubit states come from one matmul, each row of the
    stack on its own, so a record's traces do not depend on its batch.
    """
    check_pairs(kind, pairs)
    effects = local_effects(kind)
    m = mats.shape[0]
    d1, d2 = kind.dims
    # sigma[m, (a, b), x] = sum_ij rho[m, (a, i), (b, j)] E_x[j, i]
    rho = mats.reshape(m, d1, d2, d1, d2).transpose(0, 1, 3, 2, 4).reshape(m, d1 * d1, d2 * d2)
    sigma = rho @ effects.transpose(0, 2, 1).reshape(len(effects), d2 * d2).T
    ix = [x - 1 for x, _ in pairs]
    iy = [y - 1 for _, y in pairs]
    trace = sigma[:, 0].real + sigma[:, d1 + 1].real  # each sigma is 2x2
    den = trace[:, ix] * trace[:, iy]
    # Re Tr[sigma_x sigma_y] of Hermitian sigmas is the dot product of their
    # entries' real and imaginary parts; summing it in one fixed order makes
    # the pair (y, x) give the same bits as (x, y)
    gram = np.zeros(den.shape)
    for part in (sigma.real, sigma.imag):
        for ab in range(d1 * d1):
            gram += part[:, ab, ix] * part[:, ab, iy]
    return 0.5 * (den - gram), den


def conditional_probabilities(num: np.ndarray, den: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_xy = num / den clipped to [0, 1], and whether every pair of a row is
    conditioned on a local probability of at least DENOM_TOL."""
    ok = den >= DENOM_TOL
    return np.clip(num / np.where(ok, den, 1.0), 0.0, 1.0), ok.all(axis=1)
