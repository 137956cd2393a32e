"""Random density matrices, negativity, and the two-copy collective state.

The collective state is the reference form of the features: `measure.p_xy`
traces against it, while the features themselves are computed from
conditional qubit states without building it.

A sampled state belongs to one counter-RNG stream: stream s of a seed
yields the same matrix whether it is drawn alone, in a contiguous stack or
among any other streams, and `sample_density(kind, make_rng(seed, s))`
draws it one state at a time.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

# make_rng is re-exported unused: sample_density(kind, make_rng(seed, s)) is
# the one-at-a-time form of stream s, and the benchmark's tracer counts the
# streams opened through cewlab.states.make_rng
from .qlinalg import (  # noqa: F401
    complex_normals_from_uniforms,
    haar_from_ginibre,
    hermitian_eigenvalues_stack,
    make_rng,
    philox_uniforms,
    require_hermitian,
    swap_operator,
)

#: Negativity above this labels a state entangled. Far above eigensolver
#: noise (~1e-15), far below any physically meaningful negativity.
ENTANGLE_EPS = 1e-7


class SystemKind(enum.Enum):
    """Bipartite system layout; subsystem 1 is the qubit sent to the Bell projection."""

    TWO_QUBIT = "two-qubit"
    QUBIT_QUTRIT = "qubit-qutrit"

    @property
    def dims(self) -> tuple[int, int]:
        return (2, 2) if self is SystemKind.TWO_QUBIT else (2, 3)

    @property
    def dim(self) -> int:
        d1, d2 = self.dims
        return d1 * d2


@dataclass(frozen=True)
class DensityMatrix:
    kind: SystemKind
    mat: np.ndarray


@dataclass(frozen=True)
class CollectiveState:
    """Two-copy state with subsystems ordered (local, Bell, Bell, local).

    Positions 2 and 3 are the qubits of the two copies, adjacent so the
    singlet projection acts on a contiguous 4-dimensional block.
    """

    kind: SystemKind
    mat: np.ndarray


def _state_uniforms(dim: int) -> int:
    """Uniforms one sample consumes: dim for the spectrum, 2 dim^2 for the Ginibre matrix."""
    return dim + 2 * dim * dim


def _state_inputs(u: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectra and Ginibre matrices from rows of uniforms, in a fixed draw order."""
    # Exponential spacings give the flat (uniform) distribution on the
    # probability simplex; normalizing raw uniforms by their sum does not,
    # and visibly skews the separable fraction away from 0.63/0.38.
    w = -np.log1p(-u[:, :dim])
    diags = w / w.sum(axis=1, keepdims=True)
    u1, u2 = u[:, dim:].reshape(-1, 2, dim, dim).transpose(1, 0, 2, 3)
    return diags, complex_normals_from_uniforms(u1, u2)


def _density_from_uniforms(u: np.ndarray, dim: int) -> np.ndarray:
    """States from rows of uniforms: flat simplex spectra conjugated by Haar unitaries."""
    diags, ginibre = _state_inputs(u, dim)
    v = haar_from_ginibre(ginibre)
    return np.einsum('mji,mj,mjk->mik', v.conj(), diags, v)


def sample_density(kind: SystemKind, rng: np.random.Generator) -> DensityMatrix:
    """One random state drawn from a Generator, in the draw order of one stream."""
    dim = kind.dim
    return DensityMatrix(kind, _density_from_uniforms(rng.random((1, _state_uniforms(dim))), dim)[0])


def sample_density_streams(kind: SystemKind, seed: int, streams) -> np.ndarray:
    """Matrices for the given streams, shape (len(streams), d, d).

    Row k is the state of stream streams[k]; streams may come in any order
    and repeat. Each sample consumes only its own stream, so any record's
    state can be regenerated independently of the rest of a run.
    """
    dim = kind.dim
    return _density_from_uniforms(philox_uniforms(seed, streams, _state_uniforms(dim)), dim)


def sample_density_stack(kind: SystemKind, seed: int, start_stream: int, count: int) -> np.ndarray:
    """Matrices for streams [start_stream, start_stream + count), shape (count, d, d)."""
    return sample_density_streams(kind, seed, range(start_stream, start_stream + count))


def partial_transpose(rho: DensityMatrix, subsystem: int = 2) -> np.ndarray:
    """Transpose the indices of one subsystem only."""
    d1, d2 = rho.kind.dims
    return partial_transpose_stack(rho.mat[None], d1, d2, subsystem)[0]


def partial_transpose_stack(mats: np.ndarray, d1: int, d2: int, subsystem: int = 2) -> np.ndarray:
    if subsystem not in (1, 2):
        raise ValueError("subsystem must be 1 or 2")
    m = mats.shape[0]
    t = mats.reshape(m, d1, d2, d1, d2)
    t = t.transpose(0, 3, 2, 1, 4) if subsystem == 1 else t.transpose(0, 1, 4, 3, 2)
    return t.reshape(m, d1 * d2, d1 * d2)


def negativity(rho: DensityMatrix) -> float:
    """Absolute sum of the negative partial-transpose eigenvalues, in [0, 0.5]."""
    require_hermitian(rho.mat)
    return float(negativity_stack(rho.mat[None], rho.kind)[0])


def negativity_stack(mats: np.ndarray, kind: SystemKind) -> np.ndarray:
    d1, d2 = kind.dims
    ev = hermitian_eigenvalues_stack(partial_transpose_stack(mats, d1, d2))
    return -np.minimum(ev, 0.0).sum(axis=1)


def is_entangled(rho: DensityMatrix, eps: float = ENTANGLE_EPS) -> bool:
    """Exact for these dimensions: positivity of the partial transpose decides."""
    return negativity(rho) > eps


def collective_state(rho: DensityMatrix) -> CollectiveState:
    """Two copies with the first copy's subsystems interchanged.

    The swap puts both qubits destined for the Bell projection in the
    middle of the tensor-product ordering.
    """
    d1, d2 = rho.kind.dims
    return CollectiveState(rho.kind, collective_state_stack(rho.mat[None], d1, d2)[0])


def collective_state_stack(mats: np.ndarray, d1: int, d2: int) -> np.ndarray:
    m = mats.shape[0]
    d = d1 * d2
    w = swap_operator(d1, d2)
    swapped = np.matmul(np.matmul(w, mats), w.T)
    return np.einsum('mab,mcd->macbd', swapped, mats).reshape(m, d * d, d * d)
