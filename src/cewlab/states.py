"""Random density matrices and their negativity, a stack at a time.

A sampled state belongs to one counter-RNG stream: stream s of a seed
yields the same matrix whether it is drawn alone, in a contiguous stack or
among any other streams, so `sample_density_streams` can regenerate any
record's state from (seed, stream).
"""
from __future__ import annotations

import enum

import numpy as np

from .qlinalg import (complex_normals_from_uniforms, haar_from_ginibre,
                      hermitian_eigenvalues_stack, philox_uniforms)

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
    return np.einsum('mji,mjk->mik', v.conj() * diags[:, :, None], v)


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


def partial_transpose_stack(mats: np.ndarray, d1: int, d2: int) -> np.ndarray:
    """Transpose the indices of the second subsystem of every matrix in a stack."""
    m = mats.shape[0]
    t = mats.reshape(m, d1, d2, d1, d2).transpose(0, 1, 4, 3, 2)
    return t.reshape(m, d1 * d2, d1 * d2)


def negativity_stack(mats: np.ndarray, kind: SystemKind) -> np.ndarray:
    """Absolute sum of each matrix's negative partial-transpose eigenvalues, in [0, 0.5]."""
    d1, d2 = kind.dims
    ev = hermitian_eigenvalues_stack(partial_transpose_stack(mats, d1, d2))
    # a positive eigenvalue adds +0.0, so a separable state's sum is +0.0: a -0.0 would change
    # the .npy bytes
    return np.maximum(-ev, 0.0).sum(axis=1)
