"""Seeded randomness and dense Hermitian linear algebra on small complex matrices.

Every random draw in the package comes from `philox_raw`: Philox4x64-10
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
keyed by (seed, stream), computed for a whole array of streams at once in
plain uint64 numpy. A stack of samples costs one vectorized pass, and any
subset of streams can be drawn alone, bit for bit. The package never
imports numpy.random.

Matrices are plain complex numpy arrays (nothing here exceeds 6 x 6).
Every eigenvalue in the package comes from `hermitian_eigenvalues_stack`,
LAPACK's symmetric/Hermitian solver through `np.linalg.eigvalsh`. numpy's
linalg gufuncs copy each matrix of a stack into a work buffer and solve it
alone, so a matrix's eigenvalues are bit-identical whether it is solved by
itself, in any slice or in any order of a stack. Dataset regeneration
relies on that, as it already does for the QR in `haar_from_ginibre`, and
a test checks it on a full chunk of each system kind. Bytes are promised
on one machine only: on another CPU, OpenBLAS's DYNAMIC_ARCH kernels (and
numpy's exp and log) may differ in the last bits.
"""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch

# Philox4x64-10 multipliers and Weyl key increments, as in numpy's Philox
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LO32 = np.uint64(0xFFFFFFFF)


def _as_u64(values, name: str) -> np.ndarray:
    """values as uint64, refused unless every one lies in [0, 2**64).

    Checked before any cast: casting a negative or oversized integer to
    uint64 either wraps or raises OverflowError, depending on the path.
    """
    a = np.asarray(values)
    if a.dtype.kind == "u":
        return a.astype(np.uint64)
    if a.dtype.kind == "i":
        if (a < 0).any():
            raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
        return a.astype(np.uint64)
    # Python ints beyond the int64 range arrive as float64 or object arrays
    items = np.asarray(values, dtype=object)
    if not all(isinstance(v, (int, np.integer)) and 0 <= v < 2**64 for v in items.flat):
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer")
    return np.array(items.tolist(), dtype=np.uint64).reshape(items.shape)


def _mulhilo(m, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves.

    m is an integer below 2**64 or a uint64 array that broadcasts against
    x. Schoolbook carries: no partial sum below reaches 2**64, so every add
    is exact and can be done in place.
    """
    m = np.asarray(m, dtype=np.uint64)
    m_lo, m_hi = m & _LO32, m >> np.uint64(32)
    x_lo, x_hi = x & _LO32, x >> 32
    u = m_hi * x_lo
    u += (m_lo * x_lo) >> 32
    w = m_lo * x_hi
    w += u & _LO32
    hi = m_hi * x_hi
    hi += u >> 32
    hi += w >> 32
    return hi, m * x  # uint64 array products wrap mod 2**64


def philox_raw(seed: int, streams, words: int) -> np.ndarray:
    """First `words` raw outputs of each stream, shape (len(streams), words).

    Row k equals numpy's Philox(key=[seed, streams[k]]).random_raw(words).
    numpy increments the counter before it generates a block, so block j
    of every stream is Philox4x64-10 of the counter [j + 1, 0, 0, 0].
    """
    key0 = int(_as_u64(seed, "seed"))
    key1 = _as_u64(streams, "stream").reshape(-1, 1)
    blocks = -(-words // 4)
    # counter words start as rows shared by every stream; broadcasting
    # against the per-stream key widens them within the first two rounds
    x0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    x1 = x2 = x3 = np.zeros((1, 1), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        k0 = np.uint64((key0 + r * _PHILOX_W[0]) % 2**64)
        k1 = key1 + np.uint64(r * _PHILOX_W[1] % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    out = np.stack(np.broadcast_arrays(x0, x1, x2, x3), axis=-1)
    return out.reshape(len(key1), 4 * blocks)[:, :words]


def philox_uniforms(seed: int, streams, count: int) -> np.ndarray:
    """First `count` uniforms in [0, 1) of each stream, shape (len(streams), count).

    Row k equals numpy's Generator(Philox(key=[seed, streams[k]])).random(count)
    bit for bit, as the tests check: Generator.random maps a raw word to
    (raw >> 11) * 2**-53.
    """
    return (philox_raw(seed, streams, count) >> 11).astype(np.float64) * 2.0**-53


def complex_normals_from_uniforms(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard complex Gaussians (E|z|^2 = 1) from two uniform arrays, polar Box-Muller."""
    return np.sqrt(-np.log(1.0 - u1)) * np.exp(2j * np.pi * u2)  # 1 - u1 in (0, 1]


def haar_from_ginibre(z: np.ndarray) -> np.ndarray:
    """QR-orthonormalize a stack of Ginibre matrices with phase correction.

    The raw QR factor is only Haar up to the sign/phase ambiguity of the
    decomposition; rescaling each column by R_kk/|R_kk| removes it.
    """
    q, r = np.linalg.qr(z)
    d = np.einsum('...ii->...i', r)
    return q * (d / np.abs(d))[..., None, :]


def hermitian_eigenvalues_stack(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stack of real symmetric or complex Hermitian matrices.

    Input shape (m, n, n), output shape (m, n) with each row ascending.
    Inputs are trusted to be Hermitian (only the lower triangle is read).
    """
    a = np.asarray(mats)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {a.shape}")
    return np.linalg.eigvalsh(a)
