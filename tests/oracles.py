"""Reference forms the tests check the package against.

The package computes every quantity as a stack, the form its command line
runs, and draws every random number from `qlinalg.philox_raw`. Here are
numpy's own Philox Generator keyed the package's way, the Box-Muller
normals on it that the model's init must equal bit for bit, and the epoch
shuffle's literal definition. Then the one-state forms: the Generator-path sampler, checked
scalar wrappers, and the literal two-copy collective state with the
singlet projector, against which the conditional-state features are
checked. Beside them are the forms the package's faster paths replaced:
the witness maps as einsums, and training's per-member early stopper and
one-member gradient. Beside those are the data files that load must refuse,
written by numpy's own writers or by hand. Nothing under `src/` imports
this module.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np
from numpy.lib import format as npy_format

from cewlab import model
from cewlab.errors import CewlabError, DimensionMismatch, EmptyDataset
from cewlab.evaluate import _MAGIC, chsh_m_value_stack, fef_stack
from cewlab.measure import (DENOM_TOL, SIGMA_X, SIGMA_Y, SIGMA_Z, MeasurementPreset,
                            conditional_probabilities, feature_traces_stack)
from cewlab.qlinalg import (_as_u64, complex_normals_from_uniforms, haar_from_ginibre,
                            hermitian_eigenvalues_stack)
from cewlab.states import (ENTANGLE_EPS, SystemKind, _density_from_uniforms, _state_uniforms,
                           negativity_stack, partial_transpose_stack)

# --- linear algebra and randomness -------------------------------------------

HERMITICITY_TOL = 1e-10


class NotHermitian(CewlabError):
    """Matrix fails the Hermiticity tolerance required by an eigensolve."""


class DegenerateConditioning(CewlabError):
    """Conditional probability undefined: local projections have vanishing weight."""


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """numpy's Philox Generator keyed by (seed, stream), refused like philox_raw's keys.

    Its raw words are philox_raw's row for that (seed, stream), and its
    random() is philox_uniforms' row.
    """
    key = np.array([_as_u64(seed, "seed"), _as_u64(stream, "stream")])
    return np.random.Generator(np.random.Philox(key=key))


def standard_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard normal draws via Box-Muller on the uniform stream: all of u1, then all of u2."""
    u1 = 1.0 - rng.random(shape)  # (0, 1], keeps the log finite
    u2 = rng.random(shape)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def literal_shuffle(seed: int, stream: int, n: int) -> list[int]:
    """range(n) sorted by (word >> b, i), with b = max(1, (n - 1).bit_length()).

    The words are numpy's own Philox(key=[seed, stream]).random_raw(n), and
    the sort is Python's, so records whose words agree above the low b bits
    keep index order.
    """
    words = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)).random_raw(n).tolist()
    b = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda i: (words[i] >> b, i))


def complex_normals(rng: np.random.Generator, shape) -> np.ndarray:
    """Standard complex Gaussian draws (E|z|^2 = 1), polar Box-Muller form."""
    return complex_normals_from_uniforms(rng.random(shape), rng.random(shape))  # u1 drawn first


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    if dim < 1:
        raise ValueError("dim must be positive")
    z = complex_normals(rng, (dim, dim))
    return haar_from_ginibre(z[None])[0]


def swap_operator(dim_a: int, dim_b: int) -> np.ndarray:
    """Permutation matrix S with S(|a> tensor |b>) = |b> tensor |a>."""
    s = np.zeros((dim_a * dim_b, dim_a * dim_b))
    for a in range(dim_a):
        for b in range(dim_b):
            s[b * dim_a + a, a * dim_b + b] = 1.0
    return s


def require_hermitian(mats: np.ndarray) -> None:
    """Raise NotHermitian when max|M - M^dag| over a stack exceeds 1e-10."""
    deviation = np.abs(mats - mats.conj().swapaxes(-1, -2)).max() if mats.size else 0.0
    if deviation > HERMITICITY_TOL:
        raise NotHermitian(f"max|M - M^dag| = {deviation:.3e} exceeds {HERMITICITY_TOL:.0e}")


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    Raises NotHermitian when max|M - M^dag| exceeds 1e-10.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    require_hermitian(m)
    # exact identity for exactly-Hermitian input, regularizes borderline ones
    sym = 0.5 * (m + m.conj().T)
    return hermitian_eigenvalues_stack(sym[None])[0]


# --- states ------------------------------------------------------------------

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


def sample_density(kind: SystemKind, rng: np.random.Generator) -> DensityMatrix:
    """One random state drawn from a Generator, in the draw order of one stream."""
    dim = kind.dim
    return DensityMatrix(kind, _density_from_uniforms(rng.random((1, _state_uniforms(dim))), dim)[0])


def partial_transpose(rho: DensityMatrix, subsystem: int = 2) -> np.ndarray:
    """Transpose the indices of one subsystem only."""
    d1, d2 = rho.kind.dims
    if subsystem == 2:
        return partial_transpose_stack(rho.mat[None], d1, d2)[0]
    if subsystem != 1:
        raise ValueError("subsystem must be 1 or 2")
    return rho.mat.reshape(d1, d2, d1, d2).transpose(2, 1, 0, 3).reshape(d1 * d2, d1 * d2)


def negativity(rho: DensityMatrix) -> float:
    """Absolute sum of the negative partial-transpose eigenvalues, in [0, 0.5]."""
    require_hermitian(rho.mat)
    return float(negativity_stack(rho.mat[None], rho.kind)[0])


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


# --- measurement -------------------------------------------------------------

@dataclass(frozen=True)
class FeatureVector:
    preset: MeasurementPreset
    values: np.ndarray
    negativity: float
    entangled: bool


def bell_singlet() -> np.ndarray:
    """Projector onto (|01> - |10>)/sqrt(2)."""
    ket = np.zeros(4, dtype=np.complex128)
    ket[1] = 1.0 / np.sqrt(2.0)
    ket[2] = -1.0 / np.sqrt(2.0)
    return np.outer(ket, ket.conj())


def p_xy(rho_t: CollectiveState, x: np.ndarray, y: np.ndarray) -> float:
    """Conditional singlet probability for one local pair of effects (d2, d2).

    Numerator projects the middle qubit pair onto the singlet; the
    denominator conditions on the local outcomes alone.
    """
    d2 = rho_t.kind.dims[1]
    if x.shape != (d2, d2) or y.shape != (d2, d2):
        raise DimensionMismatch(
            f"local effects must be {d2}x{d2} for {rho_t.kind.value}")
    numerator_op = np.kron(x, np.kron(bell_singlet(), y))
    denominator_op = np.kron(x, np.kron(np.eye(4), y))
    numerator = np.einsum('ij,ji->', rho_t.mat, numerator_op).real
    denominator = np.einsum('ij,ji->', rho_t.mat, denominator_op).real
    if denominator < DENOM_TOL:
        raise DegenerateConditioning(
            f"local projection probability {denominator:.3e} below {DENOM_TOL:.0e}")
    return float(np.clip(numerator / denominator, 0.0, 1.0))


def features(rho: DensityMatrix, preset: MeasurementPreset) -> FeatureVector:
    """Feature vector plus negativity labels for one state."""
    if preset.kind is not rho.kind:
        raise DimensionMismatch(
            f"preset is for {preset.kind.value}, state is {rho.kind.value}")
    values, valid = conditional_probabilities(
        *feature_traces_stack(rho.mat[None], rho.kind, preset.pairs))
    if not valid[0]:
        raise DegenerateConditioning("a local projection probability vanished")
    neg = negativity(rho)
    return FeatureVector(preset, values[0], neg, neg > ENTANGLE_EPS)


# --- witnesses ---------------------------------------------------------------

def _two_qubit_matrix(rho, what: str) -> np.ndarray:
    if isinstance(rho, DensityMatrix):
        if rho.kind is not SystemKind.TWO_QUBIT:
            raise DimensionMismatch(f"{what} is defined for two-qubit states only")
        return rho.mat
    mat = np.asarray(rho, dtype=complex)
    if mat.shape != (4, 4):
        raise DimensionMismatch(f"{what} is defined for two-qubit states only")
    return mat


def chsh_violation(rho) -> tuple[bool, float]:
    """(violated, M) where M > 1 certifies a CHSH violation."""
    mat = _two_qubit_matrix(rho, "the CHSH criterion")
    m_value = float(chsh_m_value_stack(mat[None])[0])
    return m_value > 1.0, m_value


def fef(rho) -> float:
    """Fully entangled fraction: largest overlap with any maximally entangled state."""
    return float(fef_stack(_two_qubit_matrix(rho, "the fully entangled fraction")[None])[0])


def baseline_rates_by_count(scores: np.ndarray, labels: np.ndarray,
                            threshold: float) -> tuple[float, float]:
    """(sensitivity, false positive rate) of the rule "score > threshold",
    counted flag by flag rather than read off the ROC curve."""
    flagged = scores > threshold
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    return float(np.sum(flagged & labels) / n_pos), float(np.sum(flagged & ~labels) / n_neg)


def chsh_m_value_by_einsum(mats: np.ndarray) -> np.ndarray:
    """chsh_m_value_stack with the correlation tensor summed by einsum over Pauli products."""
    paulis = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
    ops = np.einsum("iab,jcd->ijacbd", paulis, paulis).reshape(3, 3, 4, 4)
    t = np.einsum("kba,ijab->kij", mats, ops).real
    m = np.einsum("kji,kjl->kil", t, t)
    m = 0.5 * (m + m.transpose(0, 2, 1))
    eigs = hermitian_eigenvalues_stack(m)
    return eigs[:, -1] + eigs[:, -2]


def fef_by_einsum(mats: np.ndarray) -> np.ndarray:
    """fef_stack with M^H rho M as one three-operand einsum."""
    m = np.einsum("ab,kbc,cd->kad", _MAGIC.conj().T, mats, _MAGIC).real
    m = 0.5 * (m + m.transpose(0, 2, 1))
    return hermitian_eigenvalues_stack(m)[:, -1]


# --- persistence -------------------------------------------------------------

def _npy(array: np.ndarray, allow_pickle: bool = False) -> bytes:
    out = io.BytesIO()
    np.save(out, array, allow_pickle=allow_pickle)
    return out.getvalue()


def _npy_2_0(array: np.ndarray) -> bytes:
    out = io.BytesIO()
    npy_format.write_array(out, array, version=(2, 0))
    return out.getvalue()


def _npz(array: np.ndarray) -> bytes:
    out = io.BytesIO()
    np.savez(out, array)
    return out.getvalue()


def _claiming_rows(rows: int, array: np.ndarray) -> bytes:
    """A version 1.0 header of `rows` records, followed by the records of array."""
    out = io.BytesIO()
    npy_format.write_array_header_1_0(out, {"descr": "<f8", "fortran_order": False,
                                            "shape": (rows, array.shape[1])})
    return out.getvalue() + array.tobytes()


#: Data files that save cannot write, each made from the (n, B + 1) array of
#: a saved dataset with n > 1, and the start of load's refusal after the path
DATA_FILE_FAULTS = {
    "bad-magic": (lambda a: b"\x93NUMPX" + _npy(a)[6:],
                  r"not a \.npy array: the magic string is not correct"),
    "npz": (_npz, r"not a \.npy array: the magic string is not correct"),
    "version-3": (lambda a: _npy(a)[:6] + b"\x03" + _npy(a)[7:],
                  r"not a \.npy array: unsupported \.npy version \(3, 0\)"),
    "version-2.0": (_npy_2_0, r"not a \.npy array: unsupported \.npy version \(2, 0\)"),
    # a version 2.0 header length of 4 GiB - 1, which numpy's reader would try to read
    "4-GiB-header": (lambda a: b"\x93NUMPY\x02\x00\xff\xff\xff\xff" + _npy(a)[10:],
                     r"not a \.npy array: unsupported \.npy version \(2, 0\)"),
    "object-dtype": (lambda a: _npy(a.astype(object), allow_pickle=True),
                     r"expected a C-order <f8 array of shape \(\d+, \d+\), got a C-order \|O "),
    "big-endian": (lambda a: _npy(a.astype(">f8")), r"expected .*, got a C-order >f8 array"),
    "fortran-order": (lambda a: _npy(np.asfortranarray(a)),
                      r"expected .*, got a Fortran-order <f8 array"),
    "rank-1": (lambda a: _npy(a.ravel()),
               r"expected .*, got a C-order <f8 array of shape \(\d+,\)$"),
    "row-count": (lambda a: _npy(a[:-1]), r"expected .*\(\d+, \d+\), got .*\(\d+, \d+\)$"),
    "10**12-rows": (lambda a: _claiming_rows(10**12, a),
                    r"expected .*, got a C-order <f8 array of shape \(1000000000000, \d+\)$"),
    "truncated": (lambda a: _npy(a)[:-8], r"data ends after \d+ of its \d+ bytes$"),
    "trailing-bytes": (lambda a: _npy(a) + b"\0", r"bytes follow the \d+ records$"),
}


# --- training ----------------------------------------------------------------

class EarlyStopper:
    """Track the running best; stop after `patience` epochs without improvement."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.patience = patience
        self.best = np.inf
        self.best_index = 0
        self.bad = 0
        self.index = 0

    def update(self, value: float) -> bool:
        """Record one epoch's monitored value; True means stop now."""
        self.index += 1
        if value < self.best:
            self.best = value
            self.best_index = self.index
            self.bad = 0
        else:
            self.bad += 1
        return self.bad >= self.patience


def gradient(m: model.Mlp, x: np.ndarray, y: np.ndarray):
    """Analytic gradient of the batch MSE; returns (weight grads, bias grads, mse).

    The one-member case of the lockstep gradient that train_many steps with.
    """
    if len(x) == 0:
        raise EmptyDataset("gradient needs a non-empty batch")
    if x.shape[1] != m.input_dim:
        raise DimensionMismatch(
            f"model expects {m.input_dim} features, got shape {x.shape}")
    dims, sizes = [m.input_dim], m.layer_sizes[1:]
    grad = model._Stack(dims, sizes)
    mse = model._gradient_stack(model._Stack(dims, sizes, [(*m.weights, *m.biases)]), grad,
                                [x], y, model._Buffers(dims, sizes, len(x), backward=True))
    arrays = grad.member(0)
    layers = len(m.weights)
    return list(arrays[:layers]), list(arrays[layers:]), float(mse[0])
