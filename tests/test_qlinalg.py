import numpy as np
import pytest

from cewlab.dataset import CHUNK
from cewlab.errors import DimensionMismatch
from cewlab.qlinalg import hermitian_eigenvalues_stack, philox_raw, philox_uniforms
from cewlab.states import SystemKind, partial_transpose_stack, sample_density_stack
from oracles import (NotHermitian, complex_normals, haar_unitary, hermitian_eigenvalues,
                     make_rng, standard_normals, swap_operator)

#: The model's init streams start at 2**62 and its shuffle streams at 2**62 + 2**61.
EDGE_STREAMS = [0, 1, 2**62, 2**62 + 1, 2**62 + 2**61 + 1, 2**63, 2**64 - 1]

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (z + z.conj().T)


def test_make_rng_reproducible():
    a = make_rng(123, 7).random(5)
    b = make_rng(123, 7).random(5)
    assert np.array_equal(a, b)


def test_make_rng_streams_independent():
    a = make_rng(123, 0).random(5)
    b = make_rng(123, 1).random(5)
    assert not np.array_equal(a, b)


def test_make_rng_range_checks():
    with pytest.raises(ValueError):
        make_rng(-1)
    with pytest.raises(ValueError):
        make_rng(0, 2**64)


def test_philox_raw_matches_numpy_at_edge_keys():
    for seed in (0, 7919, 2**64 - 1):
        raw = philox_raw(seed, EDGE_STREAMS, 78)
        assert raw.shape == (len(EDGE_STREAMS), 78) and raw.dtype == np.uint64
        for row, stream in zip(raw, EDGE_STREAMS):
            key = np.array([seed, stream], dtype=np.uint64)
            assert np.array_equal(row, np.random.Philox(key=key).random_raw(78))


def test_philox_raw_word_counts():
    full = philox_raw(3, [5, 6], 12)
    for words in (0, 1, 4, 5, 11):
        assert np.array_equal(philox_raw(3, [5, 6], words), full[:, :words])
    assert philox_raw(3, [], 7).shape == (0, 7)


def test_philox_uniforms_match_generator():
    u = philox_uniforms(2**64 - 1, EDGE_STREAMS, 37)
    for row, stream in zip(u, EDGE_STREAMS):
        assert np.array_equal(row, make_rng(2**64 - 1, stream).random(37))


@pytest.mark.parametrize("seed, streams, name, bad", [
    (-1, [0], "seed", -1),
    (2**64, [0], "seed", 2**64),
    (0, [3, -1], "stream", -1),
    (0, np.array([-5], dtype=np.int64), "stream", -5),
    (0, [2**64], "stream", 2**64),
    (0, [-1, 2**63], "stream", -1),
])
def test_philox_range_checks_match_make_rng(seed, streams, name, bad):
    message = f"{name} must fit in an unsigned 64-bit integer"
    with pytest.raises(ValueError, match=message):
        philox_raw(seed, streams, 4)
    with pytest.raises(ValueError, match=message):
        make_rng(bad, 0) if name == "seed" else make_rng(seed, bad)


def test_standard_normals_moments():
    x = standard_normals(make_rng(1), 200000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_complex_normals_unit_second_moment():
    z = complex_normals(make_rng(2), 200000)
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01
    assert abs(z.mean()) < 0.01


def test_kron_convention_first_factor_outer():
    expected = np.array([
        [0, 0, 1, 0],
        [0, 0, 0, -1],
        [1, 0, 0, 0],
        [0, -1, 0, 0],
    ], dtype=complex)
    assert np.array_equal(np.kron(SX, SZ), expected)


def test_eigenvalues_diagonal_sorted():
    ev = hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
    np.testing.assert_allclose(ev, [1.0, 2.0, 3.0], atol=1e-14)


def test_eigenvalues_pauli_x():
    np.testing.assert_allclose(hermitian_eigenvalues(SX), [-1.0, 1.0], atol=1e-12)


def test_eigenvalues_2x2_closed_form():
    rng = make_rng(3)
    for _ in range(50):
        a, d = rng.normal(size=2)
        z = rng.normal() + 1j * rng.normal()
        m = np.array([[a, z], [np.conj(z), d]])
        mid = 0.5 * (a + d)
        r = np.sqrt(0.25 * (a - d) ** 2 + abs(z) ** 2)
        np.testing.assert_allclose(hermitian_eigenvalues(m), [mid - r, mid + r], atol=1e-12)


def test_eigenvalues_match_lapack():
    rng = make_rng(4)
    for n in (2, 3, 4, 6, 16, 36):
        m = random_hermitian(rng, n)
        np.testing.assert_allclose(hermitian_eigenvalues(m), np.linalg.eigvalsh(m),
                                   atol=1e-10)


def test_eigenvalues_degenerate_spectrum():
    # projector with eigenvalues {0, 0, 0, 1} rotated by a random unitary
    rng = make_rng(5)
    u = haar_unitary(4, rng)
    m = u.conj().T @ np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex) @ u
    np.testing.assert_allclose(hermitian_eigenvalues(m), [0, 0, 0, 1], atol=1e-12)


def test_non_hermitian_rejected():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_stack_result_independent_of_batching():
    # dataset regeneration solves a record's matrix in another batch than
    # generate did, so its eigenvalues must not depend on the batch
    perm = make_rng(6).permutation(CHUNK)
    for kind in SystemKind:
        pt = partial_transpose_stack(sample_density_stack(kind, 6, 0, CHUNK), *kind.dims)
        whole = hermitian_eigenvalues_stack(pt)
        for k in range(CHUNK):
            assert np.array_equal(hermitian_eigenvalues_stack(pt[k:k + 1])[0], whole[k])
        assert np.array_equal(hermitian_eigenvalues_stack(pt[100:357]), whole[100:357])
        assert np.array_equal(hermitian_eigenvalues_stack(pt[perm]), whole[perm])


def test_stack_shape_checked():
    with pytest.raises(DimensionMismatch):
        hermitian_eigenvalues_stack(np.eye(4))
    with pytest.raises(DimensionMismatch):
        hermitian_eigenvalues_stack(np.zeros((2, 3, 4)))


def test_haar_unitary_is_unitary():
    rng = make_rng(7)
    for dim in (2, 3, 4, 6):
        u = haar_unitary(dim, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(dim), atol=1e-12)
        assert abs(abs(np.linalg.det(u)) - 1.0) < 1e-12


def test_haar_entry_moment():
    # E|U_00|^2 = 1/dim under the invariant measure
    rng = make_rng(8)
    vals = [abs(haar_unitary(4, rng)[0, 0]) ** 2 for _ in range(4000)]
    assert abs(np.mean(vals) - 0.25) < 0.005


def test_haar_deterministic_per_stream():
    u1 = haar_unitary(4, make_rng(9, 3))
    u2 = haar_unitary(4, make_rng(9, 3))
    assert np.array_equal(u1, u2)


def test_swap_operator_exchanges_factors():
    for da, db in ((2, 2), (2, 3)):
        s = swap_operator(da, db)
        assert np.array_equal(s @ s.T, np.eye(da * db))
        for i in range(da):
            for j in range(db):
                a = np.zeros(da)
                a[i] = 1.0
                b = np.zeros(db)
                b[j] = 1.0
                assert np.array_equal(s @ np.kron(a, b), np.kron(b, a))


def test_swap_transpose_swaps_back():
    s = swap_operator(2, 3)
    assert np.array_equal(s.T, swap_operator(3, 2))
