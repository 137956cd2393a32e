import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cewlab.dataset import CHUNK
from cewlab.qlinalg import haar_from_ginibre
from cewlab.states import (SystemKind, negativity_stack, partial_transpose_stack,
                           sample_density_stack, sample_density_streams)
from cewlab.states import _state_inputs, _state_uniforms
from oracles import (DensityMatrix, NotHermitian, collective_state, collective_state_stack,
                     complex_normals, haar_unitary, hermitian_eigenvalues, is_entangled,
                     make_rng, negativity, partial_transpose, sample_density)


def singlet_matrix():
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def werner_matrix(p):
    return p * singlet_matrix() + (1.0 - p) * np.eye(4, dtype=complex) / 4.0


def two_qubit(mat):
    return DensityMatrix(SystemKind.TWO_QUBIT, mat)


def test_sampled_states_are_density_matrices():
    for kind in SystemKind:
        rng = make_rng(10)
        for _ in range(20):
            rho = sample_density(kind, rng)
            assert rho.mat.shape == (kind.dim, kind.dim)
            assert abs(np.trace(rho.mat) - 1.0) < 1e-12
            assert np.abs(rho.mat - rho.mat.conj().T).max() < 1e-12
            assert hermitian_eigenvalues(rho.mat)[0] > -1e-12


def test_sampled_spectrum_matches_drawn_simplex_point():
    # conjugation by the Haar unitary must not move the eigenvalues
    kind = SystemKind.QUBIT_QUTRIT
    rng = make_rng(11, 5)
    diags, _ = _state_inputs(make_rng(11, 5).random((1, _state_uniforms(kind.dim))), kind.dim)
    diag = diags[0]
    rho = sample_density(kind, rng)
    np.testing.assert_allclose(hermitian_eigenvalues(rho.mat), np.sort(diag), atol=1e-10)
    assert abs(diag.sum() - 1.0) < 1e-12


def test_sample_stack_matches_scalar_bitwise():
    for kind in SystemKind:
        stack = sample_density_stack(kind, seed=12, start_stream=40, count=6)
        for k in range(6):
            solo = sample_density(kind, make_rng(12, 40 + k))
            assert np.array_equal(stack[k], solo.mat)


def per_draw_stack(kind, seed, start_stream, count):
    """Oracle: one numpy Generator per draw, as the sampler once worked."""
    dim = kind.dim
    diags = np.empty((count, dim))
    ginibre = np.empty((count, dim, dim), dtype=np.complex128)
    for k in range(count):
        rng = make_rng(seed, start_stream + k)
        w = -np.log1p(-rng.random(dim))
        diags[k] = w / w.sum()
        ginibre[k] = complex_normals(rng, (dim, dim))
    u = haar_from_ginibre(ginibre)
    return np.einsum('mji,mj,mjk->mik', u.conj(), diags, u)


@pytest.mark.parametrize("kind", list(SystemKind))
def test_sample_stack_matches_per_draw_generators_over_a_chunk(kind):
    for seed, start in ((1, 0), (7919, 3 * CHUNK)):
        stack = sample_density_stack(kind, seed, start, CHUNK)
        assert np.array_equal(stack, per_draw_stack(kind, seed, start, CHUNK))


@pytest.mark.parametrize("kind", list(SystemKind))
def test_stream_lists_match_slices_of_a_contiguous_stack(kind):
    stack = sample_density_stack(kind, seed=20, start_stream=0, count=64)
    for streams in ([37, 3, 60, 0, 12], [5, 5, 9, 5], [63], [], list(range(63, -1, -1))):
        got = sample_density_streams(kind, 20, np.array(streams, dtype=np.int64))
        assert got.shape == (len(streams), kind.dim, kind.dim)
        assert np.array_equal(got, stack[streams])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=6),
       kind=st.sampled_from(list(SystemKind)))
def test_stream_sampling_matches_scalar_generator(seed, streams, kind):
    got = sample_density_streams(kind, seed, streams)
    for row, stream in zip(got, streams):
        assert np.array_equal(row, sample_density(kind, make_rng(seed, stream)).mat)


def test_sampler_range_checks():
    with pytest.raises(ValueError, match="seed must fit"):
        sample_density_stack(SystemKind.TWO_QUBIT, -1, 0, 4)
    with pytest.raises(ValueError, match="stream must fit"):
        sample_density_stack(SystemKind.TWO_QUBIT, 0, 2**64 - 2, 4)
    with pytest.raises(ValueError, match="stream must fit"):
        sample_density_streams(SystemKind.QUBIT_QUTRIT, 0, np.array([4, -1]))


def test_partial_transpose_is_involution():
    rng = make_rng(13)
    for kind in SystemKind:
        rho = sample_density(kind, rng)
        once = partial_transpose(rho)
        twice = partial_transpose(DensityMatrix(kind, once))
        assert np.array_equal(twice, rho.mat)


def test_partial_transpose_of_product_state():
    rng = make_rng(14)
    za = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    zb = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    ra = za @ za.conj().T
    ra /= np.trace(ra).real
    rb = zb @ zb.conj().T
    rb /= np.trace(rb).real
    rho = DensityMatrix(SystemKind.QUBIT_QUTRIT, np.kron(ra, rb))
    np.testing.assert_allclose(partial_transpose(rho), np.kron(ra, rb.T), atol=1e-14)
    np.testing.assert_allclose(partial_transpose(rho, subsystem=1), np.kron(ra.T, rb),
                               atol=1e-14)


def test_singlet_partial_transpose_spectrum():
    ev = hermitian_eigenvalues(partial_transpose(two_qubit(singlet_matrix())))
    np.testing.assert_allclose(ev, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_negativity_oracles():
    assert abs(negativity(two_qubit(singlet_matrix())) - 0.5) < 1e-10
    assert abs(negativity(two_qubit(np.eye(4, dtype=complex) / 4.0))) < 1e-12


def test_negativity_werner_closed_form():
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 4.0)
        assert abs(negativity(two_qubit(werner_matrix(p))) - expected) < 1e-10


def test_negativity_embedded_bell_qubit_qutrit():
    psi = np.zeros(6, dtype=complex)
    psi[0] = 1.0 / np.sqrt(2.0)  # |0>|0>
    psi[4] = 1.0 / np.sqrt(2.0)  # |1>|1>
    rho = DensityMatrix(SystemKind.QUBIT_QUTRIT, np.outer(psi, psi.conj()))
    assert abs(negativity(rho) - 0.5) < 1e-10


def test_negativity_same_for_either_subsystem():
    rng = make_rng(15)
    for kind in SystemKind:
        d1, d2 = kind.dims
        for _ in range(10):
            rho = sample_density(kind, rng)
            ev1 = hermitian_eigenvalues(partial_transpose(rho, subsystem=1))
            n1 = -np.minimum(ev1, 0.0).sum()
            assert abs(n1 - negativity(rho)) < 1e-10


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**62 - 1),
       kind=st.sampled_from(list(SystemKind)))
def test_negativity_local_unitary_invariant(seed, stream, kind):
    mats = sample_density_streams(kind, seed, [stream])
    rho = DensityMatrix(kind, mats[0])
    assert negativity(rho) == negativity_stack(mats, kind)[0]
    d1, d2 = kind.dims
    # the local unitaries come from a stream no sampled state uses
    rng = make_rng(seed, stream + 2**62)
    u = np.kron(haar_unitary(d1, rng), haar_unitary(d2, rng))
    rotated = DensityMatrix(kind, u @ rho.mat @ u.conj().T)
    assert abs(negativity(rotated) - negativity(rho)) < 1e-12


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**62 - 1),
       kind=st.sampled_from(list(SystemKind)))
def test_negativity_at_most_one_half_and_partial_transpose_of_trace_one(seed, stream, kind):
    # (d_min - 1) / 2 bounds the negativity, and it is 1/2 for both 2x2 and 2x3
    mats = sample_density_streams(kind, seed, [stream])
    assert 0.0 <= negativity_stack(mats, kind)[0] <= 0.5
    assert abs(np.trace(partial_transpose_stack(mats, *kind.dims)[0]) - 1.0) < 1e-12


@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
def test_no_negativity_has_its_sign_bit_set(kind):
    # a separable state's negativity is +0.0, which save writes "0", not "-0"
    neg = negativity_stack(sample_density_stack(kind, 1, 0, CHUNK), kind)
    assert (neg == 0.0).any() and (neg > 0.0).any()
    assert not np.signbit(neg).any()


def test_negativity_rejects_non_hermitian_input():
    with pytest.raises(NotHermitian):
        negativity(two_qubit(np.triu(singlet_matrix())))


def test_is_entangled():
    assert is_entangled(two_qubit(singlet_matrix()))
    assert not is_entangled(two_qubit(np.eye(4, dtype=complex) / 4.0))
    # PPT boundary of the Werner family sits at p = 1/3
    assert not is_entangled(two_qubit(werner_matrix(1.0 / 3.0)))
    assert is_entangled(two_qubit(werner_matrix(1.0 / 3.0 + 1e-3)))


def test_collective_state_of_product_input():
    # for rho = ra x rb the two-copy state factors as rb x ra x ra x rb
    rng = make_rng(17)
    for kind in SystemKind:
        d1, d2 = kind.dims
        za = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        zb = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        ra = za @ za.conj().T
        ra /= np.trace(ra).real
        rb = zb @ zb.conj().T
        rb /= np.trace(rb).real
        rho = DensityMatrix(kind, np.kron(ra, rb))
        expected = np.kron(np.kron(rb, ra), np.kron(ra, rb))
        np.testing.assert_allclose(collective_state(rho).mat, expected, atol=1e-13)


def test_collective_state_shape_trace_purity():
    rng = make_rng(18)
    for kind in SystemKind:
        rho = sample_density(kind, rng)
        big = collective_state(rho).mat
        d = kind.dim
        assert big.shape == (d * d, d * d)
        assert abs(np.trace(big) - 1.0) < 1e-12
        assert np.abs(big - big.conj().T).max() < 1e-12
        purity = np.trace(rho.mat @ rho.mat).real
        assert abs(np.trace(big @ big).real - purity**2) < 1e-12


def test_collective_state_stack_matches_scalar():
    for kind in SystemKind:
        d1, d2 = kind.dims
        mats = sample_density_stack(kind, seed=19, start_stream=0, count=4)
        stack = collective_state_stack(mats, d1, d2)
        for k in range(4):
            solo = collective_state(DensityMatrix(kind, mats[k])).mat
            assert np.array_equal(stack[k], solo)
