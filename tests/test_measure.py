import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cewlab.dataset import CHUNK, generate, regenerate_states
from cewlab.errors import DimensionMismatch, UnknownPreset
from cewlab.measure import (MeasurementPreset, builtin_presets,
                            conditional_probabilities, feature_traces_stack,
                            local_effects, preset_by_name,
                            qubit_tetrahedron, qutrit_nine)
from cewlab.states import SystemKind, sample_density_stack, sample_density_streams
from oracles import (CollectiveState, DegenerateConditioning, DensityMatrix, bell_singlet,
                     collective_state, features, haar_unitary, make_rng, p_xy,
                     sample_density)


def singlet_state():
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return DensityMatrix(SystemKind.TWO_QUBIT, np.outer(psi, psi.conj()))


def test_tetrahedron_identities():
    effects = qubit_tetrahedron()
    assert len(effects) == 4
    total = sum(effects)
    np.testing.assert_allclose(total, np.eye(2), atol=1e-12)
    for e in effects:
        assert abs(np.trace(e) - 0.5) < 1e-12
        assert np.linalg.eigvalsh(e).min() > -1e-12
    for i, a in enumerate(effects):
        for j, b in enumerate(effects):
            overlap = np.trace(a @ b).real
            expected = 0.25 if i == j else 1.0 / 12.0
            assert abs(overlap - expected) < 1e-12


def test_qutrit_nine_identities():
    effects = qutrit_nine()
    assert len(effects) == 9
    total = sum(effects)
    np.testing.assert_allclose(total, 3.0 * np.eye(3), atol=1e-12)
    for e in effects:
        assert abs(np.trace(e) - 1.0) < 1e-12
        # rank-1 projectors square to themselves
        np.testing.assert_allclose(e @ e, e, atol=1e-12)
    overlap = np.trace(effects[0] @ effects[1]).real
    assert abs(overlap - 0.25) < 1e-12


def test_bell_singlet_projector():
    pi = bell_singlet()
    assert abs(np.trace(pi) - 1.0) < 1e-14
    np.testing.assert_allclose(pi @ pi, pi, atol=1e-14)
    # zero overlap with any two-copy product of the same pure qubit state
    rng = make_rng(30)
    for _ in range(20):
        phi = haar_unitary(2, rng)[:, 0]
        pair = np.kron(phi, phi)
        assert abs(pair.conj() @ pi @ pair) < 1e-14


def test_local_effects_by_kind():
    assert len(local_effects(SystemKind.TWO_QUBIT)) == 4
    assert len(local_effects(SystemKind.QUBIT_QUTRIT)) == 9


def test_the_shared_effects_cannot_be_edited_in_place():
    # every feature of a kind reads this one cached stack
    rho = sample_density_stack(SystemKind.TWO_QUBIT, 39, 0, 4)
    before = feature_traces_stack(rho, SystemKind.TWO_QUBIT, ((1, 1), (1, 2)))
    for kind in SystemKind:
        effects = local_effects(kind)
        assert effects.shape == (len(effects), kind.dims[1], kind.dims[1])
        with pytest.raises(ValueError, match="read-only"):
            effects[0, 0, 0] += 0.1
    after = feature_traces_stack(rho, SystemKind.TWO_QUBIT, ((1, 1), (1, 2)))
    assert all(np.array_equal(a, b) for a, b in zip(after, before))


def test_two_qubit_preset_table():
    presets = builtin_presets(SystemKind.TWO_QUBIT)
    assert [p.name for p in presets] == ["B1", "B3", "B5", "B7", "B10"]
    assert [p.b for p in presets] == [1, 3, 5, 7, 10]
    assert presets[0].pairs == ((1, 1),)
    # each preset extends the previous one, so restriction is a projection
    for small, big in zip(presets, presets[1:]):
        assert big.pairs[: small.b] == small.pairs


def test_qubit_qutrit_preset_table():
    presets = builtin_presets(SystemKind.QUBIT_QUTRIT)
    assert [p.name for p in presets] == ["B1", "B5", "B9", "B13", "B45"]
    assert [p.b for p in presets] == [1, 5, 9, 13, 45]
    full = presets[-1]
    assert full.pairs == tuple((i, j) for i in range(1, 10) for j in range(i, 10))
    for p in presets[:-1]:
        assert set(p.pairs) <= set(full.pairs)


def test_preset_by_name():
    p = preset_by_name(SystemKind.TWO_QUBIT, "B5")
    assert p.b == 5
    with pytest.raises(UnknownPreset):
        preset_by_name(SystemKind.TWO_QUBIT, "B99")
    with pytest.raises(UnknownPreset):
        preset_by_name(SystemKind.QUBIT_QUTRIT, "B10")


def test_singlet_feature_values():
    # same local outcome never coincides with the singlet projection; distinct
    # outcomes give exactly 1/3
    state = collective_state(singlet_state())
    effects = local_effects(SystemKind.TWO_QUBIT)
    for ix, x in enumerate(effects, start=1):
        for iy, y in enumerate(effects, start=1):
            value = p_xy(state, x, y)
            expected = 0.0 if ix == iy else 1.0 / 3.0
            assert abs(value - expected) < 1e-10


def test_maximally_mixed_feature_is_quarter():
    for kind in SystemKind:
        d = kind.dim
        rho = DensityMatrix(kind, np.eye(d, dtype=complex) / d)
        state = collective_state(rho)
        for x in local_effects(kind):
            for y in local_effects(kind):
                assert abs(p_xy(state, x, y) - 0.25) < 1e-12


def test_pure_product_features_vanish():
    rng = make_rng(31)
    for kind in SystemKind:
        d1, d2 = kind.dims
        for _ in range(25):
            a = haar_unitary(d1, rng)[:, 0]
            b = haar_unitary(d2, rng)[:, 0]
            psi = np.kron(a, b)
            rho = DensityMatrix(kind, np.outer(psi, psi.conj()))
            state = collective_state(rho)
            for x in local_effects(kind):
                for y in local_effects(kind):
                    # a small conditioning denominator amplifies the
                    # numerator's roundoff, so the bound is looser than
                    # the projector-identity tolerance
                    assert abs(p_xy(state, x, y)) < 1e-10


def test_feature_symmetry_in_the_pair():
    rng = make_rng(32)
    for kind in SystemKind:
        for _ in range(10):
            state = collective_state(sample_density(kind, rng))
            effects = local_effects(kind)
            for x in effects:
                for y in effects:
                    assert abs(p_xy(state, x, y) - p_xy(state, y, x)) < 1e-10


def test_feature_scale_invariance():
    rng = make_rng(33)
    rho = sample_density(SystemKind.TWO_QUBIT, rng)
    state = collective_state(rho)
    scaled = CollectiveState(state.kind, 7.5 * state.mat)
    effects = local_effects(SystemKind.TWO_QUBIT)
    for x in effects:
        for y in effects:
            assert abs(p_xy(state, x, y) - p_xy(scaled, x, y)) < 1e-12


def test_degenerate_conditioning_raises():
    # product state whose local part is the null vector of effect 1
    effect = qubit_tetrahedron()[0]
    vals, vecs = np.linalg.eigh(effect)
    null = vecs[:, np.argmin(vals)]
    mat = np.kron(np.eye(2, dtype=complex) / 2.0, np.outer(null, null.conj()))
    rho = DensityMatrix(SystemKind.TWO_QUBIT, mat)
    state = collective_state(rho)
    with pytest.raises(DegenerateConditioning):
        p_xy(state, effect, effect)
    preset = MeasurementPreset(SystemKind.TWO_QUBIT, "diag1", ((1, 1),))
    with pytest.raises(DegenerateConditioning):
        features(rho, preset)


def test_p_xy_rejects_wrong_effect_dimension():
    rng = make_rng(34)
    state = collective_state(sample_density(SystemKind.QUBIT_QUTRIT, rng))
    qubit_effect = qubit_tetrahedron()[0]
    with pytest.raises(DimensionMismatch):
        p_xy(state, qubit_effect, qubit_effect)


def test_features_match_scalar_evaluation():
    rng = make_rng(35)
    for kind in SystemKind:
        preset = builtin_presets(kind)[-1]
        effects = dict(enumerate(local_effects(kind), start=1))
        for _ in range(3):
            rho = sample_density(kind, rng)
            fv = features(rho, preset)
            state = collective_state(rho)
            expected = [p_xy(state, effects[ix], effects[iy]) for ix, iy in preset.pairs]
            np.testing.assert_allclose(fv.values, expected, atol=1e-13)
            assert fv.values.min() >= 0.0 and fv.values.max() <= 1.0
            assert fv.entangled == (fv.negativity > 1e-7)


def test_features_reject_kind_mismatch():
    rng = make_rng(36)
    rho = sample_density(SystemKind.TWO_QUBIT, rng)
    preset = preset_by_name(SystemKind.QUBIT_QUTRIT, "B5")
    with pytest.raises(DimensionMismatch):
        features(rho, preset)


def test_features_equal_the_generated_rows():
    # a record's features, recomputed from its regenerated state alone, are
    # the bytes generate stored from the record's whole chunk
    for kind in SystemKind:
        ds = generate(kind, builtin_presets(kind)[-1], 200, seed=1)
        for mat, row in zip(regenerate_states(ds), ds.features):
            assert np.array_equal(features(DensityMatrix(kind, mat), ds.preset).values, row)


def test_feature_traces_independent_of_batching():
    perm = make_rng(37).permutation(CHUNK)
    for kind in SystemKind:
        pairs = builtin_presets(kind)[-1].pairs
        mats = sample_density_stack(kind, 37, 0, CHUNK)
        num, den = feature_traces_stack(mats, kind, pairs)
        for k in range(CHUNK):
            solo_num, solo_den = feature_traces_stack(mats[k:k + 1], kind, pairs)
            assert np.array_equal(solo_num[0], num[k]) and np.array_equal(solo_den[0], den[k])
        sub_num, sub_den = feature_traces_stack(mats[100:357], kind, pairs)
        assert np.array_equal(sub_num, num[100:357]) and np.array_equal(sub_den, den[100:357])
        perm_num, perm_den = feature_traces_stack(mats[perm], kind, pairs)
        assert np.array_equal(perm_num, num[perm]) and np.array_equal(perm_den, den[perm])


def test_feature_traces_reject_unknown_effects():
    mats = sample_density_stack(SystemKind.TWO_QUBIT, 38, 0, 2)
    with pytest.raises(DimensionMismatch):
        feature_traces_stack(mats, SystemKind.TWO_QUBIT, ((1, 5),))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**62 - 1),
       kind=st.sampled_from(list(SystemKind)))
def test_feature_traces_match_the_collective_state_oracle(seed, stream, kind):
    mats = sample_density_streams(kind, seed, [stream])
    pairs = builtin_presets(kind)[-1].pairs
    values, valid = conditional_probabilities(*feature_traces_stack(mats, kind, pairs))
    assert valid[0]
    state = collective_state(DensityMatrix(kind, mats[0]))
    effects = dict(enumerate(local_effects(kind), start=1))
    expected = [p_xy(state, effects[ix], effects[iy]) for ix, iy in pairs]
    np.testing.assert_allclose(values[0], expected, rtol=0, atol=1e-13)
    assert ((values >= 0.0) & (values <= 1.0)).all()
    swapped = tuple((iy, ix) for ix, iy in pairs)
    assert np.array_equal(conditional_probabilities(*feature_traces_stack(mats, kind, swapped))[0],
                          values)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), kind=st.sampled_from(list(SystemKind)), data=st.data())
def test_any_sub_preset_is_the_largest_presets_columns_bit_for_bit(seed, kind, data):
    # every sweep worker projects its presets' columns from the master split
    pairs = builtin_presets(kind)[-1].pairs
    columns = data.draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1,
                                 max_size=2 * len(pairs)))
    mats = sample_density_stack(kind, seed, 0, 256)
    values, _ = conditional_probabilities(*feature_traces_stack(mats, kind, pairs))
    sub, _ = conditional_probabilities(
        *feature_traces_stack(mats, kind, tuple(pairs[c] for c in columns)))
    assert np.array_equal(sub, values[:, columns])


def _every_pair(kind: SystemKind) -> tuple[tuple[int, int], ...]:
    k = len(local_effects(kind))
    return tuple((x, y) for x in range(1, k + 1) for y in range(1, k + 1))


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**62 - 1),
       kind=st.sampled_from(list(SystemKind)))
def test_features_ignore_a_local_unitary_on_the_bell_qubit(seed, stream, kind):
    # sigma_x = Tr_2[rho (I x E_x)] only rotates under U x I, so no P_xy moves
    mats = sample_density_streams(kind, seed, [stream])
    d1, d2 = kind.dims
    # the unitary comes from a stream no sampled state uses
    u = np.kron(haar_unitary(d1, make_rng(seed, stream + 2**62)), np.eye(d2))
    pairs = _every_pair(kind)
    values, valid = conditional_probabilities(*feature_traces_stack(mats, kind, pairs))
    moved, moved_valid = conditional_probabilities(
        *feature_traces_stack(u @ mats @ u.conj().T, kind, pairs))
    assert valid[0] and moved_valid[0]
    np.testing.assert_allclose(moved, values, rtol=0, atol=1e-13)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**62 - 1),
       kind=st.sampled_from(list(SystemKind)))
def test_every_valid_feature_lies_in_zero_to_one_half(seed, stream, kind):
    # a singlet projection of a product of two qubit states cannot exceed 1/2,
    # while conditional_probabilities clips only to [0, 1]
    mats = sample_density_streams(kind, seed, [stream])
    values, valid = conditional_probabilities(*feature_traces_stack(mats, kind, _every_pair(kind)))
    assert ((values[valid] >= 0.0) & (values[valid] <= 0.5)).all()
