import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cewlab import evaluate
from cewlab.dataset import generate, restrict, split
from cewlab.errors import DegenerateLabels, DimensionMismatch, EmptyDataset
from cewlab.evaluate import (
    THRESHOLDS,
    Witness,
    baseline_rates,
    chsh_m_value_stack,
    fef_stack,
    operating_point,
    roc_curve,
    witness_scores,
    write_roc,
)
from cewlab.measure import preset_by_name
from cewlab.states import ENTANGLE_EPS, SystemKind, negativity_stack, sample_density_streams
from oracles import (DensityMatrix, baseline_rates_by_count, chsh_m_value_by_einsum,
                     chsh_violation, fef, fef_by_einsum, haar_unitary, make_rng,
                     sample_density)


def singlet_matrix():
    psi = np.zeros(4)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return np.outer(psi, psi).astype(complex)


def werner_matrix(p):
    return p * singlet_matrix() + (1.0 - p) * np.eye(4) / 4.0


def mann_whitney(scores, labels):
    """Pairwise comparison statistic with ties counted half."""
    pos = scores[labels]
    neg = scores[~labels]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def four_points():
    return np.array([0.9, 0.4, 0.35, 0.1]), np.array([True, False, True, False])


def test_roc_four_point_example():
    curve = roc_curve(*four_points())
    assert curve.fpr.tolist() == [0.0, 0.0, 0.5, 0.5, 1.0]
    assert curve.tpr.tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]
    assert curve.thresholds.tolist() == [np.inf, 0.9, 0.4, 0.35, 0.1]
    assert curve.auc == pytest.approx(0.75, abs=1e-15)
    assert operating_point(curve, curve.fpr <= 0.5) == (1.0, 0.5)
    assert operating_point(curve, curve.fpr <= 0.0) == (0.5, 0.0)
    assert operating_point(curve, curve.fpr <= 1.0) == (1.0, 1.0)
    assert operating_point(curve, curve.thresholds > 0.4) == (0.5, 0.0)


def test_roc_all_scores_tied():
    curve = roc_curve(np.full(6, 0.3), np.arange(6) % 2 == 0)
    assert (curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist()) == (
        [0.0, 1.0], [0.0, 1.0], [np.inf, 0.3])
    assert curve.auc == pytest.approx(0.5, abs=1e-15)


def test_roc_perfect_separation():
    curve = roc_curve(np.array([0.9, 0.8, 0.2, 0.1]), np.array([True, True, False, False]))
    assert curve.auc == pytest.approx(1.0, abs=1e-15)
    assert operating_point(curve, curve.fpr <= 0.0) == (1.0, 0.0)


def test_roc_auc_matches_pairwise_statistic():
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 60))
        # one decimal place forces plenty of ties
        scores = np.round(rng.random(n), 1)
        labels = rng.random(n) < 0.4
        if labels.all() or not labels.any():
            continue
        curve = roc_curve(scores, labels)
        assert curve.auc == pytest.approx(mann_whitney(scores, labels), abs=1e-12)


def test_roc_curve_shape_invariants():
    rng = np.random.default_rng(17)
    scores = rng.random(200)
    labels = rng.random(200) < 0.5
    curve = roc_curve(scores, labels)
    assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
    assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)
    assert np.all(np.diff(curve.fpr) >= 0.0)
    assert np.all(np.diff(curve.tpr) >= 0.0)
    assert curve.thresholds[0] == np.inf
    assert np.all(np.diff(curve.thresholds) < 0.0)


def test_roc_argument_checks():
    with pytest.raises(EmptyDataset):
        roc_curve(np.array([]), np.array([], dtype=bool))
    with pytest.raises(DimensionMismatch):
        roc_curve(np.array([0.1, 0.2]), np.array([True]))
    with pytest.raises(DegenerateLabels):
        roc_curve(np.array([0.1, 0.2]), np.array([True, True]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_operating_point_is_the_brute_force_point(data):
    # scores on a coarse grid, so many samples tie
    n = data.draw(st.integers(2, 30), label="n")
    scores = np.array(data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n),
                                label="scores")) / 4.0
    labels = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="labels"))
    assume(labels.any() and not labels.all())
    curve = roc_curve(scores, labels)
    for cap in (0.0, 0.10, data.draw(st.floats(0.0, 1.0), label="cap")):
        within = curve.fpr <= cap
        assert operating_point(curve, within)[0] == curve.tpr[within].max()
        assert operating_point(curve, within)[1] <= cap
    threshold = data.draw(st.one_of(st.sampled_from(sorted(set(scores.tolist()))),
                                    st.floats(-1.0, 2.0)), label="threshold")
    assert operating_point(curve, curve.thresholds > threshold) == baseline_rates_by_count(
        scores, labels, threshold)


@pytest.mark.parametrize("scores, labels", [
    (np.array([[0.9], [0.1]]), np.array([True, False])),
    (np.array([[0.9, 0.1], [0.8, 0.2]]), np.array([True, False, True, False])),
    (np.array([0.9, 0.1]), np.array([[True], [False]])),
    (np.array([0.9, 0.1]), np.array([1.0, 1e-9])),
    (np.array([0.9, 0.1]), np.array([1, 0])),
    (np.array([9, 1]), np.array([True, False])),
    ([0.9, 0.1], [True, False]),
    (np.array([0.9, np.nan, 0.2, 0.1]), np.array([True, True, False, False])),
], ids=["n-by-1-scores", "n-by-2-scores", "n-by-1-labels", "float-labels", "int-labels",
        "int-scores", "lists", "nan-scores"])
def test_roc_refuses_every_other_input_form(scores, labels):
    # flattened or cast, each would be scored without a word: the n-by-2
    # scores read AUC 1.0, float labels count a 1e-9 negativity as entangled,
    # though a record is labelled entangled only above ENTANGLE_EPS, and a NaN
    # score ranks below every other with a nan threshold
    with pytest.raises(DimensionMismatch):
        roc_curve(scores, labels)


def test_write_roc_format(tmp_path):
    curve = roc_curve(*four_points())
    path = str(tmp_path / "r.roc.csv")
    write_roc(curve, path)
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert lines[-1] == f"# auc={curve.auc!r}"
    assert len(lines) == 2 + len(curve.fpr)
    f, t, th = lines[2].split(",")
    assert (float(f), float(t), float(th)) == (curve.fpr[1], curve.tpr[1], curve.thresholds[1])
    write_roc(curve, str(tmp_path / "again.roc.csv"))
    with open(str(tmp_path / "again.roc.csv")) as fh:
        assert fh.read().splitlines() == lines


def test_chsh_oracles():
    violated, m = chsh_violation(singlet_matrix())
    assert violated
    assert m == pytest.approx(2.0, abs=1e-10)

    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    violated, m = chsh_violation(product)
    assert not violated
    assert m == pytest.approx(1.0, abs=1e-10)

    violated, m = chsh_violation(np.eye(4, dtype=complex) / 4.0)
    assert not violated
    assert m == pytest.approx(0.0, abs=1e-10)


def test_chsh_werner_closed_form():
    for p in (0.0, 0.3, 0.6, 0.72, 1.0):
        violated, m = chsh_violation(werner_matrix(p))
        assert m == pytest.approx(2.0 * p * p, abs=1e-10)
        assert violated == (2.0 * p * p > 1.0)


def test_chsh_local_unitary_invariant():
    rng = make_rng(30, 0)
    u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    rotated = u @ singlet_matrix() @ u.conj().T
    _, m = chsh_violation(rotated)
    assert m == pytest.approx(2.0, abs=1e-9)


def test_chsh_rejects_other_dimensions():
    with pytest.raises(DimensionMismatch):
        chsh_violation(np.eye(6, dtype=complex) / 6.0)
    qq = sample_density(SystemKind.QUBIT_QUTRIT, make_rng(1, 0))
    with pytest.raises(DimensionMismatch):
        chsh_violation(qq)
    with pytest.raises(DimensionMismatch):
        fef(qq)


def test_chsh_accepts_wrapped_state():
    wrapped = DensityMatrix(SystemKind.TWO_QUBIT, singlet_matrix())
    assert chsh_violation(wrapped) == chsh_violation(singlet_matrix())


def test_fef_oracles():
    assert fef(singlet_matrix()) == pytest.approx(1.0, abs=1e-10)
    assert fef(np.eye(4, dtype=complex) / 4.0) == pytest.approx(0.25, abs=1e-10)
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    assert fef(product) == pytest.approx(0.5, abs=1e-10)
    for p in (0.0, 0.25, 0.5, 0.8, 1.0):
        assert fef(werner_matrix(p)) == pytest.approx((1.0 + 3.0 * p) / 4.0, abs=1e-10)


def test_fef_floor_and_local_unitary_invariance():
    rng = make_rng(31, 0)
    for k in range(20):
        rho = sample_density(SystemKind.TWO_QUBIT, make_rng(31, k))
        value = fef(rho)
        assert value >= 0.25 - 1e-9
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = u @ rho.mat @ u.conj().T
        assert fef(rotated) == pytest.approx(value, abs=1e-9)


def test_fef_stack_matches_scalar():
    mats = np.stack([sample_density(SystemKind.TWO_QUBIT, make_rng(32, k)).mat
                     for k in range(10)])
    stacked = fef_stack(mats)
    for k in range(10):
        assert stacked[k] == pytest.approx(fef(mats[k]), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**62 - 1))
def test_witnesses_flag_no_separable_state(seed, stream):
    # a separable state violates no Bell inequality and has fully entangled fraction <= 1/2
    mats = sample_density_streams(SystemKind.TWO_QUBIT, seed, [stream])
    assume(negativity_stack(mats, SystemKind.TWO_QUBIT)[0] <= ENTANGLE_EPS)
    assert chsh_m_value_stack(mats)[0] <= 1.0 + ENTANGLE_EPS
    assert fef_stack(mats)[0] <= 0.5 + ENTANGLE_EPS


KIND = SystemKind.TWO_QUBIT


def test_witness_products_match_their_einsum_forms():
    # CHSH keeps its bits; FEF's one product rounds differently from the
    # three-operand einsum, but decides every state the same way
    mats = sample_density_streams(KIND, 33, np.arange(4096))
    assert np.array_equal(chsh_m_value_stack(mats), chsh_m_value_by_einsum(mats))
    fast, slow = fef_stack(mats), fef_by_einsum(mats)
    assert np.abs(fast - slow).max() <= 1e-14
    assert np.array_equal(fast > 0.5, slow > 0.5)


def test_baseline_rates_of_a_generated_set_are_pinned():
    # the rates `cewlab baselines --kind two-qubit --n 10000 --seed 7` prints
    ds = generate(KIND, preset_by_name(KIND, "B1"), 10000, seed=7)
    assert baseline_rates(ds, Witness.CHSH) == (0.0404, 0.0)
    assert baseline_rates(ds, Witness.FEF) == (0.7444, 0.0)


@pytest.fixture(scope="module")
def balanced_ds():
    return generate(KIND, preset_by_name(KIND, "B1"), 400, seed=80)


def test_witness_thresholds():
    assert THRESHOLDS == {Witness.NEGATIVITY: 1e-7, Witness.CHSH: 1.0, Witness.FEF: 0.5}


def test_baseline_negativity_is_exact(balanced_ds):
    sensitivity, fpr = baseline_rates(balanced_ds, Witness.NEGATIVITY)
    assert sensitivity == 1.0
    assert fpr == 0.0


def test_baseline_rates_report_a_false_positive(balanced_ds, monkeypatch):
    # the rates are returned as they are; `cewlab baselines` refuses a nonzero FPR.
    # A witness that flags exactly the separable records has sensitivity 0, FPR 1.
    monkeypatch.setattr(evaluate, "witness_scores",
                        lambda ds, witness: np.where(ds.labels, 0.0, 1.0))
    assert baseline_rates(balanced_ds, Witness.NEGATIVITY) == (0.0, 1.0)


NEAR_EPS = [0.0, np.nextafter(ENTANGLE_EPS, 0.0), ENTANGLE_EPS, np.nextafter(ENTANGLE_EPS, 1.0)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_baseline_rates_are_the_hand_count(balanced_ds, data):
    # the first records' states with drawn negativities, many of them exactly
    # at the negativity witness's threshold or beside it; the labels follow them
    n = data.draw(st.integers(2, 24), label="n")
    negs = np.array(data.draw(st.lists(
        st.one_of(st.sampled_from(NEAR_EPS), st.floats(0.0, 0.5)),
        min_size=n, max_size=n), label="negativities"))
    witness = data.draw(st.sampled_from(list(Witness)), label="witness")
    ds = dataclasses.replace(balanced_ds, features=balanced_ds.features[:n], negativities=negs,
                             stream_indices=balanced_ds.stream_indices[:n])
    assume(ds.labels.any() and not ds.labels.all())
    assert baseline_rates(ds, witness) == baseline_rates_by_count(
        witness_scores(ds, witness), ds.labels, THRESHOLDS[witness])


def test_baseline_witness_ordering(balanced_ds):
    sens_chsh, fpr_chsh = baseline_rates(balanced_ds, Witness.CHSH)
    sens_fef, fpr_fef = baseline_rates(balanced_ds, Witness.FEF)
    assert fpr_chsh == 0.0
    assert fpr_fef == 0.0
    assert 0.0 < sens_chsh < sens_fef < 1.0


def test_baseline_argument_checks(balanced_ds):
    empty = dataclasses.replace(
        balanced_ds,
        features=balanced_ds.features[:0],
        negativities=balanced_ds.negativities[:0],
        stream_indices=balanced_ds.stream_indices[:0],
    )
    with pytest.raises(EmptyDataset):
        baseline_rates(empty, Witness.NEGATIVITY)
    lopsided = dataclasses.replace(balanced_ds, negativities=np.full(400, 0.25))
    with pytest.raises(DegenerateLabels):
        baseline_rates(lopsided, Witness.NEGATIVITY)


def test_witnesses_share_one_regeneration(regenerations):
    ds = generate(KIND, preset_by_name(KIND, "B1"), 200, seed=84)
    baseline_rates(ds, Witness.CHSH)
    baseline_rates(ds, Witness.FEF)
    assert regenerations == [200]


def test_negativity_scores_cannot_relabel_the_dataset():
    # the scores are the dataset's own negativities, from which its labels follow
    ds = generate(KIND, preset_by_name(KIND, "B1"), 200, seed=85)
    scores = witness_scores(ds, Witness.NEGATIVITY)
    with pytest.raises(ValueError, match="read-only"):
        scores[:] = 0.0
    assert ds.labels.sum() == 100


def test_witness_scores_survive_split_and_restrict():
    ds = generate(KIND, preset_by_name(KIND, "B10"), 200, seed=81)
    _, _, test = split(ds, (0.6, 0.2, 0.2))
    narrowed = restrict(test, preset_by_name(KIND, "B5"))
    assert np.array_equal(witness_scores(narrowed, Witness.NEGATIVITY), test.negativities)
    assert np.array_equal(
        witness_scores(narrowed, Witness.CHSH), witness_scores(test, Witness.CHSH))
    assert np.all(witness_scores(test, Witness.FEF) >= 0.25 - 1e-9)


def test_witness_scores_reject_qubit_qutrit_chsh():
    qq = generate(SystemKind.QUBIT_QUTRIT,
                  preset_by_name(SystemKind.QUBIT_QUTRIT, "B1"), 50, seed=82)
    assert len(witness_scores(qq, Witness.NEGATIVITY)) == 50
    with pytest.raises(DimensionMismatch):
        witness_scores(qq, Witness.CHSH)
    with pytest.raises(DimensionMismatch):
        witness_scores(qq, Witness.FEF)
