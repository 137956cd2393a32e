import json
import re

import numpy as np
import pytest

from cewlab import model

from cewlab.dataset import Dataset, generate, restrict, split
from cewlab.errors import (DimensionMismatch, DivergedTraining, EmptyDataset, FormatError,
                           ModelMismatch, TooFewRecords)
from cewlab.measure import MeasurementPreset, preset_by_name
from cewlab.model import (
    Mlp,
    TrainConfig,
    forward,
    init_mlp,
    load_model,
    predict_negativity,
    save_model,
    train,
    train_many,
)
from cewlab.states import SystemKind
from oracles import EarlyStopper, gradient, literal_shuffle, make_rng, standard_normals


def as_dataset(x, y):
    """(x, y) as a Dataset whose preset has one placeholder pair per feature column."""
    preset = MeasurementPreset(SystemKind.TWO_QUBIT, "toy", ((1, 1),) * x.shape[1])
    return Dataset(preset, x, y, 0, np.arange(len(y)))


def epoch_log():
    """An on_epoch callback and the (train_mse, val_mse) list it fills."""
    history = []
    return history, lambda epoch, train_mse, val_mse: history.append((train_mse, val_mse))


def toy_net(weight_values, bias_values):
    """Chain of 1-unit layers from plain floats, for hand-checkable forwards."""
    weights = [np.array([[w]], dtype=float) for w in weight_values]
    biases = [np.array([b], dtype=float) for b in bias_values]
    return Mlp(weights, biases)


def test_init_shapes_and_param_count():
    m = init_mlp(10, TrainConfig(seed=3))
    assert m.layer_sizes == [10, 32, 16, 1]
    assert m.input_dim == 10
    assert sum(a.size for a in (*m.weights, *m.biases)) == 897
    for b in m.biases:
        assert np.all(b == 0.0)
    with pytest.raises(ValueError, match="^input_dim must be at least 1$"):
        init_mlp(0, TrainConfig())


def test_init_deterministic_in_seed():
    a = init_mlp(5, TrainConfig(seed=7))
    b = init_mlp(5, TrainConfig(seed=7))
    c = init_mlp(5, TrainConfig(seed=8))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
    assert not np.array_equal(a.weights[0], c.weights[0])


@pytest.mark.parametrize("seed", [0, 3, 2**64 - 1])
@pytest.mark.parametrize("width", [1, 10, 13, 45])
def test_init_keeps_the_generator_paths_bits(width, seed):
    # each layer in turn takes its u1 block, then its u2 block, of the one init stream
    m = init_mlp(width, TrainConfig(seed=seed))
    rng = make_rng(seed, model._INIT_STREAM)
    for w, fan_in in zip(m.weights, m.layer_sizes):
        assert np.array_equal(w, standard_normals(rng, w.shape) * np.sqrt(2.0 / fan_in))


def test_init_he_scale():
    m = init_mlp(64, TrainConfig(seed=11))
    std = m.weights[0].std()
    assert abs(std - np.sqrt(2.0 / 64)) < 0.03


def test_forward_hand_checked():
    m = toy_net([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
    assert forward(m, np.array([[0.5]]))[0] == pytest.approx(0.5, abs=1e-15)
    assert forward(m, np.array([[0.0]]))[0] == 0.0
    # negative input is cut by the first relu
    assert forward(m, np.array([[-2.0]]))[0] == 0.0

    biased = toy_net([0.0, 0.0, 0.0], [0.0, 0.0, 0.3])
    assert forward(biased, np.array([[123.0]]))[0] == pytest.approx(0.3, abs=1e-15)


def test_forward_batch_and_shape_check():
    m = init_mlp(4, TrainConfig(seed=2))
    x = np.linspace(0.0, 1.0, 12).reshape(3, 4)
    batch = forward(m, x)
    assert batch.shape == (3,)
    for i in range(3):
        assert batch[i] == pytest.approx(forward(m, x[i:i + 1])[0], rel=1e-12)
    # one feature vector is not a batch, even at the right width
    for vector in (np.zeros(4), np.zeros(5)):
        with pytest.raises(DimensionMismatch):
            forward(m, vector)
    with pytest.raises(DimensionMismatch):
        forward(m, np.zeros((2, 5)))


def test_predict_negativity_clamps():
    high = toy_net([0.0, 0.0, 0.0], [0.0, 0.0, 9.0])
    low = toy_net([0.0, 0.0, 0.0], [0.0, 0.0, -9.0])
    one = np.zeros((1, 1))
    assert np.array_equal(predict_negativity(high, one), [0.5])
    assert np.array_equal(predict_negativity(low, one), [0.0])
    assert np.array_equal(forward(high, one), [9.0])
    batch = predict_negativity(high, np.zeros((4, 1)))
    assert np.all(batch == 0.5)


def test_gradient_zero_at_perfect_fit():
    m = toy_net([0.0, 0.0, 0.0], [0.0, 0.0, 0.3])
    x = np.random.default_rng(0).random((8, 1))
    y = np.full(8, 0.3)
    grads_w, grads_b, mse = gradient(m, x, y)
    assert mse == 0.0
    for g in grads_w + grads_b:
        assert np.all(g == 0.0)


def test_gradient_output_bias_single_sample():
    m = init_mlp(3, TrainConfig(seed=5))
    x = np.array([[0.2, 0.7, 0.4]])
    y = np.array([0.1])
    pred = forward(m, x)[0]
    _, grads_b, mse = gradient(m, x, y)
    assert grads_b[-1][0] == pytest.approx(2.0 * (pred - y[0]), rel=1e-12)
    assert mse == pytest.approx((pred - y[0]) ** 2, rel=1e-12)


def test_gradient_matches_central_difference():
    cfg = TrainConfig(seed=13)
    m = init_mlp(2, cfg)
    rng = np.random.default_rng(99)
    x = rng.random((6, 2))
    y = rng.random(6) * 0.5
    grads_w, grads_b, _ = gradient(m, x, y)

    def loss():
        return float(np.mean((forward(m, x) - y) ** 2))

    step = 1e-6
    params = list(zip(m.weights, grads_w)) + list(zip(m.biases, grads_b))
    for arr, grad in params:
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + step
            up = loss()
            arr[idx] = keep - step
            down = loss()
            arr[idx] = keep
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            assert abs(numeric - grad[idx]) / denom <= 1e-4


def test_gradient_argument_checks():
    m = init_mlp(3, TrainConfig(seed=1))
    with pytest.raises(EmptyDataset):
        gradient(m, np.empty((0, 3)), np.empty(0))
    with pytest.raises(DimensionMismatch):
        gradient(m, np.zeros((4, 2)), np.zeros(4))


def test_early_stopper_sequence():
    stopper = EarlyStopper(5)
    values = [0.5, 0.4, 0.41, 0.42, 0.43, 0.44, 0.45]
    stops = [stopper.update(v) for v in values]
    assert stops == [False] * 6 + [True]
    assert stopper.best == 0.4
    assert stopper.best_index == 2


def test_early_stopper_requires_strict_improvement():
    stopper = EarlyStopper(2)
    assert not stopper.update(0.3)
    assert not stopper.update(0.3)  # a tie counts as no improvement
    assert stopper.update(0.3)
    assert stopper.best_index == 1


def test_early_stopper_patience_check():
    with pytest.raises(ValueError):
        EarlyStopper(0)


def fitting_problem(n=256, seed=4):
    rng = np.random.default_rng(seed)
    x = rng.random((n, 3))
    y = np.full(n, 0.2)
    return as_dataset(x, y), as_dataset(rng.random((64, 3)), np.full(64, 0.2))


def test_train_fits_constant_target():
    train_data, val_data = fitting_problem()
    cfg = TrainConfig(learning_rate=1e-2, batch_size=64, max_epochs=200,
                      patience=20, seed=6)
    history, on_epoch = epoch_log()
    result = train(init_mlp(3, cfg), train_data, val_data, cfg, on_epoch)
    preds = forward(result.model, val_data.features)
    assert np.all(np.abs(preds - 0.2) < 0.01)
    assert result.best_val_mse < 1e-4
    assert result.epochs_run == len(history)
    assert result.steps == result.epochs_run * 4  # 256 records in batches of 64


def test_train_deterministic():
    ds = generate(SystemKind.TWO_QUBIT, preset_by_name(SystemKind.TWO_QUBIT, "B1"),
                  600, seed=70)
    tr, va, _ = split(ds, (0.6, 0.2, 0.2))
    cfg = TrainConfig(batch_size=64, max_epochs=12, seed=9)
    h1, on_epoch1 = epoch_log()
    h2, on_epoch2 = epoch_log()
    r1 = train(init_mlp(1, cfg), tr, va, cfg, on_epoch1)
    r2 = train(init_mlp(1, cfg), tr, va, cfg, on_epoch2)
    assert h1 == h2
    for w1, w2 in zip(r1.model.weights, r2.model.weights):
        assert np.array_equal(w1, w2)
    assert r1.model.meta["preset"] == "B1"
    assert r1.model.meta["epochs_run"] == r1.epochs_run


def test_train_restores_best_epoch_snapshot():
    train_data, val_data = fitting_problem(seed=15)
    cfg = TrainConfig(batch_size=32, max_epochs=60, patience=3, seed=10)
    history, on_epoch = epoch_log()
    result = train(init_mlp(3, cfg), train_data, val_data, cfg, on_epoch)
    recomputed = float(np.mean((forward(result.model, val_data.features)
                                - val_data.negativities) ** 2))
    assert recomputed == pytest.approx(result.best_val_mse, rel=1e-12)
    assert result.best_val_mse == pytest.approx(min(v for _, v in history), rel=0)
    assert result.best_epoch <= result.epochs_run


@pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 40000])
def test_the_shuffle_is_its_literal_definition(n):
    for seed, epoch in ((0, 1), (2**64 - 1, 7)):
        perm = model._shuffle(seed, epoch, n)
        assert perm.dtype == np.intp
        assert np.array_equal(np.sort(perm), np.arange(n))
        assert perm.tolist() == literal_shuffle(seed, model._SHUFFLE_STREAM + epoch, n)


def test_equal_words_shuffle_to_index_order(monkeypatch):
    # all-ones words: the index bits must replace the word's low bits, not mix with them
    monkeypatch.setattr(model, "philox_raw", lambda seed, streams, words: np.full(
        (len(streams), words), 2**64 - 1, dtype=np.uint64))
    for n in (1, 2, 3, 256, 257):
        assert model._shuffle(5, 1, n).tolist() == list(range(n))


def per_array_adam_train(m, train_data, val_data, cfg):
    """Test-only oracle: train() as it was with one Adam update per array."""
    x_train, y_train = train_data.features, train_data.negativities
    x_val, y_val = val_data.features, val_data.negativities
    n = len(x_train)
    adam_mw = [np.zeros_like(w) for w in m.weights]
    adam_vw = [np.zeros_like(w) for w in m.weights]
    adam_mb = [np.zeros_like(b) for b in m.biases]
    adam_vb = [np.zeros_like(b) for b in m.biases]
    step = 0
    stopper = EarlyStopper(cfg.patience)
    best_weights = [w.copy() for w in m.weights]
    best_biases = [b.copy() for b in m.biases]
    history = []
    for epoch in range(1, cfg.max_epochs + 1):
        perm = np.array(literal_shuffle(cfg.seed, model._SHUFFLE_STREAM + epoch, n))
        sq_err_sum = 0.0
        for lo in range(0, n, cfg.batch_size):
            batch = perm[lo: lo + cfg.batch_size]
            grads_w, grads_b, mse = gradient(m, x_train[batch], y_train[batch])
            sq_err_sum += mse * len(batch)
            step += 1
            corr1 = 1.0 - model.BETA1**step
            corr2 = 1.0 - model.BETA2**step
            for params, grads, mom1, mom2 in (
                (m.weights, grads_w, adam_mw, adam_vw),
                (m.biases, grads_b, adam_mb, adam_vb),
            ):
                for i, g in enumerate(grads):
                    mom1[i] = model.BETA1 * mom1[i] + (1.0 - model.BETA1) * g
                    mom2[i] = model.BETA2 * mom2[i] + (1.0 - model.BETA2) * g * g
                    params[i] -= cfg.learning_rate * (mom1[i] / corr1) / (np.sqrt(mom2[i] / corr2) + model.EPSILON)
        val_mse = float(np.mean((forward(m, x_val) - y_val) ** 2))
        history.append((sq_err_sum / n, val_mse))
        improved = val_mse < stopper.best
        should_stop = stopper.update(val_mse)
        if improved:
            best_weights = [w.copy() for w in m.weights]
            best_biases = [b.copy() for b in m.biases]
        if should_stop:
            break
    return Mlp(best_weights, best_biases), history


def b10_split():
    kind = SystemKind.TWO_QUBIT
    ds = generate(kind, preset_by_name(kind, "B10"), 800, seed=71)
    tr, va, _ = split(ds, (0.6, 0.2, 0.2))
    return tr, va, TrainConfig(batch_size=64, max_epochs=15, seed=13)


def one_feature_problem():
    rng = np.random.default_rng(19)
    x = rng.random((300, 1))
    xv = rng.random((60, 1))
    data = as_dataset(x, 0.5 * x[:, 0] ** 2), as_dataset(xv, 0.5 * xv[:, 0] ** 2)
    return (*data, TrainConfig(learning_rate=3e-2, batch_size=32, max_epochs=200,
                               patience=2, seed=21))


@pytest.mark.parametrize("problem", [b10_split, one_feature_problem])
def test_train_matches_the_per_array_adam_oracle(problem, tmp_path):
    train_data, val_data, cfg = problem()
    input_dim = train_data.features.shape[1]
    history, on_epoch = epoch_log()
    result = train(init_mlp(input_dim, cfg), train_data, val_data, cfg, on_epoch)
    expected, expected_history = per_array_adam_train(init_mlp(input_dim, cfg), train_data,
                                                      val_data, cfg)

    assert history == expected_history
    if problem is one_feature_problem:
        # early stopping fired and an earlier epoch's snapshot was restored
        assert result.epochs_run < cfg.max_epochs
        assert result.best_epoch < result.epochs_run
    for got, want in zip(result.model.weights + result.model.biases,
                         expected.weights + expected.biases):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    expected.meta = dict(result.model.meta)  # meta is not what the oracle checks
    save_model(result.model, str(tmp_path / "flat.json"))
    save_model(expected, str(tmp_path / "oracle.json"))
    assert (tmp_path / "flat.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()


def two_qubit_splits(n=800, seed=72):
    """One two-qubit B10 training and validation split, which every two-qubit preset projects."""
    kind = SystemKind.TWO_QUBIT
    tr, va, _ = split(generate(kind, preset_by_name(kind, "B10"), n, seed=seed), (0.6, 0.2, 0.2))
    return tr, va


def two_qubit_presets(names):
    return [preset_by_name(SystemKind.TWO_QUBIT, name) for name in names]


def projected_splits(names, n=800, seed=72):
    """Training and validation sets of each named two-qubit preset, projected from one split."""
    tr, va = two_qubit_splits(n, seed)
    presets = two_qubit_presets(names)
    return [restrict(tr, p) for p in presets], [restrict(va, p) for p in presets]


def model_bytes(m, path) -> bytes:
    save_model(m, str(path))
    return path.read_bytes()


def test_lockstep_training_matches_separate_training(tmp_path):
    names = ["B1", "B3", "B5", "B10"]
    presets = two_qubit_presets(names)
    tr, va = two_qubit_splits()
    cfg = TrainConfig(batch_size=64, max_epochs=40, patience=2, seed=11)
    histories = [[] for _ in names]
    # train_many projects the unprojected B10 split itself; train is given projected copies
    results = train_many({p: init_mlp(p.b, cfg) for p in presets}, tr, va, cfg,
                         lambda i, *row: histories[i].append(row))
    epochs = set()
    for i, preset in enumerate(presets):
        alone, on_epoch = epoch_log()
        expected = train(init_mlp(preset.b, cfg), restrict(tr, preset), restrict(va, preset),
                         cfg, on_epoch)
        got = results[i]
        assert ([(e, *row) for e, row in enumerate(alone, 1)] == histories[i]), names[i]
        assert (got.epochs_run, got.best_epoch, got.steps, got.best_val_mse) == (
            expected.epochs_run, expected.best_epoch, expected.steps, expected.best_val_mse)
        assert model_bytes(got.model, tmp_path / "lockstep.json") == model_bytes(
            expected.model, tmp_path / "alone.json"), names[i]
        epochs.add(got.epochs_run)
    # each member left the stack at its own epoch, and the rest were re-stacked
    assert len(epochs) == len(names)


def test_each_member_stops_patience_epochs_after_its_own_best(monkeypatch):
    # scripted validation MSEs, by epoch; member 0 ties its best at epochs 3
    # and 5, which are no improvement
    scripts = [[0.5, 0.4, 0.4, 0.45, 0.4], [0.9, 0.8, 0.7, 0.7, 0.6, 0.6, 0.6, 0.6]]
    tr, va = two_qubit_splits()
    assert (len(tr.negativities), len(va.negativities)) == (480, 160)  # batches of 64 and 32
    mse_stack = model._mse_stack

    def scripted(out, y, buf):
        mse = mse_stack(out, y, buf)
        if len(y) == len(va.negativities):
            scripted.epoch += 1
            # member 0 stops first, so a stack of one holds member 1
            mse[:] = [script[scripted.epoch - 1] for script in scripts[-len(mse):]]
        return mse

    scripted.epoch = 0
    monkeypatch.setattr(model, "_mse_stack", scripted)
    cfg = TrainConfig(batch_size=64, max_epochs=20, patience=3, seed=9)
    models = {p: init_mlp(p.b, cfg) for p in two_qubit_presets(["B1", "B3"])}
    reported = []
    results = train_many(models, tr, va, cfg,
                         lambda i, epoch, _, val_mse: reported.append((i, epoch, val_mse)))
    assert [(r.epochs_run, r.best_epoch, r.best_val_mse, r.steps) for r in results] == [
        (5, 2, 0.4, 5 * 8), (8, 5, 0.6, 8 * 8)]
    assert [(r.model.meta["epochs_run"], r.model.meta["val_mse"]) for r in results] == [
        (5, 0.4), (8, 0.6)]
    assert reported == [(i, epoch, script[epoch - 1]) for epoch in range(1, 9)
                        for i, script in enumerate(scripts) if epoch <= len(script)]


def test_stacked_gradient_is_each_members_own_gradient():
    trains, _ = projected_splits(["B3", "B7"])
    cfg = TrainConfig(seed=23)
    models = [init_mlp(tr.preset.b, cfg) for tr in trains]
    x = [tr.features[:50] for tr in trains]
    y = trains[0].negativities[:50]
    dims, sizes = [m.input_dim for m in models], models[0].layer_sizes[1:]
    net = model._Stack(dims, sizes, [(*m.weights, *m.biases) for m in models])
    grad = model._Stack(dims, sizes)
    mse = model._gradient_stack(net, grad, x, y, model._Buffers(dims, sizes, 50, backward=True))
    for p, m in enumerate(models):
        grads_w, grads_b, alone = gradient(m, x[p], y)
        assert mse[p] == alone
        for got, want in zip(grad.member(p), grads_w + grads_b):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_a_diverging_member_raises_for_its_group():
    tr, va = two_qubit_splits()
    cfg = TrainConfig(batch_size=64, max_epochs=5, seed=9)
    models = {p: init_mlp(p.b, cfg) for p in two_qubit_presets(["B1", "B3"])}
    m = list(models.values())[1]
    m.weights = [w * 1e200 for w in m.weights]  # overflows its outputs
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedTraining) as raised:
            train_many(models, tr, va, cfg)
    assert str(raised.value) == "training loss became non-finite at epoch 1"


def test_train_many_refuses_members_that_cannot_share_a_stack():
    tr, va = two_qubit_splits()
    cfg = TrainConfig(batch_size=64, max_epochs=1, seed=9)
    models = {p: init_mlp(p.b, cfg) for p in two_qubit_presets(["B1", "B3"])}
    m = list(models.values())[1]
    m.weights[1] = m.weights[1][:, :8]
    m.weights[2] = m.weights[2][:8]
    m.biases[1] = m.biases[1][:8]
    with pytest.raises(DimensionMismatch, match="every layer after the first"):
        train_many(models, tr, va, cfg)
    with pytest.raises(ValueError, match="^train_many needs at least one model$"):
        train_many({}, tr, va, cfg)


def test_train_many_refuses_a_preset_the_split_did_not_measure():
    b3, b5 = two_qubit_presets(["B3", "B5"])
    tr, va = (restrict(part, b3) for part in two_qubit_splits())
    cfg = TrainConfig(batch_size=64, max_epochs=1, seed=9)
    missing = next(pair for pair in b5.pairs if pair not in b3.pairs)
    with pytest.raises(ValueError, match=re.escape(f"pair {missing} not measured in preset B3")):
        train_many({b3: init_mlp(3, cfg), b5: init_mlp(5, cfg)}, tr, va, cfg)


def test_train_many_refuses_a_model_of_another_width_than_its_preset():
    tr, va = two_qubit_splits()
    b1, b3 = two_qubit_presets(["B1", "B3"])
    cfg = TrainConfig(batch_size=64, max_epochs=1, seed=9)
    with pytest.raises(DimensionMismatch, match="^model expects 5 features, preset B3 has 3$"):
        train_many({b1: init_mlp(1, cfg), b3: init_mlp(5, cfg)}, tr, va, cfg)


def test_train_diverges_on_absurd_learning_rate():
    train_data, val_data = fitting_problem(seed=16)
    cfg = TrainConfig(learning_rate=1e150, batch_size=256, max_epochs=10, seed=11)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergedTraining):
            train(init_mlp(3, cfg), train_data, val_data, cfg)


def test_train_argument_checks():
    cfg = TrainConfig()
    m = init_mlp(3, cfg)
    data = as_dataset(np.random.default_rng(1).random((10, 3)), np.zeros(10))
    with pytest.raises(EmptyDataset):
        train(m, as_dataset(np.empty((0, 3)), np.empty(0)), data, cfg)
    with pytest.raises(TooFewRecords):
        train(m, data, data, TrainConfig(batch_size=11))
    with pytest.raises(ValueError, match="^batch_size must be at least 1$"):
        train(m, data, data, TrainConfig(batch_size=0))
    with pytest.raises(ValueError):
        train(m, data, data, TrainConfig(batch_size=10, max_epochs=0))
    with pytest.raises(ValueError, match="^patience must be at least 1$"):
        train(m, data, data, TrainConfig(batch_size=10, patience=0))
    for lr in (0.0, -1e-3, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="learning_rate must be a positive finite number"):
            train(m, data, data, TrainConfig(learning_rate=lr, batch_size=10))
    with pytest.raises(DimensionMismatch):
        train(init_mlp(4, cfg), data, data, TrainConfig(batch_size=10))


def test_train_refuses_datasets_of_two_presets():
    # both B5 presets have five features, so only the datasets' presets tell them apart
    tq_train = split(generate(SystemKind.TWO_QUBIT, preset_by_name(SystemKind.TWO_QUBIT, "B5"),
                              200, seed=41), (0.6, 0.2, 0.2))[0]
    qq_val = split(generate(SystemKind.QUBIT_QUTRIT, preset_by_name(SystemKind.QUBIT_QUTRIT, "B5"),
                            200, seed=42), (0.6, 0.2, 0.2))[1]
    cfg = TrainConfig(batch_size=32, max_epochs=2, seed=4)
    with pytest.raises(ModelMismatch) as raised:
        train(init_mlp(5, cfg), tq_train, qq_val, cfg)
    assert str(raised.value) == ("preset mismatch: train has B5 (two-qubit), "
                                 "validation has B5 (qubit-qutrit)")


def test_save_load_round_trip(tmp_path):
    cfg = TrainConfig(seed=12)
    m = init_mlp(7, cfg)
    m.meta["note"] = "round-trip"
    path = str(tmp_path / "m.mlp.json")
    save_model(m, path)
    back = load_model(path)
    assert back.layer_sizes == m.layer_sizes
    assert back.meta == m.meta
    x = np.random.default_rng(2).random((100, 7))
    assert np.array_equal(forward(back, x), forward(m, x))


def test_load_model_error_paths(tmp_path):
    path = str(tmp_path / "bad.mlp.json")
    with pytest.raises(FileNotFoundError):
        load_model(path)

    with open(path, "w") as fh:
        fh.write("{not json")
    with pytest.raises(FormatError, match="bad.mlp.json"):
        load_model(path)

    with open(path, "w") as fh:
        fh.write('{"layer_sizes": [2, 32, 16, 1]}')
    with pytest.raises(FormatError):
        load_model(path)

    m = init_mlp(2, TrainConfig(seed=14))
    save_model(m, path)
    import json

    with open(path) as fh:
        doc = json.load(fh)
    doc["weights"][0] = [[0.0, 0.0]]  # wrong fan_in for layer 0
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(FormatError, match="layer 0"):
        load_model(path)

    # train refuses non-finite losses, so it never writes such a weight
    for bad in (float("nan"), float("inf")):
        m.biases[1][3] = bad
        save_model(m, path)
        with pytest.raises(FormatError, match="bad.mlp.json: a weight or bias is NaN or infinite"):
            load_model(path)


def _toy_layout(doc):
    doc.update(layer_sizes=[2, 5, 1], weights=[[[0.5] * 5] * 2, [[0.25]] * 5],
               biases=[[0.0] * 5, [0.0]])


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["weights"][0][0].__setitem__(0, "0.25"), "a weight or bias is not a JSON float"),
    (lambda doc: doc["biases"][1].__setitem__(3, True), "a weight or bias is not a JSON float"),
    (lambda doc: doc["biases"][0].__setitem__(0, 10**400), "a weight or bias is not a JSON float"),
    (lambda doc: doc.update(meta=list(doc["meta"].items())), "meta is not a JSON object"),
    (lambda doc: doc.update(extra=0), "unknown key 'extra'"),
    (lambda doc: doc.pop("meta"), "'meta'"),
    (lambda doc: doc["weights"].append([[0.25]]), "layer counts are inconsistent"),
    # each compares equal to the sizes saved, and the weights' shapes match them
    *((lambda doc, sizes=sizes: doc.update(layer_sizes=sizes),
       re.escape(f"layer_sizes {sizes} holds a size that is not a JSON integer of at least 1"))
      for sizes in ([2.0, 32, 16, True], [2, 32.0, 16, 1], [2, 32, 16, True])),
    # a ReLU chain ending in one unit that forward would run, but train never writes
    (_toy_layout, re.escape("layer_sizes [2, 5, 1] is not an input size followed by [32, 16, 1]")),
], ids=["string-weight", "true-bias", "huge-int-bias", "meta-pairs", "extra-key", "no-meta",
         "fourth-weight",
        "float-and-true-sizes", "float-hidden-size", "true-output-size", "toy-layout"])
def test_load_model_refuses_what_save_model_cannot_write(tmp_path, edit, message):
    path = str(tmp_path / "m.mlp.json")
    save_model(init_mlp(2, TrainConfig(seed=15)), path)
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    with pytest.raises(FormatError, match=f"^{re.escape(path)}: {message}$"):
        load_model(path)


def test_model_rejects_features_of_other_preset():
    small = init_mlp(5, TrainConfig(seed=17))
    wide = np.random.default_rng(3).random((6, 10))
    with pytest.raises(DimensionMismatch):
        forward(small, wide)
