import dataclasses
import io
import json
import os
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cewlab import dataset, pool
from cewlab.dataset import CHUNK, generate, load, regenerate_states, restrict, save, split
from cewlab.errors import DegenerateLabels, DrawBudgetExhausted, EmptyDataset, FormatError
from cewlab.measure import MeasurementPreset, preset_by_name
from cewlab.model import TrainConfig, init_mlp, predict_negativity, save_model, train
from cewlab.states import SystemKind, negativity_stack, sample_density_stack
from oracles import DATA_FILE_FAULTS

KIND = SystemKind.TWO_QUBIT
B1 = preset_by_name(KIND, "B1")


def test_balanced_quota_exact():
    ds = generate(KIND, B1, 400, seed=50)
    assert ds.count == 400
    assert int(ds.labels.sum()) == 200
    assert ds.prevalence == 0.5


def test_generate_deterministic():
    a = generate(KIND, B1, 300, seed=51)
    b = generate(KIND, B1, 300, seed=51)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.negativities, b.negativities)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.stream_indices, b.stream_indices)


def test_generate_argument_checks():
    with pytest.raises(ValueError):
        generate(KIND, B1, 0, seed=0)
    with pytest.raises(ValueError):
        generate(KIND, B1, 301, seed=0)  # balanced needs an even count
    # the dataset's kind is its preset's, so a preset of the other kind is refused
    with pytest.raises(ValueError, match="preset is for qubit-qutrit, dataset is two-qubit"):
        generate(KIND, preset_by_name(SystemKind.QUBIT_QUTRIT, "B1"), 200, seed=1)


def test_labels_match_regenerated_states():
    # every stream and every eigensolve is independent of its batch, so
    # stored negativities are reproduced bit for bit, not just within tolerance
    for kind in SystemKind:
        ds = generate(kind, preset_by_name(kind, "B1"), 600, seed=52)
        neg = negativity_stack(regenerate_states(ds), kind)
        assert np.array_equal(neg, ds.negativities)
        assert np.array_equal(neg > 1e-7, ds.labels)


def test_regeneration_samples_only_the_records_streams():
    # distinct, unsorted streams spread over six chunks, more than two slices of them
    streams = np.random.default_rng(0).choice(6 * CHUNK, 2 * CHUNK + 9, replace=False)
    ds = dataclasses.replace(generate(KIND, B1, 10, seed=62), stream_indices=streams,
                             negativities=np.zeros(len(streams)))
    expected = sample_density_stack(KIND, 62, 0, 6 * CHUNK)[streams]
    assert np.array_equal(regenerate_states(ds), expected)


def test_states_are_the_regeneration_memoised():
    ds = generate(KIND, B1, 300, seed=63)
    assert np.array_equal(ds.states, regenerate_states(ds))
    assert ds.states is ds.states


@pytest.mark.parametrize("field", ["states", "stream_indices", "negativities"])
def test_what_fixes_the_states_is_read_only(field):
    array = getattr(generate(KIND, B1, 20, seed=64), field)
    with pytest.raises(ValueError, match="read-only"):
        array[0] = 0


def test_a_dataset_is_frozen():
    ds = generate(KIND, B1, 20, seed=64)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ds.seed = 2


@pytest.mark.parametrize("protocol", [4, 5])
def test_a_pickled_dataset_drops_its_states_and_stays_read_only(protocol):
    ds = generate(KIND, B1, 20, seed=64)
    bare = pickle.dumps(ds, protocol=protocol)
    assert "states" not in vars(ds) and ds.states.size and "states" in vars(ds)
    shipped = pickle.dumps(ds, protocol=protocol)
    assert len(shipped) == len(bare)
    copy = pickle.loads(shipped)
    assert "states" not in vars(copy)
    for field in ("negativities", "stream_indices"):
        assert np.array_equal(getattr(copy, field), getattr(ds, field))
        with pytest.raises(ValueError, match="read-only"):
            getattr(copy, field)[0] = 0
    copy.features[0, 0] = 0.5
    assert np.array_equal(copy.states, ds.states)


def test_a_replaced_dataset_regenerates_its_own_states():
    ds = generate(KIND, B1, 40, seed=65)
    reversed_ds = dataclasses.replace(ds, features=ds.features[::-1],
                                      negativities=ds.negativities[::-1],
                                      stream_indices=ds.stream_indices[::-1])
    assert np.array_equal(reversed_ds.states, ds.states[::-1])


def test_a_split_regenerates_only_its_own_records(regenerations):
    ds = generate(KIND, B1, 200, seed=66)
    _, _, test = split(ds, (0.5, 0.25, 0.25))
    states = test.states
    assert regenerations == [50]
    assert np.array_equal(states, regenerate_states(ds)[np.isin(ds.stream_indices,
                                                                 test.stream_indices)])


def test_quota_exhaustion_raises_a_package_error(monkeypatch):
    # a sampler that never yields an entangled state cannot fill its quota
    monkeypatch.setattr(dataset, "negativity_stack", lambda mats, kind: np.zeros(len(mats)))
    with pytest.raises(DrawBudgetExhausted, match="quota"):
        generate(KIND, B1, 10, seed=63)


def per_record_selection(preset, n, seed, balanced):
    """Test-only oracle: generate()'s selection as a loop over each record of a chunk."""
    quota = n // 2
    taken_pos = taken_neg = 0
    rows, negs, labs, streams = [], [], [], []
    chunk_index = 0
    while len(labs) < n:
        values, neg, entangled, valid = dataset._draw_chunk(preset, seed, chunk_index)
        for k in range(CHUNK):
            if not valid[k]:
                continue
            if balanced:
                if entangled[k]:
                    if taken_pos >= quota:
                        continue
                    taken_pos += 1
                else:
                    if taken_neg >= quota:
                        continue
                    taken_neg += 1
            rows.append(values[k])
            negs.append(float(neg[k]))
            labs.append(bool(entangled[k]))
            streams.append(chunk_index * CHUNK + k)
            if len(labs) == n:
                break
        chunk_index += 1
    return np.array(rows), np.array(negs), np.array(labs), np.array(streams, dtype=np.int64)


def _mark_invalid(monkeypatch, every):
    """Mark every `every`-th draw of each chunk invalid, by wrapping the
    conditional probabilities that _draw_chunk computes.

    Degenerate conditioning is too rare to show up at test sizes.
    """
    conditional = dataset.conditional_probabilities

    def conditional_with_invalid(*traces):
        values, valid = conditional(*traces)
        return values, valid & (np.arange(CHUNK) % every != 3)
    monkeypatch.setattr(dataset, "conditional_probabilities", conditional_with_invalid)


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("balanced", [True, False])
@pytest.mark.parametrize("n", [200, 3000])  # ends inside chunk 0; spans several chunks
@pytest.mark.parametrize("invalid_every", [None, 7])
def test_selection_matches_the_per_record_oracle(monkeypatch, kind, balanced, n, invalid_every):
    if invalid_every:
        _mark_invalid(monkeypatch, invalid_every)
    preset = preset_by_name(kind, "B10" if kind is SystemKind.TWO_QUBIT else "B45")
    ds = generate(kind, preset, n, seed=64, balanced=balanced)
    expected = per_record_selection(preset, n, 64, balanced)
    for got, want in zip((ds.features, ds.negativities, ds.labels, ds.stream_indices), expected):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    if invalid_every:
        assert not np.any(ds.stream_indices % CHUNK % invalid_every == 3)


def _record_pool_workers(monkeypatch) -> list[int]:
    """The worker count of each pool.ordered_map started from here on, in order."""
    count = pool.worker_count
    workers: list[int] = []

    def recorded(jobs):
        workers.append(count(jobs))
        return workers[-1]
    monkeypatch.setattr(pool, "worker_count", recorded)
    return workers


@pytest.mark.parametrize("kind", list(SystemKind))
@pytest.mark.parametrize("balanced", [True, False])
@pytest.mark.parametrize("invalid_every", [None, 7])
def test_pooled_generate_matches_one_process(monkeypatch, cpus, kind, balanced, invalid_every):
    if invalid_every:
        # the wrapper is a local function: forked workers reach it through
        # the module, as they do for any name _draw_chunk calls
        _mark_invalid(monkeypatch, invalid_every)
    preset = preset_by_name(kind, "B10" if kind is SystemKind.TWO_QUBIT else "B45")
    workers = _record_pool_workers(monkeypatch)
    cpus(1)
    alone = generate(kind, preset, 4 * CHUNK, seed=65, balanced=balanced)
    cpus(2)
    pooled = generate(kind, preset, 4 * CHUNK, seed=65, balanced=balanced)
    assert workers == [1, 2]
    assert len(np.unique(pooled.stream_indices // CHUNK)) >= 4
    for field in ("features", "negativities", "labels", "stream_indices"):
        got, want = getattr(pooled, field), getattr(alone, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


def test_a_dataset_in_one_chunk_starts_no_pool(monkeypatch, cpus):
    cpus(2)
    workers = _record_pool_workers(monkeypatch)
    generate(KIND, B1, 200, seed=66)
    assert workers == []


_DRAW_CHUNK = dataset._draw_chunk
_TEST_PID = os.getpid()
_chunks_drawn_here: list[int] = []


def _draw_chunk_noting_this_process(preset, seed, chunk_index):
    """dataset._draw_chunk, noting each chunk drawn in the test's own process.

    Module-level, so that a forked worker finds it by name; a worker's
    chunks are not noted.
    """
    if os.getpid() == _TEST_PID:
        _chunks_drawn_here.append(chunk_index)
    return _DRAW_CHUNK(preset, seed, chunk_index)


def test_a_pooled_generate_draws_no_chunk_in_this_process(monkeypatch, cpus):
    monkeypatch.setattr(dataset, "_draw_chunk", _draw_chunk_noting_this_process)
    _chunks_drawn_here.clear()
    cpus(1)
    alone = generate(KIND, B1, 4 * CHUNK, seed=68)
    # on one CPU every chunk is drawn here, through the wrapper
    assert _chunks_drawn_here == list(range(len(_chunks_drawn_here)))
    assert len(_chunks_drawn_here) >= 4
    _chunks_drawn_here.clear()
    cpus(2)
    pooled = generate(KIND, B1, 4 * CHUNK, seed=68)
    assert _chunks_drawn_here == []
    assert np.array_equal(pooled.stream_indices, alone.stream_indices)


def test_an_error_in_a_pooled_chunk_keeps_its_type(monkeypatch, cpus):
    cpus(2)
    sample = dataset.sample_density_stack

    def fail_at_chunk_2(kind, seed, start, count):
        if start == 2 * CHUNK:
            raise EmptyDataset("chunk 2 failed")
        return sample(kind, seed, start, count)
    monkeypatch.setattr(dataset, "sample_density_stack", fail_at_chunk_2)
    with pytest.raises(EmptyDataset, match="chunk 2 failed") as raised:
        generate(KIND, B1, 4 * CHUNK, seed=67)
    # the executor chains the worker's formatted traceback onto what it re-raises
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"


def test_quota_exhaustion_in_a_pool_spends_the_same_budget(monkeypatch, cpus):
    cpus(2)
    monkeypatch.setattr(dataset, "negativity_stack", lambda mats, kind: np.zeros(len(mats)))
    workers = _record_pool_workers(monkeypatch)
    with pytest.raises(DrawBudgetExhausted, match=f"within {16 * CHUNK} draws"):
        generate(KIND, B1, 10, seed=63)
    assert workers == [2]


def test_unbalanced_keeps_natural_prevalence():
    ds = generate(KIND, B1, 2000, seed=53, balanced=False)
    assert np.array_equal(ds.stream_indices, np.arange(2000))
    assert 0.30 < ds.prevalence < 0.45


def test_balanced_overdraw_factor():
    # the minority class (entangled, rate ~0.37) limits the draw count, so
    # draws/n converges to 1/(2*0.37) ~ 1.35
    ds = generate(KIND, B1, 20000, seed=54)
    ratio = (int(ds.stream_indices.max()) + 1) / ds.count
    assert 1.30 < ratio < 1.42


def test_split_sizes_and_stratification():
    ds = generate(KIND, B1, 100, seed=55)
    tr, va, te = split(ds, (0.8, 0.1, 0.1))
    assert (tr.count, va.count, te.count) == (80, 10, 10)
    assert (int(tr.labels.sum()), int(va.labels.sum()), int(te.labels.sum())) == (40, 5, 5)
    together = np.concatenate([tr.stream_indices, va.stream_indices, te.stream_indices])
    assert sorted(together.tolist()) == sorted(ds.stream_indices.tolist())
    # order within each piece is preserved
    for piece in (tr, va, te):
        assert np.all(np.diff(piece.stream_indices) > 0)


def test_split_empty_piece_rejected():
    ds = generate(KIND, B1, 100, seed=56)
    with pytest.raises(EmptyDataset):
        split(ds, (1.0, 0.0, 0.0))
    with pytest.raises(EmptyDataset, match="^cannot split an empty dataset$"):
        split(dataclasses.replace(ds, features=ds.features[:0], negativities=ds.negativities[:0],
                                  stream_indices=ds.stream_indices[:0]), (0.6, 0.2, 0.2))


def test_split_fraction_checks():
    ds = generate(KIND, B1, 100, seed=57)
    with pytest.raises(ValueError):
        split(ds, (0.5, 0.3, 0.1))
    with pytest.raises(ValueError):
        split(ds, (1.2, -0.1, -0.1))
    # NaN fails every comparison, so each position is refused, not passed on as EmptyDataset
    for fractions in ((np.nan, 0.5, 0.5), (0.5, np.nan, 0.5), (0.5, 0.5, np.nan)):
        with pytest.raises(ValueError, match="fractions must be"):
            split(ds, fractions)


def test_split_needs_both_classes():
    ds = generate(KIND, B1, 100, seed=58)
    lopsided = dataclasses.replace(ds, negativities=np.full(100, 0.25))
    with pytest.raises(DegenerateLabels):
        split(lopsided, (0.8, 0.1, 0.1))


def test_save_load_round_trip(tmp_path):
    for kind, name in ((SystemKind.TWO_QUBIT, "B5"), (SystemKind.QUBIT_QUTRIT, "B13")):
        ds = generate(kind, preset_by_name(kind, name), 200, seed=59)
        path = str(tmp_path / f"{kind.value}.npy")
        save(ds, path)
        back = load(path)
        assert back.kind is ds.kind is kind
        assert back.preset == ds.preset
        assert back.seed == ds.seed
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.negativities, ds.negativities)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.stream_indices, ds.stream_indices)


def test_save_writes_the_path_and_its_sidecar_only(tmp_path):
    # no ".npy" appended to the name, and no temporary left
    ds = generate(KIND, B1, 20, seed=59)
    save(ds, str(tmp_path / "x.csv"))
    assert sorted(os.listdir(tmp_path)) == ["x.csv", "x.csv.meta"]
    assert np.array_equal(np.load(tmp_path / "x.csv"),
                          np.column_stack((ds.features, ds.negativities)))


def test_save_starts_no_pool(tmp_path, monkeypatch, cpus):
    # three chunks of rows and a partial one, on two CPUs, as np.save writes them
    ds = generate(KIND, preset_by_name(KIND, "B10"), 3 * CHUNK + 10, seed=68, balanced=False)
    cpus(2)
    workers = _record_pool_workers(monkeypatch)
    path = str(tmp_path / "d.npy")
    save(ds, path)
    assert workers == []
    expected = io.BytesIO()
    np.save(expected, np.column_stack((ds.features, ds.negativities)))
    assert _file_bytes(path) == expected.getvalue()


def test_an_empty_dataset_round_trips_and_a_count_it_lacks_is_refused(tmp_path):
    preset = preset_by_name(KIND, "B3")
    empty = dataset.Dataset(preset, np.empty((0, preset.b)), np.empty(0), 62,
                            np.empty(0, dtype=np.int64))
    path = str(tmp_path / "empty.npy")
    save(empty, path)
    assert np.load(path).shape == (0, preset.b + 1)
    assert json.loads(_file_bytes(path + ".meta"))["count"] == 0
    back = load(path)
    assert back.count == 0 and back.features.shape == (0, preset.b) and back.seed == 62
    # an empty array whose sidecar says 2 records, and 2 records whose
    # sidecar says none
    two = str(tmp_path / "two.npy")
    save(generate(KIND, preset, 2, seed=62), two)
    for data, meta in ((path, two), (two, path)):
        mixed = str(tmp_path / "mixed.npy")
        with open(mixed, "wb") as fh:
            fh.write(_file_bytes(data))
        with open(mixed + ".meta", "wb") as fh:
            fh.write(_file_bytes(meta + ".meta"))
        count = json.loads(_file_bytes(meta + ".meta"))["count"]
        rows = np.load(data).shape[0]
        with pytest.raises(FormatError, match=re.escape(
                f"mixed.npy: expected a C-order <f8 array of shape ({count}, 4), got a C-order "
                f"<f8 array of shape ({rows}, 4)")):
            load(mixed)


def test_save_is_byte_stable(tmp_path):
    ds = generate(KIND, preset_by_name(KIND, "B3"), 100, seed=60)
    # exact 0 and 1, a small and the smallest subnormal feature, a negative zero
    ds.features[:4, 1] = [0.0, 1.0, 1e-05, 5e-324]
    negs = ds.negativities.copy()
    negs[4] = -0.0
    ds = dataclasses.replace(ds, negativities=negs)
    p1 = str(tmp_path / "a.npy")
    p2 = str(tmp_path / "b.npy")
    save(ds, p1)
    # what np.save writes for the C-order little-endian float64 records
    expected = io.BytesIO()
    np.save(expected, np.column_stack((ds.features, ds.negativities)).astype("<f8"))
    assert _file_bytes(p1) == expected.getvalue()
    save(load(p1), p2)
    for suffix in ("", ".meta"):
        assert _file_bytes(p1 + suffix) == _file_bytes(p2 + suffix)


# sign, an exponent field short of 0x7ff (inf and NaN), and the mantissa: every
# finite double, with the zero exponent field giving +-0 and the subnormals
_FINITE_BITS = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                         st.integers(0, 1), st.integers(0, 0x7fe), st.integers(0, 2**52 - 1))


def _bits_up_to(top: float):
    """Bit patterns of the doubles in [-0.0, top]: -0.0, and +0.0 and the subnormals upwards."""
    return st.one_of(st.integers(0, int(np.float64(top).view(np.uint64))), st.just(1 << 63))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[_bits_up_to(1.0)] * 3, _bits_up_to(0.5)), min_size=1, max_size=30),
       st.none() | st.tuples(st.integers(0, 29), st.integers(0, 3), _FINITE_BITS))
@example([(0, 1 << 63, 1, 1 << 63), (0x3ff0000000000000, 2**52 - 1, 0x3ee4f8b588e368f1,
                                      0x3fe0000000000000)], None)
@example([(0, 0, 0, 0)] * 3, (1, 3, 0x3fe0000000000001))  # one ulp above 0.5 is in range
@example([(0, 0, 0, 0)] * 3, (2, 0, 0x3ff0000000000001))  # one ulp above 1 is not
def test_every_finite_double_reads_back_with_its_bits(tmp_path_factory, rows, stray):
    # every double load takes (a feature in [0, 1], a negativity in [0, 0.5],
    # -0.0 and the subnormals included) reads back with its bits, and a stray
    # finite double outside them is refused at its row
    bits = np.array(rows, dtype=np.uint64)
    if stray is not None:
        row, column, value = stray
        bits[row % len(bits), column] = value
    values = bits.view(np.float64)
    feats, negs = values[:, :3].copy(), values[:, 3].copy()
    ds = dataset.Dataset(preset_by_name(KIND, "B3"), feats, negs, 7, np.arange(len(values)))
    path = str(tmp_path_factory.getbasetemp() / "bits.npy")
    save(ds, path)
    taken = ((feats >= 0) & (feats <= 1)).all(axis=1) & (negs >= 0) & (negs <= 0.5 + 1e-12)
    if not taken.all():
        with pytest.raises(FormatError, match=f": row {np.argmin(taken)}: "):
            load(path)
        return
    back = load(path)
    assert back.features.view(np.uint64).tolist() == bits[:, :3].tolist()
    assert back.negativities.view(np.uint64).tolist() == bits[:, 3].tolist()


def test_a_csv_from_an_earlier_version_is_refused(tmp_path):
    # earlier versions wrote a CSV beside the same sidecar; gen with its seed
    # writes the same records again
    ds = generate(KIND, B1, 4, seed=61)
    path = str(tmp_path / "old.csv")
    save(ds, path)
    with open(path, "w") as fh:
        fh.write("f1,negativity,label\n" + "".join(
            f"{f!r},{n!r},{int(label)}\n" for f, n, label in zip(
                ds.features[:, 0].tolist(), ds.negativities.tolist(), ds.labels.tolist())))
    with pytest.raises(FormatError, match=f"^{re.escape(path)}: not a .npy array: the magic "
                                          "string is not correct"):
        load(path)


def test_load_converts_a_clean_block_in_one_call(tmp_path):
    # the records are read into one (n, B + 1) array, and the features and
    # negativities are column views of it, not copies
    ds = generate(KIND, preset_by_name(KIND, "B10"), 400, seed=64)
    path = str(tmp_path / "d.npy")
    save(ds, path)
    back = load(path)
    block = back.features.base
    assert block is back.negativities.base and block.shape == (400, 11)
    assert np.shares_memory(back.features, block) and np.shares_memory(back.negativities, block)
    assert np.array_equal(block, np.load(path))


@pytest.mark.parametrize("fault", list(DATA_FILE_FAULTS))
def test_load_refuses_a_data_file_save_cannot_write(tmp_path, fault):
    make, message = DATA_FILE_FAULTS[fault]
    path = str(tmp_path / "d.npy")
    save(generate(KIND, preset_by_name(KIND, "B3"), 10, seed=67), path)
    data = make(np.load(path))
    with open(path, "wb") as fh:
        fh.write(data)
    # refused without allocating what a header claims (10**12 rows, say):
    # numpy reports its array allocations to tracemalloc
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"^{re.escape(path)}: {message}"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_load_reports_bad_rows(tmp_path):
    # several features per row, so a bad value must be caught beside good ones
    ds = generate(KIND, preset_by_name(KIND, "B5"), 10, seed=61)
    path = str(tmp_path / "d.npy")
    save(ds, path)
    block = np.load(path)

    def rewrite(rows):
        with open(path, "wb") as fh:
            np.save(fh, rows)

    feature = "a feature is NaN or outside [0, 1]"
    negativity = "negativity is NaN or outside [0, 0.5]"
    entangled = int(np.flatnonzero(ds.labels)[0])
    separable = int(np.flatnonzero(~ds.labels)[0])
    for row, column, value, message in [
        (3, 0, np.nan, feature),
        (4, 1, 1.0000001, feature),
        (5, 3, -1e-300, feature),
        (entangled, -1, 0.50001, negativity),
        (separable, -1, -1e-09, negativity),
        (separable, -1, np.nan, negativity),
    ]:
        bad = block.copy()
        bad[row, column] = value
        rewrite(bad)
        with pytest.raises(FormatError, match=f"^{re.escape(path)}: row {row}: "
                                              f"{re.escape(message)}$"):
            load(path)
    # the first bad row is named, whichever check it fails
    bad = block.copy()
    bad[7, 0], bad[6, -1] = 2.0, 0.75
    rewrite(bad)
    with pytest.raises(FormatError, match=f": row 6: {re.escape(negativity)}$"):
        load(path)
    rewrite(block)
    assert load(path).count == ds.count


@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
def test_a_loaded_dataset_trains_and_predicts_as_the_generated_one(tmp_path, kind):
    # load's features are strided column views; training on them and scoring
    # them give the bits the generated C-order arrays give
    preset = preset_by_name(kind, "B10" if kind is SystemKind.TWO_QUBIT else "B45")
    pieces = split(generate(kind, preset, 400, seed=69), (0.6, 0.2, 0.2))
    loaded = []
    for name, piece in zip(("train", "val", "test"), pieces):
        path = str(tmp_path / f"{name}.npy")
        save(piece, path)
        loaded.append(load(path))
    assert not loaded[0].features.flags.c_contiguous
    cfg = TrainConfig(batch_size=32, max_epochs=3, patience=3, seed=69)
    fitted = [train(init_mlp(preset.b, cfg), train_ds, val_ds, cfg).model
              for train_ds, val_ds, _ in (pieces, loaded)]
    paths = [str(tmp_path / f"{name}.mlp.json") for name in ("generated", "loaded")]
    for m, path in zip(fitted, paths):
        save_model(m, path)
    assert _file_bytes(paths[0]) == _file_bytes(paths[1])
    scores = [predict_negativity(m, test.features)
              for m in fitted for test in (pieces[2], loaded[2])]
    assert all(s.tobytes() == scores[0].tobytes() for s in scores)


def test_training_on_loaded_splits_gathers_each_batch_from_c_contiguous_arrays(tmp_path,
                                                                              monkeypatch):
    # np.take copies a source that is not C-contiguous whole before it
    # gathers, so a batch from load's column views would copy every record
    preset = preset_by_name(KIND, "B10")
    loaded = []
    for name, piece in zip(("train", "val"), split(generate(KIND, preset, 200, seed=70),
                                                   (0.6, 0.2, 0.2))):
        path = str(tmp_path / f"{name}.npy")
        save(piece, path)
        loaded.append(load(path))
    contiguous = []
    take = np.take

    def recording_take(a, *args, **kwargs):
        contiguous.append(a.flags.c_contiguous)
        return take(a, *args, **kwargs)

    monkeypatch.setattr(np, "take", recording_take)
    cfg = TrainConfig(batch_size=32, max_epochs=1, patience=1, seed=70)
    train(init_mlp(preset.b, cfg), loaded[0], loaded[1], cfg)
    assert contiguous and all(contiguous)


def _file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("streams, message", [
    ([0, 1, 2, -4], "non-negative"),
    ([0, 2, 2, 5], "repeat"),
    ([0, 1, 2, 2**63], "non-negative"),
    ([0, 1, 1.5, 3], "non-negative"),
    ([0, 1, 2, 3, 4], "stream_indices hold 5 draw indices for count 4"),
    ([0, 1, True, 3], "non-negative"),  # np.array would read it as 1
])
def test_load_rejects_streams_generate_cannot_write(tmp_path, streams, message):
    ds = generate(KIND, B1, 4, seed=64)
    path = str(tmp_path / "d.npy")
    save(ds, path)
    with open(path + ".meta") as fh:
        meta = json.load(fh)
    meta["stream_indices"] = streams
    with open(path + ".meta", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(FormatError, match=f"^{re.escape(path)}\\.meta: .*{message}"):
        load(path)


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", 64.0), ("seed", "64"), ("seed", True), ("seed", -3), ("seed", 2**64),
    ("count", 4.9), ("count", 4.0), ("count", -4),
])
def test_load_rejects_seeds_and_counts_generate_cannot_write(tmp_path, field, value):
    # the largest seed generate takes loads; the corrupted sidecar does not
    ds = generate(KIND, B1, 4, seed=2**64 - 1)
    path = str(tmp_path / "d.npy")
    save(ds, path)
    assert load(path).seed == 2**64 - 1
    with open(path + ".meta") as fh:
        meta = json.load(fh)
    meta[field] = value
    with open(path + ".meta", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(FormatError, match=f"{field} must be "):
        load(path)


@pytest.mark.parametrize("kind, pairs", [
    (KIND, [[9, 9]]), (KIND, [[0, 1]]), (KIND, [[1, 1, 1]]), (KIND, [[1.0, 1]]),
    (SystemKind.QUBIT_QUTRIT, [[10, 1]]),
], ids=["tq-9-9", "tq-0-1", "tq-1-1-1", "tq-float", "qq-10-1"])
def test_load_rejects_pairs_generate_cannot_write(tmp_path, kind, pairs):
    # effect indices run 1-4 for two-qubit and 1-9 for qubit-qutrit
    ds = generate(kind, preset_by_name(kind, "B1"), 4, seed=65)
    path = str(tmp_path / "d.npy")
    save(ds, path)
    with open(path + ".meta") as fh:
        meta = json.load(fh)
    meta["preset"]["pairs"] = pairs
    with open(path + ".meta", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(FormatError, match=f"^{re.escape(path)}\\.meta: effect index pair "
                                          f".* invalid for {kind.value}$"):
        load(path)


@pytest.mark.parametrize("edit, message", [
    (lambda meta: meta["preset"].update(name=5), "preset name must be a string"),
    (lambda meta: meta.update(prevalence=0.9), "prevalence must be the loaded labels' 0.5, got 0.9"),
    (lambda meta: meta.update(prevalence=True), "prevalence must be .*, got True"),
    (lambda meta: meta.update(prevalence="0.5"), "prevalence must be .*, got '0.5'"),
    (lambda meta: meta.update(extra=1), "unknown key 'extra'"),
    (lambda meta: meta["preset"].update(b=1), "unknown preset key 'b'"),
], ids=["name-5", "prevalence-0.9", "prevalence-true", "prevalence-string", "extra-key",
        "extra-preset-key"])
def test_load_rejects_names_and_prevalences_save_cannot_write(tmp_path, edit, message):
    # a balanced set: save writes its prevalence as the float 0.5
    path = str(tmp_path / "d.npy")
    save(generate(KIND, B1, 4, seed=66), path)
    with open(path + ".meta") as fh:
        meta = json.load(fh)
    edit(meta)
    with open(path + ".meta", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(FormatError, match=f"^{re.escape(path)}\\.meta: {message}$"):
        load(path)


def test_load_missing_sidecar(tmp_path):
    path = str(tmp_path / "missing.npy")
    with pytest.raises(FileNotFoundError):
        load(path)


def test_restrict_projects_columns():
    ds = generate(KIND, preset_by_name(KIND, "B10"), 120, seed=62)
    for name in ("B1", "B3", "B5", "B7"):
        preset = preset_by_name(KIND, name)
        sub = restrict(ds, preset)
        assert sub.preset == preset
        # two-qubit presets are prefixes of B10, so this is a leading slice
        assert np.array_equal(sub.features, ds.features[:, : preset.b])
        assert np.array_equal(sub.labels, ds.labels)
        assert np.array_equal(sub.stream_indices, ds.stream_indices)


def test_restrict_onto_its_own_preset_is_the_dataset_itself():
    ds = generate(KIND, preset_by_name(KIND, "B5"), 60, seed=64)
    assert restrict(ds, ds.preset) is ds
    assert restrict(ds, preset_by_name(KIND, "B5")) is ds
    # a column lookup would project every column of a repeated pair onto its last one
    toy = dataclasses.replace(ds, preset=MeasurementPreset(KIND, "toy", ((1, 1),) * 5))
    assert restrict(toy, toy.preset) is toy


def test_restrict_rejects_missing_pairs():
    ds = generate(KIND, preset_by_name(KIND, "B3"), 60, seed=63)
    stranger = MeasurementPreset(KIND, "offdiag", ((2, 1),))
    with pytest.raises(ValueError):
        restrict(ds, stranger)
    other_kind = preset_by_name(SystemKind.QUBIT_QUTRIT, "B1")
    with pytest.raises(ValueError):
        restrict(ds, other_kind)
