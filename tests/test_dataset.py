import dataclasses
import functools
import itertools
import json
import os
import pickle
import re
import tempfile
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cewlab import dataset, pool
from cewlab.dataset import (CHUNK, LOAD_BLOCK, generate, load, regenerate_states, restrict, save,
                            split)
from cewlab.errors import DegenerateLabels, DrawBudgetExhausted, EmptyDataset, FormatError
from cewlab.measure import MeasurementPreset, preset_by_name
from cewlab.states import SystemKind, negativity_stack, sample_density_stack
from oracles import load_by_line

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
        path = str(tmp_path / f"{kind.value}.csv")
        save(ds, path)
        back = load(path)
        assert back.kind is ds.kind is kind
        assert back.preset == ds.preset
        assert back.seed == ds.seed
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.negativities, ds.negativities)
        assert np.array_equal(back.labels, ds.labels)
        assert np.array_equal(back.stream_indices, ds.stream_indices)


def test_an_empty_dataset_round_trips_and_a_count_it_lacks_is_refused(tmp_path):
    preset = preset_by_name(KIND, "B3")
    empty = dataset.Dataset(preset, np.empty((0, preset.b)), np.empty(0), 62,
                            np.empty(0, dtype=np.int64))
    path = str(tmp_path / "empty.csv")
    save(empty, path)
    assert _file_bytes(path) == b"f1,f2,f3,negativity,label\n"
    assert json.loads(_file_bytes(path + ".meta"))["count"] == 0
    back = load(path)
    assert back.count == 0 and back.features.shape == (0, preset.b) and back.seed == 62
    # a header-only CSV whose sidecar says 2 records, and 2 records whose
    # sidecar says none
    two = str(tmp_path / "two.csv")
    save(generate(KIND, preset, 2, seed=62), two)
    for csv, meta in ((path, two), (two, path)):
        mixed = str(tmp_path / "mixed.csv")
        with open(mixed, "wb") as fh:
            fh.write(_file_bytes(csv))
        with open(mixed + ".meta", "wb") as fh:
            fh.write(_file_bytes(meta + ".meta"))
        count = json.loads(_file_bytes(meta + ".meta"))["count"]
        with pytest.raises(FormatError, match=f"mixed.csv: record count does not match sidecar "
                                              f"count {count}$"):
            load(mixed)


def test_save_is_byte_stable(tmp_path):
    ds = generate(KIND, preset_by_name(KIND, "B3"), 100, seed=60)
    # extremes of the 17-digit cells: exact 0 and 1, exponent notation, the
    # smallest subnormal, and a negative zero
    ds.features[:4, 1] = [0.0, 1.0, 1e-05, 5e-324]
    negs = ds.negativities.copy()
    negs[4] = -0.0
    ds = dataclasses.replace(ds, negativities=negs)
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    save(ds, p1)
    with open(p1, "rb") as fh:
        text = fh.read()
    rows = [line.split(",") for line in text.decode().splitlines()[1:]]
    assert [row[1] for row in rows[:4]] == ["0", "1", "1.0000000000000001e-05",
                                           "4.9406564584124654e-324"]
    assert rows[4][3:] == ["-0", "0"]
    lines = ["f1,f2,f3,negativity,label"] + [
        ",".join(["%.17g" % v for v in row] + ["%.17g" % neg, str(int(lab))])
        for row, neg, lab in zip(ds.features, ds.negativities, ds.labels)]
    assert text == ("\n".join(lines) + "\n").encode()
    save(load(p1), p2)
    for suffix in ("", ".meta"):
        with open(p1 + suffix, "rb") as fh:
            first = fh.read()
        with open(p2 + suffix, "rb") as fh:
            second = fh.read()
        assert first == second


# sign, an exponent field short of 0x7ff (inf and NaN), and the mantissa: every
# finite double, with the zero exponent field giving +-0 and the subnormals
_FINITE_BITS = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                         st.integers(0, 1), st.integers(0, 0x7fe), st.integers(0, 2**52 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(_FINITE_BITS, min_size=1, max_size=40))
@example([0, 1 << 63, 1, 2**52 - 1, 0x7fefffffffffffff, 0x3ff0000000000000, 0x3fb999999999999a])
def test_every_finite_double_reads_back_with_its_bits(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    rows = _format_two_columns(values)
    back = np.array([[float(row[0]), float(row[1])] for row in rows])
    assert np.array_equal(back.view(np.int64), np.column_stack((values, values)).view(np.int64))


def _format_two_columns(values):
    """_format_rows' cells of values as a feature and a negativity column, checked against %."""
    labels = np.arange(len(values)) % 2 == 1
    text = dataset._format_rows(values[:, None], values, labels).decode()
    rows = [line.split(",") for line in text.splitlines()]
    assert text.endswith("\n") and len(rows) == len(values)
    reference = ["%.17g" % v for v in values.tolist()]
    assert [row[0] for row in rows] == [row[1] for row in rows] == reference
    assert [row[2] for row in rows] == ["1" if lab else "0" for lab in labels]
    return rows


# the doubles 0 to 3 ulps either side of the double nearest each 10**-j, j = 0..4
_NEAR_POWERS = sorted({float(v) for j in range(5) for toward in (0.0, 2.0)
                       for v in itertools.accumulate(range(3), lambda v, _: np.nextafter(v, toward),
                                                     initial=float(f"1e-{j}"))})


def _tie(j: int, i: int) -> float:
    """An odd multiple of 2**-(17 + j) in [10**-j, 10**(1 - j)): its 18th digit is a final 5.

    Its decimal expansion ends at the (17 + j)th place after the point, in a
    5, and its first j - 1 places are zeros, so its 17 significant digits
    are an exact tie, which %.17g rounds to the even digit.
    """
    t = 17 + j
    first, end = -(-2**t // 10**j) // 2, 2**t * 10 // 10**j // 2
    return (2 * (first + i % (end - first)) + 1) * 2.0**-t


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.floats(1e-4, 1.0, exclude_max=True), st.sampled_from(_NEAR_POWERS),
                          st.builds(_tie, st.integers(1, 4), st.integers(0, 2**20))),
                min_size=1, max_size=200))
@example([_tie(1, 0), _tie(4, 0), 1e-4, 0.1, float(np.nextafter(0.1, 0.0)), 0.5 + 2**-18])
def test_fast_path_cells_are_the_reference_text(values):
    # one block: its cells near 1e-4 and 1 and at ties take the fast path,
    # and its two zeros the per-bit-pattern fallback
    _format_two_columns(np.array(values + [0.0, -0.0]))


def test_a_csv_written_with_repr_cells_loads_to_the_same_arrays(tmp_path):
    # CSVs written before the 17-digit cells spell every cell with repr
    ds = generate(KIND, preset_by_name(KIND, "B10"), 300, seed=61)
    ds.features[:3, 0] = [0.0, 1.0, 5e-324]
    now, old = str(tmp_path / "now.csv"), str(tmp_path / "old.csv")
    save(ds, now)
    lines = [dataset._header(ds.preset.b)] + [
        ",".join([repr(v) for v in row] + [repr(neg), str(int(lab))])
        for row, neg, lab in zip(ds.features.tolist(), ds.negativities.tolist(), ds.labels.tolist())]
    with open(old, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(now + ".meta", "rb") as src, open(old + ".meta", "wb") as dst:
        dst.write(src.read())
    assert _file_bytes(old) != _file_bytes(now)
    a, b = load(old), load(now)
    for field in ("features", "negativities", "stream_indices", "labels"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field
    assert np.array_equal(a.features.view(np.int64), ds.features.view(np.int64))
    assert np.array_equal(a.negativities.view(np.int64), ds.negativities.view(np.int64))


def test_pooled_save_writes_the_same_bytes(tmp_path, monkeypatch, cpus):
    # three full blocks and a partial one
    ds = generate(KIND, preset_by_name(KIND, "B10"), 3 * CHUNK + 10, seed=68, balanced=False)
    ds.features[CHUNK:CHUNK + 4, 1] = [0.0, 1.0, 1e-05, 5e-324]
    workers = _record_pool_workers(monkeypatch)
    paths = [str(tmp_path / "alone.csv"), str(tmp_path / "pooled.csv")]
    cpus(1)
    save(ds, paths[0])
    cpus(2)
    save(ds, paths[1])
    assert workers == [1, 2]
    for suffix in ("", ".meta"):
        alone, pooled = (_file_bytes(path + suffix) for path in paths)
        assert alone == pooled, suffix
    assert _file_bytes(paths[1]).count(b"\n") == ds.count + 1


def _file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _midpoint(x: float) -> Decimal:
    """The exact midpoint between the double x and the next double above it."""
    return (Decimal(x) + Decimal(float(np.nextafter(x, 2.0)))) / 2


def _near_midpoint(x: float, places: int, up: bool) -> str:
    """_midpoint(x) rounded down or up to places digits after the point: within 10**-places."""
    return format(_midpoint(x).quantize(Decimal(10) ** -places,
                                         rounding=ROUND_CEILING if up else ROUND_FLOOR), "f")


# the decade edges and the binade edges 2**-j the exact reader meets, each
# with its nextafter neighbours, as %.17g and repr write them
_EDGES = [text for edge in [1e-4, 1e-3, 0.01, 0.1] + [2.0**-j for j in range(1, 15)]
          for v in (float(np.nextafter(edge, 0.0)), edge, float(np.nextafter(edge, 2.0)))
          for text in ("%.17g" % v, repr(v))]
_UNIT = st.floats(1e-4, 1.0, exclude_max=True)

# cell text: digits, ".", "e", signs, "_", spaces, non-ASCII digits and
# spaces, arbitrary text, the repr and %.17g of any double and of doubles in
# [1e-4, 1), the cells the exact reader reads, "0." and 18-25 digits (more
# than 19 significant ones overflow 64 bits), text within 1e-20 of the
# midpoint between two adjacent doubles, and exact midpoints (ties)
_CELL_TEXT = st.one_of(
    st.text(st.sampled_from("0123456789.eE+-_ \t\u0660\u0969\uff11\u00a0"), max_size=10),
    st.text(max_size=10),
    st.floats().map(repr),
    st.floats().map(lambda v: "%.17g" % v),
    _UNIT.map(repr),
    _UNIT.map(lambda v: "%.17g" % v),
    st.sampled_from(_EDGES + ["0", "1", "5e-324", "nan", "-0"]),
    st.text(st.sampled_from("0123456789"), min_size=18, max_size=25).map("0.".__add__),
    st.builds(_near_midpoint, _UNIT, st.integers(20, 25), st.booleans()),
    _UNIT.map(lambda v: format(_midpoint(v), "f")),
)


def _cell_values(cells: list[str]) -> np.ndarray:
    """dataset._cell_values of the cells, laid out after its pad and one separator apart."""
    encoded = [cell.encode() for cell in cells]
    ends = len(dataset._PAD) + np.cumsum([len(cell) + 1 for cell in encoded]) - 1
    raw = dataset._PAD + b"".join(cell + b"," for cell in encoded)
    return dataset._cell_values(raw, ends - [len(cell) for cell in encoded], ends)


@settings(max_examples=300, deadline=None)
@given(st.lists(_CELL_TEXT, min_size=1, max_size=10))
@example(["0.25", "1_0", " 0.5", "+1", "\u0660.25", "\uff11", "-nan", "1e999"])
@example(["0.5", "x", "0.5\x00"])
@example(["0.5", ""])
# 19 significant digits and the 20-digit cells just above 2**64 / 10**20
@example(["0.9999999999999999999", "0.18446744073709551617", "0.19999999999999999999"])
def test_numpy_converts_cell_text_as_float_does(cells):
    # the premise of dataset._parse_rows: its one numpy pass over the cells
    # (_cell_values) gives each cell the bits float() gives it, or fails with
    # float()'s message for the first cell float() refuses
    try:
        want = np.array([float(c) for c in cells])
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            _cell_values(cells)
        assert str(got.value) == str(exc)
    else:
        assert _cell_values(cells).view(np.uint64).tolist() == want.view(np.uint64).tolist()


def test_load_reports_bad_lines(tmp_path):
    # several features per row, so a bad cell must be caught beside good ones
    ds = generate(KIND, preset_by_name(KIND, "B5"), 10, seed=61)
    path = str(tmp_path / "d.csv")
    save(ds, path)
    with open(path) as fh:
        lines = fh.read().splitlines()

    def rewrite(new_lines, target=path):
        with open(target, "w") as fh:
            fh.write("\n".join(new_lines) + "\n")

    rewrite(["bogus,header"] + lines[1:])
    with pytest.raises(FormatError, match=":1"):
        load(path)

    rewrite(lines[:5] + [lines[5].rsplit(",", 1)[0]] + lines[6:])
    with pytest.raises(FormatError, match=":6"):
        load(path)

    cells = lines[3].split(",")
    cells[-1] = "2"
    rewrite(lines[:3] + [",".join(cells)] + lines[4:])
    with pytest.raises(FormatError, match="label"):
        load(path)

    cells = lines[7].split(",")
    cells[0] = "not-a-number"
    rewrite(lines[:7] + [",".join(cells)] + lines[8:])
    with pytest.raises(FormatError, match=":8"):
        load(path)

    rewrite(lines[:-1])
    with pytest.raises(FormatError, match="count"):
        load(path)

    # cells that parse but that generate cannot write
    entangled = next(i for i, lab in enumerate(ds.labels, start=1) if lab)
    separable = next(i for i, lab in enumerate(ds.labels, start=1) if not lab)
    for row, column, value, message in [
        (4, 1, "nan", "feature"),
        (5, 2, "1.0000001", "feature"),
        (6, 4, "-1e-300", "feature"),
        (entangled, -2, "0.50001", "negativity"),
        (separable, -2, "-1e-09", "negativity"),
        (entangled, -2, "5e-08", "label"),
        (separable, -1, "1", "label"),
    ]:
        cells = lines[row].split(",")
        cells[column] = value
        rewrite(lines[:row] + [",".join(cells)] + lines[row + 1:])
        with pytest.raises(FormatError, match=f":{row + 1}: .*{message}"):
            load(path)

    # cells float() reads as 0.25 or 1.0 but save never writes: the line is
    # ASCII and holds no space, tab, "_" or "+"
    for row, value in enumerate(["0.2_5", " 0.25", "+0.25", "\u0660.25", "\uff11"], start=2):
        cells = lines[row].split(",")
        cells[1] = value
        rewrite(lines[:row] + [",".join(cells)] + lines[row + 1:])
        with pytest.raises(FormatError, match=f":{row + 1}: a cell must be ASCII without space, "
                                              f"tab, '_' or '\\+', got {re.escape(repr(value))}$"):
            load(path)

    # faults are reported in file order: a bad line before a missing record
    # at its line, and a record past the sidecar's count before a bad line
    # after it
    cells = lines[2].split(",")
    cells[0] = "not-a-number"
    rewrite(lines[:2] + [",".join(cells)] + lines[3:-1])
    with pytest.raises(FormatError, match=":3: could not convert string "):
        load(path)
    rewrite(lines + [lines[1], ",".join(cells)])
    with pytest.raises(FormatError, match=": record count does not match sidecar count 10$"):
        load(path)
    # lines end where bytes.splitlines ends them: "\r\n" ends one, and a form
    # feed after a cell, which float() would skip, is a byte no saved cell holds
    with open(path, "w", newline="\r\n") as fh:
        fh.write("\n".join(lines) + "\n")
    assert load(path).count == ds.count
    cells = lines[4].split(",")
    cells[0] += "\x0c"
    rewrite(lines[:4] + [",".join(cells)] + lines[5:])
    with pytest.raises(FormatError, match=f":5: a cell must be ASCII without space, tab, '_' or "
                                          f"'\\+', got {re.escape(repr(cells[0]))}$"):
        load(path)
    rewrite(lines)
    assert load(path).count == ds.count


BLOCK_RECORDS = 400  # three load blocks, the last one partial


@functools.cache
def _block_set() -> tuple[list[bytes], bytes, list[int]]:
    """A saved B10 set's lines (bytes, without newlines) and sidecar, and each load block's first record.

    A load block is the lines readlines(LOAD_BLOCK) returns: lines up to
    the first that takes their length past LOAD_BLOCK characters.
    """
    ds = generate(KIND, preset_by_name(KIND, "B10"), BLOCK_RECORDS, seed=64)
    with tempfile.TemporaryDirectory() as root:
        path = os.path.join(root, "base.csv")
        save(ds, path)
        lines = _file_bytes(path).split(b"\n")[:-1]
        meta = _file_bytes(path + ".meta")
    offsets = np.cumsum([0] + [len(line) + 1 for line in lines])  # each line's start, and the end
    starts = [0]  # line indices, the header being line 0
    while starts[-1] < len(lines):
        starts.append(int(np.searchsorted(offsets, offsets[starts[-1]] + LOAD_BLOCK, side="right")))
    return lines, meta, [0] + [start - 1 for start in starts[1:-1]]


@pytest.fixture(scope="module")
def block_csv(tmp_path_factory):
    """_block_set's lines, and a path sharing its sidecar."""
    lines, meta, firsts = _block_set()
    assert len(firsts) == 3 and BLOCK_RECORDS - firsts[2] < firsts[2] - firsts[1]
    path = str(tmp_path_factory.mktemp("blocks") / "copy.csv")
    with open(path + ".meta", "wb") as fh:
        fh.write(meta)
    return lines, path


# a cell's replacements; "0.25,0.25" adds a field, which a "drop" elsewhere in
# the block can balance
_CELLS = [b"nan", b"1_0", b" 0.5", b"x", b"0.25,0.25"]


@st.composite
def corruption(draw):
    """(edit, record index, position or replacement) of one corruption of one line."""
    last = BLOCK_RECORDS - 1
    # a block's first record, a record of the partial last block, or any
    row = draw(st.one_of(st.deferred(lambda: st.sampled_from(_block_set()[2])),
                         st.deferred(lambda: st.integers(_block_set()[2][-1], last)),
                         st.integers(0, last)))
    edit = draw(st.sampled_from(["insert", "crlf", "delete", "duplicate", "cut", "cell", "drop",
                                 "label"]))
    if edit == "insert":
        # form feed, vertical tab, file separator, NEL, line separator, lone
        # CR, a byte that is not UTF-8: str.splitlines would end a line at
        # all but the last, bytes.splitlines only at CR
        arg = (draw(st.sampled_from([b"\x0c", b"\x0b", b"\x1c", "\x85".encode(),
                                     "\u2028".encode(), b"\r", b"\xff"])),
               draw(st.integers(0, 200)))
    elif edit in ("cut", "cell", "drop"):
        arg = (draw(st.integers(0, 200)), draw(st.sampled_from(_CELLS)))
    elif edit == "label":
        arg = draw(st.sampled_from([b"2", b"1.0"]))
    else:
        arg = None
    return edit, row, arg


def _corrupt(lines: list[bytes], edits) -> bytes:
    rows = [line + b"\n" for line in lines[1:]]
    # edits apply from the last row up, so each names a row of the saved file;
    # a row's delete comes after its other edits, which then still find it
    for edit, row, arg in sorted(edits, key=lambda e: (-e[1], e[0] == "delete")):
        line = rows[row][:-1]
        if edit == "insert":
            text, at = arg
            at %= len(line) + 1
            rows[row] = line[:at] + text + line[at:] + b"\n"
        elif edit == "crlf":
            rows[row] = line + b"\r\n"
        elif edit == "delete":
            del rows[row]
        elif edit == "duplicate":
            rows.insert(row, rows[row])
        elif edit == "cut":
            rows[row] = line[:arg[0] % (len(line) + 1)] + b"\n"
        elif edit in ("cell", "drop"):
            cells = line.split(b",")
            cells[arg[0] % len(cells): arg[0] % len(cells) + 1] = [arg[1]] if edit == "cell" else []
            rows[row] = b",".join(cells) + b"\n"
        else:
            rows[row] = line.rsplit(b",", 1)[0] + b"," + arg + b"\n"
    return lines[0] + b"\n" + b"".join(rows)


def _outcome(loader, path):
    try:
        ds = loader(path)
    except FormatError as exc:
        return "error", str(exc)
    return "dataset", (ds.preset, ds.seed, ds.features.tolist(), ds.negativities.tolist(),
                       ds.labels.tolist(), ds.stream_indices.tolist())


def _one_delete_per_row(edits) -> bool:
    deleted = [row for edit, row, _ in edits if edit == "delete"]
    return len(deleted) == len(set(deleted))


@settings(max_examples=150, deadline=None)
@given(st.lists(corruption(), max_size=3).filter(_one_delete_per_row))
@example([("cell", 3, (0, b"0.25,0.25")), ("drop", 9, (0, None))])
@example([("delete", BLOCK_RECORDS - 1, None), ("crlf", BLOCK_RECORDS - 1, None)])
@example([("insert", 5, (b"\x0b", 0))])  # float() would skip it before a cell
def test_load_parses_blocks_as_the_per_line_parser_does(block_csv, edits):
    lines, path = block_csv
    with open(path, "wb") as fh:
        fh.write(_corrupt(lines, edits))
    assert _outcome(load, path) == _outcome(load_by_line, path)


def test_load_converts_a_clean_block_in_one_call(block_csv, monkeypatch):
    # a block is parsed again line by line only when it fails, up to its bad line
    lines, path = block_csv
    firsts = _block_set()[2]
    sizes = np.diff(firsts + [BLOCK_RECORDS]).tolist()
    calls = []
    parse = dataset._parse_rows

    def counted(block, *rows):
        calls.append(len(block))
        return parse(block, *rows)

    monkeypatch.setattr(dataset, "_parse_rows", counted)
    with open(path, "wb") as fh:
        fh.write(_corrupt(lines, []))
    assert load(path).count == BLOCK_RECORDS
    assert calls == sizes
    calls.clear()
    with open(path, "wb") as fh:
        fh.write(_corrupt(lines, [("cell", firsts[1] + 5, (0, b"x"))]))
    with pytest.raises(FormatError, match=f":{firsts[1] + 7}: could not convert string "):
        load(path)
    assert calls == sizes[:2] + [1] * 6


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
    path = str(tmp_path / "d.csv")
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
    path = str(tmp_path / "d.csv")
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
    path = str(tmp_path / "d.csv")
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
    path = str(tmp_path / "d.csv")
    save(generate(KIND, B1, 4, seed=66), path)
    with open(path + ".meta") as fh:
        meta = json.load(fh)
    edit(meta)
    with open(path + ".meta", "w") as fh:
        json.dump(meta, fh)
    with pytest.raises(FormatError, match=f"^{re.escape(path)}\\.meta: {message}$"):
        load(path)


def test_load_missing_sidecar(tmp_path):
    path = str(tmp_path / "missing.csv")
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
