"""Balanced dataset generation, stratified splits, and .npy persistence.

Records carry features, negativities and draw indices, and a record's label
is derived from its negativity. States are regenerated from the seed plus
each record's draw index, its own RNG stream, so any set of records' states
is rebuilt bit-identically by sampling exactly their streams. A Dataset is
frozen and regenerates its states at most once (Dataset.states). A saved
dataset is one .npy array of its features and negativities beside a JSON
sidecar of everything else (save, load).
"""
from __future__ import annotations

import json
import os
from contextlib import closing, suppress
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, starmap

import numpy as np
from numpy.lib import format as npy_format

from .errors import (DegenerateLabels, DimensionMismatch, DrawBudgetExhausted, EmptyDataset,
                     FormatError)
from .measure import (MeasurementPreset, check_pairs, conditional_probabilities,
                      feature_traces_stack)
from .pool import ordered_map
from .states import (ENTANGLE_EPS, SystemKind, negativity_stack, sample_density_stack,
                     sample_density_streams)

#: Draws per generation chunk and streams per regeneration slice. Chunks
#: are also the jobs of the process pool (pool.ordered_map). generate draws
#: chunk 0 in the calling process only when n <= CHUNK, and otherwise every
#: chunk in the pool. Batch composition does not change any record's bytes
#: (each stream, each eigensolve and each state's feature traces are
#: independent of the batch), so CHUNK only bounds transient memory and the
#: size of a pool job and, through generate's chunk budget, the draws spent
#: on a quota.
CHUNK = 1024


@dataclass(frozen=True)
class Dataset:
    """Records of one preset: features, negativities and the draw index of each.

    Frozen: no field is reassigned, and the arrays that fix the records'
    states and labels (negativities, stream_indices) are made read-only, so
    no write through the Dataset makes the states memo stale.
    dataclasses.replace, split and restrict (onto another preset) build new
    Datasets, each regenerating its own states, and a pickled copy carries
    no states and keeps both arrays read-only. Features stay writable.
    """
    preset: MeasurementPreset
    features: np.ndarray  # (n, B) float64, values in [0, 1]
    negativities: np.ndarray  # (n,) float64 regression targets
    seed: int
    stream_indices: np.ndarray  # (n,) int64 draw index of each record

    def __post_init__(self) -> None:
        self.negativities.flags.writeable = False
        self.stream_indices.flags.writeable = False

    def __getstate__(self) -> dict:
        # a copy regenerates its own states; a pool job ships none
        return {k: v for k, v in self.__dict__.items() if k != "states"}

    def __setstate__(self, state: dict) -> None:
        # unpickled arrays are writable under some protocols
        self.__dict__.update(state)
        self.__post_init__()

    @cached_property
    def states(self) -> np.ndarray:
        """regenerate_states(self), computed on first use; read-only.

        Every witness scored on this Dataset reads this one regeneration,
        which holds 16·d² bytes per record (256 B for two-qubit, 576 B for
        qubit-qutrit) while the Dataset lives.
        """
        states = regenerate_states(self)
        states.flags.writeable = False
        return states

    @property
    def kind(self) -> SystemKind:
        return self.preset.kind

    @property
    def labels(self) -> np.ndarray:  # (n,) bool, True = entangled
        return self.negativities > ENTANGLE_EPS

    @property
    def count(self) -> int:
        return len(self.negativities)

    @property
    def prevalence(self) -> float:
        return float(self.labels.mean()) if self.count else 0.0


def _draw_chunk(preset: MeasurementPreset, seed: int, chunk_index: int):
    """Features, negativities, labels, and validity for draw indices in one chunk.

    Runs in a pool worker, so it is a module-level function of picklable arguments.
    """
    kind = preset.kind
    mats = sample_density_stack(kind, seed, chunk_index * CHUNK, CHUNK)
    neg = negativity_stack(mats, kind)
    values, valid = conditional_probabilities(*feature_traces_stack(mats, kind, preset.pairs))
    return values, neg, neg > ENTANGLE_EPS, valid


def generate(kind: SystemKind, preset: MeasurementPreset, n: int, seed: int,
             balanced: bool = True) -> Dataset:
    """Sample states until n records are collected.

    A sample is kept while its class quota (n/2 each when balanced, n
    otherwise) is unfilled, so unbalanced mode reproduces the natural
    prevalences. Degenerate-conditioning draws are discarded either way.
    A kept record holds its features, negativity and draw index, and its
    label follows from the negativity; kept records are written straight
    into the Dataset's preallocated arrays. Where one chunk could hold the
    request (n <= CHUNK), chunk 0 is drawn in this process, so a dataset
    that fits in it starts no worker, and any later chunks are drawn in
    parallel (pool.ordered_map). Otherwise every chunk, chunk 0 included,
    is a pool job, so this process draws none while the workers run.
    Records are selected here, in draw order, so the result is the same.
    The dataset's kind is its preset's, so a preset of another kind raises
    ValueError.
    """
    if preset.kind is not kind:
        raise ValueError(f"preset is for {preset.kind.value}, dataset is {kind.value}")
    if n <= 0:
        raise ValueError("n must be positive")
    if balanced and n % 2:
        raise ValueError("balanced generation needs an even n")
    quota = n // 2 if balanced else n  # a quota of n refuses only what the total would
    taken = taken_pos = 0
    features = np.empty((n, preset.b))
    negs = np.empty(n)
    streams = np.empty(n, dtype=np.int64)
    # natural prevalences are >= 0.37 for both classes; this bound is never
    # approached unless the sampler itself is broken
    max_chunks = (8 * n) // CHUNK + 16
    jobs = [(preset, seed, i) for i in range(max_chunks)]
    here = 1 if n <= CHUNK else 0  # chunks drawn in this process before any pool starts
    rest = ordered_map(_draw_chunk, jobs[here:])
    with closing(rest):
        for chunk_index, (values, neg, entangled, valid) in enumerate(
                chain(starmap(_draw_chunk, jobs[:here]), rest)):
            # in draw order, a valid record is kept while its class quota and
            # the n-record total are unfilled
            pos = valid & entangled
            other = valid & ~entangled
            keep = ((pos & (taken_pos + np.cumsum(pos) <= quota))
                    | (other & (taken - taken_pos + np.cumsum(other) <= quota)))
            idx = np.flatnonzero(keep & (taken + np.cumsum(keep) <= n))
            end = taken + len(idx)
            features[taken:end] = values[idx]
            negs[taken:end] = neg[idx]
            streams[taken:end] = chunk_index * CHUNK + idx
            taken = end
            taken_pos += int(np.count_nonzero(entangled[idx]))
            if taken == n:
                break
        else:
            raise DrawBudgetExhausted(f"class quota not reached within {max_chunks * CHUNK} draws")
    return Dataset(preset, features, negs, seed, streams)


def regenerate_states(ds: Dataset) -> np.ndarray:
    """Density matrices of every record, shape (n, d, d), bit-identical to generation.

    Samples exactly the records' own streams, CHUNK of them at a time. This
    is the one function that samples a dataset's states; every call samples
    afresh and returns a new writable array. Dataset.states memoises it.
    """
    states = np.empty((ds.count, ds.kind.dim, ds.kind.dim), dtype=np.complex128)
    for start in range(0, ds.count, CHUNK):
        states[start:start + CHUNK] = sample_density_streams(
            ds.kind, ds.seed, ds.stream_indices[start:start + CHUNK])
    return states


def restrict(ds: Dataset, preset: MeasurementPreset) -> Dataset:
    """Project onto a preset whose pairs are a subset of ds's preset; ds itself for its own."""
    if preset == ds.preset:
        return ds  # the column lookup below would misread a preset that repeats a pair
    if preset.kind is not ds.kind:
        raise ValueError(f"preset is for {preset.kind.value}, dataset is {ds.kind.value}")
    positions = {pair: i for i, pair in enumerate(ds.preset.pairs)}
    try:
        columns = [positions[pair] for pair in preset.pairs]
    except KeyError as missing:
        raise ValueError(f"pair {missing} not measured in preset {ds.preset.name}") from None
    # features[:, columns] is F-contiguous; the copy gives the first layer's BLAS product C order
    return replace(ds, preset=preset, features=ds.features[:, columns].copy())


def split(ds: Dataset, fractions: tuple[float, float, float]) -> tuple[Dataset, Dataset, Dataset]:
    """Stratified, order-preserving three-way partition."""
    f = np.asarray(fractions, dtype=float)
    # written so that a NaN fraction fails each comparison
    if f.shape != (3,) or not (f >= 0).all() or not abs(f.sum() - 1.0) <= 1e-9:
        raise ValueError("fractions must be three non-negative numbers summing to 1")
    if ds.count == 0:
        raise EmptyDataset("cannot split an empty dataset")
    labels = ds.labels
    class_indices = [np.flatnonzero(labels), np.flatnonzero(~labels)]
    if any(len(idx) == 0 for idx in class_indices):
        raise DegenerateLabels("stratified split needs both classes present")
    parts: list[list[np.ndarray]] = [[], [], []]
    for idx in class_indices:
        bounds = np.round(np.cumsum(f) * len(idx)).astype(int)
        parts[0].append(idx[: bounds[0]])
        parts[1].append(idx[bounds[0]: bounds[1]])
        parts[2].append(idx[bounds[1]:])
    out = []
    for piece in parts:
        take = np.sort(np.concatenate(piece))
        if len(take) == 0:
            raise EmptyDataset("a requested split would be empty")
        # indexing with an index array already returns fresh C-contiguous arrays
        out.append(replace(ds, features=ds.features[take], negativities=ds.negativities[take],
                           stream_indices=ds.stream_indices[take]))
    return out[0], out[1], out[2]


def save(ds: Dataset, path: str) -> None:
    """The records as one .npy array at path, plus a .meta sidecar (both deterministic).

    The array is C-order little-endian float64 of shape (count, B + 1): each
    record's features, then its negativity, under numpy's version 1.0
    header, byte for byte what np.save writes for it. The labels follow from
    the negativities and are not stored. The sidecar holds the kind,
    preset, seed, count, prevalence and stream indices. Rows are laid out
    and written CHUNK at a time, so save holds no second copy of the
    records (one np.save of the whole array raised the peak RSS of gen of
    60,000 qubit-qutrit B45 records from 60 to 78 MB). Both files are
    written under temporary names in path's directory and renamed into
    place once both are complete, so a save that fails (a full disk, say)
    leaves neither file nor a temporary.
    """
    paths = (path, path + ".meta")
    temps = [f"{p}.{os.getpid()}.tmp" for p in paths]
    try:
        # open, not tempfile, so that the files get the permissions open gives
        with open(temps[0], "wb") as fh:
            npy_format.write_array_header_1_0(fh, {"descr": "<f8", "fortran_order": False,
                                                   "shape": (ds.count, ds.preset.b + 1)})
            for start in range(0, ds.count, CHUNK):
                rows = slice(start, start + CHUNK)
                fh.write(np.column_stack((ds.features[rows], ds.negativities[rows]))
                         .astype("<f8", copy=False))
        meta = {
            "kind": ds.kind.value,
            "preset": {"name": ds.preset.name, "pairs": [list(p) for p in ds.preset.pairs]},
            "seed": ds.seed,
            "count": ds.count,
            "prevalence": ds.prevalence,
            "stream_indices": ds.stream_indices.tolist(),
        }
        _write_json(meta, temps[1])
        for temp, final in zip(temps, paths):
            os.replace(temp, final)
    finally:
        for temp in temps:
            with suppress(FileNotFoundError):
                os.remove(temp)


def _write_json(doc: dict, path: str) -> None:
    """Write doc as 2-space-indented JSON with a final newline: every JSON artifact's layout."""
    # streamed: json.dumps would hold every token of a sidecar's indices at once
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


# the keys of the .meta sidecar save writes, and the only ones load reads
_META_KEYS = {"kind", "preset", "seed", "count", "prevalence", "stream_indices"}


def load(path: str) -> Dataset:
    """The Dataset save wrote to path and path.meta; FormatError names what save cannot write.

    A file that cannot be opened raises its OSError. The errors come in this
    order, each naming its file: the sidecar (JSON that does not decode, a
    missing or unknown key, an unknown kind, no pairs or a pair of effect
    indices the kind lacks, a preset name that is not a string, a seed
    outside [0, 2**64), a count that is not a non-negative integer,
    stream_indices that are not count distinct non-negative int64 draw
    indices). Then the data file's .npy header: a magic string numpy's
    reader refuses (a .npz or a CSV among them), any version but the 1.0
    that save writes, which is refused before a header length is read, or
    any header but a C-order little-endian float64 array of shape
    (count, B + 1), which is refused before the array is allocated (an
    object dtype, big-endian data, Fortran order, another rank or row
    count). Then data shorter than that array or bytes after it, the first
    row whose feature is NaN or outside [0, 1] or whose negativity is NaN
    or outside [0, 0.5], and last a sidecar prevalence other than the
    labels' mean. The features and negativities are column views of the
    one array read.
    """
    try:
        with open(path + ".meta") as fh:
            meta = json.load(fh)
        kind = SystemKind(meta["kind"])
        preset = MeasurementPreset(kind, meta["preset"]["name"],
                                   tuple(tuple(p) for p in meta["preset"]["pairs"]))
        check_pairs(kind, preset.pairs)
        if type(preset.name) is not str:
            raise ValueError("preset name must be a string")
        for doc, known, what in ((meta, _META_KEYS, "key"),
                                 (meta["preset"], {"name", "pairs"}, "preset key")):
            extra = sorted(set(doc) - known)
            if extra:
                raise ValueError(f"unknown {what} {extra[0]!r}")
        seed = meta["seed"]
        count = meta["count"]
        prevalence = meta["prevalence"]
        # save writes the seed and count as JSON integers, and generate takes
        # seeds in [0, 2**64) only; a float would otherwise be truncated
        if type(seed) is not int or not 0 <= seed < 2**64:
            raise ValueError("seed must be an integer in [0, 2**64)")
        if type(count) is not int or count < 0:
            raise ValueError("count must be a non-negative integer")
        streams = meta["stream_indices"]
        # generate writes count distinct non-negative int64 draw indices;
        # regeneration would silently sample the wrong stream for anything else
        refused = ValueError("stream_indices must be non-negative 64-bit integers")
        if not isinstance(streams, list) or not set(map(type, streams)) <= {int}:
            raise refused  # a bool, which np.array would read as 0 or 1, included
        if len(streams) != count:
            raise ValueError(f"stream_indices hold {len(streams)} draw indices for count {count}")
        try:
            streams = np.array(streams, dtype=np.int64)
        except OverflowError:
            raise refused from None
        if (streams < 0).any():
            raise refused
        if (np.diff(np.sort(streams)) == 0).any():
            raise ValueError("stream_indices repeat a draw index")
    except (json.JSONDecodeError, KeyError, ValueError, TypeError, DimensionMismatch) as exc:
        raise FormatError(f"{path}.meta: {exc}") from exc

    with open(path, "rb") as fh:
        # a 1.0 header's length is 2 bytes, so no more than 64 KiB is read for
        # it, and numpy refuses a header over 10,000 bytes
        try:
            version = npy_format.read_magic(fh)
            if version != (1, 0):
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
        except ValueError as exc:
            raise FormatError(f"{path}: not a .npy array: {exc}") from exc
        if (shape, fortran_order, dtype) != ((count, preset.b + 1), False, np.dtype("<f8")):
            order = "Fortran" if fortran_order else "C"
            raise FormatError(f"{path}: expected a C-order <f8 array of shape "
                              f"{(count, preset.b + 1)}, got a {order}-order {dtype.str} array "
                              f"of shape {shape}")
        block = np.empty(shape, dtype="<f8")
        read = fh.readinto(block)
        if read != block.nbytes:
            raise FormatError(f"{path}: data ends after {read} of its {block.nbytes} bytes")
        if fh.read(1):
            raise FormatError(f"{path}: bytes follow the {count} records")
    feats, negs = block[:, :-1], block[:, -1]
    # generate writes nothing else; the 1e-12 leaves room for eigensolver noise
    bad_feature = ~((feats >= 0.0) & (feats <= 1.0)).all(axis=1)
    bad = np.flatnonzero(bad_feature | ~((negs >= 0.0) & (negs <= 0.5 + 1e-12)))
    if len(bad):
        row = int(bad[0])
        raise FormatError(f"{path}: row {row}: " + ("a feature is NaN or outside [0, 1]"
                                                    if bad_feature[row] else
                                                    "negativity is NaN or outside [0, 0.5]"))
    ds = Dataset(preset, feats, negs, seed, streams)
    # save writes the labels' mean as a JSON float
    if type(prevalence) is not float or prevalence != ds.prevalence:
        raise FormatError(f"{path}.meta: prevalence must be the loaded labels' "
                          f"{ds.prevalence!r}, got {prevalence!r}")
    return ds
