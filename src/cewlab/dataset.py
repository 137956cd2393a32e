"""Balanced dataset generation, stratified splits, and CSV persistence.

Records carry features, negativities and draw indices, and a record's label
is derived from its negativity. States are regenerated from the seed plus
each record's draw index, its own RNG stream, so any set of records' states
is rebuilt bit-identically by sampling exactly their streams. A Dataset is
frozen and regenerates its states at most once (Dataset.states).
"""
from __future__ import annotations

import json
import os
from contextlib import closing, suppress
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, starmap

import numpy as np

from .errors import (DegenerateLabels, DimensionMismatch, DrawBudgetExhausted, EmptyDataset,
                     FormatError)
from .measure import (MeasurementPreset, check_pairs, conditional_probabilities,
                      feature_traces_stack)
from .pool import ordered_map
from .qlinalg import _mulhilo
from .states import (ENTANGLE_EPS, SystemKind, negativity_stack, sample_density_stack,
                     sample_density_streams)

#: Draws per generation chunk, streams per regeneration slice, and rows per
#: block that save formats. Chunks and blocks are also the jobs of the
#: process pool (pool.ordered_map). generate draws chunk 0 in the calling
#: process only when n <= CHUNK, and otherwise every chunk in the pool;
#: save formats a file of one block in the calling process. Batch
#: composition does not change any record's bytes (each stream, each
#: eigensolve and each state's feature traces are independent of the
#: batch), so CHUNK only bounds transient memory and the size of a pool job
#: and, through generate's chunk budget, the draws spent on a quota. load
#: reads the CSV's bytes front to back, whole lines about LOAD_BLOCK bytes
#: at a time (readlines' size hint), parses each such block in one numpy
#: pass and reads no block past the one holding its first faulty line. A
#: block's lines, their joined bytes and the pass's per-cell arrays are its
#: transient memory: loading the 4000-record two-qubit B10 split of
#: perfbench's audit-tq raised the traced peak above the loaded arrays by
#: 0.68 MB with 32 KiB blocks, 0.42 MB with 16 KiB ones and 1.22 MB with
#: 64 KiB ones. 32 KiB blocks loaded it faster than 16, 64 and 128 KiB ones
#: (medians 9.4 against 12.2, 10.9 and 10.6 ms on a 2-core Xeon).
CHUNK = 1024
LOAD_BLOCK = 1 << 15


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


def _header(b: int) -> str:
    """The CSV header line, without its newline, of a dataset with b features."""
    return ",".join([f"f{i}" for i in range(1, b + 1)] + ["negativity", "label"])


# %.17g cells (_format_cells). A cell's slot is seven 4-byte words: its
# text, left-aligned, and a separator in the last byte. The longest text is
# 24 bytes, "-2.2250738585072014e-308". The fast path writes the fixed text
# "0.000" + 17 digits at bytes 2..23, so that "000" and the leading digit
# fill one word and the other 16 digits four, each looked up whole in
# _DIGITS4.
_SLOT = 28
# the doubles 1e-4, 1e-3, 1e-2 and 1e-1 each lie just above their power of
# ten, so a double's decade (searchsorted to the right) is 1, 2, 3 or 4
# exactly when 10**(decade - 5) <= x < 10**(decade - 4), and 0 or 5 outside
# [1e-4, 1)
_DECADES = np.array([1e-4, 1e-3, 1e-2, 1e-1, 1.0])
# 5**k by decade, for k = 21 - decade, the power of ten that puts a cell's
# 17 digits before the point (decades 0 and 5 leave the fast path)
_POW5 = np.array([1] + [5**(21 - decade) for decade in range(1, 5)] + [1], dtype=np.uint64)
_POINT = np.frombuffer(b"\0\0" + b"0.", dtype=np.uint32)[0]
_DIGITS4 = (np.arange(10000)[:, None] // [1000, 100, 10, 1] % 10
            + ord("0")).astype(np.uint8).view(np.uint32).ravel()
# bytes kept of the fast path's text, by decade and index of the last
# nonzero digit: "0.", 4 - decade zeros, and the digits up to that one (%g
# drops trailing zeros)
_KEEP = np.zeros((6, 17, _SLOT), dtype=bool)
_KEEP[1:5, :, 7:24] = np.tri(17, dtype=bool)
for _decade in range(1, 5):
    _KEEP[_decade, :, 2:8 - _decade] = True
_HALF = np.uint64(1 << 63)


def _format_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """("%.17g" % v) of each double v of x in a (len(x), _SLOT) byte slot, and the bytes to keep.

    A cell in [1e-4, 1), x = m·2**q with a 53-bit m, gets its 17 digits
    D = round-half-even(m·5**k·2**(q + k)), from the exact 128-bit product
    m·5**k (k <= 20, so 5**k fits in 47 bits): the correctly rounded digits
    that %.17g writes (Gay 1990; Adams, "Ryu revisited", 2019). A cell whose
    D falls outside [10**16, 10**17) (it rounds up into the next decade),
    and every cell outside [1e-4, 1), is formatted by % once per bit
    pattern, so that 0.0 and -0.0 keep their own text. The last byte of
    each slot is left for a separator.
    """
    bits = x.view(np.uint64)
    decade = np.searchsorted(_DECADES, x, side="right")
    mantissa = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    hi, lo = _mulhilo(_POW5[decade], mantissa)
    # D = (hi, lo) >> s, s = -(q + k), which is in [36, 50] on the fast path
    biased_exponent = (bits >> 52 & 0x7ff).astype(np.int64)
    s = np.clip(1054 + decade - biased_exponent, 1, 63).astype(np.uint64)
    digits = (hi << (64 - s)) | (lo >> s)
    dropped = lo << (64 - s)  # the bits shifted out, as a fraction of 2**64
    digits += (dropped > _HALF) | ((dropped == _HALF) & (digits & 1 == 1))
    fast = (decade % 5 != 0) & (digits >= 10**16) & (digits < 10**17)
    slow = np.flatnonzero(~fast)
    digits[slow] = 10**16  # in range for the tables; the slot is overwritten below
    head, tail = digits // 10**12, digits % 10**12
    chars = np.empty((len(x), _SLOT), dtype=np.uint8)
    words = chars.view(np.uint32)
    words[:, 0] = _POINT
    words[:, 1] = _DIGITS4[head // 10**4]
    words[:, 2] = _DIGITS4[head % 10**4]
    words[:, 3] = _DIGITS4[tail // 10**8]
    words[:, 4] = _DIGITS4[tail // 10**4 % 10**4]
    words[:, 5] = _DIGITS4[tail % 10**4]
    last = 16 - np.argmax(chars[:, 23:6:-1] != ord("0"), axis=1)
    keep = _KEEP[decade, last]
    if len(slow):
        patterns, which = np.unique(bits[slow], return_inverse=True)
        texts = np.array(["%.17g" % v for v in patterns.view(np.float64).tolist()],
                         dtype=f"S{_SLOT}").view(np.uint8).reshape(len(patterns), _SLOT)
        chars[slow] = texts[which]
        keep[slow] = chars[slow] != 0
    return chars, keep


def _format_rows(features: np.ndarray, negs: np.ndarray, labels: np.ndarray) -> bytes:
    """CSV lines, each ending in a newline, of one block of rows.

    Every float cell is "%.17g" % v, byte for byte (_format_cells): 17
    significant digits (C's max_digits10), which read back as the same
    double. The labels, as the doubles 0.0 and 1.0, are written 0 and 1.
    """
    b = features.shape[1]
    chars, keep = _format_cells(np.column_stack((features, negs, labels)).ravel())
    chars[:, -1] = ord(",")
    chars[b + 1::b + 2, -1] = ord("\n")
    keep[:, -1] = True
    return chars[keep].tobytes()


def save(ds: Dataset, path: str) -> None:
    """CSV of features and labels plus a .meta sidecar (both deterministic).

    Every float cell is "%.17g" % v, byte for byte, and reads back as the
    same double; load also reads the shortest-repr cells of older files.
    Rows are formatted CHUNK at a time in the process pool (one block or
    fewer in this process) by numpy (_format_rows: 9-11 ms per 1024
    qubit-qutrit B45 rows on a 2-core Xeon, against 25-31 ms for one %
    operation), and each block's bytes are written in order as it arrives.
    Both files are written under temporary names in path's directory and
    renamed into place once both are complete, so a save that fails (a
    lost worker, a full disk) leaves neither file nor a temporary.
    """
    columns = (ds.features, ds.negativities, ds.labels)
    blocks = [tuple(column[i:i + CHUNK] for column in columns)
              for i in range(0, ds.count, CHUNK)]
    paths = (path, path + ".meta")
    temps = [f"{p}.{os.getpid()}.tmp" for p in paths]
    try:
        # open, not tempfile, so that the files get the permissions open gives
        with open(temps[0], "wb") as fh, closing(ordered_map(_format_rows, blocks)) as texts:
            fh.write(_header(ds.preset.b).encode() + b"\n")
            fh.writelines(texts)
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


def _foreign(raw: bytes) -> bool:
    """Whether raw holds a byte no saved cell does: non-ASCII, space, tab, "\\v", "\\f", "_" or "+".

    float() reads " 0.25", "+0.25", "0.2_5", "0.25\\f" and "٠.25" (an
    Arabic-Indic zero) as 0.25; load refuses them as save cannot write them,
    and refuses a byte that is not UTF-8 as one more non-ASCII byte. The
    other bytes float() skips, "\\n" and "\\r", never reach a cell:
    bytes.splitlines ends a line at each.
    """
    return not raw.isascii() or any(c in raw for c in b" \t\v\f_+")


# _cell_values reads a cell "0." + k digits, 1 <= k <= _DIGITS, exactly: its
# digits, right-aligned, fill a slot of three little-endian 8-byte words,
# and _DIGIT_BYTES[k] masks off the slot's bytes before them (the cell's
# "0." and the text before it)
_DIGITS = 24
_PAD = b"0" * _DIGITS  # a line before a block's text, so that every slot lies in the text
_DIGIT_BYTES = np.array([[sum(0xff << 8 * j for j in range(8) if 8 * w + j >= _DIGITS - k)
                          for w in range(3)] for k in range(_DIGITS + 1)], dtype=np.uint64)
_TENS = np.array([float(10**k) for k in range(_DIGITS + 1)])
_FIVES = np.array([5**k for k in range(_DIGITS + 1)], dtype=np.uint64)
_BINADE = 2**52  # the mantissa of a power of two, hidden bit included


def _cell_values(raw: bytes, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """float() of each ASCII cell raw[start:end], or float()'s ValueError for the first it refuses.

    Each end must be at least _DIGITS, and below len(raw). A cell "0." + k
    digits, 1 <= k <= _DIGITS, of at most 19 significant digits is the
    decimal v = D / 10**k, 0 < D < 10**19 < 2**64, and is read exactly by
    _format_cells' arithmetic run backwards:
    1. the digits are read eight at a time as 8-byte words (SWAR; Lemire,
       "Number parsing at a gigabyte per second", 2021), giving D;
    2. one division gives a candidate c = D / 10**k within two ulps of v;
    3. with c = m·2**e and s = 2 - e - k, the integers D·2**s and 4m·5**k
       are v and c in units of 2**(e - 2)·10**-k, in which the midpoints
       next to c lie 2·5**k above and below it (5**k below at a power of
       two). Their exact 128-bit difference (qlinalg._mulhilo) moves c one
       ulp towards v where v lies beyond a midpoint, and c is then the
       correctly rounded double float() gives wherever v lies strictly
       between its two midpoints (Clinger, "How to read floating point
       numbers accurately", 1990).
    Every other cell, a tie and a candidate still off go through float(),
    in cell order.
    """
    buf = np.frombuffer(raw, dtype=np.uint8)
    k = ends - starts - 2
    digits = np.clip(k, 0, _DIGITS)
    slots = np.ndarray((len(raw) - _DIGITS + 1,), dtype=f"V{_DIGITS}", buffer=raw, strides=(1,))
    words = slots[ends - _DIGITS].view("<u8").reshape(-1, 3)
    words ^= 0x3030303030303030  # a digit byte's value, below 10 only for a digit
    words &= np.take(_DIGIT_BYTES, digits, axis=0)
    spare = words + 0x7676767676767676
    spare |= words  # a byte's top bit is set where it is not a digit
    # no index passes a cell's end: k refuses a cell shorter than "0." + 1 digit
    read = ((k >= 1) & (k <= _DIGITS) & (buf[starts] == ord("0"))
            & (buf[np.minimum(starts + 1, ends)] == ord("."))
            & ((spare[:, 0] | spare[:, 1] | spare[:, 2]) & 0x8080808080808080 == 0))
    # each word's eight digits as an integer below 10**8, in place
    spare = words >> 8
    words *= 10
    words += spare
    spare = words >> 16 & 0x000000FF000000FF
    spare *= 0x0000271000000001
    words &= 0x000000FF000000FF
    words *= 0x000F424000000064
    words += spare
    words >>= 32
    read &= words[:, 0] < 1000  # at most 19 significant digits, so D < 10**19
    d = words[:, 0] * 10**16 + words[:, 1] * 10**8 + words[:, 2]
    read &= d > 0
    bits = (d.astype(np.float64) / _TENS[digits]).view(np.uint64)
    mantissa = (bits & (_BINADE - 1) | _BINADE).view(np.int64)
    # s = 2 - e - k, e = exponent field - 1075; s > 54 - k >= 30 since D < 10**k
    s = 1077 - (bits >> 52).view(np.int64) - k
    read &= s < 64
    shift = np.minimum(s, 63).view(np.uint64)
    five_k = _FIVES[digits]
    hi, lo = _mulhilo(five_k, mantissa.view(np.uint64) << 2)
    # delta = D·2**s - 4m·5**k, read only where it fits in an int64
    low = d << shift
    delta_hi = (d >> (64 - shift)) - hi - (low < lo)
    delta = (low - lo).view(np.int64)
    read &= delta_hi.view(np.int64) == delta >> 63
    half = (five_k << 1).view(np.int64)  # half an ulp, c to the midpoint above
    step = (delta > half).astype(np.int64) - (delta < -(half >> (mantissa == _BINADE)))
    delta -= step * (half << 1)
    mantissa += step
    read &= ((mantissa >= _BINADE) & (mantissa < 2 * _BINADE) & (delta < half)
             & (delta > -(half >> (mantissa == _BINADE))))
    values = (bits.view(np.int64) + step).view(np.float64)
    slow = np.flatnonzero(~read)
    values[slow] = [float(raw[i:j].decode())
                    for i, j in zip(starts[slow].tolist(), ends[slow].tolist())]
    return values


def _parse_rows(lines: list[bytes], feats: np.ndarray, negs: np.ndarray,
                labels: np.ndarray) -> tuple[int, ValueError] | None:
    """Parse CSV record lines (bytes) into the given rows; (position, error) of the first bad line.

    One numpy pass over the block's bytes finds its fields, checks each
    line's field count and label, and converts the cells (_cell_values: the
    bits float() gives, or float()'s message for the first cell it
    refuses). A block that fails is parsed again, a line at a time, by this
    function, so a line's errors come in one order: its field count, a byte
    no saved cell holds (_foreign), a cell float() refuses, its label.
    """
    b = feats.shape[1]
    n = len(lines)
    try:
        raw = b"\n".join([_PAD, *lines, b""])
        buf = np.frombuffer(raw, dtype=np.uint8)
        separators = np.flatnonzero((buf == ord(",")) | (buf == ord("\n")))
        starts, ends = separators[:-1] + 1, separators[1:]
        if len(ends) != n * (b + 2) or (buf[ends[b + 1::b + 2]] != ord("\n")).any():
            raise ValueError(f"expected {b + 2} fields, got {len(ends)}")
        if _foreign(raw):
            cell = next(c for c in raw.replace(b"\n", b",").split(b",") if _foreign(c))
            raise ValueError("a cell must be ASCII without space, tab, '_' or '+', "
                             f"got {cell.decode(errors='backslashreplace')!r}")
        starts, ends = starts.reshape(n, b + 2), ends.reshape(n, b + 2)
        values = _cell_values(raw, starts[:, :-1].ravel(), ends[:, :-1].ravel()).reshape(n, b + 1)
        label = buf[starts[:, -1]]
        bad = np.flatnonzero((ends[:, -1] - starts[:, -1] != 1)
                             | ((label != ord("0")) & (label != ord("1"))))
        if len(bad):
            cell = lines[bad[0]].rsplit(b",", 1)[1].decode()
            raise ValueError(f"label must be 0 or 1, got {cell!r}")
        feats[:] = values[:, :b]
        negs[:] = values[:, b]
        labels[:] = label == ord("1")
    except ValueError as exc:
        if n == 1:
            return 0, exc
        for i, line in enumerate(lines):
            bad = _parse_rows([line], feats[i:i + 1], negs[i:i + 1], labels[i:i + 1])
            if bad is not None:
                return i, bad[1]
    return None


# the keys of the .meta sidecar save writes, and the only ones load reads
_META_KEYS = {"kind", "preset", "seed", "count", "prevalence", "stream_indices"}


def load(path: str) -> Dataset:
    """The Dataset save wrote to path and path.meta; FormatError names what save cannot write.

    A file that cannot be opened raises its OSError. The errors come in this
    order, each naming its file (and line, for a CSV line): the sidecar
    (JSON that does not decode, a missing or unknown key, an unknown kind, no
    pairs or a pair of effect indices the kind lacks, a preset name that is
    not a string, a seed outside [0, 2**64), a count that is
    not a non-negative integer, stream_indices that are not count distinct
    non-negative int64 draw indices). Then the CSV's bytes, read front to
    back in file order and no further than the first line save could not
    have written: a first line other than save's header, a record line with
    a field count other than the header's, a byte no saved cell holds (a
    non-ASCII byte, one that is not UTF-8 included), a cell float() cannot
    read or a label other than 0 or 1, and a record past the sidecar's
    count, once the records before it have parsed. Then fewer records than
    the sidecar's count, the first row whose feature is NaN or outside
    [0, 1], whose negativity is NaN or outside [0, 0.5], or whose label
    disagrees with its negativity, and last a sidecar prevalence other than
    the labels' mean.
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
        # the records' arrays before the index arrays, which would otherwise
        # split the heap space a freed dataset left (perfbench's gen-qq-b45
        # then peaked at 65 MB of resident memory, not 60-61 MB)
        feats = np.empty((count, preset.b))
        negs = np.empty(count)
        label_column = np.empty(count, dtype=bool)
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

    expected_header = _header(preset.b)
    with open(path, "rb") as fh:
        # a block is whole "\n" lines, so its lines end where splitlines()
        # on the whole file would end them
        blocks = (b"".join(chunk).splitlines()
                  for chunk in iter(lambda: fh.readlines(LOAD_BLOCK), []))
        first = next(blocks, [None])
        if first.pop(0) != expected_header.encode():
            raise FormatError(f"{path}:1: expected header {expected_header!r}")
        records = 0
        for block in chain([first], blocks):
            # in file order: a block's records up to the sidecar's count are
            # parsed, and a record past it is refused after them
            end = min(records + len(block), count)
            bad = _parse_rows(block[:end - records], feats[records:end], negs[records:end],
                              label_column[records:end])
            if bad is not None:
                raise FormatError(f"{path}:{records + 2 + bad[0]}: {bad[1]}") from bad[1]
            records += len(block)
            if records > count:
                break
    if records != count:
        raise FormatError(f"{path}: record count does not match sidecar count {count}")
    ds = Dataset(preset, feats, negs, seed, streams)
    # generate writes nothing else; the 1e-12 leaves room for eigensolver noise
    checks = (
        ("a feature is NaN or outside [0, 1]", ~((feats >= 0.0) & (feats <= 1.0)).all(axis=1)),
        ("negativity is NaN or outside [0, 0.5]", ~((negs >= 0.0) & (negs <= 0.5 + 1e-12))),
        (f"label disagrees with negativity > {ENTANGLE_EPS:g}", label_column != ds.labels),
    )
    bad = np.array([rows for _, rows in checks])
    if bad.any():
        row = int(bad.any(axis=0).argmax())
        raise FormatError(f"{path}:{row + 2}: {checks[int(bad[:, row].argmax())][0]}")
    # save writes the labels' mean as a JSON float
    if type(prevalence) is not float or prevalence != ds.prevalence:
        raise FormatError(f"{path}.meta: prevalence must be the loaded labels' "
                          f"{ds.prevalence!r}, got {prevalence!r}")
    return ds
