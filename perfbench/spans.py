"""Per-layer tracing of cewlab from outside the package.

cewlab's modules import each other's functions by name (`from .x import f`),
so a call from one layer into another goes through the *calling* module's
namespace. The tracer wraps a function by replacing that name in every
calling module listed in `TARGETS`, keeps the spans in memory, and derives
each layer's self time as its span minus the time covered by child spans.
Nothing inside the package changes; `Tracer.uninstall` puts every original
back.
"""
from __future__ import annotations

import collections
import importlib
import os
import time

# Span names are "<module>.<function>" in the layer vocabulary of the package.
# Every target lists the modules whose global name is replaced, the caller
# first. A function or module that no longer exists is skipped: its metrics
# then read 0, which is what a refactor that removed the call should show.
TARGETS = (
    # (span name, defining module, function, calling modules); make_rng is
    # called once per draw, so it is counted but not timed
    ("qlinalg.rng", "cewlab.qlinalg", "make_rng", ("cewlab.states", "cewlab.model")),
    ("qlinalg.haar", "cewlab.qlinalg", "haar_from_ginibre", ("cewlab.states",)),
    ("qlinalg.jacobi", "cewlab.qlinalg", "jacobi_eigenvalues_stack",
     ("cewlab.states", "cewlab.evaluate")),
    ("states.sample", "cewlab.states", "sample_density_stack", ("cewlab.dataset",)),
    ("states.negativity", "cewlab.states", "negativity_stack", ("cewlab.dataset",)),
    ("states.collective", "cewlab.states", "collective_state_stack", ("cewlab.dataset",)),
    ("measure.traces", "cewlab.measure", "feature_traces_stack", ("cewlab.dataset",)),
    ("dataset.generate", "cewlab.dataset", "generate", ("cewlab.dataset", "cewlab.cli")),
    ("dataset.save", "cewlab.dataset", "save", ("cewlab.dataset", "cewlab.cli")),
    ("dataset.load", "cewlab.dataset", "load", ("cewlab.dataset", "cewlab.cli")),
    ("dataset.regenerate", "cewlab.dataset", "regenerate_states",
     ("cewlab.dataset", "cewlab.evaluate")),
    ("model.train", "cewlab.model", "train", ("cewlab.model", "cewlab.cli")),
    ("model.gradient", "cewlab.model", "gradient", ("cewlab.model",)),
    ("model.predict", "cewlab.model", "predict_negativity", ("cewlab.model", "cewlab.cli")),
    ("model.save", "cewlab.model", "save_model", ("cewlab.model", "cewlab.cli")),
    ("model.load", "cewlab.model", "load_model", ("cewlab.model", "cewlab.cli")),
    ("evaluate.roc", "cewlab.evaluate", "roc_curve", ("cewlab.evaluate", "cewlab.cli")),
    ("evaluate.write_roc", "cewlab.evaluate", "write_roc", ("cewlab.evaluate", "cewlab.cli")),
    ("evaluate.witness", "cewlab.evaluate", "baseline_rates",
     ("cewlab.evaluate", "cewlab.cli")),
    ("cli.sweep", "cewlab.cli", "run_sweep", ("cewlab.cli",)),
)

#: Name of the span the benchmark opens around one pass; its self time is the
#: part of the pass that no wrapped layer covers.
ROOT = "pass"


def _file_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in (path, path + ".meta") if os.path.exists(p))


def _count(tracer: "Tracer", name: str, args, kwargs, result) -> None:
    """Counters recorded at the boundary of the call that just returned."""
    c = tracer.counts
    if name == "qlinalg.jacobi":
        c["qlinalg.jacobi.matrices"] += len(args[0])
    elif name == "states.sample":
        draws = args[3] if len(args) > 3 else kwargs["count"]
        c["states.sample.draws"] += draws
        if tracer.active("dataset.generate"):
            c["dataset.chunks"] += 1
            c["dataset.draws"] += draws
        if tracer.active("dataset.regenerate"):
            c["dataset.regenerate.draws"] += draws
    elif name == "states.collective":
        c["states.collective.bytes"] += result.nbytes
    elif name == "measure.traces":
        mats = args[0]
        pairs = args[2] if len(args) > 2 else kwargs["pairs"]
        c["measure.traces.pairs"] += len(mats) * len(pairs)
        c["measure.traces.bytes"] += mats.nbytes
    elif name == "dataset.generate":
        c["dataset.kept"] += result.count
    elif name == "dataset.save":
        c["dataset.save.bytes"] += _file_bytes(args[1] if len(args) > 1 else kwargs["path"])
    elif name == "dataset.load":
        c["dataset.load.bytes"] += _file_bytes(args[0] if args else kwargs["path"])
    elif name == "dataset.regenerate":
        c["dataset.regenerate.calls"] += 1
        c["dataset.regenerate.records"] += len(result)
    elif name == "model.train":
        c["model.epochs"] += result.epochs_run
    elif name == "model.gradient":
        c["model.gradient.calls"] += 1
    elif name == "evaluate.witness":
        c["evaluate.witness.calls"] += 1


class Tracer:
    """In-memory span and counter recorder around cewlab's layer boundaries."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end]
        self.counts: collections.Counter = collections.Counter()
        self._open: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def active(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._open)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._open.clear()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self._open[-1] if self._open else -1, 0.0, 0.0])
        self._open.append(idx)
        self.spans[idx][2] = time.perf_counter()
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._open.pop()

    def _timed(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            _count(self, name, args, kwargs, result)
            return result
        return traced

    def _counted(self, key: str, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self) -> None:
        """Replace every target name in its calling modules with a wrapper."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for name, home, func, callers in TARGETS:
            try:
                original = getattr(importlib.import_module(home), func)
            except (ImportError, AttributeError):
                continue
            if name == "qlinalg.rng":
                wrapper = self._counted("qlinalg.rng_streams", original)
            else:
                wrapper = self._timed(name, original)
            for caller in callers:
                module = importlib.import_module(caller)
                if getattr(module, func, None) is original:
                    self._restore.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._restore):
            setattr(module, func, original)
        self._restore.clear()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time of its direct children."""
        out: dict[str, float] = collections.defaultdict(float)
        for name, parent, start, end in self.spans:
            duration = end - start
            out[name] += duration
            if parent >= 0:
                out[self.spans[parent][0]] -= duration
        return dict(out)

    def durations(self) -> dict[str, float]:
        """Seconds per span name, children included."""
        out: dict[str, float] = collections.defaultdict(float)
        for name, _, start, end in self.spans:
            out[name] += end - start
        return dict(out)


_WALL = "wall_s records_per_s"

#: Per-layer metrics of a traced pass: name, unit, which is better, the
#: end-to-end metrics a change to the layer should move, and where it shows.
#: BENCHMARK.json lists the first three columns in this order.
LAYER_METRICS = (
    ("qlinalg.rng_streams", "count", "lower", _WALL, "all three; largest share on audit-tq"),
    ("qlinalg.haar.self_s", "s", "lower", _WALL, "all three; largest share on audit-tq"),
    ("states.sample.self_s", "s", "lower", _WALL, "all three; largest share on audit-tq"),
    ("states.sample.draws", "count", "lower", _WALL, "all three; largest share on audit-tq"),
    ("qlinalg.jacobi.self_s", "s", "lower", "wall_s", "gen-qq-b45, audit-tq; small on sweep-tq"),
    ("qlinalg.jacobi.matrices", "count", "lower", "wall_s", "gen-qq-b45, audit-tq; small on sweep-tq"),
    ("states.negativity.self_s", "s", "lower", "wall_s", "gen-qq-b45, sweep-tq"),
    ("states.collective.self_s", "s", "lower", "wall_s peak_rss_mb", "gen-qq-b45; none on audit-tq"),
    ("states.collective.bytes", "bytes", "lower", "wall_s peak_rss_mb", "gen-qq-b45; none on audit-tq"),
    ("measure.traces.self_s", "s", "lower", "wall_s", "gen-qq-b45; none on audit-tq"),
    ("measure.traces.pairs", "count", "lower", "wall_s", "gen-qq-b45; none on audit-tq"),
    ("measure.traces.bytes", "bytes", "lower", "wall_s", "gen-qq-b45; none on audit-tq"),
    ("dataset.generate.self_s", "s", "lower", "wall_s", "gen-qq-b45, sweep-tq"),
    ("dataset.chunks", "count", "lower", "wall_s", "gen-qq-b45, sweep-tq"),
    ("dataset.draws", "count", "lower", "wall_s", "gen-qq-b45, sweep-tq"),
    ("dataset.kept", "count", "higher", "wall_s", "gen-qq-b45, sweep-tq"),
    ("dataset.keep_ratio", "ratio", "higher", "wall_s", "gen-qq-b45, sweep-tq"),
    ("dataset.save.self_s", "s", "lower", "wall_s", "gen-qq-b45 only"),
    ("dataset.save.bytes", "bytes", "lower", "wall_s", "gen-qq-b45 only"),
    ("dataset.load.self_s", "s", "lower", "wall_s", "audit-tq only"),
    ("dataset.load.bytes", "bytes", "lower", "wall_s", "audit-tq only"),
    ("dataset.regenerate.self_s", "s", "lower", "wall_s", "audit-tq only"),
    ("dataset.regenerate.calls", "count", "lower", "wall_s", "audit-tq only"),
    ("dataset.regenerate.draws", "count", "lower", "wall_s", "audit-tq only"),
    ("dataset.regenerate.useful_ratio", "ratio", "higher", "wall_s", "audit-tq only"),
    ("model.train.self_s", "s", "lower", "wall_s; auc must not move", "sweep-tq only"),
    ("model.gradient.self_s", "s", "lower", "wall_s; auc must not move", "sweep-tq only"),
    ("model.gradient.calls", "count", "lower", "wall_s; auc must not move", "sweep-tq only"),
    ("model.epochs", "count", "lower", "wall_s; auc must not move", "sweep-tq only"),
    ("model.epoch_s", "s", "lower", "wall_s; auc must not move", "sweep-tq only"),
    ("model.predict.self_s", "s", "lower", "wall_s", "audit-tq, sweep-tq"),
    ("model.save.self_s", "s", "lower", "wall_s", "sweep-tq only"),
    ("model.load.self_s", "s", "lower", "wall_s", "audit-tq only"),
    ("evaluate.roc.self_s", "s", "lower", "wall_s", "audit-tq, sweep-tq"),
    ("evaluate.write_roc.self_s", "s", "lower", "wall_s", "audit-tq, sweep-tq"),
    ("evaluate.witness.self_s", "s", "lower", "wall_s", "audit-tq only"),
    ("evaluate.witness.calls", "count", "lower", "wall_s", "audit-tq only"),
    ("cli.sweep.self_s", "s", "lower", "wall_s", "sweep-tq only"),
    ("trace.remainder_s", "s", "lower", "wall_s", "all three: pass time outside every traced layer"),
    ("trace.wall_s", "s", "lower", "wall_s", "all three: the traced pass, sum of all self times"),
    ("trace.overhead", "ratio", "lower", "none", "all three: traced over untraced pass time, minus 1"),
    ("trace.ref_s", "s", "lower", "none", "all three: the yardstick's median time, the machine speed seen"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of the pass the tracer recorded, except the two that
    compare passes: trace.overhead and trace.ref_s."""
    self_s = tracer.self_times()
    inclusive = tracer.durations()
    c = tracer.counts
    values: dict[str, float] = {}
    for name, *_ in LAYER_METRICS:
        if name.endswith(".self_s"):
            values[name] = self_s.get(name[:-len(".self_s")], 0.0)
        else:
            values[name] = c.get(name, 0)
    values["dataset.keep_ratio"] = _ratio(c["dataset.kept"], c["dataset.draws"])
    values["dataset.regenerate.useful_ratio"] = _ratio(c["dataset.regenerate.records"],
                                                       c["dataset.regenerate.draws"])
    values["model.epoch_s"] = _ratio(inclusive.get("model.train", 0.0), c["model.epochs"])
    values["trace.remainder_s"] = self_s[ROOT]
    values["trace.wall_s"] = inclusive[ROOT]
    del values["trace.overhead"], values["trace.ref_s"]
    return values
