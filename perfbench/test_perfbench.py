"""Checks of the benchmark itself: its tables, and the trace's accounting.

    python3 -m pytest -q perfbench

Runs each workload at a small size, traced and untraced, in this process.
"""
from __future__ import annotations

import json
import os

import pytest

import run
import spans
import worker
import workloads
from cewlab import cli, dataset, evaluate, model, qlinalg, states

SMALL = {
    "gen-qq-b45": dict(n=400),
    "sweep-tq": dict(sizes=(2000, 500, 500), epochs=30),
    "audit-tq": dict(master=2000, epochs=8),
}
#: Counts that must repeat exactly between two traced runs of one input.
EXACT = ("qlinalg.rng_streams", "model.gradient.calls", "model.epochs",
         "dataset.draws", "dataset.regenerate.draws")


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        row[:3] for row in spans.LAYER_METRICS]
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in doc["end_to_end"])} in doc["end_to_end"]


@pytest.fixture(scope="module", params=sorted(SMALL))
def traced_twice(request, tmp_path_factory):
    name = request.param
    wl = workloads.WORKLOADS[name](5, str(tmp_path_factory.mktemp(name)), **SMALL[name])
    wl.setup()
    return name, worker.measure(wl, 0.0, trace=True), worker.measure(wl, 0.0, trace=True)


def test_traced_runs_pass_their_checks(traced_twice):
    _, first, second = traced_twice
    # the checks include: self times sum to the traced wall time, and traced
    # passes write the same bytes as untraced ones
    assert first["failed"] == 0 and second["failed"] == 0, first["messages"] + second["messages"]
    assert len(first["passes"]) == len(first["traced_passes"]) == worker.MIN_TRACED_PASSES
    assert first["digests"] == second["digests"]


def test_self_times_and_remainder_sum_to_the_traced_wall(traced_twice):
    _, first, _ = traced_twice
    layers = first["layers"]
    parts = sum(v for k, v in layers.items() if k.endswith(".self_s")) + layers["trace.remainder_s"]
    assert parts == pytest.approx(layers["trace.wall_s"], rel=1e-9)
    assert layers["trace.wall_s"] in first["traced_passes"]
    assert all(layers[k] >= -1e-9 for k in layers if k.endswith(".self_s"))


def test_exact_counts_repeat(traced_twice):
    _, first, second = traced_twice
    assert {k: first["layers"][k] for k in EXACT} == {k: second["layers"][k] for k in EXACT}


def test_counts_follow_the_workload(traced_twice):
    name, first, _ = traced_twice
    c = first["layers"]
    # one stream per sampled state, plus init and shuffle streams per model trained
    trained = len(workloads.SweepTq.presets) if name == "sweep-tq" else 0
    assert c["qlinalg.rng_streams"] == c["states.sample.draws"] + 2 * trained
    if name == "gen-qq-b45":
        assert c["dataset.kept"] == SMALL[name]["n"]
        assert c["dataset.draws"] == c["dataset.chunks"] * dataset.CHUNK == c["states.sample.draws"]
        assert c["measure.traces.pairs"] == c["dataset.draws"] * 45
        assert c["dataset.save.bytes"] > 0 and c["model.gradient.calls"] == 0
    elif name == "sweep-tq":
        n_train, _, _ = SMALL[name]["sizes"]
        epochs = SMALL[name]["epochs"]
        steps = -(-n_train // model.TrainConfig().batch_size)
        assert c["model.epochs"] == epochs * len(workloads.SweepTq.presets)
        assert c["model.gradient.calls"] == steps * c["model.epochs"]
        assert c["dataset.kept"] == sum(SMALL[name]["sizes"])
    else:
        assert c["dataset.regenerate.calls"] == c["evaluate.witness.calls"] == 2
        assert c["dataset.regenerate.draws"] == c["states.sample.draws"]
        assert 0.0 < c["dataset.regenerate.useful_ratio"] <= 1.0
        assert c["dataset.draws"] == 0 and c["model.gradient.calls"] == 0


def test_tracer_restores_every_name():
    before = {(m.__name__, f): getattr(m, f) for m in (cli, dataset, evaluate, model, qlinalg, states)
              for f in dir(m) if callable(getattr(m, f))}
    tracer = spans.Tracer()
    tracer.install()
    assert states.make_rng is not before[("cewlab.states", "make_rng")]
    tracer.uninstall()
    after = {(m.__name__, f): getattr(m, f) for m in (cli, dataset, evaluate, model, qlinalg, states)
             for f in dir(m) if callable(getattr(m, f))}
    assert after == before
