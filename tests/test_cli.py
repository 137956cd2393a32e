import errno
import json
import multiprocessing
import os
import re
import shutil
import signal
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import cewlab
from cewlab import cli, dataset, evaluate, pool
from cewlab.cli import main, run_sweep
from cewlab.errors import DivergedTraining, DrawBudgetExhausted, WorkerDied
from cewlab.measure import preset_by_name
from cewlab.model import (TrainConfig, init_mlp, load_model, predict_negativity,
                          save_model, train)
from cewlab.states import SystemKind
from oracles import DATA_FILE_FAULTS

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def gen_args(path, preset="B3", n=600, seed=90, kind="two-qubit", unbalanced=False):
    args = ["gen", "--kind", kind, "--preset", preset, "--n", str(n),
            "--seed", str(seed), "--out", str(path)]
    if unbalanced:
        args.append("--unbalanced")
    return args


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Datasets and a trained model shared by the round-trip tests."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "train": str(root / "train.npy"),
        "val": str(root / "val.npy"),
        "test": str(root / "test.npy"),
        "model": str(root / "m.mlp.json"),
        "root": root,
    }
    assert main(gen_args(paths["train"], n=600, seed=90)) == 0
    assert main(gen_args(paths["val"], n=200, seed=91)) == 0
    assert main(gen_args(paths["test"], n=200, seed=92)) == 0
    assert main(["train", "--train", paths["train"], "--val", paths["val"],
                 "--out", paths["model"], "--max-epochs", "8",
                 "--batch-size", "64", "--seed", "5"]) == 0
    return paths


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("cewlab ")


def _src_env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cewlab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("module", ["cewlab", "cewlab.cli"])
def test_python_dash_m_runs_the_command_line(module):
    # the same command line without the installed console script
    env = _src_env()
    version = subprocess.run([sys.executable, "-m", module, "--version"],
                             env=env, capture_output=True, text=True, timeout=60)
    assert version.returncode == 0
    assert version.stdout == f"cewlab {cewlab.__version__}\n"
    unknown = subprocess.run([sys.executable, "-m", module, "frobnicate"],
                             env=env, capture_output=True, text=True, timeout=60)
    assert unknown.returncode == 2
    assert "invalid choice" in unknown.stderr


def test_gen_reports_shape_and_prevalence(tmp_path, capsys):
    out = str(tmp_path / "d.npy")
    assert main(gen_args(out, preset="B5", n=100, seed=3)) == 0
    line = capsys.readouterr().out.strip()
    assert line == f"wrote {out}: 100 records, 5 features, prevalence 0.5000"


def test_gen_writes_identical_bytes_per_seed(tmp_path):
    a = str(tmp_path / "a.npy")
    b = str(tmp_path / "b.npy")
    assert main(gen_args(a, n=200, seed=7)) == 0
    assert main(gen_args(b, n=200, seed=7)) == 0
    for suffix in ("", ".meta"):
        with open(a + suffix, "rb") as fh:
            first = fh.read()
        with open(b + suffix, "rb") as fh:
            second = fh.read()
        assert first == second


def test_train_prints_epoch_table(workspace, capsys):
    out = str(workspace["root"] / "again.mlp.json")
    assert main(["train", "--train", workspace["train"], "--val", workspace["val"],
                 "--out", out, "--max-epochs", "3", "--batch-size", "64",
                 "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "epoch  train_mse     val_mse"
    assert lines[1].startswith("    1  ")
    assert "e-" in lines[1] or "e+" in lines[1]
    assert lines[-1].startswith("best epoch ")
    assert out in lines[-1]


def test_train_manifest(workspace):
    with open(workspace["model"] + ".manifest.json") as fh:
        doc = json.load(fh)
    assert set(doc) == {"command", "flags", "seeds", "inputs", "outputs",
                        "version", "numpy", "blas_kernel", "duration_s"}
    assert doc["command"] == "train"
    assert doc["seeds"] == {"seed": 5}
    assert doc["inputs"] == [workspace["train"], workspace["val"]]
    assert doc["outputs"] == [workspace["model"]]


def _best_tpr(curve, cap: float) -> float:
    """The best TPR among the curve's points with FPR <= cap, by a plain max."""
    return float(curve.tpr[curve.fpr <= cap].max())


def test_eval_summary_and_artifacts(workspace, capsys):
    out = str(workspace["root"] / "r.roc.csv")
    svg = str(workspace["root"] / "r.svg")
    assert main(["eval", "--model", workspace["model"], "--test", workspace["test"],
                 "--out", out, "--svg", svg]) == 0
    test_ds = dataset.load(workspace["test"])
    curve = evaluate.roc_curve(
        predict_negativity(load_model(workspace["model"]), test_ds.features), test_ds.labels)
    assert capsys.readouterr().out == (
        f"AUC={curve.auc:.6f} TPR@FPR0.10={_best_tpr(curve, 0.10):.6f} "
        f"TPR@FPR0={_best_tpr(curve, 0.0):.6f}\n")
    with open(out) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "fpr,tpr,threshold"
    assert lines[-1].startswith("# auc=")
    with open(svg) as fh:
        drawing = fh.read()
    assert drawing.startswith("<svg ") and drawing.rstrip().endswith("</svg>")
    assert "polyline" in drawing


def test_eval_rerun_is_byte_identical(workspace):
    first = str(workspace["root"] / "r1.roc.csv")
    second = str(workspace["root"] / "r2.roc.csv")
    for out in (first, second):
        assert main(["eval", "--model", workspace["model"],
                     "--test", workspace["test"], "--out", out]) == 0
    with open(first, "rb") as fh:
        a = fh.read()
    with open(second, "rb") as fh:
        b = fh.read()
    assert a == b


def test_eval_refuses_a_model_of_another_kind(workspace, tmp_path, capsys):
    with open(workspace["model"]) as fh:
        meta = json.load(fh)["meta"]
    assert (meta["kind"], meta["preset"]) == ("two-qubit", "B3")
    assert meta["pairs"] == [[1, 1], [2, 2], [3, 3]]
    paths = {name: str(tmp_path / f"{name}.npy") for name in ("qq", "qq_val", "tq")}
    assert main(gen_args(paths["qq"], preset="B5", n=200, seed=93, kind="qubit-qutrit")) == 0
    assert main(gen_args(paths["qq_val"], preset="B5", n=100, seed=94, kind="qubit-qutrit")) == 0
    assert main(gen_args(paths["tq"], preset="B5", n=100, seed=95)) == 0
    qq_model = str(tmp_path / "qq.mlp.json")
    assert main(["train", "--train", paths["qq"], "--val", paths["qq_val"], "--out", qq_model,
                 "--max-epochs", "2", "--batch-size", "64"]) == 0
    capsys.readouterr()

    out = str(tmp_path / "x.roc.csv")
    assert main(["eval", "--model", qq_model, "--test", paths["tq"], "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "(qubit-qutrit B5) does not match" in err and "(two-qubit B5)" in err
    assert main(["eval", "--model", qq_model, "--test", paths["qq_val"], "--out", out]) == 0
    assert capsys.readouterr().out.startswith("AUC=")

    # a model file that records no training kind is refused too
    with open(qq_model) as fh:
        doc = json.load(fh)
    del doc["meta"]["kind"], doc["meta"]["pairs"]
    bare = str(tmp_path / "bare.mlp.json")
    with open(bare, "w") as fh:
        json.dump(doc, fh)
    assert main(["eval", "--model", bare, "--test", paths["qq_val"], "--out", out]) == 1
    assert "(no recorded kind) does not match" in capsys.readouterr().err


def test_usage_errors_exit_2(tmp_path, capsys):
    out = str(tmp_path / "d.npy")
    assert main(gen_args(out, preset="B99")) == 2
    assert "B99" in capsys.readouterr().err
    assert main(gen_args(out, n=601)) == 2  # balanced generation needs even n
    assert "even" in capsys.readouterr().err
    assert main(["baselines", "--kind", "qubit-qutrit", "--witness", "chsh",
                 "--n", "50"]) == 2
    assert "two-qubit" in capsys.readouterr().err
    assert main(["gen", "--kind", "two-qubit"]) == 2  # missing required flags
    capsys.readouterr()
    assert main(["gen", "--kind", "qux", "--preset", "B1", "--n", "10",
                 "--out", out]) == 2
    capsys.readouterr()
    assert main(["sweep", "--kind", "two-qubit", "--presets", "B1",
                 "--sizes", "0", "200", "200", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_out_of_range_exits_2(tmp_path, capsys, seed):
    rc = main(["gen", "--kind", "two-qubit", "--preset", "B1", "--n", "10",
               "--seed", seed, "--out", str(tmp_path / "d.npy")])
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must fit in an unsigned 64-bit integer\n"


@pytest.mark.parametrize("lr", ["0", "-0.001", "nan", "inf"])
def test_a_learning_rate_that_is_not_positive_and_finite_exits_2(workspace, tmp_path, capsys, lr):
    out = tmp_path / "x.mlp.json"
    rc = main(["train", "--train", workspace["train"], "--val", workspace["val"],
               "--lr", lr, "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: learning_rate must be a positive finite number, got {float(lr)}\n")
    assert not out.exists()


def test_a_patience_below_1_exits_2_writing_nothing(workspace, tmp_path, capsys):
    out = tmp_path / "x.mlp.json"
    rc = main(["train", "--train", workspace["train"], "--val", workspace["val"],
               "--patience", "0", "--batch-size", "64", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: patience must be at least 1\n")
    assert list(tmp_path.iterdir()) == []


def test_train_defaults_are_train_configs(workspace, tmp_path, monkeypatch):
    configs = []

    def record(m, train_ds, val_ds, cfg, on_epoch=None):
        configs.append(cfg)
        raise DivergedTraining("recorded")

    monkeypatch.setattr(cli, "train", record)
    assert main(["train", "--train", workspace["train"], "--val", workspace["val"],
                 "--out", str(tmp_path / "x.mlp.json")]) == 1
    assert configs == [TrainConfig()]


def test_a_diverging_train_prints_only_its_error(workspace, tmp_path):
    # a fresh process, whose stderr would show numpy's overflow warnings,
    # which only repeat the refusal
    out = tmp_path / "x.mlp.json"
    proc = subprocess.run([sys.executable, "-m", "cewlab", "train", "--train", workspace["train"],
                           "--val", workspace["val"], "--lr", "1e300", "--batch-size", "64",
                           "--out", str(out)],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: training loss became non-finite at epoch 1\n")
    assert not out.exists()


def test_quota_exhaustion_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(dataset, "negativity_stack", lambda mats, kind: np.zeros(len(mats)))
    assert main(gen_args(tmp_path / "d.npy", preset="B1", n=10)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: class quota not reached") and err.count("\n") == 1


def test_train_on_fewer_records_than_a_batch_exits_1(tmp_path, capsys):
    small = str(tmp_path / "small.npy")
    assert main(gen_args(small, n=40, seed=4)) == 0
    capsys.readouterr()
    rc = main(["train", "--train", small, "--val", small, "--batch-size", "500",
               "--out", str(tmp_path / "x.mlp.json")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: batch_size 500 exceeds the 40 training records\n"
    assert not os.path.exists(tmp_path / "x.mlp.json")


def test_data_errors_exit_1(workspace, tmp_path, capsys):
    other = str(tmp_path / "b1.npy")
    assert main(gen_args(other, preset="B1", n=100, seed=1)) == 0
    capsys.readouterr()

    rc = main(["train", "--train", workspace["train"], "--val", other,
               "--out", str(tmp_path / "x.mlp.json")])
    assert rc == 1
    assert "preset mismatch" in capsys.readouterr().err

    rc = main(["eval", "--model", workspace["model"], "--test", other,
               "--out", str(tmp_path / "x.roc.csv")])
    assert rc == 1  # 3-feature model cannot score a 1-feature dataset
    capsys.readouterr()

    rc = main(["eval", "--model", str(tmp_path / "missing.mlp.json"),
               "--test", other, "--out", str(tmp_path / "x.roc.csv")])
    assert rc == 1
    capsys.readouterr()

    broken = str(tmp_path / "broken.npy")
    with open(broken, "w") as fh:
        fh.write("not,a,dataset\n")
    with open(broken + ".meta", "w") as fh:
        fh.write("{}")
    rc = main(["train", "--train", broken, "--val", other,
               "--out", str(tmp_path / "x.mlp.json")])
    assert rc == 1
    capsys.readouterr()


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_eval_of_a_model_with_a_non_finite_weight_exits_1(workspace, tmp_path, capsys, bad):
    with open(workspace["model"]) as fh:
        doc = json.load(fh)
    doc["weights"][0][0][0] = bad
    model = str(tmp_path / "bad.mlp.json")
    with open(model, "w") as fh:
        json.dump(doc, fh)
    out = tmp_path / "x.roc.csv"
    rc = main(["eval", "--model", model, "--test", workspace["test"], "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {model}: a weight or bias is NaN or infinite\n")
    assert not out.exists()


def _widen_output(doc):
    doc["layer_sizes"][-1] = 2
    doc["weights"][-1] = [row * 2 for row in doc["weights"][-1]]
    doc["biases"][-1] = doc["biases"][-1] * 2


def _predict_nan(doc):
    # finite weights whose products overflow, so the last layer sums inf and -inf
    doc["weights"] = [[[1e308] * len(row) for row in w] for w in doc["weights"]]
    doc["weights"][-1] = [[(-1) ** i * 1e308] for i in range(len(doc["weights"][-1]))]


@pytest.mark.parametrize("edit, error", [
    (lambda doc: doc.update(activation="tanh"),
     "{model}: activation 'tanh' with output 'affine' is not relu with an affine output"),
    (lambda doc: doc.update(output="sigmoid"),
     "{model}: activation 'relu' with output 'sigmoid' is not relu with an affine output"),
    (_widen_output,
     "{model}: layer_sizes [3, 32, 16, 2] is not an input size followed by [32, 16, 1]"),
    (lambda doc: doc.update(layer_sizes=[1], weights=[], biases=[]),
     "{model}: layer_sizes [1] is not an input size followed by [32, 16, 1]"),
    (_predict_nan, "ROC needs 1-D non-NaN float scores and bool labels of the same length, "
                   "got (200,) scores and (200,) labels"),
], ids=["tanh", "sigmoid", "two-outputs", "no-layers", "nan-predictions"])
def test_eval_of_a_model_train_cannot_write_exits_1(workspace, tmp_path, capsys, edit, error):
    with open(workspace["model"]) as fh:
        doc = json.load(fh)
    edit(doc)
    model = str(tmp_path / "odd.mlp.json")
    with open(model, "w") as fh:
        json.dump(doc, fh)
    out = tmp_path / "x.roc.csv"
    rc = main(["eval", "--model", model, "--test", workspace["test"], "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == ("", f"error: {error.format(model=model)}\n")
    assert not out.exists()


def test_eval_of_overflowing_predictions_prints_only_its_error(workspace, tmp_path):
    # numpy's overflow warnings would otherwise reach stderr ahead of the refusal
    with open(workspace["model"]) as fh:
        doc = json.load(fh)
    _predict_nan(doc)
    model = str(tmp_path / "nanpred.mlp.json")
    with open(model, "w") as fh:
        json.dump(doc, fh)
    proc = subprocess.run([sys.executable, "-m", "cewlab", "eval", "--model", model,
                           "--test", workspace["test"], "--out", str(tmp_path / "x.roc.csv")],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == ("error: ROC needs 1-D non-NaN float scores and bool labels of the "
                           "same length, got (200,) scores and (200,) labels\n")


def test_eval_svg_escapes_a_preset_name_with_xml_specials(workspace, tmp_path, capsys):
    test = str(tmp_path / "odd.npy")
    shutil.copyfile(workspace["test"], test)
    with open(workspace["test"] + ".meta") as fh:
        meta = json.load(fh)
    meta["preset"]["name"] = "B3 <&>"
    with open(test + ".meta", "w") as fh:
        json.dump(meta, fh)
    svg = str(tmp_path / "odd.svg")
    assert main(["eval", "--model", workspace["model"], "--test", test,
                 "--out", str(tmp_path / "odd.roc.csv"), "--svg", svg]) == 0
    capsys.readouterr()
    labels = ET.parse(svg).getroot().iter("{http://www.w3.org/2000/svg}text")
    assert [node.text for node in labels][-1].startswith("B3 <&> AUC=0.")


def test_an_undecodable_dataset_exits_1_naming_its_path(workspace, tmp_path, capsys):
    bad = str(tmp_path / "bad.npy")
    shutil.copyfile(workspace["val"] + ".meta", bad + ".meta")
    # a byte that is not UTF-8 in place of the first byte of numpy's magic string
    with open(workspace["val"], "rb") as fh:
        data = fh.read()
    with open(bad, "wb") as fh:
        fh.write(b"\xff" + data[1:])
    rc = main(["train", "--train", workspace["train"], "--val", bad,
               "--out", str(tmp_path / "x.mlp.json")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {bad}: not a .npy array: the magic string is not correct; "
                          r"expected b'\x93NUMPY', got b'\xffNUMPY'")
    assert err.count("\n") == 1
    assert not os.path.exists(tmp_path / "x.mlp.json")


@pytest.mark.parametrize("fault", list(DATA_FILE_FAULTS))
def test_a_data_file_save_cannot_write_exits_1_with_one_line(workspace, tmp_path, capsys, fault):
    make, message = DATA_FILE_FAULTS[fault]
    bad = str(tmp_path / "bad.npy")
    shutil.copyfile(workspace["val"] + ".meta", bad + ".meta")
    with open(bad, "wb") as fh:
        fh.write(make(np.load(workspace["val"])))
    out = tmp_path / "x.mlp.json"
    assert main(["train", "--train", workspace["train"], "--val", bad, "--out", str(out)]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and err.count("\n") == 1
    assert re.match(f"error: {re.escape(bad)}: {message}", err)
    assert not out.exists()


def test_baselines_table(capsys):
    assert main(["baselines", "--kind", "two-qubit", "--n", "400",
                 "--seed", "80"]) == 0
    lines = capsys.readouterr().out.splitlines()
    kind = SystemKind.TWO_QUBIT
    ds = dataset.generate(kind, preset_by_name(kind, "B1"), 400, 80)
    assert lines == ["witness     sensitivity  fpr"] + [
        f"{w.value:<11s} {tpr:11.4f}  {fpr:.4f}"
        for w in evaluate.Witness for tpr, fpr in [evaluate.baseline_rates(ds, w)]]
    rows = [line.split() for line in lines[1:]]
    assert [r[0] for r in rows] == ["negativity", "chsh", "fef"]
    assert rows[0][1:] == ["1.0000", "0.0000"]
    assert all(r[2] == "0.0000" for r in rows)
    assert float(rows[1][1]) < float(rows[2][1])


def test_baselines_regenerate_once(capsys, regenerations):
    # the three witnesses read one regeneration, and the table keeps its bytes
    assert main(["baselines", "--kind", "two-qubit", "--n", "200", "--seed", "7"]) == 0
    assert regenerations == [200]
    assert capsys.readouterr().out == ("witness     sensitivity  fpr\n"
                                       "negativity       1.0000  0.0000\n"
                                       "chsh             0.0400  0.0000\n"
                                       "fef              0.6700  0.0000\n")


def test_baselines_single_witness(capsys):
    assert main(["baselines", "--kind", "two-qubit", "--witness", "fef",
                 "--n", "200", "--seed", "80"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[1].split()[0] == "fef"


def test_baselines_qubit_qutrit_defaults_to_negativity(capsys):
    assert main(["baselines", "--kind", "qubit-qutrit", "--n", "200",
                 "--seed", "80"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["negativity"]


def test_sweep_writes_per_preset_artifacts(tmp_path, capsys):
    out_dir = str(tmp_path / "nested" / "sweep")
    rc = main(["sweep", "--kind", "two-qubit", "--presets", "B1", "B3",
               "--sizes", "600", "200", "200", "--seed", "20",
               "--out-dir", out_dir, "--svg"])
    assert rc == 0
    log = capsys.readouterr().out
    for stem in ("two-qubit-B1", "two-qubit-B3"):
        for ext in (".mlp.json", ".roc.csv", ".svg"):
            with open(f"{out_dir}/{stem}{ext}") as fh:
                assert fh.read(1)
    with open(f"{out_dir}/summary.csv") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "preset,b,auc,tpr_at_fpr10,tpr_at_fpr0,epochs"
    assert len(lines) == 3
    for line, preset, b in zip(lines[1:], ("B1", "B3"), ("1", "3")):
        cells = line.split(",")
        assert (cells[0], cells[1]) == (preset, b)
        assert 0.5 < float(cells[2]) <= 1.0
    # each log line reads the curve of its saved model on the test split
    kind = SystemKind.TWO_QUBIT
    test_ds = dataset.split(dataset.generate(kind, preset_by_name(kind, "B10"), 1000, 20),
                            (0.6, 0.2, 0.2))[2]
    expected = []
    for line in lines[1:]:
        preset = preset_by_name(kind, line.split(",")[0])
        te = dataset.restrict(test_ds, preset)
        curve = evaluate.roc_curve(predict_negativity(
            load_model(f"{out_dir}/two-qubit-{preset.name}.mlp.json"), te.features), te.labels)
        expected.append(f"{preset.name}: B={preset.b} auc={curve.auc:.4f} "
                        f"tpr@fpr0.10={_best_tpr(curve, 0.10):.4f} "
                        f"epochs={line.split(',')[-1]}")
    assert log == "\n".join(expected + [f"wrote {out_dir}/summary.csv", ""])
    with open(f"{out_dir}/summary.csv.manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "sweep"
    stems = [f"{out_dir}/two-qubit-{preset}" for preset in ("B1", "B3")]
    assert manifest["outputs"] == [f"{out_dir}/summary.csv"] + [
        stem + ext for ext in (".mlp.json", ".roc.csv", ".svg") for stem in stems]
    stats = manifest["stats"]
    assert stats["workers"] >= 1
    assert list(stats["presets"]) == ["B1", "B3"]
    for line in lines[1:]:
        preset, epochs = line.split(",")[0], int(line.split(",")[-1])
        entry = stats["presets"][preset]
        assert set(entry) == {"train_s", "epochs", "steps"}
        assert entry["epochs"] == epochs
        assert entry["steps"] == epochs * 3  # 600 training records in batches of 256
        assert entry["train_s"] >= 0.0


@pytest.fixture
def no_generate(monkeypatch):
    """Fail any sweep that generates a master set for a request it must refuse."""
    def generate(*args, **kwargs):
        raise AssertionError("sweep generated a master set for a request it refuses")

    monkeypatch.setattr(cli, "generate", generate)


def test_sweep_with_fewer_training_records_than_a_batch_exits_1_before_generating(
        tmp_path, capsys, no_generate):
    rc = main(["sweep", "--kind", "two-qubit", "--presets", "B1",
               "--sizes", "100", "50", "50", "--out-dir", str(tmp_path / "sweep")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: TRAIN size 100 is smaller than the training batch of 256 records\n"
    assert not os.path.exists(tmp_path / "sweep")


def test_sweep_refuses_a_repeated_preset_before_generating(tmp_path, capsys, no_generate):
    rc = main(["sweep", "--kind", "two-qubit", "--presets", "B1", "B1", "B3",
               "--sizes", "600", "200", "200", "--out-dir", str(tmp_path / "sweep")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: preset B1 is listed more than once\n"
    assert not os.path.exists(tmp_path / "sweep")


@pytest.mark.parametrize("sizes", [("1000", "333", "333"), ("301", "101", "100")],
                         ids=["1000-333-333", "301-101-100"])
def test_sweep_refuses_split_sizes_that_are_not_even_before_generating(
        tmp_path, capsys, no_generate, sizes):
    # the stratified split of a balanced master would train on 1000/332/334
    # and 300/102/100 records instead
    rc = main(["sweep", "--kind", "two-qubit", "--presets", "B1", "--sizes", *sizes,
               "--out-dir", str(tmp_path / "sweep")])
    assert rc == 2
    assert capsys.readouterr() == (
        "", f"error: split sizes {' '.join(sizes)} must all be positive and even\n")
    assert not os.path.exists(tmp_path / "sweep")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_sweep_refuses_a_seed_out_of_range_before_making_its_out_dir(
        tmp_path, capsys, no_generate, seed):
    rc = main(["sweep", "--kind", "two-qubit", "--presets", "B1", "--sizes", "600", "200", "200",
               "--seed", seed, "--out-dir", str(tmp_path / "sweep")])
    assert rc == 2
    assert capsys.readouterr() == ("", "error: seed must fit in an unsigned 64-bit integer\n")
    assert not os.path.exists(tmp_path / "sweep")


def test_sweep_refuses_an_out_dir_it_cannot_make_before_generating(tmp_path, capsys, no_generate):
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main(["sweep", "--kind", "qubit-qutrit", "--presets", "B1",
               "--sizes", "600", "200", "200", "--out-dir", str(taken)])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(taken) in err


@pytest.mark.parametrize("error", [
    DrawBudgetExhausted("class quota not reached within 17408 draws"), MemoryError(""),
    WorkerDied("a worker process ended before returning its job")], ids=lambda e: type(e).__name__)
def test_a_sweep_whose_generation_fails_leaves_no_out_dir_it_made(
        tmp_path, capsys, monkeypatch, error):
    def generate(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "generate", generate)
    argv = ["sweep", "--kind", "two-qubit", "--presets", "B1", "--sizes", "600", "200", "200"]
    # the directories this run made go, a directory that was there stays
    assert main(argv + ["--out-dir", str(tmp_path / "made" / "sweep")]) == 1
    assert capsys.readouterr()[0] == "" and os.listdir(tmp_path) == []
    (tmp_path / "there").mkdir()
    assert main(argv + ["--out-dir", str(tmp_path / "there")]) == 1
    assert os.listdir(tmp_path) == ["there"] and os.listdir(tmp_path / "there") == []


@pytest.mark.parametrize("command", ["gen", "train", "eval", "sweep", "baselines"])
def test_each_artifact_command_writes_one_manifest(workspace, tmp_path, capsys, command):
    out = str(tmp_path / "out")
    stem = os.path.join(out, "two-qubit-B1")
    summary = os.path.join(out, "summary.csv")
    argv, primary, inputs, outputs = {
        "gen": (gen_args(out, n=100, seed=3), out, [], [out, out + ".meta"]),
        "train": (["train", "--train", workspace["train"], "--val", workspace["val"],
                   "--out", out, "--max-epochs", "2", "--batch-size", "64"],
                  out, [workspace["train"], workspace["val"]], [out]),
        "eval": (["eval", "--model", workspace["model"], "--test", workspace["test"],
                  "--out", out, "--svg", out + ".svg"],
                 out, [workspace["model"], workspace["test"]], [out, out + ".svg"]),
        "sweep": (["sweep", "--kind", "two-qubit", "--presets", "B1",
                   "--sizes", "256", "64", "64", "--out-dir", out],
                  summary, [], [summary, stem + ".mlp.json", stem + ".roc.csv"]),
        "baselines": (["baselines", "--kind", "two-qubit", "--n", "100"], None, None, None),
    }[command]
    assert main(argv) == 0
    capsys.readouterr()
    manifests = sorted(str(p) for p in tmp_path.rglob("*.manifest.json"))
    if primary is None:
        assert manifests == []
        return
    assert manifests == [primary + ".manifest.json"]
    with open(manifests[0]) as fh:
        doc = json.load(fh)
    assert (doc["command"], doc["inputs"], doc["outputs"]) == (command, inputs, outputs)
    # the last bits of every artifact depend on these (tests/test_fingerprint.py)
    assert (doc["numpy"], doc["blas_kernel"]) == (np.__version__, pool.blas_kernel())


def test_a_dataset_that_measures_no_pair_exits_1_naming_its_sidecar(workspace, tmp_path, capsys):
    # a sidecar with no pairs and an array of only the negativities: gen cannot write it
    bare = str(tmp_path / "bare.npy")
    with open(workspace["val"] + ".meta") as fh:
        meta = json.load(fh)
    meta["preset"]["pairs"] = []
    with open(bare + ".meta", "w") as fh:
        json.dump(meta, fh)
    with open(bare, "wb") as fh:
        np.save(fh, np.load(workspace["val"])[:, -1:])
    out = tmp_path / "x.mlp.json"
    rc = main(["train", "--train", bare, "--val", bare, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr() == (
        "", f"error: {bare}.meta: no effect index pairs: a preset measures at least one\n")
    assert not out.exists()


def _file_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_run_sweep_in_a_pool_matches_a_serial_loop(tmp_path, cpus):
    cpus(2)
    kind, presets, sizes, seed = SystemKind.TWO_QUBIT, ["B1", "B3", "B10"], (600, 200, 200), 20
    cfg = TrainConfig(batch_size=64, max_epochs=8, seed=seed)
    assert pool.worker_count(len(presets)) == 2
    rows = run_sweep(kind, presets, sizes, seed, str(tmp_path / "pool"), cfg=cfg)
    assert [r["preset"] for r in rows] == presets

    ds = dataset.generate(kind, preset_by_name(kind, "B10"), sum(sizes), seed)
    splits = dataset.split(ds, tuple(n / sum(sizes) for n in sizes))
    serial = tmp_path / "serial"
    serial.mkdir()
    summary = ["preset,b,auc,tpr_at_fpr10,tpr_at_fpr0,epochs"]
    for row, name in zip(rows, presets):
        preset = preset_by_name(kind, name)
        tr, va, te = (dataset.restrict(part, preset) for part in splits)
        result = train(init_mlp(preset.b, cfg), tr, va, cfg)
        curve = evaluate.roc_curve(predict_negativity(result.model, te.features), te.labels)
        save_model(result.model, str(serial / "model.json"))
        evaluate.write_roc(curve, str(serial / "roc.csv"))
        assert _file_bytes(row["model"]) == _file_bytes(serial / "model.json"), name
        assert _file_bytes(row["roc"]) == _file_bytes(serial / "roc.csv"), name
        summary.append(f"{name},{preset.b},{curve.auc!r},"
                       f"{_best_tpr(curve, 0.10)!r},"
                       f"{_best_tpr(curve, 0.0)!r},{result.epochs_run}")
    assert _file_bytes(tmp_path / "pool" / "summary.csv") == "\n".join(summary + [""]).encode()


def test_run_sweep_pooled_matches_one_cpu(tmp_path, cpus):
    # on two CPUs B1 trains in one worker and B3 and B10 in lockstep in the
    # other; on one CPU all three train in lockstep in this process
    args = SystemKind.TWO_QUBIT, ["B1", "B3", "B10"], (600, 200, 200), 24
    cfg = TrainConfig(batch_size=64, max_epochs=30, patience=1, seed=24)
    for count in (2, 1):
        cpus(count)
        rows = run_sweep(*args, str(tmp_path / str(count)), cfg=cfg)
    assert len({r["epochs"] for r in rows}) > 1
    names = sorted(os.listdir(tmp_path / "1"))
    assert names == sorted(os.listdir(tmp_path / "2")) and len(names) == 7
    for name in names:
        assert _file_bytes(tmp_path / "2" / name) == _file_bytes(tmp_path / "1" / name), name


@pytest.mark.parametrize("count, groups", [
    (1, [["B1", "B3", "B5", "B7", "B10"]]),
    (2, [["B1", "B3"], ["B5", "B7", "B10"]]),
    (3, [["B1"], ["B3", "B5"], ["B7", "B10"]]),
    (8, [["B1"], ["B3"], ["B5"], ["B7"], ["B10"]]),
])
def test_the_sweep_trains_one_contiguous_group_per_worker(tmp_path, cpus, monkeypatch,
                                                          count, groups):
    cpus(count)
    trained = []

    def in_this_process(fn, jobs):
        trained.extend([preset.name for preset in job[2]] for job in jobs)
        return (fn(*job) for job in jobs)
    monkeypatch.setattr(cli, "ordered_map", in_this_process)
    presets = ["B1", "B3", "B5", "B7", "B10"]
    rows = run_sweep(SystemKind.TWO_QUBIT, presets, (256, 50, 50), 5, str(tmp_path),
                     cfg=TrainConfig(max_epochs=1, seed=5))
    assert trained == groups
    assert [r["preset"] for r in rows] == presets
    # a group's presets share one training time
    times = {r["preset"]: r["stats"]["train_s"] for r in rows}
    assert all(len({times[name] for name in group}) == 1 for group in groups)


@pytest.mark.parametrize("count, presets, widths", [
    (2, ["B1", "B3", "B10"], [1, 10]),  # groups [B1] and [B3 B10]
    (1, ["B1", "B3"], [3]),  # one group, trained in this process
])
def test_a_sweep_job_holds_only_its_groups_widest_columns(tmp_path, cpus, monkeypatch,
                                                           count, presets, widths):
    cpus(count)
    sent = []

    def in_this_process(fn, jobs):
        sent.extend(jobs)
        return (fn(*job) for job in jobs)
    monkeypatch.setattr(cli, "ordered_map", in_this_process)
    run_sweep(SystemKind.TWO_QUBIT, presets, (256, 50, 50), 6, str(tmp_path),
              cfg=TrainConfig(max_epochs=1, seed=6))
    for train_ds, val_ds, group, _ in sent:
        widest = max(group, key=lambda p: p.b)
        for part in (train_ds, val_ds):
            assert part.preset == widest
            assert part.features.shape == (part.count, widest.b)
    assert [job[0].preset.b for job in sent] == widths


def test_a_diverging_preset_raises_out_of_the_pool(tmp_path, cpus):
    cpus(2)
    cfg = TrainConfig(learning_rate=1e300, batch_size=64, max_epochs=3, seed=3)
    with pytest.raises(DivergedTraining) as raised:
        run_sweep(SystemKind.TWO_QUBIT, ["B1", "B3"], (300, 100, 100), 3,
                  str(tmp_path), cfg=cfg)
    # the executor chains the worker's formatted traceback onto what it re-raises
    assert type(raised.value.__cause__).__name__ == "_RemoteTraceback"


def test_the_pool_needs_a_blas_thread_pin(monkeypatch, cpus):
    cpus(2)
    monkeypatch.setattr(pool, "_blas_thread_setter", lambda: None)
    for var in pool._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert pool.worker_count(5) == 1
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert pool.worker_count(5) == 2
    assert pool.worker_count(1) == 1


def _start_and_sleep(directory: str, index: int) -> int:
    open(os.path.join(directory, str(index)), "w").close()
    time.sleep(0.2)
    return index


def test_closing_the_pool_early_starts_at_most_one_job_more_than_it_has_workers(
        tmp_path, monkeypatch, cpus):
    # a consumer that stops after one result, as generate does at its quota,
    # waits for every job already started; the window bounds how many
    cpus(2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    results = pool.ordered_map(_start_and_sleep, [(str(tmp_path), i) for i in range(20)])
    assert next(results) == 0
    results.close()
    assert len(os.listdir(tmp_path)) <= 3


def test_the_blas_thread_setter_is_found_where_numpy_uses_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    assert "openblas" not in blas.lower() or pool._blas_thread_setter() is not None


def test_the_blas_kernel_is_named_where_numpy_uses_openblas():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    kernel = pool.blas_kernel()
    assert "openblas" not in blas.lower() or (isinstance(kernel, str) and kernel)


def test_importing_the_cli_leaves_the_process_pool_unloaded(tmp_path):
    # a 200-record gen fits in generate's first chunk, and save uses no pool,
    # so it runs in this process and starts no pool either, even where a BLAS
    # thread count of 1 would let one run
    env = dict(_src_env(), OPENBLAS_NUM_THREADS="1")
    code = "\n".join([
        "import sys, cewlab.cli",
        "def pool_modules():",
        "    return sorted(m for m in sys.modules",
        "                  if m.split('.')[0] in ('multiprocessing', 'concurrent'))",
        "print(pool_modules())",
        "args = ['gen', '--kind', 'qubit-qutrit', '--preset', 'B45', '--n', '200',",
        f"        '--seed', '1', '--out', {str(tmp_path / 'd.npy')!r}]",
        "assert cewlab.cli.main(args) == 0",
        "print(pool_modules())",
    ])
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "wrote " + str(tmp_path / "d.npy")
                                        + ": 200 records, 45 features, prevalence 0.5000", "[]"]


def _alive(pid: int) -> bool:
    """True while `pid` runs; a zombie, dead but not yet reaped, counts as gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="workers are tied to their parent through Linux's prctl")
def test_pool_workers_die_with_their_parent(tmp_path):
    # two jobs on two workers, each writing its pid and then sleeping; the
    # parent is then killed while it waits for the first result
    code = "\n".join([
        "import os, time",
        "from cewlab import pool",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "def job(path):",
        "    open(os.path.join(path, str(os.getpid())), 'w').close()",
        "    time.sleep(120)",
        f"list(pool.ordered_map(job, [({str(tmp_path)!r},)] * 2))",
    ])
    env = dict(_src_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", code], env=env)
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(name) for name in os.listdir(tmp_path)]
        assert len(workers) == 2, f"workers {workers}, parent exit code {proc.poll()}"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == -signal.SIGTERM
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if _alive(pid)]
    finally:
        proc.kill()
        proc.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)


def test_a_worker_whose_parent_is_gone_exits():
    # a worker forked by a parent that died before the worker could ask to
    # die with it has been left to another parent already
    code = "from cewlab import pool\npool._init_worker(-1, None)\nprint('still running')"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")


def test_run_sweep_argument_checks(tmp_path):
    with pytest.raises(ValueError):
        run_sweep(SystemKind.TWO_QUBIT, [], (100, 50, 50), 0, str(tmp_path))
    with pytest.raises(ValueError):
        run_sweep(SystemKind.TWO_QUBIT, ["B1"], (100, 0, 50), 0, str(tmp_path))


def test_baselines_false_positive_exits_1(capsys, monkeypatch):
    # the analytic witnesses cannot flag a separable state; scores above every
    # threshold stand in for a broken witness
    monkeypatch.setattr(evaluate, "witness_scores", lambda ds, witness: np.full(ds.count, 2.0))
    assert main(["baselines", "--kind", "two-qubit", "--witness", "fef",
                 "--n", "200", "--seed", "80"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[1].split() == ["fef", "1.0000", "1.0000"]
    assert err == "error: the fef witness flagged separable states (FPR 1.0)\n"


_TEST_PID = os.getpid()


def _kill_own_worker(*_) -> None:
    """A pool job that kills the worker running it with SIGKILL; never this test process."""
    if os.getpid() == _TEST_PID:
        raise RuntimeError("a job meant for a pool worker ran in the test process")
    os.kill(os.getpid(), signal.SIGKILL)


def test_a_killed_worker_raises_worker_died_and_leaves_no_child(cpus, monkeypatch):
    cpus(2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    with pytest.raises(WorkerDied):
        list(pool.ordered_map(_kill_own_worker, [()] * 4))
    assert multiprocessing.active_children() == []


def test_gen_whose_worker_is_killed_exits_1_with_one_line_and_no_file(
        tmp_path, cpus, monkeypatch, capsys):
    # 4096 records span several chunks, all of them pool jobs
    cpus(2)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(dataset, "_draw_chunk", _kill_own_worker)
    assert main(gen_args(tmp_path / "d.npy", n=4096)) == 1
    assert capsys.readouterr() == ("", "error: a worker process ended before returning its job\n")
    assert os.listdir(tmp_path) == []


def _disk_full(*_) -> None:
    raise OSError(errno.ENOSPC, "No space left on device")


@pytest.mark.parametrize("n_cpus, message", [
    (1, "No space left on device"), (2, "No space left on device")])
def test_gen_whose_save_fails_exits_1_and_leaves_no_file(
        tmp_path, cpus, monkeypatch, capsys, n_cpus, message):
    # 4096 records are several chunks, pool jobs on 2 CPUs; save runs in this
    # process either way, and the disk fills once the data file is written
    cpus(n_cpus)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setattr(dataset, "_write_json", _disk_full)
    assert main(gen_args(tmp_path / "d.npy", n=4096)) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and message in err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("message", [
    "Unable to allocate 3.27 TiB for an array with shape (10000000000, 45) and data type float64",
    ""])
def test_gen_out_of_memory_exits_1_with_one_line(tmp_path, monkeypatch, capsys, message):
    # a request too large to allocate, without allocating: numpy's
    # MemoryError carries its message, Python's own carries none
    def refuse(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "generate", refuse)
    assert main(gen_args(tmp_path / "d.npy", n=10**10)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message or 'out of memory'}\n"
    assert os.listdir(tmp_path) == []


def test_a_pooled_sweep_process_never_imports_numpy_random(tmp_path):
    # the models are built in the workers (cli._train_group), and numpy.random
    # is what building one imports
    code = "\n".join([
        "import os, sys",
        "os.sched_getaffinity = lambda pid: {0, 1}",
        "from cewlab import pool",
        "from cewlab.cli import run_sweep",
        "from cewlab.model import TrainConfig",
        "from cewlab.states import SystemKind",
        "assert pool.worker_count(2) == 2",
        "run_sweep(SystemKind.TWO_QUBIT, ['B1', 'B3'], (1200, 400, 400), 8,",
        f"          {str(tmp_path)!r}, cfg=TrainConfig(batch_size=64, max_epochs=2, seed=8))",
        "assert 'numpy.random' not in sys.modules",
    ])
    env = dict(_src_env(), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_every_json_artifact_has_the_one_layout(tmp_path):
    # 2-space indentation and a final newline, for the files no digest covers too
    data, model, roc = (str(tmp_path / name) for name in ("d.npy", "m.mlp.json", "m.roc.csv"))
    assert main(gen_args(data, n=600)) == 0
    assert main(["train", "--train", data, "--val", data, "--max-epochs", "2",
                 "--batch-size", "64", "--seed", "1", "--out", model]) == 0
    assert main(["eval", "--model", model, "--test", data, "--out", roc]) == 0
    assert main(["sweep", "--kind", "two-qubit", "--presets", "B1", "--sizes", "300", "100",
                 "100", "--seed", "3", "--out-dir", str(tmp_path / "sweep")]) == 0
    written = [data + ".meta", model] + [path + ".manifest.json" for path in (data, model, roc)]
    written += [str(tmp_path / "sweep" / name)
                for name in ("two-qubit-B1.mlp.json", "summary.csv.manifest.json")]
    json_files = {os.path.join(root, name) for root, _, names in os.walk(tmp_path)
                  for name in names if name.endswith((".json", ".meta"))}
    assert json_files == set(written)
    for path in written:
        with open(path, newline="") as fh:
            text = fh.read()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path
