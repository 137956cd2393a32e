"""The three benchmark workloads: inputs from a seed, one pass, output checks.

Every call into cewlab goes through a module attribute (`dataset.generate`,
not a name imported once), so the tracer in `spans.py` sees the benchmark's
own calls as well as the calls between cewlab's modules.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from cewlab import cli, dataset, evaluate, measure, model, states

TWO_QUBIT = states.SystemKind.TWO_QUBIT
QUBIT_QUTRIT = states.SystemKind.QUBIT_QUTRIT

#: Epoch count of every training run. Patience equal to the budget turns
#: early stopping off, so a pass does the same work whatever the seed.
EPOCHS = 40


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_array(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def fixed_epochs(seed: int, epochs: int = EPOCHS) -> model.TrainConfig:
    return model.TrainConfig(seed=seed, max_epochs=epochs, patience=epochs)


class Checks:
    """Counts operations and output checks attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)
        return ok


def _same_dataset(a: dataset.Dataset, b: dataset.Dataset) -> bool:
    return (a.kind is b.kind and a.preset == b.preset and a.seed == b.seed
            and np.array_equal(a.features, b.features)
            and np.array_equal(a.negativities, b.negativities)
            and np.array_equal(a.labels, b.labels)
            and np.array_equal(a.stream_indices, b.stream_indices))


@dataclass
class GenQqB45:
    """`cewlab gen` at the largest qubit-qutrit preset: generate, then save."""

    seed: int
    workdir: str
    n: int = 20000
    name = "gen-qq-b45"

    def setup(self) -> None:
        self.preset = measure.preset_by_name(QUBIT_QUTRIT, "B45")
        self.out = os.path.join(self.workdir, "gen-qq-b45.csv")
        self.auc = None

    @property
    def records(self) -> int:
        return self.n

    def run(self) -> dataset.Dataset:
        ds = dataset.generate(QUBIT_QUTRIT, self.preset, self.n, self.seed, balanced=True)
        dataset.save(ds, self.out)
        return ds

    def check(self, ds: dataset.Dataset, checks: Checks) -> dict[str, str]:
        half = self.n // 2
        checks.expect(int(ds.labels.sum()) == half and int((~ds.labels).sum()) == half,
                      "gen: classes are not n/2 each")
        checks.expect(ds.features.shape == (self.n, self.preset.b)
                      and bool(np.all((ds.features >= 0.0) & (ds.features <= 1.0))),
                      "gen: features outside [0, 1]")
        checks.expect(np.array_equal(ds.labels, ds.negativities > states.ENTANGLE_EPS),
                      "gen: label disagrees with neg > ENTANGLE_EPS")
        checks.expect(_same_dataset(dataset.load(self.out), ds),
                      "gen: load of the written CSV differs from the generated arrays")
        if self.auc is None:
            # the output's quality: how well its best single feature separates
            # the classes, in whichever direction it points
            aucs = [evaluate.roc_curve(ds.features[:, j], ds.labels).auc
                    for j in range(self.preset.b)]
            self.auc = max(max(aucs), 1.0 - min(aucs))
        return {"csv": sha256_file(self.out), "meta": sha256_file(self.out + ".meta")}


@dataclass
class SweepTq:
    """The two-qubit preset sweep over shared splits, at a fixed epoch budget."""

    seed: int
    workdir: str
    sizes: tuple[int, int, int] = (8000, 2000, 2000)
    epochs: int = EPOCHS
    name = "sweep-tq"
    presets = ("B1", "B3", "B5", "B7", "B10")

    def setup(self) -> None:
        self.cfg = fixed_epochs(self.seed, self.epochs)
        self.out_dir = os.path.join(self.workdir, "sweep")
        self.auc = None

    @property
    def records(self) -> int:
        return sum(self.sizes)

    def run(self) -> list[dict]:
        return cli.run_sweep(TWO_QUBIT, list(self.presets), self.sizes, self.seed,
                             self.out_dir, cfg=self.cfg)

    def check(self, rows: list[dict], checks: Checks) -> dict[str, str]:
        auc = [r["auc"] for r in rows]
        checks.expect([r["preset"] for r in rows] == list(self.presets)
                      and all(r["epochs"] == self.epochs for r in rows),
                      "sweep: rows or epoch counts differ from the request")
        checks.expect(auc[-1] > auc[0], f"sweep: AUC does not rise from B1 to B10: {auc}")
        self.auc = auc[-1]
        digests = {}
        for r in rows:
            digests[f"{r['preset']}.model"] = sha256_file(r["model"])
            digests[f"{r['preset']}.roc"] = sha256_file(r["roc"])
        return digests


@dataclass
class AuditTq:
    """Score a saved two-qubit B10 model and its test split, and audit witnesses."""

    seed: int
    workdir: str
    master: int = 16000
    epochs: int = EPOCHS
    name = "audit-tq"

    def setup(self) -> None:
        preset = measure.preset_by_name(TWO_QUBIT, "B10")
        ds = dataset.generate(TWO_QUBIT, preset, self.master, self.seed)
        train_ds, val_ds, self.test = dataset.split(ds, (0.5, 0.25, 0.25))
        cfg = fixed_epochs(self.seed, self.epochs)
        result = model.train(model.init_mlp(preset.b, cfg), train_ds, val_ds, cfg)
        self.model_path = os.path.join(self.workdir, "audit.mlp.json")
        self.test_path = os.path.join(self.workdir, "audit-test.csv")
        self.roc_path = os.path.join(self.workdir, "audit.roc.csv")
        model.save_model(result.model, self.model_path)
        dataset.save(self.test, self.test_path)
        self.states_digest = None
        self.auc = None

    @property
    def records(self) -> int:
        return self.test.count

    def run(self):
        test = dataset.load(self.test_path)
        mlp = model.load_model(self.model_path)
        curve = evaluate.roc_curve(model.predict_negativity(mlp, test.features), test.labels)
        evaluate.write_roc(curve, self.roc_path)
        chsh = evaluate.baseline_rates(test, evaluate.Witness.CHSH)
        fef = evaluate.baseline_rates(test, evaluate.Witness.FEF)
        return test, curve, chsh, fef

    def check(self, out, checks: Checks) -> dict[str, str]:
        test, curve, (chsh_tpr, chsh_fpr), (fef_tpr, fef_fpr) = out
        checks.expect(chsh_fpr == 0.0 and fef_fpr == 0.0,
                      f"audit: witness FPR not 0 (chsh {chsh_fpr}, fef {fef_fpr})")
        checks.expect(0.0 < chsh_tpr < fef_tpr < 1.0,
                      f"audit: sensitivity not ordered chsh {chsh_tpr} < fef {fef_tpr}")
        checks.expect(_same_dataset(test, self.test), "audit: loaded test split differs")
        if self.states_digest is None:
            self.states_digest = sha256_array(dataset.regenerate_states(self.test))
        checks.expect(sha256_array(dataset.regenerate_states(test)) == self.states_digest,
                      "audit: regenerated states differ between regenerations")
        self.auc = curve.auc
        return {"model": sha256_file(self.model_path), "test.csv": sha256_file(self.test_path),
                "test.meta": sha256_file(self.test_path + ".meta"),
                "roc": sha256_file(self.roc_path)}


WORKLOADS = {w.name: w for w in (GenQqB45, SweepTq, AuditTq)}
