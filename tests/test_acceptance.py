"""End-to-end acceptance gate.

Each test prints one "criterion N (...): PASS/FAIL" line (visible with
pytest -s or in captured output). The expensive artifacts (the two desk-scale
sweeps and the 10^4-sample datasets) are built once per session and shared.
"""
import time

import numpy as np
import pytest

from cewlab.cli import run_sweep
from cewlab.dataset import generate, save
from cewlab.evaluate import Witness, baseline_rates, roc_curve
from cewlab.measure import local_effects, qubit_tetrahedron, qutrit_nine
from cewlab.model import TrainConfig, forward, init_mlp
from cewlab.qlinalg import make_rng
from cewlab.states import SystemKind
from cewlab.measure import preset_by_name
from oracles import DensityMatrix, collective_state, gradient, negativity, p_xy, sample_density

TQ = SystemKind.TWO_QUBIT
QQ = SystemKind.QUBIT_QUTRIT

SWEEP_SIZES = (40000, 10000, 10000)
SWEEP_PRESETS = {TQ: ["B1", "B3", "B5", "B7", "B10"], QQ: ["B1", "B5", "B9", "B13", "B45"]}
SWEEP_SEEDS = {TQ: 20, QQ: 21}


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def singlet_matrix() -> np.ndarray:
    psi = np.zeros(4)
    psi[1] = 1.0 / np.sqrt(2.0)
    psi[2] = -1.0 / np.sqrt(2.0)
    return np.outer(psi, psi).astype(complex)


def werner_matrix(p: float) -> np.ndarray:
    return p * singlet_matrix() + (1.0 - p) * np.eye(4) / 4.0


@pytest.fixture(scope="session")
def unbalanced_datasets():
    started = time.monotonic()
    datasets = {
        kind: generate(kind, preset_by_name(kind, "B1"), 10000, seed=1, balanced=False)
        for kind in SystemKind
    }
    return datasets, time.monotonic() - started


@pytest.fixture(scope="session")
def sweeps(tmp_path_factory):
    started = time.monotonic()
    out_dirs = {kind: str(tmp_path_factory.mktemp(f"sweep_{kind.name.lower()}"))
                for kind in SystemKind}
    rows = {kind: run_sweep(kind, SWEEP_PRESETS[kind], SWEEP_SIZES,
                            SWEEP_SEEDS[kind], out_dirs[kind])
            for kind in SystemKind}
    return rows, out_dirs, time.monotonic() - started


def test_criterion_1_separability_prevalence(unbalanced_datasets):
    datasets, elapsed = unbalanced_datasets
    separable = {kind: 1.0 - ds.prevalence for kind, ds in datasets.items()}
    ok = (abs(separable[TQ] - 0.63) <= 0.05
          and abs(separable[QQ] - 0.38) <= 0.05
          and elapsed < 120.0)
    report(1, "separability prevalence", ok,
           f"two-qubit {separable[TQ]:.4f} vs 0.63, qubit-qutrit {separable[QQ]:.4f} "
           f"vs 0.38, {elapsed:.1f}s")


def test_criterion_2_measurement_symmetry():
    worst = 0.0
    for kind in SystemKind:
        rng = make_rng(2, 0)
        effects = local_effects(kind)
        for _ in range(100):
            state = collective_state(sample_density(kind, rng))
            for i, x in enumerate(effects):
                for y in effects[i + 1:]:
                    worst = max(worst, abs(p_xy(state, x, y) - p_xy(state, y, x)))
    report(2, "measurement symmetry", worst <= 1e-10, f"max |P_xy - P_yx| {worst:.3e}")


def test_criterion_3_projector_identities():
    tetra = qubit_tetrahedron()
    nine = qutrit_nine()
    worst = np.abs(sum(tetra) - np.eye(2)).max()
    for i, a in enumerate(tetra):
        for j, b in enumerate(tetra):
            overlap = np.trace(a @ b).real
            target = 0.25 if i == j else 1.0 / 12.0
            worst = max(worst, abs(overlap - target))
    worst = max(worst, np.abs(sum(nine) - 3.0 * np.eye(3)).max())
    report(3, "projector-set identities", worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_4_oracle_equivalences():
    worst_werner = 0.0
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        closed = max(0.0, (3.0 * p - 1.0) / 4.0)
        got = negativity(DensityMatrix(TQ, werner_matrix(p)))
        worst_werner = max(worst_werner, abs(got - closed))

    worst_auc = 0.0
    rng = np.random.default_rng(4)
    for k in range(100):
        scores = rng.random(50)
        if k % 2:
            scores = np.round(scores, 1)  # force tie groups half the time
        labels = rng.random(50) < 0.5
        if labels.all() or not labels.any():
            labels[0] = not labels[0]
        pos, neg = scores[labels], scores[~labels]
        wins = (pos[:, None] > neg[None, :]).sum()
        ties = (pos[:, None] == neg[None, :]).sum()
        oracle = (wins + 0.5 * ties) / (len(pos) * len(neg))
        worst_auc = max(worst_auc, abs(roc_curve(scores, labels).auc - oracle))

    worst_singlet = 0.0
    state = collective_state(DensityMatrix(TQ, singlet_matrix()))
    for i, x in enumerate(local_effects(TQ)):
        for j, y in enumerate(local_effects(TQ)):
            target = 0.0 if i == j else 1.0 / 3.0
            worst_singlet = max(worst_singlet, abs(p_xy(state, x, y) - target))

    ok = worst_werner <= 1e-10 and worst_auc <= 1e-12 and worst_singlet <= 1e-10
    report(4, "oracle equivalences", ok,
           f"werner {worst_werner:.3e}, auc {worst_auc:.3e}, singlet {worst_singlet:.3e}")


def test_criterion_5_gradient_correctness():
    cfg = TrainConfig(seed=5)
    m = init_mlp(2, cfg)
    rng = np.random.default_rng(55)
    x = rng.random((6, 2))
    y = rng.random(6) * 0.5
    grads_w, grads_b, _ = gradient(m, x, y)

    def loss() -> float:
        return float(np.mean((forward(m, x) - y) ** 2))

    step = 1e-6
    worst = 0.0
    for arr, grad in list(zip(m.weights, grads_w)) + list(zip(m.biases, grads_b)):
        for idx in np.ndindex(arr.shape):
            keep = arr[idx]
            arr[idx] = keep + step
            up = loss()
            arr[idx] = keep - step
            down = loss()
            arr[idx] = keep
            numeric = (up - down) / (2.0 * step)
            denom = max(abs(numeric), abs(grad[idx]), 1e-8)
            worst = max(worst, abs(numeric - grad[idx]) / denom)
    report(5, "gradient correctness", worst <= 1e-4, f"max relative error {worst:.3e}")


def test_criterion_6_desk_scale_roc(sweeps):
    rows, _, elapsed = sweeps
    auc_tq = [r["auc"] for r in rows[TQ]]
    auc_qq = [r["auc"] for r in rows[QQ]]
    nondecr_tq = all(b >= a - 0.005 for a, b in zip(auc_tq, auc_tq[1:]))
    nondecr_qq = all(b >= a for a, b in zip(auc_qq, auc_qq[1:]))
    tpr10 = rows[TQ][-1]["tpr_at_fpr10"]
    gap = auc_qq[-1] - auc_qq[-2]
    ok = (nondecr_tq and auc_tq[-1] >= 0.95
          and tpr10 >= 0.75
          and nondecr_qq and gap <= 0.03
          and elapsed < 1800.0)
    report(6, "desk-scale roc reproduction", ok,
           f"two-qubit auc {['%.4f' % a for a in auc_tq]}, tpr@fpr0.10 {tpr10:.4f}; "
           f"qubit-qutrit auc {['%.4f' % a for a in auc_qq]}, top gap {gap:.4f}; "
           f"{elapsed:.0f}s")


def test_criterion_7_baseline_ordering():
    ds = generate(TQ, preset_by_name(TQ, "B1"), 10000, seed=7)
    sens = {}
    fprs = {}
    for witness in Witness:
        sens[witness], fprs[witness] = baseline_rates(ds, witness)
    ok = (sens[Witness.NEGATIVITY] == 1.0
          and 0.0 < sens[Witness.CHSH] < sens[Witness.FEF] < 1.0
          and fprs[Witness.CHSH] == 0.0 and fprs[Witness.FEF] == 0.0
          and fprs[Witness.NEGATIVITY] == 0.0)
    report(7, "baseline ordering", ok,
           f"sensitivity negativity {sens[Witness.NEGATIVITY]}, "
           f"chsh {sens[Witness.CHSH]:.4f}, fef {sens[Witness.FEF]:.4f}; "
           f"fpr {max(fprs.values())}")


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def test_criterion_8_determinism(unbalanced_datasets, sweeps, tmp_path_factory):
    datasets, _ = unbalanced_datasets
    rows, out_dirs, _ = sweeps
    mismatches = []

    gen_dir = tmp_path_factory.mktemp("regen")
    for kind, first in datasets.items():
        again = generate(kind, preset_by_name(kind, "B1"), 10000, seed=1, balanced=False)
        a = str(gen_dir / f"{kind.value}-a.npy")
        b = str(gen_dir / f"{kind.value}-b.npy")
        save(first, a)
        save(again, b)
        for suffix in ("", ".meta"):
            if _file_bytes(a + suffix) != _file_bytes(b + suffix):
                mismatches.append(f"dataset {kind.value}{suffix}")

    for kind in SystemKind:
        rerun_dir = str(tmp_path_factory.mktemp(f"rerun_{kind.name.lower()}"))
        rerun_rows = run_sweep(kind, SWEEP_PRESETS[kind], SWEEP_SIZES,
                               SWEEP_SEEDS[kind], rerun_dir)
        for row, rerun_row in zip(rows[kind], rerun_rows):
            for key in ("model", "roc"):
                if _file_bytes(row[key]) != _file_bytes(rerun_row[key]):
                    mismatches.append(rerun_row[key])
        if (_file_bytes(out_dirs[kind] + "/summary.csv")
                != _file_bytes(rerun_dir + "/summary.csv")):
            mismatches.append(f"summary.csv ({kind.value})")

    report(8, "determinism", not mismatches,
           "all reruns byte-identical" if not mismatches else ", ".join(mismatches))
