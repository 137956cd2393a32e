"""Byte fingerprint of the pipeline: gen's dataset and sidecar, a trained model, its ROC table.

A refactor must leave these digests unchanged, or re-pin them and record
the deviation in CHANGES.md. The last bits of the QR, eigensolve and
matrix products depend on the kernel OpenBLAS runs (see the `qlinalg`
docstring), so the digests are pinned per kernel, by the name
`pool.blas_kernel` reads: SkylakeX, and Haswell, which any x86-64 CPU with
AVX2 and FMA runs under OPENBLAS_CORETYPE=Haswell. A kernel with no digests
fails, never skips. A mismatch is reported with the kernel's name, the
largest feature and negativity deviation and the number of label flips,
measured against the reference CSV under `tests/fingerprint/`: the SkylakeX
records as text, frozen with their own digest, which np.loadtxt reads back
to the same doubles. Deviations of order 1e-15 with no label flip point to
a platform difference; anything larger, or any flip, is a change of
behaviour. The digests were pinned on the machine named in the README.
"""
import hashlib
import os

import numpy as np
import pytest

from cewlab.dataset import generate, save, split
from cewlab.evaluate import roc_curve, write_roc
from cewlab.measure import preset_by_name
from cewlab.model import TrainConfig, init_mlp, predict_negativity, save_model, train
from cewlab.pool import blas_kernel
from cewlab.states import SystemKind

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "fingerprint")
N = 200
SEED = 1
PRESET = {SystemKind.TWO_QUBIT: "B10", SystemKind.QUBIT_QUTRIT: "B13"}
REFERENCE_KERNEL = "SkylakeX"
# the reference CSVs: the REFERENCE_KERNEL records as "%.17g" text, features,
# negativity and label, under a header line
REFERENCE_SHA256 = {
    SystemKind.TWO_QUBIT: "c0d9fab85bddf89b157402d83af8d59db2f31be2f5d2250c008fe6e841db054e",
    SystemKind.QUBIT_QUTRIT: "c2e2c95d9818dc00d25820f25fcc18263c615bf5115fb0c4310deb46b6159b06",
}
PINNED = {
    "SkylakeX": {
        SystemKind.TWO_QUBIT: {
            "dataset": "f3a3b2f8e4bb6003c203e5bd62c9d0120f972d5fe088d8ddf220bfeeae4c3b49",
            "meta": "e0284fe022106eed6899118fd5027691e24b58dc8cef218515467389afe44ea9",
            "model": "5d25c8f26183579b3ab0a63980bed5f12759e2fcda63a75e5d80f637396cdefc",
            "roc": "ffec89cc7217d938b11dfb5bc5e5a3d90faa6a4ec89a2ccb65127330e8fab6d8",
        },
        SystemKind.QUBIT_QUTRIT: {
            "dataset": "8d05b704b799d5b9946249d3badab317b26a6a4f86ad18380d418cc399c9b143",
            "meta": "2d88fce250a01ce4b7087c2eda3075cd15091458cc44cbe59705b2c001a990a0",
            "model": "915714dc7ee1aef44e824da3f3437b16fa6f1eea907d59a8f5b364cc5b54ce07",
            "roc": "9282a32e7ac76a8f1a6ef52fa574a0dcbb664e55093fd3e90d7ea8b83048d854",
        },
    },
    "Haswell": {
        SystemKind.TWO_QUBIT: {
            "dataset": "a1e796e6769200dac8203bee74bf586999b184dd7928ec6646cbf2d553959aef",
            "meta": "e0284fe022106eed6899118fd5027691e24b58dc8cef218515467389afe44ea9",
            "model": "5b67af4012395af23b63be3c04f9b2cd858886ee3ee40897f034ea7168ac6cf9",
            "roc": "e8eaf5a019a0087e768c6018f9ade9aeb53735cf23b53bd6e8c572b97b3ee0a1",
        },
        SystemKind.QUBIT_QUTRIT: {
            "dataset": "786f19ccefae5677c0ba0673e92a6ab798dea04f808c67faaeed7cc9addc1b10",
            "meta": "2d88fce250a01ce4b7087c2eda3075cd15091458cc44cbe59705b2c001a990a0",
            "model": "f811635e902f0b46319e081d4957026018bbd9c95a1da2332d2c979c5d444cd9",
            "roc": "ff6a9398039007ccabb367270a71cbcfbc94241a5a064df4d0f94f36c1d3c6e5",
        },
    },
}


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def reference_path(kind):
    return os.path.join(REFERENCE_DIR, f"{kind.value}-{PRESET[kind]}.csv")


def pipeline_digests(kind, out_dir):
    """gen, then a three-epoch model on a split of it and the model's ROC table."""
    preset = preset_by_name(kind, PRESET[kind])
    ds = generate(kind, preset, N, SEED)
    data = os.path.join(out_dir, "gen.npy")
    save(ds, data)
    train_ds, val_ds, test_ds = split(ds, (0.6, 0.2, 0.2))
    cfg = TrainConfig(batch_size=32, max_epochs=3, patience=3, seed=SEED)
    result = train(init_mlp(preset.b, cfg), train_ds, val_ds, cfg)
    model_path = os.path.join(out_dir, "model.mlp.json")
    roc_path = os.path.join(out_dir, "roc.csv")
    save_model(result.model, model_path)
    write_roc(roc_curve(predict_negativity(result.model, test_ds.features), test_ds.labels),
              roc_path)
    digests = {"dataset": sha256_file(data), "meta": sha256_file(data + ".meta"),
               "model": sha256_file(model_path), "roc": sha256_file(roc_path)}
    return ds, digests


def deviation_report(ds, kind):
    """Largest feature and negativity deviation and label flips against the reference."""
    ref = np.loadtxt(reference_path(kind), delimiter=",", skiprows=1, ndmin=2)
    b = ds.preset.b
    if ref.shape != (ds.count, b + 2):
        return f"reference shape {ref.shape} differs from ({ds.count}, {b + 2})"
    feature_dev = np.abs(ds.features - ref[:, :b]).max()
    negativity_dev = np.abs(ds.negativities - ref[:, b]).max()
    flips = int(np.count_nonzero(ds.labels != (ref[:, b + 1] == 1.0)))
    return (f"largest feature deviation {feature_dev:.3e}, largest negativity deviation "
            f"{negativity_dev:.3e}, {flips} label flips of {ds.count}")


@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
def test_reference_csv_is_the_pinned_one(kind):
    assert sha256_file(reference_path(kind)) == REFERENCE_SHA256[kind]


@pytest.mark.parametrize("kind", list(SystemKind), ids=lambda k: k.value)
def test_artifact_digests_are_pinned(kind, tmp_path):
    ds, digests = pipeline_digests(kind, str(tmp_path))
    kernel = blas_kernel()
    pinned = PINNED.get(kernel, {}).get(kind)
    changed = [name for name, digest in digests.items() if pinned is None or digest != pinned[name]]
    assert pinned is not None and not changed, (
        f"{kind.value} {PRESET[kind]} fingerprint under BLAS kernel {kernel}: "
        + ("no digests pinned" if pinned is None else f"differs in {', '.join(changed)}")
        + f"; {deviation_report(ds, kind)} against {reference_path(kind)}; got {digests}")
