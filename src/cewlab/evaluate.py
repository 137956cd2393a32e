"""ROC analysis for entanglement scores and closed-form witness baselines."""
from __future__ import annotations

import enum
import html
from dataclasses import dataclass

import numpy as np

from .dataset import Dataset
from .errors import DegenerateLabels, DimensionMismatch, EmptyDataset
from .measure import SIGMA_X, SIGMA_Y, SIGMA_Z
from .qlinalg import hermitian_eigenvalues_stack
from .states import ENTANGLE_EPS, SystemKind


@dataclass(frozen=True)
class RocCurve:
    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray
    auc: float


def roc_curve(scores: np.ndarray, labels: np.ndarray) -> RocCurve:
    """ROC of the rule "score >= threshold means entangled".

    `scores` is a 1-D float array without NaN and `labels` a bool array of
    the same shape; anything else raises DimensionMismatch. One point per
    distinct score (threshold swept from +inf down), with (0, 0) prepended.
    The area uses the trapezoid rule, which equals the Mann-Whitney
    statistic with ties counted half.
    """
    if not (isinstance(scores, np.ndarray) and isinstance(labels, np.ndarray)
            and scores.ndim == 1 and scores.dtype.kind == "f"
            and labels.shape == scores.shape and labels.dtype == bool
            and not np.isnan(scores).any()):
        # a NaN score would rank below every other and leave a nan threshold
        raise DimensionMismatch(
            "ROC needs 1-D non-NaN float scores and bool labels of the same length, got "
            f"{np.shape(scores)} scores and {np.shape(labels)} labels")
    if len(scores) == 0:
        raise EmptyDataset("ROC needs at least one scored sample")
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("ROC needs both entangled and separable samples")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    hits = labels[order]
    tp = np.cumsum(hits)
    fp = np.cumsum(~hits)
    # keep only the last index of each tie group so equal scores move together
    last = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    fpr = np.concatenate(([0.0], fp[last] / n_neg))
    tpr = np.concatenate(([0.0], tp[last] / n_pos))
    thresholds = np.concatenate(([np.inf], s[last]))
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1])) / 2.0)
    return RocCurve(fpr, tpr, thresholds, auc)


def operating_point(curve: RocCurve, prefix: np.ndarray) -> tuple[float, float]:
    """(tpr, fpr) at the last point of a curve prefix, given as a mask of its points.

    Neither rate falls along a curve, so the last point of "fpr <= cap" holds
    the best TPR realized within the cap (no interpolation), and the last of
    "thresholds > t" is the rule "score > t". Every curve starts at (0, 0)
    with threshold +inf, so no such prefix is empty.
    """
    i = np.count_nonzero(prefix) - 1
    return float(curve.tpr[i]), float(curve.fpr[i])


def write_roc(curve: RocCurve, path: str) -> None:
    columns = (map(repr, a.tolist()) for a in (curve.fpr, curve.tpr, curve.thresholds))
    rows = "\n".join(map(",".join, zip(*columns)))
    with open(path, "w", newline="\n") as fh:
        fh.write(f"fpr,tpr,threshold\n{rows}\n# auc={curve.auc!r}\n")


def write_roc_svg(curve: RocCurve, path: str, title: str = "") -> None:
    """Self-contained SVG: the ROC polyline over a unit box with a chance diagonal."""
    size, margin = 360, 40
    scale = size - 2 * margin

    def sx(v: float) -> float:
        return margin + v * scale

    def sy(v: float) -> float:
        return size - margin - v * scale

    pts = " ".join(f"{sx(f):.2f},{sy(t):.2f}" for f, t in zip(curve.fpr, curve.tpr))
    # the title may be a preset name read from a dataset's sidecar
    label = html.escape(f"{title} AUC={curve.auc:.4f}".strip(), quote=False)
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="{margin}" y="{margin}" width="{scale}" height="{scale}" '
        'fill="white" stroke="black" stroke-width="1"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(1):.2f}" y2="{sy(1):.2f}" '
        'stroke="gray" stroke-dasharray="4 4" stroke-width="1"/>',
        f'<polyline points="{pts}" fill="none" stroke="crimson" stroke-width="1.5"/>',
        f'<text x="{size / 2:.0f}" y="{size - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">FPR</text>',
        f'<text x="12" y="{size / 2:.0f}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 12 {size / 2:.0f})">TPR</text>',
        f'<text x="{sx(0.97):.2f}" y="{sy(0.03):.2f}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{label}</text>',
        "</svg>",
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(body) + "\n")


class Witness(enum.Enum):
    NEGATIVITY = "negativity"
    CHSH = "chsh"
    FEF = "fef"


def witnesses(kind: SystemKind) -> tuple[Witness, ...]:
    """The witnesses defined for a kind: CHSH and FEF are two-qubit only."""
    return tuple(Witness) if kind is SystemKind.TWO_QUBIT else (Witness.NEGATIVITY,)


# Each witness reads a state through a fixed linear map of its 16 entries,
# applied to a whole stack as one (k, 16) BLAS product with a table.
# _PAULIS[(a, b), (i, j)] = (sigma_i x sigma_j)[a, b], so the transposed states
# times it give T[k, i, j] = Tr[rho_k sigma_i x sigma_j], with the same bits
# as the einsum "kba,ijab->kij" over the Pauli products (a test checks it).
_SIGMAS = np.stack([SIGMA_X, SIGMA_Y, SIGMA_Z])
_PAULIS = np.einsum("iab,jcd->acbdij", _SIGMAS, _SIGMAS).reshape(16, 9)


def _pauli_correlations(mats: np.ndarray) -> np.ndarray:
    """T[k, i, j] = Tr[rho_k sigma_i x sigma_j] for a stack of 4x4 states."""
    return (mats.transpose(0, 2, 1).reshape(-1, 16) @ _PAULIS).real.reshape(-1, 3, 3)


def chsh_m_value_stack(mats: np.ndarray) -> np.ndarray:
    """Horodecki criterion: sum of the two largest eigenvalues of T^T T."""
    t = _pauli_correlations(mats)
    m = np.einsum("kji,kjl->kil", t, t)
    eigs = hermitian_eigenvalues_stack(m)
    return eigs[:, -1] + eigs[:, -2]


# Magic basis columns; the real part of rho in this basis carries the
# maximal overlap with maximally entangled states as its top eigenvalue.
_SQ2 = 1.0 / np.sqrt(2.0)
_MAGIC = np.array([
    [_SQ2, 1j * _SQ2, 0, 0],
    [0, 0, 1j * _SQ2, _SQ2],
    [0, 0, 1j * _SQ2, -_SQ2],
    [_SQ2, -1j * _SQ2, 0, 0],
])
# _MAGIC_MAP[(b, c), (a, d)] = conj(M[b, a]) M[c, d], so the flat states times
# it give M^H rho M. It rounds differently from the einsum "ab,kbc,cd->kad":
# over 200,000 sampled states the two FEFs differ by at most 1.6e-15, and
# they decide "> 0.5" alike (a test checks both).
_MAGIC_MAP = np.einsum("ba,cd->bcad", _MAGIC.conj(), _MAGIC).reshape(16, 16)


def fef_stack(mats: np.ndarray) -> np.ndarray:
    """Fully entangled fraction: largest overlap with any maximally entangled state."""
    m = (mats.reshape(-1, 16) @ _MAGIC_MAP).real.reshape(-1, 4, 4)
    m = 0.5 * (m + m.transpose(0, 2, 1))
    return hermitian_eigenvalues_stack(m)[:, -1]


#: Score above which each witness flags entanglement.
THRESHOLDS = {Witness.NEGATIVITY: ENTANGLE_EPS, Witness.CHSH: 1.0, Witness.FEF: 0.5}


def witness_scores(ds: Dataset, witness: Witness) -> np.ndarray:
    """Score every sample of a dataset with one closed-form witness.

    CHSH and FEF need density matrices. They read ds.states, which is
    regenerated from the dataset's seed and per-sample stream indices once
    per Dataset and shared by every witness, so loaded, split, and
    restricted datasets all work. The negativity scores are the dataset's
    own read-only negativities, not a copy.
    """
    if witness not in witnesses(ds.kind):
        raise DimensionMismatch(f"the {witness.value} witness is not defined for {ds.kind.value}")
    if witness is Witness.NEGATIVITY:
        return ds.negativities
    stack = chsh_m_value_stack if witness is Witness.CHSH else fef_stack
    return stack(ds.states)


def baseline_rates(ds: Dataset, witness: Witness) -> tuple[float, float]:
    """(sensitivity, false positive rate) of a witness at its own threshold.

    The witness's rule "score > threshold" is the point of its ROC curve at
    the smallest realized threshold above its own.
    """
    curve = roc_curve(witness_scores(ds, witness), ds.labels)
    return operating_point(curve, curve.thresholds > THRESHOLDS[witness])
