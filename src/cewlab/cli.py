"""Command-line front end: gen, train, eval, baselines, sweep.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
Artifact-producing commands return what they wrote, and main drops a
"<out>.manifest.json" beside it recording flags, seeds, paths, timing, and
the numpy version and OpenBLAS kernel it ran with.
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import closing, suppress

import numpy as np

from . import __version__
from .dataset import Dataset, _write_json, generate, load, restrict, save, split
from .errors import (CewlabError, ModelMismatch, TooFewRecords, UnknownPreset,
                     WitnessFalsePositive)
from .evaluate import (Witness, baseline_rates, operating_point, roc_curve, witnesses,
                       write_roc, write_roc_svg)
from .measure import builtin_presets, preset_by_name
from .model import (TrainConfig, init_mlp, load_model, predict_negativity,
                    save_model, train, train_many)
from .pool import blas_kernel, ordered_map, worker_count
from .qlinalg import _as_u64
from .states import SystemKind

_KIND_NAMES = [k.value for k in SystemKind]


def _write_manifest(args: argparse.Namespace, started: float, out_path: str,
                    inputs: list[str], outputs: list[str], stats: dict | None = None) -> None:
    flags = {k: v for k, v in vars(args).items() if k != "func"}
    doc = {
        "command": args.command,
        "flags": flags,
        "seeds": {"seed": flags["seed"]} if "seed" in flags else {},
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "numpy": np.__version__,
        "blas_kernel": blas_kernel(),
        "duration_s": round(time.monotonic() - started, 3),
    }
    if stats is not None:
        doc["stats"] = stats
    _write_json(doc, out_path + ".manifest.json")


def _score(model, test_ds: Dataset, roc_path: str, svg_path: str | None) -> dict:
    """Score a test set, write its ROC table (and SVG when given); returns the operating points."""
    curve = roc_curve(predict_negativity(model, test_ds.features), test_ds.labels)
    write_roc(curve, roc_path)
    if svg_path:
        write_roc_svg(curve, svg_path, title=test_ds.preset.name)
    return {"auc": curve.auc, "tpr_at_fpr10": operating_point(curve, curve.fpr <= 0.10)[0],
            "tpr_at_fpr0": operating_point(curve, curve.fpr <= 0.0)[0]}


def cmd_gen(args: argparse.Namespace) -> tuple:
    kind = SystemKind(args.kind)
    preset = preset_by_name(kind, args.preset)
    ds = generate(kind, preset, args.n, args.seed, balanced=not args.unbalanced)
    save(ds, args.out)
    print(f"wrote {args.out}: {ds.count} records, {preset.b} features, "
          f"prevalence {ds.prevalence:.4f}")
    return args.out, [], [args.out, args.out + ".meta"]


def cmd_train(args: argparse.Namespace) -> tuple:
    train_ds = load(args.train)
    val_ds = load(args.val)
    cfg = TrainConfig(learning_rate=args.lr, batch_size=args.batch_size,
                      max_epochs=args.max_epochs, patience=args.patience,
                      seed=args.seed)
    model = init_mlp(train_ds.features.shape[1], cfg)

    def report(epoch: int, train_mse: float, val_mse: float) -> None:
        # the header waits for the first epoch, so a refused run prints only its error
        if epoch == 1:
            print("epoch  train_mse     val_mse")
        print(f"{epoch:5d}  {train_mse:.6e}  {val_mse:.6e}")

    result = train(model, train_ds, val_ds, cfg, on_epoch=report)
    save_model(result.model, args.out)
    print(f"best epoch {result.best_epoch} of {result.epochs_run}, "
          f"val_mse {result.best_val_mse:.6e}, wrote {args.out}")
    return args.out, [args.train, args.val], [args.out]


def cmd_eval(args: argparse.Namespace) -> tuple:
    model = load_model(args.model)
    test_ds = load(args.test)
    meta = model.meta
    if (meta.get("kind"), meta.get("pairs")) != (test_ds.kind.value,
                                                 [list(p) for p in test_ds.preset.pairs]):
        trained = f"{meta['kind']} {meta.get('preset')}" if meta.get("kind") else "no recorded kind"
        raise ModelMismatch(
            f"{args.model} ({trained}) does not match {args.test} ({test_ds.kind.value} "
            f"{test_ds.preset.name}): a model scores only its training kind and preset pairs")
    points = _score(model, test_ds, args.out, args.svg)
    print(f"AUC={points['auc']:.6f} TPR@FPR0.10={points['tpr_at_fpr10']:.6f} "
          f"TPR@FPR0={points['tpr_at_fpr0']:.6f}")
    return args.out, [args.model, args.test], [args.out] + ([args.svg] if args.svg else [])


def cmd_baselines(args: argparse.Namespace) -> None:
    kind = SystemKind(args.kind)
    chosen = (Witness(args.witness),) if args.witness else witnesses(kind)
    if not set(chosen) <= set(witnesses(kind)):
        raise ValueError("chsh and fef baselines are defined for two-qubit states only")
    preset = preset_by_name(kind, "B1")
    ds = generate(kind, preset, args.n, args.seed)
    print("witness     sensitivity  fpr")
    for witness in chosen:
        sensitivity, fpr = baseline_rates(ds, witness)
        print(f"{witness.value:<11s} {sensitivity:11.4f}  {fpr:.4f}")
        # the analytic criteria admit no false positives
        if fpr != 0.0:
            raise WitnessFalsePositive(
                f"the {witness.value} witness flagged separable states (FPR {fpr})")


def run_sweep(kind: SystemKind, preset_names: list[str], sizes: tuple[int, int, int],
              seed: int, out_dir: str, cfg: TrainConfig | None = None,
              svg: bool = False, log=None) -> list[dict]:
    """Train and evaluate one model per preset on shared splits.

    One balanced master dataset is generated at the kind's largest preset
    and every requested preset is a column projection of it, so all models
    see the same states. The presets are cut into one contiguous group per
    worker, the longer ones last, and the groups trained in parallel
    (pool.ordered_map), one forked worker process per usable CPU (at most
    one per preset), each with one BLAS thread, training its group in
    lockstep. A worker inherits the full training and validation splits,
    and model.train_many projects each preset's columns from them; only its
    trained models are pickled, back to this process.
    Workers only train: this process generates and splits, then scores each
    model on the test split and writes every artifact, the first groups'
    while the last ones train. Every artifact has the same bytes as a
    one-process run.
    Where fork is unavailable, only one CPU is usable, or the BLAS thread
    count cannot be pinned, all presets form one group trained in this
    process. A preset named twice, a split size that is not a positive
    even number (each split takes half its records from each class), or a
    seed outside [0, 2**64) is refused with ValueError before out_dir is
    made, and an out_dir that cannot be made (OSError) before anything is
    generated. A generation that fails (MemoryError, DrawBudgetExhausted, a
    lost worker) removes the directories this call made for out_dir.

    Returns one summary row per preset, in the requested order, with the
    paths of its model, ROC table and SVG (None without svg) in out_dir;
    `log` and the summary rewrites follow the same order. Each row's
    "stats" holds its group's training time, as measured by its worker, and
    the preset's epochs and gradient steps. An error raised while training
    a preset propagates with its own type.
    """
    if not preset_names:
        raise ValueError("preset list is empty")
    repeated = sorted({name for name in preset_names if preset_names.count(name) > 1})
    if repeated:
        # each preset's model and ROC table have one path
        raise ValueError(f"preset {', '.join(repeated)} is listed more than once")
    presets = [preset_by_name(kind, name) for name in preset_names]
    if any(n < 1 or n % 2 for n in sizes):
        # the stratified split of a balanced master is exact only for even sizes
        raise ValueError(f"split sizes {' '.join(map(str, sizes))} must all be positive and even")
    _as_u64(seed, "seed")  # the check generate makes, here before out_dir is made
    cfg = cfg if cfg is not None else TrainConfig(seed=seed)
    if sizes[0] < cfg.batch_size:
        raise TooFewRecords(f"TRAIN size {sizes[0]} is smaller than the training batch "
                            f"of {cfg.batch_size} records")
    made, head = [], os.path.abspath(out_dir)  # the directories makedirs makes, deepest first
    while not os.path.exists(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out_dir, exist_ok=True)
    # the largest built-in preset's pairs hold every other's, so restrict projects each split
    master = max(builtin_presets(kind), key=lambda p: p.b)
    total = sum(sizes)
    try:
        # split copies the master set's records, and nothing here keeps the master set
        train_ds, val_ds, test_ds = split(generate(kind, master, total, seed),
                                          tuple(n / total for n in sizes))
    except BaseException:
        for directory in made:
            with suppress(OSError):
                os.rmdir(directory)
        raise
    # contiguous groups, one per worker and the last ones a preset longer, so
    # that the first are scored here while the longest still train (in lockstep)
    workers = worker_count(len(presets))
    size, extra = divmod(len(presets), workers)
    starts = [g * size + max(0, g - workers + extra) for g in range(workers + 1)]
    groups = [presets[a:b] for a, b in zip(starts, starts[1:])]
    jobs = [(train_ds, val_ds, group, cfg) for group in groups]

    rows: list[dict] = []
    with closing(ordered_map(_train_group, jobs)) as trained:
        for group, (results, train_s) in zip(groups, trained):
            for preset, result in zip(group, results):
                stem = os.path.join(out_dir, f"{kind.value}-{preset.name}")
                model_path, roc_path = stem + ".mlp.json", stem + ".roc.csv"
                svg_path = stem + ".svg" if svg else None
                save_model(result.model, model_path)
                points = _score(result.model, restrict(test_ds, preset), roc_path, svg_path)
                rows.append({
                    "preset": preset.name,
                    "b": preset.b,
                    **points,
                    "epochs": result.epochs_run,
                    "model": model_path,
                    "roc": roc_path,
                    "svg": svg_path,
                    "stats": {"train_s": train_s, "epochs": result.epochs_run,
                              "steps": result.steps},
                })
                if log is not None:
                    log(f"{preset.name}: B={preset.b} auc={points['auc']:.4f} "
                        f"tpr@fpr0.10={points['tpr_at_fpr10']:.4f} epochs={result.epochs_run}")
                _write_summary(out_dir, rows)
    return rows


def _train_group(train_ds: Dataset, val_ds: Dataset, group: list,
                 cfg: TrainConfig) -> tuple[list, float]:
    """Train one group of presets in lockstep; returns train_many's results and the seconds taken.

    train_many projects each preset's columns from the sweep's splits. Runs
    in a pool worker, so the seconds it reports are the group's time in its
    worker.
    """
    started = time.perf_counter()
    results = train_many({p: init_mlp(p.b, cfg) for p in group}, train_ds, val_ds, cfg)
    return results, round(time.perf_counter() - started, 3)


_SUMMARY_COLUMNS = ("preset", "b", "auc", "tpr_at_fpr10", "tpr_at_fpr0", "epochs")


def _write_summary(out_dir: str, rows: list[dict]) -> None:
    # str of a float is its repr, so every score keeps all its digits
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="\n") as fh:
        for cells in [_SUMMARY_COLUMNS] + [[r[c] for c in _SUMMARY_COLUMNS] for r in rows]:
            fh.write(",".join(map(str, cells)) + "\n")


def cmd_sweep(args: argparse.Namespace) -> tuple:
    rows = run_sweep(SystemKind(args.kind), args.presets, tuple(args.sizes), args.seed,
                     args.out_dir, svg=args.svg, log=print)
    summary = os.path.join(args.out_dir, "summary.csv")
    print(f"wrote {summary}")
    stats = {"workers": worker_count(len(rows)),
             "presets": {r["preset"]: r["stats"] for r in rows}}
    outputs = [summary] + [r[key] for key in ("model", "roc", "svg") for r in rows if r[key]]
    return summary, [], outputs, stats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cewlab",
        description="Collective entanglement witness laboratory: sample states, "
                    "train the regressor, compare against analytic baselines.")
    parser.add_argument("--version", action="version", version=f"cewlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a labeled feature dataset")
    p.add_argument("--kind", choices=_KIND_NAMES, required=True)
    p.add_argument("--preset", required=True, help="measurement preset name, e.g. B10")
    p.add_argument("--n", type=int, required=True, help="record count (even unless --unbalanced)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--unbalanced", action="store_true",
                   help="keep the sampler's natural class prevalence")
    p.add_argument("--out", required=True,
                   help="output dataset path (a .npy array; its sidecar is <out>.meta)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train the negativity regressor")
    p.add_argument("--train", required=True, help="training dataset (written by gen)")
    p.add_argument("--val", required=True, help="validation dataset (written by gen)")
    p.add_argument("--out", required=True, help="output model path (.mlp.json)")
    p.add_argument("--lr", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--max-epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--patience", type=int, default=TrainConfig.patience)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="write the ROC of a model on a test dataset")
    p.add_argument("--model", required=True)
    p.add_argument("--test", required=True, help="test dataset (written by gen)")
    p.add_argument("--out", required=True, help="output ROC table path")
    p.add_argument("--svg", help="also render the curve to this SVG path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("baselines", help="sensitivity/FPR of the analytic witnesses")
    p.add_argument("--kind", choices=_KIND_NAMES, required=True)
    p.add_argument("--witness", choices=[w.value for w in Witness],
                   help="restrict to one witness (default: all for the kind)")
    p.add_argument("--n", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_baselines)

    p = sub.add_parser("sweep", help="train/evaluate one model per preset on shared splits")
    p.add_argument("--kind", choices=_KIND_NAMES, required=True)
    p.add_argument("--presets", nargs="+", required=True, help="preset names, e.g. B1 B3 B5")
    p.add_argument("--sizes", nargs=3, type=int, default=[40000, 10000, 10000],
                   metavar=("TRAIN", "VAL", "TEST"),
                   help="records per split, each even; TRAIN must be at least the "
                        f"training batch of {TrainConfig.batch_size}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--svg", action="store_true", help="also render one SVG per curve")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    # the one place that writes a manifest, reports an error and picks the exit
    # code; commands raise, and artifact writers return (out, inputs, outputs[, stats])
    started = time.monotonic()
    try:
        produced = args.func(args)
        if produced is not None:
            _write_manifest(args, started, *produced)
    except (UnknownPreset, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (CewlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation it refused; Python's is empty
        print(f"error: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
