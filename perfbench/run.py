"""cewlab benchmark: run one workload (or all) and print every metric with its unit.

    python3 perfbench/run.py --workload gen-qq-b45 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload runs in processes of its own (see worker.py): set-up is timed
in SETUPS fresh processes and reported as their median, and the last of them
goes on to measure passes for --seconds. End-to-end times are reported at
reference speed (see reference.py), with the measured seconds printed
beside. With --trace 0 the last line of output is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced pass, whose untraced twin passes in the same process give the
tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import reference
from spans import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the launcher does not import cewlab, so it names the workloads itself;
# test_perfbench.py keeps this list equal to workloads.WORKLOADS
WORKLOADS = ("gen-qq-b45", "sweep-tq", "audit-tq")
#: The seed used while writing the benchmark, and one held out from it so a
#: later claim can be checked on inputs it was not tuned on.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
SETUPS = 3
#: The workload's processes use at most this many BLAS threads (nproc is 2
#: on the machine the benchmark was written on); one keeps runs steady.
BLAS_THREADS = "1"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    # name, unit, which is better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("records_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("auc", "ratio", "higher"),
)


class WorkerFailed(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(env: dict) -> dict:
    """What the numbers depend on, printed with every result."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: env.get(k) for k in _BLAS_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }


def _worker(workload: str, seed: int, seconds: float, trace: int, env: dict,
            setup_only: bool, yardstick: reference.Yardstick) -> dict:
    """Start one worker process; "setup_refs" holds the yardstick around its set-up."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    ref_before = yardstick.seconds()
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"{workload}: worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_refs"] = [ref_before, res["setup_ref_s"]]
    return res


def _spread(xs: list[float]) -> str:
    """The median, and the highest percentile the sample count supports."""
    n = len(xs)
    head = f"median {statistics.median(xs):.4f} of {n} passes"
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return f"{head}, p{p} {statistics.quantiles(xs, n=100)[p - 1]:.4f}"
    return f"{head}, max {max(xs):.4f} (no percentile has 10 passes beyond it)"


def run_workload(workload: str, seed: int, seconds: float, trace: int, env: dict,
                 yardstick: reference.Yardstick) -> dict:
    runs = [_worker(workload, seed, seconds, trace, env, i < SETUPS - 1, yardstick)
            for i in range(SETUPS)]
    res = runs[-1]
    setup = statistics.median(r["setup_s"] for r in runs)
    measured = statistics.median(res["passes"])
    wall = reference.scaled(measured, res["refs"])
    e2e = {
        "setup_s": reference.scaled(setup, [t for r in runs for t in r["setup_refs"]]),
        "wall_s": wall,
        "records_per_s": res["records"] / wall,
        "peak_rss_mb": res["peak_rss_mb"],
        "auc": res["auc"] if res["auc"] is not None else 0.0,
    }
    notes = {
        "setup_s": f"median of {SETUPS} set-ups; measured "
                   + " ".join(f"{r['setup_s']:.4f}" for r in runs),
        "wall_s": "measured " + _spread(res["passes"]),
        "records_per_s": f"{res['records']} records per pass; "
                         f"measured {res['records'] / measured:.6g}",
        "auc": "B10 model on the test split" if workload != "gen-qq-b45"
               else "best single feature of the written dataset",
    }
    print(f"== {workload}  seed {seed}  trace {trace}  "
          f"{len(res['passes'])} untraced passes; times at reference speed (yardstick "
          f"{statistics.median(res['refs']):.4f} s measured, {reference.REF_S} s nominal)")
    for name, unit, _ in END_TO_END:
        print(f"  {name:<16s} {e2e[name]:>14.6g} {unit:<6s} {notes.get(name, '')}")
    print(f"  {'failed_ops':<16s} {res['failed']:>14d} {'of':<6s} {res['attempted']} "
          "operations and output checks attempted")
    for msg in res["messages"]:
        print(f"  FAILED: {msg}")
    for artifact, digest in sorted(res["digests"].items()):
        print(f"  sha256 {artifact:<12s} {digest}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, _ in END_TO_END}
    if trace:
        layers = res["layers"]
        print(f"  traced passes: {len(res['traced_passes'])}; per-layer figures of the median one")
        for name, unit, _, moves, on in LAYER_METRICS:
            print(f"  {name:<32s} {layers.get(name, 0.0):>14.6g} {unit:<6s} moves {moves}; {on}")
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit}
                   for name, unit, *_ in LAYER_METRICS}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held out: {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be a non-negative 63-bit integer")
    if not os.path.isdir(os.path.join(ROOT, "src", "cewlab")):
        print(f"error: no cewlab sources under {ROOT}/src", file=sys.stderr)
        return 1
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]

    env = dict(os.environ)
    for var in _BLAS_VARS:
        env[var] = BLAS_THREADS
    print("environment: " + json.dumps(environment(env)))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    yardstick = reference.Yardstick()
    try:
        results = {name: run_workload(name, args.seed, seconds, args.trace, env, yardstick)
                   for name in names}
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
