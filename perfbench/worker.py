"""One workload in its own process: set up, run passes for a time budget, check.

Started by run.py, which passes the monotonic time at which it launched this
process, so the reported set-up time covers interpreter start, `import
cewlab` and building the workload's inputs. Prints one JSON object, with
times as measured and pass times also at reference speed (reference.py).

    python3 perfbench/worker.py --workload sweep-tq --seed 1 --seconds 30 \
        --trace 0 --t0 <time.monotonic() of the parent>
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import cewlab  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: Fewest passes of each kind (untraced, traced) that a run makes.
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
#: No pass starts once measuring has taken this long, whatever the minimum.
HARD_LIMIT_S = 120.0


def _timed_pass(wl, tracer: spans.Tracer | None):
    """Run one pass; returns (measured seconds, output or None if it raised)."""
    if tracer is not None:
        tracer.install()
        tracer.reset()
        root = tracer.begin(spans.ROOT)
    started = time.perf_counter()
    try:
        out = wl.run()
    except Exception:  # a failing operation is counted, and the run goes on
        traceback.print_exc()
        out = None
    finally:
        wall = time.perf_counter() - started
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
            _, _, begun, ended = tracer.spans[root]
            wall = ended - begun  # the root span, which the self times sum to
    return wall, out


def _layer_values(wl, tracer: spans.Tracer, checks: workloads.Checks) -> dict:
    values = spans.layer_values(tracer)
    wall = values["trace.wall_s"]
    parts = sum(v for k, v in values.items() if k.endswith(".self_s")) + values["trace.remainder_s"]
    checks.expect(abs(parts - wall) <= 1e-9 * max(wall, 1.0),
                  f"{wl.name}: self times sum to {parts!r}, traced pass took {wall!r}")
    return values


def measure(wl, seconds: float, trace: bool, yardstick: reference.Yardstick | None = None) -> dict:
    """Alternate untraced and (with trace) traced passes until the budget is spent.

    The yardstick is timed before the first pass and after every pass; the
    caller scales the passes' median by the yardstick's (reference.py).
    """
    yardstick = yardstick or reference.Yardstick()
    checks = workloads.Checks()
    tracer = spans.Tracer() if trace else None
    refs = [yardstick.seconds()]
    untraced: list[float] = []
    traced: list[tuple[float, dict]] = []  # seconds, layer values
    reference_digests = None
    started = time.perf_counter()
    while True:
        use_tracer = tracer if trace and len(untraced) > len(traced) else None
        wall, out = _timed_pass(wl, use_tracer)
        refs.append(yardstick.seconds())
        digests = None
        if checks.expect(out is not None, f"{wl.name}: the pass raised"):
            try:
                digests = wl.check(out, checks)
            except Exception:  # malformed output fails its check, and the run goes on
                traceback.print_exc()
                checks.expect(False, f"{wl.name}: a check raised")
        if digests is not None:
            if reference_digests is None:
                reference_digests = digests
            else:
                checks.expect(digests == reference_digests,
                              f"{wl.name}: artifacts differ from the first pass"
                              + (" (traced pass)" if use_tracer is not None else ""))
        if use_tracer is None:
            untraced.append(wall)
        else:
            traced.append((wall, _layer_values(wl, tracer, checks) if out is not None else {}))
        elapsed = time.perf_counter() - started
        next_end = elapsed + elapsed / (len(untraced) + len(traced))
        enough = len(untraced) >= MIN_PASSES if not trace else (
            len(untraced) >= MIN_TRACED_PASSES and len(traced) >= MIN_TRACED_PASSES)
        if (enough and next_end > seconds) or (next_end > HARD_LIMIT_S and (traced or not trace)):
            break
    result = {
        "passes": untraced,
        "refs": refs,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "messages": checks.messages,
        "digests": reference_digests or {},
        "records": wl.records,
        "auc": wl.auc,
    }
    if trace:
        walls = [w for w, _ in traced]
        # the traced pass with the median time; its self times sum to its wall
        layers = dict(sorted(traced, key=lambda t: t[0])[(len(traced) - 1) // 2][1])
        layers["trace.overhead"] = statistics.median(walls) / statistics.median(untraced) - 1.0
        layers["trace.ref_s"] = statistics.median(refs)
        result["traced_passes"] = walls
        result["layers"] = layers
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() at which the parent started this process")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and report its time")
    args = parser.parse_args(argv)
    if os.path.dirname(os.path.abspath(cewlab.__file__)) != os.path.join(SRC, "cewlab"):
        print(f"error: cewlab imported from {cewlab.__file__}, not from {SRC}", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".perfbench", f"work-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.setup()
        result = {"setup_s": time.monotonic() - args.t0}
        yardstick = reference.Yardstick()
        result["setup_ref_s"] = yardstick.seconds()
        if not args.setup_only:
            result.update(measure(wl, args.seconds, bool(args.trace), yardstick))
            # ru_maxrss is in KiB on Linux
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
