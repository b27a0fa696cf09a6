"""semikit benchmark runner.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --all [--seed N] [--seconds S]

Run from the root of a checkout; semikit is imported from ``src/`` there.
One workload run repeats passes of the workload for about ``--seconds``
seconds and reports medians over passes.  With ``--trace 0`` it reports the
end-to-end metrics of BENCHMARK.json, timed in seconds at a nominal host
speed (see hostspeed.py); set-up time is the median of several fresh
processes that import semikit and prepare the inputs.  With
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see spans.py) plus the tracing overhead.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

``--all`` runs every workload, untraced then traced, each in its own fresh
process one after another, prints every metric with its unit, and writes
them to bench/.work/results.json.
"""

from __future__ import annotations

import os

# One thread per process, set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
WORKLOAD_NAMES = ("census_verify", "transform_structure", "rees_roundtrip")
SETUP_PROBES = 5
# A transform_structure pass takes 15-20 s; its median needs two of them.
MIN_PASSES = 2
# Reference calls before and after each set-up probe that give the host's slowness.
SETUP_SAMPLES = 7


def import_semikit():
    """Import semikit from this checkout's src/, or exit 2."""
    package = os.path.join(SRC, "semikit")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        sys.stderr.write(f"error: no semikit sources at {package}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import semikit

    if os.path.dirname(os.path.abspath(semikit.__file__)) != package:
        sys.stderr.write(f"error: imported semikit from {semikit.__file__}, not {package}\n")
        sys.exit(2)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--all", action="store_true", help="run every workload in its own process")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.all == bool(args.workload):
        p.error("give exactly one of --workload or --all")
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def child_argv(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), *extra]


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Seconds from spawning a fresh process to its inputs being ready, as
    measured and at the nominal host speed (see hostspeed.py)."""
    before = hostspeed.slowness(SETUP_SAMPLES)
    start = time.perf_counter()
    with subprocess.Popen(child_argv(workload, seed, "--probe-setup"), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return elapsed, elapsed / statistics.fmean((before, hostspeed.slowness(SETUP_SAMPLES)))


def timed_pass(workload, log, raw_clock=time.perf_counter) -> dict[str, float]:
    start, raw_start = log.clock(), raw_clock()
    stages = workload.run_pass(log)
    stages["wall_s"] = log.clock() - start
    stages["raw_wall_s"] = raw_clock() - raw_start
    for tag in ("build", "query"):
        stages[f"{tag}_s"] = sum(stages.get(s, 0.0) for s, t in workload.STAGES if t == tag)
    return stages


def median_of(passes: list[dict], key: str) -> float:
    return statistics.median(p[key] for p in passes)


def until(deadline: float, step, least: int = 1) -> list:
    """Call ``step`` at least ``least`` times, then until the next call would
    likely end after ``deadline``."""
    first = time.perf_counter()
    results = []
    while True:
        results.append(step())
        now = time.perf_counter()
        if len(results) >= least and now + (now - first) / len(results) > deadline:
            return results


def run_workload(args) -> int:
    import spans
    from workloads import WORKLOADS, OpLog

    start = time.perf_counter()
    deadline = start + args.seconds
    # Relative to the checkout root, so that no output names the checkout.
    workdir = os.path.relpath(os.path.join(WORK, args.workload), ROOT)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    log = OpLog()
    try:
        if args.trace:
            # Warm-up, so that one-time costs do not land on the untraced
            # side of trace.overhead_s.  Its outputs are still checked.
            workload.run_pass(log)
            tracer = spans.Tracer()
            untraced, traced = [], []

            def traced_round():
                untraced.append(timed_pass(workload, log))
                log.bytes_out = {}
                tracer.reset()
                tracer.install()
                try:
                    wall = timed_pass(workload, log)["wall_s"]
                finally:
                    tracer.uninstall()
                traced.append({**tracer.layer_metrics(log.bytes_out), "wall_s": wall})

            until(deadline, traced_round)
        else:
            setup = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
            with hostspeed.SpeedClock() as clock:
                log.clock = clock.now
                untraced = until(deadline, lambda: timed_pass(workload, log, clock.workload_time),
                                 least=MIN_PASSES)
            slowness = clock.median_slowness()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        tracer.dump(os.path.join(WORK, "spans", f"{args.workload}.tsv"))
        metrics = spans.merge_passes(traced)
        metrics["trace.overhead_s"] = metrics.pop("wall_s") - median_of(untraced, "wall_s")
        units = spans.metric_units()
    else:
        metrics = {
            "setup_s": statistics.median(s for _, s in setup),
            "wall_s": median_of(untraced, "wall_s"),
            "build_s": median_of(untraced, "build_s"),
            "query_s": median_of(untraced, "query_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "wall_s": "s", "build_s": "s", "query_s": "s", "peak_rss_mb": "MB"}
        # For people, not in the JSON: the times as measured on the clock
        # on the wall, the host's median slowness, and the workload's own
        # stage names (in seconds at the nominal host speed).
        print(f"{'setup_s as measured':<44} {statistics.median(r for r, _ in setup):>14.6f} s")
        print(f"{'wall_s as measured':<44} {median_of(untraced, 'raw_wall_s'):>14.6f} s")
        print(f"{'host slowness':<44} {slowness:>14.6f} ratio")
        for stage, _ in workload.STAGES:
            print(f"{stage:<44} {median_of(untraced, stage):>14.6f} s")
    print(f"{'passes':<44} {len(untraced):>14d} count")
    print(f"{'error_rate':<44} {log.failed / log.attempted:>14.6f} ratio")
    for name, unit in units.items():
        print(f"{name:<44} {metrics[name]:>14.6f} {unit}")
    for error in log.errors[:10]:
        sys.stderr.write(f"FAILED {error}\n")
    result = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload, untraced then traced, in fresh processes in turn."""
    results = {}
    status = 0
    for workload in WORKLOAD_NAMES:
        for trace in ("0", "1"):
            argv = child_argv(workload, args.seed, "--seconds", str(args.seconds), "--trace", trace)
            print(f"== {workload} trace={trace}", flush=True)
            proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{proc.stdout}exit {proc.returncode}", flush=True)
                status = 1
                continue
            print("\n".join(lines[:-1]), flush=True)
            doc = json.loads(lines[-1])
            results[f"{workload}/trace{trace}"] = doc
            if not doc["correct"]:
                status = 1
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, "results.json"), "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.all:
        return run_all(args)
    os.chdir(ROOT)
    import_semikit()
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
