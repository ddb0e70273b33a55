"""The f2lab benchmark: four closed-loop workloads, one operation at a time.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 20 --trace 0

Workloads (see workloads.py): `exact` (the bit-sliced rank kernel),
`exhaustive` (the truth-table walkers and the exact rank search), `sample`
(seeded Monte Carlo and one long draw) and `verify-full` (the whole
verification harness through the CLI); `--workload all` runs the four in
turn.  Every pass runs in a fresh single-threaded interpreter; passes are
started one after another until `--seconds` have gone by, each after
`SETUPS_PER_PASS` set-up-only processes.  f2lab is imported from `src/` of the
checkout this file lives in, with F2LAB_THREADS and F2LAB_BUDGET_BYTES
removed from the environment.

With `--trace 0` the metrics are end to end: `wall_s` (median seconds of
one pass, set-up excluded), `setup_s` (median seconds to import f2lab and
build the inputs, over every process of the run) and `peak_rss_mib`
(median peak RSS of the pass processes).  The speed of the shared host
drifts by tens of percent over minutes, so both times are scaled to a
fixed host speed: each operation's seconds are multiplied by
REFERENCE_S over the mean time of a fixed reference kernel measured
right before and after it and every second during it (worker.py); the
unscaled times are printed too.  With `--trace 1` untraced and
traced passes alternate and the metrics are per layer (tracer.py), with
`trace.overhead_frac` = traced over untraced `wall_s`, minus 1.  Every
operation is checked against its reference; the last line of standard
output is one JSON object, and the exit status is 1 when any operation
failed, 2 when the benchmark itself could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_times, work_counts

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("exact", "exhaustive", "sample", "verify-full")
SETUPS_PER_PASS = 2
# Seconds of one reference-kernel call (worker.py) that times are scaled to:
# about its speed on a 2-vCPU x86-64 host running Python 3.11.
REFERENCE_S = 0.006
WORKER_TIMEOUT_S = 170
UNITS = {"peak_rss_mib": "MiB", "plane_bytes_peak": "B", "overhead_frac": "frac"}


class BenchError(Exception):
    """The benchmark could not run (as opposed to an operation failing)."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    # both change results or capacity
    env.pop("F2LAB_THREADS", None)
    env.pop("F2LAB_BUDGET_BYTES", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(workload: str, seed: int, mode: str) -> dict:
    cmd = [sys.executable, str(WORKER), workload, str(seed), mode]
    if mode == "traced":
        cmd.append(str(HERE / "out" / f"trace-{workload}.json"))
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker for {workload} ran over {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git unavailable)"
    return proc.stdout.strip() or "unknown"


def unit(metric: str) -> str:
    last = metric.rsplit(".", 1)[-1]
    if last in UNITS:
        return UNITS[last]
    if last.endswith("_per_s"):
        return "1/s"
    return "s" if last.endswith("_s") else "count"


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Run one workload; print its report; return (result object, exit status)."""
    run_worker(workload, seed, "setup")  # fills bytecode caches; fails fast without src/
    setups, passes, traced = [], [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # set-up-only processes spread over the run, like the passes
        setups += [run_worker(workload, seed, "setup") for _ in range(SETUPS_PER_PASS)]
        passes.append(run_worker(workload, seed, "pass"))
        if trace:
            traced.append(run_worker(workload, seed, "traced"))

    ops = [op for p in passes + traced for op in p["ops"]]
    failed = [op for op in ops if op["error"]]
    env = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "git_commit": git_commit(), "f2lab_version": passes[0]["f2lab_version"]}
    print(f"workload={workload} seed={seed} seconds={seconds} trace={int(trace)}")
    print("env " + json.dumps(env))
    for name in dict.fromkeys(op["name"] for op in ops):
        times = [op["seconds"] for p in passes for op in p["ops"] if op["name"] == name]
        print(f"op {name}: median {statistics.median(times):.4f} s ({quartiles(times)})")
    for op in failed:
        print(f"FAILED {op['name']}: {op['error']}")

    raw_walls = [p["wall_s"] for p in passes]
    raw_setups = [s["setup_s"] for s in setups + passes]
    walls = [sum(op["seconds"] * REFERENCE_S / op["ref_s"] for op in p["ops"]) for p in passes]
    setup_s = [s["setup_s"] * REFERENCE_S / s["setup_ref_s"] for s in setups + passes]
    rss = [p["rss_kib"] / 1024 for p in passes]
    refs = [op["ref_s"] for p in passes for op in p["ops"]]
    print(f"host reference kernel {statistics.median(refs) * 1e3:.3f} ms "
          f"({quartiles([r * 1e3 for r in refs])}); scaled to {REFERENCE_S * 1e3:g} ms")
    print(f"unscaled wall_s {statistics.median(raw_walls):.4f} s ({quartiles(raw_walls)})")
    print(f"unscaled setup_s {statistics.median(raw_setups):.4f} s ({quartiles(raw_setups)})")
    print(f"wall_s {statistics.median(walls):.4f} s ({quartiles(walls)})")
    print(f"setup_s {statistics.median(setup_s):.4f} s ({quartiles(setup_s)})")
    print(f"peak_rss_mib {statistics.median(rss):.2f} MiB ({quartiles(rss)})")
    print(f"fail_frac {len(failed) / len(ops):g} ({len(failed)} of {len(ops)} operations)")

    if trace:
        metrics = per_layer(passes, traced)
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup_s),
                   "peak_rss_mib": statistics.median(rss)}
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": unit(k)}
                          for k, v in metrics.items()}}
    return result, 1 if failed else 0


def per_layer(passes: list[dict], traced: list[dict]) -> dict[str, float]:
    summaries = [t["trace"] for t in traced]
    counts = work_counts(summaries[0])
    if any(work_counts(s) != counts for s in summaries[1:]):
        print("WARNING work counts differ between traced passes")
    times = [layer_times(s) for s in summaries]
    metrics: dict[str, float] = dict(counts)
    for key in times[0]:
        metrics[key] = statistics.median(t[key] for t in times)
    metrics["proc.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
    metrics["trace.overhead_frac"] = (statistics.median(t["wall_s"] for t in traced)
                                      / statistics.median(p["wall_s"] for p in passes) - 1)
    gaps = [s["coverage_gap_s"] for s in summaries]
    print(f"trace coverage: largest gap {max(map(abs, gaps)):.2e} s between the traced "
          f"wall_s and untraced plus per-layer self time")
    absent = sorted(k for k, v in metrics.items() if v == 0)
    print("not reached on this workload, reported as 0: " + (", ".join(absent) or "none"))
    return metrics


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run stops its worker: subprocess.run kills it on SystemExit
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result, code = measure(workload, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
        status = max(status, code)
    return status


if __name__ == "__main__":
    sys.exit(main())
