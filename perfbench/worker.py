"""One benchmark process: set up a workload, run one timed pass, check it.

run.py starts a fresh interpreter for every pass, so the import time and
the peak RSS it reports belong to that pass alone:

    python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS_JSON]

MODE is `setup` (set-up only), `pass` (set-up, timed pass, checks) or
`traced` (the same with the tracer installed before set-up; the spans are
written to SPANS_JSON).  The last line of standard output is one JSON object.
Untraced processes also time a fixed reference kernel before and after
set-up, after every operation and, from a SIGALRM handler, every second
during it (that time is taken out of the operation's), so run.py can
scale times to one host speed.
"""

from __future__ import annotations

import json
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# host-speed samples: 50 ms around each operation, 20 ms every second inside
EDGE_SAMPLE_S = 0.05
SAMPLE_S = 0.02
SAMPLE_EVERY_S = 1.0


def _reference_kernel() -> int:
    """Fixed work of f2lab's kind that no change to f2lab can touch:
    bit-sliced elimination of 64 random 4 x 4 matrices, then a plain
    interpreter loop that takes most of the time.  Of the kernels tried,
    this interpreter-bound one tracked the slow-downs of the exact,
    exhaustive and sample passes best (time ratios near 1:1)."""
    rnd = random.Random(1)
    n, lanes = 4, 64
    full = (1 << lanes) - 1
    planes = [[rnd.getrandbits(lanes) for _ in range(n)] for _ in range(n)]
    occupied = [0] * n
    slots = [[0] * n for _ in range(n)]
    for i in range(n):
        row, live = list(planes[i]), full
        for p in range(n):
            hit = row[p] & live
            red = hit & occupied[p]
            if red:
                for j in range(p, n):
                    row[j] ^= slots[p][j] & red
            new = hit & ~occupied[p]
            if new:
                for j in range(p, n):
                    slots[p][j] |= row[j] & new
                occupied[p] |= new
                live ^= new
    acc = 0
    for i in range(60_000):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def reference_s(chunk_s: float = EDGE_SAMPLE_S) -> float:
    """Median seconds of one reference-kernel call over about `chunk_s`:
    how fast this shared host runs f2lab-like code right now."""
    times = []
    end = time.perf_counter() + chunk_s
    while not times or time.perf_counter() < end:
        start = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv: list[str]) -> int:
    name, seed, mode = argv[0], int(argv[1]), argv[2]
    refs = [reference_s()]
    t0 = time.perf_counter()
    import workloads  # imports f2lab; part of the timed set-up
    import f2lab
    if not Path(f2lab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"f2lab imported from {f2lab.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 3
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        with tracer.phase("setup"):
            wl = workloads.WORKLOADS[name](seed)
    else:
        wl = workloads.WORKLOADS[name](seed)
    out = {"setup_s": time.perf_counter() - t0, "f2lab_version": f2lab.__version__,
           "python": platform.python_version()}
    refs.append(reference_s())
    out["setup_ref_s"] = (refs[0] + refs[1]) / 2
    if mode == "setup":
        print(json.dumps(out))
        return 0

    results = []
    cpu_s = 0.0
    sampling = tracer is None
    samples: list[float] = []  # host speed, sampled during operations
    sampled_s = [0.0]  # time spent sampling, taken out of the operations

    def sample_host(signum, frame):
        start = time.perf_counter()
        samples.append(reference_s(SAMPLE_S))
        sampled_s[0] += time.perf_counter() - start

    signal.signal(signal.SIGALRM, sample_host)
    with tracer.phase("pass") if tracer else nullcontext():
        for op in wl.ops:
            n0, s0 = len(samples), sampled_s[0]
            if sampling:
                signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
            cpu0, start = time.process_time(), time.perf_counter()
            try:
                value, err = op.run(), None
            except Exception as exc:  # counted as a failed operation
                traceback.print_exc()
                value, err = None, f"raised {type(exc).__name__}: {exc}"
            signal.setitimer(signal.ITIMER_REAL, 0)
            sampled = sampled_s[0] - s0
            seconds = time.perf_counter() - start - sampled
            cpu_s += time.process_time() - cpu0 - sampled
            if sampling:
                refs.append(reference_s())
            ref_s = statistics.mean([refs[-2], *samples[n0:], refs[-1]])
            results.append((op, value, err, seconds, ref_s))
    out["wall_s"] = sum(r[3] for r in results)
    out["cpu_s"] = cpu_s
    out["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer:
        tracer.uninstall()
        out["trace"] = tracer.summary("pass")
        Path(argv[3]).parent.mkdir(parents=True, exist_ok=True)
        with open(argv[3], "w", encoding="ascii") as fp:
            json.dump({"workload": name, "seed": seed, "spans": tracer.spans}, fp)

    ops = []
    for op, value, err, seconds, ref_s in results:
        if err is None:
            try:
                err = op.check(value)
            except Exception as exc:  # a reference that cannot be computed fails
                traceback.print_exc()
                err = f"check raised {type(exc).__name__}: {exc}"
        ops.append({"name": op.name, "seconds": seconds, "ref_s": ref_s, "error": err})
    out["ops"] = ops
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
