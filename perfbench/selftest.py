"""Self-test of the benchmark's tracing; no time bounds.

    python3 perfbench/selftest.py [--seed N]

Runs every workload traced twice (about two minutes) and checks that

* the work counts of the two runs are identical;
* they equal closed forms worked out from the workload's inputs;
* per-layer self time plus untraced time adds up to the traced pass;
* every wrapped binding is called on some workload, so a wrapper put
  into the wrong module fails here;
* BENCHMARK.json lists exactly the per-layer metrics run.py reports.

Exit status 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from run import ROOT, WORKLOADS, run_worker
from tracer import layer_times, work_counts

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402  (needs src/ on the path)


def _mitm_entries(t, t_max: int) -> int:
    if t.bits == 0:
        return 0
    base = ((1 << t.k) - 1) ** t.d
    return sum(comb(base, m) for m in range(1, (t_max + 1) // 2 + 1))


def expected_counts(name: str, seed: int) -> dict[str, int]:
    """Work counts that follow from the inputs alone."""
    if name == "exact":
        dec = workloads.build_exact(seed).inputs["certificate_decomposition"]
        dual = workloads._rank_rows([term.vectors[0].bits for term in dec.terms])
        cert_lanes = [1 << dual] if dual else []
        # trace k = 20, 21, 22; then inside code_certificate the dual span
        # and bias_exact of the decomposed tensor (k = 20)
        lanes = [1 << 20, 1 << 21, 1 << 22, *cert_lanes, 1 << 20]
        return {
            "f2linalg.batched_rank_histogram.lanes": sum(lanes),
            "f2linalg.span_rank_histogram.chunks": sum(n >> 20 or 1 for n in lanes),
            "f2linalg.plane_bytes_peak": 22 * 22 * (1 << 20) // 8,  # 2^20-lane chunks
            "f2linalg.span_rank_histogram.calls": len(lanes),
            "bias.bias_exact.calls": 4,
            "rank.code_certificate.calls": 1,
        }
    if name == "exhaustive":
        cases = workloads.build_exhaustive(seed).inputs["rank_cases"]
        return {
            # trace k=10, explicit (4,7), explicit (3,8), explicit (3,7), random (3,5)
            "bias.walk.inputs": (1 << 30) + (1 << 28) + (1 << 24) + (1 << 21) + (1 << 15),
            "bias.corr_class_max.class_size": 1 << 16,
            "rank.rank_exact.table_entries": sum(
                _mitm_entries(workloads.tensors.tensor_from_decomp(dec), t_max)
                for dec, t_max in cases),
            "f2linalg.batched_rank_histogram.lanes": 1 << 20,
            "f2linalg.plane_bytes_peak": 10 * 10 * (1 << 20) // 8,
            "f2linalg.span_rank_histogram.chunks": 0,
            "bias.tail_matrix_planes.calls": 1,
            "rank.rank_exact.calls": len(cases),
        }
    if name == "sample":
        return {
            "bias.bias_mc.samples": 300_000,
            "tensors.evaluate.calls": 300_000,
            # d draws of k bits per sample, the pass's draw, two set-up tensors
            "prng.bits.bits": 100_000 * 3 * 4 + 200_000 * 2 * 8 + 1448 ** 2 + 4 ** 3 + 8 ** 2,
            "prng.bits.calls": 100_000 * 3 + 200_000 * 2 + 3,
        }
    return {"harness.reports": workloads.FULL_PROFILE_REPORTS, "harness.failed": 0,
            "bias.bias_mc.samples": 20_000 + 200_000}


def main() -> int:
    ap = argparse.ArgumentParser(description="Self-test of the benchmark's tracing.")
    ap.add_argument("--seed", type=int, default=0)
    seed = ap.parse_args().seed
    problems = []
    installed, reached = set(), set()
    names = None
    for name in WORKLOADS:
        runs = [run_worker(name, seed, "traced") for _ in range(2)]
        summaries = [r["trace"] for r in runs]
        counts = [work_counts(s) for s in summaries]
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                    if counts[0][k] != counts[1][k]}
            problems.append(f"{name}: work counts differ between runs: {diff}")
        for key, want in expected_counts(name, seed).items():
            if counts[0][key] != want:
                problems.append(f"{name}: {key} = {counts[0][key]}, closed form {want}")
        for r in runs:
            gap = r["trace"]["coverage_gap_s"]
            if abs(gap) > 1e-6 * r["wall_s"]:
                problems.append(f"{name}: self times miss {gap:.3g} s of the traced pass")
            problems += [f"{name}: {op['name']}: {op['error']}" for op in r["ops"] if op["error"]]
        installed |= set(summaries[0]["installed"])
        reached |= {b for s in summaries for b in s["reached"]}
        names = [*counts[0], *layer_times(summaries[0]), "proc.cpu_s", "trace.overhead_frac"]
        print(f"{name}: " + json.dumps({k: v for k, v in counts[0].items() if v}))
    for binding in sorted(installed - reached):
        problems.append(f"wrapped binding f2lab.{binding} is never called")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        listed = [m["name"] for m in json.load(fp)["per_layer"]]
    if sorted(listed) != sorted(names):
        problems.append(f"BENCHMARK.json per_layer differs from the reported metrics: "
                        f"{sorted(set(listed) ^ set(names))}")
    for p in problems:
        print("FAIL " + p)
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
