"""Span tracer installed on f2lab's module attributes at run time.

`from .x import y` binds `y` in every importing module, so each traced
function is wrapped in each module that calls it through its own binding
(`BINDINGS` below).  Installing checks that every listed binding really is
the traced function and fails loudly otherwise; `reached` records which
bindings were called, so a binding that no workload reaches shows up in the
benchmark's self-test.

Every call keeps its span's duration, its parent and its self time (the
duration minus the time covered by child spans).  Calls shorter than
`FOLD_BELOW_S` (Prng.bits, evaluate, the small bias_exact calls of the
harness, ...) are folded into a count and total under the enclosing span
instead of being stored one by one.  Spans stay in memory; the worker writes them out when it ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from math import comb

FOLD_BELOW_S = 1e-3

HARNESS_EXPERIMENTS = (
    "moment_identity", "sum_zero", "subspace_membership", "span_dimension",
    "bias_tail", "low_rank_bias_floor", "joint_vanishing", "expected_bias",
    "bias_trace", "bias_matmul", "explicit_form", "linear_preimage",
    "corank_margin", "mc_bias")


# ---------------------------------------------------------------------------
# Work counts, computed from each call's arguments (and result).
# Each note is note(tracer, args, kwargs, result, parent_name, self_s).
# ---------------------------------------------------------------------------


def _note_batched(tr, args, kwargs, result, parent, self_s):
    _, nrows, ncols, nlanes = args
    tr.add("f2linalg.batched_rank_histogram.lanes", nlanes)
    tr.peak("f2linalg.plane_bytes_peak", nrows * ncols * nlanes // 8)
    if parent == "f2linalg.span_rank_histogram":
        tr.add("f2linalg.span_rank_histogram.chunks", 1)
    if (nrows, ncols, nlanes) == (20, 20, 1 << 20):
        tr.headline_s.append(self_s)


def _note_walk(tr, args, kwargs, result, parent, self_s):
    t = args[0]
    tr.add("bias.walk.inputs", 1 << (t.k * t.d))


def _note_class_max(tr, args, kwargs, result, parent, self_s):
    _note_walk(tr, args, kwargs, result, parent, self_s)
    t = args[0]
    degree = args[1] if len(args) > 1 else kwargs["degree"]
    n = t.k * t.d
    monomials = sum(comb(n, i) for i in range(min(degree, n) + 1))
    tr.add("bias.corr_class_max.class_size", 1 << monomials)


def _note_mc(tr, args, kwargs, result, parent, self_s):
    tr.add("bias.bias_mc.samples", result.samples)


def _note_rank_exact(tr, args, kwargs, result, parent, self_s):
    t = args[0]
    t_max = args[1] if len(args) > 1 else kwargs["t_max"]
    if t.bits == 0 or t.d <= 2:
        return
    base = ((1 << t.k) - 1) ** t.d
    tr.add("rank.rank_exact.table_entries",
           sum(comb(base, m) for m in range(1, (t_max + 1) // 2 + 1)))


def _note_bits(tr, args, kwargs, result, parent, self_s):
    tr.add("prng.bits.bits", args[1])


def _note_run_all(tr, args, kwargs, result, parent, self_s):
    tr.add("harness.reports", len(result))
    tr.add("harness.failed", sum(1 for r in result if not r.ok()))


_BUILDERS = ("trace_tensor", "explicit_form_tensor", "random_tensor",
             "random_rank_decomp", "matmul_tensor")

# (span name, home module, attribute, modules whose binding is wrapped, note)
BINDINGS = [
    ("f2linalg.batched_rank_histogram", "f2linalg", "_batched_rank_histogram",
     ("f2linalg", "bias"), _note_batched),
    ("f2linalg.doubling_planes", "f2linalg", "_doubling_planes", ("f2linalg",), None),
    ("f2linalg.span_rank_histogram", "f2linalg", "span_rank_histogram",
     ("bias", "rank"), None),
    ("f2linalg.small_rank", "f2linalg", "mat_rank", ("bias",), None),
    ("f2linalg.small_rank", "f2linalg", "rank_of_row_ints",
     ("f2linalg", "rank", "harness"), None),
    ("f2linalg.small_rank", "f2linalg", "echelonize", ("f2linalg", "harness"), None),
    ("f2linalg.small_rank", "f2linalg", "kernel", ("f2linalg", "rank"), None),
    ("f2linalg.small_rank", "f2linalg", "dual_space", ("rank",), None),
    ("f2linalg.small_rank", "f2linalg", "min_weight", ("rank",), None),
    ("bias.tail_matrix_planes", "bias", "_tail_matrix_planes", ("bias",), None),
    ("bias.bias_exact", "bias", "bias_exact", ("bias", "rank", "harness"), None),
    ("bias.bias_bruteforce", "bias", "bias_bruteforce", ("bias", "harness"), _note_walk),
    ("bias.corr_exact", "bias", "corr_exact", ("bias", "harness"), _note_walk),
    ("bias.corr_class_max", "bias", "corr_class_max", ("bias",), _note_class_max),
    ("bias.bias_mc", "bias", "bias_mc", ("bias", "harness"), _note_mc),
    ("rank.rank_exact", "rank", "rank_exact", ("rank",), _note_rank_exact),
    ("rank.code_certificate", "rank", "code_certificate", ("rank",), None),
    ("prng.bits", "prng", "Prng.bits", ("prng",), _note_bits),
    ("tensors.evaluate", "tensors", "evaluate", ("tensors",), None),
    ("gf2k.make_field", "gf2k", "make_field", ("tensors",), None),
    ("tensors.build", "tensors", "tensor_from_decomp", ("tensors",), None),
    *[("tensors.build", "tensors", b, ("tensors", "harness"), None) for b in _BUILDERS],
    *[(f"harness.{e.replace('_', '-')}", "harness", f"verify_{e}", ("harness",), None)
      for e in HARNESS_EXPERIMENTS],
    ("numerics.profile_max_check", "numerics", "profile_max_check", ("harness",), None),
    ("numerics.inequality_checks", "numerics", "inequality_checks", ("harness",), None),
    ("harness.run_all", "harness", "run_all", ("harness",), _note_run_all),
    ("cli.main", "cli", "main", ("cli",), None),
]


def _resolve(module: str, attr: str):
    """(owner object, leaf name) for `attr`, which may be `Class.method`."""
    owner = importlib.import_module(f"f2lab.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, self, incl
        self.counters: dict[str, int] = defaultdict(int)
        self.peaks: dict[str, int] = defaultdict(int)
        self.headline_s: list[float] = []
        self.reached: set[str] = set()
        self.phase_self: dict[str, float] = defaultdict(float)
        self.installed: list[str] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- counters -----------------------------------------------------------

    def add(self, key: str, value: int) -> None:
        self.counters[key] += value

    def peak(self, key: str, value: int) -> None:
        self.peaks[key] = max(self.peaks[key], value)

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        plan = []
        for name, home, attr, modules, note in BINDINGS:
            owner, leaf = _resolve(home, attr)
            fn = getattr(owner, leaf)
            for module in modules:
                b_owner, b_leaf = _resolve(module, attr)
                if getattr(b_owner, b_leaf) is not fn:
                    raise RuntimeError(f"f2lab.{module}.{attr} is not "
                                       f"f2lab.{home}.{attr}; fix the binding table")
                plan.append((b_owner, b_leaf, fn, name, f"{module}.{attr}", note))
        for owner, leaf, fn, name, binding, note in plan:
            self._patches.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(fn, name, binding, note))
            self.installed.append(binding)

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._patches):
            setattr(owner, leaf, fn)
        self._patches.clear()

    def _wrap(self, fn, name, binding, note):
        perf = time.perf_counter
        enter, leave = self._enter, self._leave

        def wrapper(*args, **kwargs):
            frame = enter(name, perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                leave(frame, perf(), binding, None, args, kwargs, None)
                raise
            leave(frame, perf(), binding, note, args, kwargs, result)
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str, start: float) -> list:
        self._next_id += 1
        # name, start, time covered by child spans, folded children, id
        frame = [name, start, 0.0, None, self._next_id]
        self._stack.append(frame)
        return frame

    def _leave(self, frame, end, binding, note, args, kwargs, result) -> None:
        stack = self._stack
        stack.pop()
        name, start, child_s, folded, fid = frame
        dur = end - start
        self_s = dur - child_s
        if not stack:
            self.spans.append({"id": fid, "parent": None, "name": name,
                               "start": start, "end": end, "self_s": self_s,
                               "folded": folded or {}})
            return
        parent = stack[-1]
        parent[2] += dur
        self.phase_self[stack[0][0]] += self_s
        st = self.stats[name]
        if parent[0] != name:  # a group entered from inside itself counts once
            st[0] += 1
            st[2] += dur
        st[1] += self_s
        self.reached.add(binding)
        if note is not None:
            note(self, args, kwargs, result, parent[0], self_s)
        if dur < FOLD_BELOW_S:
            pf = parent[3]
            if pf is None:
                pf = parent[3] = {}
            for child, (n, s) in (folded or {}).items():
                agg = pf.setdefault(child, [0, 0.0])
                agg[0] += n
                agg[1] += s
            agg = pf.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += dur
            return
        self.spans.append({"id": fid, "parent": parent[4], "name": name,
                           "start": start, "end": end, "self_s": self_s,
                           "folded": folded or {}})

    @contextmanager
    def phase(self, name: str):
        """Root span around the set-up or the timed pass."""
        frame = self._enter(name, time.perf_counter())
        try:
            yield
        finally:
            self._leave(frame, time.perf_counter(), None, None, None, None, None)

    # -- results ------------------------------------------------------------

    def summary(self, phase: str) -> dict:
        """Plain data for the parent process.  `coverage_gap_s` is the
        phase's duration minus its untraced time minus the self time of
        every call under it: 0 up to rounding unless spans leak."""
        root = next(s for s in self.spans if s["name"] == phase and s["parent"] is None)
        dur = root["end"] - root["start"]
        return {
            "stats": dict(self.stats),
            "counters": {**self.counters, **self.peaks},
            "headline_s": self.headline_s,
            "reached": sorted(self.reached),
            "installed": self.installed,
            "coverage_gap_s": dur - root["self_s"] - self.phase_self[phase],
        }


SPANNED = ("f2linalg.batched_rank_histogram", "f2linalg.doubling_planes",
           "f2linalg.span_rank_histogram", "f2linalg.small_rank",
           "bias.tail_matrix_planes", "bias.bias_bruteforce", "bias.corr_exact",
           "bias.corr_class_max", "bias.bias_mc", "bias.bias_exact",
           "rank.rank_exact", "rank.code_certificate", "prng.bits",
           "tensors.evaluate")
SELF_ONLY = (*[f"harness.{e.replace('_', '-')}" for e in HARNESS_EXPERIMENTS],
             "numerics.profile_max_check", "numerics.inequality_checks",
             "cli.main", "gf2k.make_field", "tensors.build")
COUNTERS = ("f2linalg.batched_rank_histogram.lanes", "f2linalg.span_rank_histogram.chunks",
            "f2linalg.plane_bytes_peak", "bias.corr_class_max.class_size",
            "bias.walk.inputs", "bias.bias_mc.samples", "rank.rank_exact.table_entries",
            "prng.bits.bits", "harness.reports", "harness.failed")


def work_counts(summary: dict) -> dict[str, int]:
    """The exact counts of one traced run: call counts and work counters."""
    out = {f"{n}.calls": summary["stats"].get(n, [0])[0] for n in SPANNED}
    out.update({c: summary["counters"].get(c, 0) for c in COUNTERS})
    return out


def layer_times(summary: dict) -> dict[str, float]:
    """Self times and rates of one traced run."""
    stats = summary["stats"]

    def self_s(name):
        return stats.get(name, [0, 0.0, 0.0])[1]

    out = {f"{n}.self_s": self_s(n) for n in (*SPANNED, *SELF_ONLY)}
    counters = summary["counters"]
    walk_s = sum(self_s(n) for n in ("bias.bias_bruteforce", "bias.corr_exact",
                                     "bias.corr_class_max"))
    out["bias.walk.inputs_per_s"] = (counters.get("bias.walk.inputs", 0) / walk_s
                                     if walk_s else 0.0)
    mc_s = stats.get("bias.bias_mc", [0, 0.0, 0.0])[2]
    out["bias.bias_mc.samples_per_s"] = (counters.get("bias.bias_mc.samples", 0) / mc_s
                                         if mc_s else 0.0)
    # the README headline: 2^20 ranks of 20 x 20 matrices in one kernel call
    head = summary["headline_s"]
    out["f2linalg.batched_rank_histogram.matrices_per_s"] = (
        (1 << 20) / statistics.median(head) if head else 0.0)
    return out
