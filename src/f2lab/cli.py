"""Command-line interface.

One binary, subcommands for generation, bias/correlation, rank bounds,
and the verification suite.  `--json` switches any command to machine
output.  Exit codes: 0 when every assertion holds, 1 when a verified
statement fails, 2 for usage, format, or capacity errors, 3 when an
internal invariant of a computed result is violated (a program fault).

Environment: F2LAB_BUDGET_BYTES (enumeration guard) is read by the
library.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, numerics, rank, tensors
from .bias import bias_bruteforce, bias_exact, bias_mc, corr_class_max, corr_exact
from .errors import CapacityError, FormatError, InvariantError
from .report import fmt_float


def _read_tensor_arg(path: str) -> tensors.DenseTensor:
    if path == "-":
        return tensors.read_tensor(sys.stdin)
    with open(path, "r", encoding="ascii") as fp:
        return tensors.read_tensor(fp)


def _read_decomp_arg(path: str) -> tensors.RankDecomposition:
    if path == "-":
        return tensors.read_decomp(sys.stdin)
    with open(path, "r", encoding="ascii") as fp:
        return tensors.read_decomp(fp)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="ascii") as fp:
            fp.write(text)


def _print_obj(obj: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for key, val in obj.items():
            print(f"{key}: {val}")


def _cmd_gen(args) -> int:
    kind = args.what
    if kind == "trace":
        t = tensors.trace_tensor(args.k)
    elif kind == "matmul":
        t = tensors.matmul_tensor(args.n)
    elif kind == "explicit":
        t = tensors.explicit_form_tensor(args.d, args.k)
    elif kind == "random":
        t = tensors.random_tensor(args.d, args.k, args.seed)
    else:  # random-rank
        import io
        decomp = tensors.random_rank_decomp(args.d, args.k, args.t, args.seed)
        buf = io.StringIO()
        tensors.write_decomp(buf, decomp)
        _emit(buf.getvalue(), args.out)
        return 0
    _emit(tensors.tensor_to_string(t), args.out)
    return 0


def _cmd_bias(args) -> int:
    t = _read_tensor_arg(args.file)
    if args.mode == "exact":
        value = bias_exact(t)
        _print_obj({"bias": str(value), "float": fmt_float(value.to_float())},
                   args.json)
        return 0
    if args.mode == "brute":
        value = bias_bruteforce(t)
        _print_obj({"bias": str(value), "float": fmt_float(value.to_float())},
                   args.json)
        return 0
    est = bias_mc(t, args.samples, args.confidence, args.seed)
    _print_obj({
        "point": fmt_float(est.point),
        "ci_halfwidth": fmt_float(est.ci_halfwidth),
        "samples": est.samples,
        "confidence": fmt_float(est.confidence),
        "seed": est.seed,
    }, args.json)
    return 0


def _cmd_corr(args) -> int:
    t = _read_tensor_arg(args.file)
    if (args.poly is None) == (args.max_degree is None):
        raise FormatError("pass exactly one of --poly or --max-degree")
    if args.poly is not None:
        with open(args.poly, "r", encoding="ascii") as fp:
            poly = tensors.read_poly(fp)
        value = corr_exact(t, poly)
        _print_obj({"correlation": str(value), "float": fmt_float(value.to_float())},
                   args.json)
        return 0
    value, witness = corr_class_max(t, args.max_degree)
    monos = ["#" if not m else " ".join(str(v + 1) for v in m)
             for m in witness.monomials]
    _print_obj({
        "max_correlation": str(value),
        "float": fmt_float(value.to_float()),
        "witness_monomials": "; ".join(monos) if monos else "(zero polynomial)",
    }, args.json)
    return 0


def _cmd_rank(args) -> int:
    if args.mode == "exact":
        t = _read_tensor_arg(args.file)
        r = rank.rank_exact(t, args.max_t)
        _print_obj({"rank": r if r is not None else f"exceeds {args.max_t}"},
                   args.json)
        return 0
    if args.mode == "lb":
        if args.method != "bias":
            raise FormatError(f"unknown lower-bound method {args.method!r}")
        t = _read_tensor_arg(args.file)
        b = bias_exact(t)
        lb = rank.rank_lb_bias(b, t.d)
        _print_obj({"bias": str(b), "rank_lower_bound": lb}, args.json)
        return 0
    decomp = _read_decomp_arg(args.file)
    cert = rank.code_certificate(decomp)
    if args.json:
        print(cert.to_json())
    else:
        _print_obj({
            "method": cert.method,
            "rank_lower_bound": cert.lower_bound,
            "kernel_dim": cert.kernel_dim,
            "dual_dim": cert.dual_dim,
            "dual_min_weight": cert.dual_min_weight,
            "reconstructed_bias": str(cert.reconstructed_bias),
        }, False)
    return 0


_VERIFY_SINGLE = {
    "moment-identity": lambda a: harness.verify_moment_identity(a.d, a.k, a.t),
    "sum-zero": lambda a: harness.verify_sum_zero(a.d, a.k, a.t, a.eps),
    "subspace-membership": lambda a: harness.verify_subspace_membership(
        a.d, a.k, list(range(0, a.k ** a.d + 1, max(1, a.k ** a.d // 8))),
        a.trials, a.seed),
    "span-dimension": lambda a: harness.verify_span_dimension(a.d, a.k, a.t),
    "bias-tail": lambda a: harness.verify_bias_tail(a.d, a.k, a.eps, a.samples, a.seed),
    "low-rank-bias-floor": lambda a: harness.verify_low_rank_bias_floor(
        a.d, a.k, a.t, a.trials, a.seed),
    "joint-vanishing": lambda a: harness.verify_joint_vanishing(
        a.d, a.k, a.t, a.trials, a.seed),
    "expected-bias": lambda a: harness.verify_expected_bias(a.d, a.k, a.t),
    "bias-trace": lambda a: harness.verify_bias_trace(a.k),
    "bias-matmul": lambda a: harness.verify_bias_matmul(a.n),
    "explicit-form": lambda a: harness.verify_explicit_form(a.d, a.k, a.samples, a.seed),
    "linear-preimage": lambda a: harness.verify_linear_preimage(a.k, a.trials, a.seed),
    "corank-margin": lambda a: harness.verify_corank_margin(a.n),
    "mc-bias": lambda a: harness.verify_mc_bias(a.d, a.k, a.samples, 0.99, a.seed),
}


def _cmd_verify(args) -> int:
    if args.name == "all":
        reports = harness.run_all(args.profile)
    else:
        if args.name not in _VERIFY_SINGLE:
            names = ", ".join(sorted(_VERIFY_SINGLE) + ["all"])
            raise FormatError(f"unknown experiment {args.name!r}; choose from: {names}")
        reports = [_VERIFY_SINGLE[args.name](args)]
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], sort_keys=True))
    else:
        for r in reports:
            print(r.format_line())
    return 0 if all(r.ok() for r in reports) else 1


def _cmd_mrrw(args) -> int:
    rho, inv = numerics.mrrw_constant(args.tol)
    _print_obj({"rho": fmt_float(rho), "one_over_rho": fmt_float(inv)}, args.json)
    return 0


def _cmd_profile_max(args) -> int:
    report = numerics.profile_max_check(args.k, args.u, args.trials, args.seed)
    if args.json:
        print(report.to_json())
    else:
        print(report.format_line())
    return 0 if report.ok() else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="f2lab",
        description="Exact bias, correlation, and tensor-rank laboratory over F2.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    gen = sub.add_parser("gen", help="generate tensors and decompositions")
    gsub = gen.add_subparsers(dest="what", required=True)
    g = gsub.add_parser("trace")
    g.add_argument("--k", type=int, required=True)
    g = gsub.add_parser("matmul")
    g.add_argument("--n", type=int, required=True)
    g = gsub.add_parser("explicit")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g = gsub.add_parser("random")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g = gsub.add_parser("random-rank")
    g.add_argument("--d", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--t", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    for g in gsub.choices.values():
        g.add_argument("--out", default=None, help="output path (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    b = sub.add_parser("bias", help="bias of a tensor file")
    b.add_argument("mode", choices=["exact", "brute", "mc"])
    b.add_argument("file", help="F2T1 file, or - for stdin")
    b.add_argument("--samples", type=int, default=100_000)
    b.add_argument("--confidence", type=float, default=0.95)
    b.add_argument("--seed", type=int, default=0)
    add_json(b)
    b.set_defaults(func=_cmd_bias)

    c = sub.add_parser("corr", help="correlation with a polynomial or class")
    c.add_argument("file", help="F2T1 file, or - for stdin")
    c.add_argument("--poly", default=None, help="F2P1 polynomial file")
    c.add_argument("--max-degree", type=int, default=None,
                   help="exact maximum over the degree-<=L class")
    add_json(c)
    c.set_defaults(func=_cmd_corr)

    r = sub.add_parser("rank", help="exact rank, lower bounds, certificates")
    r.add_argument("mode", choices=["exact", "lb", "certify"])
    r.add_argument("file", help="F2T1 (exact/lb) or F2D1 (certify), or -")
    r.add_argument("--max-t", type=int, default=4)
    r.add_argument("--method", default="bias", help="lower-bound method (lb mode)")
    add_json(r)
    r.set_defaults(func=_cmd_rank)

    v = sub.add_parser("verify", help="run a named experiment or the whole suite")
    v.add_argument("name", help="experiment name, or 'all'")
    v.add_argument("--profile", choices=sorted(harness.PROFILES), default="quick")
    v.add_argument("--d", type=int, default=2)
    v.add_argument("--k", type=int, default=2)
    v.add_argument("--t", type=int, default=2)
    v.add_argument("--n", type=int, default=2)
    v.add_argument("--eps", type=float, default=0.25)
    v.add_argument("--trials", type=int, default=100)
    v.add_argument("--samples", type=int, default=10_000)
    v.add_argument("--seed", type=int, default=0)
    add_json(v)
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser("mrrw", help="rate-distance fixed-point constant")
    m.add_argument("--tol", type=float, default=1e-9)
    add_json(m)
    m.set_defaults(func=_cmd_mrrw)

    x = sub.add_parser("appendix-max",
                       help="monotone-profile maximization check")
    x.add_argument("--k", type=int, required=True)
    x.add_argument("--u", type=float, required=True)
    x.add_argument("--trials", type=int, default=1000)
    x.add_argument("--seed", type=int, default=0)
    add_json(x)
    x.set_defaults(func=_cmd_profile_max)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, CapacityError, FileNotFoundError, ValueError) as exc:
        print(f"f2lab: error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"f2lab: error: invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
