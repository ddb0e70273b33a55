"""Command-line interface.

One binary, subcommands for generation, bias/correlation, rank bounds,
and the verification suite.  `--json` switches every command but `gen`,
which writes a file format, to machine output.  Exit codes: 0 when every
assertion holds, 1 when a verified statement fails, 2 for usage, format,
or capacity errors, 3 when an internal invariant of a computed result is
violated (a program fault).

The flags of `verify NAME` and `gen KIND` come from signatures.  `verify
NAME` runs `harness.verify_<NAME>` (dashes for underscores) and passes
each of its parameters the value of the flag of the same name, or None
where there is no such flag, so the experiment's signature is the only
list of its arguments.  `timed` sets the wall time of every report.
`gen KIND` takes one required int flag per parameter of its builder in
`GENERATORS`, plus `--out`.  `bias mc` and `rank certify` print the
fields of their result types, under the same names in text and JSON.

Environment: F2LAB_BUDGET_BYTES, the byte budget of every enumeration
guard, is the only way to set that budget.  The library reads it at each
call; it must be a positive integer, and any other value is an error
(exit 2).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict

from . import harness, numerics, rank, tensors
from .bias import bias_bruteforce, bias_exact, bias_mc, corr_class_max, corr_exact
from .errors import CapacityError, FormatError, InvariantError
from .report import fmt_float, timed

# the builders as bound at import: `gen` reads their signatures, which a
# wrapper installed later without functools.wraps would hide
GENERATORS = {
    "trace": tensors.trace_tensor,
    "matmul": tensors.matmul_tensor,
    "explicit": tensors.explicit_form_tensor,
    "random": tensors.random_tensor,
    "random-rank": tensors.random_rank_decomp,
}


def _read_arg(path: str, reader):
    """`reader` applied to the file at `path`, or to stdin for "-"."""
    if path == "-":
        return reader(sys.stdin)
    with open(path, "r", encoding="ascii") as fp:
        return reader(fp)


def _print_obj(obj: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for key, val in obj.items():
            print(f"{key}: {val}")


def _cmd_gen(args) -> int:
    builder = GENERATORS[args.what]
    made = builder(**{p: getattr(args, p) for p in inspect.signature(builder).parameters})
    write = (tensors.write_decomp if isinstance(made, tensors.RankDecomposition)
             else tensors.write_tensor)
    if args.out is None:
        write(sys.stdout, made)
    else:
        with open(args.out, "w", encoding="ascii") as fp:
            write(fp, made)
    return 0


def _cmd_bias(args) -> int:
    t = _read_arg(args.file, tensors.read_tensor)
    if args.mode != "mc":
        value = (bias_exact if args.mode == "exact" else bias_bruteforce)(t)
        _print_obj({"bias": str(value), "float": fmt_float(value.to_float())},
                   args.json)
        return 0
    est = bias_mc(t, args.samples, args.confidence, args.seed)
    _print_obj({key: fmt_float(val) if isinstance(val, float) else val
                for key, val in asdict(est).items()}, args.json)
    return 0


def _cmd_corr(args) -> int:
    t = _read_arg(args.file, tensors.read_tensor)
    if (args.poly is None) == (args.max_degree is None):
        raise FormatError("pass exactly one of --poly or --max-degree")
    if args.poly is not None:
        value = corr_exact(t, _read_arg(args.poly, tensors.read_poly))
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
        t = _read_arg(args.file, tensors.read_tensor)
        r = rank.rank_exact(t, args.max_t)
        _print_obj({"rank": r if r is not None else f"exceeds {args.max_t}"},
                   args.json)
        return 0
    if args.mode == "lb":
        t = _read_arg(args.file, tensors.read_tensor)
        b = bias_exact(t)
        lb = rank.rank_lb_bias(b, t.d)
        _print_obj({"bias": str(b), "rank_lower_bound": lb}, args.json)
        return 0
    decomp = _read_arg(args.file, tensors.read_decomp)
    _print_obj(rank.code_certificate(decomp).to_dict(), args.json)
    return 0


def _cmd_verify(args) -> int:
    if args.name == "all":
        reports = harness.run_all(args.profile)
    else:
        names = sorted(attr[len("verify_"):].replace("_", "-")
                       for attr in vars(harness) if attr.startswith("verify_"))
        if args.name not in names:
            choices = ", ".join(names + ["all"])
            raise FormatError(f"unknown experiment {args.name!r}; choose from: {choices}")
        experiment = getattr(harness, "verify_" + args.name.replace("-", "_"))
        params = inspect.signature(experiment).parameters
        reports = [timed(experiment, **{p: getattr(args, p, None) for p in params})]
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
    report = timed(numerics.profile_max_check, args.k, args.u, args.trials, args.seed)
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
    for kind, builder in GENERATORS.items():
        g = gsub.add_parser(kind)
        for param in inspect.signature(builder).parameters:
            g.add_argument(f"--{param}", type=int, required=True)
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
