"""Command-line interface.

One binary, subcommands for generation, bias/correlation, rank bounds,
and the verification suite.  `--json` switches every command but `gen`,
which writes a file format, to machine output.  Exit codes: 0 when every
assertion holds, 1 when a verified statement fails, 2 for usage, format,
or capacity errors, 3 when an internal invariant of a computed result is
violated (a program fault).  A capacity error (`errors.check_capacity`)
reads "ROUTE: REQUIRED UNIT exceed the budget of BUDGET UNIT".

The flags of `verify NAME` and `gen KIND` come from signatures read at
import.  `verify NAME`, one per entry of `harness.EXPERIMENTS`, takes a
flag per parameter of the entry's function, typed by its annotation and
defaulting to the entry's first quick row, and calls the harness's
binding of that name.  `timed` sets the wall time of every report.  `gen
KIND` takes one required int flag per parameter of its builder in
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
from collections.abc import Sequence
from dataclasses import asdict
from typing import get_args, get_origin, get_type_hints

from . import harness, numerics, rank, tensors
from .bias import bias_bruteforce, bias_exact, bias_mc, corr_class_max, corr_exact
from .errors import CapacityError, FormatError, InvariantError
from .report import fmt_dyadic, fmt_float, timed

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
        _print_obj({"bias": fmt_dyadic(value), "float": fmt_float(float(value))},
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
        _print_obj({"correlation": fmt_dyadic(value), "float": fmt_float(float(value))},
                   args.json)
        return 0
    value, witness = corr_class_max(t, args.max_degree)
    monos = ["#" if not m else " ".join(str(v + 1) for v in m)
             for m in witness.monomials]
    _print_obj({
        "max_correlation": fmt_dyadic(value),
        "float": fmt_float(float(value)),
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
        _print_obj({"bias": fmt_dyadic(b), "rank_lower_bound": lb}, args.json)
        return 0
    decomp = _read_arg(args.file, tensors.read_decomp)
    _print_obj(rank.code_certificate(decomp).to_dict(), args.json)
    return 0


def _cmd_verify(args) -> int:
    if args.name == "all":
        reports = harness.run_all(args.profile)
    else:
        fn = harness.EXPERIMENTS[args.name][0]
        reports = [timed(getattr(harness, fn.__name__),
                         *(getattr(args, p) for p in inspect.signature(fn).parameters))]
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


def _flag_options(hint) -> dict:
    """argparse options of a parameter annotated `hint`: `X | None` takes
    an X, and a sequence of ints one or more ints."""
    if get_origin(hint) is Sequence:
        return {"type": get_args(hint)[0], "nargs": "+"}
    inner = [a for a in get_args(hint) if a is not type(None)]
    return _flag_options(inner[0]) if inner else {"type": hint}


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
    vsub = v.add_subparsers(dest="name", required=True)
    a = vsub.add_parser("all", help="every experiment of a profile")
    a.add_argument("--profile", choices=harness.PROFILES, default="quick")
    add_json(a)
    for name, (fn, quick, _) in harness.EXPERIMENTS.items():
        e = vsub.add_parser(name)
        hints = get_type_hints(fn)
        for i, param in enumerate(inspect.signature(fn).parameters.values()):
            default = quick[0][i] if i < len(quick[0]) else param.default
            e.add_argument(f"--{param.name.replace('_', '-')}", default=default,
                           help="default: %(default)s", **_flag_options(hints[param.name]))
        add_json(e)
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser("mrrw", help="rate-distance fixed-point constant")
    m.add_argument("--tol", type=float, default=1e-9)
    add_json(m)
    m.set_defaults(func=_cmd_mrrw)

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
