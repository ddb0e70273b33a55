"""CLI surface: formats in, values out, exit codes."""

import argparse
import inspect
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from f2lab import harness, tensors
from f2lab.cli import GENERATORS, build_parser, main

ROOT = Path(__file__).resolve().parent.parent

EXPERIMENTS = sorted(harness.EXPERIMENTS)
FULL_PROFILE = ROOT / "tests" / "data" / "full_profile.json"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "f2lab", *args],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_and_bias_pipe(tmp_path):
    path = tmp_path / "t.f2t"
    code, out, err = run_cli("gen", "trace", "--k", "3", "--out", str(path))
    assert code == 0, err
    text = path.read_text()
    assert text.startswith("F2T1\nd=3 k=3\n")
    code, out, _ = run_cli("bias", "exact", str(path), "--json")
    assert code == 0
    assert json.loads(out)["bias"] == "15/2^6"
    code, out, _ = run_cli("bias", "brute", str(path), "--json")
    assert json.loads(out)["bias"] == "15/2^6"


# a small valid value for each builder parameter
GEN_VALUES = {"k": 3, "n": 2, "d": 3, "t": 4, "seed": 5}


def _subparsers(parser):
    action, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("kind", sorted(GENERATORS))
def test_gen_flags_are_the_builder_parameters(capsys, kind):
    builder = GENERATORS[kind]
    params = list(inspect.signature(builder).parameters)
    sub = _subparsers(_subparsers(build_parser())["gen"])[kind]
    flags = {flag for a in sub._actions for flag in a.option_strings}
    assert flags == {"-h", "--help", "--out"} | {f"--{p}" for p in params}
    argv = [word for p in params for word in (f"--{p}", str(GEN_VALUES[p]))]
    assert main(["gen", kind, *argv]) == 0
    made = builder(*(GEN_VALUES[p] for p in params))
    want = io.StringIO()
    if kind == "random-rank":
        tensors.write_decomp(want, made)
    else:
        tensors.write_tensor(want, made)
    assert capsys.readouterr().out == want.getvalue()


def test_gen_runs_under_the_benchmark_tracer(capsys, monkeypatch):
    # the tracer's wrappers take (*args, **kwargs), so `gen` must not read
    # the signature of whatever the module binds at call time
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import Tracer

    assert main(["gen", "trace", "--k", "3"]) == 0
    plain = capsys.readouterr().out
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["gen", "trace", "--k", "3"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain


def test_verify_runs_under_the_benchmark_tracer(capsys, monkeypatch):
    # `verify NAME` reads the signature of the function bound at import and
    # calls the traced binding
    monkeypatch.syspath_prepend(str(ROOT))
    from perfbench.tracer import Tracer

    argv = ["verify", "bias-trace", "--k", "3"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    tracer = Tracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == plain
    assert [s["name"] for s in tracer.spans] == ["harness.bias-trace"]


def test_result_fields_print_under_one_name(tmp_path, capsys):
    tpath, dpath = tmp_path / "t.f2t", tmp_path / "d.f2d"
    assert main(["gen", "trace", "--k", "3", "--out", str(tpath)]) == 0
    assert main(["gen", "random-rank", "--d", "3", "--k", "3", "--t", "5",
                 "--seed", "2", "--out", str(dpath)]) == 0
    for argv in (["bias", "mc", str(tpath), "--samples", "500"],
                 ["rank", "certify", str(dpath)]):
        assert main(argv) == 0
        text = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
        assert main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert text == {key: str(value) for key, value in payload.items()}


# the appendix's profile maximization check runs as `verify profile-max`
@pytest.mark.parametrize("argv", [
    ["--k", "0", "--u", "0"],
    ["--k", "-1", "--u", "0"],
    ["--k", "2", "--u", "5"],
])
def test_appendix_max_rejects_bad_input(capsys, argv):
    assert main(["verify", "profile-max", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("f2lab: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("option", [["--trials", "5"], ["--seed", "1"]])
def test_appendix_max_has_no_sampling_options(capsys, option):
    # the check is exact: the random-profile options are gone, and argparse
    # rejects them as usage errors
    with pytest.raises(SystemExit) as exc:
        main(["verify", "profile-max", "--k", "2", "--u", "2", *option])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"unrecognized arguments: {' '.join(option)}" in err


@pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
def test_bad_budget_env_exits_2(tmp_path, monkeypatch, capsys, value):
    path = tmp_path / "t.f2t"
    assert main(["gen", "trace", "--k", "3", "--out", str(path)]) == 0
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", value)
    assert main(["bias", "exact", str(path)]) == 2
    assert capsys.readouterr().err == (
        "f2lab: error: F2LAB_BUDGET_BYTES must be a positive integer (bytes), "
        f"got {value!r}\n")


def test_budget_env_allows_surrounding_whitespace(tmp_path, monkeypatch, capsys):
    path = tmp_path / "t.f2t"
    assert main(["gen", "trace", "--k", "3", "--out", str(path)]) == 0
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", " 8192 ")
    assert main(["bias", "exact", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["bias"] == "15/2^6"


def test_bias_mc_reports_seed(tmp_path):
    path = tmp_path / "t.f2t"
    run_cli("gen", "trace", "--k", "4", "--out", str(path))
    code, out, _ = run_cli("bias", "mc", str(path), "--samples", "2000",
                           "--confidence", "0.9", "--seed", "17", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 17 and payload["samples"] == 2000


def test_gen_random_rank_and_certify(tmp_path):
    path = tmp_path / "d.f2d"
    code, _, _ = run_cli("gen", "random-rank", "--d", "3", "--k", "2",
                         "--t", "3", "--seed", "5", "--out", str(path))
    assert code == 0
    assert path.read_text().startswith("F2D1 d=3 k=2 t=3\n")
    code, out, _ = run_cli("rank", "certify", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["method"] == "code"
    assert "reconstructed_bias" in payload


def test_gen_random_rank_refuses_past_the_budget(tmp_path, capsys, monkeypatch):
    # 5 terms of 3 vectors of 1,000 bits, drawn from one block of 240 words,
    # need 42,660 bytes against a 1 KiB budget: refused before any draw or
    # write
    monkeypatch.setenv("F2LAB_BUDGET_BYTES", "1024")
    path = tmp_path / "d.f2d"
    assert main(["gen", "random-rank", "--d", "3", "--k", "1000", "--t", "5",
                 "--seed", "1", "--out", str(path)]) == 2
    assert ("random_rank_decomp(d=3, k=1000, t=5): 42660 bytes exceed the budget of "
            "2^10 bytes") in capsys.readouterr().err
    assert not path.exists()


def test_invariant_violation_exits_3_under_optimize(tmp_path):
    # the premises of the certificate's bias identity are checked even
    # under python -O, where assert statements are stripped: here the dual
    # code has the right dimension, 2, but is span(e_0, e_1), not the row
    # space {0, 010, 101, 111} of the first-block matrix
    path = tmp_path / "d.f2d"
    run_cli("gen", "random-rank", "--d", "3", "--k", "2", "--t", "3",
            "--seed", "5", "--out", str(path))
    script = (
        "import sys\n"
        "from f2lab import cli, rank\n"
        "from f2lab.f2linalg import echelonize\n"
        "if not sys.flags.optimize:\n"
        "    sys.exit(99)\n"
        "rank.dual_space = lambda s: echelonize(\n"
        "    [1 << j for j in range(s.ambient_dim - s.dim)], s.ambient_dim)\n"
        "sys.exit(cli.main(sys.argv[1:]))\n")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, "rank", "certify", str(path)],
        capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("f2lab: error: invariant violated: "
                           "code-certificate bias identity violated\n")


def test_rank_exact_and_lb(tmp_path):
    path = tmp_path / "t.f2t"
    run_cli("gen", "trace", "--k", "2", "--out", str(path))
    code, out, _ = run_cli("rank", "exact", str(path), "--max-t", "4", "--json")
    assert code == 0 and json.loads(out)["rank"] == 3
    code, out, _ = run_cli("rank", "lb", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"bias": "7/2^4", "rank_lower_bound": 3}


def test_corr_with_poly_and_class(tmp_path):
    tpath = tmp_path / "t.f2t"
    ppath = tmp_path / "p.f2p"
    run_cli("gen", "explicit", "--d", "3", "--k", "2", "--out", str(tpath))
    ppath.write_text("F2P1 n=6\n1 4\n2 5\n")
    code, out, _ = run_cli("corr", str(tpath), "--poly", str(ppath), "--json")
    assert code == 0
    assert "correlation" in json.loads(out)
    proc = subprocess.run(
        [sys.executable, "-m", "f2lab", "corr", str(tpath), "--poly", "-", "--json"],
        input=ppath.read_text(), capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (0, out), proc.stderr
    code, out, _ = run_cli("corr", str(tpath), "--max-degree", "1", "--json")
    assert code == 0
    assert "max_correlation" in json.loads(out)


def test_corr_negative_degree_is_the_bias(tmp_path, capsys):
    # the degree <= -1 class is {0}: the bias, witnessed by the zero polynomial
    tpath = str(tmp_path / "t.f2t")
    assert main(["gen", "trace", "--k", "3", "--out", tpath]) == 0
    assert main(["corr", tpath, "--max-degree", "-1"]) == 0
    assert capsys.readouterr().out == ("max_correlation: 15/2^6\nfloat: 0.234375\n"
                                       "witness_monomials: (zero polynomial)\n")
    assert main(["corr", tpath, "--max-degree", "-1", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"float": "0.234375", "max_correlation": "15/2^6", '
        '"witness_monomials": "(zero polynomial)"}\n')


def test_verify_single_and_exit_codes():
    code, out, _ = run_cli("verify", "moment-identity",
                           "--d", "2", "--k", "2", "--t", "2", "--json")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["holds"] is True
    assert reports[0]["measured"][0]["value"] == "29/2^7"


def verify_json(capsys, *argv):
    assert main(["verify", *argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def test_every_report_name_is_a_table_key():
    # tests/data/full_profile.json is `run_all("full")`, timings stripped
    # (test_acceptance holds them equal): each entry's rows give as many
    # reports under its name
    names = Counter(r["name"] for r in json.loads(FULL_PROFILE.read_text()))
    assert names == {name: len(quick) + len(full)
                     for name, (_, quick, full) in harness.EXPERIMENTS.items()}


def test_readme_lists_every_experiment():
    readme = (ROOT / "README.md").read_text()
    listing = readme.split("Experiment names for `verify`:", 1)[1].split("or `all`", 1)[0]
    assert re.findall(r"`([a-z-]+)`", listing) == EXPERIMENTS


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_every_experiment_runs_by_name(capsys, quick_profile, name):
    # with no flags, `verify NAME` runs the entry's first quick row
    fn, quick, _ = harness.EXPERIMENTS[name]
    reports = verify_json(capsys, name)
    assert [r["name"] for r in reports] == [name]
    assert reports[0].pop("elapsed_ms") > 0
    want = fn(*quick[0]).to_dict(timing=False)
    assert reports == [want]
    assert want in [r.to_dict(timing=False) for r in quick_profile[0]]


# each experiment's arguments as the CLI spelled them out before it read
# the signatures, for `verify NAME --d 3 --k 2 --samples 60 --trials 3 --seed 4`;
# each experiment now takes only the flags of its own parameters
OLD_CALLS = {
    "subspace-membership": (
        ["--d", "3", "--k", "2", "--trials", "3", "--seed", "4"],
        lambda: harness.verify_subspace_membership(
            3, 2, list(range(0, 2 ** 3 + 1, max(1, 2 ** 3 // 8))), 3, 4)),
    "mc-bias": (["--d", "3", "--k", "2", "--samples", "60", "--seed", "4"],
                lambda: harness.verify_mc_bias(3, 2, 60, 4)),
    "explicit-form": (["--d", "3", "--k", "2", "--samples", "60", "--seed", "4"],
                      lambda: harness.verify_explicit_form(3, 2, 60, 4)),
}


@pytest.mark.parametrize("name", sorted(OLD_CALLS))
def test_verify_by_name_matches_old_call(capsys, name):
    argv, call = OLD_CALLS[name]
    got = verify_json(capsys, name, *argv)
    assert got[0].pop("elapsed_ms") > 0
    assert got == [call().to_dict(timing=False)]


def test_verify_all_quick_json():
    code, out, _ = run_cli("verify", "all", "--profile", "quick", "--json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) > 40
    assert all(r["holds"] in (True, "report-only") for r in reports)


def test_mrrw_and_profile_max():
    code, out, _ = run_cli("mrrw", "--tol", "1e-9", "--json")
    assert code == 0
    assert 3.51 <= float(json.loads(out)["one_over_rho"]) <= 3.53
    code, out, _ = run_cli("verify", "profile-max", "--k", "2", "--u", "2")
    assert code == 0 and "extreme_argmax_count=2" in out


def test_usage_errors_exit_2(tmp_path):
    code, _, err = run_cli("verify", "no-such-experiment")
    assert code == 2 and "invalid choice: 'no-such-experiment'" in err
    choices = err.split("choose from ", 1)[1]
    assert len(EXPERIMENTS) == 16
    assert sorted(re.findall(r"[a-z][a-z-]*", choices)) == sorted(EXPERIMENTS + ["all"])
    code, _, err = run_cli("verify", "expected-bias", "--samples", "1")
    assert code == 2 and "unrecognized arguments: --samples 1" in err
    code, _, err = run_cli("bias", "exact", str(tmp_path / "missing.f2t"))
    assert code == 2
    bad = tmp_path / "bad.f2t"
    bad.write_text("F2T1\nd=2 k=2\nzz\n")
    code, _, err = run_cli("bias", "exact", str(bad))
    assert code == 2 and "hex" in err
    code, _, err = run_cli("corr", str(bad))
    assert code == 2


@pytest.mark.parametrize("argv, message", [
    (["gen", "trace", "--k", "0"], "trace_tensor needs k >= 1"),
    (["gen", "matmul", "--n", "-1"], "matmul_tensor needs n >= 1"),
    (["verify", "bias-tail", "--d", "2", "--k", "0"], "rank_count needs n >= 1"),
    (["gen", "random-rank", "--d", "3", "--k", "0", "--t", "2", "--seed", "1"],
     "random_rank_decomp needs k >= 1"),
    (["gen", "random-rank", "--d", "0", "--k", "3", "--t", "2", "--seed", "1"],
     "random_rank_decomp needs d >= 1"),
    (["gen", "random-rank", "--d", "2", "--k", "3", "--t", "-1", "--seed", "1"],
     "random_rank_decomp needs t >= 0"),
    (["verify", "sum-zero", "--d", "3", "--k", "0", "--t", "1"], "sum-zero needs k >= 1"),
    (["verify", "sum-zero", "--t", "-1"], "sum-zero needs t >= 0"),
    (["verify", "span-dimension", "--d", "3", "--k", "0", "--t", "1"],
     "span-dimension needs k >= 1"),
    (["verify", "span-dimension", "--t", "-1"], "span-dimension needs t >= 0"),
    (["verify", "subspace-membership", "--d", "2", "--k", "0"],
     "subspace-membership needs k >= 1"),
    (["verify", "joint-vanishing", "--d", "2", "--k", "0", "--t", "1"],
     "joint-vanishing needs k >= 1"),
    (["verify", "joint-vanishing", "--d", "0"], "joint-vanishing needs d >= 1"),
    (["verify", "linear-preimage", "--k", "0"], "linear-preimage needs k >= 1"),
    (["verify", "expected-bias", "--t", "-1"], "expected-bias needs t >= 0"),
    (["verify", "moment-identity", "--t", "-1"], "moment-identity needs t >= 0"),
    (["verify", "low-rank-bias-floor", "--d", "1"], "low-rank-bias-floor needs d >= 2")])
def test_sizes_below_one_exit_2(argv, message, tmp_path, capsys):
    out = ["--out", str(tmp_path / "t.f2t")] if argv[0] == "gen" else []
    assert main(argv + out) == 2
    assert capsys.readouterr().err == f"f2lab: error: {message}\n"


def test_main_callable_directly(capsys):
    assert main(["mrrw", "--tol", "1e-6"]) == 0
    out = capsys.readouterr().out
    assert "one_over_rho" in out


def test_split_walk_prints_each_line_once():
    # bias-trace k = 18 ranks 4 lane chunks, split over the usable CPUs (two,
    # patched in the second run, after a line waiting in the stdout buffer);
    # the walk workers leave by os._exit and flush no copy of that buffer
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = ["verify", "bias-trace", "--k", "18"]
    proc = subprocess.run([sys.executable, "-m", "f2lab", *argv], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout
    assert out.startswith("PASS bias-trace  k=18 ") and out.count("\n") == 1
    script = ("import sys; from f2lab import f2linalg; from f2lab.cli import main; "
              f"f2linalg._usable_cpus = lambda: 2; print('before'); sys.exit(main({argv}))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\n" + out
