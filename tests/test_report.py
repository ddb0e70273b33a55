"""The one printer of exact values, and the CLI fields it writes."""

import json
from fractions import Fraction

import pytest

from f2lab import cli, rank
from f2lab.bias import DyadicRational as D
from f2lab.cli import main
from f2lab.errors import InvariantError
from f2lab.report import fmt_dyadic


@pytest.mark.parametrize("x, text", [
    (0, "0/2^0"), (1, "1/2^0"), (D.zero(), "0/2^0"), (D.one(), "1/2^0"),
    (Fraction(7, 16), "7/2^4"), (D.from_ratio(7, 4), "7/2^4"),
    (Fraction((1 << 200) - 1, 1 << 205), f"{(1 << 200) - 1}/2^205"),
])
def test_prints_numerator_over_a_power_of_two(x, text):
    assert fmt_dyadic(x) == text


@pytest.mark.parametrize("x", [Fraction(1, 3), Fraction(-1, 2), -1, Fraction(3, 10)])
def test_refuses_what_is_no_nonnegative_dyadic(x):
    with pytest.raises(InvariantError, match="not a nonnegative dyadic rational"):
        fmt_dyadic(x)


def test_str_of_the_type_is_the_printer():
    assert str(D.from_ratio(29, 7)) == "29/2^7"
    with pytest.raises(InvariantError):
        str(D(1, 3))   # positional construction skips from_ratio's checks


def test_every_exact_cli_field_goes_through_the_printer(tmp_path, capsys, monkeypatch):
    def marked(x):
        return "<" + fmt_dyadic(x) + ">"

    monkeypatch.setattr(cli, "fmt_dyadic", marked)
    monkeypatch.setattr(rank, "fmt_dyadic", marked)
    tpath, dpath, ppath = (str(tmp_path / name) for name in ("t.f2t", "r.f2d", "p.f2p"))
    assert main(["gen", "trace", "--k", "2", "--out", tpath]) == 0
    assert main(["gen", "random-rank", "--d", "3", "--k", "2", "--t", "3", "--seed", "5",
                 "--out", dpath]) == 0
    (tmp_path / "p.f2p").write_text("F2P1 n=6\n1 4\n2 5\n")
    capsys.readouterr()
    for argv, field in [(["bias", "exact", tpath], "bias"),
                        (["bias", "brute", tpath], "bias"),
                        (["corr", tpath, "--poly", ppath], "correlation"),
                        (["corr", tpath, "--max-degree", "1"], "max_correlation"),
                        (["rank", "lb", tpath], "bias"),
                        (["rank", "certify", dpath], "reconstructed_bias")]:
        assert main([*argv, "--json"]) == 0, argv
        value = json.loads(capsys.readouterr().out)[field]
        assert value.startswith("<") and value.endswith(">"), argv


def test_a_non_dyadic_value_in_the_cli_is_an_invariant_fault(tmp_path, capsys, monkeypatch):
    tpath = str(tmp_path / "t.f2t")
    assert main(["gen", "trace", "--k", "2", "--out", tpath]) == 0
    monkeypatch.setattr(cli, "bias_exact", lambda t: Fraction(1, 3))
    assert main(["bias", "exact", tpath]) == 3
    assert "1/3 is not a nonnegative dyadic rational" in capsys.readouterr().err
