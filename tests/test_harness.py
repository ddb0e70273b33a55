"""Harness experiments: frozen exact values and suite behavior."""

import json
import re
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from f2lab import harness
from f2lab.errors import CapacityError
from f2lab.harness import (_sum_census, run_all, verify_bias_matmul, verify_bias_tail,
                           verify_bias_trace, verify_corank_margin,
                           verify_expected_bias, verify_explicit_form,
                           verify_joint_vanishing, verify_linear_preimage,
                           verify_low_rank_bias_floor, verify_mc_bias,
                           verify_moment_identity, verify_span_dimension,
                           verify_subspace_membership, verify_sum_zero)
from f2lab.rank import code_certificate
from f2lab.report import REPORT_ONLY
from f2lab.tensors import RankDecomposition


QUICK_PROFILE = Path(__file__).parent / "data" / "quick_profile.json"


def measured(report):
    return dict(report.measured)


def _literal_sum_census(d, k, t):
    """Every (2^k)^(td) vector tuple, its t rank-one tensors built entry
    by entry and XORed."""
    cells = list(product(range(k), repeat=d))
    ref = Counter()
    for tup in product(range(1 << k), repeat=t * d):
        acc = 0
        for i in range(t):
            vs = tup[i * d:(i + 1) * d]
            for flat, idx in enumerate(cells):
                if all((v >> j) & 1 for v, j in zip(vs, idx)):
                    acc ^= 1 << flat
        ref[acc] += 1
    return ref


@pytest.mark.parametrize("d,k,t", [(2, 1, 1), (2, 2, 2), (2, 2, 3), (3, 1, 2),
                                   (3, 2, 1)])
def test_sum_census_matches_literal_enumeration(d, k, t):
    census = _sum_census(d, k, t)
    assert dict(census) == dict(_literal_sum_census(d, k, t))
    assert sum(census.values()) == 1 << (k * t * d)


@pytest.mark.parametrize("call,bits,limit,message", [
    (lambda: verify_moment_identity(3, 3, 2), 27, 16, "2^27 tensors exceed the 2^16 guard"),
    (lambda: verify_moment_identity(2, 2, 7), 28, 24, "2^28 tuples exceed the 2^24 guard"),
    (lambda: verify_sum_zero(2, 4, 4), 32, 24, "2^32 tuples exceed the 2^24 guard"),
    (lambda: verify_subspace_membership(2, 12, [1], 1, 0), 24, 22,
     "2^24 tuples exceed the 2^22 guard"),
    (lambda: verify_span_dimension(2, 4, 4), 32, 24, "2^32 tuples exceed the 2^24 guard"),
    (lambda: verify_joint_vanishing(2, 12, 1, 1, 0), 24, 22,
     "2^24 assignments exceed the 2^22 guard"),
    (lambda: verify_expected_bias(2, 4, 4), 32, 24,
     "2^32 decompositions exceed the exhaustive guard"),
    (lambda: verify_linear_preimage(17, 1, 0), 17, 16, "preimage counting needs k <= 16"),
    (lambda: code_certificate(RankDecomposition(3, 25, ())), 25, 24,
     "dual-code enumeration needs k <= 24"),
], ids=["moment-tensors", "moment-tuples", "sum-zero", "subspace-membership",
        "span-dimension", "joint-vanishing", "expected-bias", "linear-preimage",
        "code-certificate"])
def test_capacity_guards_report_counts(call, bits, limit, message):
    with pytest.raises(CapacityError, match=re.escape(message)) as ei:
        call()
    assert ei.value.required == 1 << bits
    assert ei.value.budget == 1 << limit


class TestMomentIdentity:
    def test_211(self):
        r = verify_moment_identity(2, 1, 1)
        assert measured(r)["moment"] == "3/2^2" and r.holds is True

    def test_221(self):
        r = verify_moment_identity(2, 2, 1)
        assert measured(r)["moment"] == "7/2^4" and r.holds is True

    def test_222_is_29_128(self):
        r = verify_moment_identity(2, 2, 2)
        assert measured(r)["moment"] == "29/2^7"
        assert measured(r)["vanish_prob"] == "29/2^7"
        assert r.holds is True

    def test_capacity(self):
        with pytest.raises(CapacityError):
            verify_moment_identity(3, 3, 2)


class TestSumZero:
    def test_222(self):
        r = verify_sum_zero(2, 2, 2)
        assert measured(r)["exact"] == "29/2^7"    # 58/256
        assert r.holds is True

    def test_242(self):
        r = verify_sum_zero(2, 4, 2)
        assert measured(r)["exact"] == "593/2^15"  # 1186/65536
        assert r.holds is True

    def test_211(self):
        r = verify_sum_zero(2, 1, 1)
        assert measured(r)["exact"] == "3/2^2" and r.holds is True

    def test_headline_gating_is_reported(self):
        r = verify_sum_zero(2, 2, 2)
        assert measured(r)["headline_asserted"] == "no"


class TestSubspaceMembership:
    def test_small_grid(self):
        for d, k in [(2, 2), (2, 3), (3, 2)]:
            dims = list(range(k ** d + 1))
            r = verify_subspace_membership(d, k, dims, trials=2, seed=5)
            assert r.holds is True

    def test_full_space_dim(self):
        r = verify_subspace_membership(2, 2, [4], trials=1, seed=1)
        assert r.holds is True


class TestSpanDimension:
    def test_222_distribution(self):
        r = verify_span_dimension(2, 2, 2)
        dist = measured(r)["distribution"].split()
        assert dist[0] == "49/2^8"     # both rank-one factors vanish
        assert r.holds is True

    def test_d1_distribution(self):
        r = verify_span_dimension(1, 2, 2)
        assert measured(r)["distribution"].split() == ["1/2^4", "9/2^4", "3/2^3"]
        assert r.holds is True


class TestBiasTail:
    def test_d2_crosscheck(self):
        r = verify_bias_tail(2, 8, 0.25, samples=10_000, seed=301)
        assert r.holds is True
        assert "exact_tail" in measured(r)

    def test_d3_report_only(self):
        r = verify_bias_tail(3, 2, 0.25, samples=500, seed=302)
        assert r.holds == REPORT_ONLY

    def test_seeded_reproducibility(self):
        a = verify_bias_tail(2, 6, 0.25, samples=2_000, seed=9)
        b = verify_bias_tail(2, 6, 0.25, samples=2_000, seed=9)
        assert a == b


class TestFloors:
    def test_low_rank_bias_floor(self):
        for d, k, t in [(2, 2, 3), (2, 3, 5), (3, 2, 4), (3, 3, 5)]:
            assert verify_low_rank_bias_floor(d, k, t, 100, seed=7).holds is True

    def test_joint_vanishing_random(self):
        assert verify_joint_vanishing(3, 2, 3, 60, seed=8).holds is True

    def test_joint_vanishing_equality_case(self):
        # coordinate forms on disjoint coordinates: exactly (3/4)^2
        r = verify_joint_vanishing(2, 2, 2, 5, seed=1)
        assert r.holds is True


class TestExpectedBias:
    @pytest.mark.parametrize("d,k,t,mean", [
        (2, 1, 1, "7/2^3"),
        (2, 1, 2, "13/2^4"),
        (2, 2, 1, "23/2^5"),
        (3, 2, 1, "229/2^8"),
    ])
    def test_exhaustive_closed_form(self, d, k, t, mean):
        r = verify_expected_bias(d, k, t)
        assert measured(r)["mean"] == mean
        assert measured(r)["closed_form"] == mean
        assert r.holds is True

    def test_monte_carlo_mode(self):
        r = verify_expected_bias(2, 3, 5, samples=2_000, seed=11)
        assert r.method == "monte-carlo"
        assert r.holds is True


class TestExplicitTensors:
    def test_bias_trace_both_routes(self):
        r = verify_bias_trace(8)
        assert r.holds is True
        assert dict(r.params)["routes"] == "fast+brute"

    def test_bias_trace_fast_only(self):
        r = verify_bias_trace(14)
        assert r.holds is True
        assert dict(r.params)["routes"] == "fast"

    def test_bias_matmul(self):
        r = verify_bias_matmul(2)
        assert r.holds is True
        assert measured(r)["bias"] == "29/2^7"

    def test_bias_matmul_n1_report_only(self):
        assert verify_bias_matmul(1).holds == REPORT_ONLY

    def test_explicit_form(self):
        r = verify_explicit_form(3, 2, samples=100, seed=13)
        assert r.holds is True
        r = verify_explicit_form(2, 3, samples=50, seed=14)
        assert measured(r)["bias"] == "1/2^3"
        assert r.holds is True


def test_linear_preimage():
    assert verify_linear_preimage(5, trials=200, seed=15).holds is True


def test_corank_margin_report_only():
    r = verify_corank_margin(2)
    assert r.holds == REPORT_ONLY
    assert "1.125" in dict(r.measured)["worst_ratio"]


def test_mc_bias_experiment():
    assert verify_mc_bias(3, 4, samples=20_000, seed=16).holds is True


class TestSuite:
    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            run_all("nope")

    def test_quick_profile_green(self, quick_profile):
        reports, _ = quick_profile
        assert len(reports) > 40
        bad = [r for r in reports if not r.ok()]
        assert not bad, [r.format_line() for r in bad]
        names = {r.name for r in reports}
        assert {"moment-identity", "sum-zero", "bias-trace", "bias-matmul",
                "corank-margin", "profile-max", "scalar-inequalities"} <= names

    def test_quick_profile_matches_golden_file(self, quick_profile):
        """The quick profile, timings stripped, equals tests/data/quick_profile.json.

        This is the byte-identical gate for refactors.  A change that
        deliberately moves a seeded or exact value regenerates the file
        (the JSON list of `to_dict(timing=False)` over `run_all("quick")`,
        `indent=1, sort_keys=True`) and says so in CHANGES.md.
        """
        got = [r.to_dict(timing=False) for r in quick_profile[0]]
        want = json.loads(QUICK_PROFILE.read_text())
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g == w

    def test_run_all_times_every_report(self, monkeypatch):
        plan = [lambda: verify_corank_margin(2), lambda: verify_moment_identity(2, 1, 1)]
        monkeypatch.setitem(harness.PROFILES, "quick", lambda: plan)
        reports = run_all("quick")
        assert len(reports) == 2 and all(r.elapsed_ms > 0 for r in reports)
        assert verify_corank_margin(2).elapsed_ms == 0.0

    def test_exhaustive_reports_deterministic(self):
        a = verify_moment_identity(2, 2, 2)
        b = verify_moment_identity(2, 2, 2)
        assert a == b
        assert a.to_json(timing=False) == b.to_json(timing=False)
