"""Float-side checks (membership bound, fixed-point constant, profile max)
and the exact ones: `power_at_most` and the scalar-inequality grid."""

import inspect
import math
import sys
import types
from fractions import Fraction

import pytest

from f2lab import numerics
from f2lab.errors import InvariantError
from f2lab.bias import DyadicRational as D
from f2lab.numerics import (_exact_vertices, _extreme_points,
                            _inequality_sides, _solve_exact, f_dk_bound, inequality_checks,
                            mrrw_constant, power_at_most, profile_max_check)
from f2lab.prng import Prng
from f2lab.harness import EXPERIMENTS
from f2lab.report import fmt_float
from oracles import (below, exact_vertices_gauss_jordan, feasible_profile, inequality_grid,
                     sampled_profile_max, solve_gauss_jordan)


def test_f1k_closed_form():
    for k in range(1, 9):
        for u in range(k + 1):
            assert f_dk_bound(1, k, u) == pytest.approx(2.0 ** u / 2.0 ** k)


def test_f22_value():
    assert f_dk_bound(2, 2, 1) == pytest.approx(0.25 + 0.75 * math.sqrt(2) / 4)


def test_full_space_is_one():
    for d in (1, 2, 3):
        for k in (1, 2, 3):
            assert f_dk_bound(d, k, float(k ** d)) == pytest.approx(1.0)


def test_f_dk_monotone_in_u():
    for d in (2, 3):
        for k in (2, 3, 4):
            prev = -1.0
            for i in range(33):
                val = f_dk_bound(d, k, k ** d * i / 32)
                assert val >= prev - 1e-12
                prev = val


def test_f_dk_domain():
    with pytest.raises(ValueError):
        f_dk_bound(2, 2, 17.0)


def test_mrrw_constant():
    rho, inv = mrrw_constant(1e-9)
    assert 3.51 <= inv <= 3.53
    h2 = lambda x: -x * math.log2(x) - (1 - x) * math.log2(1 - x)
    assert abs(rho - h2(0.5 - math.sqrt(rho * (1 - rho)))) <= 1e-8
    rho2, _ = mrrw_constant(1e-12)
    assert abs(rho - rho2) <= 1e-9


def test_profile_point_validation():
    # the oracle's feasibility check, which every sampled profile passes
    assert feasible_profile(3, 4.0, (3.0, 1.0, 0.0)) == (3.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        feasible_profile(3, 4.0, (1.0, 3.0, 0.0))   # not descending
    with pytest.raises(ValueError):
        feasible_profile(3, 4.0, (3.0, 0.5, 0.0))   # wrong sum
    with pytest.raises(ValueError):
        feasible_profile(3, 4.0, (4.0, 0.0, 0.0))   # above k
    with pytest.raises(ValueError):
        feasible_profile(3, 4.0, (3.0, 1.0))        # wrong length


def test_profile_max_double_maximum():
    r = profile_max_check(2, 2.0)
    measured = dict(r.measured)
    assert r.holds is True
    assert float(measured["extreme_max"]) == pytest.approx(6.0)
    assert measured["extreme_argmax_count"] == "2"


def test_profile_max_boundaries():
    r = profile_max_check(4, 0.0)
    assert float(dict(r.measured)["extreme_max"]) == pytest.approx(2 ** 4 - 1)
    r = profile_max_check(4, 16.0)
    assert float(dict(r.measured)["extreme_max"]) == pytest.approx((2 ** 4 - 1) * 2 ** 4)


def test_profile_max_grid():
    rng = Prng(4)
    for k in range(1, 7):
        for _ in range(25):
            u = rng.u64() / 2 ** 64 * k * k
            assert profile_max_check(k, u).holds is True


# (k, u, trials, seed) of the full profile's profile-max reports as they
# were sampled, and the two ends u = 0 and u = k^2 of every k there
FULL_PROFILE_CASES = [(k, (i + 0.37) * k * k / 4.0, 5_000, 600 + 10 * k + i)
                      for k in range(1, 7) for i in range(4)]
END_CASES = [(k, u, 700, 90 + k) for k in range(1, 7) for u in (0.0, float(k * k))]


@pytest.mark.parametrize("k, u, trials, seed", FULL_PROFILE_CASES + END_CASES)
def test_sampled_max_matches_one_point_per_trial(k, u, trials, seed):
    # the convexity argument of profile_max_check, checked from outside:
    # no random feasible profile, one checked profile per trial,
    # beats the maximum over the vertices, which is the closed form
    r = profile_max_check(k, u)
    extreme_max = float(dict(r.measured)["extreme_max"])
    assert extreme_max == pytest.approx((2.0 ** k - 1.0) * 2.0 ** (u / k), rel=1e-9)
    sampled = sampled_profile_max(k, u, trials, seed)
    assert sampled <= extreme_max * (1.0 + 1e-9)
    if u in (0.0, float(k * k)):
        # a single feasible profile, so every sample is the vertex itself
        assert sampled == pytest.approx(extreme_max, rel=1e-9)


def test_exact_vertices_by_hand():
    F = Fraction
    assert _exact_vertices(1, 0.5) == {(F(1, 2),)}
    assert _exact_vertices(2, 2.0) == {(F(2), F(0)), (F(1), F(1))}
    assert _exact_vertices(3, 4.0) == {(F(3), F(1), F(0)), (F(3), F(1, 2), F(1, 2)),
                                       (F(2), F(2), F(0)), (F(4, 3), F(4, 3), F(4, 3))}
    assert _exact_vertices(3, 0.0) == {(F(0), F(0), F(0))}
    assert _exact_vertices(3, 9.0) == {(F(3), F(3), F(3))}
    # u is read as the float's exact binary value, not as 1/10
    assert _exact_vertices(1, 0.1) == {(F(0.1),)} != {(F(1, 10),)}


def test_solve_exact():
    F = Fraction
    assert _solve_exact([[F(0), F(2)], [F(1), F(1)]], [F(1), F(3)]) == [F(5, 2), F(1, 2)]
    assert _solve_exact([[F(1), F(-1)], [F(-1), F(1)]], [F(0), F(0)]) is None


def test_solve_exact_matches_gauss_jordan_on_random_integer_systems():
    # small entries make zero pivots (row swaps) and singular systems common
    rng = Prng(3001)
    singular = 0
    for trial in range(600):
        n = 1 + trial % 6
        rows = [[below(rng, 7) - 3 for _ in range(n)] for _ in range(n)]
        rhs = [below(rng, 41) - 20 for _ in range(n)]
        want = solve_gauss_jordan([[Fraction(a) for a in row] for row in rows],
                                  [Fraction(r) for r in rhs])
        assert _solve_exact(rows, rhs) == want, (rows, rhs)
        singular += want is None
    assert 30 < singular < 300


@pytest.mark.parametrize("k, u", EXPERIMENTS["profile-max"][1] + EXPERIMENTS["profile-max"][2])
def test_exact_vertices_match_gauss_jordan_on_profile_rows(k, u):
    assert _exact_vertices(k, u) == exact_vertices_gauss_jordan(k, u)


def test_exact_vertices_match_gauss_jordan_on_a_seeded_sweep():
    # per k: both ends, multiples of 2^-3 and 2^-20, and decimals whose
    # binary value has a denominator near 2^52
    rng = Prng(3002)
    for k in range(1, 8):
        us = [0.0, float(k * k)]
        us += [below(rng, 8 * k * k + 1) / 8 for _ in range(3)]
        us += [below(rng, (k * k << 20) + 1) / 2 ** 20 for _ in range(2)]
        us += [round(k * k * (rng.u64() / 2 ** 64), 3) for _ in range(3)]
        for u in us:
            assert _exact_vertices(k, u) == exact_vertices_gauss_jordan(k, u), (k, u)


# (k, u) of the quick and full profiles' profile-max reports
PROFILE_CASES = [(2, 2.0), (5, 13.7)] + [(k, (i + 0.37) * k * k / 4.0)
                                          for k in range(1, 7) for i in range(4)]


@pytest.mark.parametrize("k, u", [(k, u) for k, u in PROFILE_CASES if k >= 2])
def test_profile_max_catches_a_dropped_vertex(k, u, monkeypatch):
    points = list(_extreme_points(k, u))
    assert len(points) >= 2
    for drop in range(len(points)):
        kept = points[:drop] + points[drop + 1:]
        monkeypatch.setattr(numerics, "_extreme_points", lambda k, u: iter(kept))
        with pytest.raises(InvariantError, match="miss the vertices"):
            profile_max_check(k, u)


@pytest.mark.parametrize("k, u", PROFILE_CASES)
def test_profile_max_catches_an_added_profile(k, u, monkeypatch):
    real = list(_extreme_points(k, u))
    level = u / k
    bad = [
        (float(k),) * k,                           # monotone but sums to k^2, not u
        (0.0,) * (k - 1) + (min(u, k),),           # sums to at most u, not descending
        tuple(level + 0.25 * (k - 1 - 2 * i) / k   # feasible, not a vertex when k >= 2
              for i in range(k)),
    ]
    tried = 0
    for b in bad:
        if b in real or max(b) > k or min(b) < 0:
            continue
        extra = real + [b]
        monkeypatch.setattr(numerics, "_extreme_points", lambda k, u: iter(extra))
        with pytest.raises(InvariantError, match="add the non-vertices"):
            profile_max_check(k, u)
        tried += 1
    assert tried >= (1 if k == 1 else 2)


def test_profile_max_catches_a_wrong_objective(monkeypatch):
    # a vertex maximum off the closed form fails the report's check: FAIL,
    # where a vertex-list mismatch is a fault of the program
    monkeypatch.setattr(numerics, "_objective", lambda b: 0.0)
    assert profile_max_check(3, 4.0).holds is False


def test_inequalities_hold():
    r = inequality_checks(3, 5)
    assert r.holds is True
    # hand values: z=4, beta=lambda=1/2
    lhs = (2 - 1) * (2 - 1)
    rhs = (4 ** 0.25 - 1) * 3
    assert lhs <= rhs


def test_inequalities_reject_bad_sizes():
    # the grid's interior needs two levels of q and two of w/s above 1
    for q_max, s in [(1, 8), (4, 1), (0, 0), (-2, 5), (1, 1)]:
        with pytest.raises(ValueError, match="q_max and s must be >= 2"):
            inequality_checks(q_max, s)


GRID_SIZES = [(2, 2), (3, 5), (4, 8)]


@pytest.mark.parametrize("q_max, s", GRID_SIZES)
def test_inequality_sides_match_the_fraction_oracle(q_max, s):
    # each check's integer sides are the real-valued sides times one
    # positive factor: proportional, with the same signs
    got = list(_inequality_sides(q_max, s))
    want = inequality_grid(q_max, s)
    assert len(got) == len(want)
    for (lhs, rhs, interior), (wl, wr, w_interior) in zip(got, want):
        assert interior == w_interior
        assert lhs * wr == rhs * wl
        assert (lhs > 0, lhs < 0, rhs > 0, rhs < 0) == (wl > 0, wl < 0, wr > 0, wr < 0)


@pytest.mark.parametrize("q_max, s", GRID_SIZES)
def test_inequality_checks_match_the_fraction_oracle(q_max, s):
    want = inequality_grid(q_max, s)
    least = min((wr - wl) / wr for wl, wr, interior in want if interior)
    r = inequality_checks(q_max, s)
    assert dict(r.measured) == {"checks": str(len(want)),
                                "least_relative_slack": fmt_float(float(least))}
    assert r.holds is True and all(wl <= wr for wl, wr, _ in want)
    assert r.method == "exhaustive" and r.seed is None and r.samples is None


@pytest.mark.parametrize("q_max, s", EXPERIMENTS["scalar-inequalities"][1]
                         + EXPERIMENTS["scalar-inequalities"][2])
def test_profile_rows_show_a_positive_least_slack(q_max, s):
    r = inequality_checks(q_max, s)
    assert r.holds is True
    assert float(dict(r.measured)["least_relative_slack"]) > 0


def _patched(old, new, monkeypatch):
    """A module run from numerics' source with `old` replaced by `new`."""
    source = inspect.getsource(numerics)
    assert source.count(old) == 1, old
    module = types.ModuleType("f2lab.patched_numerics")
    module.__package__ = "f2lab"
    monkeypatch.setitem(sys.modules, module.__name__, module)  # dataclasses look it up
    exec(compile(source.replace(old, new), "<patched numerics>", "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("old, new", [
    # the factor the second inequality's left side keeps, one power too many
    ("* s ** ((q - i) * (q - j))", "* s ** ((q - i) * (q - j) + 1)"),
    # z's exponent one short on the right
    ("(w ** (q * q) - s ** (q * q))", "(w ** (q * q - 1) - s ** (q * q - 1))"),
    # x^r read as x on the right of the first
    ("(b ** i - s ** i) * (a ** q - s ** q)", "(b ** q - s ** q) * (a ** q - s ** q)"),
    # the first inequality's sides swapped
    ("yield ((a ** i - s ** i) * (b ** q - s ** q),\n"
     "                   (b ** i - s ** i) * (a ** q - s ** q),",
     "yield ((b ** i - s ** i) * (a ** q - s ** q),\n"
     "                   (a ** i - s ** i) * (b ** q - s ** q),"),
    # every comparison turned round
    ("slack = min(slack, rhs - lhs)", "slack = min(slack, lhs - rhs)"),
])
def test_inequality_checks_fail_on_a_patched_grid(old, new, monkeypatch):
    assert _patched(old, old, monkeypatch).inequality_checks(3, 4).holds is True
    assert _patched(old, new, monkeypatch).inequality_checks(3, 4).holds is False


# ---------------------------------------------------------------------------
# power_at_most: x <= bound(2^(p/q)), exactly
# ---------------------------------------------------------------------------


def _sum_zero_d2(k, t):
    # the d = 2 proof bound ((2 + 2^t)/2^k)^t, in 2^(t/k^0) = 2^t
    return lambda w: ((2 + w) / (1 << k)) ** t


@pytest.mark.parametrize("x, bound, p, q", [
    (D.from_ratio(1, 2), lambda w: 2 * w, -3 * 2 * 2, 4),    # bias-matmul n = 2: 2 2^-3
    (D.from_ratio(1, 10), lambda w: 4 * w, -3 * 4 * 4, 4),   # bias-matmul n = 4: 4 2^-12
    *[(D.from_ratio((2 + (1 << t)) ** t, k * t), _sum_zero_d2(k, t), t, 1)
      for d, k, t in EXPERIMENTS["sum-zero"][1] + EXPERIMENTS["sum-zero"][2] if d == 2],
])
def test_power_at_most_accepts_equality_at_rational_powers(x, bound, p, q):
    assert power_at_most(x, bound, p, q)
    above = D.from_ratio(2 * x.numerator + 1, x.exponent + 1)   # x + 2^-(exponent + 1)
    assert not power_at_most(above, bound, p, q)


def test_power_at_most_fails_what_the_float_slack_passed():
    # 3 2^(-27/4), the bias-matmul bound at n = 3, is irrational; `over` is
    # the 70-bit dyadic just above it, about 1e-19 of it over
    root = math.isqrt(math.isqrt(1 << 253))     # floor(2^(253/4)) = floor(2^(70 - 27/4))
    over, under = D.from_ratio(3 * root + 3, 70), D.from_ratio(3 * root, 70)
    float_bound = 3 * 2.0 ** (-27 / 4)
    assert over.to_float() <= float_bound * (1 + 1e-12)   # the old relative slack passed it
    assert not power_at_most(over, lambda w: 3 * w, -27, 4)
    assert power_at_most(under, lambda w: 3 * w, -27, 4)


def _scaled_root(p, q, bits):
    """floor(2^(p/q) 2^bits) by bisection on n^q <= 2^(p + q bits)."""
    lo, hi = 0, 1 << (bits + abs(p) + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid ** q <= 1 << (p + q * bits) else (lo, mid)
    return lo


@pytest.mark.parametrize("p, q", [(-3, 1), (0, 1), (5, 1), (-1, 2), (1, 2), (-7, 3),
                                  (-80, 9), (7, 5), (-30, 4), (12, 4), (-9, 12)])
def test_power_at_most_brackets_any_power(p, q):
    # the 200-bit dyadics on either side of 2^(p/q), or on it when q | p
    n = _scaled_root(p, q, 200)
    assert power_at_most(Fraction(n, 1 << 200), lambda w: w, p, q)
    assert not power_at_most(Fraction(n + 1, 1 << 200), lambda w: w, p, q)
    assert (n ** q == 1 << (p + 200 * q)) is (p % q == 0)


def test_power_at_most_accepts_a_bound_flat_around_the_power():
    # bound(lo) equals x: accepted at the first bracket
    assert power_at_most(Fraction(1, 2), lambda w: Fraction(1, 2), 1, 2)
    assert power_at_most(1, lambda w: Fraction(1), -5, 3)


def test_power_at_most_compares_a_rational_power_at_once():
    # a bound that jumps just above 2^(2/2) = 2: only the exact comparison
    # at the power itself decides 1 > bound(2) = 0
    step = lambda w: Fraction(0) if w <= 2 else Fraction(10)  # noqa: E731
    assert not power_at_most(1, step, 2, 2)
    assert power_at_most(0, step, 2, 2)


def test_power_at_most_raises_when_no_precision_separates():
    # not monotone, and across x = 5/4 exactly at the irrational sqrt(2):
    # every bracket straddles x, up to POWER_BITS_CAP bits
    def jumpy(w):
        return (2 if w * w > 2 else 0) + Fraction(1, w.denominator)

    with pytest.raises(InvariantError, match="not separated from the bound at 2\\^\\(1/2\\)"):
        power_at_most(Fraction(5, 4), jumpy, 1, 2)


def test_power_at_most_agrees_with_floats_away_from_the_bound():
    # seeded: bounds of the harness' two shapes at random powers, and x
    # 1e-9 to 1e-1 relative off them; floats decide these correctly
    rng = Prng(3101)
    checked = 0
    for _ in range(600):
        p, q = below(rng, 161) - 80, 1 + below(rng, 12)
        k, t = 1 + below(rng, 6), 1 + below(rng, 4)
        if below(rng, 2):
            bound, value = (lambda w: w), 2.0 ** (p / q)
        else:
            bound, value = _sum_zero_d2(k, t), ((2 + 2.0 ** (p / q)) / 2 ** k) ** t
        off = 10.0 ** (-1 - 8 * (rng.u64() / 2 ** 64))
        x = value * (1 + off if below(rng, 2) else 1 - off)
        if abs(x - value) < 1e-9 * value:
            continue
        assert power_at_most(Fraction(x), bound, p, q) is (x <= value), (p, q, k, t, x)
        checked += 1
    assert checked >= 590
