"""Float-side checks: membership bound, fixed-point constant, profile max."""

import math
from fractions import Fraction

import pytest

from f2lab import numerics
from f2lab.errors import InvariantError
from f2lab.numerics import (_TRIAL_BLOCK, MaxProblemPoint, _exact_vertices, _extreme_points,
                            _solve_exact, _trial_draws, f_dk_bound, inequality_checks,
                            mrrw_constant, profile_max_check)
from f2lab.prng import Prng
from f2lab.harness import EXPERIMENTS
from oracles import (below, exact_vertices_gauss_jordan, inequality_worst, sampled_profile_max,
                     solve_gauss_jordan)


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
    MaxProblemPoint(3, 4.0, (3.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        MaxProblemPoint(3, 4.0, (1.0, 3.0, 0.0))   # not descending
    with pytest.raises(ValueError):
        MaxProblemPoint(3, 4.0, (3.0, 0.5, 0.0))   # wrong sum


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
            u = rng.floats(1)[0] * k * k
            assert profile_max_check(k, u).holds is True


# (k, u, trials, seed) of the full profile's profile-max reports as they
# were sampled, and the two ends u = 0 and u = k^2 of every k there
FULL_PROFILE_CASES = [(k, (i + 0.37) * k * k / 4.0, 5_000, 600 + 10 * k + i)
                      for k in range(1, 7) for i in range(4)]
END_CASES = [(k, u, 700, 90 + k) for k in range(1, 7) for u in (0.0, float(k * k))]


@pytest.mark.parametrize("k, u, trials, seed", FULL_PROFILE_CASES + END_CASES)
def test_sampled_max_matches_one_point_per_trial(k, u, trials, seed):
    # the convexity argument of profile_max_check, checked from outside:
    # no random feasible profile, one validated MaxProblemPoint per trial,
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
        us += [round(k * k * x, 3) for x in rng.floats(3)]
        for u in us:
            assert _exact_vertices(k, u) == exact_vertices_gauss_jordan(k, u), (k, u)


# (k, u) of the quick and full profiles' profile-max reports
PROFILE_CASES = [(2, 2.0), (5, 13.7)] + [(k, (i + 0.37) * k * k / 4.0)
                                          for k in range(1, 7) for i in range(4)]


def _unchecked_point(k, u, b):
    """A MaxProblemPoint built without its feasibility checks."""
    pt = object.__new__(MaxProblemPoint)
    for name, value in (("k", k), ("u", u), ("b", b)):
        object.__setattr__(pt, name, value)
    return pt


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
        if any(b == pt.b for pt in real) or max(b) > k or min(b) < 0:
            continue
        extra = real + [_unchecked_point(k, u, b)]
        monkeypatch.setattr(numerics, "_extreme_points", lambda k, u: iter(extra))
        with pytest.raises(InvariantError, match="add the non-vertices"):
            profile_max_check(k, u)
        tried += 1
    assert tried >= (1 if k == 1 else 2)


def test_profile_max_catches_a_wrong_objective(monkeypatch):
    monkeypatch.setattr(MaxProblemPoint, "objective", lambda self: 0.0)
    with pytest.raises(InvariantError, match="not the closed form"):
        profile_max_check(3, 4.0)


@pytest.mark.parametrize("trials", [0, 1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1, 2 * _TRIAL_BLOCK + 3])
@pytest.mark.parametrize("width", [1, 6])
def test_trial_draws_follow_the_stream(trials, width):
    # blockwise draws are the one long draw cut into trials, and use it up exactly
    rng, ref = Prng(17), Prng(17)
    got = list(_trial_draws(rng, trials, width))
    flat = ref.floats(trials * width)
    assert got == [tuple(flat[i * width:(i + 1) * width]) for i in range(trials)]
    assert rng.u64() == ref.u64()


def _stretched_draws(rng, trials, width):
    # y = 1 + (x - 1) u_y runs past x, where the first inequality fails
    for u_r, u_x, u_y, *rest in _trial_draws(rng, trials, width):
        yield (u_r, u_x, 1.0 + 3.0 * u_y, *rest)


@pytest.mark.parametrize("trials", [1, _TRIAL_BLOCK - 1, _TRIAL_BLOCK + 1, 3000])
@pytest.mark.parametrize("case", ["as drawn", "every trial fails", "negative slack"])
def test_inequality_checks_match_the_max_abs_loop(trials, case, monkeypatch):
    # the conditional expressions give the floats of max(1, |lhs|, |rhs|) and
    # min(worst, q): same worst slack, to the last bit (the report prints its
    # repr), and verdict as the loop that calls them
    monkeypatch.setattr(numerics, "fmt_float", repr)
    if case == "every trial fails":
        monkeypatch.setattr(numerics, "INEQ_REL_TOL", -10.0)  # slack < 10 scale always
    if case == "negative slack":
        monkeypatch.setattr(numerics, "_trial_draws", _stretched_draws)
    r = inequality_checks(trials, seed=40 + trials)
    want_worst, want_holds = inequality_worst(
        numerics._trial_draws(Prng(40 + trials), trials, 6), numerics.INEQ_REL_TOL)
    assert dict(r.measured)["worst_relative_slack"] == repr(want_worst)
    assert r.holds is want_holds
    assert want_holds is (case == "as drawn")
    assert (want_worst < 0) is (case == "negative slack")


def test_inequalities_hold():
    r = inequality_checks(trials=30_000, seed=5)
    assert r.holds is True
    # hand values: z=4, beta=lambda=1/2
    lhs = (2 - 1) * (2 - 1)
    rhs = (4 ** 0.25 - 1) * 3
    assert lhs <= rhs


def test_inequalities_require_trials():
    with pytest.raises(ValueError):
        inequality_checks(0, seed=0)
