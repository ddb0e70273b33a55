"""Float-side checks: membership bound, fixed-point constant, profile max."""

import math

import pytest

from f2lab.errors import InvariantError
from f2lab.numerics import (_TRIAL_BLOCK, MaxProblemPoint, _sampled_max, _trial_draws,
                            f_dk_bound, inequality_checks, mrrw_constant,
                            profile_max_check)
from f2lab.prng import Prng
from f2lab.report import fmt_float
from oracles import random_feasible, sampled_profile_max


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
    r = profile_max_check(2, 2.0, random_trials=500, seed=1)
    measured = dict(r.measured)
    assert r.holds is True
    assert float(measured["extreme_max"]) == pytest.approx(6.0)
    assert measured["extreme_argmax_count"] == "2"


def test_profile_max_boundaries():
    r = profile_max_check(4, 0.0, random_trials=50, seed=2)
    assert float(dict(r.measured)["extreme_max"]) == pytest.approx(2 ** 4 - 1)
    r = profile_max_check(4, 16.0, random_trials=50, seed=3)
    assert float(dict(r.measured)["extreme_max"]) == pytest.approx((2 ** 4 - 1) * 2 ** 4)


def test_profile_max_grid():
    rng = Prng(4)
    for k in range(1, 7):
        for _ in range(25):
            u = rng.floats(1)[0] * k * k
            assert profile_max_check(k, u, random_trials=40, seed=rng.u64()).holds is True


# (k, u, trials, seed) of the full profile's profile-max reports, and the
# two ends u = 0 and u = k^2 of every k there
FULL_PROFILE_CASES = [(k, (i + 0.37) * k * k / 4.0, 5_000, 600 + 10 * k + i)
                      for k in range(1, 7) for i in range(4)]
END_CASES = [(k, u, 700, 90 + k) for k in range(1, 7) for u in (0.0, float(k * k))]


@pytest.mark.parametrize("k, u, trials, seed", FULL_PROFILE_CASES + END_CASES)
def test_sampled_max_matches_one_point_per_trial(k, u, trials, seed):
    # the flat loop against one validated MaxProblemPoint per trial: the
    # same float operations in the same order, so the same float
    want = sampled_profile_max(k, u, trials, seed)
    assert _sampled_max(k, u, trials, seed) == want
    r = profile_max_check(k, u, random_trials=trials, seed=seed)
    assert dict(r.measured)["sampled_max"] == fmt_float(want)


@pytest.mark.parametrize("k, u, draws", [(2, 4.0, [0.5, -1.0]), (2, 2.0, [1.0, -3.0])])
def test_sampled_max_clamps_like_one_point_per_trial_on_a_negative_sum(k, u, draws,
                                                                      monkeypatch):
    # a negative sum reverses the rescaled order, so the value above k is
    # the last one: the clamp must still run, as it does per point
    monkeypatch.setattr(Prng, "floats", lambda self, n: (draws * n)[:n])
    assert _sampled_max(k, u, 3, seed=1) == random_feasible(k, u, draws).objective()


@pytest.mark.parametrize("k, u, draws, why", [
    (3, 4.0, [math.nan], "not monotone"), (3, 4.0, [math.inf], "not monotone"),
    (3, 4.0, [-1.0, 2.0, 0.0], "not monotone"), (3, 2.0, [0.5, 2.0, -2.0], "does not sum")])
def test_infeasible_sampled_profile_is_an_invariant_error(k, u, draws, why, monkeypatch):
    # draws outside [0, 1): NaN and infinite ones give a NaN profile, a
    # negative one a negative entry, and a negative sum a profile whose
    # mass the clamp cannot place
    monkeypatch.setattr(Prng, "floats", lambda self, n: (draws * n)[:n])
    with pytest.raises(InvariantError, match=why):
        profile_max_check(k, u, random_trials=5, seed=1)


@pytest.mark.parametrize("trials", [0, 1, _TRIAL_BLOCK, _TRIAL_BLOCK + 1, 2 * _TRIAL_BLOCK + 3])
@pytest.mark.parametrize("width", [1, 6])
def test_trial_draws_follow_the_stream(trials, width):
    # blockwise draws are the one long draw cut into trials, and use it up exactly
    rng, ref = Prng(17), Prng(17)
    got = list(_trial_draws(rng, trials, width))
    flat = ref.floats(trials * width)
    assert got == [flat[i * width:(i + 1) * width] for i in range(trials)]
    assert rng.u64() == ref.u64()


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
