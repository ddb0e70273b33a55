"""Floating-point side of the laboratory.

Exact rationals cover every probability; what remains transcendental
lives here with explicit tolerances: the refined subspace-membership
bound f_{d,k}, the rate-distance fixed point behind the 3.52 constant,
the weighted-power maximization over monotone profiles, and two scalar
inequalities the maximization proof leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvariantError
from .prng import Prng
from .report import VerificationReport, fmt_float

PROFILE_TOL = 1e-9
INEQ_REL_TOL = 1e-12
# trials per Prng.floats call in `_trial_draws` and `_sampled_max`, which
# bounds the floats held at once to width * _TRIAL_BLOCK
_TRIAL_BLOCK = 1024


def _trial_draws(rng: Prng, trials: int, width: int):
    """Each trial's `width` floats in stream order, drawn with one
    `Prng.floats` call per block of `_TRIAL_BLOCK` trials."""
    for start in range(0, trials, _TRIAL_BLOCK):
        n = min(_TRIAL_BLOCK, trials - start)
        block = rng.floats(width * n)
        for i in range(n):
            yield block[i * width:(i + 1) * width]


@dataclass(frozen=True)
class MaxProblemPoint:
    """Feasible point of the monotone-profile maximization.

    Coordinates satisfy k >= b_1 >= ... >= b_k >= 0 and sum to u.
    """

    k: int
    u: float
    b: tuple[float, ...]

    def __post_init__(self):
        if len(self.b) != self.k:
            raise ValueError("profile length != k")
        prev = float(self.k)
        for x in self.b:
            if x < -1e-12 or x > prev + 1e-12:
                raise ValueError("profile not monotone in [0, k]")
            prev = x
        if abs(sum(self.b) - self.u) > 1e-9:
            raise ValueError("profile does not sum to u")

    def objective(self) -> float:
        """sum_i 2^(i-1) 2^(b_i)."""
        return sum(2.0 ** i * 2.0 ** bi for i, bi in enumerate(self.b))


def f_dk_bound(d: int, k: int, u: float) -> float:
    """Refined bound on Pr[rank-one tensor lands in a dim-u subspace].

    (1 - (1-2^-k)^(d-1)) + (1-2^-k)^(d-1) * 2^(u/k^(d-1)) / 2^k, which
    never exceeds the relaxed d/2^k + 2^(u/k^(d-1))/2^k.
    """
    if d < 1 or k < 1:
        raise ValueError("d and k must be >= 1")
    if not 0 <= u <= float(k ** d):
        raise ValueError(f"u must lie in [0, k^{d}]")
    q = (1.0 - 2.0 ** -k) ** (d - 1)
    val = (1.0 - q) + q * 2.0 ** (u / k ** (d - 1)) / 2.0 ** k
    relaxed = d * 2.0 ** -k + 2.0 ** (u / k ** (d - 1)) / 2.0 ** k
    if val > relaxed + 1e-12:
        raise InvariantError("f_dk bound exceeds its relaxation")
    return val


def _h2(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def mrrw_constant(tol: float) -> tuple[float, float]:
    """Fixed point rho* of rho = h2(1/2 - sqrt(rho(1-rho))) and 1/rho*.

    1/rho* is the constant (approximately 3.52) a weight-k dual code of
    dimension k inside F2^t forces onto t.  Bisection on (0, 1/2).
    """
    if tol <= 0:
        raise ValueError("tol must be positive")

    def g(rho: float) -> float:
        return _h2(0.5 - math.sqrt(rho * (1.0 - rho))) - rho

    lo, hi = 1e-12, 0.5 - 1e-12
    if not g(lo) > 0 > g(hi):
        raise InvariantError("mrrw bisection bracket has no sign change")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
    rho = 0.5 * (lo + hi)
    return rho, 1.0 / rho


def _extreme_points(k: int, u: float):
    """Extreme profiles: a entries at k, then b entries at one level in
    [0, k], then zeros, with a*k + b*level = u.  Deduplicated."""
    seen: set[tuple[float, ...]] = set()
    for a in range(k + 1):
        rem = u - a * k
        if rem < -1e-12:
            break
        if abs(rem) <= 1e-12:
            prof = tuple([float(k)] * a + [0.0] * (k - a))
            if prof not in seen:
                seen.add(prof)
                yield MaxProblemPoint(k, u, prof)
            continue
        for b in range(1, k - a + 1):
            level = rem / b
            if level <= k + 1e-12:
                level = min(level, float(k))
                prof = tuple([float(k)] * a + [level] * b + [0.0] * (k - a - b))
                key = tuple(round(x, 9) for x in prof)
                if key not in seen:
                    seen.add(key)
                    yield MaxProblemPoint(k, u, prof)


def _sampled_max(k: int, u: float, trials: int, seed: int) -> float:
    """Largest objective over `trials` random feasible profiles.

    Each trial's k uniform draws are sorted descending and rescaled to sum
    u; where a value exceeds k, the excess is clamped off and spread over
    the values still below k, repeatedly.  A last pass moves the rounding
    drift into the leading values, and the profile is sorted again.  A
    profile that is not monotone in [0, k] or does not sum to u within
    1e-9 is an `InvariantError`.
    """
    fk = float(k)
    weights = [2.0 ** i for i in range(k)]
    best = -math.inf
    rng = Prng(seed)
    for start in range(0, trials, _TRIAL_BLOCK):
        block = rng.floats(k * min(_TRIAL_BLOCK, trials - start))
        for lo in range(0, len(block), k):
            vals = sorted(block[lo:lo + k], reverse=True)
            total = sum(vals)
            if total == 0.0:
                vals = [u / k] * k
            else:
                vals = [v * u / total for v in vals]
            if max(vals) > fk:
                for _ in range(k + 1):
                    excess = 0.0
                    room = 0
                    for i, v in enumerate(vals):
                        if v > fk:
                            excess += v - fk
                            vals[i] = fk
                        elif v < fk:
                            room += 1
                    if excess <= 1e-12 or room == 0:
                        break
                    add = excess / room
                    vals = [min(fk, v + add) if v < fk else v for v in vals]
                vals.sort(reverse=True)
            drift = u - sum(vals)
            for i in range(k):
                take = min(max(vals[i] + drift, 0.0), fk)
                drift -= take - vals[i]
                vals[i] = take
                if abs(drift) < 1e-12:
                    break
            vals.sort(reverse=True)
            prev = fk
            for v in vals:
                if not -1e-12 <= v <= prev + 1e-12:
                    raise InvariantError(f"sampled profile {vals} not monotone in [0, {k}]")
                prev = v
            if not abs(sum(vals) - u) <= 1e-9:
                raise InvariantError(f"sampled profile {vals} does not sum to u = {u}")
            best = max(best, sum([w * 2.0 ** v for w, v in zip(weights, vals)]))
    return best


def profile_max_check(k: int, u: float, random_trials: int,
                      seed: int) -> VerificationReport:
    """Check max sum_i 2^(i-1) 2^(b_i) = (2^k - 1) 2^(u/k) over monotone
    profiles summing to u.

    Extreme points are enumerated exactly (their max must equal the
    bound); random feasible profiles must stay below it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if random_trials < 0:
        raise ValueError("trials must be >= 0")
    if not 0 <= u <= k * k:
        raise ValueError("u must lie in [0, k^2]")
    bound = (2.0 ** k - 1.0) * 2.0 ** (u / k)
    best = -math.inf
    argmax_count = 0
    npoints = 0
    for pt in _extreme_points(k, u):
        npoints += 1
        val = pt.objective()
        if val > best:
            best = val
            argmax_count = 1
        elif abs(val - best) <= PROFILE_TOL * max(1.0, abs(best)):
            argmax_count += 1
    sampled_max = _sampled_max(k, u, random_trials, seed)
    scale = max(1.0, bound)
    holds = (abs(best - bound) <= PROFILE_TOL * scale
             and best <= bound + PROFILE_TOL * scale
             and (random_trials == 0 or sampled_max <= bound + PROFILE_TOL * scale))
    return VerificationReport(
        name="profile-max",
        params=(("k", str(k)), ("u", fmt_float(u)), ("trials", str(random_trials))),
        measured=(("extreme_max", fmt_float(best)),
                  ("extreme_argmax_count", str(argmax_count)),
                  ("extreme_points", str(npoints)),
                  ("sampled_max", fmt_float(sampled_max if random_trials else 0.0))),
        bound=("closed_form", fmt_float(bound)),
        holds=holds,
        method="closed-form",
        samples=random_trials or None,
        seed=seed if random_trials else None)


def inequality_checks(trials: int, seed: int) -> VerificationReport:
    """Sampled checks of the two scalar inequalities behind the profile
    maximization: monotonicity of (x^r - 1)/(x - 1) in x for r >= 1, and
    (z^l - 1)(z^b - 1) <= (z^(bl) - 1)(z - 1) for z >= 1, b, l in [0,1].

    Both are checked cross-multiplied so the x = 1 and z = 1 boundary
    cases stay exact.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    holds = True
    for u_r, u_x, u_y, u_z, beta, lam in _trial_draws(Prng(seed), trials, 6):
        r = 1.0 + 9.0 * u_r
        x = 1.0 + 7.0 * u_x
        y = 1.0 + (x - 1.0) * u_y
        lhs = (y ** r - 1.0) * (x - 1.0)
        rhs = (x ** r - 1.0) * (y - 1.0)
        slack = rhs - lhs
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = min(worst, slack / scale)
        if slack < -INEQ_REL_TOL * scale:
            holds = False

        z = 1.0 + 7.0 * u_z
        lhs2 = (z ** lam - 1.0) * (z ** beta - 1.0)
        rhs2 = (z ** (beta * lam) - 1.0) * (z - 1.0)
        slack2 = rhs2 - lhs2
        scale2 = max(1.0, abs(lhs2), abs(rhs2))
        worst = min(worst, slack2 / scale2)
        if slack2 < -INEQ_REL_TOL * scale2:
            holds = False
    return VerificationReport(
        name="scalar-inequalities",
        params=(("trials", str(trials)),),
        measured=(("worst_relative_slack", fmt_float(worst)),),
        bound=("relative_tolerance", fmt_float(-INEQ_REL_TOL)),
        holds=holds,
        method="monte-carlo",
        samples=trials,
        seed=seed)
