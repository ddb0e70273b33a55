"""Floating-point side of the laboratory.

Exact rationals cover every probability; what remains transcendental
lives here with explicit tolerances: the refined subspace-membership
bound f_{d,k}, the rate-distance fixed point behind the 3.52 constant,
the weighted-power maximization over monotone profiles (taken at the
polytope's vertices, which an exact rational enumeration confirms), and
two sampled scalar inequalities the maximization proof leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import InvariantError
from .prng import Prng
from .report import VerificationReport, fmt_float

PROFILE_TOL = 1e-9
INEQ_REL_TOL = 1e-12
# trials per Prng.floats call in `_trial_draws`, which bounds the floats
# held at once to width * _TRIAL_BLOCK
_TRIAL_BLOCK = 1024


def _trial_draws(rng: Prng, trials: int, width: int):
    """Each trial's `width` floats in stream order, as a tuple, drawn with
    one `Prng.floats` call per block of `_TRIAL_BLOCK` trials: `zip` of
    `width` references to one iterator over the block takes the trials'
    floats in turn, and copies no slice."""
    for start in range(0, trials, _TRIAL_BLOCK):
        block = rng.floats(width * min(_TRIAL_BLOCK, trials - start))
        yield from zip(*[iter(block)] * width)


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


def _solve_exact(rows: list, rhs: list) -> list | None:
    """The one solution x of rows . x = rhs for a square integer system,
    as Fractions, or None when it is singular.  Fraction-free (Bareiss)
    elimination keeps each entry below the pivots a minor, an integer, so
    dividing by the last pivot is exact; only back substitution is not."""
    from fractions import Fraction  # off the import path of f2lab

    n = len(rows)
    m = [list(row) + [r] for row, r in zip(rows, rhs)]
    last = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        top = m[col]
        for i in range(col + 1, n):
            f = m[i][col]
            m[i] = [(top[col] * a - f * b) // last for a, b in zip(m[i], top)]
        last = top[col]
    x = [0] * n
    for i in reversed(range(n)):
        row = m[i]
        x[i] = Fraction(row[n] - sum(row[j] * x[j] for j in range(i + 1, n) if row[j]), row[i])
    return x


def _exact_vertices(k: int, u: float) -> set[tuple]:
    """Vertices of {k >= b_1 >= ... >= b_k >= 0, sum_i b_i = u} as tuples
    of Fractions, with u read exactly.

    Chain inequality j (j = 0..k) is b_j >= b_{j+1}, reading b_0 = k and
    b_{k+1} = 0.  A vertex makes k independent constraints tight, the sum
    among them, so at most two chain inequalities are free: each choice
    of two gives a k x k system, solved exactly and kept when feasible.
    u = p/q exactly, so the sum row scaled by q (q b_1 + ... + q b_k = p)
    keeps every system in integers.
    """
    p, q = u.as_integer_ratio()
    # tight, inequality j is the row (+1 at b_j, -1 at b_{j+1}) = rhs
    chain = [([(i == j - 1) - (i == j) for i in range(k)], -k if j == 0 else 0)
             for j in range(k + 1)]
    total = ([q] * k, p)
    vertices = set()
    for free in combinations(range(k + 1), 2):
        eqs = [c for j, c in enumerate(chain) if j not in free] + [total]
        b = _solve_exact([row for row, _ in eqs], [rhs for _, rhs in eqs])
        if b is not None and all(x >= y for x, y in zip([k, *b], [*b, 0])):
            vertices.add(tuple(b))
    return vertices


def profile_max_check(k: int, u: float) -> VerificationReport:
    """Check max sum_i 2^(i-1) 2^(b_i) = (2^k - 1) 2^(u/k) over profiles
    k >= b_1 >= ... >= b_k >= 0 summing to u.

    The objective is a sum of exponentials, hence convex, and the
    feasible set is a polytope, so the maximum is taken at a vertex.  The
    float extreme profiles of `_extreme_points` must therefore be the
    polytope's vertices, which `_exact_vertices` derives independently:
    every vertex within PROFILE_TOL of an extreme profile and every
    extreme profile within PROFILE_TOL of a vertex.  Their largest
    objective must equal the closed form.  A mismatch in either is an
    `InvariantError`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= u <= k * k:
        raise ValueError("u must lie in [0, k^2]")
    points = list(_extreme_points(k, u))
    vertices = [tuple(map(float, v)) for v in _exact_vertices(k, u)]

    def near(p, q):
        return all(abs(x - y) <= PROFILE_TOL for x, y in zip(p, q, strict=True))

    missing = [v for v in vertices if not any(near(v, pt.b) for pt in points)]
    extra = [pt.b for pt in points if not any(near(pt.b, v) for v in vertices)]
    if missing or extra:
        raise InvariantError(f"extreme profiles at k = {k}, u = {u} miss the vertices "
                             f"{missing} and add the non-vertices {extra}")
    bound = (2.0 ** k - 1.0) * 2.0 ** (u / k)
    best = -math.inf
    argmax_count = 0
    for pt in points:
        val = pt.objective()
        if val > best:
            best = val
            argmax_count = 1
        elif abs(val - best) <= PROFILE_TOL * max(1.0, abs(best)):
            argmax_count += 1
    if not abs(best - bound) <= PROFILE_TOL * max(1.0, bound):
        raise InvariantError(f"vertex maximum {best!r} at k = {k}, u = {u} is not "
                             f"the closed form {bound!r}")
    return VerificationReport(
        name="profile-max",
        params=(("k", str(k)), ("u", fmt_float(u))),
        measured=(("extreme_max", fmt_float(best)),
                  ("extreme_argmax_count", str(argmax_count)),
                  ("extreme_points", str(len(points)))),
        bound=("closed_form", fmt_float(bound)),
        holds=True,
        method="closed-form")


def inequality_checks(trials: int, seed: int) -> VerificationReport:
    """Sampled checks of the two scalar inequalities behind the profile
    maximization: monotonicity of (x^r - 1)/(x - 1) in x for r >= 1, and
    (z^l - 1)(z^b - 1) <= (z^(bl) - 1)(z - 1) for z >= 1, b, l in [0,1].

    Both are checked cross-multiplied so the x = 1 and z = 1 boundary
    cases stay exact.  Each side is scaled by max(1, |lhs|, |rhs|),
    written as conditional expressions, which give the same floats as
    `max` and `abs` without their calls.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    worst = 0.0
    holds = True
    tol = INEQ_REL_TOL
    for u_r, u_x, u_y, u_z, beta, lam in _trial_draws(Prng(seed), trials, 6):
        r = 1.0 + 9.0 * u_r
        x = 1.0 + 7.0 * u_x
        y = 1.0 + (x - 1.0) * u_y
        z = 1.0 + 7.0 * u_z
        for lhs, rhs in (((y ** r - 1.0) * (x - 1.0), (x ** r - 1.0) * (y - 1.0)),
                         ((z ** lam - 1.0) * (z ** beta - 1.0),
                          (z ** (beta * lam) - 1.0) * (z - 1.0))):
            a = lhs if lhs >= 0.0 else -lhs
            b = rhs if rhs >= 0.0 else -rhs
            scale = a if a > b else b
            if scale < 1.0:
                scale = 1.0
            slack = rhs - lhs
            q = slack / scale
            if q < worst:
                worst = q
            if slack < -tol * scale:
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
