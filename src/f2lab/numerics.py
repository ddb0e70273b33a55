"""Floating-point side of the laboratory, and its exact checks: x <=
bound(2^(p/q)) at the irrational powers bounds are made of
(`power_at_most`), every report's verdict (`make_report`, from `Check`
records), and two scalar inequalities on an integer grid.

What remains transcendental has explicit tolerances: the float of the
refined subspace bound f_{d,k}, the rate-distance fixed point behind the
3.52 constant, and the weighted-power maximization over monotone
profiles (at the polytope's vertices, confirmed by exact enumeration).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from typing import Sequence

from .errors import InvariantError
from .report import REPORT_ONLY, VerificationReport, fmt_float

PROFILE_TOL = 1e-9
POWER_BITS_CAP = 1 << 12   # the most bits of 2^(p/q) `power_at_most` brackets


def power_at_most(x, bound, p: int, q: int) -> bool:
    """x <= bound(2^(p/q)) exactly, for q >= 1 and a nondecreasing `bound`
    from Fractions to Fractions; x is an int or a Fraction.

    When q divides p the power is rational and is compared at once.  Else
    it lies strictly between n/2^m and (n+1)/2^m, n the integer q-th root
    of 2^(p+mq): x <= bound at the lower end is yes, x > bound at the
    upper end is no, and otherwise m doubles, up to POWER_BITS_CAP.
    """
    if p % q == 0:
        return x <= bound(Fraction(2) ** (p // q))
    m = max(1, -(p // q))
    while m <= POWER_BITS_CAP:
        a = 1 << (p + m * q)
        n = 1 << -(-a.bit_length() // q)  # Newton's iteration from above falls to the root
        while (y := ((q - 1) * n + a // n ** (q - 1)) // q) < n:
            n = y
        if x <= bound(Fraction(n, 1 << m)):
            return True
        if x > bound(Fraction(n + 1, 1 << m)):
            return False
        m *= 2
    raise InvariantError(f"{x} is not separated from the bound at 2^({p}/{q})")


RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Check:
    """One asserted comparison, `value relation bound`, relation "<=", ">="
    or "==".  With power = (p, q) it is value <= bound(2^(p/q)), relation
    "<=", for a nondecreasing `bound`, decided by `power_at_most`.  Values
    are exact but in the float bands of sampled cross-checks and profile-max."""

    label: str
    value: object
    relation: str
    bound: object
    power: tuple[int, int] | None = None

    def holds(self) -> bool:
        if self.power is None:
            return RELATIONS[self.relation](self.value, self.bound)
        return power_at_most(self.value, self.bound, *self.power)


def make_report(name: str, params: Sequence[tuple[str, str]],
                measured: Sequence[tuple[str, str]], bound: tuple[str, str],
                checks: Sequence[Check], method: str, samples: int | None = None,
                seed: int | None = None, report_only: bool = False) -> VerificationReport:
    """Every report, and so every verdict, is made here: `holds` is whether
    every check holds, and REPORT_ONLY on a `report_only` row (its
    displayed `bound` not asserted) whose checks all hold."""
    checks = tuple(checks)
    holds = all(c.holds() for c in checks)
    return VerificationReport(
        name=name, params=tuple(params), measured=tuple(measured), bound=bound,
        holds=REPORT_ONLY if report_only and holds else holds, method=method,
        samples=samples, seed=seed, checks=checks)


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


def _objective(b: tuple[float, ...]) -> float:
    """sum_i 2^(i-1) 2^(b_i) of the profile b."""
    return sum(2.0 ** i * 2.0 ** bi for i, bi in enumerate(b))


def _extreme_points(k: int, u: float):
    """Extreme profiles, as tuples: a entries at k, then b entries at one
    level in [0, k], then zeros, with a*k + b*level = u.  Deduplicated."""
    seen: set[tuple[float, ...]] = set()
    for a in range(k + 1):
        rem = u - a * k
        if rem < -1e-12:
            break
        if abs(rem) <= 1e-12:
            prof = tuple([float(k)] * a + [0.0] * (k - a))
            if prof not in seen:
                seen.add(prof)
                yield prof
            continue
        for b in range(1, k - a + 1):
            level = rem / b
            if level <= k + 1e-12:
                level = min(level, float(k))
                prof = tuple([float(k)] * a + [level] * b + [0.0] * (k - a - b))
                key = tuple(round(x, 9) for x in prof)
                if key not in seen:
                    seen.add(key)
                    yield prof


def _solve_exact(rows: list, rhs: list) -> list | None:
    """The one solution x of rows . x = rhs for a square integer system,
    as Fractions, or None when it is singular.  Fraction-free (Bareiss)
    elimination keeps each entry below the pivots a minor, an integer, so
    dividing by the last pivot is exact; only back substitution is not."""
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
    extreme profile within PROFILE_TOL of a vertex.  That is the one
    feasibility check of the extreme profiles: one that is not monotone or
    does not sum to u is no vertex, and a mismatch is an `InvariantError`.
    The report's check is their largest objective against the closed form,
    within PROFILE_TOL relative to it.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not 0 <= u <= k * k:
        raise ValueError("u must lie in [0, k^2]")
    points = list(_extreme_points(k, u))
    vertices = [tuple(map(float, v)) for v in _exact_vertices(k, u)]

    def near(p, q):
        return all(abs(x - y) <= PROFILE_TOL for x, y in zip(p, q, strict=True))

    missing = [v for v in vertices if not any(near(v, pt) for pt in points)]
    extra = [pt for pt in points if not any(near(pt, v) for v in vertices)]
    if missing or extra:
        raise InvariantError(f"extreme profiles at k = {k}, u = {u} miss the vertices "
                             f"{missing} and add the non-vertices {extra}")
    bound = (2.0 ** k - 1.0) * 2.0 ** (u / k)
    best = -math.inf
    argmax_count = 0
    for pt in points:
        val = _objective(pt)
        if val > best:
            best = val
            argmax_count = 1
        elif abs(val - best) <= PROFILE_TOL * max(1.0, abs(best)):
            argmax_count += 1
    return make_report(
        "profile-max", [("k", str(k)), ("u", fmt_float(u))],
        [("extreme_max", fmt_float(best)), ("extreme_argmax_count", str(argmax_count)),
         ("extreme_points", str(len(points)))],
        ("closed_form", fmt_float(bound)),
        [Check("closed_form_gap", abs(best - bound), "<=", PROFILE_TOL * max(1.0, bound))],
        "closed-form")


def _inequality_sides(q_max: int, s: int):
    """(lhs, rhs, interior) of each check of `inequality_checks`."""
    top = range(s, 2 * s + 1)
    for q in range(1, q_max + 1):
        for i, (a, b) in product(range(q, q * q_max + 1), combinations_with_replacement(top, 2)):
            yield ((a ** i - s ** i) * (b ** q - s ** q),
                   (b ** i - s ** i) * (a ** q - s ** q), s < a < b and i > q)
        for i, j, w in product(range(q + 1), range(q + 1), top):
            yield ((w ** (i * q) - s ** (i * q)) * (w ** (j * q) - s ** (j * q))
                   * s ** ((q - i) * (q - j)),
                   (w ** (i * j) - s ** (i * j)) * (w ** (q * q) - s ** (q * q)),
                   0 < i < q and 0 < j < q and w > s)


def inequality_checks(q_max: int, s: int) -> VerificationReport:
    """Exact checks of the two scalar inequalities the profile maximization
    leans on, on grids where every power is an integer power, one integer
    comparison each once denominators are cleared.  For q = 1..q_max:
    - (y^r - 1)(x - 1) <= (x^r - 1)(y - 1), so (x^r - 1)/(x - 1) grows, at
      r = i/q, x = (b/s)^q, y = (a/s)^q, q <= i <= q q_max, s <= a <= b <= 2s;
    - (z^l - 1)(z^b - 1) <= (z^(bl) - 1)(z - 1) at l = i/q, b = j/q, z =
      (w/s)^(q^2), 0 <= i, j <= q, s <= w <= 2s; clearing s^(q^2+ij) leaves
      s^((q-i)(q-j)) on the left.
    Reported: the count of checks and the least relative slack (rhs - lhs)/rhs
    where both are strict (s < a < b, i > q; 0 < i, j < q, w > s).  Asserted:
    the least integer slack rhs - lhs over the whole grid is >= 0.
    """
    if q_max < 2 or s < 2:
        raise ValueError("q_max and s must be >= 2, so the grid has an interior")
    slack = least = math.inf
    for checks, (lhs, rhs, interior) in enumerate(_inequality_sides(q_max, s), 1):
        slack = min(slack, rhs - lhs)
        if interior:
            least = min(least, (rhs - lhs) / rhs)
    return make_report(
        "scalar-inequalities", [("q_max", str(q_max)), ("s", str(s))],
        [("checks", str(checks)), ("least_relative_slack", fmt_float(least))],
        ("integer_comparison", "lhs <= rhs"), [Check("least_slack", slack, ">=", 0)],
        "exhaustive")
