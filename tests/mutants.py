"""Mutant catalogue: small wrong edits of `src/f2lab` that the tier-1
suite must catch, each with the tests that catch it.

    python tests/mutants.py            # run every mutant; exit 1 on a survivor
    python tests/mutants.py NAME ...   # run the named mutants only

Each mutant is (file under src/f2lab, exact old text, new text, the
tier-1 test ids that must kill it).  A mutant whose change cannot be seen
in any output is marked equivalent instead, with the reason, and is not
run.  The runner copies `src`, `tests` and `pyproject.toml` to a fresh
temporary directory per mutant, applies it there, and runs its tests
with pytest: the mutant is killed when they fail, survives when they
pass, and any other pytest exit is an error (exit 2).  The working tree
is never edited.  pytest does not collect this file; `test_mutants.py`
checks that each old text occurs exactly once, so a change that moves
mutated code must re-aim its mutants.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    kills: tuple[str, ...] = ()
    equivalent: str | None = None


H = "tests/test_harness.py::"
N = "tests/test_numerics.py::"
T = "tests/test_tensors.py::"
B = "tests/test_bias.py::"

MUTANTS = [
    # harness._vanish_count: the sum-zero and moment-identity vanishing count
    Mutant("vanish-empty-sum", "harness.py",
           "        return 1\n    sums = _sum_census(d, k, t - 1)",
           "        return 0\n    sums = _sum_census(d, k, t - 1)",
           (H + "test_vanish_count_matches_census_up_to_16_tuple_bits",)),
    Mutant("vanish-t-fold", "harness.py",
           "sums = _sum_census(d, k, t - 1)", "sums = _sum_census(d, k, t)",
           (H + "test_vanish_count_matches_census_on_profile_rows",
            H + "TestSumZero::test_222", H + "TestMomentIdentity::test_222_is_29_128")),
    Mutant("vanish-missing-sum", "harness.py",
           "m * sums.get(x, 0) for x", "m * sums.get(x, 1) for x",
           (H + "test_vanish_count_matches_census_on_profile_rows",
            H + "test_vanish_count_matches_census_up_to_16_tuple_bits")),
    # numerics._solve_exact and _exact_vertices: the profile-max vertices
    Mutant("bareiss-sign", "numerics.py",
           "(top[col] * a - f * b) // last", "(top[col] * a + f * b) // last",
           (N + "test_solve_exact",
            N + "test_solve_exact_matches_gauss_jordan_on_random_integer_systems",
            N + "test_exact_vertices_by_hand")),
    Mutant("bareiss-no-swap", "numerics.py",
           "m[col], m[piv] = m[piv], m[col]", "m[col], m[piv] = m[col], m[piv]",
           (N + "test_solve_exact",
            N + "test_solve_exact_matches_gauss_jordan_on_random_integer_systems")),
    Mutant("bareiss-undivided", "numerics.py",
           "        last = top[col]", "        last = 1",
           equivalent="without Bareiss's division the elimination is still exact and "
           "gives the same Fractions; only its integers grow, as products of the "
           "earlier pivots, which no test measures at k <= 7"),
    Mutant("back-substitution-all-terms", "numerics.py",
           "for j in range(i + 1, n) if row[j])", "for j in range(i + 1, n))",
           equivalent="the filter skips only zero products, so the sums are equal"),
    Mutant("vertices-unscaled-sum", "numerics.py",
           "total = ([q] * k, p)", "total = ([1] * k, p)",
           (N + "test_exact_vertices_by_hand",
            N + "test_exact_vertices_match_gauss_jordan_on_profile_rows")),
    Mutant("vertices-strict-chain", "numerics.py",
           "all(x >= y for x, y in zip([k, *b], [*b, 0]))",
           "all(x > y for x, y in zip([k, *b], [*b, 0]))",
           (N + "test_exact_vertices_by_hand",
            N + "test_exact_vertices_match_gauss_jordan_on_profile_rows")),
    # tensors.Polynomial.__post_init__: the monomial checks
    Mutant("polynomial-index-n", "tensors.py",
           "max(m) < self.n", "max(m) <= self.n",
           (T + "test_polynomial_raises_the_old_validators_error",)),
    Mutant("polynomial-range-by-max", "tensors.py",
           "0 <= min(m) and", "0 <= max(m) and",
           (T + "test_polynomial_raises_the_old_validators_error",)),
    Mutant("polynomial-skip-a-pair", "tensors.py",
           "map(lt, m, m[1:])", "map(lt, m, m[2:])",
           (T + "test_polynomial_raises_the_old_validators_error",)),
    Mutant("polynomial-any-sequence", "tensors.py",
           "if not isinstance(m, tuple) or not all(", "if not all(",
           (T + "test_polynomial_raises_the_old_validators_error",)),
    Mutant("polynomial-empty-range", "tensors.py",
           "if m and not (0 <= min(m)", "if not (0 <= min(m)",
           (T + "test_polynomial_accepts_what_the_old_validator_accepts",)),
    # bias.corr_exact: the slice tables' shared variable masks
    Mutant("corr-masks-reversed", "bias.py",
           "[var_mask(v, k) for v in range(k)] if d > 2",
           "[var_mask(k - 1 - v, k) for v in range(k)] if d > 2",
           (B + "test_corr_exact_matches_per_input_count",
            B + "test_corr_exact_matches_whole_table_oracle")),
    Mutant("corr-masks-from-d4", "bias.py",
           "for v in range(k)] if d > 2 else None", "for v in range(k)] if d > 3 else None",
           equivalent="d = 3 then builds its masks per slice table: the same tables, "
           "only slower, and no tier-1 test times corr_exact"),
    Mutant("corr-masks-at-d2", "bias.py",
           "for v in range(k)] if d > 2 else None", "for v in range(k)] if d > 1 else None",
           equivalent="the same tables; at d = 2 the k masks are k more pieces, which "
           "_corr_bytes does not count, but the byte test's calls peak at 0.27 of the "
           "model or less (their polynomials' pieces are mostly one shared zero), so "
           "the one-sided test passes: a blind spot, not a harmless change"),
]


def _run(mutant: Mutant, work: Path) -> int:
    """pytest's exit status on the mutant's tests in a fresh copy of the
    tree with the mutant applied."""
    tree = work / mutant.name
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
    path = tree / "src" / "f2lab" / mutant.file
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs {text.count(mutant.old)} times")
    path.write_text(text.replace(mutant.old, mutant.new))
    env = {k: v for k, v in os.environ.items() if not k.startswith("F2LAB_")}
    env.update(PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *mutant.kills], cwd=tree, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(names: list[str]) -> int:
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in names if n not in known]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = [known[n] for n in names] if names else MUTANTS
    survivors, errors = [], []
    with tempfile.TemporaryDirectory(prefix="f2lab-mutants-") as work:
        for m in chosen:
            if m.equivalent:
                print(f"equivalent  {m.name}: {m.equivalent}")
                continue
            status = _run(m, Path(work))
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
            print(f"{verdict:<10}  {m.name}")
            if status == 0:
                survivors.append(m.name)
            elif status != 1:
                errors.append(m.name)
    print(f"{len(chosen)} mutants: {sum(bool(m.equivalent) for m in chosen)} equivalent, "
          f"{len(survivors)} survived, {len(errors)} errors")
    return 2 if errors else 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
