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
R = "tests/test_report.py::"
P = "tests/test_prng.py::"
L = "tests/test_f2linalg.py::"
K = "tests/test_rank.py::"
G = "tests/test_capacity_guards.py::"
C = "tests/test_cli.py::"

MUTANTS = [
    # harness._vanish_count: the sum-zero and moment-identity vanishing count
    Mutant("vanish-empty-sum", "harness.py",
           "        return 1\n    one = _rank_one_census(d, k)",
           "        return 0\n    one = _rank_one_census(d, k)",
           (H + "test_vanish_count_matches_census_up_to_16_tuple_bits",)),
    Mutant("vanish-t-fold", "harness.py",
           "sums = _sum_census(d, k, t - 1, one)", "sums = _sum_census(d, k, t, one)",
           (H + "test_vanish_count_matches_census_on_profile_rows",
            H + "TestSumZero::test_222", H + "TestMomentIdentity::test_222_is_29_128")),
    Mutant("vanish-builds-census-twice", "harness.py",
           "sums = _sum_census(d, k, t - 1, one)", "sums = _sum_census(d, k, t - 1)",
           (H + "test_vanish_count_builds_one_census_at_t_1",)),
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
    # _bitops.anf_pieces and bias.corr_exact: one ANF table of f_T + P
    Mutant("anf-bucket-bit-from-w", "_bitops.py",
           "b[lw >> 3] ^= 1 << (lw & 7)", "b[lw >> 3] ^= 1 << (w & 7)",
           (B + "test_anf_pieces_cancels_pairs_inside_narrow_buckets",
            "tests/test_route_digests.py::test_route_matches_its_digest")),
    Mutant("anf-moebius-skips-top-variable", "_bitops.py",
           "    for v in range(m):\n        mask = var_mask(v, m)",
           "    for v in range(m - 1):\n        mask = var_mask(v, m)",
           (B + "test_anf_table_matches_polynomial_evaluate",
            B + "test_corr_exact_matches_whole_table_oracle")),
    Mutant("form-monomials-blocks-reversed", "bias.py",
           "[w | 1 << (j * k + i) for w in masks",
           "[w | 1 << ((t.d - 1 - j) * k + i) for w in masks",
           (B + "test_corr_exact_matches_per_input_count",
            B + "test_corr_exact_matches_whole_table_oracle",
            "tests/test_route_digests.py::test_route_matches_its_digest")),
    Mutant("form-monomials-entries-reversed", "bias.py",
           ".zfill(len(masks))[::-1]", ".zfill(len(masks))",
           (B + "test_corr_exact_matches_per_input_count",
            B + "test_corr_exact_matches_whole_table_oracle",
            B + "test_class_max_spectrum_is_over_the_input_coordinates")),
    Mutant("corr-bytes-half-table", "bias.py",
           "4096 + ((64 + piece) << h) + 4 * piece", "4096 + ((64 + piece) << h >> 1) + 4 * piece",
           (G + "test_exact_route_peak_within_budget", G + "test_every_guard_names_its_unit")),
    Mutant("mc-bytes-without-planes", "bias.py",
           "return (4096 + dk * plane + words_bytes", "return (4096 + words_bytes",
           (G + "test_exact_route_peak_within_budget", G + "test_every_guard_names_its_unit")),
    # bias.corr_class_max: input coordinates and the least maximizer
    Mutant("class-max-last-state", "bias.py",
           "        if num > best_num:\n            best_num, best_state",
           "        if num >= best_num:\n            best_num, best_state",
           (B + "test_corr_class_max_matches_whole_class_walk",)),
    Mutant("class-max-greatest-linear-part", "bias.py",
           "best_a = min(spectrum.index(v) for v in (top, low)",
           "best_a = max(size - 1 - spectrum[::-1].index(v) for v in (top, low)",
           (B + "test_corr_class_max_degree_one_witness_is_zero",
            B + "test_corr_class_max_matches_whole_class_walk_on_flat_spectra")),
    Mutant("class-max-variables-reversed", "bias.py",
           "anf_pieces([sum(1 << v for v in mono)], n, n)",
           "anf_pieces([sum(1 << (n - 1 - v) for v in mono)], n, n)",
           (B + "test_class_max_spectrum_is_over_the_input_coordinates",)),
    # numerics.power_at_most: x <= bound(2^(p/q)), exactly
    Mutant("power-exact-strict", "numerics.py",
           "return x <= bound(Fraction(2) ** (p // q))", "return x < bound(Fraction(2) ** (p // q))",
           (N + "test_power_at_most_accepts_equality_at_rational_powers",
            N + "test_power_at_most_brackets_any_power")),
    Mutant("power-no-exact-branch", "numerics.py",
           "    if p % q == 0:\n        return x <= bound(Fraction(2) ** (p // q))\n", "",
           (N + "test_power_at_most_compares_a_rational_power_at_once",)),
    Mutant("power-lo-strict", "numerics.py",
           "if x <= bound(Fraction(n, 1 << m)):", "if x < bound(Fraction(n, 1 << m)):",
           (N + "test_power_at_most_accepts_a_bound_flat_around_the_power",)),
    Mutant("power-hi-is-lo", "numerics.py",
           "if x > bound(Fraction(n + 1, 1 << m)):", "if x > bound(Fraction(n, 1 << m)):",
           (N + "test_power_at_most_brackets_any_power",
            N + "test_power_at_most_fails_what_the_float_slack_passed",
            N + "test_power_at_most_agrees_with_floats_away_from_the_bound")),
    Mutant("power-newton-one-step", "numerics.py",
           "        while (y := ((q - 1) * n", "        if (y := ((q - 1) * n",
           (N + "test_power_at_most_brackets_any_power",
            N + "test_power_at_most_agrees_with_floats_away_from_the_bound")),
    Mutant("power-step-by-one", "numerics.py", "        m *= 2\n", "        m += 1\n",
           equivalent="the brackets still shrink to the power and the same comparisons "
           "decide; only more of them run before one does"),
    # numerics.inequality_checks: the scalar inequalities on the integer grid
    Mutant("grid-dropped-factor", "numerics.py",
           "(w ** (j * q) - s ** (j * q))\n                   * s ** ((q - i) * (q - j)),",
           "(w ** (j * q) - s ** (j * q)),",
           (N + "test_inequality_sides_match_the_fraction_oracle",)),
    Mutant("grid-no-interior", "numerics.py", "        if interior:\n", "        if True:\n",
           (N + "test_profile_rows_show_a_positive_least_slack",
            N + "test_inequality_checks_match_the_fraction_oracle")),
    Mutant("grid-interior-at-r1", "numerics.py",
           "s < a < b and i > q)", "s < a < b and i >= q)",
           (N + "test_inequality_sides_match_the_fraction_oracle",
            N + "test_profile_rows_show_a_positive_least_slack")),
    Mutant("grid-strict-check", "numerics.py",
           '[Check("least_slack", slack, ">=", 0)]', '[Check("least_slack", slack, ">=", 1)]',
           (N + "test_inequalities_hold", N + "test_inequality_checks_match_the_fraction_oracle")),
    # harness: the exact threshold of bias-tail and the interior gap of subspace-membership
    Mutant("bias-tail-strict-threshold", "harness.py",
           "if r <= -power]", "if r < -power]",
           (H + "TestBiasTail::test_hits_match_one_sample_at_a_time",)),
    Mutant("bias-tail-d3-power-sign", "harness.py",
           "b ** q >= Fraction(2) ** p", "b ** q >= Fraction(2) ** -p",
           (H + "TestBiasTail::test_hits_match_one_sample_at_a_time",)),
    Mutant("subspace-gap-at-ends", "harness.py",
           "if 0 < u < ambient:", "if 0 <= u <= ambient:",
           (H + "TestSubspaceMembership::test_min_gap_skips_the_ends",)),
    # harness: the exact means of expected-bias and moment-identity
    Mutant("expected-bias-half-count", "harness.py",
           "for x, c in _sum_census(d, k, t).items()) / (1 << nbits)",
           "for x, c in _sum_census(d, k, t).items()) / (1 << nbits - 1)",
           (H + "TestExpectedBias::test_exhaustive_closed_form",)),
    Mutant("moment-mean-half-count", "harness.py",
           "for x in range(1 << cells)) / (1 << cells)",
           "for x in range(1 << cells)) / (2 << cells)",
           (H + "TestMomentIdentity::test_222_is_29_128",)),
    # bias.DyadicRational.from_ratio and report.fmt_dyadic: the range of exact values
    Mutant("from-ratio-negative-allowed", "bias.py",
           "        if numerator < 0:\n            raise", "        if False:\n            raise",
           (B + "TestDyadicRational::test_from_ratio_matches_halving_loop",
            B + "TestDyadicRational::test_reduction_and_str")),
    Mutant("from-ratio-zero-exponent-checked", "bias.py",
           "if numerator and exponent < 0:", "if exponent < 0:",
           (B + "TestDyadicRational::test_from_ratio_matches_halving_loop",)),
    Mutant("printer-any-denominator", "report.py",
           "if n < 0 or den & (den - 1):", "if n < 0:",
           (R + "test_refuses_what_is_no_nonnegative_dyadic",
            R + "test_a_non_dyadic_value_in_the_cli_is_an_invariant_fault")),
    Mutant("printer-any-sign", "report.py",
           "if n < 0 or den & (den - 1):", "if den & (den - 1):",
           (R + "test_refuses_what_is_no_nonnegative_dyadic",
            B + "TestDyadicRational::test_arithmetic")),
    # prng.Prng.draws and Prng.planes: the two stream layouts
    Mutant("draws-mask-off-by-one", "prng.py",
           "top = (1 << (n & 7)) - 1", "top = (2 << (n & 7)) - 1",
           (P + "test_words_block_is_consecutive_bits_draws",
            P + "test_seeded_streams_match_their_digest")),
    Mutant("draws-record-stride", "prng.py",
           "for i in range(0, len(block), step)]", "for i in range(0, len(block), cut)]",
           (P + "test_words_block_is_consecutive_bits_draws",
            T + "test_random_rank_decomp_is_the_per_vector_draw")),
    Mutant("draws-count-unchecked", "prng.py",
           "if n < 1 or count < 0:", "if n < 1:",
           (P + "test_draws_rejects_bad_sizes",)),
    Mutant("planes-group-stride", "prng.py",
           "block[j::nplanes]", "block[j::nplanes + 1]",
           (P + "test_planes_are_word_groups", P + "test_planes_in_two_draws_are_the_lanes_of_one",
            L + "test_sampled_rank_histogram_does_not_depend_on_the_budget")),
    Mutant("planes-unmasked", "prng.py",
           '.tobytes(), "little") & mask', '.tobytes(), "little")',
           (P + "test_planes_are_word_groups",)),
    # f2linalg.sampled_rank_histogram: the chunk's byte model
    Mutant("sampled-model-no-array-copy", "f2linalg.py",
           "return words_bytes(nwords) + 8 * nwords", "return words_bytes(nwords)",
           (L + "test_sampled_rank_histogram_takes_the_widest_chunk_its_model_admits",)),
    Mutant("sampled-model-no-mixing", "f2linalg.py",
           "return words_bytes(nwords) + 8 * nwords", "return 16 * nwords",
           (L + "test_sampled_rank_histogram_takes_the_widest_chunk_its_model_admits",
            G + "test_sampled_rank_peak_within_4_kib")),
    Mutant("sampled-model-no-kernel-ints", "f2linalg.py",
           "nbits + _kernel_ints(ncols)", "nbits",
           (L + "test_sampled_rank_histogram_takes_the_widest_chunk_its_model_admits",)),
    # prng.Prng.words and Prng.planes: sizes checked before the counter moves
    Mutant("words-negative-unchecked", "prng.py",
           "        if n < 0:\n            raise ValueError(f\"words needs",
           "        if False:\n            raise ValueError(f\"words needs",
           (P + "test_refused_sizes_leave_the_stream_where_it_was",)),
    Mutant("planes-lanes-unchecked", "prng.py",
           "if nplanes < 0 or nlanes < 0:", "if nplanes < 0:",
           (P + "test_refused_sizes_leave_the_stream_where_it_was",)),
    # f2linalg._span_walk and _split_walk: the span walk over worker processes
    Mutant("walk-range-off-by-one", "f2linalg.py",
           "chunk_histograms(0, bounds[1])", "chunk_histograms(0, bounds[1] + 1)",
           (L + "test_split_walk_matches_one_process",)),
    Mutant("walk-base-from-lo", "f2linalg.py",
           "gray = lo ^ (lo >> 1)", "gray = lo",
           (L + "test_split_walk_matches_one_process",)),
    Mutant("walk-drops-last-worker", "f2linalg.py",
           "for i, code in enumerate(codes, 1):", "for i, code in enumerate(codes[:-1], 1):",
           (L + "test_split_walk_matches_one_process", L + "test_split_walk_divides_the_budget")),
    Mutant("walk-worker-adds-into-row-below", "f2linalg.py",
           "table[i * nbins:(i + 1) * nbins], parent)",
           "table[(i - 1) * nbins:i * nbins], parent)",
           (L + "test_split_walk_matches_one_process",)),
    Mutant("walk-ignores-worker-status", "f2linalg.py",
           '        if code:\n            raise InvariantError(f"walk',
           '        if False:\n            raise InvariantError(f"walk',
           (L + "test_a_failed_walk_leaves_no_child",)),
    Mutant("walk-start-ignores-gray", "f2linalg.py",
           "            if (gray >> j) & 1:\n                planes = step(planes, high[j])",
           "            if False:\n                planes = step(planes, high[j])",
           (L + "test_split_walk_matches_one_process",)),
    Mutant("walk-budget-undivided", "f2linalg.py",
           "nlanes = chunk(budget // workers)[0]", "nlanes = chunk(budget)[0]",
           (L + "test_split_walk_divides_the_budget",)),
    Mutant("walk-one-chunk-a-worker", "f2linalg.py",
           "least: int = 2", "least: int = 1",
           (L + "test_walk_workers",)),
    Mutant("walk-worker-splits-again", "f2linalg.py",
           "if _in_walk_worker or threading", "if threading",
           (L + "test_walk_workers",)),
    Mutant("walk-shares-unbounded", "f2linalg.py",
           "workers = min(workers, budget // (chunk(0)[1] + fixed))", "pass",
           (L + "test_split_walk_runs_no_more_workers_than_shares",)),
    # harness.run_all: the row pool of `verify all`
    Mutant("pool-completion-order", "harness.py",
           "done[i] or rows[i]() for i in range(len(rows))",
           "done[i] or rows[i]() for i in done",
           (H + "TestSuite::test_run_all_shares_its_rows_in_row_order",
            H + "TestSuite::test_run_all_raises_as_a_loop_and_leaves_no_child")),
    Mutant("pool-parent-takes-no-rows", "harness.py",
           "done = take()\n", "done = {}\n",
           (H + "TestSuite::test_run_all_shares_its_rows_in_row_order",)),
    Mutant("pool-split-flag-kept", "harness.py",
           "        f2linalg._in_walk_worker = split\n", "        pass\n",
           (H + "TestSuite::test_run_all_shares_its_rows_in_row_order",
            H + "TestSuite::test_run_all_raises_as_a_loop_and_leaves_no_child")),
    Mutant("pool-first-raise-seen", "harness.py",
           "                done[i] = None\n                break\n", "                raise\n",
           (H + "TestSuite::test_run_all_raises_as_a_loop_and_leaves_no_child",)),
    Mutant("pool-ignores-worker-status", "harness.py",
           '        if code:\n            raise InvariantError(f"row',
           '        if False:\n            raise InvariantError(f"row',
           (H + "TestSuite::test_run_all_raises_as_a_loop_and_leaves_no_child",)),
    Mutant("pool-parent-kills-no-worker", "harness.py",
           "for pid, _ in children:\n            os.kill(pid, signal.SIGKILL)",
           "for pid, _ in children:\n            pass",
           (H + "TestSuite::test_run_all_raises_as_a_loop_and_leaves_no_child",)),
    Mutant("pool-walks-split-inside", "harness.py",
           "            f2linalg._in_walk_worker = True\n", "            pass\n",
           ("tests/test_acceptance.py::test_full_profile_does_not_depend_on_the_cpu_count",)),
    # f2linalg._chunk_lanes: the chunk rule of the span walk and the sampled kernel
    Mutant("chunk-below-64-lanes", "f2linalg.py",
           "if need <= budget or nlanes <= least:", "if need <= budget or nlanes <= 1:",
           (G + "test_every_guard_names_its_unit",)),
    Mutant("chunk-ints-without-overhead", "f2linalg.py",
           "need = lane_ints * (int_bytes(nlanes) + 32)", "need = lane_ints * int_bytes(nlanes)",
           (G + "test_every_guard_names_its_unit",
            G + "test_span_walk_peaks_within_small_budgets")),
    Mutant("span-model-no-fixed-bytes", "f2linalg.py",
           "fixed = 3072 + 144 * nrows", "fixed = 0",
           (G + "test_span_walk_peaks_within_small_budgets",
            G + "test_every_guard_names_its_unit")),
    Mutant("span-model-no-kernel-ints", "f2linalg.py",
           "_chunk_lanes(2 * size + kernel_ints,", "_chunk_lanes(2 * size,",
           (G + "test_span_walk_peaks_within_small_budgets",)),
    Mutant("walk-chunk-below-inner-lanes", "f2linalg.py",
           "stored, max(64, 1 << inner))", "stored, 64)",
           (B + "test_bias_exact_walk_matches_bruteforce",)),
    Mutant("walk-admits-wide-inner-blocks", "f2linalg.py",
           "1 << inner, 1 << LANE_CHUNK_BITS,", "1 << inner, 2 << LANE_CHUNK_BITS,",
           (B + "test_bias_exact_contracts_inner_lanes_past_the_chunk",
            G + "test_every_guard_names_its_unit")),
    Mutant("walk-model-no-delta-sets", "f2linalg.py",
           "return high * (size * (int_bytes(nlanes) + 32) + 72 * nrows) if inner else 0",
           "return 0",
           (G + "test_span_walk_peaks_within_small_budgets",)),
    # f2linalg._kernel_ints: the rank kernel's ints in every chunk model
    Mutant("kernel-triangle-drops-last-column", "f2linalg.py",
           "return ncols * (ncols - 1) // 2 + ncols + 16",
           "return (ncols - 1) * (ncols - 2) // 2 + ncols + 16",
           (G + "test_every_guard_names_its_unit",)),
    # harness._census_work: the census guards' unit
    Mutant("census-one-round-short", "harness.py",
           "    for _ in range(rounds):\n        if work > 1 << CENSUS_STEPS_BITS:",
           "    for _ in range(rounds - 1):\n        if work > 1 << CENSUS_STEPS_BITS:",
           (H + "test_census_work_covers_every_census_step",)),
    Mutant("census-vanish-every-round", "harness.py",
           "rounds = t - vanish", "rounds = t",
           (H + "test_census_work_covers_every_census_step",)),
    Mutant("census-vanish-no-lookups", "harness.py",
           "work = tuples + (rank_ones if vanish else 0)", "work = tuples",
           (H + "test_census_work_covers_every_census_step",)),
    Mutant("census-at-t-0", "harness.py",
           "    sums = {0: 1}\n    if t == 0:\n        return sums\n", "    sums = {0: 1}\n",
           (H + "test_vanish_count_builds_one_census_at_t_1",
            H + "test_census_work_covers_every_census_step")),
    Mutant("census-no-zero-rank-one", "harness.py",
           "rank_ones = ((1 << k) - 1) ** d + 1", "rank_ones = ((1 << k) - 1) ** d",
           (H + "test_census_work_covers_every_census_step",)),
    Mutant("census-held-uncapped", "harness.py",
           "held = min(held * rank_ones, 1 << k ** d)", "held = held * rank_ones",
           (H + "test_census_work_covers_every_census_step",
            H + "test_capacity_guards_report_counts")),
    # errors.check_sizes and the named size errors of the harness
    Mutant("sizes-least-allowed-below", "errors.py",
           "if value < least:", "if value < least - 1:",
           (C + "test_sizes_below_one_exit_2", T + "test_random_rank_decomp_rejects_bad_sizes")),
    Mutant("sum-zero-k-unchecked", "harness.py",
           'check_sizes("sum-zero", ("d", d, 2), ("k", k, 1), ("t", t, 0))',
           'check_sizes("sum-zero", ("d", d, 2), ("t", t, 0))',
           (C + "test_sizes_below_one_exit_2",)),
    Mutant("linear-preimage-k-zero-allowed", "harness.py",
           'check_sizes("linear-preimage", ("k", k, 1))',
           'check_sizes("linear-preimage", ("k", k, 0))',
           (C + "test_sizes_below_one_exit_2",)),
    Mutant("expected-bias-t-unchecked", "harness.py",
           'check_sizes("expected-bias", ("d", d, 2), ("k", k, 1), ("t", t, 0))',
           'check_sizes("expected-bias", ("d", d, 2), ("k", k, 1))',
           (C + "test_sizes_below_one_exit_2",)),
    # tensors.random_rank_decomp: its named size errors
    Mutant("random-rank-decomp-negative-t", "tensors.py",
           'check_sizes("random_rank_decomp", ("d", d, 1), ("k", k, 1), ("t", t, 0))',
           'check_sizes("random_rank_decomp", ("d", d, 1), ("k", k, 1), ("t", t, -1))',
           (T + "test_random_rank_decomp_rejects_bad_sizes",)),
    # rank.corank_bound and harness.verify_corank_margin
    Mutant("corank-bound-no-square", "rank.py",
           "range(1, s + 1)) ** 2", "range(1, s + 1))",
           (K + "test_corank_bound_values_and_slack",)),
    # numerics.Check and make_report: the one verdict path
    Mutant("corank-margin-strict", "numerics.py",
           '"<=": operator.le', '"<=": operator.lt',
           (H + "test_corank_margin_asserts_the_corrected_bound",)),
    Mutant("verdict-ge-strict", "numerics.py",
           '">=": operator.ge', '">=": operator.gt',
           (N + "test_inequalities_hold", H + "test_every_check_holds_and_fails_past_its_bound")),
    Mutant("verdict-eq-as-le", "numerics.py",
           '"==": operator.eq', '"==": operator.le',
           (H + "test_every_check_holds_and_fails_past_its_bound",)),
    Mutant("verdict-any-check", "numerics.py",
           "holds = all(c.holds() for c in checks)", "holds = any(c.holds() for c in checks)",
           (H + "test_corank_margin_asserts_the_corrected_bound",
            H + "test_a_value_past_its_bound_fails")),
    Mutant("verdict-report-only-hides-failure", "numerics.py",
           "REPORT_ONLY if report_only and holds else holds",
           "REPORT_ONLY if report_only else holds",
           (H + "test_a_value_past_its_bound_fails",)),
    Mutant("verdict-power-skipped", "numerics.py",
           "        if self.power is None:\n", "        if True:\n",
           (H + "TestSumZero::test_proof_bound_is_exact_at_its_value",
            H + "test_every_check_holds_and_fails_past_its_bound")),
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
