"""Mutation ledger: each entry breaks the program in one place and names the
tests that must then fail.

    python3 scripts/mutations.py

For each entry the files that git tracks in this checkout, plus those it
would track (not ignored), are copied into a fresh temporary directory.
The entry's old snippet, which must occur exactly once in its file, is
replaced there, and only the entry's tests are run, one run at a time:
python -m pytest -q -p no:cacheprovider --hypothesis-seed=0
--hypothesis-profile=ledger <ids>.  The ledger profile (tests/conftest.py)
skips hypothesis's shrink phase, which only makes a failure smaller.  No
.hypothesis or .pytest_cache state of the checkout reaches a run.  Each
test is reported as failed (an error counts), passed, not collected (an
id that the unmutated copy does not collect) or no result (a run that
reports none for it, such as one stopped by a collection error).  An
entry is killed when every one of its tests fails; a snippet that does not
match exactly once is stale.  The exit status is 1 if any entry survived,
is stale or timed out.

Each entry's source is the CHANGES.md record (by line) that describes the
check it repeats or the fix it reverts.  Where the code has moved since
that record, the entry breaks the same decision where it lives now.
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
# a run that outlives this is reported as timed out: its entry survives
TIMEOUT_S = 900

KERNEL = "tests/test_montecarlo.py::TestKernelEquivalence::"
MC = "tests/test_montecarlo.py::"
RNG = "tests/test_rng.py::"
URN = "tests/test_urn.py::"
CLI = "tests/test_cli.py::"
EXACT = "tests/test_exact_law.py::test_final_x_follows_the_exact_law"
CRITERION = "tests/test_acceptance.py::test_criterion"
SRC_MC = "src/urnsa/montecarlo.py"


@dataclass(frozen=True)
class Mutation:
    name: str
    source: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


LEDGER = [
    Mutation(
        "urn block filled from one draw early",
        "CHANGES.md:6", SRC_MC,
        "keys, s + 1 + r0, slab,",
        "keys, s + r0, slab,",
        (
            KERNEL + "test_urn_final_states_match_scalar[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar[integer-a-below-c]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_fractional_urns_match_scalar_across_blocks",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[power-law]",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[toy]",
            KERNEL + "test_chunk_wider_than_the_block_budget",
            KERNEL + "test_urn_checkpoints_match_scalar",
            KERNEL + "test_replayed_trace_in_second_chunk_matches_scalar",
        ),
    ),
    Mutation(
        "synthetic block filled from one draw late",
        "CHANGES.md:6", SRC_MC,
        "rng.step_block(keys, j, steps,",
        "rng.step_block(keys, j + 1, steps,",
        (
            KERNEL + "test_synthetic_matches_scalar",
            KERNEL + "test_synthetic_matches_scalar_across_blocks",
            RNG + "test_synthetic_kernel_steps_down_from_one_half",
            RNG + "test_special_bit_patterns_raise_nothing",
        ),
    ),
    Mutation(
        "b and d swapped in the black count's k term",
        "CHANGES.md:6", "src/urnsa/urn.py",
        "black = drawn[1] + (m.b - m.d) * k",
        "black = drawn[1] + (m.d - m.b) * k",
        (
            CRITERION + "[exact_invariants]",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[toy]",
            EXACT + "[fractional]",
            EXACT + "[power-law]",
            MC + "TestRateCheck::test_friedman_closed_form",
            KERNEL + "test_urn_final_states_match_scalar[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar[integer-a-below-c]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_fractional_urns_match_scalar_across_blocks",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            KERNEL + "test_resolve_flips_the_next_decision[0.4-2.0-2]",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[power-law]",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[toy]",
            KERNEL + "test_chunk_wider_than_the_block_budget",
            KERNEL + "test_padded_bounds_hold_every_state_of_a_block",
            KERNEL + "test_urn_checkpoints_match_scalar",
            KERNEL + "test_replayed_trace_in_second_chunk_matches_scalar",
            "tests/test_sa.py::TestSAConstants::test_certifies_a_simulated_path",
            URN + "TestUrnState::test_origin",
            URN + "TestUrnState::test_step_white_and_black_branches",
            URN + "TestBookkeeping::test_counts_follow_draw_tally",
            URN + "TestBookkeeping::test_gamma_deviation_identity",
            URN + "TestNoise::test_martingale_identities",
            URN + "TestScalarPath::test_path_and_states_align",
            URN + "TestScalarPath::test_fractional_states_follow_the_count_expression",
        ),
    ),
    Mutation(
        "replay keyed from path 0",
        "CHANGES.md:11", SRC_MC,
        "rng.path_keys(config.master_seed, indices.start, len(indices))",
        "rng.path_keys(config.master_seed, 0, len(indices))",
        (
            KERNEL + "test_urn_checkpoints_match_scalar",
            KERNEL + "test_replayed_trace_in_second_chunk_matches_scalar",
            KERNEL + "test_replay_record_columns_are_path_traces",
        ),
    ),
    Mutation(
        "count guard >= relaxed to >",
        "CHANGES.md:11", SRC_MC,
        "self.horizon * max_row >= COUNT_LIMIT",
        "self.horizon * max_row > COUNT_LIMIT",
        (
            MC + "TestEnsembleConfig::test_count_guard_boundary",
        ),
    ),
    Mutation(
        "scaled values not centered",
        "CHANGES.md:11", SRC_MC,
        "return weight(n, sx, sy) * (x - src.center)",
        "return weight(n, sx, sy) * x",
        (
            CRITERION + "[determinism]",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            MC + "TestEnsembleConfig::test_forced_center_defaults_to_target",
            MC + "TestEnsembleConfig::test_forced_center_alone_wins",
            MC + "TestEnsembleConfig::test_forced_run_needs_no_finite_prediction",
            MC + "TestDeterminism::test_summaries_equal_one_call_replay",
            MC + "TestScaledValues::test_sqrt_n_weighting",
            MC + "TestScaledValues::test_critical_log_weighting",
            MC + "TestScaledValues::test_power_law_weighting",
            MC + "TestScaledValues::test_zero_horizon_run",
        ),
    ),
    Mutation(
        "rate envelope 1/n halved",
        "CHANGES.md:11", SRC_MC,
        "envelope = abs(float(x) - pred.p) + 1.0 / n",
        "envelope = abs(float(x) - pred.p) + 0.5 / n",
        (
            MC + "TestRateCheck::test_friedman_closed_form",
        ),
    ),
    Mutation(
        "chunks after the first keyed from path 0",
        "CHANGES.md:21", SRC_MC,
        "src.kernel(rng.path_keys(config.master_seed, start, count))",
        "src.kernel(rng.path_keys(config.master_seed, 0, count))",
        (
            CRITERION + "[determinism]",
            CLI + "TestSimulate::test_thread_determinism_files",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            KERNEL + "test_replayed_trace_in_second_chunk_matches_scalar",
            KERNEL + "test_replay_record_columns_are_path_traces",
            MC + "TestDeterminism::test_thread_count_is_invisible_urn",
            MC + "TestDeterminism::test_thread_count_is_invisible_synthetic",
            MC + "TestDeterminism::test_split_chunks_are_invisible",
            MC + "TestDeterminism::test_summaries_equal_one_call_replay",
            MC + "TestUsableCores::test_wide_ensemble_runs_one_chunk_per_core[2-2]",
            MC + "TestUsableCores::test_wide_ensemble_runs_one_chunk_per_core[8-8]",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
            MC + "TestForkedWorkers::test_worker_failure_raises",
        ),
    ),
    Mutation(
        "chunks after the first one checkpoint late",
        "CHANGES.md:21", SRC_MC,
        "        src.kernel(rng.path_keys(config.master_seed, start, count))\n",
        "        itertools.chain(\n"
        "            [np.zeros(count)] * (start > 0),\n"
        "            src.kernel(rng.path_keys(config.master_seed, start, count)),\n"
        "        )\n",
        (
            CRITERION + "[determinism]",
            CLI + "TestSimulate::test_thread_determinism_files",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[toy]",
            EXACT + "[fractional]",
            EXACT + "[power-law]",
            KERNEL + "test_replayed_trace_in_second_chunk_matches_scalar",
            KERNEL + "test_replay_record_columns_are_path_traces",
            MC + "TestDeterminism::test_thread_count_is_invisible_urn",
            MC + "TestDeterminism::test_thread_count_is_invisible_synthetic",
            MC + "TestDeterminism::test_split_chunks_are_invisible",
            MC + "TestDeterminism::test_summaries_equal_one_call_replay",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
        ),
    ),
    Mutation(
        "workers not reaped on the way out",
        "CHANGES.md:35", SRC_MC,
        "        for pid in running:\n            os.waitpid(pid, 0)\n",
        "",
        (
            MC + "TestUsableCores::test_wide_ensemble_runs_one_chunk_per_core[2-2]",
            MC + "TestUsableCores::test_wide_ensemble_runs_one_chunk_per_core[8-8]",
            MC + "TestForkedWorkers::test_worker_failure_raises",
            MC + "TestForkedWorkers::test_caller_failure_propagates",
            MC + "TestForkedWorkers::test_workers_reaped_after_a_run",
        ),
    ),
    Mutation(
        "workers not killed on the way out",
        "CHANGES.md:35", SRC_MC,
        "os.kill(pid, signal.SIGKILL)",
        "pass",
        (
            MC + "TestForkedWorkers::test_worker_failure_raises",
            MC + "TestForkedWorkers::test_caller_failure_propagates",
        ),
    ),
    Mutation(
        "a column's ambiguous draws ranked in reverse row order",
        "CHANGES.md:64", SRC_MC,
        "order = np.argsort(col.astype(np.min_scalar_type(size)), kind=\"stable\")",
        "order = col.size - 1 - np.argsort(\n"
        "        col[::-1].astype(np.min_scalar_type(size)), kind=\"stable\"\n"
        "    )",
        (
            CRITERION + "[determinism]",
            CLI + "TestSimulate::test_thread_determinism_files",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[power-law]",
            KERNEL + "test_urn_final_states_match_scalar[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar[integer-a-below-c]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_fractional_urns_match_scalar_across_blocks",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            KERNEL + "test_resolve_matches_in_order_decisions",
            KERNEL + "test_resolve_flips_the_next_decision[0.4-2.0-2]",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[power-law]",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[toy]",
            MC + "TestDeterminism::test_thread_count_is_invisible_urn",
            MC + "TestDeterminism::test_split_chunks_are_invisible",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
        ),
    ),
    Mutation(
        "doubling load adds c draw strides, not m",
        "CHANGES.md:64", "src/urnsa/rng.py",
        "np.uint64((m * DRAW_STRIDE) & MASK64)",
        "np.uint64((c * DRAW_STRIDE) & MASK64)",
        (
            CRITERION + "[determinism]",
            CLI + "TestSimulate::test_thread_determinism_files",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[toy]",
            EXACT + "[fractional]",
            EXACT + "[power-law]",
            KERNEL + "test_urn_final_states_match_scalar[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar[integer-a-below-c]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_fractional_urns_match_scalar_across_blocks",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[power-law]",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[toy]",
            KERNEL + "test_urn_checkpoints_match_scalar",
            KERNEL + "test_replayed_trace_in_second_chunk_matches_scalar",
            KERNEL + "test_replay_record_columns_are_path_traces",
            KERNEL + "test_synthetic_matches_scalar",
            KERNEL + "test_synthetic_matches_scalar_across_blocks",
            MC + "TestDeterminism::test_thread_count_is_invisible_urn",
            MC + "TestDeterminism::test_split_chunks_are_invisible",
            MC + "TestDeterminism::test_summaries_equal_one_call_replay",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
            MC + "TestSyntheticMoments::test_ensemble_matches_exact_moments",
            MC + "TestInspectPath::test_rows_match_ensemble_path_zero",
            RNG + "test_sign_block_finishes_to_scalar_draws_bitwise",
            RNG + "test_sign_block_chunking_never_changes_words",
            RNG + "test_sign_block_out_wraps_keys_and_large_draw_indices",
            RNG + "test_sign_block_matches_scalar_draws_at_the_boundary",
            RNG + "test_sign_block_matches_scalar_draws_on_random_keys",
            RNG + "test_sign_block_words_finish_to_scalar_draws",
            RNG + "test_fills_match_scalar_draws_across_doubling[3]",
            RNG + "test_fills_match_scalar_draws_across_doubling[31]",
            RNG + "test_fills_match_scalar_draws_across_doubling[33]",
            RNG + "test_fills_match_scalar_draws_across_doubling[255]",
        ),
    ),
    Mutation(
        "block rows rule floor lowered from 4 to 1",
        "CHANGES.md:70", SRC_MC,
        "max(4, _URN_ROW_PATHS // paths)",
        "max(1, _URN_ROW_PATHS // paths)",
        (
            KERNEL + "test_block_rows_follow_chunk_width[10000-60-10]",
            KERNEL + "test_block_rows_grow_as_sqrt_n[500-4095-128]",
            KERNEL + "test_block_rows_grow_as_sqrt_n[1000-1023-64]",
            KERNEL + "test_block_rows_grow_as_sqrt_n[1000-65536-195]",
            KERNEL + "test_block_rows_grow_as_sqrt_n[10000-0-2]",
            KERNEL + "test_block_rows_grow_as_sqrt_n[10000-99999-255]",
            KERNEL + "test_chunk_wider_than_the_block_budget",
        ),
    ),
    Mutation(
        "step rows keep bit 0 of each word",
        "CHANGES.md:70", "src/urnsa/rng.py",
        "bits &= _SIGN_BIT",
        "bits &= _SIGN_BIT | np.uint64(1)",
        (
            KERNEL + "test_synthetic_matches_scalar",
            KERNEL + "test_synthetic_matches_scalar_across_blocks",
            RNG + "test_fills_match_scalar_draws_across_doubling[1]",
            RNG + "test_fills_match_scalar_draws_across_doubling[2]",
            RNG + "test_fills_match_scalar_draws_across_doubling[3]",
            RNG + "test_fills_match_scalar_draws_across_doubling[31]",
            RNG + "test_fills_match_scalar_draws_across_doubling[32]",
            RNG + "test_fills_match_scalar_draws_across_doubling[33]",
            RNG + "test_fills_match_scalar_draws_across_doubling[64]",
            RNG + "test_fills_match_scalar_draws_across_doubling[255]",
            RNG + "test_synthetic_kernel_steps_down_from_one_half",
            RNG + "test_special_bit_patterns_raise_nothing",
            RNG + "test_step_block_matches_np_copysign",
        ),
    ),
    Mutation(
        "bound pad of 0",
        "CHANGES.md:75", SRC_MC,
        "return pad if pad <= 2.0**-8 else 1.0",
        "return 0.0",
        (
            KERNEL + "test_padded_bounds_hold_every_state_of_a_block",
        ),
    ),
    Mutation(
        "upper bound left unclamped",
        "CHANGES.md:75", SRC_MC,
        "        np.fmin(hi, 1.0, out=hi)\n",
        "",
        (
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
        ),
    ),
    Mutation(
        "_resolve stops after one pass",
        "CHANGES.md:80", SRC_MC,
        "if (found == above).all():",
        "if True:",
        (
            CRITERION + "[determinism]",
            CLI + "TestSimulate::test_thread_determinism_files",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[power-law]",
            KERNEL + "test_urn_final_states_match_scalar[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar[integer-a-below-c]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_fractional_urns_match_scalar_across_blocks",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            KERNEL + "test_resolve_matches_in_order_decisions",
            KERNEL + "test_resolve_flips_the_next_decision[0.4-2.0-2]",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[power-law]",
            KERNEL + "test_urn_checkpoints_match_scalar",
            MC + "TestDeterminism::test_thread_count_is_invisible_urn",
            MC + "TestDeterminism::test_split_chunks_are_invisible",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
        ),
    ),
    Mutation(
        "ambiguous rows without their slab offset",
        "CHANGES.md:88", SRC_MC,
        "return row + r0, col, base, u",
        "return row, col, base, u",
        (
            CRITERION + "[determinism]",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[toy]",
            EXACT + "[fractional]",
            EXACT + "[power-law]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
        ),
    ),
    Mutation(
        "sure whites of a block's slabs before its last dropped",
        "CHANGES.md:88", SRC_MC,
        "k += whites[-1, :size]",
        "k += whites[-1, :size] if r0 + slab == rows else 0",
        (
            CRITERION + "[determinism]",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[toy]",
            EXACT + "[fractional]",
            EXACT + "[power-law]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            KERNEL + "test_chunk_wider_than_the_block_budget",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
        ),
    ),
    Mutation(
        "row adds skip a slab's last row",
        "CHANGES.md:88", SRC_MC,
        "zip(lanes, lanes[1:rows])",
        "zip(lanes, lanes[1 : rows - 1])",
        (
            CRITERION + "[determinism]",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[toy]",
            EXACT + "[fractional]",
            EXACT + "[power-law]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_fractional_urns_match_scalar_across_blocks",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
        ),
    ),
    Mutation(
        "batch not closed at the end of a block of several slabs",
        "CHANGES.md:88", SRC_MC,
        "end = r0 + slab == rows",
        "end = slab == rows",
        (
            CRITERION + "[determinism]",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[toy]",
            EXACT + "[fractional]",
            EXACT + "[power-law]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar_across_blocks[integer-a-below-c]",
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            KERNEL + "test_tiles_match_scalar",
            KERNEL + "test_chunk_wider_than_the_block_budget",
            MC + "TestUsableCores::test_no_fork_runs_one_chunk",
        ),
    ),
    Mutation(
        "accumulate leaves a slab's last row stale",
        "CHANGES.md:88", SRC_MC,
        "        return np.add.accumulate(lanes, axis=0, out=counted[:rows]).view(np.uint8)\n",
        "        np.add.accumulate(lanes[:-1], axis=0, out=counted[: rows - 1])\n"
        "        return counted[:rows].view(np.uint8)\n",
        (
            CLI + "TestSimulate::test_stdout_json_default",
            CLI + "TestSimulate::test_stdout_csv",
            CLI + "TestSimulate::test_out_writes_both_files",
            CLI + "TestSimulate::test_thread_determinism_files",
            CLI + "TestPath::test_out_file_equals_stdout",
            KERNEL + "test_urn_final_states_match_scalar[integer-unbalanced]",
            KERNEL + "test_urn_final_states_match_scalar[integer-balanced]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-matrix]",
            KERNEL + "test_urn_final_states_match_scalar[fractional-counts]",
            KERNEL + "test_urn_final_states_match_scalar[integer-a-below-c]",
            KERNEL + "test_tiles_match_scalar",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[power-law]",
            KERNEL + "test_integer_urns_match_scalar_in_full_blocks[toy]",
            KERNEL + "test_urn_checkpoints_match_scalar",
            KERNEL + "test_replayed_trace_in_second_chunk_matches_scalar",
            KERNEL + "test_replay_record_columns_are_path_traces",
            MC + "TestDeterminism::test_thread_count_is_invisible_urn",
            MC + "TestDeterminism::test_split_chunks_are_invisible",
            MC + "TestDeterminism::test_summaries_equal_one_call_replay",
            MC + "TestDeterminism::test_rerun_is_identical",
            MC + "TestInspectPath::test_rows_match_ensemble_path_zero",
            MC + "TestInspectPath::test_rows_do_not_depend_on_the_scale",
        ),
    ),
    Mutation(
        "above threshold without its low 33 bits",
        "CHANGES.md:99", "src/urnsa/rng.py",
        "    above |= np.uint64((1 << 33) - 1)\n",
        "",
        (
            KERNEL + "test_integer_urns_match_scalar_across_blocks",
            RNG + "test_word_thresholds_bound_the_uniforms",
        ),
    ),
    Mutation(
        "below threshold without its 2^31 - 1 cap",
        "CHANGES.md:99", "src/urnsa/rng.py",
        "    np.minimum(lo, _TOP_BITS - 1, out=lo)\n",
        "",
        (
            RNG + "test_word_thresholds_bound_the_uniforms",
        ),
    ),
    Mutation(
        "a fill writes every row of out",
        "CHANGES.md:6", "src/urnsa/rng.py",
        "        out = out[:count]\n",
        "",
        (
            CRITERION + "[determinism]",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            KERNEL + "test_synthetic_matches_scalar_across_blocks",
            MC + "TestMemory::test_synthetic_run_holds_its_path_bytes",
            MC + "TestSyntheticMoments::test_ensemble_matches_exact_moments",
            RNG + "test_sign_block_out_fills_the_leading_rows_only",
            RNG + "test_fills_match_scalar_draws_across_doubling[1]",
            RNG + "test_fills_match_scalar_draws_across_doubling[2]",
            RNG + "test_fills_match_scalar_draws_across_doubling[3]",
            RNG + "test_fills_match_scalar_draws_across_doubling[31]",
            RNG + "test_fills_match_scalar_draws_across_doubling[32]",
            RNG + "test_fills_match_scalar_draws_across_doubling[33]",
            RNG + "test_fills_match_scalar_draws_across_doubling[64]",
            RNG + "test_fills_match_scalar_draws_across_doubling[255]",
            RNG + "test_sign_block_out_reuse_matches_allocating_form",
            RNG + "test_sign_block_out_refills_match_allocating_form",
        ),
    ),
    Mutation(
        "a forced center given alone ignored",
        "CHANGES.md:105", SRC_MC,
        "    if forced_center is not None:\n",
        "    if forced_center is not None and forced_scaling is not None:\n",
        (
            MC + "TestEnsembleConfig::test_forced_center_alone_wins",
        ),
    ),
    Mutation(
        "forced scaling of any length accepted",
        "CHANGES.md:102", SRC_MC,
        "            if len(self.forced_scaling) != 2:\n",
        "            if False:\n",
        (
            MC + "TestEnsembleConfig::test_forced_scaling_needs_two_exponents[none]",
            MC + "TestEnsembleConfig::test_forced_scaling_needs_two_exponents[one]",
            MC + "TestEnsembleConfig::test_forced_scaling_needs_two_exponents[three]",
        ),
    ),
    Mutation(
        "infinite counts blamed on the horizon",
        "CHANGES.md:103", SRC_MC,
        "            if not (math.isfinite(self.w0) and math.isfinite(self.b0)):\n",
        "            if False:\n",
        (
            MC + "TestEnsembleConfig::test_non_finite_numbers_refused[w0-inf]",
            MC + "TestEnsembleConfig::test_non_finite_numbers_refused[b0-inf]",
        ),
    ),
    Mutation(
        "a worker numbering its rows from 0",
        "CHANGES.md:142", SRC_MC,
        "enumerate(values.tolist(), start)",
        "enumerate(values.tolist())",
        (
            MC + "TestDeterminism::test_thread_count_is_invisible_urn",
            MC + "TestDeterminism::test_split_chunks_are_invisible",
            MC + "TestDeterminism::test_csv_equals_one_process_formula[urn-2]",
            MC + "TestDeterminism::test_csv_equals_one_process_formula[urn-3]",
            MC + "TestDeterminism::test_csv_equals_one_process_formula[synthetic-2]",
            MC + "TestDeterminism::test_csv_equals_one_process_formula[synthetic-3]",
        ),
    ),
    Mutation(
        "the pipe capacity left at its default",
        "CHANGES.md:142", SRC_MC,
        "            fcntl.fcntl(fd, fcntl.F_SETPIPE_SZ, size)\n",
        "            pass\n",
        (
            MC + "TestForkedWorkers::test_worker_runs_ahead",
        ),
    ),
    Mutation(
        "a worker formatting the checkpoint before the last",
        "CHANGES.md:142", SRC_MC,
        "    for _, row in zip(range(checkpoints), rows):\n",
        "    for _, row in zip(range(checkpoints - 1), rows):\n",
        (
            MC + "TestDeterminism::test_csv_equals_one_process_formula[urn-2]",
            MC + "TestDeterminism::test_csv_equals_one_process_formula[urn-3]",
            MC + "TestDeterminism::test_csv_equals_one_process_formula[synthetic-2]",
            MC + "TestDeterminism::test_csv_equals_one_process_formula[synthetic-3]",
            MC + "TestForkedWorkers::test_worker_runs_ahead",
        ),
    ),
    Mutation(
        "white count's k term off by 1% of a",
        "CHANGES.md:105", "src/urnsa/urn.py",
        "white = drawn[0] + (m.a - m.c) * k",
        "white = drawn[0] + (1.01 * m.a - m.c) * k",
        (
            CRITERION + "[exact_invariants]",
            CLI + "TestVerify::test_quick_suite_passes",
            CLI + "TestVerify::test_quick_suite_times_each_criterion",
            EXACT + "[toy]",
            EXACT + "[fractional]",
            EXACT + "[power-law]",
            MC + "TestRateCheck::test_friedman_closed_form",
            URN + "TestUrnState::test_origin",
            URN + "TestUrnState::test_step_white_and_black_branches",
            URN + "TestBookkeeping::test_counts_follow_draw_tally",
            URN + "TestNoise::test_martingale_identities",
            URN + "TestScalarPath::test_fractional_states_follow_the_count_expression",
        ),
    ),
]


def tracked_files() -> list[str]:
    out = subprocess.run(
        ["git", "ls-files", "--cached", "--others", "--exclude-standard", "-z"],
        cwd=ROOT, check=True, capture_output=True, text=True,
    ).stdout
    return [f for f in out.split("\0") if f and (ROOT / f).is_file()]


def copy_tree(files: list[str], dest: Path) -> None:
    for f in files:
        (dest / f).parent.mkdir(parents=True, exist_ok=True)
        shutil.copy2(ROOT / f, dest / f)


def mutate(entry: Mutation, tree: Path) -> bool:
    """Apply entry in tree; False, leaving the file as it was, if its old
    snippet does not occur exactly once."""
    path = tree / entry.file
    text = path.read_text() if path.is_file() else ""
    if text.count(entry.old) != 1:
        return False
    path.write_text(text.replace(entry.old, entry.new))
    return True


def pytest(tree: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", *args],
        cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def collected(tree: Path, files: set[str]) -> set[str]:
    """The test ids that pytest collects from these files in tree."""
    present = sorted(f for f in files if (tree / f).is_file())
    out = pytest(tree, ["-q", "--collect-only", *present]).stdout
    return {line for line in out.splitlines() if "::" in line}


def outcomes(tree: Path, ids: list[str]) -> dict[str, str]:
    """failed or passed for each id, run together in tree."""
    args = ["-q", "-rA", "--hypothesis-seed=0", "--hypothesis-profile=ledger"]
    out = pytest(tree, [*args, *ids]).stdout
    seen = {}
    for line in out.splitlines():
        status, _, rest = line.partition(" ")
        if status in ("PASSED", "FAILED", "ERROR"):
            seen[rest.split(" - ")[0]] = "passed" if status == "PASSED" else "failed"
    return {i: seen.get(i, "no result") for i in ids}


def main() -> int:
    files = tracked_files()
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(files, Path(tmp))
        known = collected(Path(tmp), {t.split("::")[0] for e in LEDGER for t in e.tests})
    verdicts = []
    for entry in LEDGER:
        with tempfile.TemporaryDirectory() as tmp:
            tree = Path(tmp)
            copy_tree(files, tree)
            results = {t: "not collected" for t in entry.tests if t not in known}
            if not mutate(entry, tree):
                verdict = "stale"
            else:
                present = [t for t in entry.tests if t in known]
                try:
                    results.update(outcomes(tree, present) if present else {})
                    failed = all(results[t] == "failed" for t in entry.tests)
                    verdict = "killed" if failed else "survived"
                except subprocess.TimeoutExpired:
                    verdict = "timed out"
        verdicts.append(verdict)
        print(f"{verdict:9} {entry.source:14} {entry.name}", flush=True)
        for t in entry.tests:
            print(f"    {results.get(t, '-'):13} {t}", flush=True)
    counts = {v: verdicts.count(v) for v in dict.fromkeys(verdicts)}
    print(f"{len(LEDGER)} entries: " + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 0 if set(verdicts) == {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main())
