"""Mutants of the package that the test suite must catch, and their runner.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

Each mutant names a file under ``src/dualmod``, an exact snippet of it, a
replacement, and the tests that must fail once the snippet is replaced.
The runner first checks that each chosen mutant's snippet is found exactly
once in its file, and lists every one that is not (:func:`misplaced`).  It
then runs every named test on an unchanged copy of ``src/``, where all must
pass.  Then, for each mutant, it copies ``src/`` to a temporary directory,
applies that one replacement and runs only the mutant's tests there, in a
fresh interpreter.  A mutant is caught when one of its tests fails.  A
misplaced snippet, or a test id that collects nothing, is an error and not
a skip, so a refactor that moves the code must move its mutants too.  Exits
1 unless every mutant is caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/dualmod
    old: str
    new: str
    tests: tuple[str, ...]


SOLVER = "tests/test_solver.py"
CLI = "tests/test_cli.py"
VALUES = "tests/test_solver_values.py"
STRUCTURE = "tests/test_structure.py"

MUTANTS = [
    # the local second-difference scan of verify
    Mutant("verify-skips-adjacent-pairs", "structure.py",
           "for v in range(u + 1, n):", "for v in range(u + 2, n):",
           ("tests/test_verify_local.py",)),
    Mutant("verify-tolerance-one", "structure.py",
           "if tab[s | bu] + tab[s | bv] > tab[s] + tab[s | bu | bv]:",
           "if tab[s | bu] + tab[s | bv] > tab[s] + tab[s | bu | bv] + 1:",
           ("tests/test_verify_local.py",)),
    # structure proven by construction: a rule that claims too much reports a
    # property the scan refutes; one that claims too little refuses a proven
    # instance above the cap
    Mutant("edges-supermodularity-unproven", "kinds.py",
           "supermodular=True,\n            submodular=not any", "supermodular=False,\n            submodular=not any",
           (f"{STRUCTURE}::test_proven_instance_gets_a_report_above_the_cap",)),
    Mutant("edges-submodular-with-a-pair-edge", "kinds.py",
           "submodular=not any(w > 0 for u, v, w in self.edges if u != v)", "submodular=True",
           (f"{STRUCTURE}::test_unknown_is_left_to_the_scan",)),
    Mutant("edges-monotonicity-unproven", "kinds.py",
           "monotone=True,\n            strictly_monotone=all(u in looped", "monotone=False,\n            strictly_monotone=all(u in looped",
           (f"{STRUCTURE}::test_proven_instance_gets_a_report_above_the_cap",)),
    Mutant("edges-strict-with-one-loop", "kinds.py",
           "strictly_monotone=all(u in looped for u in range(n))", "strictly_monotone=any(u in looped for u in range(n))",
           (f"{STRUCTURE}::test_unknown_is_left_to_the_scan",)),
    Mutant("linear-modularity-unproven", "kinds.py",
           "_proven(supermodular=True, submodular=True, monotone=True,", "_proven(supermodular=True, submodular=False, monotone=True,",
           (f"{STRUCTURE}::test_proven_instance_gets_a_report_above_the_cap",)),
    Mutant("linear-strict-with-a-zero-weight", "kinds.py",
           "strictly_monotone=all(w > 0 for w in self.weights)", "strictly_monotone=all(w >= 0 for w in self.weights)",
           (f"{STRUCTURE}::test_unknown_is_left_to_the_scan",)),
    Mutant("concave-supermodular-with-unequal-steps", "kinds.py",
           "supermodular=len(set(increments)) <= 1", "supermodular=True",
           (f"{STRUCTURE}::test_proofs_agree_with_the_full_scan",)),
    Mutant("concave-submodularity-unproven", "kinds.py",
           "submodular=True,\n            monotone=all(d >= 0", "submodular=False,\n            monotone=all(d >= 0",
           (f"{STRUCTURE}::test_proven_instance_gets_a_report_above_the_cap",)),
    Mutant("concave-monotone-with-a-falling-step", "kinds.py",
           "monotone=all(d >= 0 for d in increments)", "monotone=any(d >= 0 for d in increments)",
           (f"{STRUCTURE}::test_unknown_is_left_to_the_scan",)),
    Mutant("concave-strict-with-a-flat-step", "kinds.py",
           "strictly_monotone=all(d > 0 for d in increments)", "strictly_monotone=all(d >= 0 for d in increments)",
           (f"{STRUCTURE}::test_unknown_is_left_to_the_scan",)),
    Mutant("scaled-strict-at-factor-zero", "kinds.py",
           "if self.factor == 0:", "if False:",
           (f"{STRUCTURE}::test_unknown_is_left_to_the_scan",)),
    Mutant("perturbed-strict-at-eta-zero", "kinds.py",
           'if self.eta > 0 and "monotone" in proven:', 'if "monotone" in proven:',
           (f"{STRUCTURE}::test_unknown_is_left_to_the_scan",)),
    Mutant("perturbed-strict-over-a-non-monotone-base", "kinds.py",
           'if self.eta > 0 and "monotone" in proven:', "if self.eta > 0:",
           (f"{STRUCTURE}::test_unknown_is_left_to_the_scan",)),
    Mutant("complement-keeps-modularity", "kinds.py",
           "swap.get(p, p): True", "p: True",
           (f"{STRUCTURE}::test_proofs_agree_with_the_full_scan",)),
    # the scans that verify and complement still run, and the cap that guards them
    Mutant("cap-guards-proven-instances", "structure.py",
           "check_size(n if f_open or g_open else 0,", "check_size(n,",
           (f"{STRUCTURE}::test_proven_instance_gets_a_report_above_the_cap",)),
    Mutant("negative-cap-passes-with-nothing-to-scan", "structure.py",
           "    check_size(n if f_open or g_open else 0, DEFAULT_VERIFY_LIMIT, max_n",
           "    (f_open or g_open) and check_size(n, DEFAULT_VERIFY_LIMIT, max_n",
           (f"{STRUCTURE}::test_negative_cap_refused_with_nothing_to_scan",)),
    Mutant("complement-skips-reward-strictness", "structure.py",
           'report, f_strict = _proven_report(inst, max_n, ("supermodular", "monotone", "strictly_monotone"))',
           'report, f_strict = _proven_report(inst, max_n, ("supermodular", "monotone"))',
           ("tests/test_instance.py::TestComplement::test_requires_strict_reward",)),
    # the exact value layer and prefix walks; ``value`` is itself a walk, so a
    # walk is checked against the Fraction oracle of the raw inputs
    Mutant("perturbed-sizes-off-by-one", "kinds.py",
           "return self._lift(self.base.prefixes(order), range(len(order) + 1))",
           "return self._lift(self.base.prefixes(order), range(1, len(order) + 2))",
           ("tests/test_value_layer.py::test_value_of_every_kind_is_its_fraction_value",)),
    Mutant("complement-walk-not-reversed", "kinds.py",
           "[u for u in range(self.n) if u not in seen][::-1] + list(order)[::-1]",
           "list(order) + [u for u in range(self.n) if u not in seen]",
           ("tests/test_value_layer.py::test_prefixes_are_values_over_one_denominator",)),
    Mutant("edge-at-earlier-endpoint", "kinds.py",
           "step[a if a > b else b] += w", "step[a if a < b else b] += w",
           ("tests/test_value_layer.py::test_value_of_every_kind_is_its_fraction_value",)),
    Mutant("scaled-drops-denominator", "kinds.py",
           "return [self.factor.numerator * v for v in values], den * self.factor.denominator",
           "return [self.factor.numerator * v for v in values], den",
           ("tests/test_value_layer.py::test_value_of_every_kind_is_its_fraction_value",)),
    Mutant("membership-sign", "permutation.py",
           "y_wit = _first_base_violation(gtab, dg, allocation.y, slack, -1)",
           "y_wit = _first_base_violation(gtab, dg, allocation.y, slack, 1)",
           ("tests/test_permutation.py::TestMembership",)),
    Mutant("boolean-endpoint-accepted", "instance.py",
           "if isinstance(e, int) and not isinstance(e, bool) and 0 <= e < self.n:",
           "if isinstance(e, int) and 0 <= e < self.n:",
           (f"{CLI}::TestErrorPaths::test_boolean_endpoint",)),
    # the solver
    Mutant("memo-keeps-nothing", "solver.py",
           "cur = self[prefix] = exact(v, den)", "cur = exact(v, den)",
           ("tests/test_solver_values.py::test_each_mask_evaluated_at_most_once",)),
    # the step mixes stored prefixes, or a size-only function's marginals by
    # position, straight into the iterate
    Mutant("size-only-for-every-kind", "kinds.py",
           "_size_only = False  #", "_size_only = True  #",
           (f"{VALUES}::test_size_only_kinds", f"{STRUCTURE}::test_size_only_specs_take_one_value_per_size",
            f"{VALUES}::test_memo_matches_full_table_walk")),
    Mutant("complement-size-only-not-delegated", "kinds.py",
           "_n = property(lambda self: self.n)\n    _size_only = _size_only_of_base\n",
           "_n = property(lambda self: self.n)\n",
           (f"{VALUES}::test_size_only_kinds",)),
    Mutant("size-only-walked-again", "solver.py",
           "self._by_position = [out[u] for u in order]", "pass",
           (f"{VALUES}::test_each_mask_evaluated_at_most_once",)),
    Mutant("mix-ignores-unresolved", "solver.py",
           "if not self._unresolved:\n            get = self.get", "if True:\n            get = self.get",
           (f"{VALUES}::test_mix_checks_stored_shares_once_values_are_unresolved",
            f"{VALUES}::test_step_matches_vertex_then_mix")),
    Mutant("mix-position-vector-reversed", "solver.py",
           "for u, step in zip(order, steps):\n                out[u] = keep",
           "for u, step in zip(order, steps[::-1]):\n                out[u] = keep",
           (f"{VALUES}::test_memo_matches_full_table_walk", f"{VALUES}::test_step_matches_vertex_then_mix")),
    Mutant("share-check-reads-another-walk", "solver.py",
           "enumerate(marginals(order, ints))", "enumerate(marginals(order, self._spec.prefixes(order[::-1])[0]))",
           (f"{VALUES}::test_mix_checks_stored_shares_once_values_are_unresolved",
            f"{VALUES}::test_step_matches_vertex_then_mix")),
    Mutant("mix-miss-reads-a-stale-prefix", "solver.py",
           "out[u] = keep * x[u] + gamma * (cur - prev)\n                prev = cur",
           "out[u] = keep * x[u] + gamma * (cur - prev)",
           (f"{VALUES}::test_memo_matches_full_table_walk", f"{VALUES}::test_mix_is_the_vertex_mixed_in")),
    # where a run could visit every mask, each step is one pass over both
    # whole tables, unless a first walk or a table value is past the
    # resolution gate; the pass writes the iterate and its densities
    Mutant("whole-tables-always", "solver.py",
           "if 1 << inst.n <= (cfg.iterations + 1) * (inst.n + 1) and", "if True and",
           (f"{VALUES}::test_one_table_where_a_run_could_visit_every_mask",)),
    Mutant("whole-tables-never", "solver.py",
           "if 1 << inst.n <= (cfg.iterations + 1) * (inst.n + 1) and", "if False and",
           (f"{VALUES}::test_one_table_where_a_run_could_visit_every_mask",)),
    Mutant("whole-tables-ignore-the-gate", "solver.py",
           "if self._as_float and _past_resolution(values, den):", "if False:",
           (f"{SOLVER}::TestGreedyPlusPlus::test_removal_beyond_binary64_range",)),
    Mutant("whole-tables-after-an-unresolved-walk", "solver.py",
           " and not (f._unresolved or g._unresolved):", ":",
           (f"{VALUES}::test_no_table_once_the_first_walk_is_past_resolution",)),
    Mutant("table-step-reads-f-for-g", "solver.py",
           "g_cur = G[prefix]", "g_cur = F[prefix]",
           (f"{VALUES}::test_whole_table_runs_match_walks_alone", f"{VALUES}::test_step_matches_vertex_then_mix")),
    Mutant("table-step-reads-a-stale-prefix", "solver.py",
           "        f_prev = f_cur\n", "",
           (f"{VALUES}::test_whole_table_runs_match_walks_alone", f"{VALUES}::test_step_matches_vertex_then_mix")),
    Mutant("table-step-skips-the-finite-sum-check", "solver.py",
           "if rho is None or as_float and not math.isfinite(sum(rho)):", "if rho is None:",
           (f"{VALUES}::test_density_errors_on_both_sides_of_the_rule",)),
    Mutant("table-step-skips-a-zero-share", "solver.py",
           "            zero = True\n", "            pass\n",
           (f"{VALUES}::test_zero_cost_share_on_both_sides_of_the_rule",)),
    Mutant("table-step-leaves-densities-stale", "solver.py",
           "rho[u] = xu / yu", "rho[u] = x[u] / y[u]",
           (f"{VALUES}::test_whole_table_runs_match_walks_alone", f"{VALUES}::test_step_matches_vertex_then_mix")),
    # marginal vectors: one pass per spec, under value's mask rule
    Mutant("complement-vector-at-mask", "kinds.py",
           "return self.base._vector((1 << self.n) - 1 ^ mask, n)", "return self.base._vector(mask, n)",
           ("tests/test_value_layer.py::test_marginal_vector_is_the_value_differences",)),
    Mutant("concave-member-takes-the-outer-increment", "kinds.py",
           "return [inside if mask >> u & 1 else outside", "return [outside if mask >> u & 1 else outside",
           ("tests/test_value_layer.py::test_marginal_vector_is_the_value_differences",)),
    Mutant("marginal-vector-without-mask-rule", "kinds.py",
           "self._fit(mask)\n        if self._n is not None", "if self._n is not None",
           ("tests/test_value_layer.py::test_marginal_vector_refuses_what_value_refuses",)),
    Mutant("marginal-vector-of-another-size", "kinds.py",
           "if self._n is not None and n != self._n:", "if False:",
           ("tests/test_value_layer.py::test_marginal_vector_refuses_another_size",)),
    # Greedy++'s removals read and update f's marginal vector
    Mutant("greedypp-skips-a-neighbour-update", "solver.py",
           "for v, w in neighbours[b]:", "for v, w in neighbours[b][1:]:",
           (f"{VALUES}::test_greedypp_edge_updates_match_chain_walk_removals",)),
    Mutant("removal-scores-skip-the-gate", "solver.py",
           "            f._gate(rest, den)\n", "",
           (f"{VALUES}::test_removals_open_the_resolution_gate",)),
    # extremes cross-checks only what the structure proofs leave open
    Mutant("extremes-always-scans", "instance.py",
           "if n <= 7 and not (", "if n <= 7 and True or (",
           ("tests/test_instance.py::TestExtremes::test_proven_instance_builds_no_table",)),
    Mutant("extremes-skip-on-one-proof", "instance.py",
           '"supermodular" in f.structure(n) and "submodular" in g.structure(n)',
           '"supermodular" in f.structure(n) or "submodular" in g.structure(n)',
           ("tests/test_instance.py::TestExtremes::test_submodular_reward_caught_up_to_seven",)),
    # the error bounds divide each minimum by its own function's total, and
    # the totals refuse a cost total that is not positive
    Mutant("bounds-divide-by-wrong-total", "solver.py",
           "ext.g_min / gv", "ext.g_min / fv",
           (f"{SOLVER}::TestErrorBounds::test_same_as_the_normalized_companion",)),
    Mutant("totals-skip-g", "instance.py",
           '        if gv <= 0:\n            raise ZeroTotal("g")\n', "",
           (f"{CLI}::test_malformed_input_names_its_field[zero-cost-total]",)),
    Mutant("memo-fractions-in-binary64", "solver.py",
           "self._exact = operator.truediv if as_float else Fraction", "self._exact = Fraction",
           ("tests/test_solver_values.py::test_memo_matches_full_table_walk",)),
    Mutant("linear-gate-asks-submodular-only", "solver.py",
           '{"supermodular", "submodular"} <= inst.g.structure', '{"submodular"} <= inst.g.structure',
           (f"{SOLVER}::TestGreedyPlusPlus::test_linear_cost_gate",)),
    Mutant("greedypp-frank-wolfe-step", "solver.py",
           "lead = 1 if greedy else 2", "lead = 2",
           ("tests/test_solver_values.py::test_memo_matches_full_table_walk",)),
    Mutant("resolution-check-off", "solver.py",
           "if self._unresolved and 0.0 in c:", "if False:",
           (f"{SOLVER}::TestFrankWolfe::test_share_below_binary64_resolution",
            f"{SOLVER}::TestFrankWolfe::test_reward_share_below_binary64_resolution")),
    Mutant("kl-convexity-without-half", "solver.py",
           "convexity = f_min * g_min**2 / 2", "convexity = f_min * g_min**2",
           (f"{SOLVER}::TestErrorBounds::test_log_kind_constants",)),
    Mutant("bound-overflow-not-caught", "solver.py",
           "    except OverflowError:\n        return math.inf", "    except ZeroDivisionError:\n        return math.inf",
           (f"{SOLVER}::TestErrorBounds::test_bound_beyond_binary64_is_infinite",)),
    Mutant("csv-without-densities", "solver.py",
           "rho = [None] * len(self.labels) if r.rho is None else r.rho", "rho = [None] * len(self.labels)",
           ("tests/test_golden.py::test_trace_csv_matches_golden",)),
    # the CLI and the contracts
    Mutant("structural-clause-dropped", "cli.py",
           "    except StructuralError as exc:\n        print(f\"error: {exc}\", file=sys.stderr)\n        return EXIT_STRUCTURAL\n",
           "",
           (f"{CLI}::test_error_class_maps_to_exit_code",)),
    Mutant("principal-without-one-minus-alpha", "contracts.py",
           "return mask, alpha * fv - inst.g.value(mask), (1 - alpha) * fv",
           "return mask, alpha * fv - inst.g.value(mask), fv",
           ("tests/test_contracts.py::TestContractAt",)),
    # f_min = 0 is reported by value
    Mutant("multiplicative-bound-at-zero-fmin", "solver.py",
           "if f_min > 0 else None", "if f_min >= 0 else None",
           (f"{SOLVER}::TestErrorBounds::test_zero_fmin_suppresses_multiplicative",)),
    Mutant("zero-fmin-note-dropped", "cli.py",
           "if bounds.multiplicative_density_upper is None:", "if False:",
           (f"{CLI}::TestSolve::test_zero_f_min_is_one_note_line",)),
    # a negative eta is a schema error
    Mutant("negative-eta-accepted", "kinds.py",
           "if self.eta < 0:", "if self.eta < -1:",
           ("tests/test_instance.py::TestPerturb::test_negative_eta",)),
    # the hockey-stick sup form in closed form
    Mutant("sup-form-drops-zero-differences", "divergence.py",
           "        if d >= 0:\n            best += d", "        if d > 0:\n            best += d",
           ("tests/test_divergence.py::test_sup_form_matches_enumeration",)),
    # densities and objective values beyond binary64
    Mutant("density-range-check-off", "solver.py",
           "if as_float and not math.isfinite(sum(rho)):", "if False:",
           (f"{SOLVER}::TestFrankWolfe::test_density_beyond_binary64_range",)),
    Mutant("densities-raise-on-an-overflowing-sum", "solver.py",
           "                if not math.isfinite(t):\n", "                if True:\n",
           (f"{SOLVER}::TestFrankWolfe::test_finite_densities_that_sum_past_binary64",)),
    Mutant("rational-overflow-not-caught", "solver.py",
           "except OverflowError:  # a rational beyond the binary64 range",
           "except ZeroDivisionError:",
           (f"{SOLVER}::TestFrankWolfe::test_density_beyond_binary64_range",)),
    Mutant("log-objective-overflow-kept", "solver.py",
           "kl = kl if kl is not None and math.isfinite(kl) else None", "pass",
           (f"{SOLVER}::TestFrankWolfe::test_log_objective_beyond_binary64_range",)),
    # --initial names its option
    Mutant("initial-not-checked-whole", "cli.py",
           "if sorted(order) != list(range(inst.n)):", "if False:",
           (f"{CLI}::TestSolve::test_initial_permutation_malformed",)),
    # misreports at the edge
    Mutant("negative-cost-read-as-zero", "divergence.py",
           "if yu < 0:", "if yu < -1:",
           (f"{CLI}::test_malformed_input_names_its_field",)),
    Mutant("non-utf8-file-uncaught", "files.py",
           "except UnicodeDecodeError as exc:", "except KeyError as exc:",
           (f"{CLI}::test_malformed_input_names_its_field",)),
    Mutant("deep-nesting-uncaught", "files.py",
           "except RecursionError:", "except KeyError:",
           (f"{CLI}::test_malformed_input_names_its_field",)),
    Mutant("phi-at-empty-set-unchecked", "kinds.py",
           "if not self.phi or self.phi[0] != 0:", "if not self.phi:",
           (f"{CLI}::test_malformed_input_names_its_field",)),
    # tables built by doubling: the masks that hold k are the masks below k,
    # each plus k's gain; a size-only function reads one walk at each size
    Mutant("table-doubling-drops-the-loop", "kinds.py",
           "tab += [t + g + loop for t, g in", "tab += [t + g for t, g in",
           ("tests/test_value_layer.py::test_wide_tables_are_fraction_values",)),
    Mutant("edge-gain-row-transposed", "kinds.py",
           "lower[max(u, v)][min(u, v)] += w", "lower[min(u, v)][max(u, v)] += w",
           ("tests/test_value_layer.py::test_wide_tables_are_fraction_values",)),
    Mutant("size-only-table-one-size-up", "kinds.py",
           "return [values[k] for k in subset_sums([1] * n, n)], den", "return [values[k + 1] for k in subset_sums([1] * n, n)], den",
           ("tests/test_value_layer.py::test_wide_tables_are_fraction_values",)),
    Mutant("zero-weight-appends-nothing", "kinds.py",
           "sums += [s + w for s in sums] if w else sums", "sums += [s + w for s in sums] if w else []",
           ("tests/test_value_layer.py::test_subset_sums_against_a_direct_sum",)),
    # every contract row from one walk of f and one of g, read at the part ends
    Mutant("contract-rows-read-at-the-walk-end", "contracts.py",
           "fv = [Fraction(fs[i], fden) for i in ends]", "fv = [Fraction(fs[-1], fden) for i in ends]",
           ("tests/test_contracts.py::TestAnalysisDifferential::test_disjoint_cliques",)),
    # Marginal walks through its base
    Mutant("marginal-minus-empty-prefix", "kinds.py",
           "return [v - values[k] for v in values[k:]], den", "return [v - values[0] for v in values[k:]], den",
           ("tests/test_value_layer.py::test_value_of_every_kind_is_its_fraction_value",)),
    # one denominator per spec: explicit tables walk their cleared cache, and
    # a marginal table indexes its base's table
    Mutant("explicit-walk-in-mask-order", "kinds.py",
           "accumulate((1 << u for u in order), int.__or__, initial=0)",
           "accumulate((1 << u for u in sorted(order)), int.__or__, initial=0)",
           ("tests/test_value_layer.py::test_table_and_walks_share_one_denominator",)),
    Mutant("marginal-table-without-anchor", "kinds.py",
           "masks = [self.anchor]  #", "masks = [0]  #",
           ("tests/test_value_layer.py::test_table_is_value_over_one_denominator",
            "tests/test_instance.py::TestResidual::test_residual_of_residual_is_one_view")),
    # one share rule for f and g, and its gate
    Mutant("share-gate-ignores-underflow", "solver.py",
           "return den > _DEN_BOUND or max(ints)", "return max(ints)",
           (f"{SOLVER}::TestFrankWolfe::test_shares_that_underflow_together",)),
    Mutant("share-gate-ignores-negative-values", "solver.py",
           " or min(ints) <= -_INT_BOUND", "",
           (f"{SOLVER}::TestFrankWolfe::test_share_below_resolution_of_negative_values",)),
    Mutant("share-gate-always-open", "solver.py",
           "max(ints) >= _INT_BOUND", "max(ints) >= 0",
           ("tests/test_solver_values.py::test_each_mask_evaluated_at_most_once",)),
    Mutant("share-rule-for-g-only", "solver.py",
           "if self._unresolved and 0.0 in c:", 'if self._unresolved and 0.0 in c and self._name == "g":',
           (f"{SOLVER}::TestFrankWolfe::test_reward_share_below_binary64_resolution",)),
    # one value rule for trace exports, and the objective's range
    Mutant("csv-values-as-floats", "solver.py",
           "*map(_num, (r.phi_quadratic", "*map(lambda v: v if v is None else float(v), (r.phi_quadratic",
           (f"{SOLVER}::TestTraceExport::test_rational_csv_writes_fractions",)),
    Mutant("quadratic-objective-overflow-kept", "solver.py",
           "quad = None if isinstance(quad, float) and not math.isfinite(quad) else quad", "pass",
           (f"{SOLVER}::TestFrankWolfe::test_objective_beyond_binary64_range",)),
    Mutant("objective-range-check-off", "cli.py",
           "if not math.isfinite(phi):", "if False:",
           (f"{CLI}::test_input_reaches_its_exit_code",)),
    # one value rule: the last prefix of a chain walk, and the mask it accepts
    Mutant("edge-counted-before-arrival", "kinds.py",
           "arrival = [len(order) + 1] * span", "arrival = [0] * span",
           ("tests/test_value_layer.py::test_chain_prefixes_are_table_values",)),
    Mutant("complement-chain-not-completed", "kinds.py",
           "[u for u in range(self.n) if u not in seen][::-1] + ", "",
           ("tests/test_value_layer.py::test_chain_prefixes_are_table_values",)),
    Mutant("value-reads-wrong-prefix", "kinds.py",
           "return Fraction(values[-1], den)", "return Fraction(values[-2], den)",
           ("tests/test_value_layer.py::test_value_of_every_kind_is_its_fraction_value",)),
    Mutant("mask-rule-ignores-size", "kinds.py",
           "if mask < 0 or n is not None and mask >> n:", "if mask < 0:",
           ("tests/test_value_layer.py::test_value_refuses_a_mask_outside_the_ground_set",)),
    # decompositions and allocations that do not fit
    Mutant("rho-star-check-off", "decomposition.py",
           "if tuple(self.rho_star) != _rho_star(self.n, self.parts, self.densities):", "if False:",
           ("tests/test_decomposition.py::TestDensityDecomposition::test_one_density_per_part_and_element",)),
    Mutant("allocation-length-check-off", "fairness.py",
           "if allocation.n != inst.n:", "if False:",
           ("tests/test_fairness.py::TestLocallyMaximin::test_allocation_of_another_length",)),
    Mutant("maximin-drops-the-last-level", "fairness.py",
           "        rows.append(row)\n", "        if k == inst.n:\n            break\n        rows.append(row)\n",
           ("tests/test_fairness.py::TestLocallyMaximin::test_one_walk_matches_the_level_loop",
            "tests/test_fairness.py::TestLocallyMaximin::test_p3_canonical")),
    # decomposition checks that no other test reaches
    Mutant("empty-or-overlapping-part-accepted", "decomposition.py",
           "if p == 0 or union & p:", "if p == 0 and union & p:",
           ("tests/test_decomposition.py::TestDensityDecomposition::test_parts_nonempty_and_disjoint",)),
    Mutant("equal-densities-accepted", "decomposition.py",
           "if not hi > lo:", "if not hi >= lo:",
           ("tests/test_decomposition.py::TestDensityDecomposition::test_equal_densities_rejected",)),
    Mutant("decrease-skips-first-pair", "decomposition.py",
           "zip(self.densities, self.densities[1:])", "zip(self.densities, self.densities[2:])",
           ("tests/test_decomposition.py::TestDensityDecomposition::test_equal_densities_rejected",)),
    Mutant("union-guard-needs-both", "decomposition.py",
           "if dg == 0 or df * best_g != best_f * dg:", "if dg == 0 and df * best_g != best_f * dg:",
           ("tests/test_decomposition.py::TestDensityDecomposition::test_union_of_densest_subsets_not_densest",)),
    # one step generator: final_iterate keeps no rows, solve keeps them
    Mutant("final-iterate-runs-fw", "solver.py",
           "_run(inst, cfg, cfg.variant)", '_run(inst, cfg, "fw")',
           (f"{SOLVER}::TestFinalIterate::test_matches_solve_bit_for_bit",)),
    Mutant("walked-step-leaves-densities-stale", "solver.py",
           "            y = g.mix(order, y, keep, gamma)\n            rho = densities(x, y)\n",
           "            y = g.mix(order, y, keep, gamma)\n",
           (f"{VALUES}::test_memo_matches_direct_walk_above_old_table_size",)),
    Mutant("one-step-too-few", "solver.py",
           "for k in range(cfg.iterations):", "for k in range(cfg.iterations - 1):",
           ("tests/test_solver_values.py::test_memo_matches_full_table_walk",)),
    Mutant("mixture-accepts-a-zero-weight", "permutation.py",
           "if w <= 0:", "if w < 0:",
           ("tests/test_permutation.py::TestMixture::test_weights_must_be_positive",)),
    Mutant("vertex-accepts-another-length", "permutation.py",
           "    check_order(sigma, spec._n)\n", "",
           ("tests/test_permutation.py::TestVertex::test_rejects_an_order_of_another_length",)),
    Mutant("mixture-accepts-another-length", "permutation.py",
           "            check_order(sigma, inst.n)\n", "",
           ("tests/test_permutation.py::TestMixture::test_rejects_an_order_of_another_length",)),
    Mutant("derivative-accepts-another-length", "solver.py",
           "    check_order(sigma, inst.n)\n", "",
           (f"{SOLVER}::TestPartialDerivative::test_rejects_an_order_of_another_length",)),
    Mutant("zero-share-check-off", "permutation.py",
           "if 0 not in y:", "if True:",
           (f"{SOLVER}::TestFinalIterate::test_same_error_on_both_paths",)),
    Mutant("zero-share-names-last", "permutation.py",
           "u = y.index(0)", "u = max(u for u, yu in enumerate(y) if yu == 0)",
           (f"{SOLVER}::TestFinalIterate::test_first_zero_cost_share_is_named",)),
    Mutant("allocation-accepts-non-finite", "permutation.py",
           "if not isinstance(v, (int, Fraction)) and not math.isfinite(v):", "if False:",
           ("tests/test_permutation.py::TestAllocation::test_refuses_a_share_that_is_not_finite",)),
    # the certify report reads one density pass, after the length check
    Mutant("equivalence-densities-twice", "fairness.py",
           "report = _level_sets(inst, allocation, rho)", "report = is_locally_maximin(inst, allocation)",
           ("tests/test_fairness.py::TestEquivalenceReport::test_densities_computed_once",)),
    Mutant("equivalence-densities-before-length", "fairness.py",
           "    _check_length(inst, allocation)\n    rho = induced_densities(allocation, labels=inst.ground.labels)\n    report",
           "    rho = induced_densities(allocation, labels=inst.ground.labels)\n    _check_length(inst, allocation)\n    report",
           ("tests/test_fairness.py::TestLocallyMaximin::test_length_checked_before_densities",)),
    # an int share is an exact rational: an int over an int would round
    Mutant("densities-of-int-shares-rounded", "permutation.py",
           "x = [Fraction(v) if isinstance(v, int) else v for v in allocation.x]", "x = allocation.x",
           ("tests/test_permutation.py::TestInducedDensities::test_int_shares_past_the_float_range",
            "tests/test_fairness.py::TestLocallyMaximin::test_int_shares_keep_close_levels_apart")),
    Mutant("divergence-of-int-shares-rounded", "divergence.py",
           "xu = Fraction(xu)", "pass",
           ("tests/test_divergence.py::TestObjective::test_int_shares_are_exact",)),
    # the writer: each kind's fields, read back the same
    Mutant("perturbed-written-without-eta", "files.py",
           '"eta": format_rational(spec.eta)}', '"eta": "0/1"}',
           ("tests/test_instance.py::TestJson::test_written_spec_reads_back",)),
]


def _pytest(src: str, tests, quiet: bool = True) -> int:
    """Exit code of pytest over ``tests`` in a fresh interpreter that imports dualmod from ``src``."""
    env = {**os.environ, "PYTHONPATH": src}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    out = subprocess.DEVNULL if quiet else None
    return subprocess.run(argv, cwd=REPO, env=env, stdout=out, stderr=out).returncode


def _copy_src(dest: str) -> str:
    src = os.path.join(dest, "src")
    shutil.copytree(os.path.join(REPO, "src"), src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    # the copy, not an installed dualmod, must be the one imported
    env = {**os.environ, "PYTHONPATH": src}
    where = subprocess.run([sys.executable, "-c", "import dualmod; print(dualmod.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not where.startswith(src):
        sys.exit(f"dualmod imported from {where}, not from the copy {src}")
    return src


def _apply(src: str, m: Mutant) -> None:
    path = os.path.join(src, "dualmod", m.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    found = text.count(m.old)
    if found != 1:
        raise LookupError(f"snippet found {found} times in {m.file}, expected once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(m.old, m.new))


def misplaced(mutants) -> list[str]:
    """Each mutant whose snippet is not found exactly once in its file, with the count."""
    out = []
    for m in mutants:
        try:
            with open(os.path.join(REPO, "src", "dualmod", m.file), encoding="utf-8") as fh:
                found = fh.read().count(m.old)
        except FileNotFoundError:
            found = 0
        if found != 1:
            out.append(f"{m.name}: snippet found {found} times in {m.file}")
    return out


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown or not chosen:
        print(f"unknown mutants: {', '.join(sorted(unknown)) or '(none chosen)'}", file=sys.stderr)
        return 1
    stale = misplaced(chosen)
    if stale:
        print("\n".join(["snippets to move with their code:", *stale]), file=sys.stderr)
        return 1
    started = time.perf_counter()
    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        if _pytest(_copy_src(tmp), tests, quiet=False) != 0:
            print("the named tests must pass on the unchanged source", file=sys.stderr)
            return 1
    bad = 0
    for m in chosen:
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(tmp)
            try:
                _apply(src, m)
            except LookupError as exc:
                status = f"ERROR ({exc})"
            else:
                code = _pytest(src, m.tests)
                # 1: a test failed; 0: all passed; anything else: not collected or not run
                status = {1: "caught", 0: "SURVIVED"}.get(code, f"ERROR (pytest exit {code})")
        bad += status != "caught"
        print(f"{m.name}: {status}", flush=True)
    elapsed = time.perf_counter() - started
    print(f"{len(chosen) - bad} of {len(chosen)} mutants caught in {elapsed:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
