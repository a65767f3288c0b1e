import csv
import itertools
import math
import os
import traceback
from fractions import Fraction as F

import numpy as np
import pytest

import dualmod as dm
from dualmod.errors import (
    DomainError,
    DualModError,
    NotLinearCost,
    SchemaError,
    StructuralError,
    ZeroCostCoordinate,
    ZeroTotal,
)

from conftest import (
    fd_hessian_max_eig,
    fixture_path,
    hessian_closed_form_max,
    rand_frac,
    random_instance,
)


def l2(a, b):
    return math.sqrt(sum((float(p) - float(q)) ** 2 for p, q in zip(a, b)))


class TestGradientOracle:
    def test_tie_breaks_by_index(self):
        assert dm.sort_by_density((F(1), F(1), F(1, 2))).order == (0, 1, 2)

    def test_constant_density_gives_identity(self):
        assert dm.sort_by_density((F(2, 3),) * 3).order == (0, 1, 2)

    def test_attains_minimum_partial_derivative(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n)
            rho = tuple(rand_frac(rng, 1, 20, 9) for _ in range(n))
            sigma = dm.sort_by_density(rho)
            for kind in dm.STRICTLY_CONVEX_KINDS:
                best = dm.partial_derivative(inst, rho, sigma, kind)
                for order in itertools.permutations(range(n)):
                    other = dm.partial_derivative(inst, rho, dm.Permutation(order), kind)
                    if isinstance(best, F):
                        assert best <= other
                    else:
                        assert float(best) <= float(other) + 1e-12


class TestPartialDerivative:
    def test_single_element_quadratic(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("v",)), f=dm.Linear((F(1),)), g=dm.Linear((F(1),))
        )
        value = dm.partial_derivative(inst, (F(1),), dm.Permutation((0,)), dm.QUADRATIC)
        assert value == 1  # 1 * 2 + 1 * (1 - 2)

    def test_rejects_an_order_of_another_length(self):
        # edge functions fit any n, so only the instance tells the lengths apart
        loops = dm.EdgesInside(((0, 0, F(1)), (1, 1, F(1))))
        inst = dm.DualModularInstance(ground=dm.GroundSet(("x", "y")), f=loops, g=loops)
        with pytest.raises(SchemaError, match=r"^order: length 3 does not match n=2$"):
            dm.partial_derivative(inst, (F(1), F(1)), dm.Permutation((0, 1, 2)), dm.QUADRATIC)

    def test_constant_density_is_sigma_independent(self, p3):
        rho = (F(2, 3),) * 3
        values = {
            dm.partial_derivative(p3, rho, dm.Permutation(order), dm.QUADRATIC)
            for order in itertools.permutations(range(3))
        }
        assert len(values) == 1

    def test_sorted_minimizes_kl_n4(self):
        rng = np.random.default_rng(32)
        inst = random_instance(rng, 4)
        rho = tuple(rand_frac(rng, 1, 15, 7) for _ in range(4))
        sigma = dm.sort_by_density(rho)
        best = dm.partial_derivative(inst, rho, sigma, dm.ENTROPY_KL)
        others = [
            dm.partial_derivative(inst, rho, dm.Permutation(order), dm.ENTROPY_KL)
            for order in itertools.permutations(range(4))
        ]
        assert float(best) <= min(float(v) for v in others) + 1e-12


class TestDotProductFact:
    def test_sorting_minimizes_both_dot_products(self):
        rng = np.random.default_rng(33)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n)
            h = tuple(rand_frac(rng, 1, 20, 9) for _ in range(n))
            down = sorted(range(n), key=lambda u: (-h[u], u))
            up = sorted(range(n), key=lambda u: (h[u], u))
            f_best = sum(a * b for a, b in zip(dm.vertex(inst.f, dm.Permutation(tuple(down))), h))
            g_best = sum(a * b for a, b in zip(dm.vertex(inst.g, dm.Permutation(tuple(up))), h))
            for order in itertools.permutations(range(n)):
                sigma = dm.Permutation(order)
                assert sum(a * b for a, b in zip(dm.vertex(inst.f, sigma), h)) >= f_best
                assert sum(a * b for a, b in zip(dm.vertex(inst.g, sigma), h)) >= g_best


class TestFrankWolfe:
    def test_single_element_fixed_point(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("v",)), f=dm.Linear((F(3),)), g=dm.Linear((F(2),))
        )
        trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=1))
        assert trace.final_rho == (1.5,)

    def test_p3_converges(self, p3):
        trace = dm.frank_wolfe(p3, dm.SolverConfig(iterations=2000))
        assert l2(trace.final_rho, (F(2, 3),) * 3) <= 1e-2

    def test_perturbed_sec32_converges(self, sec32):
        pert = dm.DualModularInstance(
            ground=sec32.ground, f=sec32.f, g=dm.Perturbed(sec32.g, F(1, 100))
        )
        dec = dm.density_decomposition(pert)
        trace = dm.frank_wolfe(pert, dm.SolverConfig(iterations=5000))
        assert l2(trace.final_rho, dec.rho_star) <= 0.02

    def test_zero_cost_mid_run(self, sec32):
        # the identity start order gives the cost vertex (1, 0, 2)
        with pytest.raises(ZeroCostCoordinate):
            dm.frank_wolfe(sec32, dm.SolverConfig(iterations=10))

    def test_share_below_binary64_resolution(self):
        # g({a}) and g({a, b}) round to one float, so b's share of the
        # identity vertex reads 0.0 though its exact marginal is 10^-20
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(1), F(1))), g=dm.Linear((F(1), F(1, 10**20)))
        )
        with pytest.raises(DomainError, match="element b .* below binary64 resolution"):
            dm.frank_wolfe(inst, dm.SolverConfig(iterations=5))
        trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=5, arithmetic="rational"))
        assert trace.final_y == (1, F(1, 10**20))

    @pytest.mark.parametrize("variant", ["fw", "greedypp"])
    @pytest.mark.parametrize(
        "fa,ga,rho", [(10**307, F(1), (10**307, 1)), (10**300, F(1, 10**10), (10**310, 1))], ids=["e307", "e300"]
    )
    def test_reward_share_below_binary64_resolution(self, variant, fa, ga, rho):
        # f({a}) and f({a, b}) round to one float, so b's reward share reads
        # 0.0 though its exact marginal is 1
        f, g = dm.Linear((F(fa), F(1))), dm.Linear((ga, F(1)))
        inst = dm.DualModularInstance(ground=dm.GroundSet(("a", "b")), f=f, g=g)
        with pytest.raises(DomainError, match=r"^f: reward share of element b is 1/1, below binary64 resolution"):
            dm.solve(inst, dm.SolverConfig(iterations=5, variant=variant))
        trace = dm.solve(inst, dm.SolverConfig(iterations=5, variant=variant, arithmetic="rational"))
        assert trace.final_rho == dm.density_decomposition(inst).rho_star == rho

    def test_share_below_resolution_of_negative_values(self):
        # f = V(S) -> B(V) - B(V - S) over a non-monotone table B walks
        # 0, -2^60, -2^60 + 1, 1 on the identity order: v1's share of 1 is lost
        table = (0, 1, 1, 1, 2**60, 1, 2**60 + 1, 1)
        f = dm.ComplementOf(dm.ExplicitTable(tuple(map(F, table))), 3)
        inst = dm.DualModularInstance(ground=dm.GroundSet(("v0", "v1", "v2")), f=f, g=dm.Linear((F(1),) * 3))
        with pytest.raises(DomainError, match=r"^f: reward share of element v1 is 1/1, below binary64 resolution"):
            dm.frank_wolfe(inst, dm.SolverConfig(iterations=5))

    def test_shares_that_underflow_together(self):
        # every value of g is below the binary64 range, so both shares read 0.0:
        # the smallest step over g's denominator is subnormal, which opens the check
        g = dm.Linear((F(1, 10**400), F(2, 10**400)))
        inst = dm.DualModularInstance(ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(1), F(1))), g=g)
        with pytest.raises(DomainError, match=r"^g: cost share of element a is 1/1(0{400}), below binary64 resolution"):
            dm.frank_wolfe(inst, dm.SolverConfig(iterations=5))

    @pytest.mark.parametrize("variant", ["fw", "greedypp"])
    def test_density_beyond_binary64_range(self, variant):
        # a's density is 10^310: binary64 refuses it, rational mode carries it
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(10**300), F(10**290))), g=dm.Linear((F(1, 10**10), F(1)))
        )
        with pytest.raises(DomainError, match="density of element a exceeds the binary64 range"):
            dm.solve(inst, dm.SolverConfig(iterations=5, variant=variant))
        trace = dm.solve(inst, dm.SolverConfig(iterations=5, variant=variant, arithmetic="rational"))
        assert trace.final_rho == dm.density_decomposition(inst).rho_star == (10**310, 10**290)
        # exact objective values survive; binary64 cannot carry the logarithmic ones
        assert trace.rows[-1].phi_quadratic == 10**610 + 10**580  # y_a rho_a^2 + y_b rho_b^2
        assert {(r.phi_kl, r.phi_eg) for r in trace.rows} == {(None, None)}

    @pytest.mark.parametrize("variant", ["fw", "greedypp"])
    def test_finite_densities_that_sum_past_binary64(self, variant):
        # both densities are 10^308, a float each, and their sum is not: no error
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(10**300),) * 2), g=dm.Linear((F(1, 10**8),) * 2)
        )
        x, y, rho = dm.final_iterate(inst, dm.SolverConfig(iterations=5, variant=variant))
        assert all(map(math.isfinite, rho)) and sum(rho) == math.inf
        assert rho == (1e300 / 1e-8,) * 2

    def test_objective_beyond_binary64_range(self):
        # every density is a float, but y_a rho_a^2 = 10^-100 (10^300)^2 is not
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(10**200), F(10**190))), g=dm.Linear((F(1, 10**100), F(1)))
        )
        trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=5))
        assert all(map(math.isfinite, trace.final_rho))
        assert {r.phi_quadratic for r in trace.rows} == {None}
        exact = dm.frank_wolfe(inst, dm.SolverConfig(iterations=5, arithmetic="rational"))
        assert {r.phi_quadratic for r in exact.rows} == {10**500 + 10**380}

    def test_log_objective_beyond_binary64_range(self):
        # every density is a float, but sum x log(x / y) is not
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(10**307), F(10**300))), g=dm.Linear((F(1), F(1)))
        )
        row = dm.frank_wolfe(inst, dm.SolverConfig(iterations=5)).rows[-1]
        assert row.phi_kl is None
        assert row.phi_eg == pytest.approx(-607 * math.log(10))

    def test_iterates_stay_feasible(self, p3, tri_iso):
        for inst in (p3, tri_iso):
            trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=300, stride=50))
            checked = 0
            for row in trace.rows:
                if row.allocation is None:
                    continue
                x, y = row.allocation
                a = dm.Allocation(x=x, y=y)
                assert dm.check_base_membership(inst, a, slack=1e-9).both
                checked += 1
            assert checked >= 6

    def test_rational_mode_is_exact(self, p3):
        trace = dm.frank_wolfe(
            p3, dm.SolverConfig(iterations=40, arithmetic="rational", stride=1)
        )
        # iterates in exact arithmetic pass membership with zero slack
        for row in trace.rows[::10]:
            x, y = row.allocation
            assert dm.check_base_membership(p3, dm.Allocation(x=x, y=y)).both
        assert all(isinstance(v, F) for v in trace.final_x)

    def test_mirror_runs_swap_exactly(self):
        rng = np.random.default_rng(34)
        for _ in range(4):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n, strict_f=True)
            comp = dm.complement_instance(inst)
            cfg = dm.SolverConfig(iterations=25, arithmetic="rational", stride=1)
            cfg_rev = dm.SolverConfig(
                iterations=25,
                arithmetic="rational",
                stride=1,
                initial_permutation=dm.Permutation.identity(n).reversed(),
            )
            t1 = dm.frank_wolfe(inst, cfg)
            t2 = dm.frank_wolfe(comp, cfg_rev)
            for r1, r2 in zip(t1.rows, t2.rows):
                x1, y1 = r1.allocation
                x2, y2 = r2.allocation
                assert x2 == y1 and y2 == x1
                assert all(a * b == 1 for a, b in zip(r1.rho, r2.rho))


def outcome(run, inst, cfg):
    """The (type, message) of the package error that run(inst, cfg) raises, or None."""
    try:
        run(inst, cfg)
    except DualModError as exc:
        return type(exc), str(exc)
    return None


# (id, a fixture name or the (f, g) weights of two elements, variant, the error both paths raise)
FAILING_RUNS = [
    ("zero-cost-mid-run", "sec32", "fw", ZeroCostCoordinate),
    ("not-linear-cost", "sec32", "greedypp", NotLinearCost),
    ("short-initial", "p3", "fw", SchemaError),
    *((f"cost-share-below-resolution-{variant}", ((1, 1), (1, F(1, 10**20))), variant, DomainError)
      for variant in ("fw", "greedypp")),
    *((f"density-beyond-binary64-{variant}", ((10**300, 10**290), (F(1, 10**10), 1)), variant, DomainError)
      for variant in ("fw", "greedypp")),
]


class TestFinalIterate:
    """``final_iterate`` runs ``solve``'s steps and keeps no rows: the same
    final x, y and rho bit for bit, and the same error where a run fails."""

    @pytest.mark.parametrize("arithmetic,T", [("binary64", 60), ("rational", 12)])
    def test_matches_solve_bit_for_bit(self, arithmetic, T):
        rng = np.random.default_rng(61)
        multipart = 0
        for n in [*range(2, 11)] * 2:
            inst = random_instance(rng, n)
            linear = dm.DualModularInstance(
                ground=inst.ground, f=inst.f, g=dm.Linear(tuple(rand_frac(rng) for _ in range(n)))
            )
            multipart += len(dm.density_decomposition(inst).parts) > 1
            shuffled = dm.Permutation(tuple(int(u) for u in rng.permutation(n)))
            for start in (None, shuffled):
                for variant, case in (("fw", inst), ("greedypp", linear)):
                    cfg = dm.SolverConfig(
                        iterations=T, variant=variant, arithmetic=arithmetic, initial_permutation=start
                    )
                    trace = dm.solve(case, cfg)
                    x, y, rho = dm.final_iterate(case, cfg)
                    # repr tells every float apart, -0.0 from 0.0 included
                    assert repr((x, y, rho)) == repr((trace.final_x, trace.final_y, trace.final_rho))
                    assert rho == tuple(a / b for a, b in zip(x, y))
        assert multipart >= 5

    @pytest.mark.parametrize(
        "inst,variant,error", [r[1:] for r in FAILING_RUNS], ids=[r[0] for r in FAILING_RUNS]
    )
    def test_same_error_on_both_paths(self, request, inst, variant, error):
        if isinstance(inst, str):
            inst = request.getfixturevalue(inst)
        else:
            f, g = inst
            inst = dm.DualModularInstance(
                ground=dm.GroundSet(("a", "b")), f=dm.Linear(tuple(map(F, f))), g=dm.Linear(tuple(map(F, g)))
            )
        start = dm.Permutation((1, 0)) if error is SchemaError else None
        cfg = dm.SolverConfig(iterations=10, variant=variant, initial_permutation=start)
        traced = outcome(dm.solve, inst, cfg)
        assert traced is not None and traced[0] is error
        assert outcome(dm.final_iterate, inst, cfg) == traced

    def test_first_zero_cost_share_is_named(self):
        # the identity start gives y = (0, 0, 1): a and b have no density, a is named
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b", "c")), f=dm.Linear((F(1),) * 3), g=dm.Linear((F(0), F(0), F(1)))
        )
        for run in (dm.solve, dm.final_iterate):
            with pytest.raises(ZeroCostCoordinate, match="^cost share of element a is zero"):
                run(inst, dm.SolverConfig(iterations=3))


class TestGreedyPlusPlus:
    def test_single_element(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("v",)), f=dm.Linear((F(3),)), g=dm.Linear((F(2),))
        )
        trace = dm.solve(inst, dm.SolverConfig(iterations=2, variant="greedypp"))
        assert trace.final_rho == (1.5,)

    def test_p3_converges(self, p3):
        trace = dm.solve(p3, dm.SolverConfig(iterations=5000, variant="greedypp"))
        assert l2(trace.final_rho, (F(2, 3),) * 3) <= 0.02

    def test_removal_beyond_binary64_range(self):
        # the first walk, in the identity order, reads f({a}) and f(V) alone; the
        # first removal reads f(V - a) = f({b}) = 10^400
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")), f=dm.ExplicitTable((0, 1, 10**400, 2)), g=dm.Linear((1, 1))
        )
        with pytest.raises(DomainError, match="^f: a value exceeds the binary64 range$") as exc:
            dm.final_iterate(inst, dm.SolverConfig(iterations=1, variant="greedypp"))
        assert traceback.extract_tb(exc.value.__traceback__)[-1].name == "_removal_order"

    def test_requires_linear_cost(self, sec32):
        with pytest.raises(NotLinearCost):
            dm.solve(sec32, dm.SolverConfig(iterations=5, variant="greedypp"))

    def test_deterministic(self, tri_iso):
        cfg = dm.SolverConfig(iterations=50, variant="greedypp")
        t1 = dm.solve(tri_iso, cfg)
        t2 = dm.solve(tri_iso, cfg)
        assert [r.sigma for r in t1.rows] == [r.sigma for r in t2.rows]
        assert t1.final_rho == t2.final_rho

    @pytest.mark.parametrize("cost,linear", [
        (dm.Scaled(dm.Linear((F(1), F(2))), F(3)), True),
        (dm.Perturbed(dm.Linear((F(1), F(2))), F(1, 2)), True),
        (dm.ConcaveOfCardinality((F(0), F(2), F(4))), True),
        (dm.ComplementOf(dm.Linear((F(1), F(2))), 2), True),
        (dm.EdgesInside(((0, 0, F(1)), (1, 1, F(2)))), True),
        (dm.ConcaveOfCardinality((F(0), F(2), F(3))), False),
        (dm.EdgesInside(((0, 0, F(1)), (1, 1, F(1)), (0, 1, F(1)))), False),
        (dm.ExplicitTable((F(0), F(1), F(2), F(3))), False),
    ], ids=["scaled-linear", "perturbed-linear", "equal-step-concave", "complemented-linear",
            "loops-only-edges", "unequal-concave", "edge-between-two", "explicit-table"])
    def test_linear_cost_gate(self, cost, linear):
        # Greedy++ runs on a cost its spec proves both super- and submodular
        inst = dm.DualModularInstance(ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(1), F(1))), g=cost)
        cfg = dm.SolverConfig(iterations=5, variant="greedypp", arithmetic="rational")
        if linear:
            _, y, _ = dm.final_iterate(inst, cfg)
            # a linear cost's marginals are the same in every order
            assert y == dm.vertex(cost, dm.Permutation((0, 1))) == dm.vertex(cost, dm.Permutation((1, 0)))
        else:
            with pytest.raises(NotLinearCost):
                dm.final_iterate(inst, cfg)


class TestErrorBounds:
    def _normalized(self, g_min=F(1, 3)):
        # two elements, f = (1/2, 1/2), g = (g_min, 1 - g_min), both linear
        return dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y")),
            f=dm.Linear((F(1, 2), F(1, 2))),
            g=dm.Linear((g_min, 1 - g_min)),
            normalized=True,
        )

    def test_quadratic_constants(self):
        inst = self._normalized(F(1, 3))
        b = dm.error_bounds(inst, dm.QUADRATIC, 98)
        assert b.curvature_upper == 432  # 4 * 4 / (1/3)^3
        assert b.objective_gap_upper == F(864, 100)
        assert float(b.objective_gap_upper) == 8.64

    @pytest.mark.parametrize(
        "kind,hessian,absolute,multiplicative",
        [
            # f_min = 1/2, g_min = 1/3, T = 98, so gap = 2 * 4 * hessian / 100
            # kl: 1/g^2 + 1/f; gap / (f g^2 / 2) and gap / (f^3 g^2 / 2)
            (dm.ENTROPY_KL, 11, F(792, 25), F(3168, 25)),
            # eg: 1/g + 1/f^2; gap / (g^3 / 2) and gap / (f^2 g^3 / 2)
            (dm.EISENBERG_GALE, 7, F(756, 25), F(3024, 25)),
        ],
    )
    def test_log_kind_constants(self, kind, hessian, absolute, multiplicative):
        b = dm.error_bounds(self._normalized(F(1, 3)), kind, 98)
        assert b.hessian_upper == hessian
        assert b.objective_gap_upper == F(8 * hessian, 100)
        assert b.absolute_density_upper == math.sqrt(float(absolute))
        assert b.multiplicative_density_upper == math.sqrt(float(multiplicative))

    @pytest.mark.parametrize("kind", [dm.QUADRATIC, dm.ENTROPY_KL, dm.EISENBERG_GALE])
    def test_bound_beyond_binary64_is_infinite(self, kind):
        b = dm.error_bounds(self._normalized(F(1, 10**120)), kind, 98)
        assert b.absolute_density_upper == b.multiplicative_density_upper == math.inf

    def test_no_iterations(self):
        with pytest.raises(SchemaError, match="^T: need at least one iteration$"):
            dm.error_bounds(self._normalized(), dm.QUADRATIC, 0)

    def test_zero_cost_weight(self):
        with pytest.raises(StructuralError, match="^g_min = 0: the cost function is not strictly monotone$"):
            dm.error_bounds(self._normalized(F(0)), dm.QUADRATIC, 98)

    def test_bounds_vanish_with_iterations(self):
        inst = self._normalized()
        b1 = dm.error_bounds(inst, dm.QUADRATIC, 100)
        b2 = dm.error_bounds(inst, dm.QUADRATIC, 10**8)
        assert b2.objective_gap_upper < b1.objective_gap_upper
        assert b2.absolute_density_upper < 1e-2 * b1.absolute_density_upper

    def test_quadratic_scaling_exponents(self):
        inst1 = self._normalized(F(1, 3))
        inst2 = self._normalized(F(1, 6))
        b1 = dm.error_bounds(inst1, dm.QUADRATIC, 100)
        b2 = dm.error_bounds(inst2, dm.QUADRATIC, 100)
        assert b1.scaling["absolute"] == {"g_min": -2.5, "T_plus_2": -0.5}
        assert b1.scaling["multiplicative"] == {"f_min": -1.0, "g_min": -2.5, "T_plus_2": -0.5}
        # halving g_min multiplies the absolute bound by 2^2.5
        assert b2.absolute_density_upper / b1.absolute_density_upper == pytest.approx(2**2.5)
        # quadrupling T+2 halves it
        b4 = dm.error_bounds(inst1, dm.QUADRATIC, 4 * 102 - 2)
        assert b4.absolute_density_upper / b1.absolute_density_upper == pytest.approx(0.5)

    def test_log_kind_bounds_finite_for_positive_fmin(self):
        inst = self._normalized()
        for kind in (dm.ENTROPY_KL, dm.EISENBERG_GALE):
            b = dm.error_bounds(inst, kind, 1000)
            assert math.isfinite(b.absolute_density_upper)
            assert math.isfinite(b.multiplicative_density_upper)

    def test_zero_fmin_suppresses_multiplicative(self, p3, recwarn):
        b = dm.error_bounds(dm.normalize(p3), dm.QUADRATIC, 100)
        assert b.multiplicative_density_upper is None
        assert len(recwarn) == 0  # reported by value alone
        assert math.isfinite(b.absolute_density_upper)

    def test_hockey_stick_rejected(self):
        with pytest.raises(DomainError):
            dm.error_bounds(self._normalized(), dm.HockeyStick(F(1)), 10)

    def test_same_as_the_normalized_companion(self, sec32, p3, tri_iso, hardness):
        # any positive totals: the constants are the normalized companion's,
        # and sec32's g_min = 0 is refused alike on both sides
        def outcome(inst, kind):
            try:
                return dm.error_bounds(inst, kind, 200)
            except StructuralError as exc:
                return type(exc), str(exc)

        insts = [sec32, p3, tri_iso, hardness, dm.load_instance(fixture_path("club8"))]
        rng = np.random.default_rng(37)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            inst = random_instance(rng, n)
            f, g = inst.f, inst.g
            for wrapped_f, wrapped_g in ((f, g), (dm.Scaled(f, F(7, 3)), dm.Perturbed(g, F(1, 5))),
                                         (dm.ComplementOf(dm.ComplementOf(f, n), n), dm.Scaled(g, F(7, 3)))):
                insts.append(dm.DualModularInstance(ground=inst.ground, f=wrapped_f, g=wrapped_g))
        for inst in insts:
            for kind in (dm.QUADRATIC, dm.ENTROPY_KL, dm.EISENBERG_GALE):
                assert outcome(inst, kind) == outcome(dm.normalize(inst), kind)
        assert outcome(sec32, dm.QUADRATIC) == (StructuralError, "g_min = 0: the cost function is not strictly monotone")

    def test_zero_reward_total(self):
        # a residual's reward total may vanish: here f(V \ S | S) = 0 for S = {x, y}
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y", "z")), f=dm.EdgesInside(((0, 1, F(1)),)), g=dm.Linear((F(1), F(1), F(1)))
        )
        with pytest.raises(ZeroTotal) as exc:
            dm.error_bounds(dm.residual_instance(inst, 0b011), dm.QUADRATIC, 10)
        assert exc.value.which == "f"

    def test_gap_dominates_for_every_smooth_kind(self):
        # positive worst-case reward share keeps all three chains finite
        rng = np.random.default_rng(36)
        for _ in range(3):
            inst = dm.normalize(random_instance(rng, int(rng.integers(2, 5)), strict_f=True))
            dec = dm.density_decomposition(inst)
            for kind in dm.STRICTLY_CONVEX_KINDS:
                opt = dm.optimal_objective(dec, inst, kind)
                for T in (10, 100, 1000):
                    trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=T))
                    b = dm.error_bounds(inst, kind, T)
                    phi = dm.divergence(kind, trace.final_x, trace.final_y)
                    assert float(phi) - float(opt) <= float(b.objective_gap_upper)
                    assert l2(trace.final_rho, dec.rho_star) <= b.absolute_density_upper

    def test_gap_dominates_on_fixtures(self, p3, tri_iso):
        for inst in (p3, tri_iso):
            norm = dm.normalize(inst)
            dec = dm.density_decomposition(norm)
            opt = dm.optimal_objective(dec, norm, dm.QUADRATIC)
            for T in (10, 100, 1000):
                trace = dm.frank_wolfe(norm, dm.SolverConfig(iterations=T))
                phi = dm.divergence(dm.QUADRATIC, trace.final_x, trace.final_y)
                b = dm.error_bounds(norm, dm.QUADRATIC, T)
                assert float(phi) - float(opt) <= float(b.objective_gap_upper)
                assert l2(trace.final_rho, dec.rho_star) <= b.absolute_density_upper


class TestHessianFormulas:
    def test_fd_matches_closed_form(self):
        rng = np.random.default_rng(35)
        for _ in range(3):
            n = int(rng.integers(1, 4))
            x = [float(rng.uniform(0.3, 1.2)) for _ in range(n)]
            y = [float(rng.uniform(0.3, 1.2)) for _ in range(n)]
            for kind in dm.STRICTLY_CONVEX_KINDS:
                fd = fd_hessian_max_eig(kind, x, y)
                closed = hessian_closed_form_max(kind.name, x, y)
                assert fd == pytest.approx(closed, rel=1e-4)


class TestTraceExport:
    def test_csv_rows_and_snapshots(self, p3, tmp_path):
        trace = dm.frank_wolfe(p3, dm.SolverConfig(iterations=30, stride=10))
        assert (trace.iterations, len(trace.rows), len(trace.final_rho)) == (30, 30, 3)
        path = os.path.join(tmp_path, "trace.csv")
        trace.to_csv(path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["k", "phi_quadratic", "phi_kl", "phi_eg", "rho_1", "rho_2", "rho_3"]
        assert [row[0] for row in rows[1:]] == [str(k) for k in range(30)]
        # snapshot rows carry densities, intermediate ones do not
        assert all(rows[1][4:])
        assert rows[2][4:] == ["", "", ""]

    def test_rational_csv_writes_fractions(self, tmp_path):
        # a's density is 10^310, beyond binary64: the CSV writes p/q
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(10**300), F(10**290))), g=dm.Linear((F(1, 10**10), F(1)))
        )
        trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=2, stride=1, arithmetic="rational"))
        path = os.path.join(tmp_path, "trace.csv")
        trace.to_csv(path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        row = f"{10**610 + 10**580}/1,,,{10**310}/1,{10**290}/1"
        assert lines == ["k,phi_quadratic,phi_kl,phi_eg,rho_a,rho_b", f"0,{row}", f"1,{row}"]
