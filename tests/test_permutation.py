import itertools
from fractions import Fraction as F

import numpy as np
import pytest

import dualmod as dm
from dualmod.errors import SchemaError, WeightSumMismatch, ZeroCostCoordinate

from conftest import random_allocation, random_instance


class TestVertex:
    def test_reward_vertex_awb(self, sec32):
        sigma = dm.Permutation((0, 1, 2))  # a, w, b
        assert dm.vertex(sec32.f, sigma) == (1, 0, 1)

    def test_cost_vertex_bwa(self, sec32):
        sigma = dm.Permutation((2, 1, 0))  # b, w, a
        v = dm.vertex(sec32.g, sigma)
        # marginals in arrival order are 2, 1, 0
        assert [v[u] for u in sigma.order] == [2, 1, 0]
        assert v == (0, 1, 2)

    def test_telescoping_sum(self, sec32, p3, tri_iso):
        rng = np.random.default_rng(1)
        for inst in (sec32, p3, tri_iso):
            n = inst.n
            for _ in range(5):
                order = list(range(n))
                rng.shuffle(order)
                sigma = dm.Permutation(tuple(order))
                assert sum(dm.vertex(inst.f, sigma)) == inst.f.value(inst.ground.full_mask)
                assert sum(dm.vertex(inst.g, sigma)) == inst.g.value(inst.ground.full_mask)

    def test_rejects_non_permutation(self):
        with pytest.raises(SchemaError):
            dm.Permutation((0, 0, 1))

    @pytest.mark.parametrize("spec", [dm.Linear((F(1), F(2))), dm.ConcaveOfCardinality((F(0), F(2), F(3)))], ids=["linear", "concave"])
    @pytest.mark.parametrize("order", [(0, 1, 2), (0,)], ids=["longer", "shorter"])
    def test_rejects_an_order_of_another_length(self, spec, order):
        # a kind built for n = 2 walks only permutations of 2 elements
        with pytest.raises(SchemaError, match=rf"^order: length {len(order)} does not match n=2$"):
            dm.vertex(spec, dm.Permutation(order))

    def test_rejects_an_order_short_of_the_edges(self):
        # an edge reward fits any ground set that holds its endpoints: a
        # shorter order would drop edge (1, 1), a longer one is accepted
        edges = dm.EdgesInside(((0, 1, F(1)), (1, 1, F(2))))
        with pytest.raises(SchemaError, match=r"^edges: edge \(0, 1\) outside ground set of size 1$"):
            dm.vertex(edges, dm.Permutation((0,)))
        assert dm.vertex(edges, dm.Permutation((1, 0, 2))) == (1, 2, 0)


class TestMixture:
    def test_single_permutation(self, sec32):
        sigma = dm.Permutation((0, 1, 2))
        one = dm.WeightedPermutationList.single(sigma)
        a = dm.allocation_from_mixture(sec32, one, one)
        assert a.x == (1, 0, 1)
        assert a.y == (1, 0, 2)

    def test_uniform_mixture_symmetric_instance(self):
        # unweighted triangle: every element is interchangeable
        edges = tuple((u, v, F(1)) for u, v in ((0, 1), (1, 2), (0, 2)))
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y", "z")),
            f=dm.EdgesInside(edges),
            g=dm.Linear((F(1), F(1), F(1))),
        )
        sigmas = [dm.Permutation(p) for p in itertools.permutations(range(3))]
        mix = dm.WeightedPermutationList.uniform(sigmas)
        a = dm.allocation_from_mixture(inst, mix, mix)
        assert a.x == (1, 1, 1)
        assert a.y == (1, 1, 1)

    def test_p3_half_half(self, p3):
        mix = dm.WeightedPermutationList(
            (
                (dm.Permutation((0, 1, 2)), F(1, 2)),
                (dm.Permutation((2, 1, 0)), F(1, 2)),
            )
        )
        a = dm.allocation_from_mixture(p3, mix, mix)
        # cross-check against the average of the two vertex vectors
        v1 = dm.vertex(p3.f, dm.Permutation((0, 1, 2)))
        v2 = dm.vertex(p3.f, dm.Permutation((2, 1, 0)))
        assert a.x == tuple((p + q) / 2 for p, q in zip(v1, v2))
        assert a.x == (F(1, 2), 1, F(1, 2))

    @pytest.mark.parametrize("side", ["reward", "cost"])
    def test_rejects_an_order_of_another_length(self, side):
        # an edge function fits any n, so only the instance tells the lengths apart
        edges = dm.EdgesInside(((0, 1, F(1)), (0, 0, F(1)), (1, 1, F(1))))
        inst = dm.DualModularInstance(ground=dm.GroundSet(("x", "y")), f=edges, g=edges, check_totals=False)
        fits = dm.WeightedPermutationList.single(dm.Permutation((0, 1)))
        longer = dm.WeightedPermutationList.single(dm.Permutation((0, 1, 2)))
        p, q = (longer, fits) if side == "reward" else (fits, longer)
        with pytest.raises(SchemaError, match=r"^order: length 3 does not match n=2$"):
            dm.allocation_from_mixture(inst, p, q)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightSumMismatch):
            dm.WeightedPermutationList(((dm.Permutation((0, 1)), F(1, 2)),))

    @pytest.mark.parametrize("w", [F(0), F(-1, 2)], ids=["zero", "negative"])
    def test_weights_must_be_positive(self, w):
        with pytest.raises(SchemaError, match="^weights: "):
            dm.WeightedPermutationList(((dm.Permutation((0, 1)), 1 - w), (dm.Permutation((1, 0)), w)))


class TestMembership:
    def test_sec32_vertex_allocation(self, sec32):
        a = dm.Allocation(x=(F(1), F(0), F(1)), y=(F(1), F(0), F(2)))
        assert dm.check_base_membership(sec32, a).both

    def test_rejects_with_witness(self, sec32):
        a = dm.Allocation(x=(F(0), F(0), F(2)), y=(F(1), F(0), F(2)))
        report = dm.check_base_membership(sec32, a)
        assert not report.x_in_reward_base
        assert report.x_witness == 1  # {a}: x({a}) = 0 < f({a}) = 1
        assert report.y_in_cost_base

    def test_vertex_allocations_always_feasible(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            order = list(range(n))
            rng.shuffle(order)
            sigma = dm.Permutation(tuple(order))
            a = dm.Allocation(x=dm.vertex(inst.f, sigma), y=dm.vertex(inst.g, sigma))
            assert dm.check_base_membership(inst, a).both

    def test_mixtures_always_feasible(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            a = random_allocation(rng, inst)
            assert dm.check_base_membership(inst, a).both

    def test_allocation_of_another_length(self, p3):
        a = dm.Allocation(x=(F(1), F(1)), y=(F(1), F(1)))
        with pytest.raises(SchemaError, match="^allocation: length 2 does not match n=3$"):
            dm.check_base_membership(p3, a)

    def test_sum_constraint(self, p3):
        a = dm.Allocation(x=(F(1), F(1), F(1)), y=(F(1), F(1), F(1)))  # x sums to 3 != 2
        report = dm.check_base_membership(p3, a)
        assert not report.x_in_reward_base
        assert report.x_witness == p3.ground.full_mask


class TestAllocation:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), np.float32("nan")], ids=["nan", "inf", "float32-nan"])
    @pytest.mark.parametrize("name", ["x", "y"])
    def test_refuses_a_share_that_is_not_finite(self, bad, name):
        shares = {"x": (0.5, 1.0, 1.0), "y": (1.0, 1.0, 1.0)}
        shares[name] = shares[name][:1] + (bad,) + shares[name][2:]
        with pytest.raises(SchemaError, match=rf"^allocation: {name}\[1\] = {bad} is not finite$"):
            dm.Allocation(**shares)


class TestInducedDensities:
    def test_equal_vectors_give_ones(self):
        a = dm.Allocation(x=(F(1, 3), F(2, 3)), y=(F(1, 3), F(2, 3)))
        assert dm.induced_densities(a) == (1, 1)

    def test_p3_canonical(self):
        a = dm.Allocation(x=(F(2, 3),) * 3, y=(F(1),) * 3)
        assert dm.induced_densities(a) == (F(2, 3), F(2, 3), F(2, 3))

    def test_int_shares_past_the_float_range(self):
        # 10^400 / 1 as a binary64 quotient would overflow
        assert dm.induced_densities(dm.Allocation(x=(10**400, 1), y=(1, 1))) == (F(10**400), F(1))

    def test_zero_cost_coordinate(self, sec32):
        a = dm.Allocation(x=(F(1), F(0), F(1)), y=(F(1), F(0), F(2)))
        with pytest.raises(ZeroCostCoordinate) as exc:
            dm.induced_densities(a, labels=sec32.ground.labels)
        assert exc.value.element == 1
        assert exc.value.label == "w"


class TestSortByDensity:
    def test_strict_order(self):
        assert dm.sort_by_density((F(2), F(1), F(3))).order == (2, 0, 1)

    def test_all_equal_gives_identity(self):
        assert dm.sort_by_density((F(1), F(1), F(1))).order == (0, 1, 2)

    def test_tie_then_strict(self):
        assert dm.sort_by_density((F(1), F(1), F(1, 2))).order == (0, 1, 2)

    def test_matches_sort_on_negated_density_then_index(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            n = int(rng.integers(1, 12))
            # few distinct values, so most vectors carry ties; signed zeros too
            pool = [F(int(rng.integers(0, 4)), int(rng.integers(1, 3))) for _ in range(3)]
            rho = [pool[int(i)] for i in rng.integers(0, 3, size=n)]
            floats = [float(v) if v else (-0.0 if rng.random() < 0.5 else 0.0) for v in rho]
            for vec in (rho, tuple(rho), floats):
                expected = sorted(range(n), key=lambda u: (-vec[u], u))
                assert dm.sort_by_density(vec).order == tuple(expected)


class TestPositionMonotonicity:
    def test_adjacent_transposition(self):
        # moving an element later never decreases its reward marginal and
        # never increases its cost marginal
        rng = np.random.default_rng(4)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            for _ in range(10):
                order = list(range(n))
                rng.shuffle(order)
                i = int(rng.integers(0, n - 1))
                swapped = list(order)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                u = order[i]  # u moves later in `swapped`
                fv1 = dm.vertex(inst.f, dm.Permutation(tuple(order)))
                fv2 = dm.vertex(inst.f, dm.Permutation(tuple(swapped)))
                gv1 = dm.vertex(inst.g, dm.Permutation(tuple(order)))
                gv2 = dm.vertex(inst.g, dm.Permutation(tuple(swapped)))
                assert fv2[u] >= fv1[u]
                assert gv2[u] <= gv1[u]
