import itertools
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest

import dualmod as dm
from dualmod.errors import DecompositionError, SchemaError, ZeroCostCoordinate
from dualmod.fairness import ThresholdRow

from conftest import random_allocation, random_consistent_allocation, random_instance


class TestLocallyMaximin:
    def test_p3_canonical(self, p3):
        a = dm.Allocation(x=(F(2, 3),) * 3, y=(F(1),) * 3)
        report = dm.is_locally_maximin(p3, a)
        assert report.is_locally_maximin
        assert len(report.thresholds) == 1
        row = report.thresholds[0]
        assert row.rho == F(2, 3)
        assert row.mask == p3.ground.full_mask
        assert row.reward_slack == 0 and row.cost_slack == 0

    def test_constant_density_always_passes(self):
        # proportional linear pair: the bases are single points, every density
        # equals the ratio, and the one threshold is tight by the sum
        # constraints alone
        rng = np.random.default_rng(21)
        for _ in range(5):
            n = int(rng.integers(2, 5))
            weights = tuple(F(int(rng.integers(1, 9)), int(rng.integers(1, 5))) for _ in range(n))
            c = F(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
            inst = dm.DualModularInstance(
                ground=dm.GroundSet(tuple(f"v{i}" for i in range(n))),
                f=dm.Scaled(dm.Linear(weights), c),
                g=dm.Linear(weights),
            )
            a = dm.Allocation(x=tuple(c * w for w in weights), y=weights)
            assert dm.check_base_membership(inst, a).both
            report = dm.is_locally_maximin(inst, a)
            assert report.is_locally_maximin
            assert len(report.thresholds) == 1

    def test_p3_vertex_fails_with_witness(self, p3):
        sigma = dm.Permutation((0, 1, 2))
        a = dm.Allocation(x=dm.vertex(p3.f, sigma), y=dm.vertex(p3.g, sigma))
        assert a.x == (0, 1, 1) and a.y == (1, 1, 1)
        report = dm.is_locally_maximin(p3, a)
        assert not report.is_locally_maximin
        v = report.first_violation
        assert v.rho == 1
        assert v.mask == 0b110  # elements 2 and 3 of the path
        assert v.reward_slack == 1  # x(S) = 2 exceeds f(S) = 1

    @pytest.mark.parametrize("size", [2, 4])
    def test_allocation_of_another_length(self, p3, size):
        a = dm.Allocation(x=(F(2, 3),) * size, y=(F(1),) * size)
        with pytest.raises(SchemaError, match=rf"^allocation: length {size} does not match n=3$"):
            dm.is_locally_maximin(p3, a)
        with pytest.raises(SchemaError, match=rf"^allocation: length {size} does not match n=3$"):
            dm.equivalence_report(p3, a, dm.density_decomposition(p3))

    def test_length_checked_before_densities(self, p3):
        # a zero cost share past the ground set has no label to name
        a = dm.Allocation(x=(F(1),) * 4, y=(F(1),) * 3 + (F(0),))
        for check in (dm.is_locally_maximin, lambda inst, a: dm.equivalence_report(inst, a, dm.density_decomposition(inst))):
            with pytest.raises(SchemaError, match=r"^allocation: length 4 does not match n=3$"):
                check(p3, a)

    def test_zero_cost_propagates(self, sec32):
        a = dm.Allocation(x=(F(1), F(0), F(1)), y=(F(1), F(0), F(2)))
        with pytest.raises(ZeroCostCoordinate):
            dm.is_locally_maximin(sec32, a)

    def test_one_walk_matches_the_level_loop(self):
        tied = float_tied = 0
        for inst, a in maximin_cases(np.random.default_rng(26)):
            assert repr(dm.is_locally_maximin(inst, a)) == repr(level_loop_report(inst, a))
            rho = dm.induced_densities(a)
            if len(set(rho)) < inst.n:
                tied += 1
                float_tied += any(isinstance(r, float) for r in rho)
        assert tied >= 100 and float_tied >= 80

    def test_no_value_call(self):
        cases = list(maximin_cases(np.random.default_rng(27)))
        with mock.patch.object(dm.SetFunctionSpec, "value", side_effect=AssertionError("a value walk")):
            for inst, a in cases:
                dm.is_locally_maximin(inst, a)


def level_loop_report(inst, allocation):
    """The report as a scan of all n elements and a ``value`` walk of f and
    of g per density level, levels by ``sorted(set(rho))``."""
    rho = dm.induced_densities(allocation, labels=inst.ground.labels)
    rows = []
    violation = None
    mask = 0
    x_sum = 0
    y_sum = 0
    for level in sorted(set(rho), reverse=True):
        for u in range(inst.n):
            if rho[u] == level:
                mask |= 1 << u
                x_sum += allocation.x[u]
                y_sum += allocation.y[u]
        row = ThresholdRow(
            rho=level,
            mask=mask,
            reward_slack=x_sum - inst.f.value(mask),
            cost_slack=inst.g.value(mask) - y_sum,
        )
        rows.append(row)
        if violation is None and (row.reward_slack != 0 or row.cost_slack != 0):
            violation = row
    return dm.MaximinReport(violation is None, tuple(rows), violation)


def maximin_cases(rng):
    """(instance, allocation) pairs: exact mixtures, consistent with the
    decomposition or not, and shares with up to three tied density levels,
    each also in binary64 and with every other reward share in binary64 (a
    level of float and Fraction densities); and binary64 Frank-Wolfe
    iterates, on the instance and on a linear pair whose reward is twice its
    cost, where every density is 2.0."""
    for _ in range(30):
        n = int(rng.integers(2, 7))
        inst = random_instance(rng, n)
        dec = dm.density_decomposition(inst)
        y = tuple(F(int(v), int(d)) for v, d in zip(rng.integers(1, 9, size=n), rng.integers(1, 4, size=n)))
        tied = dm.Allocation(tuple(int(r) * v for r, v in zip(rng.integers(1, 4, size=n), y)), y)
        for a in (random_consistent_allocation(rng, inst, dec), random_allocation(rng, inst), tied):
            yield inst, a
            yield inst, dm.Allocation(tuple(map(float, a.x)), tuple(map(float, a.y)))
            yield inst, dm.Allocation(tuple(float(v) if u % 2 else v for u, v in enumerate(a.x)), a.y)
        cfg = dm.SolverConfig(iterations=int(rng.integers(1, 40)))
        yield inst, dm.Allocation(*dm.final_iterate(inst, cfg)[:2])
        pair = dm.DualModularInstance(ground=inst.ground, f=dm.Scaled(dm.Linear(y), F(2)), g=dm.Linear(y))
        yield pair, dm.Allocation(*dm.final_iterate(pair, cfg)[:2])


class TestLexCompare:
    def test_third_coordinate_decides(self):
        assert dm.lex_compare((1, 1, F(1, 2)), (1, 1, 1)) == -1

    def test_order_of_elements_irrelevant(self):
        assert dm.lex_compare((3, 1, 2), (1, 2, 3)) == 0

    def test_max_decides(self):
        assert dm.lex_compare((2, 0), (1, 1)) == 1

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            dm.lex_compare((1,), (1, 2))


class TestEquivalenceReport:
    def test_p3_canonical(self, p3):
        dec = dm.density_decomposition(p3)
        a = dm.Allocation(x=(F(2, 3),) * 3, y=(F(1),) * 3)
        rep = dm.equivalence_report(p3, a, dec)
        assert rep.densities_match and rep.locally_maximin and rep.agree
        assert rep.lex_order == 0

    def test_p3_vertex(self, p3):
        dec = dm.density_decomposition(p3)
        sigma = dm.Permutation((0, 1, 2))
        a = dm.Allocation(x=dm.vertex(p3.f, sigma), y=dm.vertex(p3.g, sigma))
        rep = dm.equivalence_report(p3, a, dec)
        assert not rep.densities_match and not rep.locally_maximin and rep.agree
        assert rep.lex_order == 1  # sorted (1, 1, 0) is lex-worse than (2/3,) * 3

    def test_single_element(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("v",)), f=dm.Linear((F(3),)), g=dm.Linear((F(2),))
        )
        dec = dm.density_decomposition(inst)
        a = dm.Allocation(x=(F(3),), y=(F(2),))
        rep = dm.equivalence_report(inst, a, dec)
        assert rep.densities_match and rep.locally_maximin and rep.agree

    def test_densities_computed_once(self):
        # the level walk reads the densities the report computed, and its
        # report is the one is_locally_maximin gives
        for inst, a in maximin_cases(np.random.default_rng(28)):
            dec = dm.density_decomposition(inst)
            with mock.patch("dualmod.fairness.induced_densities", wraps=dm.induced_densities) as spy:
                rep = dm.equivalence_report(inst, a, dec)
            assert spy.call_count == 1
            assert repr(rep.maximin) == repr(dm.is_locally_maximin(inst, a))

    def test_decomposition_of_another_ground_set(self, p3):
        dec = dm.DensityDecomposition(n=4, parts=(0b1111,), densities=(F(1),), rho_star=(F(1),) * 4)
        a = dm.Allocation(x=(F(2, 3),) * 3, y=(F(1),) * 3)
        with pytest.raises(DecompositionError, match="does not match the instance"):
            dm.equivalence_report(p3, a, dec)

    def test_equivalence_on_consistent_mixtures(self):
        # density agreement and the level-set condition are two faces of the
        # same property: they must flip together on every generated mixture
        rng = np.random.default_rng(22)
        maximin_seen = 0
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            dec = dm.density_decomposition(inst)
            for _ in range(3):
                a = random_consistent_allocation(rng, inst, dec)
                rep = dm.equivalence_report(inst, a, dec)
                assert rep.agree
                if rep.locally_maximin:
                    maximin_seen += 1
                    assert rep.lex_order == 0
                else:
                    assert rep.lex_order == 1
        assert maximin_seen > 0

    def test_fair_vector_lex_beats_every_vertex(self):
        # the decomposition vector never lex-exceeds the densities of any
        # single-permutation allocation
        rng = np.random.default_rng(24)
        for _ in range(10):
            n = int(rng.integers(2, 5))
            inst = random_instance(rng, n, strict_f=True)
            dec = dm.density_decomposition(inst)
            for order in itertools.permutations(range(n)):
                sigma = dm.Permutation(order)
                a = dm.Allocation(x=dm.vertex(inst.f, sigma), y=dm.vertex(inst.g, sigma))
                rho = dm.induced_densities(a)
                assert dm.lex_compare(dec.rho_star, rho) <= 0
