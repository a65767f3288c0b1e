import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dualmod as dm
from dualmod.errors import DomainError, SchemaError, ZeroCostCoordinate

from conftest import consistent_permutation, random_allocation, random_instance


class TestDivergence:
    def test_zero_cost_rejected(self):
        with pytest.raises(ZeroCostCoordinate):
            dm.divergence(dm.QUADRATIC, (F(1), F(0), F(1)), (F(1), F(0), F(2)))

    def test_quadratic_self_divergence(self):
        x = (F(1, 3), F(1, 6), F(1, 2))
        assert dm.divergence(dm.QUADRATIC, x, x) == sum(x)

    def test_hockey_stick_sum_form(self):
        value = dm.divergence(dm.HockeyStick(F(1)), (F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
        assert value == F(1, 4)

    def test_kl_zero_reward_coordinate(self):
        # 0 * log 0 is taken as 0
        value = dm.divergence(dm.ENTROPY_KL, (F(0), F(1)), (F(1, 2), F(1, 2)))
        assert value == pytest.approx(0.5 * 2 * math.log(2))

    def test_eg_rejects_zero_reward(self):
        with pytest.raises(DomainError):
            dm.divergence(dm.EISENBERG_GALE, (F(0), F(1)), (F(1, 2), F(1, 2)))

    def test_negative_reward_rejected(self):
        with pytest.raises(DomainError):
            dm.divergence(dm.QUADRATIC, (F(-1), F(1)), (F(1), F(1)))

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            dm.divergence(dm.QUADRATIC, (F(1),), (F(1), F(1)))


class TestSupForm:
    def test_gamma_zero_takes_everything(self):
        x = (F(1, 2), F(1, 4), F(1, 4))
        y = (F(1, 3), F(1, 3), F(1, 3))
        value, mask = dm.hockey_stick_sup_form(x, y, F(0))
        assert value == 1
        assert mask == 0b111

    def test_small_example(self):
        value, mask = dm.hockey_stick_sup_form((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), F(1))
        assert value == F(1, 4)
        assert mask == 0b01

    def test_length_mismatch(self):
        with pytest.raises(SchemaError, match="^divergence: x and y must have the same length$"):
            dm.hockey_stick_sup_form((F(1),), (F(1), F(1)), F(1))

    def test_all_negative_gives_empty(self):
        value, mask = dm.hockey_stick_sup_form((F(1, 4), F(1, 4)), (F(1), F(1)), F(2))
        assert value == 0
        assert mask == 0

    def test_matches_sum_form_on_random_allocations(self):
        rng = np.random.default_rng(12)
        checked = 0
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            a = random_allocation(rng, inst)
            for gamma in (F(0), F(1, 2), F(1), F(2), F(7, 3)):
                sum_form = dm.divergence(dm.HockeyStick(gamma), a.x, a.y)
                sup_form, _ = dm.hockey_stick_sup_form(a.x, a.y, gamma)
                assert sum_form == sup_form
                checked += 1
        assert checked >= 200


def enumerated_sup(x, y, gamma):
    """Oracle: x(S) - gamma * y(S) on all 2^n subsets; the maximum and every mask attaining it."""
    values = [F(0)]
    for u, (xu, yu) in enumerate(zip(x, y)):
        values += [v + xu - gamma * yu for v in values]  # the masks that hold u, after those below 1 << u
    best = max(values)
    return best, [mask for mask, v in enumerate(values) if v == best]


small_fractions = st.fractions(min_value=0, max_value=3, max_denominator=4)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(*[st.tuples(small_fractions, small_fractions)] * n)), small_fractions)
@example(((F(1), F(1)), (F(1, 2), F(1)), (F(2), F(1))), F(1))  # a zero difference in the middle
def test_sup_form_matches_enumeration(pairs, gamma):
    x, y = [p[0] for p in pairs], [p[1] for p in pairs]
    value, mask = dm.hockey_stick_sup_form(x, y, gamma)
    best, maximisers = enumerated_sup(x, y, gamma)
    assert value == best
    assert mask in maximisers
    # the canonical maximiser is the largest one: every other lies inside it
    assert all(m | mask == mask for m in maximisers)


class TestObjective:
    def test_p3_canonical_quadratic(self, p3):
        a = dm.Allocation(x=(F(2, 3),) * 3, y=(F(1),) * 3)
        assert dm.objective(p3, a, dm.QUADRATIC) == F(4, 3)

    def test_single_element(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("v",)), f=dm.Linear((F(3),)), g=dm.Linear((F(2),))
        )
        a = dm.Allocation(x=(F(3),), y=(F(2),))
        for kind in (dm.QUADRATIC, dm.ENTROPY_KL, dm.EISENBERG_GALE, dm.HockeyStick(F(1))):
            got = dm.objective(inst, a, kind)
            expected = 2 * kind.theta(F(3, 2))
            if isinstance(got, F):
                assert got == expected
            else:
                assert got == pytest.approx(expected)

    def test_int_shares_are_exact(self):
        inst = dm.DualModularInstance(ground=dm.GroundSet(("a", "b")), f=dm.Linear((1, 2)), g=dm.Linear((3, 3)))
        value = dm.objective(inst, dm.Allocation(x=(1, 2), y=(3, 3)), dm.QUADRATIC)
        assert isinstance(value, F) and value == F(5, 3)

    def test_allocation_of_another_length(self, p3):
        a = dm.Allocation(x=(F(1), F(1)), y=(F(1), F(1)))
        with pytest.raises(SchemaError, match="^allocation: length does not match the ground set$"):
            dm.objective(p3, a, dm.QUADRATIC)

    def test_p3_canonical_hockey_stick(self, p3):
        a = dm.Allocation(x=(F(2, 3),) * 3, y=(F(1),) * 3)
        assert dm.objective(p3, a, dm.HockeyStick(F(1, 2))) == F(1, 2)


class TestConvexity:
    def test_objective_convex_along_mixtures(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            a = random_allocation(rng, inst)
            b = random_allocation(rng, inst)
            for lam in (F(1, 4), F(1, 2), F(3, 4)):
                mid = dm.Allocation(
                    x=tuple(lam * p + (1 - lam) * q for p, q in zip(a.x, b.x)),
                    y=tuple(lam * p + (1 - lam) * q for p, q in zip(a.y, b.y)),
                )
                for kind in (dm.QUADRATIC, dm.HockeyStick(F(1))):
                    lhs = dm.objective(inst, mid, kind)
                    rhs = lam * dm.objective(inst, a, kind) + (1 - lam) * dm.objective(inst, b, kind)
                    assert lhs <= rhs
                for kind in (dm.ENTROPY_KL, dm.EISENBERG_GALE):
                    try:
                        lhs = dm.objective(inst, mid, kind)
                        rhs = float(lam) * dm.objective(inst, a, kind) + (
                            1 - float(lam)
                        ) * dm.objective(inst, b, kind)
                    except DomainError:
                        continue
                    assert lhs <= rhs + 1e-12


class TestOptimalConsistency:
    def test_objective_at_fair_allocation_matches_closed_form(self):
        # decomposition-ordered vertices of singleton-part instances are
        # exactly locally maximin, so the divergence there must equal the
        # closed-form optimum for every generator
        rng = np.random.default_rng(14)
        found = 0
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            dec = dm.density_decomposition(inst)
            if any(p.bit_count() != 1 for p in dec.parts):
                continue
            sigma = consistent_permutation(rng, dec)
            one = dm.WeightedPermutationList.single(sigma)
            a = dm.allocation_from_mixture(inst, one, one)
            assert dm.is_locally_maximin(inst, a).is_locally_maximin
            found += 1
            for kind in (dm.QUADRATIC, dm.HockeyStick(F(1)), dm.HockeyStick(F(1, 2))):
                assert dm.objective(inst, a, kind) == dm.optimal_objective(dec, inst, kind)
            for kind in (dm.ENTROPY_KL, dm.EISENBERG_GALE):
                try:
                    got = dm.objective(inst, a, kind)
                except DomainError:
                    continue
                want = dm.optimal_objective(dec, inst, kind)
                assert got == pytest.approx(want, rel=1e-9)
        assert found >= 5


class TestKindParsing:
    def test_round_trips(self):
        assert dm.kind_from_string("quadratic") is dm.QUADRATIC
        assert dm.kind_from_string("kl") is dm.ENTROPY_KL
        assert dm.kind_from_string("eg") is dm.EISENBERG_GALE
        hs = dm.kind_from_string("hs:3/2")
        assert isinstance(hs, dm.HockeyStick) and hs.gamma == F(3, 2)

    def test_unknown(self):
        with pytest.raises(SchemaError):
            dm.kind_from_string("cauchy")

    def test_strict_convexity_flags(self):
        for kind in (dm.QUADRATIC, dm.ENTROPY_KL, dm.EISENBERG_GALE):
            assert kind in dm.STRICTLY_CONVEX_KINDS
        assert dm.HockeyStick(F(1)) not in dm.STRICTLY_CONVEX_KINDS
