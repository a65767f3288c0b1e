import itertools
from fractions import Fraction as F

import numpy as np
import pytest

import dualmod as dm
from dualmod.errors import (
    NegativeEta,
    NotStrictlyMonotone,
    SchemaError,
    StructuralError,
    ZeroTotal,
)

from conftest import random_instance


def masks(ground, *labels):
    return ground.mask_of(labels)


def extremes_by_permutations(inst):
    """Independent oracle: the extremal marginals met along all n! orders."""
    ftab, gtab = inst.tables()
    seen_f, seen_g = [], []
    for order in itertools.permutations(range(inst.n)):
        prefix = 0
        for u in order:
            nxt = prefix | (1 << u)
            seen_f.append(ftab[nxt] - ftab[prefix])
            seen_g.append(gtab[nxt] - gtab[prefix])
            prefix = nxt
    return dm.Extremes(
        f_min=min(seen_f), f_max=max(seen_f), g_min=min(seen_g), g_max=max(seen_g)
    )


class TestGroundSet:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(SchemaError):
            dm.GroundSet(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            dm.GroundSet(())

    def test_mask_roundtrip(self):
        g = dm.GroundSet(("a", "w", "b"))
        m = g.mask_of(["a", "b"])
        assert m == 0b101
        assert g.labels_of(m) == ["a", "b"]


class TestEvaluate:
    def test_table_values(self, sec32):
        g = sec32.ground
        assert dm.evaluate(sec32.f, masks(g, "a", "w")) == 1
        assert dm.evaluate(sec32.f, g.full_mask) == 2
        assert dm.evaluate(sec32.g, masks(g, "a", "w")) == 1
        assert dm.evaluate(sec32.g, g.full_mask) == 3

    def test_empty_set_is_zero(self, sec32, p3, tri_iso):
        for inst in (sec32, p3, tri_iso):
            assert dm.evaluate(inst.f, 0) == 0
            assert dm.evaluate(inst.g, 0) == 0

    def test_edges_inside_path(self, p3):
        # count edges with both endpoints inside, by enumeration
        edges = [(0, 1), (1, 2)]
        for mask in range(8):
            expected = sum(1 for u, v in edges if mask >> u & 1 and mask >> v & 1)
            assert dm.evaluate(p3.f, mask) == expected

    def test_explicit_table_out_of_range(self, sec32):
        with pytest.raises(SchemaError):
            dm.evaluate(sec32.f, 8)


class TestMarginal:
    def test_reward_marginal(self, sec32):
        g = sec32.ground
        assert dm.marginal(sec32.f, masks(g, "b"), masks(g, "a", "w")) == 1

    def test_cost_marginal(self, sec32):
        g = sec32.ground
        assert dm.marginal(sec32.g, masks(g, "b"), masks(g, "a", "w")) == 2

    def test_marginal_over_empty_prefix(self, sec32):
        for s in range(8):
            assert dm.marginal(sec32.f, s, 0) == dm.evaluate(sec32.f, s)

    def test_union_semantics(self, sec32):
        g = sec32.ground
        s = masks(g, "a", "b")
        a = masks(g, "a", "w")
        assert dm.marginal(sec32.f, s, a) == dm.evaluate(sec32.f, s | a) - dm.evaluate(sec32.f, a)


class TestSpecValidation:
    def test_table_needs_power_of_two(self):
        with pytest.raises(SchemaError):
            dm.ExplicitTable((F(0), F(1), F(2)))

    def test_table_needs_zero_on_empty(self):
        with pytest.raises(SchemaError):
            dm.ExplicitTable((F(1), F(1)))

    def test_negative_values_rejected(self):
        with pytest.raises(SchemaError):
            dm.ExplicitTable((F(0), F(-1)))
        with pytest.raises(SchemaError):
            dm.EdgesInside(((0, 1, F(-1)),))
        with pytest.raises(SchemaError):
            dm.Linear((F(-1),))

    def test_concave_increments(self):
        with pytest.raises(SchemaError):
            dm.ConcaveOfCardinality((F(0), F(1), F(3)))  # increment grows
        dm.ConcaveOfCardinality((F(0), F(2), F(3)))  # fine


class TestVerify:
    def test_sec32_report(self, sec32):
        report = dm.verify_dual_modularity(sec32)
        assert report.f_supermodular
        assert report.f_monotone
        assert report.g_submodular
        assert report.g_monotone
        assert not report.g_strictly_monotone
        # first witness pair is {a} strictly inside {a,w} with equal cost
        g = sec32.ground
        assert report.witnesses["g_strictly_monotone"] == (masks(g, "a"), masks(g, "a", "w"))
        assert not report.dual_modular

    def test_linear_pair_passes_everything(self):
        ground = dm.GroundSet(("x", "y"))
        inst = dm.DualModularInstance(
            ground=ground, f=dm.Linear((F(2), F(1))), g=dm.Linear((F(1), F(1)))
        )
        report = dm.verify_dual_modularity(inst)
        assert report.dual_modular and report.f_monotone

    def test_triangle_reward(self, tri_iso):
        report = dm.verify_dual_modularity(tri_iso)
        assert report.f_supermodular and report.f_monotone
        assert report.dual_modular

    def test_size_cap(self, sec32):
        with pytest.raises(dm.errors.GroundSetTooLarge):
            dm.verify_dual_modularity(sec32, max_n=2)

    def test_supermodularity_witness_is_real(self):
        # not supermodular: concave of cardinality used as a reward
        ground = dm.GroundSet(("x", "y"))
        inst = dm.DualModularInstance(
            ground=ground,
            f=dm.ConcaveOfCardinality((F(0), F(2), F(3))),
            g=dm.Linear((F(1), F(1))),
        )
        report = dm.verify_dual_modularity(inst)
        assert not report.f_supermodular
        a, b = report.witnesses["f_supermodular"]
        fa, fb = inst.f.value(a), inst.f.value(b)
        assert fa + fb > inst.f.value(a & b) + inst.f.value(a | b)


class TestPerturb:
    def test_zero_eta_identity(self, sec32):
        tilde = dm.perturb_strict(sec32.g, F(0))
        for s in range(8):
            assert tilde.value(s) == sec32.g.value(s)

    def test_perturbed_value(self, sec32):
        tilde = dm.perturb_strict(sec32.g, F(1, 100))
        g = sec32.ground
        assert tilde.value(masks(g, "a", "w")) == F(51, 50)

    def test_restores_strict_monotonicity(self, sec32):
        inst = dm.DualModularInstance(
            ground=sec32.ground, f=sec32.f, g=dm.perturb_strict(sec32.g, F(1, 100))
        )
        report = dm.verify_dual_modularity(inst)
        assert report.g_strictly_monotone and report.dual_modular

    def test_negative_eta(self, sec32):
        with pytest.raises(NegativeEta):
            dm.perturb_strict(sec32.g, F(-1, 10))


class TestComplement:
    def _strict_instance(self):
        ground = dm.GroundSet(("x", "y"))
        return dm.DualModularInstance(
            ground=ground, f=dm.Linear((F(2), F(1))), g=dm.Linear((F(1), F(1)))
        )

    def test_linear_self_complementary(self):
        inst = self._strict_instance()
        comp = dm.complement_instance(inst)
        for s in range(4):
            assert comp.f.value(s) == inst.g.value(s)  # reward is complemented cost
            assert comp.g.value(s) == inst.f.value(s)

    def test_involution(self):
        inst = self._strict_instance()
        back = dm.complement_instance(dm.complement_instance(inst))
        for s in range(4):
            assert back.f.value(s) == inst.f.value(s)
            assert back.g.value(s) == inst.g.value(s)

    def test_total_preserved(self):
        inst = self._strict_instance()
        comp = dm.complement_instance(inst)
        assert comp.f.value(3) == inst.g.value(3)

    def test_requires_strict_reward(self, p3):
        # path-graph reward vanishes on singletons, so it is not strictly monotone
        with pytest.raises(NotStrictlyMonotone):
            dm.complement_instance(p3)

    def test_roles_swap(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            inst = random_instance(rng, int(rng.integers(2, 6)), strict_f=True)
            comp = dm.complement_instance(inst)
            report = dm.verify_dual_modularity(comp)
            assert report.dual_modular


class TestNormalize:
    def test_already_normalized(self):
        ground = dm.GroundSet(("x", "y"))
        inst = dm.DualModularInstance(
            ground=ground, f=dm.Linear((F(1, 2), F(1, 2))), g=dm.Linear((F(1, 4), F(3, 4)))
        )
        norm = dm.normalize(inst)
        for s in range(4):
            assert norm.f.value(s) == inst.f.value(s)
            assert norm.g.value(s) == inst.g.value(s)
        assert norm.normalized

    def test_sec32_scaling(self, sec32):
        norm = dm.normalize(sec32)
        full = sec32.ground.full_mask
        assert norm.f.value(full) == 1 and norm.g.value(full) == 1
        for s in range(8):
            assert norm.f.value(s) == sec32.f.value(s) / 2
            assert norm.g.value(s) == sec32.g.value(s) / 3

    def test_zero_total_rejected(self):
        ground = dm.GroundSet(("x",))
        with pytest.raises(ZeroTotal):
            dm.DualModularInstance(ground=ground, f=dm.Linear((F(0),)), g=dm.Linear((F(1),)))


class TestExtremes:
    def test_sec32(self, sec32):
        ext = dm.extremes(sec32)
        assert ext.f_min == 0  # element w contributes nothing on its own
        assert ext.g_min == 0  # g({a} | {w, b}) = 3 - 3 = 0
        assert ext.f_max == 1
        assert ext.g_max == 2

    def test_linear_cost(self):
        ground = dm.GroundSet(("x", "y", "z"))
        inst = dm.DualModularInstance(
            ground=ground,
            f=dm.Linear((F(1), F(1), F(1))),
            g=dm.Linear((F(1, 2), F(2), F(5))),
        )
        ext = dm.extremes(inst)
        assert ext.g_min == F(1, 2) and ext.g_max == 5

    def test_triangle_reward_min(self, tri_iso):
        assert dm.extremes(tri_iso).f_min == 0

    def test_crosscheck_agrees_on_random(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            dm.extremes(inst)  # raises if the closed forms disagree with the scan

    def test_matches_permutation_scan(self):
        rng = np.random.default_rng(18)
        for n in (1, 2, 3, 4, 5, 6, 6):
            inst = random_instance(rng, n)
            assert dm.extremes(inst) == extremes_by_permutations(inst)

    @pytest.mark.parametrize("n,raises", [(2, True), (7, True), (8, False)])
    def test_submodular_reward_caught_up_to_seven(self, n, raises):
        # a submodular reward has its smallest marginal on the full prefix,
        # not on the empty one; only ground sets up to 7 are scanned
        phi = tuple(F(2 * k * n - k * k) for k in range(n + 1))
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(tuple(f"v{i}" for i in range(n))),
            f=dm.ConcaveOfCardinality(phi),
            g=dm.Linear(tuple(F(1) for _ in range(n))),
        )
        if raises:
            with pytest.raises(StructuralError, match="f extremes"):
                dm.extremes(inst)
        else:
            assert dm.extremes(inst).f_min == phi[1]


class TestMarginalMonotonicity:
    def test_supermodular_and_submodular_marginals(self):
        # f(u|A) <= f(u|B) and g(u|A) >= g(u|B) whenever A is inside B
        rng = np.random.default_rng(23)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            ftab, gtab = inst.tables()
            for b in range(1 << n):
                a = b
                while True:  # walk all submasks of b
                    for u in range(n):
                        if b >> u & 1:
                            continue
                        bit = 1 << u
                        assert ftab[a | bit] - ftab[a] <= ftab[b | bit] - ftab[b]
                        assert gtab[a | bit] - gtab[a] >= gtab[b | bit] - gtab[b]
                    if a == 0:
                        break
                    a = (a - 1) & b


class TestResidual:
    def test_sec32_residual(self, sec32):
        g = sec32.ground
        res = dm.residual_instance(sec32, masks(g, "a", "w"))
        assert res.ground.labels == ("b",)
        assert res.f.value(1) == 1
        assert res.g.value(1) == 2

    def test_empty_anchor_returns_instance(self, sec32):
        assert dm.residual_instance(sec32, 0) is sec32

    def test_full_anchor_rejected(self, sec32):
        with pytest.raises(dm.errors.EmptyResidual):
            dm.residual_instance(sec32, sec32.ground.full_mask)

    def test_triangle_isolated(self, tri_iso):
        g = tri_iso.ground
        res = dm.residual_instance(tri_iso, masks(g, "1", "2", "3"))
        assert res.ground.labels == ("4",)
        assert res.f.value(1) == 0
        assert res.g.value(1) == 1


class TestJson:
    def test_roundtrip(self, sec32, p3, tri_iso, hardness):
        for inst in (sec32, p3, tri_iso, hardness):
            again = dm.instance_from_json(dm.instance_to_json(inst))
            for s in range(1 << inst.n):
                assert again.f.value(s) == inst.f.value(s)
                assert again.g.value(s) == inst.g.value(s)

    def test_complement_serializes(self):
        ground = dm.GroundSet(("x", "y"))
        inst = dm.DualModularInstance(
            ground=ground, f=dm.Linear((F(2), F(1))), g=dm.Linear((F(1), F(1)))
        )
        comp = dm.complement_instance(inst)
        again = dm.instance_from_json(dm.instance_to_json(comp))
        for s in range(4):
            assert again.f.value(s) == comp.f.value(s)

    def test_missing_field_names_culprit(self):
        with pytest.raises(SchemaError) as exc:
            dm.instance_from_json({"labels": ["a"], "f": {"kind": "linear", "weights": [1]}})
        assert exc.value.field == "g"

    def test_unknown_kind(self):
        with pytest.raises(SchemaError) as exc:
            dm.instance_from_json(
                {
                    "labels": ["a"],
                    "f": {"kind": "mystery"},
                    "g": {"kind": "linear", "weights": [1]},
                }
            )
        assert "kind" in exc.value.field

    def test_normalized_flag_checked(self):
        with pytest.raises(SchemaError):
            dm.instance_from_json(
                {
                    "labels": ["a"],
                    "f": {"kind": "linear", "weights": [2]},
                    "g": {"kind": "linear", "weights": [1]},
                    "normalized": True,
                }
            )

    def test_rational_strings(self):
        inst = dm.instance_from_json(
            {
                "labels": ["a", "b"],
                "f": {"kind": "linear", "weights": ["3/2", 1]},
                "g": {"kind": "linear", "weights": [1, "1/2"]},
            }
        )
        assert inst.f.value(1) == F(3, 2)
        assert inst.g.value(2) == F(1, 2)
