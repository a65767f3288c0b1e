import itertools
import json
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualmod as dm
from dualmod.errors import (
    NotStrictlyMonotone,
    SchemaError,
    StructuralError,
    ZeroTotal,
)
from dualmod.cli import main
from dualmod.files import spec_from_json, spec_to_json

from conftest import fixture_path, fraction_value, mask_of, random_instance, value_tables
from test_structure import specs


def masks(ground, *labels):
    return mask_of(ground, labels)


def holds_marginal(spec):
    """Whether spec is, or wraps, a residual's marginal."""
    if isinstance(spec, dm.Marginal):
        return True
    return isinstance(spec, (dm.Scaled, dm.Perturbed, dm.ComplementOf)) and holds_marginal(spec.base)


def extremes_by_permutations(inst):
    """Independent oracle: the smallest marginals met along all n! orders."""
    ftab, gtab = value_tables(inst)
    seen_f, seen_g = [], []
    for order in itertools.permutations(range(inst.n)):
        prefix = 0
        for u in order:
            nxt = prefix | (1 << u)
            seen_f.append(ftab[nxt] - ftab[prefix])
            seen_g.append(gtab[nxt] - gtab[prefix])
            prefix = nxt
    return dm.Extremes(f_min=min(seen_f), g_min=min(seen_g))


class TestGroundSet:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(SchemaError):
            dm.GroundSet(("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(SchemaError):
            dm.GroundSet(())

    def test_mask_roundtrip(self):
        g = dm.GroundSet(("a", "w", "b"))
        m = mask_of(g, ["a", "b"])
        assert m == 0b101
        assert g.labels_of(m) == ["a", "b"]

    def test_element_is_a_label_or_an_index(self):
        g = dm.GroundSet(("a", "w", "b"))
        assert [g.element(e) for e in ("b", 0, 2)] == [2, 0, 2]
        assert mask_of(g, ["w", 2]) == 0b110

    @pytest.mark.parametrize("e", ["z", 3, -1, True, 0.0, None])
    def test_element_rejects_what_names_no_element(self, e):
        g = dm.GroundSet(("a", "w", "b"))
        for resolve in (g.element, lambda e: mask_of(g, [e])):
            with pytest.raises(SchemaError):
                resolve(e)


class TestEvaluate:
    def test_table_values(self, sec32):
        g = sec32.ground
        assert sec32.f.value(masks(g, "a", "w")) == 1
        assert sec32.f.value(g.full_mask) == 2
        assert sec32.g.value(masks(g, "a", "w")) == 1
        assert sec32.g.value(g.full_mask) == 3

    def test_empty_set_is_zero(self, sec32, p3, tri_iso):
        for inst in (sec32, p3, tri_iso):
            assert inst.f.value(0) == 0
            assert inst.g.value(0) == 0

    def test_edges_inside_path(self, p3):
        # count edges with both endpoints inside, by enumeration
        edges = [(0, 1), (1, 2)]
        for mask in range(8):
            expected = sum(1 for u, v in edges if mask >> u & 1 and mask >> v & 1)
            assert p3.f.value(mask) == expected

    def test_explicit_table_out_of_range(self, sec32):
        with pytest.raises(SchemaError):
            sec32.f.value(8)


def marginal_value(spec, s_mask, a_mask):
    """h(S | A) = h(S u A) - h(A); S and A may overlap."""
    return spec.value(s_mask | a_mask) - spec.value(a_mask)


class TestMarginal:
    def test_reward_marginal(self, sec32):
        g = sec32.ground
        assert marginal_value(sec32.f, masks(g, "b"), masks(g, "a", "w")) == 1

    def test_cost_marginal(self, sec32):
        g = sec32.ground
        assert marginal_value(sec32.g, masks(g, "b"), masks(g, "a", "w")) == 2

    def test_marginal_over_empty_prefix(self, sec32):
        for s in range(8):
            assert marginal_value(sec32.f, s, 0) == sec32.f.value(s)

    def test_union_semantics(self, sec32):
        g = sec32.ground
        s = masks(g, "a", "b")
        a = masks(g, "a", "w")
        # S and A share a: f({a, w, b}) - f({a, w}) = 2 - 1
        assert marginal_value(sec32.f, s, a) == 1


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

    @pytest.mark.parametrize(
        "f,field",
        [
            (dm.EdgesInside(((0, 1, F(1)), (2, 7, F(1)))), "edges"),
            (dm.EdgesInside(((-1, 0, F(1)),)), "edges"),
            (dm.Linear((F(1),) * 4), "weights"),
            (dm.ExplicitTable((F(0),) + (F(1),) * 15), "values"),
            (dm.ConcaveOfCardinality((F(0), F(2), F(3))), "phi"),
            (dm.ComplementOf(dm.Linear((F(1),) * 4), 4), "base"),
            (dm.ComplementOf(dm.Linear((F(1),) * 4), 3), "weights"),
            (dm.Scaled(dm.Linear((F(1),) * 4), F(2)), "weights"),
            (dm.Perturbed(dm.EdgesInside(((2, 7, F(1)),)), F(1)), "edges"),
        ],
    )
    def test_spec_must_fit_ground_set(self, f, field):
        # refused at construction, whatever check_totals says; unchecked, an
        # edge (2, 7) on three elements was silently ignored by `value`
        ground = dm.GroundSet(("x", "y", "z"))
        for check_totals in (True, False):
            with pytest.raises(SchemaError, match=f"^{field}:"):
                dm.DualModularInstance(
                    ground=ground, f=f, g=dm.Linear((F(1),) * 3), check_totals=check_totals
                )


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

    def test_negative_max_n_names_option(self, sec32):
        with pytest.raises(SchemaError) as exc:
            dm.verify_dual_modularity(sec32, max_n=-1)
        assert exc.value.field == "max_n"

    def test_default_cap(self):
        # edges as a cost: no kind proves it submodular, so verify must scan
        with pytest.raises(dm.errors.GroundSetTooLarge):
            dm.verify_dual_modularity(_scanned_instance(dm.instance.DEFAULT_VERIFY_LIMIT + 1))

    @pytest.mark.parametrize("which", ["f", "g"])
    def test_strict_decrease_witness(self, which):
        # h = (0, 2, 1, 1): h({a, b}) < h({a}), the first step that decreases
        ground = dm.GroundSet(("a", "b"))
        decreasing = dm.ExplicitTable((F(0), F(2), F(1), F(1)))
        specs = {"f": dm.Linear((F(1), F(1))), "g": dm.Linear((F(1), F(1))), which: decreasing}
        report = dm.verify_dual_modularity(dm.DualModularInstance(ground=ground, **specs))
        witnesses = report.to_json(ground)["witnesses"]
        assert not report.dual_modular
        assert witnesses[f"{which}_monotone"] == [["a"], ["a", "b"]]
        if which == "g":
            assert witnesses["g_strictly_monotone"] == [["a"], ["a", "b"]]

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


def _ones_instance(n):
    ones = tuple(F(1) for _ in range(n))
    return dm.DualModularInstance(
        ground=dm.GroundSet(tuple(f"v{i}" for i in range(n))), f=dm.Linear(ones), g=dm.Linear(ones)
    )


def _scanned_instance(n):
    """A linear reward and an edge-counting cost: the cost's submodularity
    is no kind's proof, so verify scans it (n >= 2)."""
    ones = _ones_instance(n)
    cost = dm.EdgesInside(tuple((u, u, F(1)) for u in range(n)) + ((0, 1, F(1)),))
    return dm.DualModularInstance(ground=ones.ground, f=ones.f, g=cost)


# every brute-force entry point with its default cap and the name it reports
SIZE_GATES = [
    ("verify_dual_modularity", dm.instance.DEFAULT_VERIFY_LIMIT, lambda n, cap: dm.verify_dual_modularity(_scanned_instance(n), cap)),
    ("maximal_densest_subset", dm.instance.DEFAULT_DECOMP_LIMIT, lambda n, cap: dm.density_decomposition(_ones_instance(n), cap)),
    (
        "check_base_membership",
        dm.instance.DEFAULT_ENUM_LIMIT,
        lambda n, cap: dm.check_base_membership(_ones_instance(n), dm.Allocation((F(1),) * n, (F(1),) * n), cap),
    ),
]


@pytest.mark.parametrize("source", ["default", "max_n"])
@pytest.mark.parametrize("what,default,call", SIZE_GATES, ids=[g[0] for g in SIZE_GATES])
def test_size_cap_one_past_the_limit(source, what, default, call):
    # max_n, when given, replaces the default
    cap = 3 if source == "max_n" else None
    limit = default if cap is None else cap
    with pytest.raises(dm.errors.GroundSetTooLarge) as exc:
        call(limit + 1, cap)
    assert str(exc.value) == f"{what} requires n <= {limit}, got n = {limit + 1}"
    assert (exc.value.n, exc.value.limit) == (limit + 1, limit)


class TestPerturb:
    def test_zero_eta_identity(self, sec32):
        tilde = dm.Perturbed(sec32.g, F(0))
        for s in range(8):
            assert tilde.value(s) == sec32.g.value(s)

    def test_perturbed_value(self, sec32):
        tilde = dm.Perturbed(sec32.g, F(1, 100))
        g = sec32.ground
        assert tilde.value(masks(g, "a", "w")) == F(51, 50)

    def test_restores_strict_monotonicity(self, sec32):
        inst = dm.DualModularInstance(
            ground=sec32.ground, f=sec32.f, g=dm.Perturbed(sec32.g, F(1, 100))
        )
        report = dm.verify_dual_modularity(inst)
        assert report.g_strictly_monotone and report.dual_modular

    def test_negative_eta(self, sec32):
        # a schema error naming the field, as a negative scale factor is
        with pytest.raises(SchemaError) as exc:
            dm.Perturbed(sec32.g, F(-1, 10))
        assert str(exc.value) == "eta: perturbation amount must be >= 0, got -1/10"


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

    def test_tabulates_once(self, monkeypatch):
        # explicit tables prove nothing, so each is scanned from one table
        calls = []
        table = dm.ExplicitTable.table
        monkeypatch.setattr(dm.ExplicitTable, "table", lambda spec, n: calls.append(spec) or table(spec, n))
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y")),
            f=dm.ExplicitTable((F(0), F(2), F(1), F(3))),
            g=dm.ExplicitTable((F(0), F(1), F(1), F(2))),
        )
        dm.complement_instance(inst)
        assert calls == [inst.f, inst.g]

    def test_proven_instance_tabulates_nothing(self, monkeypatch):
        calls = []
        table = dm.Linear.table
        monkeypatch.setattr(dm.Linear, "table", lambda spec, n: calls.append(spec) or table(spec, n))
        inst = self._strict_instance()
        dm.complement_instance(inst)
        dm.verify_dual_modularity(inst)
        assert calls == []

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

    def test_two_walks(self, sec32):
        # one value walk of f(V) and one of g(V); the result's totals are 1 by
        # construction and are not walked again
        value = dm.SetFunctionSpec.value
        with mock.patch.object(dm.SetFunctionSpec, "value", autospec=True, side_effect=value) as walks:
            dm.normalize(sec32)
        assert [(c.args[0], c.args[1]) for c in walks.call_args_list] == [(sec32.f, 7), (sec32.g, 7)]

    @pytest.mark.parametrize("name", ["club8", "hardness", "p3"])
    def test_solve_walks_four_totals_and_two_vectors(self, capsys, name):
        # f(V) and g(V) once at load and once for the error bounds, f's
        # marginal vector at the empty set and g's at V, and no normalized copy
        full = dm.load_instance(fixture_path(name)).ground.full_mask
        value, vector = dm.SetFunctionSpec.value, dm.SetFunctionSpec.marginal_vector
        with mock.patch.object(dm.SetFunctionSpec, "value", autospec=True, side_effect=value) as walks, \
                mock.patch.object(dm.SetFunctionSpec, "marginal_vector", autospec=True, side_effect=vector) as vectors, \
                mock.patch.object(dm.Scaled, "__post_init__", autospec=True, side_effect=dm.Scaled.__post_init__) as scaled:
            assert main(["solve", fixture_path(name), "--T", "200"]) == 0
        assert [c.args[1] for c in walks.call_args_list] == [full] * 4
        assert [c.args[1] for c in vectors.call_args_list] == [0, full]
        assert scaled.call_count == 0
        capsys.readouterr()

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

    def test_zero_total_not_normalized(self):
        # an instance built without the totals check, as a residual is
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y")), f=dm.Linear((F(0), F(0))), g=dm.Linear((F(1), F(1))), check_totals=False
        )
        with pytest.raises(ZeroTotal, match=r"^f\(V\) must be positive to normalize$"):
            dm.normalize(inst)


class TestExtremes:
    def test_sec32(self, sec32):
        ext = dm.extremes(sec32)
        assert ext.f_min == 0  # element w contributes nothing on its own
        assert ext.g_min == 0  # g({a} | {w, b}) = 3 - 3 = 0

    def test_linear_cost(self):
        ground = dm.GroundSet(("x", "y", "z"))
        inst = dm.DualModularInstance(
            ground=ground,
            f=dm.Linear((F(1), F(1), F(1))),
            g=dm.Linear((F(1, 2), F(2), F(5))),
        )
        ext = dm.extremes(inst)
        assert ext.g_min == F(1, 2)

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

    def test_proven_instance_builds_no_table(self, monkeypatch):
        # f proven supermodular and g submodular: the closed forms are theorems, and no table is built
        def table(self, n):
            raise AssertionError(f"{type(self).__name__}.table called")

        for cls in (dm.EdgesInside, dm.Perturbed, dm.ConcaveOfCardinality, dm.Scaled):
            monkeypatch.setattr(cls, "table", table)
        rng = np.random.default_rng(19)
        for n in (1, 2, 4, 6, 7, 7):
            inst = random_instance(rng, n)
            assert dm.extremes(inst) == extremes_by_permutations(inst)
            normalized = dm.normalize(inst)
            assert dm.extremes(normalized) == extremes_by_permutations(normalized)

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

    def test_two_vectors_and_no_value_call(self, monkeypatch):
        # the closed forms read f's marginal vector at the empty set and g's at V, and no single value;
        # tables and complemented specs are left unproven, so n <= 7 is cross-checked
        rng = np.random.default_rng(20)
        cases = []
        for n in (1, 3, 5, 7, 10):
            inst = random_instance(rng, n)
            unproven = dm.DualModularInstance(
                ground=inst.ground,
                f=dm.ExplicitTable(tuple(value_tables(inst)[0])),
                g=dm.ComplementOf(dm.ComplementOf(inst.g, n), n),
            )
            cases += [inst, unproven]

        def value(self, mask):
            raise AssertionError(f"{type(self).__name__}.value called")

        calls = []
        vector = dm.SetFunctionSpec.marginal_vector
        monkeypatch.setattr(dm.SetFunctionSpec, "value", value)
        monkeypatch.setattr(dm.SetFunctionSpec, "marginal_vector",
                            lambda self, mask, n: calls.append(mask) or vector(self, mask, n))
        for inst in cases:
            calls.clear()
            got = dm.extremes(inst)
            assert calls == [0, inst.ground.full_mask]
            if inst.n <= 7:
                assert got == extremes_by_permutations(inst)


class TestMarginalMonotonicity:
    def test_supermodular_and_submodular_marginals(self):
        # f(u|A) <= f(u|B) and g(u|A) >= g(u|B) whenever A is inside B
        rng = np.random.default_rng(23)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            inst = random_instance(rng, n)
            ftab, gtab = value_tables(inst)
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

    def test_residual_of_residual_is_one_view(self, monkeypatch):
        # 12 loops, peeled one element at a time: at depth 8 the 16-entry
        # table indexes one table of the original spec, with no value call
        n = 12
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(tuple(f"v{i}" for i in range(n))),
            f=dm.EdgesInside(tuple((u, u, F(u + 1)) for u in range(n))),
            g=dm.Linear((F(1),) * n),
        )
        res = inst
        for _ in range(8):
            res = dm.residual_instance(res, 1)
        assert res.ground.labels == ("v8", "v9", "v10", "v11")
        assert res.f.base is inst.f and res.f.anchor == 0xFF and res.f.index_map == (8, 9, 10, 11)
        expected = [res.f.value(m) for m in range(16)]
        calls = []
        for name in ("value", "table"):
            method = getattr(dm.EdgesInside, name)
            monkeypatch.setattr(dm.EdgesInside, name, lambda self, arg, m=method, name=name: calls.append(name) or m(self, arg))
        assert res.f.table(4) == ([0, 9, 10, 19, 11, 20, 21, 30, 12, 21, 22, 31, 23, 32, 33, 42], 1) == (expected, 1)
        assert calls == ["table"]

    def test_prefixes_walk_the_base_once(self, monkeypatch):
        # the same depth-8 view: one walk of the original spec, and no value call
        n = 12
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(tuple(f"v{i}" for i in range(n))),
            f=dm.EdgesInside(tuple((u, u, F(u + 1)) for u in range(n))),
            g=dm.Linear((F(1),) * n),
        )
        res = inst
        for _ in range(8):
            res = dm.residual_instance(res, 1)
        calls = []
        for name in ("value", "prefixes"):
            method = getattr(dm.EdgesInside, name)
            monkeypatch.setattr(dm.EdgesInside, name, lambda self, arg, m=method, name=name: calls.append(name) or m(self, arg))
        # v11, v9, v8, v10 carry loops of 12, 10, 9 and 11
        assert res.f.prefixes((3, 1, 0, 2)) == ([0, 12, 22, 31, 42], 1)
        assert calls == ["prefixes"]

    def test_prefixes_match_value(self):
        # flat views and views nested by hand, over residuals of residuals
        rng = np.random.default_rng(41)
        for _ in range(200):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            res, f, g = inst, inst.f, inst.g
            while res.n > 1:
                mask = int(rng.integers(1, res.ground.full_mask))
                keep = tuple(i for i in range(res.n) if not mask >> i & 1)
                f, g = dm.Marginal(f, mask, keep), dm.Marginal(g, mask, keep)
                res = dm.residual_instance(res, mask)
                order = [int(u) for u in rng.permutation(res.n)]
                prefix_masks = [sum(1 << u for u in order[:i]) for i in range(res.n + 1)]
                for spec in (res.f, res.g, f, g):
                    values, den = spec.prefixes(order)
                    assert [F(v, den) for v in values] == [fraction_value(spec, m) for m in prefix_masks]

    def test_residual_chains_match_nested_marginals(self):
        # the nested definition: each peel wraps the previous residual's spec
        rng = np.random.default_rng(29)
        for _ in range(200):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            res, f, g, labels = inst, inst.f, inst.g, inst.ground.labels
            while res.n > 1:
                mask = int(rng.integers(1, res.ground.full_mask))
                keep = tuple(i for i in range(res.n) if not mask >> i & 1)
                f, g = dm.Marginal(f, mask, keep), dm.Marginal(g, mask, keep)
                labels = tuple(labels[i] for i in keep)
                res = dm.residual_instance(res, mask)
                nested = dm.DualModularInstance(ground=res.ground, f=f, g=g, check_totals=False)
                assert res.ground.labels == labels
                assert value_tables(res) == value_tables(nested)
                assert not isinstance(res.f.base, dm.Marginal)


class TestJson:
    def test_roundtrip(self, sec32, p3, tri_iso, hardness):
        for inst in (sec32, p3, tri_iso, hardness):
            again = dm.instance_from_json(dm.instance_to_json(inst))
            for s in range(1 << inst.n):
                assert again.f.value(s) == inst.f.value(s)
                assert again.g.value(s) == inst.g.value(s)

    @pytest.mark.parametrize(
        "spec",
        [
            dm.ExplicitTable((F(0), F(1), F(1, 2), F(2), F(1), F(3), F(2), F(9, 2))),
            dm.EdgesInside(((0, 1, F(2)), (1, 2, F(1, 3)), (2, 2, F(5, 7)))),
            dm.Linear((F(1), F(1, 2), F(3))),
            dm.ConcaveOfCardinality((F(0), F(3), F(5), F(6))),
            dm.Scaled(dm.Linear((F(1), F(2), F(3))), F(2, 3)),
            dm.Perturbed(dm.ConcaveOfCardinality((F(0), F(3), F(5), F(6))), F(1, 7)),
            dm.ComplementOf(dm.ConcaveOfCardinality((F(0), F(3), F(5), F(6))), 3),
        ],
        ids=lambda spec: type(spec).__name__,
    )
    def test_every_kind_roundtrips(self, spec):
        inst = dm.DualModularInstance(ground=dm.GroundSet(("x", "y", "z")), f=spec, g=spec)
        blob = dm.instance_to_json(inst)
        again = dm.instance_from_json(blob)
        assert (again.f, again.g) == (spec, spec)
        assert dm.instance_to_json(again) == blob

    def test_residual_marginal_has_no_file_form(self, tri_iso):
        res = dm.residual_instance(dm.residual_instance(tri_iso, 1), 1)
        assert isinstance(res.f, dm.Marginal)
        with pytest.raises(NotImplementedError, match="^no file form for Marginal$"):
            dm.instance_to_json(res)

    def test_complement_serializes(self):
        ground = dm.GroundSet(("x", "y"))
        inst = dm.DualModularInstance(
            ground=ground, f=dm.Linear((F(2), F(1))), g=dm.Linear((F(1), F(1)))
        )
        comp = dm.complement_instance(inst)
        again = dm.instance_from_json(dm.instance_to_json(comp))
        for s in range(4):
            assert again.f.value(s) == comp.f.value(s)

    # n <= 6, where the strategy draws marginals too
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), specs(n))))
    def test_written_spec_reads_back(self, case):
        # the same values, and a second write the same bytes; a residual's
        # marginal, alone or wrapped, has no file form
        n, spec = case
        if holds_marginal(spec):
            with pytest.raises(NotImplementedError, match="^no file form for Marginal$"):
                spec_to_json(spec, n)
            return
        blob = spec_to_json(spec, n)
        again = spec_from_json(blob, dm.GroundSet(tuple(f"v{i}" for i in range(n))), "f")
        assert [fraction_value(again, s) for s in range(1 << n)] == [fraction_value(spec, s) for s in range(1 << n)]
        assert json.dumps(spec_to_json(again, n)) == json.dumps(blob)

    def test_spec_of_no_known_kind(self):
        with pytest.raises(NotImplementedError, match="^no file form for SetFunctionSpec$"):
            spec_to_json(dm.SetFunctionSpec(), 1)

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
