from fractions import Fraction as F

import numpy as np
import pytest

import dualmod as dm
from dualmod.errors import DecompositionError, DomainError, InfiniteDensity

from conftest import mask_of, random_instance, value_tables


def densest_by_enumeration(inst):
    """Independent oracle: scan all nonempty subsets, keep the best ratio."""
    ftab, gtab = value_tables(inst)
    best = None
    winners = []
    for s in range(1, 1 << inst.n):
        if gtab[s] == 0:
            continue
        rho = ftab[s] / gtab[s]
        if best is None or rho > best:
            best = rho
            winners = [s]
        elif rho == best:
            winners.append(s)
    return best, winners


def decomposition_by_residual_peeling(inst):
    """Independent oracle: enumerate the densest subsets of each residual
    instance built by ``residual_instance``; parts in original positions."""
    parts, densities = [], []
    current = inst
    index_map = list(range(inst.n))  # positions in `current` -> original ones
    while True:
        rho, winners = densest_by_enumeration(current)
        mask = 0
        for w in winners:
            mask |= w
        parts.append(sum(1 << index_map[i] for i in range(current.n) if mask >> i & 1))
        densities.append(rho)
        if mask == current.ground.full_mask:
            return tuple(parts), tuple(densities)
        index_map = [index_map[i] for i in range(current.n) if not mask >> i & 1]
        current = dm.residual_instance(current, mask)


def disjoint_pairs_instance(rng, n):
    """Cliques of two (and one singleton when n is odd) with a linear cost;
    distinct pair densities give k = ceil(n / 2) parts."""
    order = [int(u) for u in rng.permutation(n)]
    weights = rng.choice(np.arange(1, 60), size=n, replace=False)
    edges = [(order[i], order[i + 1], F(int(weights[i]), 3)) for i in range(0, n - 1, 2)]
    if n % 2:
        edges.append((order[-1], order[-1], F(int(weights[-1]), 7)))
    g = dm.Linear(tuple(F(1) for _ in range(n)))
    ground = dm.GroundSet(tuple(f"v{i}" for i in range(n)))
    return dm.DualModularInstance(ground=ground, f=dm.EdgesInside(tuple(edges)), g=g)


def loops_only_instance(rng, n):
    """Loop rewards over a linear cost with distinct ratios: k = n parts."""
    ratios = rng.choice(np.arange(1, 100), size=n, replace=False)
    costs = [F(int(rng.integers(1, 9)), int(rng.integers(1, 5))) for _ in range(n)]
    edges = tuple((u, u, int(r) * c) for u, (r, c) in enumerate(zip(ratios, costs)))
    ground = dm.GroundSet(tuple(f"v{i}" for i in range(n)))
    return dm.DualModularInstance(ground=ground, f=dm.EdgesInside(edges), g=dm.Linear(tuple(costs)))


class TestMaximalDensestSubset:
    def test_sec32(self, sec32):
        mask, rho = dm.maximal_densest_subset(sec32)
        assert sec32.ground.labels_of(mask) == ["a", "w"]
        assert rho == 1

    def test_singleton(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("v",)), f=dm.Linear((F(3),)), g=dm.Linear((F(2),))
        )
        assert dm.maximal_densest_subset(inst) == (1, F(3, 2))

    def test_triangle_plus_isolated(self):
        # unscaled variant: reward = edges inside, cost = cardinality
        edges = tuple((u, v, F(1)) for u, v in ((0, 1), (1, 2), (0, 2)))
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("1", "2", "3", "4")),
            f=dm.EdgesInside(edges),
            g=dm.Linear((F(1),) * 4),
        )
        mask, rho = dm.maximal_densest_subset(inst)
        best, winners = densest_by_enumeration(inst)
        assert rho == best == 1
        assert mask == 0b0111
        assert all(w & ~mask == 0 for w in winners)

    def test_union_is_returned(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            mask, rho = dm.maximal_densest_subset(inst)
            best, winners = densest_by_enumeration(inst)
            assert rho == best
            union = 0
            for w in winners:
                union |= w
            assert mask == union

    def test_infinite_density(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")),
            f=dm.Linear((F(1), F(1))),
            g=dm.ExplicitTable((F(0), F(0), F(1), F(1))),  # g({a}) = 0 < f({a})
        )
        with pytest.raises(InfiniteDensity):
            dm.maximal_densest_subset(inst)


class TestDensityDecomposition:
    def test_sec32(self, sec32):
        dec = dm.density_decomposition(sec32)
        g = sec32.ground
        assert [g.labels_of(p) for p in dec.parts] == [["a", "w"], ["b"]]
        assert dec.densities == (1, F(1, 2))
        assert dec.rho_star == (1, 1, F(1, 2))  # the w coordinate is 1

    def test_proportional_single_part(self):
        weights = (F(1), F(2), F(3))
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y", "z")),
            f=dm.Scaled(dm.Linear(weights), F(5, 3)),
            g=dm.Linear(weights),
        )
        dec = dm.density_decomposition(inst)
        assert len(dec.parts) == 1
        assert dec.parts == (0b111,)
        assert dec.densities == (F(5, 3),)

    def test_tri_iso(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        g = tri_iso.ground
        assert [g.labels_of(p) for p in dec.parts] == [["1", "2", "3"], ["4"]]
        assert dec.densities == (3, 0)
        assert dec.rho_star == (3, 3, 3, 0)

    def test_p3(self, p3):
        dec = dm.density_decomposition(p3)
        assert len(dec.parts) == 1
        assert dec.rho_star == (F(2, 3),) * 3

    @pytest.mark.parametrize("parts,densities,rho_star", [
        ((0b111,), (F(2, 3),), (5, 5)),
        ((0b111,), (F(2, 3),), (F(2, 3), F(2, 3), F(1))),
        ((0b001, 0b110), (F(1),), (F(1),)),
        ((0b111,), (F(2, 3), F(1, 2)), (F(2, 3),) * 3),
    ], ids=["rho-star-short", "rho-star-wrong", "part-without-density", "density-without-part"])
    def test_one_density_per_part_and_element(self, parts, densities, rho_star):
        with pytest.raises(DecompositionError):
            dm.DensityDecomposition(n=3, parts=parts, densities=densities, rho_star=rho_star)

    @pytest.mark.parametrize("parts,densities,rho_star", [
        ((0b01, 0b00, 0b10), (F(3), F(2), F(1)), (F(3), F(1))),
        ((0b01, 0b11), (F(2), F(1)), (F(2), F(1))),
    ], ids=["empty-part", "overlapping-parts"])
    def test_parts_nonempty_and_disjoint(self, parts, densities, rho_star):
        with pytest.raises(DecompositionError, match="^parts must be nonempty and disjoint$"):
            dm.DensityDecomposition(n=2, parts=parts, densities=densities, rho_star=rho_star)

    def test_parts_cover_the_ground_set(self):
        with pytest.raises(DecompositionError, match="^parts must cover the ground set$"):
            dm.DensityDecomposition(n=3, parts=(0b011,), densities=(F(1),), rho_star=(F(1),) * 2)

    def test_equal_densities_rejected(self):
        with pytest.raises(DecompositionError, match="^part densities must strictly decrease, got 1 then 1$"):
            dm.DensityDecomposition(n=2, parts=(0b01, 0b10), densities=(F(1), F(1)), rho_star=(F(1), F(1)))

    def test_union_of_densest_subsets_not_densest(self):
        # {a} and {b} have density 1, {a, b} only 1/2: f is not supermodular
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")),
            f=dm.ExplicitTable((F(0), F(1), F(1), F(1))),
            g=dm.Linear((F(1), F(1))),
        )
        with pytest.raises(DecompositionError, match="^union of densest subsets is not densest"):
            dm.density_decomposition(inst)

    def test_strict_decrease_on_random(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            dec = dm.density_decomposition(inst)
            for hi, lo in zip(dec.densities, dec.densities[1:]):
                assert hi > lo

    @pytest.mark.parametrize(
        "family,seed,sizes",
        [
            ("random", 11, range(2, 9)),
            ("pairs", 12, range(3, 11)),
            ("loops", 13, range(2, 11)),
        ],
    )
    def test_matches_residual_peeling(self, family, seed, sizes):
        build = {
            "random": random_instance,
            "pairs": disjoint_pairs_instance,
            "loops": loops_only_instance,
        }[family]
        rng = np.random.default_rng(seed)
        for n in sizes:
            inst = build(rng, n)
            dec = dm.density_decomposition(inst)
            assert (dec.parts, dec.densities) == decomposition_by_residual_peeling(inst)
            if family == "pairs":
                assert len(dec.parts) == (n + 1) // 2
            if family == "loops":
                assert len(dec.parts) == n

    def test_peels_evaluate_no_subset_after_the_table(self, monkeypatch):
        inst = loops_only_instance(np.random.default_rng(14), 12)
        calls = []
        value = dm.EdgesInside.value

        def counted(self, mask):
            calls.append(mask)
            return value(self, mask)

        monkeypatch.setattr(dm.EdgesInside, "value", counted)
        assert len(dm.density_decomposition(inst).parts) == 12
        assert calls == []

    def test_later_peel_names_original_mask(self):
        # the cost is not monotone, so after the parts {a} and {b} the
        # marginal g(c | a, b) is 0 while f(c | a, b) = 1
        f = dm.ExplicitTable(tuple(F(v) for v in (0, 3, 0, 0, 1, 1, 0, 1)))
        g = dm.ExplicitTable(tuple(F(v) for v in (0, 2, 3, 1, 1, 3, 2, 1)))
        ground = dm.GroundSet(("a", "b", "c"))
        inst = dm.DualModularInstance(ground=ground, f=f, g=g)
        assert dm.maximal_densest_subset(inst) == (mask_of(ground, ["a"]), F(3, 2))
        with pytest.raises(InfiniteDensity) as exc:
            dm.density_decomposition(inst)
        assert exc.value.mask == mask_of(ground, ["c"])

    def test_recursion_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            dec = dm.density_decomposition(inst)
            if len(dec.parts) == 1:
                continue
            res = dm.residual_instance(inst, dec.parts[0])
            tail = dm.density_decomposition(res)
            assert tail.densities == dec.densities[1:]
            # residual parts, mapped back to original indices, match the tail
            keep = [u for u in range(inst.n) if not dec.parts[0] >> u & 1]
            mapped = []
            for part in tail.parts:
                m = 0
                for i in range(res.n):
                    if part >> i & 1:
                        m |= 1 << keep[i]
                mapped.append(m)
            assert tuple(mapped) == dec.parts[1:]

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            c = F(int(rng.integers(1, 9)), int(rng.integers(1, 5)))
            scaled = dm.DualModularInstance(
                ground=inst.ground, f=dm.Scaled(inst.f, c), g=inst.g
            )
            d1 = dm.density_decomposition(inst)
            d2 = dm.density_decomposition(scaled)
            assert d2.parts == d1.parts
            assert d2.densities == tuple(c * r for r in d1.densities)

    def test_normalization_preserves_parts(self, sec32):
        d1 = dm.density_decomposition(sec32)
        d2 = dm.density_decomposition(dm.normalize(sec32))
        assert d1.parts == d2.parts
        ratio = F(3, 2)  # g(V) / f(V)
        assert d2.densities == tuple(r * ratio for r in d1.densities)

    def test_complement_reverses_parts(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)), strict_f=True)
            comp = dm.complement_instance(inst)
            d1 = dm.density_decomposition(inst)
            d2 = dm.density_decomposition(comp)
            assert d2.parts == tuple(reversed(d1.parts))
            for a, b in zip(d1.rho_star, d2.rho_star):
                assert a * b == 1


class TestOptimalObjective:
    def test_sec32_quadratic(self, sec32):
        dec = dm.density_decomposition(sec32)
        value = dm.optimal_objective(dec, sec32, dm.QUADRATIC)
        # direct evaluation of the divergence at the optimal pair (1,0,1) vs
        # (1,0,2), skipping the zero-cost coordinate by the 0 * theta(0/0) = 0
        # convention the package itself refuses to apply
        direct = 1 * F(1, 1) ** 2 + 2 * F(1, 2) ** 2
        assert value == direct == F(3, 2)

    def test_hockey_stick_above_top_density(self, sec32):
        dec = dm.density_decomposition(sec32)
        assert dm.optimal_objective(dec, sec32, dm.HockeyStick(F(1))) == 0
        assert dm.optimal_objective(dec, sec32, dm.HockeyStick(F(5))) == 0

    def test_single_part(self, p3):
        dec = dm.density_decomposition(p3)
        for kind in (dm.QUADRATIC, dm.HockeyStick(F(1, 3))):
            assert dm.optimal_objective(dec, p3, kind) == 3 * kind.theta(F(2, 3))

    def test_decomposition_of_another_ground_set(self, p3):
        dec = dm.DensityDecomposition(n=4, parts=(0b1111,), densities=(F(1),), rho_star=(F(1),) * 4)
        with pytest.raises(DecompositionError, match="^decomposition does not match the instance$"):
            dm.optimal_objective(dec, p3, dm.QUADRATIC)

    def test_eg_rejects_zero_density(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        with pytest.raises(DomainError):
            dm.optimal_objective(dec, tri_iso, dm.EISENBERG_GALE)

    def test_kl_handles_zero_density(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        value = dm.optimal_objective(dec, tri_iso, dm.ENTROPY_KL)
        # single positive part: 3 * (3 log 3)
        import math

        assert value == pytest.approx(3 * 3 * math.log(3))
