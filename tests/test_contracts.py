import operator
from fractions import Fraction as F
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest

import dualmod as dm
from dualmod.errors import SchemaError

from conftest import (
    consistent_permutation,
    random_allocation,
    random_instance,
    value_tables,
)
from oracles import best_response_bruteforce


def brute_argmaxes(inst, alpha):
    """All maximisers of alpha * f(S) - g(S), by enumeration."""
    ftab, gtab = value_tables(inst)
    best = None
    winners = []
    for s in range(1 << inst.n):
        u = alpha * ftab[s] - gtab[s]
        if best is None or u > best:
            best = u
            winners = [s]
        elif u == best:
            winners.append(s)
    return best, winners


class TestBestResponse:
    def test_alpha_zero_is_empty(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        assert dm.best_response(tri_iso, dec, F(0)) == 0

    def test_tri_iso_midrange(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        mask = dm.best_response(tri_iso, dec, F(1, 2))
        assert tri_iso.ground.labels_of(mask) == ["1", "2", "3"]
        # exhaustive confirmation over all 16 subsets
        best, winners = brute_argmaxes(tri_iso, F(1, 2))
        assert winners == [mask]
        assert best == F(3, 2)

    def test_boundary_returns_larger_prefix(self, tri_iso):
        # alpha = 1/3 puts the price ratio exactly at the top density
        dec = dm.density_decomposition(tri_iso)
        mask = dm.best_response(tri_iso, dec, F(1, 3))
        assert tri_iso.ground.labels_of(mask) == ["1", "2", "3"]

    def test_alpha_out_of_range(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        for bad in (F(-1, 2), F(3, 2)):
            with pytest.raises(SchemaError, match=r"^alpha: must lie in \[0, 1\], got "):
                dm.best_response(tri_iso, dec, bad)

    def test_chain_is_monotone_in_alpha(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            dec = dm.density_decomposition(inst)
            alphas = sorted(
                F(int(rng.integers(0, 100)), 100) for _ in range(6)
            )
            masks = [dm.best_response(inst, dec, a) for a in alphas]
            for small, large in zip(masks, masks[1:]):
                assert small & ~large == 0  # small is a subset of large


class TestBruteForceOracle:
    def test_matches_prefix_rule(self):
        rng = np.random.default_rng(42)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            dec = dm.density_decomposition(inst)
            alpha = F(int(rng.integers(0, 101)), 100)
            mask, value = best_response_bruteforce(inst, alpha)
            assert mask == dm.best_response(inst, dec, alpha)
            assert value == alpha * inst.f.value(mask) - inst.g.value(mask)

    def test_proportional_all_tie_selects_ground_set(self):
        weights = (F(1), F(2))
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y")), f=dm.Linear(weights), g=dm.Linear(weights)
        )
        mask, value = best_response_bruteforce(inst, F(1))
        assert mask == inst.ground.full_mask
        assert value == 0

    def test_value_and_reward_tie_takes_decomposition_prefix(self):
        # f = g = (0, 1, 0, 1): at alpha = 1 the masks {x} and {x, y} tie on
        # the value and on f; the decomposition prefix {x, y} wins, not the
        # lowest tie {x}
        table = dm.ExplicitTable((F(0), F(1), F(0), F(1)))
        inst = dm.DualModularInstance(ground=dm.GroundSet(("x", "y")), f=table, g=table)
        assert best_response_bruteforce(inst, F(1)) == (3, 0)

    def test_uniqueness_between_densities(self):
        # strictly between consecutive densities the maximiser of
        # f(S) - gamma * g(S) is the single prefix union
        rng = np.random.default_rng(43)
        confirmed = alpha_confirmed = 0
        for _ in range(30):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            dec = dm.density_decomposition(inst)
            prefixes = list(accumulate(dec.parts, operator.or_))
            ftab, gtab = value_tables(inst)
            for i, hi in enumerate(dec.densities):
                lo = dec.densities[i + 1] if i + 1 < len(dec.parts) else F(0)
                if hi == lo:
                    continue
                gamma = (hi + lo) / 2
                if gamma <= 0:
                    continue
                best = None
                winners = []
                for s in range(1 << inst.n):
                    v = ftab[s] - gamma * gtab[s]
                    if best is None or v > best:
                        best, winners = v, [s]
                    elif v == best:
                        winners.append(s)
                assert winners == [prefixes[i]]
                confirmed += 1
                if gamma >= 1:  # also representable through the price share
                    mask, _ = best_response_bruteforce(inst, 1 / gamma)
                    assert mask == prefixes[i]
                    alpha_confirmed += 1
        assert confirmed >= 30
        assert alpha_confirmed >= 5


class TestContractAt:
    def test_hardness_half_is_the_analysis_row(self, hardness):
        dec = dm.density_decomposition(hardness)
        analysis = dm.analyze_contracts(hardness, dec)
        i = analysis.critical_values.index(F(1, 2))
        row = (analysis.responses[i], analysis.agent_utilities[i], analysis.principal_utilities[i])
        assert dm.contract_at(hardness, dec, F(1, 2)) == row == (0b0011, F(0), F(2))

    def test_any_alpha_against_the_tables(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            dec = dm.density_decomposition(inst)
            ftab, gtab = value_tables(inst)
            for alpha in [F(0), F(1)] + [F(int(rng.integers(0, 101)), 100) for _ in range(4)]:
                mask, agent, principal = dm.contract_at(inst, dec, alpha)
                assert best_response_bruteforce(inst, alpha) == (mask, agent)
                assert agent == alpha * ftab[mask] - gtab[mask]
                assert principal == (1 - alpha) * ftab[mask]

    def test_alpha_out_of_range(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        for bad in (F(-1, 2), F(3, 2)):
            with pytest.raises(SchemaError, match=r"^alpha: must lie in \[0, 1\], got "):
                dm.contract_at(tri_iso, dec, bad)


class TestCriticalValues:
    def test_sec32(self, sec32):
        dec = dm.density_decomposition(sec32)
        assert dm.critical_values(dec) == [F(1)]  # 1/rho_2 = 2 is outside [0, 1]

    def test_tri_iso(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        assert dm.critical_values(dec) == [F(1, 3)]

    def test_no_density_above_one(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y")),
            f=dm.Linear((F(1), F(1))),
            g=dm.Linear((F(2), F(2))),
        )
        dec = dm.density_decomposition(inst)
        assert dm.critical_values(dec) == []

    def test_sampled_alphas_between_criticals_agree(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            dec = dm.density_decomposition(inst)
            crit = dm.critical_values(dec)
            cuts = [F(0)] + crit + [F(1)]
            for lo, hi in zip(cuts, cuts[1:]):
                if hi - lo < F(1, 100):
                    continue
                probes = [lo + (hi - lo) * F(j, 7) for j in (1, 3, 6)]
                masks = {dm.best_response(inst, dec, a) for a in probes if lo < a <= hi}
                assert len(masks) <= 1


class TestOptimalContract:
    def test_tri_iso(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        a = dm.analyze_contracts(tri_iso, dec)
        assert a.optimal_alpha == F(1, 3)
        assert tri_iso.ground.labels_of(a.optimal_response) == ["1", "2", "3"]
        assert a.optimal_principal_utility == 6  # (1 - 1/3) * 9

    def test_empty_critical_set(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y")),
            f=dm.Linear((F(1), F(1))),
            g=dm.Linear((F(2), F(2))),
        )
        dec = dm.density_decomposition(inst)
        a = dm.analyze_contracts(inst, dec)
        assert (a.optimal_alpha, a.optimal_response, a.optimal_principal_utility) == (0, 0, 0)

    def test_grid_never_beats_critical_optimum(self):
        rng = np.random.default_rng(45)
        for _ in range(5):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            dec = dm.density_decomposition(inst)
            best = dm.analyze_contracts(inst, dec).optimal_principal_utility
            for j in range(0, 1001, 7):
                alpha = F(j, 1000)
                mask, _ = best_response_bruteforce(inst, alpha)
                assert (1 - alpha) * inst.f.value(mask) <= best

    def test_analysis_bundle(self, tri_iso):
        dec = dm.density_decomposition(tri_iso)
        analysis = dm.analyze_contracts(tri_iso, dec)
        assert analysis.critical_values == (F(1, 3),)
        assert analysis.agent_utilities == (0,)  # (1/3) * 9 - 3
        assert analysis.principal_utilities == (6,)
        assert analysis.optimal_alpha == F(1, 3)


class TestDualityGap:
    def test_gamma_zero_full_set(self, p3):
        a = dm.Allocation(x=(F(2, 3),) * 3, y=(F(1),) * 3)
        assert dm.duality_gap(p3, p3.ground.full_mask, a, F(0)) == 0

    def test_gap_nonnegative_everywhere(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            a = random_allocation(rng, inst)
            for gamma in (F(0), F(1, 2), F(1), F(2)):
                for s in range(1 << inst.n):
                    assert dm.duality_gap(inst, s, a, gamma) >= 0

    def test_exact_zero_at_fair_allocation(self):
        rng = np.random.default_rng(47)
        confirmed = 0
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(2, 6)))
            dec = dm.density_decomposition(inst)
            if any(p.bit_count() != 1 for p in dec.parts):
                continue
            sigma = consistent_permutation(rng, dec)
            one = dm.WeightedPermutationList.single(sigma)
            a = dm.allocation_from_mixture(inst, one, one)
            prefixes = list(accumulate(dec.parts, operator.or_))
            for i, rho in enumerate(dec.densities):
                low = dec.densities[i + 1] if i + 1 < len(dec.parts) else F(0)
                gamma = (rho + low) / 2
                assert dm.duality_gap(inst, prefixes[i], a, gamma) == 0
                confirmed += 1
        assert confirmed >= 10


class TestTwoTierFamily:
    def test_fixture_matches_builder(self, hardness):
        built = dm.two_tier_instance(2, 2)
        for s in range(16):
            assert built.f.value(s) == hardness.f.value(s)
            assert built.g.value(s) == hardness.g.value(s)

    def test_density_vector(self, hardness):
        dec = dm.density_decomposition(hardness)
        assert dec.densities == (2, 1)
        assert dec.parts == (0b0011, 0b1100)

    def test_only_top_tier_pays_midrange(self):
        for n_top, n_bottom in ((2, 2), (3, 2), (2, 3)):
            inst = dm.two_tier_instance(n_top, n_bottom)
            top = (1 << n_top) - 1
            for gamma in (F(5, 4), F(3, 2), F(7, 4)):
                ftab, gtab = value_tables(inst)
                for s in range(1, 1 << inst.n):
                    value = ftab[s] - gamma * gtab[s]
                    if s == top:
                        assert value > 0
                    else:
                        assert value < 0

    def test_critical_values(self, hardness):
        dec = dm.density_decomposition(hardness)
        assert dm.critical_values(dec) == [F(1, 2), F(1)]


def disjoint_cliques(rng, n):
    """Cliques of 1 to 3 elements with pair and loop rewards and a linear cost.

    Returns the instance and its part densities read off the construction:
    a clique of s elements has density (pair (s - 1) / 2 + loop) / cost, the
    largest over its subsets, and cliques of equal density share a part.
    """
    edges, costs, densities = [], [], set()
    start = 0
    while start < n:
        size = min(int(rng.integers(1, 4)), n - start)
        pair = F(int(rng.integers(0, 5)))
        loop = F(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
        cost = F(int(rng.integers(1, 5)), int(rng.integers(1, 3)))
        members = range(start, start + size)
        edges += [(u, v, pair) for u in members for v in members if u < v]
        edges += [(u, u, loop) for u in members]
        costs += [cost] * size
        densities.add((pair * (size - 1) / 2 + loop) / cost)
        start += size
    inst = dm.DualModularInstance(
        ground=dm.GroundSet(tuple(f"v{i}" for i in range(n))),
        f=dm.EdgesInside(tuple(edges)),
        g=dm.Linear(tuple(costs)),
    )
    return inst, sorted(densities, reverse=True)


def check_analysis(inst, densities, dec=None):
    """analyze_contracts against the densities, the brute-force responses and value_tables."""
    dec = dec or dm.density_decomposition(inst)
    analysis = dm.analyze_contracts(inst, dec)
    crit = [1 / rho for rho in densities if rho >= 1]
    assert list(analysis.critical_values) == crit
    ftab, gtab = value_tables(inst)
    for alpha, mask, ua, up in zip(
        crit, analysis.responses, analysis.agent_utilities, analysis.principal_utilities
    ):
        assert best_response_bruteforce(inst, alpha) == (mask, ua)
        assert ua == alpha * ftab[mask] - gtab[mask]
        assert up == (1 - alpha) * ftab[mask]
    optimum = (F(0), 0, F(0))
    if crit:
        first = analysis.principal_utilities.index(max(analysis.principal_utilities))
        optimum = (crit[first], analysis.responses[first], analysis.principal_utilities[first])
    assert (analysis.optimal_alpha, analysis.optimal_response, analysis.optimal_principal_utility) == optimum
    return analysis


class TestAnalysisDifferential:
    def test_disjoint_cliques(self):
        rng = np.random.default_rng(91)
        parts = []
        for _ in range(40):
            inst, densities = disjoint_cliques(rng, int(rng.integers(2, 11)))
            parts.append(len(check_analysis(inst, densities).critical_values))
        assert max(parts) >= 3  # the draws reach several critical values

    def test_random_instances(self):
        rng = np.random.default_rng(92)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(1, 8)))
            check_analysis(inst, dm.density_decomposition(inst).densities)

    def test_tied_optimum_keeps_the_smaller_alpha(self):
        # densities 4 and 2: the principal gets (1 - 1/4) 4 = (1 - 1/2) (4 + 2) = 3
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")), f=dm.Linear((F(4), F(2))), g=dm.Linear((F(1), F(1)))
        )
        analysis = check_analysis(inst, [F(4), F(2)])
        assert analysis.principal_utilities == (3, 3)
        assert (analysis.optimal_alpha, analysis.optimal_response) == (F(1, 4), 0b01)

    def test_one_walk_of_f_and_one_of_g(self):
        # every response is a union of leading parts, read at the part ends of
        # one walk per function over those parts; no single value is evaluated
        rng = np.random.default_rng(93)
        most = 0
        for _ in range(10):
            inst, densities = disjoint_cliques(rng, int(rng.integers(4, 11)))
            dec = dm.density_decomposition(inst)
            with mock.patch.object(dm.SetFunctionSpec, "value", autospec=True, side_effect=dm.SetFunctionSpec.value) as value, \
                    mock.patch.object(dm.EdgesInside, "prefixes", autospec=True, side_effect=dm.EdgesInside.prefixes) as f_walks, \
                    mock.patch.object(dm.Linear, "prefixes", autospec=True, side_effect=dm.Linear.prefixes) as g_walks:
                analysis = check_analysis(inst, densities, dec)
            assert value.call_count == 0
            assert (f_walks.call_count, g_walks.call_count) == (1, 1)
            chain = f_walks.call_args.args[1]
            assert g_walks.call_args.args[1] == chain
            walked = analysis.responses[-1] if analysis.responses else 0
            assert sorted(chain) == [u for u in range(inst.n) if walked >> u & 1]
            most = max(most, len(analysis.responses))
        assert most >= 3
