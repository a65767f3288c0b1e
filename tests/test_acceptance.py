"""End-to-end acceptance checks.

One test per criterion; each prints a single PASS line with its runtime
after every assertion in it has held.  Exact claims are asserted with zero
tolerance on rationals; binary64 claims carry their stated tolerances.
"""

import itertools
import math
import operator
import time
from fractions import Fraction as F

import numpy as np
import pytest

import dualmod as dm
from dualmod.errors import ZeroCostCoordinate

from conftest import (
    fd_hessian_max_eig,
    fixture_path,
    hessian_closed_form_max,
    mask_of,
    random_allocation,
    random_consistent_allocation,
    random_instance,
    random_n,
    value_tables,
)
from oracles import best_response_bruteforce


def _report(number: int, started: float, summary: str, budget: float | None = None):
    elapsed = time.perf_counter() - started
    print(f"[acceptance] criterion {number}: PASS ({elapsed:.1f}s) {summary}")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def _tabulated(inst):
    """Same values behind O(1) lookups; keeps brute-force loops fast."""
    ftab, gtab = value_tables(inst)
    return dm.DualModularInstance(
        ground=inst.ground,
        f=dm.ExplicitTable(tuple(ftab)),
        g=dm.ExplicitTable(tuple(gtab)),
        normalized=inst.normalized,
        check_totals=False,
    )


def test_criterion_1_worked_three_element_example():
    started = time.perf_counter()
    inst = dm.load_instance(fixture_path("sec32"))
    g = inst.ground

    dec = dm.density_decomposition(inst)
    assert [g.labels_of(p) for p in dec.parts] == [["a", "w"], ["b"]]
    assert dec.densities == (F(1), F(1, 2))
    assert dec.rho_star[g.index_of("w")] == 1

    report = dm.verify_dual_modularity(inst)
    assert report.f_supermodular and report.g_submodular and report.g_monotone
    assert not report.g_strictly_monotone
    assert report.witnesses["g_strictly_monotone"] == (
        mask_of(g, ["a"]),
        mask_of(g, ["a", "w"]),
    )

    allocation = dm.Allocation(x=(F(1), F(0), F(1)), y=(F(1), F(0), F(2)))
    assert dm.check_base_membership(inst, allocation).both
    with pytest.raises(ZeroCostCoordinate) as exc:
        dm.induced_densities(allocation, labels=g.labels)
    assert exc.value.label == "w"

    _report(1, started, "three-element table reproduced exactly", budget=1.0)


def test_criterion_2_decomposition_oracle_equivalence(decomposition_pool):
    started = time.perf_counter() - decomposition_pool.build_seconds
    assert len(decomposition_pool) == 500
    for inst, dec in decomposition_pool:
        for hi, lo in zip(dec.densities, dec.densities[1:]):
            assert hi > lo
        if len(dec.parts) > 1:
            res = dm.residual_instance(inst, dec.parts[0])
            tail = dm.density_decomposition(res)
            assert tail.densities == dec.densities[1:]
            keep = [u for u in range(inst.n) if not dec.parts[0] >> u & 1]
            mapped = []
            for part in tail.parts:
                m = 0
                for i in range(res.n):
                    if part >> i & 1:
                        m |= 1 << keep[i]
                mapped.append(m)
            assert tuple(mapped) == dec.parts[1:]
    _report(
        2,
        started,
        "strict decrease and recursion consistency on 500 verified instances",
        budget=120.0,
    )


def test_criterion_3_gradient_oracle_optimality():
    started = time.perf_counter()
    rng = np.random.default_rng(30)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        inst = _tabulated(random_instance(rng, n, strict_f=True))
        rho = dm.induced_densities(random_allocation(rng, inst))
        assert all(r > 0 for r in rho)
        sigma = dm.sort_by_density(rho)
        quad_best = dm.partial_derivative(inst, rho, sigma, dm.QUADRATIC)
        kl_best = dm.partial_derivative(inst, rho, sigma, dm.ENTROPY_KL)
        eg_best = dm.partial_derivative(inst, rho, sigma, dm.EISENBERG_GALE)
        for order in itertools.permutations(range(n)):
            tau = dm.Permutation(order)
            # exact, zero tolerance, for the rational-valued generator
            assert quad_best <= dm.partial_derivative(inst, rho, tau, dm.QUADRATIC)
            # the logarithmic generators evaluate transcendentally; their
            # minimality is checked at binary64 resolution
            assert float(kl_best) <= float(
                dm.partial_derivative(inst, rho, tau, dm.ENTROPY_KL)
            ) + 1e-12
            assert float(eg_best) <= float(
                dm.partial_derivative(inst, rho, tau, dm.EISENBERG_GALE)
            ) + 1e-12
    _report(
        3,
        started,
        "sorting attains the minimum directional derivative, 100 instances x 3 generators",
        budget=300.0,
    )


def test_criterion_4_frank_wolfe_within_bounds():
    started = time.perf_counter()
    for name in ("p3", "tri_iso"):
        inst = dm.normalize(dm.load_instance(fixture_path(name)))
        dec = dm.density_decomposition(inst)
        opt = dm.optimal_objective(dec, inst, dm.QUADRATIC)
        for T in (10, 100, 1000, 10000):
            trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=T))
            bounds = dm.error_bounds(inst, dm.QUADRATIC, T)
            phi = dm.divergence(dm.QUADRATIC, trace.final_x, trace.final_y)
            assert float(phi) - float(opt) <= float(bounds.objective_gap_upper)
            err = math.sqrt(
                sum((float(a) - float(b)) ** 2 for a, b in zip(trace.final_rho, dec.rho_star))
            )
            assert err <= bounds.absolute_density_upper

    raw_p3 = dm.load_instance(fixture_path("p3"))
    trace = dm.frank_wolfe(raw_p3, dm.SolverConfig(iterations=2000))
    err = math.sqrt(sum((float(r) - 2 / 3) ** 2 for r in trace.final_rho))
    assert err <= 1e-2

    _report(4, started, "objective and density errors dominated by the a-priori bounds", budget=60.0)


def test_criterion_5_hockey_stick_duality():
    started = time.perf_counter()
    rng = np.random.default_rng(50)
    gammas = (F(0), F(1, 2), F(1), F(2))

    # exact inequality: exhaustive subsets against sampled feasible pairs
    for _ in range(200):
        n = random_n(rng)
        inst = _tabulated(random_instance(rng, n))
        ftab, gtab = value_tables(inst)
        for _ in range(2):
            a = random_allocation(rng, inst)
            for gamma in gammas:
                hs = dm.divergence(dm.HockeyStick(gamma), a.x, a.y)
                best = max(ftab[s] - gamma * gtab[s] for s in range(1 << n))
                assert best <= hs  # covers every subset at once, exactly

    # near-optimal iterates: gap collapses at the matching response prefix
    fw_instances = [
        dm.normalize(dm.load_instance(fixture_path("p3"))),
        dm.normalize(dm.load_instance(fixture_path("tri_iso"))),
    ]
    for _ in range(4):
        fw_instances.append(dm.normalize(random_instance(rng, int(rng.integers(2, 7)), strict_f=True)))
    for inst in fw_instances:
        dec = dm.density_decomposition(inst)
        trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=5000))
        a = dm.Allocation(x=trace.final_x, y=trace.final_y)
        prefixes = list(itertools.accumulate(dec.parts, operator.or_))
        for i, rho in enumerate(dec.densities):
            low = dec.densities[i + 1] if i + 1 < len(dec.parts) else F(0)
            gamma = (rho + low) / 2  # strictly between consecutive densities
            gap = dm.duality_gap(inst, prefixes[i], a, gamma)
            # binary64 iterates are feasible only up to rounding, so the
            # exact-arithmetic sign guarantee relaxes to |gap| here
            assert abs(float(gap)) <= 1e-6

    _report(5, started, "agent objective never exceeds the hockey-stick value; FW gap <= 1e-6", budget=180.0)


def test_criterion_6_contracts_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(60)
    strict_cases = 0
    for _ in range(200):
        n = random_n(rng)
        inst = _tabulated(random_instance(rng, n))
        dec = dm.density_decomposition(inst)
        alpha = F(int(rng.integers(0, 101)), 100)

        mask, value = best_response_bruteforce(inst, alpha)
        assert mask == dm.best_response(inst, dec, alpha)
        assert value == alpha * inst.f.value(mask) - inst.g.value(mask)

        crit = dm.critical_values(dec)
        assert crit == sorted(1 / r for r in dec.densities if r >= 1)

        if alpha > 0:
            gamma = 1 / alpha
            strictly_between = all(r != gamma for r in dec.densities)
            if strictly_between:
                ftab, gtab = value_tables(inst)
                best = None
                winners = []
                for s in range(1 << n):
                    v = alpha * ftab[s] - gtab[s]
                    if best is None or v > best:
                        best, winners = v, [s]
                    elif v == best:
                        winners.append(s)
                assert winners == [mask]
                strict_cases += 1
    assert strict_cases >= 100
    _report(6, started, "prefix rule matches exhaustive search on 200 (instance, alpha) pairs", budget=120.0)


def test_criterion_7_reward_cost_symmetry():
    started = time.perf_counter()
    rng = np.random.default_rng(70)
    for _ in range(100):
        n = random_n(rng)
        inst = random_instance(rng, n, strict_f=True)
        comp = dm.complement_instance(inst)

        d1 = dm.density_decomposition(inst)
        d2 = dm.density_decomposition(comp)
        for a, b in zip(d1.rho_star, d2.rho_star):
            assert a * b == 1

        cfg = dm.SolverConfig(iterations=50, arithmetic="rational", stride=1)
        cfg_rev = dm.SolverConfig(
            iterations=50,
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
    _report(7, started, "reciprocal density vectors and exactly mirrored runs, 100 instances", budget=120.0)


def test_criterion_8_fairness_equivalence(decomposition_pool):
    started = time.perf_counter()
    rng = np.random.default_rng(80)
    maximin_found = 0
    for inst, dec in decomposition_pool:
        for _ in range(2):
            a = random_consistent_allocation(rng, inst, dec)
            rep = dm.equivalence_report(inst, a, dec)
            assert rep.agree  # density agreement and level-set tightness flip together
            if not rep.locally_maximin:
                # unfair allocations sort strictly lex-worse than the target
                assert rep.lex_order == 1
                continue
            assert rep.lex_order == 0
            maximin_found += 1
            for kind in (dm.QUADRATIC, dm.HockeyStick(F(1)), dm.HockeyStick(F(1, 2))):
                assert dm.objective(inst, a, kind) == dm.optimal_objective(dec, inst, kind)
            for kind in (dm.ENTROPY_KL, dm.EISENBERG_GALE):
                try:
                    got = dm.objective(inst, a, kind)
                except dm.errors.DomainError:
                    continue  # a zero density puts -log t off-domain
                want = dm.optimal_objective(dec, inst, kind)
                assert got == pytest.approx(want, rel=1e-9)
    assert maximin_found >= 20
    _report(
        8,
        started,
        f"equivalence held on 2000 allocations; {maximin_found} were locally maximin "
        "and matched the closed-form optimum",
    )


def test_criterion_9_hessian_formulas():
    started = time.perf_counter()
    rng = np.random.default_rng(90)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        x = [float(rng.uniform(0.3, 1.2)) for _ in range(n)]
        y = [float(rng.uniform(0.3, 1.2)) for _ in range(n)]
        for kind in dm.STRICTLY_CONVEX_KINDS:
            fd = fd_hessian_max_eig(kind, x, y)
            closed = hessian_closed_form_max(kind.name, x, y)
            assert fd == pytest.approx(closed, rel=1e-4)
    _report(9, started, "finite-difference Hessian matches the closed forms at 20 points")
