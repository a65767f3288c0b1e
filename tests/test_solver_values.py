"""The solver's value path against iterations that read f and g another way.

The solver evaluates f and g at the masks a run visits, each once, through
a per-run memo that stores all prefixes of an order from one integer walk.
The references here repeat the same iteration reading the values from full
2^n tables (n <= 8), or from a fresh ``spec.value`` call on every visit
(n = 21, where a table would hold two million values each), and must give
identical rows and final x, y.
"""

from fractions import Fraction as F

import numpy as np
import pytest

import dualmod as dm
from dualmod.solver import TraceRow, _phi_values

from conftest import rand_frac, random_instance, value_tables


class Direct:
    """A set function evaluated afresh on every call, float in binary64 mode."""

    def __init__(self, spec, as_float):
        self.spec = spec
        self.as_float = as_float

    def value(self, mask):
        v = self.spec.value(mask)
        return float(v) if self.as_float else v

    __getitem__ = value


def table_walk(tab, sigma):
    out = [0] * sigma.n
    prefix = 0
    for u in sigma.order:
        out[u] = tab[prefix | 1 << u] - tab[prefix]
        prefix |= 1 << u
    return out


def greedy_order(f, x, k, as_float):
    gamma = 1.0 / (k + 1) if as_float else F(1, k + 1)
    keep = 1 - gamma
    remaining = (1 << len(x)) - 1
    order = []
    while remaining:
        members = [u for u in range(len(x)) if remaining >> u & 1]
        best = min(members, key=lambda u: (keep * x[u] + gamma * (f[remaining] - f[remaining ^ 1 << u]), u))
        order.append(best)
        remaining ^= 1 << best
    return dm.Permutation(tuple(reversed(order)))


def reference_run(inst, cfg, f, g, walk):
    """Rows (all snapshots) and final x, y of the iteration, values read from f, g."""
    as_float = cfg.arithmetic == "binary64"
    sigma = cfg.initial_permutation or dm.Permutation.identity(inst.n)
    x, y = walk(f, sigma), walk(g, sigma)
    rows = []
    for k in range(cfg.iterations):
        rho = tuple(a / b for a, b in zip(x, y))
        if cfg.variant == "fw":
            sigma = dm.sort_by_density(rho)
        else:
            sigma = greedy_order(f, x, k, as_float)
        rows.append(TraceRow(k, *_phi_values(rho, y), sigma=sigma, rho=rho, allocation=(tuple(x), tuple(y))))
        num, den = (1, k + 1) if cfg.variant == "greedypp" else (2, k + 2)
        gamma = num / den if as_float else F(num, den)
        c, d = walk(f, sigma), walk(g, sigma)
        x = [(1 - gamma) * xu + gamma * cu for xu, cu in zip(x, c)]
        y = [(1 - gamma) * yu + gamma * du for yu, du in zip(y, d)]
    return tuple(rows), tuple(x), tuple(y)


def with_linear_cost(rng, inst):
    weights = tuple(rand_frac(rng) for _ in range(inst.n))
    return dm.DualModularInstance(ground=inst.ground, f=inst.f, g=dm.Linear(weights))


def cases(rng, n):
    inst = random_instance(rng, n)
    return [(inst, "fw"), (with_linear_cost(rng, inst), "greedypp")]


def assert_same_run(inst, cfg, f, g, walk):
    trace = dm.solve(inst, cfg)
    rows, x, y = reference_run(inst, cfg, f, g, walk)
    assert trace.rows == rows
    assert (trace.final_x, trace.final_y) == (x, y)


@pytest.mark.parametrize("arithmetic,T", [("binary64", 40), ("rational", 15)])
def test_memo_matches_full_table_walk(arithmetic, T):
    rng = np.random.default_rng(51)
    as_float = arithmetic == "binary64"
    for n in range(2, 9):
        for inst, variant in cases(rng, n):
            cfg = dm.SolverConfig(iterations=T, variant=variant, arithmetic=arithmetic, stride=1)
            f, g = value_tables(inst)
            if as_float:
                f, g = [float(v) for v in f], [float(v) for v in g]
            assert_same_run(inst, cfg, f, g, table_walk)


@pytest.mark.parametrize("arithmetic,T", [("binary64", 12), ("rational", 6)])
def test_memo_matches_direct_walk_above_old_table_size(arithmetic, T):
    rng = np.random.default_rng(52)
    as_float = arithmetic == "binary64"
    for inst, variant in cases(rng, 21):
        cfg = dm.SolverConfig(iterations=T, variant=variant, arithmetic=arithmetic, stride=1)
        assert_same_run(inst, cfg, Direct(inst.f, as_float), Direct(inst.g, as_float), table_walk)


def prefix_set(order):
    out = {0}
    prefix = 0
    for u in order:
        prefix |= 1 << u
        out.add(prefix)
    return out


@pytest.mark.parametrize("arithmetic", ["binary64", "rational"])
def test_each_mask_evaluated_at_most_once(monkeypatch, arithmetic):
    """Every value comes from a ``prefixes`` call.  One over all n elements is
    a walk, and a shorter chain is a query for its last mask.  Frank-Wolfe
    makes only walks, each for an order with an unstored prefix, and no
    chain query.  Greedy++'s removal queries ask for each mask at most once,
    and never for a mask a walk stored."""
    events = []
    n = 10

    def recording(cls):
        original = cls.prefixes

        def prefixes(self, order):
            events.append((self, tuple(order)))
            return original(self, order)

        monkeypatch.setattr(cls, "prefixes", prefixes)

    for cls in (dm.EdgesInside, dm.Perturbed, dm.Linear, dm.ConcaveOfCardinality):
        recording(cls)
    rng = np.random.default_rng(53)
    for inst, variant in cases(rng, n):
        events.clear()
        cfg = dm.SolverConfig(iterations=6, variant=variant, arithmetic=arithmetic)
        trace = dm.solve(inst, cfg)
        orders = [dm.Permutation.identity(n)] + [r.sigma for r in trace.rows]
        visited = set().union(*(prefix_set(s.order) for s in orders))
        for spec in (inst.f, inst.g):
            stored = set()
            walked = []
            for who, chain in events:
                if who is not spec:
                    continue
                masks = prefix_set(chain)
                if len(chain) == n:
                    # a walk only for an order with an unstored prefix
                    assert not masks <= stored
                    walked.append(chain)
                    stored |= masks
                else:
                    # a Greedy++ removal query for the chain's last mask, never a stored one
                    mask = sum(1 << u for u in chain)
                    assert mask not in stored
                    stored.add(mask)
            assert walked and len(walked) == len(set(walked))
            if variant == "fw":
                assert stored == visited
            else:
                assert visited <= stored
        if variant == "fw":
            # Frank-Wolfe reads every value off a walk, nested specs included
            assert all(len(chain) == n for _, chain in events)
        else:
            assert any(who is inst.f and len(chain) < n for who, chain in events)
