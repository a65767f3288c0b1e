"""The solver's value path against iterations that read f and g another way.

The solver evaluates f and g at the masks a run visits, each once, through
a per-run memo that stores all prefixes of an order from one integer walk;
where a run could visit every mask, it steps over both whole tables after
one walk each.  The references here repeat the same iteration reading the
values from full 2^n tables (n <= 8), or from a fresh ``spec.value`` call
on every visit (n = 21, where a table would hold two million values each),
and must give identical rows and final x, y.  The step itself is checked
against the one it replaced, which took each vertex and then mixed it in,
and Greedy++'s removals, read off f's marginal vectors, against the memo
queries that walked the chain of each f(R - u).
"""

import functools
import operator
from fractions import Fraction as F
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualmod as dm
from dualmod import solver
from dualmod.errors import DomainError, DualModError, ZeroCostCoordinate
from dualmod.permutation import marginals
from dualmod.rational import format_rational
from dualmod.solver import TraceRow, _Memo, _phi_values

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


def size_only(spec):
    """Whether spec is phi(|S|) under scaling, perturbing and complementing."""
    while isinstance(spec, (dm.Scaled, dm.Perturbed, dm.ComplementOf)):
        spec = spec.base
    return isinstance(spec, dm.ConcaveOfCardinality)


def record_walks(monkeypatch, events):
    """Append (spec, order) to events on every ``prefixes`` walk of a kind the runs below use."""

    def recording(cls):
        original = cls.prefixes

        def prefixes(self, order):
            events.append((self, tuple(order)))
            return original(self, order)

        monkeypatch.setattr(cls, "prefixes", prefixes)

    for cls in (dm.EdgesInside, dm.Perturbed, dm.Linear, dm.ConcaveOfCardinality, dm.ComplementOf):
        recording(cls)


def cost_runs(rng, n):
    """``cases``, and both variants again over a size-only reward: the complement
    of a concave cost is supermodular (over a copy of the cost, so that its
    inner walks are not the cost's)."""
    runs = cases(rng, n)
    (inst, _), (linear, _) = runs
    reward = dm.ComplementOf(dm.Perturbed(inst.g.base, inst.g.eta), n)
    return runs + [
        (dm.DualModularInstance(ground=inst.ground, f=reward, g=inst.g), "fw"),
        (dm.DualModularInstance(ground=inst.ground, f=reward, g=linear.g), "greedypp"),
    ]


@pytest.mark.parametrize("arithmetic", ["binary64", "rational"])
def test_each_mask_evaluated_at_most_once(monkeypatch, arithmetic):
    """Every value comes from a ``prefixes`` walk over all n elements, made
    only for an order with an unstored prefix.  A size-only function is
    walked exactly once, on the first order; any other function's walks
    store exactly the prefixes the run visits.  Neither variant makes a
    shorter chain query: Greedy++ reads its removals off f's marginal
    vector, once at V per step, and an edge reward's vector is updated in
    place after that."""
    events = []
    vectors = []
    n = 10
    record_walks(monkeypatch, events)
    vector = dm.SetFunctionSpec.marginal_vector
    monkeypatch.setattr(dm.SetFunctionSpec, "marginal_vector",
                        lambda self, mask, n: vectors.append((self, mask)) or vector(self, mask, n))
    rng = np.random.default_rng(53)
    full = (1 << n) - 1
    for inst, variant in cost_runs(rng, n):
        events.clear()
        vectors.clear()
        cfg = dm.SolverConfig(iterations=6, variant=variant, arithmetic=arithmetic)
        trace = dm.solve(inst, cfg)
        orders = [dm.Permutation.identity(n)] + [r.sigma for r in trace.rows]
        visited = set().union(*(prefix_set(s.order) for s in orders))
        assert all(len(chain) == n for _, chain in events)
        for spec in (inst.f, inst.g):
            stored = set()
            walked = []
            for who, chain in events:
                if who is spec:
                    masks = prefix_set(chain)
                    assert not masks <= stored
                    walked.append(chain)
                    stored |= masks
            if size_only(spec):
                # every later order reads the first walk's marginals by position
                assert walked == [orders[0].order]
            else:
                assert walked and len(walked) == len(set(walked))
                assert stored == visited
        read = [mask for who, mask in vectors if who is inst.f]
        if variant == "fw":
            assert vectors == []
        elif isinstance(inst.f, dm.EdgesInside):
            assert read == [full] * 6
        else:
            assert read.count(full) == 6 and len(read) > 6
        assert all(who is inst.f for who, _ in vectors)


@pytest.mark.parametrize("arithmetic", ["binary64", "rational"])
@pytest.mark.parametrize("T,whole", [(8, False), (9, True)], ids=["below-rule", "above-rule"])
def test_one_table_where_a_run_could_visit_every_mask(monkeypatch, arithmetic, T, whole):
    """At n = 6, T = 9 steps could visit (T + 1)(n + 1) = 70 >= 2^6 masks, and
    T = 8 only 63.  Above that rule each function, size-only or not, takes one
    ``table`` and one walk, the first iterate's, and its memo holds only that
    walk's n + 1 values; below it no table is built."""
    n = 6
    events, tables, memos = [], [], []
    record_walks(monkeypatch, events)
    table = dm.SetFunctionSpec.table

    def recording_table(self, n):
        tables.append(self)
        walks = len(events)
        out = table(self, n)
        del events[walks:]  # a size-only function's table reads a walk of its own
        return out

    class Recorded(_Memo):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(dm.SetFunctionSpec, "table", recording_table)
    monkeypatch.setattr(solver, "_Memo", Recorded)
    start = dm.Permutation((5, 3, 1, 0, 2, 4))
    for inst, variant in cost_runs(np.random.default_rng(57), n):
        events.clear()
        tables.clear()
        memos.clear()
        dm.final_iterate(inst, dm.SolverConfig(iterations=T, variant=variant, arithmetic=arithmetic,
                                               initial_permutation=start))
        if not whole:
            assert tables == []
        for spec, memo in zip((inst.f, inst.g), memos, strict=True):
            walked = [chain for who, chain in events if who is spec]
            if whole:
                assert (walked, [who for who in tables if who is spec]) == ([start.order], [spec])
                assert memo.keys() == prefix_set(start.order)
            elif size_only(spec):
                assert walked == [start.order]
            else:
                assert len(walked) > 1


def test_no_table_once_the_first_walk_is_past_resolution(monkeypatch):
    # f scaled by 2^60: its first walk's values are past 2^52, so every order is
    # walked as in an unfilled run, and no table is built only to be dropped
    inst = random_instance(np.random.default_rng(58), 6)
    inst = dm.DualModularInstance(ground=inst.ground, f=dm.Scaled(inst.f, F(2**60)), g=inst.g)
    tables = []
    table = dm.SetFunctionSpec.table
    monkeypatch.setattr(dm.SetFunctionSpec, "table", lambda self, n: tables.append(self) or table(self, n))
    dm.final_iterate(inst, dm.SolverConfig(iterations=9))
    assert tables == []


@pytest.mark.parametrize("arithmetic", ["binary64", "rational"])
def test_rows_agree_across_the_fill_rule(arithmetic):
    # at n = 8, T = 27 steps could visit 28 * 9 = 252 < 2^8 masks, so that run
    # walks; T = 28 could visit 261 and steps over whole tables.  The rows they
    # share are the same
    rng = np.random.default_rng(56)
    for inst, variant in cases(rng, 8):
        below, above = (dm.solve(inst, dm.SolverConfig(iterations=T, variant=variant, arithmetic=arithmetic, stride=1))
                        for T in (27, 28))
        assert repr(below.rows) == repr(above.rows[:27])


@pytest.mark.parametrize("arithmetic", ["binary64", "rational"])
def test_whole_table_runs_match_walks_alone(arithmetic):
    # n = 8 and T = 28, above the rule: a dense edge reward over a size-only
    # cost, perturbed concave for Frank-Wolfe and with equal steps for
    # Greedy++, against the same runs with every whole table refused
    inst = random_instance(np.random.default_rng(59), 8)
    equal_steps = dm.ConcaveOfCardinality(tuple(F(3, 2) * k for k in range(9)))
    linear = dm.DualModularInstance(ground=inst.ground, f=inst.f, g=equal_steps)
    for inst, variant in ((inst, "fw"), (linear, "greedypp")):
        assert size_only(inst.g)
        cfg = dm.SolverConfig(iterations=28, variant=variant, arithmetic=arithmetic, stride=1)
        with mock.patch.object(solver, "_table_step", wraps=solver._table_step) as step:
            whole = outcomes(inst, cfg)
        assert step.call_count == 2 * 28
        with mock.patch.object(_Memo, "whole_table", lambda self, n: None):
            assert outcomes(inst, cfg) == whole


def errors_at(inst, T, **kw):
    """``outcomes`` at T steps, and how many of the two runs' steps went over whole tables."""
    with mock.patch.object(solver, "_table_step", wraps=solver._table_step) as step:
        return outcomes(inst, dm.SolverConfig(iterations=T, **kw)), step.call_count


def four_elements(f, g):
    return dm.DualModularInstance(ground=dm.GroundSet(("a", "b", "c", "d")), f=f, g=g)


@pytest.mark.parametrize("variant", ["fw", "greedypp"])
def test_density_errors_on_both_sides_of_the_rule(variant):
    # at n = 4, T = 1 could visit 2 * 5 = 10 < 2^4 masks and walks; T = 5 could
    # visit 30 and steps over whole tables.  2^49 / 2^-1000 is past the binary64
    # range from the first iterate on
    tiny = F(1, 2**1000)
    flat = four_elements(dm.Linear((F(2**49),) * 4), dm.Linear((tiny,) * 4))
    # the first iterate's densities are finite; the first step moves the pair
    # edge's 2^24 from b's share to a's, and a's density past the range
    edges = ((0, 0, F(1)), (1, 1, F(1)), (0, 1, F(2**24)), (2, 2, F(1)), (3, 3, F(1)))
    moved = four_elements(dm.EdgesInside(edges), dm.Linear((tiny, 2**10 * tiny, 2**10 * tiny, 2**10 * tiny)))
    for inst, steps in ((flat, 0), (moved, 2)):
        walked, whole = errors_at(inst, 1, variant=variant), errors_at(inst, 5, variant=variant)
        assert (walked[1], whole[1]) == (0, steps)
        assert walked[0] == whole[0] == [repr((DomainError, "density of element a exceeds the binary64 range"))] * 2


@pytest.mark.parametrize("arithmetic", ["binary64", "rational"])
def test_zero_cost_share_on_both_sides_of_the_rule(arithmetic):
    # g(a) = g(a, b) = 2 and g(b) = 1, so b's share after a is 0; c and d add
    # 1 each.  The start (b, a, c, d) gives every share 1 and densities
    # (4, 3, 2, 1), and the first step takes the order (a, b, c, d)
    h = (0, 2, 1, 2)
    g = dm.ExplicitTable(tuple(F(h[m & 3] + (m >> 2 & 1) + (m >> 3)) for m in range(16)))
    inst = four_elements(dm.Linear((F(4), F(3), F(2), F(1))), g)
    start = dm.Permutation((1, 0, 2, 3))
    walked, whole = (errors_at(inst, T, arithmetic=arithmetic, initial_permutation=start) for T in (1, 5))
    assert (walked[1], whole[1]) == (0, 2)
    message = str(ZeroCostCoordinate(1, "b"))
    assert walked[0] == whole[0] == [repr((ZeroCostCoordinate, message))] * 2


# ---------------------------------------------------------------------------
# the step against the one it replaced: vertex, then two list comprehensions
# ---------------------------------------------------------------------------


class VertexThenMix(dict):
    """The memo and step the solver ran before ``_Memo.mix``, kept as an oracle.

    ``vertex`` reads an order's stored prefixes, and a miss walks the order
    and stores all n + 1 values; every function, size-only or not, walks
    each order with an unstored prefix, and ``whole_table`` refuses, so
    every run walks and the memo holds only what walks stored.  ``mix``
    takes the vertex and then mixes it in with a list comprehension.
    ``memo[mask]``, the query of :func:`chain_walk_removal_order`, walks the
    chain of an unstored mask's elements and stores and gates its value.
    """

    def __init__(self, spec, as_float, name, labels):
        super().__init__()
        self._spec = spec
        self._name = name
        self._labels = labels
        self._exact = operator.truediv if as_float else F
        self._as_float = as_float
        self._unresolved = False

    def whole_table(self, n):
        return None  # every order is walked: a whole-table run is compared with walks alone

    def mix(self, order, x, keep, gamma):
        c = self.vertex(order)
        return [keep * xu + gamma * cu for xu, cu in zip(x, c)]

    def vertex(self, order):
        get = self.get
        out = [0] * len(order)
        prefix = 0
        prev = get(0)
        if prev is None:
            return self._walk(order)
        for u in order:
            prefix |= 1 << u
            cur = get(prefix)
            if cur is None:
                return self._walk(order)
            out[u] = cur - prev
            prev = cur
        return self._checked(order, out) if self._unresolved else out

    def _walk(self, order):
        ints, den = self._spec.prefixes(order)
        masks = list(accumulate((1 << u for u in order), operator.or_, initial=0))
        return self._checked(order, marginals(order, self._store(masks, ints, den)))

    def __missing__(self, mask):
        ints, den = self._spec.prefixes([u for u in range(mask.bit_length()) if mask >> u & 1])
        return self._store([mask], ints[-1:], den)[0]

    def _store(self, masks, ints, den):
        try:
            values = [self._exact(v, den) for v in ints]
        except OverflowError:
            raise DomainError(f"{self._name}: a value exceeds the binary64 range") from None
        self.update(zip(masks, values))
        if self._as_float and not self._unresolved:
            self._unresolved = den > 2**1022 or max(ints) >= 2**52 or min(ints) <= -(2**52)
        return values

    def _checked(self, order, c):
        if self._unresolved and 0.0 in c:
            ints, den = self._spec.prefixes(order)
            role = "reward" if self._name == "f" else "cost"
            for u, exact in enumerate(marginals(order, ints)):
                if c[u] == 0 and exact != 0:
                    raise DomainError(
                        f"{self._name}: {role} share of element {self._labels[u]} is "
                        f"{format_rational(F(exact, den))}, below binary64 resolution "
                        f"at the values of {self._name} around it, so it rounds to 0"
                    )
        return c


def chain_walk_removal_order(n, x, f, gamma):
    """Greedy++'s order as the solver built it before marginal vectors, kept
    as an oracle: every f(R) and f(R - u) is a memo query, ``f[mask]``."""
    keep = 1 - gamma
    remaining = (1 << n) - 1
    order_rev = []
    f_rem = f[remaining]
    while remaining:
        best_u = None
        best_score = None
        m = remaining
        while m:
            u = (m & -m).bit_length() - 1
            m &= m - 1
            score = keep * x[u] + gamma * (f_rem - f[remaining ^ (1 << u)])
            if best_score is None or score < best_score:
                best_score = score
                best_u = u
        order_rev.append(best_u)
        remaining ^= 1 << best_u
        f_rem = f[remaining]
    return tuple(reversed(order_rev))


small = st.sampled_from([F(1, 3), F(1), F(2), F(5, 2), F(7)])
# factors that take values past 2^52 or the binary64 range, or a denominator past 2^1022
huge = st.sampled_from([F(2**60), F(10**300), F(1, 2**1030)])
scales = st.one_of(st.sampled_from([F(1, 2), F(3)]), huge)


def wrapped(inner, n):
    return st.one_of(
        st.builds(dm.Scaled, inner, scales),
        st.builds(dm.Perturbed, inner, small),
        inner.map(lambda base: dm.ComplementOf(base, n)),
    )


def nested(leaves, n):
    once = st.one_of(leaves, wrapped(leaves, n))
    return st.one_of(once, wrapped(once, n))


def past_resolution(specs):
    """specs scaled past the bounds of binary64 resolution, some of them lifted
    by eta |S|: a step binary64 may lose next to the scaled values."""
    scaled = st.builds(dm.Scaled, specs, huge)
    return st.one_of(scaled, st.builds(dm.Perturbed, scaled, small))


def equal_steps(n):
    # phi(|S|) with equal steps is linear
    return small.map(lambda d: dm.ConcaveOfCardinality(tuple(d * k for k in range(n + 1))))


def size_only_leaves(n):
    # concave steps, some of them flat
    steps = st.lists(st.sampled_from([F(0), F(1, 3), F(1), F(2), F(7)]), min_size=n, max_size=n)
    return st.one_of(
        steps.map(lambda ds: dm.ConcaveOfCardinality(tuple(accumulate(sorted(ds, reverse=True), initial=F(0))))),
        equal_steps(n),
    )


def linears(n):
    return st.lists(small, min_size=n, max_size=n).map(lambda ws: dm.Linear(tuple(ws)))


def linear_costs(n):
    """Every kind whose structure proves it linear, so that Greedy++ runs on it:
    equal-step concave, ``Linear``, its complement and a loop on each element."""
    loops = st.lists(small, min_size=n, max_size=n).map(lambda ws: dm.EdgesInside(tuple((u, u, w) for u, w in enumerate(ws))))
    return st.one_of(equal_steps(n), linears(n), linears(n).map(lambda base: dm.ComplementOf(base, n)), loops)


def other_leaves(n):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), small)
    return st.one_of(
        st.lists(pair, min_size=1, max_size=2 * n).map(lambda es: dm.EdgesInside(tuple(es))),
        linears(n),
        st.lists(small, min_size=(1 << n) - 1, max_size=(1 << n) - 1).map(lambda r: dm.ExplicitTable((F(0), *r))),
    )


@functools.cache
def runs_on(n, unresolved):
    """(instance, config) on n elements: size-only and other specs, wrapped up to
    twice, under either variant; Greedy++'s cost is one its gate accepts, and
    may be size-only.  With ``unresolved``, every value is past the bounds of
    binary64 resolution."""
    ground = dm.GroundSet(tuple(f"v{i}" for i in range(n)))
    specs = nested(st.one_of(size_only_leaves(n), other_leaves(n)), n)
    linear = linear_costs(n)
    linear = st.one_of(linear, st.builds(dm.Scaled, linear, scales), st.builds(dm.Perturbed, linear, small))
    if unresolved:
        specs, linear = past_resolution(specs), past_resolution(linear)
    arithmetics = ["binary64"] if unresolved else ["binary64", "rational"]
    starts = st.permutations(range(n)).map(lambda order: dm.Permutation(tuple(order)))

    def run(variant):
        return st.tuples(
            st.builds(lambda f, g: dm.DualModularInstance(ground=ground, f=f, g=g, check_totals=False),
                      specs, linear if variant == "greedypp" else specs),
            st.builds(lambda T, arithmetic, start: dm.SolverConfig(
                iterations=T, variant=variant, arithmetic=arithmetic, initial_permutation=start),
                st.integers(1, 12), st.sampled_from(arithmetics), starts),
        )

    return st.sampled_from(["fw", "greedypp"]).flatmap(run)


def outcomes(inst, cfg):
    """repr of solve's trace and of final_iterate's result, or of the (type, message) each raises."""
    out = []
    for run in (dm.solve, dm.final_iterate):
        try:
            out.append(repr(run(inst, cfg)))
        except DualModError as exc:
            out.append(repr((type(exc), str(exc))))
    return out


def chain_walk_outcomes(inst, cfg):
    """``outcomes`` with the step and the Greedy++ removals the solver ran before."""
    with mock.patch.object(solver, "_Memo", VertexThenMix), \
            mock.patch.object(solver, "_removal_order", chain_walk_removal_order):
        return outcomes(inst, cfg)


@pytest.mark.parametrize("unresolved", [False, True], ids=["resolved", "unresolved"])
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_step_matches_vertex_then_mix(unresolved, data):
    # repr tells every float apart, -0.0 from 0.0 and each nan's place included
    inst, cfg = data.draw(st.integers(1, 6).flatmap(lambda n: runs_on(n, unresolved)))
    assert outcomes(inst, cfg) == chain_walk_outcomes(inst, cfg)


def test_removals_open_the_resolution_gate():
    # the walk of (b, a) stores only f(b) = 1 and f(a, b) = 2; the first removal
    # also converts f(a) = 2^60, past 2^52, which opens f's resolution gate
    # before the step's mix, as a memo query for f(a) did
    f = dm.ExplicitTable((F(0), F(2**60), F(1), F(2)))
    inst = dm.DualModularInstance(ground=dm.GroundSet(("a", "b")), f=f, g=dm.Linear((F(1), F(1))))
    cfg = dm.SolverConfig(iterations=1, variant="greedypp", initial_permutation=dm.Permutation((1, 0)))
    for memo, removal in ((_Memo, solver._removal_order), (VertexThenMix, chain_walk_removal_order)):
        gates = []

        def recording(n, x, f, gamma, removal=removal):
            gates.append(f._unresolved)
            order = removal(n, x, f, gamma)
            gates.append(f._unresolved)
            return order

        with mock.patch.object(solver, "_Memo", memo), mock.patch.object(solver, "_removal_order", recording):
            dm.final_iterate(inst, cfg)
        assert gates == [False, True]


def edge_reward_run(rng, n, T, arithmetic):
    """Greedy++ on 3n random edges plus a loop on each element, over a linear cost."""
    edges = [(int(u), int(v), rand_frac(rng)) for u, v in rng.integers(0, n, size=(3 * n, 2))]
    edges += [(u, u, rand_frac(rng)) for u in range(n)]
    inst = dm.DualModularInstance(
        ground=dm.GroundSet(tuple(f"v{i}" for i in range(n))),
        f=dm.EdgesInside(tuple(edges)),
        g=dm.Linear(tuple(rand_frac(rng) for _ in range(n))),
    )
    return inst, dm.SolverConfig(iterations=T, variant="greedypp", arithmetic=arithmetic, stride=1)


@pytest.mark.parametrize("arithmetic,T", [("binary64", 40), ("rational", 8)])
def test_greedypp_edge_updates_match_chain_walk_removals(arithmetic, T):
    # the neighbour updates of an edge reward's vector, at sizes the small draws miss
    rng = np.random.default_rng(55)
    for n in (12, 24, 48):
        inst, cfg = edge_reward_run(rng, n, T, arithmetic)
        dm.final_iterate(inst, cfg)  # the run ends without an error
        assert outcomes(inst, cfg) == chain_walk_outcomes(inst, cfg)


@pytest.mark.parametrize("spec,expected", [
    (dm.ConcaveOfCardinality((F(0), F(2), F(3))), True),
    (dm.ComplementOf(dm.Scaled(dm.Perturbed(dm.ConcaveOfCardinality((F(0), F(2), F(3))), F(1)), F(1, 2)), 2), True),
    (dm.EdgesInside(((0, 1, F(1)),)), False),
    (dm.Linear((F(1), F(2))), False),
    (dm.Scaled(dm.Linear((F(1), F(2))), F(2)), False),
    (dm.ComplementOf(dm.ExplicitTable((F(0), F(1), F(2), F(3))), 2), False),
    (dm.Perturbed(dm.EdgesInside(((0, 0, F(1)),)), F(1)), False),
], ids=["concave", "nested-wrappers", "edges", "unequal-linear", "scaled-linear", "complemented-table", "perturbed-edges"])
def test_size_only_kinds(spec, expected):
    assert spec._size_only is expected


def test_mix_checks_stored_shares_once_values_are_unresolved():
    # f({a}) = 2^60 and f({a, b}) = 2^60 + 1 round to one float.  The walks of
    # (b, a, c) and (a, c, b) lose no share and store every prefix of (a, b, c),
    # whose share of b at {a} is 1 exactly and 0.0 in binary64; once values are
    # unresolved, mix walks the order though every prefix is stored, and finds it
    a, b, c = 1, 2, 4
    values = {0: 0, a: 2**60, b: 512, c: 512, a | b: 2**60 + 1, a | c: 2**60 + 512, b | c: 1024, a | b | c: 2**60 + 1024}
    f = dm.ExplicitTable(tuple(F(values[m]) for m in range(8)))
    memo = _Memo(f, True, "f", ("a", "b", "c"))
    memo._walk((1, 0, 2))
    memo._walk((0, 2, 1))
    assert {0, a, a | b, a | b | c} <= memo.keys()
    with pytest.raises(DomainError, match=r"^f: reward share of element b is 1/1, below binary64 resolution"):
        memo.mix((0, 1, 2), [1.0, 1.0, 1.0], 0.5, 0.5)


@pytest.mark.parametrize("as_float", [True, False], ids=["binary64", "rational"])
def test_mix_is_the_vertex_mixed_in(as_float):
    # hits, misses and a size-only function, against vertex and the comprehension
    rng = np.random.default_rng(54)
    inst = random_instance(rng, 6)
    for spec in (inst.f, inst.g):
        memo, oracle = _Memo(spec, as_float, "f", inst.ground.labels), VertexThenMix(spec, as_float, "f", inst.ground.labels)
        x = memo._walk(tuple(range(6)))
        assert repr(x) == repr(oracle.vertex(tuple(range(6))))
        keep, gamma = (0.75, 0.25) if as_float else (F(3, 4), F(1, 4))
        for _ in range(30):
            order = tuple(int(u) for u in rng.permutation(6))
            got, want = memo.mix(order, x, keep, gamma), oracle.mix(order, x, keep, gamma)
            assert repr(got) == repr(want)
            x = got
