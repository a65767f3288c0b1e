"""The integer value layer against the rationals it encodes.

``table(n)`` returns ``(values, den)`` with ``values[mask] == value(mask) * den``,
and ``prefixes(chain)`` the same for the prefixes of a chain of distinct
elements; every consumer reads those integers.  ``value`` is itself the last
prefix of a walk, so the tests here compare ``value``, the tables and the
prefix walks, over whole orders and shorter chains, with the Fraction value
each kind's raw inputs give (``conftest.fraction_value``), and with each
other over the spec's one denominator; permutation vertices with a walk
that calls ``value`` once per prefix; and base-polytope membership with the
Fraction subset-sum check it replaced.
"""

from fractions import Fraction as F
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualmod as dm
from dualmod.errors import SchemaError
from dualmod.kinds import subset_sums

from conftest import fraction_value, random_allocation, random_instance, value_tables

rationals = st.builds(F, st.integers(0, 40), st.integers(1, 12))


WRAPPERS = ("scaled", "perturbed", "complement")


def wrapped(draw, spec, wrappers, n, factors):
    """spec under each wrapper in turn: Scaled and Perturbed by a drawn factor, ComplementOf on n elements."""
    for wrapper in wrappers:
        if wrapper == "scaled":
            spec = dm.Scaled(spec, draw(factors))
        elif wrapper == "perturbed":
            spec = dm.Perturbed(spec, draw(factors))
        else:
            spec = dm.ComplementOf(spec, n)
    return spec


@st.composite
def base_specs(draw, n):
    kind = draw(st.sampled_from(["explicit", "edges", "linear", "concave"]))
    if kind == "explicit":
        rest = draw(st.lists(rationals, min_size=(1 << n) - 1, max_size=(1 << n) - 1))
        return dm.ExplicitTable((F(0), *rest))
    if kind == "edges":
        ends = st.integers(0, n - 1)
        return dm.EdgesInside(tuple(draw(st.lists(st.tuples(ends, ends, rationals), max_size=12))))
    if kind == "linear":
        return dm.Linear(tuple(draw(st.lists(rationals, min_size=n, max_size=n))))
    increments = sorted(draw(st.lists(rationals, min_size=n, max_size=n)), reverse=True)
    phi = [F(0)]
    for d in increments:
        phi.append(phi[-1] + d)
    return dm.ConcaveOfCardinality(tuple(phi))


@st.composite
def specs(draw):
    """(spec, n) for n <= 6: a base kind under up to three wrappers, and
    sometimes the marginal of a residual of a larger instance."""
    n = draw(st.integers(1, 6))
    extra = draw(st.integers(0, 6 - n)) if draw(st.booleans()) else 0
    size = n + extra
    spec = draw(base_specs(size))
    spec = wrapped(draw, spec, draw(st.lists(st.sampled_from(WRAPPERS), max_size=3)), size, rationals)
    if extra:
        ground = dm.GroundSet(tuple(f"v{i}" for i in range(size)))
        inst = dm.DualModularInstance(ground=ground, f=spec, g=spec, check_totals=False)
        dropped = draw(st.lists(st.integers(0, size - 1), min_size=extra, max_size=extra, unique=True))
        anchor = sum(1 << u for u in dropped)
        spec = dm.residual_instance(inst, anchor).f
        assert isinstance(spec, dm.Marginal)
    return spec, n


@st.composite
def summed_specs(draw):
    """(spec, n) for n <= 8: edges or linear weights under up to two wrappers."""
    n = draw(st.integers(1, 8))
    wide = st.builds(F, st.integers(0, 400), st.integers(1, 60))
    if draw(st.booleans()):
        ends = st.integers(0, n - 1)
        spec = dm.EdgesInside(tuple(draw(st.lists(st.tuples(ends, ends, wide), max_size=16))))
    else:
        spec = dm.Linear(tuple(draw(st.lists(wide, min_size=n, max_size=n))))
    spec = wrapped(draw, spec, draw(st.lists(st.sampled_from(WRAPPERS), max_size=2)), n, wide)
    return spec, n


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(summed_specs())
def test_value_is_the_fraction_sum_of_the_inputs(case):
    # value, table and prefixes all read the cleared integers; this ties them to the raw inputs
    spec, n = case
    for m in range(1 << n):
        value = spec.value(m)
        assert type(value) is F
        assert value == fraction_value(spec, m)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(specs())
def test_value_of_every_kind_is_its_fraction_value(case):
    spec, n = case
    for m in range(1 << n):
        value = spec.value(m)
        assert type(value) is F
        assert value == fraction_value(spec, m)


@st.composite
def wide_specs(draw):
    """(specs, n) for n = 9..12, above the other strategies' sizes: edges with
    loops, zero weights, pairs repeated in both orientations and elements past
    every edge; linear weights with zeros; and a concave under two size-only
    wrappers."""
    n = draw(st.integers(9, 12))
    weights = st.one_of(st.just(F(0)), rationals)
    ends = st.integers(0, draw(st.integers(0, n - 2)))
    edges = draw(st.lists(st.tuples(ends, ends, weights), min_size=1, max_size=24))
    loops = [(u, u, w) for u, w in draw(st.lists(st.tuples(ends, weights), max_size=4))]
    repeats = [(v, u, w) for u, v, w in draw(st.lists(st.sampled_from(edges), max_size=6))]
    increments = sorted(draw(st.lists(weights, min_size=n, max_size=n)), reverse=True)
    size_only = dm.ConcaveOfCardinality(tuple(accumulate(increments, initial=F(0))))
    size_only = wrapped(draw, size_only, draw(st.sampled_from(list(product(WRAPPERS, repeat=2)))), n, rationals)
    linear = dm.Linear(tuple(draw(st.lists(weights, min_size=n, max_size=n))))
    return (dm.EdgesInside(tuple(edges + loops + repeats)), linear, size_only), n


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(wide_specs())
def test_wide_tables_are_fraction_values(case):
    # each table is built by doubling, one element at a time; this ties it to
    # the raw inputs where the doubling runs for many more elements
    specs, n = case
    for spec in specs:
        values, den = spec.table(n)
        assert type(den) is int and den > 0
        assert all(type(v) is int for v in values)
        assert values == [fraction_value(spec, m) * den for m in range(1 << n)]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(9, 12).flatmap(lambda n: st.lists(st.integers(-50, 50), min_size=n, max_size=n)))
def test_subset_sums_against_a_direct_sum(vec):
    # membership passes signed numerators; a zero entry doubles the table unchanged
    n = len(vec)
    assert subset_sums(vec, n) == [sum(w for u, w in enumerate(vec) if m >> u & 1) for m in range(1 << n)]


# a mask with an element outside the ground set a kind is built for, or a
# negative one: (id, spec, mask, the range in the message)
MASK_PROBES = [
    ("concave-more-elements-than-n", dm.ConcaveOfCardinality((F(0), F(2), F(3))), 0b111, 4),
    ("concave-element-past-n", dm.ConcaveOfCardinality((F(0), F(2), F(3))), 0b1001, 4),
    ("linear-past-n", dm.Linear((F(1), F(2))), 0b100, 4),
    ("complement-past-n", dm.ComplementOf(dm.Linear((F(1), F(2))), 2), 0b100, 4),
    ("edges-negative", dm.EdgesInside(((0, 1, F(1)),)), -1, ">= 0"),
    ("explicit-negative", dm.ExplicitTable((F(0), F(1))), -1, 2),
]


@pytest.mark.parametrize("spec,mask,span", [p[1:] for p in MASK_PROBES], ids=[p[0] for p in MASK_PROBES])
def test_value_refuses_a_mask_outside_the_ground_set(spec, mask, span):
    with pytest.raises(SchemaError, match=rf"^values: mask {mask} out of table range {span}$"):
        spec.value(mask)


@pytest.mark.parametrize("spec,mask,span", [p[1:] for p in MASK_PROBES], ids=[p[0] for p in MASK_PROBES])
def test_marginal_vector_refuses_what_value_refuses(spec, mask, span):
    with pytest.raises(SchemaError, match=rf"^values: mask {mask} out of table range {span}$"):
        spec.marginal_vector(mask, 2)


@pytest.mark.parametrize("spec,n", [
    (dm.Linear((F(1), F(2))), 3),
    (dm.ConcaveOfCardinality((F(0), F(2), F(3))), 1),
    (dm.ComplementOf(dm.Linear((F(1), F(2))), 2), 3),
    (dm.ExplicitTable((F(0), F(1), F(2), F(3))), 1),
], ids=["linear", "concave", "complement", "explicit"])
def test_marginal_vector_refuses_another_size(spec, n):
    with pytest.raises(SchemaError, match=rf"^n: {n} elements for a spec built for n=2$"):
        spec.marginal_vector(0, n)
    # an edge kind is built for no size, as for value
    assert dm.EdgesInside(((0, 1, F(1)),)).marginal_vector(0b1, n) == ([0, 1, 0][:n], 1)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(specs(), st.data())
def test_marginal_vector_is_the_value_differences(case, data):
    # entry u: h(S + u) - h(S) off S, h(S) - h(S - u) on S, over the walks' denominator
    spec, n = case
    full = (1 << n) - 1
    den = spec.prefixes(())[1]
    for mask in [0, full, *data.draw(st.lists(st.integers(0, full), max_size=3))]:
        h = fraction_value(spec, mask)
        expected = [h - fraction_value(spec, mask ^ 1 << u) if mask >> u & 1 else fraction_value(spec, mask | 1 << u) - h
                    for u in range(n)]
        ints, vec_den = spec.marginal_vector(mask, n)
        assert vec_den == den
        assert all(type(v) is int for v in ints)
        assert ints == [d * den for d in expected]


def test_edges_fit_any_ground_set():
    # an edge kind is built for no size: an element beyond every edge adds nothing
    spec = dm.EdgesInside(((0, 1, F(1)),))
    assert [spec.value(m) for m in (0b11, 0b1000, 0b1011)] == [1, 0, 1]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(specs())
def test_table_is_value_over_one_denominator(case):
    spec, n = case
    values, den = spec.table(n)
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in values)
    assert values == [fraction_value(spec, m) * den for m in range(1 << n)]


def prefix_masks(order):
    masks = [0]
    for u in order:
        masks.append(masks[-1] | 1 << u)
    return masks


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(specs(), st.data())
def test_prefixes_are_values_over_one_denominator(case, data):
    spec, n = case
    order = tuple(data.draw(st.permutations(range(n))))
    values, den = spec.prefixes(order)
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in values)
    assert values == [fraction_value(spec, m) * den for m in prefix_masks(order)]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(specs(), st.data())
def test_table_and_walks_share_one_denominator(case, data):
    # one den per spec: prefix integers of different walks compare as values
    spec, n = case
    values, den = spec.table(n)
    assert values == [spec.value(m) * den for m in range(1 << n)]
    for _ in range(3):
        order = tuple(data.draw(st.permutations(range(n))))
        assert spec.prefixes(order) == ([values[m] for m in prefix_masks(order)], den)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(specs(), st.data())
def test_chain_prefixes_are_table_values(case, data):
    # a chain from the empty set: a random subset in random order
    spec, n = case
    values, den = spec.table(n)
    for _ in range(3):
        chain = tuple(data.draw(st.permutations(range(n))))[: data.draw(st.integers(0, n))]
        assert spec.prefixes(chain) == ([values[m] for m in prefix_masks(chain)], den)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(specs(), st.data())
def test_vertex_matches_one_value_call_per_prefix(case, data):
    spec, n = case
    sigma = dm.Permutation(tuple(data.draw(st.permutations(range(n)))))
    values = [spec.value(m) for m in prefix_masks(sigma.order)]
    expected = [None] * n
    for i, u in enumerate(sigma.order):
        expected[u] = values[i + 1] - values[i]
    vertex = dm.vertex(spec, sigma)
    assert vertex == tuple(expected)
    assert all(type(v) is F for v in vertex)


def membership_oracle(inst, allocation, slack=0):
    """The Fraction check: subset sums against value tables, no common denominator."""
    ftab, gtab = value_tables(inst)
    full = inst.ground.full_mask

    def first_violation(vec, tab, sign):
        sums = [0] * (full + 1)
        for s in range(1, full + 1):
            low = (s & -s).bit_length() - 1
            sums[s] = sums[s ^ (1 << low)] + vec[low]
        if abs(sums[full] - tab[full]) > slack:
            return full
        for s in range(1, full):
            if sign * (sums[s] - tab[s]) < -slack:
                return s
        return None

    x_wit = first_violation(allocation.x, ftab, 1)
    y_wit = first_violation(allocation.y, gtab, -1)
    return dm.MembershipReport(x_wit is None, y_wit is None, x_wit, y_wit)


def shifted(rng, vec):
    """Move a random share of one coordinate onto another; the total stays."""
    u, v = rng.choice(len(vec), size=2, replace=False)
    moved = vec[u] * F(int(rng.integers(1, 4)), 4)
    out = list(vec)
    out[u] -= moved
    out[v] += moved
    return tuple(out)


class TestMembership:
    def test_witnesses_pinned(self):
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("a", "b")),
            f=dm.Linear((F(2), F(1))),
            g=dm.Linear((F(1, 2), F(3, 2))),
        )
        cases = [
            (dm.Allocation(x=(F(2), F(1)), y=(F(1, 2), F(3, 2))), (True, True, None, None)),
            # x({a}) = 1 < f({a}) = 2; y({a}) = 1 > g({a}) = 1/2
            (dm.Allocation(x=(F(1), F(2)), y=(F(1), F(1))), (False, False, 0b01, 0b01)),
            # totals off by 1/3: the full set is the witness on both sides
            (dm.Allocation(x=(F(2), F(4, 3)), y=(F(1, 2), F(7, 6))), (False, False, 0b11, 0b11)),
        ]
        for allocation, expected in cases:
            report = dm.check_base_membership(inst, allocation)
            assert report == dm.MembershipReport(*expected)
            assert report == membership_oracle(inst, allocation)

    def test_exact_allocations_match_fraction_check(self):
        rng = np.random.default_rng(71)
        outside = 0
        for _ in range(150):
            inst = random_instance(rng, int(rng.integers(2, 7)))
            a = random_allocation(rng, inst)
            candidates = [
                a,
                dm.Allocation(x=shifted(rng, a.x), y=a.y),
                dm.Allocation(x=a.x, y=shifted(rng, a.y)),
                dm.Allocation(x=tuple(v * F(9, 10) for v in a.x), y=tuple(v * F(11, 10) for v in a.y)),
            ]
            for allocation in candidates:
                report = dm.check_base_membership(inst, allocation)
                assert report == membership_oracle(inst, allocation)
                outside += not report.both
            assert dm.check_base_membership(inst, a).both
        assert outside >= 150

    def test_binary64_iterates_match_fraction_check(self):
        rng = np.random.default_rng(72)
        for _ in range(12):
            inst = dm.normalize(random_instance(rng, int(rng.integers(2, 7))))
            trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=50))
            a = dm.Allocation(x=trace.final_x, y=trace.final_y)
            assert all(type(v) is float for v in a.x + a.y)
            for allocation in (a, dm.Allocation(x=a.x[::-1], y=a.y[::-1])):
                report = dm.check_base_membership(inst, allocation, slack=1e-9)
                assert report == membership_oracle(inst, allocation, slack=1e-9)
            assert dm.check_base_membership(inst, a, slack=1e-9).both
