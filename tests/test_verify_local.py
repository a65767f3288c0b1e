"""The local (second-difference) modularity scan against the all-pairs oracle.

``verify_dual_modularity`` checks super- and submodularity on the
C(n,2) 2^(n-2) second differences h(S+u) + h(S+v) - h(S) - h(S+u+v).  The
oracles below are the definition itself, h(A) + h(B) against
h(A & B) + h(A | B) over all pairs of subsets, O(4^n), so they run only up
to n = 8.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dualmod as dm
from dualmod.instance import _first_local_violation

from conftest import random_instance


def first_supermodularity_violation(tab):
    size = len(tab)
    for a in range(size):
        ta = tab[a]
        for b in range(a + 1, size):
            if ta + tab[b] > tab[a & b] + tab[a | b]:
                return a, b
    return None


def first_submodularity_violation(tab):
    size = len(tab)
    for a in range(size):
        ta = tab[a]
        for b in range(a + 1, size):
            if ta + tab[b] < tab[a & b] + tab[a | b]:
                return a, b
    return None


ORACLES = {1: first_supermodularity_violation, -1: first_submodularity_violation}


def assert_matches_oracles(tab, n):
    """Same verdict as the pair scan on both sides; every witness is a
    genuine violation of the form (S+u, S+v)."""
    verdicts = {}
    for sign, oracle in ORACLES.items():
        w = _first_local_violation(tab, n, sign)
        assert (w is None) == (oracle(tab) is None)
        if w is not None:
            a, b = w
            assert (a & ~b).bit_count() == (b & ~a).bit_count() == 1
            assert sign * (tab[a] + tab[b] - tab[a & b] - tab[a | b]) > 0
        verdicts[sign] = w is None
    return verdicts


def flat_cost_twin(inst):
    """The same reward with a cost that has a zero last increment: still
    monotone and submodular, no longer strictly monotone."""
    phi = inst.g.base.phi
    return dm.DualModularInstance(
        ground=inst.ground, f=inst.f, g=dm.ConcaveOfCardinality(phi[:-1] + (phi[-2],))
    )


class TestAgainstPairScan:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_instances_and_twins(self, seed):
        rng = np.random.default_rng(100 + seed)
        for n in range(2, 9):
            inst = random_instance(rng, n)
            twin = flat_cost_twin(inst)
            for case in (inst, twin):
                (ftab, _), (gtab, _) = case.tables()
                assert assert_matches_oracles(ftab, n)[1]
                assert assert_matches_oracles(gtab, n)[-1]
            assert dm.verify_dual_modularity(inst).dual_modular
            twin_report = dm.verify_dual_modularity(twin)
            assert not twin_report.dual_modular and not twin_report.g_strictly_monotone
            assert list(twin_report.witnesses) == ["g_strictly_monotone"]

    def test_witness_order_is_pinned(self):
        # a unit triangle, f(V) lowered from 3 to 1: the pair scan meets
        # ({x,y}, {x,z}) first, the local scan (u, v) = (x, y) with S = {z}
        tab = [0, 0, 0, 1, 0, 1, 1, 1]
        assert first_supermodularity_violation(tab) == (0b011, 0b101)
        assert _first_local_violation(tab, 3, 1) == (0b101, 0b110)
        inst = dm.DualModularInstance(
            ground=dm.GroundSet(("x", "y", "z")),
            f=dm.ExplicitTable(tuple(F(v) for v in tab)),
            g=dm.Linear((F(1), F(1), F(1))),
        )
        report = dm.verify_dual_modularity(inst)
        assert report.to_json(inst.ground)["witnesses"] == {"f_supermodular": [["x", "z"], ["y", "z"]]}


@st.composite
def int_tables(draw):
    """Integer tables for n <= 6.  Two thirds are exactly super- or
    submodular (pair terms of one sign over a modular part) before an
    optional bump of one entry; the rest are drawn entry by entry."""
    n = draw(st.integers(1, 6))
    size = 1 << n
    shape = draw(st.sampled_from([1, -1, 0]))
    if shape == 0:
        return n, draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size))
    weights = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    coupling = draw(st.lists(st.integers(0, 5), min_size=len(pairs), max_size=len(pairs)))
    tab = [
        sum(w for u, w in enumerate(weights) if s >> u & 1)
        + shape * sum(c for (u, v), c in zip(pairs, coupling) if s >> u & 1 and s >> v & 1)
        for s in range(size)
    ]
    tab[draw(st.integers(0, size - 1))] += draw(st.integers(-3, 3))
    return n, tab


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(int_tables())
def test_generated_tables_match_pair_scan(case):
    n, tab = case
    assert_matches_oracles(tab, n)
