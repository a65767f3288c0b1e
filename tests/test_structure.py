"""Structure proven by construction, against the full scan.

Each spec kind's ``structure(n)`` names the properties its inputs prove.
``verify_dual_modularity`` and ``complement_instance`` scan only the rest,
so their reports must equal the full scan's, witnesses and their order
included, on every instance; and a proof may only ever claim a property
the scan would confirm.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import dualmod as dm
from dualmod.errors import DualModError, NotStrictlyMonotone, SchemaError, StructuralError
from dualmod.instance import _first_local_violation, _first_monotonicity_violations, _structure_report


def ground(n):
    return dm.GroundSet(tuple(f"v{i}" for i in range(n)))


def full_scan(inst):
    """Every scan on both tables, nothing taken as proven: the report and
    the first step on which f does not strictly increase."""
    (ftab, _), (gtab, _) = inst.tables()
    return _structure_report(ftab, gtab, inst.n)


def violated(prop, spec, n):
    """Whether the scan of spec's table finds a witness against ``prop``."""
    tab, _ = spec.table(n)
    if prop in ("supermodular", "submodular"):
        return _first_local_violation(tab, n, 1 if prop == "supermodular" else -1) is not None
    weak, strict = _first_monotonicity_violations(tab, n)
    return (weak if prop == "monotone" else strict) is not None


# ---------------------------------------------------------------------------
# strategies: every kind, and wrappers nested two deep, on n <= 8 elements
# ---------------------------------------------------------------------------

small = st.sampled_from([F(0), F(0), F(1, 2), F(1), F(2), F(3)])


def explicit_tables(n):
    return st.lists(small, min_size=(1 << n) - 1, max_size=(1 << n) - 1).map(
        lambda rest: dm.ExplicitTable((F(0), *rest)))


def edges(n):
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), small)
    return st.lists(pair, max_size=2 * n).map(lambda es: dm.EdgesInside(tuple(es)))


def linears(n):
    return st.lists(small, min_size=n, max_size=n).map(lambda ws: dm.Linear(tuple(ws)))


def concaves(n):
    # non-increasing increments, some of them zero or negative; phi >= 0
    steps = st.lists(st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(2)]), min_size=n, max_size=n)

    def phi(ds):
        out = [F(0)]
        for d in sorted(ds, reverse=True):
            out.append(out[-1] + d)
        return tuple(out)

    return steps.map(phi).filter(lambda p: min(p) >= 0).map(dm.ConcaveOfCardinality)


def marginals(n, depth):
    # a base on n + k elements, conditioned on k of them
    def build(k):
        return st.tuples(specs(n + k, depth), st.permutations(range(n + k))).map(
            lambda t: dm.Marginal(t[0], sum(1 << u for u in t[1][:k]), tuple(sorted(t[1][k:]))))

    return st.integers(1, 2).flatmap(build)


def specs(n, depth=2):
    leaves = st.one_of(explicit_tables(n), edges(n), linears(n), concaves(n))
    if depth == 0:
        return leaves
    inner = specs(n, depth - 1)
    return st.one_of(
        leaves,
        st.builds(dm.Scaled, inner, st.sampled_from([F(0), F(1, 3), F(2)])),
        st.builds(dm.Perturbed, inner, st.sampled_from([F(0), F(1, 3), F(1)])),
        inner.map(lambda base: dm.ComplementOf(base, n)),
        marginals(n, depth - 1) if n <= 6 else leaves,
    )


instances = st.integers(1, 8).flatmap(lambda n: st.builds(
    lambda f, g: dm.DualModularInstance(ground=ground(n), f=f, g=g, check_totals=False), specs(n), specs(n)))


def outcome(call):
    try:
        return call()
    except DualModError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(instances)
def test_proofs_agree_with_the_full_scan(inst):
    n = inst.n
    report, f_strict = full_scan(inst)
    got = dm.verify_dual_modularity(inst)
    assert got == report
    assert list(got.witnesses) == list(report.witnesses)  # the JSON order too
    # a proof claims only what the scan confirms
    for spec in (inst.f, inst.g):
        for prop in spec.structure(n):
            assert not violated(prop, spec, n), (spec, prop)
    # complement: the error the full report and f's first non-strict step call for
    if not report.g_strictly_monotone:
        want = NotStrictlyMonotone, str(NotStrictlyMonotone("g", report.witnesses["g_strictly_monotone"]))
    elif not report.dual_modular:
        want = StructuralError, f"instance is not dual-modular: {report}"
    elif f_strict is not None:
        want = NotStrictlyMonotone, str(NotStrictlyMonotone("f", f_strict))
    else:
        want = None
    got = outcome(lambda: dm.complement_instance(inst))
    if want is None:
        assert isinstance(got, dm.DualModularInstance)
    else:
        assert got == want


# ---------------------------------------------------------------------------
# what each kind proves, and the cases it leaves to the scan
# ---------------------------------------------------------------------------

ALL = {"supermodular", "submodular", "monotone", "strictly_monotone"}
LINEAR = dm.Linear((F(1), F(2)))
FLAT = dm.ConcaveOfCardinality((F(0), F(2), F(2)))  # last step flat
EDGES = dm.EdgesInside(((0, 1, F(1)), (0, 0, F(1)), (1, 1, F(1, 2))))

PROOFS = [
    ("edges with a loop on every element", EDGES, {"supermodular", "monotone", "strictly_monotone"}),
    ("edges of loops only", dm.EdgesInside(((0, 0, F(1)), (1, 1, F(1)))), ALL),
    ("a zero-weight edge", dm.EdgesInside(((0, 1, F(0)), (0, 0, F(1)), (1, 1, F(1)))), ALL),
    ("linear", LINEAR, ALL),
    ("concave", dm.ConcaveOfCardinality((F(0), F(2), F(3))), {"submodular", "monotone", "strictly_monotone"}),
    ("concave with equal steps", dm.ConcaveOfCardinality((F(0), F(1), F(2))), ALL),
    ("scaled", dm.Scaled(EDGES, F(3)), {"supermodular", "monotone", "strictly_monotone"}),
    ("perturbed flat concave", dm.Perturbed(FLAT, F(1, 5)), {"submodular", "monotone", "strictly_monotone"}),
    ("complemented edges", dm.ComplementOf(EDGES, 2), {"submodular", "monotone", "strictly_monotone"}),
    ("complement of a complement", dm.ComplementOf(dm.ComplementOf(EDGES, 2), 2),
     {"supermodular", "monotone", "strictly_monotone"}),
    ("explicit table", dm.ExplicitTable((F(0), F(1), F(1), F(2))), set()),
    ("marginal", dm.Marginal(LINEAR, 1, (1,)), set()),
]


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), specs(n).filter(lambda spec: spec._size_only))))
def test_size_only_specs_take_one_value_per_size(case):
    # the solver walks a spec whose _size_only is set once per run and reads
    # every later order's marginals from that walk by position
    n, spec = case
    tab, _ = spec.table(n)
    assert len({(mask.bit_count(), v) for mask, v in enumerate(tab)}) == n + 1


@pytest.mark.parametrize("spec,proven", [p[1:] for p in PROOFS], ids=[p[0] for p in PROOFS])
def test_what_each_kind_proves(spec, proven):
    n = 1 if isinstance(spec, dm.Marginal) else 2
    assert spec.structure(n) == dict.fromkeys(proven, True)


# (the spec as a cost, the property it leaves unknown, the witness the scan finds)
UNKNOWN = [
    ("edges as a cost", dm.EdgesInside(((0, 1, F(1)), (0, 0, F(1)), (1, 1, F(1)))), "submodular", ({"a"}, {"b"})),
    ("a zero linear weight", dm.Linear((F(1), F(0))), "strictly_monotone", (set(), {"b"})),
    ("a flat last concave step", FLAT, "strictly_monotone", ({"a"}, {"a", "b"})),
    ("a falling last concave step", dm.ConcaveOfCardinality((F(0), F(2), F(1))), "monotone", ({"a"}, {"a", "b"})),
    ("factor 0", dm.Scaled(LINEAR, F(0)), "strictly_monotone", (set(), {"a"})),
    ("eta 0 over a non-strict base", dm.Perturbed(FLAT, F(0)), "strictly_monotone", ({"a"}, {"a", "b"})),
    ("eta > 0 over a non-monotone base", dm.Perturbed(dm.ExplicitTable((F(0), F(3), F(1), F(1))), F(1, 2)),
     "monotone", ({"a"}, {"a", "b"})),
    ("an edges element with no loop", dm.EdgesInside(((0, 1, F(1)), (0, 0, F(1)))), "strictly_monotone", (set(), {"b"})),
]


@pytest.mark.parametrize("cost,prop,witness", [u[1:] for u in UNKNOWN], ids=[u[0] for u in UNKNOWN])
def test_unknown_is_left_to_the_scan(cost, prop, witness):
    assert prop not in cost.structure(2)
    assert not any(violated(p, cost, 2) for p in cost.structure(2))
    two = dm.GroundSet(("a", "b"))
    inst = dm.DualModularInstance(ground=two, f=dm.Linear((F(1), F(1))), g=cost, check_totals=False)
    report = dm.verify_dual_modularity(inst)
    key = f"g_{prop}"
    assert getattr(report, key) is False
    assert [set(side) for side in report.to_json(two)["witnesses"][key]] == list(witness)


# ---------------------------------------------------------------------------
# the constructor checks each proof rests on
# ---------------------------------------------------------------------------


def unchecked(cls, **fields):
    """A spec of ``cls`` built without running its constructor's checks."""
    spec = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(spec, name, value)
    return spec


# (kind, its fields, the field the check names, the property the proof would get wrong)
CHECKS = [
    (dm.EdgesInside, {"edges": ((0, 1, F(-1)),)}, "edges", "supermodular"),
    (dm.Linear, {"weights": (F(1), F(-1))}, "weights", "monotone"),
    (dm.ConcaveOfCardinality, {"phi": (F(0), F(1), F(3))}, "phi", "submodular"),
    (dm.Scaled, {"base": LINEAR, "factor": F(-1)}, "factor", "monotone"),
    (dm.Perturbed, {"base": LINEAR, "eta": F(-2)}, "eta", "monotone"),
]


@pytest.mark.parametrize("cls,fields,field,prop", CHECKS, ids=[c[0].__name__ for c in CHECKS])
def test_constructor_check_a_proof_rests_on(cls, fields, field, prop):
    with pytest.raises(SchemaError) as exc:
        cls(**fields)
    assert exc.value.field == field
    # without the check, the proof would claim a property the scan refutes
    spec = unchecked(cls, **fields)
    assert prop in spec.structure(2)
    assert violated(prop, spec, 2)


# ---------------------------------------------------------------------------
# the cap guards the scan alone
# ---------------------------------------------------------------------------


def proven_instance(n):
    """An edge reward with a loop on every element and a perturbed concave
    cost: every property, f's strictness included, is proven."""
    reward = dm.EdgesInside(tuple((u, u + 1, F(1)) for u in range(n - 1)) + tuple((u, u, F(1, 2)) for u in range(n)))
    cost = dm.Perturbed(dm.ConcaveOfCardinality(tuple(F(k * (2 * n - k)) for k in range(n + 1))), F(1, 3))
    return dm.DualModularInstance(ground=ground(n), f=reward, g=cost)


def proven_pairs(n):
    """One proven instance per kind and wrapper."""
    ones = dm.Linear((F(1),) * n)
    concave = dm.ConcaveOfCardinality(tuple(F(k * (2 * n - k)) for k in range(n + 1)))
    inst = proven_instance(n)
    return [
        inst,
        dm.DualModularInstance(ground=ground(n), f=ones, g=ones),
        dm.DualModularInstance(ground=ground(n), f=dm.Scaled(inst.f, F(2)), g=dm.ComplementOf(inst.f, n)),
        dm.DualModularInstance(ground=ground(n), f=dm.Perturbed(ones, F(1)), g=dm.Scaled(concave, F(1, 2))),
        dm.complement_instance(inst),
    ]


@pytest.mark.parametrize("n", [dm.instance.DEFAULT_VERIFY_LIMIT + 1, 48])
@pytest.mark.parametrize("max_n", [None, 3])
def test_proven_instance_gets_a_report_above_the_cap(n, max_n):
    for inst in proven_pairs(n):
        report = dm.verify_dual_modularity(inst, max_n)
        assert report.to_json(inst.ground) == {**dict.fromkeys(
            ["f_supermodular", "f_monotone", "g_submodular", "g_monotone", "g_strictly_monotone", "dual_modular"],
            True), "witnesses": {}}
    comp = dm.complement_instance(proven_instance(n), max_n)
    assert comp.n == n


@pytest.mark.parametrize("call", [dm.verify_dual_modularity, dm.complement_instance])
def test_negative_cap_refused_with_nothing_to_scan(call):
    with pytest.raises(SchemaError) as exc:
        call(proven_instance(3), max_n=-1)
    assert exc.value.field == "max_n"
