"""Ground sets and the dual-modular set-function pair.

A set function on a ground set of size n maps n-bit subset masks to exact
rationals.  Several structured representations are supported (explicit
tables, edge counting, linear weights, concave-of-cardinality) together
with derived wrappers (scaling, per-element perturbation, complementation,
marginal restriction).  Structural properties -- supermodularity of the
reward, submodularity and strict monotonicity of the cost -- are *asserted
by brute force*, never assumed from the representation.

All arithmetic in this module is exact (`fractions.Fraction`); nothing here
ever rounds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, InitVar
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    EmptyResidual,
    GroundSetTooLarge,
    NegativeEta,
    NotStrictlyMonotone,
    SchemaError,
    StructuralError,
    ZeroTotal,
)
from .rational import format_rational, parse_rational

DEFAULT_VERIFY_LIMIT = 12
DEFAULT_DECOMP_LIMIT = 18
DEFAULT_ENUM_LIMIT = 16

_ZERO = Fraction(0)


def brute_limit(default: int, override: Optional[int] = None) -> int:
    """Resolve a brute-force size cap; DUALMOD_BRUTE_LIMIT env wins over default."""
    if override is not None:
        return override
    env = os.environ.get("DUALMOD_BRUTE_LIMIT")
    if env is None:
        return default
    try:
        limit = int(env)
    except ValueError:
        raise SchemaError("DUALMOD_BRUTE_LIMIT", f"expected an integer, got {env!r}") from None
    if limit < 0:
        raise SchemaError("DUALMOD_BRUTE_LIMIT", f"must be >= 0, got {limit}")
    return limit


# ---------------------------------------------------------------------------
# ground set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroundSet:
    """A finite ground set; subsets are n-bit masks over label positions."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise SchemaError("labels", "ground set must have at least one element")
        if len(set(self.labels)) != len(self.labels):
            raise SchemaError("labels", "labels must be distinct")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def check_mask(self, mask: int) -> int:
        if not isinstance(mask, int) or mask < 0 or mask > self.full_mask:
            raise SchemaError("mask", f"{mask!r} is not a subset mask for n={self.n}")
        return mask

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise SchemaError("labels", f"unknown element {label!r}") from None

    def mask_of(self, elements) -> int:
        """Mask from an iterable of labels or element indices."""
        mask = 0
        for e in elements:
            i = e if isinstance(e, int) else self.index_of(e)
            if not 0 <= i < self.n:
                raise SchemaError("mask", f"element index {i} out of range")
            mask |= 1 << i
        return mask

    def labels_of(self, mask: int) -> list[str]:
        self.check_mask(mask)
        return [self.labels[i] for i in range(self.n) if mask >> i & 1]


# ---------------------------------------------------------------------------
# set-function specs
# ---------------------------------------------------------------------------


class SetFunctionSpec:
    """Base of every set-function representation.

    Subclasses implement ``value(mask)`` returning the exact rational value
    of the encoded subset.  ``table(n)`` materialises all 2^n values; the
    generic implementation just loops, structured kinds override it with a
    cheaper recurrence.
    """

    def value(self, mask: int) -> Fraction:
        raise NotImplementedError

    def table(self, n: int) -> list[Fraction]:
        return [self.value(s) for s in range(1 << n)]

    def to_json(self, n: int) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitTable(SetFunctionSpec):
    values: tuple[Fraction, ...]

    def __post_init__(self):
        size = len(self.values)
        if size == 0 or size & (size - 1):
            raise SchemaError("values", f"table must have 2^n entries, got {size}")
        if self.values[0] != 0:
            raise SchemaError("values", "value on the empty set must be 0")
        for i, v in enumerate(self.values):
            if v < 0:
                raise SchemaError("values", f"negative value {v} at mask {i}")

    def value(self, mask: int) -> Fraction:
        if not 0 <= mask < len(self.values):
            raise SchemaError("values", f"mask {mask} out of table range {len(self.values)}")
        return self.values[mask]

    def table(self, n: int) -> list[Fraction]:
        if len(self.values) != (1 << n):
            raise SchemaError("values", f"table has {len(self.values)} entries, expected {1 << n}")
        return list(self.values)

    def to_json(self, n: int) -> dict:
        return {
            "kind": "explicit_table",
            "values": {str(m): format_rational(v) for m, v in enumerate(self.values)},
        }


@dataclass(frozen=True)
class EdgesInside(SetFunctionSpec):
    """Sum of edge weights with both endpoints inside the subset.

    A loop (u, u, w) contributes w whenever u is in the subset, which gives
    a linear lift on top of the pair terms.
    """

    edges: tuple[tuple[int, int, Fraction], ...]

    def __post_init__(self):
        for u, v, w in self.edges:
            if w < 0:
                raise SchemaError("edges", f"negative edge weight {w} on ({u}, {v})")

    def value(self, mask: int) -> Fraction:
        total = _ZERO
        for u, v, w in self.edges:
            if mask >> u & 1 and mask >> v & 1:
                total += w
        return total

    def table(self, n: int) -> list[Fraction]:
        adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(n)]
        for u, v, w in self.edges:
            if u >= n or v >= n:
                raise SchemaError("edges", f"edge ({u}, {v}) outside ground set of size {n}")
            lo, hi = min(u, v), max(u, v)
            adj[lo].append((hi, w))
        tab = [_ZERO] * (1 << n)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << low)
            total = tab[rest]
            for other, w in adj[low]:
                if other == low or mask >> other & 1:
                    total += w
            tab[mask] = total
        return tab

    def to_json(self, n: int) -> dict:
        return {
            "kind": "edges_inside",
            "edges": [[u, v, format_rational(w)] for u, v, w in self.edges],
        }


@dataclass(frozen=True)
class Linear(SetFunctionSpec):
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        for i, w in enumerate(self.weights):
            if w < 0:
                raise SchemaError("weights", f"negative weight {w} at element {i}")

    def value(self, mask: int) -> Fraction:
        total = _ZERO
        m = mask
        while m:
            low = (m & -m).bit_length() - 1
            total += self.weights[low]
            m &= m - 1
        return total

    def table(self, n: int) -> list[Fraction]:
        tab = [_ZERO] * (1 << n)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            tab[mask] = tab[mask ^ (1 << low)] + self.weights[low]
        return tab

    def to_json(self, n: int) -> dict:
        return {"kind": "linear", "weights": [format_rational(w) for w in self.weights]}


@dataclass(frozen=True)
class ConcaveOfCardinality(SetFunctionSpec):
    """phi(|S|) for a concave sequence phi(0..n) with phi(0) = 0."""

    phi: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.phi or self.phi[0] != 0:
            raise SchemaError("phi", "phi(0) must be 0")
        for v in self.phi:
            if v < 0:
                raise SchemaError("phi", f"negative value {v}")
        increments = [b - a for a, b in zip(self.phi, self.phi[1:])]
        for d1, d2 in zip(increments, increments[1:]):
            if d2 > d1:
                raise SchemaError("phi", "increments must be non-increasing")

    def value(self, mask: int) -> Fraction:
        return self.phi[mask.bit_count()]

    def table(self, n: int) -> list[Fraction]:
        if len(self.phi) != n + 1:
            raise SchemaError("phi", f"phi has {len(self.phi)} entries, expected {n + 1}")
        return [self.phi[m.bit_count()] for m in range(1 << n)]

    def to_json(self, n: int) -> dict:
        return {"kind": "concave_of_cardinality", "phi": [format_rational(v) for v in self.phi]}


@dataclass(frozen=True)
class Scaled(SetFunctionSpec):
    base: SetFunctionSpec
    factor: Fraction

    def __post_init__(self):
        if self.factor < 0:
            raise SchemaError("factor", f"scale factor must be >= 0, got {self.factor}")

    def value(self, mask: int) -> Fraction:
        return self.factor * self.base.value(mask)

    def table(self, n: int) -> list[Fraction]:
        return [self.factor * v for v in self.base.table(n)]

    def to_json(self, n: int) -> dict:
        return {"kind": "scaled", "base": self.base.to_json(n), "factor": format_rational(self.factor)}


@dataclass(frozen=True)
class Perturbed(SetFunctionSpec):
    """base(S) + eta * |S|; strictly monotone whenever base is monotone and eta > 0."""

    base: SetFunctionSpec
    eta: Fraction

    def __post_init__(self):
        if self.eta < 0:
            raise NegativeEta(self.eta)

    def value(self, mask: int) -> Fraction:
        return self.base.value(mask) + self.eta * mask.bit_count()

    def table(self, n: int) -> list[Fraction]:
        return [v + self.eta * m.bit_count() for m, v in enumerate(self.base.table(n))]

    def to_json(self, n: int) -> dict:
        return {"kind": "perturbed", "base": self.base.to_json(n), "eta": format_rational(self.eta)}


@dataclass(frozen=True)
class ComplementOf(SetFunctionSpec):
    """h(S) = base(V) - base(V \\ S); swaps super- and submodularity."""

    base: SetFunctionSpec
    n: int

    def value(self, mask: int) -> Fraction:
        full = (1 << self.n) - 1
        return self.base.value(full) - self.base.value(full ^ mask)

    def table(self, n: int) -> list[Fraction]:
        if n != self.n:
            raise SchemaError("base", f"complement built for n={self.n}, asked for n={n}")
        b = self.base.table(n)
        full = (1 << n) - 1
        return [b[full] - b[full ^ m] for m in range(1 << n)]

    def to_json(self, n: int) -> dict:
        return {"kind": "complement_of", "base": self.base.to_json(n)}


@dataclass(frozen=True)
class Marginal(SetFunctionSpec):
    """base(S' | anchor) on a residual ground set.

    ``index_map[i]`` is the position in the original ground set of element i
    of the residual one.  Used by residual instances only; serialises by
    materialising its table.
    """

    base: SetFunctionSpec
    anchor: int
    index_map: tuple[int, ...]

    def _expand(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = (m & -m).bit_length() - 1
            out |= 1 << self.index_map[low]
            m &= m - 1
        return out

    def value(self, mask: int) -> Fraction:
        return self.base.value(self._expand(mask) | self.anchor) - self.base.value(self.anchor)

    def to_json(self, n: int) -> dict:
        return ExplicitTable(tuple(self.table(n))).to_json(n)


def evaluate(spec: SetFunctionSpec, mask: int) -> Fraction:
    """h(S) for the subset encoded by ``mask``; h(empty) is always 0."""
    return spec.value(mask)


def marginal(spec: SetFunctionSpec, s_mask: int, a_mask: int) -> Fraction:
    """h(S | A) = h(S u A) - h(A); S and A may overlap."""
    return spec.value(s_mask | a_mask) - spec.value(a_mask)


# ---------------------------------------------------------------------------
# instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualModularInstance:
    """Ground set plus reward f (supermodular) and cost g (submodular).

    The modularity and monotonicity properties are *claims* checked by
    :func:`verify_dual_modularity`; construction only enforces positive
    totals (skipped for residual instances, whose reward total may vanish).
    """

    ground: GroundSet
    f: SetFunctionSpec
    g: SetFunctionSpec
    normalized: bool = False
    check_totals: InitVar[bool] = True

    def __post_init__(self, check_totals: bool):
        if check_totals:
            full = self.ground.full_mask
            fv = self.f.value(full)
            gv = self.g.value(full)
            if fv <= 0:
                raise ZeroTotal("f")
            if gv <= 0:
                raise ZeroTotal("g")
            if self.normalized and (fv != 1 or gv != 1):
                raise SchemaError("normalized", f"flag set but f(V)={fv}, g(V)={gv}")

    @property
    def n(self) -> int:
        return self.ground.n

    def f_value(self, mask: int) -> Fraction:
        return self.f.value(mask)

    def g_value(self, mask: int) -> Fraction:
        return self.g.value(mask)

    def tables(self) -> tuple[list[Fraction], list[Fraction]]:
        return self.f.table(self.n), self.g.table(self.n)


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureReport:
    f_supermodular: bool
    f_monotone: bool
    g_submodular: bool
    g_monotone: bool
    g_strictly_monotone: bool
    witnesses: dict = field(default_factory=dict)

    @property
    def dual_modular(self) -> bool:
        """Dual-modular with the strict-monotonicity hypothesis on the cost."""
        return (
            self.f_supermodular
            and self.f_monotone
            and self.g_submodular
            and self.g_strictly_monotone
        )

    def to_json(self, ground: GroundSet) -> dict:
        out = {
            "f_supermodular": self.f_supermodular,
            "f_monotone": self.f_monotone,
            "g_submodular": self.g_submodular,
            "g_monotone": self.g_monotone,
            "g_strictly_monotone": self.g_strictly_monotone,
            "dual_modular": self.dual_modular,
            "witnesses": {
                prop: [ground.labels_of(a), ground.labels_of(b)]
                for prop, (a, b) in self.witnesses.items()
            },
        }
        return out


def _int_table(tab: Sequence[Fraction]) -> list[int]:
    # Comparisons of sums and of ratios are scale-invariant, so clearing
    # denominators once turns the verify and densest-subset scans into integers.
    scale = math.lcm(*(v.denominator for v in tab))
    return [v.numerator * (scale // v.denominator) for v in tab]


def _first_supermodularity_violation(tab: list[int]) -> Optional[tuple[int, int]]:
    size = len(tab)
    for a in range(size):
        ta = tab[a]
        for b in range(a + 1, size):
            if ta + tab[b] > tab[a & b] + tab[a | b]:
                return a, b
    return None


def _first_submodularity_violation(tab: list[int]) -> Optional[tuple[int, int]]:
    size = len(tab)
    for a in range(size):
        ta = tab[a]
        for b in range(a + 1, size):
            if ta + tab[b] < tab[a & b] + tab[a | b]:
                return a, b
    return None


def _first_monotonicity_violation(tab: list[int], n: int, strict: bool) -> Optional[tuple[int, int]]:
    for s in range(1 << n):
        base = tab[s]
        for u in range(n):
            if s >> u & 1:
                continue
            bigger = tab[s | (1 << u)]
            if bigger < base or (strict and bigger == base):
                return s, s | (1 << u)
    return None


def verify_dual_modularity(inst: DualModularInstance, max_n: Optional[int] = None) -> StructureReport:
    """Brute-force check of the four structural hypotheses, with witnesses.

    Cost is O(4^n) evaluations over all subset pairs; refuse ground sets
    above the limit rather than silently taking hours.
    """
    limit = brute_limit(DEFAULT_VERIFY_LIMIT, max_n)
    n = inst.n
    if n > limit:
        raise GroundSetTooLarge(n, limit, "verify_dual_modularity")
    ftab = _int_table(inst.f.table(n))
    gtab = _int_table(inst.g.table(n))

    witnesses = {}
    w = _first_supermodularity_violation(ftab)
    f_supermodular = w is None
    if w:
        witnesses["f_supermodular"] = w
    w = _first_submodularity_violation(gtab)
    g_submodular = w is None
    if w:
        witnesses["g_submodular"] = w
    w = _first_monotonicity_violation(ftab, n, strict=False)
    f_monotone = w is None
    if w:
        witnesses["f_monotone"] = w
    w = _first_monotonicity_violation(gtab, n, strict=False)
    g_monotone = w is None
    if w:
        witnesses["g_monotone"] = w
    w = _first_monotonicity_violation(gtab, n, strict=True)
    g_strictly_monotone = w is None
    if w:
        witnesses["g_strictly_monotone"] = w

    return StructureReport(
        f_supermodular=f_supermodular,
        f_monotone=f_monotone,
        g_submodular=g_submodular,
        g_monotone=g_monotone,
        g_strictly_monotone=g_strictly_monotone,
        witnesses=witnesses,
    )


# ---------------------------------------------------------------------------
# derived instances
# ---------------------------------------------------------------------------


def perturb_strict(g: SetFunctionSpec, eta: Fraction) -> SetFunctionSpec:
    """g(S) + eta * |S|; restores strict monotonicity for any eta > 0."""
    eta = Fraction(eta)
    if eta < 0:
        raise NegativeEta(eta)
    return Perturbed(g, eta)


def complement_instance(inst: DualModularInstance, max_n: Optional[int] = None) -> DualModularInstance:
    """Swap reward and cost roles via h(S) -> h(V) - h(V \\ S).

    Requires a verified dual-modular instance whose reward is also strictly
    monotone; the swapped pair is then dual-modular again and the two
    instances carry reciprocal density vectors.
    """
    report = verify_dual_modularity(inst, max_n)
    if not report.dual_modular:
        if not report.g_strictly_monotone:
            raise NotStrictlyMonotone("g", report.witnesses.get("g_strictly_monotone"))
        raise StructuralError(f"instance is not dual-modular: {report}")
    n = inst.n
    ftab = inst.f.table(n)
    w = _first_monotonicity_violation(_int_table(ftab), n, strict=True)
    if w is not None:
        raise NotStrictlyMonotone("f", w)
    return DualModularInstance(
        ground=inst.ground,
        f=ComplementOf(inst.g, n),
        g=ComplementOf(inst.f, n),
        normalized=inst.normalized,
        check_totals=False,
    )


def normalize(inst: DualModularInstance) -> DualModularInstance:
    """Scale both functions so f(V) = g(V) = 1; densities scale uniformly."""
    full = inst.ground.full_mask
    fv = inst.f.value(full)
    gv = inst.g.value(full)
    if fv <= 0:
        raise ZeroTotal("f")
    if gv <= 0:
        raise ZeroTotal("g")
    return DualModularInstance(
        ground=inst.ground,
        f=Scaled(inst.f, Fraction(1, 1) / fv),
        g=Scaled(inst.g, Fraction(1, 1) / gv),
        normalized=True,
    )


def residual_instance(inst: DualModularInstance, mask: int) -> DualModularInstance:
    """Sub-instance on V \\ S with the marginal functions f(.|S), g(.|S)."""
    inst.ground.check_mask(mask)
    full = inst.ground.full_mask
    if mask == full:
        raise EmptyResidual()
    if mask == 0:
        return inst
    keep = [i for i in range(inst.n) if not mask >> i & 1]
    ground = GroundSet(tuple(inst.ground.labels[i] for i in keep))
    index_map = tuple(keep)
    return DualModularInstance(
        ground=ground,
        f=Marginal(inst.f, mask, index_map),
        g=Marginal(inst.g, mask, index_map),
        normalized=False,
        check_totals=False,
    )


# ---------------------------------------------------------------------------
# permutation-extremal marginals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Extremes:
    f_min: Fraction
    f_max: Fraction
    g_min: Fraction
    g_max: Fraction


def extremes(inst: DualModularInstance) -> Extremes:
    """Extremal single-element marginals over all permutation vertices.

    Dual-modularity pins where the extremes sit: supermodular marginals are
    smallest on the empty prefix and largest on the full one; submodular
    marginals the other way round.  For n <= 7 the closed forms are
    cross-checked against every marginal h(u | A) with u not in A.  Each such
    pair is the prefix-and-next step of some permutation, so this is the set
    of marginals that all n! permutation vertices take.
    """
    n = inst.n
    full = inst.ground.full_mask
    f = inst.f
    g = inst.g
    f_min = min(f.value(1 << u) for u in range(n))
    f_max = max(f.value(full) - f.value(full ^ (1 << u)) for u in range(n))
    g_min = min(g.value(full) - g.value(full ^ (1 << u)) for u in range(n))
    g_max = max(g.value(1 << u) for u in range(n))

    if n <= 7:
        ftab, gtab = inst.tables()
        steps = [(a, a | 1 << u) for a in range(1 << n) for u in range(n) if not a >> u & 1]
        seen_f = [ftab[b] - ftab[a] for a, b in steps]
        seen_g = [gtab[b] - gtab[a] for a, b in steps]
        if not (min(seen_f) == f_min and max(seen_f) == f_max):
            raise StructuralError("closed-form f extremes disagree with permutation scan")
        if not (min(seen_g) == g_min and max(seen_g) == g_max):
            raise StructuralError("closed-form g extremes disagree with permutation scan")

    return Extremes(f_min=f_min, f_max=f_max, g_min=g_min, g_max=g_max)


# ---------------------------------------------------------------------------
# JSON instance files
# ---------------------------------------------------------------------------


_SPEC_KINDS = {
    "explicit_table",
    "edges_inside",
    "linear",
    "concave_of_cardinality",
    "scaled",
    "perturbed",
    "complement_of",
}


def spec_from_json(obj, ground: GroundSet, field_name: str) -> SetFunctionSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError(field_name, "spec must be an object with a 'kind' tag")
    kind = obj["kind"]
    n = ground.n
    if kind == "explicit_table":
        raw = obj.get("values")
        if not isinstance(raw, dict):
            raise SchemaError(f"{field_name}.values", "expected a mask -> rational object")
        size = 1 << n
        if len(raw) != size:
            raise SchemaError(f"{field_name}.values", f"expected {size} entries, got {len(raw)}")
        values = [None] * size
        for key, v in raw.items():
            try:
                m = int(key)
            except ValueError:
                raise SchemaError(f"{field_name}.values", f"non-integer mask key {key!r}") from None
            if not 0 <= m < size:
                raise SchemaError(f"{field_name}.values", f"mask key {m} out of range")
            values[m] = parse_rational(v, f"{field_name}.values[{key}]")
        return ExplicitTable(tuple(values))
    if kind == "edges_inside":
        edges = []
        for i, e in enumerate(obj.get("edges", [])):
            if not isinstance(e, (list, tuple)) or len(e) != 3:
                raise SchemaError(f"{field_name}.edges[{i}]", "expected [u, v, weight]")
            u = e[0] if isinstance(e[0], int) else ground.index_of(e[0])
            v = e[1] if isinstance(e[1], int) else ground.index_of(e[1])
            if not (0 <= u < n and 0 <= v < n):
                raise SchemaError(f"{field_name}.edges[{i}]", "endpoint out of range")
            edges.append((u, v, parse_rational(e[2], f"{field_name}.edges[{i}]")))
        return EdgesInside(tuple(edges))
    if kind == "linear":
        weights = obj.get("weights")
        if not isinstance(weights, list) or len(weights) != n:
            raise SchemaError(f"{field_name}.weights", f"expected {n} weights")
        return Linear(tuple(parse_rational(w, f"{field_name}.weights[{i}]") for i, w in enumerate(weights)))
    if kind == "concave_of_cardinality":
        phi = obj.get("phi")
        if not isinstance(phi, list) or len(phi) != n + 1:
            raise SchemaError(f"{field_name}.phi", f"expected {n + 1} values phi(0..n)")
        return ConcaveOfCardinality(tuple(parse_rational(v, f"{field_name}.phi[{i}]") for i, v in enumerate(phi)))
    if kind == "scaled":
        return Scaled(
            spec_from_json(obj.get("base"), ground, f"{field_name}.base"),
            parse_rational(obj.get("factor"), f"{field_name}.factor"),
        )
    if kind == "perturbed":
        return Perturbed(
            spec_from_json(obj.get("base"), ground, f"{field_name}.base"),
            parse_rational(obj.get("eta"), f"{field_name}.eta"),
        )
    if kind == "complement_of":
        return ComplementOf(spec_from_json(obj.get("base"), ground, f"{field_name}.base"), n)
    raise SchemaError(f"{field_name}.kind", f"unknown spec kind {kind!r} (expected one of {sorted(_SPEC_KINDS)})")


def instance_from_json(obj: dict) -> DualModularInstance:
    if not isinstance(obj, dict):
        raise SchemaError("instance", "top level must be an object")
    labels = obj.get("labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels", "expected a list of strings")
    ground = GroundSet(tuple(labels))
    if "f" not in obj:
        raise SchemaError("f", "missing reward spec")
    if "g" not in obj:
        raise SchemaError("g", "missing cost spec")
    f = spec_from_json(obj["f"], ground, "f")
    g = spec_from_json(obj["g"], ground, "g")
    normalized = obj.get("normalized", False)
    if not isinstance(normalized, bool):
        raise SchemaError("normalized", "expected a boolean")
    # the empty set must evaluate to 0 no matter the representation
    if f.value(0) != 0:
        raise SchemaError("f", "f(empty) must be 0")
    if g.value(0) != 0:
        raise SchemaError("g", "g(empty) must be 0")
    return DualModularInstance(ground=ground, f=f, g=g, normalized=normalized)


def instance_to_json(inst: DualModularInstance) -> dict:
    return {
        "labels": list(inst.ground.labels),
        "f": inst.f.to_json(inst.n),
        "g": inst.g.to_json(inst.n),
        "normalized": inst.normalized,
    }


def load_instance(path) -> DualModularInstance:
    import json

    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError("instance", f"invalid JSON: {exc}") from exc
    return instance_from_json(obj)
