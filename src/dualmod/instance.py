"""Ground sets and the dual-modular set-function pair.

A set function on a ground set of size n maps n-bit subset masks to exact
rationals.  Several structured representations are supported (explicit
tables, edge counting, linear weights, concave-of-cardinality) together
with derived wrappers (scaling, per-element perturbation, complementation,
marginal restriction).  Structural properties -- supermodularity of the
reward, submodularity and strict monotonicity of the cost -- are proven by
a kind's construction where its inputs show them, and otherwise *checked
on every second difference and every one-element step*, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, InitVar
from fractions import Fraction
from typing import Optional

from .errors import EmptyResidual, GroundSetTooLarge, SchemaError, StructuralError, ZeroTotal
from .kinds import Marginal, Scaled, SetFunctionSpec

DEFAULT_VERIFY_LIMIT = 14
DEFAULT_DECOMP_LIMIT = 18
DEFAULT_ENUM_LIMIT = 16


def check_size(n: int, default: int, max_n: Optional[int], what: str) -> None:
    """Refuse a ground set above ``max_n``, or above ``default`` when it is None; a negative cap is a schema error."""
    limit = default if max_n is None else max_n
    if limit < 0:
        raise SchemaError("max_n", f"must be >= 0, got {limit}")
    if n > limit:
        raise GroundSetTooLarge(n, limit, what)


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

    def element(self, e) -> int:
        """Index of a label, or an element index itself; a boolean is neither."""
        if isinstance(e, str):
            return self.index_of(e)
        if isinstance(e, int) and not isinstance(e, bool) and 0 <= e < self.n:
            return e
        raise SchemaError("element", f"{e!r} is neither a label nor an element index below {self.n}")

    def labels_of(self, mask: int) -> list[str]:
        self.check_mask(mask)
        return [self.labels[i] for i in range(self.n) if mask >> i & 1]


# ---------------------------------------------------------------------------
# instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DualModularInstance:
    """Ground set plus reward f (supermodular) and cost g (submodular).

    The modularity and monotonicity properties are *claims* that
    :func:`verify_dual_modularity` proves or checks; construction only enforces positive
    totals (skipped for residual instances, whose reward total may vanish).
    """

    ground: GroundSet
    f: SetFunctionSpec
    g: SetFunctionSpec
    normalized: bool = False
    check_totals: InitVar[bool] = True

    def __post_init__(self, check_totals: bool):
        self.f.check(self.n)
        self.g.check(self.n)
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

    def tables(self) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
        """((F, Df), (G, Dg)) with F[mask] == f(mask) * Df and G[mask] == g(mask) * Dg."""
        return self.f.table(self.n), self.g.table(self.n)


# ---------------------------------------------------------------------------
# derived instances
# ---------------------------------------------------------------------------


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
        check_totals=False,  # the factors make both totals exactly 1
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
    return DualModularInstance(
        ground=ground,
        f=_restrict(inst.f, mask, keep),
        g=_restrict(inst.g, mask, keep),
        normalized=False,
        check_totals=False,
    )


def _restrict(spec: SetFunctionSpec, mask: int, keep: list[int]) -> Marginal:
    """spec(. | mask) on the elements ``keep``, one view over the original spec.

    A marginal of a marginal is the base's marginal at the union of both
    anchors, so a walk, and so a value, is one base walk at any peel depth,
    where a nested view would add a level of walks per peel.
    """
    if isinstance(spec, Marginal):
        return Marginal(spec.base, spec.anchor | spec._expand(mask), tuple(spec.index_map[i] for i in keep))
    return Marginal(spec, mask, tuple(keep))


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
    marginals the other way round.  So the closed forms read f_min and g_max
    off the marginal vectors at the empty set, and f_max and g_min off those
    at V: four ``marginal_vector`` calls.  Where ``structure`` proves f
    supermodular and g submodular the closed forms are theorems; otherwise,
    for n <= 7, they are cross-checked against every marginal h(u | A) with
    u not in A.  Each such pair is the prefix-and-next step of some
    permutation, so this is the set of marginals all n! vertices take.
    """
    n = inst.n
    full = inst.ground.full_mask
    f = inst.f
    g = inst.g
    (f_low, df), (f_high, _) = f.marginal_vector(0, n), f.marginal_vector(full, n)
    (g_low, dg), (g_high, _) = g.marginal_vector(0, n), g.marginal_vector(full, n)
    f_min, f_max = Fraction(min(f_low), df), Fraction(max(f_high), df)
    g_min, g_max = Fraction(min(g_high), dg), Fraction(max(g_low), dg)

    if n <= 7 and not ("supermodular" in f.structure(n) and "submodular" in g.structure(n)):
        (ftab, df), (gtab, dg) = inst.tables()
        steps = [(a, a | 1 << u) for a in range(1 << n) for u in range(n) if not a >> u & 1]
        seen_f = [ftab[b] - ftab[a] for a, b in steps]
        seen_g = [gtab[b] - gtab[a] for a, b in steps]
        if not (min(seen_f) == f_min * df and max(seen_f) == f_max * df):
            raise StructuralError("closed-form f extremes disagree with permutation scan")
        if not (min(seen_g) == g_min * dg and max(seen_g) == g_max * dg):
            raise StructuralError("closed-form g extremes disagree with permutation scan")

    return Extremes(f_min=f_min, f_max=f_max, g_min=g_min, g_max=g_max)
