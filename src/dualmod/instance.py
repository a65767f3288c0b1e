"""Ground sets and the dual-modular set-function pair.

A set function on a ground set of size n maps n-bit subset masks to exact
rationals.  Several structured representations are supported (explicit
tables, edge counting, linear weights, concave-of-cardinality) together
with derived wrappers (scaling, per-element perturbation, complementation,
marginal restriction).  Structural properties -- supermodularity of the
reward, submodularity and strict monotonicity of the cost -- are proven by
a kind's construction where its inputs show them, and otherwise *checked
on every second difference and every one-element step*, never assumed.

Each spec gives its values as Python ints over its one positive
denominator: a table of all 2^n values (verification, decomposition,
membership, contracts, the `extremes` cross-check), the prefixes of a
chain of distinct elements (the solver, permutation vertices, and a single
`Fraction` value, the last prefix of a walk over its subset), and the
vector of one-element marginals at one subset (`extremes`, Greedy++'s
removals).  Nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, InitVar
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from typing import Collection, Optional, Sequence

from .errors import (
    EmptyResidual,
    GroundSetTooLarge,
    NotStrictlyMonotone,
    SchemaError,
    StructuralError,
    ZeroTotal,
)
from .rational import format_rational, parse_rational

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


def subset_sums(vec: Sequence, n: int) -> list:
    """sums[mask] = sum of vec over the elements of mask."""
    sums = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        sums[mask] = sums[mask ^ (1 << low)] + vec[low]
    return sums


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
# set-function specs
# ---------------------------------------------------------------------------


def _over_common_den(values: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """(ints, den) with ints[i] == values[i] * den; den is the lcm of the denominators."""
    den = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (den // v.denominator) for v in values), den


PROPERTIES = ("supermodular", "submodular", "monotone", "strictly_monotone")
_size_only_of_base = property(lambda self: self.base._size_only)  # the wrappers' _size_only: their base's


def _proven(**holds: bool) -> dict:
    """{property: True} for each property whose rule holds, in PROPERTIES order."""
    return {p: True for p in PROPERTIES if holds.get(p)}


class SetFunctionSpec:
    """Base of every set-function representation.

    Subclasses implement ``table(n)``: all 2^n values as ``(values, den)``,
    integers over one denominator with ``values[mask] == value(mask) * den``,
    and ``prefixes(order)`` for a chain of distinct elements from the empty
    set, an order of all n elements or fewer: ``values[i]`` is ``value`` of
    the first i elements of ``order``, times ``den``.  Each spec clears its
    inputs' denominators once, so its table and every walk share one ``den``
    and their integers compare across walks.  Structured kinds walk in
    O(m + n) integer operations for m edges.  ``value(mask)`` is the last
    prefix of one walk over the elements of ``mask``.  ``marginal_vector(mask,
    n)`` is ``(ints, den)`` over the same ``den``: ``ints[u]`` is
    h(mask + u) - h(mask) for u not in mask and h(mask) - h(mask - u) for u
    in mask, times ``den``, built in one pass (kinds implement ``_vector``).
    ``check(n)`` raises :class:`SchemaError` unless the spec fits n elements;
    instances call it.

    ``structure(n)`` maps each property of :data:`PROPERTIES` that the kind
    proves on n elements, given its constructor's checks, to True.  A
    property it cannot prove is left out, never False: a failure needs a
    witness, and only :func:`verify_dual_modularity`'s scan finds one.
    """

    _n: Optional[int] = None  # the size of the ground set a kind is built for; None: it fits any
    _size_only = False  # True where h(S) depends on |S| alone, so walks of any two orders agree

    def _fit(self, mask: int) -> None:
        n = self._n
        if mask < 0 or n is not None and mask >> n:
            raise SchemaError("values", f"mask {mask} out of table range {'>= 0' if n is None else 1 << n}")

    def value(self, mask: int) -> Fraction:
        """h(S), the exact rational value of the subset encoded by ``mask``."""
        self._fit(mask)
        values, den = self.prefixes([u for u in range(mask.bit_length()) if mask >> u & 1])
        return Fraction(values[-1], den)

    def marginal_vector(self, mask: int, n: int) -> tuple[list[int], int]:
        """The one-element marginals of elements 0..n-1 at ``mask``, as integers over den;
        n must be the size a kind is built for, where it fixes one."""
        self._fit(mask)
        if self._n is not None and n != self._n:
            raise SchemaError("n", f"{n} elements for a spec built for n={self._n}")
        return self._vector(mask, n)

    def check(self, n: int) -> None:
        pass

    def structure(self, n: int) -> dict:
        return {}

    def to_json(self, n: int) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitTable(SetFunctionSpec):
    values: tuple[Fraction, ...]
    _n = property(lambda self: len(self.values).bit_length() - 1)

    def __post_init__(self):
        size = len(self.values)
        if size == 0 or size & (size - 1):
            raise SchemaError("values", f"table must have 2^n entries, got {size}")
        if self.values[0] != 0:
            raise SchemaError("values", "value on the empty set must be 0")
        for i, v in enumerate(self.values):
            if v < 0:
                raise SchemaError("values", f"negative value {v} at mask {i}")

    @cached_property
    def _cleared(self) -> tuple[tuple[int, ...], int]:
        return _over_common_den(self.values)

    def table(self, n: int) -> tuple[list[int], int]:
        values, den = self._cleared
        return list(values), den

    def prefixes(self, order: Sequence[int]) -> tuple[list[int], int]:
        values, den = self._cleared
        return [values[m] for m in accumulate((1 << u for u in order), int.__or__, initial=0)], den

    def _vector(self, mask: int, n: int) -> tuple[list[int], int]:
        values, den = self._cleared
        h = values[mask]
        return [h - values[mask ^ 1 << u] if mask >> u & 1 else values[mask | 1 << u] - h for u in range(n)], den

    def check(self, n: int) -> None:
        if len(self.values) != (1 << n):
            raise SchemaError("values", f"table has {len(self.values)} entries, expected {1 << n}")

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

    @cached_property
    def _cleared(self) -> tuple[list[tuple[int, int, int]], int, int]:
        weights, den = _over_common_den([w for _, _, w in self.edges])
        span = 1 + max((max(u, v) for u, v, _ in self.edges), default=-1)
        return [(u, v, w) for (u, v, _), w in zip(self.edges, weights)], den, span

    def table(self, n: int) -> tuple[list[int], int]:
        edges, den, _ = self._cleared
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v, w in edges:
            lo, hi = min(u, v), max(u, v)
            adj[lo].append((hi, w))
        tab = [0] * (1 << n)
        for mask in range(1, 1 << n):
            low = (mask & -mask).bit_length() - 1
            rest = mask ^ (1 << low)
            total = tab[rest]
            for other, w in adj[low]:
                if other == low or mask >> other & 1:
                    total += w
            tab[mask] = total
        return tab, den

    def prefixes(self, order: Sequence[int]) -> tuple[list[int], int]:
        # an edge (a loop too) joins the prefixes at its later endpoint; an endpoint
        # outside the chain arrives one past its end, in a step dropped at the end
        edges, den, span = self._cleared  # span: 1 + the largest endpoint
        arrival = [len(order) + 1] * span
        for i, u in enumerate(order, 1):
            if u < span:
                arrival[u] = i
        step = [0] * (len(order) + 2)
        for u, v, w in edges:
            a, b = arrival[u], arrival[v]
            step[a if a > b else b] += w
        step.pop()
        return list(accumulate(step)), den

    def _vector(self, mask: int, n: int) -> tuple[list[int], int]:
        # u's loops, plus its edges to the other elements of mask
        edges, den, span = self._cleared
        out = [0] * max(n, span)
        for u, v, w in edges:
            if u == v or mask >> v & 1:
                out[u] += w
            if u != v and mask >> u & 1:
                out[v] += w
        del out[n:]
        return out, den

    @cached_property
    def neighbours(self) -> list[list[tuple[int, int]]]:
        """neighbours[u]: (v, w) for each edge between u and another element v, w cleared."""
        edges, _, span = self._cleared
        out: list[list[tuple[int, int]]] = [[] for _ in range(span)]
        for u, v, w in edges:
            if u != v:
                out[u].append((v, w))
                out[v].append((u, w))
        return out

    def check(self, n: int) -> None:
        for u, v, _ in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise SchemaError("edges", f"edge ({u}, {v}) outside ground set of size {n}")

    def structure(self, n: int) -> dict:
        # adding u gains u's loops plus its edges into S (w >= 0): never
        # negative, and never smaller on a larger S; the same on every S when
        # no edge between two elements is positive, and positive even on the
        # empty set when u has a positive loop
        looped = {u for u, v, w in self.edges if u == v and w > 0}
        return _proven(
            supermodular=True,
            submodular=not any(w > 0 for u, v, w in self.edges if u != v),
            monotone=True,
            strictly_monotone=all(u in looped for u in range(n)),
        )

    def to_json(self, n: int) -> dict:
        return {
            "kind": "edges_inside",
            "edges": [[u, v, format_rational(w)] for u, v, w in self.edges],
        }


@dataclass(frozen=True)
class Linear(SetFunctionSpec):
    weights: tuple[Fraction, ...]
    _n = property(lambda self: len(self.weights))

    def __post_init__(self):
        for i, w in enumerate(self.weights):
            if w < 0:
                raise SchemaError("weights", f"negative weight {w} at element {i}")

    @cached_property
    def _cleared(self) -> tuple[tuple[int, ...], int]:
        return _over_common_den(self.weights)

    def table(self, n: int) -> tuple[list[int], int]:
        weights, den = self._cleared
        return subset_sums(weights, n), den

    def prefixes(self, order: Sequence[int]) -> tuple[list[int], int]:
        weights, den = self._cleared
        return list(accumulate((weights[u] for u in order), initial=0)), den

    def _vector(self, mask: int, n: int) -> tuple[list[int], int]:
        weights, den = self._cleared
        return list(weights), den

    def check(self, n: int) -> None:
        if len(self.weights) != n:
            raise SchemaError("weights", f"{len(self.weights)} weights, expected {n}")

    def structure(self, n: int) -> dict:
        # modular; adding u gains its weight, which is >= 0
        return _proven(supermodular=True, submodular=True, monotone=True,
                       strictly_monotone=all(w > 0 for w in self.weights))

    def to_json(self, n: int) -> dict:
        return {"kind": "linear", "weights": [format_rational(w) for w in self.weights]}


@dataclass(frozen=True)
class ConcaveOfCardinality(SetFunctionSpec):
    """phi(|S|) for a concave sequence phi(0..n) with phi(0) = 0."""

    phi: tuple[Fraction, ...]
    _n = property(lambda self: len(self.phi) - 1)
    _size_only = True

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

    @cached_property
    def _cleared(self) -> tuple[tuple[int, ...], int]:
        return _over_common_den(self.phi)

    def table(self, n: int) -> tuple[list[int], int]:
        phi, den = self._cleared
        return [phi[m.bit_count()] for m in range(1 << n)], den

    def prefixes(self, order: Sequence[int]) -> tuple[list[int], int]:
        phi, den = self._cleared
        return list(phi[: len(order) + 1]), den

    def _vector(self, mask: int, n: int) -> tuple[list[int], int]:
        # a member steps down to size k - 1, any other element up to k + 1
        phi, den = self._cleared
        k = mask.bit_count()
        inside = phi[k] - phi[k - 1] if k else 0
        outside = phi[k + 1] - phi[k] if k < len(phi) - 1 else 0
        return [inside if mask >> u & 1 else outside for u in range(n)], den

    def check(self, n: int) -> None:
        if len(self.phi) != n + 1:
            raise SchemaError("phi", f"phi has {len(self.phi)} entries, expected {n + 1}")

    def structure(self, n: int) -> dict:
        # adding an element to a set of size k gains increment k, and the
        # increments do not increase
        increments = [b - a for a, b in zip(self.phi, self.phi[1:])]
        return _proven(
            supermodular=len(set(increments)) <= 1,
            submodular=True,
            monotone=all(d >= 0 for d in increments),
            strictly_monotone=all(d > 0 for d in increments),
        )

    def to_json(self, n: int) -> dict:
        return {"kind": "concave_of_cardinality", "phi": [format_rational(v) for v in self.phi]}


@dataclass(frozen=True)
class Scaled(SetFunctionSpec):
    base: SetFunctionSpec
    factor: Fraction
    _n = property(lambda self: self.base._n)
    _size_only = _size_only_of_base

    def __post_init__(self):
        if self.factor < 0:
            raise SchemaError("factor", f"scale factor must be >= 0, got {self.factor}")

    def _scale(self, base: tuple[list[int], int]) -> tuple[list[int], int]:
        values, den = base
        return [self.factor.numerator * v for v in values], den * self.factor.denominator

    def table(self, n: int) -> tuple[list[int], int]:
        return self._scale(self.base.table(n))

    def prefixes(self, order: Sequence[int]) -> tuple[list[int], int]:
        return self._scale(self.base.prefixes(order))

    def _vector(self, mask: int, n: int) -> tuple[list[int], int]:
        return self._scale(self.base._vector(mask, n))

    def check(self, n: int) -> None:
        self.base.check(n)

    def structure(self, n: int) -> dict:
        # a factor >= 0 keeps every inequality; only a positive one keeps a strict one
        proven = self.base.structure(n)
        if self.factor == 0:
            proven.pop("strictly_monotone", None)
        return proven

    def to_json(self, n: int) -> dict:
        return {"kind": "scaled", "base": self.base.to_json(n), "factor": format_rational(self.factor)}


@dataclass(frozen=True)
class Perturbed(SetFunctionSpec):
    """base(S) + eta * |S|; strictly monotone whenever base is monotone and eta > 0."""

    base: SetFunctionSpec
    eta: Fraction
    _n = property(lambda self: self.base._n)
    _size_only = _size_only_of_base

    def __post_init__(self):
        if self.eta < 0:
            raise SchemaError("eta", f"perturbation amount must be >= 0, got {self.eta}")

    def _lift(self, base: tuple[list[int], int], sizes) -> tuple[list[int], int]:
        # base/den + (p/q) |S| = (q base + p den |S|) / (q den)
        values, den = base
        p, q = self.eta.numerator, self.eta.denominator
        step = p * den
        return [q * v + step * k for v, k in zip(values, sizes)], q * den

    def table(self, n: int) -> tuple[list[int], int]:
        return self._lift(self.base.table(n), map(int.bit_count, range(1 << n)))

    def prefixes(self, order: Sequence[int]) -> tuple[list[int], int]:
        return self._lift(self.base.prefixes(order), range(len(order) + 1))

    def _vector(self, mask: int, n: int) -> tuple[list[int], int]:
        return self._lift(self.base._vector(mask, n), repeat(1))

    def check(self, n: int) -> None:
        self.base.check(n)

    def structure(self, n: int) -> dict:
        # eta |S| is modular and adds eta >= 0 to every step
        proven = self.base.structure(n)
        if self.eta > 0 and "monotone" in proven:
            proven["strictly_monotone"] = True
        return proven

    def to_json(self, n: int) -> dict:
        return {"kind": "perturbed", "base": self.base.to_json(n), "eta": format_rational(self.eta)}


@dataclass(frozen=True)
class ComplementOf(SetFunctionSpec):
    """h(S) = base(V) - base(V \\ S); swaps super- and submodularity."""

    base: SetFunctionSpec
    n: int
    _n = property(lambda self: self.n)
    _size_only = _size_only_of_base

    def table(self, n: int) -> tuple[list[int], int]:
        b, den = self.base.table(n)
        full = (1 << n) - 1
        return [b[full] - b[full ^ m] for m in range(1 << n)], den

    def prefixes(self, order: Sequence[int]) -> tuple[list[int], int]:
        # V minus the first i of the chain is the first n - i of its completion's reverse
        seen = set(order)
        b, den = self.base.prefixes([u for u in range(self.n) if u not in seen][::-1] + list(order)[::-1])
        return [b[-1] - v for v in reversed(b[self.n - len(order):])], den

    def _vector(self, mask: int, n: int) -> tuple[list[int], int]:
        # adding u to S removes it from V - S, and removing u from S adds it there
        return self.base._vector((1 << self.n) - 1 ^ mask, n)

    def check(self, n: int) -> None:
        if n != self.n:
            raise SchemaError("base", f"complement built for n={self.n}, asked for n={n}")
        self.base.check(n)

    def structure(self, n: int) -> dict:
        # h(S + u) - h(S) = base(V - S) - base(V - S - u): a step of base
        # itself, from a set that shrinks as S grows
        swap = {"supermodular": "submodular", "submodular": "supermodular"}
        return _proven(**{swap.get(p, p): True for p in self.base.structure(n)})

    def to_json(self, n: int) -> dict:
        return {"kind": "complement_of", "base": self.base.to_json(n)}


@dataclass(frozen=True)
class Marginal(SetFunctionSpec):
    """base(S' | anchor) on a residual ground set.

    ``index_map[i]`` is the position in the original ground set of element i
    of the residual one; with the anchor it covers that ground set.  Used by
    residual instances only; serialises by materialising its table.
    """

    base: SetFunctionSpec
    anchor: int
    index_map: tuple[int, ...]
    _n = property(lambda self: len(self.index_map))

    def _expand(self, mask: int) -> int:
        out = 0
        m = mask
        while m:
            low = (m & -m).bit_length() - 1
            out |= 1 << self.index_map[low]
            m &= m - 1
        return out

    def prefixes(self, order: Sequence[int]) -> tuple[list[int], int]:
        # one base walk: the anchor's elements first, then order; minus the anchor's prefix
        anchor = [u for u in range(self.anchor.bit_length()) if self.anchor >> u & 1]
        values, den = self.base.prefixes(anchor + [self.index_map[u] for u in order])
        k = len(anchor)
        return [v - values[k] for v in values[k:]], den

    def _vector(self, mask: int, n: int) -> tuple[list[int], int]:
        vec, den = self.base._vector(self.anchor | self._expand(mask), n + self.anchor.bit_count())
        return [vec[u] for u in self.index_map], den

    def table(self, n: int) -> tuple[list[int], int]:
        base, den = self.base.table(n + self.anchor.bit_count())
        masks = [self.anchor]  # masks[mask] = anchor | the base positions of mask
        for u in self.index_map:
            masks += [m | 1 << u for m in masks]
        a = base[self.anchor]
        return [base[m] - a for m in masks], den

    def to_json(self, n: int) -> dict:
        values, den = self.table(n)
        return ExplicitTable(tuple(Fraction(v, den) for v in values)).to_json(n)


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


def _first_local_violation(tab: list[int], n: int, sign: int) -> Optional[tuple[int, int]]:
    # First S+u, S+v with sign * (h(S+u) + h(S+v) - h(S) - h(S+u+v)) > 0:
    # pairs u < v in order, then S over the submasks of V - u - v ascending.
    if sign < 0:
        tab = [-x for x in tab]
    full = (1 << n) - 1
    for u in range(n):
        bu = 1 << u
        for v in range(u + 1, n):
            bv = 1 << v
            rest = full ^ bu ^ bv
            s = 0
            while True:
                if tab[s | bu] + tab[s | bv] > tab[s] + tab[s | bu | bv]:
                    return s | bu, s | bv
                s = (s - rest) & rest
                if not s:
                    break
    return None


def _first_monotonicity_violations(tab: list[int], n: int) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
    # One scan over the one-element steps (S, S+u), S ascending, then u:
    # the first with h(S+u) < h(S) and the first with h(S+u) <= h(S).
    strict = None
    for s in range(1 << n):
        base = tab[s]
        for u in range(n):
            if s >> u & 1:
                continue
            bigger = tab[s | (1 << u)]
            if bigger <= base:
                step = s, s | (1 << u)
                strict = strict or step
                if bigger < base:
                    return step, strict
    return None, strict


def _structure_report(
    ftab: Optional[list[int]],
    gtab: Optional[list[int]],
    n: int,
    f_open: Collection[str] = PROPERTIES,
    g_open: Collection[str] = PROPERTIES,
) -> tuple[StructureReport, Optional[tuple[int, int]]]:
    """The report, and the first step on which f does not strictly increase.

    Only the properties in ``f_open`` and ``g_open`` are scanned, each in
    the order of the full scan (the default), so each witness is the full
    scan's; the rest read as proven.  A table may be None when its function
    has no property open.
    """
    f_steps = {"monotone", "strictly_monotone"}.intersection(f_open)
    g_steps = {"monotone", "strictly_monotone"}.intersection(g_open)
    f_weak, f_strict = _first_monotonicity_violations(ftab, n) if f_steps else (None, None)
    g_weak, g_strict = _first_monotonicity_violations(gtab, n) if g_steps else (None, None)
    # insertion order fixes the order of the witnesses in the JSON report
    violations = {
        "f_supermodular": _first_local_violation(ftab, n, 1) if "supermodular" in f_open else None,
        "g_submodular": _first_local_violation(gtab, n, -1) if "submodular" in g_open else None,
        "f_monotone": f_weak,
        "g_monotone": g_weak,
        "g_strictly_monotone": g_strict,
    }
    report = StructureReport(
        **{prop: w is None for prop, w in violations.items()},
        witnesses={prop: w for prop, w in violations.items() if w is not None},
    )
    return report, f_strict


def _proven_report(inst: DualModularInstance, max_n: Optional[int], f_needs: tuple[str, ...]) -> tuple[StructureReport, Optional[tuple[int, int]]]:
    """:func:`_structure_report` scanning only what the specs' ``structure`` leaves open."""
    n = inst.n
    f_open = [p for p in f_needs if p not in inst.f.structure(n)]
    g_open = [p for p in ("submodular", "monotone", "strictly_monotone") if p not in inst.g.structure(n)]
    # the cap guards the scans alone; with nothing to scan, n = 0 still refuses a negative cap
    check_size(n if f_open or g_open else 0, DEFAULT_VERIFY_LIMIT, max_n, "verify_dual_modularity")
    # sums and second differences compare the same at any positive scale
    ftab = inst.f.table(n)[0] if f_open else None
    gtab = inst.g.table(n)[0] if g_open else None
    return _structure_report(ftab, gtab, n, f_open, g_open)


def verify_dual_modularity(inst: DualModularInstance, max_n: Optional[int] = None) -> StructureReport:
    """Exact check of the four structural hypotheses, with witnesses.

    A property that a spec proves by construction (``structure``) holds
    without a scan: edges with weights >= 0 are supermodular and monotone,
    linear weights >= 0 are modular and monotone, and a concave phi(|S|) is
    submodular; scaling, perturbing and complementing carry those proofs
    over (see each kind).  Explicit tables and marginals prove nothing.

    Every other property is scanned on the function's integer table.  Super-
    and submodularity are checked on second differences, the local lattice
    characterisation: h(S+u) + h(S+v) against h(S) + h(S+u+v) for every pair
    u < v and every S avoiding both, C(n,2) 2^(n-2) checks per function.  A
    witness is the first violating pair (S+u, S+v) in a fixed scan order.
    Monotonicity is checked on the n 2^(n-1) one-element steps.  Tables are
    compared as integers with zero tolerance.  The size cap guards the scan
    alone, since a table holds 2^n values: a ground set above it is refused
    only when some property is left to scan, and an instance whose kinds
    prove everything gets its report at any size.
    """
    return _proven_report(inst, max_n, ("supermodular", "monotone"))[0]


# ---------------------------------------------------------------------------
# derived instances
# ---------------------------------------------------------------------------


def complement_instance(inst: DualModularInstance, max_n: Optional[int] = None) -> DualModularInstance:
    """Swap reward and cost roles via h(S) -> h(V) - h(V \\ S).

    Requires a verified dual-modular instance whose reward is also strictly
    monotone; the swapped pair is then dual-modular again and the two
    instances carry reciprocal density vectors.  The check is the one
    :func:`verify_dual_modularity` makes, with f's strict monotonicity
    added: properties the specs prove are not scanned, and the size cap
    applies only when something is left to scan.
    """
    n = inst.n
    report, f_strict = _proven_report(inst, max_n, ("supermodular", "monotone", "strictly_monotone"))
    if not report.dual_modular:
        if not report.g_strictly_monotone:
            raise NotStrictlyMonotone("g", report.witnesses.get("g_strictly_monotone"))
        raise StructuralError(f"instance is not dual-modular: {report}")
    if f_strict is not None:
        raise NotStrictlyMonotone("f", f_strict)
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
            if values[m] is not None:
                raise SchemaError(f"{field_name}.values", f"mask {m} given twice (key {key!r})")
            values[m] = parse_rational(v, f"{field_name}.values[{key}]")
        make, args = ExplicitTable, (tuple(values),)
    elif kind == "edges_inside":
        raw = obj.get("edges", [])
        if not isinstance(raw, list):
            raise SchemaError(f"{field_name}.edges", "expected a list of [u, v, weight]")
        edges = []
        for i, e in enumerate(raw):
            if not isinstance(e, (list, tuple)) or len(e) != 3:
                raise SchemaError(f"{field_name}.edges[{i}]", "expected [u, v, weight]")
            try:
                u, v = ground.element(e[0]), ground.element(e[1])
            except SchemaError as exc:
                raise SchemaError(f"{field_name}.edges[{i}]", exc.message) from None
            edges.append((u, v, parse_rational(e[2], f"{field_name}.edges[{i}]")))
        make, args = EdgesInside, (tuple(edges),)
    elif kind == "linear":
        weights = obj.get("weights")
        if not isinstance(weights, list) or len(weights) != n:
            raise SchemaError(f"{field_name}.weights", f"expected {n} weights")
        make, args = Linear, (tuple(parse_rational(w, f"{field_name}.weights[{i}]") for i, w in enumerate(weights)),)
    elif kind == "concave_of_cardinality":
        phi = obj.get("phi")
        if not isinstance(phi, list) or len(phi) != n + 1:
            raise SchemaError(f"{field_name}.phi", f"expected {n + 1} values phi(0..n)")
        make, args = ConcaveOfCardinality, (tuple(parse_rational(v, f"{field_name}.phi[{i}]") for i, v in enumerate(phi)),)
    elif kind == "scaled":
        base = spec_from_json(obj.get("base"), ground, f"{field_name}.base")
        make, args = Scaled, (base, parse_rational(obj.get("factor"), f"{field_name}.factor"))
    elif kind == "perturbed":
        base = spec_from_json(obj.get("base"), ground, f"{field_name}.base")
        make, args = Perturbed, (base, parse_rational(obj.get("eta"), f"{field_name}.eta"))
    elif kind == "complement_of":
        make, args = ComplementOf, (spec_from_json(obj.get("base"), ground, f"{field_name}.base"), n)
    else:
        raise SchemaError(f"{field_name}.kind", f"unknown spec kind {kind!r} (expected one of {sorted(_SPEC_KINDS)})")
    # the constructor's checks name its own field; put it under this spec's path
    try:
        return make(*args)
    except SchemaError as exc:
        raise SchemaError(f"{field_name}.{exc.field}", exc.message) from None


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
            return instance_from_json(json.load(fh))
        except json.JSONDecodeError as exc:
            raise SchemaError("instance", f"invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError("instance", f"not UTF-8 text: {exc}") from None
        except RecursionError:
            raise SchemaError("instance", "nested too deeply to read") from None
