"""Each spec gives its values as Python ints over its one positive
denominator: a table of all 2^n values (verification, decomposition,
membership, contracts, the `extremes` cross-check), the prefixes of a
chain of distinct elements (the solver, permutation vertices, and a single
`Fraction` value, the last prefix of a walk over its subset), and the
vector of one-element marginals at one subset (`extremes`, Greedy++'s
removals).  Nothing here ever rounds.

A table is built by doubling: the values of the masks that hold element k
come from those of the masks below k in one list comprehension, so a
table costs O(2^n) list work in n comprehensions and no interpreted step
per mask.  A function of |S| alone is tabulated from one walk, read at
each mask's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, repeat
from typing import Optional, Sequence

from .errors import SchemaError


def subset_sums(vec: Sequence, n: int) -> list:
    """sums[mask] = sum of vec over the elements of mask, by doubling: the
    masks that hold u are the masks below u, each plus vec[u]."""
    sums = [0]
    for u in range(n):
        w = vec[u]
        sums += [s + w for s in sums] if w else sums
    return sums


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

    ``table(n)`` gives all 2^n values as ``(values, den)``, integers over one
    denominator with ``values[mask] == value(mask) * den``: for a size-only
    function, from one walk of ``prefixes`` read at each mask's size;
    otherwise from the kind's ``_table(n)``, which doubles the table once per
    element in O(2^n) list work.  Subclasses implement ``_table`` unless they
    are size-only, and ``prefixes(order)`` for a chain of distinct elements
    from the empty set, an order of all n elements or fewer: ``values[i]`` is
    ``value`` of the first i elements of ``order``, times ``den``.  Each spec
    clears its inputs' denominators once, so its table and every walk share
    one ``den`` and their integers compare across walks.  Structured kinds
    walk in O(m + n) integer operations for m edges.  ``value(mask)`` is the
    last prefix of one walk over the elements of ``mask``.
    ``marginal_vector(mask, n)`` is ``(ints, den)`` over the same ``den``:
    ``ints[u]`` is h(mask + u) - h(mask) for u not in mask and h(mask) -
    h(mask - u) for u in mask, times ``den``, built in one pass (kinds
    implement ``_vector``).  ``check(n)`` raises :class:`SchemaError` unless
    the spec fits n elements; instances call it.

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

    def table(self, n: int) -> tuple[list[int], int]:
        """All 2^n values over den: a size-only function's from one walk, read
        at each mask's size; any other from its kind's ``_table``."""
        if self._size_only:
            values, den = self.prefixes(range(n))
            return [values[k] for k in subset_sums([1] * n, n)], den
        return self._table(n)

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

    def _table(self, n: int) -> tuple[list[int], int]:
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

    def _table(self, n: int) -> tuple[list[int], int]:
        # the masks whose top element is k are the masks below k, each plus k's
        # loops and its edges into them: lower[k][k] and the subset sums of lower[k][:k]
        edges, den, _ = self._cleared
        lower = [[0] * n for _ in range(n)]  # lower[hi][lo]: the weight between hi and lo <= hi
        for u, v, w in edges:
            lower[max(u, v)][min(u, v)] += w
        tab = [0]
        for k, row in enumerate(lower):
            loop = row[k]
            tab += [t + g + loop for t, g in zip(tab, subset_sums(row, k))]
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

    def _table(self, n: int) -> tuple[list[int], int]:
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

    def _table(self, n: int) -> tuple[list[int], int]:
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

    def _table(self, n: int) -> tuple[list[int], int]:
        return self._lift(self.base.table(n), subset_sums([1] * n, n))

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


@dataclass(frozen=True)
class ComplementOf(SetFunctionSpec):
    """h(S) = base(V) - base(V \\ S); swaps super- and submodularity."""

    base: SetFunctionSpec
    n: int
    _n = property(lambda self: self.n)
    _size_only = _size_only_of_base

    def _table(self, n: int) -> tuple[list[int], int]:
        # V \ S runs down the table as S runs up it
        b, den = self.base.table(n)
        top = b[-1]
        return [top - v for v in reversed(b)], den

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


@dataclass(frozen=True)
class Marginal(SetFunctionSpec):
    """base(S' | anchor) on a residual ground set.

    ``index_map[i]`` is the position in the original ground set of element i
    of the residual one; with the anchor it covers that ground set.  Used by
    residual instances only.
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

    def _table(self, n: int) -> tuple[list[int], int]:
        base, den = self.base.table(n + self.anchor.bit_count())
        masks = [self.anchor]  # masks[mask] = anchor | the base positions of mask
        for u in self.index_map:
            masks += [m | 1 << u for m in masks]
        a = base[self.anchor]
        return [base[m] - a for m in masks], den
