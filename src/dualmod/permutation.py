"""Permutation vertices of the base polytopes and allocation handling.

For a set function h and a permutation sigma, the vertex vector assigns to
each element its marginal value over the elements arriving before it.  The
reward base (all x with x(S) >= f(S), x(V) = f(V)) and the cost base (all y
with y(S) <= g(S), y(V) = g(V)) are the convex hulls of these vertices, so
allocations are built as sparse weighted mixtures of permutations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import SchemaError, WeightSumMismatch, ZeroCostCoordinate
from .instance import DEFAULT_ENUM_LIMIT, DualModularInstance, check_size
from .kinds import SetFunctionSpec, subset_sums


@dataclass(frozen=True)
class Permutation:
    """Arrival order; position 0 arrives first."""

    order: tuple[int, ...]

    def __post_init__(self):
        n = len(self.order)
        if sorted(self.order) != list(range(n)):
            raise SchemaError("order", f"{self.order} is not a permutation of 0..{n - 1}")

    @property
    def n(self) -> int:
        return len(self.order)

    def reversed(self) -> "Permutation":
        return Permutation(tuple(reversed(self.order)))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))


@dataclass(frozen=True)
class Allocation:
    """Paired reward shares x and cost shares y, indexed by element."""

    x: tuple
    y: tuple

    def __post_init__(self):
        if len(self.x) != len(self.y):
            raise SchemaError("allocation", "x and y must have the same length")
        for name, vec in (("x", self.x), ("y", self.y)):
            for i, v in enumerate(vec):
                if v < 0:
                    raise SchemaError("allocation", f"{name}[{i}] = {v} is negative")
                # NaN passes the sign test; an int or a Fraction is always finite,
                # and math.isfinite overflows on a huge one
                if not isinstance(v, (int, Fraction)) and not math.isfinite(v):
                    raise SchemaError("allocation", f"{name}[{i}] = {v} is not finite")

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class WeightedPermutationList:
    """Sparse permutation distribution: (sigma, weight) pairs, each weight
    positive, weights sum to 1."""

    pairs: tuple[tuple[Permutation, Fraction], ...]

    def __post_init__(self):
        total = Fraction(0)
        for sigma, w in self.pairs:
            if w <= 0:
                raise SchemaError("weights", f"weight {w} is not positive")
            total += w
        if total != 1:
            raise WeightSumMismatch(total)

    @staticmethod
    def single(sigma: Permutation) -> "WeightedPermutationList":
        return WeightedPermutationList(((sigma, Fraction(1)),))

    @staticmethod
    def uniform(sigmas: Sequence[Permutation]) -> "WeightedPermutationList":
        w = Fraction(1, len(sigmas))
        return WeightedPermutationList(tuple((s, w) for s in sigmas))


def marginals(order: Sequence[int], values: Sequence) -> list:
    """out[order[i]] = values[i + 1] - values[i]: a vertex read off the prefix values."""
    out = [0] * len(order)  # every coordinate is overwritten: order lists all n
    for u, prev, cur in zip(order, values, values[1:]):
        out[u] = cur - prev
    return out


def check_order(sigma: Permutation, n: Optional[int]) -> None:
    """Refuse a permutation of other than n elements; n None fits any."""
    if n is not None and sigma.n != n:
        raise SchemaError("order", f"length {sigma.n} does not match n={n}")


def vertex(spec: SetFunctionSpec, sigma: Permutation) -> tuple[Fraction, ...]:
    """Marginal vector h^sigma, indexed by element; coordinates sum to h(V).

    Read off one exact walk over the n + 1 prefixes of sigma, which must
    order as many elements as the spec is built for, where its kind fixes n.
    """
    check_order(sigma, spec._n)
    values, den = spec.prefixes(sigma.order)
    return tuple(Fraction(d, den) for d in marginals(sigma.order, values))


def allocation_from_mixture(
    inst: DualModularInstance,
    p: WeightedPermutationList,
    q: WeightedPermutationList,
) -> Allocation:
    """x = sum_sigma p_sigma f^sigma and y = sum_tau q_tau g^tau."""

    def mix(spec: SetFunctionSpec, pairs) -> tuple:
        out = [Fraction(0)] * inst.n
        for sigma, w in pairs:
            check_order(sigma, inst.n)
            for u, v in enumerate(vertex(spec, sigma)):
                out[u] += w * v
        return tuple(out)

    return Allocation(x=mix(inst.f, p.pairs), y=mix(inst.g, q.pairs))


@dataclass(frozen=True)
class MembershipReport:
    x_in_reward_base: bool
    y_in_cost_base: bool
    x_witness: Optional[int] = None
    y_witness: Optional[int] = None

    @property
    def both(self) -> bool:
        return self.x_in_reward_base and self.y_in_cost_base


def check_base_membership(
    inst: DualModularInstance,
    allocation: Allocation,
    max_n: Optional[int] = None,
    slack=0,
) -> MembershipReport:
    """Exhaustive membership test against both base polytopes.

    ``slack`` loosens every constraint by an additive amount, for iterates
    carried in binary64 (exact allocations should pass with slack 0).
    """
    n = inst.n
    check_size(n, DEFAULT_ENUM_LIMIT, max_n, "check_base_membership")
    if allocation.n != n:
        raise SchemaError("allocation", f"length {allocation.n} does not match n={n}")
    (ftab, df), (gtab, dg) = inst.tables()
    x_wit = _first_base_violation(ftab, df, allocation.x, slack, 1)
    y_wit = _first_base_violation(gtab, dg, allocation.y, slack, -1)
    return MembershipReport(
        x_in_reward_base=x_wit is None,
        y_in_cost_base=y_wit is None,
        x_witness=x_wit,
        y_witness=y_wit,
    )


def _first_base_violation(tab: list[int], den: int, vec: Sequence, slack, sign: int) -> Optional[int]:
    """First mask on which ``vec`` leaves the base of tab / den, or None.

    The full set must match within ``slack``; then subsets in ascending
    order must satisfy sign * (vec(S) - h(S)) >= -slack.  Floats are read
    at their exact rational values, and vec, slack and 1/den are put over
    one denominator, so every comparison is between integer sums.
    """
    exact = [Fraction(v) for v in vec]
    slack = Fraction(slack)
    scale = math.lcm(den, slack.denominator, *(v.denominator for v in exact))
    sums = subset_sums([v.numerator * (scale // v.denominator) for v in exact], len(exact))
    per = scale // den
    loose = slack.numerator * (scale // slack.denominator)
    full = len(sums) - 1
    if abs(sums[full] - per * tab[full]) > loose:
        return full
    for s in range(1, full):
        if sign * (sums[s] - per * tab[s]) < -loose:
            return s
    return None


def induced_densities(allocation: Allocation, labels: Optional[Sequence[str]] = None) -> tuple:
    """Per-element reward-to-cost ratios x_u / y_u.

    Raises :class:`ZeroCostCoordinate` on any y_u = 0: such an element has
    no defined density, the situation the strict-monotonicity assumption on
    the cost function exists to rule out.
    """
    return tuple(density_ratios(allocation.x, allocation.y, labels))


def density_ratios(x: Sequence, y: Sequence, labels: Optional[Sequence[str]] = None) -> list:
    """[x_u / y_u for each u], raising :class:`ZeroCostCoordinate` on the first y_u = 0."""
    try:
        return [xu / yu for xu, yu in zip(x, y)]
    except ArithmeticError:  # a zero share, or an int quotient past the binary64 range
        if 0 not in y:
            raise
    u = y.index(0)
    raise ZeroCostCoordinate(u, labels[u] if labels is not None else None)


def density_order(rho: Sequence) -> tuple[int, ...]:
    """Non-increasing density order; equal densities by ascending element index."""
    # a reversed sort is still stable: equal densities keep ascending index order
    return tuple(sorted(range(len(rho)), key=rho.__getitem__, reverse=True))


def sort_by_density(rho: Sequence) -> Permutation:
    """``density_order`` as a :class:`Permutation`."""
    return Permutation(density_order(rho))
