"""Exact density decomposition by exhaustive search.

The decomposition repeatedly extracts the maximal densest subset of the
residual instance.  Peels index one integer table of the instance: the
residual marginal f(T|A) is F[T | A] - F[A], so no residual is tabulated.
Densities are exact rationals, so the strict decrease of the part
densities and the tightness identities can be asserted with zero
tolerance.  The search is exponential by design; the polynomial-time
route through submodular minimisation is out of scope at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .divergence import DivergenceKind
from .errors import DecompositionError, GroundSetTooLarge, InfiniteDensity
from .instance import (
    DEFAULT_DECOMP_LIMIT,
    DualModularInstance,
    GroundSet,
    _int_table,
    brute_limit,
)
from .rational import format_rational


@dataclass(frozen=True)
class DensityDecomposition:
    """Ordered partition S_1..S_k with strictly decreasing part densities.

    ``parts`` are masks over the original ground set; ``rho_star[u]`` is the
    density of the part containing element u.
    """

    n: int
    parts: tuple[int, ...]
    densities: tuple[Fraction, ...]
    rho_star: tuple[Fraction, ...]

    def __post_init__(self):
        union = 0
        for p in self.parts:
            if p == 0 or union & p:
                raise DecompositionError("parts must be nonempty and disjoint")
            union |= p
        if union != (1 << self.n) - 1:
            raise DecompositionError("parts must cover the ground set")
        for hi, lo in zip(self.densities, self.densities[1:]):
            if not hi > lo:
                raise DecompositionError(
                    f"part densities must strictly decrease, got {hi} then {lo}"
                )

    @property
    def k(self) -> int:
        return len(self.parts)

    def prefix_masks(self) -> list[int]:
        """Cumulative unions S_{<=i}, one per part."""
        out = []
        acc = 0
        for p in self.parts:
            acc |= p
            out.append(acc)
        return out

    def to_json(self, ground: GroundSet) -> dict:
        return {
            "parts": [ground.labels_of(p) for p in self.parts],
            "densities": [format_rational(d) for d in self.densities],
            "rho_star": {
                ground.labels[u]: format_rational(self.rho_star[u]) for u in range(self.n)
            },
        }


def _densest_extension(ftab: list[int], gtab: list[int], anchor: int, free: int) -> int:
    """Union of the nonempty T within ``free`` that maximise f(T|A) / g(T|A).

    ``ftab`` and ``gtab`` are integer tables over the whole ground set and A
    is ``anchor``.  Ratios are compared by cross-multiplication with the
    denominator made positive; the subsets T are visited in ascending order.
    """
    fa, ga = ftab[anchor], gtab[anchor]
    best_f = best_g = union = t = 0  # best ratio best_f / best_g; none while best_g == 0
    while t != free:
        t = (t - free) & free
        df, dg = ftab[t | anchor] - fa, gtab[t | anchor] - ga
        if dg == 0:
            if df > 0:
                raise InfiniteDensity(t)
            continue
        if dg < 0:
            df, dg = -df, -dg
        lhs, rhs = df * best_g, best_f * dg
        if best_g == 0 or lhs > rhs:
            best_f, best_g, union = df, dg, t
        elif lhs == rhs:
            union |= t
    if best_g == 0:
        raise DecompositionError("no subset has positive cost; cannot define density")
    df, dg = ftab[union | anchor] - fa, gtab[union | anchor] - ga
    if dg == 0 or df * best_g != best_f * dg:
        raise DecompositionError(
            "union of densest subsets is not densest; instance is not dual-modular"
        )
    return union


def _peels(inst: DualModularInstance, max_n: Optional[int]):
    """Yield (part, density) for each peel in order, all read off one table.

    Peel i takes the maximal densest subset of f(.|A), g(.|A) on the
    elements outside A, the union of the parts found so far.
    """
    limit = brute_limit(DEFAULT_DECOMP_LIMIT, max_n)
    if inst.n > limit:
        raise GroundSetTooLarge(inst.n, limit, "maximal_densest_subset")
    ftab, gtab = inst.tables()
    fint, gint = _int_table(ftab), _int_table(gtab)
    full = inst.ground.full_mask
    anchor = 0
    while anchor != full:
        part = _densest_extension(fint, gint, anchor, full ^ anchor)
        union = anchor | part
        yield part, (ftab[union] - ftab[anchor]) / (gtab[union] - gtab[anchor])
        anchor = union


def maximal_densest_subset(
    inst: DualModularInstance, max_n: Optional[int] = None
) -> tuple[int, Fraction]:
    """Union of all densest subsets and their common density f(S)/g(S).

    Enumerates every nonempty subset.  Subsets with zero cost and positive
    reward have infinite density and are hard errors; the cure is a strict
    perturbation of the cost function.  The union of the maximisers must
    itself be a maximiser (a dual-modularity consequence) and is asserted.
    """
    return next(_peels(inst, max_n))


def density_decomposition(
    inst: DualModularInstance, max_n: Optional[int] = None
) -> DensityDecomposition:
    """Peel off maximal densest subsets until the ground set is exhausted."""
    parts, densities = zip(*_peels(inst, max_n))
    # every element lies in exactly one part
    rho_star = tuple(r for u in range(inst.n) for p, r in zip(parts, densities) if p >> u & 1)
    return DensityDecomposition(n=inst.n, parts=parts, densities=densities, rho_star=rho_star)


def optimal_objective(
    dec: DensityDecomposition, inst: DualModularInstance, kind: DivergenceKind
):
    """Closed-form optimum sum_i g(S_i | S_<i) * theta(rho_i).

    This is the common objective value of every locally maximin allocation;
    exact for the quadratic and hockey-stick generators, binary64 for the
    logarithmic ones.
    """
    if dec.n != inst.n:
        raise DecompositionError("decomposition does not match the instance")
    total = None
    prefix = 0
    for part, rho in zip(dec.parts, dec.densities):
        g_marginal = inst.g.value(prefix | part) - inst.g.value(prefix)
        term = g_marginal * kind.theta(rho)
        total = term if total is None else total + term
        prefix |= part
    return total
