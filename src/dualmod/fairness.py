"""Fairness checks: locally maximin condition and lexicographic comparison.

An allocation is locally maximin when every density upper level set
receives exactly its worst-case reward and cost.  Those sets are the
prefixes of the density order that end where the density drops, so one
walk of f and one of g along that order give all their values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Optional, Sequence

from .decomposition import DensityDecomposition
from .errors import DecompositionError, SchemaError
from .instance import DualModularInstance
from .permutation import Allocation, density_order, induced_densities


@dataclass(frozen=True)
class ThresholdRow:
    rho: object
    mask: int
    reward_slack: object  # x(S) - f(S), must be 0
    cost_slack: object    # g(S) - y(S), must be 0


@dataclass(frozen=True)
class MaximinReport:
    is_locally_maximin: bool
    thresholds: tuple[ThresholdRow, ...]
    first_violation: Optional[ThresholdRow] = None


def is_locally_maximin(inst: DualModularInstance, allocation: Allocation) -> MaximinReport:
    """Check x(S) = f(S) and y(S) = g(S) on every realized upper level set."""
    _check_length(inst, allocation)
    return _level_sets(inst, allocation, induced_densities(allocation, labels=inst.ground.labels))


def _check_length(inst: DualModularInstance, allocation: Allocation) -> None:
    if allocation.n != inst.n:
        raise SchemaError("allocation", f"length {allocation.n} does not match n={inst.n}")


def _level_sets(inst: DualModularInstance, allocation: Allocation, rho: Sequence) -> MaximinReport:
    """:func:`is_locally_maximin` on the allocation's induced densities ``rho``."""
    order = density_order(rho)
    f, df = inst.f.prefixes(order)
    g, dg = inst.g.prefixes(order)
    rows = []
    violation = None
    mask = 0
    x_sum = 0
    y_sum = 0
    for level, members in groupby(order, key=rho.__getitem__):
        for u in members:
            mask |= 1 << u
            x_sum += allocation.x[u]
            y_sum += allocation.y[u]
        k = mask.bit_count()
        row = ThresholdRow(
            rho=level,
            mask=mask,
            reward_slack=x_sum - Fraction(f[k], df),
            cost_slack=Fraction(g[k], dg) - y_sum,
        )
        rows.append(row)
        if violation is None and (row.reward_slack != 0 or row.cost_slack != 0):
            violation = row
    return MaximinReport(
        is_locally_maximin=violation is None,
        thresholds=tuple(rows),
        first_violation=violation,
    )


def lex_compare(rho_a: Sequence, rho_b: Sequence) -> int:
    """Compare sorted-descending density vectors; smaller is lex-better.

    Returns -1 when the first vector is lex-better, +1 when the second is,
    0 when the multisets coincide.
    """
    if len(rho_a) != len(rho_b):
        raise SchemaError("lex_compare", f"length mismatch {len(rho_a)} vs {len(rho_b)}")
    a = sorted(rho_a, reverse=True)
    b = sorted(rho_b, reverse=True)
    for va, vb in zip(a, b):
        if va < vb:
            return -1
        if va > vb:
            return 1
    return 0


@dataclass(frozen=True)
class EquivalenceReport:
    densities_match: bool       # induced densities equal the decomposition vector
    locally_maximin: bool       # level-set tightness condition
    agree: bool                 # the two booleans coincide
    lex_order: int              # lex_compare(induced densities, decomposition vector)
    maximin: MaximinReport


def equivalence_report(
    inst: DualModularInstance,
    allocation: Allocation,
    dec: DensityDecomposition,
) -> EquivalenceReport:
    """Cross-check the equivalent fairness characterisations on one allocation.

    Density agreement and the locally maximin condition are tested exactly;
    lexicographic optimality is certified relative to the decomposition
    density vector (the lex-minimum over all allocations), since the
    allocation polytope cannot be enumerated.
    """
    if dec.n != inst.n:
        raise DecompositionError("decomposition does not match the instance")
    _check_length(inst, allocation)
    rho = induced_densities(allocation, labels=inst.ground.labels)
    report = _level_sets(inst, allocation, rho)
    match = all(r == s for r, s in zip(rho, dec.rho_star))
    return EquivalenceReport(
        densities_match=match,
        locally_maximin=report.is_locally_maximin,
        agree=match == report.is_locally_maximin,
        lex_order=lex_compare(rho, dec.rho_star),
        maximin=report,
    )
