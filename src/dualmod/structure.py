"""Proofs and scans of the dual-modularity hypotheses, with their witnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Optional

from .errors import NotStrictlyMonotone, StructuralError
from .instance import DEFAULT_VERIFY_LIMIT, DualModularInstance, GroundSet, check_size
from .kinds import PROPERTIES, ComplementOf


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
