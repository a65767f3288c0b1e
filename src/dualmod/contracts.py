"""Principal-agent analysis on top of the density decomposition.

For a price share alpha the agent maximises alpha * f(S) - g(S); writing
gamma = 1/alpha this is f(S) - gamma * g(S) up to a positive factor.  The
decomposition prefixes are optimal responses, the response changes exactly
at the reciprocals of the part densities, and the hockey-stick divergence
of any feasible allocation upper-bounds the agent's objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .decomposition import DensityDecomposition
from .divergence import HockeyStick, divergence
from .errors import SchemaError
from .instance import DualModularInstance, GroundSet
from .kinds import ExplicitTable, Linear
from .permutation import Allocation
from .rational import format_rational


def _check_alpha(alpha) -> Fraction:
    alpha = Fraction(alpha)
    if alpha < 0 or alpha > 1:
        raise SchemaError("alpha", f"must lie in [0, 1], got {alpha}")
    return alpha


def best_response(inst: DualModularInstance, dec: DensityDecomposition, alpha) -> int:
    """Prefix-union response: all parts with density at least 1/alpha.

    alpha = 0 means an infinite price ratio, so the response is empty.  At
    the boundary 1/alpha = rho_i the larger prefix is returned: among the
    tied responses it carries the largest reward, which is what the
    principal prefers.
    """
    alpha = _check_alpha(alpha)
    if alpha == 0:
        return 0
    gamma = 1 / alpha
    mask = 0
    for part, rho in zip(dec.parts, dec.densities):
        if rho >= gamma:
            mask |= part
        else:
            break
    return mask


def critical_values(dec: DensityDecomposition) -> list[Fraction]:
    """{1 / rho_i} intersected with [0, 1], sorted ascending; rho_i = 0 drops out."""
    return [1 / rho for rho in dec.densities if rho >= 1]


def contract_at(inst: DualModularInstance, dec: DensityDecomposition, alpha) -> tuple[int, Fraction, Fraction]:
    """(S, alpha f(S) - g(S), (1 - alpha) f(S)) for the best response S at alpha.

    That is the response and the agent's and principal's utilities; f and g are read once each.
    """
    alpha = _check_alpha(alpha)
    mask = best_response(inst, dec, alpha)
    fv = inst.f.value(mask)
    return mask, alpha * fv - inst.g.value(mask), (1 - alpha) * fv


def contract_row(ground: GroundSet, alpha: Fraction, mask: int, agent: Fraction, principal: Fraction) -> dict:
    """JSON form of one :func:`contract_at` answer at alpha."""
    return {
        "alpha": format_rational(alpha),
        "response": ground.labels_of(mask),
        "agent_utility": format_rational(agent),
        "principal_utility": format_rational(principal),
    }


def duality_gap(inst: DualModularInstance, mask: int, allocation: Allocation, gamma) -> Fraction:
    """HS_gamma(x || y) - (f(S) - gamma * g(S)); non-negative for feasible pairs.

    Zero exactly at a locally maximin allocation paired with the optimal
    response prefix for gamma.
    """
    gamma = Fraction(gamma)
    hs = divergence(HockeyStick(gamma), allocation.x, allocation.y)
    return hs - (inst.f.value(mask) - gamma * inst.g.value(mask))


@dataclass(frozen=True)
class ContractAnalysis:
    critical_values: tuple[Fraction, ...]
    responses: tuple[int, ...]            # best response at each critical alpha
    agent_utilities: tuple[Fraction, ...]
    principal_utilities: tuple[Fraction, ...]
    optimal_alpha: Fraction
    optimal_response: int
    optimal_principal_utility: Fraction

    def to_json(self, ground: GroundSet) -> dict:
        return {
            "critical_values": [format_rational(a) for a in self.critical_values],
            "table": [
                contract_row(ground, *row)
                for row in zip(self.critical_values, self.responses, self.agent_utilities, self.principal_utilities)
            ],
            "optimal": {
                "alpha": format_rational(self.optimal_alpha),
                "response": ground.labels_of(self.optimal_response),
                "principal_utility": format_rational(self.optimal_principal_utility),
            },
        }


def analyze_contracts(inst: DualModularInstance, dec: DensityDecomposition) -> ContractAnalysis:
    """The best response and both utilities at every critical value, and the optimum.

    The optimum is the first maximum of the principal's utility, so ties
    keep the smaller alpha; with no critical value it is (0, empty set, 0).
    """
    crit = critical_values(dec)
    rows = [contract_at(inst, dec, alpha) for alpha in crit]
    responses, ua, up = (tuple(row[i] for row in rows) for i in range(3))
    optimum = Fraction(0), 0, Fraction(0)
    if crit:
        best = max(range(len(crit)), key=up.__getitem__)
        optimum = crit[best], responses[best], up[best]
    return ContractAnalysis(tuple(crit), responses, ua, up, *optimum)


def two_tier_instance(n_top: int, n_bottom: int) -> DualModularInstance:
    """Family with density vector (2, ..., 2, 1, ..., 1) and an all-or-nothing top tier.

    Reward 2 * n_top for completing the whole top tier, plus 10 * n_top *
    n_bottom for completing everything, and nothing in between; linear cost
    of 1 per top element and 10 * n_top per bottom element.  For any price
    ratio strictly between the two densities, only the full top tier gives
    the agent positive utility; every other nonempty choice is strictly
    negative.  This is the stock example for why approximate densities give
    no meaningful response guarantee.
    """
    if n_top < 1 or n_bottom < 1:
        raise SchemaError("tiers", "tier sizes must be >= 1")
    n = n_top + n_bottom
    labels = tuple(f"s{i + 1}" for i in range(n_top)) + tuple(f"t{i + 1}" for i in range(n_bottom))
    top_mask = (1 << n_top) - 1
    full = (1 << n) - 1
    values = []
    for s in range(1 << n):
        v = Fraction(0)
        if s & top_mask == top_mask:
            v += 2 * n_top
            if s == full:
                v += 10 * n_top * n_bottom
        values.append(v)
    f = ExplicitTable(tuple(values))
    g = Linear(tuple([Fraction(1)] * n_top + [Fraction(10 * n_top)] * n_bottom))
    return DualModularInstance(ground=GroundSet(labels), f=f, g=g)
