"""Best responses, critical values, and the optimal contract.

Run:  python demos/04_contracts.py
"""

from fractions import Fraction as F

import dualmod as dm

tri = dm.DualModularInstance(
    ground=dm.GroundSet(("1", "2", "3", "4")),
    f=dm.Scaled(dm.EdgesInside(((0, 1, F(1)), (1, 2, F(1)), (0, 2, F(1)))), F(3)),
    g=dm.Linear((F(1),) * 4),
)
dec = dm.density_decomposition(tri)
print("densities:", dec.densities)

# As the agent's share alpha grows, the response climbs the prefix chain.
for alpha in (F(0), F(1, 4), F(1, 3), F(1, 2), F(1)):
    mask, agent, _ = dm.contract_at(tri, dec, alpha)
    print(f"alpha = {alpha!s:>4}: response {tri.ground.labels_of(mask)}, "
          f"agent utility {agent}")

analysis = dm.analyze_contracts(tri, dec)
print("critical values:", analysis.critical_values)
print("optimal contract: alpha =", analysis.optimal_alpha,
      "response =", tri.ground.labels_of(analysis.optimal_response),
      "principal utility =", analysis.optimal_principal_utility)
print()

# The response problem is dual to a hockey-stick evaluation: no subset beats
# the divergence of a feasible allocation, and the gap closes at a fair one.
fair = dm.Allocation(x=(F(3), F(3), F(3), F(0)), y=(F(1), F(1), F(1), F(1)))
gamma = F(3, 2)
print("duality gap at the fair allocation:", dm.duality_gap(tri, 0b0111, fair, gamma))
sup, argmax = dm.hockey_stick_sup_form(fair.x, fair.y, gamma)
print("subset form:", sup, "attained by", tri.ground.labels_of(argmax))
print()

# A two-tier family shows why approximate densities are not enough for
# contracts: between the two densities everything except the exact top tier
# is strictly unprofitable.
# The tables are integers over one denominator each: f(S) = F[S] / Df and
# g(S) = G[S] / Dg, so f(S) - gamma g(S) has the sign of F[S] Dg - gamma G[S] Df.
inst = dm.two_tier_instance(3, 2)
(ftab, df), (gtab, dg) = inst.tables()
top = 0b111
gamma = F(3, 2)
profitable = [s for s in range(1, 1 << inst.n) if ftab[s] * dg - gamma * gtab[s] * df > 0]
print("profitable subsets at gamma = 3/2:", [inst.ground.labels_of(s) for s in profitable])
assert profitable == [top]
