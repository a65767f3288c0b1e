"""Build instances, verify their structure, and peel the exact decomposition.

Run:  python demos/01_decomposition.py
"""

from fractions import Fraction as F

import dualmod as dm

# A path graph on three vertices: the reward counts edges inside a subset,
# the cost is the number of vertices picked.
p3 = dm.DualModularInstance(
    ground=dm.GroundSet(("1", "2", "3")),
    f=dm.EdgesInside(((0, 1, F(1)), (1, 2, F(1)))),
    g=dm.Linear((F(1), F(1), F(1))),
)

report = dm.verify_dual_modularity(p3)
print("path graph is dual-modular:", report.dual_modular)

dec = dm.density_decomposition(p3)
print("parts:", [p3.ground.labels_of(p) for p in dec.parts])
print("densities:", dec.densities)
print()

# A triangle plus an isolated vertex separates into two parts: the triangle
# carries all the reward, the stray vertex none.
tri = dm.DualModularInstance(
    ground=dm.GroundSet(("1", "2", "3", "4")),
    f=dm.Scaled(dm.EdgesInside(((0, 1, F(1)), (1, 2, F(1)), (0, 2, F(1)))), F(3)),
    g=dm.Linear((F(1),) * 4),
)
dec = dm.density_decomposition(tri)
print("triangle + isolated vertex")
for part, rho in zip(dec.parts, dec.densities):
    print(f"  part {tri.ground.labels_of(part)} at density {rho}")

# The decomposition is recursive: peeling the densest part and re-running on
# the residual instance reproduces the tail.
res = dm.residual_instance(tri, dec.parts[0])
print("residual ground set:", res.ground.labels)
print("residual decomposition:", dm.density_decomposition(res).densities)
print()

# A cost function that is monotone but not strictly so breaks density
# induction; an arbitrarily small per-element perturbation repairs it.
labels = ("a", "w", "b")
flat = dm.DualModularInstance(
    ground=dm.GroundSet(labels),
    f=dm.ExplicitTable((F(0), F(1), F(0), F(1), F(0), F(1), F(1), F(2))),
    g=dm.ExplicitTable((F(0), F(1), F(1), F(1), F(2), F(3), F(3), F(3))),
)
report = dm.verify_dual_modularity(flat)
a, b = report.witnesses["g_strictly_monotone"]
print("strict monotonicity fails:", flat.ground.labels_of(a), "vs", flat.ground.labels_of(b))

repaired = dm.DualModularInstance(
    ground=flat.ground, f=flat.f, g=dm.Perturbed(flat.g, F(1, 1000))
)
print("after +|S|/1000:", dm.verify_dual_modularity(repaired).dual_modular)
print("repaired density vector:", dm.density_decomposition(repaired).rho_star)
