"""Iterative approximation of the density vector, with a-priori error bounds.

Run:  python demos/03_solver_convergence.py
"""

import math
import os
import sys
import tempfile
from fractions import Fraction as F

import dualmod as dm


def l2(a, b):
    return math.sqrt(sum((float(p) - float(q)) ** 2 for p, q in zip(a, b)))


tri = dm.DualModularInstance(
    ground=dm.GroundSet(("1", "2", "3", "4")),
    f=dm.Scaled(dm.EdgesInside(((0, 1, F(1)), (1, 2, F(1)), (0, 2, F(1)))), F(3)),
    g=dm.Linear((F(1),) * 4),
)
inst = dm.normalize(tri)
dec = dm.density_decomposition(inst)
optimum = dm.optimal_objective(dec, inst, dm.QUADRATIC)

print("exact density vector:", tuple(float(r) for r in dec.rho_star))
print(f"{'T':>6} {'density err':>12} {'obj gap':>12} {'gap bound':>12} {'density bound':>14}")
for T in (10, 100, 1000, 10000):
    trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=T))
    bounds = dm.error_bounds(inst, dm.QUADRATIC, T)
    # f_min = 0 leaves no multiplicative bound at any T; say so once
    if T == 10 and bounds.multiplicative_density_upper is None:
        print(
            "note: f_min = 0: some element has zero worst-case reward share, "
            "so the multiplicative density bound is unavailable",
            file=sys.stderr,
        )
    phi = dm.divergence(dm.QUADRATIC, trace.final_x, trace.final_y)
    print(
        f"{T:>6} {l2(trace.final_rho, dec.rho_star):>12.2e} "
        f"{float(phi) - float(optimum):>12.2e} "
        f"{float(bounds.objective_gap_upper):>12.2e} "
        f"{bounds.absolute_density_upper:>14.2e}"
    )

# The sorting oracle is the same whatever convex generator defines the
# objective, so one run serves every divergence report.
trace = dm.frank_wolfe(inst, dm.SolverConfig(iterations=500, stride=100))
for row in trace.rows:
    if row.rho is not None:
        print(f"k={row.k:>4}  phi_quadratic={float(row.phi_quadratic):.6f}  "
              f"rho={tuple(round(float(v), 4) for v in row.rho)}")

# With a linear cost the back-to-front greedy variant applies as well.
gpp = dm.solve(inst, dm.SolverConfig(iterations=2000, variant="greedypp"))
print("greedy++ final density error:", l2(gpp.final_rho, dec.rho_star))

# Traces export to CSV for plotting elsewhere.
csv_path = os.path.join(tempfile.gettempdir(), "tri_iso_trace.csv")
trace.to_csv(csv_path)
print("wrote", csv_path)
