"""Seeded instance families for the benchmark.

Everything here is the benchmark's own code: it draws instances from a
seed and writes them as `dualmod` instance files, and it keeps enough of
each instance's make-up (edges, cost, clique layout) for the reference
module to answer every question independently of the program.

Three workloads (sizes are constants below):

* ``dense-k1``: four instances of the tests' ``random_instance`` family at
  n = 10; a draw that is not one part is drawn again.
* ``cliques-multipart``: three instances of disjoint cliques with linear
  costs, n = 10, whose part sizes follow a fixed layout in peel order, so
  the peel sequence (and with it the work) is the same for every seed; and
  three 22-element instances of the same family for ``solve``, above the
  solver's table limit.
* ``small-batch``: 30 instances, three for each n in 4..8 and family.

Each workload also has a twin of its first instance whose cost has a zero
marginal, so ``verify`` must reject it.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from typing import Optional

# solve iteration counts, fixed per workload
SOLVE_T = {"dense-k1": 1000, "cliques-multipart": 70, "small-batch": 200}

DENSE_K1_SIZES = (10, 10, 10, 10)
# part layout in peel order: each part is a list of clique sizes sharing one
# density; the [1, 1] part is two singletons that tie and merge
CLIQUE_LAYOUT = ([1], [1], [1], [2], [1, 1], [3])
CLIQUE_COPIES = 3
CLIQUE_SOLVE_LAYOUT = ([1], [2], [1], [3], [1, 1], [2], [4], [1], [3], [2], [1])
SMALL_SIZES = (4, 5, 6, 7, 8)
SMALL_COPIES = 3


@dataclass
class Instance:
    """One generated instance and its make-up.

    ``edges`` are (u, v, w) with u == v for a loop.  The cost is either
    ``("concave", phi, eta)`` for phi(|S|) + eta * |S| or
    ``("linear", weights)``.  ``cliques`` lists (members, w, loop, c) for
    the clique family and is None otherwise.
    """

    name: str
    n: int
    edges: list
    cost: tuple
    cliques: Optional[list] = None
    labels: tuple = field(init=False)

    def __post_init__(self):
        self.labels = tuple(f"v{i}" for i in range(self.n))

    def to_json(self) -> dict:
        if self.cost[0] == "concave":
            _, phi, eta = self.cost
            g = {
                "kind": "perturbed",
                "base": {"kind": "concave_of_cardinality", "phi": [rational_text(v) for v in phi]},
                "eta": rational_text(eta),
            }
        else:
            g = {"kind": "linear", "weights": [rational_text(w) for w in self.cost[1]]}
        return {
            "labels": list(self.labels),
            "f": {"kind": "edges_inside", "edges": [[u, v, rational_text(w)] for u, v, w in self.edges]},
            "g": g,
            "normalized": False,
        }


def rational_text(x: F) -> str:
    """The "p/q" text form used in instance files."""
    return f"{x.numerator}/{x.denominator}"


def _frac(rng: random.Random, lo=1, hi=40, den=11) -> F:
    return F(rng.randrange(lo, hi), rng.randrange(1, den))


def dense_instance(rng: random.Random, n: int, name: str) -> Instance:
    """The tests' random family: edges with p = 0.6, loops with p = 0.5,
    and a concave-of-cardinality cost with a strict perturbation."""
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                edges.append((u, v, _frac(rng)))
    for u in range(n):
        if rng.random() < 0.5:
            edges.append((u, u, _frac(rng)))
    if not edges:
        edges.append((0, 0, _frac(rng)))
    increments = sorted((_frac(rng) for _ in range(n)), reverse=True)
    phi = [F(0)]
    for d in increments:
        phi.append(phi[-1] + d)
    return Instance(name, n, edges, ("concave", phi, _frac(rng, 1, 10, 13)))


def clique_instance(rng: random.Random, layout, name: str) -> Instance:
    """Disjoint cliques whose part densities fall in the order of ``layout``.

    A clique of size s with edge weight w, loop weight l and per-element
    cost c has density (w (s - 1) / 2 + l) / c.  Each part draws one target
    density (strictly decreasing along the layout); each clique in it draws
    c and the share t of the density carried by its edges, and solves for
    w and l.  Members are placed at shuffled positions.
    """
    n = sum(sum(part) for part in layout)
    densities = set()
    while len(densities) < len(layout):
        densities.add(_frac(rng, 1, 60, 7))
    densities = sorted(densities, reverse=True)
    positions = list(range(n))
    rng.shuffle(positions)
    edges, cliques = [], []
    weights = [F(0)] * n
    at = 0
    for part, rho in zip(layout, densities):
        for s in part:
            members = tuple(sorted(positions[at:at + s]))
            at += s
            c = _frac(rng, 1, 20, 5)
            t = F(rng.randrange(1, 10), 10) if s > 1 else F(0)
            w = rho * c * t * 2 / (s - 1) if s > 1 else F(0)
            loop = rho * c * (1 - t)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    edges.append((u, v, w))
                edges.append((u, u, loop))
                weights[u] = c
            cliques.append((members, w, loop, c))
    return Instance(name, n, edges, ("linear", weights), cliques)


def flat_cost_twin(inst: Instance) -> Instance:
    """The same reward with a cost that is monotone and submodular but has
    a zero marginal, so it is not strictly monotone and not dual-modular.

    Linear cost: the first element's weight becomes 0.  Concave cost: the
    last increment of phi becomes 0 and the perturbation is dropped.
    """
    if inst.cost[0] == "linear":
        weights = list(inst.cost[1])
        weights[0] = F(0)
        cost = ("linear", weights)
    else:
        phi = list(inst.cost[1])
        phi[-1] = phi[-2]
        cost = ("concave", phi, F(0))
    return Instance(inst.name + "-twin", inst.n, list(inst.edges), cost)


@dataclass
class Workload:
    name: str
    instances: list          # verify, decompose, contracts, certify
    twin: Instance           # verify only, expected exit 2
    solve_instances: list    # solve
    solve_T: int


def _rng(workload: str, seed: int, i, attempt: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{i}:{attempt}")


def dense_k1_draw(seed: int, i: int, attempt: int) -> Instance:
    """Draw ``attempt`` of dense-k1 instance i.  The family does not always
    give a single part, so the run tries attempts 0, 1, ... until the
    reference says it does and passes the accepted attempts to ``build``."""
    return dense_instance(_rng("dense-k1", seed, i, attempt), DENSE_K1_SIZES[i], f"dense{i}")


def build(workload: str, seed: int, attempts=None) -> Workload:
    """Draw a workload's instances from ``seed``; each instance has its own
    random stream, so instances do not depend on one another."""
    if workload == "dense-k1":
        attempts = attempts or [0] * len(DENSE_K1_SIZES)
        insts = [dense_k1_draw(seed, i, a) for i, a in enumerate(attempts)]
        return Workload(workload, insts, flat_cost_twin(insts[0]), insts, SOLVE_T[workload])
    if workload == "cliques-multipart":
        insts = [clique_instance(_rng(workload, seed, i), CLIQUE_LAYOUT, f"cliques{i}")
                 for i in range(CLIQUE_COPIES)]
        big = [clique_instance(_rng(workload, seed, f"solve{i}"), CLIQUE_SOLVE_LAYOUT, f"cliques-solve{i}")
               for i in range(CLIQUE_COPIES)]
        return Workload(workload, insts, flat_cost_twin(insts[0]), big, SOLVE_T[workload])
    if workload == "small-batch":
        plan = [(n, fam) for n in SMALL_SIZES for fam in ("dense", "cliques")] * SMALL_COPIES
        _rng(workload, seed, "plan").shuffle(plan)
        insts = []
        for i, (n, fam) in enumerate(plan):
            rng = _rng(workload, seed, i)
            if fam == "dense":
                insts.append(dense_instance(rng, n, f"small{i}"))
            else:
                insts.append(clique_instance(rng, _small_layout(rng, n), f"small{i}"))
        return Workload(workload, insts, flat_cost_twin(insts[0]), insts, SOLVE_T[workload])
    raise ValueError(f"unknown workload {workload!r}")


def _small_layout(rng: random.Random, n: int) -> list:
    sizes = []
    while sum(sizes) < n:
        sizes.append(min(rng.choice((1, 1, 2, 3)), n - sum(sizes)))
    return [[s] for s in sizes]


WORKLOADS = ("dense-k1", "cliques-multipart", "small-batch")


def write(wl: Workload, out_dir: str) -> dict:
    """Write every instance file of the workload; returns name -> path."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for inst in [*wl.instances, wl.twin, *wl.solve_instances]:
        if inst.name in paths:
            continue
        path = os.path.join(out_dir, inst.name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(inst.to_json(), fh)
        paths[inst.name] = path
    return paths
