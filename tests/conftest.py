import os
from fractions import Fraction as F

import numpy as np
import pytest

import dualmod as dm

FIXTURES = os.path.join(os.path.dirname(dm.__file__), "fixtures")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, f"{name}.json")


@pytest.fixture(scope="session")
def sec32():
    return dm.load_instance(fixture_path("sec32"))


@pytest.fixture(scope="session")
def p3():
    return dm.load_instance(fixture_path("p3"))


@pytest.fixture(scope="session")
def tri_iso():
    return dm.load_instance(fixture_path("tri_iso"))


@pytest.fixture(scope="session")
def hardness():
    return dm.load_instance(fixture_path("hardness"))


def mask_of(ground, elements) -> int:
    """Mask from an iterable of labels or element indices."""
    mask = 0
    for e in elements:
        mask |= 1 << ground.element(e)
    return mask


def fraction_value(spec, mask):
    """The spec's value in Fractions from its raw inputs, without the integer layer."""
    if isinstance(spec, dm.ExplicitTable):
        return spec.values[mask]
    if isinstance(spec, dm.ConcaveOfCardinality):
        return spec.phi[mask.bit_count()]
    if isinstance(spec, dm.Marginal):
        expanded = spec.anchor | sum(1 << u for i, u in enumerate(spec.index_map) if mask >> i & 1)
        return fraction_value(spec.base, expanded) - fraction_value(spec.base, spec.anchor)
    if isinstance(spec, dm.EdgesInside):
        return sum((w for u, v, w in spec.edges if mask >> u & 1 and mask >> v & 1), F(0))
    if isinstance(spec, dm.Linear):
        return sum((w for i, w in enumerate(spec.weights) if mask >> i & 1), F(0))
    if isinstance(spec, dm.Scaled):
        return spec.factor * fraction_value(spec.base, mask)
    if isinstance(spec, dm.Perturbed):
        return fraction_value(spec.base, mask) + spec.eta * mask.bit_count()
    if isinstance(spec, dm.ComplementOf):
        full = (1 << spec.n) - 1
        return fraction_value(spec.base, full) - fraction_value(spec.base, full ^ mask)
    raise TypeError(f"no Fraction oracle for {type(spec).__name__}")


def value_tables(inst):
    """f and g on every mask as Fractions, one ``fraction_value`` each.

    The oracles read these rather than ``inst.tables()`` or ``value``, so
    they stay independent of the integer value layer under test.
    """
    masks = range(1 << inst.n)
    return [fraction_value(inst.f, s) for s in masks], [fraction_value(inst.g, s) for s in masks]


# ---------------------------------------------------------------------------
# random instance generation
#
# Rewards are edge-counting functions (pair terms supermodular, loop terms a
# linear lift); costs are concave-of-cardinality plus a strict per-element
# perturbation.  Both families are dual-modular by construction, which the
# structural tests double-check by brute force.  Denominators are drawn wide
# so density ties essentially never happen unless forced.
# ---------------------------------------------------------------------------


def rand_frac(rng, lo=1, hi=40, den=11) -> F:
    return F(int(rng.integers(lo, hi)), int(rng.integers(1, den)))


def random_instance(rng, n: int, strict_f: bool = False) -> dm.DualModularInstance:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.6:
                edges.append((u, v, rand_frac(rng)))
    for u in range(n):
        if strict_f or rng.random() < 0.5:
            edges.append((u, u, rand_frac(rng)))
    if not edges:
        edges.append((0, 0, rand_frac(rng)))
    f = dm.EdgesInside(tuple(edges))
    increments = sorted((rand_frac(rng) for _ in range(n)), reverse=True)
    phi = [F(0)]
    for d in increments:
        phi.append(phi[-1] + d)
    g = dm.Perturbed(dm.ConcaveOfCardinality(tuple(phi)), rand_frac(rng, 1, 10, 13))
    ground = dm.GroundSet(tuple(f"v{i}" for i in range(n)))
    return dm.DualModularInstance(ground=ground, f=f, g=g)


def random_n(rng, lo=2, hi=8, small_bias=True) -> int:
    if small_bias and rng.random() < 0.85:
        return int(rng.integers(lo, min(hi, 6) + 1))
    return int(rng.integers(lo, hi + 1))


def consistent_permutation(rng, dec: dm.DensityDecomposition) -> dm.Permutation:
    """Random permutation listing decomposition parts in order."""
    order = []
    for part in dec.parts:
        elems = [u for u in range(dec.n) if part >> u & 1]
        rng.shuffle(elems)
        order.extend(elems)
    return dm.Permutation(tuple(order))


def random_weights(rng, k: int) -> list[F]:
    raw = [F(int(rng.integers(1, 10))) for _ in range(k)]
    total = sum(raw)
    return [w / total for w in raw]


def random_consistent_allocation(rng, inst, dec, n_perms=3) -> dm.Allocation:
    """Mixture of decomposition-order-consistent permutations."""
    k = int(rng.integers(1, n_perms + 1))
    p = dm.WeightedPermutationList(
        tuple(zip((consistent_permutation(rng, dec) for _ in range(k)), random_weights(rng, k)))
    )
    q = dm.WeightedPermutationList(
        tuple(zip((consistent_permutation(rng, dec) for _ in range(k)), random_weights(rng, k)))
    )
    return dm.allocation_from_mixture(inst, p, q)


def random_allocation(rng, inst, n_perms=3) -> dm.Allocation:
    """Mixture of arbitrary permutations; feasible but usually unfair."""
    n = inst.n
    k = int(rng.integers(1, n_perms + 1))

    def rand_perm():
        order = list(range(n))
        rng.shuffle(order)
        return dm.Permutation(tuple(order))

    p = dm.WeightedPermutationList(
        tuple(zip((rand_perm() for _ in range(k)), random_weights(rng, k)))
    )
    q = dm.WeightedPermutationList(
        tuple(zip((rand_perm() for _ in range(k)), random_weights(rng, k)))
    )
    return dm.allocation_from_mixture(inst, p, q)


def fd_hessian_max_eig(kind, x, y, h=1e-4) -> float:
    """Largest eigenvalue of the finite-difference Hessian of the objective.

    The objective is treated as a plain function of the 2n stacked
    coordinates (x, y); central second differences, symmetrised.
    """
    z0 = np.array([float(v) for v in x] + [float(v) for v in y])
    m = len(z0)

    def phi(z):
        n = m // 2
        return float(dm.divergence(kind, list(z[:n]), list(z[n:])))

    hess = np.zeros((m, m))
    f0 = phi(z0)
    for i in range(m):
        zp = z0.copy()
        zm = z0.copy()
        zp[i] += h
        zm[i] -= h
        hess[i, i] = (phi(zp) - 2 * f0 + phi(zm)) / h**2
        for j in range(i + 1, m):
            zpp = z0.copy()
            zpm = z0.copy()
            zmp = z0.copy()
            zmm = z0.copy()
            zpp[i] += h
            zpp[j] += h
            zpm[i] += h
            zpm[j] -= h
            zmp[i] -= h
            zmp[j] += h
            zmm[i] -= h
            zmm[j] -= h
            val = (phi(zpp) - phi(zpm) - phi(zmp) + phi(zmm)) / (4 * h**2)
            hess[i, j] = hess[j, i] = val
    return float(np.linalg.eigvalsh(hess).max())


def hessian_closed_form_max(kind_name: str, x, y) -> float:
    """Exact spectral norm of the objective Hessian, per generator."""
    xs = [float(v) for v in x]
    ys = [float(v) for v in y]
    if kind_name == "quadratic":
        return max(2 * (a * a + b * b) / b**3 for a, b in zip(xs, ys))
    if kind_name == "kl":
        return max(1 / a + a / b**2 for a, b in zip(xs, ys))
    if kind_name == "eg":
        return max(1 / b + b / a**2 for a, b in zip(xs, ys))
    raise ValueError(kind_name)


class InstancePool:
    def __init__(self, pool, build_seconds):
        self.pool = pool
        self.build_seconds = build_seconds

    def __iter__(self):
        return iter(self.pool)

    def __len__(self):
        return len(self.pool)


@pytest.fixture(scope="session")
def decomposition_pool():
    """Shared pool of verified random instances with their decompositions.

    Session-scoped because both the decomposition-oracle and the fairness
    acceptance criteria run over the same 500 instances.  Build time is
    recorded so the consuming tests can count it against their budgets.
    """
    import time

    started = time.perf_counter()
    rng = np.random.default_rng(20250801)
    pool = []
    for _ in range(500):
        n = random_n(rng)
        inst = random_instance(rng, n)
        report = dm.verify_dual_modularity(inst, max_n=8)
        assert report.dual_modular
        pool.append((inst, dm.density_decomposition(inst)))
    return InstancePool(pool, time.perf_counter() - started)
