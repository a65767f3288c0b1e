"""Iterative approximation of the density vector.

Two variants of the same abstract scheme: at every step a permutation is
chosen, its pair of marginal vertex vectors is mixed into the current
allocation pair with a diminishing step, and the induced densities drive
the next choice.

* Frank-Wolfe: step 2/(k+2); the permutation sorts elements by current
  density, non-increasing.  This single sorting oracle is the exact
  gradient oracle for *every* convex generator, which is what makes the
  method universal across divergence choices.
* Greedy++: step 1/(k+1); requires a linear cost and builds the
  permutation back to front by repeatedly extracting the element with the
  smallest blended score.

A run is sequential; traces are immutable once returned.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional, Sequence

from .divergence import QUADRATIC, DivergenceKind, HockeyStick
from .errors import (
    DomainError,
    NotLinearCost,
    SchemaError,
    StructuralError,
    ZeroCostCoordinate,
)
from .instance import (
    ConcaveOfCardinality,
    DualModularInstance,
    Linear,
    Perturbed,
    Scaled,
    SetFunctionSpec,
    extremes,
)
from .permutation import Allocation, Permutation, sort_by_density, vertex
from .rational import format_rational

_TABLE_LIMIT = 20  # above this, marginals are evaluated directly per call


@dataclass(frozen=True)
class SolverConfig:
    iterations: int
    variant: str = "fw"  # "fw" | "greedypp"
    kind: DivergenceKind = QUADRATIC  # reporting and bounds only; oracle is universal
    initial_permutation: Optional[Permutation] = None
    arithmetic: str = "binary64"  # "binary64" | "rational"
    stride: int = 10

    def __post_init__(self):
        if self.iterations < 1:
            raise SchemaError("iterations", "need at least one iteration")
        if self.variant not in ("fw", "greedypp"):
            raise SchemaError("variant", f"unknown variant {self.variant!r}")
        if self.arithmetic not in ("binary64", "rational"):
            raise SchemaError("arithmetic", f"unknown arithmetic {self.arithmetic!r}")
        if self.stride < 1:
            raise SchemaError("stride", "stride must be >= 1")


@dataclass(frozen=True)
class TraceRow:
    k: int
    phi_quadratic: object
    phi_kl: Optional[float]
    phi_eg: Optional[float]
    sigma: Permutation
    rho: Optional[tuple] = None
    allocation: Optional[tuple] = None  # (x, y) snapshot


@dataclass(frozen=True)
class SolverTrace:
    variant: str
    arithmetic: str
    iterations: int
    labels: tuple[str, ...]
    rows: tuple[TraceRow, ...]
    final_x: tuple
    final_y: tuple
    final_rho: tuple

    def final_allocation(self) -> Allocation:
        return Allocation(x=self.final_x, y=self.final_y)

    def to_json(self) -> dict:
        def num(v):
            if v is None:
                return None
            if isinstance(v, Fraction):
                return format_rational(v)
            return float(v)

        return {
            "variant": self.variant,
            "arithmetic": self.arithmetic,
            "iterations": self.iterations,
            "rows": [
                {
                    "k": r.k,
                    "phi_quadratic": num(r.phi_quadratic),
                    "phi_kl": num(r.phi_kl),
                    "phi_eg": num(r.phi_eg),
                    "rho": None
                    if r.rho is None
                    else {lab: num(v) for lab, v in zip(self.labels, r.rho)},
                }
                for r in self.rows
            ],
            "final_rho": {lab: num(v) for lab, v in zip(self.labels, self.final_rho)},
        }

    def to_csv(self, path, include_densities: bool = True) -> None:
        header = ["k", "phi_quadratic", "phi_kl", "phi_eg"]
        if include_densities:
            header += [f"rho_{lab}" for lab in self.labels]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in self.rows:
                row = [r.k]
                for v in (r.phi_quadratic, r.phi_kl, r.phi_eg):
                    row.append("" if v is None else float(v))
                if include_densities:
                    if r.rho is None:
                        row += [""] * len(self.labels)
                    else:
                        row += [float(v) for v in r.rho]
                writer.writerow(row)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def gradient_oracle(inst: DualModularInstance, rho: Sequence) -> Permutation:
    """Sort by induced density, non-increasing; ties by ascending index.

    The same permutation minimises the directional derivative of the
    objective no matter which convex generator is in play, so the oracle
    takes no divergence argument.
    """
    if len(rho) != inst.n:
        raise SchemaError("rho", "density vector length does not match the ground set")
    return sort_by_density(rho)


def partial_derivative(
    inst: DualModularInstance, rho: Sequence, sigma: Permutation, kind: DivergenceKind
):
    """Directional derivative of the objective toward the pure permutation.

    sum_v f^sigma_v * theta'(rho_v)  +  sum_v g^sigma_v * (theta - t theta')(rho_v).
    Exact for the quadratic generator on rational densities.
    """
    fv = vertex(inst.f, sigma)
    gv = vertex(inst.g, sigma)
    total = None
    for u in range(inst.n):
        term = fv[u] * kind.theta_prime(rho[u]) + gv[u] * kind.zeta(rho[u])
        total = term if total is None else total + term
    return total


# ---------------------------------------------------------------------------
# shared iteration machinery
# ---------------------------------------------------------------------------


class _Tables:
    """Value tables for fast prefix-marginal walks, float or exact."""

    def __init__(self, inst: DualModularInstance, as_float: bool):
        self.n = inst.n
        self.as_float = as_float
        if inst.n <= _TABLE_LIMIT:
            ftab = inst.f.table(inst.n)
            gtab = inst.g.table(inst.n)
            if as_float:
                ftab = [float(v) for v in ftab]
                gtab = [float(v) for v in gtab]
            self._f = ftab
            self._g = gtab
            self._inst = None
        else:
            self._f = None
            self._g = None
            self._inst = inst

    def f_at(self, mask: int):
        if self._f is not None:
            return self._f[mask]
        v = self._inst.f.value(mask)
        return float(v) if self.as_float else v

    def g_at(self, mask: int):
        if self._g is not None:
            return self._g[mask]
        v = self._inst.g.value(mask)
        return float(v) if self.as_float else v

    def vertices(self, sigma: Permutation):
        fx = [0] * self.n
        gx = [0] * self.n
        prefix = 0
        fprev = self.f_at(0)
        gprev = self.g_at(0)
        for u in sigma.order:
            prefix |= 1 << u
            fcur = self.f_at(prefix)
            gcur = self.g_at(prefix)
            fx[u] = fcur - fprev
            gx[u] = gcur - gprev
            fprev, gprev = fcur, gcur
        return fx, gx


def _densities(x, y, labels):
    rho = []
    for u, (xu, yu) in enumerate(zip(x, y)):
        if yu == 0:
            raise ZeroCostCoordinate(u, labels[u])
        rho.append(xu / yu)
    return rho


def _phi_values(x, y):
    """(quadratic, kl, eg) objective values at the current pair, None off-domain."""
    quad = None
    kl = 0.0
    eg = 0.0
    for xu, yu in zip(x, y):
        if yu == 0:
            return None, None, None
        t = xu / yu
        q = yu * t * t
        quad = q if quad is None else quad + q
        ft = float(t)
        if ft > 0:
            if kl is not None:
                kl += float(yu) * ft * math.log(ft)
            if eg is not None:
                eg -= float(yu) * math.log(ft)
        elif ft == 0:
            eg = None  # -log 0
        else:
            kl = None
            eg = None
    return quad, kl, eg


def _run(inst: DualModularInstance, cfg: SolverConfig, pick_sigma) -> SolverTrace:
    as_float = cfg.arithmetic == "binary64"
    tables = _Tables(inst, as_float)
    labels = inst.ground.labels
    sigma0 = cfg.initial_permutation or Permutation.identity(inst.n)
    if sigma0.n != inst.n:
        raise SchemaError("initial_permutation", "length does not match the ground set")
    x, y = tables.vertices(sigma0)

    rows = []
    for k in range(cfg.iterations):
        rho = _densities(x, y, labels)
        sigma = pick_sigma(k, x, rho, tables)
        snapshot = k % cfg.stride == 0 or k == cfg.iterations - 1
        quad, kl, eg = _phi_values(x, y)
        rows.append(
            TraceRow(
                k=k,
                phi_quadratic=quad,
                phi_kl=kl,
                phi_eg=eg,
                sigma=sigma,
                rho=tuple(rho) if snapshot else None,
                allocation=(tuple(x), tuple(y)) if snapshot else None,
            )
        )
        c, d = tables.vertices(sigma)
        if cfg.variant == "greedypp":
            gamma = 1.0 / (k + 1) if as_float else Fraction(1, k + 1)
        else:
            gamma = 2.0 / (k + 2) if as_float else Fraction(2, k + 2)
        keep = 1 - gamma
        x = [keep * xu + gamma * cu for xu, cu in zip(x, c)]
        y = [keep * yu + gamma * du for yu, du in zip(y, d)]

    final_rho = tuple(_densities(x, y, labels))
    return SolverTrace(
        variant=cfg.variant,
        arithmetic=cfg.arithmetic,
        iterations=cfg.iterations,
        labels=labels,
        rows=tuple(rows),
        final_x=tuple(x),
        final_y=tuple(y),
        final_rho=final_rho,
    )


def frank_wolfe(inst: DualModularInstance, cfg: SolverConfig) -> SolverTrace:
    """Run the density-sorting iteration for cfg.iterations steps."""
    if cfg.variant != "fw":
        cfg = replace(cfg, variant="fw")

    def pick(k, x, rho, tables):
        return sort_by_density(rho)

    return _run(inst, cfg, pick)


def as_linear_weights(spec: SetFunctionSpec, n: int) -> Optional[list[Fraction]]:
    """Effective per-element weights when the spec is linear, else None."""
    if isinstance(spec, Linear):
        return list(spec.weights)
    if isinstance(spec, Scaled):
        base = as_linear_weights(spec.base, n)
        return None if base is None else [spec.factor * w for w in base]
    if isinstance(spec, Perturbed):
        base = as_linear_weights(spec.base, n)
        return None if base is None else [w + spec.eta for w in base]
    if isinstance(spec, ConcaveOfCardinality):
        incs = {b - a for a, b in zip(spec.phi, spec.phi[1:])}
        if len(incs) == 1:
            return [next(iter(incs))] * n
    return None


def greedy_plus_plus(inst: DualModularInstance, cfg: SolverConfig) -> SolverTrace:
    """Greedy++ iteration; the cost function must be linear."""
    weights = as_linear_weights(inst.g, inst.n)
    if weights is None:
        raise NotLinearCost()
    if cfg.variant != "greedypp":
        cfg = replace(cfg, variant="greedypp")

    def pick(k, x, rho, tables):
        gamma = 1.0 / (k + 1) if cfg.arithmetic == "binary64" else Fraction(1, k + 1)
        keep = 1 - gamma
        remaining = inst.ground.full_mask
        order_rev = []
        f_rem = tables.f_at(remaining)
        while remaining:
            best_u = None
            best_score = None
            m = remaining
            while m:
                u = (m & -m).bit_length() - 1
                m &= m - 1
                score = keep * x[u] + gamma * (f_rem - tables.f_at(remaining ^ (1 << u)))
                if best_score is None or score < best_score:
                    best_score = score
                    best_u = u
            order_rev.append(best_u)
            remaining ^= 1 << best_u
            f_rem = tables.f_at(remaining)
        return Permutation(tuple(reversed(order_rev)))

    return _run(inst, cfg, pick)


def solve(inst: DualModularInstance, cfg: SolverConfig) -> SolverTrace:
    if cfg.variant == "greedypp":
        return greedy_plus_plus(inst, cfg)
    return frank_wolfe(inst, cfg)


# ---------------------------------------------------------------------------
# a-priori error bounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBounds:
    kind: str
    iterations: int
    f_min: Fraction
    g_min: Fraction
    hessian_upper: object        # spectral-norm upper bound for the Hessian
    curvature_upper: object      # squared diameter (= 4) times hessian_upper
    objective_gap_upper: object  # 2 * curvature_upper / (T + 2)
    absolute_density_upper: float
    multiplicative_density_upper: Optional[float]
    scaling: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def num(v):
            if isinstance(v, Fraction):
                return format_rational(v)
            return v if v is None else float(v)

        return {
            "kind": self.kind,
            "iterations": self.iterations,
            "f_min": format_rational(self.f_min),
            "g_min": format_rational(self.g_min),
            "hessian_upper": num(self.hessian_upper),
            "curvature_upper": num(self.curvature_upper),
            "objective_gap_upper": num(self.objective_gap_upper),
            "absolute_density_upper": self.absolute_density_upper,
            "multiplicative_density_upper": self.multiplicative_density_upper,
            "scaling": self.scaling,
        }


def error_bounds(inst: DualModularInstance, kind: DivergenceKind, T: int) -> ErrorBounds:
    """Explicit constants of the convergence chain for a normalized instance.

    Squared diameter of the product of bases is at most 2 (f(V)^2 + g(V)^2)
    = 4; multiplying by a spectral-norm bound on the objective Hessian gives
    the curvature constant, the 2/(T+2) step schedule turns that into an
    objective gap, and strong-convexity-along-segments lower bounds invert
    the gap into density error.  All single-element marginal bounds use
    f_max = g_max = 1, valid after normalization.
    """
    if isinstance(kind, HockeyStick):
        raise DomainError("no curvature chain for the hockey-stick generator (not smooth)")
    full = inst.ground.full_mask
    if inst.f.value(full) != 1 or inst.g.value(full) != 1:
        raise StructuralError("error bounds require a normalized instance (f(V) = g(V) = 1)")
    if T < 1:
        raise SchemaError("T", "need at least one iteration")
    ext = extremes(inst)
    f_min, g_min = ext.f_min, ext.g_min
    if g_min <= 0:
        raise StructuralError("g_min = 0: the cost function is not strictly monotone")

    inf = math.inf
    if kind.name == "quadratic":
        hessian = 4 / g_min**3
        scaling = {
            "absolute": {"g_min": -2.5, "T_plus_2": -0.5},
            "multiplicative": {"f_min": -1.0, "g_min": -2.5, "T_plus_2": -0.5},
        }
    elif kind.name == "kl":
        hessian = 1 / g_min**2 + 1 / f_min if f_min > 0 else inf
        scaling = {
            "absolute": {"f_min": -0.5, "g_min": -1.0, "hessian_upper": 0.5, "T_plus_2": -0.5},
            "multiplicative": {"f_min": -1.5, "g_min": -1.0, "hessian_upper": 0.5, "T_plus_2": -0.5},
        }
    elif kind.name == "eg":
        hessian = 1 / g_min + 1 / f_min**2 if f_min > 0 else inf
        scaling = {
            "absolute": {"g_min": -1.5, "hessian_upper": 0.5, "T_plus_2": -0.5},
            "multiplicative": {"f_min": -1.0, "g_min": -1.5, "hessian_upper": 0.5, "T_plus_2": -0.5},
        }
    else:
        raise DomainError(f"no curvature chain for kind {kind.name!r}")

    curvature = 4 * hessian
    gap = 2 * curvature / (T + 2) if curvature != inf else inf

    if gap == inf:
        absolute = inf
    elif kind.name == "quadratic":
        absolute = math.sqrt(float(gap / g_min**2))
    elif kind.name == "kl":
        absolute = math.sqrt(float(2 * gap / (f_min * g_min**2)))
    else:
        absolute = math.sqrt(float(2 * gap / g_min**3))

    if f_min <= 0:
        warnings.warn(
            "f_min = 0: some element has zero worst-case reward share, so the "
            "multiplicative density bound is unavailable",
            stacklevel=2,
        )
        multiplicative = None
    elif gap == inf:
        multiplicative = inf
    elif kind.name == "quadratic":
        multiplicative = math.sqrt(float(gap / (f_min * g_min) ** 2))
    elif kind.name == "kl":
        multiplicative = math.sqrt(float(2 * gap / (f_min**3 * g_min**2)))
    else:
        multiplicative = math.sqrt(float(2 * gap / (f_min**2 * g_min**3)))

    return ErrorBounds(
        kind=kind.name,
        iterations=T,
        f_min=f_min,
        g_min=g_min,
        hessian_upper=hessian,
        curvature_upper=curvature,
        objective_gap_upper=gap,
        absolute_density_upper=absolute,
        multiplicative_density_upper=multiplicative,
        scaling=scaling,
    )
