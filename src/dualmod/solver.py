"""Iterative approximation of the density vector.

Two variants of the same abstract scheme: at every step a permutation is
chosen, its pair of marginal vertex vectors is mixed into the current
allocation pair with a diminishing step, and the induced densities drive
the next choice.

* Frank-Wolfe: step 2/(k+2); the permutation sorts elements by current
  density, non-increasing.  This single sorting oracle is the exact
  gradient oracle for *every* convex generator, which is what makes the
  method universal across divergence choices.
* Greedy++: step 1/(k+1); requires a linear cost, one the cost's spec
  proves both super- and submodular, and builds the permutation back to
  front by repeatedly extracting the element with the smallest blended
  score.

A run evaluates f and g only at the masks it visits, so the ground set
has no size limit here.  The prefixes of a chosen permutation are filled
together: the first order with an unstored prefix is walked once, in exact
integers, and all its n + 1 values are stored.  Each step mixes the
differences of the stored prefixes straight into the new iterate.  A
function of |S| alone has the same marginal at position i of every order,
so it is walked once per run.  Where T steps could visit every mask,
2^n <= (T + 1)(n + 1), a run converts the whole integer tables of f and g,
built by doubling, into two lists indexed by mask after the first walks,
and each step is then one pass over its order that reads both lists and
writes the new iterate and its densities.  In binary64 a run walks as
above where a first walk or a table value is past the memo's resolution
bounds.
Greedy++ scores its one-element removals from f's integer marginal vector
at the remaining set: read once at V per step, then updated after each
removal, on the removed element's neighbours for an edge reward and by one
O(n + m) ``marginal_vector`` call for any other kind.  Those scores store
nothing, so each step converts its n(n + 1)/2 removal values afresh.

Both variants run as one step loop.  ``solve`` keeps one ``TraceRow`` per
step, with the objective under three generators and, every ``stride``
steps, a snapshot of the densities and the iterate: memory O(T n).
``final_iterate`` runs the same steps to the same final iterate and keeps
no per-iteration trace.  ``frank_wolfe`` is ``solve`` with the Frank-Wolfe
variant whatever ``cfg.variant`` says; the benchmark harness calls it.

A run is sequential; traces are immutable once returned.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence

from .divergence import QUADRATIC, DivergenceKind, HockeyStick
from .errors import DomainError, NotLinearCost, SchemaError, StructuralError
from .instance import DualModularInstance, extremes
from .kinds import EdgesInside, SetFunctionSpec
from .permutation import Permutation, check_order, density_ratios, marginals, vertex
from .rational import format_rational


@dataclass(frozen=True)
class SolverConfig:
    iterations: int
    variant: str = "fw"  # "fw" | "greedypp"
    kind: DivergenceKind = QUADRATIC  # not read: the sorting oracle serves every kind
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
    """One iteration: the objective at the iterate under three generators, the
    permutation chosen, and at snapshot rows the densities and allocation.

    ``phi_quadratic`` is exact in rational mode, and in binary64 None where
    the sum exceeds the binary64 range.  ``phi_kl`` and ``phi_eg`` are
    binary64 values, None where the generator is off its domain (a density
    <= 0) or where binary64 cannot carry the value or one of its densities
    or shares.
    """

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
    iterations: int
    labels: tuple[str, ...]
    rows: tuple[TraceRow, ...]
    final_x: tuple
    final_y: tuple
    final_rho: tuple

    def to_csv(self, path) -> None:
        header = ["k", "phi_quadratic", "phi_kl", "phi_eg"] + [f"rho_{lab}" for lab in self.labels]
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for r in self.rows:
                # "p/q" for a Fraction, a float, or None (an empty field)
                rho = [None] * len(self.labels) if r.rho is None else r.rho
                writer.writerow([r.k, *map(_num, (r.phi_quadratic, r.phi_kl, r.phi_eg, *rho))])


def _num(v):
    """Export form of a trace or bound value: "p/q" for a Fraction, else a float or None."""
    if v is None:
        return None
    if isinstance(v, Fraction):
        return format_rational(v)
    return float(v)


# ---------------------------------------------------------------------------
# the directional derivative the sorting oracle minimises
# ---------------------------------------------------------------------------


def partial_derivative(
    inst: DualModularInstance, rho: Sequence, sigma: Permutation, kind: DivergenceKind
):
    """Directional derivative of the objective toward the pure permutation.

    sum_v f^sigma_v * theta'(rho_v)  +  sum_v g^sigma_v * (theta - t theta')(rho_v).
    Exact for the quadratic generator on rational densities.
    """
    check_order(sigma, inst.n)
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


# the bounds of _Memo's resolution gate (see its docstring)
_INT_BOUND = 2**52
_DEN_BOUND = 2**1022


def _past_resolution(ints, den) -> bool:
    """Whether some value ints[i] / den is outside the bounds of _Memo's resolution gate."""
    return den > _DEN_BOUND or max(ints) >= _INT_BOUND or min(ints) <= -_INT_BOUND


class _Memo(dict):
    """One set function at the masks a run visits, each evaluated once.

    ``mix(order, x, keep, gamma)`` is the step ``keep * x + gamma * c``, c
    the marginal vector of order, written straight into a new iterate from
    the stored prefixes.  The first time a prefix of order is not stored,
    ``_walk`` makes one ``spec.prefixes`` walk, which converts and stores
    all n + 1 values and takes c in the same pass; the run's first iterate
    is such a walk.  ``whole_table(n)`` converts all 2^n values of one
    ``spec.table(n)`` into a list indexed by mask, as a walk converts them;
    the run steps over two such lists in place of ``mix`` where 2^n is at
    most the (T + 1)(n + 1) values its walks could store, and the memo keeps
    its first walk's n + 1 values.
    A size-only function (``spec._size_only``) has the same marginal at
    position i of every order, so where a run walks, it walks that function
    once, and every later order reads that walk's marginals by position.
    ``top`` is the last walk's integer h(V), where Greedy++'s removals
    start.  In binary64 mode a value is stored as a float, the correctly
    rounded exact value (one beyond the binary64 range raises
    :class:`DomainError`); in rational mode as a ``Fraction``.  A step
    visits n + 1 prefixes, so T steps hold at most min(2^n, (T + 1)(n + 1))
    values, and a whole table's 2^n are no more; a size-only function holds
    its one walk's n + 1 values.
    Greedy++'s removal scores convert their values with the same ``_exact``
    and offer every integer they convert to the gate below, but store none.

    Two distinct values that round to one float give a share of 0 over a
    nonzero exact marginal, and a walk raises :class:`DomainError` on such
    a share.  Every value is an integer over the spec's one denominator,
    and two distinct integers below 2^52 in magnitude over a denominator of
    at most 2^1022 round to distinct floats, so that share is looked for
    only once a stored value is outside those bounds; from then on ``mix``
    walks every order, once per step, and checks its shares against that
    walk's integers.  A size-only function's one walk holds all its values,
    so it has already checked the shares that every later order reuses.
    ``whole_table`` returns None where a table value is outside the bounds,
    so the run walks and checks as above and every error is raised where it
    was; every value of a whole table is inside them, so none of its shares
    rounds to 0 over a nonzero exact marginal.  Where a first walk has opened
    the gate, no table is built.
    """

    def __init__(self, spec: SetFunctionSpec, as_float: bool, name: str, labels: Sequence[str]):
        super().__init__()
        self._spec = spec
        self._name = name
        self._labels = labels
        # int / int rounds correctly, as float(Fraction) does
        self._exact = operator.truediv if as_float else Fraction
        self._as_float = as_float
        self._unresolved = False  # binary64: some stored value is outside the bounds above
        self._by_position = None  # a size-only function's marginals by position, from its walk
        self.top = None  # h(V) * den, from the last walk

    def whole_table(self, n: int) -> Optional[list]:
        """All 2^n values of ``spec.table(n)`` as a list indexed by mask, converted as a
        walk converts them; None where, in binary64, one is outside the resolution bounds."""
        values, den = self._spec.table(n)
        if self._as_float and _past_resolution(values, den):
            return None
        return list(map(self._exact, values, repeat(den)))

    def mix(self, order: tuple, x: list, keep, gamma) -> list:
        """[keep * x[u] + gamma * c[u] for each u], c the marginal vector of order, as a new list."""
        out = [0] * len(order)
        steps = self._by_position
        if steps is not None:
            for u, step in zip(order, steps):
                out[u] = keep * x[u] + gamma * step
            return out
        if not self._unresolved:
            get = self.get  # no __missing__: an unstored prefix reads None
            prefix = 0
            prev = self[0]  # the run's first iterate is a walk, so the empty set is stored
            for u in order:
                prefix |= 1 << u
                cur = get(prefix)
                if cur is None:
                    break
                out[u] = keep * x[u] + gamma * (cur - prev)
                prev = cur
            else:
                return out
        return [keep * xu + gamma * cu for xu, cu in zip(x, self._walk(order))]

    def _walk(self, order) -> list:
        """The marginal vector of order from one walk, which stores its n + 1 prefix values."""
        ints, den = self._spec.prefixes(order)
        exact = self._exact
        out = [0] * len(order)
        prefix = 0
        try:
            prev = self[0] = exact(ints[0], den)
            for u, v in zip(order, ints[1:]):
                prefix |= 1 << u
                cur = self[prefix] = exact(v, den)
                out[u] = cur - prev
                prev = cur
        except OverflowError:
            raise self._out_of_range() from None
        self._gate(ints, den)
        self.top = ints[-1]
        if self._spec._size_only:
            self._by_position = [out[u] for u in order]
        return self._checked(order, out, ints, den)

    def _out_of_range(self) -> DomainError:
        return DomainError(f"{self._name}: a value exceeds the binary64 range")

    def _gate(self, ints, den) -> None:
        """Open the share check once a stored value is outside the bounds above."""
        if self._as_float and not self._unresolved:
            self._unresolved = _past_resolution(ints, den)

    def _checked(self, order, c, ints, den) -> list:
        """The marginal vector c of order, walked as ints over den, unless one of
        its shares is 0 over a nonzero exact marginal."""
        if self._unresolved and 0.0 in c:
            role = "reward" if self._name == "f" else "cost"
            for u, exact in enumerate(marginals(order, ints)):
                if c[u] == 0 and exact != 0:
                    raise DomainError(
                        f"{self._name}: {role} share of element {self._labels[u]} is "
                        f"{format_rational(Fraction(exact, den))}, below binary64 resolution "
                        f"at the values of {self._name} around it, so it rounds to 0"
                    )
        return c


def _phi_values(rho, y):
    """(quadratic, kl, eg) objective values at densities rho = x / y; kl or eg as in TraceRow."""
    quad = None
    kl = 0.0
    eg = 0.0
    for t, yu in zip(rho, y):
        q = yu * t * t
        quad = q if quad is None else quad + q
        try:
            ft, fy = float(t), float(yu)
        except OverflowError:  # a rational beyond the binary64 range
            kl = eg = None
            continue
        if ft > 0:
            log_t = math.log(ft)
            if kl is not None:
                kl += fy * ft * log_t
            if eg is not None:
                eg -= fy * log_t
        elif ft == 0:
            eg = None  # -log 0
        else:
            kl = None
            eg = None
    # a binary64 sum that overflowed is not carried either
    quad = None if isinstance(quad, float) and not math.isfinite(quad) else quad
    kl = kl if kl is not None and math.isfinite(kl) else None
    eg = eg if eg is not None and math.isfinite(eg) else None
    return quad, kl, eg


def _run(inst: DualModularInstance, cfg: SolverConfig, variant: str, record=None):
    """The iteration of ``variant``; its final ``(x, y, rho)``.

    Before each update it passes ``(k, rho, order, x, y)`` to ``record``: the
    step number, the iterate (x, y), its densities rho and the order chosen
    from them.  It keeps only the current iterate, the memos and, where a
    run could visit every mask, the two whole tables; rows are record's to
    keep.
    """
    greedy = variant == "greedypp"
    # with g(empty) = 0, g is linear exactly when it is both super- and submodular
    if greedy and not {"supermodular", "submodular"} <= inst.g.structure(inst.n).keys():
        raise NotLinearCost()
    as_float = cfg.arithmetic == "binary64"
    labels = inst.ground.labels
    f = _Memo(inst.f, as_float, "f", labels)
    g = _Memo(inst.g, as_float, "g", labels)

    def densities(x, y) -> list:
        rho = density_ratios(x, y, labels)
        # a binary64 quotient beyond the range rounds to inf; the exact density is
        # finite.  A finite sum clears every quotient; finite quotients may still
        # sum past the range, so only a scan names the culprit
        if as_float and not math.isfinite(sum(rho)):
            for u, t in enumerate(rho):
                if not math.isfinite(t):
                    raise DomainError(f"density of element {labels[u]} exceeds the binary64 range")
        return rho

    sigma0 = cfg.initial_permutation or Permutation.identity(inst.n)
    if sigma0.n != inst.n:
        raise SchemaError("initial_permutation", "length does not match the ground set")
    x, y = f._walk(sigma0.order), g._walk(sigma0.order)
    rho = densities(x, y)
    # the walks of T steps could store (T + 1)(n + 1) values: at 2^n or more, two
    # tables built by doubling cost less than they would, unless a first walk has
    # already opened the resolution gate
    whole_f = whole_g = None  # whole_g is None unless both tables are whole
    if 1 << inst.n <= (cfg.iterations + 1) * (inst.n + 1) and not (f._unresolved or g._unresolved):
        whole_f = f.whole_table(inst.n)
        whole_g = whole_f and g.whole_table(inst.n)
    # step lead / (k + lead): 1/(k+1) for Greedy++, 2/(k+2) for Frank-Wolfe
    lead = 1 if greedy else 2
    elements = range(inst.n)

    for k in range(cfg.iterations):
        gamma = lead / (k + lead) if as_float else Fraction(lead, k + lead)
        if greedy:
            order = _removal_order(inst.n, x, f, gamma)
        else:  # density_order(rho), its range made once: a call per step costs 3% of a solve
            order = tuple(sorted(elements, key=rho.__getitem__, reverse=True))
        if record is not None:
            record(k, rho, order, x, y)
        keep = 1 - gamma
        if whole_g is None:
            x = f.mix(order, x, keep, gamma)
            y = g.mix(order, y, keep, gamma)
            rho = densities(x, y)
        else:
            x, y, rho = _table_step(order, x, y, keep, gamma, whole_f, whole_g)
            # a zero cost share, or a density past the binary64 range: densities
            # raises as after a walked step, naming the same element
            if rho is None or as_float and not math.isfinite(sum(rho)):
                rho = densities(x, y)
    return x, y, rho


def _table_step(order, x, y, keep, gamma, F, G):
    """One step over whole tables F and G of f and g, lists indexed by mask.

    The new iterate, [keep * x[u] + gamma * c[u]] and the same for y with d,
    c and d the marginal vectors of order, and its densities x[u] / y[u], in
    one pass; the densities are None where a cost share is 0.
    """
    n = len(order)
    x2 = [0] * n
    y2 = [0] * n
    rho = [0] * n
    zero = False
    prefix = 0
    f_prev = F[0]
    g_prev = G[0]
    for u in order:
        prefix |= 1 << u
        f_cur = F[prefix]
        g_cur = G[prefix]
        xu = x2[u] = keep * x[u] + gamma * (f_cur - f_prev)
        yu = y2[u] = keep * y[u] + gamma * (g_cur - g_prev)
        try:
            rho[u] = xu / yu
        except ZeroDivisionError:
            zero = True
        f_prev = f_cur
        g_prev = g_cur
    return x2, y2, None if zero else rho


def _removal_order(n: int, x, f: _Memo, gamma) -> tuple[int, ...]:
    """Greedy++'s order, built back to front: from the remaining set R, remove
    the element of smallest blended score (1 - gamma) x_u + gamma f(u | R - u),
    the first in index order on a tie.

    f(R - u) is f(R) less entry u of f's integer marginal vector at R, and
    both values are converted from those integers as the memo converts a
    stored one, so every score is the one a lookup of f(R - u) would give.
    """
    spec = f._spec
    keep = 1 - gamma
    exact = f._exact
    vec, den = spec.marginal_vector((1 << n) - 1, n)
    neighbours = spec.neighbours if isinstance(spec, EdgesInside) else None
    top = f.top  # f(R) * den
    kept = [keep * xu for xu in x]
    remaining = list(range(n))
    mask = (1 << n) - 1
    order_rev = []
    try:
        while remaining:
            rest = [top - vec[u] for u in remaining]  # f(R - u) * den
            f._gate(rest, den)
            f_rem = exact(top, den)
            scores = [kept[u] + gamma * (f_rem - exact(r, den)) for u, r in zip(remaining, rest)]
            i = min(range(len(scores)), key=scores.__getitem__)
            b = remaining.pop(i)
            order_rev.append(b)
            top = rest[i]
            mask ^= 1 << b
            if neighbours is None:
                vec = spec.marginal_vector(mask, n)[0]
            elif b < len(neighbours):  # an element past every edge has none
                for v, w in neighbours[b]:
                    vec[v] -= w
    except OverflowError:
        raise f._out_of_range() from None
    return tuple(reversed(order_rev))


def _trace(inst: DualModularInstance, cfg: SolverConfig, variant: str) -> SolverTrace:
    """The steps of ``variant`` with one TraceRow each."""
    rows = []
    last = cfg.iterations - 1

    def record(k, rho, order, x, y):
        snapshot = k % cfg.stride == 0 or k == last
        quad, kl, eg = _phi_values(rho, y)
        rows.append(
            TraceRow(
                k=k,
                phi_quadratic=quad,
                phi_kl=kl,
                phi_eg=eg,
                sigma=Permutation(order),
                rho=tuple(rho) if snapshot else None,
                allocation=(tuple(x), tuple(y)) if snapshot else None,
            )
        )

    x, y, rho = _run(inst, cfg, variant, record)
    return SolverTrace(
        variant=variant,
        iterations=cfg.iterations,
        labels=inst.ground.labels,
        rows=tuple(rows),
        final_x=tuple(x),
        final_y=tuple(y),
        final_rho=tuple(rho),
    )


def frank_wolfe(inst: DualModularInstance, cfg: SolverConfig) -> SolverTrace:
    """Run the density-sorting iteration for cfg.iterations steps."""
    return _trace(inst, cfg, "fw")


def solve(inst: DualModularInstance, cfg: SolverConfig) -> SolverTrace:
    """The full trace of cfg.variant: one row per step, O(T n) memory."""
    return _trace(inst, cfg, cfg.variant)


def final_iterate(inst: DualModularInstance, cfg: SolverConfig) -> tuple[tuple, tuple, tuple]:
    """The final (x, y, rho) of cfg.variant, equal to ``solve``'s, with no trace kept."""
    x, y, rho = _run(inst, cfg, cfg.variant)
    return tuple(x), tuple(y), tuple(rho)


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
    multiplicative_density_upper: Optional[float]  # None where f_min = 0: no such bound
    scaling: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "iterations": self.iterations,
            "f_min": format_rational(self.f_min),
            "g_min": format_rational(self.g_min),
            "hessian_upper": _num(self.hessian_upper),
            "curvature_upper": _num(self.curvature_upper),
            "objective_gap_upper": _num(self.objective_gap_upper),
            "absolute_density_upper": self.absolute_density_upper,
            "multiplicative_density_upper": self.multiplicative_density_upper,
            "scaling": self.scaling,
        }


def error_bounds(inst: DualModularInstance, kind: DivergenceKind, T: int) -> ErrorBounds:
    """Explicit constants of the convergence chain, for the normalized companion of ``inst``.

    The chain is stated for f(V) = g(V) = 1.  Normalizing divides each
    function by its total, so f_min and g_min are ``extremes``'s minima over
    f(V) and g(V), and f_max = g_max = 1: no one-element marginal of a
    monotone function exceeds its total.  Squared diameter of the product of
    bases is at most 2 (f(V)^2 + g(V)^2) = 4; multiplying by a spectral-norm
    bound on the objective Hessian gives the curvature constant, the 2/(T+2)
    step schedule turns that into an objective gap, and
    strong-convexity-along-segments lower bounds invert the gap into
    density error.
    """
    if isinstance(kind, HockeyStick):
        raise DomainError("no curvature chain for the hockey-stick generator (not smooth)")
    fv, gv = inst.totals()
    if T < 1:
        raise SchemaError("T", "need at least one iteration")
    ext = extremes(inst)
    f_min, g_min = ext.f_min / fv, ext.g_min / gv
    if g_min <= 0:
        raise StructuralError("g_min = 0: the cost function is not strictly monotone")

    inf = math.inf
    # each branch: a Hessian bound and the strong-convexity constant that
    # turns an objective gap into a squared density error
    if kind.name == "quadratic":
        hessian = 4 / g_min**3
        convexity = g_min**2
        scaling = {
            "absolute": {"g_min": -2.5, "T_plus_2": -0.5},
            "multiplicative": {"f_min": -1.0, "g_min": -2.5, "T_plus_2": -0.5},
        }
    elif kind.name == "kl":
        hessian = 1 / g_min**2 + 1 / f_min if f_min > 0 else inf
        convexity = f_min * g_min**2 / 2
        scaling = {
            "absolute": {"f_min": -0.5, "g_min": -1.0, "hessian_upper": 0.5, "T_plus_2": -0.5},
            "multiplicative": {"f_min": -1.5, "g_min": -1.0, "hessian_upper": 0.5, "T_plus_2": -0.5},
        }
    elif kind.name == "eg":
        hessian = 1 / g_min + 1 / f_min**2 if f_min > 0 else inf
        convexity = g_min**3 / 2
        scaling = {
            "absolute": {"g_min": -1.5, "hessian_upper": 0.5, "T_plus_2": -0.5},
            "multiplicative": {"f_min": -1.0, "g_min": -1.5, "hessian_upper": 0.5, "T_plus_2": -0.5},
        }
    else:
        raise DomainError(f"no curvature chain for kind {kind.name!r}")

    curvature = 4 * hessian
    gap = 2 * curvature / (T + 2) if curvature != inf else inf

    absolute = inf if gap == inf else _sqrt_or_inf(gap / convexity)

    multiplicative = _sqrt_or_inf(gap / (convexity * f_min**2)) if f_min > 0 else None

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


def _sqrt_or_inf(q: Fraction) -> float:
    """sqrt(q) as a float; inf, still an upper bound, where q is beyond the binary64 range."""
    try:
        return math.sqrt(float(q))
    except OverflowError:
        return math.inf
