"""Divergences between reward and cost share vectors.

Four generator functions are supported: t^2, t*log t, -log t, and the
hockey-stick family max(t - gamma, 0).  The first and last are evaluated
exactly on rationals; the logarithmic pair is evaluated in binary64 since
its values are transcendental.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DomainError, SchemaError, ZeroCostCoordinate
from .instance import DualModularInstance
from .permutation import Allocation
from .rational import parse_rational


class DivergenceKind:
    """A convex generator theta with its derivative."""

    name: str = ""

    def theta(self, t):
        raise NotImplementedError

    def theta_prime(self, t):
        raise NotImplementedError

    def zeta(self, t):
        """theta(t) - t * theta'(t); non-increasing for convex theta."""
        return self.theta(t) - t * self.theta_prime(t)


@dataclass(frozen=True)
class Quadratic(DivergenceKind):
    name = "quadratic"

    def theta(self, t):
        return t * t

    def theta_prime(self, t):
        return 2 * t


@dataclass(frozen=True)
class EntropyKL(DivergenceKind):
    name = "kl"

    def theta(self, t):
        if t < 0:
            raise DomainError(f"t log t undefined for t = {t} < 0")
        if t == 0:
            return 0.0
        return float(t) * math.log(t)

    def theta_prime(self, t):
        if t <= 0:
            raise DomainError(f"derivative of t log t undefined for t = {t} <= 0")
        return math.log(t) + 1.0

    def zeta(self, t):
        # t log t - t (log t + 1) = -t, exact even though theta is not
        return -t


@dataclass(frozen=True)
class EisenbergGale(DivergenceKind):
    name = "eg"

    def theta(self, t):
        if t <= 0:
            raise DomainError(f"-log t undefined for t = {t} <= 0")
        return -math.log(t)

    def theta_prime(self, t):
        if t <= 0:
            raise DomainError(f"derivative of -log t undefined for t = {t} <= 0")
        return -1 / t

    def zeta(self, t):
        if t <= 0:
            raise DomainError(f"-log t undefined for t = {t} <= 0")
        return -math.log(t) + 1.0


@dataclass(frozen=True)
class HockeyStick(DivergenceKind):
    """max(t - gamma, 0); convex but not strictly convex.

    theta_prime returns the subgradient choice 0 at the kink t = gamma.
    """

    gamma: Fraction
    name = "hockey_stick"

    def __post_init__(self):
        if self.gamma < 0:
            raise SchemaError("gamma", f"hockey-stick parameter must be >= 0, got {self.gamma}")

    def theta(self, t):
        d = t - self.gamma
        return d if d > 0 else d * 0

    def theta_prime(self, t):
        return 1 if t > self.gamma else 0


QUADRATIC = Quadratic()
ENTROPY_KL = EntropyKL()
EISENBERG_GALE = EisenbergGale()

STRICTLY_CONVEX_KINDS = (QUADRATIC, ENTROPY_KL, EISENBERG_GALE)


def kind_from_string(text: str) -> DivergenceKind:
    """Parse 'quadratic' | 'kl' | 'eg' | 'hs:<gamma>'."""
    if text == "quadratic":
        return QUADRATIC
    if text == "kl":
        return ENTROPY_KL
    if text == "eg":
        return EISENBERG_GALE
    if text.startswith("hs:"):
        return HockeyStick(parse_rational(text[3:], "kind"))
    raise SchemaError("kind", f"unknown divergence kind {text!r}")


def divergence(kind: DivergenceKind, x: Sequence, y: Sequence):
    """sum_u y_u * theta(x_u / y_u).

    Every cost coordinate must be positive; the reward coordinates must be
    non-negative (strictly positive for the -log t generator).  An int
    coordinate is read as an exact rational.
    """
    if len(x) != len(y):
        raise SchemaError("divergence", "x and y must have the same length")
    total = None
    for u, (xu, yu) in enumerate(zip(x, y)):
        if yu < 0:
            raise DomainError(f"negative cost share y[{u}] = {yu}")
        if yu == 0:
            raise ZeroCostCoordinate(u)
        if xu < 0:
            raise DomainError(f"negative reward share x[{u}] = {xu}")
        if isinstance(xu, int):  # an int over an int would be a rounded float
            xu = Fraction(xu)
        term = yu * kind.theta(xu / yu)
        total = term if total is None else total + term
    return total


def objective(inst: DualModularInstance, allocation: Allocation, kind: DivergenceKind):
    """Divergence of the allocation's reward shares from its cost shares."""
    if allocation.n != inst.n:
        raise SchemaError("allocation", "length does not match the ground set")
    return divergence(kind, allocation.x, allocation.y)


def hockey_stick_sup_form(x: Sequence, y: Sequence, gamma) -> tuple:
    """max over subsets of x(S) - gamma * y(S), with a maximising subset.

    x(S) - gamma * y(S) sums d_u = x_u - gamma * y_u over S, so the maximum
    sums the d_u >= 0 and the canonical maximiser {u : d_u >= 0} attains it.
    Equals the coordinate sum form exactly whenever all y_u > 0.
    """
    if len(x) != len(y):
        raise SchemaError("divergence", "x and y must have the same length")
    gamma = Fraction(gamma) if not isinstance(gamma, float) else gamma
    best, canonical = 0, 0
    for u, (xu, yu) in enumerate(zip(x, y)):
        d = xu - gamma * yu
        if d >= 0:
            best += d
            canonical |= 1 << u
    return best, canonical
