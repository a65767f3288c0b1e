"""Test-side oracles: exhaustive answers that the package's fast paths must match."""

from fractions import Fraction

import dualmod as dm
from dualmod.errors import DualModError


def best_response_bruteforce(inst: dm.DualModularInstance, alpha) -> tuple[int, Fraction]:
    """Exhaustive argmax of alpha * f(S) - g(S), with the tie chain.

    Value ties prefer larger f(S) (the principal's benefit), then the
    decomposition prefix union if it is among the remaining ties, then the
    lowest mask.  The oracle for :func:`dualmod.best_response`.
    """
    alpha = Fraction(alpha)
    # for alpha = p/q, alpha f(S) - g(S) = (p F[S] Dg - q G[S] Df) / (q Df Dg)
    (ftab, df), (gtab, dg) = inst.tables()
    pf, qg = alpha.numerator * dg, alpha.denominator * df
    best_key = None
    ties: list[int] = []
    for s in range(1 << inst.n):
        key = (pf * ftab[s] - qg * gtab[s], ftab[s])
        if best_key is None or key > best_key:
            best_key = key
            ties = [s]
        elif key == best_key:
            ties.append(s)
    value = Fraction(best_key[0], alpha.denominator * df * dg)
    if len(ties) > 1:
        try:
            dec = dm.density_decomposition(inst)
        except DualModError:
            dec = None  # degenerate instance; fall through to the lowest mask
        if dec is not None:
            prefix = dm.best_response(inst, dec, alpha)
            if prefix in ties:
                return prefix, value
    return ties[0], value
