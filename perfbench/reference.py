"""Answers computed apart from the program, and the checks that use them.

Nothing here calls `dualmod`.  Dense instances are answered by an integer
brute force: both set functions are tabulated over all subsets with their
denominators cleared, and the maximal densest subset of each residual is
found by cross-multiplication.  Clique instances are answered in closed
form.  Each ``check_*`` function returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction as F

from workloads import Instance, rational_text


def f_value(inst: Instance, mask: int) -> F:
    return sum((w for u, v, w in inst.edges if mask >> u & 1 and mask >> v & 1), F(0))


def g_value(inst: Instance, mask: int) -> F:
    if inst.cost[0] == "linear":
        return sum((w for u, w in enumerate(inst.cost[1]) if mask >> u & 1), F(0))
    _, phi, eta = inst.cost
    k = bin(mask).count("1")
    return phi[k] + eta * k


def _lcm_den(values) -> int:
    return math.lcm(*(v.denominator for v in values)) if values else 1


def int_tables(inst: Instance):
    """(F, G, sf, sg): integer tables with F[S] = f(S) * sf, G[S] = g(S) * sg."""
    n = inst.n
    sf = _lcm_den([w for _, _, w in inst.edges])
    adj = [[] for _ in range(n)]
    for u, v, w in inst.edges:
        lo, hi = min(u, v), max(u, v)
        adj[lo].append((hi, int(w * sf)))
    ftab = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = (s & -s).bit_length() - 1
        total = ftab[s ^ (1 << low)]
        for other, w in adj[low]:
            if other == low or s >> other & 1:
                total += w
        ftab[s] = total
    if inst.cost[0] == "linear":
        sg = _lcm_den(inst.cost[1])
        per = [int(w * sg) for w in inst.cost[1]]
        gtab = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = (s & -s).bit_length() - 1
            gtab[s] = gtab[s ^ (1 << low)] + per[low]
    else:
        _, phi, eta = inst.cost
        sg = _lcm_den([*phi, eta])
        by_size = [int((phi[k] + eta * k) * sg) for k in range(n + 1)]
        gtab = [by_size[bin(s).count("1")] for s in range(1 << n)]
    return ftab, gtab, sf, sg


@dataclass
class Answer:
    """The exact decomposition plus f and g on each prefix union of parts."""

    parts: list        # masks, in peel order
    densities: list    # Fractions, strictly decreasing
    f_prefix: list     # f(S_1 u ... u S_i)
    g_prefix: list
    f_total: F
    g_total: F
    f_min: F           # min over u of f({u})
    g_min: F           # min over u of g(V) - g(V - u)

    def rho_star(self, n: int) -> list:
        out = [None] * n
        for part, rho in zip(self.parts, self.densities):
            for u in range(n):
                if part >> u & 1:
                    out[u] = rho
        return out


def brute_answer(inst: Instance) -> Answer:
    """Peel maximal densest subsets by exhaustive integer scans."""
    n = inst.n
    ftab, gtab, sf, sg = int_tables(inst)
    full = (1 << n) - 1
    taken = 0
    parts, densities, fp, gp = [], [], [], []
    while taken != full:
        rest = full ^ taken
        fa, ga = ftab[taken], gtab[taken]
        bf, bg, union = None, None, 0
        sub = rest
        while sub:
            fs = ftab[sub | taken] - fa
            gs = gtab[sub | taken] - ga
            if gs <= 0:
                raise ValueError(f"{inst.name}: cost marginal {gs} on {sub} is not positive")
            if bf is None or fs * bg > bf * gs:
                bf, bg, union = fs, gs, sub
            elif fs * bg == bf * gs:
                union |= sub
            sub = (sub - 1) & rest
        fu, gu = ftab[union | taken] - fa, gtab[union | taken] - ga
        if fu * bg != bf * gu:
            raise ValueError(f"{inst.name}: union of densest subsets is not densest")
        parts.append(union)
        densities.append(F(bf * sg, bg * sf))
        taken |= union
        fp.append(F(ftab[taken], sf))
        gp.append(F(gtab[taken], sg))
    return Answer(
        parts=parts,
        densities=densities,
        f_prefix=fp,
        g_prefix=gp,
        f_total=F(ftab[full], sf),
        g_total=F(gtab[full], sg),
        f_min=min(F(ftab[1 << u], sf) for u in range(n)),
        g_min=min(F(gtab[full] - gtab[full ^ (1 << u)], sg) for u in range(n)),
    )


def clique_answer(inst: Instance) -> Answer:
    """Closed form: a clique of size s has density (w (s - 1) / 2 + l) / c;
    cliques of equal density form one part, parts fall in density."""
    by_rho: dict = {}
    for members, w, loop, c in inst.cliques:
        rho = (w * (len(members) - 1) / 2 + loop) / c
        by_rho.setdefault(rho, []).append((members, w, loop, c))
    parts, densities, fp, gp = [], [], [], []
    f_acc = g_acc = F(0)
    for rho in sorted(by_rho, reverse=True):
        mask = 0
        for members, w, loop, c in by_rho[rho]:
            s = len(members)
            for u in members:
                mask |= 1 << u
            f_acc += w * s * (s - 1) / 2 + loop * s
            g_acc += c * s
        parts.append(mask)
        densities.append(rho)
        fp.append(f_acc)
        gp.append(g_acc)
    f_min = min(loop for _, _, loop, _ in inst.cliques)
    g_min = min(c for _, _, _, c in inst.cliques)
    return Answer(parts, densities, fp, gp, f_acc, g_acc, f_min, g_min)


def answer(inst: Instance) -> Answer:
    return clique_answer(inst) if inst.cliques is not None else brute_answer(inst)


# ---------------------------------------------------------------------------
# checks of command output
# ---------------------------------------------------------------------------


def _labels(inst: Instance, mask: int) -> list:
    return [inst.labels[u] for u in range(inst.n) if mask >> u & 1]


def _parse(text: str, problems: list):
    try:
        return json.loads(text)
    except ValueError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None


def check_verify(inst: Instance, code: int, text: str) -> list:
    """A generated instance is dual-modular: exit 0 and every flag true."""
    problems = []
    blob = _parse(text, problems)
    if blob is None:
        return problems
    if code != 0:
        problems.append(f"{inst.name}: verify exit {code}, expected 0")
    for key in ("f_supermodular", "f_monotone", "g_submodular", "g_monotone",
                "g_strictly_monotone", "dual_modular"):
        if blob.get(key) is not True:
            problems.append(f"{inst.name}: verify reports {key} = {blob.get(key)}")
    if blob.get("witnesses") != {}:
        problems.append(f"{inst.name}: verify prints witnesses for a dual-modular instance")
    return problems


def check_verify_twin(twin: Instance, code: int, text: str) -> list:
    """The flat-cost twin: exit 2, only strict monotonicity of g fails, and
    every printed witness is a genuine violation when recomputed here."""
    problems = []
    blob = _parse(text, problems)
    if blob is None:
        return problems
    if code != 2:
        problems.append(f"{twin.name}: verify exit {code}, expected 2")
    expect = {"f_supermodular": True, "f_monotone": True, "g_submodular": True,
              "g_monotone": True, "g_strictly_monotone": False, "dual_modular": False}
    for key, want in expect.items():
        if blob.get(key) is not want:
            problems.append(f"{twin.name}: verify reports {key} = {blob.get(key)}, expected {want}")
    witnesses = blob.get("witnesses") or {}
    if "g_strictly_monotone" not in witnesses:
        problems.append(f"{twin.name}: no witness for g_strictly_monotone")
    index = {lab: i for i, lab in enumerate(twin.labels)}
    for prop, pair in witnesses.items():
        try:
            a, b = (sum(1 << index[lab] for lab in side) for side in pair)
        except (KeyError, TypeError, ValueError):
            problems.append(f"{twin.name}: unreadable witness {prop}: {pair!r}")
            continue
        if not _violates(twin, prop, a, b):
            problems.append(f"{twin.name}: witness {prop} {pair} is not a violation")
    return problems


def _violates(inst: Instance, prop: str, a: int, b: int) -> bool:
    h = f_value if prop.startswith("f_") else g_value
    if prop == "f_supermodular":
        return h(inst, a) + h(inst, b) > h(inst, a & b) + h(inst, a | b)
    if prop == "g_submodular":
        return h(inst, a) + h(inst, b) < h(inst, a & b) + h(inst, a | b)
    if prop in ("f_monotone", "g_monotone", "g_strictly_monotone"):
        if a & ~b or a == b:  # the witness must be a proper subset pair
            return False
        if prop == "g_strictly_monotone":
            return h(inst, b) <= h(inst, a)
        return h(inst, b) < h(inst, a)
    return False


def check_decompose(inst: Instance, ans: Answer, code: int, text: str) -> list:
    problems = []
    blob = _parse(text, problems)
    if blob is None:
        return problems
    if code != 0:
        problems.append(f"{inst.name}: decompose exit {code}")
    want = {
        "parts": [_labels(inst, p) for p in ans.parts],
        "densities": [rational_text(d) for d in ans.densities],
        "rho_star": {lab: rational_text(r) for lab, r in zip(inst.labels, ans.rho_star(inst.n))},
    }
    for key, value in want.items():
        if blob.get(key) != value:
            problems.append(f"{inst.name}: decompose {key} = {blob.get(key)}, expected {value}")
    return problems


def expected_contracts(inst: Instance, ans: Answer) -> dict:
    """Critical values 1/rho_i for rho_i >= 1; at each, the agent takes the
    prefix of parts with density >= rho_i; the principal's best is the
    largest (1 - alpha) f(prefix), ties to the smaller alpha."""
    table = []
    best = None
    for i in range(len(ans.densities)):  # ascending alpha
        rho = ans.densities[i]
        if rho < 1:
            continue
        alpha = 1 / rho
        f, g = ans.f_prefix[i], ans.g_prefix[i]
        mask = 0
        for p in ans.parts[: i + 1]:
            mask |= p
        up = (1 - alpha) * f
        table.append({
            "alpha": rational_text(alpha),
            "response": _labels(inst, mask),
            "agent_utility": rational_text(alpha * f - g),
            "principal_utility": rational_text(up),
        })
        if best is None or up > best[2]:
            best = (alpha, mask, up)
    if best is None:
        best = (F(0), 0, F(0))
    return {
        "critical_values": [row["alpha"] for row in table],
        "table": table,
        "optimal": {
            "alpha": rational_text(best[0]),
            "response": _labels(inst, best[1]),
            "principal_utility": rational_text(best[2]),
        },
    }


def check_contracts(inst: Instance, ans: Answer, code: int, text: str) -> list:
    problems = []
    blob = _parse(text, problems)
    if blob is None:
        return problems
    if code != 0:
        problems.append(f"{inst.name}: contracts exit {code}")
    want = expected_contracts(inst, ans)
    for key, value in want.items():
        if blob.get(key) != value:
            problems.append(f"{inst.name}: contracts {key} = {blob.get(key)}, expected {value}")
    return problems


def check_solve(inst: Instance, ans: Answer, T: int, code: int, text: str) -> list:
    """final_rho, rescaled to the normalized instance, lies within the
    printed absolute_density_upper of the exact rho* (l2 distance); the
    objective is at least the optimum and within the printed gap; f_min and
    g_min of the normalized instance match the closed forms."""
    problems = []
    blob = _parse(text, problems)
    if blob is None:
        return problems
    if code != 0:
        return [f"{inst.name}: solve exit {code}"]
    try:
        bounds = blob["error_bounds"]
        rho = [blob["final_rho"][lab] for lab in inst.labels]
        phi = float(blob["phi"])
        radius = float(bounds["absolute_density_upper"])
        gap = float(F(bounds["objective_gap_upper"]))
        f_min, g_min = F(bounds["f_min"]), F(bounds["g_min"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"{inst.name}: solve output lacks a field: {exc!r}"]
    if blob.get("iterations") != T or bounds.get("iterations") != T:
        problems.append(f"{inst.name}: solve ran {blob.get('iterations')} iterations, expected {T}")
    scale = ans.g_total / ans.f_total  # densities of the normalized instance
    err = math.sqrt(sum((float((F(r) - s) * scale)) ** 2
                        for r, s in zip(rho, ans.rho_star(inst.n))))
    if not err <= radius:
        problems.append(f"{inst.name}: density error {err} exceeds the bound {radius}")
    opt = sum(((gp - gq) * rho_i * rho_i for rho_i, gp, gq in
               zip(ans.densities, ans.g_prefix, [F(0), *ans.g_prefix])), F(0))
    excess = (phi - float(opt)) * float(ans.g_total / ans.f_total**2)
    if excess < -1e-9 * float(opt) or excess > gap:
        problems.append(f"{inst.name}: objective excess {excess} outside [0, {gap}]")
    if f_min != ans.f_min / ans.f_total or g_min != ans.g_min / ans.g_total:
        problems.append(f"{inst.name}: solve reports f_min {f_min}, g_min {g_min}")
    return problems


# ---------------------------------------------------------------------------
# allocations for the fairness checks
# ---------------------------------------------------------------------------


def vertex(inst: Instance, order, h) -> list:
    out = [F(0)] * inst.n
    prefix, prev = 0, F(0)
    for u in order:
        prefix |= 1 << u
        cur = h(inst, prefix)
        out[u] = cur - prev
        prev = cur
    return out


def exact_allocation(inst: Instance, ans: Answer, rng):
    """(x, y, fair): one exact allocation in both bases.

    Clique instances get the closed-form fair allocation x_u = w (s - 1) / 2
    + l, y_u = c.  Others get x = (f^a + 2 f^b) / 3 and y = (2 g^c + g^d) / 3
    over four random permutations that list the parts in peel order.
    """
    if inst.cliques is not None:
        x, y = [F(0)] * inst.n, [F(0)] * inst.n
        for members, w, loop, c in inst.cliques:
            for u in members:
                x[u] = w * (len(members) - 1) / 2 + loop
                y[u] = c
        return x, y, True

    def consistent():
        order = []
        for part in ans.parts:
            elems = [u for u in range(inst.n) if part >> u & 1]
            rng.shuffle(elems)
            order.extend(elems)
        return order

    fa, fb = vertex(inst, consistent(), f_value), vertex(inst, consistent(), f_value)
    gc, gd = vertex(inst, consistent(), g_value), vertex(inst, consistent(), g_value)
    x = [(a + 2 * b) / 3 for a, b in zip(fa, fb)]
    y = [(2 * c + d) / 3 for c, d in zip(gc, gd)]
    return x, y, False


def check_certify(inst: Instance, fair: bool, membership, equivalence) -> list:
    """The allocation lies in both bases and the fairness notions agree; the
    closed-form clique allocation is also locally maximin with rho*."""
    problems = []
    if not (membership.x_in_reward_base and membership.y_in_cost_base):
        problems.append(f"{inst.name}: allocation reported outside a base: {membership}")
    if not equivalence.agree:
        problems.append(f"{inst.name}: fairness notions disagree")
    if fair and not (equivalence.locally_maximin and equivalence.densities_match):
        problems.append(f"{inst.name}: closed-form allocation not reported locally maximin")
    return problems
