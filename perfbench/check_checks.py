#!/usr/bin/env python3
"""Feed deliberately wrong answers to the benchmark's checks.

    python3 perfbench/check_checks.py

For each workload (seed 1) the real command outputs are produced once and
must pass every check; then each output is altered in one way that makes
it wrong, and the check must report a problem.  Prints one line per
alteration and exits 1 if any wrong answer got through.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from fractions import Fraction as F

import run
from reference import (check_certify, check_contracts, check_decompose, check_solve,
                       check_verify, check_verify_twin)

sys.path.insert(0, run.SRC)
import dualmod as dm  # noqa: E402
from dualmod.cli import main as cli_main  # noqa: E402
import workloads  # noqa: E402


def _edit(text, change):
    blob = json.loads(text)
    change(blob)
    return json.dumps(blob, indent=2) + "\n"


def _bump(rational: str) -> str:
    return workloads.rational_text(F(rational) + F(1, 1000))


def mutations(bench, inst, twin):
    """(name, problems) for one wrong answer each; problems must be non-empty."""
    ans = bench.answers[inst.name]
    out = {}
    for kind in ("verify", "decompose", "contracts"):
        out[kind] = bench.run_cli([kind, bench.paths[inst.name]])
    out["twin"] = bench.run_cli(["verify", bench.paths[twin.name]])
    solve_inst = bench.wl.solve_instances[0]
    solve_ans = bench.answers[solve_inst.name]
    out["solve"] = bench.run_cli(bench.argv("solve", solve_inst))
    T = bench.wl.solve_T

    def verify(change, code=0):
        return check_verify(inst, code, _edit(out["verify"][1], change))

    def twin_check(change, code=2):
        return check_verify_twin(twin, code, _edit(out["twin"][1], change))

    def decompose(change):
        return check_decompose(inst, ans, 0, _edit(out["decompose"][1], change))

    def contracts(change):
        return check_contracts(inst, ans, 0, _edit(out["contracts"][1], change))

    def solve(change):
        return check_solve(solve_inst, solve_ans, T, 0, _edit(out["solve"][1], change))

    def move_first_element(blob):
        parts = blob["parts"]
        if len(parts) > 1:
            parts[1].append(parts[0].pop())
        else:
            parts.append([parts[0].pop()])

    def push_rho(blob):
        radius = blob["error_bounds"]["absolute_density_upper"]
        scale = float(solve_ans.f_total / solve_ans.g_total)
        first = next(iter(blob["final_rho"]))
        blob["final_rho"][first] += 2 * radius * scale

    def other_pair(blob):  # g(empty) < g(V): no violation
        blob["witnesses"]["g_strictly_monotone"] = [[], list(twin.labels)]

    loaded, alloc, dec, fair = bench.certify_inputs[inst.name]
    # an allocation that gives one element a little more reward than its share
    wrong = dm.Allocation(x=(alloc.x[0] + F(1, 7), *alloc.x[1:]), y=alloc.y)
    yield "verify: dual_modular false", verify(lambda b: b.update(dual_modular=False))
    yield "verify: exit 2", check_verify(inst, 2, out["verify"][1])
    yield "verify: spurious witness", verify(lambda b: b["witnesses"].update(f_monotone=[[], []]))
    yield "twin: exit 0", twin_check(lambda b: None, code=0)
    yield "twin: witness not a violation", twin_check(other_pair)
    yield "twin: witness dropped", twin_check(lambda b: b["witnesses"].clear())
    yield "twin: g_strictly_monotone true", twin_check(lambda b: b.update(g_strictly_monotone=True))
    yield "decompose: density off by 1/1000", decompose(
        lambda b: b["densities"].__setitem__(0, _bump(b["densities"][0])))
    yield "decompose: element moved to another part", decompose(move_first_element)
    yield "decompose: rho_star off", decompose(
        lambda b: b["rho_star"].__setitem__(inst.labels[0], _bump(b["rho_star"][inst.labels[0]])))
    yield "contracts: optimal alpha off", contracts(
        lambda b: b["optimal"].__setitem__("alpha", _bump(b["optimal"]["alpha"])))
    yield "contracts: a critical value added", contracts(
        lambda b: b["critical_values"].append("1/1"))
    yield "contracts: principal utility off", contracts(
        lambda b: b["optimal"].__setitem__(
            "principal_utility", _bump(b["optimal"]["principal_utility"])))
    yield "solve: density outside the bound", solve(push_rho)
    yield "solve: objective below the optimum", solve(lambda b: b.update(phi=0.0))
    yield "solve: wrong iteration count", solve(lambda b: b.update(iterations=T + 1))
    yield "solve: g_min off", solve(
        lambda b: b["error_bounds"].__setitem__("g_min", _bump(b["error_bounds"]["g_min"])))
    yield "certify: allocation outside the reward base", check_certify(
        inst, fair, dm.check_base_membership(loaded, wrong), dm.equivalence_report(loaded, alloc, dec))
    yield "certify: notions reported to disagree", check_certify(
        inst, fair, dm.check_base_membership(loaded, alloc),
        replace(dm.equivalence_report(loaded, alloc, dec), agree=False))
    if fair:
        yield "certify: fair allocation reported not maximin", check_certify(
            inst, fair, dm.check_base_membership(loaded, alloc),
            replace(dm.equivalence_report(loaded, alloc, dec), locally_maximin=False, agree=True))
    before = len(bench.problems)
    code, text = out["decompose"]
    bench.check("decompose", inst, (code, text))
    bench.check("decompose", inst, (code, text.replace("/", " /", 1)))
    yield "round: output differs from the first round", bench.problems[before:]


def main() -> int:
    missed = 0
    os.makedirs(run.OUT, exist_ok=True)
    for name in workloads.WORKLOADS:
        inputs = os.path.join(run.OUT, f"check-{name}-p{os.getpid()}")
        wl = workloads.build(name, 1, run.accepted_attempts(name, 1))
        paths = workloads.write(wl, inputs)
        bench = run.Bench(dm, cli_main, wl, paths, 1)
        bench.run_round()
        if bench.problems or bench.failed:
            print(f"{name}: the real outputs fail the checks: {bench.problems[:3]}")
            return 1
        inst = wl.instances[0]
        for label, problems in mutations(bench, inst, wl.twin):
            caught = bool(problems)
            missed += not caught
            print(f"{name:18s} {'caught' if caught else 'MISSED'}  {label}")
        for path in paths.values():
            os.remove(path)
        os.rmdir(inputs)
    print("all wrong answers caught" if not missed else f"{missed} wrong answers got through")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
