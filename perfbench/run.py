#!/usr/bin/env python3
"""Closed-loop benchmark of the dualmod command line.

    python3 perfbench/run.py --workload dense-k1 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The run draws the workload's instance files from ``--seed``, then repeats
rounds until ``--seconds`` have passed.  A round runs every operation once
over the workload's whole instance set, one call at a time, and the
operations take turns within the round, so a slow spell on a shared
machine hits all of them alike.  Every command is driven in-process through
``dualmod.cli.main`` with its output captured, and every output is checked
against answers computed here apart from the program (see reference.py).

With ``--trace 0`` the last line of standard output is a JSON object with
each end-to-end metric: ``<op>_s`` is the median over rounds of one pass of
that operation over the instance set.  With ``--trace 1`` the run also
replays each operation through the library's public functions, with a span
around each call, and reports the per-layer metrics (see layers.py).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import reference  # noqa: E402
import workloads  # noqa: E402

OPS = ("verify", "decompose", "contracts", "solve", "certify")
MIN_ROUNDS = 3

# One set-up: import the program, draw the instances and write the files.
# It runs in a fresh interpreter, so imports are paid in full; the clock
# starts after the interpreter itself has started.  A run sets up once
# before the first round and once after every round, and reports the median.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
src, here, name, seed, attempts, out = sys.argv[1:]
sys.path[:0] = [src, here]
import dualmod, dualmod.cli
import workloads
workloads.write(workloads.build(name, int(seed), [int(a) for a in attempts.split(",") if a]), out)
print(time.perf_counter() - t0)
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def accepted_attempts(workload: str, seed: int) -> list:
    """dense-k1 keeps the first draw of each instance that is one part."""
    if workload != "dense-k1":
        return []
    out = []
    for i in range(len(workloads.DENSE_K1_SIZES)):
        attempt = 0
        while len(reference.brute_answer(workloads.dense_k1_draw(seed, i, attempt)).parts) != 1:
            attempt += 1
        out.append(attempt)
    return out


def timed_setup(workload: str, seed: int, attempts: list, inputs: str) -> float:
    """Wall time of one fresh set-up, which (re)writes the instance files."""
    argv = [sys.executable, "-c", _SETUP_CHILD, SRC, HERE, workload, str(seed),
            ",".join(map(str, attempts)), inputs]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


class Bench:
    """One workload's calls, their expected answers and their checks."""

    def __init__(self, dm, cli_main, wl, paths, seed):
        self.dm = dm
        self.cli_main = cli_main
        self.wl = wl
        self.paths = paths
        self.answers = {i.name: reference.answer(i) for i in [*wl.instances, *wl.solve_instances]}
        self.calls = {
            "verify": [("verify", i) for i in wl.instances] + [("verify-twin", wl.twin)],
            "decompose": [("decompose", i) for i in wl.instances],
            "contracts": [("contracts", i) for i in wl.instances],
            "solve": [("solve", i) for i in wl.solve_instances],
            "certify": [("certify", i) for i in wl.instances],
        }
        rng = random.Random(f"allocations:{wl.name}:{seed}")
        self.certify_inputs = {}
        for inst in wl.instances:
            ans = self.answers[inst.name]
            x, y, fair = reference.exact_allocation(inst, ans, rng)
            dec = dm.DensityDecomposition(
                n=inst.n,
                parts=tuple(ans.parts),
                densities=tuple(ans.densities),
                rho_star=tuple(ans.rho_star(inst.n)),
            )
            loaded = dm.load_instance(paths[inst.name])
            self.certify_inputs[inst.name] = (loaded, dm.Allocation(x=tuple(x), y=tuple(y)), dec, fair)
        self.first_output = {}
        self.problems = []
        self.attempted = 0
        self.failed = 0

    def argv(self, kind, inst):
        if kind == "solve":
            return ["solve", self.paths[inst.name], "--kind", "quadratic", "--T", str(self.wl.solve_T)]
        return [kind.split("-")[0], self.paths[inst.name]]

    def run_cli(self, argv):
        """(exit code, stdout); the code is None when the call raised."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli_main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a fault in the program: count the call as failed
                traceback.print_exc(file=sys.__stderr__)
                code = None
        return code, out.getvalue()

    def certify(self, name):
        """(membership, equivalence) reports; None when a call raised."""
        loaded, alloc, dec, _ = self.certify_inputs[name]
        try:
            return (self.dm.check_base_membership(loaded, alloc),
                    self.dm.equivalence_report(loaded, alloc, dec))
        except Exception:  # a fault in the program: count the call as failed
            traceback.print_exc(file=sys.__stderr__)
            return None

    def schedule(self):
        """(op, kind, instance) in round order: the j-th call of every
        operation, then the (j+1)-th, and so on."""
        for j in range(max(len(calls) for calls in self.calls.values())):
            for op, calls in self.calls.items():
                if j < len(calls):
                    yield (op, *calls[j])

    def timed_call(self, op, kind, inst):
        """(wall time, result) of one call."""
        if op == "certify":
            start = time.perf_counter()
            result = self.certify(inst.name)
        else:
            argv = self.argv(kind, inst)
            start = time.perf_counter()
            result = self.run_cli(argv)
        return time.perf_counter() - start, result

    def run_round(self):
        """One round: every call once, the operations taking turns call by
        call, so each operation's time is spread over the whole round.
        Returns {op: summed wall time}; results are checked afterwards."""
        times = dict.fromkeys(self.calls, 0.0)
        done = []
        for op, kind, inst in self.schedule():
            elapsed, result = self.timed_call(op, kind, inst)
            times[op] += elapsed
            done.append((kind, inst, result))
        for kind, inst, result in done:
            self.check(kind, inst, result)
        return times

    def check(self, kind, inst, result):
        self.attempted += 1
        if kind == "certify":
            if result is None:
                self.failed += 1
            else:
                fair = self.certify_inputs[inst.name][3]
                self.problems += reference.check_certify(inst, fair, *result)
            return
        code, text = result
        if code not in (0, 2):  # an error exit or an exception: the call failed
            self.failed += 1
            return
        key = (kind, inst.name)
        if key in self.first_output:
            if result != self.first_output[key]:
                self.problems.append(f"{kind} {inst.name}: output differs from the first round")
            return
        self.first_output[key] = result
        ans = self.answers.get(inst.name)
        if kind == "verify":
            self.problems += reference.check_verify(inst, code, text)
        elif kind == "verify-twin":
            self.problems += reference.check_verify_twin(inst, code, text)
        elif kind == "decompose":
            self.problems += reference.check_decompose(inst, ans, code, text)
        elif kind == "contracts":
            self.problems += reference.check_contracts(inst, ans, code, text)
        elif kind == "solve":
            self.problems += reference.check_solve(inst, ans, self.wl.solve_T, code, text)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dualmod", "__init__.py")):
        print(f"error: no dualmod package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    inputs = os.path.join(OUT, f"inputs-{args.workload}-s{args.seed}-p{os.getpid()}")
    try:
        return _run(args, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)


def _run(args, inputs) -> int:
    attempts = accepted_attempts(args.workload, args.seed)  # reference work, not set-up
    setups = [timed_setup(args.workload, args.seed, attempts, inputs)]

    sys.path.insert(0, SRC)
    import dualmod as dm
    from dualmod.cli import main as cli_main

    if not os.path.abspath(dm.__file__).startswith(SRC + os.sep):
        print(f"error: imported dualmod from {dm.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, attempts)
    paths = {}
    for inst in [*wl.instances, wl.twin, *wl.solve_instances]:
        paths[inst.name] = os.path.join(inputs, inst.name + ".json")
        with open(paths[inst.name], encoding="utf-8") as fh:
            if json.load(fh) != inst.to_json():
                raise RuntimeError(f"{paths[inst.name]} differs from the seeded draw")
    bench = Bench(dm, cli_main, wl, paths, args.seed)

    if args.trace:
        import layers

        metrics, overhead = layers.traced_run(bench, args.seconds, MIN_ROUNDS, OUT, args.seed)
        print(f"tracing overhead: {overhead:+.2%} (traced replays against the untraced calls)")
    else:
        times = {op: [] for op in OPS}
        start = time.perf_counter()
        while len(times["verify"]) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            for op, t in bench.run_round().items():
                times[op].append(t)
            # one more set-up per round, so set-ups sample the whole run
            setups.append(timed_setup(args.workload, args.seed, attempts, inputs))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {f"{op}_s": (statistics.median(times[op]), "s") for op in OPS}
        metrics["setup_s"] = (statistics.median(setups), "s")
        metrics["peak_rss_mb"] = (peak_mb, "MB")
        print(f"rounds: {len(times['verify'])}", file=sys.stderr)

    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
