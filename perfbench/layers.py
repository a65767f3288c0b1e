"""The traced run: spans around the public calls under each command.

Each operation is replayed through the library's public functions in the
order the command line calls them (parse the arguments, load, compute,
serialise), with a span around each call; the spans of one replay have the operation's root span
as parent.  Probes then time what the replay cannot split from outside:
the value tables alone, the first densest-subset scan, the later peels,
the tabulation of each residual and Frank-Wolfe at a second iteration
count.  Probe spans hang under a ``probe.<op>`` root and are not part of
the replay's time.

Spans are kept in memory and written to ``out/trace-<workload>-s<seed>.json``
when the run ends.  A span's self time is its duration minus the time of
its children.  Each per-layer metric is the median over rounds of a sum of
self times within the round (see ``layer_metrics``).  The same rounds also
time each command untraced just before its replay; the tracing overhead is
the median over rounds of the replays' total over the untraced total, less 1.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import time
import tracemalloc
from collections import defaultdict

import dualmod as dm
from dualmod.cli import build_parser

MB = 1024 * 1024
SHORT_T = 1  # the second Frank-Wolfe iteration count; the first is the op's T


class Spans:
    def __init__(self):
        self.rows = []  # [name, start, end, parent index, op, round, item]
        self.round = 0

    @contextlib.contextmanager
    def span(self, name, parent=None, op=None, item=None):
        row = [name, time.perf_counter(), None, parent, op, self.round, item]
        self.rows.append(row)
        try:
            yield len(self.rows) - 1
        finally:
            row[2] = time.perf_counter()

    def self_times(self):
        """{(round, name, item): summed self time} over every span."""
        child = [0.0] * len(self.rows)
        for name, start, end, parent, *_ in self.rows:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, parent, op, rnd, item) in enumerate(self.rows):
            if item is None and parent is not None:
                item = self.rows[parent][6]
            out[(rnd, name, item)] += end - start - child[i]
        return out

    def dump(self, path, header):
        rows = [dict(zip(("name", "start", "end", "parent", "op", "round", "item"), r))
                for r in self.rows]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**header, "spans": rows}, fh)


def _emit(obj):
    io.StringIO().write(json.dumps(obj, indent=2) + "\n")


def replay(spans, root, op, argv, certify_input):
    """The public calls the command makes for ``op``; returns the instance."""
    if op == "certify":
        loaded, alloc, dec, _ = certify_input
        with spans.span("permutation.membership", root):
            dm.check_base_membership(loaded, alloc)
        with spans.span("fairness.equivalence", root):
            dm.equivalence_report(loaded, alloc, dec)
        return loaded
    with spans.span("cli.parse", root):
        args = build_parser().parse_args(argv)
    with spans.span("cli.load", root):
        inst = dm.load_instance(args.instance)
    if op == "verify":
        with spans.span("instance.verify", root):
            report = dm.verify_dual_modularity(inst)
        with spans.span("cli.emit", root):
            _emit(report.to_json(inst.ground))
    elif op in ("decompose", "contracts"):
        with spans.span("decomposition.decompose", root):
            dec = dm.density_decomposition(inst)
        if op == "contracts":
            with spans.span("contracts.analyze", root):
                result = dm.analyze_contracts(inst, dec)
        else:
            result = dec
        with spans.span("cli.emit", root):
            _emit(result.to_json(inst.ground))
    elif op == "solve":
        with spans.span("solver.solve", root):
            trace = dm.solve(inst, dm.SolverConfig(iterations=args.T, kind=dm.QUADRATIC))
        with spans.span("solver.error_bounds", root):
            bounds = dm.error_bounds(dm.normalize(inst), dm.QUADRATIC, args.T)
        with spans.span("cli.emit", root):
            _emit({
                "variant": trace.variant,
                "iterations": trace.iterations,
                "kind": "quadratic",
                "final_rho": {lab: float(v) for lab, v in zip(inst.ground.labels, trace.final_rho)},
                "phi": float(dm.divergence(dm.QUADRATIC, trace.final_x, trace.final_y)),
                "error_bounds": bounds.to_json(),
                "error_bounds_note": "constants refer to the normalized instance",
            })
    return inst


def probe(spans, root, op, inst, subsets):
    """Extra timings for ``op`` on one loaded instance."""
    if op == "verify":
        with spans.span("instance.table", root):
            inst.tables()
    elif op == "decompose":
        with spans.span("decomposition.first_scan", root):
            mask, _ = dm.maximal_densest_subset(inst)
        residuals = []
        current = inst
        with spans.span("decomposition.peel", root):
            while mask != current.ground.full_mask:
                current = dm.residual_instance(current, mask)
                residuals.append(current)
                mask, _ = dm.maximal_densest_subset(current)
        with spans.span("decomposition.residual_table", root):
            for r in residuals:
                r.tables()
        subsets[spans.round] += sum(1 << r.n for r in residuals)
    elif op == "solve":
        normalized = dm.normalize(inst)
        with spans.span("instance.extremes", root):
            dm.extremes(normalized)
        with spans.span("solver.fw_short", root):
            dm.frank_wolfe(inst, dm.SolverConfig(iterations=SHORT_T))


def traced_run(bench, seconds, min_rounds, out_dir, seed):
    """Rounds in which each call runs untraced and then as a traced replay,
    followed by the probes.

    Returns ({metric: (value, unit)}, tracing overhead as a share)."""
    spans = Spans()
    untraced = defaultdict(float)   # round -> seconds of untraced passes
    subsets = defaultdict(int)      # round -> sum of 2^|residual| over peels
    items = {op: [inst.name for _, inst in calls] for op, calls in bench.calls.items()}
    start = time.perf_counter()
    while spans.round < min_rounds or time.perf_counter() - start < seconds:
        loaded, done = {}, []
        with contextlib.redirect_stderr(io.StringIO()):  # solver warnings
            for op, kind, inst in bench.schedule():
                elapsed, result = bench.timed_call(op, kind, inst)
                untraced[spans.round] += elapsed
                done.append((kind, inst, result))
                with spans.span(f"op.{op}", op=op, item=inst.name) as root:
                    loaded[op, inst.name] = replay(spans, root, op, bench.argv(kind, inst),
                                                   bench.certify_inputs.get(inst.name))
            for op, _, inst in bench.schedule():
                with spans.span(f"probe.{op}", op=op, item=inst.name) as root:
                    probe(spans, root, op, loaded[op, inst.name], subsets)
        for kind, inst, result in done:
            bench.check(kind, inst, result)
        spans.round += 1

    peak = 0
    for inst in bench.wl.solve_instances:
        loaded = dm.load_instance(bench.paths[inst.name])
        tracemalloc.start()
        try:
            dm.frank_wolfe(loaded, dm.SolverConfig(iterations=bench.wl.solve_T))
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    metrics, overhead = layer_metrics(spans, items, untraced, subsets, bench.wl.solve_T)
    metrics["solver.trace_peak_mb"] = (peak / MB, "MB")
    os.makedirs(out_dir, exist_ok=True)
    spans.dump(os.path.join(out_dir, f"trace-{bench.wl.name}-s{seed}.json"),
               {"workload": bench.wl.name, "seed": seed, "overhead_share": overhead})
    return metrics, overhead


def layer_metrics(spans, items, untraced, subsets, solve_T):
    """Per-layer metrics, and the tracing overhead as the median over rounds
    of (traced replays - untraced calls) / untraced calls."""
    st = spans.self_times()
    rounds = range(spans.round)
    instance_set = items["decompose"]

    def total(r, name, names):
        return sum(st[(r, name, i)] for i in names)

    traced = defaultdict(float)  # round -> seconds of the replays' root spans
    for name, start, end, parent, _, rnd, _ in spans.rows:
        if parent is None and name.startswith("op."):
            traced[rnd] += end - start
    every = {i for names in items.values() for i in names}
    per_round = defaultdict(list)
    overheads = []
    for r in rounds:
        per_round["cli.load_s"].append(total(r, "cli.load", every))
        per_round["cli.emit_s"].append(total(r, "cli.emit", every))
        per_round["instance.table_s"].append(total(r, "instance.table", instance_set))
        per_round["instance.verify_scan_s"].append(
            total(r, "instance.verify", items["verify"]) - total(r, "instance.table", items["verify"]))
        per_round["instance.extremes_s"].append(total(r, "instance.extremes", items["solve"]))
        per_round["decomposition.first_scan_s"].append(
            total(r, "decomposition.first_scan", instance_set) - total(r, "instance.table", instance_set))
        peel = total(r, "decomposition.peel", instance_set)
        per_round["decomposition.peel_s"].append(peel)
        per_round["decomposition.residual_table_s"].append(
            total(r, "decomposition.residual_table", instance_set))
        # a workload without peels divides by 1: the figure is then the
        # cost of the replay's empty peel loop
        per_round["decomposition.peel_ns_per_subset"].append(peel * 1e9 / max(1, subsets[r]))
        long_t = total(r, "solver.solve", items["solve"])
        short_t = total(r, "solver.fw_short", items["solve"])
        n_solve = len(items["solve"])
        iteration = (long_t - short_t) / (n_solve * (solve_T - SHORT_T))
        per_round["solver.iter_us"].append(iteration * 1e6)
        per_round["solver.setup_s"].append(short_t - n_solve * SHORT_T * iteration)
        per_round["permutation.membership_s"].append(
            total(r, "permutation.membership", items["certify"]))
        per_round["fairness.equivalence_s"].append(
            total(r, "fairness.equivalence", items["certify"]))
        per_round["contracts.analyze_s"].append(total(r, "contracts.analyze", items["contracts"]))
        overheads.append((traced[r] - untraced[r]) / untraced[r])
    units = {"decomposition.peel_ns_per_subset": "ns", "solver.iter_us": "us"}
    metrics = {name: (statistics.median(v), units.get(name, "s")) for name, v in per_round.items()}
    return metrics, statistics.median(overheads)

