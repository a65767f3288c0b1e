#!/usr/bin/env python3
"""Write a workload's instance files, its flat-cost twin included.

    python3 perfbench/make_instances.py --workload cliques-multipart --seed 7 --out /tmp/inst

Writes the same files a benchmark run with that seed uses: one JSON
instance file per instance, and ``<first instance>-twin.json``, the first
instance with a cost that has a zero marginal.  ``dualmod verify`` exits 2
on the twin.
"""

from __future__ import annotations

import argparse

import run
import workloads


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="directory to write into")
    args = p.parse_args()
    wl = workloads.build(args.workload, args.seed, run.accepted_attempts(args.workload, args.seed))
    for path in workloads.write(wl, args.out).values():
        print(path)


if __name__ == "__main__":
    main()
