#!/usr/bin/env python3
"""Print the episode digests and mean plan cost of each benchmark workload.

    python3 tools/episode_digests.py [--root DIR] [--seeds 1 2 3] [--seconds 25]

Runs the episodes ``perfbench/run.py --seed S --seconds T`` would run for
every workload, untraced and without its timing, from the checkout at
``--root`` (default: this one).  Each line is ``workload seed episode
digest``, then ``workload seed plan_cost.mean <value>``.  Two checkouts
whose lines are equal do the same work bit for bit.
"""

import argparse
import os
import statistics
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import run, workloads

    for name in sorted(workloads.WORKLOADS):
        wl = workloads.WORKLOADS[name]
        for seed in args.seeds:
            costs = []
            for i in range(run.episode_count(wl, args.seconds)):
                ep = run.run_episode(wl, seed, i)
                costs += ep.plan_costs
                print(name, seed, i, ep.digest(), flush=True)
            print(name, seed, "plan_cost.mean", repr(statistics.fmean(costs)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
