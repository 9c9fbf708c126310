#!/usr/bin/env python3
"""Peak and current RSS of one benchmark workload, pass by pass.

    python3 scripts/rss_passes.py --workload cli-replay --passes 40 [--collect]

Runs N passes of a workload of `bench/run.py` (seed 1), each after its own
cold import of maxsub, as an untraced benchmark run does (`set_up`, then
`run_pass`).  After each pass it prints the peak RSS of the process, its
current RSS (from /proc/self/statm, so Linux only) and the number of
generation-2 collections so far.  With --collect, `gc.collect()` runs
after each import, so the module graph that the import dropped is freed
at once instead of at the next full collection.

This shows whether a change in `peak_rss_mb` comes from the working set
of a pass or from when the dropped module graphs are collected.  It is
run on demand and is not part of the test suite.
"""

from __future__ import annotations

import argparse
import gc
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import run as bench  # noqa: E402  (bench/run.py)
import speed  # noqa: E402
import workloads  # noqa: E402

SEED = 1
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--collect", action="store_true",
                    help="gc.collect() after each cold import")
    args = ap.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    os.chdir(ROOT)
    clock = speed.Clock()
    print("pass  peak_mb  current_mb  gen2_collections  failed")
    for k in range(args.passes):
        _stretches, lib, inputs = bench.set_up(workload, SEED, k, clock)
        if args.collect:
            gc.collect()
        done = bench.run_pass(workload.tasks(lib, inputs, SEED), clock)
        failed = sum(1 for o in done.outcomes if o[2] in ("failed", "wrong"))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{k + 1:4d}  {peak:7.2f}  {current_rss_mb():10.2f}  "
              f"{gc.get_stats()[2]['collections']:16d}  {failed:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
