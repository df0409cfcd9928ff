#!/usr/bin/env python3
"""Survey inequality margins over many seeded scenarios.

Useful for spotting checks whose certificates are nearly tight: run a few
hundred seeds and report, per check id, the distribution of margins, how
many reports failed or were skipped, and how many are ties (lhs == rhs,
such as 0 <= 0, whose margin says nothing about slack)."""

import argparse
from collections import Counter, defaultdict

import numpy as np

from wrp.verify import generate_scenario, run_scenario_checks


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=50)
    ap.add_argument("--checks", default=None, help="comma-separated check ids")
    args = ap.parse_args()
    selection = args.checks.split(",") if args.checks else None

    margins = defaultdict(list)
    counts = defaultdict(Counter)
    for seed in range(args.seeds):
        for rep in run_scenario_checks(generate_scenario(seed), selection):
            c = counts[rep.check_id]
            c[rep.status] += 1
            if rep.status != "skipped-precondition":
                margins[rep.check_id].append(rep.margin)
                c["tie"] += rep.lhs == rep.rhs
    for cid in sorted(counts):
        c, arr = counts[cid], np.array(margins[cid])
        spread = (f"min {arr.min():+.3e}  median {np.median(arr):+.3e}  max {arr.max():+.3e}"
                  if arr.size else "min -  median -  max -")
        print(f"{cid:60s} {spread}  fail {c['fail']}  "
              f"skip {c['skipped-precondition']}  ties {c['tie']}")


if __name__ == "__main__":
    main()
