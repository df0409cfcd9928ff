#!/usr/bin/env python3
"""Run the canonical verification suite (seeds 0..9, every check) and
print one line per check id with its worst margin across scenarios."""

import argparse
import json
import os
import sys
import time

from wrp.cli import RunConfig, run
from wrp.verify import ALL_CHECK_IDS


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds (0..n-1)")
    ap.add_argument("--out", default="out/canonical", help="output directory")
    ap.add_argument("--jobs", type=int, default=1)
    args = ap.parse_args()

    t0 = time.time()
    config = RunConfig(seeds=tuple(range(args.seeds)), out=args.out, jobs=args.jobs)
    status = run(config)
    elapsed = time.time() - t0
    if status == 4:  # outputs could not be written; run() printed why
        return status

    with open(os.path.join(args.out, "report.json"), encoding="utf-8") as fh:
        margins = json.load(fh)["summary"]["min_margin"]
    for cid in ALL_CHECK_IDS:
        m = margins.get(cid)
        print(f"{cid:60s} worst margin {m:.3e}" if m is not None else f"{cid:60s} (skipped)")
    print(f"\n{args.seeds} scenarios, exit status {status}, {elapsed:.1f}s")
    return status


if __name__ == "__main__":
    sys.exit(main())
