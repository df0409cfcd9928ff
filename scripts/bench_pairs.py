#!/usr/bin/env python3
"""Interleaved before/after runs of the benchmark, written as one record.

    python3 scripts/bench_pairs.py --before DIR --after DIR --pairs 10 \
        --out BENCH_<label>.json

Each DIR is a source checkout (the directory holding ``src/``,
``perfbench/`` and ``BENCHMARK.json``).  Pair ``i`` runs

    python3 perfbench/run.py --workload W --seed i --seconds S --trace 0

in both checkouts for every workload W of ``BENCHMARK.json``, with S its
``run_seconds``; the before side runs first in even pairs and second in
odd ones.  Afterwards the tier-1 suite is timed once in each checkout.

The record holds every run (its gated metrics, ``correct``, ``fail_ratio``
and ``report.json`` sha256), each side's median and quartiles (the
``statistics.quantiles`` default method) of every gated metric per
workload, the number of pairs the after side won per metric, the tier-1
wall times and the machine it ran on.  Next to each side's git commit
(``null`` outside a git checkout, e.g. for an exported copy) it holds a
sha256 of the side's ``src/**/*.py``, so the record names the code it
measured either way.

Both sides must import wrp compiled the same way: a side whose
``src/wrp/__pycache__`` exists before the first run starts from cached
bytecode, the other compiles wrp in every fresh interpreter (and keeps
doing so under ``PYTHONDONTWRITEBYTECODE``).  The record holds, per side,
whether that directory existed before the first run and the
``PYTHONDONTWRITEBYTECODE`` of the environment the runs get (the same for
both sides); when one side has the directory and the other has not, the
script exits 2 before any run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


def bench_run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    sha = [ln.split("\t")[-1] for ln in lines if "report.json sha256" in ln]
    return {
        "exit_code": proc.returncode,
        "correct": result.get("correct", False),
        "fail_ratio": (result["failed"] / result["attempted"]
                       if result.get("attempted") else None),
        "report_sha256": sha[0] if sha else None,
        "metrics": {k: v["value"] for k, v in result.get("metrics", {}).items()},
    }


def compiled(root: Path) -> dict:
    """How the runs in checkout ``root`` get wrp's bytecode: whether
    ``src/wrp/__pycache__`` exists now, and ``PYTHONDONTWRITEBYTECODE`` of
    the environment passed on to them."""
    return {"pycache": (root / "src" / "wrp" / "__pycache__").is_dir(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def tier1(root: Path) -> dict:
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - t0, "exit_code": proc.returncode,
            "summary": lines[-1] if lines else ""}


def commit(root: Path) -> str | None:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
    return proc.stdout.strip() or None


def source_sha256(root: Path) -> str:
    """sha256 over ``src/**/*.py`` of a checkout: per file in the order of
    the relative paths, the path, the byte count and the bytes."""
    digest = hashlib.sha256()
    files = sorted((p.relative_to(root).as_posix(), p) for p in (root / "src").rglob("*.py"))
    for rel, path in files:
        data = path.read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def cpu_model() -> dict:
    try:
        info = Path("/proc/cpuinfo").read_text()
    except OSError:
        return {}
    fields = dict(line.split(":", 1) for line in info.splitlines() if ":" in line)
    fields = {k.strip(): v.strip() for k, v in fields.items()}
    return {"model": fields.get("model name"),
            "avx512f": "avx512f" in fields.get("flags", "").split()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2: the quartiles need two runs per side")
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    compilation = {side: compiled(path) for side, path in sides.items()}
    if compilation["before"]["pycache"] != compilation["after"]["pycache"]:
        print(f"the two sides are not compiled the same way: {compilation}; remove "
              "src/wrp/__pycache__ from both or build it in both", file=sys.stderr)
        return 2
    spec = json.loads((args.after / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    gated = [m["name"] for m in spec["end_to_end"]]

    runs = []
    for i in range(args.pairs):
        for workload in workloads:
            order = ["before", "after"] if i % 2 == 0 else ["after", "before"]
            for side in order:
                run = bench_run(sides[side], workload, i, spec["run_seconds"])
                run.update(pair=i, workload=workload, side=side)
                runs.append(run)
                print(json.dumps({k: run[k] for k in ("pair", "workload", "side", "correct")}
                                 | {m: run["metrics"].get(m) for m in gated}), flush=True)

    stats = {}
    for workload in workloads:
        stats[workload] = {}
        for metric in gated:
            per_side = {
                side: [r["metrics"][metric] for r in runs
                       if r["side"] == side and r["workload"] == workload]
                for side in sides
            }
            wins = sum(
                a["metrics"][metric] < b["metrics"][metric]
                for a in runs for b in runs
                if a["side"] == "after" and b["side"] == "before"
                and a["workload"] == b["workload"] == workload and a["pair"] == b["pair"]
            )
            stats[workload][metric] = {
                side: summary(values) for side, values in per_side.items()
            } | {"after_wins": wins, "pairs": args.pairs}

    record = {
        "command": "python3 perfbench/run.py --workload W --seed <pair> "
                   f"--seconds {spec['run_seconds']} --trace 0",
        "machine": {
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "cpu": cpu_model(),
        },
        "commits": {side: commit(path) for side, path in sides.items()},
        "sources_sha256": {side: source_sha256(path) for side, path in sides.items()},
        "compiled": compilation,
        "stats": stats,
        "tier1": {side: tier1(path) for side, path in sides.items()},
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    raise SystemExit(main())
