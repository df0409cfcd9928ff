#!/usr/bin/env python3
"""Run ``wrp run`` under six CPU-dispatch environments and compare ``run_id``.

    python3 scripts/same_bytes.py [--fixture-only]

Inputs: seeds 0..9 in one run (``--seed 0 ... --seed 9``) and
``fixtures/scenario_seed0.json``; ``--fixture-only`` runs the fixture
alone.  Each input runs once plainly and once under each of these
variables, set only in the child process's environment:

- ``OPENBLAS_CORETYPE`` = ``Haswell``, ``Sandybridge`` and ``Prescott``
  (OpenBLAS kernel choice);
- ``GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA`` (glibc's libm variants);
- ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"`` (numpy's
  SIMD dispatch).

No machine setting changes.  Every run starts in the checkout's root and
names the fixture by its relative path, so the fixture's ``run_id`` is
the one ``tests/test_golden.py`` pins.  The script prints one line per
input and environment with its ``run_id`` and exits 1 if a run fails or
an input gets more than one ``run_id``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = "fixtures/scenario_seed0.json"  # relative to ROOT
ENVIRONMENTS = {
    "plain": {},
    "openblas-haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "openblas-sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "glibc-no-avx2-fma": {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-AVX2,-FMA"},
    "numpy-no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
}


def run_id(args: list[str], extra_env: dict, out: Path) -> str | None:
    """The ``run_id`` of ``wrp run`` with ``args`` under ``extra_env``, or
    None (with the child's stderr printed) when it does not exit 0."""
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "wrp.cli", "run", *args, "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads((out / "report.json").read_text(encoding="utf-8"))["run_id"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--fixture-only", action="store_true", help="run the fixture alone")
    args = ap.parse_args()
    inputs = {"fixture": None}
    if not args.fixture_only:
        inputs = {"seeds-0-9": [a for s in range(10) for a in ("--seed", str(s))], **inputs}
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if "fixture" in inputs:
            cfg = tmp / "config.json"
            cfg.write_text(json.dumps({"scenarios": [FIXTURE]}), encoding="utf-8")
            inputs["fixture"] = ["--config", str(cfg)]
        for name, run_args in inputs.items():
            ids = set()
            for env_name, extra in ENVIRONMENTS.items():
                rid = run_id(run_args, extra, tmp / f"{name}-{env_name}")
                print(f"{name}\t{env_name}\t{rid}")
                ids.add(rid)
            if None in ids or len(ids) > 1:
                print(f"{name}: {len(ids - {None})} run_id(s), "
                      f"{'a run failed' if None in ids else 'expected one'}", file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
