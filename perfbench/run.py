#!/usr/bin/env python3
"""The wrp benchmark.

    python3 perfbench/run.py --workload {canonical,ingest} \
        --seed S --seconds N --trace {0,1}

Run from the root of a source checkout; ``wrp`` is imported from its
``src`` directory, and everything the benchmark writes goes under
``perfbench/work``.  Each workload is a closed loop: one client launches
``python3 -m wrp.cli run --config ...`` and waits for it to exit.

``--trace 0`` measures the end-to-end metrics:

* ``wall_s``, ``cpu_s``, ``peak_rss_mb``: medians over repetitions of
  ``wrp run``, each timed by ``launch.py`` and checked for exit code 0,
  no failed or skipped report and a ``report.json`` byte-identical to the
  first repetition;
* ``unit_s.p50``, ``unit_s.p90``: quantiles over the scenario units of
  each unit's median time among its in-process ``run_suite([unit],
  checks)`` samples (the first pass over all units is also the input
  check, made before any ``wrp run``);
* ``setup_s``: median time of a fresh interpreter that imports
  ``wrp.cli`` and parses the workload's config.

The samples are interleaved over ``--seconds`` seconds (see
:meth:`Bench.measure`).  On a shared machine the speed of the whole
machine drifts by 10-30 % over tens of seconds, which moves these raw
times from one run to the next more than a regression bound can allow.
So a reference loop (fixed interpreter and small-array numpy work that
runs no wrp code, about 10 ms) is timed after every sample, and
``wall_cal_s``, ``cpu_cal_s``, ``unit_cal_s.p50`` and ``unit_cal_s.p90``
are the same statistics of calibrated samples: each sample scaled by
``REF_NOMINAL_S`` over the median of the reference times nearest to it
(see :meth:`Bench.calibrate`).  They are seconds on a machine on which
the reference loop takes ``REF_NOMINAL_S``; a change to wrp moves them
as much as the raw times, unless it also slows the reference loop (say,
by leaving threads at work in the benchmark's process after
``run_suite`` returns), which the raw times would still show.  The
calibrated metrics, ``setup_s`` and
``peak_rss_mb`` go into the final JSON line; the raw times are printed
and kept in the result file.

``--trace 1`` gives the per-layer metrics: the untraced in-process pass,
one ``wrp run``, one in-process ``cli.run`` of the same config with the
tracer installed (its ``report.json`` must equal the untraced one byte
for byte), and the kernel microbenchmarks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric with its unit and sample count.  A result file with
provenance and raw samples goes to ``perfbench/work/results``.  The exit
code is 1 when an output check fails and 2 when the checkout has no wrp
sources.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = Path("perfbench") / "work"  # relative to ROOT, the working directory

SETUP_FIRST = 3  # set-up samples before the first wrp run
SETUP_PER_CYCLE = 1  # and after each
MIN_REPS = 2
UNIT_SHARE = 0.4
REF_NOMINAL_S = 0.010  # see the module docstring
REF_NEIGHBOURS = 3  # reference samples on each side that calibrate a sample
PROCESS_TIMEOUT_S = 150
SETUP_CODE = "import sys, wrp.cli; wrp.cli.parse_config(sys.argv[1])"
# printed and kept in the result file, but not in the final JSON line
PRINTED_ONLY = ("wall_s", "cpu_s", "unit_s.p50", "unit_s.p90", "reference_loop_s")


class CheckFailed(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(args: list[str], log_path: Path) -> dict:
    """Run ``python3 ARG...`` to completion through ``launch.py``: wall
    time, CPU and peak RSS of it and every worker it waited for."""
    out = subprocess.run(
        [sys.executable, str(HERE / "launch.py"), str(log_path), str(PROCESS_TIMEOUT_S), *args],
        cwd=ROOT, env=child_env(), check=True, capture_output=True, text=True,
        timeout=PROCESS_TIMEOUT_S + 10)
    return json.loads(out.stdout)


def reference_loop() -> float:
    """Seconds taken by a fixed piece of interpreter and small-array numpy
    work that runs no wrp code."""
    import numpy as np

    a = np.arange(16.0).reshape(4, 4)
    v = np.ones(4)
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(2000):
        acc += float(np.abs(a @ v).sum()) + i * 0.5
    return time.perf_counter() - t0


def read_report(out_dir: str) -> tuple[dict, str, int]:
    data = (ROOT / out_dir / "report.json").read_bytes()
    return json.loads(data), hashlib.sha256(data).hexdigest(), len(data)


def report_counts(payload: dict) -> tuple[int, int]:
    """(reports attempted, reports failed or skipped)."""
    s = payload["summary"]
    return s["n_pass"] + s["n_fail"] + s["n_skipped"], s["n_fail"] + s["n_skipped"]


def quantile(values, q: float) -> float:
    """The ``q`` quantile by ``statistics.quantiles`` (exclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[round(q * 100) - 1]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float):
        from workloads import WORKLOADS

        self.w = WORKLOADS[workload]
        self.seed, self.seconds = seed, seconds
        self.dir = WORK / workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.info: dict = {}
        self.ref_times: list[float] = []  # start of each reference sample
        self.ref_s: list[float] = []

    def fail(self, msg: str):
        self.errors.append(msg)

    def stop_on_errors(self):
        if self.errors:
            raise CheckFailed

    # -- phases -------------------------------------------------------

    def prepare(self):
        from workloads import build_inputs

        shutil.rmtree(ROOT / self.dir, ignore_errors=True)
        self.inputs = build_inputs(self.w, self.seed, str(self.dir))
        self.info["scenario_seeds"] = self.inputs["seeds"]

    def units(self):
        from wrp.verify import ScenarioUnit

        with open(ROOT / self.inputs["config"], encoding="utf-8") as fh:
            cfg = json.load(fh)
        return ([ScenarioUnit(seed=s) for s in cfg.get("seeds", [])]
                + [ScenarioUnit(path=p) for p in cfg.get("scenarios", [])])

    def ref_sample(self):
        self.ref_times.append(time.perf_counter())
        self.ref_s.append(reference_loop())

    def calibrate(self, mid: float, value: float) -> float:
        """``value``, measured around time ``mid``, scaled by REF_NOMINAL_S
        over the median of the REF_NEIGHBOURS reference samples on each
        side of ``mid``."""
        i = bisect.bisect_left(self.ref_times, mid)
        near = self.ref_s[max(0, i - REF_NEIGHBOURS): i + REF_NEIGHBOURS]
        return value * REF_NOMINAL_S / statistics.median(near)

    def unit_sample(self, unit) -> float:
        """Time one ``run_suite([unit], checks)``, check that every report
        passed, and take a reference sample."""
        from wrp.verify import run_suite

        t0 = time.perf_counter()
        payload = run_suite([unit], self.w.checks)
        dt = time.perf_counter() - t0
        n, bad = report_counts(payload)
        self.attempted += n
        self.failed += bad
        if bad or n == 0:
            self.fail(f"in-process pass: {unit.label()} has {bad} failed or "
                      f"skipped reports of {n}")
        self.unit_times.setdefault(unit.label(), []).append((t0 + dt / 2, dt))
        self.ref_sample()
        return dt

    def unit_pass(self) -> float:
        """Untraced in-process pass over every unit.  It is the input
        check: every unit must load and pass all of its checks."""
        self.unit_list = self.units()
        self.unit_times: dict[str, list[tuple[float, float]]] = {}  # (mid, s)
        self.unit_reports = 0
        total = 0.0
        for unit in self.unit_list:
            before = self.attempted
            total += self.unit_sample(unit)
            self.unit_reports += self.attempted - before
        return total

    def setup_sample(self):
        rec = run_process(["-c", SETUP_CODE, self.inputs["config"]],
                          ROOT / self.dir / "setup.log")
        if rec["exit"] != 0:
            self.fail(f"set-up exited with {rec['exit']}")
            raise CheckFailed
        self.samples.setdefault("setup_s", []).append(rec["wall_s"])
        self.ref_sample()

    def wrp_run(self, k: int) -> dict:
        cfg = self.inputs["config"]
        t0 = time.perf_counter()
        rec = run_process(["-m", "wrp.cli", "run", "--config", cfg],
                          ROOT / self.dir / f"run-{k}.log")
        rec["mid"] = (t0 + time.perf_counter()) / 2
        self.attempted += self.unit_reports
        if rec["exit"] != 0:
            self.failed += 1
            self.fail(f"wrp run {k} exited with {rec['exit']}")
            return rec
        payload, sha, size = read_report(os.path.join(self.dir, "out"))
        n, bad = report_counts(payload)
        self.failed += bad
        rec.update(sha256=sha, run_id=payload["run_id"], reports=n, report_bytes=size)
        if bad or n != self.unit_reports:
            self.fail(f"wrp run {k}: {bad} failed or skipped of {n} reports "
                      f"(in-process pass had {self.unit_reports})")
        first = self.info.setdefault("report_sha256", sha)
        if sha != first:
            self.failed += 1
            self.fail(f"wrp run {k}: report.json differs from the first repetition")
        return rec

    def measure(self) -> dict:
        """The measurement window of ``--seconds`` seconds.

        It opens with the input check (one in-process pass over every
        unit) and a few set-up samples, then runs cycles of one ``wrp
        run``, a set-up sample and in-process unit samples (round robin
        over the units, for UNIT_SHARE of the run's wall time) while the
        next cycle is expected to end inside the window; at least
        MIN_REPS cycles.  A reference sample follows every other sample.
        """
        t_start = time.perf_counter()
        self.unit_pass()
        self.stop_on_errors()
        for _ in range(SETUP_FIRST):
            self.setup_sample()
        runs = []
        nxt = 0
        t_cycles = time.perf_counter()
        while True:
            runs.append(self.wrp_run(len(runs)))
            self.ref_sample()
            for _ in range(SETUP_PER_CYCLE):
                self.setup_sample()
            spent = 0.0
            while (spent < UNIT_SHARE * runs[-1]["wall_s"]
                   and time.perf_counter() - t_start < self.seconds):
                spent += self.unit_sample(self.unit_list[nxt % len(self.unit_list)])
                nxt += 1
            now = time.perf_counter()
            cycle = (now - t_cycles) / len(runs)
            if len(runs) >= MIN_REPS and now + cycle - t_start > self.seconds:
                break
        self.info["runs"] = runs
        s = self.samples
        for key in ("wall_s", "cpu_s", "peak_rss_mb"):
            s[key] = [r[key] for r in runs]
        s["unit_s"] = self.unit_times
        s["reference_s"] = list(zip(self.ref_times, self.ref_s))
        cal = self.calibrate
        per_unit = [statistics.median(dt for _, dt in v) for v in self.unit_times.values()]
        per_unit_cal = [statistics.median(cal(mid, dt) for mid, dt in v)
                        for v in self.unit_times.values()]
        n_unit = sum(len(v) for v in self.unit_times.values())
        n_runs = len(runs)
        return {
            "wall_cal_s": (statistics.median(cal(r["mid"], r["wall_s"]) for r in runs), "s", n_runs),
            "cpu_cal_s": (statistics.median(cal(r["mid"], r["cpu_s"]) for r in runs), "s", n_runs),
            "unit_cal_s.p50": (quantile(per_unit_cal, 0.5), "s", n_unit),
            "unit_cal_s.p90": (quantile(per_unit_cal, 0.9), "s", n_unit),
            "setup_s": (statistics.median(s["setup_s"]), "s", len(s["setup_s"])),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"]), "MB", n_runs),
            "wall_s": (statistics.median(s["wall_s"]), "s", n_runs),
            "cpu_s": (statistics.median(s["cpu_s"]), "s", n_runs),
            "unit_s.p50": (quantile(per_unit, 0.5), "s", n_unit),
            "unit_s.p90": (quantile(per_unit, 0.9), "s", n_unit),
            "reference_loop_s": (statistics.median(self.ref_s), "s", len(self.ref_s)),
        }

    def measure_traced(self) -> dict:
        import kernels
        from layers import layer_metrics
        from tracer import Tracer, wrp_modules

        untraced_s = self.unit_pass()
        self.stop_on_errors()
        run = self.wrp_run(0)
        self.info["runs"] = [run]
        self.stop_on_errors()

        import wrp.cli

        config = wrp.cli.parse_config(str(ROOT / self.inputs["config"]))
        tracer = Tracer(wrp_modules())
        tracer.install()
        try:
            left = tracer.self_check()
            if left:
                self.fail("tracer left unwrapped bindings: " + ", ".join(left))
                raise CheckFailed
            t0 = time.perf_counter()
            code = wrp.cli.run(config)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        if code != 0:
            self.fail(f"traced cli.run exited with {code}")
        payload, sha, size = read_report(config.out)
        n, bad = report_counts(payload)
        self.attempted += n
        self.failed += bad
        if payload["run_id"] != run["run_id"] or sha != run["sha256"]:
            self.fail(f"traced run_id {payload['run_id']} or report.json differs "
                      f"from the untraced run's {run['run_id']}")
        for msg in tracer.count_check():
            self.fail("tracer count check: " + msg)
        self.stop_on_errors()

        spans_path = ROOT / self.dir / "spans.json"
        spans_path.write_text(json.dumps(tracer.spans))
        self.info["spans_file"] = str(self.dir / "spans.json")
        metrics = layer_metrics(
            tracer,
            traced_s=traced_s,
            untraced_s=untraced_s,
            run_wall_s=run["wall_s"],
            reports=n,
            report_bytes=size,
        )
        for name, (value, unit) in kernels.run_kernels().items():
            metrics[name] = (value, unit, 1)
        self.samples["unit_s"] = self.unit_times
        self.info["tracing_overhead"] = metrics["trace.overhead_ratio"][0]
        return metrics


def read_loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else None
    return ref


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "wrp" / "__init__.py").is_file():
        print(f"error: no wrp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    import wrp

    if Path(wrp.__file__).resolve().parent != ROOT / "src" / "wrp":
        print(f"error: imported wrp from {wrp.__file__}, not this checkout", file=sys.stderr)
        return 2

    provenance = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": read_loadavg(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
    }
    bench = Bench(args.workload, args.seed, args.seconds)
    bench.prepare()
    try:
        metrics = bench.measure_traced() if args.trace else bench.measure()
    except CheckFailed:
        metrics = {}
    except Exception as exc:  # a crash of the program under test is a failed check
        traceback.print_exc()
        bench.fail(f"{type(exc).__name__}: {exc}")
        metrics = {}
    provenance["loadavg_end"] = read_loadavg()
    provenance["tracing_overhead"] = bench.info.pop("tracing_overhead", None)
    correct = not bench.errors

    for msg in bench.errors:
        print(f"check failed: {msg}")
    for name, (value, unit, n) in metrics.items():
        print(f"{args.workload}\t{name}\t{value:.6g} {unit}\t(n={n})")
    ratio = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"{args.workload}\tfail_ratio\t{ratio:.6g}\t({bench.failed} of {bench.attempted})")
    if "report_sha256" in bench.info:
        print(f"{args.workload}\treport.json sha256\t{bench.info['report_sha256']}")

    result = {
        "provenance": provenance,
        "correct": correct,
        "errors": bench.errors,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "fail_ratio": ratio,
        "metrics": {k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in metrics.items()},
        "samples": bench.samples,
        **bench.info,
    }
    results = ROOT / WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=1) + "\n")

    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()
                    if k not in PRINTED_ONLY},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
