"""Command-line front end: configuration ingestion, suite execution and
report persistence.

Subcommands:
  run          execute the check suite over seeds and/or scenario files
  list-checks  print every check id with its registry statement
  explain      print the stored statement and hypothesis list of one id

Reports are deterministic: the same configuration writes byte-identical
report.json.  Exit codes: 0 all passed, 1 bad usage or a malformed
configuration or scenario, 2 any check failed, 3 only precondition skips
occurred (0 instead when the config sets skips_ok, 2 with
--strict-preconditions), 4 on I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, WrpError
from .verify import ALL_CHECK_IDS, CHECK_REGISTRY, ScenarioUnit, is_finite_number, run_suite


@dataclass(frozen=True)
class RunConfig:
    """One run; its fields are the keys of a configuration document."""

    seeds: tuple[int, ...] = ()
    scenarios: tuple[str, ...] = ()
    checks: tuple[str, ...] | None = None  # None means "all"
    out: str = "out"
    jobs: int = 1
    strict_preconditions: bool = False
    skips_ok: bool = False
    histogram: bool = False
    tolerances: tuple[tuple[str, float], ...] = ()


def parse_config(doc) -> RunConfig:
    """Validate a configuration document (dict, JSON text, or file path).

    Unknown fields, unknown check ids and malformed values are rejected
    with JSON-pointer style paths; numbers follow the scenario reader's
    rule, :func:`~wrp.verify.is_finite_number`.
    """
    if isinstance(doc, (str, os.PathLike)) and os.path.exists(doc):
        with open(doc, "r", encoding="utf-8") as fh:
            doc = fh.read()
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("/: configuration must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ConfigError(f"/{sorted(unknown)[0]}: unknown field")
    seeds = doc.get("seeds", [])
    if not isinstance(seeds, list) or not all(is_finite_number(s, int) for s in seeds):
        raise ConfigError("/seeds: must be a list of integers")
    scenarios = doc.get("scenarios", [])
    if not isinstance(scenarios, list) or any(
        not isinstance(p, str) for p in scenarios
    ):
        raise ConfigError("/scenarios: must be a list of file paths")
    checks = doc.get("checks", "all")
    if checks == "all":
        selected = None
    elif isinstance(checks, list):
        for k, cid in enumerate(checks):
            if cid not in ALL_CHECK_IDS:
                raise ConfigError(f"/checks/{k}: unknown check id {cid!r}")
        selected = tuple(checks)
    else:
        raise ConfigError('/checks: must be "all" or a list of check ids')
    jobs = doc.get("jobs", 1)
    if not is_finite_number(jobs, int) or jobs < 1:
        raise ConfigError("/jobs: must be a positive integer")
    tolerances = doc.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("/tolerances: must map check ids to numbers")
    for cid, val in tolerances.items():
        if cid not in ALL_CHECK_IDS:
            raise ConfigError(f"/tolerances/{cid}: unknown check id")
        if not is_finite_number(val) or val < 0:
            raise ConfigError(f"/tolerances/{cid}: must be a finite nonnegative number")
    for flag in ("strict_preconditions", "skips_ok", "histogram"):
        if flag in doc and not isinstance(doc[flag], bool):
            raise ConfigError(f"/{flag}: must be a boolean")
    out = doc.get("out", "out")
    if not isinstance(out, str):
        raise ConfigError("/out: must be a path string")
    return RunConfig(
        seeds=tuple(seeds),
        scenarios=tuple(scenarios),
        checks=selected,
        out=out,
        jobs=jobs,
        strict_preconditions=bool(doc.get("strict_preconditions", False)),
        skips_ok=bool(doc.get("skips_ok", False)),
        histogram=bool(doc.get("histogram", False)),
        tolerances=tuple(sorted((k, float(v)) for k, v in tolerances.items())),
    )


def emit_config(config: RunConfig) -> dict:
    """The JSON form of a config; parse(emit(c)) == c."""
    doc = {}
    for f in fields(config):
        v = getattr(config, f.name)
        doc[f.name] = list(v) if isinstance(v, tuple) else v
    if config.checks is None:
        doc["checks"] = "all"
    doc["tolerances"] = dict(config.tolerances)
    return doc


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".wrp-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run(config: RunConfig) -> int:
    """Execute the suite and persist report.json plus margins.csv."""
    units = [ScenarioUnit(seed=s) for s in config.seeds] + [
        ScenarioUnit(path=p) for p in config.scenarios
    ]
    if not units:
        raise ConfigError("no seeds or scenario files selected")
    payload = run_suite(
        units, config.checks, jobs=config.jobs, tolerances=config.tolerances
    )
    payload["config"] = emit_config(config)
    try:
        os.makedirs(config.out, exist_ok=True)
        _atomic_write(
            os.path.join(config.out, "report.json"),
            json.dumps(payload, sort_keys=True, indent=1) + "\n",
        )
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["scenario", "check_id", "status", "lhs", "rhs", "margin"])
        for scenario in payload["scenarios"]:
            for check in scenario["checks"]:
                writer.writerow(
                    [
                        scenario["name"],
                        check["check_id"],
                        check["status"],
                        repr(check["lhs"]),
                        repr(check["rhs"]),
                        repr(check["margin"]),
                    ]
                )
        _atomic_write(os.path.join(config.out, "margins.csv"), buf.getvalue())
        if config.histogram:
            hbuf = io.StringIO()
            hw = csv.writer(hbuf)
            hw.writerow(["check_id", "margin"])
            for scenario in payload["scenarios"]:
                for check in scenario["checks"]:
                    if check["status"] != "skipped-precondition":
                        hw.writerow([check["check_id"], repr(check["margin"])])
            _atomic_write(os.path.join(config.out, "margins_hist.csv"), hbuf.getvalue())
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 4
    summary = payload["summary"]
    if summary["n_fail"] > 0:
        return 2
    if summary["n_skipped"] > 0:
        if config.strict_preconditions:
            return 2
        return 0 if config.skips_ok else 3
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wrp",
        description="verified operator calculus on weighted restricted products",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the check suite")
    p_run.add_argument("--config", help="JSON configuration file")
    p_run.add_argument(
        "--seed",
        type=int,
        action="append",
        default=None,
        help="generator seed (repeatable)",
    )
    p_run.add_argument("--checks", help="comma-separated check ids (default all)")
    p_run.add_argument("--out", help="output directory")
    p_run.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_run.add_argument(
        "--strict-preconditions",
        action="store_true",
        help="treat precondition skips as failures",
    )
    sub.add_parser("list-checks", help="print all check ids with statements")
    p_explain = sub.add_parser("explain", help="describe one check id")
    p_explain.add_argument("check_id")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-checks":
        for cid in ALL_CHECK_IDS:
            print(f"{cid}\t{CHECK_REGISTRY[cid].statement}")
        return 0
    if args.command == "explain":
        info = CHECK_REGISTRY.get(args.check_id)
        if info is None:
            print(f"unknown check id {args.check_id!r}", file=sys.stderr)
            return 1
        print(args.check_id)
        print(f"  statement: {info.statement}")
        if info.hypotheses:
            print("  hypotheses:")
            for h in info.hypotheses:
                print(f"    - {h}")
        else:
            print("  hypotheses: none")
        return 0
    # run
    try:
        base = parse_config(args.config) if args.config else RunConfig()
        seeds = tuple(args.seed) if args.seed else base.seeds
        if not seeds and not base.scenarios:
            env = os.environ.get("WRP_SEED")
            seeds = (int(env),) if env else (0,)
        checks = base.checks
        if args.checks:
            checks = tuple(args.checks.split(","))
            for cid in checks:
                if cid not in ALL_CHECK_IDS:
                    raise ConfigError(f"unknown check id {cid!r}")
        return run(replace(
            base,
            seeds=seeds,
            checks=checks,
            out=args.out or base.out,
            jobs=args.jobs or base.jobs,
            strict_preconditions=args.strict_preconditions or base.strict_preconditions,
        ))
    except WrpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
