"""Workload inputs, generated from the workload seed with public wrp
functions only.

Every workload uses scenarios in the class mix of the canonical seeds
0..9, where a scenario's class is (dimension, number of factors).  Work
per scenario depends mostly on its class (a 2-D, 3-factor scenario costs
about three times a 1-D, 2-factor one), so a plain window of ten seeds
varies by up to half in total work from one workload seed to the next;
fixing the mix keeps the work of a run steady across workload seeds.
Workload seed 0 of ``canonical`` is exactly the canonical seeds 0..9 in
order.  Every run is at one job.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Workload:
    checks: tuple[str, ...] | None  # None means all checks
    copies: int  # scenarios = copies x the ten-scenario class mix
    first_seed: int  # scenario seeds start at first_seed + stride * S
    stride: int
    files: bool  # scenario files (loaded by the program) or generator seeds


WORKLOADS = {
    "canonical": Workload(None, 1, 0, 10, False),
    "ingest": Workload(("cond:adjusting_weight",), 3, 100, 30, True),
}


def scenario_class(seed: int) -> tuple[int, int]:
    """(dimension, number of factors) that ``generate_scenario(seed)`` will
    have, from the generator's first two draws at the default
    ``ScenarioSeed``.

    Generating a scenario takes about 0.1 s and finding the seeds of one
    workload seed looks at up to about 150 of them, so the class is
    predicted from the draws; :func:`build_inputs` checks the prediction
    against every scenario the workload uses, in both workloads.
    """
    if seed == 0:
        return (1, 2)
    rng = np.random.default_rng(seed)
    dim = int(rng.choice([1, 1, 1, 2]))
    return dim, int(rng.integers(2, 5))


CLASS_PATTERN = tuple(scenario_class(s) for s in range(10))


def pick_seeds(start: int, copies: int) -> list[int]:
    """Scenario seeds from ``start`` upward that repeat the class sequence
    of seeds 0..9 ``copies`` times."""
    pattern = CLASS_PATTERN * copies
    need = defaultdict(int)
    for c in pattern:
        need[c] += 1
    found = defaultdict(list)
    seed = start
    while any(len(found[c]) < k for c, k in need.items()):
        c = scenario_class(seed)
        if len(found[c]) < need[c]:
            found[c].append(seed)
        seed += 1
    queues = {c: iter(v) for c, v in found.items()}
    return [next(queues[c]) for c in pattern]


def build_inputs(w: Workload, workload_seed: int, work_dir: str) -> dict:
    """Write the workload's scenario files (if any) and its config.

    Returns the config path and the scenario seeds used.  Paths are
    relative to the checkout root, which is the working directory, so the
    reports are byte-identical between checkouts.
    """
    from wrp.verify import generate_scenario, scenario_to_dict

    seeds = pick_seeds(w.first_seed + w.stride * workload_seed, w.copies)
    os.makedirs(os.path.join(work_dir, "inputs") if w.files else work_dir, exist_ok=True)
    paths = []
    for seed in seeds:
        sc = generate_scenario(seed)
        if (sc.dim, sc.n_factors) != scenario_class(seed):
            raise RuntimeError(f"scenario seed {seed}: class is {(sc.dim, sc.n_factors)}, "
                               f"predicted {scenario_class(seed)}")
        if w.files:
            path = os.path.join(work_dir, "inputs", f"scenario-{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario_to_dict(sc), fh)
            paths.append(path)
    config = {
        "checks": list(w.checks) if w.checks else "all",
        "jobs": 1,
        "out": os.path.join(work_dir, "out"),
        **({"scenarios": paths} if w.files else {"seeds": seeds}),
    }
    path = os.path.join(work_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh, indent=1)
    return {"seeds": seeds, "config": path}
