"""The benchmark's tracer still binds to the code.

``perfbench/tracer.py`` wraps wrp's functions from outside, by the names
and tables it knows; a renamed function, or one held where the tracer
cannot replace it, leaves a binding unwrapped or a runner untimed.  Here
the tracer is installed as ``perfbench/run.py`` installs it, every check
runs on the fixture, and each of the nine runners must have been called
through its wrapper, with the tracer's own count checks clean.
"""

import pathlib
import sys

from wrp import verify

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "fixtures" / "scenario_seed0.json"
sys.path.insert(0, str(ROOT))

from perfbench.tracer import RUNNER_NAMES, Tracer, wrp_modules  # noqa: E402


def test_the_tracer_wraps_every_binding_and_times_every_runner():
    tracer = Tracer(wrp_modules())
    tracer.install()
    try:
        assert tracer.self_check() == []
        sc = verify.load_scenario(verify.ScenarioUnit(path=str(FIXTURE)))
        reports = verify.run_scenario_checks(sc)
    finally:
        tracer.uninstall()
    assert {r.check_id for r in reports} == set(verify.ALL_CHECK_IDS)
    assert {name: tracer.calls[f"verify.runner.{name}"] for name in RUNNER_NAMES} == dict.fromkeys(
        RUNNER_NAMES, 1)
    assert set(RUNNER_NAMES) == set(verify.RUNNERS)
    assert tracer.count_check() == []
