"""Per-layer metrics from one traced pass.

Layers are the wrp modules.  A ``self_s`` figure is the time spent in the
named functions minus the time in wrapped calls made from them; the
reported self times plus ``trace.unattributed_s`` add up to
``trace.wall_s``, the traced pass's wall time.
"""

from __future__ import annotations

from tracer import LAYERS, RUNNER_NAMES, TENSOR_CLASSES, UNREPORTED_KEYS


def layer_metrics(tr, *, traced_s, untraced_s, run_wall_s, reports,
                  report_bytes) -> dict[str, tuple]:
    """``untraced_s`` is the untraced in-process pass (the sum of the units'
    times), ``run_wall_s`` the wall time of one ``wrp run`` (at one job)."""
    S, C, K = tr.self_s, tr.calls, tr.counters
    m: dict[str, tuple] = {}

    def put(name, value, unit):
        m[name] = (value, unit, 1)

    put("verify.generate.self_s", S["verify.generate"], "s")
    put("verify.validate.self_s", S["verify.validate"], "s")
    put("verify.load.self_s", S["verify.load"], "s")
    for r in RUNNER_NAMES:
        put(f"verify.runner.{r}.self_s", S[f"verify.runner.{r}"], "s")
    put("verify.reports", reports, "count")
    put("verify.parallel_efficiency", untraced_s / run_wall_s, "1")

    for cls in TENSOR_CLASSES + ("other",):
        put(f"jets.tensor.{cls}.calls", C[f"jets.tensor.{cls}"], "count")
        put(f"jets.tensor.{cls}.self_s", S[f"jets.tensor.{cls}"], "s")
    put("jets.op_norm.calls", C["jets.op_norm"], "count")
    put("jets.op_norm.self_s", S["jets.op_norm"], "s")
    put("jets.op_norm.vertices", K["jets.op_norm.vertices"], "count")
    for key in ("compose_tensor", "validate_jet_map", "crude_sup_bound"):
        put(f"jets.{key}.self_s", S[f"jets.{key}"], "s")

    put("seminorms.weighted_seminorm.calls", C["seminorms.weighted_seminorm"], "count")
    put("seminorms.weighted_seminorm.self_s", S["seminorms.weighted_seminorm"], "s")
    put("seminorms.points", K["seminorms.points"], "count")
    put("seminorms.lattice.self_s", S["seminorms.lattice"], "s")

    put("spaces.weight.calls", C["spaces.weight"], "count")
    put("spaces.weight.self_s", S["spaces.weight"], "s")
    put("spaces.dominance.self_s", S["spaces.dominance"], "s")

    for key in ("superpose", "compose_perturbed", "invert_perturbed"):
        put(f"operators.{key}.self_s", S[f"operators.{key}"], "s")
    put("operators.solve.calls", C["operators.solve"], "count")
    put("operators.solve.self_s", S["operators.solve"], "s")
    put("operators.solve.reuse_ratio", tr.solve_reuse_ratio(), "1")
    put("operators.fixed_point_iters", K["operators.fixed_point_iters"], "count")
    put("operators.fd_checks.self_s", S["operators.fd_checks"], "s")

    put("restricted.family_seminorm.calls", C["restricted.family_seminorm"], "count")
    put("restricted.family_seminorm.self_s", S["restricted.family_seminorm"], "s")
    put("restricted.sim.self_s", S["restricted.sim"], "s")

    put("report.bound_report.calls", C["report.bound_report"], "count")
    put("report.self_s", S["report.bound_report"] + S["report.other"], "s")

    put("cli.write.self_s", S["cli.write"], "s")
    put("cli.report_bytes", report_bytes, "bytes")

    for layer in LAYERS:
        put(f"{layer}.errors", tr.errors[layer], "count")

    attributed = sum(v for k, v in S.items() if k not in UNREPORTED_KEYS)
    put("trace.wall_s", traced_s, "s")
    put("trace.unattributed_s", traced_s - attributed, "s")
    put("trace.overhead_ratio", traced_s / untraced_s, "1")
    return m
