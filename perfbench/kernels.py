"""Kernel microbenchmarks on fixed inputs (independent of the workload
seed), timed untraced.  Each figure is the median over five batches of
the time per call; a batch repeats the call for at least 20 ms."""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np

MIN_BATCH_S = 0.02
BATCHES = 5


def per_call(fn) -> float:
    """Median seconds per call of ``fn()``."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        if time.perf_counter() - t0 >= MIN_BATCH_S:
            break
        n *= 2
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        times.append((time.perf_counter() - t0) / n)
    return statistics.median(times)


def _poly(m: int, out_dim: int = 2, degree: int = 4):
    """Every monomial of degree 1..4 in ``m`` variables, fixed coefficients."""
    from wrp.jets import PolynomialMap
    from wrp.spaces import box

    rng = np.random.default_rng(12345)
    powers = [p for p in itertools.product(range(degree + 1), repeat=m)
              if 1 <= sum(p) <= degree]
    terms = [(rng.uniform(-1.0, 1.0, size=out_dim), p) for p in powers]
    return PolynomialMap(box([-1.0] * m, [1.0] * m), terms)


def run_kernels() -> dict[str, tuple[float, str]]:
    from wrp.jets import MultilinearMap, PolynomialMap, op_norm
    from wrp.operators import ContractionConfig, InverseMap
    from wrp.seminorms import WeightedFunction, lattice, weighted_seminorm
    from wrp.spaces import box, gaussian_weight
    from wrp.verify import generate_scenario, scenario_from_dict, scenario_to_dict

    out: dict[str, tuple[float, str]] = {}
    for m in (1, 2):
        pm = _poly(m)
        x = np.array([0.3, -0.2][:m])
        for ell in range(4):
            out[f"kernel.poly_tensor_us.l{ell}.m{m}"] = (
                1e6 * per_call(lambda: pm.tensor(x, ell)), "us")

    rng = np.random.default_rng(12345)
    for d in (4, 8, 12, 16):
        # an order-4 map with four arguments of dimension d/4, the shape of
        # a fourth derivative tensor
        t = MultilinearMap(rng.uniform(-1.0, 1.0, size=(2,) + (d // 4,) * 4), 1)
        out[f"kernel.op_norm_us.d{d}"] = (1e6 * per_call(lambda: op_norm(t)), "us")

    dom = box([-1.0, -1.0], [1.0, 1.0])
    pm2 = _poly(2)
    weight = gaussian_weight("gauss", 0.5, dom)
    for per_axis, n_points in ((3, 9), (9, 81), (30, 900)):
        wf = WeightedFunction(pm2, lattice(dom, per_axis=per_axis), 2)
        if len(wf.grid) != n_points:
            raise RuntimeError(f"grid has {len(wf.grid)} points, not {n_points}")
        out[f"kernel.weighted_seminorm_ms.p{n_points}"] = (
            1e3 * per_call(lambda: weighted_seminorm(wf, weight, 1)), "ms")

    u, v = box([-1.0], [1.0]), box([-0.5], [0.5])
    phi = PolynomialMap(u, [(np.array([0.1]), (2,)), (np.array([0.05]), (1,))])
    inv = InverseMap(phi, u, v, ContractionConfig(tau=0.5, r=1.0))
    ys = (np.array([0.45 * np.sin(k)]) for k in itertools.count())  # all distinct
    out["kernel.solve_us"] = (1e6 * per_call(lambda: inv.solve(next(ys))), "us")

    sc = generate_scenario(0)
    out["kernel.scenario_roundtrip_ms"] = (
        1e3 * per_call(lambda: scenario_from_dict(scenario_to_dict(sc))), "ms")
    return out
