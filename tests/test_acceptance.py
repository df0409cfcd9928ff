"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints one pass/fail line (immediately, bypassing capture) so a
suite run shows the acceptance status at a glance.
"""

import itertools
import json
import math
import time

import numpy as np

from wrp.cli import RunConfig, run
from wrp.jets import (
    AffineMap,
    ConstMap,
    MultilinearMap,
    PairMap,
    PolynomialMap,
    TrigPolynomialMap,
    op_norm,
)
from wrp.operators import (
    NEUMANN_TAIL,
    ContractionConfig,
    InverseMap,
    gated_inverse,
    invert_perturbed,
    inversion_jacobian_check,
    neumann_terms,
    quasi_inverses,
    superpose_derivative_check,
)
from wrp.restricted import (
    RestrictedElement,
    cauchy_limit_check,
    family_seminorm,
    lipschitz_bound_check,
    neighborhood_inclusion_check,
    product_iso_roundtrip,
)
from wrp.seminorms import (
    WeightedFunction,
    decomposition_checks,
    lattice,
    weighted_seminorm,
)
from wrp.spaces import FamilyWeight, ball, box, const_weight, gaussian_weight
from wrp.verify import (
    ALL_CHECK_IDS,
    ScenarioSeed,
    generate_scenario,
    run_scenario_checks,
    sabotage_superposition,
    sabotaged_inclusion_instance,
)

ONE = const_weight("one", 1.0)


def announce(capsys, number, text, ok):
    with capsys.disabled():
        print(f"[acceptance {number:>2}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok


def brute_norm_lower_bound(entries, rng, n_random):
    """Independent oracle: explicit maximization over every sign-vertex
    tuple plus random arguments in the unit ball."""
    entries = np.asarray(entries, float)
    dims = entries.shape[1:]

    def apply_args(args):
        v = entries
        for a in args:
            v = np.tensordot(v, a, axes=(1, 0))
        return float(np.max(np.abs(v)))

    best = 0.0
    for combo in itertools.product(
        *[
            [np.array(s, float) for s in itertools.product((1.0, -1.0), repeat=d)]
            for d in dims
        ]
    ):
        best = max(best, apply_args(combo))
    ratios = []
    for _ in range(n_random):
        args = [rng.uniform(-1, 1, size=d) for d in dims]
        norms = [np.max(np.abs(a)) for a in args]
        if min(norms) < 1e-9:
            continue
        ratios.append(apply_args(args) / float(np.prod(norms)))
    return best, ratios


def test_criterion_1_operator_norm_exactness(capsys):
    rng = np.random.default_rng(2024)
    t0 = time.time()
    n_tensors = 1000
    worst_gap = 0.0
    worst_excess = 0.0
    for _ in range(n_tensors):
        order = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        entries = rng.normal(size=(n,) + (m,) * order)
        norm = op_norm(MultilinearMap(entries, 1))
        lower, ratios = brute_norm_lower_bound(entries, rng, 10)
        worst_gap = max(worst_gap, abs(norm - lower))
        for r in ratios:
            worst_excess = max(worst_excess, r - norm)
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-9 and worst_excess <= 1e-9 and elapsed < 30.0
    announce(
        capsys, 1,
        f"operator-norm exactness on {n_tensors} tensors "
        f"(gap {worst_gap:.1e}, excess {worst_excess:.1e}, {elapsed:.1f}s)",
        ok,
    )


def _builtin_fixture_maps():
    maps = []
    d1 = box([-1.0], [1.0])
    d2 = box([-1.0, -0.8], [1.0, 0.8])
    g1 = lattice(d1, per_axis=9)
    g2 = lattice(d2, per_axis=5)
    rng = np.random.default_rng(7)
    for _ in range(6):
        maps.append(
            WeightedFunction(
                PolynomialMap(
                    d1, [(rng.normal(size=1), (int(k),)) for k in rng.integers(0, 4, 3)]
                ),
                g1, 3,
            )
        )
    for _ in range(5):
        maps.append(
            WeightedFunction(
                TrigPolynomialMap(
                    d1, [(rng.normal(size=1), rng.uniform(-2, 2, 1), float(rng.uniform(0, 3)))]
                ),
                g1, 3,
            )
        )
    for _ in range(5):
        maps.append(
            WeightedFunction(
                PolynomialMap(
                    d2,
                    [
                        (rng.normal(size=2), tuple(rng.integers(0, 2, 2))),
                        (rng.normal(size=2), tuple(rng.integers(1, 3, 2))),
                    ],
                ),
                g2, 3,
            )
        )
    for _ in range(4):
        maps.append(
            WeightedFunction(AffineMap(d2, rng.normal(size=(2, 2)), rng.normal(size=2)), g2, 3)
        )
    return maps


def test_criterion_2_reduction_identity(capsys):
    maps = _builtin_fixture_maps()
    assert len(maps) >= 20
    worst = 0.0
    weights = [ONE, gaussian_weight("gauss", 0.6, box([-1.0], [1.0]))]
    for w in weights:
        for ell in (0, 1):
            for rep in decomposition_checks(maps, [w] * len(maps), ell, tolerance=1e-12):
                worst = max(worst, rep.lhs)
    # family version over the generated scenarios
    for seed in range(3):
        sc = generate_scenario(seed)
        fw = sc.fw("gauss")
        for ell in (0, 1):
            lhs = family_seminorm(sc.comp_gammas, fw, ell + 1).value
            diffs = RestrictedElement(
                tuple(f.differential() for f in sc.comp_gammas.factors)
            )
            rhs = family_seminorm(diffs, fw, ell).value
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-12
    announce(
        capsys, 2,
        f"reduction identity on {len(maps)} maps and 3 families "
        f"(worst deviation {worst:.1e})",
        ok,
    )


SUPERPOSITION_IDS = (
    "est:f0-Norm_SPid",
    "est:f0-Norm_SPid-Differenz",
    "est:f1-Norm_SPid",
)


def test_criterion_3_superposition_estimates(capsys):
    t0 = time.time()
    worst = math.inf
    for seed in range(100):
        spec = ScenarioSeed(seed, max_factors=8 if seed % 10 == 0 else 4)
        sc = generate_scenario(spec)
        for rep in run_scenario_checks(sc, SUPERPOSITION_IDS):
            assert rep.status == "pass", (seed, rep.check_id, rep.margin)
            worst = min(worst, rep.margin)
    controls = sabotage_superposition()
    control_failed = any(r.status == "fail" for r in controls)
    elapsed = time.time() - t0
    ok = worst >= -1e-9 and control_failed and elapsed < 60.0
    announce(
        capsys, 3,
        f"superposition estimates over 100 scenarios "
        f"(worst margin {worst:.2e}, negative control fails, {elapsed:.1f}s)",
        ok,
    )


def test_criterion_4_superposition_derivative(capsys):
    n_slope = n_exact = 0
    for seed in range(50):
        sc = generate_scenario(seed)
        rep = superpose_derivative_check(sc.xis[0], sc.gammas[0], sc.gamma_dirs[0])
        assert rep.status == "pass", (seed, rep.detail)
        if "exactness" in rep.detail:
            n_exact += 1
        else:
            assert 1.7 <= rep.lhs <= 2.3
            n_slope += 1
    announce(
        capsys, 4,
        f"superposition derivative on 50 instances "
        f"({n_slope} slope-branch, {n_exact} exact-branch)",
        True,
    )


def test_criterion_5_inversion(capsys):
    worst_residual = 0.0
    worst_margin = math.inf
    worst_jac = 0.0
    for seed in range(50):
        sc = generate_scenario(seed)
        cfg = sc.contraction
        assert cfg.tau == 0.5 and cfg.fix_tol == 1e-12
        fs0 = sc.factors[0]
        inv = gated_inverse(sc.phis[0], fs0.u, fs0.v_tilde, cfg)
        res, reports = invert_perturbed(
            sc.phis[0], inv, fs0.grid_vt, [sc.fw("one").factors[0], sc.fw("gauss").factors[0]],
        )
        for rep in reports:
            assert rep.status == "pass", (seed, rep.check_id)
            if "residual" in rep.detail:
                worst_residual = max(worst_residual, rep.lhs)
            if rep.check_id.startswith("est:"):
                worst_margin = min(worst_margin, rep.margin)
        probes = fs0.grid_vt.points[:: max(1, len(fs0.grid_vt) // 3)]
        jac = inversion_jacobian_check(inv, probes)
        assert jac.status == "pass"
        worst_jac = max(worst_jac, jac.lhs)
    # closed-form linear cases through the operator-domain gate
    closed_dev = 0.0
    u, v = box([-2.0], [2.0]), box([-0.5], [0.5])
    for c in (0.05, 0.1, 0.15):
        phi = WeightedFunction(
            AffineMap(u, [[c]]), lattice(u, spacing=0.25), 2,
            (("one", 0, 2 * c), ("one", 1, c)),
        )
        cfg = ContractionConfig(tau=0.5, r=1.5, fix_tol=1e-13)
        res, _ = invert_perturbed(phi, gated_inverse(phi, u, v, cfg), lattice(v, spacing=0.1))
        ys = res.grid.points
        got = res.map.tensors(ys, 0)[:, 0]
        closed_dev = max(closed_dev, float(np.max(np.abs(got - (-c / (1 + c) * ys[:, 0])))))
    # and directly for the steeper slope the sup condition cannot admit
    inv = InverseMap(
        AffineMap(u, [[0.4]]), u, v, ContractionConfig(tau=0.5, r=0.5, fix_tol=1e-13)
    )
    closed_dev = max(
        closed_dev, abs(inv.tensors(np.array([[0.35]]), 0)[0, 0] - (-0.4 / 1.4 * 0.35))
    )
    ok = (
        worst_residual <= 2e-12
        and worst_margin >= -1e-9
        and worst_jac <= 1e-6
        and closed_dev <= 1e-12
    )
    announce(
        capsys, 5,
        f"inversion on 50 scenarios (residual {worst_residual:.1e}, "
        f"est margin {worst_margin:.1e}, jacobian {worst_jac:.1e}, "
        f"closed forms {closed_dev:.1e})",
        ok,
    )


def _inf_norm(a: np.ndarray) -> float:
    """The matrix norm induced by the sup norm: the largest absolute row sum."""
    return float(np.abs(a).sum(axis=1).max())


def test_criterion_6_quasi_inverse(capsys):
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        raw = rng.normal(size=(d, d))
        q_target = float(rng.uniform(0.1, 0.8))
        a = raw / _inf_norm(raw) * q_target
        qi = quasi_inverses(a[None])[0]
        worst = max(worst, _inf_norm(a + qi - a @ qi))
    n_half = neumann_terms(0.5)
    ok = worst <= 2 * NEUMANN_TAIL and n_half <= 42
    announce(
        capsys, 6,
        f"quasi-inverse relation on 100 operators "
        f"(worst residual {worst:.1e}, N(q=0.5) = {n_half})",
        ok,
    )


def test_criterion_7_restricted_product_structure(capsys):
    rng = np.random.default_rng(4)
    u = box([-1.0], [1.0])
    grid = lattice(u, spacing=0.1)
    one = const_weight("one", 1.0)

    def random_element(n):
        return RestrictedElement(
            tuple(
                WeightedFunction(
                    PolynomialMap(
                        u,
                        [
                            (rng.normal(size=1), (1,)),
                            (rng.normal(size=1), (int(rng.integers(0, 3)),)),
                        ],
                    ),
                    grid, 2,
                )
                for _ in range(n)
            )
        )

    dev = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 6))
        elem = random_element(n)
        fw = FamilyWeight("one", tuple(one for _ in range(n)))
        fam = family_seminorm(elem, fw, 0)
        explicit = max(
            weighted_seminorm(elem[i], one, 0).value for i in range(n)
        )
        dev = max(dev, abs(fam.value - explicit))
        order = rng.permutation(n)
        perm = RestrictedElement(tuple(elem.factors[i] for i in order))
        dev = max(dev, abs(family_seminorm(perm, fw, 0).value - fam.value))
        padded = RestrictedElement(
            elem.factors + (WeightedFunction(ConstMap(u, [0.0]), grid, 2),)
        )
        fw_pad = FamilyWeight("one", tuple(one for _ in range(n + 1)))
        dev = max(dev, abs(family_seminorm(padded, fw_pad, 0).value - fam.value))
    exact_max = dev == 0.0

    paired = RestrictedElement(
        tuple(
            WeightedFunction(
                PairMap(
                    [
                        PolynomialMap(u, [(rng.normal(size=1), (1,))]),
                        PolynomialMap(u, [(rng.normal(size=1), (2,))]),
                    ]
                ),
                grid, 2,
            )
            for _ in range(3)
        )
    )
    fw3 = FamilyWeight("one", (one, one, one))
    iso = product_iso_roundtrip(paired, fw3, 1)

    scales = [1.0, 0.5, 0.25]
    elem = RestrictedElement(
        tuple(
            WeightedFunction(
                PolynomialMap(u, [([s], (1,))]), grid, 2, (("one", 0, s),)
            )
            for s in scales
        )
    )
    lip = lipschitz_bound_check(
        lambda t: elem.scaled(math.sin(t)), [0.0, 0.5, 1.1, 1.7], fw3, 0, scales
    )

    n100 = 100
    base = RestrictedElement(
        tuple(
            WeightedFunction(PolynomialMap(u, [([1.0], (1,))]), grid, 2)
            for _ in range(n100)
        )
    )
    fw100 = FamilyWeight("one", tuple(one for _ in range(n100)))
    cauchy = cauchy_limit_check(
        [base.scaled(2.0 - 2.0 ** (-k)) for k in range(8)],
        base.scaled(2.0),
        fw100, 0,
        increment_envelope=lambda k: 2.0 ** (-(k + 1)) * 0.9,
        tail_envelope=lambda k: 2.0 ** (-k) * 0.9,
    )
    ok = (
        exact_max
        and iso.status == "pass"
        and lip.status == "pass" and lip.margin >= 0
        and cauchy.status == "pass" and cauchy.margin >= -1e-12
    )
    announce(
        capsys, 7,
        f"restricted-product structure (100 elements exact, iso "
        f"{iso.status}, lipschitz {lip.margin:.2e}, cauchy {cauchy.margin:.1e})",
        ok,
    )


def test_criterion_8_neighborhood_inclusion(capsys):
    worst = math.inf
    for seed in range(50):
        sc = generate_scenario(seed)
        rep = neighborhood_inclusion_check(
            sc.gammas, sc.fw("omega"), [fs.v for fs in sc.factors], sc.tau_nb
        )
        assert rep.status == "pass", seed
        worst = min(worst, rep.margin)
    eta, bad_omega, v_domains, tau_star = sabotaged_inclusion_instance()
    control = neighborhood_inclusion_check(eta, bad_omega, v_domains, 1.3 * tau_star)
    ok = worst >= 0.0 and control.status == "fail"
    announce(
        capsys, 8,
        f"adjusting-weight inclusion on 50 scenarios "
        f"(worst margin {worst:.2e}, raised-tau control fails)",
        ok,
    )


def test_criterion_9_simultaneous_closed_forms(capsys):
    from wrp.operators import compose_perturbed

    # simultaneous composition: gamma_i = x^2, eta_i = c_i
    u, v = box([-1.0], [1.0]), ball([0.0], 0.5)
    w = box([-2.0], [2.0])
    grid_u, grid_w = lattice(u, spacing=0.1), lattice(w, spacing=0.25)
    dev = 0.0
    for c in (0.1, -0.05):
        gamma = WeightedFunction(PolynomialMap(w, [([1.0], (2,))]), grid_w, 3, (("one", 1, 4.0),))
        eta = WeightedFunction(ConstMap(u, [c]), grid_u, 3)
        res, _ = compose_perturbed(gamma, eta, u, v, w)
        xs = grid_u.points
        dev = max(dev, float(np.max(np.abs(res.map.tensors(xs, 0)[:, 0] - (xs[:, 0] + c) ** 2))))
    # simultaneous inversion: phi_i = c_i x
    u2, vt = box([-2.0], [2.0]), box([-0.4], [0.4])
    cfg = ContractionConfig(tau=0.5, r=1.5, fix_tol=1e-13)
    for c in (0.05, 0.1, 0.15):
        phi = WeightedFunction(
            AffineMap(u2, [[c]]), lattice(u2, spacing=0.25), 2,
            (("one", 0, 2 * c), ("one", 1, c)),
        )
        res, _ = invert_perturbed(phi, gated_inverse(phi, u2, vt, cfg), lattice(vt, spacing=0.1))
        ys = res.grid.points
        got = res.map.tensors(ys, 0)[:, 0]
        dev = max(dev, float(np.max(np.abs(got - (-c / (1 + c)) * ys[:, 0]))))

    # factor-restriction bit-identity across all seeded scenarios
    identical = True
    for seed in range(10):
        sc = generate_scenario(seed)
        sub = list(range(0, sc.n_factors, 2))
        def inverted(i):
            fs = sc.factors[i]
            inv = gated_inverse(sc.phis[i], fs.u, fs.v_tilde, sc.contraction)
            return invert_perturbed(sc.phis[i], inv, fs.grid_vt)[0]

        full = [inverted(i) for i in range(sc.n_factors)]
        part = [inverted(i) for i in sub]
        for j, i in enumerate(sub):
            ys = sc.factors[i].grid_vt.points
            if not np.array_equal(full[i].map.tensors(ys, 0), part[j].map.tensors(ys, 0)):
                identical = False
    ok = dev <= 1e-12 and identical
    announce(
        capsys, 9,
        f"simultaneous closed forms (deviation {dev:.1e}) and "
        f"factor-restriction bit-identity on 10 scenarios",
        ok,
    )


def test_criterion_10_canonical_suite(capsys, tmp_path):
    t0 = time.time()
    status = run(RunConfig(seeds=tuple(range(10)), out=str(tmp_path)))
    elapsed = time.time() - t0
    report = json.loads((tmp_path / "report.json").read_text())
    coverage = all(
        {c["check_id"] for c in scenario["checks"]} == set(ALL_CHECK_IDS)
        for scenario in report["scenarios"]
    )
    ok = status == 0 and elapsed < 300.0 and coverage
    announce(
        capsys, 10,
        f"canonical suite seeds 0..9 (exit {status}, {elapsed:.1f}s, "
        f"all {len(ALL_CHECK_IDS)} check ids covered per scenario)",
        ok,
    )
