"""The ingest load path on whole arrays, held to the one-at-a-time rules.

* The jet reference check draws each map's probes in rounds of one
  uniform block.  The probes and the generator's end state are those of
  drawing one map after another, row by row, also when a first-round row
  falls outside its domain.
* ``lattice`` masks the lattice rows and de-duplicates pinned points on
  arrays; its points are those of building them one tuple at a time.
* The number rule names the bad entry of a coefficient row.
"""

import json
import math
import pathlib

import numpy as np
import pytest

from wrp import jets
from wrp.errors import DataError, DomainMembershipError
from wrp.jets import PolynomialMap
from wrp.seminorms import _assemble, lattice
from wrp.spaces import ball, box
from wrp.verify import (
    _DOMAINS,
    _nonfinite_at,
    generate_scenario,
    scenario_from_dict,
)

FIXTURE = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "scenario_seed0.json"


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# -- probes


def _member(domain, x) -> bool:
    """One row's membership, written out per shape and norm."""
    if domain.kind == "box":
        return all(a < v < b for a, v, b in zip(domain.lo, x, domain.hi))
    d = np.asarray(x) - np.asarray(domain.center)
    norm = float(np.max(np.abs(d))) if domain.space.norm_kind == "sup" else float(
        np.linalg.norm(d))
    return norm < domain.radius


def _one_at_a_time(maps, rng) -> list[np.ndarray]:
    """Oracle: every map's 3 probes, one map after another and one row at
    a time, from the middle half of its domain's bounding box."""
    out = []
    for map_ in maps:
        lo, hi = map_.domain.bounding_box()
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        probes = []
        while len(probes) < 3:
            x = mid + 0.5 * half * rng.uniform(-1, 1, size=map_.dim)
            if _member(map_.domain, x):
                probes.append(x)
        out.append(np.array(probes))
    return out


# more of the middle half of its bounding box lies outside it than inside
EUCLID10 = ball([0.0] * 10, 1.0, norm_kind="euclidean")
DOMAINS = [box([-1.0, 0.25], [1.0, 0.75]), ball([0.5], 0.75), EUCLID10,
           box([-1.0, 0.25], [1.0, 0.75]), EUCLID10, box([0.0], [2.0])]


def _maps(domains):
    return [PolynomialMap(d, [([1.0, -0.5], (1,) * d.dim),
                              ([0.25, 2.0], (2,) + (0,) * (d.dim - 1))]) for d in domains]


@pytest.mark.parametrize("seed", range(8))
def test_probes_after_a_rejected_first_round_row_are_the_sequential_stream(seed):
    maps = _maps(DOMAINS)
    want_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = _one_at_a_time(maps, want_rng)
    probes = [jets._draw_probes(map_, rng) for map_ in maps]
    assert all(_same_bits(p, w) for p, w in zip(probes, want))
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_the_seeds_reject_first_round_rows_of_a_later_map():
    # the seeds above draw more rounds: a stream that drew only the first
    # rounds would end elsewhere
    rejected = 0
    for seed in range(8):
        rng, block = np.random.default_rng(seed), np.random.default_rng(seed)
        for map_ in _maps(DOMAINS):
            jets._draw_probes(map_, rng)
        block.uniform(-1, 1, size=3 * sum(d.dim for d in DOMAINS))
        rejected += rng.bit_generator.state != block.bit_generator.state
    assert rejected >= 6


class _CountingGenerator:
    """A generator that counts its ``uniform`` calls."""

    def __init__(self, seed):
        self.rng, self.uniform_calls = np.random.default_rng(seed), 0

    @property
    def bit_generator(self):
        return self.rng.bit_generator

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self.rng.uniform(*args, **kwargs)


def test_one_uniform_draw_when_every_first_round_row_lands():
    domains = [box([-1.0, 0.25], [1.0, 0.75]), ball([0.5], 0.75), box([0.0], [2.0]),
               box([-1.0, 0.25], [1.0, 0.75]), ball([0.0, 0.0, 0.0], 2.0)]
    maps = _maps(domains)
    rng, want_rng = _CountingGenerator(3), np.random.default_rng(3)
    for map_ in maps:
        jets.validate_jet_map(map_, rng)
    assert rng.uniform_calls == len(maps)
    _one_at_a_time(maps, want_rng)
    assert rng.bit_generator.state == want_rng.bit_generator.state


def test_an_unprobeable_domain_after_a_resync_stops_the_draws():
    # the stuck map draws its capped rounds and raises; the map before it
    # keeps its one-at-a-time probes and no map after it is drawn
    stuck = PolynomialMap(box([1e16], [math.nextafter(1e16, math.inf)]), [([1.0], (1,))])
    maps = _maps(DOMAINS) + [stuck] + _maps([box([0.0], [2.0])])
    rng, want_rng = np.random.default_rng(0), np.random.default_rng(0)
    want = _one_at_a_time(maps[:len(DOMAINS)], want_rng)
    with pytest.raises(DataError, match="1e\\+16"):
        for map_ in maps:
            probes = jets._draw_probes(map_, rng)
            assert _same_bits(probes, want.pop(0))
    assert not want
    for _ in range(jets.MAX_PROBE_ROUNDS):
        want_rng.uniform(-1, 1, size=(jets.FD_PROBES, 1))
    assert rng.bit_generator.state == want_rng.bit_generator.state


# -- grids


def _assemble_oracle(domain, axes, pinned) -> np.ndarray:
    """The lattice built one tuple at a time."""
    grids = np.meshgrid(*[np.asarray(a) for a in axes], indexing="ij")
    pts = np.stack([g.reshape(-1) for g in grids], axis=-1)
    rows = [tuple(p) for p in pts[domain.members(pts)]]
    if pinned:
        inside = domain.members(np.array(pinned, dtype=float))
        if not inside.all():
            raise DomainMembershipError(
                f"pinned point {pinned[int(np.argmin(inside))]} not interior")
    for p in pinned:
        if tuple(p) not in rows:
            rows.append(tuple(p))
    if not rows:
        raise DataError("grid has no interior points")
    return np.array(rows, dtype=float)


def _axes_oracle(domain, n):
    lo, hi = domain.bounding_box()
    return tuple(tuple(float(c) for c in np.linspace(lo[a], hi[a], n + 2)[1:-1])
                 for a in range(domain.dim))


def _scenario_domains():
    scenarios = [generate_scenario(s) for s in range(10)]
    scenarios.append(scenario_from_dict(json.loads(FIXTURE.read_text(encoding="utf-8"))))
    return [getattr(fs, k) for sc in scenarios for fs in sc.factors for k in _DOMAINS]


def test_lattice_is_the_row_by_row_lattice_on_every_scenario_domain():
    domains = _scenario_domains()
    assert len(domains) > 100
    for dom in domains:
        for n in (1, 5, 9):
            grid = lattice(dom, per_axis=n)
            assert grid.axes == _axes_oracle(dom, n)
            assert _same_bits(grid.points, _assemble_oracle(dom, grid.axes, ()))


def test_pinned_points_join_once_and_after_the_lattice():
    dom = box([-1.0, -1.0], [1.0, 1.0])
    on_lattice = (0.5, -0.5)  # a point of the 3 x 3 lattice
    pinned = [(0.1, 0.2), on_lattice, (0.1, 0.2), (-0.0, 0.3), (0.0, 0.3), on_lattice, (0.7, 0.7)]
    grid = lattice(dom, per_axis=3, pinned=pinned)
    want = _assemble_oracle(dom, grid.axes, grid.pinned)
    assert _same_bits(grid.points, want)
    assert len(grid.points) == 9 + 3
    # a signed zero equals zero: the first of the two is kept, with its bits
    assert math.copysign(1.0, grid.points[10, 0]) == -1.0


@pytest.mark.parametrize("pinned", [[(0.0, 0.0), (1.0, 0.0)], [(2.0, 0.5)], [(0.1, float("nan"))]])
def test_a_pinned_point_outside_is_named(pinned):
    dom = box([-1.0, -1.0], [1.0, 1.0])
    pin = tuple(tuple(float(v) for v in p) for p in pinned)
    with pytest.raises(DomainMembershipError) as want:
        _assemble_oracle(dom, _axes_oracle(dom, 3), pin)
    with pytest.raises(DomainMembershipError) as got:
        lattice(dom, per_axis=3, pinned=pinned)
    assert str(got.value) == str(want.value)


def test_pinned_points_alone_when_no_lattice_point_is_inside():
    dom = ball([0.0, 0.0], 1.0, norm_kind="euclidean")
    # the one lattice point of a 1 x 1 lattice is the centre; 2 x 2 has none inside
    axes = ((-0.9, 0.9), (-0.9, 0.9))
    pinned = ((0.1, 0.1), (0.1, 0.1))
    assert _same_bits(_assemble(dom, axes, pinned), _assemble_oracle(dom, axes, pinned))
    with pytest.raises(DataError, match="no interior points"):
        _assemble(dom, axes, ())


# -- the number rule


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, True, 10**400, "1.0",
                                 np.float64(math.inf), None])
@pytest.mark.parametrize("at", range(3))
def test_a_bad_entry_of_a_coefficient_row_is_named(bad, at):
    row = [0.25, -1.5, 3.0]
    row[at] = bad
    desc = {"kind": "poly", "terms": [{"coef": [1.0, 2.0, 0.5], "powers": [1, 0]},
                                      {"coef": row, "powers": [0, 2]}]}
    assert _nonfinite_at(desc) == f"/terms/1/coef/{at}"
