"""Normed spaces, box/ball domains, weights and weight families.

Domains are open boxes or balls so that membership, boundary distance and
Minkowski-sum containment are exact.  Weights are scalar functions with
optional author-certified sup/inf bounds; finite grids can only falsify
such bounds, never establish them, so every operation that needs an upper
bound on a sup insists on a certificate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .arith import contract
from .errors import (
    CertificateRequiredError,
    DataError,
    DomainMembershipError,
    GeometryError,
)
from .report import (
    EXACT,
    GRID_LOWER,
    CheckReport,
    bound_rows,
    stacked_points,
)

SUP = "sup"
EUCLIDEAN = "euclidean"


@dataclass(frozen=True)
class NormedSpaceDesc:
    """A finite-dimensional real space with a fixed norm."""

    dim: int
    norm_kind: str = SUP

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.norm_kind not in (SUP, EUCLIDEAN):
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")

    def norms(self, rows) -> np.ndarray:
        """The norm of every row of the 2-D array ``rows``."""
        v = np.asarray(rows, dtype=float)
        if self.norm_kind == SUP:
            return np.max(np.abs(v), axis=1) if v.shape[1] else np.zeros(len(v))
        # one np.linalg.norm per row, as a single vector takes
        return np.array([np.linalg.norm(r) for r in v], dtype=float)


BOX = "box"
BALL = "ball"


@dataclass(frozen=True)
class DomainSet:
    """An open nonempty box or ball in a normed space.

    Balls are taken with respect to the space's own norm; under the sup
    norm a ball is a symmetric box, which keeps all set arithmetic exact.
    """

    space: NormedSpaceDesc
    kind: str
    lo: tuple[float, ...] = ()
    hi: tuple[float, ...] = ()
    center: tuple[float, ...] = ()
    radius: float = 0.0

    def __post_init__(self):
        if self.kind == BOX:
            if len(self.lo) != self.space.dim or len(self.hi) != self.space.dim:
                raise GeometryError("box bounds must match the space dimension")
            if not all(a < b for a, b in zip(self.lo, self.hi)):
                raise GeometryError("box must have nonempty interior")
        elif self.kind == BALL:
            if len(self.center) != self.space.dim:
                raise GeometryError("ball center must match the space dimension")
            if not self.radius > 0:
                raise GeometryError("ball must have positive radius")
        else:
            raise GeometryError(f"unknown domain kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def star_shaped_at_zero(self) -> bool:
        return bool(self.members(np.zeros((1, self.dim)))[0])  # convex and 0 interior

    @property
    def balanced(self) -> bool:
        if self.kind == BALL:
            return all(c == 0.0 for c in self.center)
        return all(a == -b for a, b in zip(self.lo, self.hi))

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``lo``, ``hi`` and ``center`` as float arrays, built once."""
        return tuple(np.asarray(v, float) for v in (self.lo, self.hi, self.center))

    def members(self, points) -> np.ndarray:
        """Membership of every row of the ``(N, dim)`` array ``points``, as
        an ``(N,)`` bool array; a NaN coordinate is never a member."""
        x = np.asarray(points, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise GeometryError("point dimension mismatch")
        lo, hi, center = self._arrays
        if self.kind == BOX:
            return np.all((x > lo) & (x < hi), axis=1)
        return self.space.norms(x - center) < self.radius

    def boundary_distances(self, points) -> np.ndarray:
        """Distance from every row of ``points`` to the complement; exact
        for both shapes and both norm kinds.  A row outside the domain is
        a DomainMembershipError naming the first such row."""
        x = np.asarray(points, dtype=float)
        inside = self.members(x)
        if not inside.all():
            raise DomainMembershipError(
                f"point {x[int(np.argmin(inside))].tolist()} outside domain"
            )
        lo, hi, center = self._arrays
        if self.kind == BOX:
            # nearest face; the same for sup and euclidean metrics
            return np.minimum(x - lo, hi - x).min(axis=1)
        return self.radius - self.space.norms(x - center)

    def boundary_distance(self, point) -> float:
        """A batch of one of :meth:`boundary_distances`."""
        return float(self.boundary_distances(np.asarray(point, dtype=float)[None])[0])

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        if self.kind == BOX:
            return np.asarray(self.lo, float), np.asarray(self.hi, float)
        c = np.asarray(self.center, float)
        return c - self.radius, c + self.radius

    def as_box(self) -> "DomainSet":
        """Rewrite as a box; exact only for boxes and sup-norm balls."""
        if self.kind == BOX:
            return self
        if self.space.norm_kind != SUP:
            raise GeometryError("only a sup-norm ball is exactly a box")
        lo, hi = self.bounding_box()
        return box(lo, hi)

    def scaled(self, t: float) -> "DomainSet":
        """The set t*D for t > 0."""
        if not t > 0:
            raise GeometryError("scale factor must be positive")
        if self.kind == BOX:
            return box([t * a for a in self.lo], [t * b for b in self.hi],
                       norm_kind=self.space.norm_kind)
        return ball([t * c for c in self.center], t * self.radius,
                    norm_kind=self.space.norm_kind)

    def minkowski_sum(self, other: "DomainSet") -> "DomainSet":
        if self.dim != other.dim:
            raise GeometryError("dimension mismatch in Minkowski sum")
        a, b = self, other
        if a.kind == BALL and a.space.norm_kind == SUP:
            a = a.as_box()
        if b.kind == BALL and b.space.norm_kind == SUP:
            b = b.as_box()
        if a.kind == BOX and b.kind == BOX:
            return box(
                [p + q for p, q in zip(a.lo, b.lo)],
                [p + q for p, q in zip(a.hi, b.hi)],
            )
        if (
            a.kind == BALL
            and b.kind == BALL
            and a.space.norm_kind == b.space.norm_kind
        ):
            return ball(
                [p + q for p, q in zip(a.center, b.center)],
                a.radius + b.radius,
                norm_kind=a.space.norm_kind,
            )
        raise GeometryError("unsupported Minkowski sum of mixed shapes")

    def contains_set(self, inner: "DomainSet") -> bool:
        """Exact containment test ``inner`` inside ``self``."""
        if self.dim != inner.dim:
            raise GeometryError("dimension mismatch in containment")
        outer = self
        if outer.kind == BALL and outer.space.norm_kind == SUP:
            outer = outer.as_box()
        if inner.kind == BALL and inner.space.norm_kind == SUP:
            inner = inner.as_box()
        if outer.kind == BOX:
            ilo, ihi = inner.bounding_box()
            # the bounding-box extreme points all belong to the closure of
            # a box or euclidean ball, so this is exact, not conservative
            return bool(np.all(ilo >= outer.lo) and np.all(ihi <= outer.hi))
        c = np.asarray(outer.center, float)
        if inner.kind == BALL and inner.space.norm_kind == outer.space.norm_kind:
            (shift,) = outer.space.norms((np.asarray(inner.center) - c)[None])
            return bool(shift + inner.radius <= outer.radius)
        # box inside a euclidean ball: check the corners
        corners = np.array(list(itertools.product(*zip(*inner.bounding_box()))))
        return not (outer.space.norms(corners - c) > outer.radius).any()


def box(lo: Sequence[float], hi: Sequence[float], norm_kind: str = SUP) -> DomainSet:
    lo = tuple(float(v) for v in lo)
    hi = tuple(float(v) for v in hi)
    return DomainSet(NormedSpaceDesc(len(lo), norm_kind), BOX, lo=lo, hi=hi)


def ball(center: Sequence[float], radius: float, norm_kind: str = SUP) -> DomainSet:
    center = tuple(float(v) for v in center)
    return DomainSet(
        NormedSpaceDesc(len(center), norm_kind),
        BALL,
        center=center,
        radius=float(radius),
    )


def product_box(a: DomainSet, b: DomainSet) -> DomainSet:
    """The product of two sup-norm boxy domains, as a box."""
    ab, bb = a.as_box(), b.as_box()
    return box(ab.lo + bb.lo, ab.hi + bb.hi)


# ---------------------------------------------------------------------------
# weights


@dataclass(frozen=True)
class Weight:
    """A scalar function on one domain, with optional certified bounds.

    ``certified_sup``/``certified_inf`` bound ``|f|`` on the whole domain
    and are the scenario author's responsibility; grid evaluation only
    falsifies them (see :func:`validate_weight_on_points`).
    """

    name: str
    fn: Callable[[np.ndarray], float] = field(compare=False)
    certified_sup: float | None = None
    certified_inf: float | None = None
    desc: dict | None = field(default=None, compare=False)
    _cache: dict[tuple, np.ndarray] = field(
        default_factory=dict, compare=False, repr=False, init=False)

    def values(self, points) -> np.ndarray:
        """The weight at every row of the ``(N, dim)`` array ``points``: the
        one evaluation rule.  A built-in kind (one with a ``desc``) is
        evaluated for all rows at once by :func:`_kind_values`; any other
        ``fn`` runs once per row.  A NaN is a DataError naming its first
        row.

        Results are cached per instance by the float points' shape and
        bytes, as ``InverseMap.solves`` caches its fixed points; a NaN is
        never cached, so it raises on every call.  The returned array is
        shared and read-only; callers copy before writing."""
        pts = np.asarray(points, dtype=float)
        key = (pts.shape, pts.tobytes())
        v = self._cache.get(key)
        if v is not None:
            return v
        v = (_kind_values(self.desc, pts) if self.desc is not None
             else np.array([float(self.fn(x)) for x in pts], dtype=float))
        nan = np.isnan(v)
        if nan.any():
            raise DataError(
                f"weight {self.name!r} evaluated to NaN at {pts[int(np.argmax(nan))].tolist()}"
            )
        v.flags.writeable = False
        self._cache[key] = v
        return v

    def __call__(self, point) -> float:
        """A batch of one of :meth:`values`."""
        return float(self.values(np.asarray(point, dtype=float)[None])[0])


def validate_weight_on_points(weight: Weight, points: np.ndarray):
    """Raise if any grid evaluation contradicts a certified bound."""
    tol = 1e-9
    pts = np.asarray(points, dtype=float)
    v = np.abs(weight.values(pts))
    cs, ci = weight.certified_sup, weight.certified_inf
    above = v > (math.inf if cs is None else cs + tol)
    bad = above | (v < (-math.inf if ci is None else ci - tol))
    if bad.any():
        k = int(np.argmax(bad))
        claim = f"exceeds certified sup {cs}" if above[k] else f"is below certified inf {ci}"
        raise DataError(f"weight {weight.name!r}: |f({pts[k].tolist()})| = {float(v[k])} {claim}")


def _kind_values(desc: dict, pts: np.ndarray) -> np.ndarray:
    """The built-in weight of descriptor ``desc`` at every row of ``pts``:
    its dot products in one :func:`~wrp.arith.contract`, then libm's
    ``exp`` or ``sin`` per value."""
    kind = desc["kind"]
    if kind == "const":
        return np.full(len(pts), desc["c"])
    if kind == "gauss":
        return np.array([math.exp(-desc["a"] * q) for q in contract(pts, pts).tolist()])
    if kind == "two_plus_sin":
        s, u = desc["scale"], np.array(desc["u"])
        return np.array([s * (2.0 + math.sin(p)) for p in contract(pts, u).tolist()])
    return desc["c"] * _kind_values(desc["base"], pts)


def _builtin_weight(name: str, desc: dict, sup: float | None, inf: float | None) -> Weight:
    """A weight of a built-in kind; its ``fn`` is :func:`_kind_values` at
    one point."""
    return Weight(name, lambda x: float(_kind_values(desc, np.asarray(x, dtype=float)[None])[0]),
                  certified_sup=sup, certified_inf=inf, desc=desc)


def const_weight(name: str, c: float) -> Weight:
    c = float(c)
    return _builtin_weight(name, {"kind": "const", "c": c}, abs(c), abs(c))


def gaussian_weight(name: str, a: float, domain: DomainSet | None = None) -> Weight:
    """exp(-a * |x|_2^2); the inf certificate uses the farthest corner of
    the domain's bounding box."""
    a = float(a)
    inf_cert = None
    if domain is not None and a >= 0:
        lo, hi = domain.bounding_box()
        inf_cert = float(_kind_values({"kind": "gauss", "a": a},
                                      np.maximum(np.abs(lo), np.abs(hi))[None])[0])
    return _builtin_weight(name, {"kind": "gauss", "a": a}, 1.0 if a >= 0 else None, inf_cert)


def two_plus_sin_weight(name: str, u: Sequence[float], scale: float = 1.0) -> Weight:
    scale = float(scale)
    desc = {"kind": "two_plus_sin", "u": np.asarray(u, dtype=float).tolist(), "scale": scale}
    return _builtin_weight(name, desc, 3.0 * abs(scale), 1.0 * abs(scale))


def scaled_weight(base: Weight, c: float, name: str | None = None) -> Weight:
    """``c`` times the built-in weight ``base``."""
    if base.desc is None:
        raise DataError(f"weight {base.name!r} carries no descriptor")
    c = float(c)
    scale = abs(c)
    return _builtin_weight(
        name or f"{c}*{base.name}",
        {"kind": "scaled", "c": c, "base": base.desc},
        None if base.certified_sup is None else scale * base.certified_sup,
        None if base.certified_inf is None else scale * base.certified_inf,
    )


# The largest exponent a descriptor may give, far above the generator's
# degree 3: a polynomial's jets cost one power per exponent and point.
MAX_POWER = 64


def desc_powers(powers) -> tuple[int, ...]:
    """The exponents of a polynomial term read from a descriptor: a list
    of integers from 0 to MAX_POWER (a boolean or a fraction is not one)."""
    if not isinstance(powers, list) or not all(
            type(p) is int and 0 <= p <= MAX_POWER for p in powers):
        raise DataError(f"powers must be a list of integers from 0 to {MAX_POWER}, "
                        f"got {powers!r}")
    return tuple(powers)


def weight_from_desc(desc: dict, name: str, domain: DomainSet) -> Weight:
    """The weight of a descriptor of kind ``const``, ``gauss``,
    ``two_plus_sin`` or ``scaled``: the kinds that compute their own
    certified sup and inf, so a descriptor's ``certified_sup`` and
    ``certified_inf`` are not read here.  A ``gauss`` weight needs
    ``a >= 0``, which bounds it by 1, and a ``two_plus_sin`` frequency
    ``u`` has one entry per axis of ``domain``."""
    kind = desc.get("kind")
    if kind == "const":
        return const_weight(name, desc["c"])
    if kind == "gauss":
        if not desc["a"] >= 0:
            raise DataError(f"a gauss weight needs a >= 0, got {desc['a']!r}")
        return gaussian_weight(name, desc["a"], domain)
    if kind == "two_plus_sin":
        if len(desc["u"]) != domain.dim:
            raise DataError(f"u must have {domain.dim} entries, got {desc['u']!r}")
        return two_plus_sin_weight(name, desc["u"], desc.get("scale", 1.0))
    if kind == "scaled":
        return scaled_weight(weight_from_desc(desc["base"], name, domain), desc["c"], name)
    raise DataError(f"unknown weight kind {kind!r}")


def weight_to_desc(weight: Weight) -> dict:
    """The descriptor of a built-in weight, without its certified sup and
    inf: :func:`weight_from_desc` computes both from the kind."""
    if weight.desc is None:
        raise DataError(f"weight {weight.name!r} carries no descriptor")
    return dict(weight.desc)


# ---------------------------------------------------------------------------
# weight families over a disjoint union of factor domains


@dataclass(frozen=True)
class FamilyWeight:
    """One named weight on a disjoint union: a restriction per factor."""

    name: str
    factors: tuple[Weight, ...]

    def __len__(self) -> int:
        return len(self.factors)


@dataclass(frozen=True)
class WeightFamily:
    members: tuple[FamilyWeight, ...]

    def __post_init__(self):
        counts = {len(m) for m in self.members}
        if len(counts) > 1:
            raise DataError("all family weights must cover the same factors")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise DataError("duplicate weight names in family")

    def member(self, name: str) -> FamilyWeight:
        for m in self.members:
            if m.name == name:
                return m
        raise KeyError(name)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.members)


@dataclass(frozen=True)
class DominanceCertificate:
    """Author-certified domination K_i * |f_i| <= |g_i|.

    ``per_factor_k`` must dominate the relevant derivative sup of the map
    family the certificate serves; ``g`` is accepted as a legitimate
    continuous-seminorm weight by declaration.
    """

    f: FamilyWeight
    ell: int
    g: FamilyWeight
    per_factor_k: tuple[float, ...]
    context: str = ""

    def __post_init__(self):
        if self.ell < 0:
            raise ValueError("derivative order must be >= 0")
        if len(self.per_factor_k) != len(self.f) or len(self.f) != len(self.g):
            raise DataError("certificate factor counts disagree")
        if any(k < 0 for k in self.per_factor_k):
            raise DataError("certificate constants must be nonnegative")


@dataclass(frozen=True)
class FactorizationCertificate:
    """Author-certified pointwise factorization |f_i| <= prod_j |g_i^j|."""

    f: FamilyWeight
    parts: tuple[FamilyWeight, ...]

    def __post_init__(self):
        if any(len(p) != len(self.f) for p in self.parts):
            raise DataError("factorization factor counts disagree")


# ---------------------------------------------------------------------------
# checked operations


def check_adjusting_weight(
    omega: FamilyWeight,
    radii: Sequence[float],
    grids: Sequence[np.ndarray],
    check_id: str = "cond:adjusting_weight",
) -> CheckReport:
    """Verify sup |w_i| < inf (certified) and inf |w_i| >= max(1/r_i, 1).

    The sup side needs a certificate because a grid cannot certify it; the
    inf side is checked on the grid and against the inf certificate when
    present.
    """
    if len(radii) != len(omega) or len(grids) != len(omega):
        raise DataError("factor counts disagree")
    rows = []  # (threshold, grid inf, witness) per factor
    for i, (w, r, pts) in enumerate(zip(omega.factors, radii, grids)):
        if w.certified_sup is None or not math.isfinite(w.certified_sup):
            raise CertificateRequiredError(
                f"adjusting weight factor {i} needs a finite certified sup"
            )
        if not r > 0:
            raise DataError(f"factor {i}: radius must be positive, got {r}")
        threshold = max((1.0 / r) if math.isfinite(r) else 0.0, 1.0)
        pts = np.asarray(pts, dtype=float)
        if not len(pts):
            raise DataError(f"empty grid for factor {i}")
        lows = np.abs(w.values(pts))
        k = int(np.argmin(lows))
        grid_inf = float(lows[k])
        if w.certified_inf is not None and w.certified_inf < threshold:
            grid_inf = min(grid_inf, w.certified_inf)
        rows.append((threshold, grid_inf, (i,) + tuple(pts[k].tolist())))
    return bound_rows(
        check_id, [r[0] for r in rows], [r[1] for r in rows], tolerance=0.0,
        lhs_provenance=EXACT, rhs_provenance=GRID_LOWER, witness=lambda k: rows[k][2],
        detail=lambda k: f"factor {k}: inf|w| on grid vs max(1/r, 1)",
    )


def check_dominance_certificate(
    cert: DominanceCertificate,
    grids: Sequence[np.ndarray],
    check_id: str = "cond:dominance",
) -> CheckReport:
    """Verify K_i * |f_i(x)| <= |g_i(x)| at every grid point."""
    if len(grids) != len(cert.f):
        raise DataError("grid count disagrees with certificate factors")
    sides = [
        (k * np.abs(fw.values(pts)), np.abs(gw.values(pts)))
        for k, fw, gw, pts in zip(cert.per_factor_k, cert.f.factors, cert.g.factors, grids)
    ]
    return bound_rows(
        check_id,
        np.concatenate([lhs for lhs, _ in sides]),
        np.concatenate([rhs for _, rhs in sides]),
        tolerance=1e-9, lhs_provenance=EXACT, rhs_provenance=EXACT,
        witness=stacked_points(grids), detail=cert.context,
    )


def check_factorization_certificate(
    cert: FactorizationCertificate,
    grids: Sequence[np.ndarray],
) -> CheckReport:
    """Verify |f_i(x)| <= prod_j |g_i^j(x)| at every grid point."""
    lhs, rhs = [], []
    for i, pts in enumerate(grids):
        lhs.append(np.abs(cert.f.factors[i].values(pts)))
        prod = np.ones(len(pts))
        for part in cert.parts:
            prod = prod * np.abs(part.factors[i].values(pts))
        rhs.append(prod)
    return bound_rows(
        "cond:factorization", np.concatenate(lhs), np.concatenate(rhs),
        tolerance=1e-9, lhs_provenance=EXACT, rhs_provenance=EXACT,
        witness=stacked_points(grids),
    )
