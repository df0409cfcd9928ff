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

from .errors import (
    CertificateRequiredError,
    DataError,
    DomainMembershipError,
    GeometryError,
)
from .report import (
    CERTIFIED_UPPER,
    EXACT,
    GRID_LOWER,
    CheckReport,
    bound_report,
    merge_min_margin,
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

    def norm(self, v: np.ndarray) -> float:
        v = np.asarray(v, dtype=float)
        if self.norm_kind == SUP:
            return float(np.max(np.abs(v))) if v.size else 0.0
        return float(np.linalg.norm(v))


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
    def convex(self) -> bool:
        return True  # boxes and balls are convex

    @property
    def star_shaped_at_zero(self) -> bool:
        return self.contains(np.zeros(self.dim))  # convex and 0 interior

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
        if self.space.norm_kind == SUP:
            return np.max(np.abs(x - center), axis=1) < self.radius
        # one np.linalg.norm per row, as a single point takes
        return np.array([self.space.norm(v) < self.radius for v in x - center], dtype=bool)

    def contains(self, point) -> bool:
        x = np.asarray(point, dtype=float)
        if x.ndim != 1:
            raise GeometryError("point dimension mismatch")
        return bool(self.members(x[None])[0])

    def boundary_distance(self, point) -> float:
        """Distance from an interior point to the complement; exact for
        both shapes and both norm kinds."""
        x = np.asarray(point, dtype=float)
        if not self.contains(x):
            raise DomainMembershipError(f"point {x.tolist()} outside domain")
        if self.kind == BOX:
            # nearest face; the same for sup and euclidean metrics
            return float(
                min(
                    min(x[a] - self.lo[a], self.hi[a] - x[a])
                    for a in range(self.dim)
                )
            )
        return self.radius - self.space.norm(x - np.asarray(self.center))

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
            shift = outer.space.norm(np.asarray(inner.center) - c)
            return shift + inner.radius <= outer.radius
        # box inside a euclidean ball: check the corners
        lo, hi = inner.bounding_box()
        for corner in itertools.product(*zip(lo, hi)):
            if outer.space.norm(np.asarray(corner) - c) > outer.radius:
                return False
        return True


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


def boundary_distance(domain: DomainSet, point) -> float:
    return domain.boundary_distance(point)


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

    def __call__(self, point) -> float:
        v = float(self.fn(np.asarray(point, dtype=float)))
        if math.isnan(v):
            raise DataError(f"weight {self.name!r} evaluated to NaN")
        return v


def validate_weight_on_points(weight: Weight, points: np.ndarray, tol: float = 1e-9):
    """Raise if any grid evaluation contradicts a certified bound."""
    for x in points:
        v = abs(weight(x))
        if weight.certified_sup is not None and v > weight.certified_sup + tol:
            raise DataError(
                f"weight {weight.name!r}: |f({np.asarray(x).tolist()})| = {v} "
                f"exceeds certified sup {weight.certified_sup}"
            )
        if weight.certified_inf is not None and v < weight.certified_inf - tol:
            raise DataError(
                f"weight {weight.name!r}: |f({np.asarray(x).tolist()})| = {v} "
                f"is below certified inf {weight.certified_inf}"
            )


def const_weight(name: str, c: float) -> Weight:
    c = float(c)
    return Weight(
        name,
        lambda x, c=c: c,
        certified_sup=abs(c),
        certified_inf=abs(c),
        desc={"kind": "const", "c": c},
    )


def gaussian_weight(name: str, a: float, domain: DomainSet | None = None) -> Weight:
    """exp(-a * |x|_2^2); the inf certificate uses the farthest corner of
    the domain's bounding box."""
    a = float(a)
    inf_cert = None
    if domain is not None and a >= 0:
        lo, hi = domain.bounding_box()
        worst = float(np.sum(np.maximum(np.abs(lo), np.abs(hi)) ** 2))
        inf_cert = math.exp(-a * worst)
    return Weight(
        name,
        lambda x, a=a: math.exp(-a * float(np.dot(x, x))),
        certified_sup=1.0 if a >= 0 else None,
        certified_inf=inf_cert,
        desc={"kind": "gauss", "a": a},
    )


def two_plus_sin_weight(name: str, u: Sequence[float], scale: float = 1.0) -> Weight:
    u_arr = np.asarray(u, dtype=float)
    scale = float(scale)
    return Weight(
        name,
        lambda x, u=u_arr, s=scale: s * (2.0 + math.sin(float(np.dot(u, x)))),
        certified_sup=3.0 * abs(scale),
        certified_inf=1.0 * abs(scale),
        desc={"kind": "two_plus_sin", "u": u_arr.tolist(), "scale": scale},
    )


def poly_weight(
    name: str,
    terms: Sequence[tuple[float, Sequence[int]]],
    certified_sup: float | None = None,
    certified_inf: float | None = None,
) -> Weight:
    """sum of c * x^powers; bounds are caller-supplied."""
    terms = tuple((float(c), tuple(int(p) for p in pw)) for c, pw in terms)

    def fn(x, terms=terms):
        return sum(c * float(np.prod(x ** np.array(pw))) for c, pw in terms)

    return Weight(
        name,
        fn,
        certified_sup=certified_sup,
        certified_inf=certified_inf,
        desc={"kind": "poly", "terms": [[c, list(p)] for c, p in terms]},
    )


def scaled_weight(base: Weight, c: float, name: str | None = None) -> Weight:
    c = float(c)
    scale = abs(c)
    return Weight(
        name or f"{c}*{base.name}",
        lambda x, b=base, c=c: c * b(x),
        certified_sup=None if base.certified_sup is None else scale * base.certified_sup,
        certified_inf=None if base.certified_inf is None else scale * base.certified_inf,
        desc={"kind": "scaled", "c": c, "base": base.desc},
    )


def shifted_weight(
    base: Weight,
    shift: Sequence[float],
    name: str | None = None,
    certified_sup: float | None = None,
    certified_inf: float | None = None,
) -> Weight:
    """x -> base(x + shift); bounds over the new domain are caller-supplied."""
    s = np.asarray(shift, dtype=float)
    return Weight(
        name or f"{base.name}<<shift",
        lambda x, b=base, s=s: b(x + s),
        certified_sup=certified_sup,
        certified_inf=certified_inf,
        desc={"kind": "shifted", "shift": s.tolist(), "base": base.desc},
    )


def weight_from_desc(desc: dict, name: str = "w", domain: DomainSet | None = None) -> Weight:
    kind = desc.get("kind")
    cs, ci = desc.get("certified_sup"), desc.get("certified_inf")
    if kind == "const":
        w = const_weight(name, desc["c"])
    elif kind == "gauss":
        w = gaussian_weight(name, desc["a"], domain)
    elif kind == "two_plus_sin":
        w = two_plus_sin_weight(name, desc["u"], desc.get("scale", 1.0))
    elif kind == "poly":
        w = poly_weight(name, [(c, p) for c, p in desc["terms"]], cs, ci)
    elif kind == "scaled":
        w = scaled_weight(weight_from_desc(desc["base"], name, domain), desc["c"], name)
    elif kind == "shifted":
        w = shifted_weight(
            weight_from_desc(desc["base"], name, domain), desc["shift"], name, cs, ci
        )
    else:
        raise DataError(f"unknown weight kind {kind!r}")
    if cs is not None or ci is not None:
        w = Weight(
            w.name,
            w.fn,
            cs if cs is not None else w.certified_sup,
            ci if ci is not None else w.certified_inf,
            desc=w.desc,
        )
    return w


def weight_to_desc(weight: Weight) -> dict:
    if weight.desc is None:
        raise DataError(f"weight {weight.name!r} carries no descriptor")
    d = dict(weight.desc)
    d["certified_sup"] = weight.certified_sup
    d["certified_inf"] = weight.certified_inf
    return d


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
    contains_one: bool = False
    adjusting: str | None = None

    def __post_init__(self):
        counts = {len(m) for m in self.members}
        if len(counts) > 1:
            raise DataError("all family weights must cover the same factors")
        names = [m.name for m in self.members]
        if len(set(names)) != len(names):
            raise DataError("duplicate weight names in family")
        if self.adjusting is not None and self.adjusting not in names:
            raise DataError(f"adjusting weight {self.adjusting!r} not a member")
        if self.contains_one and not any(
            all(w.certified_sup == 1.0 and w.certified_inf == 1.0 for w in m.factors)
            for m in self.members
        ):
            raise DataError("contains_one set but no constant-one member")

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
    tolerance: float = 0.0,
) -> CheckReport:
    """Verify sup |w_i| < inf (certified) and inf |w_i| >= max(1/r_i, 1).

    The sup side needs a certificate because a grid cannot certify it; the
    inf side is checked on the grid and against the inf certificate when
    present.
    """
    if len(radii) != len(omega) or len(grids) != len(omega):
        raise DataError("factor counts disagree")
    reports = []
    for i, (w, r, pts) in enumerate(zip(omega.factors, radii, grids)):
        if w.certified_sup is None or not math.isfinite(w.certified_sup):
            raise CertificateRequiredError(
                f"adjusting weight factor {i} needs a finite certified sup"
            )
        if not r > 0:
            raise DataError(f"factor {i}: radius must be positive, got {r}")
        threshold = max((1.0 / r) if math.isfinite(r) else 0.0, 1.0)
        lows = [(abs(w(x)), tuple(np.asarray(x, float).tolist())) for x in pts]
        if not lows:
            raise DataError(f"empty grid for factor {i}")
        grid_inf, witness = min(lows, key=lambda t: t[0])
        if w.certified_inf is not None and w.certified_inf < threshold:
            grid_inf, witness = min(
                (grid_inf, witness), (w.certified_inf, witness), key=lambda t: t[0]
            )
        reports.append(
            bound_report(
                check_id,
                threshold,
                grid_inf,
                tolerance=tolerance,
                lhs_provenance=EXACT,
                rhs_provenance=GRID_LOWER,
                witness=(i,) + witness,
                detail=f"factor {i}: inf|w| on grid vs max(1/r, 1)",
            )
        )
    return merge_min_margin(check_id, reports)


def check_dominance_certificate(
    cert: DominanceCertificate,
    grids: Sequence[np.ndarray],
    check_id: str = "cond:dominance",
    tolerance: float = 1e-9,
) -> CheckReport:
    """Verify K_i * |f_i(x)| <= |g_i(x)| at every grid point."""
    if len(grids) != len(cert.f):
        raise DataError("grid count disagrees with certificate factors")
    reports = []
    for i, (k, fw, gw, pts) in enumerate(
        zip(cert.per_factor_k, cert.f.factors, cert.g.factors, grids)
    ):
        for x in pts:
            lhs = k * abs(fw(x))
            rhs = abs(gw(x))
            reports.append(
                bound_report(
                    check_id,
                    lhs,
                    rhs,
                    tolerance=tolerance,
                    lhs_provenance=EXACT,
                    rhs_provenance=EXACT,
                    witness=(i,) + tuple(np.asarray(x, float).tolist()),
                    detail=cert.context,
                )
            )
    return merge_min_margin(check_id, reports)


def check_factorization_certificate(
    cert: FactorizationCertificate,
    grids: Sequence[np.ndarray],
    check_id: str = "cond:factorization",
    tolerance: float = 1e-9,
) -> CheckReport:
    """Verify |f_i(x)| <= prod_j |g_i^j(x)| at every grid point."""
    reports = []
    for i, pts in enumerate(grids):
        fw = cert.f.factors[i]
        gs = [p.factors[i] for p in cert.parts]
        for x in pts:
            lhs = abs(fw(x))
            rhs = float(np.prod([abs(g(x)) for g in gs]))
            reports.append(
                bound_report(
                    check_id,
                    lhs,
                    rhs,
                    tolerance=tolerance,
                    lhs_provenance=EXACT,
                    rhs_provenance=EXACT,
                    witness=(i,) + tuple(np.asarray(x, float).tolist()),
                )
            )
    return merge_min_margin(check_id, reports)
