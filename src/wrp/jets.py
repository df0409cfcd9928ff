"""Exact derivative calculus at desk scale.

Maps are closed-form built-ins (polynomial, trigonometric-polynomial,
affine and combinators) whose derivative tensors of every order are coded
symbolically, so inequality margins are limited only by float rounding.
Operator norms are taken with the sup norm on every argument and computed
exactly by sign-vector enumeration: a multilinear map restricted to one
argument is linear, hence attains its sup over the unit ball at a vertex.
``op_norms`` enumerates once for a whole stack of tensors.
Finite differences appear only as oracles, never in the main path.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DataError,
    DomainMembershipError,
    EnumerationBudgetError,
    OrderError,
    PreconditionError,
    ShapeError,
    UnsupportedNormError,
)
from .report import CheckReport, bound_report, bound_rows, identity_report
from .spaces import BOX, EUCLIDEAN, SUP, DomainSet, box, desc_powers, product_box

ENUM_BUDGET = 16
FD_STEP_ORDER1 = 1e-4
FD_STEP_ORDER2 = 1e-3
FD_PROBES = 3  # probes per map in jet validation
MAX_PROBE_ROUNDS = 10_000  # draw rounds before a domain is declared unprobeable


class AsymmetryWarning(UserWarning):
    """A derivative tensor came out asymmetric beyond 1e-9 before averaging."""


@dataclass(frozen=True)
class MultilinearMap:
    """A dense real multilinear map.

    ``entries`` has the output axes first (``out_rank`` of them, so values
    may themselves be operators) followed by one axis per argument.
    Currying is pure reindexing, realizing the canonical isometry between
    (l+1)-linear maps and l-linear maps into operators.
    """

    entries: np.ndarray = field(compare=False)
    out_rank: int = 1

    def __post_init__(self):
        object.__setattr__(self, "entries", np.asarray(self.entries, dtype=float))
        if self.out_rank < 1 or self.out_rank > self.entries.ndim:
            raise ShapeError("out_rank out of range")

    @property
    def order(self) -> int:
        return self.entries.ndim - self.out_rank

    @property
    def out_shape(self) -> tuple[int, ...]:
        return self.entries.shape[: self.out_rank]

    @property
    def in_dims(self) -> tuple[int, ...]:
        return self.entries.shape[self.out_rank:]

    def apply(self, *args) -> np.ndarray:
        if len(args) != self.order:
            raise ShapeError(f"expected {self.order} arguments, got {len(args)}")
        v = self.entries
        for a in args:
            v = np.tensordot(v, np.asarray(a, dtype=float), axes=(self.out_rank, 0))
        return v


def curry_last(t: MultilinearMap) -> MultilinearMap:
    """Turn the last argument slot into an output axis (exact reindexing)."""
    if t.order < 1:
        raise OrderError("cannot curry a map of order 0")
    return MultilinearMap(np.moveaxis(t.entries, -1, t.out_rank), t.out_rank + 1)


def uncurry_last(t: MultilinearMap) -> MultilinearMap:
    """Inverse of :func:`curry_last`."""
    if t.out_rank < 2:
        raise OrderError("nothing to uncurry")
    return MultilinearMap(np.moveaxis(t.entries, t.out_rank - 1, -1), t.out_rank - 1)


def contract_last(t: MultilinearMap, h) -> MultilinearMap:
    """Fix the last argument to ``h`` (the contraction written T¬h)."""
    if t.order < 1:
        raise OrderError("cannot contract a map of order 0")
    return MultilinearMap(
        np.tensordot(t.entries, np.asarray(h, dtype=float), axes=(t.entries.ndim - 1, 0)),
        t.out_rank,
    )


def _sign_vectors(d: int) -> list[np.ndarray]:
    # first component pinned to +1: flipping one whole argument flips only
    # the sign of the output, which the absolute value discards
    if d == 1:
        return [np.ones(1)]
    return [
        np.array((1.0,) + rest)
        for rest in itertools.product((1.0, -1.0), repeat=d - 1)
    ]


def op_norms(entries, out_rank: int = 1, norm_kind: str = SUP) -> np.ndarray:
    """Exact operator norm of every tensor of a stack, with the chosen norm
    on all arguments and outputs.

    ``entries`` is an ``(N,) + out + args`` array of N tensors with
    ``out_rank`` output axes each; the result holds their N norms.
    Operator-valued outputs are uncurried first, as :func:`uncurry_last`
    does, so a norm is invariant under curry round trips bit for bit.  The
    sup norm enumerates the sign vertices of all arguments but the last,
    one ``tensordot`` per vertex and argument for the whole stack, and
    optimizes the last analytically by an absolute row sum.  The sign
    vectors are built once per call, and no cache outlives it.  Each
    vertex sum is a BLAS call whose kernel follows the stack's layout, so
    a row keeps the bits of :func:`op_norm` on its tensor where the
    kernels sum alike: on every stack the runs of seeds 0..9 build, but
    not for every shape (``tests/test_batched.py`` pins which).

    A tensor with an infinite entry has norm +inf, since the norm bounds
    every entry; so has one whose finite sums overflow into inf - inf at a
    vertex.  A tensor with an empty axis is the zero map, of norm 0.  A NaN
    entry raises DataError naming the first such tensor and entry.
    """
    e = np.asarray(entries, dtype=float)
    if out_rank < 1 or out_rank >= e.ndim:
        raise ShapeError("out_rank out of range")
    nan = np.isnan(e)
    if nan.any():
        # a NaN entry would otherwise drop out of the max over vertices
        k, *idx = np.argwhere(nan)[0].tolist()
        raise DataError(f"operator norm of a tensor with a NaN entry at {tuple(idx)} in row {k}")
    while out_rank > 1:
        e = np.moveaxis(e, out_rank, -1)
        out_rank -= 1
    order, in_dims = e.ndim - 2, e.shape[2:]
    if norm_kind == EUCLIDEAN:
        if order > 1:
            raise UnsupportedNormError("euclidean norms only for order <= 1")
    elif norm_kind != SUP:
        raise UnsupportedNormError(f"unknown norm kind {norm_kind!r}")
    if not e.size:
        return np.zeros(len(e))
    if norm_kind == EUCLIDEAN:
        if order == 0:
            # one dot product per vector, as a single norm takes it; numpy's
            # batched vector norm sums in another order
            return np.array([np.linalg.norm(row) for row in e])
        return np.linalg.norm(e, 2, axis=(1, 2))
    if order == 0:
        return np.abs(e).max(axis=1)
    if sum(in_dims) > ENUM_BUDGET:
        raise EnumerationBudgetError(
            f"total argument dimension {sum(in_dims)} exceeds {ENUM_BUDGET}"
        )
    # decided per row before the enumeration, so that no inf - inf of an
    # infinite entry reaches the vertex max
    inf = np.isinf(e).reshape(len(e), -1).any(axis=1)
    if inf.any():
        e = np.where(inf.reshape((-1,) + (1,) * (e.ndim - 1)), 0.0, e)
    best = np.zeros(len(e))
    for signs in itertools.product(*[_sign_vectors(d) for d in in_dims[:-1]]):
        v = e
        for s in signs:
            v = np.tensordot(v, s, axes=(2, 0))
        top = np.abs(v).sum(axis=2).max(axis=1)
        # NaN here is finite sums overflowing into inf - inf
        best = np.maximum(best, np.where(np.isnan(top), math.inf, top))
    best[inf] = math.inf
    return best


def op_norm(t: MultilinearMap, norm_kind: str = SUP) -> float:
    """Exact operator norm of one multilinear map: :func:`op_norms` over a
    stack of one."""
    return float(op_norms(t.entries[None], t.out_rank, norm_kind)[0])


def opnorm_inf(a: np.ndarray) -> float:
    """Matrix norm induced by the sup norm: maximum absolute row sum."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    return float(np.max(np.abs(a).sum(axis=1))) if a.size else 0.0


def symmetrize(entries: np.ndarray, out_rank: int) -> tuple[np.ndarray, float]:
    """Average over argument-axis permutations; returns (tensor, asymmetry)."""
    order = entries.ndim - out_rank
    if order < 2:
        return entries, 0.0
    dims = entries.shape[out_rank:]
    if len(set(dims)) != 1:
        return entries, 0.0  # mixed axes cannot be permuted
    acc = np.zeros_like(entries)
    perms = list(itertools.permutations(range(order)))
    base = tuple(range(out_rank))
    for p in perms:
        acc += np.transpose(entries, base + tuple(out_rank + i for i in p))
    acc /= len(perms)
    asym = float(np.max(np.abs(entries - acc))) if entries.size else 0.0
    return acc, asym


def _symmetrized(entries: np.ndarray, out_rank: int) -> np.ndarray:
    sym, asym = symmetrize(entries, out_rank)
    if asym > 1e-9:
        warnings.warn(
            f"derivative tensor asymmetric by {asym:.3e}", AsymmetryWarning
        )
    return sym


@dataclass(frozen=True)
class Jet:
    """Value and derivative tensors of one map at one point, orders 0..k."""

    point: np.ndarray = field(compare=False)
    tensors: tuple[MultilinearMap, ...]

    @property
    def order(self) -> int:
        return len(self.tensors) - 1

    @property
    def value(self) -> np.ndarray:
        return self.tensors[0].entries


def set_partitions(n: int):
    """All partitions of range(n); blocks sorted, first elements increasing."""
    if n == 0:
        yield ()
        return
    for part in set_partitions(n - 1):
        last = n - 1
        for i in range(len(part)):
            yield part[:i] + (part[i] + (last,),) + part[i + 1:]
        yield part + ((last,),)


def compose_tensor(
    outer: Sequence[MultilinearMap],
    inner: Sequence[MultilinearMap],
    ell: int,
) -> MultilinearMap:
    """Derivative tensor of a composition from the factors' tensors.

    ``outer[b]`` is the order-b tensor of the outer map at the inner value,
    ``inner[b]`` the order-b tensor of the inner map at the base point.
    Summing the block-contracted terms over all set partitions of the
    argument slots yields the (symmetric) chain-rule tensor.
    """
    if ell == 0:
        return outer[0]
    o = outer[0].out_rank
    m = inner[1].in_dims[0]
    out_shape = outer[0].out_shape
    total = np.zeros(out_shape + (m,) * ell)
    for part in set_partitions(ell):
        v = outer[len(part)].entries
        for block in part:
            v = np.tensordot(v, inner[len(block)].entries, axes=(o, 0))
        # axes are now: outputs, then the blocks' argument axes in order
        slot_order = [s for block in part for s in block]
        perm = list(range(o)) + [o + slot_order.index(s) for s in range(ell)]
        total += np.transpose(v, perm)
    return MultilinearMap(_symmetrized(total, o), o)


# ---------------------------------------------------------------------------
# maps with exact jets


class JetMap:
    """A C^k map on a box/ball domain with exact derivative tensors.

    Subclasses implement :meth:`tensors`, which evaluates one derivative
    order at a whole array of points; every other evaluation (one tensor,
    one value, one jet) is a batch of one.
    """

    def __init__(
        self,
        domain: DomainSet,
        out_shape: tuple[int, ...],
        max_order: int | None = None,
        desc: dict | None = None,
        in_blocks: tuple[int, ...] | None = None,
        out_blocks: tuple[int, ...] | None = None,
    ):
        self.domain = domain
        self.out_shape = tuple(out_shape)
        self.max_order = max_order
        self.desc = desc
        self.in_blocks = in_blocks
        self.out_blocks = out_blocks

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.out_shape))

    def _check_order(self, ell: int):
        if ell < 0:
            raise OrderError("negative derivative order")
        if self.max_order is not None and ell > self.max_order:
            raise OrderError(
                f"order {ell} exceeds declared max order {self.max_order}"
            )

    def tensors(self, points: np.ndarray, ell: int) -> np.ndarray:
        """Order-``ell`` derivative entries at each row of the float array
        ``points`` ``(N, dim)``: shape ``(N,) + out_shape + (dim,) * ell``.
        Row ``i`` is bit-identical whatever the other rows are.  The
        result may be a cached array (or a view of one) shared with other
        callers and read-only; copy it before writing."""
        raise NotImplementedError

    def tensor(self, x, ell: int) -> MultilinearMap:
        x = np.asarray(x, dtype=float)
        return MultilinearMap(self.tensors(x[None], ell)[0], len(self.out_shape))

    def value(self, x) -> np.ndarray:
        return self.tensors(np.asarray(x, dtype=float)[None], 0)[0]

    def differential(self) -> "DifferentialMap":
        return DifferentialMap(self)


class ConstMap(JetMap):
    def __init__(self, domain: DomainSet, value):
        c = np.asarray(value, dtype=float)
        super().__init__(domain, c.shape, desc={"kind": "const", "c": c.tolist()})
        self.c = c

    def tensors(self, points, ell):
        self._check_order(ell)
        if ell == 0:
            return np.broadcast_to(self.c, (len(points),) + self.c.shape).copy()
        return np.zeros((len(points),) + self.out_shape + (self.dim,) * ell)


class AffineMap(JetMap):
    def __init__(self, domain: DomainSet, a, b=None):
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[1] != domain.dim:
            raise ShapeError("matrix shape must be (out, dim)")
        b = np.zeros(a.shape[0]) if b is None else np.asarray(b, dtype=float)
        super().__init__(
            domain,
            (a.shape[0],),
            desc={"kind": "affine", "a": a.tolist(), "b": b.tolist()},
        )
        self.a, self.b = a, b

    def tensors(self, points, ell):
        self._check_order(ell)
        n = len(points)
        if ell == 0:
            # a stack of matrix-vector products: one BLAS gemv per point, as
            # ``a @ x`` does (a single gemm over all points rounds differently)
            return (self.a @ points[:, :, None])[:, :, 0] + self.b
        if ell == 1:
            return np.broadcast_to(self.a, (n,) + self.a.shape).copy()
        return np.zeros((n,) + self.out_shape + (self.dim,) * ell)


def identity_map(domain: DomainSet) -> AffineMap:
    return AffineMap(domain, np.eye(domain.dim))


@functools.cache
def _poly_table(powers: tuple[tuple[int, ...], ...], ell: int):
    """Index tables of the order-``ell`` (>= 1) derivative of a polynomial
    with term powers ``powers``, built once per (powers, ell) and shared by
    every map with those powers, so callers only read them.

    One row per (term, multi-index j*) whose entry survives, i.e. no axis
    is differentiated more often than its power, in term order.  Returns
    the rows' flat entry indices and term indices, and per axis the
    falling-factorial factor columns (padded with exact 1.0 multipliers)
    and the rows' remaining exponents.  On axis 0 the factors multiply
    1.0, so their (exact, integer) product is one column.
    """
    m = len(powers[0])
    flat, term, falls, expos = [], [], [], []
    for t, pw in enumerate(powers):
        if sum(pw) < ell:
            continue
        for f, jidx in enumerate(itertools.product(range(m), repeat=ell)):
            beta = [jidx.count(a) for a in range(m)]
            if any(b > p for b, p in zip(beta, pw)):
                continue
            fall = [[pw[a] - k for k in range(beta[a])] for a in range(m)]
            fall[0] = [math.prod(fall[0])] if fall[0] else []
            flat.append(f)
            term.append(t)
            falls.append(fall)
            expos.append([p - b for p, b in zip(pw, beta)])
    axes = []
    for a in range(m):
        width = max((len(fall[a]) for fall in falls), default=0)
        cols = [
            np.array([fall[a][k] if k < len(fall[a]) else 1.0 for fall in falls])
            for k in range(width)
        ]
        axes.append((cols, np.array([e[a] for e in expos], dtype=np.intp)))
    return np.array(flat, dtype=np.intp), np.array(term, dtype=np.intp), axes


def _poly_tensors(pm: "PolynomialMap", coefs: np.ndarray, points: np.ndarray,
                  ell: int) -> np.ndarray:
    """Order-``ell`` derivative entries ``(N, n) + (m,)*ell`` of ``pm`` at
    ``points``, with the term coefficient vectors ``coefs`` ``(T, n)``.

    Every entry is computed in the order of the one-point formula: per
    term, the coefficient times (per axis: falling factorials, then the
    power), summed over terms in term order.  At order 0 the powers are
    numpy's ``point ** powers``; at higher orders they are libm's ``pow``
    (``math.pow``), which numpy's vectorized ``power`` does not match in
    the last bit on every CPU.
    """
    n_pts, m = points.shape
    n_terms, n = coefs.shape
    if ell == 0:
        # every power in one call on flat arrays: numpy's loop for a
        # broadcast exponent (or a 2-D batch of one) squares where the
        # one-point ``point ** powers`` calls pow
        base = np.empty((n_pts, n_terms, m))
        base[:] = points[:, None, :]
        expo = np.empty(base.shape, dtype=pm._powers.dtype)
        expo[:] = pm._powers
        pows = (base.reshape(-1) ** expo.reshape(-1)).reshape(base.shape)
        prods = np.multiply.reduce(pows, axis=2)
        ent = np.zeros((n_pts, n))
        for t, cc in enumerate(coefs):
            ent += cc * prods[:, t:t + 1]
        return ent
    flat, term, axes = _poly_table(pm._power_key, ell)
    scale = np.ones((n_pts, len(flat)))
    for a, (cols, expo) in enumerate(axes):
        for col in cols:
            scale *= col
        top = int(expo.max(initial=0))
        if top:
            pows = [[math.pow(x, k) for k in range(top + 1)] for x in points[:, a].tolist()]
            scale *= np.array(pows)[:, expo]
    ent = np.zeros((n_pts, n, m**ell))
    # unbuffered adds in row (= term) order, as the one-point sum runs
    np.add.at(ent, (slice(None), slice(None), flat),
              coefs[term].T * scale[:, None, :])
    return ent.reshape((n_pts, n) + (m,) * ell)


class PolynomialMap(JetMap):
    """sum over terms of coef * x^powers, with exact tensors of any order.

    Evaluations are cached per instance by the exact input bits, as
    ``InverseMap.solves`` caches its fixed points: :meth:`tensors` by the
    points' dtype, shape and bytes and the order, the certified entry
    bounds by the order.  A cached array is shared and read-only; callers
    copy before writing.
    """

    def __init__(self, domain: DomainSet, terms, in_blocks=None):
        terms = tuple(
            (np.asarray(c, dtype=float), tuple(int(p) for p in pw))
            for c, pw in terms
        )
        if not terms:
            raise ShapeError("polynomial needs at least one term")
        n = terms[0][0].shape[0]
        for c, pw in terms:
            if c.shape != (n,) or len(pw) != domain.dim:
                raise ShapeError("inconsistent polynomial term shapes")
        desc = {
            "kind": "poly",
            "terms": [{"coef": c.tolist(), "powers": list(p)} for c, p in terms],
        }
        super().__init__(domain, (n,), desc=desc, in_blocks=in_blocks)
        self.terms = terms
        self._coefs = np.array([c for c, _ in terms])
        self._power_key = tuple(pw for _, pw in terms)  # key of _poly_table
        self._powers = np.array(self._power_key)
        self._tensors_cache: dict[tuple, np.ndarray] = {}
        self._bounds_cache: dict[int, np.ndarray] = {}

    def tensors(self, points, ell):
        self._check_order(ell)
        key = (points.dtype.str, points.shape, points.tobytes(), ell)
        ent = self._tensors_cache.get(key)
        if ent is None:
            ent = _poly_tensors(self, self._coefs, points, ell)
            ent.flags.writeable = False
            self._tensors_cache[key] = ent
        return ent


class TrigPolynomialMap(JetMap):
    """sum over terms of coef * sin(freq . x + phase)."""

    def __init__(self, domain: DomainSet, terms, in_blocks=None):
        terms = tuple(
            (np.asarray(c, dtype=float), np.asarray(u, dtype=float), float(p))
            for c, u, p in terms
        )
        n = terms[0][0].shape[0]
        for c, u, _ in terms:
            if c.shape != (n,) or u.shape != (domain.dim,):
                raise ShapeError("inconsistent trig term shapes")
        desc = {
            "kind": "trig",
            "terms": [
                {"coef": c.tolist(), "freq": u.tolist(), "phase": p}
                for c, u, p in terms
            ],
        }
        super().__init__(domain, (n,), desc=desc, in_blocks=in_blocks)
        self.terms = terms

    def tensors(self, points, ell):
        self._check_order(ell)
        ent = np.zeros((len(points),) + self.out_shape + (self.dim,) * ell)
        for c, u, phase in self.terms:
            # math.sin per point: numpy's vectorized sin rounds differently
            s = np.array([
                math.sin(float(np.dot(u, x)) + phase + ell * math.pi / 2.0)
                for x in points
            ])
            block = c
            for _ in range(ell):
                block = np.multiply.outer(block, u)
            ent += s.reshape((-1,) + (1,) * block.ndim) * block
        return ent


class SumMap(JetMap):
    def __init__(self, parts: Sequence[JetMap]):
        parts = tuple(parts)
        first = parts[0]
        if any(p.out_shape != first.out_shape or p.dim != first.dim for p in parts):
            raise ShapeError("summands must share domain and codomain")
        orders = [p.max_order for p in parts if p.max_order is not None]
        desc = None
        if all(p.desc is not None for p in parts):
            desc = {"kind": "sum", "parts": [p.desc for p in parts]}
        super().__init__(
            first.domain,
            first.out_shape,
            min(orders) if orders else None,
            desc=desc,
            in_blocks=first.in_blocks,
        )
        self.parts = parts

    def tensors(self, points, ell):
        self._check_order(ell)
        ts = [p.tensors(points, ell) for p in self.parts]
        ent = ts[0].copy()
        for t in ts[1:]:
            ent += t
        return ent


class ScaledMap(JetMap):
    def __init__(self, base: JetMap, c: float):
        desc = None
        if base.desc is not None:
            desc = {"kind": "scaled", "c": float(c), "base": base.desc}
        super().__init__(
            base.domain, base.out_shape, base.max_order, desc=desc,
            in_blocks=base.in_blocks, out_blocks=base.out_blocks,
        )
        self.base, self.c = base, float(c)

    def tensors(self, points, ell):
        return self.c * self.base.tensors(points, ell)


def difference_map(a: JetMap, b: JetMap) -> SumMap:
    return SumMap([a, ScaledMap(b, -1.0)])


class PairMap(JetMap):
    """Stack the outputs of maps sharing a domain; codomain blocks recorded."""

    def __init__(self, parts: Sequence[JetMap]):
        parts = tuple(parts)
        if any(len(p.out_shape) != 1 for p in parts):
            raise ShapeError("can only pair vector-valued maps")
        orders = [p.max_order for p in parts if p.max_order is not None]
        desc = None
        if all(p.desc is not None for p in parts):
            desc = {"kind": "pair", "parts": [p.desc for p in parts]}
        super().__init__(
            parts[0].domain,
            (sum(p.out_dim for p in parts),),
            min(orders) if orders else None,
            desc=desc,
            out_blocks=tuple(p.out_dim for p in parts),
        )
        self.parts = parts

    def tensors(self, points, ell):
        self._check_order(ell)
        return np.concatenate([p.tensors(points, ell) for p in self.parts], axis=1)


class ComponentMap(JetMap):
    """An output-coordinate slice of a vector-valued map."""

    def __init__(self, base: JetMap, lo: int, hi: int):
        if len(base.out_shape) != 1 or not (0 <= lo < hi <= base.out_dim):
            raise ShapeError("bad component slice")
        desc = None
        if base.desc is not None:
            desc = {"kind": "component", "lo": lo, "hi": hi, "base": base.desc}
        super().__init__(base.domain, (hi - lo,), base.max_order, desc=desc)
        self.base, self.lo_idx, self.hi_idx = base, lo, hi

    def tensors(self, points, ell):
        return self.base.tensors(points, ell)[:, self.lo_idx:self.hi_idx]


class ComposeMap(JetMap):
    """Composition outer(inner(x)) with chain-rule jets over set partitions."""

    def __init__(self, outer: JetMap, inner: JetMap):
        if len(inner.out_shape) != 1 or inner.out_dim != outer.dim:
            raise ShapeError("inner codomain must match outer domain")
        orders = [m.max_order for m in (outer, inner) if m.max_order is not None]
        super().__init__(
            inner.domain,
            outer.out_shape,
            min(orders) if orders else None,
            out_blocks=outer.out_blocks,
        )
        self.outer, self.inner = outer, inner

    def tensors(self, points, ell):
        self._check_order(ell)
        inner = [self.inner.tensors(points, b) for b in range(ell + 1)]
        outer = [self.outer.tensors(inner[0], b) for b in range(ell + 1)]
        if ell == 0:
            return outer[0]
        if ell == 1:
            # the single partition of one slot: outer' . inner', contracted
            # by one BLAS call per point as compose_tensor's tensordot does
            v = outer[1].reshape(len(points), -1, self.outer.dim) @ inner[1]
            total = np.zeros(outer[0].shape + (self.dim,))
            total += v.reshape(total.shape)
            return total
        # higher orders sum tensordot terms per point, in compose_tensor's order
        o = len(self.out_shape)
        return np.stack([
            compose_tensor(
                [MultilinearMap(t[i], o) for t in outer],
                [MultilinearMap(t[i], 1) for t in inner],
                ell,
            ).entries
            for i in range(len(points))
        ])


class DifferentialMap(JetMap):
    """The Fréchet differential as an operator-valued map.

    Its order-l tensor is the curried order-(l+1) tensor of the base map,
    a pure reindexing, so reduction-to-lower-order identities hold bit for
    bit.
    """

    def __init__(self, base: JetMap):
        super().__init__(
            base.domain,
            base.out_shape + (base.dim,),
            None if base.max_order is None else base.max_order - 1,
        )
        self.base = base

    def tensors(self, points, ell):
        self._check_order(ell)
        t = self.base.tensors(points, ell + 1)
        return np.moveaxis(t, -1, 1 + len(self.base.out_shape))


class PartialD2Map(JetMap):
    """The partial differential in the second block of a two-block map.

    Tensors are slices of the base map's next-order tensors: the operator
    slot is the last derivative direction restricted to the second block.
    """

    def __init__(self, base: JetMap):
        if base.in_blocks is None or len(base.in_blocks) != 2:
            raise ShapeError("base map must declare two input blocks")
        if len(base.out_shape) != 1:
            raise ShapeError("base map must be vector-valued")
        self.m1, self.m2 = base.in_blocks
        super().__init__(
            base.domain,
            base.out_shape + (self.m2,),
            None if base.max_order is None else base.max_order - 1,
            in_blocks=base.in_blocks,
        )
        self.base = base

    def tensors(self, points, ell):
        self._check_order(ell)
        t = self.base.tensors(points, ell + 1)
        return np.moveaxis(t[..., self.m1:], -1, 2)


def _leibniz_multi(b, jets, ell: int, m: int) -> np.ndarray:
    """Order-``ell`` tensor of x -> b(f_1(x), ..., f_k(x)) at one point
    from the factors' tensors ``jets[j][r]`` of orders 0..ell."""
    k = len(jets)
    ent = np.zeros((b.shape[0],) + (m,) * ell)
    for assign in itertools.product(range(k), repeat=ell):
        blocks = [[s for s in range(ell) if assign[s] == j] for j in range(k)]
        v = b
        for j in range(k):
            v = np.tensordot(v, jets[j][len(blocks[j])], axes=(1, 0))
        slots = [s for block in blocks for s in block]
        perm = [0] + [1 + slots.index(s) for s in range(ell)]
        ent += np.transpose(v, perm)
    return _symmetrized(ent, 1)


class MultilinearPairMap(JetMap):
    """x -> b(f_1(x), ..., f_k(x)) for a constant k-linear b."""

    def __init__(self, b: np.ndarray, maps: Sequence[JetMap]):
        b = np.asarray(b, dtype=float)
        maps = tuple(maps)
        if b.ndim != len(maps) + 1:
            raise ShapeError("k-linear tensor rank must be k + 1")
        for j, mp in enumerate(maps):
            if b.shape[1 + j] != mp.out_dim:
                raise ShapeError(f"slot {j} dimension mismatch")
        orders = [m.max_order for m in maps if m.max_order is not None]
        super().__init__(
            maps[0].domain, (b.shape[0],), min(orders) if orders else None
        )
        self.b, self.maps = b, maps

    def tensors(self, points, ell):
        self._check_order(ell)
        jets = [[mp.tensors(points, r) for r in range(ell + 1)] for mp in self.maps]
        # contracted per point: tensordot's BLAS calls fix the bits
        return np.stack([
            _leibniz_multi(self.b, [[t[i] for t in jet] for jet in jets], ell, self.dim)
            for i in range(len(points))
        ])


class PairedDerivativeMap(JetMap):
    """(u, e) -> pairing(g(u), e) for an operator-valued g, linear in e.

    With g the second-block partial differential of a two-block map this
    realizes the auxiliary maps used to push superposition through higher
    orders; with g a full differential it realizes the restricted
    directional-derivative map.  ``pairing`` is "evaluate" (apply the
    operator to a vector) or "compose" (compose with another operator).
    """

    def __init__(self, g: JetMap, pairing: str, e_box_radius: float,
                 compose_cols: int | None = None):
        if len(g.out_shape) != 2:
            raise ShapeError("g must be operator-valued, out_shape (p, q)")
        if pairing not in ("evaluate", "compose"):
            raise ShapeError(f"unknown pairing {pairing!r}")
        p, q = g.out_shape
        if pairing == "evaluate":
            e_shape: tuple[int, ...] = (q,)
            out_shape: tuple[int, ...] = (p,)
        else:
            s = compose_cols if compose_cols is not None else g.domain.dim
            e_shape = (q, s)
            out_shape = (p, s)
        me = int(np.prod(e_shape))
        dom = product_box(
            g.domain.as_box(), box([-e_box_radius] * me, [e_box_radius] * me)
        )
        super().__init__(
            dom,
            out_shape,
            g.max_order,
            in_blocks=(g.domain.dim, me),
        )
        self.g, self.pairing, self.e_shape = g, pairing, e_shape

    def _pair(self, a: np.ndarray, e: np.ndarray) -> np.ndarray:
        if self.pairing == "evaluate":
            return a @ e
        return a @ e.reshape(self.e_shape)

    def tensors(self, points, ell):
        # the pairing contracts one point at a time: numpy's dot picks its
        # BLAS (or scalar) path from the one-point shapes, which fixes the
        # bits (signed zeros included)
        self._check_order(ell)
        mu = self.g.domain.dim
        u = np.ascontiguousarray(points[:, :mu])
        e = np.ascontiguousarray(points[:, mu:])
        n = len(points)
        if ell == 0:
            return np.stack([self._pair(a, ei) for a, ei in zip(self.g.tensors(u, 0), e)])
        me = int(np.prod(self.e_shape))
        m = mu + me
        ent = np.zeros((n,) + self.out_shape + (m,) * ell)
        pts_sl = (slice(None),) * (1 + len(self.out_shape))
        # all argument slots in the u block
        tl = self.g.tensors(u, ell)  # (n, p, q) + (mu,)*ell
        if self.pairing == "compose":
            e = e.reshape((n,) + self.e_shape)
        t1 = np.stack([np.tensordot(a, ei, axes=(1, 0)) for a, ei in zip(tl, e)])
        if self.pairing == "compose":
            t1 = np.moveaxis(t1, -1, 2)  # (n, p, s) + (mu,)*ell
        ent[pts_sl + (slice(0, mu),) * ell] = t1
        # exactly one argument slot in the e block
        tl1 = self.g.tensors(u, ell - 1)  # (n, p, q) + (mu,)*(ell-1)
        for j in range(ell):
            for kappa in range(me):
                if self.pairing == "evaluate":
                    piece = tl1[:, :, kappa, ...]
                else:
                    qi, si = divmod(kappa, self.e_shape[1])
                    piece = np.zeros((n,) + self.out_shape + (mu,) * (ell - 1))
                    piece[:, :, si, ...] = tl1[:, :, qi, ...]
                idx = (
                    pts_sl
                    + (slice(0, mu),) * j
                    + (mu + kappa,)
                    + (slice(0, mu),) * (ell - 1 - j)
                )
                ent[idx] = piece
        return ent


def xi2_build(xi: JetMap, pairing: str, e_box_radius: float = 1.0) -> PairedDerivativeMap:
    """The auxiliary map (x, y, e) -> pairing(d2 xi(x, y), e).

    For the composition pairing the operator slot holds elements of
    L(X, Y) with X the first input block of xi.
    """
    if xi.in_blocks is None or len(xi.in_blocks) != 2:
        raise ShapeError("xi must declare two input blocks")
    return PairedDerivativeMap(
        PartialD2Map(xi), pairing, e_box_radius, compose_cols=xi.in_blocks[0]
    )


# ---------------------------------------------------------------------------
# partial-derivative views of two-block maps


def partial1_tensor(xi: JetMap, point, ell: int) -> MultilinearMap:
    """The order-l derivative in the first block only (all axes sliced)."""
    if xi.in_blocks is None or len(xi.in_blocks) != 2:
        raise ShapeError("map must declare two input blocks")
    m1 = xi.in_blocks[0]
    t = xi.tensor(point, ell)
    ent = t.entries
    for axis in range(t.out_rank, ent.ndim):
        ent = np.take(ent, range(m1), axis=axis)
    return MultilinearMap(ent, t.out_rank)


def mixed_partial1_tensor(xi: JetMap, point, ell: int) -> MultilinearMap:
    """The (l+1)-linear map (h_1..h_l, y) -> d1^l xi(x, .)(h)(y).

    For maps linear in the second argument this is independent of the
    second coordinate of ``point``; it is the order-(l+1) tensor with l
    axes restricted to the first block and the last to the second.
    """
    if xi.in_blocks is None or len(xi.in_blocks) != 2:
        raise ShapeError("map must declare two input blocks")
    m1, _ = xi.in_blocks
    t = xi.tensor(point, ell + 1)
    ent = t.entries
    for axis in range(t.out_rank, ent.ndim - 1):
        ent = np.take(ent, range(m1), axis=axis)
    ent = np.take(ent, range(m1, m1 + xi.in_blocks[1]), axis=ent.ndim - 1)
    return MultilinearMap(ent, t.out_rank)


# ---------------------------------------------------------------------------
# finite differences (oracle only)


@functools.cache
def _fd_offsets(m: int, order: int, h1: float, h2: float):
    """The central-difference stencil of orders 0..``order`` in dimension
    ``m``, built once per (m, order, h1, h2) and shared, so callers only
    read it.

    Entry ``s`` of the stencil at ``x`` is ``(x + o1[s]) + o2[s]``, in the
    order x; x + h1 e_j, x - h1 e_j per j; then per i, x + h2 e_i,
    x - h2 e_i and x ± h2 e_i ± h2 e_j per j > i.  ``x - e`` is
    ``x + (-e)`` bit for bit, and where a one-point stencil adds nothing
    the table holds -0.0, which leaves every coordinate, -0.0 included,
    as it is; so each entry carries the bits of the one-point stencil
    ``x``, ``x ± e_j`` or ``x ± e_i ± e_j``.

    Also returns ``second``, the entries the second differences read,
    grouped as x + e_i, x - e_i (per i), then x + e_i + e_j, x + e_i - e_j,
    x - e_i + e_j, x - e_i - e_j (per pair i < j), and ``sym``, which
    takes the flattened (m, m) matrix from the m diagonal differences
    followed by the pairs' differences."""
    none = np.full(m, -0.0)

    def step(j, size):
        e = np.zeros(m)
        e[j] = size
        return e

    o1, o2 = [none], [none]
    if order >= 1:
        for j in range(m):
            o1 += [step(j, h1), -step(j, h1)]
            o2 += [none, none]
    diag, quad = [], []
    sym = np.zeros(m * m, dtype=np.intp)
    sym[::m + 1] = np.arange(m)
    if order >= 2:
        for i in range(m):
            ei = step(i, h2)
            diag.append(len(o1))
            o1 += [ei, -ei]
            o2 += [none, none]
            for j in range(i + 1, m):
                ej = step(j, h2)
                sym[[i * m + j, j * m + i]] = m + len(quad)
                quad.append(len(o1))
                o1 += [ei, ei, -ei, -ei]
                o2 += [ej, -ej, ej, -ej]
    second = [s + k for k in (0, 1) for s in diag] + [s + k for k in range(4) for s in quad]
    table = (np.array(o1), np.array(o2), np.array(second, dtype=np.intp), sym)
    for a in table:
        a.flags.writeable = False
    return table


def _fd_differences(vals: np.ndarray, m: int, order: int, h1: float, h2: float) -> list:
    """Central differences of orders 0..``order``: one ``(N,) + out_shape
    + (m,)*l`` array per order, from the values ``vals`` ``(N, S) +
    out_shape`` at the S entries of the :func:`_fd_offsets` stencil of
    each of N points.  Each difference is one expression over slices of
    the stencil axis for all rows at once, so row ``i`` carries the bits
    of a one-point difference: the one difference rule."""
    _, _, second, sym = _fd_offsets(m, order, h1, h2)
    # (point,) + out_shape + (stencil entry,)
    v = np.moveaxis(vals, 1, -1)
    f0 = v[..., 0]
    tensors = [f0]
    if order >= 1:
        tensors.append((v[..., 1:2 * m + 1:2] - v[..., 2:2 * m + 2:2]) / (2 * h1))
    if order >= 2:
        w = v.take(second, axis=-1)
        d2 = (w[..., :m] - 2 * f0[..., None] + w[..., m:2 * m]) / h2**2
        if m > 1:
            s = np.split(w[..., 2 * m:], 4, axis=-1)
            pairs = (s[0] - s[1] - s[2] + s[3]) / (4 * h2**2)
            d2 = np.concatenate([d2, pairs], axis=-1).take(sym, axis=-1)
        tensors.append(d2.reshape(d2.shape[:-1] + (m, m)))
    return tensors


def _fd_prefix(map_: JetMap, points, order: int, h: float | None):
    """Central differences of orders 0..``order`` at the leading rows of
    ``points`` whose stencils lie inside the domain, and the error naming
    the first stencil point outside (``None`` when every stencil is inside).

    All stencils are ``(x[:, None, :] + o1) + o2`` from the cached offset
    table of :func:`_fd_offsets`, so each entry has the bits of a
    one-point stencil, signed zeros included.  They take one membership
    test and one ``tensors`` call, and :func:`_fd_differences` takes the
    differences of all points at once."""
    if order > 2:
        raise OrderError("finite differences provided for orders <= 2")
    x = np.asarray(points, dtype=float)
    n, m = x.shape
    h1 = FD_STEP_ORDER1 if h is None else h
    h2 = FD_STEP_ORDER2 if h is None else h
    o1, o2 = _fd_offsets(m, order, h1, h2)[:2]
    # (point, stencil entry, axis): probe order is row-major
    stencil = (x[:, None, :] + o1) + o2
    inside = map_.domain.members(stencil.reshape(-1, m)).reshape(n, -1)
    n_in = int(_inside_prefix(inside[None])[0])
    outside = None if n_in == n else _outside_error(stencil[n_in], inside[n_in])
    vals = map_.tensors(stencil[:n_in].reshape(-1, m), 0) if n_in else \
        np.empty((0,) + map_.out_shape)
    return _fd_differences(vals.reshape((n_in, len(o1)) + map_.out_shape),
                           m, order, h1, h2), outside


def _inside_prefix(inside: np.ndarray) -> np.ndarray:
    """Per leading index of the ``(G, N, S)`` stencil membership
    ``inside``, the number of leading points whose whole stencil is inside."""
    whole = inside.all(axis=2)
    # the first False of each row, with one more False after its last point
    return np.argmin(np.concatenate([whole, np.zeros((len(whole), 1), bool)], axis=1), axis=1)


def _outside_error(stencil: np.ndarray, inside: np.ndarray) -> DomainMembershipError:
    """The error naming the first point of one point's ``stencil`` ``(S, m)``
    that is not ``inside``."""
    p = stencil[np.argmin(inside)]
    return DomainMembershipError(
        f"finite-difference stencil point {p.tolist()} leaves the domain"
    )


def fd_tensors(map_: JetMap, points, order: int, h: float | None = None) -> list:
    """Central-difference derivative entries of orders 0..``order`` (O(h^2)
    error) at every row of ``points``: one ``(N,) + out_shape + (dim,)*l``
    array per order.  Every stencil must stay inside the domain; the first
    stencil point outside, in the order of the points, is named."""
    tensors, outside = _fd_prefix(map_, points, order, h)
    if outside is not None:
        raise outside
    return tensors


def fd_jet(map_: JetMap, x, order: int, h: float | None = None) -> Jet:
    """Central-difference jet at one point: :func:`fd_tensors` on a batch
    of one."""
    x = np.asarray(x, dtype=float)
    rank = len(map_.out_shape)
    return Jet(x, tuple(
        MultilinearMap(t[0], rank) for t in fd_tensors(map_, x[None], order, h)
    ))


def _fd_top(map_: JetMap) -> int:
    """The highest order jet validation compares: 2, or the map's declared
    max order when lower (below 1 for a value-only map, which has nothing
    differentiable to cross-check)."""
    return 2 if map_.max_order is None else min(2, map_.max_order)


def _draw_probes(map_: JetMap, rng: np.random.Generator) -> np.ndarray:
    """The ``FD_PROBES`` probes of one map: drawn from the middle half of
    its domain's bounding box in rounds of one ``(missing, dim)`` uniform
    draw and one membership test, keeping the rows inside, which is the
    stream and the probes of drawing one row at a time.  A domain that
    keeps fewer in ``MAX_PROBE_ROUNDS`` rounds is a DataError naming it."""
    dom = map_.domain
    lo, hi = dom.bounding_box()
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    probes = np.empty((0, map_.dim))
    for _ in range(MAX_PROBE_ROUNDS):
        x = mid + 0.5 * half * rng.uniform(-1, 1, size=(FD_PROBES - len(probes), map_.dim))
        probes = np.concatenate([probes, x[dom.members(x)]])
        if len(probes) == FD_PROBES:
            return probes
    where = (f"box lo={list(dom.lo)} hi={list(dom.hi)}" if dom.kind == BOX else
             f"{dom.space.norm_kind} ball center={list(dom.center)} radius={dom.radius}")
    raise DataError(f"jet validation: fewer than {FD_PROBES} probes land inside the "
                    f"{where} in {MAX_PROBE_ROUNDS} draw rounds")


class _FdStack:
    """The maps of one (dim, compared orders, out_shape), in validation
    order, with their probes, stencils, coded tensors and stencil values
    in stacked arrays ``(map, probe, ...)``.

    The stencils are one array ``(X[:, None, :] + o1) + o2`` over every
    probe, with one membership test per distinct domain.  Each map's
    ``tensors`` calls write into the preallocated arrays, the stencil
    values only at the leading probes whose stencil is inside, as
    :func:`_fd_prefix` evaluates them."""

    def __init__(self, jobs, m: int, top: int, out_shape: tuple[int, ...]):
        self.jobs, self.m, self.top = jobs, m, top
        o1, o2 = _fd_offsets(m, top, FD_STEP_ORDER1, FD_STEP_ORDER2)[:2]
        self.probes = np.stack([probes for _, _, probes in jobs])
        # (map, probe, stencil entry, axis)
        self.stencil = (self.probes[:, :, None, :] + o1) + o2
        self.inside = np.empty(self.stencil.shape[:3], dtype=bool)
        by_domain: dict[DomainSet, list[int]] = {}
        for g, (_, map_, _) in enumerate(jobs):
            by_domain.setdefault(map_.domain, []).append(g)
        for dom, rows in by_domain.items():
            self.inside[rows] = dom.members(self.stencil[rows].reshape(-1, m)).reshape(
                (len(rows),) + self.inside.shape[1:])
        self.n_in = _inside_prefix(self.inside)
        n = len(jobs)
        self.exact = [np.zeros((n, FD_PROBES) + out_shape + (m,) * ell)
                      for ell in range(1, top + 1)]
        self.vals = np.zeros(self.inside.shape + out_shape)

    def evaluate(self, g: int):
        """Map ``g``'s coded tensors at its probes, then its values at the
        stencils of its leading probes inside: one map's evaluations, in
        the order of :func:`validate_jet_map` on it alone."""
        map_, n_in = self.jobs[g][1], self.n_in[g]
        for ell, exact in enumerate(self.exact, 1):
            exact[g] = map_.tensors(self.probes[g], ell)
        if n_in:
            self.vals[g, :n_in] = map_.tensors(
                self.stencil[g, :n_in].reshape(-1, self.m), 0
            ).reshape(self.vals[g, :n_in].shape)

    def first_failure(self, stop: int):
        """``(index, error)`` of the first of the maps before validation
        index ``stop`` whose comparison fails, or ``None``.

        Each order is compared at every probe of every map at once: the
        largest entry error must be at most ``1e-4 * max(1, largest coded
        entry)``, and a NaN or infinite entry on either side is a
        disagreement.  A map's first failing (probe, order), probe by
        probe and order by order, is raised ahead of a stencil that leaves
        the domain at a later probe."""
        n = sum(k < stop for k, _, _ in self.jobs)
        if not n:
            return None
        vals = self.vals[:n]
        approx = _fd_differences(vals.reshape((-1,) + vals.shape[2:]),
                                 self.m, self.top, FD_STEP_ORDER1, FD_STEP_ORDER2)
        errs, bad = [], []
        for exact, ap in zip(self.exact, approx[1:]):
            ex = exact[:n].reshape(len(ap), math.prod(ap.shape[1:]))
            err = np.abs(ex - ap.reshape(ex.shape)).max(axis=1)
            scale = np.maximum(1.0, np.abs(ex).max(axis=1))
            # a NaN or infinite entry on either side makes err NaN or infinite
            bad.append(~((err <= 1e-4 * scale) & np.isfinite(err)))
            errs.append(err.reshape(n, FD_PROBES))
        n_in = self.n_in[:n]
        # (map, probe, order); probes from the first stencil outside on are not compared
        bad = np.stack(bad, axis=-1).reshape(n, FD_PROBES, self.top)
        bad &= (np.arange(FD_PROBES) < n_in[:, None])[..., None]
        failing = bad.any(axis=(1, 2)) | (n_in < FD_PROBES)
        if not failing.any():
            return None
        g = int(np.argmax(failing))
        k = self.jobs[g][0]
        if bad[g].any():
            i, o = divmod(int(np.argmax(bad[g])), self.top)
            return k, PreconditionError(
                f"jet of order {o + 1} disagrees with finite differences "
                f"by {float(errs[o][g, i]):.3e} at {self.probes[g, i].tolist()}"
            )
        i = n_in[g]
        return k, _outside_error(self.stencil[g, i], self.inside[g, i])


def validate_jet_maps(maps: Sequence[JetMap], rng: np.random.Generator):
    """Ingest check: every map's coded tensors agree with central
    differences, in one pass over all ``maps``.

    Each map draws its probes from ``rng`` in list order (see
    :func:`_draw_probes`), so the stream and the probes are those of
    validating one map after another.  The maps are stacked by (dim,
    compared orders, out_shape), and every comparison is computed
    elementwise, with the bits of a one-map validation.  The error raised
    is the one of the earliest map in the list that fails; within a map,
    an exception from its own evaluation comes first, then its first
    failing (probe, order), then a stencil that leaves the domain.  No
    map after one whose probes cannot be drawn is drawn, and none after
    one whose evaluation raised is evaluated."""
    jobs, stop, error = [], len(maps), None
    for k, map_ in enumerate(maps):
        if _fd_top(map_) < 1:
            continue
        try:
            jobs.append((k, map_, _draw_probes(map_, rng)))
        except DataError as exc:
            stop, error = k, exc
            break
    groups: dict[tuple, list] = {}
    for job in jobs:
        map_ = job[1]
        groups.setdefault((map_.dim, _fd_top(map_), map_.out_shape), []).append(job)
    stacks = [_FdStack(g, *key) for key, g in groups.items()]
    slots = sorted((job[0], stack, g) for stack in stacks for g, job in enumerate(stack.jobs))
    try:
        for k, stack, g in slots:
            stack.evaluate(g)
    except Exception as exc:  # raised below unless an earlier map fails its comparison
        stop, error = k, exc
    failures = [f for f in (s.first_failure(stop) for s in stacks) if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    if error is not None:
        raise error


def validate_jet_map(map_: JetMap, rng: np.random.Generator):
    """A batch of one of :func:`validate_jet_maps`."""
    validate_jet_maps([map_], rng)


# ---------------------------------------------------------------------------
# identities and estimates for maps linear in the second argument


def linear2_identities_check(
    xi: JetMap,
    point,
    direction1,
    direction2,
    ell: int,
    g: JetMap | None = None,
    b: np.ndarray | None = None,
) -> list[CheckReport]:
    """Check the derivative identity and norm estimates of a two-block map
    linear in its second argument; with ``xi = b(g(x), y)`` also the
    factored-form estimates."""
    if xi.in_blocks is None or len(xi.in_blocks) != 2:
        raise ShapeError("map must declare two input blocks")
    m1, m2 = xi.in_blocks
    point = np.asarray(point, dtype=float)
    x, y = point[:m1], point[m1:]
    h1 = np.asarray(direction1, dtype=float)
    h2 = np.asarray(direction2, dtype=float)

    # linearity probe in the second argument
    for alpha in (0.5, -1.25):
        probe = np.concatenate([x, alpha * y])
        dev = float(
            np.max(np.abs(xi.value(probe) - alpha * xi.value(point)))
        )
        if dev > 1e-9 * max(1.0, float(np.max(np.abs(xi.value(point))))):
            raise PreconditionError(
                f"map is not linear in its second argument (deviation {dev:.2e})"
            )

    reports = []

    # zero section: d1^l xi(x, 0) = 0
    zero_pt = np.concatenate([x, np.zeros(m2)])
    dev0 = float(np.max(np.abs(partial1_tensor(xi, zero_pt, ell).entries)))
    reports.append(
        identity_report(
            "id:Ableitung_Abb_linear_2Arg", dev0, tolerance=1e-12,
            detail=f"partial derivative of order {ell} vanishes at y = 0",
        )
    )

    # derivative of t -> d1^l xi(x + t h1, y + t h2) against the stated
    # splitting; the left side is a finite-difference oracle
    def p1(t):
        pt = np.concatenate([x + t * h1, y + t * h2])
        return partial1_tensor(xi, pt, ell).entries

    h = 1e-5
    fd = (p1(h) - p1(-h)) / (2 * h)
    lin_term = partial1_tensor(
        xi, np.concatenate([x, h2]), ell
    ).entries
    contr = contract_last(partial1_tensor(xi, point, ell + 1), h1).entries
    dev = float(np.max(np.abs(fd - (lin_term + contr))))
    reports.append(
        identity_report(
            "id:Ableitung_Abb_linear_2Arg", dev, tolerance=1e-8,
            detail="curve derivative splits into shift and contraction terms",
        )
    )

    if ell >= 1:
        lhs = op_norm(xi.tensor(point, ell))
        rhs = ell * op_norm(mixed_partial1_tensor(xi, point, ell - 1)) + op_norm(
            mixed_partial1_tensor(xi, point, ell)
        ) * float(np.max(np.abs(y)) if y.size else 0.0)
        reports.append(
            bound_report(
                "est:norm_l-te_Ableitung-Abb_linear_2Arg",
                lhs,
                rhs,
                tolerance=1e-9,
                lhs_provenance="exact",
                rhs_provenance="exact",
                witness=tuple(point.tolist()),
            )
        )

    if g is not None and b is not None:
        bnorm = op_norm(MultilinearMap(np.asarray(b, dtype=float), 1))
        lhs3 = op_norm(mixed_partial1_tensor(xi, point, ell))
        rhs3 = bnorm * op_norm(g.tensor(x, ell))
        reports.append(
            bound_report(
                "est:Abb_linear_2Arg-Spezialfall-hohes_Diff--partiell",
                lhs3,
                rhs3,
                tolerance=1e-9,
                lhs_provenance="exact",
                rhs_provenance="exact",
                witness=tuple(point.tolist()),
            )
        )
        if ell >= 1:
            lhs4 = op_norm(xi.tensor(point, ell))
            rhs4 = bnorm * ell * op_norm(g.tensor(x, ell - 1)) + bnorm * float(
                np.max(np.abs(y)) if y.size else 0.0
            ) * op_norm(g.tensor(x, ell))
            reports.append(
                bound_report(
                    "est:Abb_linear_2Arg-Spezialfall-hohes_Diff",
                    lhs4,
                    rhs4,
                    tolerance=1e-9,
                    lhs_provenance="exact",
                    rhs_provenance="exact",
                    witness=tuple(point.tolist()),
                )
            )
    return reports


def xi2_pointwise_check(
    xi: JetMap,
    xi2: PairedDerivativeMap,
    points,
    ell: int,
    tol: float = 1e-9,
) -> CheckReport:
    """Pointwise derivative bound for the paired-derivative auxiliary map
    at each row of the point array ``points``: the order-l norm is at most
    l times the base order-l norm plus |e| times the order-(l+1) norm.
    The report is the worst row's (:func:`bound_rows`).

    The bound presumes the pairing has norm at most one, which holds
    exactly for the evaluation pairing; the composition pairing is only
    norm-exact when the operator slot is one-dimensional (the sign
    enumeration measures that slot entrywise).
    """
    if xi2.pairing == "compose" and min(xi2.e_shape) > 1:
        raise UnsupportedNormError(
            "composition-pairing estimate needs a one-dimensional operator slot"
        )
    points = np.asarray(points, dtype=float)
    mu = xi.domain.dim
    u, e = points[:, :mu], np.abs(points[:, mu:])
    if not e.size:
        e_norm = np.zeros(len(points))
    elif xi2.pairing == "compose":
        # opnorm_inf of each row's operator: its largest absolute row sum
        e_norm = e.reshape((len(points), -1, xi2.e_shape[-1])).sum(axis=2).max(axis=1)
    else:
        e_norm = e.max(axis=1)
    lhs = op_norms(xi2.tensors(points, ell), len(xi2.out_shape))
    out_rank = len(xi.out_shape)
    rhs = (ell * op_norms(xi.tensors(u, ell), out_rank)
           + e_norm * op_norms(xi.tensors(u, ell + 1), out_rank))
    return bound_rows(
        "lem:Abschaetzung_hoheDiffs_Spezialfall-linArg",
        lhs,
        rhs,
        tolerance=tol,
        lhs_provenance="exact",
        rhs_provenance="exact",
        witness=lambda k: tuple(points[k].tolist()),
    )


# ---------------------------------------------------------------------------
# coefficient-arithmetic certified bounds for built-ins


def _axis_sups(domain: DomainSet) -> np.ndarray:
    lo, hi = domain.bounding_box()
    return np.maximum(np.abs(lo), np.abs(hi))


def _entry_bounds(map_: JetMap, ell: int) -> np.ndarray:
    """Entrywise bounds sup_x |tensor(x, ell)[o, j*]|, rows flattened."""
    m = map_.dim
    if isinstance(map_, ConstMap):
        if ell == 0:
            return np.abs(map_.c).reshape(-1, 1)
        return np.zeros((map_.out_dim, m**ell))
    if isinstance(map_, AffineMap):
        if ell == 0:
            return (np.abs(map_.a) @ _axis_sups(map_.domain) + np.abs(map_.b)).reshape(-1, 1)
        if ell == 1:
            return np.abs(map_.a)
        return np.zeros((map_.out_dim, m**ell))
    if isinstance(map_, PolynomialMap):
        # a function of the coefficients and the domain's box alone
        ent = map_._bounds_cache.get(ell)
        if ent is None:
            coefs = np.abs(map_._coefs)
            corner = _axis_sups(map_.domain)[None]
            ent = _poly_tensors(map_, coefs, corner, ell)[0].reshape(map_.out_dim, -1)
            ent.flags.writeable = False
            map_._bounds_cache[ell] = ent
        return ent
    if isinstance(map_, TrigPolynomialMap):
        n = map_.out_dim
        out = np.zeros((n,) + (m,) * ell)
        for c, u, _ in map_.terms:
            block = np.abs(c)
            for _ in range(ell):
                block = np.multiply.outer(block, np.abs(u))
            out += block
        return out.reshape(n, -1)
    if isinstance(map_, SumMap):
        return sum(_entry_bounds(p, ell) for p in map_.parts)
    if isinstance(map_, ScaledMap):
        return abs(map_.c) * _entry_bounds(map_.base, ell)
    if isinstance(map_, PairMap):
        return np.concatenate([_entry_bounds(p, ell) for p in map_.parts], axis=0)
    if isinstance(map_, ComponentMap):
        return _entry_bounds(map_.base, ell)[map_.lo_idx:map_.hi_idx]
    raise ShapeError(f"no certified bound rule for {type(map_).__name__}")


def crude_sup_bound(map_: JetMap, ell: int) -> float:
    """A sound upper bound for sup_x of the order-l operator norm,
    obtained from coefficient arithmetic on the domain's bounding box."""
    if isinstance(map_, DifferentialMap):
        return crude_sup_bound(map_.base, ell + 1)
    e = _entry_bounds(map_, ell)
    return float(np.max(e.sum(axis=1))) if e.size else 0.0


def crude_partial2_sup(xi: JetMap) -> float:
    """A sound upper bound for sup |d2 xi| as an operator (order 0)."""
    if xi.in_blocks is None or len(xi.in_blocks) != 2:
        raise ShapeError("map must declare two input blocks")
    m1, m2 = xi.in_blocks
    e = _entry_bounds(xi, 1)  # (n, m1 + m2)
    return float(np.max(e[:, m1:].sum(axis=1))) if e.size else 0.0


# ---------------------------------------------------------------------------
# descriptors


def map_from_desc(desc: dict, domain: DomainSet) -> JetMap:
    kind = desc.get("kind")
    if kind == "const":
        return ConstMap(domain, desc["c"])
    if kind == "affine":
        return AffineMap(domain, desc["a"], desc.get("b"))
    if kind == "poly":
        terms = [(t["coef"], desc_powers(t["powers"])) for t in desc["terms"]]
        blocks = tuple(desc["in_blocks"]) if "in_blocks" in desc else None
        return PolynomialMap(domain, terms, in_blocks=blocks)
    if kind == "trig":
        terms = [(t["coef"], t["freq"], t["phase"]) for t in desc["terms"]]
        blocks = tuple(desc["in_blocks"]) if "in_blocks" in desc else None
        return TrigPolynomialMap(domain, terms, in_blocks=blocks)
    if kind == "sum":
        return SumMap([map_from_desc(d, domain) for d in desc["parts"]])
    if kind == "scaled":
        return ScaledMap(map_from_desc(desc["base"], domain), desc["c"])
    if kind == "pair":
        return PairMap([map_from_desc(d, domain) for d in desc["parts"]])
    if kind == "component":
        return ComponentMap(map_from_desc(desc["base"], domain), desc["lo"], desc["hi"])
    raise ShapeError(f"unknown map kind {kind!r}")


def map_to_desc(map_: JetMap) -> dict:
    if map_.desc is None:
        raise ShapeError(f"{type(map_).__name__} carries no descriptor")
    d = dict(map_.desc)
    if map_.in_blocks is not None:
        d["in_blocks"] = list(map_.in_blocks)
    return d
