"""Exact derivative calculus at desk scale.

Maps are closed-form built-ins (polynomial, trigonometric-polynomial,
affine and combinators) whose derivative tensors of every order are coded
symbolically, so inequality margins are limited only by float rounding.
Operator norms are taken with the sup norm on every argument and computed
exactly by sign-vector enumeration: a multilinear map restricted to one
argument is linear, hence attains its sup over the unit ball at a vertex.
``op_norms`` enumerates once for a whole stack of tensors.
Finite differences appear only as oracles, never in the main path.  Every
power, product and sum follows the one rule of :mod:`wrp.arith`, and every
evaluation takes a whole stack of points at once.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .arith import contract, power_chain, row_sums
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
OP_NORM_CHUNK = 1 << 18  # entries of the vertex sums op_norms holds at once
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
            v = contract(np.moveaxis(v, self.out_rank, -1), a)
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
    return MultilinearMap(contract(t.entries, h), t.out_rank)


def _sign_vectors(d: int) -> np.ndarray:
    """The ``(2**(d-1), d)`` sign vectors of one argument of dimension ``d``."""
    # first component pinned to +1: flipping one whole argument flips only
    # the sign of the output, which the absolute value discards
    return np.array([(1.0,) + rest for rest in itertools.product((1.0, -1.0), repeat=d - 1)])


def op_norms(entries, out_rank: int = 1, norm_kind: str = SUP) -> np.ndarray:
    """Exact operator norm of every tensor of a stack, with the chosen norm
    on all arguments and outputs.

    ``entries`` is an ``(N,) + out + args`` array of N tensors with
    ``out_rank`` output axes each; the result holds their N norms.
    Operator-valued outputs are uncurried first, as :func:`uncurry_last`
    does, so a norm is invariant under curry round trips bit for bit.  The
    sup norm enumerates the sign vertices of all arguments but the last,
    one :func:`~wrp.arith.contract` per argument for all of its sign
    vectors and the whole stack, and optimizes the last analytically by an
    absolute row sum.  The sign vectors are built once per call, and no
    cache outlives it.  Every sum is added left to right, so each row
    carries the bits of :func:`op_norm` on its tensor, whatever the stack.

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
    signs = [_sign_vectors(d) for d in in_dims[:-1]]
    # rows are independent, so a stack is taken in slices of bounded size
    size = e[0].size * math.prod(len(s) for s in signs)
    step = max(1, OP_NORM_CHUNK // size)
    best = np.concatenate([_vertex_max(e[i:i + step], signs) for i in range(0, len(e), step)])
    best[inf] = math.inf
    return best


def _vertex_max(e: np.ndarray, signs: list[np.ndarray]) -> np.ndarray:
    """The largest absolute row sum over all sign vertices of the stack
    ``e`` ``(N, out, d_1, ..., d_k)``, with ``signs[i]`` the ``(V_i, d_i)``
    sign vectors of argument ``i``; a NaN sum counts as +inf."""
    v = e
    for s in signs:
        # the next argument's axis summed against each of its sign vectors:
        # (N, out, d_i+1, ..., d_k, V_1, ..., V_i); an argument of dimension
        # 1 has the one sign vector [1.0], and x * 1.0 = x, so its axis moves
        # to the vertex axes as it is
        v = np.moveaxis(v, 2, -1) if s.shape[1] == 1 else _dot_axis(v, 2, s.T[None])
    top = row_sums(np.abs(np.moveaxis(v, 2, -1)))
    # NaN here is finite sums overflowing into inf - inf
    return np.where(np.isnan(top), math.inf, top).reshape(len(e), -1).max(axis=1)


def op_norm(t: MultilinearMap, norm_kind: str = SUP) -> float:
    """Exact operator norm of one multilinear map: :func:`op_norms` over a
    stack of one."""
    return float(op_norms(t.entries[None], t.out_rank, norm_kind)[0])


def opnorms_inf(mats) -> np.ndarray:
    """:func:`opnorm_inf` of each matrix of an ``(N, n, m)`` stack: its
    largest absolute row sum, 0.0 for an empty matrix; a NaN propagates."""
    return row_sums(np.abs(np.asarray(mats, dtype=float))).max(axis=1, initial=0.0)


def opnorm_inf(a: np.ndarray) -> float:
    """Matrix norm induced by the sup norm: maximum absolute row sum.  A
    batch of one of :func:`opnorms_inf`."""
    return float(opnorms_inf(np.atleast_2d(np.asarray(a, dtype=float))[None])[0])


def symmetrize(entries: np.ndarray, out_rank: int) -> tuple[np.ndarray, float]:
    """Average over argument-axis permutations; returns (tensor, asymmetry)."""
    order = entries.ndim - out_rank
    if order < 2:
        return entries, 0.0
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


def _dot_axis(v: np.ndarray, axis: int, w: np.ndarray) -> np.ndarray:
    """Per row ``i`` of two stacks, ``v[i]``'s axis ``axis - 1`` contracted
    with ``w[i]``'s first axis, as ``tensordot`` orders the rest: ``v``'s
    other axes, then ``w``'s.  A stack of one broadcasts against the other."""
    x = np.moveaxis(v, axis, -1)
    x = x.reshape(x.shape[:-1] + (1,) * (w.ndim - 2) + x.shape[-1:])
    y = np.moveaxis(w, 1, -1)
    return contract(x, y.reshape(y.shape[:1] + (1,) * (v.ndim - 2) + y.shape[1:]))


def compose_tensors(outer: Sequence[np.ndarray], inner: Sequence[np.ndarray],
                    ell: int) -> np.ndarray:
    """Derivative tensors of order ``ell >= 1`` of a composition from the
    factors' tensors, at every row of the stacks.

    ``outer[b]`` ``(N,) + out + (d,)*b`` holds the order-b tensors of the
    outer map at the inner values, ``inner[b]`` ``(N, d) + (m,)*b`` those
    of the inner map at the base points.  Summing the block-contracted
    terms over all set partitions of the argument slots yields the
    (symmetric) chain-rule tensors.
    """
    o = outer[0].ndim - 1
    total = np.zeros(outer[0].shape + (inner[1].shape[-1],) * ell)
    for part in set_partitions(ell):
        v = outer[len(part)]
        for block in part:
            v = _dot_axis(v, 1 + o, inner[len(block)])
        # axes are now: rows, outputs, then the blocks' argument axes in order
        slot_order = [s for block in part for s in block]
        perm = list(range(1 + o)) + [1 + o + slot_order.index(s) for s in range(ell)]
        total += np.transpose(v, perm)
    return _symmetrized(total, 1 + o)


def compose_tensor(
    outer: Sequence[MultilinearMap],
    inner: Sequence[MultilinearMap],
    ell: int,
) -> MultilinearMap:
    """:func:`compose_tensors` of a stack of one: ``outer[b]`` is the
    order-b tensor of the outer map at the inner value, ``inner[b]`` the
    order-b tensor of the inner map at the base point."""
    total = compose_tensors([t.entries[None] for t in outer],
                            [t.entries[None] for t in inner], ell)
    return MultilinearMap(total[0], outer[0].out_rank)


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
        super().__init__(domain, c.shape)
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
        super().__init__(domain, (a.shape[0],))
        self.a, self.b = a, b

    def tensors(self, points, ell):
        self._check_order(ell)
        n = len(points)
        if ell == 0:
            return contract(self.a, points[:, None, :]) + self.b
        if ell == 1:
            return np.broadcast_to(self.a, (n,) + self.a.shape).copy()
        return np.zeros((n,) + self.out_shape + (self.dim,) * ell)


def identity_map(domain: DomainSet) -> AffineMap:
    return AffineMap(domain, np.eye(domain.dim))


@functools.cache
def _poly_table(powers: tuple[tuple[int, ...], ...], ell: int):
    """Index tables of the order-``ell`` derivative of a polynomial with
    term powers ``powers``, built once per (powers, ell) and shared by
    every map with those powers, so callers only read them.

    One row per (term, multi-index j*) whose entry survives, i.e. no axis
    is differentiated more often than its power, in term order (at order
    0, one row per term).  Returns the rows' flat entry indices and term
    indices, their falling-factorial factors (exact integer products) as a
    column ``(rows, 1)``, their remaining exponents ``(m, rows)``, one
    index array per axis, and the largest of these.
    """
    m = len(powers[0])
    flat, term, fall, expo = [], [], [], []
    for t, pw in enumerate(powers):
        if sum(pw) < ell:
            continue
        for f, jidx in enumerate(itertools.product(range(m), repeat=ell)):
            beta = [jidx.count(a) for a in range(m)]
            if any(b > p for b, p in zip(beta, pw)):
                continue
            flat.append(f)
            term.append(t)
            fall.append([math.prod(p - k for p, b in zip(pw, beta) for k in range(b))])
            expo.append([p - b for p, b in zip(pw, beta)])
    table = (np.array(flat, dtype=np.intp), np.array(term, dtype=np.intp),
             np.array(fall, dtype=float).reshape(-1, 1),
             np.array(expo, dtype=np.intp).reshape(-1, m).T.copy())
    for a in table:
        a.flags.writeable = False
    return table + (int(table[3].max(initial=0)),)


def _poly_plan(coefs: np.ndarray, powers: tuple[tuple[int, ...], ...], ell: int) -> tuple:
    """The evaluation plan of the polynomial with term coefficient vectors
    ``coefs`` ``(T, n)`` and term powers ``powers`` at order ``ell``: what
    :func:`_poly_tensors` reads of it, the :func:`_poly_table` of its
    powers (shared, read-only) and the coefficient vector of each table
    row's term ``(rows, n)``.  :meth:`PolynomialMap._plan` builds it once
    per (polynomial, order)."""
    table = _poly_table(powers, ell)
    return table, coefs.take(table[1], axis=0)


def _padded(a: np.ndarray, shape: tuple[int, ...], fill: int | float) -> np.ndarray:
    """``a`` in the leading corner of an array of ``shape`` filled with
    ``fill``; ``a`` itself when it has that shape."""
    if a.shape == shape:
        return a
    out = np.full(shape, fill)
    out[tuple(map(slice, a.shape))] = a
    return out


def _poly_tensors(polys, ell: int) -> list[np.ndarray]:
    """Order-``ell`` derivative entries of a stack of polynomials, each at
    its own points, in one pass: one ``(N, n) + (m,)*ell`` array per
    ``(plan, points)`` pair of ``polys``, with the polynomial's order-``ell``
    plan (:func:`_poly_plan`) and the points ``(N, m)``.

    Every entry is computed in the order of the one-point formula: per
    term, the coefficient times ((falling factorials times the power of
    axis 0) times the power of axis 1 ...), the powers by one
    :func:`~wrp.arith.power_chain` call for the whole stack, summed over
    terms in term order from 0.0 by one unbuffered ``np.add.at``.  A
    polynomial narrower than the stack has the exact factor 1.0 (the
    power 0) on the other axes.  A power that overflows is inf, and a
    term that meets inf - inf or 0 * inf makes its entry NaN, which the
    callers' finiteness checks see.  A stack of one joins and pads
    nothing: it reads its plan's arrays as they are.
    """
    shapes = [(len(x), x.shape[1], coef.shape[1]) for (_, coef), x in polys]
    if len(polys) == 1:
        (((table, coef), x),) = polys
        ((n_pts, width, n_out),) = shapes
        flat, _, fall, expo, top = table
        poly, x = 0, x.T[None]
    else:
        # the polynomial of each row: polynomial g's points are x[g] (axis,
        # point) and its rows those with poly == g; a missing point or axis
        # is 1.0 with exponent 0 and a missing output has coefficient 0.0,
        # and neither is returned
        n_pts, width, n_out = map(max, zip(*shapes))
        flats, _, falls, expos, tops = zip(*[table for (table, _), _ in polys])
        flat, fall = np.concatenate(flats), np.concatenate(falls)
        expo = np.concatenate([_padded(e, (width, e.shape[1]), 0) for e in expos], axis=1)
        coef = np.concatenate([_padded(c, (len(c), n_out), 0.0) for (_, c), _ in polys])
        top = max(tops)
        poly = np.arange(len(polys)).repeat(list(map(len, flats)))
        x = np.concatenate([_padded(p, (n_pts, width), 1.0).T[None] for _, p in polys])
    ent = np.zeros((len(polys), width**ell, n_out, n_pts))
    with np.errstate(over="ignore", invalid="ignore"):
        pw = power_chain(x, top)  # (power, polynomial, axis, point)
        scale = fall * pw[expo[0], poly, 0]
        for a in range(1, width):
            scale *= pw[expo[a], poly, a]
        # unbuffered adds in row (= term) order, as the one-point sum runs
        np.add.at(ent, (poly, flat), coef[:, :, None] * scale[:, None, :])
    return [ent[g, :m**ell, :k, :n].T.reshape((n, k) + (m,) * ell)
            for g, (n, m, k) in enumerate(shapes)]


class PolynomialMap(JetMap):
    """sum over terms of coef * x^powers, with exact tensors of any order.

    Evaluations are cached per instance by the exact input bits, as
    ``InverseMap.solves`` caches its fixed points: :meth:`tensors` by the
    points' dtype, shape and bytes and the order, the certified entry
    bounds by the order.  A cached array is shared and read-only; callers
    copy before writing.  The kernel's plan of each order
    (:func:`_poly_plan`) is kept too, so a miss of :meth:`tensors` costs
    only its arithmetic.
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
        self._plans: dict[int, tuple] = {}
        self._tensors_cache: dict[tuple, np.ndarray] = {}
        self._bounds_cache: dict[int, np.ndarray] = {}

    def _plan(self, ell: int) -> tuple:
        plan = self._plans.get(ell)
        if plan is None:
            plan = self._plans[ell] = _poly_plan(self._coefs, self._power_key, ell)
        return plan

    def tensors(self, points, ell):
        self._check_order(ell)
        key = (points.dtype.str, points.shape, points.tobytes(), ell)
        ent = self._tensors_cache.get(key)
        if ent is None:
            (ent,) = _poly_tensors([(self._plan(ell), points)], ell)
            ent.flags.writeable = False
            self._tensors_cache[key] = ent
        return ent


class TrigPolynomialMap(JetMap):
    """sum over terms of coef * sin(freq . x + phase)."""

    def __init__(self, domain: DomainSet, terms):
        terms = tuple(
            (np.asarray(c, dtype=float), np.asarray(u, dtype=float), float(p))
            for c, u, p in terms
        )
        n = terms[0][0].shape[0]
        for c, u, _ in terms:
            if c.shape != (n,) or u.shape != (domain.dim,):
                raise ShapeError("inconsistent trig term shapes")
        super().__init__(domain, (n,))
        self.terms = terms

    def tensors(self, points, ell):
        self._check_order(ell)
        ent = np.zeros((len(points),) + self.out_shape + (self.dim,) * ell)
        for c, u, phase in self.terms:
            # libm's sin per value: numpy's vectorized sin rounds differently
            s = np.array([math.sin(p + phase + ell * math.pi / 2.0)
                          for p in contract(points, u).tolist()])
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
        super().__init__(
            first.domain,
            first.out_shape,
            min(orders) if orders else None,
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
        base = self.base.tensors(points, ell)
        with np.errstate(over="ignore"):
            return self.c * base


def difference_map(a: JetMap, b: JetMap) -> SumMap:
    return SumMap([a, ScaledMap(b, -1.0)])


class PairMap(JetMap):
    """Stack the outputs of maps sharing a domain; codomain blocks recorded."""

    def __init__(self, parts: Sequence[JetMap]):
        parts = tuple(parts)
        if any(len(p.out_shape) != 1 for p in parts):
            raise ShapeError("can only pair vector-valued maps")
        orders = [p.max_order for p in parts if p.max_order is not None]
        super().__init__(
            parts[0].domain,
            (sum(p.out_dim for p in parts),),
            min(orders) if orders else None,
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
        super().__init__(base.domain, (hi - lo,), base.max_order)
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
        return compose_tensors(outer, inner, ell)


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
        # Leibniz's rule: one term per assignment of the slots to the factors
        jets = [[mp.tensors(points, r) for r in range(ell + 1)] for mp in self.maps]
        k = len(jets)
        ent = np.zeros((len(points), self.b.shape[0]) + (self.dim,) * ell)
        for assign in itertools.product(range(k), repeat=ell):
            blocks = [[s for s in range(ell) if assign[s] == j] for j in range(k)]
            v = self.b[None]
            for j in range(k):
                v = _dot_axis(v, 2, jets[j][len(blocks[j])])
            slots = [s for block in blocks for s in block]
            perm = [0, 1] + [2 + slots.index(s) for s in range(ell)]
            ent += np.transpose(v, perm)
        return _symmetrized(ent, 2)


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

    def tensors(self, points, ell):
        self._check_order(ell)
        mu = self.g.domain.dim
        u = np.ascontiguousarray(points[:, :mu])
        n = len(points)
        e = points[:, mu:].reshape((n,) + self.e_shape)
        if ell == 0:
            return _dot_axis(self.g.tensors(u, 0), 2, e)
        me = int(np.prod(self.e_shape))
        m = mu + me
        ent = np.zeros((n,) + self.out_shape + (m,) * ell)
        pts_sl = (slice(None),) * (1 + len(self.out_shape))
        # all argument slots in the u block
        t1 = _dot_axis(self.g.tensors(u, ell), 2, e)  # (n, p) + (mu,)*ell [+ (s,)]
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
    # an infinite value gives an infinite or NaN difference, which the
    # comparisons count as a disagreement
    with np.errstate(over="ignore", invalid="ignore"):
        if order >= 1:
            tensors.append((v[..., 1:2 * m + 1:2] - v[..., 2:2 * m + 2:2]) / (2 * h1))
        if order >= 2:
            w = v.take(second, axis=-1)
            d2 = (w[..., :m] - 2 * f0[..., None] + w[..., m:2 * m]) / (h2 * h2)
            if m > 1:
                s = np.split(w[..., 2 * m:], 4, axis=-1)
                pairs = (s[0] - s[1] - s[2] + s[3]) / (4 * (h2 * h2))
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


def _polynomial_chain(map_: JetMap, top: int):
    """``(polynomial, factors)`` when ``map_`` is a :class:`PolynomialMap`
    under zero or more :class:`ScaledMap` s and its orders 0..``top`` pass
    the polynomial's order check, else ``None``.  Its tensors are then the
    polynomial's times each factor in turn, innermost first, as the
    maps' own ``tensors`` compute them."""
    factors = []
    while type(map_) is ScaledMap:
        factors.append(map_.c)
        map_ = map_.base
    if type(map_) is not PolynomialMap or (map_.max_order is not None and map_.max_order < top):
        return None
    return map_, factors[::-1]


def _scaled_tensors(polys, points, ell: int) -> list[np.ndarray]:
    """Order-``ell`` entries of each ``(g, polynomial, factors)`` of
    ``polys`` at its ``points``: one :func:`_poly_tensors` pass, then each
    polynomial's entries times its factors in turn, as ``ScaledMap``
    multiplies them."""
    if not polys:
        return []
    ents = _poly_tensors([(pm._plan(ell), x) for (_, pm, _), x in zip(polys, points)], ell)
    with np.errstate(over="ignore"):
        return [functools.reduce(lambda e, c: c * e, factors, ent)
                for (_, _, factors), ent in zip(polys, ents)]


class _FdStack:
    """The maps of one (dim, compared orders, out_shape), in validation
    order, with their probes, stencils, coded tensors and stencil values
    in stacked arrays ``(map, probe, ...)``.

    The stencils are one array ``(X[:, None, :] + o1) + o2`` over every
    probe, with one membership test per distinct domain.  The coded
    tensors and the stencil values, the latter only at the leading probes
    whose stencil is inside, as :func:`_fd_prefix` evaluates them, are
    written into the preallocated arrays: for the maps that are scaled
    polynomials (:func:`_polynomial_chain`) by one :func:`_poly_tensors`
    pass per order, and for any other map by its own ``tensors``."""

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
        chains = [_polynomial_chain(map_, top) for _, map_, _ in jobs]
        self.polys = [(g, *c) for g, c in enumerate(chains) if c is not None]
        self.others = [g for g, c in enumerate(chains) if c is None]

    def evaluate(self, g: int):
        """Map ``g``'s coded tensors at its probes, then its values at the
        stencils of its leading probes inside, by its own ``tensors``: one
        map's evaluations, in the order of :func:`validate_jet_map` on it
        alone."""
        map_, n_in = self.jobs[g][1], self.n_in[g]
        for ell, exact in enumerate(self.exact, 1):
            exact[g] = map_.tensors(self.probes[g], ell)
        if n_in:
            self.vals[g, :n_in] = map_.tensors(
                self.stencil[g, :n_in].reshape(-1, self.m), 0
            ).reshape(self.vals[g, :n_in].shape)

    def evaluate_polynomials(self):
        """The coded tensors and stencil values of every scaled
        polynomial of the stack, in one :func:`_poly_tensors` pass per
        order.  No ``tensors`` is called, so no map caches them."""
        for ell, exact in enumerate(self.exact, 1):
            ents = _scaled_tensors(self.polys, [self.probes[g] for g, _, _ in self.polys], ell)
            for (g, _, _), ent in zip(self.polys, ents):
                exact[g] = ent
        inner = [p for p in self.polys if self.n_in[p[0]]]
        ents = _scaled_tensors(
            inner, [self.stencil[g, :self.n_in[g]].reshape(-1, self.m) for g, _, _ in inner], 0)
        for (g, _, _), ent in zip(inner, ents):
            self.vals[g, :self.n_in[g]] = ent.reshape(self.vals[g, :self.n_in[g]].shape)

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
            with np.errstate(invalid="ignore"):
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
    is the one of the earliest map in the list that fails, with that map's
    list index as ``index``; within a map, an exception from its own
    evaluation comes first, then its first failing (probe, order), then a
    stencil that leaves the domain.  No map after one whose probes cannot
    be drawn is drawn, and none after one whose evaluation raised is
    evaluated."""
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
    slots = sorted((stack.jobs[g][0], stack, g) for stack in stacks for g in stack.others)
    try:
        for k, stack, g in slots:
            stack.evaluate(g)
    except Exception as exc:  # raised below unless an earlier map fails its comparison
        stop, error = k, exc
    for stack in stacks:
        stack.evaluate_polynomials()
    failures = [f for f in (s.first_failure(stop) for s in stacks) if f is not None]
    if failures:
        stop, error = min(failures, key=lambda f: f[0])
    if error is not None:
        error.index = stop
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
    # initial=0.0: an empty operator slot has norm 0
    if xi2.pairing == "compose":
        e_norm = opnorms_inf(e.reshape((len(points),) + xi2.e_shape))
    else:
        e_norm = e.max(axis=1, initial=0.0)
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


def _entry_bounds(jobs) -> list[np.ndarray]:
    """Entrywise bounds sup_x |tensor(x, ell)[o, j*]|, rows flattened, of
    each ``(map, ell)`` of ``jobs``: maps the file format holds
    (polynomials and their multiples) and their sums.  A polynomial's
    bounds are a function of its coefficients and its domain's box alone,
    cached per map and order; the missing ones are computed in one
    :func:`_poly_tensors` pass per order: the derivative of the polynomial
    with absolute coefficients at its corner, the largest ``|x_a|`` of its
    domain's bounding box per axis.  A zero coefficient times an
    overflowing power is NaN."""
    todo: dict[int, dict[int, PolynomialMap]] = {}

    def leaves(map_, ell):
        if isinstance(map_, PolynomialMap):
            if ell not in map_._bounds_cache:
                todo.setdefault(ell, {})[id(map_)] = map_
        elif isinstance(map_, SumMap):
            for p in map_.parts:
                leaves(p, ell)
        elif isinstance(map_, ScaledMap):
            leaves(map_.base, ell)
        else:
            raise ShapeError(f"no certified bound rule for {type(map_).__name__}")

    def combine(map_, ell):
        if isinstance(map_, PolynomialMap):
            return map_._bounds_cache[ell]
        if isinstance(map_, SumMap):
            return sum(combine(p, ell) for p in map_.parts)
        return abs(map_.c) * combine(map_.base, ell)

    for map_, ell in jobs:
        leaves(map_, ell)
    for ell, polys in todo.items():
        # the rows of |coefs|: taking rows and abs commute
        plans = [pm._plan(ell) for pm in polys.values()]
        ents = _poly_tensors([((table, np.abs(coef)), _axis_sups(pm.domain)[None])
                              for (table, coef), pm in zip(plans, polys.values())], ell)
        for pm, ent in zip(polys.values(), ents):
            ent = ent[0].reshape(pm.out_dim, -1)
            ent.flags.writeable = False
            pm._bounds_cache[ell] = ent
    return [combine(map_, ell) for map_, ell in jobs]


def _row_sum_max(e: np.ndarray) -> float:
    """The largest absolute row sum of entry bounds: a bound of the sup
    operator norm."""
    return float(row_sums(e).max()) if e.size else 0.0


def crude_sup_bounds(maps: Sequence[JetMap], ell: int) -> list[float]:
    """A sound upper bound for sup_x of the order-``ell`` operator norm of
    each map, from coefficient arithmetic on the domain's bounding box:
    one stacked bound pass per order (the order of a differential is its
    base's plus one)."""
    jobs = []
    for map_ in maps:
        k = ell
        while isinstance(map_, DifferentialMap):
            map_, k = map_.base, k + 1
        jobs.append((map_, k))
    return [_row_sum_max(e) for e in _entry_bounds(jobs)]


def crude_sup_bound(map_: JetMap, ell: int) -> float:
    """:func:`crude_sup_bounds` of a batch of one."""
    return crude_sup_bounds([map_], ell)[0]


def crude_partial2_sup(xi: JetMap) -> float:
    """A sound upper bound for sup |d2 xi| as an operator (order 0)."""
    if xi.in_blocks is None or len(xi.in_blocks) != 2:
        raise ShapeError("map must declare two input blocks")
    m1, m2 = xi.in_blocks
    (e,) = _entry_bounds([(xi, 1)])  # (n, m1 + m2)
    return float(np.max(row_sums(e[:, m1:]))) if e.size else 0.0


# ---------------------------------------------------------------------------
# descriptors


def map_from_desc(desc: dict, domain: DomainSet, in_blocks=None) -> JetMap:
    """The map of a descriptor of kind ``poly`` or ``scaled``: the kinds
    whose certificates :func:`crude_sup_bound` computes.  ``in_blocks``
    are those an enclosing ``scaled`` node declares, since
    :func:`map_to_desc` writes them at the top level only."""
    kind = desc.get("kind")
    blocks = tuple(desc["in_blocks"]) if "in_blocks" in desc else in_blocks
    if kind == "poly":
        terms = [(t["coef"], desc_powers(t["powers"])) for t in desc["terms"]]
        return PolynomialMap(domain, terms, in_blocks=blocks)
    if kind == "scaled":
        return ScaledMap(map_from_desc(desc["base"], domain, blocks), desc["c"])
    raise ShapeError(f"unknown map kind {kind!r}")


def map_to_desc(map_: JetMap) -> dict:
    if map_.desc is None:
        raise ShapeError(f"{type(map_).__name__} carries no descriptor")
    d = dict(map_.desc)
    if map_.in_blocks is not None:
        d["in_blocks"] = list(map_.in_blocks)
    return d
