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
FD_PROBES = 3  # probes per map in the jet reference check
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
    stack of one, kept for the benchmark's tracer and kernel samples."""
    return float(op_norms(t.entries[None], t.out_rank, norm_kind)[0])


def op_norms_of(maps: Sequence[MultilinearMap]) -> np.ndarray:
    """The sup-norm operator norm of each multilinear map of a list,
    whatever their shapes: one :func:`op_norms` call per (shape,
    out_rank), the norms in list order."""
    groups: dict[tuple, list[int]] = {}
    for i, t in enumerate(maps):
        groups.setdefault((t.entries.shape, t.out_rank), []).append(i)
    norms = np.empty(len(maps))
    for (_, out_rank), idx in groups.items():
        norms[idx] = op_norms(np.stack([maps[i].entries for i in idx]), out_rank)
    return norms


def opnorms_inf(mats) -> np.ndarray:
    """The matrix norm induced by the sup norm of each matrix of an ``(N,
    n, m)`` stack: its largest absolute row sum, 0.0 for an empty matrix;
    a NaN propagates."""
    return row_sums(np.abs(np.asarray(mats, dtype=float))).max(axis=1, initial=0.0)


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
    order at a whole array of points: the one evaluation rule.
    :meth:`tensor` is a batch of one, kept for the benchmark's tracer and
    kernel samples.
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


def _poly_tensors(polys, ell: int) -> list[np.ndarray]:
    """Order-``ell`` derivative entries of a stack of polynomials, each at
    its own points: one ``(N, n) + (m,)*ell`` array per ``(plan, points)``
    pair of ``polys``, with the polynomial's order-``ell`` plan
    (:func:`_poly_plan`) and the points ``(N, m)``.

    The polynomials that share a power table (the same powers), an output
    width n and a number of points N form one group, evaluated together
    by one :func:`~wrp.arith.power_chain` call and one unbuffered
    ``np.add.at``.  Every entry is computed in the order of the one-point
    formula: per term, the coefficient times ((falling factorials times
    the power of axis 0) times the power of axis 1 ...), summed over terms
    in term order from 0.0.  A power that overflows is inf, and a term
    that meets inf - inf or 0 * inf makes its entry NaN, which the
    callers' finiteness checks see.
    """
    groups: dict[tuple, list[int]] = {}
    for g, ((table, coef), x) in enumerate(polys):
        groups.setdefault((id(table), coef.shape[1], len(x)), []).append(g)
    out = [None] * len(polys)
    with np.errstate(over="ignore", invalid="ignore"):
        for members in groups.values():
            (table, coef), x = polys[members[0]]
            flat, _, fall, expo, top = table
            (n_pts, m), n_out = x.shape, coef.shape[1]
            # (row, polynomial, output) coefficients and (axis, polynomial, point) points
            if len(members) == 1:
                coef, x = coef[:, None], x.T[:, None]
            else:
                coef = np.stack([polys[g][0][1] for g in members], axis=1)
                x = np.stack([polys[g][1].T for g in members], axis=1)
            pw = power_chain(x, top)  # (power, axis, polynomial, point)
            scale = fall[:, :, None] * pw[expo[0], 0]
            for a in range(1, m):
                scale *= pw[expo[a], a]
            ent = np.zeros((m**ell, len(members), n_out, n_pts))
            # unbuffered adds in row (= term) order, as the one-point sum runs
            np.add.at(ent, flat, coef[..., None] * scale[:, :, None, :])
            ent = ent.transpose(1, 3, 2, 0).reshape((len(members), n_pts, n_out) + (m,) * ell)
            for k, g in enumerate(members):
                out[g] = ent[k]
    return out


def _raise_term_fault(terms):
    """The error of reading the polynomial ``terms`` one term at a time,
    for terms that do not give one coefficient row of a common length n and
    one power per domain axis each: a term that does not convert, no term,
    a first coefficient that is not a vector, or else a term of another
    shape."""
    read = [(np.asarray(c, dtype=float), tuple(int(p) for p in pw)) for c, pw in terms]
    if not read:
        raise ShapeError("polynomial needs at least one term")
    read[0][0].shape[0]  # a first coefficient that is not a vector: IndexError
    raise ShapeError("inconsistent polynomial term shapes")


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
        # the coefficient rows as one array; where that fails, or gives
        # other than one row of n per term, the term-by-term reading raises
        terms = tuple(terms)
        try:
            coefs = np.array([c for c, _ in terms], dtype=float)
            powers = tuple(tuple(map(int, pw)) for _, pw in terms)
        except (TypeError, ValueError, OverflowError):
            coefs = None
        dim = domain.dim
        if coefs is None or coefs.ndim != 2 or any(len(pw) != dim for pw in powers):
            _raise_term_fault(terms)
        desc = {
            "kind": "poly",
            "terms": [{"coef": c, "powers": list(p)} for c, p in zip(coefs.tolist(), powers)],
        }
        super().__init__(domain, coefs.shape[1:], desc=desc, in_blocks=in_blocks)
        self._coefs = coefs
        self._power_key = powers  # key of _poly_table
        self._plans: dict[int, tuple] = {}
        self._tensors_cache: dict[tuple, np.ndarray] = {}
        self._bounds_cache: dict[int, np.ndarray] = {}

    @property
    def terms(self) -> tuple[tuple[np.ndarray, tuple[int, ...]], ...]:
        """The ``(coefficient row, powers)`` of each term."""
        return tuple(zip(self._coefs, self._power_key))

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
    # the first point whose stencil is not inside, or n
    n_in = int(np.argmin(np.append(inside.all(axis=1), False)))
    outside = None if n_in == n else DomainMembershipError(
        f"finite-difference stencil point {stencil[n_in, np.argmin(inside[n_in])].tolist()} "
        "leaves the domain")
    vals = map_.tensors(stencil[:n_in].reshape(-1, m), 0) if n_in else \
        np.empty((0,) + map_.out_shape)
    return _fd_differences(vals.reshape((n_in, len(o1)) + map_.out_shape),
                           m, order, h1, h2), outside


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
    """The highest order the jet reference check compares: 2, or the map's declared
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


def validate_jet_map(map_: JetMap, rng: np.random.Generator):
    """Reference check of one map's coded jets: at the ``FD_PROBES``
    probes :func:`_draw_probes` draws from ``rng``, the tensors of orders
    1 to :func:`_fd_top` agree with central differences.  The largest
    entry error of a (probe, order) must be at most ``1e-4 * max(1,
    largest coded entry)``, and a NaN or infinite entry on either side is
    a disagreement.  The first failing (probe, order), probe by probe and
    order by order, is a PreconditionError; it comes ahead of a stencil
    that leaves the domain at a later probe, which is then raised."""
    top = _fd_top(map_)
    if top < 1:
        return
    probes = _draw_probes(map_, rng)
    exact = [map_.tensors(probes, ell) for ell in range(1, top + 1)]
    approx, outside = _fd_prefix(map_, probes, top, None)
    for i in range(len(approx[0])):
        for ell, ex, ap in zip(range(1, top + 1), exact, approx[1:]):
            with np.errstate(invalid="ignore"):
                err = float(np.max(np.abs(ex[i] - ap[i])))
            # a NaN or infinite entry on either side makes err NaN or infinite
            if not (math.isfinite(err) and err <= 1e-4 * max(1.0, float(np.max(np.abs(ex[i]))))):
                raise PreconditionError(
                    f"jet of order {ell} disagrees with finite differences "
                    f"by {err:.3e} at {probes[i].tolist()}"
                )
    if outside is not None:
        raise outside


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
    factored-form estimates.

    Each map is evaluated once per order at the stacked points the checks
    read, and the operator norms are taken by one :func:`op_norms_of`
    call.  The partial derivatives are slices of the full tensors: d1^l
    has every argument axis in the first block, and the mixed partial
    (h_1..h_l, y) -> d1^l xi(x, .)(h)(y) is the order-(l+1) tensor with
    its last axis in the second block."""
    if xi.in_blocks is None or len(xi.in_blocks) != 2:
        raise ShapeError("map must declare two input blocks")
    m1, m2 = xi.in_blocks
    point = np.asarray(point, dtype=float)
    x, y = point[:m1], point[m1:]
    h1 = np.asarray(direction1, dtype=float)
    h2 = np.asarray(direction2, dtype=float)
    outs = (slice(None),) * (1 + len(xi.out_shape))  # the stack axis and the outputs

    def first(t, k):
        """The slice of the order-``k`` stack ``t`` with every argument axis
        in the first block: d1^k."""
        return t[outs + (slice(0, m1),) * k]

    def mixed(t, k):
        """The slice of the order-``k`` stack ``t`` with its last argument
        axis in the second block and the others in the first: the mixed
        partial (h_1..h_{k-1}, y) -> d1^(k-1) xi(x, .)(h)(y)."""
        return t[outs + (slice(0, m1),) * (k - 1) + (slice(m1, m1 + m2),)]

    # linearity probe in the second argument, at the probes and the point
    alphas = (0.5, -1.25)
    vals = xi.tensors(np.array([np.concatenate([x, a * y]) for a in alphas] + [point]), 0)
    for alpha, val in zip(alphas, vals):
        dev = float(np.max(np.abs(val - alpha * vals[-1])))
        if dev > 1e-9 * max(1.0, float(np.max(np.abs(vals[-1])))):
            raise PreconditionError(
                f"map is not linear in its second argument (deviation {dev:.2e})"
            )

    # order l at the zero section, the curve t -> (x + t h1, y + t h2) at
    # t = h and t = -h, the shift point (x, h2) and the point; order l + 1
    # at the point
    h = 1e-5
    t_ell = xi.tensors(np.array(
        [np.concatenate([x, np.zeros(m2)])]
        + [np.concatenate([x + t * h1, y + t * h2]) for t in (h, -h)]
        + [np.concatenate([x, h2]), point]), ell)
    t_next = xi.tensors(point[None], ell + 1)
    p1, p1_next = first(t_ell, ell), first(t_next, ell + 1)

    reports = []

    # zero section: d1^l xi(x, 0) = 0
    dev0 = float(np.max(np.abs(p1[0])))
    reports.append(
        identity_report(
            "id:Ableitung_Abb_linear_2Arg", dev0, tolerance=1e-12,
            detail=f"partial derivative of order {ell} vanishes at y = 0",
        )
    )

    # derivative of t -> d1^l xi(x + t h1, y + t h2) against the stated
    # splitting; the left side is a finite-difference oracle
    fd = (p1[1] - p1[2]) / (2 * h)
    contr = contract(p1_next[0], h1)
    dev = float(np.max(np.abs(fd - (p1[3] + contr))))
    reports.append(
        identity_report(
            "id:Ableitung_Abb_linear_2Arg", dev, tolerance=1e-8,
            detail="curve derivative splits into shift and contraction terms",
        )
    )

    # the operator norms the estimates compare, by name
    out_rank = len(xi.out_shape)
    factored = g is not None and b is not None
    tensors = {"mixed": MultilinearMap(mixed(t_next, ell + 1)[0], out_rank)}
    if ell >= 1:
        tensors["full"] = MultilinearMap(t_ell[4], out_rank)
        tensors["mixed_below"] = MultilinearMap(mixed(t_ell, ell)[4], out_rank)
    if factored:
        gx = x[None]
        tensors["b"] = MultilinearMap(np.asarray(b, dtype=float), 1)
        tensors["g"] = MultilinearMap(g.tensors(gx, ell)[0], len(g.out_shape))
        if ell >= 1:
            tensors["g_below"] = MultilinearMap(g.tensors(gx, ell - 1)[0], len(g.out_shape))
    n = dict(zip(tensors, op_norms_of(list(tensors.values())).tolist()))
    y_sup = float(np.max(np.abs(y)) if y.size else 0.0)
    witness = tuple(point.tolist())

    if ell >= 1:
        reports.append(
            bound_report(
                "est:norm_l-te_Ableitung-Abb_linear_2Arg",
                n["full"],
                ell * n["mixed_below"] + n["mixed"] * y_sup,
                tolerance=1e-9,
                lhs_provenance="exact",
                rhs_provenance="exact",
                witness=witness,
            )
        )

    if factored:
        reports.append(
            bound_report(
                "est:Abb_linear_2Arg-Spezialfall-hohes_Diff--partiell",
                n["mixed"],
                n["b"] * n["g"],
                tolerance=1e-9,
                lhs_provenance="exact",
                rhs_provenance="exact",
                witness=witness,
            )
        )
        if ell >= 1:
            reports.append(
                bound_report(
                    "est:Abb_linear_2Arg-Spezialfall-hohes_Diff",
                    n["full"],
                    n["b"] * ell * n["g_below"] + n["b"] * y_sup * n["g"],
                    tolerance=1e-9,
                    lhs_provenance="exact",
                    rhs_provenance="exact",
                    witness=witness,
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
    overflowing power is NaN, and a multiple or a sum that overflows is
    inf, without a warning."""
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
    corners: dict[int, np.ndarray] = {}  # by the id of the domain
    for ell, polys in todo.items():
        polys = list(polys.values())
        for pm in polys:
            if id(pm.domain) not in corners:
                corners[id(pm.domain)] = _axis_sups(pm.domain)[None]
        # the rows of |coefs|: taking rows and abs commute
        plans = [pm._plan(ell) for pm in polys]
        ents = _poly_tensors([((table, np.abs(coef)), corners[id(pm.domain)])
                              for (table, coef), pm in zip(plans, polys)], ell)
        for pm, ent in zip(polys, ents):
            ent = ent[0].reshape(ent.shape[1], -1)
            ent.flags.writeable = False
            pm._bounds_cache[ell] = ent
    with np.errstate(over="ignore", invalid="ignore"):
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
