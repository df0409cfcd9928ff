"""The one arithmetic rule for every value that reaches a report.

Only IEEE 754 basic operations, each correctly rounded, in a fixed order
and applied elementwise by numpy ufuncs, which never fuse a multiply and
an add: an integer power is a multiplication chain, and a contraction
multiplies elementwise and adds the products left to right.  No BLAS
kernel, libm ``pow`` or dispatched reduction takes part, so each entry
carries the bits of the same expression written out for it alone,
whatever the CPU, the library's kernel choice or the stack around it.
Overflow gives ±inf and inf - inf NaN, as a BLAS call does; the callers
decide what a non-finite value means.

The helpers here do not silence numpy's overflow and invalid warnings:
entering ``np.errstate`` costs more than a contraction of a few entries.
The caller silences.  A check unit (``verify._run_unit``) enters one
scope for everything it runs, and each stacked pass that is also called
on its own (the polynomial kernel, the entry bounds, ``op_norms``,
``opnorms_inf``, ``weighted_seminorms``) enters one scope for its whole
pass, so a direct call never warns either.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError


def power_chain(x, top: int) -> np.ndarray:
    """``x**0 ... x**top`` of every entry of ``x``, on a new first axis:
    ``x**0 = 1`` and ``x**k = x**(k-1) * x``.  The caller silences the
    overflow warning: its one caller, the polynomial kernel, enters
    ``np.errstate`` once for the whole pass."""
    x = np.asarray(x, dtype=float)
    p = np.empty((top + 1,) + x.shape)
    p[0] = 1.0
    for k in range(1, top + 1):
        np.multiply(p[k - 1], x, out=p[k])
    return p


def contract(a, b) -> np.ndarray:
    """``sum_k a[..., k] * b[..., k]`` with ``a`` and ``b`` broadcast
    against each other but for their last (contracted) axes, which have
    one length: ``(a0*b0 + a1*b1) + a2*b2 ...``.  An empty axis sums to
    0.0.  A stack of contractions is one call, and no row depends on the
    others.  The caller silences overflow and inf - inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    n = a.shape[-1]
    if b.shape[-1] != n:
        raise ShapeError(f"contracted axes of lengths {n} and {b.shape[-1]}")
    if not n:
        return np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    acc = a[..., 0] * b[..., 0]
    for k in range(1, n):
        acc += a[..., k] * b[..., k]
    return acc


def matmul(a, b) -> np.ndarray:
    """The stacked matrix products ``a @ b`` over the last two axes, each
    entry a :func:`contract` of a row of ``a`` and a column of ``b``.  The
    caller silences overflow and inf - inf."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return contract(a[..., :, None, :], b.swapaxes(-1, -2)[..., None, :, :])


def row_sums(x) -> np.ndarray:
    """The sums over the last axis of ``x``, added left to right.  The
    caller silences overflow and inf - inf."""
    x = np.asarray(x, dtype=float)
    if not x.shape[-1]:
        return np.zeros(x.shape[:-1])
    acc = x[..., 0].copy()
    for k in range(1, x.shape[-1]):
        acc += x[..., k]
    return acc
