"""Check reports: the single record type every verified statement produces.

A report pairs the two sides of one inequality or identity with the
provenance of each number.  Grid values are finite-sample lower bounds of
sup quantities, certified values are author-supplied upper bounds, exact
values are closed forms.  A "pass" on an upper-bound claim is only sound
if the left side is not itself a certified upper bound while the right
side is a grid lower bound; the constructor rejects that pairing.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Callable

import numpy as np

GRID_LOWER = "grid_lower"
CERTIFIED_UPPER = "certified_upper"
EXACT = "exact"
_PROVENANCES = (GRID_LOWER, CERTIFIED_UPPER, EXACT)

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped-precondition"


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verified identity or estimate.

    ``margin`` is ``rhs - lhs`` for upper-bound claims; identity checks
    store ``lhs = |difference|``, ``rhs = 0`` so the same pass rule
    ``margin >= -tolerance`` applies.
    """

    check_id: str
    status: str
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    lhs_provenance: str = EXACT
    rhs_provenance: str = EXACT
    witness: tuple = ()
    detail: str = ""

    def __post_init__(self):
        if self.status not in (PASS, FAIL, SKIPPED):
            raise ValueError(f"unknown status {self.status!r}")
        if self.lhs_provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.lhs_provenance!r}")
        if self.rhs_provenance not in _PROVENANCES:
            raise ValueError(f"unknown provenance {self.rhs_provenance!r}")
        if (
            self.status != SKIPPED
            and self.lhs_provenance == CERTIFIED_UPPER
            and self.rhs_provenance == GRID_LOWER
        ):
            raise ValueError(
                "unsound provenance pairing: certified upper bound on the "
                "left of a claim checked against a grid lower bound"
            )

    def to_dict(self) -> dict[str, Any]:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["witness"] = list(self.witness)
        return d


def bound_report(
    check_id: str,
    lhs: float,
    rhs: float,
    *,
    tolerance: float,
    lhs_provenance: str = GRID_LOWER,
    rhs_provenance: str = CERTIFIED_UPPER,
    witness: tuple = (),
    detail: str = "",
) -> CheckReport:
    """Report for the upper-bound claim ``lhs <= rhs``.

    Equal sides give margin 0, also when both are infinite: ``inf <= inf``
    passes, because the claim holds, but it says nothing about slack (an
    unbounded grid value against an unbounded certificate), so it is a
    vacuous tie like ``0 <= 0`` rather than a finite margin.
    """
    margin = rhs - lhs
    if lhs == rhs:
        margin = 0.0
    status = PASS if margin >= -tolerance else FAIL
    return CheckReport(
        check_id,
        status,
        float(lhs),
        float(rhs),
        float(margin),
        float(tolerance),
        lhs_provenance,
        rhs_provenance,
        witness,
        detail,
    )


def identity_report(
    check_id: str,
    deviation: float,
    *,
    tolerance: float,
    witness: tuple = (),
    detail: str = "",
) -> CheckReport:
    """Report for an identity checked through ``|difference| <= tolerance``."""
    return CheckReport(
        check_id,
        PASS if deviation <= tolerance else FAIL,
        float(deviation),
        0.0,
        -float(deviation),
        float(tolerance),
        EXACT,
        EXACT,
        witness,
        detail,
    )


def deviation(a: float, b: float) -> float:
    """How far the identity ``a == b`` between two grid values misses:
    0.0 when they are equal (equal infinities included), else |a - b|,
    which is NaN when either is NaN."""
    return 0.0 if a == b else float(abs(a - b))


def max_deviation(deviations) -> float:
    """The largest of ``deviations``, 0.0 for none; a NaN propagates,
    where Python's ``max`` keeps or drops it by its place."""
    return float(np.max(np.asarray(deviations, dtype=float), initial=0.0))


def skipped_report(check_id: str, reason: str) -> CheckReport:
    return CheckReport(
        check_id, SKIPPED, 0.0, 0.0, 0.0, 0.0, EXACT, EXACT, (), reason
    )


def _worst_index(margin: np.ndarray, fails: np.ndarray) -> int:
    """The one worst-witness rule: failed entries take precedence, then the
    first smallest margin wins; as with Python's ``min``, a NaN margin wins
    only first in the pool."""
    if not margin.size:
        raise ValueError("no reports to aggregate")
    pool = np.flatnonzero(fails) if fails.any() else np.arange(margin.size)
    m = margin[pool]
    if np.isnan(m[0]):
        return int(pool[0])
    return int(pool[np.argmin(np.where(np.isnan(m), np.inf, m))])


def worst(reports: list[CheckReport]) -> CheckReport:
    """The report with the smallest margin; failures take precedence."""
    margin = np.array([r.margin for r in reports], dtype=float)
    return reports[_worst_index(margin, np.array([r.status == FAIL for r in reports]))]


def merge_min_margin(check_id: str, reports: list[CheckReport]) -> CheckReport:
    """Collapse per-point or per-factor reports into one, keeping the
    worst margin and its witness."""
    w = worst(reports)
    if w.check_id != check_id:
        w = replace(w, check_id=check_id)
    return w


def worst_row(lhs, rhs, tolerance: float, failed=None) -> int:
    """Row that :func:`worst` keeps among one :func:`bound_report` per row
    of the claims ``lhs[k] <= rhs[k]``; the rows of the bool array
    ``failed`` count as failed too."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    with np.errstate(invalid="ignore"):
        margin = np.where(lhs == rhs, 0.0, rhs - lhs)
    return _worst_index(margin, ~(margin >= -tolerance) | (False if failed is None else failed))


def bound_rows(check_id: str, lhs, rhs, *, tolerance: float, failed=None,
               witness: Callable[[int], tuple] = lambda k: (),
               detail: str | Callable[[int], str] = "", **provenance) -> CheckReport:
    """``merge_min_margin`` of one :func:`bound_report` per row of the
    claims ``lhs[k] <= rhs[k]``, building only the row :func:`worst_row`
    keeps (``failed`` goes to it).  ``witness`` and a callable ``detail``
    map a row index to that row's witness and detail."""
    k = worst_row(lhs, rhs, tolerance, failed)
    return bound_report(
        check_id, float(lhs[k]), float(rhs[k]), tolerance=tolerance, witness=witness(k),
        detail=detail(k) if callable(detail) else detail, **provenance,
    )


def stacked_points(grids) -> Callable[[int], tuple]:
    """Row index -> ``(grid index,) + point`` for rows stacked grid by grid
    over the point arrays ``grids``: the witness of per-factor checks."""
    ends = np.cumsum([len(g) for g in grids])

    def witness(k: int) -> tuple:
        i = int(np.searchsorted(ends, k, side="right"))
        return (i,) + tuple(np.asarray(grids[i][k - ends[i] + len(grids[i])], float).tolist())

    return witness
