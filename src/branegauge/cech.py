"""Cech cochains over the standard affine charts, on a truncated window:
the machinery of the Atiyah class (gauge.py).

A graded module M presents a sheaf; over the chart intersection U_S the
sections are degree-0 Laurent combinations x^a e_r of the cover generators,
with negative exponents allowed only on the charts in S.  The engine
truncates those exponents at a_i >= -B.  For |S| = p + 1, multiplying by
(prod_{i in S} x_i)^B maps the truncated spots one to one onto the cover
monomials of degree B(p+1), and relation multiples onto relation multiples.
So level p at bound B is one copy of the polynomial window
linalg.degree_window(M, B(p+1)) per chart set, its relation span R_p is that
window's span in every copy, and the Cech differential from S to S + {j} is
multiplication by x_j^B with the sign (-1)^(position of j).  This is the
Koszul cocomplex of M on x0^B..xn^B in degree 0, whose cohomology tends to
local cohomology as B grows (Eisenbud, The Geometry of Syzygies, App. 1).

One builder, cech_level_span, makes a level's span of relations and
coboundaries; the Atiyah class reads its residuals at level 1, and
_in_relation_span its cocycle check at level 2.  One incidence rule,
_cofaces, gives D and that cocycle check.  No h^i is read here: the
package's sheaf cohomology is projective.sheaf_cohomology_dim, by local
duality, and the Cech dimensions are the test oracles' cross-check.  This
layer runs no Groebner basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import ShapeError
from .linalg import SpanTracker, WindowIndex, _window_index, degree_window
from .polynomials import monomial_mul

DEFAULT_CECH_BOUND = 3


def chart_subsets(nvars: int, p: int) -> list[tuple[int, ...]]:
    """Sorted (p+1)-subsets of the chart indices, in lexicographic order."""
    return list(combinations(range(nvars), p + 1))


def _shift(charts: tuple[int, ...], a: tuple, bound: int) -> tuple:
    """The exponent vector a times (prod_{i in charts} x_i)^bound."""
    return tuple(e + bound if i in charts else e for i, e in enumerate(a))


@dataclass(frozen=True)
class CechLevel:
    """The window at one cochain level and bound: the chart sets in
    chart_subsets order, and the index of one copy of the polynomial window
    (linalg.degree_window).  Chart set k owns the coordinates
    k * len(index) + index[(r, mon)]."""

    bound: int
    charts: tuple
    index: WindowIndex

    @property
    def dim(self) -> int:
        return len(self.charts) * len(self.index)

    def coordinate(self, spot) -> int:
        """The coordinate of the Laurent spot (charts, row, exponents)."""
        charts, r, a = spot
        key = (r, _shift(charts, a, self.bound))
        if charts not in self.charts or key not in self.index:
            raise ShapeError(f"cochain entry outside the window: {spot}")
        return self.charts.index(charts) * len(self.index) + self.index[key]


def _cofaces(charts: tuple[int, ...], nvars: int):
    """The incidence rule of the Cech differential: each chart set one
    chart j bigger, with the sign (-1)^(position of j), and j."""
    for j in range(nvars):
        if j not in charts:
            bigger = tuple(sorted(charts + (j,)))
            yield bigger, (-1) ** bigger.index(j), j


def _checked_bound(bound: int | None) -> int:
    """The window bound to use: the default for None, else at least 1."""
    if bound is None:
        return DEFAULT_CECH_BOUND
    if bound < 1:
        raise ShapeError("cech bound must be at least 1")
    return bound


def cech_level_span(m, p: int, bound: int):
    """The window at level p of the module m, and a tracker spanning
    [R_p | D_{p-1}] in it.

    The pivot vectors of the one degree-B(p+1) window go in at the offset of
    each chart set; each leads on its own coordinate, so nothing is reduced
    again.  The coboundaries of level p - 1 then join them.  Residuals
    against the tracker decide class membership in h^p."""
    nv = m.nvars
    index, window = degree_window(m.relations, bound * (p + 1))
    lv = CechLevel(bound, tuple(chart_subsets(nv, p)), index)
    size = len(index)
    tracker = SpanTracker()
    if window is not None:
        for k in range(len(lv.charts)):
            for vec in window.pivots.values():
                tracker.insert({k * size + i: c for i, c in vec.items()})
    if p >= 1:
        power = [tuple(bound if i == j else 0 for i in range(nv))
                 for j in range(nv)]
        lower = _window_index(m.relations, bound * p)
        for charts in chart_subsets(nv, p - 1):
            cofaces = [(lv.charts.index(bigger) * size, sign, power[j])
                       for bigger, sign, j in _cofaces(charts, nv)]
            for r, mon in lower:
                tracker.insert({off + index[(r, monomial_mul(mon, xj))]: sign
                                for off, sign, xj in cofaces})
    return lv, tracker


def _in_relation_span(m, p: int, bound: int, cochain: dict) -> bool:
    """Whether a level-p cochain {(charts, row, exponents): coeff}, each
    entry inside the window, lies in R_p: its component on each chart set,
    shifted into the one degree-B(p+1) window, lies in that window's span."""
    index, window = degree_window(m.relations, bound * (p + 1))
    parts: dict = {}
    for (charts, r, a), c in cochain.items():
        parts.setdefault(charts, {})[index[(r, _shift(charts, a, bound))]] = c
    return not any(window.residual(part) for part in parts.values())
