"""Cech cohomology over the standard affine charts, on a truncated window.

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

Cohomology dimensions come from four ranks:

    h^i = dim W_i - rank [D_i | R_{i+1}] + rank R_{i+1} - rank [D_{i-1} | R_i]

where W_i is the window at level i and D the Cech differential.  The ranks
are per level: level p owns the triple (rank [D_{p-1} | R_p], rank R_p,
dim W_p), so h^i reads levels i and i + 1 and neighbouring degrees share a
level (cech_level_ranks, memoized in the caller's cache).  One builder,
cech_level_span, makes each level's span; the Atiyah class (gauge.py) reads
its residuals at level 1, and _in_relation_span its cocycle check at level
2.  One incidence rule, _cofaces, gives D and that cocycle check.  Kernels
truncate exactly but images need not, so cech_h_dim_at is a number at one
bound: projective.cech_cohomology_dim, its one reader, checks it against
h^i by local duality and raises CechStabilizationError rather than report
an unchecked number.  This layer runs no Groebner basis.
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


def cech_level_span(m, p: int, bound: int, cache: dict | None = None):
    """The window at level p of the module m, a tracker spanning
    [R_p | D_{p-1}] in it, and rank R_p.

    The pivot vectors of the one degree-B(p+1) window go in at the offset of
    each chart set; each leads on its own coordinate, so nothing is reduced
    again.  Their rank is read off, then the coboundaries of level p - 1 join
    them.  Residuals against the tracker decide class membership in h^p.
    With `cache`, the level's three ranks (cech_level_ranks) are stored under
    ("cech_ranks", m, p, bound), so a span built for its residuals also
    serves the dimensions."""
    nv = m.nvars
    index, window = degree_window(m.relations, bound * (p + 1))
    lv = CechLevel(bound, tuple(chart_subsets(nv, p)), index)
    size = len(index)
    tracker = SpanTracker()
    if window is not None:
        for k in range(len(lv.charts)):
            for vec in window.pivots.values():
                tracker.insert({k * size + i: c for i, c in vec.items()})
    rel = tracker.rank
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
    if cache is not None:
        cache[("cech_ranks", m, p, bound)] = (tracker.rank, rel, lv.dim)
    return lv, tracker, rel


def _in_relation_span(m, p: int, bound: int, cochain: dict) -> bool:
    """Whether a level-p cochain {(charts, row, exponents): coeff}, each
    entry inside the window, lies in R_p: its component on each chart set,
    shifted into the one degree-B(p+1) window, lies in that window's span."""
    index, window = degree_window(m.relations, bound * (p + 1))
    parts: dict = {}
    for (charts, r, a), c in cochain.items():
        parts.setdefault(charts, {})[index[(r, _shift(charts, a, bound))]] = c
    return not any(window.residual(part) for part in parts.values())


def cech_level_ranks(m, p: int, bound: int,
                     cache: dict | None = None) -> tuple[int, int, int]:
    """(rank [D_{p-1} | R_p], rank R_p, dim W_p) at one level and bound.

    The memo of cech_level_span, which stores the triple in `cache` under
    ("cech_ranks", m, p, bound); only the three ints are kept, never the
    window or the tracker.  Levels outside 0..n are empty.
    """
    if p < 0 or p >= m.nvars:
        return 0, 0, 0
    key = ("cech_ranks", m, p, bound)
    if cache is not None and key in cache:
        return cache[key]
    lv, tracker, rel = cech_level_span(m, p, bound, cache)
    return tracker.rank, rel, lv.dim


def cech_h_dim_at(m, i: int, bound: int,
                  cache: dict | None = None) -> int:
    """Cohomology dimension at a single bound, unchecked; read it through
    projective.cech_cohomology_dim, which checks it by local duality.

    h^i = dim W_i - joint(i+1) + rel(i+1) - joint(i), from the per-level
    ranks of cech_level_ranks.  `cache` is the caller's memo dict (one per
    run in tasks.run_tasks); with it, neighbouring degrees and repeated
    calls share each level's ranks.
    """
    if i < 0 or i >= m.nvars:
        return 0
    joint_i, _, dim_i = cech_level_ranks(m, i, bound, cache)
    joint_up, rel_up, _ = cech_level_ranks(m, i + 1, bound, cache)
    return dim_i - joint_up + rel_up - joint_i
