"""Cech cohomology over the standard affine charts, on a truncated Laurent
window.

A graded module M presents a sheaf; over the chart intersection U_S the
sections are degree-0 Laurent combinations of the cover generators, with
negative exponents allowed only on the inverted coordinates.  The engine
truncates those exponents at a bound B, forms the incidence differential and
the localized relation span inside the window, and extracts cohomology
dimensions from four ranks:

    h^i = dim W_i - rank [D_i | R_{i+1}] + rank R_{i+1} - rank [D_{i-1} | R_i]

where W_i is the spot window, D the Cech differential and R_p the in-window
relation multiples.  The ranks are per level: level p owns the triple
(rank [D_{p-1} | R_p], rank R_p, dim W_p), so h^i reads levels i and i + 1
and neighbouring degrees share a level (cech_level_ranks, memoized in the
caller's cache).  One builder, cech_level_span, makes each level's span; the
Atiyah class (gauge.py) reads its residuals at level 1.  One incidence
rule, _cofaces, gives D and the cocycle check of gauge.CechCocycle.
Kernels truncate exactly but images need not, so every public dimension is
recomputed at B + 1 and must agree; disagreement raises
CechStabilizationError rather than reporting an unstable number.

The window here is Laurent, its spots keyed by chart set, so it keeps its
own builders; the polynomial degree-d window of graded pieces, piece-map
ranks and HomBasis is linalg.degree_window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import CechStabilizationError, ShapeError
from .linalg import SpanTracker
from .modules import GradedModule
from .polynomials import monomial_mul, monomials_of_degree

DEFAULT_CECH_BOUND = 3


def chart_subsets(nvars: int, p: int) -> list[tuple[int, ...]]:
    """Sorted (p+1)-subsets of the chart indices, in lexicographic order."""
    return list(combinations(range(nvars), p + 1))


def _exponent_vectors(nvars: int, total: int, inverted, bound: int):
    """All integer vectors a with sum(a) = total, a_i >= -bound on the
    inverted set and a_i >= 0 elsewhere."""
    shift = [bound if i in inverted else 0 for i in range(nvars)]
    lifted = total + sum(shift)
    if lifted < 0:
        return []
    out = []
    for mon in monomials_of_degree(nvars, lifted):
        out.append(tuple(mon[i] - shift[i] for i in range(nvars)))
    return out


@dataclass(frozen=True)
class CechLevel:
    """The degree-0 truncated window at cochain level p.

    Spots are triples (charts, generator row, exponent vector); the index
    assigns each spot its coordinate in the window.
    """

    module: GradedModule
    p: int
    bound: int
    spots: tuple = ()
    index: dict = field(default_factory=dict, compare=False)

    @property
    def dim(self) -> int:
        return len(self.spots)


def cech_level(m: GradedModule, p: int, bound: int) -> CechLevel:
    nv = m.nvars
    spots = []
    for charts in chart_subsets(nv, p):
        inv = set(charts)
        for r, t in enumerate(m.cover_twists):
            for a in _exponent_vectors(nv, -t, inv, bound):
                spots.append((charts, r, a))
    index = {s: k for k, s in enumerate(spots)}
    return CechLevel(m, p, bound, tuple(spots), index)


def _cofaces(charts: tuple[int, ...], nvars: int):
    """The incidence rule of the Cech differential: each chart set one
    chart bigger, with the sign (-1)^(position of the added chart)."""
    for j in range(nvars):
        if j not in charts:
            bigger = tuple(sorted(charts + (j,)))
            yield bigger, (-1) ** bigger.index(j)


def cech_diff_columns(src: CechLevel, tgt: CechLevel) -> list[dict]:
    """One column per source spot: the alternating-sum incidence map.

    Every image spot stays inside the target window because inverting more
    coordinates only relaxes the exponent constraints.
    """
    nv = src.module.nvars
    return [{tgt.index[(bigger, r, a)]: sign
             for bigger, sign in _cofaces(charts, nv)}
            for (charts, r, a) in src.spots]


def cech_relation_columns(lv: CechLevel) -> list[dict]:
    """In-window Laurent multiples of the relation columns at each chart set.

    A multiple x^b * rho stays in the window whenever b does, since relation
    entries only raise exponents.
    """
    m = lv.module
    nv = m.nvars
    rel = m.relations
    index = lv.index
    cols = []
    for charts in chart_subsets(nv, lv.p):
        inv = set(charts)
        for s, vec in zip(rel.col_twists, rel.vecs):
            if not vec:
                continue
            for b in _exponent_vectors(nv, -s, inv, lv.bound):
                # each term lands on its own spot (r, b + mon), so every
                # entry is written once, as the canonical coefficient
                cols.append({index[(charts, r, monomial_mul(b, mon))]: coeff
                             for (r, mon), coeff in vec.items()})
    return cols


def _checked_bound(bound: int | None) -> int:
    """The window bound to use: the default for None, else at least 1."""
    if bound is None:
        return DEFAULT_CECH_BOUND
    if bound < 1:
        raise ShapeError("cech bound must be at least 1")
    return bound


def cech_level_span(m: GradedModule, p: int, bound: int):
    """The window at level p, a tracker spanning [R_p | D_{p-1}] in it, and
    rank R_p: the in-window relation multiples go in first, their rank is
    read off, then the coboundaries of level p - 1 join them.  Residuals
    against the tracker decide class membership in h^p."""
    lv = cech_level(m, p, bound)
    tracker = SpanTracker()
    for col in cech_relation_columns(lv):
        tracker.insert(col)
    rel = tracker.rank
    if p >= 1:
        for col in cech_diff_columns(cech_level(m, p - 1, bound), lv):
            tracker.insert(col)
    return lv, tracker, rel


def cech_level_ranks(m: GradedModule, p: int, bound: int,
                     cache: dict | None = None) -> tuple[int, int, int]:
    """(rank [D_{p-1} | R_p], rank R_p, dim W_p) at one level and bound.

    The memo of cech_level_span: the triple is stored in `cache` under
    ("cech_ranks", m, p, bound); only the three ints are kept, never the
    window or the tracker.  Levels outside 0..n are empty.
    """
    if p < 0 or p >= m.nvars:
        return 0, 0, 0
    key = ("cech_ranks", m, p, bound)
    if cache is not None and key in cache:
        return cache[key]
    lv, tracker, rel = cech_level_span(m, p, bound)
    ranks = (tracker.rank, rel, lv.dim)
    if cache is not None:
        cache[key] = ranks
    return ranks


def cech_h_dim_at(m: GradedModule, i: int, bound: int,
                  cache: dict | None = None) -> int:
    """Cohomology dimension at a single bound, no stabilization check.

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


def cech_cohomology_dim(m: GradedModule, i: int, bound: int | None = None,
                        cache: dict | None = None) -> int:
    """Stabilized Cech cohomology dimension of the sheaf presented by m.

    Computes at the bound and at bound + 1; a mismatch aborts, because the
    truncated relation span can lag behind the true localized one.  `cache`
    holds only the per-level ranks ("cech_ranks", m, p, bound), so the
    comparison runs on every call and a CechStabilizationError fires again
    with a shared cache.
    """
    bound = _checked_bound(bound)
    first = cech_h_dim_at(m, i, bound, cache)
    second = cech_h_dim_at(m, i, bound + 1, cache)
    if first != second:
        raise CechStabilizationError(
            f"h^{i} gave {first} at bound {bound} but {second} at bound "
            f"{bound + 1}; rerun with a larger bound"
        )
    return first
