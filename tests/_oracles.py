"""Independent oracles for the test suite.

Everything here is computed with plain dense linear algebra over Fraction
and closed-form counting, never through the engine's Groebner or module
code, so agreement is meaningful.  The monomial helpers and grevlex_key
spell the package's monomial kernel with generator expressions, the
reference for its map-over-operator versions.  The Cech window route
(cech_level_span and its truncated windows) is how the package read h^i
before local duality and the Atiyah class before the Euler sequence:
laurent_cech_ranks keeps a Cech level on its truncated Laurent spots, with
no shift to a polynomial window; cech_level_ranks and cech_h_dim_at read
h^i off the level spans at one bound, and stabilized_cech_dim checks that
number at two bounds, so the Bott tests read Cech numbers that no duality
number has seen, and the tests compare them with
projective.sheaf_cohomology_dim; cech_atiyah_residual is the Atiyah
class's old B/B+1 residual check, the cross-check of gauge's Euler
certificate.  MonicSpanTracker is the sparse tracker
as it was before it went fraction-free: monic pivots over Fraction, the
reference for every read-back of the integer one.  Three exceptions to the rule above go
through the module code's kernels and Groebner lifts.  The subquotient
route is how the derived layer used to present H^i and its induced maps,
kept as the reference for the window-rank certificates that replaced it.
ses_comparison_map is the map Con(f) -> C that triangle_from_ses no longer
builds, kept to test the mapping-cone lemma that replaced it.  The
unpruned route is how modules ranked and tested modules before each
module pruned its unit entries once: graded pieces and piece-map ranks on
one degree window of the full presentation, the zero test by Groebner
membership of every generator, and acyclicity by kernel_in_image at every
term with no trivial summand split off.  The
saturation route (torsion removal, floor-truncated saturation, then the
degree-0 module Hom) is how sheaf Hom was computed before graded local
duality, kept as the reference for projective.sheaf_hom_dim.  The two
matrix builders at the end only spell a PolyMatrix row by row, as the tests
write them; the package builds its matrices column by column and does not
need them.  The last helper, random_homogeneous, draws seeded test inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from branegauge.cech import _cofaces, chart_subsets
from branegauge.complexes import ComplexMap
from branegauge.errors import BraneGaugeError, NotWellDefinedError, ShapeError
from branegauge.gauge import _cech_d
from branegauge.linalg import (
    SpanTracker,
    WindowIndex,
    _expand,
    _window_index,
    degree_window,
)
from branegauge.modules import (
    GradedMap,
    GradedModule,
    _direct_sum_of_twists,
    graded_piece_dim,
    hom_module,
    hom_module_with_inclusion,
    is_iso,
    is_zero_module,
    kernel_generators,
    kernel_in_image,
    kernel_with_inclusion,
    lift_map_through_inclusion,
    minimal_presentation,
    truncate_module,
)
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import (
    Polynomial,
    monomial_mul,
    monomials_of_degree,
    parse_polynomial,
    qinv,
)
from branegauge.projective import ProjectiveSpace, cotangent_sheaf


def count_monomials(nv: int, d: int) -> int:
    if d < 0:
        return 0
    return math.comb(d + nv - 1, nv - 1)


def monomial_tuples(nv: int, d: int) -> list:
    """All exponent tuples of total degree d, plain lexicographic recursion."""
    if d < 0:
        return []
    if nv == 1:
        return [(d,)]
    out = []
    for e in range(d + 1):
        for rest in monomial_tuples(nv - 1, d - e):
            out.append((e,) + rest)
    return out


# The monomial kernel of polynomials.py, one generator expression each;
# the package's map-over-operator versions must agree.


def monomial_mul(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def monomial_div(b: tuple, a: tuple) -> tuple:
    return tuple(y - x for x, y in zip(a, b))


def monomial_lcm(a: tuple, b: tuple) -> tuple:
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(m: tuple) -> tuple:
    return (sum(m), tuple(-e for e in reversed(m)))


def dict_mul_monomial(poly: dict, mon: tuple) -> dict:
    return {tuple(a + b for a, b in zip(m, mon)): c for m, c in poly.items()}


def dict_poly_mul(p: dict, q: dict) -> dict:
    """Product of two polynomials given as {monomial: coefficient} dicts."""
    out: dict = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def dense_matrix_product(a: list, b: list, cols: int) -> list:
    """a times b, matrices given as lists of rows of dict polynomials, b with
    `cols` columns: entry (r, c) sums a[r][k] * b[k][c] over every k, zero
    entries included (the dense triple loop)."""
    out = []
    for row in a:
        out_row = []
        for c in range(cols):
            acc: dict = {}
            for k, p in enumerate(row):
                for m, v in dict_poly_mul(p, b[k][c]).items():
                    acc[m] = acc.get(m, 0) + v
            out_row.append({m: v for m, v in acc.items() if v})
        out.append(out_row)
    return out


def dense_kron(a: list, b: list, b_cols: int) -> list:
    """The Kronecker product of a and b (lists of rows of dict polynomials,
    b with `b_cols` columns): entry (i * rows_b + p, c * b_cols + q) is
    a[i][c] * b[p][q], every pair multiplied."""
    a_cols = len(a[0]) if a else 0
    out = [[{} for _ in range(a_cols * b_cols)] for _ in range(len(a) * len(b))]
    for i, arow in enumerate(a):
        for c, x in enumerate(arow):
            for p, brow in enumerate(b):
                for q, y in enumerate(brow):
                    out[i * len(b) + p][c * b_cols + q] = dict_poly_mul(x, y)
    return out


def dense_transpose(a: list, cols: int) -> list:
    """The transpose of a matrix of `cols` columns given as a list of rows."""
    return [[row[c] for row in a] for c in range(cols)]


def dense_blocks(row_sizes: list, col_sizes: list, parts: dict) -> list:
    """Block matrix of dict polynomials: block (gi, gj) starts at row
    sum(row_sizes[:gi]) and column sum(col_sizes[:gj]); the rest is zero."""
    out = [[{} for _ in range(sum(col_sizes))] for _ in range(sum(row_sizes))]
    for (gi, gj), block in parts.items():
        r0, c0 = sum(row_sizes[:gi]), sum(col_sizes[:gj])
        for r, row in enumerate(block):
            for c, x in enumerate(row):
                out[r0 + r][c0 + c] = x
    return out


def poly_degree(poly: dict) -> int:
    degs = {sum(m) for m in poly}
    assert len(degs) == 1, "oracle expects homogeneous input"
    return degs.pop()


def rref_rank(rows: list) -> int:
    """Row reduction over Fraction; mutates a copy."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = Fraction(1) / mat[rank][col]
        mat[rank] = [v * inv for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def _axpy(target: dict, coeff, source: dict) -> None:
    """target += coeff * source, entries kept canonical."""
    for i, v in source.items():
        s = target.get(i, 0) + coeff * v
        if s:
            target[i] = s.numerator if (type(s) is Fraction
                                        and s.denominator == 1) else s
        else:
            target.pop(i, None)


class MonicSpanTracker:
    """linalg.SpanTracker as it was with monic pivots over Fraction: every
    pivot is divided by its lead, and each reduction step subtracts the
    column's lead times that pivot.  Same interface and tag convention."""

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, vec: dict):
        while vec:
            lead = max(vec)
            if lead < 0:
                return None
            pvec = self.pivots.get(lead)
            if pvec is None:
                return lead
            _axpy(vec, -vec[lead], pvec)
        return None

    def residual(self, column: dict) -> dict:
        vec = dict(column)
        self._reduce(vec)
        return vec

    def insert(self, column: dict):
        vec = dict(column)
        lead = self._reduce(vec)
        if lead is None:
            return vec
        inv = qinv(vec[lead])
        if inv != 1:
            nvec: dict = {}
            _axpy(nvec, inv, vec)
            vec = nvec
        self.pivots[lead] = vec
        return None

    def coordinates(self, column: dict):
        vec = dict(column)
        if self._reduce(vec) is not None:
            return None
        return {-1 - key: -v for key, v in vec.items()}


def monic_nullspace(columns: list) -> list:
    """linalg.nullspace through MonicSpanTracker."""
    tracker = MonicSpanTracker()
    out = []
    for j, col in enumerate(columns):
        left = tracker.insert({**col, -1 - j: 1})
        if left is not None:
            out.append({-1 - key: v for key, v in left.items()})
    return out


def monic_solve_in_span(columns: list, target: dict):
    """linalg.solve_in_span through MonicSpanTracker."""
    tracker = MonicSpanTracker()
    for j, col in enumerate(columns):
        tracker.insert({**col, -1 - j: 1})
    return tracker.coordinates(target)


def dense_ideal_member(gens: list, f: dict, nv: int) -> bool:
    """Degreewise membership: f lies in the ideal iff adding it to the span
    of all generator multiples of the same degree does not raise the rank."""
    if not f:
        return True
    d = poly_degree(f)
    basis = monomial_tuples(nv, d)
    index = {m: i for i, m in enumerate(basis)}

    def vec(poly: dict) -> list:
        out = [Fraction(0)] * len(basis)
        for m, c in poly.items():
            out[index[m]] += c
        return out

    rows = []
    for g in gens:
        if not g:
            continue
        dg = poly_degree(g)
        for m in monomial_tuples(nv, d - dg):
            rows.append(vec(dict_mul_monomial(g, m)))
    base = rref_rank(rows) if rows else 0
    return rref_rank(rows + [vec(f)]) == base


def line_bundle_h(n: int, a: int, i: int) -> int:
    """Cohomology dimensions of O(a) on P^n (the classical formulas)."""
    if i == 0:
        return math.comb(a + n, n) if a >= 0 else 0
    if i == n:
        return math.comb(-a - 1, n) if -a - 1 >= n else 0
    return 0


def omega_piece_dim(n: int, d: int) -> int:
    """Graded piece of the cotangent module from the twisted Euler sequence."""
    if d < 1:
        return 0
    return (n + 1) * count_monomials(n + 1, d - 1) - count_monomials(n + 1, d)


def koszul_rank(nv: int, i: int) -> int:
    return math.comb(nv, i)


def bott_omega1_h(n: int, d: int, q: int) -> int:
    """h^q(P^n, Omega^1(d)) by Bott's formula (p = 1):

        q = 0, d > 1:       C(d + n - 1, d) * C(d - 1, 1)
        d = 0, q = 1:       1
        q = n, d < 1 - n:   C(-d + 1, -d) * C(-d - 1, n - 1)
        otherwise:          0
    """
    if q == 0 and d > 1:
        return math.comb(d + n - 1, d) * math.comb(d - 1, 1)
    if d == 0 and q == 1:
        return 1
    if q == n and d < 1 - n:
        return math.comb(-d + 1, -d) * math.comb(-d - 1, n - 1)
    return 0


# The Cech window route: Cech cochains over the standard affine charts, on
# a truncated window.  A graded module M presents a sheaf; over the chart
# intersection U_S the sections are degree-0 Laurent combinations x^a e_r of
# the cover generators, with negative exponents allowed only on the charts
# in S.  The window truncates those exponents at a_i >= -B.  For
# |S| = p + 1, multiplying by (prod_{i in S} x_i)^B maps the truncated spots
# one to one onto the cover monomials of degree B(p+1), and relation
# multiples onto relation multiples.  So level p at bound B is one copy of
# the polynomial window linalg.degree_window(M, B(p+1)) per chart set, its
# relation span R_p is that window's span in every copy, and the Cech
# differential from S to S + {j} is multiplication by x_j^B with the sign
# (-1)^(position of j).  This is the Koszul cocomplex of M on x0^B..xn^B in
# degree 0, whose cohomology tends to local cohomology as B grows (Eisenbud,
# The Geometry of Syzygies, App. 1).  The package read the Atiyah class
# here, at B and B + 1, before the Euler sequence certified it exactly.

DEFAULT_CECH_BOUND = 3


class CechStabilizationError(BraneGaugeError):
    """A Cech number or the Atiyah residual changed between the bound and
    bound + 1, or the residual vanished: the window is too small."""


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


def cech_atiyah_residual(w: dict, p: ProjectiveSpace,
                         bound: int | None = None) -> dict:
    """The residual of the cotangent-valued 1-cochain w on P^n modulo the
    level-1 coboundaries and in-window relations, checked as the package
    checked the Atiyah class before the Euler sequence certified it: at the
    bound and at bound + 1, each entry of w lies in the window (else
    ShapeError), w is a cocycle modulo R_2 (else NotWellDefinedError) and
    its residual is non-zero (else CechStabilizationError).  Empirical: a
    window too small can hide a class or show a false one.  Returns the
    residual at the bound."""
    bound = _checked_bound(bound)
    om = cotangent_sheaf(p)
    image = _cech_d(w, om.nvars)  # on chart triples
    residuals = []
    for b in (bound, bound + 1):
        lv, tracker = cech_level_span(om, 1, b)
        column = {lv.coordinate(spot): c for spot, c in w.items()}
        if not _in_relation_span(om, 2, b, image):
            raise NotWellDefinedError(
                "cochain fails the triple-overlap cocycle condition")
        residuals.append(tracker.residual(column))
    if not all(residuals):
        raise CechStabilizationError(
            f"the cochain reduced to a coboundary at bound {bound} or "
            f"{bound + 1}")
    return residuals[0]


def laurent_cech_ranks(relations, p: int, bound: int) -> tuple[int, int, int]:
    """(rank [D_{p-1} | R_p], rank R_p, dim W_p) at Cech level p, dense.

    W_p has one spot (S, r, a) per chart set S of p + 1 charts, cover row r
    of twist t and exponent vector a with sum(a) = -t, a_i >= -bound on S
    and a_i >= 0 off it.  R_p spans the in-window multiples x^b * rho of the
    relation columns on each S; D sends (S, r, a) to the alternating sum of
    (S + {j}, r, a) with the sign (-1)^(position of j).
    """
    nv = relations.nvars

    def exponents(total, charts):
        low = [-bound if i in charts else 0 for i in range(nv)]
        return [tuple(e + b for e, b in zip(mon, low))
                for mon in monomial_tuples(nv, total - sum(low))]

    def spots(q):
        return [(s, r, a) for s in combinations(range(nv), q + 1)
                for r, t in enumerate(relations.row_twists)
                for a in exponents(-t, s)]

    level = spots(p)
    index = {spot: k for k, spot in enumerate(level)}
    rel = []
    for s in combinations(range(nv), p + 1):
        for twist, vec in zip(relations.col_twists, relations.vecs):
            for b in exponents(-twist, s):
                col = [0] * len(level)
                for (r, mon), c in vec.items():
                    col[index[(s, r, tuple(x + y for x, y in zip(b, mon)))]] += c
                rel.append(col)
    diff = []
    for s, r, a in (spots(p - 1) if p >= 1 else []):
        col = [0] * len(level)
        for j in range(nv):
            if j not in s:
                bigger = tuple(sorted(s + (j,)))
                col[index[(bigger, r, a)]] += (-1) ** bigger.index(j)
        diff.append(col)
    return rref_rank(diff + rel), rref_rank(rel), len(level)


def cech_level_ranks(m, p: int, bound: int,
                     cache: dict | None = None) -> tuple[int, int, int]:
    """(rank [D_{p-1} | R_p], rank R_p, dim W_p) at one level and bound,
    from cech_level_span.  R_p is one copy of the degree-B(p+1)
    window's span per chart set, so its rank is len(charts) times the
    window's.  With `cache`, the triple is kept under
    ("cech_ranks", m, p, bound).  Levels outside 0..n are empty.
    """
    if p < 0 or p >= m.nvars:
        return 0, 0, 0
    key = ("cech_ranks", m, p, bound)
    if cache is not None and key in cache:
        return cache[key]
    level, tracker = cech_level_span(m, p, bound)
    window = degree_window(m.relations, bound * (p + 1))[1]
    rel = len(level.charts) * window.rank if window is not None else 0
    ranks = (tracker.rank, rel, level.dim)
    if cache is not None:
        cache[key] = ranks
    return ranks


def cech_h_dim_at(m, i: int, bound: int, cache: dict | None = None) -> int:
    """h^i by Cech at a single bound, unchecked:

        h^i = dim W_i - joint(i+1) + rel(i+1) - joint(i)

    from the per-level ranks of cech_level_ranks.  Kernels truncate exactly
    but images need not, so a window too small can give a wrong number.
    """
    if i < 0 or i >= m.nvars:
        return 0
    joint_i, _, dim_i = cech_level_ranks(m, i, bound, cache)
    joint_up, rel_up, _ = cech_level_ranks(m, i + 1, bound, cache)
    return dim_i - joint_up + rel_up - joint_i


def stabilized_cech_dim(m, i: int, bound: int | None = None,
                        cache: dict | None = None) -> int:
    """h^i by Cech, as the package computed it before local duality: at
    the bound and at bound + 1 (cech_h_dim_at), and a
    CechStabilizationError unless the two agree.  Empirical: both numbers
    can be wrong together."""
    bound = DEFAULT_CECH_BOUND if bound is None else bound
    first = cech_h_dim_at(m, i, bound, cache)
    second = cech_h_dim_at(m, i, bound + 1, cache)
    if first != second:
        raise CechStabilizationError(
            f"h^{i} gave {first} at bound {bound} but {second} at bound "
            f"{bound + 1}; rerun with a larger bound"
        )
    return first


# The subquotient route: H^i(c) presented on the cycles, Z = ker d^i, with
# the boundaries lifted onto Z appended to its relations, and H^i(h) lifted
# onto the target's cycles.


def subquotient_cohomology(c, i: int):
    """(H^i(c), the inclusion of its cycles into C^i)."""
    if i < c.lo or i > c.hi:
        zero = GradedModule.zero(c.nvars)
        return zero, GradedMap.identity(zero)
    ker, incl = kernel_with_inclusion(c.diff(i))
    rel = ker.relations
    if i > c.lo:
        rel = rel.hstack(lift_map_through_inclusion(c.diff(i - 1), incl).matrix)
    return GradedModule(rel), incl


def subquotient_induced_map(h, i: int) -> GradedMap:
    """H^i(h): the source's cycles, mapped by h^i, lifted onto the target's
    cycles, and checked well defined on the two presentations."""
    src, src_cycles = subquotient_cohomology(h.source, i)
    tgt, tgt_cycles = subquotient_cohomology(h.target, i)
    carrier = GradedMap(src, tgt_cycles.target,
                        h.level(i).matrix * src_cycles.matrix, check=False)
    lifted = lift_map_through_inclusion(carrier, tgt_cycles)
    return GradedMap(src, tgt, lifted.matrix, check=True)


def subquotient_quasi_iso(h) -> bool:
    """Whether every H^i(h) is an isomorphism."""
    lo = min(h.source.lo, h.target.lo)
    hi = max(h.source.hi, h.target.hi)
    return all(is_iso(subquotient_induced_map(h, i)) for i in range(lo, hi + 1))


def ses_comparison_map(f, g, con) -> ComplexMap:
    """The map Con(f) -> C that is g on B and zero on A[1], for
    A --f--> B --g--> C with con = Con(f), checked to commute with the
    differentials.  By the mapping-cone lemma it is a quasi-isomorphism when
    the sequence is exact in every degree."""
    a, b, c = f.source, f.target, g.target
    levels = {}
    for i in con.window():
        mat = PolyMatrix.blocks(
            a.nvars,
            [c.term(i).cover_twists],
            [a.term(i + 1).cover_twists, b.term(i).cover_twists],
            {(0, 1): g.level(i).matrix},
        )
        levels[i] = GradedMap(con.term(i), c.term(i), mat, check=False)
    return ComplexMap(con, c, levels, check=True)


# The unpruned route: dimensions, ranks, zero tests and acyclicity on the
# full presentation, with no unit entry pivoted out.


def one_tracker_piece_dim(m: GradedModule, d: int) -> int:
    """dim M_d: the size of the degree-d window of m's own relations less
    the rank of their multiples."""
    index, tracker = degree_window(m.relations, d)
    return len(index) - tracker.rank if index else 0


def one_tracker_piece_dim_and_map_rank(f: GradedMap, d: int) -> tuple[int, int]:
    """(dim N_d, rank M_d -> N_d) for f: M -> N from one tracker: N's
    relation multiples first, then f's columns times monomials, whose added
    rank is the map's rank."""
    index, tracker = degree_window(f.target.relations, d)
    if not index:
        return 0, 0
    base = tracker.rank
    for vec, tc in zip(f.matrix.vecs, f.matrix.col_twists):
        if d - tc < 0 or not vec:
            continue
        for mult in monomials_of_degree(f.target.nvars, d - tc):
            tracker.insert(_expand(vec, mult, index))
    return len(index) - base, tracker.rank - base


def membership_is_zero_module(m: GradedModule) -> bool:
    """M = 0 iff every cover generator reduces to zero against the relation
    Groebner basis."""
    zero_mon = (0,) * m.nvars
    return all(m.reduces_to_zero({(i, zero_mon): 1}) for i in range(m.rank))


def kernel_in_image_acyclic(c) -> bool:
    """Exactness at every term of c by kernel_in_image, on c as it is."""
    return all(kernel_in_image(c.diff(i - 1), c.diff(i)) for i in c.window())


# The saturation route: how sheaf Hom was computed before local duality,
# through torsion removal on the source and floor-truncated saturation on
# the target, kept as the reference for projective.sheaf_hom_dim.

SATURATION_CAP = 40


class SaturationCapError(BraneGaugeError):
    """Saturation exceeded the hard iteration cap (SATURATION_CAP)."""


def _times_variables(m: GradedModule) -> GradedMap:
    """The map M -> M(1)^(n+1), v |-> (x_0 v, ..., x_n v).

    Its kernel is the colon (relations : (x0..xn)) modulo the relations, and
    its target is Hom((x0..xn), M) on the ideal's cover (saturate)."""
    nv = m.nvars
    return GradedMap(
        m, _direct_sum_of_twists(m, (1,) * nv),
        PolyMatrix.koszul(nv, 1).dual().kron(
            PolyMatrix.identity(nv, m.cover_twists)),
        check=False,
    )


def torsion_free_quotient(m: GradedModule) -> GradedModule:
    """Quotient by the irrelevant-ideal torsion submodule.

    Each round adds to the relations the generators of the kernel of
    multiplication by the variables (_times_variables), the elements that
    every x_i sends into the relations; when that kernel is zero the module
    has no torsion left.  Each round is one certified kernel run.
    """
    current = m
    for _ in range(SATURATION_CAP):
        new = kernel_generators(_times_variables(current))
        if not new.cols:
            return current
        current = GradedModule(current.relations.hstack(new))
    raise SaturationCapError(
        f"torsion removal did not stabilize within {SATURATION_CAP} rounds"
    )


def saturation_floor(m: GradedModule) -> int:
    return min([0] + [t for t in m.cover_twists])


def saturate(m: GradedModule, floor: int | None = None) -> GradedModule:
    """Saturation with respect to the irrelevant ideal, truncated at floor.

    Torsion is removed as the kernel of multiplication by the variables
    (torsion_free_quotient); sections are extended by iterating the natural
    map M -> Hom((x0..xn), M), multiplication by the variables lifted
    through Hom's inclusion, until it is an isomorphism.  The
    result agrees with the full saturation in all degrees >= floor (default:
    min(0, cover degrees)); point-supported sheaves have sections in every
    low degree, so some floor is forced on any finitely generated answer.
    """
    if floor is None:
        floor = saturation_floor(m)
    current = minimal_presentation(torsion_free_quotient(m))
    if is_zero_module(current):
        return GradedModule.zero(m.nvars)
    # (x0..xn) as a module: covers in degree 1, the Koszul relations
    ideal = GradedModule(PolyMatrix.koszul(m.nvars, 2))
    for _ in range(SATURATION_CAP):
        hom, incl = hom_module_with_inclusion(ideal, current)
        nat = lift_map_through_inclusion(_times_variables(current), incl)
        trunc, tr_incl = truncate_module(hom, floor)
        nat_t = lift_map_through_inclusion(nat, tr_incl)
        if is_iso(nat_t):
            return current
        current = minimal_presentation(trunc)
    raise SaturationCapError(
        f"section extension did not stabilize within {SATURATION_CAP} rounds"
    )


def saturation_sheaf_hom_dim(f: GradedModule, g: GradedModule) -> int:
    """dim Hom(F~, G~) by saturation.  Source torsion cannot map anywhere in
    a saturated target, so the source is replaced by its torsion-free
    quotient; the target is saturated with a floor no higher than any
    surviving source generator, which keeps every candidate image inside the
    truncated window; the answer is the degree-0 piece of the module Hom."""
    if f.rank == 0 or g.rank == 0:
        return 0
    src = minimal_presentation(torsion_free_quotient(f))
    if src.rank == 0 or is_zero_module(src):
        return 0
    floor = min([0] + list(src.cover_twists) + list(g.cover_twists))
    tgt = saturate(g, floor)
    if tgt.rank == 0:
        return 0
    return graded_piece_dim(hom_module(src, tgt), 0)


def matrix_from_rows(nvars: int, row_twists, col_twists, grid) -> PolyMatrix:
    """The PolyMatrix whose entries are the given rows of Polynomials."""
    columns = [[row[c] for row in grid] for c in range(len(col_twists))]
    return PolyMatrix.from_columns(nvars, row_twists, columns, col_twists)


def from_strings(nvars: int, row_twists, col_twists, grid) -> PolyMatrix:
    """The PolyMatrix whose entries are the given rows of polynomial text."""
    return matrix_from_rows(nvars, row_twists, col_twists,
                            [[parse_polynomial(s, nvars) for s in row] for row in grid])


def random_homogeneous(rng, nvars: int, degree: int, max_terms: int = 3) -> Polynomial:
    """Small random homogeneous polynomial (deterministic given the rng)."""
    mons = monomials_of_degree(nvars, degree)
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        m = mons[rng.randrange(len(mons))]
        c = rng.choice([-2, -1, -1, 1, 1, 2])
        s = terms.get(m, 0) + c
        if s:
            terms[m] = s
        else:
            terms.pop(m, None)
    return Polynomial(nvars, terms)
