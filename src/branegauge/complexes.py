"""Bounded complexes of graded modules and the derived-category toolbox.

Complexes carry an explicit window [lo, hi]; terms outside it are zero
modules and differentials outside it are zero maps, so window arithmetic
stays total.  Sign conventions, fixed once:

    shift:  A[k]^i = A^{i+k},   d_{A[k]} = (-1)^k d_A^{i+k}
    cone:   Con(h)^i = A^{i+1} (+) B^i,  d = [[-d_A, 0], [h, d_B]]
    Hom:    (d g)^p = d_C o g^p + (-1)^{m+1} g^{p+1} o d_B  on Hom^m

Cohomology objects are subquotient presentations: the kernel's generators
inside the term's cover, with the lifted image columns appended to the
relations.  Induced maps are computed by lifting through those generators,
never by choosing splittings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotAComplexError,
    NotExactError,
    NotWellDefinedError,
    RingMismatchError,
    ShapeError,
)
from .homspace import HomBasis
from .modules import (
    GradedMap,
    GradedModule,
    direct_sum,
    cokernel,
    graded_piece_dim,
    is_injective,
    is_iso,
    is_zero_module,
    kernel_with_inclusion,
    lift_map_through_inclusion,
    piece_dim_and_map_rank,
    piece_map_rank,
)
from .polymatrix import PolyMatrix
from .polynomials import Polynomial


class BoundedComplex:
    """Complex of graded modules supported on [lo, hi], differentials rising."""

    __slots__ = ("nvars", "lo", "hi", "_terms", "_diffs")

    def __init__(self, nvars: int, lo: int, terms, diffs, check: bool = True):
        self.nvars = nvars
        self.lo = lo
        self._terms = tuple(terms)
        if not self._terms:
            raise ShapeError("a bounded complex needs at least one term")
        self.hi = lo + len(self._terms) - 1
        self._diffs = tuple(diffs)
        if len(self._diffs) != len(self._terms) - 1:
            raise ShapeError("differential count must be term count minus one")
        for k, d in enumerate(self._diffs):
            if d.source is not self._terms[k] or d.target is not self._terms[k + 1]:
                raise ShapeError(f"differential {lo + k} endpoints mismatch")
        if check and not self.is_complex():
            raise NotAComplexError("d o d is not zero")

    def term(self, i: int) -> GradedModule:
        if self.lo <= i <= self.hi:
            return self._terms[i - self.lo]
        return GradedModule.zero(self.nvars)

    def diff(self, i: int) -> GradedMap:
        if self.lo <= i < self.hi:
            return self._diffs[i - self.lo]
        return GradedMap.zero_map(self.term(i), self.term(i + 1))

    def is_complex(self) -> bool:
        return all(
            (self._diffs[k + 1] * self._diffs[k]).is_zero_map()
            for k in range(len(self._diffs) - 1)
        )

    def window(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        return f"BoundedComplex[{self.lo}..{self.hi}]"


def validate_complex(c: BoundedComplex) -> bool:
    return c.is_complex()


def embed_object(m: GradedModule, at: int = 0) -> BoundedComplex:
    return BoundedComplex(m.nvars, at, [m], [])


def zero_complex(nvars: int) -> BoundedComplex:
    return embed_object(GradedModule.zero(nvars))


class ComplexMap:
    """Map of complexes; levels commute with the differentials."""

    __slots__ = ("source", "target", "_levels")

    def __init__(self, source: BoundedComplex, target: BoundedComplex,
                 levels: dict, check: bool = True):
        if source.nvars != target.nvars:
            raise RingMismatchError("complex map over mismatched rings")
        self.source = source
        self.target = target
        kept = {}
        for i, f in levels.items():
            if f.source is not source.term(i) and f.source.cover_twists != source.term(i).cover_twists:
                raise ShapeError(f"level {i} source mismatch")
            if f.target is not target.term(i) and f.target.cover_twists != target.term(i).cover_twists:
                raise ShapeError(f"level {i} target mismatch")
            kept[i] = f
        self._levels = kept
        if check:
            lo = min(source.lo, target.lo) - 1
            hi = max(source.hi, target.hi)
            for i in range(lo, hi + 1):
                left = target.diff(i) * self.level(i)
                right = self.level(i + 1) * source.diff(i)
                if not left.equals(right):
                    raise NotWellDefinedError(
                        f"map does not commute with differentials at degree {i}"
                    )

    def level(self, i: int) -> GradedMap:
        got = self._levels.get(i)
        if got is not None:
            return got
        return GradedMap.zero_map(self.source.term(i), self.target.term(i))

    @classmethod
    def identity(cls, c: BoundedComplex) -> "ComplexMap":
        return cls(
            c, c,
            {i: GradedMap.identity(c.term(i)) for i in c.window()},
            check=False,
        )

    @classmethod
    def zero(cls, a: BoundedComplex, b: BoundedComplex) -> "ComplexMap":
        return cls(a, b, {}, check=False)

    def __repr__(self):
        return f"ComplexMap({self.source!r} -> {self.target!r})"


# -- shift ------------------------------------------------------------------


def shift(c: BoundedComplex, k: int) -> BoundedComplex:
    """C[k]: term i is C's term i+k; odd shifts negate the differential."""
    terms = [c.term(i + k) for i in range(c.lo - k, c.hi - k + 1)]
    diffs = []
    for i in range(c.lo - k, c.hi - k):
        d = c.diff(i + k)
        diffs.append(d if k % 2 == 0 else -d)
    return BoundedComplex(c.nvars, c.lo - k, terms, diffs, check=False)


def shift_map(h: ComplexMap, k: int) -> ComplexMap:
    src = shift(h.source, k)
    tgt = shift(h.target, k)
    levels = {}
    for i in range(src.lo, src.hi + 1):
        f = h.level(i + k)
        levels[i] = GradedMap(src.term(i), tgt.term(i), f.matrix, check=False)
    return ComplexMap(src, tgt, levels, check=False)


def negate_map(h: ComplexMap) -> ComplexMap:
    levels = {i: -h.level(i) for i in h._levels}
    return ComplexMap(h.source, h.target, levels, check=False)


# -- block assembly ---------------------------------------------------------


def _assemble(nvars, row_groups, col_groups, blocks) -> PolyMatrix:
    """Block matrix from twist groups and a {(gi, gj): PolyMatrix} dict."""
    row_twists = [t for g in row_groups for t in g]
    col_twists = [t for g in col_groups for t in g]
    z = Polynomial.zero(nvars)
    entries = [[z] * len(col_twists) for _ in row_twists]
    row_off = [0]
    for g in row_groups:
        row_off.append(row_off[-1] + len(g))
    col_off = [0]
    for g in col_groups:
        col_off.append(col_off[-1] + len(g))
    for (gi, gj), m in blocks.items():
        if m.row_twists != tuple(row_groups[gi]) or m.col_twists != tuple(col_groups[gj]):
            raise ShapeError(f"block ({gi},{gj}) twist mismatch")
        for r in range(m.rows):
            for c in range(m.cols):
                entries[row_off[gi] + r][col_off[gj] + c] = m.entries[r][c]
    return PolyMatrix(nvars, row_twists, col_twists, entries)


# -- cone -------------------------------------------------------------------


def cone_with_maps(h: ComplexMap):
    """Con(h) together with the inclusion of B and the projection to A[1]."""
    a, b = h.source, h.target
    nv = a.nvars
    lo = min(a.lo - 1, b.lo)
    hi = max(a.hi - 1, b.hi)
    terms = []
    for i in range(lo, hi + 1):
        terms.append(direct_sum(a.term(i + 1), b.term(i)))
    diffs = []
    for i in range(lo, hi):
        da = a.diff(i + 1)
        db = b.diff(i)
        hi_lvl = h.level(i + 1)
        mat = _assemble(
            nv,
            [a.term(i + 2).cover_twists, b.term(i + 1).cover_twists],
            [a.term(i + 1).cover_twists, b.term(i).cover_twists],
            {(0, 0): -da.matrix, (1, 0): hi_lvl.matrix, (1, 1): db.matrix},
        )
        diffs.append(GradedMap(terms[i - lo], terms[i + 1 - lo], mat, check=False))
    con = BoundedComplex(nv, lo, terms, diffs, check=True)

    incl_levels = {}
    for i in range(b.lo, b.hi + 1):
        mat = _assemble(
            nv,
            [a.term(i + 1).cover_twists, b.term(i).cover_twists],
            [b.term(i).cover_twists],
            {(1, 0): PolyMatrix.identity(nv, b.term(i).cover_twists)},
        )
        incl_levels[i] = GradedMap(b.term(i), con.term(i), mat, check=False)
    incl = ComplexMap(b, con, incl_levels, check=True)

    a1 = shift(a, 1)
    proj_levels = {}
    for i in range(lo, hi + 1):
        mat = _assemble(
            nv,
            [a.term(i + 1).cover_twists],
            [a.term(i + 1).cover_twists, b.term(i).cover_twists],
            {(0, 0): PolyMatrix.identity(nv, a.term(i + 1).cover_twists)},
        )
        proj_levels[i] = GradedMap(con.term(i), a1.term(i), mat, check=False)
    proj = ComplexMap(con, a1, proj_levels, check=True)
    return con, incl, proj


def cone(h: ComplexMap) -> BoundedComplex:
    return cone_with_maps(h)[0]


# -- cohomology -------------------------------------------------------------


@dataclass(frozen=True)
class Subquotient:
    """A cohomology object: presentation plus coordinates in the ambient term."""

    module: GradedModule
    ambient: GradedModule
    gens: PolyMatrix  # columns express the module's generators in the ambient cover


def cohomology_subquotient(c: BoundedComplex, i: int) -> Subquotient:
    term = c.term(i)
    if i < c.lo or i > c.hi:
        zero = GradedModule.zero(c.nvars)
        return Subquotient(zero, term, PolyMatrix.zero(c.nvars, (), ()))
    ker, incl = kernel_with_inclusion(c.diff(i))
    rel = ker.relations
    if i > c.lo:
        lifted = lift_map_through_inclusion(c.diff(i - 1), incl)
        rel = rel.hstack(lifted.matrix)
    h = GradedModule(PolyMatrix(c.nvars, ker.cover_twists, rel.col_twists, rel.entries))
    return Subquotient(h, term, incl.matrix)


def cohomology(c: BoundedComplex, i: int) -> GradedModule:
    return cohomology_subquotient(c, i).module


def _map_into_subquotient(
    source: GradedModule, columns: PolyMatrix, target: Subquotient
) -> GradedMap:
    """Map presented by ambient-cover columns, lifted onto target generators."""
    carrier = GradedMap(source, target.ambient, columns, check=False)
    onto = GradedMap(target.module, target.ambient, target.gens, check=False)
    lifted = lift_map_through_inclusion(carrier, onto)
    # revalidate as a map of subquotients
    return GradedMap(source, target.module, lifted.matrix, check=True)


def _induced_maps(maps, i: int) -> list[GradedMap]:
    """H^i of each map; each complex's subquotient is computed once, so a
    complex shared by two maps (or a map's source that is its target) is
    presented by one object, and the induced maps meet in it."""
    subquotients: dict[int, Subquotient] = {}

    def at(c: BoundedComplex) -> Subquotient:
        got = subquotients.get(id(c))
        if got is None:
            got = subquotients[id(c)] = cohomology_subquotient(c, i)
        return got

    out = []
    for h in maps:
        s, t = at(h.source), at(h.target)
        out.append(_map_into_subquotient(s.module, h.level(i).matrix * s.gens, t))
    return out


def induced_cohomology_map(h: ComplexMap, i: int) -> GradedMap:
    return _induced_maps((h,), i)[0]


def is_quasi_iso(h: ComplexMap) -> bool:
    lo = min(h.source.lo, h.target.lo)
    hi = max(h.source.hi, h.target.hi)
    return all(
        is_iso(induced_cohomology_map(h, i)) for i in range(lo, hi + 1)
    )


def is_acyclic(c: BoundedComplex) -> bool:
    return all(is_zero_module(cohomology(c, i)) for i in c.window())


# -- Hom complex ------------------------------------------------------------


@dataclass(frozen=True)
class HomComplexReport:
    """Dimension table of the Hom complex, optionally with differentials.

    dims[m - lo] is the total dimension of the degree-m term; blocks lists
    the nonzero (source-degree, dimension) contributions.  When materialized
    (module-hom oracle only), differentials[m - lo] is the rational matrix of
    d: Hom^m -> Hom^{m+1} in the recorded bases and dd_zero certifies d o d.
    """

    lo: int
    hi: int
    dims: tuple
    blocks: tuple
    is_zero: bool
    differentials: tuple | None = None
    dd_zero: bool | None = None

    def dim(self, m: int) -> int:
        if self.lo <= m <= self.hi:
            return self.dims[m - self.lo]
        return 0


def hom_complex(
    b: BoundedComplex,
    c: BoundedComplex,
    hom_dim=None,
    materialize: bool | None = None,
) -> HomComplexReport:
    """Hom complex of two bounded complexes.

    hom_dim: optional callable (M, N) -> dimension of the Hom space; when
    omitted, degree-0 module homs are used and the differential matrices are
    materialized so d o d = 0 can be certified.
    """
    if materialize is None:
        materialize = hom_dim is None
    if materialize and hom_dim is not None:
        raise ShapeError("cannot materialize differentials for an external oracle")
    lo = c.lo - b.hi
    hi = c.hi - b.lo
    dims = []
    blocks = []
    bases: dict = {}
    for m in range(lo, hi + 1):
        total = 0
        row = []
        for i in range(b.lo, b.hi + 1):
            src = b.term(i)
            tgt = c.term(i + m)
            if src.rank == 0 or tgt.rank == 0:
                continue
            if hom_dim is not None:
                d = hom_dim(src, tgt)
            else:
                basis = HomBasis(src, tgt)
                bases[(i, m)] = basis
                d = basis.dim
            total += d
            if d:
                row.append((i, d))
        dims.append(total)
        blocks.append(tuple(row))
    report_dims = tuple(dims)
    zero = all(d == 0 for d in report_dims)
    if not materialize:
        return HomComplexReport(lo, hi, report_dims, tuple(blocks), zero)

    def offsets(m):
        out = {}
        acc = 0
        for i in range(b.lo, b.hi + 1):
            basis = bases.get((i, m))
            if basis is not None and basis.dim:
                out[i] = acc
                acc += basis.dim
        return out, acc

    differentials = []
    for m in range(lo, hi):
        src_off, src_dim = offsets(m)
        tgt_off, tgt_dim = offsets(m + 1)
        matrix = [[0] * src_dim for _ in range(tgt_dim)]
        sign = -1 if (m + 1) % 2 else 1
        for i, off in src_off.items():
            basis = bases[(i, m)]
            for k, g in enumerate(basis.matrices()):
                col = off + k
                # component at i: post-compose with the target differential
                post = c.diff(i + m).matrix * g
                tb = bases.get((i, m + 1))
                if tb is not None and tb.dim and not post.is_zero:
                    coords = tb.coordinates(post)
                    if coords is None:
                        raise AssertionError("Hom differential left the solution span")
                    for r, v in enumerate(coords):
                        if v:
                            matrix[tgt_off[i] + r][col] += v
                # component at i-1: pre-compose with the source differential
                pre = g * b.diff(i - 1).matrix
                tb = bases.get((i - 1, m + 1))
                if tb is not None and tb.dim and not pre.is_zero:
                    coords = tb.coordinates(pre)
                    if coords is None:
                        raise AssertionError("Hom differential left the solution span")
                    for r, v in enumerate(coords):
                        if v:
                            matrix[tgt_off[i - 1] + r][col] += sign * v
        differentials.append(tuple(tuple(row) for row in matrix))

    dd = True
    for m in range(lo, hi - 1):
        d0 = differentials[m - lo]
        d1 = differentials[m + 1 - lo]
        rows1 = len(d1)
        cols0 = len(d0[0]) if d0 else 0
        mid = len(d0)
        for r in range(rows1):
            for ccol in range(cols0):
                acc = 0
                for k in range(mid):
                    acc += d1[r][k] * d0[k][ccol]
                if acc:
                    dd = False
    return HomComplexReport(
        lo, hi, report_dims, tuple(blocks), zero, tuple(differentials), dd
    )


# -- triangles --------------------------------------------------------------


@dataclass(frozen=True)
class Triangle:
    """Distinguished triangle a -> b -> c -> a[1] with materialized maps.

    For from_ses triangles c is the cone model of the inclusion and
    model_qis is the certified quasi-isomorphism onto the declared quotient.
    """

    a: BoundedComplex
    b: BoundedComplex
    c: BoundedComplex
    f: ComplexMap
    g: ComplexMap
    delta: ComplexMap
    witness: str
    model_qis: ComplexMap | None = None


def triangle_from_cone(h: ComplexMap) -> Triangle:
    con, incl, proj = cone_with_maps(h)
    return Triangle(h.source, h.target, con, h, incl, proj, "from_cone")


def triangle_from_ses(f: ComplexMap, g: ComplexMap) -> Triangle:
    """Triangle of a termwise short exact sequence 0 -> A -> B -> C -> 0.

    Exactness is certified degree by degree (injectivity, ker = im,
    surjectivity); the cone of the inclusion replaces the quotient, with the
    comparison quasi-isomorphism recorded.
    """
    a, b, c = f.source, f.target, g.target
    if g.source is not b:
        raise ShapeError("the two maps do not share the middle complex")
    lo = min(a.lo, b.lo, c.lo)
    hi = max(a.hi, b.hi, c.hi)
    for i in range(lo, hi + 1):
        fi, gi = f.level(i), g.level(i)
        if not (gi * fi).is_zero_map():
            raise NotExactError(f"composite g o f is nonzero at degree {i}")
        if not is_injective(fi):
            raise NotExactError(f"first map is not injective at degree {i}")
        if not is_zero_module(cokernel(gi)):
            raise NotExactError(f"second map is not surjective at degree {i}")
        ker, incl = kernel_with_inclusion(gi)
        try:
            lift_map_through_inclusion(incl, fi)
        except NotWellDefinedError:
            raise NotExactError(
                f"kernel of the second map exceeds the image at degree {i}"
            ) from None
    con, incl_b, proj = cone_with_maps(f)
    qis_levels = {}
    for i in range(con.lo, con.hi + 1):
        mat = _assemble(
            a.nvars,
            [c.term(i).cover_twists],
            [a.term(i + 1).cover_twists, b.term(i).cover_twists],
            {(0, 1): g.level(i).matrix},
        )
        qis_levels[i] = GradedMap(con.term(i), c.term(i), mat, check=False)
    model_qis = ComplexMap(con, c, qis_levels, check=True)
    if not is_quasi_iso(model_qis):
        raise NotExactError("cone comparison with the quotient is not a quasi-isomorphism")
    return Triangle(a, b, con, f, incl_b, proj, "from_ses", model_qis)


def triangle_from_module_ses(f: GradedMap, g: GradedMap) -> Triangle:
    """Module-level short exact sequence, embedded in degree 0."""
    a = embed_object(f.source)
    b = embed_object(f.target)
    c = embed_object(g.target)
    fc = ComplexMap(a, b, {0: f}, check=False)
    gc = ComplexMap(b, c, {0: g}, check=False)
    return triangle_from_ses(fc, gc)


def rotate_triangle(t: Triangle) -> Triangle:
    """(A, B, C) becomes (B, C, A[1]) with the sign-adjusted third map."""
    return Triangle(
        a=t.b,
        b=t.c,
        c=t.delta.target,
        f=t.g,
        g=t.delta,
        delta=negate_map(shift_map(t.f, 1)),
        witness="rotated",
    )


def cone_rotation_equiv(h: ComplexMap) -> bool:
    """Certifies Con(i(h)) ~ A[1] by the standard comparison map."""
    _, incl, _ = cone_with_maps(h)
    con2, _, _ = cone_with_maps(incl)
    a1 = shift(h.source, 1)
    a, b = h.source, h.target
    levels = {}
    for i in range(con2.lo, con2.hi + 1):
        # Con(i(h))^i = B^{i+1} (+) (A^{i+1} (+) B^i); comparison sends it to -a
        target_cover = a.term(i + 1).cover_twists
        mat = _assemble(
            a.nvars,
            [target_cover],
            [b.term(i + 1).cover_twists, a.term(i + 1).cover_twists,
             b.term(i).cover_twists],
            {(0, 1): -PolyMatrix.identity(a.nvars, target_cover)},
        )
        levels[i] = GradedMap(con2.term(i), a1.term(i), mat, check=False)
    comparison = ComplexMap(con2, a1, levels, check=True)
    return is_quasi_iso(comparison)


# -- long exact sequence ranks ----------------------------------------------


def _dim_and_rank(node: GradedModule, into: GradedMap, d: int) -> tuple[int, int]:
    """(dim node_d, rank of into_d), from one window when into lands on node."""
    if into.target is node:
        return piece_dim_and_map_rank(into, d)
    return graded_piece_dim(node, d), piece_map_rank(into, d)


def triangle_les_ok(t: Triangle, piece_lo: int, piece_hi: int) -> bool:
    """Rank identities of the long exact cohomology sequence, per graded piece.

    At every cohomological index and every internal degree d in the window,
    exactness demands dim = rank(in) + rank(out) at each node; the connecting
    map is delta followed by the shift identification, which preserves ranks.

    The subquotients of A, B, C and A[1] are computed once per index i, and
    each node gets one degree-d window per (i, d):

        H^i(A)     dim_d, against the rank k_d of H^{i-1}(delta), which the
                   window of H^{i-1}(A[1]) gave at index i - 1 (0 at the
                   first index)
        H^i(B)     dim_d and k_f, the rank of H^i(f) into it
        H^i(C)     dim_d and k_g, the rank of H^i(g) into it
        H^i(A[1])  k_d, the rank of H^i(delta) into it, carried to i + 1

    (When a map's target is not the next map's source, as in a hand-built
    triangle, that node's dimension and incoming rank take two windows.)
    An empty degree window checks nothing, so piece_lo > piece_hi is a
    ShapeError.
    """
    if piece_lo > piece_hi:
        raise ShapeError(f"empty graded piece window {piece_lo}..{piece_hi}")
    lo = min(t.a.lo, t.b.lo, t.c.lo) - 1
    hi = max(t.a.hi, t.b.hi, t.c.hi) + 1
    induced = {i: _induced_maps((t.f, t.g, t.delta), i) for i in range(lo, hi + 1)}
    for d in range(piece_lo, piece_hi + 1):
        k_d_prev = 0
        for i in range(lo, hi + 1):
            rf, rg, rd = induced[i]
            da = graded_piece_dim(rf.source, d)
            db, k_f = _dim_and_rank(rg.source, rf, d)
            dc, k_g = _dim_and_rank(rd.source, rg, d)
            k_d = piece_map_rank(rd, d)
            if da != k_d_prev + k_f or db != k_f + k_g or dc != k_g + k_d:
                return False
            k_d_prev = k_d
    return True
