"""Finitely generated graded modules over Q[x0..xn], via presentations.

A GradedModule is the cokernel of a homogeneous relation matrix: the row
twists of that matrix are the degrees of the cover generators.  Everything
downstream (kernels, images, Hom, resolutions, saturation) is phrased as
syzygy or membership computations against such presentations, so the whole
layer reduces to the Groebner kernel plus exact sparse linear algebra.
Graded pieces and piece-map ranks skip the Groebner kernel: they rank the
degree-d window of a presentation, linalg.degree_window, which HomBasis
(homspace.py) ranks too.

Twist convention: twist(M, k) is M(k), with M(k)_d = M_{d+k}; cover degrees
drop by k.  The free rank-one module with a single generator in degree -a
models R(a).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NotWellDefinedError,
    RingMismatchError,
    SaturationCapError,
    ShapeError,
)
from .groebner import (
    GREVLEX,
    MVec,
    buchberger,
    lift_through,
    module_groebner,
    mvec_axpy,
    mvec_from_polys,
    mvec_member,
    mvec_to_polys,
    syzygy_basis,
    syzygy_module,
)
from .linalg import _column_terms, _expand, degree_window
from .polymatrix import PolyMatrix
from .polynomials import Polynomial, monomials_of_degree, qinv

SATURATION_CAP = 40


class GradedModule:
    """Cokernel of a homogeneous relation matrix.

    cover_twists are the generator degrees; relations columns are relations
    among those generators.  Instances are immutable; the relation Groebner
    basis is computed lazily and cached per instance.  Equality and hash are
    those of the relation matrix, so a presentation can key a run cache.
    """

    __slots__ = ("nvars", "cover_twists", "relations", "_gb")

    def __init__(self, relations: PolyMatrix):
        self.nvars = relations.nvars
        self.cover_twists = relations.row_twists
        self.relations = relations
        self._gb = None

    @classmethod
    def free(cls, nvars: int, twists) -> "GradedModule":
        return cls(PolyMatrix.zero(nvars, tuple(twists), ()))

    @classmethod
    def zero(cls, nvars: int) -> "GradedModule":
        return cls.free(nvars, ())

    @property
    def rank(self) -> int:
        return len(self.cover_twists)

    def relation_gb(self):
        if self._gb is None:
            gens = [
                mvec_from_polys(self.relations.column(c))
                for c in range(self.relations.cols)
            ]
            self._gb = module_groebner([g for g in gens if g])
        return self._gb

    def reduces_to_zero(self, vec: MVec) -> bool:
        """Membership of an ambient cover vector in the relation submodule."""
        if not vec:
            return True
        return mvec_member(vec, self.relation_gb())

    def element_degree(self, polys) -> int | None:
        """Common degree of a homogeneous cover vector, None if zero."""
        deg = None
        for r, p in enumerate(polys):
            if p.is_zero:
                continue
            d = p.homogeneous_degree() + self.cover_twists[r]
            if deg is None:
                deg = d
            elif deg != d:
                raise ShapeError("inhomogeneous element")
        return deg

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedModule) and self.relations == other.relations

    def __hash__(self) -> int:
        return hash(self.relations)

    def __repr__(self):
        return (
            f"GradedModule(nvars={self.nvars}, cover={list(self.cover_twists)}, "
            f"relations={self.relations.cols})"
        )


class GradedMap:
    """Degree-0 homogeneous map between graded modules, on cover generators.

    Column c of the matrix is the image of the source's generator c.  Well-
    definedness (source relations land in the target relation submodule) is
    verified at construction unless the caller certifies it.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: GradedModule, target: GradedModule,
                 matrix: PolyMatrix, check: bool = True):
        if source.nvars != target.nvars or matrix.nvars != source.nvars:
            raise RingMismatchError("map endpoints live over different rings")
        if matrix.row_twists != target.cover_twists:
            raise ShapeError("matrix row twists do not match target cover")
        if matrix.col_twists != source.cover_twists:
            raise ShapeError("matrix column twists do not match source cover")
        if check and source.relations.cols:
            moved = matrix * source.relations
            for c in range(moved.cols):
                vec = mvec_from_polys(moved.column(c))
                if not target.reduces_to_zero(vec):
                    raise NotWellDefinedError(
                        f"image of source relation {c} is not a target relation"
                    )
        self.source = source
        self.target = target
        self.matrix = matrix

    @classmethod
    def identity(cls, m: GradedModule) -> "GradedMap":
        return cls(m, m, PolyMatrix.identity(m.nvars, m.cover_twists), check=False)

    @classmethod
    def zero_map(cls, source: GradedModule, target: GradedModule) -> "GradedMap":
        z = PolyMatrix.zero(source.nvars, target.cover_twists, source.cover_twists)
        return cls(source, target, z, check=False)

    def __mul__(self, other: "GradedMap") -> "GradedMap":
        """Composition self after other."""
        if other.target is not self.source and other.target.cover_twists != self.source.cover_twists:
            raise ShapeError("composition endpoint mismatch")
        return GradedMap(other.source, self.target, self.matrix * other.matrix,
                         check=False)

    def __add__(self, other: "GradedMap") -> "GradedMap":
        return GradedMap(self.source, self.target, self.matrix + other.matrix,
                         check=False)

    def __sub__(self, other: "GradedMap") -> "GradedMap":
        return GradedMap(self.source, self.target, self.matrix - other.matrix,
                         check=False)

    def __neg__(self) -> "GradedMap":
        return GradedMap(self.source, self.target, -self.matrix, check=False)

    def scale(self, c) -> "GradedMap":
        return GradedMap(self.source, self.target, self.matrix.scale(c), check=False)

    def equals(self, other: "GradedMap") -> bool:
        """Equality as module maps: the difference lands in target relations."""
        if self.matrix.col_twists != other.matrix.col_twists:
            return False
        if self.matrix.row_twists != other.matrix.row_twists:
            return False
        diff = self.matrix - other.matrix
        return all(
            self.target.reduces_to_zero(mvec_from_polys(diff.column(c)))
            for c in range(diff.cols)
        )

    def is_zero_map(self) -> bool:
        return all(
            self.target.reduces_to_zero(mvec_from_polys(self.matrix.column(c)))
            for c in range(self.matrix.cols)
        )

    def __repr__(self):
        return f"GradedMap({self.source!r} -> {self.target!r})"


# -- elementary constructions ----------------------------------------------


def twist(m: GradedModule, k: int) -> GradedModule:
    """M(k): degrees shift so that twist(M, k)_d = M_{d+k}."""
    return GradedModule(m.relations.twist_all(k))


def twist_map(f: GradedMap, k: int) -> GradedMap:
    return GradedMap(
        twist(f.source, k), twist(f.target, k), f.matrix.twist_all(k), check=False
    )


def direct_sum(*summands: GradedModule) -> GradedModule:
    if not summands:
        raise ShapeError("empty direct sum needs an ambient ring")
    nvars = summands[0].nvars
    for m in summands:
        if m.nvars != nvars:
            raise RingMismatchError("direct sum over mismatched rings")
    return GradedModule(
        PolyMatrix.block_diag(nvars, [m.relations for m in summands])
    )


def tensor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Tensor product of presentations: cover pairs (i, j), relations from
    each factor against the other's cover."""
    if m.nvars != n.nvars:
        raise RingMismatchError("tensor over mismatched rings")
    nv = m.nvars
    z = Polynomial.zero(nv)
    cover = [ti + uj for ti in m.cover_twists for uj in n.cover_twists]
    nrank = n.rank
    columns: list[list[Polynomial]] = []
    col_twists: list[int] = []
    relm = m.relations
    for c in range(relm.cols):
        for j in range(nrank):
            col = [z] * len(cover)
            for r in range(relm.rows):
                p = relm.entries[r][c]
                if not p.is_zero:
                    col[r * nrank + j] = p
            columns.append(col)
            col_twists.append(relm.col_twists[c] + n.cover_twists[j])
    reln = n.relations
    for i in range(m.rank):
        for c in range(reln.cols):
            col = [z] * len(cover)
            for r in range(reln.rows):
                p = reln.entries[r][c]
                if not p.is_zero:
                    col[i * nrank + r] = p
            columns.append(col)
            col_twists.append(m.cover_twists[i] + reln.col_twists[c])
    rel = PolyMatrix.from_columns(nv, cover, columns, col_twists)
    return GradedModule(rel)


# -- kernel / image / cokernel ---------------------------------------------


def _nonzero_columns(m: PolyMatrix) -> PolyMatrix:
    keep = [c for c in range(m.cols) if any(not p.is_zero for p in m.column(c))]
    return m.select_columns(keep)


def _submodule_presentation(gens: PolyMatrix, ambient: GradedModule) -> PolyMatrix:
    """Relations among the columns of gens, viewed inside ambient."""
    syz = syzygy_basis(gens.hstack(ambient.relations))
    top = syz.select_rows(range(gens.cols))
    return _nonzero_columns(top)


def _kernel_generators(f: GradedMap) -> PolyMatrix:
    """Generators of ker f in the source cover: the top block of the
    syzygies of [f | target relations], less the columns that are already
    source relations (zero in the source)."""
    src = f.source
    syz = syzygy_basis(f.matrix.hstack(f.target.relations))
    u = syz.select_rows(range(src.rank))
    keep = [
        c
        for c in range(u.cols)
        if not src.reduces_to_zero(mvec_from_polys(u.column(c)))
    ]
    return u.select_columns(keep)


def kernel_with_inclusion(f: GradedMap) -> tuple[GradedModule, GradedMap]:
    """Kernel of f as a module plus its inclusion into the source."""
    src = f.source
    u = _kernel_generators(f)
    k_rel = _submodule_presentation(u, src)
    ker = GradedModule(PolyMatrix(src.nvars, u.col_twists, k_rel.col_twists,
                                  k_rel.entries))
    incl = GradedMap(ker, src, u, check=False)
    return ker, incl


def kernel(f: GradedMap) -> GradedModule:
    return kernel_with_inclusion(f)[0]


def image(f: GradedMap) -> GradedModule:
    """Image of f, presented on the source generators."""
    syz = syzygy_basis(f.matrix.hstack(f.target.relations))
    u = _nonzero_columns(syz.select_rows(range(f.source.rank)))
    return GradedModule(
        PolyMatrix(f.source.nvars, f.source.cover_twists, u.col_twists, u.entries)
    )


def cokernel(f: GradedMap) -> GradedModule:
    return GradedModule(f.matrix.hstack(f.target.relations))


def cokernel_with_projection(f: GradedMap) -> tuple[GradedModule, GradedMap]:
    cok = cokernel(f)
    proj = GradedMap(
        f.target, cok, PolyMatrix.identity(f.target.nvars, f.target.cover_twists),
        check=False,
    )
    return cok, proj


def lift_map_through_inclusion(f: GradedMap, incl: GradedMap) -> GradedMap:
    """The map g with incl * g = f, for injective incl sharing f's target.

    Solved column by column against [incl.matrix | target.relations]; raises
    if some column of f does not factor.
    """
    tgt = f.target
    cols = [
        mvec_from_polys(incl.matrix.column(c)) for c in range(incl.matrix.cols)
    ] + [mvec_from_polys(tgt.relations.column(c)) for c in range(tgt.relations.cols)]
    nv = f.source.nvars
    out_cols: list[list[Polynomial]] = []
    for c in range(f.matrix.cols):
        target_vec = mvec_from_polys(f.matrix.column(c))
        sol = lift_through(cols, target_vec)
        if sol is None:
            raise NotWellDefinedError(f"column {c} does not factor through the inclusion")
        buckets: list[dict] = [{} for _ in range(incl.matrix.cols)]
        for (k, mon), coeff in sol.items():
            if k < incl.matrix.cols:
                buckets[k][mon] = coeff
        out_cols.append([Polynomial(nv, b) for b in buckets])
    mat = PolyMatrix.from_columns(
        nv, incl.source.cover_twists, out_cols, f.matrix.col_twists
    )
    return GradedMap(f.source, incl.source, mat, check=False)


# -- dimensions -------------------------------------------------------------


def graded_piece_dim(m: GradedModule, d: int) -> int:
    """Dimension of M_d over the rationals, by exact linear algebra.

    Size of the degree-d window of the cover minus the rank of the relation
    multiples in it (linalg.degree_window).  Independent of any Groebner
    computation.
    """
    index, tracker = degree_window(m.relations, d)
    return len(index) - tracker.rank if index else 0


def hilbert_window(m: GradedModule, lo: int, hi: int) -> list[int]:
    return [graded_piece_dim(m, d) for d in range(lo, hi + 1)]


def is_zero_module(m: GradedModule) -> bool:
    if m.rank == 0:
        return True
    zero_mon = (0,) * m.nvars
    return all(
        m.reduces_to_zero({(i, zero_mon): 1}) for i in range(m.rank)
    )


def is_injective(f: GradedMap) -> bool:
    """True iff f is injective: no kernel generator survives the
    source-relation filter.

    The answer of is_zero_module(kernel(f)), since a surviving generator is
    a nonzero element of the source and so of the kernel, without
    presenting the kernel: no second syzygy run for its relations and no
    Groebner basis of them."""
    return _kernel_generators(f).cols == 0


def is_iso(f: GradedMap) -> bool:
    if not is_zero_module(cokernel(f)):
        return False
    return is_injective(f)


# -- minimal presentations and resolutions ----------------------------------


def _prune_constants(rel: PolyMatrix) -> PolyMatrix:
    """Eliminate unit entries by row/column reduction.

    Each nonzero constant entry (r, c) says generator r is expressible in the
    others; substituting removes row r and column c.  The result presents an
    isomorphic module with no unit entries.
    """
    entries = {
        (r, c): rel.entries[r][c]
        for r in range(rel.rows)
        for c in range(rel.cols)
        if not rel.entries[r][c].is_zero
    }
    live_rows = set(range(rel.rows))
    live_cols = set(range(rel.cols))
    while True:
        pivot = None
        for (r, c) in sorted(entries):
            p = entries[(r, c)]
            if p.homogeneous_degree() == 0:
                pivot = (r, c)
                break
        if pivot is None:
            break
        r0, c0 = pivot
        u = entries[(r0, c0)].coefficient((0,) * rel.nvars)
        col0 = {r: entries[(r, c0)] for r in live_rows if (r, c0) in entries}
        for c in sorted(live_cols):
            if c == c0 or (r0, c) not in entries:
                continue
            factor = entries[(r0, c)].scale(qinv(u))
            for r, p in col0.items():
                if r == r0:
                    continue
                key = (r, c)
                cur = entries.get(key, Polynomial.zero(rel.nvars))
                new = cur - factor * p
                if new.is_zero:
                    entries.pop(key, None)
                else:
                    entries[key] = new
            entries.pop((r0, c), None)
        for r in list(col0):
            entries.pop((r, c0), None)
        live_rows.discard(r0)
        live_cols.discard(c0)
    rows = sorted(live_rows)
    cols = sorted(live_cols)
    z = Polynomial.zero(rel.nvars)
    grid = [[entries.get((r, c), z) for c in cols] for r in rows]
    return PolyMatrix(
        rel.nvars,
        [rel.row_twists[r] for r in rows],
        [rel.col_twists[c] for c in cols],
        grid,
    )


def _minimal_columns(m: PolyMatrix, ambient_rel: PolyMatrix | None = None) -> PolyMatrix:
    """Greedy minimal generating subset of the columns, ascending by degree.

    A column is dropped when it already lies in the submodule generated by
    the kept ones (plus ambient relations, when given); for homogeneous input
    processed in degree order this yields a minimal generating set.
    """
    ambient = (
        [mvec_from_polys(ambient_rel.column(c)) for c in range(ambient_rel.cols)]
        if ambient_rel is not None
        else []
    )
    ambient = [v for v in ambient if v]
    order = sorted(range(m.cols), key=lambda c: (m.col_twists[c], c))
    kept: list[int] = []
    kept_vecs = list(ambient)
    gb = module_groebner(kept_vecs) if kept_vecs else []
    for c in order:
        vec = mvec_from_polys(m.column(c))
        if not vec:
            continue
        if gb and mvec_member(vec, gb):
            continue
        kept.append(c)
        kept_vecs.append(vec)
        gb = module_groebner(kept_vecs)
    kept.sort()
    return m.select_columns(kept)


def minimal_presentation(m: GradedModule) -> GradedModule:
    pruned = _prune_constants(m.relations)
    slim = _minimal_columns(pruned)
    return GradedModule(
        PolyMatrix(m.nvars, pruned.row_twists, slim.col_twists, slim.entries)
    )


@dataclass(frozen=True)
class Resolution:
    """Minimal free resolution: steps[k] maps F_{k+1} onto the syzygies of
    steps[k-1] (steps[0] presents the module on base_twists)."""

    base_twists: tuple
    steps: tuple

    @property
    def length(self) -> int:
        return len(self.steps)

    def betti(self, i: int) -> int:
        if i == 0:
            return len(self.base_twists)
        if i <= len(self.steps):
            return self.steps[i - 1].cols
        return 0


def free_resolution(m: GradedModule, max_len: int | None = None) -> Resolution:
    """Minimal free resolution by iterated syzygy computation.

    Terminates in at most nvars steps (Hilbert bound over a polynomial ring);
    if max_len is given, exceeding it raises ShapeError.
    """
    start = minimal_presentation(m)
    steps: list[PolyMatrix] = []
    current = start.relations
    while current.cols > 0:
        steps.append(current)
        cap = max_len if max_len is not None else m.nvars
        if len(steps) > cap:
            raise ShapeError(
                f"resolution exceeded the length bound {cap}"
            )
        current = _minimal_columns(syzygy_basis(current))
    for a, b in zip(steps, steps[1:]):
        if not (a * b).is_zero:
            raise AssertionError("resolution steps do not compose to zero")
    return Resolution(start.cover_twists, tuple(steps))


# -- Hom --------------------------------------------------------------------


def _direct_sum_of_twists(n: GradedModule, twists) -> GradedModule:
    if not twists:
        return GradedModule.zero(n.nvars)
    return direct_sum(*[twist(n, t) for t in twists])


def hom_module(m: GradedModule, n: GradedModule) -> GradedModule:
    return hom_module_with_inclusion(m, n)[0]


def hom_module_with_inclusion(
    m: GradedModule, n: GradedModule
) -> tuple[GradedModule, GradedMap]:
    """Graded Hom(M, N) with its inclusion into Hom(cover M, N).

    Hom(M, N) is the kernel of composition-with-relations,
    Hom(F0, N) -> Hom(F1, N); an element of degree d over cover gen (i, r)
    is the coefficient of N's generator r in the image of M's generator i.
    """
    if m.nvars != n.nvars:
        raise RingMismatchError("hom over mismatched rings")
    big0 = _direct_sum_of_twists(n, m.cover_twists)
    if m.relations.cols == 0 or n.rank == 0:
        return big0, GradedMap.identity(big0)
    big1 = _direct_sum_of_twists(n, m.relations.col_twists)
    z = Polynomial.zero(m.nvars)
    nrank = n.rank
    entries = [[z] * big0.rank for _ in range(big1.rank)]
    relm = m.relations
    for j in range(relm.cols):
        for i in range(relm.rows):
            p = relm.entries[i][j]
            if p.is_zero:
                continue
            for r in range(nrank):
                entries[j * nrank + r][i * nrank + r] = p
    phi = GradedMap(
        big0,
        big1,
        PolyMatrix(m.nvars, big1.cover_twists, big0.cover_twists, entries),
        check=False,
    )
    return kernel_with_inclusion(phi)


# -- truncation and saturation ----------------------------------------------


def truncate_module(m: GradedModule, floor: int) -> tuple[GradedModule, GradedMap]:
    """Submodule generated by all elements of degree >= floor, with inclusion."""
    nv = m.nvars
    z = Polynomial.zero(nv)
    columns: list[list[Polynomial]] = []
    col_twists: list[int] = []
    for i, t in enumerate(m.cover_twists):
        if t >= floor:
            col = [z] * m.rank
            col[i] = Polynomial.one(nv)
            columns.append(col)
            col_twists.append(t)
        else:
            for mon in monomials_of_degree(nv, floor - t):
                col = [z] * m.rank
                col[i] = Polynomial.monomial(nv, mon)
                columns.append(col)
                col_twists.append(floor)
    gens = PolyMatrix.from_columns(nv, m.cover_twists, columns, col_twists)
    rel = _submodule_presentation(gens, m)
    sub = GradedModule(PolyMatrix(nv, gens.col_twists, rel.col_twists, rel.entries))
    incl = GradedMap(sub, m, gens, check=False)
    return sub, incl


def _intersect_submodules(a: list[MVec], b: list[MVec], nvars: int) -> list[MVec]:
    """Generators of span(a) intersect span(b) inside the common ambient."""
    syz = syzygy_module(a + b, nvars)
    out: list[MVec] = []
    for s in syz:
        v: MVec = {}
        for (k, mon), c in s.items():
            if k < len(a):
                mvec_axpy(v, c, mon, a[k])
        if v:
            out.append(v)
    return out


def torsion_free_quotient(m: GradedModule) -> GradedModule:
    """Quotient by the irrelevant-ideal torsion submodule.

    Iterates relations := (relations : (x0..xn)) until stable; the colon is
    the intersection over the variables, each computed by a syzygy run.
    """
    nv = m.nvars
    current = [
        mvec_from_polys(m.relations.column(c)) for c in range((m.relations).cols)
    ]
    current = [v for v in current if v]
    for _ in range(SATURATION_CAP):
        gb = module_groebner(current) if current else []
        colon: list[MVec] | None = None
        for var in range(nv):
            e = tuple(1 if k == var else 0 for k in range(nv))
            shifted: list[MVec] = []
            for i in range(m.rank):
                shifted.append({(i, e): 1})
            # (S : x_var) = top block of syzygies of [x_var * I | S]
            syz = syzygy_module(shifted + current, nv)
            part: list[MVec] = []
            for s in syz:
                v: MVec = {key: c for key, c in s.items() if key[0] < m.rank}
                if v:
                    part.append(v)
            colon = part if colon is None else _intersect_submodules(colon, part, nv)
        new = [v for v in (colon or []) if not (gb and mvec_member(v, gb))]
        if not new:
            rel_cols = sorted(
                current,
                key=lambda v: sorted(v),
            )
            return _module_from_vec_relations(m, rel_cols)
        current = current + new
    raise SaturationCapError(
        f"torsion removal did not stabilize within {SATURATION_CAP} rounds"
    )


def _module_from_vec_relations(m: GradedModule, vecs: list[MVec]) -> GradedModule:
    nv = m.nvars
    columns = []
    twists = []
    for v in vecs:
        polys = mvec_to_polys(v, m.rank, nv)
        deg = m.element_degree(polys)
        if deg is None:
            continue
        columns.append(polys)
        twists.append(deg)
    order = sorted(range(len(columns)), key=lambda i: (twists[i], i))
    rel = PolyMatrix.from_columns(
        nv,
        m.cover_twists,
        [columns[i] for i in order],
        [twists[i] for i in order],
    )
    return GradedModule(rel)


def _irrelevant_ideal_module(nvars: int) -> GradedModule:
    """(x0..xn) as a module: covers in degree 1, Koszul relations."""
    one_row = PolyMatrix.from_columns(
        nvars,
        (0,),
        [[Polynomial.variable(nvars, i)] for i in range(nvars)],
        [1] * nvars,
    )
    koszul = syzygy_basis(one_row)
    return GradedModule(
        PolyMatrix(nvars, (1,) * nvars, koszul.col_twists, koszul.entries)
    )


def saturation_floor(m: GradedModule) -> int:
    return min([0] + [t for t in m.cover_twists])


def saturate(m: GradedModule, floor: int | None = None) -> GradedModule:
    """Saturation with respect to the irrelevant ideal, truncated at floor.

    Torsion is removed by iterated colon; sections are extended by iterating
    the natural map M -> Hom((x0..xn), M) until it is an isomorphism.  The
    result agrees with the full saturation in all degrees >= floor (default:
    min(0, cover degrees)); point-supported sheaves have sections in every
    low degree, so some floor is forced on any finitely generated answer.
    """
    if floor is None:
        floor = saturation_floor(m)
    current = minimal_presentation(torsion_free_quotient(m))
    if is_zero_module(current):
        return GradedModule.zero(m.nvars)
    ideal = _irrelevant_ideal_module(m.nvars)
    for _ in range(SATURATION_CAP):
        hom, incl = hom_module_with_inclusion(ideal, current)
        # natural map m |-> (x_i m)_i into Hom(cover of ideal, current)
        big0 = incl.target
        z = Polynomial.zero(m.nvars)
        entries = [[z] * current.rank for _ in range(big0.rank)]
        for i in range(m.nvars):
            xi = Polynomial.variable(m.nvars, i)
            for r in range(current.rank):
                entries[i * current.rank + r][r] = xi
        into_big = GradedMap(
            current,
            big0,
            PolyMatrix(m.nvars, big0.cover_twists, current.cover_twists, entries),
            check=False,
        )
        nat = lift_map_through_inclusion(into_big, incl)
        trunc, tr_incl = truncate_module(hom, floor)
        nat_t = lift_map_through_inclusion(nat, tr_incl)
        if is_iso(nat_t):
            return current
        current = minimal_presentation(trunc)
    raise SaturationCapError(
        f"section extension did not stabilize within {SATURATION_CAP} rounds"
    )


def piece_dim_and_map_rank(f: GradedMap, d: int) -> tuple[int, int]:
    """(dim N_d, rank of the induced map M_d -> N_d), for f: M -> N, from
    one degree-d window of N.

    The window's size less the rank of its relation multiples is dim N_d
    (graded_piece_dim); the map's columns times monomials then join the
    relation multiples, and the rank they add is the map's rank.
    """
    index, tracker = degree_window(f.target.relations, d)
    if not index:
        return 0, 0
    base = tracker.rank
    mat = f.matrix
    for c, tc in enumerate(mat.col_twists):
        if d - tc < 0:
            continue
        terms = _column_terms(mat.column(c))
        if not terms:
            continue
        for mult in monomials_of_degree(f.target.nvars, d - tc):
            tracker.insert(_expand(terms, mult, index))
    return len(index) - base, tracker.rank - base


def piece_map_rank(f: GradedMap, d: int) -> int:
    """Rank of the induced linear map M_d -> N_d over the rationals."""
    return piece_dim_and_map_rank(f, d)[1]


# -- annihilator ------------------------------------------------------------


def annihilator(m: GradedModule) -> list[Polynomial]:
    """Reduced Groebner basis of {f in R : f * M = 0}."""
    nv = m.nvars
    if m.rank == 0:
        return [Polynomial.one(nv)]
    big = _direct_sum_of_twists(m, m.cover_twists)
    z = Polynomial.zero(nv)
    one = Polynomial.one(nv)
    col = [z] * big.rank
    for i in range(m.rank):
        col[i * m.rank + i] = one
    r1 = GradedModule.free(nv, (0,))
    f = GradedMap(
        r1,
        big,
        PolyMatrix.from_columns(nv, big.cover_twists, [col], [0]),
        check=False,
    )
    _, incl = kernel_with_inclusion(f)
    gens = [incl.matrix.entry(0, c) for c in range(incl.matrix.cols)]
    return buchberger(gens)
