"""Finitely generated graded modules over Q[x0..xn], via presentations.

A GradedModule is the cokernel of a homogeneous relation matrix: the row
twists of that matrix are the degrees of the cover generators.  Everything
downstream (kernels, images, Hom, resolutions) is phrased as syzygy or
membership computations against such presentations, so the whole
layer reduces to the Groebner kernel plus exact sparse linear algebra.
GradedModule.relation_gb is the one Groebner run here; a map's cokernel
[f | target relations] is built once per map, so its basis serves the
map's kernel, the lifts through it and its surjectivity test.
Every kernel goes through one path, kernel_generators, whose syzygy run
carries the m * syz = 0 certificate.  Exactness at B of A -> B -> C is
one primitive on the same generators, kernel_in_image: every kernel
generator of g lifts through cokernel(f).  exactness_failure and the
derived layer's acyclicity test read it, and neither presents a kernel.
Dimensions, piece-map ranks and zero tests skip the Groebner kernel and
read one pruned presentation per module, GradedModule.pruned_relations:
every unit entry pivoted out once (_prune_constants), so an identity block
costs no rank in any degree.  A graded piece is the degree-d window of that
presentation, linalg.degree_window (which HomBasis, homspace.py, ranks on
its own presentations); a piece-map rank is dim N_d - dim coker(f)_d; and
M = 0 iff no cover generator survives pruning (graded Nakayama).
Direct sums, tensor products, twisted sums (+)_k N(t_k) and Hom's
composition-with-relations map are PolyMatrix.blocks, kron and dual (see
polymatrix.py for the layout); no function here computes a flattened cover
index.

Twist convention: twist(M, k) is M(k), with M(k)_d = M_{d+k}; cover degrees
drop by k.  The free rank-one module with a single generator in degree -a
models R(a).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    CertificateError,
    NotWellDefinedError,
    RingMismatchError,
    ShapeError,
)
from .groebner import (
    buchberger,
    lift_through,
    module_groebner,
    mvec_member,
    syzygy_basis,
)
from .linalg import MVec, _expand, _mvec_axpy, degree_window
from .polymatrix import PolyMatrix
from .polynomials import Polynomial, monomials_of_degree, qinv


class GradedModule:
    """Cokernel of a homogeneous relation matrix.

    cover_twists are the generator degrees; relations columns are relations
    among those generators.  Instances are immutable; the relation Groebner
    basis and the pruned relations are computed lazily and cached per
    instance.  Equality and hash are those of the relation matrix, so a
    presentation can key a run cache.
    """

    __slots__ = ("nvars", "cover_twists", "relations", "_gb", "_pruned")

    def __init__(self, relations: PolyMatrix):
        self.nvars = relations.nvars
        self.cover_twists = relations.row_twists
        self.relations = relations
        self._gb = None
        self._pruned = None

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
        """The tracked basis of the relation columns, keyed by position."""
        if self._gb is None:
            self._gb = module_groebner(list(self.relations.vecs))
        return self._gb

    def pruned_relations(self) -> PolyMatrix:
        """The relations with every unit entry pivoted out
        (_prune_constants): the same module, presented on the cover
        generators that survive, with every entry in (x0..xn)."""
        if self._pruned is None:
            self._pruned = _prune_constants(self.relations)
        return self._pruned

    def reduces_to_zero(self, vec: MVec) -> bool:
        """Membership of an ambient cover vector in the relation submodule."""
        if not vec:
            return True
        return mvec_member(vec, self.relation_gb())

    def __eq__(self, other) -> bool:
        return isinstance(other, GradedModule) and self.relations == other.relations

    def __hash__(self) -> int:
        return hash(self.relations)

    def __repr__(self):
        return (
            f"GradedModule(nvars={self.nvars}, cover={list(self.cover_twists)}, "
            f"relations={self.relations.cols})"
        )


def _outside(m: GradedModule, mat: PolyMatrix):
    """The indices of the columns of mat that are not in m's relation
    submodule, lazily, in column order."""
    for c, vec in enumerate(mat.vecs):
        if not m.reduces_to_zero(vec):
            yield c


class GradedMap:
    """Degree-0 homogeneous map between graded modules, on cover generators.

    Column c of the matrix is the image of the source's generator c.  Well-
    definedness (source relations land in the target relation submodule) is
    verified at construction unless the caller certifies it.  Its cokernel
    is built once (cokernel).
    """

    __slots__ = ("source", "target", "matrix", "_cokernel")

    def __init__(self, source: GradedModule, target: GradedModule,
                 matrix: PolyMatrix, check: bool = True):
        if source.nvars != target.nvars or matrix.nvars != source.nvars:
            raise RingMismatchError("map endpoints live over different rings")
        if matrix.row_twists != target.cover_twists:
            raise ShapeError("matrix row twists do not match target cover")
        if matrix.col_twists != source.cover_twists:
            raise ShapeError("matrix column twists do not match source cover")
        if check and source.relations.cols:
            bad = next(_outside(target, matrix * source.relations), None)
            if bad is not None:
                raise NotWellDefinedError(
                    f"image of source relation {bad} is not a target relation"
                )
        self.source = source
        self.target = target
        self.matrix = matrix
        self._cokernel = None

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
        return next(_outside(self.target, diff), None) is None

    def is_zero_map(self) -> bool:
        return next(_outside(self.target, self.matrix), None) is None

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
    return GradedModule(PolyMatrix.blocks(
        nvars,
        [m.cover_twists for m in summands],
        [m.relations.col_twists for m in summands],
        {(k, k): m.relations for k, m in enumerate(summands)},
    ))


def tensor(m: GradedModule, n: GradedModule) -> GradedModule:
    """Tensor product of presentations: cover pairs (i, j), relations
    rel_M (x) I_N | I_M (x) rel_N."""
    if m.nvars != n.nvars:
        raise RingMismatchError("tensor over mismatched rings")
    nv = m.nvars
    return GradedModule(
        m.relations.kron(PolyMatrix.identity(nv, n.cover_twists)).hstack(
            PolyMatrix.identity(nv, m.cover_twists).kron(n.relations))
    )


# -- kernel / image / cokernel ---------------------------------------------


def _syzygies(q: GradedModule) -> PolyMatrix:
    """The certified syzygies of q's relation columns, from q's basis."""
    return syzygy_basis(q.relations, q.relation_gb())


def _submodule(f: GradedMap) -> tuple[GradedModule, GradedMap]:
    """The image of f, presented on f's columns, with its inclusion into
    f's target.

    Its relations are the top block of the syzygies of cokernel(f), [f |
    target relations], which the inclusion keeps as its own cokernel; that
    block's row twists are the columns' degrees already."""
    quotient = cokernel(f)
    top = _syzygies(quotient).select_rows(range(f.matrix.cols))
    sub = GradedModule(top.select_columns(c for c, v in enumerate(top.vecs) if v))
    incl = GradedMap(sub, f.target, f.matrix, check=False)
    incl._cokernel = quotient
    return sub, incl


def kernel_generators(f: GradedMap) -> PolyMatrix:
    """Generators of ker f in the source cover: the top block of the
    syzygies of cokernel(f), less the columns that are already source
    relations (zero in the source)."""
    u = _syzygies(cokernel(f)).select_rows(range(f.source.rank))
    return u.select_columns(_outside(f.source, u))


def kernel_with_inclusion(f: GradedMap) -> tuple[GradedModule, GradedMap]:
    """Kernel of f as a module plus its inclusion into the source."""
    gens = kernel_generators(f)
    free = GradedModule.free(f.source.nvars, gens.col_twists)
    return _submodule(GradedMap(free, f.source, gens, check=False))


def kernel(f: GradedMap) -> GradedModule:
    return kernel_with_inclusion(f)[0]


def image(f: GradedMap) -> GradedModule:
    """Image of f, presented on the source generators; it reads the basis
    of cokernel(f)."""
    return _submodule(f)[0]


def cokernel(f: GradedMap) -> GradedModule:
    """coker f, presented by [f | target relations]; built once per map."""
    if f._cokernel is None:
        f._cokernel = GradedModule(f.matrix.hstack(f.target.relations))
    return f._cokernel


def cokernel_with_projection(f: GradedMap) -> tuple[GradedModule, GradedMap]:
    cok = cokernel(f)
    proj = GradedMap(
        f.target, cok, PolyMatrix.identity(f.target.nvars, f.target.cover_twists),
        check=False,
    )
    return cok, proj


def lift_map_through_inclusion(f: GradedMap, incl: GradedMap) -> GradedMap:
    """The map g with incl * g = f, for injective incl sharing f's target.

    Every column of f is solved against the relation basis of
    cokernel(incl); raises if some column of f does not factor.  A map with
    no nonzero column lifts to the zero map without any solving.
    """
    if not any(f.matrix.vecs):
        zero = PolyMatrix.zero(f.source.nvars, incl.source.cover_twists,
                               f.matrix.col_twists)
        return GradedMap(f.source, incl.source, zero, check=False)
    rank = incl.matrix.cols
    sols = lift_through(cokernel(incl).relation_gb(), f.matrix.vecs)
    out_cols: list[MVec] = []
    for c, sol in enumerate(sols):
        if sol is None:
            raise NotWellDefinedError(f"column {c} does not factor through the inclusion")
        # coordinates past the inclusion's columns weigh target relations
        out_cols.append({key: coeff for key, coeff in sol.items() if key[0] < rank})
    mat = PolyMatrix(f.source.nvars, incl.source.cover_twists,
                     f.matrix.col_twists, out_cols)
    return GradedMap(f.source, incl.source, mat, check=False)


# -- dimensions -------------------------------------------------------------


def graded_piece_dim(m: GradedModule, d: int) -> int:
    """Dimension of M_d over the rationals, by exact linear algebra.

    Size of the degree-d window of the pruned presentation minus the rank
    of its relation multiples (linalg.degree_window).  A unit pivot that
    pruning removed is an identity block in every degree: it spans the
    N(d - t) window coordinates of its generator of twist t, so those and
    its relation's multiples leave the window together.  Independent of any
    Groebner computation.
    """
    index, tracker = degree_window(m.pruned_relations(), d)
    return len(index) - tracker.rank if index else 0


def hilbert_window(m: GradedModule, lo: int, hi: int) -> list[int]:
    return [graded_piece_dim(m, d) for d in range(lo, hi + 1)]


def is_zero_module(m: GradedModule) -> bool:
    """M = 0 iff no cover generator survives pruning.  Graded Nakayama:
    every pruned relation entry lies in (x0..xn), so the surviving
    generators are a basis of M / (x0..xn)M.  No Groebner basis runs."""
    return m.pruned_relations().rows == 0


def is_injective(f: GradedMap) -> bool:
    """True iff f is injective: no kernel generator survives the
    source-relation filter (is_zero_module(kernel(f)), with no kernel
    presented)."""
    return kernel_generators(f).cols == 0


def is_iso(f: GradedMap) -> bool:
    if not is_zero_module(cokernel(f)):
        return False
    return is_injective(f)


def kernel_in_image(f: GradedMap, g: GradedMap) -> bool:
    """ker g lies in im f, for A --f--> B --g--> C: every kernel generator
    of g lifts through cokernel(f), [f | B's relations].  No kernel is
    presented; the bases run are those of cokernel(g) and cokernel(f)."""
    gens = kernel_generators(g)
    return not gens.cols or None not in lift_through(
        cokernel(f).relation_gb(), gens.vecs)


def exactness_failure(f: GradedMap, g: GradedMap) -> str | None:
    """The first reason 0 -> A --f--> B --g--> C -> 0 is not exact, or None.

    In order: g o f is zero, f is injective, g is surjective, and ker g
    lies in im f (kernel_in_image).  Only cokernel(f), cokernel(g) and C
    run a basis."""
    if not (g * f).is_zero_map():
        return "composite g o f is nonzero"
    if not is_injective(f):
        return "first map is not injective"
    if not is_zero_module(cokernel(g)):
        return "second map is not surjective"
    if not kernel_in_image(f, g):
        return "kernel of the second map exceeds the image"
    return None


# -- minimal presentations and resolutions ----------------------------------


def _pivot_on_unit(vecs: dict, r0: int, c0: int, zero_mon) -> None:
    """Pivot the columns {c: MVec} on their unit entry (r0, c0), in place:
    for every term v * x^mon of row r0 in another column, subtract
    (v / u) * x^mon * column c0, which leaves row r0 in column c0 alone;
    then drop column c0.  On a differential this is the Schur complement
    of the unit."""
    col0 = vecs.pop(c0)
    inv = qinv(col0[(r0, zero_mon)])
    for vec in vecs.values():
        for mon, v in [(mon, v) for (r, mon), v in vec.items() if r == r0]:
            _mvec_axpy(vec, -v * inv, mon, col0)


def _prune_constants(rel: PolyMatrix) -> PolyMatrix:
    """Eliminate unit entries by column operations.

    Each nonzero constant entry (r0, c0) says generator r0 is expressible in
    the others: _pivot_on_unit clears that row from every other column, and
    row r0 and column c0 drop out.  Pivots are taken least (row, column)
    first, and the surviving rows keep their order.  The result presents an
    isomorphic module with no unit entries; with no unit to begin with, it
    is rel itself.
    """
    zero_mon = (0,) * rel.nvars

    def units(columns):
        return [(r, c) for c, vec in columns for r, mon in vec
                if mon == zero_mon]

    found = units(enumerate(rel.vecs))
    if not found:
        return rel
    vecs = {c: dict(vec) for c, vec in enumerate(rel.vecs)}
    dead_rows: set[int] = set()
    while found:
        r0, c0 = min(found)
        _pivot_on_unit(vecs, r0, c0, zero_mon)
        dead_rows.add(r0)
        found = units(vecs.items())
    rows = [r for r in range(rel.rows) if r not in dead_rows]
    row_pos = {r: k for k, r in enumerate(rows)}
    return PolyMatrix(
        rel.nvars,
        [rel.row_twists[r] for r in rows],
        [rel.col_twists[c] for c in vecs],
        [{(row_pos[r], mon): v for (r, mon), v in vec.items()}
         for vec in vecs.values()],
    )


def _minimal_columns(m: PolyMatrix) -> PolyMatrix:
    """Greedy minimal generating subset of the columns, in column order.

    Columns are taken in (degree, index) order, and one is kept exactly when
    it does not lie in the submodule generated by the columns kept before
    it; for homogeneous input this yields a minimal generating set.  The test
    needs no Groebner basis: the input is homogeneous, so a degree-s column
    lies in that submodule iff it lies in the submodule's degree-s piece,
    the span of the linalg.degree_window of the columns kept so far.  The
    degree-s columns are inserted into that window in index order, and a
    column is kept when it adds a pivot.
    """
    kept: list[int] = []
    zero_mon = (0,) * m.nvars
    for s in sorted(set(m.col_twists)):
        index, tracker = degree_window(m.select_columns(kept), s)
        for c, t in enumerate(m.col_twists):
            if t != s:
                continue
            vec = _expand(m.vecs[c], zero_mon, index)
            if vec and tracker.insert(vec) is None:
                kept.append(c)
    kept.sort()
    return m.select_columns(kept)


def minimal_presentation(m: GradedModule) -> GradedModule:
    return GradedModule(_minimal_columns(m.pruned_relations()))


class Resolution(NamedTuple):
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
        current = _minimal_columns(_syzygies(GradedModule(current)))
    for a, b in zip(steps, steps[1:]):
        if not (a * b).is_zero:
            raise CertificateError("resolution steps do not compose to zero")
    return Resolution(start.cover_twists, tuple(steps))


# -- Hom --------------------------------------------------------------------


def _direct_sum_of_twists(n: GradedModule, twists) -> GradedModule:
    """(+)_k N(t_k), presented as I(-t) (x) rel_N."""
    return GradedModule(
        PolyMatrix.identity(n.nvars, [-t for t in twists]).kron(n.relations)
    )


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
    phi = GradedMap(
        big0,
        big1,
        m.relations.dual().kron(PolyMatrix.identity(m.nvars, n.cover_twists)),
        check=False,
    )
    return kernel_with_inclusion(phi)


# -- truncation -------------------------------------------------------------


def truncate_module(m: GradedModule, floor: int) -> tuple[GradedModule, GradedMap]:
    """Submodule generated by all elements of degree >= floor, with inclusion."""
    nv = m.nvars
    # generator i times each monomial that lifts it to degree max(t_i, floor)
    parts = {}
    for i, t in enumerate(m.cover_twists):
        mons = monomials_of_degree(nv, max(floor - t, 0))
        parts[(i, i)] = PolyMatrix(nv, (t,), (max(t, floor),) * len(mons),
                                   [{(0, mon): 1} for mon in mons])
    gens = PolyMatrix.blocks(nv, [b.row_twists for b in parts.values()],
                             [b.col_twists for b in parts.values()], parts)
    return _submodule(GradedMap(GradedModule.free(nv, gens.col_twists), m,
                                gens, check=False))


def piece_dim_and_map_rank(f: GradedMap, d: int) -> tuple[int, int]:
    """(dim N_d, rank of the induced map M_d -> N_d), for f: M -> N.

    The image of M_d is what cokernel(f) = [f | N's relations] divides out
    of N_d, so the rank is dim N_d - dim coker(f)_d: two graded pieces, each
    read on its module's pruned presentation (graded_piece_dim), where a
    unit entry of f, an identity block say, costs no rank.
    """
    dim = graded_piece_dim(f.target, d)
    return dim, dim - graded_piece_dim(cokernel(f), d)


def piece_map_rank(f: GradedMap, d: int) -> int:
    """Rank of the induced linear map M_d -> N_d over the rationals."""
    return piece_dim_and_map_rank(f, d)[1]


# -- annihilator ------------------------------------------------------------


def annihilator(m: GradedModule) -> list[Polynomial]:
    """Reduced Groebner basis of {f in R : f * M = 0}."""
    nv = m.nvars
    if m.rank == 0:
        return [Polynomial.one(nv)]
    # R -> (+)_i M(t_i), 1 |-> (e_0, ..., e_{rank-1})
    big = _direct_sum_of_twists(m, m.cover_twists)
    ident = PolyMatrix.identity(nv, m.cover_twists)
    parts = {(i, 0): ident.twist_all(t).select_columns([i])
             for i, t in enumerate(m.cover_twists)}
    col = PolyMatrix.blocks(nv, [b.row_twists for b in parts.values()],
                            [(0,)], parts)
    f = GradedMap(GradedModule.free(nv, (0,)), big, col, check=False)
    gens = kernel_generators(f)
    return buchberger([gens.entry(0, c) for c in range(gens.cols)])
