"""Bounded complexes of graded modules and the derived-category toolbox.

Complexes carry an explicit window [lo, hi]; terms outside it are zero
modules and differentials outside it are zero maps, so window arithmetic
stays total.  Sign conventions, fixed once:

    shift:  A[k]^i = A^{i+k},   d_{A[k]} = (-1)^k d_A^{i+k}
    cone:   Con(h)^i = A^{i+1} (+) B^i,  d = [[-d_A, 0], [h, d_B]]
    Hom:    (d g)^p = d_C o g^p + (-1)^{m+1} g^{p+1} o d_B  on Hom^m

The derived layer certifies with two primitives and presents no
cohomology.  is_acyclic first splits off the trivial summands R(-t) --u-->
R(-t) of free generators by Gaussian elimination (_split_trivial, a
homotopy equivalence checked by d o d = 0), then asks
modules.kernel_in_image at every nonzero term left; h is a
quasi-isomorphism iff Con(h) is acyclic, so for r * id on a complex of
free modules no Groebner basis runs.  The rest are window ranks over a
range of internal degrees: a graded piece is exact, so dim H^i(c)_d =
dim C^i_d - rank d^{i-1}_d - rank d^i_d (cohomology_piece_dim), and for
h: A -> B

    rank H^i(h)_d = rank D_d - rank (d_A^i)_d - rank (d_B^{i-1})_d,

D: Con(h)^{i-1} -> Con(h)^i.  Proof: im D = {(-d_A a, h a + d_B b)}
projects onto im d_A^i with kernel 0 (+) (h(Z^i_A) + B^i_B), whose
quotient by B^i_B is the image of H^i(h).  A map's rank in degree d is
dim N_d - dim coker_d, so every number is a difference of Hilbert windows
(modules.hilbert_window), which _WindowRanks reads once per pruned
presentation over the whole degree range lo..hi and keeps as int lists.
triangle_les_ok reads only these lists, one index i at a time.  D's
target window is the sum of the windows of A^{i+1} and B^i, and its
cokernel is presented in one block matrix [D | Con(h)^i's relations], so
the check builds no cone term; _cone_blocks writes the cone's signs for it
and for cone().
triangle_from_ses asks modules.exactness_failure once per degree: for
chain maps A --f--> B --g--> C exact in every degree, the map
Con(f) -> C that is g on B is a quasi-isomorphism by the mapping-cone
lemma (Weibel, An Introduction to Homological Algebra, 1.5), so it is not
built.  Cone differentials and the inclusion, projection and rotation
comparison maps are PolyMatrix.blocks over the summands' twist groups; so
is each Hom-complex differential, over the coordinate groups
Hom(B^i, C^{i+m}) of its source and target.  rhom_complex is the one
builder of Hom(F_., N) for a free resolution F_. of M: its cohomology is
Ext^k_R(M, N), and its graded pieces are window ranks (_WindowRanks),
which is how projective applies local duality.  This layer sits below
projective and never imports it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    CertificateError,
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
    _direct_sum_of_twists,
    _pivot_on_unit,
    cokernel,
    direct_sum,
    exactness_failure,
    free_resolution,
    hilbert_window,
    kernel_in_image,
    kernel_with_inclusion,
    lift_map_through_inclusion,
)
from .polymatrix import PolyMatrix


class BoundedComplex:
    """Complex of graded modules supported on [lo, hi], differentials rising.
    Outside it, term i is one zero module and each zero differential
    (0 -> C^lo, C^hi -> 0, 0 -> 0) is built at most once."""

    __slots__ = ("nvars", "lo", "hi", "_terms", "_diffs", "_zero", "_edges")

    def __init__(self, nvars: int, lo: int, terms, diffs, check: bool = True):
        self.nvars = nvars
        self.lo = lo
        self._zero = GradedModule.zero(nvars)
        self._edges: dict = {}
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
        return self._zero

    def diff(self, i: int) -> GradedMap:
        if self.lo <= i < self.hi:
            return self._diffs[i - self.lo]
        key = i if i in (self.lo - 1, self.hi) else None
        if key not in self._edges:
            self._edges[key] = GradedMap.zero_map(self.term(i), self.term(i + 1))
        return self._edges[key]

    def is_complex(self) -> bool:
        return all(
            (self._diffs[k + 1] * self._diffs[k]).is_zero_map()
            for k in range(len(self._diffs) - 1)
        )

    def window(self):
        return range(self.lo, self.hi + 1)

    def __repr__(self):
        return f"BoundedComplex[{self.lo}..{self.hi}]"


def embed_object(m: GradedModule, at: int = 0) -> BoundedComplex:
    return BoundedComplex(m.nvars, at, [m], [])


class ComplexMap:
    """Map of complexes; levels commute with the differentials.  A level
    not given is a zero map, built at most once per degree (per map, one
    for all degrees outside both windows); _levels holds only the given
    ones."""

    __slots__ = ("source", "target", "_levels", "_zeros")

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
        self._zeros: dict = {}
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
        a, b = self.source, self.target
        key = i if a.lo <= i <= a.hi or b.lo <= i <= b.hi else None
        if key not in self._zeros:
            self._zeros[key] = GradedMap.zero_map(a.term(i), b.term(i))
        return self._zeros[key]

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


# -- cone -------------------------------------------------------------------


def _cone_blocks(h: ComplexMap, i: int) -> dict:
    """The blocks of d^i of Con(h), [[-d_A^{i+1}, 0], [h^{i+1}, d_B^i]],
    over the summands (A^{i+2}, B^{i+1}) x (A^{i+1}, B^i): the one place
    the cone's signs are written."""
    a, b = h.source, h.target
    return {(0, 0): -a.diff(i + 1).matrix, (1, 0): h.level(i + 1).matrix,
            (1, 1): b.diff(i).matrix}


def cone(h: ComplexMap) -> BoundedComplex:
    """Con(h), with Con(h)^i = A^{i+1} (+) B^i, checked to square to zero."""
    a, b = h.source, h.target
    lo = min(a.lo - 1, b.lo)
    hi = max(a.hi - 1, b.hi)
    terms = [direct_sum(a.term(i + 1), b.term(i)) for i in range(lo, hi + 1)]
    diffs = [GradedMap(terms[i - lo], terms[i + 1 - lo], PolyMatrix.blocks(
        a.nvars, [a.term(i + 2).cover_twists, b.term(i + 1).cover_twists],
        [a.term(i + 1).cover_twists, b.term(i).cover_twists],
        _cone_blocks(h, i)), check=False) for i in range(lo, hi)]
    return BoundedComplex(a.nvars, lo, terms, diffs, check=True)


def cone_with_maps(h: ComplexMap):
    """Con(h) together with the inclusion of B and the projection to A[1]."""
    a, b = h.source, h.target
    nv = a.nvars
    con = cone(h)

    incl_levels = {}
    for i in range(b.lo, b.hi + 1):
        mat = PolyMatrix.blocks(
            nv,
            [a.term(i + 1).cover_twists, b.term(i).cover_twists],
            [b.term(i).cover_twists],
            {(1, 0): PolyMatrix.identity(nv, b.term(i).cover_twists)},
        )
        incl_levels[i] = GradedMap(b.term(i), con.term(i), mat, check=False)
    incl = ComplexMap(b, con, incl_levels, check=True)

    a1 = shift(a, 1)
    proj_levels = {}
    for i in con.window():
        mat = PolyMatrix.blocks(
            nv,
            [a.term(i + 1).cover_twists],
            [a.term(i + 1).cover_twists, b.term(i).cover_twists],
            {(0, 0): PolyMatrix.identity(nv, a.term(i + 1).cover_twists)},
        )
        proj_levels[i] = GradedMap(con.term(i), a1.term(i), mat, check=False)
    proj = ComplexMap(con, a1, proj_levels, check=True)
    return con, incl, proj


# -- cohomology -------------------------------------------------------------


def cohomology(c: BoundedComplex, i: int) -> GradedModule:
    """H^i(c), presented on the cycles: the kernel of d^i with the lifted
    boundaries appended to its relations.  No certificate reads it."""
    if i < c.lo or i > c.hi:
        return c.term(i)
    ker, incl = kernel_with_inclusion(c.diff(i))
    rel = ker.relations
    if i > c.lo:
        rel = rel.hstack(lift_map_through_inclusion(c.diff(i - 1), incl).matrix)
    return GradedModule(rel)


def cohomology_piece_dim(c: BoundedComplex, i: int, d: int) -> int:
    """dim H^i(c)_d = dim C^i_d - rank d^{i-1}_d - rank d^i_d.

    Taking a graded piece is exact, so H^i(c)_d is the cohomology of the
    complex of vector spaces C^._d, and rank-nullity reads it off the
    degree-d windows of C^i (which also ranks d^{i-1}) and C^{i+1}, with no
    kernel presented."""
    return _WindowRanks(d, d).h_dims(c, i)[0]


def _split_trivial(c: BoundedComplex) -> BoundedComplex:
    """c less its trivial summands R(-t) --u--> R(-t), by Gaussian
    elimination.

    A unit entry u of d^i, from a generator e of C^i to a generator g of
    C^{i+1}, is pivoted out when neither generator appears in a relation of
    its module, so each spans a free summand: d^i becomes its Schur
    complement (modules._pivot_on_unit), d^{i-1} loses row e and d^{i+1}
    column g.  The result is homotopy equivalent to c (the Gaussian
    elimination lemma), so it has the same cohomology.  Units are taken
    least (i, g, e) first until none is left; the reduced complex is checked
    to square to zero, which certifies the elimination.  A complex with no
    such unit is returned as it is.
    """
    zero_mon = (0,) * c.nvars
    terms = [c.term(i) for i in c.window()]
    alive = [list(range(t.rank)) for t in terms]
    # the generators of each term that appear in no relation of it
    free = [set(range(t.rank)) - {r for vec in t.relations.vecs for r, _ in vec}
            for t in terms]
    diffs = [{e: dict(vec) for e, vec in enumerate(c.diff(i).matrix.vecs)}
             for i in c.window()[:-1]]
    while True:
        units = [(k, g, e) for k, vecs in enumerate(diffs)
                 for e, vec in vecs.items() if e in free[k]
                 for g, mon in vec if mon == zero_mon and g in free[k + 1]]
        if not units:
            break
        k, g, e = min(units)
        _pivot_on_unit(diffs[k], g, e, zero_mon)
        if k > 0:
            for vec in diffs[k - 1].values():
                for key in [key for key in vec if key[0] == e]:
                    del vec[key]
        if k + 1 < len(diffs):
            del diffs[k + 1][g]
        alive[k].remove(e)
        alive[k + 1].remove(g)
        free[k].discard(e)
        free[k + 1].discard(g)
    if all(len(rows) == t.rank for t, rows in zip(terms, alive)):
        return c
    reduced = [t if len(rows) == t.rank
               else GradedModule(t.relations.select_rows(rows))
               for t, rows in zip(terms, alive)]
    maps = []
    for k, vecs in enumerate(diffs):
        src, tgt = reduced[k], reduced[k + 1]
        pos = {g: j for j, g in enumerate(alive[k + 1])}
        cols = [{(pos[g], mon): v for (g, mon), v in vecs[e].items()}
                for e in alive[k]]
        maps.append(GradedMap(src, tgt, PolyMatrix(
            c.nvars, tgt.cover_twists, src.cover_twists, cols), check=False))
    return BoundedComplex(c.nvars, c.lo, reduced, maps, check=True)


def is_acyclic(c: BoundedComplex) -> bool:
    """Exact at every term.  The trivial summands split off first
    (_split_trivial); then ker d^i lies in im d^{i-1}
    (modules.kernel_in_image) at every nonzero term of what is left."""
    r = _split_trivial(c)
    return all(kernel_in_image(r.diff(i - 1), r.diff(i))
               for i in r.window() if r.term(i).rank)


def is_quasi_iso(h: ComplexMap) -> bool:
    """h is a quasi-isomorphism iff its cone is acyclic."""
    return is_acyclic(cone(h))


# -- Hom complex ------------------------------------------------------------


class HomComplexReport(NamedTuple):
    """Dimension table of the Hom complex, optionally with differentials.

    dims[m - lo] is the total dimension of the degree-m term; blocks lists
    the nonzero (source-degree, dimension) contributions.  With the
    module-hom oracle (no hom_dim), Hom^m has one coordinate group per
    nonzero block, in the order of `blocks`, and differentials[m - lo] is
    d: Hom^m -> Hom^{m+1} as a PolyMatrix.blocks matrix over those groups,
    with constant entries and twists 0; dd_zero certifies d o d = 0.
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


def _coordinate_block(basis: HomBasis, images, sign: int) -> PolyMatrix:
    """The constant block whose columns are sign times the coordinates of
    the image matrices in basis."""
    nv = basis.nvars
    one = (0,) * nv
    cols = []
    for image in images:
        coords = basis.coordinates(image)
        if coords is None:
            raise CertificateError("Hom differential left the solution span")
        cols.append({(r, one): sign * v for r, v in enumerate(coords) if v})
    return PolyMatrix(nv, (0,) * basis.dim, (0,) * len(cols), cols)


def hom_complex(b: BoundedComplex, c: BoundedComplex, hom_dim=None) -> HomComplexReport:
    """Hom complex of two bounded complexes.

    hom_dim: optional callable (M, N) -> dimension of the Hom space; when
    omitted, degree-0 module homs are used and the differential matrices are
    built so d o d = 0 can be certified.
    """
    lo = c.lo - b.hi
    hi = c.hi - b.lo
    dims = []
    blocks = []
    bases: dict = {}  # (i, m) -> HomBasis of Hom(B^i, C^{i+m}), nonzero only
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
                d = basis.dim
                if d:
                    bases[(i, m)] = basis
            total += d
            if d:
                row.append((i, d))
        dims.append(total)
        blocks.append(tuple(row))
    report_dims = tuple(dims)
    zero = all(d == 0 for d in report_dims)
    if hom_dim is not None:
        return HomComplexReport(lo, hi, report_dims, tuple(blocks), zero)

    groups = [[(0,) * d for _, d in row] for row in blocks]
    differentials = []
    for m in range(lo, hi):
        target = {i: g for g, (i, _) in enumerate(blocks[m + 1 - lo])}
        sign = -1 if (m + 1) % 2 else 1
        parts = {}
        for g, (i, _) in enumerate(blocks[m - lo]):
            gens = bases[(i, m)].matrices()
            # group i: post-compose with the target differential
            if i in target:
                post = c.diff(i + m).matrix
                parts[(target[i], g)] = _coordinate_block(
                    bases[(i, m + 1)], (post * h for h in gens), 1)
            # group i-1: pre-compose with the source differential
            if i - 1 in target:
                pre = b.diff(i - 1).matrix
                parts[(target[i - 1], g)] = _coordinate_block(
                    bases[(i - 1, m + 1)], (h * pre for h in gens), sign)
        differentials.append(PolyMatrix.blocks(
            b.nvars, groups[m + 1 - lo], groups[m - lo], parts))
    dd = all((d1 * d0).is_zero
             for d0, d1 in zip(differentials, differentials[1:]))
    return HomComplexReport(
        lo, hi, report_dims, tuple(blocks), zero, tuple(differentials), dd
    )


# -- RHom -------------------------------------------------------------------


def rhom_complex(m: GradedModule, n: GradedModule) -> BoundedComplex:
    """Hom(F_., N) for the minimal free resolution F_. of m, in degrees
    0..length, so its cohomology is Ext^k_R(M, N) and
    cohomology_piece_dim(c, k, e) is dim Ext^k_R(M, N)_e.

    Term k is (+)_t N(t) over F_k's twists and d^k is step_k dual (x) I_N,
    the map hom_module builds for one step; d o d = 0 is certified.
    """
    res = free_resolution(m)
    twists = [res.base_twists] + [step.col_twists for step in res.steps]
    terms = [_direct_sum_of_twists(n, t) for t in twists]
    ident = PolyMatrix.identity(n.nvars, n.cover_twists)
    diffs = [GradedMap(terms[k], terms[k + 1], step.dual().kron(ident),
                       check=False)
             for k, step in enumerate(res.steps)]
    return BoundedComplex(n.nvars, 0, terms, diffs, check=True)


# -- triangles --------------------------------------------------------------


class Triangle(NamedTuple):
    """Distinguished triangle a -> b -> c -> a[1] with explicit maps.

    For from_ses triangles c is the cone of the inclusion, which the cone
    lemma makes quasi-isomorphic to the declared quotient.
    """

    a: BoundedComplex
    b: BoundedComplex
    c: BoundedComplex
    f: ComplexMap
    g: ComplexMap
    delta: ComplexMap
    witness: str


def triangle_from_cone(h: ComplexMap) -> Triangle:
    con, incl, proj = cone_with_maps(h)
    return Triangle(h.source, h.target, con, h, incl, proj, "from_cone")


def triangle_from_ses(f: ComplexMap, g: ComplexMap) -> Triangle:
    """Triangle of a termwise short exact sequence 0 -> A -> B -> C -> 0.

    Exactness is certified degree by degree (modules.exactness_failure),
    and the cone of the inclusion stands in for the quotient: g is a chain
    map by its own ComplexMap check, as f is, so Con(f) -> C is a
    quasi-isomorphism by the mapping-cone lemma (module docstring).
    """
    a, b, c = f.source, f.target, g.target
    if g.source is not b:
        raise ShapeError("the two maps do not share the middle complex")
    for i in range(min(a.lo, b.lo, c.lo), max(a.hi, b.hi, c.hi) + 1):
        why = exactness_failure(f.level(i), g.level(i))
        if why is not None:
            raise NotExactError(f"{why} at degree {i}")
    con, incl_b, proj = cone_with_maps(f)
    return Triangle(a, b, con, f, incl_b, proj, "from_ses")


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
        mat = PolyMatrix.blocks(
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


class _WindowRanks:
    """Window ranks over the internal degrees lo..hi, each list computed
    once per instance: (dims C^i_d, ranks d^{i-1}_d) per (complex, i) and
    rank H^i(h)_d per (map, i), the latter by the cone formula (module
    docstring) from the ranks of D: Con(h)^{i-1} -> Con(h)^i.  A map's
    ranks are its target's Hilbert window minus its cokernel's.  For D the
    target's window is the sum of the kept windows of A^{i+1} and B^i, and
    its cokernel is one block matrix, so no cone term is built.  Complexes
    and maps key by identity; each Hilbert window keys on the module's
    pruned presentation, so equal presentations built apart (zero modules,
    cokernels) are ranked once.  Only int lists are kept, and only for the
    life of the instance."""

    __slots__ = ("lo", "hi", "_windows", "_pieces", "_ranks")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi
        self._windows: dict = {}
        self._pieces: dict = {}
        self._ranks: dict = {}

    def _window(self, m: GradedModule) -> list[int]:
        key = m.pruned_relations()
        got = self._windows.get(key)
        if got is None:
            got = self._windows[key] = hilbert_window(m, self.lo, self.hi)
        return got

    def _map_ranks(self, f: GradedMap) -> tuple[list[int], list[int]]:
        """(dims N_d, ranks M_d -> N_d) over the window, for f: M -> N."""
        dims = self._window(f.target)
        return dims, [n - q for n, q in zip(dims, self._window(cokernel(f)))]

    def _piece(self, c: BoundedComplex, i: int) -> tuple[list[int], list[int]]:
        got = self._pieces.get((c, i))
        if got is None:
            if c.lo <= i <= c.hi:
                got = self._map_ranks(c.diff(i - 1))
            else:
                zeros = [0] * (self.hi - self.lo + 1)
                got = zeros, zeros
            self._pieces[(c, i)] = got
        return got

    def h_dims(self, c: BoundedComplex, i: int) -> list[int]:
        """dim H^i(c)_d = dim C^i_d - rank d^{i-1}_d - rank d^i_d."""
        dims, incoming = self._piece(c, i)
        outgoing = self._piece(c, i + 1)[1]
        return [n - a - b for n, a, b in zip(dims, incoming, outgoing)]

    def h_ranks(self, h: ComplexMap, i: int) -> list[int]:
        """rank H^i(h)_d, by the cone formula (module docstring)."""
        got = self._ranks.get((h, i))
        if got is None:
            a, b = h.source, h.target
            dims_a, rank_a = self._piece(a, i + 1)
            dims_b, rank_b = self._piece(b, i)
            # coker D = Con(h)^i / im D, presented by [D | its relations]
            rel_a, rel_b = a.term(i + 1).relations, b.term(i).relations
            parts = _cone_blocks(h, i - 1)
            parts[(0, 2)] = rel_a
            parts[(1, 3)] = rel_b
            coker = GradedModule(PolyMatrix.blocks(
                a.nvars, [rel_a.row_twists, rel_b.row_twists],
                [a.term(i).cover_twists, b.term(i - 1).cover_twists,
                 rel_a.col_twists, rel_b.col_twists], parts))
            got = self._ranks[(h, i)] = [
                na + nb - q - ra - rb for na, nb, q, ra, rb in zip(
                    dims_a, dims_b, self._window(coker), rank_a, rank_b)]
        return got


def triangle_les_ok(t: Triangle, piece_lo: int, piece_hi: int) -> bool:
    """Rank identities of the long exact cohomology sequence, per graded piece.

    At every cohomological index and every internal degree d in the window,
    exactness demands dim = rank(in) + rank(out) at each node; the connecting
    map is delta followed by the shift identification, which preserves ranks.
    Every number is a window rank of one _WindowRanks over the whole degree
    window, so no Groebner basis runs, and each index i compares its three
    identities as lists over the degrees.  An empty degree window checks
    nothing, so piece_lo > piece_hi is a ShapeError.
    """
    if piece_lo > piece_hi:
        raise ShapeError(f"empty graded piece window {piece_lo}..{piece_hi}")
    lo = min(t.a.lo, t.b.lo, t.c.lo) - 1
    hi = max(t.a.hi, t.b.hi, t.c.hi) + 1
    w = _WindowRanks(piece_lo, piece_hi)
    for i in range(lo, hi + 1):
        for dim_a, dim_b, dim_c, k_in, k_f, k_g, k_d in zip(
                w.h_dims(t.f.source, i), w.h_dims(t.g.source, i),
                w.h_dims(t.delta.source, i), w.h_ranks(t.delta, i - 1),
                w.h_ranks(t.f, i), w.h_ranks(t.g, i), w.h_ranks(t.delta, i)):
            if (dim_a != k_in + k_f or dim_b != k_f + k_g
                    or dim_c != k_g + k_d):
                return False
    return True
