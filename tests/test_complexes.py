"""Bounded complexes: shift, cone, cohomology, Hom complexes, triangles."""

import random
from fractions import Fraction

import pytest

from branegauge import complexes, groebner, modules
from branegauge.complexes import (
    BoundedComplex,
    ComplexMap,
    _WindowRanks,
    cohomology,
    cohomology_piece_dim,
    cone,
    cone_rotation_equiv,
    cone_with_maps,
    embed_object,
    hom_complex,
    is_acyclic,
    is_quasi_iso,
    rhom_complex,
    rotate_triangle,
    shift,
    triangle_from_cone,
    triangle_from_module_ses,
    triangle_from_ses,
    triangle_les_ok,
)
from branegauge.errors import (
    NotAComplexError,
    NotExactError,
    ShapeError,
    ZeroDivisorError,
)
from branegauge.linalg import sparse_rank
from branegauge.modules import (
    GradedMap,
    GradedModule,
    cokernel_with_projection,
    exactness_failure,
    graded_piece_dim,
    hilbert_window,
    hom_module,
    is_injective,
    is_zero_module,
    piece_map_rank,
    twist,
)
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial, parse_polynomial
from branegauge.projective import (
    ProjectiveSpace,
    cotangent_sheaf,
    generator,
    hyperplane_ses,
)

from _oracles import (
    bott_omega1_h,
    kernel_in_image_acyclic,
    random_homogeneous,
    ses_comparison_map,
    stabilized_cech_dim,
    subquotient_induced_map,
    subquotient_quasi_iso,
)


NV = 2


def _free(*twists):
    return GradedModule.free(NV, twists)


def _mat(row_twists, col_twists, entries):
    cols = [[parse_polynomial(e, NV) if isinstance(e, str)
             else Polynomial.constant(NV, Fraction(e)) if e
             else Polynomial.zero(NV)
             for e in col] for col in entries]
    return PolyMatrix.from_columns(NV, tuple(row_twists), cols,
                                   list(col_twists))


def _koszul_complex():
    """0 -> R(-2) -> R(-1)^2 -> R -> 0 for the ideal (x0, x1), degrees -2..0."""
    f2 = _free(2)
    f1 = _free(1, 1)
    f0 = _free(0)
    d1 = GradedMap(f1, f0, _mat((0,), (1, 1), [["x0"], ["x1"]]))
    d2 = GradedMap(f2, f1, _mat((1, 1), (2,), [["x1", "-x0"]]))
    return BoundedComplex(NV, -2, [f2, f1, f0], [d2, d1])


def _two_term(p: str, a: int = 0):
    """R(-a-d) --p--> R(-a) in degrees -1, 0."""
    poly = parse_polynomial(p, NV)
    d = poly.homogeneous_degree()
    src = _free(a + d)
    tgt = _free(a)
    return BoundedComplex(
        NV, -1, [src, tgt],
        [GradedMap(src, tgt, _mat((a,), (a + d,), [[p]]))])


def test_complex_validation_rejects_bad_square():
    f = _free(0)
    m2 = twist(f, -2)
    m3 = twist(m2, -1)
    d = GradedMap(m2, f, _mat((0,), (2,), [["x0^2"]]))
    e = GradedMap(m3, m2, _mat((2,), (3,), [["x1"]]))
    with pytest.raises(NotAComplexError):
        BoundedComplex(NV, 0, [m3, m2, f], [e, d])


def test_shift_moves_terms_and_negates_differential():
    c = _koszul_complex()
    s = shift(c, 1)
    assert s.lo == c.lo - 1 and s.hi == c.hi - 1
    for i in s.window():
        assert s.term(i) is c.term(i + 1)
    for i in range(s.lo, s.hi):
        assert s.diff(i).matrix == -c.diff(i + 1).matrix


def test_shift_cohomology_relabels_degrees():
    c = _koszul_complex()
    for k in (-2, 1, 3):
        s = shift(c, k)
        for i in range(c.lo - 3, c.hi + 3):
            a = cohomology(s, i)
            b = cohomology(c, i + k)
            assert hilbert_window(a, 0, 3) == hilbert_window(b, 0, 3)


def test_koszul_complex_resolves_skyscraper():
    c = _koszul_complex()
    assert is_zero_module(cohomology(c, -2))
    assert is_zero_module(cohomology(c, -1))
    h0 = cohomology(c, 0)
    assert hilbert_window(h0, 0, 2) == [1, 0, 0]


def test_cone_of_identity_is_acyclic():
    for cplx in (_koszul_complex(), _two_term("x0^2"), embed_object(_free(0, 1))):
        con = cone(ComplexMap.identity(cplx))
        assert is_acyclic(con)


def test_cone_with_maps_gives_short_exact_levels():
    h = ComplexMap.identity(_two_term("x1"))
    con, incl, proj = cone_with_maps(h)
    # level dims add up: Con^i = A^{i+1} (+) B^i, proj lands in A[1]
    for i in con.window():
        assert graded_piece_dim(con.term(i), 2) == (
            graded_piece_dim(incl.source.term(i), 2)
            + graded_piece_dim(proj.target.term(i), 2))


def test_cone_is_the_complex_of_cone_with_maps():
    src = embed_object(_free(1))
    tgt = embed_object(_free(0))
    maps = [
        ComplexMap.identity(_koszul_complex()),
        ComplexMap.zero(_two_term("x0"), _two_term("x0^2", 1)),
        ComplexMap(src, tgt, {0: GradedMap(
            src.term(0), tgt.term(0), _mat((0,), (1,), [["x1"]]))}),
    ]
    for h in maps:
        con, with_maps = cone(h), cone_with_maps(h)[0]
        assert con.window() == with_maps.window()
        for i in con.window():
            assert con.term(i) == with_maps.term(i)
        for i in range(con.lo, con.hi):
            assert con.diff(i).matrix == with_maps.diff(i).matrix


def test_cone_multiplication_map_measures_cokernel():
    # cone of x0^2: R(-2) -> R has H^0 = R/(x0^2) and H^{-1} = 0
    c = _two_term("x0^2")
    h = ComplexMap.identity(c)
    # simpler: build the map complex directly as a cone of a module map
    src = embed_object(_free(2))
    tgt = embed_object(_free(0))
    f = ComplexMap(src, tgt, {0: GradedMap(
        src.term(0), tgt.term(0), _mat((0,), (2,), [["x0^2"]]))})
    con = cone(f)
    assert is_zero_module(cohomology(con, -1))
    assert hilbert_window(cohomology(con, 0), 0, 3) == [1, 2, 2, 2]


def test_quasi_iso_detects_resolution():
    # Koszul complex maps quasi-isomorphically onto the skyscraper in degree 0
    c = _koszul_complex()
    sky = GradedModule(PolyMatrix.from_columns(
        NV, (0,), [[Polynomial.variable(NV, 0)], [Polynomial.variable(NV, 1)]],
        [1, 1]))
    t = embed_object(sky)
    proj = GradedMap(c.term(0), sky,
                     PolyMatrix.identity(NV, (0,)), check=False)
    h = ComplexMap(c, t, {0: proj})
    assert is_quasi_iso(h)
    # but the identity of the Koszul complex onto itself shifted is not
    assert not is_quasi_iso(ComplexMap.zero(c, c))


def test_each_missing_level_is_built_once_per_map(monkeypatch):
    a, b = _koszul_complex(), _two_term("x0")
    for c in (a, b):
        for i in range(-4, 3):
            c.diff(i)  # the complexes' own zero edges, built beforehand
    calls = []
    real = GradedMap.zero_map.__func__
    monkeypatch.setattr(GradedMap, "zero_map", classmethod(
        lambda cls, s, t: calls.append((s, t)) or real(cls, s, t)))
    h = ComplexMap(a, b, {}, check=True)
    # the commuting check reads degrees -3..1: one zero level for each of
    # -2, -1, 0 and one for every degree outside both windows
    assert len(calls) == 4
    levels = [h.level(i) for i in range(-6, 4)]
    cone(h)
    assert len(calls) == 4
    assert all(h.level(i) is f for i, f in zip(range(-6, 4), levels))
    assert all(f.is_zero_map() for f in levels)
    assert h._levels == {}


def test_cone_rotation_equiv_on_sample_maps():
    maps = [
        ComplexMap.identity(_koszul_complex()),
        ComplexMap.zero(_two_term("x0"), _two_term("x0")),
    ]
    src = embed_object(_free(1))
    tgt = embed_object(_free(0))
    maps.append(ComplexMap(src, tgt, {0: GradedMap(
        src.term(0), tgt.term(0), _mat((0,), (1,), [["x1"]]))}))
    for h in maps:
        assert cone_rotation_equiv(h)


def test_hom_complex_dims_with_module_oracle():
    k = _koszul_complex()
    rep = hom_complex(k, k)
    # degree 0 contains at least the identity; d(identity) = 0
    assert rep.dim(0) >= 1
    assert rep.dd_zero is True
    # Hom into a shift concentrates dimensions one step over
    rep1 = hom_complex(k, shift(k, 1))
    for m in range(rep.lo, rep.hi + 1):
        assert rep1.dim(m - 1) == rep.dim(m)


def test_hom_complex_of_koszul_complex_is_ext_of_the_point():
    """Hom(K, K) for the Koszul resolution K of R/(x0, x1) computes
    Ext(k, k)_0: Q in degree 0 and nothing else.  The differentials are
    constant block matrices over Hom^m's coordinate groups."""
    k = _koszul_complex()
    rep = hom_complex(k, k)
    for d in rep.differentials:
        assert set(d.row_twists + d.col_twists) <= {0}
    ranks = [sparse_rank({r: v for (r, _), v in vec.items()} for vec in d.vecs)
             for d in rep.differentials]
    assert rep.dims == (0, 0, 6, 8, 3)
    assert ranks == [0, 0, 5, 3]

    def rank(m):
        return ranks[m - rep.lo] if rep.lo <= m < rep.hi else 0

    assert [rep.dim(m) - rank(m) - rank(m - 1)
            for m in range(rep.lo, rep.hi + 1)] == [0, 0, 1, 0, 0]
    assert rep.dd_zero is True


def test_hom_complex_of_disjoint_twists_is_zero():
    a = embed_object(_free(0))     # R
    b = embed_object(_free(-1))    # R(1)
    # maps R(1) -> R of degree 0 would need a degree -1 form: none
    assert hom_complex(b, a).is_zero
    # the other direction is multiplication by a linear form, dim 2
    rep = hom_complex(a, b)
    assert not rep.is_zero
    assert rep.dim(0) == 2


def test_triangle_from_cone_les():
    src = embed_object(_free(1))
    tgt = embed_object(_free(0))
    h = ComplexMap(src, tgt, {0: GradedMap(
        src.term(0), tgt.term(0), _mat((0,), (1,), [["x0"]]))})
    t = triangle_from_cone(h)
    assert triangle_les_ok(t, -1, 4)


def _assert_same_complex(x, y):
    assert (x.lo, x.hi) == (y.lo, y.hi)
    for i in x.window():
        assert x.term(i) == y.term(i)
    for i in range(x.lo, x.hi):
        assert x.diff(i).matrix == y.diff(i).matrix


def test_rotate_triangle_three_times_is_the_shift():
    # rotating (A, B, C, f, g, delta) three times gives
    # (A[1], B[1], C[1], -f[1], -g[1], -delta[1])
    t = triangle_from_cone(ComplexMap.identity(_two_term("x1")))
    r = rotate_triangle(rotate_triangle(rotate_triangle(t)))
    for got, want in ((r.a, t.a), (r.b, t.b), (r.c, t.c)):
        _assert_same_complex(got, shift(want, 1))
    for got, want in ((r.f, t.f), (r.g, t.g), (r.delta, t.delta)):
        lo = min(got.source.lo, got.target.lo) - 1
        hi = max(got.source.hi, got.target.hi) + 1
        for i in range(lo, hi + 1):
            assert got.level(i).matrix == -want.level(i + 1).matrix


def test_triangle_from_module_ses_hyperplane():
    # 0 -> R(-1) --x0--> R -> R/x0 -> 0
    src = _free(1)
    tgt = _free(0)
    f = GradedMap(src, tgt, _mat((0,), (1,), [["x0"]]))
    q, proj = cokernel_with_projection(f)
    t = triangle_from_module_ses(f, proj)
    assert t.witness == "from_ses"
    assert triangle_les_ok(t, -1, 4)
    # H^0 of the cone part matches the quotient
    hq = cohomology(t.c, 0)
    assert hilbert_window(hq, 0, 3) == hilbert_window(q, 0, 3)


def _hyperplane_ses_triangle():
    """0 -> R(-1) --x0--> R -> R/x0 -> 0 as a triangle."""
    f = GradedMap(_free(1), _free(0), _mat((0,), (1,), [["x0"]]))
    _, proj = cokernel_with_projection(f)
    return triangle_from_module_ses(f, proj)


def test_les_fails_when_g_is_replaced_by_zero():
    t = _hyperplane_ses_triangle()
    broken = t._replace(g=ComplexMap.zero(t.b, t.c))
    assert not triangle_les_ok(broken, -1, 4)


def test_les_fails_when_delta_of_a_zero_map_cone_is_zero():
    # the cone of the zero map R(-1) -> R; with delta zero, H(R(-1)) at the
    # node a has no incoming rank to balance its dimension
    src = embed_object(_free(1))
    tgt = embed_object(_free(0))
    t = triangle_from_cone(ComplexMap.zero(src, tgt))
    assert triangle_les_ok(t, -1, 4)
    broken = t._replace(delta=ComplexMap.zero(t.c, t.delta.target))
    assert not triangle_les_ok(broken, -1, 4)


def test_les_of_a_rotated_triangle():
    # rotation makes a fresh A[1]: delta's source is not g's target complex
    t = _hyperplane_ses_triangle()
    r = rotate_triangle(t)
    assert r.delta.source is not r.g.target
    assert triangle_les_ok(r, -1, 4)


def test_les_rejects_an_empty_degree_window():
    t = _hyperplane_ses_triangle()
    with pytest.raises(ShapeError):
        triangle_les_ok(t, 1, -1)
    assert triangle_les_ok(t, 0, 0)


def test_triangle_from_ses_rejects_non_exact():
    src = embed_object(_free(1))
    tgt = embed_object(_free(0))
    f = ComplexMap(src, tgt, {0: GradedMap(
        src.term(0), tgt.term(0), _mat((0,), (1,), [["x0"]]))})
    # projecting onto the full target is not exact: x0 is not surjective
    g = ComplexMap.identity(tgt)
    with pytest.raises(Exception):
        triangle_from_ses(f, g)


def _failing_sequences():
    """One module sequence A --f--> B --g--> C per reason it is not short
    exact, each failing only the check that names it."""
    zero = GradedModule.zero(NV)
    x0 = GradedMap(_free(1), _free(0), _mat((0,), (1,), [["x0"]]))
    _, proj = cokernel_with_projection(x0)
    ident = GradedMap.identity(_free(0))
    return {
        # the identity twice: g o f is the identity
        "composite g o f is nonzero": (ident, ident),
        # the zero map R(-1) -> R, then the identity
        "first map is not injective":
            (GradedMap.zero_map(_free(1), _free(0)), ident),
        # 0 -> R(-1) --x0--> R: x0 misses the constants
        "second map is not surjective":
            (GradedMap.zero_map(zero, _free(1)), x0),
        # 0 -> R -> R/x0: the kernel x0 R is not the image 0
        "kernel of the second map exceeds the image":
            (GradedMap.zero_map(zero, _free(0)), proj),
    }


@pytest.mark.parametrize("why", sorted(_failing_sequences()))
def test_triangle_from_ses_names_the_failing_check(why):
    f, g = _failing_sequences()[why]
    with pytest.raises(NotExactError) as e:
        triangle_from_module_ses(f, g)
    assert str(e.value) == f"{why} at degree 0"


def test_cohomology_subquotient_outside_window_is_zero():
    c = _koszul_complex()
    assert is_zero_module(cohomology(c, 5))


def test_outside_the_window_each_zero_object_is_built_once():
    c = _koszul_complex()
    assert c.term(c.hi + 1) is c.term(c.lo - 3)
    assert cohomology(c, 5) is c.term(5)
    for i in (c.lo - 2, c.lo - 1, c.hi, c.hi + 1):
        assert c.diff(i) is c.diff(i)
        assert c.diff(i).source is c.term(i)
        assert c.diff(i).target is c.term(i + 1)
    assert c.diff(c.lo - 2) is c.diff(c.hi + 1)
    assert c.diff(c.lo - 1) is not c.diff(c.hi)


def _seeded_two_term(rng):
    """F1 -> F0 on P^2 in degrees -1, 0: one or two summands each, random
    homogeneous entries (some zero), so the map may or may not be injective."""
    nv = 3
    t0 = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 2)))
    t1 = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
    cols = [[random_homogeneous(rng, nv, c - r) if c >= r and rng.random() < 0.8
             else Polynomial.zero(nv) for r in t0] for c in t1]
    src, tgt = GradedModule.free(nv, t1), GradedModule.free(nv, t0)
    f = GradedMap(src, tgt, PolyMatrix.from_columns(nv, t0, cols, list(t1)))
    return BoundedComplex(nv, -1, [src, tgt], [f])


def _scaled_identity(c, r):
    return ComplexMap(c, c, {i: GradedMap(c.term(i), c.term(i),
                                          PolyMatrix.identity(
                                              c.nvars, c.term(i).cover_twists
                                          ).scale(r))
                             for i in c.window()})


def test_cohomology_piece_dim_is_the_graded_piece_of_cohomology():
    rng = random.Random(11)
    complexes = [_seeded_two_term(rng) for _ in range(6)]
    src, tgt = embed_object(_free(2)), embed_object(_free(0))
    x0_squared = ComplexMap(src, tgt, {0: GradedMap(
        src.term(0), tgt.term(0), _mat((0,), (2,), [["x0^2"]]))})
    cones = [cone(x0_squared), cone(ComplexMap.identity(_koszul_complex()))]
    for c in complexes[:3]:
        cones += [cone(ComplexMap.zero(c, c)), cone(_scaled_identity(c, -2))]
    nonzero = 0
    for c in [_koszul_complex()] + complexes + cones:
        for i in range(c.lo - 1, c.hi + 2):
            h = cohomology(c, i)
            for d in range(-1, 4):
                got = cohomology_piece_dim(c, i, d)
                assert got == graded_piece_dim(h, d), (c, i, d)
                nonzero += got > 0
    assert nonzero > 20


# -- one Groebner basis per generator list ------------------------------------


def _groebner_runs(monkeypatch):
    """Record the non-empty generator lists of every module_groebner run,
    under both names it is called by."""
    runs = []
    real = groebner.module_groebner

    def recording(gens):
        if any(gens):
            runs.append(tuple(tuple(sorted(g.items())) for g in gens))
        return real(gens)

    monkeypatch.setattr(groebner, "module_groebner", recording)
    monkeypatch.setattr(modules, "module_groebner", recording)
    return runs


def test_exactness_failure_runs_each_list_once(monkeypatch):
    # 0 -> R(-1) --x0--> R --> R/(x0) -> 0 on P^2
    nv = 3
    a, b = GradedModule.free(nv, (1,)), GradedModule.free(nv, (0,))
    f = GradedMap(a, b, PolyMatrix(nv, (0,), (1,), [{(0, (1, 0, 0)): 1}]))
    _, proj = cokernel_with_projection(f)
    runs = _groebner_runs(monkeypatch)
    assert exactness_failure(f, proj) is None
    assert runs and len(runs) == len(set(runs))


def test_subquotient_and_induced_map_share_one_basis(monkeypatch):
    # R(-2) --(x1, -x0)--> R(-1)^2 --(x0, x1)--> R/(x2) on P^2, degrees -2..0
    nv = 3
    x = [{(0, tuple(int(k == j) for k in range(3))): 1} for j in range(3)]
    c2 = GradedModule.free(nv, (2,))
    c1 = GradedModule.free(nv, (1, 1))
    c0 = GradedModule(PolyMatrix(nv, (0,), (1,), [x[2]]))
    d2 = GradedMap(c2, c1, PolyMatrix(nv, (1, 1), (2,), [{
        (0, (0, 1, 0)): 1, (1, (1, 0, 0)): -1}]))
    d1 = GradedMap(c1, c0, PolyMatrix(nv, (0,), (1, 1), x[:2]))
    c = BoundedComplex(nv, -2, [c2, c1, c0], [d2, d1])
    runs = _groebner_runs(monkeypatch)
    h = cohomology(c, -1)
    assert not is_zero_module(h)
    assert runs and len(runs) == len(set(runs))


def test_les_check_runs_no_groebner_basis(monkeypatch):
    # 0 -> R(-1)^2 --(x0, x1)--> R(-1)^2 (+) R --> coker -> 0 on P^2
    nv = 3
    a, b = GradedModule.free(nv, (1, 1)), GradedModule.free(nv, (1, 1, 0))
    f = GradedMap(a, b, PolyMatrix(nv, (1, 1, 0), (1, 1), [
        {(0, (0, 0, 0)): 1, (2, (1, 0, 0)): 1},
        {(1, (0, 0, 0)): 1, (2, (0, 1, 0)): 1}]))
    _, proj = cokernel_with_projection(f)
    t = triangle_from_module_ses(f, proj)
    runs = _groebner_runs(monkeypatch)
    assert triangle_les_ok(t, -2, 3)
    assert runs == []


def test_triangle_from_ses_asks_each_exactness_question_once(monkeypatch):
    # 0 -> R(-1) --x0--> R --> R/(x0) -> 0 on P^2
    nv = 3
    a, b = GradedModule.free(nv, (1,)), GradedModule.free(nv, (0,))
    f = GradedMap(a, b, PolyMatrix(nv, (0,), (1,), [{(0, (1, 0, 0)): 1}]))
    _, proj = cokernel_with_projection(f)
    calls = []
    real = modules.kernel_in_image

    def recording(f, g):
        calls.append((f, g))
        return real(f, g)

    monkeypatch.setattr(modules, "kernel_in_image", recording)
    monkeypatch.setattr(complexes, "kernel_in_image", recording)
    assert triangle_from_module_ses(f, proj).witness == "from_ses"
    assert len(calls) == 1


def test_image_reads_the_cokernel_basis(monkeypatch):
    # R(-1)^2 --(x0, x1)--> R on P^1: image and injectivity share one basis
    nv = 2
    f = GradedMap(GradedModule.free(nv, (1, 1)), GradedModule.free(nv, (0,)),
                  PolyMatrix(nv, (0,), (1, 1), [{(0, (1, 0)): 1},
                                                {(0, (0, 1)): 1}]))
    runs = _groebner_runs(monkeypatch)
    assert hilbert_window(modules.image(f), 0, 2) == [0, 2, 3]
    assert not modules.is_injective(f)
    assert len(runs) == 1


# -- the window-rank certificates against the subquotient route ---------------


def _times_x0(c):
    """Multiplication by x0, from c to c twisted by 1."""
    nv = c.nvars
    terms = [twist(c.term(i), 1) for i in c.window()]
    up = BoundedComplex(nv, c.lo, terms, [
        GradedMap(terms[k], terms[k + 1], c.diff(c.lo + k).matrix.twist_all(1))
        for k in range(len(terms) - 1)])
    x0 = (1,) + (0,) * (nv - 1)
    return ComplexMap(c, up, {i: GradedMap(c.term(i), up.term(i), PolyMatrix(
        nv, up.term(i).cover_twists, c.term(i).cover_twists,
        [{(k, x0): 1} for k in range(c.term(i).rank)])) for i in c.window()})


def _oracle_maps():
    """Maps of complexes whose induced maps are isomorphisms, zero, or
    neither: scaled identities and zero maps of seeded two-term complexes,
    and multiplication by x0."""
    rng = random.Random(19)
    complexes = [_seeded_two_term(rng) for _ in range(5)]
    maps = []
    for c, r in zip(complexes, (3, -1, Fraction(1, 2), 2, -2)):
        maps += [_scaled_identity(c, r), ComplexMap.zero(c, c)]
    return maps + [_times_x0(c) for c in complexes[:3]]


def test_cone_rank_formula_equals_the_subquotient_route():
    checked = nonzero = 0
    for h in _oracle_maps():
        w = _WindowRanks()
        lo = min(h.source.lo, h.target.lo) - 1
        hi = max(h.source.hi, h.target.hi) + 1
        for i in range(lo, hi + 1):
            induced = subquotient_induced_map(h, i)
            for d in range(-2, 5):
                want = piece_map_rank(induced, d)
                assert w.h_rank(h, i, d) == want, (h, i, d)
                assert w.h_dim(h.source, i, d) == graded_piece_dim(
                    induced.source, d)
                checked += 1
                nonzero += want > 0
    assert checked > 300 and nonzero > 20


def test_quasi_iso_by_cone_exactness_equals_the_subquotient_route():
    verdicts = [is_quasi_iso(h) for h in _oracle_maps()]
    assert verdicts == [subquotient_quasi_iso(h) for h in _oracle_maps()]
    assert True in verdicts and False in verdicts


def test_acyclicity_equals_the_unreduced_oracle():
    cones = [cone(h) for h in _oracle_maps()]
    verdicts = [is_acyclic(c) for c in cones]
    assert verdicts == [kernel_in_image_acyclic(c) for c in cones]
    assert (verdicts.count(False), verdicts.count(True)) == (8, 5)


def _presented_complexes():
    """Two-term complexes on P^1, each with its exactness, whose
    differential has unit entries on generators that lie in a relation:
    R --1--> R/(x0) (not injective), R/(x0) --1--> R/(x0) (an isomorphism)
    and R (+) R --[1 0]--> R/(x0) (not injective).  Each has the free unit
    R(-1) --1--> R(-1) summed on."""
    q = GradedModule(_mat((0,), (1,), [["x0"]]))
    cases = [(_free(0), [[1, 0], [0, 1]], False),
             (q, [[1, 0], [0, 1]], True),
             (_free(0, 0), [[1, 0], [0, 0], [0, 1]], False)]
    b = modules.direct_sum(q, _free(1))
    out = []
    for src, cols, exact in cases:
        a = modules.direct_sum(src, _free(1))
        d = GradedMap(a, b, _mat(b.cover_twists, a.cover_twists, cols))
        out.append((BoundedComplex(NV, 0, [a, b], [d]), exact))
    return out


def test_units_on_generators_in_relations_stay():
    for c, exact in _presented_complexes():
        reduced = complexes._split_trivial(c)
        # only the free unit R(-1) --1--> R(-1) is split off
        assert [reduced.term(i).rank for i in c.window()] == [
            c.term(i).rank - 1 for i in c.window()]
        assert is_acyclic(c) == exact == kernel_in_image_acyclic(c)


def _random_presented_map(rng):
    """A seeded map M -> N on P^2 of presented modules with generators in
    degrees 0 and 1, so its matrix and both relation matrices carry unit
    entries; N's relations hold the images of M's, so it is well defined.
    Half the time N's generators have M's twists, so that some maps are
    isomorphisms."""
    nv = 3

    def mat(rt, ct):
        return PolyMatrix.from_columns(nv, rt, [
            [random_homogeneous(rng, nv, c - r) if c >= r and rng.random() < 0.8
             else Polynomial.zero(nv) for r in rt] for c in ct], list(ct))

    def twists(lo, hi):
        return tuple(rng.randint(0, 1) for _ in range(rng.randint(lo, hi)))

    src = twists(1, 3)
    tgt = src if rng.random() < 0.5 else twists(1, 3)
    src_rel = mat(src, tuple(t + 1 for t in twists(0, 1)))
    f = mat(tgt, src)
    tgt_rel = mat(tgt, tuple(t + rng.randint(0, 1) for t in twists(0, 1)))
    return GradedMap(GradedModule(src_rel),
                     GradedModule(tgt_rel.hstack(f * src_rel)), f)


def test_acyclicity_of_random_presented_maps_equals_the_oracle():
    rng = random.Random(25)
    verdicts = []
    for _ in range(60):
        f = _random_presented_map(rng)
        c = BoundedComplex(3, 0, [f.source, f.target], [f])
        verdicts.append(is_acyclic(c))
        assert verdicts[-1] == kernel_in_image_acyclic(c)
    assert verdicts.count(True) >= 5


def test_quasi_iso_of_a_scaled_identity_runs_no_groebner_basis(monkeypatch):
    # the complex-batch shapes: injective maps of rank 1 and 2, and a
    # singular rank-2 map whose second column is a multiple of the first
    rng = random.Random(25)
    maps = [_injective_map(rng, rank, offsets)
            for rank, offsets in ((1, (1,)), (1, (2,)), (2, (0, 1)))]
    f = maps[-1]
    x1 = (0, 1, 0)
    second = {(r, tuple(a + b for a, b in zip(mon, x1))): v
              for (r, mon), v in f.matrix.vecs[0].items()}
    twists = (f.matrix.col_twists[0], f.matrix.col_twists[0] + 1)
    singular = PolyMatrix(3, f.matrix.row_twists, twists,
                          [f.matrix.vecs[0], second])
    maps.append(GradedMap(GradedModule.free(3, twists), f.target, singular))
    scaled = [_scaled_identity(BoundedComplex(3, -1, [g.source, g.target], [g]),
                               r) for g, r in zip(maps, (-2, 3, 1, 2))]
    runs = _groebner_runs(monkeypatch)
    assert all(is_quasi_iso(h) for h in scaled)
    assert runs == []


# -- the mapping-cone lemma behind triangle_from_ses --------------------------


def _injective_map(rng, rank, offsets):
    """A seeded injective F1 -> F0 on P^2 in one of the complex-batch shapes
    that become triangles: rank 1 of degree 1 or 2, or rank 2 with column
    degree offsets (0, 1)."""
    nv = 3
    while True:
        base = rng.randint(-2, 1)
        t0 = tuple(base + rng.randint(0, 1) for _ in range(rank))
        t1 = tuple(max(t0) + off for off in offsets)
        cols = [[random_homogeneous(rng, nv, c - r) if c >= r
                 else Polynomial.zero(nv) for r in t0] for c in t1]
        f = GradedMap(GradedModule.free(nv, t1), GradedModule.free(nv, t0),
                      PolyMatrix.from_columns(nv, t0, cols, list(t1)))
        if is_injective(f):
            return f


def _termwise_cokernel(h):
    """g: B -> C, the termwise cokernel of an injective map h: A -> B of
    complexes, with C's differentials those of B."""
    b = h.target
    projections = [cokernel_with_projection(h.level(i)) for i in b.window()]
    terms = [q for q, _ in projections]
    c = BoundedComplex(b.nvars, b.lo, terms, [
        GradedMap(terms[k], terms[k + 1], b.diff(b.lo + k).matrix)
        for k in range(len(terms) - 1)])
    return ComplexMap(b, c, {i: proj for i, (_, proj)
                             in zip(b.window(), projections)})


def _accepted_sequences():
    """Short exact sequences A --f--> B --g--> C of complexes: the
    hyperplane sequence of every generator S_k on P^1..P^3 that x0 does not
    kill, seeded injective two-term maps of the complex-batch shapes onto
    their cokernels, and x0 times a seeded free two-term complex onto its
    quotient by x0."""
    seqs = []
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        for k in range(1, n + 2):
            try:
                f, g = hyperplane_ses(generator(k, p).module)
            except ZeroDivisorError:
                continue
            seqs.append((f, g))
    rng = random.Random(20)
    for rank, offsets in ((1, (1,)), (1, (2,)), (2, (0, 1))) * 2:
        f = _injective_map(rng, rank, offsets)
        seqs.append((f, cokernel_with_projection(f)[1]))
    out = []
    for f, g in seqs:
        a, b, c = (embed_object(m) for m in (f.source, f.target, g.target))
        out.append((ComplexMap(a, b, {0: f}), ComplexMap(b, c, {0: g})))
    h = _times_x0(_seeded_two_term(random.Random(7)))
    return out + [(h, _termwise_cokernel(h))]


def test_cone_of_an_accepted_sequence_is_quasi_isomorphic_to_the_quotient():
    seqs = _accepted_sequences()
    assert len(seqs) == 10
    assert any(f.source.hi > f.source.lo for f, _ in seqs)
    for f, g in seqs:
        t = triangle_from_ses(f, g)
        assert is_quasi_iso(ses_comparison_map(t.f, g, t.c))


# -- RHom: Ext from the Hom of a free resolution -------------------------------


def _duality_h(m: GradedModule, n: int):
    """h^i(M~(d)) on P^n by graded local duality, read from one
    rhom_complex(M, R(-n-1)): dim Ext^{n-i}(M, R(-n-1))_{-d} for i >= 1,
    and dim M_d - dim Ext^{n+1}_{-d} + dim Ext^n_{-d} for i = 0."""
    c = rhom_complex(m, GradedModule.free(n + 1, (n + 1,)))

    def h(i: int, d: int) -> int:
        if i >= 1:
            return cohomology_piece_dim(c, n - i, -d)
        return (graded_piece_dim(m, d) - cohomology_piece_dim(c, n + 1, -d)
                + cohomology_piece_dim(c, n, -d))

    return h


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rhom_duality_gives_bott_for_the_cotangent_sheaf(n):
    h = _duality_h(cotangent_sheaf(ProjectiveSpace(n)), n)
    for d in range(-4, 4):
        for i in range(n + 1):
            assert h(i, d) == bott_omega1_h(n, d, i), (i, d)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rhom_duality_equals_cech_on_the_generators(n):
    p = ProjectiveSpace(n)
    for k in range(1, n + 2):
        m = generator(k, p).module
        h = _duality_h(m, n)
        for d in (-2, 0, 1):
            cache: dict = {}
            # on P^4, h^2..h^4 need the Cech levels 3 and 4, which cost
            # seconds at d = 0, 1; they are compared at d = -2 only
            levels = range(n + 1) if n < 4 or d == -2 else (0, 1)
            for i in levels:
                assert h(i, d) == stabilized_cech_dim(
                    twist(m, d), i, cache=cache), (k, i, d)


def test_rhom_euler_characteristic_and_ext0():
    p = ProjectiveSpace(2)
    om = cotangent_sheaf(p)
    s1, s2, s3 = [generator(k, p).module for k in (1, 2, 3)]
    for m, n in [(s2, GradedModule.free(3, (3,))), (s3, om), (om, s3),
                 (s1, om), (om, twist(s2, 1))]:
        c = rhom_complex(m, n)
        ext0 = hom_module(m, n)
        for e in range(-4, 3):
            ext = [cohomology_piece_dim(c, k, e) for k in c.window()]
            terms = [graded_piece_dim(c.term(k), e) for k in c.window()]
            assert (sum((-1) ** k * x for k, x in enumerate(ext))
                    == sum((-1) ** k * x for k, x in enumerate(terms)))
            # Ext^0 is Hom
            assert ext[0] == graded_piece_dim(ext0, e)
