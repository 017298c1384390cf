"""Bounded complexes: shift, cone, cohomology, Hom complexes, triangles."""

import dataclasses
import random
from fractions import Fraction

import pytest

from branegauge.complexes import (
    BoundedComplex,
    ComplexMap,
    cohomology,
    cohomology_subquotient,
    cone,
    cone_rotation_equiv,
    cone_with_maps,
    embed_object,
    hom_complex,
    is_acyclic,
    is_quasi_iso,
    rotate_triangle,
    shift,
    triangle_from_cone,
    triangle_from_module_ses,
    triangle_from_ses,
    triangle_les_ok,
)
from branegauge.errors import NotAComplexError, ShapeError
from branegauge.modules import (
    GradedMap,
    GradedModule,
    cokernel_with_projection,
    graded_piece_dim,
    hilbert_window,
    is_zero_module,
    twist,
)
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial, parse_polynomial


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
    broken = dataclasses.replace(t, g=ComplexMap.zero(t.b, t.c))
    assert not triangle_les_ok(broken, -1, 4)


def test_les_fails_when_delta_of_a_zero_map_cone_is_zero():
    # the cone of the zero map R(-1) -> R; with delta zero, H(R(-1)) at the
    # node a has no incoming rank to balance its dimension
    src = embed_object(_free(1))
    tgt = embed_object(_free(0))
    t = triangle_from_cone(ComplexMap.zero(src, tgt))
    assert triangle_les_ok(t, -1, 4)
    broken = dataclasses.replace(
        t, delta=ComplexMap.zero(t.c, t.delta.target))
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


def test_cohomology_subquotient_outside_window_is_zero():
    c = _koszul_complex()
    s = cohomology_subquotient(c, 5)
    assert is_zero_module(s.module)
