"""Graded modules: kernels, resolutions, Hom, saturation, annihilators.

Expected dimensions come from hand counts or the closed-form oracles in
_oracles.py, never from the engine itself.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branegauge.errors import NotExactError, ShapeError
from branegauge.modules import (
    GradedMap,
    GradedModule,
    annihilator,
    cokernel,
    direct_sum,
    free_resolution,
    graded_piece_dim,
    hilbert_window,
    hom_module,
    image,
    is_injective,
    is_iso,
    is_zero_module,
    kernel,
    kernel_with_inclusion,
    minimal_presentation,
    piece_map_rank,
    saturate,
    tensor,
    torsion_free_quotient,
    twist,
    twist_map,
)
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial, parse_polynomial, random_homogeneous

from _oracles import (
    count_monomials,
    koszul_rank,
    monomial_tuples,
    omega_piece_dim,
    rref_rank,
)


def _vars(nv):
    return [Polynomial.variable(nv, i) for i in range(nv)]


def _quotient_by_vars(nv, k, twist_shift=0):
    """R/(x0..x_{k-1}) with the cover generator in degree -twist_shift."""
    cols = [[Polynomial.variable(nv, i)] for i in range(k)]
    rel = PolyMatrix.from_columns(nv, (twist_shift,), cols,
                                  [twist_shift + 1] * k)
    return GradedModule(rel)


def test_free_module_hilbert():
    nv = 3
    f = GradedModule.free(nv, (0, -1))
    # dim_d = C(d+2,2) + C(d+1+2,2)
    for d in range(4):
        assert graded_piece_dim(f, d) == (
            count_monomials(nv, d) + count_monomials(nv, d + 1)
        )


def test_twist_shifts_hilbert():
    nv = 2
    m = _quotient_by_vars(nv, 1)
    w = hilbert_window(m, 0, 3)
    assert w == [1, 1, 1, 1]
    assert hilbert_window(twist(m, -2), 2, 5) == w
    assert hilbert_window(twist(m, 2), -2, 1) == w


def _same_map(f, g):
    return (f.source == g.source and f.target == g.target
            and f.matrix == g.matrix)


def test_twist_map_commutes_with_composition_and_inverts():
    nv = 3
    free = GradedModule.free(nv, (1,))
    line = _quotient_by_vars(nv, 1)
    plane = _quotient_by_vars(nv, 2)
    x1 = PolyMatrix.from_columns(nv, (0,), [[Polynomial.variable(nv, 1)]], [1])
    f = GradedMap(free, line, x1)  # R(-1) --x1--> R/(x0)
    g = GradedMap(line, plane, PolyMatrix.identity(nv, (0,)))  # projection
    for k in (-2, 1, 3):
        assert _same_map(twist_map(g * f, k), twist_map(g, k) * twist_map(f, k))
        for h in (f, g, g * f):
            assert _same_map(twist_map(twist_map(h, k), -k), h)
            assert twist_map(h, k).source == twist(h.source, k)


def test_euler_kernel_matches_cotangent_counts():
    # ker(R(-1)^{n+1} -> R) for the column (x0..xn) has graded pieces of
    # dimension (n+1)*C(d-1+n,n) - C(d+n,n) in degrees d >= 1
    for n in (1, 2):
        nv = n + 1
        src = GradedModule.free(nv, (1,) * nv)
        tgt = GradedModule.free(nv, (0,))
        mat = PolyMatrix.from_columns(nv, (0,), [[v] for v in _vars(nv)],
                                      [1] * nv)
        e = GradedMap(src, tgt, mat)
        k = kernel(e)
        for d in range(5):
            assert graded_piece_dim(k, d) == omega_piece_dim(n, d)


def test_kernel_inclusion_composes_to_zero():
    nv = 2
    x0, x1 = _vars(nv)
    src = GradedModule.free(nv, (0, 0))
    tgt = GradedModule.free(nv, (-1,))
    f = GradedMap(src, tgt, PolyMatrix.from_columns(nv, (-1,), [[x0], [x1]],
                                                    [0, 0]))
    k, incl = kernel_with_inclusion(f)
    assert (f * incl).is_zero_map()
    # the kernel of (x0, x1): R^2 -> R(1) is R(-1) on the Koszul syzygy
    assert hilbert_window(k, 1, 3) == hilbert_window(
        GradedModule.free(nv, (1,)), 1, 3)


def test_image_plus_cokernel_accounts_for_target():
    nv = 2
    rng = random.Random(5)
    for _ in range(10):
        src = GradedModule.free(nv, (1, 1))
        tgt = GradedModule.free(nv, (0,))
        cols = []
        for _ in range(2):
            p = random_homogeneous(rng, nv, 1)
            cols.append([p])
        mat = PolyMatrix.from_columns(nv, (0,), cols, [1, 1])
        f = GradedMap(src, tgt, mat)
        im, cok = image(f), cokernel(f)
        for d in range(4):
            assert (graded_piece_dim(im, d) + graded_piece_dim(cok, d)
                    == graded_piece_dim(tgt, d))


def test_direct_sum_and_tensor_hilbert():
    nv = 2
    a = _quotient_by_vars(nv, 1)          # R/(x0)
    b = GradedModule.free(nv, (-1,))
    s = direct_sum(a, b)
    for d in range(4):
        assert graded_piece_dim(s, d) == (
            graded_piece_dim(a, d) + graded_piece_dim(b, d))
    # R/(x0) (x) R/(x1) = R/(x0,x1), the skyscraper
    t = tensor(a, _quotient_by_vars(nv, 2, 0))
    # careful: second factor kills x0 and x1 already, product still skyscraper
    assert hilbert_window(t, 0, 3) == [1, 0, 0, 0]


def test_free_resolution_koszul_ranks():
    for nv in (2, 3):
        m = _quotient_by_vars(nv, nv)
        res = free_resolution(m)
        assert res.length <= nv
        for i in range(res.length + 1):
            assert res.betti(i) == koszul_rank(nv, i)
        # consecutive maps compose to zero
        for i in range(1, res.length):
            assert (res.steps[i - 1] * res.steps[i]).is_zero


def test_free_resolution_respects_bound():
    nv = 3
    rng = random.Random(13)
    for _ in range(6):
        cols = []
        for _ in range(rng.randint(1, 2)):
            p = random_homogeneous(rng, nv, rng.randint(1, 2))
            if p.is_zero:
                continue
            cols.append([p])
        if not cols:
            continue
        deg = [c[0].homogeneous_degree() for c in cols]
        rel = PolyMatrix.from_columns(nv, (0,), cols, deg)
        res = free_resolution(GradedModule(rel))
        assert res.length <= nv


def test_minimal_presentation_drops_unit_relations():
    nv = 2
    one = Polynomial.constant(nv, Fraction(1))
    rel = PolyMatrix.from_columns(nv, (0, 0), [[one, Polynomial.zero(nv)]],
                                  [0])
    m = GradedModule(rel)
    p = minimal_presentation(m)
    assert p.rank == 1
    assert hilbert_window(p, 0, 2) == hilbert_window(m, 0, 2)


def test_hom_module_free_case():
    nv = 2
    a = GradedModule.free(nv, (0,))
    b = GradedModule.free(nv, (-1,))
    h = hom_module(a, b)
    # Hom(R, R(1)) = R(1)
    assert hilbert_window(h, -1, 2) == hilbert_window(b, -1, 2)


def test_hom_module_quotient_case():
    nv = 2
    m = _quotient_by_vars(nv, 1)     # R/(x0)
    h = hom_module(m, m)
    # Hom(R/x0, R/x0) = R/x0
    assert hilbert_window(h, 0, 3) == [1, 1, 1, 1]
    # Hom(R/x0, R) = 0 since R has no x0-torsion
    assert is_zero_module(hom_module(m, GradedModule.free(nv, (0,))))


def test_saturation_of_irrelevant_power():
    nv = 2
    # R/(x0,x1)^2 presented by the three degree-2 monomials
    x0, x1 = _vars(nv)
    rel = PolyMatrix.from_columns(nv, (0,),
                                  [[x0 * x0], [x0 * x1], [x1 * x1]],
                                  [2, 2, 2])
    m = GradedModule(rel)
    s = saturate(m, 0)
    assert is_zero_module(s)


def test_saturation_fixes_free_modules():
    nv = 3
    f = GradedModule.free(nv, (0, -2))
    s = saturate(f, -2)
    for d in range(-2, 3):
        assert graded_piece_dim(s, d) == graded_piece_dim(f, d)


def test_torsion_free_quotient_kills_skyscraper():
    nv = 2
    m = _quotient_by_vars(nv, 2)
    assert is_zero_module(torsion_free_quotient(m))
    # and leaves a torsion-free module alone in large degrees
    tf = torsion_free_quotient(_quotient_by_vars(nv, 1))
    assert hilbert_window(tf, 0, 3) == [1, 1, 1, 1]


def test_annihilator_values():
    nv = 3
    m = _quotient_by_vars(nv, 2)
    ann = annihilator(m)
    assert sorted(str(p) for p in ann) == ["x0", "x1"]
    assert annihilator(GradedModule.zero(nv)) == [
        Polynomial.constant(nv, Fraction(1))]
    assert annihilator(GradedModule.free(nv, (0,))) == []


def test_is_iso_detects_identity_and_rejects_euler():
    nv = 2
    f = GradedModule.free(nv, (0, -1))
    assert is_iso(GradedMap.identity(f))
    src = GradedModule.free(nv, (1, 1))
    tgt = GradedModule.free(nv, (0,))
    e = GradedMap(src, tgt, PolyMatrix.from_columns(
        nv, (0,), [[v] for v in _vars(nv)], [1, 1]))
    assert not is_iso(e)


def test_piece_map_rank_matches_dimension_count():
    # rank of multiplication by x0 on R/(x1^2) in each degree
    nv = 2
    m = GradedModule(PolyMatrix.from_columns(
        nv, (0,), [[parse_polynomial("x1^2", nv)]], [2]))
    src = twist(m, -1)
    f = GradedMap(src, m, PolyMatrix.from_columns(
        nv, (0,), [[Polynomial.variable(nv, 0)]], [1]))
    for d in range(4):
        r = piece_map_rank(f, d)
        # mult by x0 is injective on R/(x1^2), so rank = dim of source piece
        assert r == graded_piece_dim(src, d)


def test_rank_nullity_property_on_random_maps():
    nv = 2
    rng = random.Random(23)
    for _ in range(12):
        st = tuple(rng.randint(-1, 1) for _ in range(2))
        tt = tuple(rng.randint(-1, 1) for _ in range(2))
        src = GradedModule.free(nv, st)
        tgt = GradedModule.free(nv, tt)
        cols = []
        ok = True
        for c in range(2):
            col = []
            for r in range(2):
                d = st[c] - tt[r]
                if d < 0:
                    col.append(Polynomial.zero(nv))
                else:
                    col.append(random_homogeneous(rng, nv, d))
            cols.append(col)
        mat = PolyMatrix.from_columns(nv, tt, cols, list(st))
        f = GradedMap(src, tgt, mat)
        k = kernel(f)
        for d in range(-1, 3):
            assert (piece_map_rank(f, d) + graded_piece_dim(k, d)
                    == graded_piece_dim(src, d))


# -- the degree-window kernel against a dense oracle ------------------------


def _draw_poly(draw, nv: int, deg: int) -> Polynomial:
    """A random homogeneous polynomial of degree deg, zero below degree 0."""
    mons = monomial_tuples(nv, deg)
    coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)]),
                           min_size=len(mons), max_size=len(mons)))
    return Polynomial(nv, {m: c for m, c in zip(mons, coeffs) if c})


def _draw_matrix(draw, nv: int, row_twists, col_twists) -> PolyMatrix:
    return PolyMatrix(nv, row_twists, col_twists, [
        [_draw_poly(draw, nv, s - t) for s in col_twists] for t in row_twists
    ])


@st.composite
def _presentations(draw):
    """A random homogeneous presentation over P^1 or P^2."""
    nv = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2))
    cols = draw(st.lists(st.integers(-1, 2), max_size=3))
    return _draw_matrix(draw, nv, rows, cols)


def _dense_piece_dim(rel: PolyMatrix, d: int) -> int:
    """Window size minus the dense rank of every relation column times every
    monomial of the complementary degree, multiplied out with Polynomial."""
    nv = rel.nvars
    window = [(r, mon) for r, t in enumerate(rel.row_twists)
              for mon in monomial_tuples(nv, d - t)]
    pos = {w: k for k, w in enumerate(window)}
    rows = []
    for c, s in enumerate(rel.col_twists):
        for mult in monomial_tuples(nv, d - s):
            x = Polynomial(nv, {mult: 1})
            row = [Fraction(0)] * len(window)
            for r in range(rel.rows):
                for mon, coeff in (rel.entry(r, c) * x).items():
                    row[pos[(r, mon)]] = Fraction(coeff)
            rows.append(row)
    return len(window) - rref_rank(rows)


@given(_presentations(), st.integers(-1, 3))
@settings(max_examples=60, deadline=None)
def test_graded_piece_dim_matches_dense_window(rel, d):
    assert graded_piece_dim(GradedModule(rel), d) == _dense_piece_dim(rel, d)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_piece_map_rank_is_target_minus_cokernel(data):
    rel = data.draw(_presentations())
    n = GradedModule(rel)
    src_twists = data.draw(st.lists(st.integers(-1, 2), max_size=2))
    src = GradedModule.free(rel.nvars, src_twists)
    f = GradedMap(src, n, _draw_matrix(data.draw, rel.nvars,
                                       rel.row_twists, src_twists))
    for d in range(-1, 4):
        assert piece_map_rank(f, d) == (
            graded_piece_dim(n, d) - graded_piece_dim(cokernel(f), d))


# -- injectivity without the kernel's presentation ----------------------------


@st.composite
def _module_maps(draw):
    """A random homogeneous map M -> N between presented modules over P^1 or
    P^2.  N's relations include the images of M's, so the map is well
    defined; on a rank-2 source the second column is sometimes a multiple of
    the first, which makes the map singular."""
    nv = draw(st.sampled_from([2, 3]))
    src_twists = sorted(draw(st.lists(st.integers(-1, 1), min_size=1,
                                      max_size=2)))
    src_rel = _draw_matrix(draw, nv, src_twists,
                           draw(st.lists(st.integers(0, 2), max_size=2)))
    tgt_twists = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2))
    tgt_rel = _draw_matrix(draw, nv, tgt_twists,
                           draw(st.lists(st.integers(-1, 2), max_size=2)))
    fmat = _draw_matrix(draw, nv, tgt_twists, src_twists)
    if len(src_twists) == 2 and draw(st.booleans()):
        p = _draw_poly(draw, nv, src_twists[1] - src_twists[0])
        entries = [[row[0], p * row[0]] for row in fmat.entries]
        fmat = PolyMatrix(nv, tgt_twists, src_twists, entries)
    tgt = GradedModule(tgt_rel.hstack(fmat * src_rel))
    return GradedMap(GradedModule(src_rel), tgt, fmat)


@given(_module_maps())
@settings(max_examples=40, deadline=None)
def test_is_injective_matches_the_kernel(f):
    assert is_injective(f) == is_zero_module(kernel(f))


def test_is_injective_on_known_maps():
    nv = 2
    x0, x1 = _vars(nv)
    src, tgt = GradedModule.free(nv, (1,)), GradedModule.free(nv, (0,))
    assert is_injective(GradedMap(src, tgt, PolyMatrix.from_columns(
        nv, (0,), [[x0]], [1])))
    # (x1, -x0) spans the kernel of [x0, x1]: R(-1)^2 -> R
    src2 = GradedModule.free(nv, (1, 1))
    assert not is_injective(GradedMap(src2, tgt, PolyMatrix.from_columns(
        nv, (0,), [[x0], [x1]], [1, 1])))
    # x0 from R/(x0) shifted by one into R/(x0): the image is zero
    q = _quotient_by_vars(nv, 1)
    assert not is_injective(GradedMap(_quotient_by_vars(nv, 1, 1), q,
                                      PolyMatrix.from_columns(nv, (0,), [[x0]], [1])))
