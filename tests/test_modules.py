"""Graded modules: kernels, resolutions, Hom, annihilators, and the
saturation oracle of _oracles.py.

Expected dimensions come from hand counts or the closed-form oracles in
_oracles.py, never from the engine itself.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from branegauge import linalg, modules
from branegauge.errors import ShapeError
from branegauge.groebner import module_groebner, mvec_member
from branegauge.modules import (
    GradedMap,
    GradedModule,
    _minimal_columns,
    annihilator,
    cokernel,
    cokernel_with_projection,
    direct_sum,
    exactness_failure,
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
    piece_dim_and_map_rank,
    piece_map_rank,
    tensor,
    twist,
    twist_map,
)
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial, parse_polynomial, qinv, qnorm
from branegauge.projective import ProjectiveSpace, generator, hyperplane_ses

import _oracles
from _oracles import (
    SaturationCapError,
    _times_variables,
    count_monomials,
    dense_blocks,
    dense_kron,
    dense_matrix_product,
    dense_transpose,
    koszul_rank,
    matrix_from_rows,
    monomial_tuples,
    omega_piece_dim,
    random_homogeneous,
    rref_rank,
    saturate,
    torsion_free_quotient,
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


def test_zero_relation_columns_change_no_graded_piece(monkeypatch):
    # a zero column spans nothing: the degree window inserts no multiple of
    # it, and every graded piece of the padded presentation is the same
    p = ProjectiveSpace(2)
    modules_ = [generator(k, p).module for k in (1, 2, 3)]
    modules_.append(twist(generator(2, p).module, 1))
    inserts = []
    real = linalg.SpanTracker.insert
    monkeypatch.setattr(linalg.SpanTracker, "insert",
                        lambda self, col: inserts.append(col) or real(self, col))
    for m in modules_:
        rel = m.relations
        zeros = PolyMatrix.zero(3, rel.row_twists, (0, 2, 3))
        padded = GradedModule(rel.hstack(zeros))
        for d in range(-1, 5):
            assert graded_piece_dim(padded, d) == graded_piece_dim(m, d)
            del inserts[:]
            plain = linalg.degree_window(rel, d)[1]
            n_plain = len(inserts)
            wide = linalg.degree_window(padded.relations, d)[1]
            # the padded window inserts the same vectors, none of them empty
            assert len(inserts) == 2 * n_plain and all(inserts)
            assert (plain and plain.rank) == (wide and wide.rank)


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


def test_exactness_failure_passes_exact_sequences():
    # x1 is a nonzerodivisor on R/x0, so 0 -> S(-1) --x1--> S -> S/x1 S -> 0
    # is exact; so is the hyperplane sequence of S_1 on P^2
    nv = 3
    x0, x1, _ = _vars(nv)
    s = GradedModule(PolyMatrix.from_columns(nv, (0,), [[x0]], [1]))
    mul = GradedMap(twist(s, -1), s,
                    PolyMatrix.from_columns(nv, (0,), [[x1]], [1]))
    _, proj = cokernel_with_projection(mul)
    assert exactness_failure(mul, proj) is None
    p = ProjectiveSpace(2)
    assert exactness_failure(*hyperplane_ses(generator(1, p).module)) is None
    # with the multiplication by x0 the first map is not injective
    zd = GradedMap(twist(s, -1), s,
                   PolyMatrix.from_columns(nv, (0,), [[x0]], [1]))
    assert exactness_failure(zd, cokernel_with_projection(zd)[1]) == (
        "first map is not injective")


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


def _finite_length(nv):
    """T = R(1)/(x)^2: Q in degree -1, Q^(n+1) in degree 0, zero above."""
    xs = _vars(nv)
    squares = [xs[i] * xs[j] for i in range(nv) for j in range(i, nv)]
    return GradedModule(PolyMatrix.from_columns(
        nv, (-1,), [[q] for q in squares], [1] * len(squares)))


def _planted_torsion(nv, f):
    """N = R/(f), and M = R/(f x_0, ..., f x_n), N + T and M + T with the
    finite-length T (_finite_length): each has torsion-free quotient N.  In
    M the class of f is torsion (every x_i kills it); T is all torsion."""
    n = GradedModule(PolyMatrix.from_columns(nv, (0,), [[f]], [1]))
    m = GradedModule(PolyMatrix.from_columns(
        nv, (0,), [[f * x] for x in _vars(nv)], [2] * nv))
    t = _finite_length(nv)
    return n, [m, direct_sum(n, t), direct_sum(m, t)]


@pytest.mark.parametrize("nv,form", [
    (2, "x0"), (2, "x0 - 2*x1"), (3, "x1"), (3, "x0 + 2*x1 - x2"),
])
def test_torsion_free_quotient_removes_planted_torsion(nv, form):
    n, planted = _planted_torsion(nv, parse_polynomial(form, nv))
    degrees = range(-2, 5)
    for x in planted:
        # the torsion is there: multiplication by the variables is not
        # injective on x in some degree
        assert any(piece_map_rank(_times_variables(x), d)
                   < graded_piece_dim(x, d) for d in degrees)
        tf = torsion_free_quotient(x)
        for d in degrees:
            assert graded_piece_dim(tf, d) == graded_piece_dim(n, d)
            # and it is gone: multiplication by the variables is injective
            assert (piece_map_rank(_times_variables(tf), d)
                    == graded_piece_dim(tf, d))


def test_torsion_removal_cap_is_a_structured_error(monkeypatch):
    # R(1)/(x)^2 takes three rounds: the colon gives (x), then R, then the
    # zero module shows no torsion is left
    t = _finite_length(2)
    assert is_zero_module(torsion_free_quotient(t))
    monkeypatch.setattr(_oracles, "SATURATION_CAP", 2)
    with pytest.raises(SaturationCapError, match="torsion removal"):
        torsion_free_quotient(t)


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
    return matrix_from_rows(nv, row_twists, col_twists, [
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


@given(_presentations())
@settings(max_examples=60, deadline=None)
def test_minimal_presentation_prunes_every_constant(rel):
    # the presentations have constant entries wherever a column and a row
    # share a twist; pruning them keeps the module
    m = GradedModule(rel)
    p = minimal_presentation(m)
    zero_mon = (0,) * rel.nvars
    assert all(mon != zero_mon for vec in p.relations.vecs for _, mon in vec)
    assert hilbert_window(p, -1, 4) == hilbert_window(m, -1, 4)


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


# -- the pruned presentation against the unpruned oracles ----------------------


@st.composite
def _maps_with_units(draw):
    """A random map F -> N over P^1 or P^2 from a free module, N free or
    presented.  Twists come from a small range, so the matrix and N's
    relations carry constant entries; a row whose constants are zero can
    gain a unit from the pivots on other rows (fill-in)."""
    nv = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.integers(0, 1), min_size=1, max_size=3))
    rel_twists = draw(st.lists(st.integers(0, 2), max_size=3)
                      if draw(st.booleans()) else st.just([]))
    target = GradedModule(_draw_matrix(draw, nv, rows, rel_twists))
    src_twists = draw(st.lists(st.integers(0, 2), max_size=3))
    return GradedMap(GradedModule.free(nv, src_twists), target,
                     _draw_matrix(draw, nv, rows, src_twists))


@given(_maps_with_units())
@settings(max_examples=60, deadline=None)
def test_piece_ranks_equal_the_one_tracker_oracle(f):
    for d in range(-2, 7):
        want = _oracles.one_tracker_piece_dim_and_map_rank(f, d)
        assert piece_dim_and_map_rank(f, d) == want, d
        assert graded_piece_dim(f.target, d) == want[0]
        assert graded_piece_dim(cokernel(f), d) == (
            _oracles.one_tracker_piece_dim(cokernel(f), d))


@given(_maps_with_units())
@settings(max_examples=60, deadline=None)
def test_zero_test_equals_the_membership_oracle(f):
    for m in (f.target, cokernel(f)):
        assert is_zero_module(m) == _oracles.membership_is_zero_module(m)


@st.composite
def _zero_by_a_chain_of_units(draw):
    """A presentation of the zero module: generators e_0..e_k of falling
    twists and the relations c_j = e_j + (terms on e_{j+1}..e_k).  Where an
    earlier c_i of the same twist has a constant c on e_j, c_j becomes
    c_j - c_i / c, whose unit on e_j cancels: pruning gets it back only by
    fill-in, from the pivot on e_i.  Random relations of positive degree
    are appended."""
    nv = draw(st.sampled_from([2, 3]))
    twists = sorted(draw(st.lists(st.integers(0, 1), min_size=1,
                                  max_size=4)), reverse=True)
    k = len(twists)
    one = (0,) * nv
    cols = []
    for j, tj in enumerate(twists):
        col = {(j, one): 1}
        for i in range(j + 1, k):
            for mon, c in _draw_poly(draw, nv, tj - twists[i]).items():
                col[(i, mon)] = c
        cols.append(col)
    mixed = []
    for j, col in enumerate(cols):
        col = dict(col)
        hide = [i for i in range(j) if (j, one) in cols[i]]
        if hide and draw(st.booleans()):
            i = hide[0]
            inv = qinv(cols[i][(j, one)])
            for key, v in cols[i].items():
                col[key] = col.get(key, 0) - inv * v
        mixed.append({key: qnorm(v) for key, v in col.items() if v})
    rel = PolyMatrix(nv, twists, twists, mixed)
    extra = draw(st.lists(st.integers(0, 2), max_size=2))
    return rel.hstack(_draw_matrix(draw, nv, twists, [
        max(twists) + 1 + e for e in extra]))


@given(_zero_by_a_chain_of_units())
@settings(max_examples=60, deadline=None)
def test_zero_modules_through_a_chain_of_units(rel):
    m = GradedModule(rel)
    assert is_zero_module(m)
    assert _oracles.membership_is_zero_module(m)
    assert minimal_presentation(m).rank == 0
    assert all(_oracles.one_tracker_piece_dim(m, d) == graded_piece_dim(m, d)
               == 0 for d in range(-2, 5))


def test_a_unit_made_by_fill_in_kills_the_last_generator():
    # e0 + e1 and e0 on two generators of twist 0: the pivot on (0, 0)
    # turns the second column into -e1, a unit that was not there before
    nv = 3
    one = (0,) * nv
    rel = PolyMatrix(nv, (0, 0), (0, 0), [{(0, one): 1, (1, one): 1},
                                          {(0, one): 1}])
    m = GradedModule(rel)
    assert (1, one) not in rel.vecs[1]
    assert m.pruned_relations().rows == 0
    assert is_zero_module(m) and _oracles.membership_is_zero_module(m)
    # without the second relation the module is R, generated by e1
    m1 = GradedModule(rel.select_columns([0]))
    assert not is_zero_module(m1)
    assert hilbert_window(m1, 0, 2) == [1, 3, 6]


def test_each_module_prunes_once(monkeypatch):
    calls = []
    real = modules._prune_constants

    def recording(rel):
        calls.append(rel)
        return real(rel)

    monkeypatch.setattr(modules, "_prune_constants", recording)
    nv = 3
    one = (0,) * nv
    m = GradedModule(PolyMatrix(nv, (0, 1), (0,), [{(0, one): 2}]))
    assert hilbert_window(m, 0, 3) == [0, 1, 3, 6]
    assert not is_zero_module(m)
    assert minimal_presentation(m).cover_twists == (1,)
    assert free_resolution(m).base_twists == (1,)
    assert len(calls) == 1


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
        fmat = matrix_from_rows(nv, tgt_twists, src_twists, entries)
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


# -- minimal generators against the Groebner engine --------------------------


@st.composite
def _generator_matrices(draw):
    """Random homogeneous columns over P^1 or P^2 plus redundant ones: a
    multiple of one column, the sum of two (the lower one lifted by a
    polynomial) and a zero column, all in a random column order."""
    nv = draw(st.sampled_from([2, 3]))
    rows = draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2))
    m = _draw_matrix(draw, nv, rows,
                     draw(st.lists(st.integers(0, 2), min_size=1, max_size=3)))
    cols = [(m.column(c), m.col_twists[c]) for c in range(m.cols)]
    pick = st.integers(0, m.cols - 1)
    col, t = cols[draw(pick)]
    k = draw(st.integers(0, 1))
    p = _draw_poly(draw, nv, k)
    cols.append(([p * e for e in col], t + k))
    (lo, tlo), (hi, thi) = sorted((cols[draw(pick)], cols[draw(pick)]),
                                  key=lambda ct: ct[1])
    q = _draw_poly(draw, nv, thi - tlo)
    cols.append(([q * a + b for a, b in zip(lo, hi)], thi))
    cols.append(([Polynomial.zero(nv)] * len(rows), draw(st.integers(0, 2))))
    cols = draw(st.permutations(cols))
    return PolyMatrix.from_columns(nv, rows, [c for c, _ in cols],
                                   [t for _, t in cols])


def _kept_indices(m: PolyMatrix, kept: PolyMatrix) -> list[int]:
    """Indices of kept's columns in m: kept is a subsequence of m's columns
    and keeps the first of equal columns."""
    out: list[int] = []
    for c in range(m.cols):
        k = len(out)
        if (k < kept.cols and kept.column(k) == m.column(c)
                and kept.col_twists[k] == m.col_twists[c]):
            out.append(c)
    assert len(out) == kept.cols
    return out


@given(_generator_matrices())
@settings(max_examples=40, deadline=None)
def test_minimal_columns_against_the_groebner_engine(m):
    kept = _kept_indices(m, _minimal_columns(m))
    vec = list(m.vecs)
    kept_vecs = [vec[c] for c in kept]
    gb = module_groebner(kept_vecs) if kept_vecs else []
    # every dropped column lies in the submodule of the kept ones
    for c in set(range(m.cols)) - set(kept):
        assert mvec_member(vec[c], gb)
    # no kept column lies in the submodule of the kept ones before it in
    # (degree, index) order
    for c in kept:
        before = [vec[k] for k in kept
                  if (m.col_twists[k], k) < (m.col_twists[c], c)]
        assert vec[c]
        assert not (before and mvec_member(vec[c], module_groebner(before)))


# -- the sparse matrix product against the dense triple loop -----------------


@st.composite
def _matrix_pairs(draw):
    """Composable random matrices over P^1 or P^2, each dimension possibly
    zero, and either operand possibly all zero."""
    nv = draw(st.sampled_from([2, 3]))
    twists = st.lists(st.integers(-1, 2), max_size=3)
    rows, cols = draw(twists), draw(twists)
    inner = draw(st.lists(st.integers(-1, 1), max_size=4))
    a = _draw_matrix(draw, nv, rows, inner)
    b = _draw_matrix(draw, nv, inner, cols)
    if draw(st.booleans()):
        a = PolyMatrix.zero(nv, rows, inner)
    if draw(st.booleans()):
        b = PolyMatrix.zero(nv, inner, cols)
    return a, b


def _dicts(m: PolyMatrix) -> list:
    return [[dict(p.items()) for p in row] for row in m.entries]


@given(_matrix_pairs())
@settings(max_examples=80, deadline=None)
def test_matrix_product_matches_the_dense_loop(pair):
    a, b = pair
    prod = a * b
    assert (prod.row_twists, prod.col_twists) == (a.row_twists, b.col_twists)
    assert _dicts(prod) == dense_matrix_product(_dicts(a), _dicts(b), b.cols)


# -- the block layout: kron, dual and blocks against dense oracles -----------


@st.composite
def _kron_quads(draw):
    """(A, C, B, D) over P^1 or P^2 with A*C and B*D defined; every
    dimension may be zero and entries include the constant 1."""
    nv = draw(st.sampled_from([2, 3]))
    twists = st.lists(st.integers(-1, 1), max_size=3)
    r1, k1, c1, r2, k2, c2 = (draw(twists) for _ in range(6))
    return (_draw_matrix(draw, nv, r1, k1), _draw_matrix(draw, nv, k1, c1),
            _draw_matrix(draw, nv, r2, k2), _draw_matrix(draw, nv, k2, c2))


@given(_kron_quads())
@settings(max_examples=60, deadline=None)
def test_kron_matches_the_dense_oracle_and_the_mixed_product(quad):
    a, c, b, d = quad
    ab = a.kron(b)
    assert ab.row_twists == tuple(s + t for s in a.row_twists
                                  for t in b.row_twists)
    assert ab.col_twists == tuple(s + t for s in a.col_twists
                                  for t in b.col_twists)
    assert _dicts(ab) == dense_kron(_dicts(a), _dicts(b), b.cols)
    # (A (x) B)(C (x) D) = (AC) (x) (BD)
    assert ab * c.kron(d) == (a * c).kron(b * d)


@given(_matrix_pairs())
@settings(max_examples=60, deadline=None)
def test_dual_is_the_transpose_with_negated_twists(pair):
    a, b = pair
    da = a.dual()
    assert da.row_twists == tuple(-t for t in a.col_twists)
    assert da.col_twists == tuple(-t for t in a.row_twists)
    assert _dicts(da) == dense_transpose(_dicts(a), a.cols)
    assert da.dual() == a
    assert (a * b).dual() == b.dual() * a.dual()


@st.composite
def _block_layouts(draw):
    """Twist groups, some of them empty, and a random subset of blocks."""
    nv = draw(st.sampled_from([2, 3]))
    groups = st.lists(st.lists(st.integers(-1, 1), max_size=2), max_size=3)
    rows, cols = draw(groups), draw(groups)
    parts = {(gi, gj): _draw_matrix(draw, nv, rg, cg)
             for gi, rg in enumerate(rows) for gj, cg in enumerate(cols)
             if draw(st.booleans())}
    return nv, rows, cols, parts


@given(_block_layouts())
@settings(max_examples=60, deadline=None)
def test_blocks_match_the_dense_oracle(layout):
    nv, rows, cols, parts = layout
    m = PolyMatrix.blocks(nv, rows, cols, parts)
    assert m.row_twists == tuple(t for g in rows for t in g)
    assert m.col_twists == tuple(t for g in cols for t in g)
    assert _dicts(m) == dense_blocks(
        [len(g) for g in rows], [len(g) for g in cols],
        {k: _dicts(b) for k, b in parts.items()})
    for key, b in parts.items():
        if b.rows or b.cols:
            bad = dict(parts)
            bad[key] = b.twist_all(1)
            with pytest.raises(ShapeError):
                PolyMatrix.blocks(nv, rows, cols, bad)


def test_block_layout_on_zero_rows_and_columns():
    x0 = Polynomial.variable(2, 0)
    row = matrix_from_rows(2, (0,), (1, 1), [[x0, x0]])  # 1 x 2
    empty = PolyMatrix.zero(2, (), (0, 1))          # 0 x 2
    tall = PolyMatrix.zero(2, (0, 1), ())           # 2 x 0
    for a, b in ((row, empty), (empty, row), (row, tall), (tall, row)):
        k = a.kron(b)
        assert (k.rows, k.cols) == (a.rows * b.rows, a.cols * b.cols)
    assert (empty.dual().rows, empty.dual().cols) == (2, 0)
    assert (tall.dual().rows, tall.dual().cols) == (0, 2)
    assert empty.dual().dual() == empty and tall.dual().dual() == tall
    m = PolyMatrix.blocks(2, [(), (0,)], [(1, 1), ()],
                          {(1, 0): row, (0, 1): PolyMatrix.zero(2, (), ())})
    assert m == row
    with pytest.raises(ShapeError):
        PolyMatrix.blocks(2, [(0,)], [(1, 1)], {(0, 0): row.twist_all(1)})
