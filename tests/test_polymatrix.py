"""The column-vector form of PolyMatrix: building, reading and checking.

A matrix is stored as one sparse vector {(row, monomial): coeff} per column.
These properties check that the form is canonical (equality, hash and repr
do not depend on how the vectors were filled), that the Polynomial
accessors read back what was stored, and that the constructor and the
syzygy certificate still reject bad data.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import branegauge.groebner as groebner
from branegauge.errors import HomogeneityError, RingMismatchError
from branegauge.groebner import syzygy_basis
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial

from _oracles import from_strings, matrix_from_rows, monomial_tuples


def _poly(draw, nv: int, deg: int) -> Polynomial:
    mons = monomial_tuples(nv, deg)
    coeffs = draw(st.lists(st.sampled_from([0, 0, 1, -1, 3, Fraction(1, 2)]),
                           min_size=len(mons), max_size=len(mons)))
    return Polynomial(nv, {m: c for m, c in zip(mons, coeffs) if c})


@st.composite
def _grids(draw):
    """(nv, row twists, column twists, rows of Polynomials) over P^1 or P^2;
    either dimension may be zero."""
    nv = draw(st.sampled_from([2, 3]))
    rt = draw(st.lists(st.integers(-1, 1), max_size=3))
    ct = draw(st.lists(st.integers(-1, 2), max_size=3))
    return nv, rt, ct, [[_poly(draw, nv, s - t) for s in ct] for t in rt]


def _expected_repr(rt, ct, grid) -> str:
    body = "; ".join(", ".join(str(p) for p in row) for row in grid)
    return (f"PolyMatrix({len(rt)}x{len(ct)}, rt={list(rt)}, ct={list(ct)}: "
            f"{body})")


@given(_grids(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_vectors_in_any_term_order_give_one_matrix(data, rnd):
    nv, rt, ct, grid = data
    m = matrix_from_rows(nv, rt, ct, grid)
    vecs = []
    for c in range(len(ct)):
        terms = [((r, mon), coeff) for r, row in enumerate(grid)
                 for mon, coeff in row[c].items()]
        rnd.shuffle(terms)
        vecs.append(dict(terms))
    v = PolyMatrix(nv, rt, ct, vecs)
    assert v == m and hash(v) == hash(m)
    assert repr(v) == repr(m) == _expected_repr(rt, ct, grid)


@given(_grids())
@settings(max_examples=80, deadline=None)
def test_column_entry_and_entries_round_trip(data):
    nv, rt, ct, grid = data
    m = matrix_from_rows(nv, rt, ct, grid)
    assert m.entries == tuple(tuple(row) for row in grid)
    for c in range(m.cols):
        assert m.column(c) == [row[c] for row in grid]
        for r in range(m.rows):
            assert m.entry(r, c) == grid[r][c]
    cols = [m.column(c) for c in range(m.cols)]
    assert PolyMatrix.from_columns(nv, rt, cols, ct) == m
    assert m.is_zero == all(p.is_zero for row in grid for p in row)


@given(_grids(), st.data())
@settings(max_examples=60, deadline=None)
def test_a_term_of_the_wrong_degree_or_ring_is_rejected(data, draw):
    nv, rt, ct, grid = data
    if not rt or not ct:
        return
    r = draw.draw(st.integers(0, len(rt) - 1))
    c = draw.draw(st.integers(0, len(ct) - 1))
    vecs = [{(k, mon): coeff for k, row in enumerate(grid)
             for mon, coeff in row[j].items()} for j in range(len(ct))]
    want = ct[c] - rt[r]
    # a monomial of another degree, and one in one variable too many
    wrong_degree = (max(want + 1, 0),) + (0,) * (nv - 1)
    wrong_ring = (max(want, 0),) + (0,) * nv
    for mon, error in ((wrong_degree, HomogeneityError),
                       (wrong_ring, RingMismatchError)):
        bad = [dict(v) for v in vecs]
        bad[c][(r, mon)] = 1
        with pytest.raises(error):
            PolyMatrix(nv, rt, ct, bad)
    # the same entries as Polynomials: one inhomogeneous entry, one entry
    # from another ring
    x0 = Polynomial.variable(nv, 0)
    for p, error in ((grid[r][c] + x0 ** max(want + 1, 0), HomogeneityError),
                     (Polynomial.zero(nv + 1), RingMismatchError)):
        bad = [list(row) for row in grid]
        bad[r][c] = p
        with pytest.raises(error):
            matrix_from_rows(nv, rt, ct, bad)


@given(_grids(), st.data())
@settings(max_examples=40, deadline=None)
def test_a_tampered_syzygy_column_trips_the_certificate(data, draw):
    nv, rt, ct, grid = data
    m = matrix_from_rows(nv, rt, ct, grid)
    live = [k for k, vec in enumerate(m.vecs) if vec]
    if not live:
        return
    k = draw.draw(st.sampled_from(live))
    real = groebner.syzygy_module
    gb = groebner.module_groebner(list(m.vecs))

    def tampered(gens, gb, nvars):
        # a fake syzygy e_k, homogeneous of degree ct[k]; m * e_k is
        # column k, which is not zero
        return real(gens, gb, nvars) + [{(k, (0,) * nvars): 1}]

    assert (m * syzygy_basis(m, gb)).is_zero
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "syzygy_module", tampered)
        with pytest.raises(AssertionError, match="m \\* syz != 0"):
            syzygy_basis(m, gb)


def test_koszul_layout():
    """Generators are subsets in combinations order; column T is
    sum_p (-1)^p x_{T[p]} e_{T minus T[p]}."""
    assert PolyMatrix.koszul(3, 1) == from_strings(
        3, (0,), (1, 1, 1), [["x0", "x1", "x2"]])
    # columns {0,1}, {0,2}, {1,2} over rows {0}, {1}, {2}
    assert PolyMatrix.koszul(3, 2) == from_strings(
        3, (1, 1, 1), (2, 2, 2),
        [["-x1", "-x2", "0"], ["x0", "0", "-x2"], ["0", "x0", "x1"]])


@pytest.mark.parametrize("nv", [2, 3, 4, 5])
def test_koszul_maps_compose_to_zero(nv):
    maps = {k: PolyMatrix.koszul(nv, k) for k in range(1, nv + 1)}
    for k, m in maps.items():
        assert m.cols == math.comb(nv, k)
        assert m.col_twists == (k,) * m.cols
    for k in range(2, nv + 1):
        assert (maps[k - 1] * maps[k]).is_zero
