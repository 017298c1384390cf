"""Groebner bases, ideal membership, and syzygies on known ideals."""

import random

import pytest

from branegauge.errors import HomogeneityError
from branegauge.groebner import (
    buchberger,
    ideal_member,
    lift_through,
    module_groebner,
    mvec_member,
    syzygy_basis,
    syzygy_module,
)
from branegauge.linalg import _mvec_axpy
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial, parse_polynomial

from _oracles import dense_ideal_member, random_homogeneous


def _p(text, nv=3):
    return parse_polynomial(text, nv)


def test_principal_ideal():
    gb = buchberger([_p("2*x0^2")])
    assert gb == [_p("x0^2")]
    assert ideal_member(_p("x0^3"), gb)
    assert not ideal_member(_p("x1^3"), gb)


def test_twisted_cubic_basis():
    # 2x2 minors of [[x0,x1],[x1,x2]] wait the full cubic needs 4 vars; use
    # the conic variant in 3 vars: minors of [[x0,x1],[x1,x2]]
    gens = [_p("x0*x2 - x1^2")]
    gb = buchberger(gens)
    assert ideal_member(_p("x0^2*x2 - x0*x1^2"), gb)
    assert not ideal_member(_p("x0*x1"), gb)


def test_twisted_cubic_four_vars():
    gens = [
        _p("x0*x2 - x1^2", 4),
        _p("x0*x3 - x1*x2", 4),
        _p("x1*x3 - x2^2", 4),
    ]
    gb = buchberger(gens)
    assert len(gb) == 3
    # a product of generators and a random combination stay inside
    assert ideal_member(gens[0] * gens[2], gb)
    f = gens[1] * Polynomial.variable(4, 0) - gens[2] * Polynomial.variable(4, 3)
    assert ideal_member(f, gb)
    assert not ideal_member(_p("x0*x1*x2", 4), gb)


def test_membership_against_dense_oracle():
    rng = random.Random(11)
    for _ in range(25):
        nv = rng.choice([2, 3])
        raw = []
        for _ in range(rng.randint(1, 3)):
            g = random_homogeneous(rng, nv, rng.randint(1, 3))
            if not g.is_zero:
                raw.append(g)
        if not raw:
            continue
        gb = buchberger(raw)
        dicts = [dict(g.items()) for g in raw]
        for _ in range(4):
            if rng.random() < 0.5 and raw:
                # an honest member: random multiple of a generator
                g = raw[rng.randrange(len(raw))]
                f = g * random_homogeneous(rng, nv, rng.randint(0, 2))
            else:
                f = random_homogeneous(rng, nv, rng.randint(1, 4))
            if f.is_zero:
                continue
            assert ideal_member(f, gb) == dense_ideal_member(
                dicts, dict(f.items()), nv
            )


def test_koszul_syzygies():
    nv = 3
    m = PolyMatrix.from_columns(
        nv, (0,),
        [[Polynomial.variable(nv, i)] for i in range(nv)],
        [1, 1, 1],
    )
    syz = syzygy_basis(m, module_groebner(list(m.vecs)))
    assert len(syz.col_twists) == 3
    assert all(t == 2 for t in syz.col_twists)
    prod = m * syz
    assert prod.is_zero


@pytest.mark.parametrize("nv", [3, 4])
def test_koszul_complex_is_exact(nv):
    """The syzygies of each Koszul map and the columns of the next one
    generate the same module (the Koszul complex on x0..xn is exact;
    Eisenbud, Commutative Algebra, ch. 17)."""
    for k in range(1, nv + 1):
        kos = PolyMatrix.koszul(nv, k)
        syz = syzygy_basis(kos, module_groebner(list(kos.vecs)))
        nxt = PolyMatrix.koszul(nv, k + 1)
        assert syz.row_twists == nxt.row_twists
        for a, b in ((syz, nxt), (nxt, syz)):
            gb = module_groebner(list(b.vecs))
            assert all(mvec_member(v, gb) for v in a.vecs)


def test_syzygy_of_regular_pair_is_koszul():
    nv = 2
    m = PolyMatrix.from_columns(
        nv, (0,),
        [[_p("x0^2", 2)], [_p("x1^3", 2)]],
        [2, 3],
    )
    syz = syzygy_basis(m, module_groebner(list(m.vecs)))
    assert len(syz.col_twists) == 1
    col = syz.column(0)
    # the Koszul relation (x1^3, -x0^2) up to sign
    assert {str(col[0]), str(col[1])} in ({"x1^3", "-x0^2"}, {"-x1^3", "x0^2"})


def test_inhomogeneous_entry_rejected_at_matrix_build():
    with pytest.raises(HomogeneityError):
        PolyMatrix.from_columns(2, (0,), [[_p("x0 + x1^2", 2)]], [1])


def test_zero_generators_have_free_syzygies():
    nv = 2
    m = PolyMatrix.from_columns(nv, (0,), [[Polynomial.zero(nv)]], [1])
    syz = syzygy_basis(m, module_groebner(list(m.vecs)))
    assert (m * syz).is_zero
    assert len(syz.col_twists) == 1  # e_0 itself is a syzygy


# -- tracked bases over the caller's generators ------------------------------


def _vec(nv, *entries):
    """A vector of R^2 from its two entries as text."""
    out = {}
    for r, text in enumerate(entries):
        out.update(((r, mon), c) for mon, c in _p(text, nv).items())
    return out


def _combine(coords, gens):
    """sum coords[(k, m)] * x^m * gens[k]."""
    out = {}
    for (k, mon), c in coords.items():
        _mvec_axpy(out, c, mon, gens[k])
    return out


# zero generators interleaved: indices 0 and 2 are zero; the other two are
# x1 and x2 times (x0, x1), so x2 e_1 - x1 e_3 is a syzygy
ZERO_GENS = [{}, _vec(3, "x0*x1", "x1^2"), {}, _vec(3, "x0*x2", "x1*x2")]


def test_tracked_reps_use_input_positions():
    for b in module_groebner(ZERO_GENS):
        assert {k for k, _ in b.rep} <= {1, 3}
        assert _combine(b.rep, ZERO_GENS) == b.vec


def test_lift_through_with_zero_columns():
    inside = _combine({(1, (0, 0, 1)): 1, (3, (1, 0, 0)): -2}, ZERO_GENS)
    outside = _vec(3, "x0^2", "0")
    got = lift_through(module_groebner(ZERO_GENS), [inside, {}, outside])
    assert _combine(got[0], ZERO_GENS) == inside
    assert {k for k, _ in got[0]} <= {1, 3}
    assert got[1] == {}
    assert got[2] is None


def test_syzygy_module_lists_unit_syzygies_first():
    syz = syzygy_module(ZERO_GENS, module_groebner(ZERO_GENS), 3)
    assert syz[:2] == [{(0, (0, 0, 0)): 1}, {(2, (0, 0, 0)): 1}]
    assert len(syz) > 2
    for v in syz:
        assert _combine(v, ZERO_GENS) == {}
