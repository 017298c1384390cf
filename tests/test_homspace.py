"""Cross-check the Hom basis against the internal Hom-module construction."""

import random
from fractions import Fraction

from branegauge.homspace import HomBasis
from branegauge.modules import (
    GradedModule,
    graded_piece_dim,
    hom_module,
    twist,
)
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial, monomials_of_degree, parse_polynomial
from branegauge.projective import ProjectiveSpace, cotangent_sheaf


def _quotient(nv, gens, cover=(0,)):
    cols = [[parse_polynomial(g, nv)] for g in gens]
    degs = [c[0].homogeneous_degree() + cover[0] for c in cols]
    return GradedModule(PolyMatrix.from_columns(nv, cover, cols, degs))


def test_hom_basis_free_to_free():
    nv = 2
    a = GradedModule.free(nv, (0,))
    b = GradedModule.free(nv, (-1,))
    # degree-0 maps R -> R(1) are multiplication by a linear form
    hb = HomBasis(a, b)
    assert hb.dim == 2


def test_hom_basis_matches_hom_module_degree_zero():
    nv = 2
    cases = [
        (GradedModule.free(nv, (0, 1)), GradedModule.free(nv, (0,))),
        (_quotient(nv, ["x0"]), _quotient(nv, ["x0"])),
        (_quotient(nv, ["x0", "x1"]), _quotient(nv, ["x0"])),
        (_quotient(nv, ["x0"]), GradedModule.free(nv, (0,))),
        (_quotient(nv, ["x0^2"]), _quotient(nv, ["x0"])),
    ]
    for a, b in cases:
        hb = HomBasis(a, b)
        hm = hom_module(a, b)
        assert hb.dim == graded_piece_dim(hm, 0)


def test_hom_basis_matrices_commute_with_relations():
    nv = 2
    a = _quotient(nv, ["x0^2"])
    b = _quotient(nv, ["x0"])
    hb = HomBasis(a, b)
    for mat in hb.matrices():
        # the composite relation column must die in the target
        for c in range(a.relations.cols):
            img = [
                sum(
                    (mat.entries[r][k] * a.relations.entries[k][c]
                     for k in range(a.rank)),
                    Polynomial.zero(nv),
                )
                for r in range(b.rank)
            ]
            vec = {(r, mon): coeff
                   for r, p in enumerate(img) for mon, coeff in p.items()}
            assert b.reduces_to_zero(vec)


def test_hom_basis_coordinates_round_trip():
    nv = 2
    a = GradedModule.free(nv, (1,))
    b = GradedModule.free(nv, (0,))
    hb = HomBasis(a, b)
    assert hb.dim == 2
    mats = hb.matrices()
    combo_entries = [
        [mats[0].entries[0][0] * Fraction(2) - mats[1].entries[0][0]]
    ]
    combo = PolyMatrix.from_columns(nv, (0,),
                                    [[combo_entries[0][0]]], [1])
    coords = hb.coordinates(combo)
    assert coords is not None
    rebuilt = [Fraction(0), Fraction(0)]
    for i, c in enumerate(coords):
        rebuilt[i] = c
    assert rebuilt == [Fraction(2), Fraction(-1)]


def test_hom_basis_zero_when_supports_disjoint():
    nv = 2
    # Hom(R/x0, R/x1 twisted around) can still be nonzero; the reliably zero
    # case is mapping torsion into a free module
    a = _quotient(nv, ["x0", "x1"])
    b = GradedModule.free(nv, (0,))
    assert HomBasis(a, b).dim == 0


def _trivial_matrix(rng, source, target) -> PolyMatrix:
    """Each column a random combination of target relation columns times
    monomials: a matrix that represents the zero map."""
    nv = source.nvars
    rel = target.relations
    cols = []
    for tj in source.cover_twists:
        col = [Polynomial.zero(nv)] * target.rank
        for k, s in enumerate(rel.col_twists):
            for mon in monomials_of_degree(nv, tj - s):
                a = rng.choice([-3, -2, -1, 1, 2, 3])
                x = Polynomial.monomial(nv, mon).scale(a)
                col = [p + x * rel.entry(r, k) for r, p in enumerate(col)]
        cols.append(col)
    return PolyMatrix.from_columns(nv, target.cover_twists, cols,
                                   list(source.cover_twists))


def test_coordinates_of_a_combination_plus_a_trivial_map():
    rng = random.Random(11)
    p = ProjectiveSpace(2)
    om = cotangent_sheaf(p)
    cases = [
        (twist(om, -1), om),
        (p.structure_sheaf(-3), om),
        (GradedModule.free(3, (1, 2)), _quotient(3, ["x1", "x0*x2"])),
    ]
    for source, target in cases:
        hb = HomBasis(source, target)
        mats = hb.matrices()
        assert mats
        for _ in range(4):
            c = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in mats]
            trivial = _trivial_matrix(rng, source, target)
            assert not trivial.is_zero
            total = trivial
            for ck, bk in zip(c, mats):
                total = total + bk.scale(ck)
            assert hb.coordinates(total) == c
            assert hb.coordinates(trivial) == [0] * hb.dim
