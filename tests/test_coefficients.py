"""Canonical exact coefficients: an int when integral, a Fraction only when
not, and never a float, through every layer."""

import random
from fractions import Fraction

import pytest

import branegauge.tasks as tasks
from branegauge.groebner import (
    GBElem,
    _make_elem,
    _term_key,
    buchberger,
    module_groebner,
    normal_form,
    syzygy_basis,
)
from branegauge.homspace import HomBasis
from branegauge.linalg import SpanTracker, nullspace, solve_in_span, sparse_rank, tag
from branegauge.manifest import parse_manifest
from branegauge.modules import GradedModule, _prune_constants
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import (
    Polynomial,
    parse_polynomial,
    qinv,
    qnorm,
)
from branegauge.projective import ProjectiveSpace, cotangent_sheaf

from _oracles import cech_level_span, from_strings


def _scalars(obj):
    """Every coefficient reachable from obj (dict keys are not walked)."""
    if isinstance(obj, (int, float, Fraction)):
        yield obj
    elif isinstance(obj, Polynomial):
        yield from (c for _, c in obj.items())
    elif isinstance(obj, PolyMatrix):
        yield from _scalars(obj.entries)
    elif isinstance(obj, GradedModule):
        yield from _scalars(obj.relations)
    elif isinstance(obj, GBElem):
        yield from _scalars(obj.vec)
        yield from _scalars(obj.rep)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _scalars(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from _scalars(v)


def _assert_canonical(obj) -> int:
    """Every coefficient is an int, or a Fraction that is not integral."""
    count = 0
    for c in _scalars(obj):
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
        count += 1
    return count


def _poly(text: str) -> Polynomial:
    return parse_polynomial(text, 3)


def test_qnorm_and_qinv():
    assert type(qnorm(Fraction(4, 2))) is int and qnorm(Fraction(4, 2)) == 2
    assert qnorm(Fraction(1, 2)) == Fraction(1, 2)
    for x in (0.5, 2.0, "1/2"):
        with pytest.raises(TypeError):
            qnorm(x)
    assert [qinv(1), qinv(-1)] == [1, -1]
    assert all(type(qinv(u)) is int for u in (1, -1, Fraction(1, 3)))
    assert qinv(Fraction(1, 3)) == 3
    assert qinv(2) == Fraction(1, 2)
    assert qinv(Fraction(-2, 3)) == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        qinv(0)


def test_polynomial_rejects_a_float_coefficient():
    with pytest.raises(TypeError):
        Polynomial(3, {(1, 0, 0): 0.5})
    x0 = Polynomial.variable(3, 0)
    with pytest.raises(TypeError):
        x0.scale(0.5)
    with pytest.raises(TypeError):
        PolyMatrix.from_columns(3, (0,), [[x0]], (1,)).scale(2.0)
    p = Polynomial(3, {(1, 0, 0): Fraction(6, 3), (0, 1, 0): Fraction(1, 2)})
    assert type(p.coefficient((1, 0, 0))) is int
    q = p * p + p.scale(Fraction(2))  # 4*x0^2 + 2*x0*x1 + 1/4*x1^2 + 4*x0 + x1
    assert type(q.coefficient((1, 1, 0))) is int
    assert _assert_canonical(q) == 5


def test_prune_constants_with_a_non_unit_pivot():
    # columns [2, 3] (degree 0) and [x0, x1]: the 2 eliminates row 0
    rel = PolyMatrix.from_columns(
        3, (0, 0), [[_poly("2"), _poly("3")], [_poly("x0"), _poly("x1")]], [0, 1])
    pruned = _prune_constants(rel)
    assert (pruned.rows, pruned.cols) == (1, 1)
    assert pruned.entries[0][0] == _poly("x1 - 3/2*x0")
    _assert_canonical(pruned)


def test_normal_form_against_a_non_monic_divisor():
    rem = normal_form(_poly("3*x0*x1 + x1^2 + 5*x2^2"), [_poly("2*x0")])
    assert rem == _poly("x1^2 + 5*x2^2")
    assert _assert_canonical(rem) == 2
    rem = normal_form(_poly("3*x0*x1 + x1^2"), [_poly("2*x0 + x1")])
    assert rem == _poly("-1/2*x1^2")
    _assert_canonical(rem)


def test_span_tracker_with_a_non_unit_pivot():
    tracker = SpanTracker()
    assert tracker.insert({0: 2, tag(0): 1}) is None
    # an integer pivot is kept primitive: column 0 itself, lead 2
    assert tracker.pivots == {0: {0: 2, tag(0): 1}}
    assert type(tracker.pivots[0][0]) is int
    # column 1 = 3/2 column 0: the leftover tags weigh the two to zero
    assert tracker.insert({0: 3, tag(1): 1}) == {tag(0): Fraction(-3, 2),
                                                 tag(1): 1}
    assert tracker.coordinates({0: 4}) == {0: 2}
    assert solve_in_span([{0: 2}], {0: 3}) == {0: Fraction(3, 2)}
    assert nullspace([{0: 2}, {0: 3}]) == [{0: Fraction(-3, 2), 1: 1}]
    _assert_canonical([tracker.pivots, tracker.coordinates({0: 4})])


def test_span_tracker_rejects_a_float_pivot():
    with pytest.raises(TypeError):
        SpanTracker().insert({0: 0.5, 1: 1})
    with pytest.raises(TypeError):
        sparse_rank([{0: 0.5, 1: 1}, {0: 1, 1: 2.0}])
    # a float lead is rejected too, and an exact column still goes in
    tracker = SpanTracker()
    with pytest.raises(TypeError):
        tracker.insert({0: 1, 1: 2.0})
    assert tracker.insert({0: 1, 1: Fraction(1, 2)}) is None
    # monic, as a pivot holding a Fraction is stored
    assert tracker.pivots == {1: {0: 2, 1: 1}}
    _assert_canonical(tracker.pivots)


def test_make_elem_with_leading_coefficient_three():
    vec = {(0, (1, 0, 0)): 3, (0, (0, 1, 0)): 6, (0, (0, 0, 1)): 1}
    elem = _make_elem(vec, _term_key(), rep={(0, (0, 0, 0)): 1})
    assert elem.lead == (0, (1, 0, 0))
    assert elem.vec == {(0, (1, 0, 0)): 1, (0, (0, 1, 0)): 2,
                        (0, (0, 0, 1)): Fraction(1, 3)}
    assert elem.rep == {(0, (0, 0, 0)): Fraction(1, 3)}
    _assert_canonical(elem)


_MATRIX = [["2*x0 - 3*x1", "x1 + 1/2*x2", "3*x2"],
           ["x2", "2*x0", "x0 - 2/3*x1"]]


def test_no_float_in_groebner_and_syzygy_results():
    m = from_strings(3, (0, 0), (1, 1, 1), _MATRIX)
    gens = list(m.vecs)
    gb = module_groebner(gens)
    assert gb and all(b.rep for b in gb)
    assert _assert_canonical(gb) > 0
    ideal = buchberger([_poly("2*x0^2 - 3*x1*x2"), _poly("3*x0*x1 + x2^2")])
    assert _assert_canonical(ideal) > 0
    syz = syzygy_basis(m, gb)
    assert syz.cols and (m * syz).is_zero
    assert _assert_canonical(syz) > 0


def test_no_float_in_span_tracker_pivots():
    p = ProjectiveSpace(2)
    _, tracker = cech_level_span(cotangent_sheaf(p), 1, 2)
    assert tracker.rank and _assert_canonical(tracker.pivots) > 0
    rng = random.Random(5)
    tracker = SpanTracker()
    columns = [{rng.randrange(6): rng.choice([-3, 2, 5, Fraction(1, 2)])
                for _ in range(3)} for _ in range(12)]
    for k, col in enumerate(columns):
        tracker.insert({**col, tag(k): 1})
    assert tracker.rank == 6
    assert any(type(c) is Fraction for c in _scalars(tracker.pivots))
    _assert_canonical(tracker.pivots)
    relations = nullspace(columns)
    assert len(relations) == 6
    _assert_canonical([relations, solve_in_span(columns, columns[-1])])


def test_no_float_in_hom_basis_coordinates():
    p = ProjectiveSpace(2)
    om = cotangent_sheaf(p)
    for source in (om, p.structure_sheaf(-2)):
        hb = HomBasis(source, om)
        mats = hb.matrices()
        assert mats
        coords = [hb.coordinates(m) for m in mats]
        assert coords == [[int(i == k) for i in range(hb.dim)]
                          for k in range(hb.dim)]
        scaled = hb.coordinates(mats[0].scale(Fraction(2, 3)))
        assert scaled[0] == Fraction(2, 3)
        _assert_canonical([coords, scaled, mats])


def test_no_float_in_the_run_cache(monkeypatch):
    contexts = []
    real = tasks.RunContext

    def capture(**kwargs):
        contexts.append(real(**kwargs))
        return contexts[-1]

    monkeypatch.setattr(tasks, "RunContext", capture)
    text = ("[ring]\nn = 2\n\n[task cech]\nmodule = Omega1\ni = 1\n"
            "\n[task atiyah]\na = 2\n")
    reports = tasks.run_tasks(parse_manifest(text))
    assert [r.status for r in reports] == ["ok", "ok"]
    cache = contexts[0].cache
    assert {key[0] for key in cache} == {"sheaf_h"}
    assert _assert_canonical(cache) > 0
