"""Sheaf cohomology by local duality, and the Cech windows on the
coordinate charts that the tests check it and the Atiyah class against."""

from functools import cache

import pytest

import branegauge.gauge as gauge
from branegauge.cech import chart_subsets
from branegauge.errors import ShapeError
from branegauge.linalg import degree_window
from branegauge.modules import GradedModule, twist
from branegauge.projective import (
    ProjectiveSpace,
    cotangent_sheaf,
    generator,
    sheaf_cohomology_dim,
)

from _oracles import (
    DEFAULT_CECH_BOUND,
    CechStabilizationError,
    bott_omega1_h,
    cech_atiyah_residual,
    cech_level_ranks,
    cech_level_span,
    laurent_cech_ranks,
    line_bundle_h,
    stabilized_cech_dim,
)


def test_chart_subsets_shape():
    # a p-cochain lives on subsets of p+1 charts
    assert chart_subsets(3, 1) == [(0, 1), (0, 2), (1, 2)]
    assert chart_subsets(3, 2) == [(0, 1, 2)]
    assert chart_subsets(2, 2) == []


def test_level_dims_grow_with_bound():
    p = ProjectiveSpace(1)
    o = p.structure_sheaf(0)
    d2 = cech_level_span(o, 1, 2)[0].dim
    d3 = cech_level_span(o, 1, 3)[0].dim
    assert d3 > d2


def test_line_bundle_cohomology_on_the_line():
    p = ProjectiveSpace(1)
    for a in range(-4, 4):
        o = p.structure_sheaf(a)
        for i in (0, 1):
            want = line_bundle_h(1, a, i)
            assert sheaf_cohomology_dim(o, i) == want


def test_line_bundle_cohomology_on_the_plane():
    p = ProjectiveSpace(2)
    cases = [
        (0, 0, 1), (0, 1, 0), (0, 2, 0),
        (-3, 2, 1), (-4, 2, 3),
        (1, 0, 3), (-1, 0, 0), (-1, 1, 0),
    ]
    for a, i, want in cases:
        assert want == line_bundle_h(2, a, i)  # keep the oracle honest
        assert sheaf_cohomology_dim(p.structure_sheaf(a), i) == want


def test_cotangent_cohomology():
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        om = cotangent_sheaf(p)
        assert sheaf_cohomology_dim(om, 0) == 0
        assert sheaf_cohomology_dim(om, 1) == 1


def _stable_dim(m, q, cache, dim=stabilized_cech_dim):
    """The dimension at the first bound from the default on that
    stabilizes; only CechStabilizationError moves to a wider window."""
    for bound in range(DEFAULT_CECH_BOUND, DEFAULT_CECH_BOUND + 3):
        try:
            return dim(m, q, bound, cache)
        except CechStabilizationError:
            continue
    raise AssertionError(f"h^{q} did not stabilize up to bound {bound}")


BOTT_GRID = ([(1, d) for d in range(-4, 4)] + [(2, d) for d in range(-4, 4)]
             + [(3, d) for d in (-1, 0, 1)])


@cache
def _bott_grid_cech() -> dict:
    """{(n, d, q): h^q(Omega1(d)) on P^n} by the stabilized Cech oracle, for
    every BOTT_GRID point and q = 0..n: each grid level is built once, with
    one cache per twisted module, and both Bott-grid tests read it."""
    out = {}
    for n, d in BOTT_GRID:
        m = twist(cotangent_sheaf(ProjectiveSpace(n)), d)
        cache: dict = {}
        for q in range(n + 1):
            out[(n, d, q)] = _stable_dim(m, q, cache)
    return out


def test_twisted_cotangent_cohomology_matches_bott():
    # an oracle outside cech.py for the per-level rank path, on Cech
    # numbers that no duality number has seen
    for (n, d, q), h in _bott_grid_cech().items():
        assert h == bott_omega1_h(n, d, q), (n, d, q)
    # very negative twists outgrow the default window: an error, not a number
    m = twist(cotangent_sheaf(ProjectiveSpace(2)), -3)
    with pytest.raises(CechStabilizationError):
        stabilized_cech_dim(m, 2)
    assert bott_omega1_h(2, -3, 2) == 8


def test_bounded_and_checked_cech_agree_on_the_bott_grid():
    # the bound + 1 rule on Cech windows and local duality give the same
    # numbers
    new: dict = {}
    for (n, d, q), h in _bott_grid_cech().items():
        m = twist(cotangent_sheaf(ProjectiveSpace(n)), d)
        assert h == sheaf_cohomology_dim(m, q, new), (n, d, q)


def test_wide_window_numbers_need_no_bound():
    # both outgrow the default Cech window, which cannot stabilize on them;
    # local duality reads them exactly
    cases = [(ProjectiveSpace(1).structure_sheaf(-5), 1, 4),
             (twist(cotangent_sheaf(ProjectiveSpace(2)), -3), 2, 8)]
    for m, i, want in cases:
        assert sheaf_cohomology_dim(m, i) == want
        with pytest.raises(CechStabilizationError):
            stabilized_cech_dim(m, i, DEFAULT_CECH_BOUND)


def test_skyscraper_cohomology():
    p = ProjectiveSpace(2)
    sky = generator(3, p).module
    assert sheaf_cohomology_dim(sky, 0) == 1
    assert sheaf_cohomology_dim(sky, 1) == 0
    assert sheaf_cohomology_dim(sky, 2) == 0


def test_torsion_generator_has_no_cohomology_in_top_degree():
    p = ProjectiveSpace(2)
    s2 = generator(2, p).module
    assert sheaf_cohomology_dim(s2, 0) == 0
    assert sheaf_cohomology_dim(s2, 1) == 0


def test_degree_outside_range_is_zero():
    p = ProjectiveSpace(1)
    o = p.structure_sheaf(0)
    assert sheaf_cohomology_dim(o, -1) == 0
    assert sheaf_cohomology_dim(o, 5) == 0
    om = cotangent_sheaf(ProjectiveSpace(2))
    assert sheaf_cohomology_dim(om, -1) == 0
    assert sheaf_cohomology_dim(om, 3) == 0
    # the zero module has no cohomology in any degree
    zero = GradedModule.zero(3)
    assert [sheaf_cohomology_dim(zero, i) for i in range(-1, 4)] == [0] * 5


def test_stabilization_error_when_window_too_small():
    # h^1(O(-5)) on the line needs a wide window: 0 at bound 2, 2 at bound 3,
    # the true value 4 from bound 4 on
    p = ProjectiveSpace(1)
    o = p.structure_sheaf(-5)
    with pytest.raises(CechStabilizationError):
        stabilized_cech_dim(o, 1, bound=2)
    assert stabilized_cech_dim(o, 1, bound=4) == 4


def test_bound_must_be_positive():
    p = ProjectiveSpace(1)
    w = gauge._atiyah_vector(1, p)
    with pytest.raises(ShapeError, match="cech bound must be at least 1"):
        cech_atiyah_residual(w, p, bound=0)


def test_default_bound_is_exported():
    assert DEFAULT_CECH_BOUND >= 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_atiyah_cochain_has_a_window_residual_at_both_bounds(n):
    # the old B/B+1 check agrees with the Euler certificate: the O(1)
    # cochain is a cocycle and no coboundary, at the default bound and the
    # next; the O(a) cochain's residual is a times that of O(1)
    p = ProjectiveSpace(n)
    residual = cech_atiyah_residual(gauge._atiyah_vector(1, p), p)
    assert residual
    assert cech_atiyah_residual(gauge._atiyah_vector(-2, p), p) == {
        k: -2 * c for k, c in residual.items()}


def test_coboundary_has_no_atiyah_residual():
    # D of the Omega1 0-cochain w_01 / x0^2 on chart U_0: a cocycle that is
    # a coboundary, so the window residual vanishes
    p = ProjectiveSpace(2)
    coboundary = {}
    for bigger, sign, _ in gauge._cofaces((0,), p.nvars):
        coboundary[(bigger, 0, (-2, 0, 0))] = sign
    with pytest.raises(CechStabilizationError, match="coboundary"):
        cech_atiyah_residual(coboundary, p)


def test_coboundary_tracker_level_consistency():
    p = ProjectiveSpace(1)
    o = p.structure_sheaf(-2)
    level, tracker = cech_level_span(o, 1, 3)
    assert level.dim > 0
    # rank of the coboundary span never exceeds the level dimension
    assert tracker.rank <= level.dim
    # the level reads the one shared index of its degree-B(p+1) window
    assert level.index is degree_window(o.relations, 3 * 2)[0]


def test_level_ranks_match_the_laurent_window_oracle():
    # every level is copies of one polynomial window; the oracle keeps the
    # Laurent spots and ranks them densely
    for n in (1, 2):
        p = ProjectiveSpace(n)
        om = cotangent_sheaf(p)
        modules = [p.structure_sheaf(a) for a in (-3, 0, 2)]
        modules += [twist(om, d) for d in (-2, 0, 1)]
        modules += [generator(k, p).module for k in range(1, n + 2)]
        for m in modules:
            for bound in (1, 2, 3):
                for q in range(n + 1):
                    want = laurent_cech_ranks(m.relations, q, bound)
                    assert cech_level_ranks(m, q, bound) == want, (n, m, q, bound)
