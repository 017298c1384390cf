"""Gauge field counting: obstruction classes, Hom tables, count bounds."""

from fractions import Fraction

import pytest

from branegauge.complexes import BoundedComplex, embed_object
import branegauge.gauge as gauge
from branegauge.errors import (
    BraneGaugeError,
    CertificateError,
    NonGeneratorTermError,
    NotWellDefinedError,
    ShapeError,
    SupportDisjointFinding,
)
from branegauge.gauge import (
    GaugeReport,
    atiyah_class_line_bundle,
    connection_exists_line_bundle,
    derived_hom_table,
    derived_hom_vanishes,
    gauge_field_count_bound,
    hom_pair_dim,
    jet_sequence_record,
    lem1_table,
    parse_component,
)
from branegauge.manifest import parse_manifest
from branegauge.modules import GradedMap
from branegauge.projective import ProjectiveSpace, generator
from branegauge.tasks import run_tasks

from _oracles import cech_atiyah_residual


def _line_brane(a: int, p: ProjectiveSpace):
    return embed_object(p.structure_sheaf(a)), {0: [f"O({a})"]}


def test_atiyah_class_is_the_twist():
    for n in (1, 2):
        p = ProjectiveSpace(n)
        for a in range(-3, 4):
            assert atiyah_class_line_bundle(a, p) == Fraction(a)


def test_vanishing_generating_class_is_a_structured_error(monkeypatch):
    # an h^0(O(-1)^{n+1}) of 1 leaves the connecting map free to kill the
    # class; an h^1(Omega1) other than 1 leaves it short of a generator
    real = gauge.sheaf_cohomology_dim
    manifest = parse_manifest("[ring]\nn = 1\n\n[task atiyah]\na = 1\n")
    for degree, wrong in [(0, 1), (1, 0), (1, 2)]:
        monkeypatch.setattr(
            gauge, "sheaf_cohomology_dim",
            lambda m, i, cache=None: wrong if i == degree else real(m, i, cache))
        cache: dict = {}
        for _ in range(2):
            with pytest.raises(CertificateError, match=f"h\\^{degree}"):
                atiyah_class_line_bundle(1, ProjectiveSpace(1), cache=cache)
        assert all(key[0] == "sheaf_h" for key in cache)
        (report,) = run_tasks(manifest)
        assert report.status == "error"
    assert issubclass(CertificateError, BraneGaugeError)


def test_broken_cotangent_inclusion_is_not_well_defined(monkeypatch):
    # twice the inclusion is still a module map into the Euler kernel, but
    # it sends w to 2 D(s), not D(s)
    real = gauge.cotangent_inclusion

    def doubled(p):
        incl = real(p)
        return GradedMap(incl.source, incl.target, incl.matrix.scale(2),
                         check=True)

    monkeypatch.setattr(gauge, "cotangent_inclusion", doubled)
    for n in (1, 3):
        with pytest.raises(NotWellDefinedError, match="connecting image"):
            atiyah_class_line_bundle(0, ProjectiveSpace(n))


def test_atiyah_cochain_must_scale_the_generator(monkeypatch):
    real = gauge._atiyah_vector

    def off_by_one(a, p):
        vector = real(a, p)
        if a == 2:
            spot = next(iter(vector))
            vector[spot] += 1
        return vector

    monkeypatch.setattr(gauge, "_atiyah_vector", off_by_one)
    p = ProjectiveSpace(1)
    assert atiyah_class_line_bundle(3, p) == 3
    with pytest.raises(NotWellDefinedError, match="not 2 times"):
        atiyah_class_line_bundle(2, p)


def test_connection_exists_only_for_trivial_twist():
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        for a in range(-3, 4):
            assert connection_exists_line_bundle(a, p) == (a == 0)


def test_atiyah_cocycle_is_a_cocycle():
    p = ProjectiveSpace(2)
    coc = gauge._atiyah_vector(2, p)
    assert coc  # nonzero for a != 0
    zero = gauge._atiyah_vector(0, p)
    assert not zero


def test_random_cochain_fails_cocycle_check(monkeypatch):
    real = gauge._atiyah_vector

    def corrupted(a, p):
        # corrupt one entry: scale a single spot, breaking the triple overlap
        vector = real(a, p)
        spot = next(iter(vector))
        vector[spot] = vector[spot] * 3
        return vector

    monkeypatch.setattr(gauge, "_atiyah_vector", corrupted)
    with pytest.raises(NotWellDefinedError):
        atiyah_class_line_bundle(1, ProjectiveSpace(2))


def test_cochain_entry_off_the_euler_image_is_not_well_defined(monkeypatch):
    # the package rejects the moved entry by the Euler identity; the old
    # window check (the oracle) found it outside its window
    real = gauge._atiyah_vector
    bound = 2

    def too_deep(a, p):
        # x_i^-(bound+1) x_j^(bound-1) on the chart pair (i, j): the right
        # total degree, one exponent below the truncation
        vector = real(a, p)
        (i, j), r, exps = spot = next(iter(vector))
        deep = list(exps)
        deep[i], deep[j] = -(bound + 1), bound - 1
        vector[((i, j), r, tuple(deep))] = vector.pop(spot)
        return vector

    monkeypatch.setattr(gauge, "_atiyah_vector", too_deep)
    p = ProjectiveSpace(2)
    with pytest.raises(NotWellDefinedError, match="connecting image"):
        atiyah_class_line_bundle(1, p)
    with pytest.raises(ShapeError, match="outside the window"):
        cech_atiyah_residual(gauge._atiyah_vector(1, p), p, bound)


def test_jet_sequence_record_fields():
    p = ProjectiveSpace(2)
    rec = jet_sequence_record(3, p)
    assert rec.twist == 3
    # 0 -> Omega1(3) -> J^1 -> O(3) -> 0: Omega1 has three generators of
    # degree 2 and O(3) one of degree -3
    assert rec.left_cover_twists == (-1, -1, -1)
    assert rec.right_cover_twists == (-3,)
    assert rec.class_coordinate == Fraction(3)
    assert rec.splits is False
    assert jet_sequence_record(0, p).splits is True


def test_hom_pair_dim_vanishing_pairs():
    p = ProjectiveSpace(2)
    # pairs with honestly disjoint support whose Hom space really vanishes
    assert hom_pair_dim(1, 2, p) == 0
    assert hom_pair_dim(2, 1, p) == 0


def test_hom_pair_dim_skyscraper_finding():
    # target skyscraper column: Hom(S_i, Omega1 (x) S_3) is n-dimensional,
    # contradicting the support-disjointness of the loci; flagged, not hidden
    p = ProjectiveSpace(2)
    with pytest.raises(SupportDisjointFinding) as e:
        hom_pair_dim(1, 3, p)
    d = e.value.details
    assert d["hom_dim"] == 2
    assert d["source_generator"] == 1
    assert d["target_generator"] == 3


def test_lem1_table_reports_findings():
    p = ProjectiveSpace(2)
    table, findings = lem1_table(p)
    # diagonal pairs and the skyscraper column are findings on the plane
    assert len(findings) > 0
    finding_pairs = {(f["source_generator"], f["target_generator"])
                     for f in findings}
    assert (1, 3) in finding_pairs and (2, 3) in finding_pairs
    # entries that did vanish are recorded as zeros
    assert table[(1, 2)] == 0
    assert table[(2, 1)] == 0
    # finding cells carry no dimension in the table
    assert table[(1, 3)] is None


def test_hom_table_closed_form_for_n_2_to_4():
    """dim Hom(S_i, Omega1 (x) S_j) = n if j = n + 1, else 0, on P^2, P^3
    and P^4; a finding carries the dimension its table cell leaves out."""
    for n in (2, 3, 4):
        table, findings = lem1_table(ProjectiveSpace(n))
        dims = dict(table)
        for f in findings:
            dims[(f["source_generator"], f["target_generator"])] = f["hom_dim"]
        assert dims == {(i, j): n if j == n + 1 else 0
                        for i in range(1, n + 2) for j in range(1, n + 2)}


def test_parse_component():
    assert parse_component("O(3)") == ("O", 3)
    assert parse_component("O(-2)") == ("O", -2)
    assert parse_component("O") == ("O", 0)
    assert parse_component("S(2)") == ("S", 2)
    for name in ("T(1)", " Omega1 "):
        with pytest.raises(NonGeneratorTermError) as e:
            parse_component(name)
        assert str(e.value) == (f"brane component {name!r} is not of the "
                                "form S(k) or O(a)")


def test_line_brane_reports():
    p = ProjectiveSpace(2)
    f, dec = _line_brane(0, p)
    rep = gauge_field_count_bound(f, dec, p, brane_id="O")
    assert rep.count == "exactly_1"
    assert rep.atiyah_status == "zero"
    assert rep.hom_dim == 0

    f, dec = _line_brane(1, p)
    rep = gauge_field_count_bound(f, dec, p, brane_id="O(1)")
    assert rep.count == "exactly_0"
    assert rep.atiyah_status == "nonzero"


def test_torsion_generator_brane_at_most_one():
    p = ProjectiveSpace(2)
    s1 = generator(1, p).module
    s2 = generator(2, p).module
    f = embed_object(s1)
    rep = gauge_field_count_bound(f, {0: ["S(1)"]}, p, brane_id="S1")
    assert rep.count == "at_most_1"
    assert rep.hom_dim == 0
    assert rep.atiyah_status == "undecided"

    # a two-term complex of generators
    zero = GradedMap.zero_map(s1, s2)
    c = BoundedComplex(p.nvars, -1, [s1, s2], [zero])
    rep = gauge_field_count_bound(c, {-1: ["S(1)"], 0: ["S(2)"]}, p)
    assert rep.count == "at_most_1"
    assert rep.hom_dim == 0


def test_negative_control_has_no_bound():
    # O (+) O(2) on the line: Hom(O, Omega1 (x) O(2)) = H^0(O(0)) = 1
    p = ProjectiveSpace(1)
    from branegauge.modules import direct_sum
    m = direct_sum(p.structure_sheaf(0), p.structure_sheaf(2))
    f = embed_object(m)
    dec = {0: ["O(0)", "O(2)"]}
    assert not derived_hom_vanishes(f, dec, p)
    rep = gauge_field_count_bound(f, dec, p)
    assert rep.count == "no_bound"
    assert rep.hom_dim > 0
    rows = [r for r in derived_hom_table(f, dec, p) if r["dim"] != 0]
    assert {"source": "O(0)", "target": "O(2)"} == {
        "source": rows[0]["source"], "target": rows[0]["target"]}


def test_decomposition_mismatch_rejected():
    p = ProjectiveSpace(2)
    f = embed_object(p.structure_sheaf(1))
    with pytest.raises(NonGeneratorTermError):
        derived_hom_table(f, {0: ["O(2)"]}, p)
    with pytest.raises(NonGeneratorTermError):
        derived_hom_table(f, {}, p)


def test_gauge_report_invariants_enforced():
    with pytest.raises(Exception):
        GaugeReport("x", 0, "zero", "no_bound")
    with pytest.raises(Exception):
        GaugeReport("x", 2, "undecided", "at_most_1")
    with pytest.raises(Exception):
        GaugeReport("x", 0, "nonzero", "exactly_1")
    # consistent ones construct fine
    GaugeReport("x", 0, "zero", "exactly_1")
    GaugeReport("x", 0, "undecided", "at_most_1")
    GaugeReport("x", 3, "undecided", "no_bound")
