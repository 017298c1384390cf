"""Projective geometry layer: generator family, cotangent sheaf, sheaf Hom."""

import pytest

from branegauge import complexes, modules
from branegauge.errors import DeskScaleError, ZeroDivisorError
from branegauge.modules import (
    graded_piece_dim,
    hilbert_window,
    kernel,
    tensor,
    twist,
)
from branegauge.projective import (
    Locus,
    ProjectiveSpace,
    cotangent_inclusion,
    cotangent_sheaf,
    euler_map,
    generator,
    generator_family,
    hyperplane_ses,
    loci_disjoint,
    parse_sheaf_name,
    sheaf_cohomology_dim,
    sheaf_hom_dim,
    sheaf_module,
)

from _oracles import line_bundle_h, omega_piece_dim, saturation_sheaf_hom_dim


def test_space_bounds():
    assert ProjectiveSpace(1).nvars == 2
    assert ProjectiveSpace(4).nvars == 5
    for bad in (0, 5, -1):
        with pytest.raises(DeskScaleError):
            ProjectiveSpace(bad)


def test_builtin_sheaf_names_have_one_reader():
    p = ProjectiveSpace(3)
    cases = {"O": ("O", 0), "O(-2)": ("O", -2), "S(3)": ("S", 3),
             "Omega1": ("Omega1", None), "T(1)": None, "O(1)x": None}
    for name, parsed in cases.items():
        assert parse_sheaf_name(name) == parsed
    assert sheaf_module(("O", -2), p) == p.structure_sheaf(-2)
    assert sheaf_module(("S", 3), p) == generator(3, p).module
    assert sheaf_module(("Omega1", None), p) == cotangent_sheaf(p)


def test_structure_sheaf_sections():
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        for a in range(-3, 4):
            o = p.structure_sheaf(a)
            assert sheaf_cohomology_dim(o, 0) == line_bundle_h(n, a, 0)
            # h^0 is also Hom(O, O(a)), by the sheaf Hom route
            assert sheaf_hom_dim(p.structure_sheaf(0), o) == line_bundle_h(
                n, a, 0)


def test_generator_family_hilbert_windows():
    p = ProjectiveSpace(2)
    fam = generator_family(p)
    assert [g.index for g in fam] == [1, 2, 3]
    assert hilbert_window(fam[0].module, 0, 3) == [0, 1, 3, 6]
    assert hilbert_window(fam[1].module, 0, 3) == [0, 1, 2, 3]
    assert hilbert_window(fam[2].module, 0, 3) == [1, 1, 1, 1]


def test_generator_loci_disjoint_off_diagonal():
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        fam = generator_family(p)
        for a in fam:
            for b in fam:
                want = a.index != b.index
                assert loci_disjoint(a.locus, b.locus) == want


def test_locus_validation():
    with pytest.raises(Exception):
        Locus(2, frozenset({0}), 0)  # nonzero coordinate cannot also vanish


def test_cotangent_matches_euler_kernel():
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        om = cotangent_sheaf(p)
        ker = kernel(euler_map(p))
        for d in range(5):
            want = omega_piece_dim(n, d)
            assert graded_piece_dim(om, d) == want
            assert graded_piece_dim(ker, d) == want


def test_cotangent_inclusion_certified():
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        incl = cotangent_inclusion(p)
        assert (euler_map(p) * incl).is_zero_map()


def test_cotangent_on_line_is_o_minus_two():
    p = ProjectiveSpace(1)
    om = cotangent_sheaf(p)
    assert hilbert_window(om, 0, 4) == hilbert_window(
        p.structure_sheaf(-2), 0, 4)


def test_sheaf_hom_line_bundles():
    for n in (1, 2):
        p = ProjectiveSpace(n)
        for a in range(-2, 3):
            for b in range(-2, 3):
                got = sheaf_hom_dim(p.structure_sheaf(a),
                                    p.structure_sheaf(b))
                assert got == line_bundle_h(n, b - a, 0)


@pytest.mark.parametrize("n", [2, 3])
def test_duality_route_matches_the_saturation_oracle_on_lem1_pairs(n):
    p = ProjectiveSpace(n)
    om = cotangent_sheaf(p)
    family = [g.module for g in generator_family(p)]
    for s in family:
        for t in family:
            target = tensor(om, t)
            assert sheaf_hom_dim(s, target) == saturation_sheaf_hom_dim(s, target)


def test_duality_route_matches_the_saturation_oracle_on_line_bundles():
    for n in (1, 2):
        p = ProjectiveSpace(n)
        for a in range(-2, 3):
            for b in range(-2, 3):
                f, g = p.structure_sheaf(a), p.structure_sheaf(b)
                assert sheaf_hom_dim(f, g) == saturation_sheaf_hom_dim(f, g)


def test_sheaf_hom_builds_each_ext_window_once(monkeypatch):
    # every Ext piece of one RHom complex is read through one set of window
    # ranks, so no (pruned presentation, degree range) window is built twice
    # in a call
    calls = []
    real = complexes.hilbert_window

    def recording(m, lo, hi):
        calls.append((m.pruned_relations(), lo, hi))
        return real(m, lo, hi)

    monkeypatch.setattr(complexes, "hilbert_window", recording)
    p = ProjectiveSpace(3)
    om = cotangent_sheaf(p)
    family = [g.module for g in generator_family(p)]
    dims, builds = [], 0
    for s in family:
        for t in family:
            calls.clear()
            dims.append(sheaf_hom_dim(s, tensor(om, t)))
            assert len(calls) == len(set(calls))
            builds += len(calls)
    assert dims == [0, 0, 0, 3] * 4
    # 18 map ranks, each a target window and a cokernel window
    assert builds == 36


def test_sheaf_hom_generator_pairs():
    p = ProjectiveSpace(2)
    s1, s2, s3 = [g.module for g in generator_family(p)]
    assert sheaf_hom_dim(s2, s2) == 1
    assert sheaf_hom_dim(s3, s3) == 1
    assert sheaf_hom_dim(s1, s2) == 1
    assert sheaf_hom_dim(s3, p.structure_sheaf(0)) == 0


def test_sheaf_hom_into_twisted_cotangent():
    # Hom(O, Omega1(2)) = H^0(Omega1(2)): 3 on the plane
    p = ProjectiveSpace(2)
    om2 = twist(cotangent_sheaf(p), 2)
    assert sheaf_hom_dim(p.structure_sheaf(0), om2) == 3
    assert sheaf_cohomology_dim(om2, 0) == 3
    # and H^0(Omega1(1)) = 0
    assert sheaf_cohomology_dim(twist(cotangent_sheaf(p), 1), 0) == 0


def test_hyperplane_ses_on_line_bundle():
    p = ProjectiveSpace(2)
    f, proj = hyperplane_ses(p.structure_sheaf(0))
    assert (proj * f).is_zero_map()
    q = proj.target
    # the quotient is supported on the hyperplane x0 = 0
    assert hilbert_window(q, 0, 3) == [1, 2, 3, 4]


def test_hyperplane_ses_rejects_torsion():
    p = ProjectiveSpace(2)
    sky = generator(3, p).module
    with pytest.raises(ZeroDivisorError) as e:
        hyperplane_ses(sky)
    assert e.value.witness  # a nonzero kernel element is reported


def test_hyperplane_ses_asks_each_syzygy_question_once(monkeypatch):
    # injectivity of x0 and exactness in the middle: two syzygy runs; the
    # zero-divisor witness is computed only when x0 is not injective
    calls = []
    real = modules.syzygy_basis
    monkeypatch.setattr(modules, "syzygy_basis",
                        lambda *a: calls.append(a) or real(*a))
    hyperplane_ses(generator(1, ProjectiveSpace(2)).module)
    assert len(calls) == 2
    with pytest.raises(ZeroDivisorError) as e:
        hyperplane_ses(generator(2, ProjectiveSpace(2)).module)
    assert e.value.witness == ["-1"]
