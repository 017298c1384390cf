"""Acceptance gate: one criterion per test, one verdict line per criterion.

Every check is exact.  A criterion that is mathematically false fails red
here, with its findings printed above the verdict line.
"""

import math
import random
from fractions import Fraction

from branegauge.cli import main as cli_main
from branegauge.complexes import (
    BoundedComplex,
    ComplexMap,
    cohomology,
    cone,
    cone_rotation_equiv,
    cone_with_maps,
    embed_object,
    is_acyclic,
    shift,
)
from branegauge.gauge import (
    connection_exists_line_bundle,
    derived_hom_vanishes,
    gauge_field_count_bound,
    lem1_table,
)
from branegauge.groebner import buchberger, ideal_member
from branegauge.modules import (
    GradedMap,
    GradedModule,
    annihilator,
    direct_sum,
    free_resolution,
    hilbert_window,
)
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial
from branegauge.projective import (
    ProjectiveSpace,
    cotangent_sheaf,
    generator,
    generator_family,
    loci_disjoint,
    sheaf_cohomology_dim,
)

from _oracles import (
    DEFAULT_CECH_BOUND,
    dense_ideal_member,
    monomial_tuples,
    random_homogeneous,
    stabilized_cech_dim,
)


def _verdict(num: int, title: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num} ({title}): {tag}"
    if detail:
        line += f"; {detail}"
    print(line)
    assert ok, line


# -- 1: randomized derived-category calculus --------------------------------

NV = 2


def _rand_two_term(rng):
    rank = rng.choice([1, 1, 2])
    t0 = [rng.randint(-2, 1) for _ in range(rank)]
    t1 = [t + rng.randint(0, 2) for t in t0]
    f0 = GradedModule.free(NV, tuple(t0))
    f1 = GradedModule.free(NV, tuple(t1))
    cols = []
    for c in range(rank):
        col = []
        for r in range(rank):
            d = t1[c] - t0[r]
            col.append(random_homogeneous(rng, NV, d) if d >= 0
                       else Polynomial.zero(NV))
        cols.append(col)
    mat = PolyMatrix.from_columns(NV, tuple(t0), cols, list(t1))
    return BoundedComplex(NV, -1, [f1, f0], [GradedMap(f1, f0, mat)])


def _scalar_id(c, r):
    levels = {i: GradedMap.identity(c.term(i)).scale(r) for i in c.window()}
    return ComplexMap(c, c, levels)


def _full_checks(c, h):
    assert c.is_complex()
    assert is_acyclic(cone(ComplexMap.identity(c)))
    for k in (-1, 2):
        s = shift(c, k)
        assert s.is_complex()
        for i in range(c.lo - k - 1, c.hi - k + 2):
            assert (hilbert_window(cohomology(s, i), -2, 2)
                    == hilbert_window(cohomology(c, i + k), -2, 2))
    assert cone_rotation_equiv(h)


def test_criterion_1_randomized_complexes():
    rng = random.Random(20260823)
    count = 0
    for it in range(100):
        a = _rand_two_term(rng)
        h = _scalar_id(a, Fraction(rng.choice([0, 1, -2, 3])))
        _full_checks(a, h)
        count += 1
        con, incl, proj = cone_with_maps(h)
        assert con.is_complex()
        assert proj.target.is_complex()
        h2 = _scalar_id(con, Fraction(rng.choice([1, 2])))
        _full_checks(con, h2)
        count += 1
        if it % 5 == 0:
            # one more constructor layer: the cone over the inclusion
            con2 = cone(incl)
            _full_checks(con2, _scalar_id(con2, Fraction(1)))
            count += 1
    _verdict(1, "randomized complex calculus", count >= 200,
             f"{count} complexes checked")


# -- 2: resolution lengths and Koszul ranks ---------------------------------

def test_criterion_2_resolution_bounds():
    rng = random.Random(7)
    cases = []  # (n of the ambient space, module)
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        for g in generator_family(p):
            cases.append((n, g.module))
        cases.append((n, cotangent_sheaf(p)))
        cases.append((n, p.structure_sheaf(n - 2)))
    for n in (1, 2):
        nv = n + 1
        for _ in range(3):
            f = random_homogeneous(rng, nv, rng.randint(1, 2))
            if f.is_zero:
                continue
            rel = PolyMatrix.from_columns(
                nv, (0,), [[f]], [f.homogeneous_degree()])
            cases.append((n, GradedModule(rel)))
    koszul_ok = True
    for n in (1, 2, 3):
        nv = n + 1
        cols = [[Polynomial.variable(nv, i)] for i in range(nv)]
        m = GradedModule(PolyMatrix.from_columns(nv, (0,), cols, [1] * nv))
        cases.append((n, m))
        res = free_resolution(m)
        for i in range(res.length + 1):
            if res.betti(i) != math.comb(nv, i):
                koszul_ok = False
    length_ok = True
    for n, m in cases:
        if free_resolution(m).length > n + 1:
            length_ok = False
    ok = koszul_ok and length_ok and len(cases) >= 20
    _verdict(2, "resolution length and Koszul ranks", ok,
             f"{len(cases)} modules, koszul_ok={koszul_ok}, "
             f"length_ok={length_ok}")


# -- 3: generator loci and annihilators -------------------------------------

def test_criterion_3_loci_and_annihilators():
    ok = True
    detail = []
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        fam = generator_family(p)
        for a in fam:
            for b in fam:
                if a.index != b.index and not loci_disjoint(a.locus, b.locus):
                    ok = False
                    detail.append(f"n={n} pair ({a.index},{b.index}) overlap")
        for g in fam:
            want = [f"x{i}" for i in range(g.index - 1)]
            got = sorted(str(q) for q in annihilator(g.module))
            if got != want:
                ok = False
                detail.append(f"n={n} ann(S_{g.index}) = {got}")
    _verdict(3, "generator loci and annihilators", ok,
             "; ".join(detail) or "n=1,2,3 all pairs")


# -- 4: componentwise Hom vanishing across the family -----------------------

def test_criterion_4_hom_vanishing_table():
    bad = 0
    for n in (2, 3):
        p = ProjectiveSpace(n)
        table, findings = lem1_table(p)
        for f in findings:
            bad += 1
            print(
                f"finding: n={f['n']} Hom(S_{f['source_generator']}, "
                f"Omega1 (x) S_{f['target_generator']}) has dim "
                f"{f['hom_dim']} although the declared loci are disjoint"
            )
        for (i, j), dim in sorted(table.items()):
            if dim not in (0, None):
                bad += 1
                print(f"nonzero: n={n} Hom(S_{i}, Omega1 (x) S_{j}) "
                      f"has dim {dim}")
    _verdict(4, "componentwise Hom vanishing", bad == 0,
             f"{bad} nonzero entries across n=2,3")


# -- 5: cover cohomology ground truths --------------------------------------

def test_criterion_5_cech_values():
    ok = True
    detail = []
    b = DEFAULT_CECH_BOUND
    p1 = ProjectiveSpace(1)
    checks = [("h^0(O) on n=1", p1.structure_sheaf(0), 0, 1),
              ("h^1(O(-2)) on n=1", p1.structure_sheaf(-2), 1, 1)]
    for n in (1, 2, 3):
        om = cotangent_sheaf(ProjectiveSpace(n))
        checks.append((f"h^0(Omega1) n={n}", om, 0, 0))
        checks.append((f"h^1(Omega1) n={n}", om, 1, 1))
    for label, m, i, want in checks:
        for route, got in (("duality", sheaf_cohomology_dim(m, i)),
                           ("Cech", stabilized_cech_dim(m, i, b))):
            if got != want:
                ok = False
                detail.append(f"{label} by {route}: {got} != {want}")
    _verdict(5, "cover cohomology values", ok,
             "; ".join(detail)
             or f"by local duality, and by Cech windows at bound {b}")


# -- 6: connections on line bundles -----------------------------------------

def test_criterion_6_line_bundle_connections():
    ok = True
    detail = []
    for n in (1, 2, 3):
        p = ProjectiveSpace(n)
        for a in range(-3, 4):
            got = connection_exists_line_bundle(a, p)
            if got != (a == 0):
                ok = False
                detail.append(f"n={n} a={a}: {got}")
        rep = gauge_field_count_bound(
            embed_object(p.structure_sheaf(0)), {0: ["O(0)"]}, p,
            brane_id="O")
        if rep.count != "exactly_1":
            ok = False
            detail.append(f"n={n} O-brane count {rep.count}")
    _verdict(6, "line bundle connections", ok,
             "; ".join(detail) or "a in [-3,3], n=1,2,3")


# -- 7: uniqueness bound on generator-built branes --------------------------

def test_criterion_7_generator_brane_bound():
    ok = True
    detail = []
    count = 0

    def brane(p, layout):
        """layout: degree -> list of component names; zero differentials."""
        degs = sorted(layout)
        terms = []
        for i in degs:
            mods = [generator(int(name[2]), p).module for name in layout[i]]
            terms.append(direct_sum(*mods) if len(mods) > 1 else mods[0])
        diffs = [GradedMap.zero_map(terms[k], terms[k + 1])
                 for k in range(len(terms) - 1)]
        return BoundedComplex(p.nvars, degs[0], terms, diffs), layout

    p2, p3 = ProjectiveSpace(2), ProjectiveSpace(3)
    corpus = [
        brane(p2, {0: ["S(1)"]}),
        brane(p2, {0: ["S(2)"]}),
        brane(p2, {0: ["S(1)", "S(2)"]}),
        brane(p2, {-1: ["S(1)"], 0: ["S(2)"]}),
        brane(p2, {-1: ["S(2)"], 0: ["S(1)", "S(2)"]}),
        brane(p3, {0: ["S(1)"]}),
        brane(p3, {0: ["S(3)"]}),
        brane(p3, {0: ["S(1)", "S(3)"]}),
        brane(p3, {-1: ["S(2)"], 0: ["S(3)"]}),
        brane(p3, {-2: ["S(1)"], -1: ["S(2)"], 0: ["S(3)"]}),
    ]
    # one brane with a nonzero differential: the projection S_1 -> S_2
    s1, s2 = generator(1, p2).module, generator(2, p2).module
    proj = GradedMap(s1, s2, PolyMatrix.identity(2 + 1, (1,)), check=False)
    corpus.append((BoundedComplex(3, -1, [s1, s2], [proj]),
                   {-1: ["S(1)"], 0: ["S(2)"]}))

    for f, layout in corpus:
        p = p2 if f.nvars == 3 else p3
        rep = gauge_field_count_bound(f, layout, p)
        count += 1
        if rep.count != "at_most_1" or rep.hom_dim != 0:
            ok = False
            detail.append(f"{layout}: {rep.count} hom_dim={rep.hom_dim}")

    # negative control: O (+) O(2) on the line admits extra Hom directions
    p1 = ProjectiveSpace(1)
    m = direct_sum(p1.structure_sheaf(0), p1.structure_sheaf(2))
    neg = embed_object(m)
    dec = {0: ["O(0)", "O(2)"]}
    if derived_hom_vanishes(neg, dec, p1):
        ok = False
        detail.append("negative control vanished")
    else:
        rep = gauge_field_count_bound(neg, dec, p1)
        if rep.count != "no_bound":
            ok = False
            detail.append(f"negative control count {rep.count}")

    ok = ok and count >= 10
    _verdict(7, "generator brane uniqueness bound", ok,
             "; ".join(detail) or f"{count} branes, control refused")


# -- 8: membership agrees with dense linear algebra -------------------------

def _random_poly_dict(rng, nv, d):
    mons = monomial_tuples(nv, d)
    out = {}
    for mon in rng.sample(mons, min(len(mons), rng.randint(1, 3))):
        c = rng.randint(-3, 3)
        if c:
            out[mon] = Fraction(c)
    return out


def _dict_mul(a, b):
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(x + y for x, y in zip(ma, mb))
            c = out.get(m, Fraction(0)) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def test_criterion_8_membership_cross_check():
    rng = random.Random(814)
    ideals = 0
    checks = 0
    ok = True
    while ideals < 55:
        nv = rng.choice([2, 3])
        gen_dicts = []
        for _ in range(rng.randint(1, 3)):
            gd = _random_poly_dict(rng, nv, rng.randint(1, 2))
            if gd:
                gen_dicts.append(gd)
        if not gen_dicts:
            continue
        ideals += 1
        gb = buchberger([Polynomial(nv, g) for g in gen_dicts])
        for _ in range(4):
            if rng.random() < 0.5:
                # honest member: generator times a monomial multiplier
                g = gen_dicts[rng.randrange(len(gen_dicts))]
                mult = _random_poly_dict(rng, nv, rng.randint(0, 2))
                fd = _dict_mul(g, mult)
            else:
                fd = _random_poly_dict(rng, nv, rng.randint(1, 4))
            if not fd:
                continue
            deg = max(sum(m) for m in fd)
            if deg > 4:
                continue
            got = ideal_member(Polynomial(nv, fd), gb)
            want = dense_ideal_member(gen_dicts, fd, nv)
            checks += 1
            if got != want:
                ok = False
    ok = ok and ideals >= 50
    _verdict(8, "membership vs dense linear algebra", ok,
             f"{ideals} ideals, {checks} membership checks")


# -- 9: byte-identical reports ----------------------------------------------

_FULL_RUN = """\
[ring]
n = 2

[module M]
twists = [0]
relations = [["x0"], ["x1"], ["x2"]]

[complex K]
degrees = 0..1
term 0 = O(-1)
term 1 = O(0)
map 0 = [["x0"]]

[complex OB]
degrees = 0..0
term 0 = O(0)
generators 0 = [O(0)]

[task resolve]
module = M

[task shift]
complex = K
k = 1

[task cone]
source = K
target = K
level 0 = [["1"]]
level 1 = [["1"]]

[task hom-complex]
source = K
target = K

[task triangle-from-ses]
source = O(-1)
target = O(0)
matrix = [["x0"]]

[task generators]

[task disjointness]
i = 1
j = 2

[task sheaf-hom]
source = S(3)
target = O(0)

[task cech]
module = O(-2)
i = 1

[task lem1-check]

[task atiyah]
a = 2

[task gauge-bound]
complex = OB

[task quasi-iso]
source = K
target = K
level 0 = [["1"]]
level 1 = [["1"]]

[task annihilator]
module = S(2)
"""


def test_criterion_9_deterministic_reports(tmp_path, capsys):
    src = tmp_path / "full.bg"
    src.write_text(_FULL_RUN)
    r1, r2 = tmp_path / "run1.report", tmp_path / "run2.report"
    c1 = cli_main(["run", str(src), "--report", str(r1)])
    c2 = cli_main(["run", str(src), "--report", str(r2)])
    capsys.readouterr()
    b1, b2 = r1.read_bytes(), r2.read_bytes()
    ok = b1 == b2 and c1 == c2
    with capsys.disabled():
        pass
    _verdict(9, "byte identical reports", ok,
             f"{len(b1)} bytes, exit {c1} both runs")
