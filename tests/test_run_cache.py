"""The run-scoped cache: hashable presentations, one memo dict per run."""

from fractions import Fraction

import pytest

import branegauge.gauge as gauge
import branegauge.projective as projective
from branegauge.errors import NotWellDefinedError, SupportDisjointFinding
from branegauge.gauge import atiyah_class_line_bundle, hom_pair_dim
from branegauge.manifest import parse_manifest
from branegauge.modules import GradedModule, tensor, twist
from branegauge.polynomials import Polynomial
from branegauge.projective import (
    ProjectiveSpace,
    cotangent_sheaf,
    generator,
    sheaf_cohomology_dim,
    sheaf_hom_dim,
)
from branegauge.tasks import run_tasks

from _oracles import (
    CechStabilizationError,
    from_strings,
    matrix_from_rows,
    stabilized_cech_dim,
)


def _module(entry: str, twist_: int = 0) -> GradedModule:
    return GradedModule(
        from_strings(3, (twist_,), (twist_ + 1, twist_ + 1), [[entry, "x2"]])
    )


def test_equal_presentations_hash_equal():
    p = ProjectiveSpace(2)
    a, b = cotangent_sheaf(p), cotangent_sheaf(p)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a.relations == b.relations
    assert hash(a.relations) == hash(b.relations)
    # term order inside an entry does not matter
    assert _module("x0 + x1") == _module("x1 + x0")
    assert hash(_module("x0 + x1")) == hash(_module("x1 + x0"))
    assert {a: 1}[b] == 1


def test_changed_twist_or_coefficient_differs():
    base = _module("x0 + x1")
    for other in (_module("x0 + x1", twist_=1), _module("2*x0 + x1"),
                  twist(base, -1)):
        assert other != base
        assert hash(other) != hash(base)
    with pytest.raises(TypeError):
        hash(Polynomial.one(3))


def test_integral_fraction_and_int_share_one_cache_entry():
    def target(c) -> GradedModule:  # O / (c*x0 + x1, x2)
        entry = Polynomial(3, {(1, 0, 0): c, (0, 1, 0): 1})
        return GradedModule(matrix_from_rows(
            3, (0,), (1, 1), [[entry, Polynomial.variable(3, 2)]]))

    by_fraction, by_int = target(Fraction(2)), target(2)
    half = target(Fraction(1, 2))
    assert by_fraction == by_int and hash(by_fraction) == hash(by_int)
    assert half != by_int and hash(half) != hash(by_int)
    source = ProjectiveSpace(2).structure_sheaf(0)
    cache: dict = {}
    dims = [sheaf_hom_dim(source, g, cache) for g in (by_fraction, by_int, half)]
    assert dims[0] == dims[1]
    assert list(cache) == [("sheaf_hom", source, by_int),
                           ("sheaf_hom", source, half)]
    assert list(cache.values()) == dims[1:]


def test_finding_fires_again_with_a_shared_cache():
    p = ProjectiveSpace(2)
    cache: dict = {}
    for _ in range(2):
        with pytest.raises(SupportDisjointFinding) as e:
            hom_pair_dim(1, 3, p, cache)
        assert e.value.details["hom_dim"] == 2
    assert ("hom_pair", 2, 1, 3) not in cache
    gi, gj = generator(1, p).module, generator(3, p).module
    assert cache[("sheaf_hom", gi, tensor(cotangent_sheaf(p), gj))] == 2


def test_cache_gives_the_uncached_answers(monkeypatch):
    p = ProjectiveSpace(2)
    om = cotangent_sheaf(p)
    pairs = [(generator(i, p).module, tensor(om, generator(j, p).module))
             for i in (1, 2) for j in (1, 2)]
    plain = [sheaf_hom_dim(f, g) for f, g in pairs]
    cache: dict = {}
    assert [sheaf_hom_dim(f, g, cache) for f, g in pairs] == plain
    # one int per pair, the uncached answer
    assert list(cache) == [("sheaf_hom", f, g) for f, g in pairs]
    assert list(cache.values()) == plain
    assert all(type(v) is int for v in plain)

    # rebuilt, equal inputs hit the cache: no Hom module is recomputed
    calls = []
    real = projective.hom_module
    monkeypatch.setattr(projective, "hom_module",
                        lambda *a: calls.append(a) or real(*a))
    rebuilt = [(generator(i, p).module,
                tensor(cotangent_sheaf(p), generator(j, p).module))
               for i in (1, 2) for j in (1, 2)]
    assert [sheaf_hom_dim(f, g, cache) for f, g in rebuilt] == plain
    assert calls == []
    # the recorder does see an uncached question
    assert sheaf_hom_dim(*rebuilt[0]) == plain[0]
    assert len(calls) == 1


def _keys(cache, namespace):
    return [key[1:] for key in cache if key[0] == namespace]


def test_cech_and_atiyah_cache_gives_the_uncached_answers(monkeypatch):
    spaces = [ProjectiveSpace(n) for n in (1, 2, 3)]
    cases = [(cotangent_sheaf(p), i) for p in spaces for i in range(p.n + 1)]
    twists = range(-3, 4)
    plain_h = [sheaf_cohomology_dim(m, i) for m, i in cases]
    plain_a = [atiyah_class_line_bundle(a, p) for p in spaces[:2]
               for a in twists]
    assert plain_h == [0, 1, 0, 1, 0, 0, 1, 0, 0]
    assert plain_a == [Fraction(a) for a in twists] * 2

    cache: dict = {}
    assert [sheaf_cohomology_dim(m, i, cache=cache) for m, i in cases] == plain_h
    assert [atiyah_class_line_bundle(a, p, cache=cache) for p in spaces[:2]
            for a in twists] == plain_a

    # one tuple of duality numbers per module: h^i of Omega1, which the
    # Atiyah class's Euler certificate shares, and h^0 of O(-1)^{n+1}
    assert [cache[("sheaf_h", m)] for m, i in cases if i == 0] == [
        (0, 1), (0, 1, 0), (0, 1, 0, 0)]
    middles = [GradedModule.free(p.nvars, (1,) * p.nvars) for p in spaces[:2]]
    assert [cache[("sheaf_h", m)][0] for m in middles] == [0, 0]
    assert len(cache) == len(spaces) + len(middles)
    # only tuples of ints: no cochain, no tracker, no window, no complex
    for key, value in cache.items():
        assert key[0] == "sheaf_h"
        assert type(value) is tuple and len(value) == key[1].nvars
        assert all(type(v) is int for v in value)

    # equal inputs hit the cache: no RHom complex is built again
    calls = []
    real_rhom = projective.rhom_complex
    monkeypatch.setattr(projective, "rhom_complex",
                        lambda m, n: calls.append(m) or real_rhom(m, n))
    again = [sheaf_cohomology_dim(cotangent_sheaf(ProjectiveSpace(m.nvars - 1)),
                                  i, cache=cache) for m, i in cases]
    assert again == plain_h
    assert [atiyah_class_line_bundle(a, p, cache=cache) for p in spaces[:2]
            for a in twists] == plain_a
    assert calls == []


def test_line_bundles_and_the_cotangent_sheaf_share_a_cache():
    # on the line Omega1 is presented exactly as O(-2): one set of entries;
    # the other twists keep their own
    p = ProjectiveSpace(1)
    o, om = p.structure_sheaf(-2), cotangent_sheaf(p)
    assert o == om and hash(o) == hash(om)
    modules = [o, om, p.structure_sheaf(0), p.structure_sheaf(-3)]
    plain = [sheaf_cohomology_dim(m, i) for m in modules for i in (0, 1)]
    cache: dict = {}
    assert [sheaf_cohomology_dim(m, i, cache=cache)
            for m in modules for i in (0, 1)] == plain
    assert plain == [0, 1, 0, 1, 1, 0, 0, 2]
    assert {m for m, in _keys(cache, "sheaf_h")} == set(modules)
    assert len(cache) == 3


def test_stabilization_error_fires_again_with_a_shared_cache():
    # the Cech oracle's memo keeps level ranks, never its verdict; the
    # package's number needs no window at all
    o = ProjectiveSpace(1).structure_sheaf(-5)
    cache: dict = {}
    for _ in range(2):
        with pytest.raises(CechStabilizationError):
            stabilized_cech_dim(o, 1, bound=2, cache=cache)
    assert stabilized_cech_dim(o, 1, bound=4, cache=cache) == 4
    assert sheaf_cohomology_dim(o, 1, cache=cache) == 4


def test_corrupt_generating_cochain_is_never_cached(monkeypatch):
    real = gauge._atiyah_vector

    def corrupted(a, p):
        vector = real(a, p)
        spot = next(iter(vector), None)
        if spot is not None:
            vector[spot] *= 3  # breaks the triple-overlap condition
        return vector

    monkeypatch.setattr(gauge, "_atiyah_vector", corrupted)
    p = ProjectiveSpace(2)
    cache: dict = {}
    for a in (1, 1, 2, 0):
        with pytest.raises(NotWellDefinedError):
            atiyah_class_line_bundle(a, p, cache=cache)
    # the identity fails before any h^i is read, so nothing is stored
    assert cache == {}


MANIFEST_HEAD = """\
[ring]
n = 2

[complex B1]
degrees = 0..0
term 0 = S(1)
generators 0 = [S(1)]

[complex B2]
degrees = -1..0
term -1 = S(1)
term 0 = S(2)
generators -1 = [S(1)]
generators 0 = [S(2)]
"""

TASKS = [
    "[task lem1-check]\n",
    "[task gauge-bound]\ncomplex = B1\n",
    "[task gauge-bound]\ncomplex = B2\n",
    "[task sheaf-hom]\nsource = S(1)\ntarget = Omega1\n",
]


def _reports(tasks):
    text = MANIFEST_HEAD + "".join("\n" + t for t in tasks)
    return [(r.kind, r.status, r.payload)
            for r in run_tasks(parse_manifest(text))]


def test_one_manifest_matches_one_task_per_manifest():
    together = _reports(TASKS)
    apart = [_reports([t])[0] for t in TASKS]
    assert together == apart
    assert _reports(TASKS) == together
    assert [status for _, status, _ in together] == [
        "finding", "ok", "ok", "ok"]


CECH_MANIFEST_HEAD = "[ring]\nn = 2\n"

CECH_TASKS = (
    [f"[task atiyah]\na = {a}\n" for a in (-1, 0, 2)]
    + [f"[task cech]\nmodule = Omega1\ni = {i}\n" for i in range(3)]
    + ["[task cech]\nmodule = O(-3)\ni = 2\n",
       "[task atiyah]\na = 1\n"]
)


def _cech_reports(tasks):
    text = CECH_MANIFEST_HEAD + "".join("\n" + t for t in tasks)
    return [(r.kind, r.status, r.payload)
            for r in run_tasks(parse_manifest(text))]


def test_cech_manifest_matches_one_task_per_manifest():
    together = _cech_reports(CECH_TASKS)
    apart = [_cech_reports([t])[0] for t in CECH_TASKS]
    assert together == apart
    assert all(status == "ok" for _, status, _ in together)
    dims = [dict(payload).get("dim") for kind, _, payload in together
            if kind == "cech"]
    assert dims == ["0", "1", "0", "1"]


def test_cech_manifest_reads_each_duality_tuple_once(monkeypatch):
    # the atiyah and cech tasks share Omega1's duality tuple; the Euler
    # certificate adds O(-1)^3's; no task builds a Cech window
    apart = [_cech_reports([t])[0] for t in CECH_TASKS]
    calls = []
    real = projective._duality_h
    monkeypatch.setattr(projective, "_duality_h",
                        lambda m, top: calls.append(m) or real(m, top))
    assert _cech_reports(CECH_TASKS) == apart
    p = ProjectiveSpace(2)
    assert calls == [GradedModule.free(3, (1, 1, 1)), cotangent_sheaf(p),
                     p.structure_sheaf(-3)]
    assert [dict(payload) for kind, _, payload in apart if kind == "cech"] == [
        {"module": m, "i": i, "dim": d} for m, i, d in
        [("Omega1", "0", "0"), ("Omega1", "1", "1"), ("Omega1", "2", "0"),
         ("O(-3)", "2", "1")]]
