"""The run-scoped cache: hashable presentations, one memo dict per run."""

import pytest

import branegauge.projective as projective
from branegauge.errors import SupportDisjointFinding
from branegauge.gauge import hom_pair_dim
from branegauge.manifest import parse_manifest
from branegauge.modules import GradedModule, saturate, tensor, twist
from branegauge.polymatrix import PolyMatrix
from branegauge.polynomials import Polynomial
from branegauge.projective import (
    ProjectiveSpace,
    cotangent_sheaf,
    generator,
    sheaf_hom_dim,
)
from branegauge.tasks import run_tasks


def _module(entry: str, twist_: int = 0) -> GradedModule:
    return GradedModule(
        PolyMatrix.from_strings(3, (twist_,), (twist_ + 1, twist_ + 1),
                                [[entry, "x2"]])
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


def test_finding_fires_again_with_a_shared_cache():
    p = ProjectiveSpace(2)
    cache: dict = {}
    for _ in range(2):
        with pytest.raises(SupportDisjointFinding) as e:
            hom_pair_dim(1, 3, p, cache)
        assert e.value.details["hom_dim"] == 2
    assert ("hom_pair", 2, 1, 3) not in cache
    assert any(key[0] == "saturate" for key in cache)


def test_cache_gives_the_uncached_answers(monkeypatch):
    p = ProjectiveSpace(2)
    om = cotangent_sheaf(p)
    pairs = [(generator(i, p).module, tensor(om, generator(j, p).module))
             for i in (1, 2) for j in (1, 2)]
    plain = [sheaf_hom_dim(f, g) for f, g in pairs]
    cache: dict = {}
    assert [sheaf_hom_dim(f, g, cache) for f, g in pairs] == plain
    saturations = [key for key in cache if key[0] == "saturate"]
    assert saturations
    for key in saturations:
        _, module, floor = key
        assert cache[key] == saturate(module, floor)

    # rebuilt, equal inputs hit the cache: no saturation is recomputed
    calls = []
    real = projective.saturate
    monkeypatch.setattr(projective, "saturate",
                        lambda *a: calls.append(a) or real(*a))
    rebuilt = [(generator(i, p).module,
                tensor(cotangent_sheaf(p), generator(j, p).module))
               for i in (1, 2) for j in (1, 2)]
    assert [sheaf_hom_dim(f, g, cache) for f, g in rebuilt] == plain
    assert calls == []


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
