"""Holomorphic gauge-field counting for branes built from the generator
family.

The obstruction side is the Atiyah class of a line bundle, computed as an
honest Cech 1-cocycle with values in the cotangent sheaf and located against
the generating class of h^1.  The uniqueness side is the vanishing of the
sheaf-level Hom table between generators twisted by the cotangent sheaf;
support metadata provides a shortcut prediction, and any disagreement between
the shortcut and the exact computation aborts with a structured finding.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .cech import (
    DEFAULT_CECH_BOUND,
    CechStabilizationError,
    cech_level,
    cech_relation_columns,
    coboundary_tracker,
)
from .complexes import BoundedComplex
from .errors import (
    Finding,
    NonGeneratorTermError,
    NotWellDefinedError,
    ShapeError,
    SupportDisjointFinding,
)
from .linalg import SpanTracker, vec_axpy
from .modules import direct_sum, tensor
from .projective import (
    ProjectiveSpace,
    _pair_index,
    cotangent_sheaf,
    generator,
    loci_disjoint,
    sheaf_hom_dim,
)


class CechCocycle:
    """A 1-cochain with module values on the standard charts, stored on
    sorted chart pairs (antisymmetry is representational).

    Validates the triple-overlap cocycle condition inside the truncated
    window, modulo the localized relation span.
    """

    __slots__ = ("module", "bound", "vector")

    def __init__(self, module, vector: dict, bound: int = DEFAULT_CECH_BOUND,
                 check: bool = True):
        self.module = module
        self.bound = bound
        self.vector = dict(vector)
        lv = cech_level(module, 1, bound)
        for spot in self.vector:
            if spot not in lv.index:
                raise ShapeError(f"cocycle entry outside the window: {spot}")
        if check:
            self._check_cocycle(lv)

    def _check_cocycle(self, lv):
        nv = self.module.nvars
        up = cech_level(self.module, 2, bound=self.bound)
        image = {}
        for (charts, r, a), coeff in self.vector.items():
            for j in range(nv):
                if j in charts:
                    continue
                bigger = tuple(sorted(charts + (j,)))
                sign = (-1) ** bigger.index(j)
                key = up.index[(bigger, r, a)]
                cur = image.get(key, Fraction(0)) + sign * coeff
                if cur:
                    image[key] = cur
                else:
                    image.pop(key, None)
        tracker = SpanTracker()
        for col in cech_relation_columns(up):
            tracker.insert(col)
        if tracker.residual(image):
            raise NotWellDefinedError(
                "cochain fails the triple-overlap cocycle condition"
            )

    def indexed(self, lv) -> dict:
        return {lv.index[s]: c for s, c in self.vector.items()}


def atiyah_cocycle_line_bundle(a: int, p: ProjectiveSpace,
                               bound: int = DEFAULT_CECH_BOUND) -> CechCocycle:
    """The Atiyah cocycle of O(a): on the overlap of charts i < j the value
    is -a * x_i^{-1} x_j^{-1} w_ij, the logarithmic transition derivative."""
    nv = p.nvars
    om = cotangent_sheaf(p)
    _, index = _pair_index(nv)
    vector = {}
    if a != 0:
        for (i, j), r in index.items():
            exps = tuple(-1 if k in (i, j) else 0 for k in range(nv))
            vector[((i, j), r, exps)] = Fraction(-a)
    return CechCocycle(om, vector, bound=bound)


def _class_coordinate_at(a: int, p: ProjectiveSpace, bound: int) -> Fraction:
    om = cotangent_sheaf(p)
    lv, tracker = coboundary_tracker(om, 1, bound)
    basis = atiyah_cocycle_line_bundle(1, p, bound)
    target = atiyah_cocycle_line_bundle(a, p, bound)
    r_basis = tracker.residual(basis.indexed(lv))
    if not r_basis:
        raise AssertionError("generating class of h^1 reduced to a coboundary")
    r_target = tracker.residual(target.indexed(lv))
    if not r_target:
        return Fraction(0)
    lead = max(r_basis)
    if lead not in r_target:
        raise Finding(
            "cocycle class is not proportional to the generating class",
            details={"twist": a},
        )
    c = r_target[lead] / r_basis[lead]
    vec_axpy(r_target, -c, r_basis)
    if r_target:
        raise Finding(
            "cocycle class is not proportional to the generating class",
            details={"twist": a},
        )
    return c


def atiyah_class_line_bundle(a: int, p: ProjectiveSpace,
                             bound: int | None = None) -> Fraction:
    """Coordinate of the Atiyah class of O(a) against the stored generating
    class of h^1 of the cotangent sheaf.  Stabilized across two bounds."""
    if bound is None:
        bound = DEFAULT_CECH_BOUND
    first = _class_coordinate_at(a, p, bound)
    second = _class_coordinate_at(a, p, bound + 1)
    if first != second:
        raise CechStabilizationError(
            f"atiyah coordinate gave {first} at bound {bound} but {second} "
            f"at bound {bound + 1}"
        )
    return first


def connection_exists_line_bundle(a: int, p: ProjectiveSpace,
                                  bound: int | None = None) -> bool:
    """A holomorphic connection on O(a) exists iff the Atiyah class vanishes."""
    return atiyah_class_line_bundle(a, p, bound) == 0


@dataclass(frozen=True)
class JetSequenceRecord:
    """The first-jet extension 0 -> left -> J^1 -> right -> 0 of a line
    bundle, with the extension class coordinate and its splitting verdict."""

    twist: int
    left_cover_twists: tuple
    right_cover_twists: tuple
    class_coordinate: Fraction
    splits: bool


def jet_sequence_record(a: int, p: ProjectiveSpace,
                        bound: int | None = None) -> JetSequenceRecord:
    from .modules import twist as twist_module

    om = cotangent_sheaf(p)
    left = twist_module(om, a)
    right = p.structure_sheaf(a)
    coord = atiyah_class_line_bundle(a, p, bound)
    return JetSequenceRecord(
        twist=a,
        left_cover_twists=left.cover_twists,
        right_cover_twists=right.cover_twists,
        class_coordinate=coord,
        splits=(coord == 0),
    )


# -- the vanishing table ----------------------------------------------------


def hom_pair_dim(i: int, j: int, p: ProjectiveSpace, cache: dict | None = None) -> int:
    """dim Hom(S_i, Omega^1 tensor S_j), with the support-shortcut
    cross-check.  Disagreement between disjoint-locus metadata and the exact
    dimension raises SupportDisjointFinding.

    `cache` is the caller's memo dict, shared with sheaf_hom_dim; one dict
    per run (tasks.run_tasks) or per batch call, never a global.  Without it
    nothing outlives the call.  A pair that raises stores no dimension, so
    the finding fires again on every call for that pair."""
    if cache is None:
        cache = {}
    key = ("hom_pair", p.n, i, j)
    if key in cache:
        return cache[key]
    gi = generator(i, p)
    gj = generator(j, p)
    om = cotangent_sheaf(p)
    dim = sheaf_hom_dim(gi.module, tensor(om, gj.module), cache)
    if loci_disjoint(gi.locus, gj.locus) and dim != 0:
        raise SupportDisjointFinding(
            "support metadata predicts a vanishing Hom space but the exact "
            "computation disagrees",
            details={
                "n": p.n,
                "source_generator": i,
                "target_generator": j,
                "hom_dim": dim,
                "source_locus_zeros": sorted(gi.locus.zero_indices),
                "target_locus_zeros": sorted(gj.locus.zero_indices),
            },
        )
    cache[key] = dim
    return dim


def hom_vanishing_certificate(i: int, j: int, p: ProjectiveSpace) -> bool:
    """True iff Hom(S_i, Omega^1 tensor S_j) = 0, computed exactly."""
    return hom_pair_dim(i, j, p) == 0


def lem1_table(p: ProjectiveSpace, cache: dict | None = None):
    """The full vanishing table over generator pairs.

    Returns (table, findings): table maps (i, j) to a dim-or-None entry,
    None when the pair aborted with a support finding; findings collects the
    structured payloads instead of aborting on the first one.
    """
    table = {}
    findings = []
    if cache is None:
        cache = {}
    for i in range(1, p.n + 2):
        for j in range(1, p.n + 2):
            try:
                table[(i, j)] = hom_pair_dim(i, j, p, cache)
            except SupportDisjointFinding as f:
                table[(i, j)] = None
                findings.append(f.details)
    return table, findings


# -- brane decompositions ---------------------------------------------------

_COMPONENT_RE = re.compile(r"^(S|O)\((-?\d+)\)$")


def parse_component(name: str):
    """A declared brane component: 'S(k)' for a generator, 'O(a)' for a line
    bundle ('O' alone means O(0))."""
    text = name.strip()
    if text == "O":
        return ("O", 0)
    m = _COMPONENT_RE.match(text)
    if not m:
        raise NonGeneratorTermError(
            f"brane component {name!r} is not of the form S(k) or O(a)"
        )
    kind, value = m.group(1), int(m.group(2))
    return (kind, value)


def component_module(comp, p: ProjectiveSpace):
    kind, value = comp
    if kind == "S":
        return generator(value, p).module
    return p.structure_sheaf(value)


def component_hom_dim(x, y, p: ProjectiveSpace, cache: dict | None = None) -> int:
    """dim Hom(X, Omega^1 tensor Y) for declared components."""
    if cache is None:
        cache = {}
    if x[0] == "S" and y[0] == "S":
        return hom_pair_dim(x[1], y[1], p, cache)
    key = ("component_hom", p.n, x, y)
    if key in cache:
        return cache[key]
    om = cotangent_sheaf(p)
    dim = sheaf_hom_dim(
        component_module(x, p), tensor(om, component_module(y, p)), cache
    )
    cache[key] = dim
    return dim


def _checked_decomposition(f: BoundedComplex, decomposition, p: ProjectiveSpace):
    """Parse and verify a per-degree component declaration against the
    actual terms of the complex (presentation equality, not isomorphism)."""
    parsed = {}
    for i in f.window():
        term = f.term(i)
        declared = decomposition.get(i, [])
        comps = [parse_component(name) for name in declared]
        if not comps:
            if term.rank != 0:
                raise NonGeneratorTermError(
                    f"term at degree {i} has no declared decomposition"
                )
            parsed[i] = []
            continue
        rebuilt = direct_sum(*[component_module(c, p) for c in comps])
        if (rebuilt.cover_twists != term.cover_twists
                or rebuilt.relations != term.relations):
            raise NonGeneratorTermError(
                f"term at degree {i} does not match its declared components"
            )
        parsed[i] = comps
    return parsed


def derived_hom_table(f: BoundedComplex, decomposition, p: ProjectiveSpace,
                      cache: dict | None = None):
    """Componentwise Hom dimensions between a brane and its cotangent twist,
    one row per (degree shift, source degree, source comp, target comp)."""
    parsed = _checked_decomposition(f, decomposition, p)
    degrees = sorted(parsed)
    if cache is None:
        cache = {}
    rows = []
    for i in degrees:
        for j in degrees:
            for x in parsed[i]:
                for y in parsed[j]:
                    dim = component_hom_dim(x, y, p, cache)
                    rows.append({
                        "shift": j - i,
                        "source_degree": i,
                        "source": f"{x[0]}({x[1]})",
                        "target": f"{y[0]}({y[1]})",
                        "dim": dim,
                    })
    return rows


def derived_hom_vanishes(f: BoundedComplex, decomposition,
                         p: ProjectiveSpace) -> bool:
    """True iff every componentwise Hom space into the cotangent twist
    vanishes, which forces at most one gauge field on the brane."""
    return all(row["dim"] == 0 for row in derived_hom_table(f, decomposition, p))


# -- the report -------------------------------------------------------------

_COUNTS = ("exactly_0", "exactly_1", "at_most_1", "no_bound")
_STATUSES = ("zero", "nonzero", "undecided")


@dataclass(frozen=True)
class GaugeReport:
    """Outcome of the gauge-field counting pipeline for one brane."""

    brane_id: str
    hom_dim: int
    atiyah_status: str
    count: str

    def __post_init__(self):
        if self.count not in _COUNTS:
            raise ShapeError(f"unknown count verdict {self.count!r}")
        if self.atiyah_status not in _STATUSES:
            raise ShapeError(f"unknown atiyah status {self.atiyah_status!r}")
        if self.hom_dim == 0 and self.count == "no_bound":
            raise ShapeError("vanishing hom table cannot leave the count unbounded")
        if self.hom_dim > 0 and self.count != "no_bound":
            raise ShapeError("nonzero hom table cannot certify a count bound")
        if self.count == "exactly_0" and self.atiyah_status != "nonzero":
            raise ShapeError("nonexistence requires a nonzero obstruction class")
        if self.count == "exactly_1" and self.atiyah_status != "zero":
            raise ShapeError("existence and uniqueness require a vanishing class")


def gauge_field_count_bound(f: BoundedComplex, decomposition,
                            p: ProjectiveSpace, brane_id: str = "brane",
                            bound: int | None = None,
                            cache: dict | None = None) -> GaugeReport:
    """Count bound for holomorphic gauge fields on a declared brane.

    A vanishing componentwise Hom table gives uniqueness (at most one).  For
    a brane concentrated in a single line bundle the Atiyah class decides
    existence as well, upgrading the verdict to exactly one or exactly zero.
    """
    rows = derived_hom_table(f, decomposition, p, cache)
    hom_dim = sum(row["dim"] for row in rows)
    comps = [c for i in sorted(decomposition)
             for c in (decomposition[i] or [])]
    single_line = (len(comps) == 1
                   and parse_component(comps[0])[0] == "O")
    if single_line:
        a = parse_component(comps[0])[1]
        coord = atiyah_class_line_bundle(a, p, bound)
        status = "zero" if coord == 0 else "nonzero"
    else:
        status = "undecided"
    if hom_dim > 0:
        count = "no_bound"
    elif status == "zero":
        count = "exactly_1"
    elif status == "nonzero":
        count = "exactly_0"
    else:
        count = "at_most_1"
    return GaugeReport(brane_id, hom_dim, status, count)
