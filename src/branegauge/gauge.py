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

from dataclasses import dataclass

from .cech import (
    _checked_bound,
    _cofaces,
    _in_relation_span,
    cech_level_span,
    chart_subsets,
)
from .complexes import BoundedComplex
from .errors import (
    CechStabilizationError,
    NonGeneratorTermError,
    NotWellDefinedError,
    ShapeError,
    SupportDisjointFinding,
)
from .linalg import vec_axpy
from .modules import direct_sum, tensor
from .polynomials import Coeff
from .projective import (
    ProjectiveSpace,
    cotangent_sheaf,
    generator,
    loci_disjoint,
    parse_component,
    sheaf_hom_dim,
    sheaf_module,
)


def _atiyah_vector(a: int, p: ProjectiveSpace) -> dict:
    """Entries of the Atiyah cochain of O(a): on the overlap of charts i < j
    the value is -a * x_i^{-1} x_j^{-1} w_ij, the logarithmic transition
    derivative.  The chart pairs and the generators w_ij of cotangent_sheaf
    share one order, combinations order (PolyMatrix.koszul)."""
    nv = p.nvars
    vector = {}
    if a != 0:
        for r, (i, j) in enumerate(chart_subsets(nv, 1)):
            exps = tuple(-1 if k in (i, j) else 0 for k in range(nv))
            vector[((i, j), r, exps)] = -a
    return vector


def _atiyah_generator(p: ProjectiveSpace, bound: int, cache: dict):
    """The checked O(1) cochain w and its residual modulo coboundaries and
    in-window relations, memoized under ("atiyah_generator", n, bound).

    Every check runs before w is stored: each entry lies in the level-1
    window (else ShapeError), w is a cocycle modulo R_2, and its residual
    is non-zero, so a failure is raised again on every call."""
    key = ("atiyah_generator", p.n, bound)
    if key in cache:
        return cache[key]
    om = cotangent_sheaf(p)
    w = _atiyah_vector(1, p)
    lv, tracker = cech_level_span(om, 1, bound)
    column = {lv.coordinate(spot): c for spot, c in w.items()}
    image: dict = {}  # D(w), on chart triples
    for (charts, r, a), coeff in w.items():
        for bigger, sign, _ in _cofaces(charts, om.nvars):
            vec_axpy(image, sign * coeff, {(bigger, r, a): 1})
    if not _in_relation_span(om, 2, bound, image):
        raise NotWellDefinedError(
            "cochain fails the triple-overlap cocycle condition"
        )
    r_basis = tracker.residual(column)
    if not r_basis:
        raise CechStabilizationError(
            f"generating class of h^1 reduced to a coboundary at bound {bound}"
        )
    cache[key] = (w, r_basis)
    return cache[key]


def atiyah_class_line_bundle(a: int, p: ProjectiveSpace,
                             bound: int | None = None,
                             cache: dict | None = None) -> int:
    """Coordinate of the Atiyah class of O(a) against the generating class
    of h^1 of the cotangent sheaf: a itself, once it is certified.

    The O(1) cochain w is checked at the bound and at bound + 1: its window,
    the cocycle condition modulo R_2, and that its residual modulo
    coboundaries and relations is non-zero (else CechStabilizationError).
    The O(a) cochain is then checked entrywise to equal a * w, and the O(a)
    class follows exactly: the Cech differential is linear and the relation
    span is a subspace, so a * w is a cocycle with residual a * residual(w),
    whose coordinate against the class of w is a.

    `cache` is the caller's memo dict (one per run in tasks.run_tasks).  It
    holds ("atiyah_generator", n, bound) -> (w, residual of w), one cochain
    and one residual dict, never a tracker or a window.
    """
    bound = _checked_bound(bound)
    if cache is None:
        cache = {}
    for b in (bound, bound + 1):
        w, _ = _atiyah_generator(p, b, cache)
    if _atiyah_vector(a, p) != {s: a * c for s, c in w.items() if a}:
        raise NotWellDefinedError(
            f"atiyah cochain of O({a}) is not {a} times the generating cochain"
        )
    return a


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
    class_coordinate: Coeff
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
        sheaf_module(x, p), tensor(om, sheaf_module(y, p)), cache
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
        rebuilt = direct_sum(*[sheaf_module(c, p) for c in comps])
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
    return _component_rows(_checked_decomposition(f, decomposition, p), p,
                           cache)


def _component_rows(parsed: dict, p: ProjectiveSpace, cache: dict | None):
    """The rows of derived_hom_table for a checked decomposition."""
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
    parsed = _checked_decomposition(f, decomposition, p)
    hom_dim = sum(row["dim"] for row in _component_rows(parsed, p, cache))
    comps = [c for i in sorted(parsed) for c in parsed[i]]
    if len(comps) == 1 and comps[0][0] == "O":
        coord = atiyah_class_line_bundle(comps[0][1], p, bound, cache)
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
