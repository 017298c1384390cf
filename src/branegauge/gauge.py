"""Holomorphic gauge-field counting for branes built from the generator
family.

The obstruction side is the Atiyah class of a line bundle: the Cech
1-cochain of logarithmic transition derivatives, with values in the
cotangent sheaf, certified exactly as the connecting image of 1 under the
Euler sequence, which spans h^1.  The uniqueness side is the vanishing of the
sheaf-level Hom table between generators twisted by the cotangent sheaf;
support metadata provides a shortcut prediction, and any disagreement between
the shortcut and the exact computation aborts with a structured finding.
"""

from __future__ import annotations

from typing import NamedTuple

from .cech import _cofaces, chart_subsets
from .complexes import BoundedComplex
from .errors import (
    CertificateError,
    NonGeneratorTermError,
    NotWellDefinedError,
    ShapeError,
    SupportDisjointFinding,
)
from .linalg import vec_axpy
from .modules import direct_sum, tensor
from .polynomials import Coeff, monomial_mul
from .projective import (
    ProjectiveSpace,
    cotangent_inclusion,
    cotangent_sheaf,
    euler_map,
    generator,
    loci_disjoint,
    parse_component,
    sheaf_cohomology_dim,
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


def _apply(matrix, cochain: dict) -> dict:
    """A cochain {(charts, generator, exponents): coeff} of Laurent
    sections pushed through a map's matrix, chart by chart: the entry
    x^a e_c goes to the sum of the column c terms x^(a + b) e_r."""
    out: dict = {}
    for (charts, c, a), coeff in cochain.items():
        vec_axpy(out, coeff, {(charts, r, monomial_mul(a, b)): v
                              for (r, b), v in matrix.vecs[c].items()})
    return out


def _cech_d(cochain: dict, nvars: int) -> dict:
    """The Cech differential of a cochain, by the incidence rule _cofaces."""
    out: dict = {}
    for (charts, r, a), coeff in cochain.items():
        for bigger, sign, _ in _cofaces(charts, nvars):
            vec_axpy(out, sign * coeff, {(bigger, r, a): 1})
    return out


def _euler_generator(p: ProjectiveSpace, cache: dict) -> dict:
    """The O(1) cochain w, certified to span h^1 of the cotangent sheaf.

    The Euler sequence 0 -> Omega1 -> O(-1)^{n+1} -> O -> 0 (Hartshorne,
    Algebraic Geometry, II.8.13) has a connecting map d: H^0(O) ->
    H^1(Omega1).  On chart U_i, 1 lifts to s_i = e_i / x_i, which the Euler
    map sends to 1; on U_ij, s_j - s_i is the image of w under
    cotangent_inclusion, so w = d(1) as Cech cochains.  Both identities are
    checked term by term (else NotWellDefinedError).  d is injective since
    h^0(O(-1)^{n+1}) = 0, and h^1(Omega1) = 1, both by
    sheaf_cohomology_dim and kept in `cache` under ("sheaf_h", module)
    (else CertificateError).  So [w] is non-zero and spans h^1.  It is a
    cocycle too: its image D(s) is one, and the inclusion is injective.
    """
    nv = p.nvars
    incl = cotangent_inclusion(p)
    lifts = {((i,), i, tuple(-1 if k == i else 0 for k in range(nv))): 1
             for i in range(nv)}
    if _apply(euler_map(p).matrix, lifts) != {((i,), 0, (0,) * nv): 1
                                              for i in range(nv)}:
        raise NotWellDefinedError("the chart lifts e_i / x_i do not map to 1")
    w = _atiyah_vector(1, p)
    if _apply(incl.matrix, w) != _cech_d(lifts, nv):
        raise NotWellDefinedError(
            "the O(1) cochain is not the Euler sequence's connecting image of 1"
        )
    if sheaf_cohomology_dim(incl.target, 0, cache) != 0:
        raise CertificateError(
            "h^0(O(-1)^(n+1)) is not 0: the connecting map need not be injective"
        )
    if sheaf_cohomology_dim(incl.source, 1, cache) != 1:
        raise CertificateError("h^1 of the cotangent sheaf is not 1")
    return w


def atiyah_class_line_bundle(a: int, p: ProjectiveSpace,
                             cache: dict | None = None) -> int:
    """Coordinate of the Atiyah class of O(a) against the generating class
    of h^1 of the cotangent sheaf: a itself, once it is certified.

    The O(1) cochain w is certified by the Euler sequence
    (_euler_generator), exactly and with no window.  The O(a) cochain is
    then checked entrywise to equal a * w, and the O(a) class follows: the
    Cech differential is linear, so a * w is a cocycle whose coordinate
    against the class of w is a.  This is the classical fact that the
    Atiyah class of O(1) is the Euler extension class (M. F. Atiyah,
    "Complex analytic connections in fibre bundles", Trans. AMS 85, 1957).

    `cache` is the caller's memo dict (one per run in tasks.run_tasks); it
    gets the two duality tuples of the certificate, and nothing else.
    """
    if cache is None:
        cache = {}
    w = _euler_generator(p, cache)
    if _atiyah_vector(a, p) != {s: a * c for s, c in w.items() if a}:
        raise NotWellDefinedError(
            f"atiyah cochain of O({a}) is not {a} times the generating cochain"
        )
    return a


def connection_exists_line_bundle(a: int, p: ProjectiveSpace) -> bool:
    """A holomorphic connection on O(a) exists iff the Atiyah class vanishes."""
    return atiyah_class_line_bundle(a, p) == 0


class JetSequenceRecord(NamedTuple):
    """The first-jet extension 0 -> left -> J^1 -> right -> 0 of a line
    bundle, with the extension class coordinate and its splitting verdict."""

    twist: int
    left_cover_twists: tuple
    right_cover_twists: tuple
    class_coordinate: Coeff
    splits: bool


def jet_sequence_record(a: int, p: ProjectiveSpace) -> JetSequenceRecord:
    from .modules import twist as twist_module

    om = cotangent_sheaf(p)
    left = twist_module(om, a)
    right = p.structure_sheaf(a)
    coord = atiyah_class_line_bundle(a, p)
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


class GaugeReport:
    """Outcome of the gauge-field counting pipeline for one brane.  Frozen,
    and equal and hashed by its fields."""

    __slots__ = ("brane_id", "hom_dim", "atiyah_status", "count")

    def __init__(self, brane_id: str, hom_dim: int, atiyah_status: str,
                 count: str):
        if count not in _COUNTS:
            raise ShapeError(f"unknown count verdict {count!r}")
        if atiyah_status not in _STATUSES:
            raise ShapeError(f"unknown atiyah status {atiyah_status!r}")
        if hom_dim == 0 and count == "no_bound":
            raise ShapeError("vanishing hom table cannot leave the count unbounded")
        if hom_dim > 0 and count != "no_bound":
            raise ShapeError("nonzero hom table cannot certify a count bound")
        if count == "exactly_0" and atiyah_status != "nonzero":
            raise ShapeError("nonexistence requires a nonzero obstruction class")
        if count == "exactly_1" and atiyah_status != "zero":
            raise ShapeError("existence and uniqueness require a vanishing class")
        for name, value in zip(self.__slots__,
                               (brane_id, hom_dim, atiyah_status, count)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"GaugeReport is frozen: cannot set {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return (self.brane_id, self.hom_dim, self.atiyah_status, self.count)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def gauge_field_count_bound(f: BoundedComplex, decomposition,
                            p: ProjectiveSpace, brane_id: str = "brane",
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
        coord = atiyah_class_line_bundle(comps[0][1], p, cache)
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
