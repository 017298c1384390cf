"""Projective-space constructions: the generator family, cotangent sheaf,
sheaf cohomology and sheaf Hom, and the hyperplane sequence, and the one
reader of the built-in sheaf names O(a), S(k) and Omega1.

The coordinate ring of P^n has n+1 variables x0..xn.  Sheaves are graded
modules up to saturation, and no module here is saturated: graded local
duality (Brodmann-Sharp, Local Cohomology) reads the sheaf cohomology of M~
off E^k = dim Ext^k_R(M, R(-n-1))_0 as

    h^0(M~) = dim M_0 - E^{n+1} + E^n,    h^i(M~) = E^{n-i} for i >= 1,

each E^k a window rank of complexes.rhom_complex, so no bound and no
iteration cap enters (_duality_h).  sheaf_cohomology_dim is the package's
one h^i, and the sheaf Hom dimension is h^0 of H~ for the module
H = Hom_R(F, G) (Hartshorne, Algebraic Geometry, II.5).  The generator
relations, the Euler map, Omega^1 and its inclusion and the hyperplane map
are all columns of PolyMatrix.koszul, so the pair numbering of Omega^1's
generators is the one in polymatrix.py.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .complexes import _WindowRanks, rhom_complex
from .errors import (
    CertificateError,
    DeskScaleError,
    NonGeneratorTermError,
    NotExactError,
    ShapeError,
    ZeroDivisorError,
)
from .modules import (
    GradedMap,
    GradedModule,
    cokernel_with_projection,
    exactness_failure,
    graded_piece_dim,
    hom_module,
    kernel_generators,
    twist,
)
from .polymatrix import PolyMatrix


class ProjectiveSpace(NamedTuple("ProjectiveSpace", [("n", int)])):
    """P^n with homogeneous coordinates x0..xn; desk scale caps n at 4."""

    __slots__ = ()

    def __new__(cls, n: int):
        if not 1 <= n <= 4:
            raise DeskScaleError(f"projective space dimension {n} outside 1..4")
        return super().__new__(cls, n)

    @property
    def nvars(self) -> int:
        return self.n + 1

    def structure_sheaf(self, a: int = 0) -> GradedModule:
        """O(a) as the free module with one generator in degree -a."""
        return GradedModule.free(self.nvars, (-a,))


class Locus(NamedTuple("Locus", [("n", int), ("zero_indices", frozenset),
                                  ("nonzero_index", "int | None")])):
    """Construction-level support data: coordinates forced zero, one forced
    nonzero.  Carried as metadata; never recomputed from annihilators."""

    __slots__ = ()

    def __new__(cls, n: int, zero_indices: frozenset,
                nonzero_index: int | None):
        if nonzero_index is not None and nonzero_index in zero_indices:
            raise ShapeError("a coordinate cannot be both zero and nonzero")
        return super().__new__(cls, n, zero_indices, nonzero_index)


def loci_disjoint(a: Locus, b: Locus) -> bool:
    """Exact emptiness decision for the intersection of two loci."""
    if a.n != b.n:
        raise ShapeError("loci live on different projective spaces")
    if a.nonzero_index is not None and a.nonzero_index in b.zero_indices:
        return True
    if b.nonzero_index is not None and b.nonzero_index in a.zero_indices:
        return True
    # all coordinates forced zero leaves no projective point
    return a.zero_indices | b.zero_indices >= set(range(a.n + 1))


class GeneratorSheaf:
    """A member of the generator family: its index, module and locus.
    Frozen, and equal and hashed by its fields."""

    __slots__ = ("index", "module", "locus")

    def __init__(self, index: int, module: GradedModule, locus: Locus):
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "module", module)
        object.__setattr__(self, "locus", locus)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"GeneratorSheaf is frozen: cannot set {name!r}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return (self.index, self.module, self.locus)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def generator(k: int, p: ProjectiveSpace) -> GeneratorSheaf:
    """The k-th member of the generator family, 1 <= k <= n+1.

    For k <= n the module is (R/(x0..x_{k-2}))(-1); for k = n+1 it is the
    skyscraper model R/(x0..x_{n-1}) at the point [0:..:0:1].  The locus
    records {x0 = .. = x_{k-2} = 0, x_{k-1} != 0}.
    """
    n = p.n
    if not 1 <= k <= n + 1:
        raise ShapeError(f"generator index {k} outside 1..{n + 1}")
    xs = PolyMatrix.koszul(p.nvars, 1)
    if k <= n:
        rel = xs.select_columns(range(k - 1)).twist_all(-1)  # x0..x_{k-2}
    else:
        rel = xs.select_columns(range(n))
    locus = Locus(n, frozenset(range(k - 1)), k - 1)
    return GeneratorSheaf(k, GradedModule(rel), locus)


def generator_family(p: ProjectiveSpace) -> list[GeneratorSheaf]:
    return [generator(k, p) for k in range(1, p.n + 2)]


# -- built-in sheaf names ---------------------------------------------------

_SHEAF_RE = re.compile(r"^(O|S)\((-?\d+)\)$")


def parse_sheaf_name(name: str):
    """The one reader of built-in sheaf names: ("O", a) for O(a), with O
    alone meaning O(0), ("S", k) for S(k), ("Omega1", None) for Omega1, and
    None for any other text."""
    if name == "O":
        return ("O", 0)
    if name == "Omega1":
        return ("Omega1", None)
    m = _SHEAF_RE.match(name)
    return (m.group(1), int(m.group(2))) if m else None


def parse_component(name: str):
    """A declared brane component: 'S(k)' for a generator, 'O(a)' for a line
    bundle ('O' alone means O(0))."""
    comp = parse_sheaf_name(name.strip())
    if comp is None or comp[0] == "Omega1":
        raise NonGeneratorTermError(
            f"brane component {name!r} is not of the form S(k) or O(a)"
        )
    return comp


def sheaf_module(sheaf, p: ProjectiveSpace) -> GradedModule:
    """The module of a parsed built-in sheaf name (parse_sheaf_name)."""
    kind, value = sheaf
    if kind == "O":
        return p.structure_sheaf(value)
    if kind == "S":
        return generator(value, p).module
    return cotangent_sheaf(p)


# -- cotangent sheaf --------------------------------------------------------


def cotangent_sheaf(p: ProjectiveSpace) -> GradedModule:
    """Omega^1 as the kernel of the Euler map, in its canonical presentation.

    Generators w_ij = x_j e_i - x_i e_j (i < j) in degree 2, numbered as the
    pairs of PolyMatrix.koszul; relations the three-term identities
    x_i w_jk - x_j w_ik + x_k w_ij, the columns of koszul(nv, 3).  The
    inclusion into R(-1)^{n+1} composes to zero with [x0 .. xn]; tests
    certify it is exactly the Euler kernel.
    """
    return GradedModule(PolyMatrix.koszul(p.nvars, 3))


def cotangent_inclusion(p: ProjectiveSpace) -> GradedMap:
    """The embedding Omega^1 -> R(-1)^{n+1}, w_ij -> x_j e_i - x_i e_j."""
    nv = p.nvars
    middle = GradedModule.free(nv, (1,) * nv)
    incl = GradedMap(cotangent_sheaf(p), middle, -PolyMatrix.koszul(nv, 2),
                     check=True)
    euler = euler_map(p)
    if not (euler * incl).is_zero_map():
        raise CertificateError("cotangent inclusion does not compose to zero")
    return incl


def euler_map(p: ProjectiveSpace) -> GradedMap:
    nv = p.nvars
    middle = GradedModule.free(nv, (1,) * nv)
    target = GradedModule.free(nv, (0,))
    return GradedMap(middle, target, PolyMatrix.koszul(nv, 1), check=False)


# -- sheaf cohomology by local duality --------------------------------------


def _duality_h(m: GradedModule, top: int) -> tuple[int, ...]:
    """(h^0(M~), .., h^top(M~)) on P^n by graded local duality
    (Brodmann-Sharp, Local Cohomology; Eisenbud, The Geometry of Syzygies,
    App. 1): with c = rhom_complex(M, R(-n-1)) and E^k = dim H^k(c)_0 =
    dim Ext^k_R(M, R(-n-1))_0,

        h^0 = dim M_0 - E^{n+1} + E^n,    h^i = E^{n-i} for i >= 1.

    Every Ext piece is read through one _WindowRanks, so a window the
    numbers share (term n for h^0 and h^1) is built once.
    """
    nv = m.nvars
    c = rhom_complex(m, GradedModule.free(nv, (nv,)))
    w = _WindowRanks()
    h0 = graded_piece_dim(m, 0) - w.h_dim(c, nv, 0) + w.h_dim(c, nv - 1, 0)
    return (h0,) + tuple(w.h_dim(c, nv - 1 - i, 0) for i in range(1, top + 1))


def sheaf_cohomology_dim(m: GradedModule, i: int,
                         cache: dict | None = None) -> int:
    """h^i of the sheaf presented by m on P^n, exactly and with no bound.

    The number is read from the tuple (h^0, .., h^n) of _duality_h, which
    `cache` holds under ("sheaf_h", m), so every degree of one module
    shares one rhom_complex.  Degrees outside 0..n give 0.
    """
    if not 0 <= i < m.nvars:
        return 0
    if cache is None:
        cache = {}
    key = ("sheaf_h", m)
    if key not in cache:
        cache[key] = _duality_h(m, m.nvars - 1)
    return cache[key][i]


# -- sheaf Hom --------------------------------------------------------------


def sheaf_hom_dim(f: GradedModule, g: GradedModule,
                  cache: dict | None = None) -> int:
    """Dimension of the space of sheaf maps F~ -> G~, with no saturation.

    Hom commutes with the localizations that define the charts, so
    Hom(F~, G~) = H^0(P^n, H~) for H = Hom_R(F, G) (Hartshorne, Algebraic
    Geometry, II.5).  The sequence 0 -> H^0_m(H) -> H -> (+)_d H^0(H~(d))
    -> H^1_m(H) -> 0 and graded local duality (Brodmann-Sharp, Local
    Cohomology) give

        h^0(H~) = dim H_0 - dim Ext^{n+1}_R(H, R(-n-1))_0
                  + dim Ext^n_R(H, R(-n-1))_0,

    the h^0 of _duality_h, both Ext pieces read from window ranks of
    complexes.rhom_complex.

    The int is looked up in `cache` under ("sheaf_hom", f, g), keyed by the
    presentations; pass one dict through a run to compute each distinct
    pair once.
    """
    if f.nvars != g.nvars:
        raise ShapeError("sheaf hom over mismatched rings")
    if f.rank == 0 or g.rank == 0:
        return 0
    if cache is None:
        cache = {}
    key = ("sheaf_hom", f, g)
    if key not in cache:
        cache[key] = _duality_h(hom_module(f, g), 0)[0]
    return cache[key]


# -- hyperplane sequence ----------------------------------------------------


def hyperplane_ses(s: GradedModule) -> tuple[GradedMap, GradedMap]:
    """The two maps of 0 -> S(-1) --x0--> S -> S/x0S -> 0.

    The sequence is certified exact by modules.exactness_failure.  It needs
    x0 to be a nonzerodivisor on S; when multiplication by x0 is not
    injective, a nonzero kernel generator is reported as the witness.
    """
    nv = s.nvars
    x0 = PolyMatrix.koszul(nv, 1).select_columns([0])
    mul = GradedMap(
        twist(s, -1), s, x0.kron(PolyMatrix.identity(nv, s.cover_twists)),
        check=False,
    )
    _, proj = cokernel_with_projection(mul)
    why = exactness_failure(mul, proj)
    if why == "first map is not injective":
        witness = [str(q) for q in kernel_generators(mul).column(0)]
        raise ZeroDivisorError(
            "x0 is a zerodivisor on the module", witness=witness
        )
    if why is not None:
        raise NotExactError(f"hyperplane sequence: {why}")
    return mul, proj
