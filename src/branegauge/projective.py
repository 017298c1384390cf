"""Projective-space constructions: the generator family, cotangent sheaf,
sheaf Hom, and the hyperplane sequence.

The coordinate ring of P^n has n+1 variables x0..xn.  Sheaves are graded
modules up to saturation; sheaf-level Hom dimensions are computed through
torsion removal on the source and floor-truncated saturation on the target,
then a degree-0 graded Hom computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DeskScaleError, ShapeError, ZeroDivisorError
from .modules import (
    GradedMap,
    GradedModule,
    cokernel_with_projection,
    graded_piece_dim,
    hom_module,
    is_zero_module,
    kernel_with_inclusion,
    lift_map_through_inclusion,
    minimal_presentation,
    saturate,
    torsion_free_quotient,
    twist,
)
from .polymatrix import PolyMatrix
from .polynomials import Polynomial


@dataclass(frozen=True)
class ProjectiveSpace:
    """P^n with homogeneous coordinates x0..xn; desk scale caps n at 4."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= 4:
            raise DeskScaleError(f"projective space dimension {self.n} outside 1..4")

    @property
    def nvars(self) -> int:
        return self.n + 1

    def structure_sheaf(self, a: int = 0) -> GradedModule:
        """O(a) as the free module with one generator in degree -a."""
        return GradedModule.free(self.nvars, (-a,))


@dataclass(frozen=True)
class Locus:
    """Construction-level support data: coordinates forced zero, one forced
    nonzero.  Carried as metadata; never recomputed from annihilators."""

    n: int
    zero_indices: frozenset
    nonzero_index: int | None

    def __post_init__(self):
        if self.nonzero_index is not None and self.nonzero_index in self.zero_indices:
            raise ShapeError("a coordinate cannot be both zero and nonzero")


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


@dataclass(frozen=True)
class GeneratorSheaf:
    index: int
    module: GradedModule
    locus: Locus


def generator(k: int, p: ProjectiveSpace) -> GeneratorSheaf:
    """The k-th member of the generator family, 1 <= k <= n+1.

    For k <= n the module is (R/(x0..x_{k-2}))(-1); for k = n+1 it is the
    skyscraper model R/(x0..x_{n-1}) at the point [0:..:0:1].  The locus
    records {x0 = .. = x_{k-2} = 0, x_{k-1} != 0}.
    """
    n = p.n
    if not 1 <= k <= n + 1:
        raise ShapeError(f"generator index {k} outside 1..{n + 1}")
    nv = p.nvars
    if k <= n:
        cover = (1,)
        cut = k - 1  # x0..x_{k-2}
        cols = [[Polynomial.variable(nv, i)] for i in range(cut)]
        rel = PolyMatrix.from_columns(nv, cover, cols, [2] * cut)
    else:
        cover = (0,)
        cut = n
        cols = [[Polynomial.variable(nv, i)] for i in range(cut)]
        rel = PolyMatrix.from_columns(nv, cover, cols, [1] * cut)
    locus = Locus(n, frozenset(range(k - 1)), k - 1)
    return GeneratorSheaf(k, GradedModule(rel), locus)


def generator_family(p: ProjectiveSpace) -> list[GeneratorSheaf]:
    return [generator(k, p) for k in range(1, p.n + 2)]


# -- cotangent sheaf --------------------------------------------------------


def _pair_index(nv: int):
    pairs = [(i, j) for i in range(nv) for j in range(i + 1, nv)]
    return pairs, {pr: k for k, pr in enumerate(pairs)}


def cotangent_sheaf(p: ProjectiveSpace) -> GradedModule:
    """Omega^1 as the kernel of the Euler map, in its canonical presentation.

    Generators w_ij = x_j e_i - x_i e_j (i < j) in degree 2; relations the
    three-term identities x_i w_jk - x_j w_ik + x_k w_ij.  The inclusion into
    R(-1)^{n+1} composes to zero with [x0 .. xn]; tests certify it is exactly
    the Euler kernel.
    """
    nv = p.nvars
    pairs, index = _pair_index(nv)
    z = Polynomial.zero(nv)
    columns = []
    for i in range(nv):
        for j in range(i + 1, nv):
            for k in range(j + 1, nv):
                col = [z] * len(pairs)
                col[index[(j, k)]] = Polynomial.variable(nv, i)
                col[index[(i, k)]] = -Polynomial.variable(nv, j)
                col[index[(i, j)]] = Polynomial.variable(nv, k)
                columns.append(col)
    rel = PolyMatrix.from_columns(nv, (2,) * len(pairs), columns,
                                  [3] * len(columns))
    return GradedModule(rel)


def cotangent_inclusion(p: ProjectiveSpace) -> GradedMap:
    """The embedding Omega^1 -> R(-1)^{n+1}, w_ij -> x_j e_i - x_i e_j."""
    nv = p.nvars
    omega = cotangent_sheaf(p)
    middle = GradedModule.free(nv, (1,) * nv)
    pairs, _ = _pair_index(nv)
    z = Polynomial.zero(nv)
    cols = []
    for (i, j) in pairs:
        col = [z] * nv
        col[i] = Polynomial.variable(nv, j)
        col[j] = -Polynomial.variable(nv, i)
        cols.append(col)
    mat = PolyMatrix.from_columns(nv, (1,) * nv, cols, [2] * len(pairs))
    incl = GradedMap(omega, middle, mat, check=True)
    euler = euler_map(p)
    if not (euler * incl).is_zero_map():
        raise AssertionError("cotangent inclusion does not compose to zero")
    return incl


def euler_map(p: ProjectiveSpace) -> GradedMap:
    nv = p.nvars
    middle = GradedModule.free(nv, (1,) * nv)
    target = GradedModule.free(nv, (0,))
    mat = PolyMatrix.from_columns(
        nv, (0,), [[Polynomial.variable(nv, i)] for i in range(nv)], [1] * nv
    )
    return GradedMap(middle, target, mat, check=False)


# -- sheaf Hom --------------------------------------------------------------


def sheaf_hom_dim(f: GradedModule, g: GradedModule,
                  cache: dict | None = None) -> int:
    """Dimension of the space of sheaf maps F~ -> G~.

    Source torsion cannot map anywhere in a saturated target, so the source
    is replaced by its torsion-free quotient; the target is saturated with a
    floor no higher than any surviving source generator, which keeps every
    candidate image inside the truncated window.

    Both presentations are looked up in `cache` by the module's presentation
    (keys ("torsion_free", f) and ("saturate", g, floor)); pass one dict
    through a run to compute each distinct one once.
    """
    if f.nvars != g.nvars:
        raise ShapeError("sheaf hom over mismatched rings")
    if f.rank == 0 or g.rank == 0:
        return 0
    if cache is None:
        cache = {}
    key = ("torsion_free", f)
    src = cache.get(key)
    if src is None:
        src = cache[key] = minimal_presentation(torsion_free_quotient(f))
    if src.rank == 0 or is_zero_module(src):
        return 0
    floor = min([0] + list(src.cover_twists) + list(g.cover_twists))
    key = ("saturate", g, floor)
    tgt = cache.get(key)
    if tgt is None:
        tgt = cache[key] = saturate(g, floor)
    if tgt.rank == 0:
        return 0
    return graded_piece_dim(hom_module(src, tgt), 0)


def global_sections_dim(f: GradedModule) -> int:
    one = GradedModule.free(f.nvars, (0,))
    return sheaf_hom_dim(one, f)


# -- hyperplane sequence ----------------------------------------------------


def hyperplane_ses(s: GradedModule) -> tuple[GradedMap, GradedMap]:
    """The two maps of 0 -> S(-1) --x0--> S -> S/x0S -> 0.

    Requires x0 to be a nonzerodivisor on S; a nonzero kernel generator is
    reported as the witness.  Exactness in the middle is certified by lifting
    the kernel of the projection through multiplication.
    """
    nv = s.nvars
    x0 = Polynomial.variable(nv, 0)
    shifted = twist(s, -1)
    z = Polynomial.zero(nv)
    entries = [
        [x0 if r == c else z for c in range(s.rank)] for r in range(s.rank)
    ]
    mul = GradedMap(
        shifted, s,
        PolyMatrix(nv, s.cover_twists, shifted.cover_twists, entries),
        check=False,
    )
    ker, incl = kernel_with_inclusion(mul)
    if not is_zero_module(ker):
        witness = [str(q) for q in incl.matrix.column(0)]
        raise ZeroDivisorError(
            "x0 is a zerodivisor on the module", witness=witness
        )
    quot, proj = cokernel_with_projection(mul)
    kerp, inclp = kernel_with_inclusion(proj)
    lift_map_through_inclusion(inclp, mul)  # ker(proj) inside im(x0)
    return mul, proj
