"""Exact graded-module and derived-category calculus over projective space,
with a gauge-field counting pipeline for branes built from a fixed generator
family.

All arithmetic is exact rational; every mathematical claim in a result is
either certified or reported as a structured finding.
"""

from .cech import (
    DEFAULT_CECH_BOUND,
    cech_cohomology_dim,
    cech_h_dim_at,
)
from .complexes import (
    BoundedComplex,
    ComplexMap,
    HomComplexReport,
    Subquotient,
    Triangle,
    cohomology,
    cohomology_subquotient,
    cone,
    cone_rotation_equiv,
    cone_with_maps,
    embed_object,
    hom_complex,
    induced_cohomology_map,
    is_acyclic,
    is_quasi_iso,
    rotate_triangle,
    shift,
    shift_map,
    triangle_from_cone,
    triangle_from_module_ses,
    triangle_from_ses,
    triangle_les_ok,
    zero_complex,
)
from .errors import (
    BraneGaugeError,
    CechStabilizationError,
    DeskScaleError,
    Finding,
    HomogeneityError,
    ManifestError,
    NonGeneratorTermError,
    NotAComplexError,
    NotExactError,
    NotWellDefinedError,
    PolynomialSyntaxError,
    RingMismatchError,
    SaturationCapError,
    ShapeError,
    SupportDisjointFinding,
    ZeroDivisorError,
)
from .gauge import (
    CechCocycle,
    GaugeReport,
    JetSequenceRecord,
    atiyah_class_line_bundle,
    atiyah_cocycle_line_bundle,
    connection_exists_line_bundle,
    derived_hom_table,
    derived_hom_vanishes,
    gauge_field_count_bound,
    hom_pair_dim,
    hom_vanishing_certificate,
    jet_sequence_record,
    lem1_table,
)
from .groebner import buchberger, ideal_member, syzygy_basis
from .homspace import HomBasis
from .manifest import Manifest, parse_manifest, print_manifest, resolve_module_ref
from .modules import (
    GradedMap,
    GradedModule,
    Resolution,
    annihilator,
    cokernel,
    cokernel_with_projection,
    direct_sum,
    free_resolution,
    graded_piece_dim,
    hilbert_window,
    hom_module,
    image,
    is_injective,
    is_iso,
    is_zero_module,
    kernel,
    kernel_with_inclusion,
    minimal_presentation,
    saturate,
    tensor,
    torsion_free_quotient,
    twist,
    twist_map,
)
from .polymatrix import PolyMatrix
from .polynomials import Polynomial, parse_polynomial
from .projective import (
    GeneratorSheaf,
    Locus,
    ProjectiveSpace,
    cotangent_inclusion,
    cotangent_sheaf,
    euler_map,
    generator,
    generator_family,
    global_sections_dim,
    hyperplane_ses,
    loci_disjoint,
    sheaf_hom_dim,
)
from .reports import TaskReport, exit_code, render_report
from .tasks import run_tasks

__version__ = "0.1.0"
