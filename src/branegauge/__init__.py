"""Exact graded-module and derived-category calculus over projective space,
with a gauge-field counting pipeline for branes built from a fixed generator
family.

All arithmetic is exact rational; every mathematical claim in a result is
either certified or reported as a structured finding.
"""

from .complexes import (
    BoundedComplex,
    ComplexMap,
    HomComplexReport,
    Triangle,
    cohomology,
    cohomology_piece_dim,
    cone,
    cone_rotation_equiv,
    cone_with_maps,
    embed_object,
    hom_complex,
    is_acyclic,
    is_quasi_iso,
    rhom_complex,
    rotate_triangle,
    shift,
    shift_map,
    triangle_from_cone,
    triangle_from_module_ses,
    triangle_from_ses,
    triangle_les_ok,
)
from .errors import (
    BraneGaugeError,
    CertificateError,
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
    ShapeError,
    SupportDisjointFinding,
    ZeroDivisorError,
)
from .gauge import (
    GaugeReport,
    JetSequenceRecord,
    atiyah_class_line_bundle,
    connection_exists_line_bundle,
    derived_hom_table,
    derived_hom_vanishes,
    gauge_field_count_bound,
    hom_pair_dim,
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
    kernel_in_image,
    kernel_with_inclusion,
    minimal_presentation,
    tensor,
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
    hyperplane_ses,
    loci_disjoint,
    sheaf_cohomology_dim,
    sheaf_hom_dim,
)
from .reports import TaskReport, exit_code, render_report
from .tasks import run_tasks

__version__ = "0.1.0"
