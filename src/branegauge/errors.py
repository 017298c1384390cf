"""Exception hierarchy for the engine.

Every failure mode is a structured exception; nothing is ever approximated
silently.  Mathematical findings (a verification that came back negative in a
way that must abort the computation) are separated from structural errors so
the CLI can map them to distinct exit codes.
"""

from __future__ import annotations


class BraneGaugeError(Exception):
    """Base class for all errors raised by this package."""


class RingMismatchError(BraneGaugeError):
    """Two objects over polynomial rings with different variable counts were combined."""


class HomogeneityError(BraneGaugeError):
    """A polynomial entry failed the graded (homogeneous degree) contract."""


class ShapeError(BraneGaugeError):
    """Matrix or module shapes are incompatible."""


class NotWellDefinedError(BraneGaugeError):
    """A map does not send relations into relations, so it is not a module map."""


class NotAComplexError(BraneGaugeError):
    """Differentials fail d o d = 0, or windows/terms are inconsistent."""


class NotExactError(BraneGaugeError):
    """A short exact sequence certificate failed (kernel/image/cokernel mismatch)."""


class CertificateError(BraneGaugeError, AssertionError):
    """An exact certificate (m * syz = 0, d o d = 0, ...) failed."""


class ZeroDivisorError(BraneGaugeError):
    """A multiplication map expected to be injective has a kernel.

    Carries a witness element of the kernel.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class DeskScaleError(BraneGaugeError):
    """Input exceeds the supported desk scale (for projective spaces, n <= 4)."""


class NonGeneratorTermError(BraneGaugeError):
    """A brane term was not declared as a direct sum of generator indices.

    Supply a generator decomposition, or use the direct (undecomposed) route.
    """


class ManifestError(BraneGaugeError):
    """Manifest syntax or reference error, with position information."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + loc)
        self.line = line
        self.column = column


class PolynomialSyntaxError(BraneGaugeError):
    """Malformed polynomial text; carries the character offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class Finding(BraneGaugeError):
    """A mathematical finding: a claimed vanishing or agreement failed.

    Findings are honest negative results, not bugs.  They carry a structured
    payload (`details`, a dict of plain values) that the CLI prints verbatim
    and maps to exit code 1.
    """

    def __init__(self, message: str, details: dict | None = None):
        super().__init__(message)
        self.details = dict(details or {})


class SupportDisjointFinding(Finding):
    """The disjoint-support shortcut and the direct sheaf-Hom computation disagreed.

    This is the falsification channel: locus metadata says the Hom space must
    vanish, the exact computation says it does not (or vice versa).
    """
