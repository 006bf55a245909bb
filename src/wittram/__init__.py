"""Witt vector arithmetic and cohomology verification over wildly ramified
cyclic degree-p extensions of p-adic fields, at finite precision.

The package builds concrete totally ramified cyclic degree-p extensions
L/K as two-level Eisenstein towers over Z/p^N, computes the universal
p-typical Witt addition polynomials exactly with integer coefficients, and
mechanically verifies the valuation laws that force the restriction map on
level-1 cohomology of W_{m+1}(O_L) to vanish whenever p^m exceeds the
ramification break.

The universal polynomials (``wittram.universal``) are not re-exported here:
only the symbolic suite and the ``witt-poly`` command need them, and they
import that module when they run.
"""

from .errors import (
    ConfigError,
    IntegralityError,
    InvalidExtension,
    LengthMismatch,
    NoSolution,
    NotEisenstein,
    PrecisionExhausted,
    ResourceLimit,
    SamplingExhausted,
    SigmaNotARoot,
    SigmaWrongOrder,
    VerificationError,
    WittramError,
)
from .rings import (
    OLElement,
    Tower,
    Valuation,
    valuation_K,
    valuation_L,
)
from .extensions import (
    BUILTIN_NAMES,
    ExtensionData,
    ExtensionSpec,
    SigmaBasis,
    build_extension,
    load_spec_file,
    ramification_break,
    resolve_extension,
    sigma_basis,
)
from .witt import (
    WittVec,
    apply_sigma,
    ghost_map,
    restrict,
    teichmuller,
    verschiebung,
    witt_add,
    witt_neg,
    witt_trace,
    witt_zero,
)
from .linalg import HowellBasis, howell_form, member, smith_invariants
from .cohomology import (
    LinearMap,
    h1_level1,
    linear_map_of,
    negative_control,
    sample_trace_zero,
    solve_linear,
    trace_image_exponent,
    verify_cascade,
    verify_restriction_vanishing,
    verify_trace_valuations,
)
from .harness import RunConfig, run, symbolic_suite
from .report import Report, emit_report

__version__ = "0.1.0"
