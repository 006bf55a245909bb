"""Witt vector arithmetic and cohomology verification over wildly ramified
cyclic degree-p extensions of p-adic fields, at finite precision.

The package builds concrete totally ramified cyclic degree-p extensions
L/K as two-level Eisenstein towers over Z/p^N, computes the universal
p-typical Witt addition polynomials exactly with integer coefficients, and
mechanically verifies the valuation laws that force the restriction map on
level-1 cohomology of W_{m+1}(O_L) to vanish whenever p^m exceeds the
ramification break.

The public names below load on first access: ``wittram.X`` and ``from
wittram import X`` import the home module of X then, and the name stays
the same object as in that module.  So ``import wittram`` loads no
submodule, and building an extension loads only ``errors``, ``rings`` and
``extensions``.  The universal polynomials (``wittram.universal``) are not
re-exported: only the symbolic suite and the ``witt-poly`` command need
them, and they import that module when they run.
"""

from importlib import import_module

#: each public name's home module
_HOMES = {
    "errors": (
        "ConfigError",
        "IntegralityError",
        "InvalidExtension",
        "LengthMismatch",
        "NoSolution",
        "NotEisenstein",
        "PrecisionExhausted",
        "ResourceLimit",
        "SamplingExhausted",
        "SigmaNotARoot",
        "SigmaWrongOrder",
        "VerificationError",
        "WittramError",
    ),
    "rings": (
        "OLElement",
        "Tower",
        "Valuation",
        "valuation_K",
        "valuation_L",
    ),
    "extensions": (
        "BUILTIN_NAMES",
        "ExtensionData",
        "ExtensionSpec",
        "SigmaBasis",
        "build_extension",
        "load_spec_file",
        "ramification_break",
        "resolve_extension",
        "sigma_basis",
    ),
    "witt": (
        "WittVec",
        "apply_sigma",
        "ghost_map",
        "restrict",
        "teichmuller",
        "verschiebung",
        "witt_add",
        "witt_neg",
        "witt_trace",
        "witt_zero",
    ),
    "linalg": ("HowellBasis", "howell_form", "member", "smith_invariants"),
    "cohomology": (
        "LinearMap",
        "h1_level1",
        "linear_map_of",
        "negative_control",
        "sample_trace_zero",
        "solve_linear",
        "trace_image_exponent",
        "verify_cascade",
        "verify_restriction_vanishing",
        "verify_trace_valuations",
    ),
    "harness": ("RunConfig", "run", "symbolic_suite"),
    "report": ("Report", "emit_report"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME_OF))
