"""Witt vector arithmetic and cohomology verification over wildly ramified
cyclic degree-p extensions of p-adic fields, at finite precision.

The package builds concrete totally ramified cyclic degree-p extensions
L/K as two-level Eisenstein towers over Z/p^N, computes the universal
p-typical Witt addition polynomials exactly with integer coefficients, and
mechanically verifies the valuation laws that force the restriction map on
level-1 cohomology of W_{m+1}(O_L) to vanish whenever p^m exceeds the
ramification break.

Names are imported from their home modules (``wittram.extensions``, ...):
the package binds none, so ``import wittram`` loads no submodule.
"""
