"""Level-1 cohomology of the cyclic action on O_L, verified at precision.

The two operators are ``linalg.LinearMap``s over Z/p^N in the flat
monomial tower basis (D = p * e_K, column convention), where an element's
coordinate vector is its ``coeffs`` tuple: the trace O_L -> O_K as the
e_K x D matrix ``Tower.trace_matrix``, whose targets are O_K coordinates,
and sigma-1 on O_L as a D x D matrix off the matrix of sigma.  The data
are an extension already (``build_extension`` refuses any other); the
checks here are of the computation.
Each is eliminated once per precision (``linear_map_of``): the trace image
tr(O_L), the coboundaries im(sigma-1), the trace kernel and every solve
tr(x) = c or (sigma-1)x = a are read off that one Howell form.  On top of
it this module provides:

* the carry target of the trace-zero recursion (``_carry_target``):
  tr(a_n) cancels the carry delta_n of the prefix, component n of the Witt
  trace of (a_0, ..., a_{n-1}, 0), whose lower components vanish exactly
  when the prefix is trace-zero.  ``witt.extended`` appends that vector's
  ghost vector to the prefix's with one power per component, in the lift
  that ``witt.witt_trace`` reads.  The sharpness witness grows a_0 = pi_L
  the same way, by the solver's solution of each level's target;

* generators of T_n, the Witt-trace-zero vectors of length n at precision
  N, and a uniform sampler on their span.  delta_n is additive modulo
  tr(O_L) (Serre, *Local Fields*, ch. VIII: the connecting map of
  0 -> W_n -> W_{n+1} -> O_L -> 0).  For trace-zero v, w,
  (v, 0) + (w, 0) = (v + w, c) in W_{n+1}(O_L) for some c, and
  (s, c) = (s, 0) + V^n(c) without carries, so the Witt traces give
  delta_n(v + w) = delta_n(v) + delta_n(w) + tr(c).  (The lower trace
  components are divisible by p^N, and the carry of their Witt sum into
  component n has no constant term, so it vanishes mod p^N.)  Hence, for
  generators g_1, ..., g_r of T_n, the Witt trace of
  lift(x | y) = sum_i x_i (g_i, 0) + V^n(y), for x in Z^r and y in O_L, is
  V^n(tr(y) - sum_i x_i delta_n(g_i)), and the trace-zero vectors of
  length n+1 over the span of the g_i are the lifts of the integer
  solutions of sum_i x_i delta_n(g_i) = tr(y) mod p^N.  ``lift`` is
  additive, so it is enough to lift the Howell rows of the kernel of the
  one ``LinearMap`` whose e_K rows are [delta_n(g_1) ... delta_n(g_r) |
  -tr]: their integer span R meets every solution modulo p^N Z^(r+D), and
  the lifts of p^N Z^(r+D) lie in lift(R) already.  The y-part is killed
  by p^N.  For the x-part, (p e_i | delta_n(g_i)) is a solution, because
  tr(c) = p c on O_K; write it as rho + p^N s with rho in R.  Then
  p^N (g_i, 0) = lift(p^(N-1) rho) + lift(p^(2N-1) s)
  - V^n(p^(N-1) delta_n(g_i)), where the middle term vanishes because
  p^(N+n) kills W_{n+1}(O_L/p^N) (below) and n < N, and the last is the
  lift of a solution (0 | z), which the rows with their pivot in the
  y-block give exactly (Howell property), with no x-part to reduce.  The
  same rows give V^n(k) for every trace kernel element k, so T_{m+1}'s
  generators (``trace_zero_generators``) are the saturated trace kernel
  at level 0 and then, per level, the lifts of one kernel's rows.
  Each generator is kept as its ghost vector, a flat coordinate list in
  the lift of the tower to N + m: ghost components are additive, so a lift
  is one ``witt.witt_combination`` of the ghost vectors of the (g_i, 0)
  and of the V^n(e_c), which are p^n e_c in the last block.
  ``witt._from_ghost`` recovers g_i's components, and the vector it
  returns keeps their Frobenius chains, so the ghost vector of (g_i, 0)
  (``witt.extended``), whose Witt trace gives delta_n(g_i), costs one more
  power per component.

  p^(N+m) kills W_{m+1}(O_L/p^N).  The Witt vector functor takes the
  surjection O_L -> O_L/p^N to a surjection, so it is enough that for x
  in W_{m+1}(O_L) and s >= m, component k of y = p^s x is divisible by
  p^(s-k).  By induction on k: p^k y_k = p^s W_k(x) - sum_{i<k} p^i
  y_i^(p^(k-i)), and each term has valuation at least
  i + (s-i) p^(k-i) >= s, while O_L is free over Z_p.  So coefficients
  drawn uniformly mod p^(N+m) give a uniform element of the span
  (``sample_trace_zero``): c -> sum_i c_i g_i is a surjective group map
  from (Z/p^(N+m))^r, whose fibres are cosets of its kernel.  Nothing is
  rejected, and each sample is still certified by its Witt trace;

* the image of restriction from classes of length m+1 in H^1
  (``restriction_image``): E_m/im(sigma-1), for E_m the first components
  a_0 of the trace-zero vectors of length m+1.  First components add under
  Witt sums, so the a_0 of T_{m+1}'s generators span E_m.  E_m contains
  im(sigma-1), as sigma(x, 0, ...) - (x, 0, ...) is trace-zero, and E_0 is
  the saturated trace kernel, so m = 0 gives H^1.  The paper's level-1
  statement is E_m = im(sigma-1) whenever p^m > t;

* verifiers for the trace valuation bounds, for the level-by-level
  valuation cascade on trace-zero vectors, and for the vanishing of the
  "first component" restriction map on classes of length m+1 > log_p(t),
  each returning its record, failing or not;

* H^1 = ker(tr)/im(sigma-1), read off the cokernel of sigma-1 at the
  extension's own precision, with an order cross-check against the trace
  index |O_K / tr(O_L)|.  Over Z_p the kernel K of the trace is saturated of rank D - e_K,
  because O_L/K is isomorphic to tr(O_L) = p_K^d, which is free of rank e_K.
  So O_L is the direct sum of K and a free C of rank e_K, and im(sigma-1)
  has finite index in K; hence coker(sigma-1) = Z_p^{e_K} x H^1.  Over
  Z/p^N the Smith invariants of the columns of sigma-1 are therefore e_K
  copies of p^N plus the invariant factors of H^1, as long as every factor
  of H^1 is below p^N; the count of factors p^N certifies that condition.
  A higher precision N' cannot disagree: sigma at N' reduced mod p^N is
  sigma at N, so each invariant at N is min(d, p^N) of the matching
  invariant d at N'.  If exactly e_K of the d reach p^N and exactly e_K
  equal p^N', none lies in [p^N, p^N'), and both lists of H^1 factors are
  the d below p^N.

The generators start from the exact trace kernel K.  Truncation adds
spurious elements, so its kernel is "saturated": computed in a lift
(``Tower.lift``) to any N' > N and projected back to N.  The trace is
O_K-linear and tr(1) = p, so if tr(y) = p^(N+1) w, then y - p^N w is an
exact kernel element congruent to y mod p^N: the projection is K mod p^N.
One digit lower it gives ker(tr mod p^N) = K + p^(N-1) O_K, the spurious
part.  So every a_0 of the sampler lies in K mod p^N, while each later
component ranges over all of its solutions mod p^N.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import prod

from .errors import NoSolution, VerificationError, sha256
from .extensions import ExtensionData
from .linalg import (
    HowellBasis,
    LinearMap,
    howell_form,
    member,
    quotient_invariants,
    smith_invariants,
    solve_columnwise,
)
from .report import CheckResult, SuiteRecord
from .rings import OLElement, Tower, matvec, padic_val, valuation_K, valuation_L
from .witt import WittVec, _from_ghost, _ghost, extended, witt_combination, witt_trace

# -- deterministic randomness -------------------------------------------------


def derive_seed(*parts) -> int:
    """Stable 64-bit child seed from arbitrary labeled parts."""
    text = ":".join(str(p) for p in parts)
    return int.from_bytes(sha256(text.encode()).digest()[:8], "big")


def derive_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


# -- coordinates and operator matrices ---------------------------------------


@lru_cache(maxsize=128)
def linear_map_of(ext: ExtensionData, which: str) -> LinearMap:
    """The trace O_L -> O_K (``Tower.trace_matrix``) or sigma-1 on
    O_L ("trace" | "sigma-minus-one"), built and eliminated once per
    extension."""
    if which == "trace":
        rows = ext.tower.trace_matrix
    elif which == "sigma-minus-one":
        pN = ext.tower.pN
        rows = tuple(tuple((x - (r == c)) % pN for c, x in enumerate(row))
                     for r, row in enumerate(ext.sigma))
    else:
        raise ValueError(f"unknown operator {which!r}")
    return LinearMap(rows, ext.p, ext.N, ext.tower.dim)


def solve_linear(ext: ExtensionData, which: str, b) -> OLElement:
    """Some x in O_L with ``which``(x) = b, for b given by its coordinates
    in the operator's target (O_K for the trace); NoSolution if b is out
    of reach at precision."""
    return OLElement(ext.tower, solve_columnwise(linear_map_of(ext, which), b))


def trace_kernel_saturated(ext: ExtensionData, hi: Tower) -> HowellBasis:
    """ker(tr) mod p^N without truncation-spurious elements: the kernel in
    ``hi``, a lift of the tower above N (ValueError otherwise), projected to
    precision N; the module docstring says why one extra digit suffices."""
    if hi.N <= ext.N:
        raise ValueError(f"saturation needs a lift above N = {ext.N}, got {hi.N}")
    hi_kernel = LinearMap(hi.trace_matrix, hi.p, hi.N, hi.dim).kernel
    return howell_form(hi_kernel.rows, ext.p, ext.N, ext.tower.dim)


# -- trace image --------------------------------------------------------------


def trace_index_exponent(ext: ExtensionData) -> int:
    """log_p |O_K / tr(O_L)|: the sum of v_p(d) over the Smith invariants d
    of the trace's columns.  Hilbert's formula, checked at build, makes it
    floor((t+1)(p-1)/p); h1 counts it here, independently of t."""
    columns = list(zip(*ext.tower.trace_matrix))
    return sum(padic_val(d, ext.p)
               for d in smith_invariants(columns, ext.p, ext.N, ext.e_K))


# -- random elements ----------------------------------------------------------


def random_element(ext: ExtensionData, rng: random.Random) -> OLElement:
    """Uniform element of O_L, then shifted by a random power of pi_L.

    The shift spreads the sampled valuations over [0, 2 e_L) so the
    valuation identities are exercised away from the generic unit case.
    """
    tower = ext.tower
    a = tower.element([rng.randrange(tower.pN) for _ in range(tower.dim)])
    k = rng.randrange(2 * ext.e_L)
    if k:
        a = a * tower.pi_L_power(k)
    return a


def random_from_basis(basis, modulus: int, rng: random.Random) -> list:
    """Uniform coefficients mod ``modulus``, one ``randrange`` per element
    of ``basis``, in order: a uniform element of its span when ``modulus``
    kills every element."""
    return [rng.randrange(modulus) for _ in basis]


def wittvec_coords(a: WittVec) -> list:
    """JSON-serializable coordinates of a Witt vector (per component, per
    pi_L power, the O_K coordinate list)."""
    e = a.ext.e_K
    return [[list(comp.coeffs[i:i + e]) for i in range(0, len(comp.coeffs), e)]
            for comp in a.components]


# -- trace valuation verifier -------------------------------------------------


def verify_trace_valuations(ext: ExtensionData, trials: int = 200,
                            seed: int = 0) -> SuiteRecord:
    """Check the two trace valuation laws on seeded random elements.

    For every sample a with resolvable valuation:
      (i)  p * v_K(tr(a)) >= v_L(a) + t(p-1),            and
      (ii) v_K(tr(a^p) - tr(a)^p) = v_K(p) + v_L(a)       exactly,
    both compared in cross-multiplied integer arithmetic.  Samples whose
    valuations hit the precision horizon are skipped and counted.
    """
    t, p = ext.t, ext.p
    horizon, horizon_K = ext.tower.horizon_L, ext.tower.horizon_K
    lower = CheckResult("trace-valuation-lower-bound", "pass")
    power = CheckResult("power-trace-valuation-equality", "pass")
    for trial in range(trials):
        rng = derive_rng(seed, "trace-valuations", trial)
        a = random_element(ext, rng)
        va = valuation_L(a)
        tr_a = ext.trace(a)
        if va == horizon:
            lower.skip()
            power.skip()
            continue
        # (i) lower bound, in v_L units on both sides; a trace at the horizon
        # gives p*horizon_K = horizon as lhs, which satisfies any bound below it
        bound = va + t * (p - 1)
        lhs = p * valuation_K(tr_a)
        lower.record(lhs >= bound, {
            "trial": trial, "v_L(a)": va,
            "p*v_K(tr(a))": lhs if lhs < horizon else f">={lhs}",
            "bound": bound,
        })
        # (ii) exact equality
        diff = ext.trace(a ** p) - tr_a ** p
        v_diff = valuation_K(diff)
        rhs = ext.e_K + va  # v_K(p) + v_L(a), mixed units by design
        if v_diff == horizon_K <= rhs:
            power.skip()
            continue
        power.record(v_diff == rhs, {
            "trial": trial, "v_L(a)": va,
            "v_K(diff)": v_diff if v_diff < horizon_K else f">={v_diff}",
            "expected": rhs,
        })
    return SuiteRecord.of("trace-lemmas", ext, 0, [lower, power])


# -- trace-zero sampler -------------------------------------------------------


def _carry_target(vec: WittVec) -> tuple:
    """The O_K coordinates of the required tr(a_n) for a trace-zero prefix
    (a_0, ..., a_{n-1}), given ``vec`` = (a_0, ..., a_{n-1}, 0): minus
    component n of the Witt trace of ``vec``, i.e. -f_n at
    X_{i,j} = sigma^i(a_j).  VerificationError unless the components below n
    of that trace vanish: the prefix was not trace-zero."""
    trace, n = witt_trace(vec), len(vec) - 1
    if not all(c.is_zero for c in trace.components[:n]):
        raise VerificationError(
            f"the Witt trace of the prefix is nonzero below level {n}: "
            f"the prefix is not trace-zero")
    return (-trace[n]).coeffs[:vec.ext.e_K]


def _trace_zero(vec: WittVec) -> WittVec:
    """``vec``, certified trace-zero by its Witt trace."""
    if not witt_trace(vec).is_zero:
        raise VerificationError("level recursion produced a nonzero Witt trace")
    return vec


@lru_cache(maxsize=64)
def trace_zero_generators(ext: ExtensionData, m: int) -> tuple:
    """(hi, ghosts): generators of T_{m+1}, the trace-zero Witt vectors of
    length m+1 at precision N, as their ghost vectors in ``hi`` (flat
    coordinate lists, ``witt._ghost``), the tower lifted to N + max(m, 1).
    Level 0 is the saturated trace kernel; each level n lifts the syzygies
    (x | y) of the carry targets against the trace to
    sum_i x_i (g_i, 0) + V^n(y), one ``witt_combination`` each (module
    docstring)."""
    hi = ext.tower.lift(ext.N + max(m, 1))
    D, zero = hi.dim, ext.tower.zero_ol
    minus_trace = [tuple(-x for x in row) for row in ext.tower.trace_matrix]
    ghosts = tuple(list(k) for k in trace_kernel_saturated(ext, hi).rows)
    for n in range(1, m + 1):
        prefixes = [extended(hi, _from_ghost(ext, hi, g), zero) for g in ghosts]
        targets = [_carry_target(v) for v in prefixes]
        syzygies = LinearMap(tuple(t + row for t, row in zip(zip(*targets), minus_trace)),
                             ext.p, ext.N, len(ghosts) + hi.dim).kernel
        columns = [_ghost(hi, v) for v in prefixes]
        columns += [[0] * (n * D + c) + [ext.p ** n] + [0] * (D - 1 - c) for c in range(D)]
        ghosts = tuple(witt_combination(hi, row, columns) for row in syzygies.rows)
    return hi, ghosts


def sample_trace_zero(ext: ExtensionData, m: int, seed: int = 0) -> WittVec:
    """A seeded uniform element of the span of ``trace_zero_generators``,
    certified by its Witt trace: coefficients drawn once mod p^(N+m), which
    kills W_{m+1}(O_L/p^N) (module docstring), and one combination;
    nothing is rejected.  The certificate traces the ghost vector of the
    recovered components, kept by the recovery, not the combination."""
    if m < 0:
        raise ValueError("m must be >= 0")
    rng = derive_rng(seed, "sample-trace-zero", ext.name, m)
    hi, ghosts = trace_zero_generators(ext, m)
    coeffs = random_from_basis(ghosts, ext.p ** (ext.N + m), rng)
    return _trace_zero(_from_ghost(ext, hi, witt_combination(hi, coeffs, ghosts)))


# -- cascade verifier ---------------------------------------------------------


def _cascade_levels(a: WittVec) -> list:
    """The cascade check p v_L(a_{n-1}) >= min(v_L(a_n) + t(p-1), p t(p-1))
    at each level 1 <= n <= m, exact, for ``a`` already certified trace-zero.

    A level whose left side hits the precision horizon is skipped.  When a_n
    vanishes at precision, v_L(a_n) is only a lower bound, so a right side
    below the cap is unresolved: the level passes against the cap when the
    left side reaches it, and is skipped otherwise."""
    p, t = a.ext.p, a.ext.t
    horizon = a.ext.tower.horizon_L
    cap = p * t * (p - 1)
    out = []
    for n in range(1, len(a)):
        v_prev = valuation_L(a[n - 1])
        if v_prev == horizon:
            out.append({"level": n, "status": "skip",
                        "reason": "v_L(a_{n-1}) at precision horizon"})
            continue
        v_n = valuation_L(a[n])
        lhs = p * v_prev
        rhs = min(v_n + t * (p - 1), cap)
        if v_n == horizon and rhs < cap:
            if lhs < cap:
                out.append({"level": n, "status": "skip",
                            "reason": "bound unresolved at horizon"})
                continue
            rhs = cap
        status = "pass" if lhs >= rhs else "fail"
        out.append({"level": n, "status": status, "lhs": lhs, "rhs": rhs,
                    "margin": lhs - rhs})
    return out


def cascade_suite(ext: ExtensionData, m: int, trials: int = 200,
                  seed: int = 0) -> SuiteRecord:
    """Sample trace-zero vectors of length m+1 and run the cascade checks."""
    check = CheckResult("valuation-cascade", "pass")
    for trial in range(trials):
        vec = sample_trace_zero(ext, m, seed=derive_seed(seed, "cascade", trial))
        for rec in _cascade_levels(vec):  # the sampler certified vec
            if rec["status"] == "skip":
                check.skip()
            elif rec["status"] == "pass":
                check.record(True)
            else:
                check.record(False, {"trial": trial, "level": rec["level"],
                                     "vector": wittvec_coords(vec)})
    return SuiteRecord.of("cascade", ext, m, [check])


# -- restriction vanishing ----------------------------------------------------


def restriction_image(ext: ExtensionData, m: int) -> tuple:
    """(E_m, factors): E_m, the first components a_0 of the trace-zero
    vectors of length m+1, as a Howell basis mod p^N, and the invariant
    factors of E_m/im(sigma-1), the image of restriction in H^1 (module
    docstring).  W_0 = a_0, so E_m is spanned by the first D coordinates of
    the generators' ghost vectors.  ValueError when a coboundary lies
    outside E_m: the solve checks im(sigma-1) <= E_m."""
    D = ext.tower.dim
    image = howell_form([g[:D] for g in trace_zero_generators(ext, m)[1]], ext.p, ext.N, D)
    coboundaries = linear_map_of(ext, "sigma-minus-one").image
    return image, quotient_invariants(image.rows, coboundaries.rows, ext.p, ext.N)


def verify_restriction_vanishing(ext: ExtensionData, m: int,
                                 trials: int = 200, seed: int = 0) -> SuiteRecord:
    """Verify that length-(m+1) trace-zero classes restrict to coboundaries.

    Requires p^m > t (the sharp hypothesis); for each sampled trace-zero
    vector asserts v_L(a_0) > t - 1 and that (sigma-1)x = a_0 is solvable.
    A failure does not raise: the record fails and its first check carries
    the first failing vector as ``witness``.  The statement is a theorem, so
    a counterexample can only mean an implementation bug.  When p^m <= t
    the suite instead runs the sharpness negative control.
    """
    if ext.p ** m <= ext.t:
        return negative_control(ext, m)
    val_check = CheckResult("first-component-valuation", "pass")
    cob_check = CheckResult("first-component-coboundary", "pass")
    for trial in range(trials):
        vec = sample_trace_zero(ext, m, seed=derive_seed(seed, "vanishing", trial))
        a0 = vec[0]
        # a_0 at the horizon passes: the horizon exceeds the exact t + 1
        v0 = valuation_L(a0)
        if v0 > ext.t - 1:
            val_check.record(True)
        else:
            val_check.record(False, {"trial": trial, "v_L(a_0)": v0,
                                     "vector": wittvec_coords(vec)})
            val_check.detail.setdefault("witness", wittvec_coords(vec))
        try:
            x = solve_linear(ext, "sigma-minus-one", a0.coeffs)
        except NoSolution:
            cob_check.record(False, {"trial": trial,
                                     "vector": wittvec_coords(vec)})
            val_check.detail.setdefault("witness", wittvec_coords(vec))
            continue
        if ext.apply_sigma(x) - x != a0:
            raise VerificationError("solver returned a wrong coboundary preimage")
        cob_check.record(True)
    return SuiteRecord.of("proposition", ext, m, [val_check, cob_check])


def negative_control(ext: ExtensionData, m: int) -> SuiteRecord:
    """Sharpness control: when p^m <= t, a trace-zero vector grown from
    a_0 = pi_L whose a_0 is not a coboundary.  At each level n, a_n is the
    solver's solution of tr(a_n) = the carry target of the prefix
    (``_carry_target``), with no kernel offset.  The prefix keeps its
    Frobenius chains as it grows (``witt.extended``), so level n costs n
    powers, and the Witt traces of the targets and of the vector reuse them.
    No witness is built when pi_L is not trace-zero or a carry target
    leaves the trace image.

    Informational: it demonstrates that the p^m > t hypothesis of the
    vanishing suite is not vacuous (the suites cannot pass by accident).
    """
    a0 = ext.tower.pi_L
    detail = {"applicable": ext.p ** m <= ext.t}
    if not detail["applicable"]:
        detail["reason"] = f"p^m = {ext.p ** m} > t = {ext.t}"
    elif not ext.trace(a0).is_zero:
        detail.update(witness_found=False,
                      reason="pi_L is not trace-zero; no deterministic witness")
    else:
        hi = ext.tower.lift(ext.N + m)
        vec, zero = WittVec(ext, (a0,)), ext.tower.zero_ol
        try:
            for n in range(1, m + 1):
                target = _carry_target(extended(hi, vec, zero))
                vec = extended(hi, vec, solve_linear(ext, "trace", target))
        except NoSolution:
            detail.update(witness_found=False,
                          reason=f"carry target left the trace image at level {n}")
        else:
            in_image = member(linear_map_of(ext, "sigma-minus-one").image,
                              _trace_zero(vec)[0].coeffs)
            detail.update(witness_found=not in_image, witness=wittvec_coords(vec),
                          first_component_is_coboundary=in_image)
    check = CheckResult("sharpness-witness", "info", detail=detail)
    return SuiteRecord.of("negative-control", ext, m, [check])


# -- level-1 cohomology -------------------------------------------------------


def h1_level1(ext: ExtensionData) -> tuple:
    """Invariant factors p^{k_1} >= p^{k_2} >= ... of ker(tr)/im(sigma-1)
    at the precision of ``ext``: the Smith invariants of the columns of
    sigma-1 strictly between 1 and p^N.

    VerificationError unless every column has zero trace and exactly e_K
    invariants equal p^N.  That count certifies every factor: it puts all
    of H^1 below p^N, so any higher precision that passes the same count
    gives the same factors (see the module docstring).
    """
    pN = ext.tower.pN
    columns = list(zip(*linear_map_of(ext, "sigma-minus-one").rows))
    if any(any(matvec(ext.tower.trace_matrix, col, pN)) for col in columns):
        raise VerificationError(
            f"coboundaries escape the trace kernel at N={ext.N}")
    factors = smith_invariants(columns, ext.p, ext.N, ext.tower.dim)
    free = factors.count(pN)
    if free != ext.e_K:
        raise VerificationError(
            f"coker(sigma-1) has {free} free factors p^N, expected "
            f"e_K = {ext.e_K}, at N={ext.N}")
    return tuple(d for d in reversed(factors) if 1 < d < pN)


def h1_suite(ext: ExtensionData) -> SuiteRecord:
    """H^1 at level 1: its invariant factors, and a check that its order,
    read off sigma-1, equals |O_K / tr(O_L)| read off the trace
    (``trace_index_exponent``; the additive Herbrand quotient of O_L is
    trivial, so the two must coincide).  The data are an extension already
    (``build_extension``); these are checks of the computation, and
    ``h1_level1`` also checks sigma - 1 against the trace on all of O_L.

    ``invariant-factors-stable`` reports the factors.  Its evidence is the
    count certificate of ``h1_level1``, which makes them the factors at
    every higher precision; when the certificate fails, ``h1_level1``
    raises and the suite records a consistency failure instead.
    """
    factors = h1_level1(ext)
    index_exp = trace_index_exponent(ext)
    h1_order = prod(factors)
    stable = CheckResult("invariant-factors-stable", "pass",
                         detail={"invariant_factors": list(factors)})
    order = CheckResult(
        "order-matches-trace-index",
        "pass" if h1_order == ext.p ** index_exp else "fail",
        detail={"order": h1_order, "trace_index_exponent": index_exp})
    return SuiteRecord.of("h1", ext, 0, [stable, order])
