"""Suite orchestration: run configurations, the precision guard, suite order.

The harness owns the safety contract: no suite runs unless the working
precision clears N * e_L > 4 * (t + e_L) * (m + 2), which keeps every
valuation compared by the verifiers far below the truncation horizon (the
bounds involved are linear in t and e_L while the guard grows with both).
"""

from __future__ import annotations

import time

from .cohomology import (
    cascade_suite,
    h1_suite,
    negative_control,
    verify_restriction_vanishing,
    verify_trace_valuations,
)
from .errors import (
    DEFAULT_TERM_LIMIT,
    SUITE_ORDER,
    ConfigError,
    IntegralityError,
    VerificationError,
    WittramError,
)
from .extensions import ExtensionData, resolve_extension
from .report import REPORT_VERSION, CheckResult, Report, SuiteRecord

#: symbolic levels known to stay comfortably inside the term budget
SYMBOLIC_LEVELS = {2: 3, 3: 2}


class RunConfig:
    """One ``verify`` invocation: the extension, the suites and their knobs."""

    __slots__ = ("extension", "precision", "m", "trials", "seed", "suites",
                 "fmt", "max_terms")

    def __init__(self, extension: str = "quadratic-gaussian",
                 precision: int = None, m: int = 1, trials: int = 200,
                 seed: int = 0, suites: tuple = SUITE_ORDER, fmt: str = "text",
                 max_terms: int = DEFAULT_TERM_LIMIT):
        self.extension = extension
        self.precision = precision  # None: the spec file's or the built-in default
        self.m = m
        self.trials = trials
        self.seed = seed
        self.suites = suites
        self.fmt = fmt
        self.max_terms = max_terms

    def echo(self, precision: int) -> dict:
        """The report's config block, at the precision the run resolved."""
        return {
            "extension": self.extension,
            "precision": precision,
            "m": self.m,
            "trials": self.trials,
            "seed": self.seed,
            "suites": list(self.suites),
            "format": self.fmt,
            "max_terms": self.max_terms,
        }


def precision_guard(ext: ExtensionData, m: int):
    """Refuse configurations whose truncation horizon is too close."""
    need = 4 * (ext.t + ext.e_L) * (m + 2)
    have = ext.tower.horizon_L
    if not have > need:
        raise ConfigError(
            f"precision guard violated: N*e_L = {have} must exceed "
            f"4*(t+e_L)*(m+2) = {need}; raise --precision"
        )


def symbolic_suite(ext: ExtensionData,
                   max_terms: int = DEFAULT_TERM_LIMIT) -> SuiteRecord:
    """Structural and identity certification of the universal polynomials
    at the extension's prime p.

    Per level n <= SYMBOLIC_LEVELS[p] (1 for other p): the addition laws
    z_n (integral by construction: ``sum_polynomials`` divides exactly) have
    no constant term and reproduce the ghost sums exactly; the carry f_n
    satisfies f_n + sum_i X_{i,n} - z_n = 0 with min degree >= p (n >= 1);
    the carry residue g satisfies the p-th power split p (f_n - g) =
    sum_i X_{i,n-1}^p - z_{n-1}^p - (-f_{n-1})^p with min degree >= p^2
    (n >= 2); f_0 and the n=1 residue vanish exactly.

    The symbolic layer is imported here, not with the module, so that runs
    without this suite never load it; the names are read off ``universal``
    at each call.
    """
    from .universal import (
        SymPoly,
        carry_polynomial,
        carry_residue_polynomial,
        ghost_polynomial,
        structure_check,
        sum_polynomials,
    )

    p = ext.p

    def sum_vars(level: int) -> SymPoly:
        out = SymPoly.zero()
        for i in range(p):
            out = out + SymPoly.var(i, level)
        return out

    n_max = SYMBOLIC_LEVELS.get(p, 1)
    checks = []
    zs = sum_polynomials(p, n_max, p, max_terms)
    digests = {}

    ghost = CheckResult("ghost-compatibility", "pass")
    structure = CheckResult("addition-law-structure", "pass")
    for k in range(n_max + 1):
        digests[f"z_{k}"] = zs[k].digest()
        structure.record(not zs[k].has_constant_term)
        w_k = ghost_polynomial(p, k)
        lhs = SymPoly.zero()
        for i in range(p):
            lhs = lhs + w_k.substitute({(0, e): SymPoly.var(i, e)
                                        for e in range(k + 1)})
        rhs = w_k.substitute({(0, e): zs[e] for e in range(k + 1)})
        ghost.record((lhs - rhs).is_zero)
    checks.extend([structure, ghost])

    base = CheckResult("base-cases", "pass")
    base.record(carry_polynomial(p, 0, max_terms).is_zero)
    base.record(carry_residue_polynomial(p, 1, max_terms).is_zero)
    checks.append(base)

    carry_struct = CheckResult("carry-structure", "pass")
    carry_ident = CheckResult("carry-identity", "pass")
    for n in range(1, n_max + 1):
        f_n = carry_polynomial(p, n, max_terms)
        digests[f"f_{n}"] = f_n.digest()
        carry_struct.record(structure_check(f_n, p))
        carry_ident.record((f_n + sum_vars(n) - zs[n]).is_zero)
    checks.extend([carry_struct, carry_ident])

    res_struct = CheckResult("carry-residue-structure", "pass")
    res_ident = CheckResult("carry-split-identity", "pass")
    for n in range(2, n_max + 1):
        g = carry_residue_polynomial(p, n, max_terms)
        digests[f"g_for_level_{n}"] = g.digest()
        res_struct.record(structure_check(g, p * p))
        f_n = carry_polynomial(p, n, max_terms)
        f_prev = carry_polynomial(p, n - 1, max_terms)
        block = SymPoly.zero()
        for i in range(p):
            block = block + SymPoly.var(i, n - 1) ** p
        block = block - zs[n - 1] ** p - (-f_prev) ** p
        res_ident.record(((f_n - g).scale(p) - block).is_zero)
    checks.extend([res_struct, res_ident])
    checks[0].detail["digests"] = digests
    return SuiteRecord.of("symbolic", ext, n_max, checks)


def _run_suite(name: str, ext: ExtensionData, config: RunConfig) -> SuiteRecord:
    if name == "symbolic":
        return symbolic_suite(ext, config.max_terms)
    if name == "trace-lemmas":
        return verify_trace_valuations(ext, config.trials, config.seed)
    if name == "cascade":
        return cascade_suite(ext, config.m, config.trials, config.seed)
    if name == "proposition":
        return verify_restriction_vanishing(ext, config.m, config.trials,
                                            config.seed)
    if name == "h1":
        return h1_suite(ext)
    return negative_control(ext, config.m)  # ``run`` refused any other name


def run(config: RunConfig):
    """Execute the configured suites; returns (Report, exit_code)."""
    if not config.suites:
        raise ConfigError(f"no suite selected; choose from {SUITE_ORDER}")
    for name in config.suites:
        if name not in SUITE_ORDER:
            raise ConfigError(f"unknown suite {name!r}; choose from {SUITE_ORDER}")
    if config.m < 0:
        raise ConfigError(f"--m must be >= 0, got {config.m}")
    if config.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {config.trials}")
    try:
        ext = resolve_extension(config.extension, config.precision)
    except ConfigError:
        raise
    except (WittramError, OSError, ValueError) as exc:
        raise ConfigError(f"cannot build extension {config.extension!r}: {exc}")
    precision_guard(ext, config.m)

    report = Report(REPORT_VERSION, config.echo(ext.N))
    for name in SUITE_ORDER:
        if name not in config.suites:
            continue
        start = time.perf_counter()
        try:
            record = _run_suite(name, ext, config)
        except (IntegralityError, VerificationError) as exc:
            check = CheckResult("consistency", "fail", detail={
                "error": f"{type(exc).__name__}: {exc}"})
            record = SuiteRecord.of(name, ext, config.m, [check])
        record.duration_s = time.perf_counter() - start
        report.suites.append(record)
    exit_code = 1 if report.failed else 0
    return report, exit_code
