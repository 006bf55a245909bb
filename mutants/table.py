"""The mutation table: one deliberate defect per entry, and the tests that
must notice it.

Each entry names a file under ``src/wittram``, an exact text that occurs
there once, its replacement and the tests (files or node ids) expected to
fail on the mutated copy.  ``test_mutants.py`` applies each entry to a
copy of the repository and runs the named tests there, with the golden and
digest tests deselected (``DIGEST_TESTS``): a report digest fails on every
behavioural change, so it says nothing about which check is at fault.  An
entry marked ``survives`` changes nothing the tests can see; it shows that
the runner does not count a broken run as a kill.
"""

#: tests that pin whole reports by digest, deselected in every mutant run
DIGEST_TESTS = (
    "tests/test_golden_reports.py",
    "tests/test_benchmark_digests.py",
    "tests/test_cli.py::test_vanishing_violation_reports_witness_and_counterexamples",
    "tests/test_cli.py::test_unsolvable_coboundary_fails_the_proposition",
    "tests/test_cohomology.py::test_suites_report_a_break_that_is_too_large",
)

MUTANTS = (
    {
        "id": "cascade-margin-minus-1",
        "file": "cohomology.py",
        "text": 'status = "pass" if lhs >= rhs else "fail"',
        "replacement": 'status = "pass" if lhs >= rhs - 1 else "fail"',
        "tests": ["tests/test_cohomology.py"],
    },
    {
        "id": "proposition-valuation-below-t-minus-1",
        "file": "cohomology.py",
        "text": "if v0 > ext.t - 1:",
        "replacement": "if v0 > ext.t - 2:",
        "tests": ["tests/test_cohomology.py"],
    },
    {
        "id": "trace-lemma-i-bound-minus-1",
        "file": "cohomology.py",
        "text": "bound = va + t * (p - 1)",
        "replacement": "bound = va + t * (p - 1) - 1",
        "tests": ["tests/test_cohomology.py"],
    },
    {
        "id": "h1-free-count-only-from-below",
        "file": "cohomology.py",
        "text": "if free != ext.e_K:",
        "replacement": "if free < ext.e_K:",
        "tests": ["tests/test_cohomology.py::test_h1_count_check_catches_a_dropped_coboundary"],
    },
    {
        "id": "hilbert-formula-off-by-one-accepted",
        "file": "extensions.py",
        "text": "if v != (t + 1) * (p - 1):",
        "replacement": "if abs(v - (t + 1) * (p - 1)) > 1:",
        "tests": ["tests/test_extensions.py::test_hilbert_formula_refuses_a_break_off_by_one"],
    },
    {
        "id": "conjugate-sum-unchecked",
        "file": "extensions.py",
        "text": "if conjugate_sum != (-tower.E_L[-1]).coeffs:",
        "replacement": "if False:",
        "tests": ["tests/test_extensions.py::test_spec_made_in_code_is_refused_like_its_document"],
    },
    {
        "id": "sweep-stops-one-row-early",
        "file": "linalg.py",
        "text": "for row, (col, k) in zip(rows, pivots):",
        "replacement": "for row, (col, k) in zip(rows[:-1], pivots):",
        "tests": ["tests/test_linalg.py"],
    },
    {
        "id": "solve-sweeps-to-h-plus-1",
        "file": "linalg.py",
        "text": "aug.rows, aug.pivots,\n                h, lin.p, pN)",
        "replacement": "aug.rows, aug.pivots,\n                h + 1, lin.p, pN)",
        "tests": ["tests/test_linalg.py::test_particular_solutions_keep_their_digest"],
    },
    {
        "id": "draw-coefficients-mod-p-to-the-n",
        "file": "cohomology.py",
        "text": "random_from_basis(ghosts, ext.p ** (ext.N + m), rng)",
        "replacement": "random_from_basis(ghosts, ext.p ** ext.N, rng)",
        "tests": ["tests/test_trace_zero.py"],
    },
    {
        "id": "level-map-without-trace-columns",
        "file": "cohomology.py",
        "text": "LinearMap(tuple(t + row for t, row in zip(zip(*targets), minus_trace)),\n"
                "                             ext.p, ext.N, len(ghosts) + hi.dim)",
        "replacement": "LinearMap(tuple(zip(*targets)), ext.p, ext.N, len(ghosts))",
        "tests": ["tests/test_trace_zero.py", "tests/test_restriction_image.py"],
    },
    {
        "id": "unsaturated-kernel-at-level-0",
        "file": "cohomology.py",
        "text": "for k in trace_kernel_saturated(ext, hi).rows)",
        "replacement": 'for k in linear_map_of(ext, "trace").kernel.rows)',
        "tests": ["tests/test_trace_zero.py", "tests/test_restriction_image.py"],
    },
    {
        "id": "carry-target-divisibility-unchecked",
        "file": "cohomology.py",
        "text": "if not all(c.is_zero for c in trace.components[:n]):",
        "replacement": "if False:",
        "tests": ["tests/test_witt.py::test_carry_target_refuses_a_prefix_that_is_not_trace_zero"],
    },
    {
        "id": "generator-ghost-level-one-low",
        "file": "cohomology.py",
        "text": "return (-trace[n]).coeffs[:vec.ext.e_K]",
        "replacement": "return (-trace[n - 1]).coeffs[:vec.ext.e_K]",
        "tests": ["tests/test_trace_zero.py"],
    },
    {
        "id": "restriction-image-from-ghost-block-1",
        "file": "cohomology.py",
        "text": "[g[:D] for g in trace_zero_generators(ext, m)[1]]",
        "replacement": "[g[D:2 * D] for g in trace_zero_generators(ext, m)[1]]",
        "tests": ["tests/test_restriction_image.py"],
    },
    {
        "id": "witt-trace-takes-any-kept-lift",
        "file": "witt.py",
        "text": "a.hi is not None and a.hi.N >= need",
        "replacement": "a.hi is not None",
        "tests": ["tests/test_witt.py::test_witt_trace_takes_a_kept_lift_only_when_it_is_high_enough"],
    },
    {
        "id": "ghost-keeps-chains-of-another-lift",
        "file": "witt.py",
        "text": "if vec.hi is not hi:",
        "replacement": "if vec.hi is None:",
        "tests": ["tests/test_witt.py::test_witt_trace_takes_a_kept_lift_only_when_it_is_high_enough"],
    },
    {
        "id": "decimal-string-of-any-digits",
        "file": "extensions.py",
        "text": "if not (digits.isascii() and digits.isdigit()):",
        "replacement": "if not digits.isdigit():",
        "tests": ["tests/test_extensions.py::test_spec_made_in_code_is_refused_like_its_document"],
    },
    {
        "id": "repeated-spec-key-keeps-the-last",
        "file": "extensions.py",
        "text": "json.load(fh, object_pairs_hook=_unique_keys)",
        "replacement": "json.load(fh)",
        "tests": ["tests/test_cli.py::test_malformed_spec_file_exits_2"],
    },
    {
        "id": "repeated-suite-accepted",
        "file": "harness.py",
        "text": "if name in config.suites[:i]:",
        "replacement": "if False:",
        "tests": ["tests/test_cli.py::test_repeated_suite_exits_2"],
    },
    {
        "id": "abbreviated-options-accepted",
        "file": "cli.py",
        "text": 'help="run verification suites", allow_abbrev=False',
        "replacement": 'help="run verification suites", allow_abbrev=True',
        "tests": ["tests/test_cli.py::test_an_abbreviated_option_exits_2"],
    },
    {
        "id": "empty-suite-name-dropped",
        "file": "cli.py",
        "text": 'tuple(s.strip() for s in args.suites.split(","))',
        "replacement": 'tuple(s.strip() for s in args.suites.split(",") if s.strip())',
        "tests": ["tests/test_cli.py::test_an_empty_suite_name_exits_2"],
    },
    {
        "id": "spec-restates-e_K",
        "file": "extensions.py",
        "text": 'SPEC_FIELDS = ("kind", "p", "precision", "E_K",',
        "replacement": 'SPEC_FIELDS = ("kind", "p", "precision", "e_K", "E_K",',
        "tests": [
            "tests/test_cli.py::test_malformed_spec_file_exits_2[custom-restates-e_K-verify]",
            "tests/test_cli.py::test_malformed_spec_file_exits_2"
            "[custom-restates-e_K-extension-info]",
            "tests/test_extensions.py::test_spec_file_rejects_mismatched_degree",
        ],
    },
    {
        "id": "kummer-base-ignores-f",
        "file": "extensions.py",
        "text": "base[f * (k - 1)] = math.comb(p, k)",
        "replacement": "base[k - 1] = math.comb(p, k)",
        "tests": ["tests/test_extensions.py::test_kummer_step_breaks_and_h1"],
    },
    {
        "id": "pi-L-power-by-square-and-multiply",
        "file": "rings.py",
        "text": "powers.append(powers[-1] * self.pi_L)",
        "replacement": "powers.append(self.pi_L ** len(powers))",
        "tests": ["tests/test_cohomology.py::test_trace_valuation_suite_product_count_at_p7"],
    },
    {
        "id": "eisenstein-constant-of-valuation-2-accepted",
        "file": "extensions.py",
        "text": "if i == 0 and v != 1:",
        "replacement": "if i == 0 and v > 2:",
        "tests": [
            "tests/test_extensions.py::test_spec_made_in_code_is_refused_like_its_document"
            "[E_K-constant-of-valuation-2]",
            "tests/test_extensions.py::test_spec_made_in_code_is_refused_like_its_document"
            "[E_L-constant-of-valuation-2]",
        ],
    },
    {
        "id": "trial-division-one-divisor-short",
        "file": "extensions.py",
        "text": "range(2, math.isqrt(n) + 1)",
        "replacement": "range(2, math.isqrt(n))",
        "tests": [
            "tests/test_rings.py::test_is_prime_matches_trial_division",
            "tests/test_extensions.py::test_spec_made_in_code_is_refused_like_its_document"
            "[custom-at-p4]",
        ],
    },
    {
        "id": "trace-lemmas-run-guarded-at-m",
        "file": "harness.py",
        "text": 'precision_guard(ext, config.m if selected - {"h1", "symbolic", "trace-lemmas"} else 0)',
        "replacement": "precision_guard(ext, config.m)",
        "tests": ["tests/test_cli.py::test_a_trace_lemmas_run_is_guarded_at_m_0"],
    },
    {
        "id": "sharpness-control-only-below-t",
        "file": "cohomology.py",
        "text": 'detail = {"applicable": ext.p ** m <= ext.t}',
        "replacement": 'detail = {"applicable": ext.p ** m < ext.t}',
        "tests": ["tests/test_cohomology.py::test_negative_control_witness_sqrt2"],
    },
    {
        "id": "sharpness-control-skips-the-pi-L-trace",
        "file": "cohomology.py",
        "text": "elif not ext.trace(a0).is_zero:",
        "replacement": "elif False:",
        "tests": ["tests/test_cohomology.py::test_negative_control_when_pi_L_is_not_trace_zero"],
    },
    {
        "id": "no-op-draw-from-zero",
        "file": "cohomology.py",
        "text": "return [rng.randrange(modulus) for _ in basis]",
        "replacement": "return [rng.randrange(0, modulus) for _ in basis]",
        "tests": ["tests/test_trace_zero.py"],
        "survives": True,
    },
)
