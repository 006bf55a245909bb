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
        "tests": ["tests/test_trace_zero.py"],
    },
    {
        "id": "unsaturated-kernel-at-level-0",
        "file": "cohomology.py",
        "text": "for k in trace_kernel_saturated(ext, hi).rows)",
        "replacement": 'for k in linear_map_of(ext, "trace").kernel.rows)',
        "tests": ["tests/test_trace_zero.py"],
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
