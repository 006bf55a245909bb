"""The trace-zero sampler's linear rejection test against the rejection
sampler it replaced, which is kept here as the oracle."""

import random

import pytest

from wittram import cohomology
from wittram.cohomology import (
    RETRY_BUDGET,
    _carry_target,
    _kernel_targets,
    _level_step,
    derive_rng,
    derive_seed,
    from_basis,
    linear_map_of,
    member,
    random_from_basis,
    sample_trace_zero,
    solve_linear,
    trace_kernel_saturated,
)
from wittram.errors import SamplingExhausted, VerificationError
from wittram.extensions import build_extension
from wittram.rings import matvec
from wittram.witt import WittVec, frobenius_chain, ghost_level, witt_trace

from oracles import T4_SPEC, conjugates, rebuilt

#: (extension, precision, largest m)
EXTENSIONS = {
    "gaussian": ({"kind": "quadratic-gaussian"}, 48, 4),
    "sqrt2": ({"kind": "quadratic-sqrt2"}, 48, 3),
    "cyclo3": ({"kind": "cyclotomic-step", "p": 3}, 32, 3),
    "t4": (T4_SPEC, 48, 3),
}

CASES = ([("gaussian", m) for m in (1, 2, 3, 4)]
         + [("sqrt2", m) for m in (1, 2, 3)]
         + [("cyclo3", m) for m in (1, 2, 3)]
         + [("t4", m) for m in (2, 3)])


@pytest.fixture(scope="module")
def extensions():
    return {name: build_extension(spec, precision=N)
            for name, (spec, N, _) in EXTENSIONS.items()}


def conjugate_sum_target(ext, hi, chains, n):
    """``_carry_target`` re-derived without the trace matrix: minus the sum
    of the conjugates of W_n, under sigma of the extension rebuilt at the
    precision of ``hi``, over p^n, reduced to N.  It must lie in O_K; its
    O_K coordinates are returned."""
    up = rebuilt(ext, hi.N)
    w = up.tower.element(ghost_level(hi, chains, n))
    total = sum(conjugates(up, w)).coeffs
    pn = ext.p ** n
    assert not any(x % pn for x in total)
    target = -ext.tower.element([x // pn for x in total])
    assert target.lies_in_K
    return target.coeffs[:ext.e_K]


def oracle_sample(ext, m, seed=0):
    """The rejection sampler without linear prediction: every draw gets its
    element, its Frobenius chain and an exact carry target, which
    ``member`` on the trace image accepts or rejects."""
    rng = derive_rng(seed, "sample-trace-zero", ext.name, m)
    kernel = trace_kernel_saturated(ext, ext.tower.lift(ext.N + 1))
    image = linear_map_of(ext, "trace").image
    hi = ext.tower.lift(ext.N + m)
    pN = ext.tower.pN

    def draw():
        vec = [0] * kernel.width
        for row in kernel.rows:
            c = rng.randrange(pN)
            vec = [a + c * b for a, b in zip(vec, row)]
        return ext.tower.element(vec)

    def level_step(chains):
        c = _carry_target(ext, hi, chains, len(chains))
        if c != conjugate_sum_target(ext, hi, chains, len(chains)):
            raise VerificationError("carry target differs from its conjugate sum")
        if not member(image, c):
            return None
        return solve_linear(ext, "trace", c)

    comps = [draw()]
    chains = [frobenius_chain(hi, comps[0])]
    particular = [ext.tower.zero_ol] + [None] * m
    retries = [0] * (m + 1)
    attempts = 0
    n = 1
    while n <= m:
        attempts += 1
        if attempts > RETRY_BUDGET * (m + 1) * 4:
            raise SamplingExhausted(
                f"global retry budget exhausted at level {n}", level=n)
        x = level_step(chains)
        if x is not None:
            particular[n] = x
            comps.append(x + draw())
            chains.append(frobenius_chain(hi, comps[n]))
            n += 1
            continue
        lvl = n - 1
        while retries[lvl] == RETRY_BUDGET:
            retries[lvl] = 0
            if lvl == 0:
                raise SamplingExhausted(
                    f"retry budget exhausted while extending level {n}", level=n)
            lvl -= 1
        retries[lvl] += 1
        comps[lvl:] = [particular[lvl] + draw()]
        chains[lvl:] = [frobenius_chain(hi, comps[lvl])]
        n = lvl + 1
    vec = WittVec(ext, tuple(comps))
    assert witt_trace(vec).is_zero
    return vec


def outcome(sampler, ext, m, seed):
    """The components a sampler returns, or the message and level of its
    SamplingExhausted."""
    try:
        return sampler(ext, m, seed=seed).components
    except SamplingExhausted as exc:
        return (str(exc), exc.level)


@pytest.mark.parametrize("name,m", CASES)
def test_sampler_matches_the_rejection_oracle(extensions, name, m):
    ext = extensions[name]
    for seed in range(40):
        assert outcome(sample_trace_zero, ext, m, seed) == \
            outcome(oracle_sample, ext, m, seed), seed


def _prefix_and_solution(ext, hi, n, rng):
    """A trace-zero prefix P of length n-1, as Frobenius chains in ``hi``,
    and the level step's solution x for it (x = 0 at n = 1)."""
    if n == 1:
        return [], ext.tower.zero_ol
    while True:
        prefix = sample_trace_zero(ext, n - 2, seed=rng.randrange(2 ** 32))
        chains = [frobenius_chain(hi, a) for a in prefix.components]
        _, x = _level_step(ext, hi, chains)
        if x is not None:
            return chains, x


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_predicted_membership_equals_exact_membership(extensions, name):
    # delta_n(P, x + sum_i c_i k_i) = delta_n(P, x) + sum_i c_i t_i modulo
    # tr(O_L), for the level step's x and the kernel rows k_i, at every level
    ext = extensions[name]
    m = EXTENSIONS[name][2]
    hi = ext.tower.lift(ext.N + m)
    kernel = trace_kernel_saturated(ext, ext.tower.lift(ext.N + 1))
    image = linear_map_of(ext, "trace").image
    targets = _kernel_targets(ext, hi)
    pN = ext.tower.pN
    rng = random.Random(derive_seed("predicted-membership", name))
    seen = set()
    for n in range(1, m + 1):
        chains, x = _prefix_and_solution(ext, hi, n, rng)
        base = _carry_target(ext, hi, chains + [frobenius_chain(hi, x)], n)
        for _ in range(40):
            coeffs = random_from_basis(ext, kernel, rng)
            a = x + from_basis(ext, kernel, coeffs)
            a_chains = chains + [frobenius_chain(hi, a)]
            exact = _carry_target(ext, hi, a_chains, n)
            assert exact == conjugate_sum_target(ext, hi, a_chains, n)
            shift = matvec(targets, coeffs, pN)
            predicted = tuple((b + s) % pN for b, s in zip(base, shift))
            in_image = member(image, exact)
            assert member(image, predicted) == in_image
            assert member(image, tuple(
                (c - q) % pN for c, q in zip(exact, predicted)))
            seen.add(in_image)
    assert seen == {True, False}


@pytest.mark.parametrize("name,m", [("gaussian", 2), ("cyclo3", 2), ("t4", 2)])
def test_zeroed_table_row_is_caught(extensions, monkeypatch, name, m):
    # a kernel row whose target lies outside the trace image matters to every
    # prediction; zeroing it must raise or change the draws.  (The one row of
    # quadratic-sqrt2 has its target in the image, so zeroing it changes no
    # prediction there.)
    ext = extensions[name]
    hi = ext.tower.lift(ext.N + m)
    table = _kernel_targets(ext, hi)
    image = linear_map_of(ext, "trace").image
    columns = list(zip(*table))
    live = [i for i, t in enumerate(columns) if not member(image, t)]
    assert live
    oracle = [outcome(oracle_sample, ext, m, seed) for seed in range(40)]
    for i in live:
        zeroed = tuple(tuple(0 if j == i else x for j, x in enumerate(row))
                       for row in table)
        monkeypatch.setattr(cohomology, "_kernel_targets", lambda ext, hi: zeroed)
        caught = False
        for seed in range(40):
            try:
                caught = outcome(sample_trace_zero, ext, m, seed) != oracle[seed]
            except VerificationError:
                caught = True
            if caught:
                break
        assert caught, i


def test_sqrt2_rejections_need_few_exact_targets(extensions, monkeypatch):
    # 200 vectors of length 3 on quadratic-sqrt2 took 13,930 exact carry
    # targets when every rejected draw needed one
    ext = extensions["sqrt2"]
    calls = []

    def counting(*args):
        calls.append(args[3])
        return _carry_target(*args)

    monkeypatch.setattr(cohomology, "_carry_target", counting)
    for trial in range(200):
        sample_trace_zero(ext, 2, seed=derive_seed(0, "vanishing", trial))
    assert len(calls) <= 1000
