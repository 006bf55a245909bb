"""The trace-zero sampler against the rejection sampler it replaced, which is
kept here as an oracle, and the linearity its generator recursion rests on.

``sample_trace_zero`` draws one combination of the generators of T_{m+1}.
The rejection oracle builds trace-zero vectors level by level instead:
kernel draws plus a solution of each level's carry target, redrawn when
the target leaves the trace image.  Both must sample the same group.
"""

import random

import pytest

from wittram import cohomology
from wittram.cohomology import (
    _carry_target,
    derive_rng,
    derive_seed,
    linear_map_of,
    member,
    sample_trace_zero,
    solve_linear,
    trace_kernel_saturated,
    trace_zero_generators,
)
from wittram.errors import VerificationError
from wittram.extensions import build_extension
from wittram.witt import (
    WittVec,
    _from_ghost,
    frobenius_chain,
    ghost_level,
    witt_combination,
    witt_trace,
)

from oracles import T4_SPEC, conjugates, in_trace_zero_span, rebuilt

#: redraws per level before the oracle backs off one level
RETRY_BUDGET = 64

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


class OracleExhausted(Exception):
    """The rejection oracle ran out of retries."""


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
    """The rejection sampler: every draw gets its element, its Frobenius
    chain and an exact carry target, which ``member`` on the trace image
    accepts or rejects; a rejected level redraws the one below, backing off
    further as the per-level budgets run out."""
    rng = derive_rng(seed, "rejection-oracle", ext.name, m)
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
            raise OracleExhausted(f"global retry budget exhausted at level {n}")
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
                raise OracleExhausted(f"retry budget exhausted while extending level {n}")
            lvl -= 1
        retries[lvl] += 1
        comps[lvl:] = [particular[lvl] + draw()]
        chains[lvl:] = [frobenius_chain(hi, comps[lvl])]
        n = lvl + 1
    vec = WittVec(ext, tuple(comps))
    assert witt_trace(vec).is_zero
    return vec


@pytest.mark.parametrize("name,m", CASES)
def test_sampler_matches_the_rejection_oracle(extensions, name, m):
    # both sample the trace-zero vectors over the saturated kernel: every
    # vector of the oracle lies in the span the sampler draws from, and
    # every draw is trace-zero with its a_0 in the saturated kernel
    # (the oracle gives up on some seeds of the t=4 spec at m = 3; the
    # sampler never does)
    ext = extensions[name]
    in_span = in_trace_zero_span(ext, m)
    kernel = trace_kernel_saturated(ext, ext.tower.lift(ext.N + 1))
    for seed in range(5):
        try:
            assert in_span(oracle_sample(ext, m, seed=seed).components), seed
        except OracleExhausted:
            pass
        drawn = sample_trace_zero(ext, m, seed=seed)
        assert witt_trace(drawn).is_zero and member(kernel, drawn[0].coeffs), seed


@pytest.mark.parametrize("name", sorted(EXTENSIONS))
def test_predicted_membership_equals_exact_membership(extensions, name):
    # delta_n(sum_i x_i g_i) = sum_i x_i delta_n(g_i) modulo tr(O_L) for the
    # generators g_i of T_n: the linear prediction of the level map decides
    # whether a combination extends, exactly as its own carry target does
    ext = extensions[name]
    m = EXTENSIONS[name][2]
    image = linear_map_of(ext, "trace").image
    hi = ext.tower.lift(ext.N + m)
    pN = ext.tower.pN
    rng = random.Random(derive_seed("predicted-membership", name))
    seen = set()
    for n in range(1, m + 1):
        lo, ghosts = trace_zero_generators(ext, n - 1)
        chains = [[frobenius_chain(hi, a) for a in _from_ghost(ext, lo, g).components]
                  for g in ghosts]
        targets = [_carry_target(ext, hi, c, n) for c in chains]
        for _ in range(20):
            x = [rng.randrange(pN) for _ in ghosts]
            h = _from_ghost(ext, lo, witt_combination(lo, x, ghosts))
            h_chains = [frobenius_chain(hi, a) for a in h.components]
            exact = _carry_target(ext, hi, h_chains, n)
            assert exact == conjugate_sum_target(ext, hi, h_chains, n)
            predicted = [sum(c * t[j] for c, t in zip(x, targets)) % pN
                         for j in range(ext.e_K)]
            in_image = member(image, exact)
            assert member(image, predicted) == in_image
            assert member(image, [(e - q) % pN for e, q in zip(exact, predicted)])
            seen.add(in_image)
    assert seen == {True, False}


@pytest.mark.parametrize("name,m", [("gaussian", 2), ("cyclo3", 2), ("t4", 2)])
def test_zeroed_table_row_is_caught(extensions, monkeypatch, name, m):
    # a generator whose carry target lies outside the trace image matters to
    # the level map; zeroing its target there makes lifts that are not
    # trace-zero, which the next level's carry target or the Witt trace of
    # the draw must refuse
    ext = extensions[name]
    image = linear_map_of(ext, "trace").image
    hi = ext.tower.lift(ext.N + m)
    lo, ghosts = trace_zero_generators(ext, 0)
    live = [i for i, g in enumerate(ghosts)
            if not member(image, _carry_target(
                ext, hi, [frobenius_chain(hi, _from_ghost(ext, lo, g)[0])], 1))]
    assert live
    carry_target = cohomology._carry_target
    for i in live:
        calls = []

        def zeroing(ext, hi, chains, n):
            calls.append(n)
            target = carry_target(ext, hi, chains, n)
            return (0,) * len(target) if n == 1 and len(calls) == i + 1 else target

        cohomology.trace_zero_generators.cache_clear()
        monkeypatch.setattr(cohomology, "_carry_target", zeroing)
        with pytest.raises(VerificationError):
            for seed in range(40):
                sample_trace_zero(ext, m, seed=seed)
        monkeypatch.undo()
        cohomology.trace_zero_generators.cache_clear()


def test_sqrt2_rejections_need_few_exact_targets(extensions, monkeypatch):
    # the generators take one exact carry target per generator and level,
    # and the draws none, so 200 vectors of length 3 cost four
    ext = extensions["sqrt2"]
    cohomology.trace_zero_generators.cache_clear()
    generators = [len(trace_zero_generators(ext, k)[1]) for k in (0, 1)]
    calls = []

    def counting(*args):
        calls.append(args[3])
        return _carry_target(*args)

    monkeypatch.setattr(cohomology, "_carry_target", counting)
    for trial in range(200):
        sample_trace_zero(ext, 2, seed=derive_seed(0, "vanishing", trial))
    assert calls == [1] * generators[0] + [2] * generators[1]
    cohomology.trace_zero_generators.cache_clear()
