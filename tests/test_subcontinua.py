import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uilkit import subcontinua
from uilkit.cli import main
from uilkit.errors import (ConditionViolated, DomainError, UilkitError,
                           UnresolvedComparison)
from uilkit.hofbauer import PrecriticalTable, level_ends
from uilkit.kneading import (_materialize_q, _q_lookup, cascade_q,
                             cutting_data, example35_q, fibonacci_q,
                             nonrecurrent_example_nu, nu_from_orbit, nu_from_q)
from uilkit.presets import parse_slope
from uilkit.scalars import (C, Scalar, certified_cmp, s_one_minus,
                            slope_for_prefix, slope_interval, tent_apply)
from uilkit.subcontinua import (ChainLevel, CriticalProjectionChain,
                                build_chain, classify_chain,
                                find_qcond_chains, nasty_cascade_rule)
from uilkit.verdicts import approx


@pytest.fixture(scope="module")
def ex35_slope():
    return slope_for_prefix(nu_from_q(example35_q, 130).bits, name="ex35")


@pytest.fixture(scope="module")
def ex35_kd(ex35_slope):
    return cutting_data(nu_from_orbit(ex35_slope, 130))


def test_example35_strict_chain_found():
    res = find_qcond_chains(example35_q, 40, variant="strict")
    target = tuple(3 * i - 1 for i in range(3, 13))
    assert any(set(target) <= set(chain) for chain in res["chains"])


def test_fibonacci_relaxed_greedy():
    res = find_qcond_chains(fibonacci_q, 30, variant="relaxed")
    greedy = res["greedy"]
    assert len(greedy) >= 5
    for k_prev, k in zip(greedy, greedy[1:]):
        assert fibonacci_q(k) > k_prev - 1


def test_bounded_q_has_no_deep_strict_chains():
    kd = cutting_data(nonrecurrent_example_nu(200))
    res = find_qcond_chains(list(kd.Q), len(kd.Q), variant="strict")
    assert all(len(chain) <= 2 for chain in res["chains"])


def test_chain_finder_soundness():
    # every returned chain satisfies its variant's inequalities verbatim
    for variant in ("strict", "relaxed"):
        res = find_qcond_chains(example35_q, 40, variant=variant)
        qs = [example35_q(k) for k in range(1, 41)]
        for chain in res["chains"]:
            for k_prev, k in zip(chain, chain[1:]):
                inner = qs[qs[k - 2] + 1 - 1] if k >= 2 else None
                if variant == "strict":
                    assert qs[k - 1] == k_prev
                    assert inner < k_prev - 1
                else:
                    assert inner < k_prev - 1 < qs[k - 1]


def _satisfies(q_of, variant, k_prev, k):
    """The chain step condition from k_prev to k, as the module docstring
    states it, one pair at a time."""
    qk = q_of(k)
    inner = q_of(q_of(k - 1) + 1) if q_of(k - 1) is not None else None
    if qk is None or inner is None:
        return False
    if variant == "strict":
        return qk == k_prev and inner < k_prev - 1
    if variant == "relaxed":
        return inner < k_prev - 1 < qk
    raise DomainError(f"unknown chain variant {variant!r}")


def _old_find_qcond_chains(q, horizon, variant):
    """find_qcond_chains as it was: a seen-set over the reported chains and
    a starts scan over every successor list per index."""
    qs = _materialize_q(q, horizon)[:horizon]
    m = len(qs)
    q_of = _q_lookup(qs)
    succ = {k_prev: [k for k in range(k_prev + 1, m + 1)
                     if _satisfies(q_of, variant, k_prev, k)]
            for k_prev in range(1, m + 1)}
    chains = []
    seen_prefix = set()

    def extend(chain):
        if len(chains) >= subcontinua._MAX_CHAINS:
            return
        nexts = succ.get(chain[-1], [])
        if not nexts:
            if len(chain) >= subcontinua._MIN_CHAIN_LEN \
                    and chain not in seen_prefix:
                seen_prefix.add(chain)
                chains.append(chain)
            return
        for k in nexts:
            extend(chain + (k,))

    starts = sorted({k for k in range(1, m + 1)
                     if succ[k] and not any(k in s for s in succ.values())})
    for k0 in starts or range(1, m + 1):
        extend((k0,))
    chains.sort()
    greedy, k_prev = [], 1
    for k in range(1, m + 1):
        if qs[k - 1] > k_prev - 1:
            greedy.append(k)
            k_prev = k
    return {"variant": variant, "chains": chains, "greedy": tuple(greedy),
            "horizon": m}


def _q_shift(d):
    return lambda k: max(k - d, 0)


@pytest.mark.parametrize("variant", ["strict", "relaxed"])
@pytest.mark.parametrize("q", [fibonacci_q, example35_q, cascade_q,
                               _q_shift(3), _q_shift(4), _q_shift(5)])
def test_chain_search_matches_the_code_it_replaced(q, variant):
    # the chain-search families of the benchmark at its horizons 30 to 60
    for horizon in (30, 40, 50, 60):
        assert find_qcond_chains(q, horizon, variant) == \
            _old_find_qcond_chains(q, horizon, variant)


@pytest.mark.parametrize("variant", ["strict", "relaxed"])
def test_fibonacci_chains_at_a_horizon_past_the_recursion_limit(variant):
    # chains of 1050 steps, deeper than the interpreter's recursion limit
    res = find_qcond_chains(fibonacci_q, 2100, variant)
    assert res["chains"] == [tuple(range(2, 2101, 2)), tuple(range(3, 2100, 2))]


def test_subcontinua_fib_at_horizon_2100_exits_0(capsys):
    assert main(["subcontinua", "--q", "fib", "--horizon", "2100"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]


def _q_lists(max_len):
    """Q(1), Q(2), ... with Q(k) in -2 .. k + 1: mostly in range, sometimes
    out of it on either side."""
    return st.integers(0, max_len).flatmap(lambda m: st.tuples(
        *[st.integers(-2, k + 1) for k in range(1, m + 1)]).map(list))


@settings(max_examples=300)
@given(qs=_q_lists(40), variant=st.sampled_from(["strict", "relaxed", "bogus"]))
def test_chain_search_matches_the_pairwise_search(qs, variant):
    # any list, in or out of range: the same chains, or the same error
    def run(search):
        try:
            return search(qs, len(qs), variant)
        except DomainError as exc:
            return str(exc)
    assert run(find_qcond_chains) == run(_old_find_qcond_chains)


@settings(max_examples=200)
@given(data=st.data(),
       variant=st.sampled_from(["strict", "relaxed", "bogus"]))
def test_build_chain_accepts_what_the_pairwise_condition_accepts(
        ex35_slope, ex35_kd, data, variant):
    zp = PrecriticalTable(ex35_slope, ex35_kd)
    k = data.draw(st.integers(2, ex35_kd.max_k))
    near_qk = st.integers(-2, 1).map(lambda d: ex35_kd.Q[k - 1] + d)
    k_prev = data.draw(st.one_of(near_qk, st.integers(-3, ex35_kd.max_k + 3)))
    try:
        want = _satisfies(_q_lookup(ex35_kd.Q), variant, k_prev, k)
    except DomainError as exc:
        with pytest.raises(DomainError, match=re.escape(str(exc))):
            build_chain((k_prev, k), zp, variant)
        return
    try:
        build_chain((k_prev, k), zp, variant)
        got = True
    except ConditionViolated as exc:
        assert "chain condition" in str(exc)
        got = False
    assert got == want, (k_prev, k)


def test_classify_example35_direct_spiral():
    chain = tuple(3 * i - 1 for i in range(1, 12))
    cc = classify_chain(chain, example35_q)
    assert cc.kind == "direct-spiral"


def test_classify_bounded_witness_sin_curve():
    # synthetic chain data with Q(k_i + 1) bounded along the tail
    qs = [0] * 64
    for i, k in enumerate((4, 8, 12, 16, 20, 24, 28)):
        qs[k] = 1      # Q(k_i + 1) = 1
    cc = classify_chain((4, 8, 12, 16, 20, 24, 28), qs)
    assert cc.kind == "basic-sin-curve"


def test_classify_short_chain_undetermined():
    assert classify_chain((2, 5), example35_q).kind == "undetermined"


def test_nasty_cascade_rule():
    cascade = nasty_cascade_rule(cascade_q, 20)
    assert cascade.is_positive
    assert cascade.witness["periods"][:5] == [2, 4, 8, 16, 32]
    assert nasty_cascade_rule(example35_q, 30).is_refuted
    assert nasty_cascade_rule(fibonacci_q, 30).is_refuted


@pytest.mark.parametrize("cascade_min", [0, -5])
def test_nasty_cascade_rule_needs_a_cascade_of_at_least_one(cascade_min):
    # an empty cascade used to pass len(passing) >= cascade_min: evidence
    # of nasty endpoints where every window is refuted
    with pytest.raises(DomainError, match="cascade_min"):
        nasty_cascade_rule(example35_q, 40, cascade_min)
    assert nasty_cascade_rule(example35_q, 40, 1).is_refuted


def test_nasty_cascade_rule_refutes_nothing_from_no_window():
    # a scan of fewer than two Q values used to refute every window of the
    # period-doubling map
    for q, horizon in ((cascade_q, 0), (cascade_q, 1), ([1], 40)):
        verdict = nasty_cascade_rule(q, horizon)
        assert verdict.status == "undetermined", (q, horizon)
        assert verdict.witness["reason"] == "no renormalization window"
    assert nasty_cascade_rule(cascade_q, 2).witness["cascade"] == [2]
    with pytest.raises(DomainError, match="horizon"):
        nasty_cascade_rule(cascade_q, -1)


def test_build_chain_levels_certified(ex35_slope, ex35_kd):
    zp = PrecriticalTable(ex35_slope, ex35_kd)
    chain = build_chain((2, 5, 8, 11), zp, variant="strict")
    assert chain.n_seq == tuple(ex35_kd.S[k] for k in (2, 5, 8, 11))
    assert all(lv.image_onto for lv in chain.levels)
    # level identity: T^{S_{k_i - 1}}(a_i) recovers a_{i-1} exactly
    for prev, lv in zip(chain.levels, chain.levels[1:]):
        y = lv.a
        for _ in range(ex35_kd.S[lv.k - 1]):
            y = tent_apply(ex35_slope, y)
        assert y.value == prev.a.value


def test_build_chain_rejects_corruption(ex35_slope, ex35_kd):
    zp = PrecriticalTable(ex35_slope, ex35_kd)
    with pytest.raises(ConditionViolated):
        build_chain((2, 5, 9), zp, variant="strict")


def test_build_chain_relaxed_l_avoids_c(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    greedy = find_qcond_chains(fibonacci_q, fib_kd.max_k,
                               variant="relaxed")["greedy"][:5]
    chain = build_chain(greedy, zp, variant="relaxed")
    # n_i = S_{k_1 - 1} + ... + S_{k_i - 1}, with n_0 = 0
    assert chain.n_seq == tuple(
        sum(fib_kd.S[k - 1] for k in greedy[1:i + 1])
        for i in range(len(greedy)))
    inner = [lv.l_image_avoids_c for lv in chain.levels[1:-1]]
    assert all(flag for flag in inner if flag is not None)


def test_direct_spiral_consistency_guard(ex35_slope, ex35_kd):
    # classification never reports a spiral when levels stabilize: feed a
    # bounded-Q chain through the numeric path and expect no spiral
    kd = cutting_data(nonrecurrent_example_nu(200))
    zp = PrecriticalTable(
        slope_for_prefix(nonrecurrent_example_nu(200).bits), kd)
    qs = list(kd.Q)
    fake_chain = (3, 5, 7, 9, 11, 13)
    cc = classify_chain(fake_chain, qs, zp)
    assert cc.kind != "direct-spiral"


# -- classify_chain's remaining returns ------------------------------------------

def test_classify_chain_without_q_values_is_undetermined():
    cc = classify_chain((2, 5, 8), [0, 1])
    assert cc.kind == "undetermined"
    assert cc.verdict.witness["reason"] == "Q(k_i + 1) not available"
    assert cc.verdict.depth == 0
    assert cc.to_json() == {"kind": "undetermined",
                            "verdict": cc.verdict.to_json()}


def test_classify_chain_mixed_tail_is_undetermined():
    # Q(k_i + 1) = 1, 1, 1, 2, 2, 2: the tail rises above the head, but by
    # less than the spiral rule asks, and no tail value is bounded by it
    chain = (4, 8, 12, 16, 20, 24)
    qs = [0] * 30
    for i, k in enumerate(chain):
        qs[k] = 1 if i < 3 else 2
    cc = classify_chain(chain, qs)
    assert cc.kind == "undetermined"
    assert cc.verdict.witness == {"reason": "mixed Q(k_i+1) tail",
                                  "q_values": [1, 1, 1, 2, 2, 2]}


def test_divergent_q_without_level_decay_is_undetermined(ex35_slope,
                                                         ex35_kd):
    # Q(k_i + 1) = 4, 2, 5, 7 diverges along the chain by the symbolic rule,
    # while the levels |D_{S_k}| of ex35's own tower do not shrink
    chain = (5, 6, 7, 8)
    qs = list(ex35_kd.Q)
    assert classify_chain(chain, qs).kind == "direct-spiral"
    cc = classify_chain(chain, qs, PrecriticalTable(ex35_slope, ex35_kd))
    assert cc.kind == "undetermined"
    assert cc.verdict.witness == {
        "reason": "symbolic divergence but no numeric decay",
        "q_values": [4, 2, 5, 7]}


def test_kneading_map_is_held_to_the_cutting_data(ex35_slope, ex35_kd):
    # Fibonacci's Q beside ex35's cutting data and tower would read the
    # levels of one word against the map of another; they part at Q(4)
    chain = (2, 5, 8, 11, 14)
    assert list(ex35_kd.Q[:4]) == [0, 0, 1, 0] and fibonacci_q(4) == 2
    with pytest.raises(DomainError, match=r"kneading map disagrees with the "
                                          r"cutting data at Q\(4\)$"):
        classify_chain(chain, fibonacci_q,
                       PrecriticalTable(ex35_slope, ex35_kd))
    cc = classify_chain(chain, example35_q,
                        PrecriticalTable(ex35_slope, ex35_kd))
    assert cc.kind == "direct-spiral"
    assert cc.verdict.witness == {"q_values": [1, 4, 7, 10, 13],
                                  "level_decay": True}
    assert classify_chain(chain, fibonacci_q).kind == "direct-spiral"


def test_basic_sin_curve_reports_its_bar(nonrec_slope, nonrec_kd):
    zp = PrecriticalTable(nonrec_slope, nonrec_kd)
    chain = (3, 5, 7, 9, 11, 13)
    cc = classify_chain(chain, list(nonrec_kd.Q), zp)
    assert cc.kind == "basic-sin-curve"
    lo, hi = level_ends(zp.orbit, nonrec_kd, [nonrec_kd.S[k] for k in chain])
    assert cc.bar_enclosure == (lo, hi) and lo <= hi
    assert cc.to_json()["bar"] == {"lo": approx(lo), "hi": approx(hi)}
    assert classify_chain(chain, list(nonrec_kd.Q)).bar_enclosure is None


# -- the exact inverse branch against the bisection it replaced --------------
#
# The oracle is build_chain as it was: each a_i (i >= 2) bracketed by 64
# certified halvings of its cell piece under T^{S_m}, m = k_i - 1.  The
# exact inverse must land in every bracket, and raise the same error type
# and text wherever the bisection raised one.

def _branch_image(slope, zp, m, x):
    for _ in range(zp.kd.S[m]):
        x = tent_apply(slope, x)
    return x


def _bisect_preimage(slope, zp, m, target, side, bits):
    lo = zp.boundary(m - 1)
    hi = zp.boundary(m)
    if side == "right":
        lo, hi = s_one_minus(hi), s_one_minus(lo)
    a, b = lo.hi, hi.lo
    fa = _branch_image(slope, zp, m, Scalar.exact(a))
    fb = _branch_image(slope, zp, m, Scalar.exact(b))
    try:
        increasing = certified_cmp(fa, fb) < 0
        lo_v, hi_v = (fa, fb) if increasing else (fb, fa)
        if not (certified_cmp(target, lo_v) > 0
                and certified_cmp(target, hi_v) < 0):
            raise ConditionViolated(
                m, "target not inside the branch image of the cell piece")
    except UnresolvedComparison:
        raise ConditionViolated(m, "branch image comparison unresolved")
    for _ in range(bits):
        mid = (a + b) / 2
        fm = _branch_image(slope, zp, m, Scalar.exact(mid))
        try:
            cmp = certified_cmp(fm, target)
        except UnresolvedComparison:
            break
        if cmp == 0:
            return Scalar.exact(mid)
        if (cmp < 0) == increasing:
            a = mid
        else:
            b = mid
    return Scalar(a, b)


def bisection_chain(slope, k_seq, zp, variant="strict", bits=64):
    kd = zp.kd
    q_of = _q_lookup(kd.Q)
    k_seq = tuple(k_seq)
    if len(k_seq) < 2:
        raise DomainError("a chain needs at least two indices")
    for k_prev, k in zip(k_seq, k_seq[1:]):
        if k_prev not in subcontinua._prev_range(q_of, variant, k):
            raise ConditionViolated(
                k, f"chain condition ({variant}) fails at {k_prev} -> {k}")
    if variant == "strict":
        n_seq = tuple(kd.S[k] for k in k_seq)
    else:
        n_seq = tuple(itertools.accumulate(
            (kd.S[k - 1] for k in k_seq[1:]), initial=0))
    sides = {len(k_seq) - 1: "left"}
    for i in range(1, len(k_seq) - 1):
        s_val = kd.S[kd.q_of(k_seq[i + 1] - 1)]
        sides[i] = "right" if kd.nu.bits[s_val - 1] == "1" else "left"
    m1 = k_seq[1] - 1
    lo, hi = zp.boundary(m1 - 1), zp.boundary(m1)
    a_prev = Scalar.exact((lo.hi + hi.lo) / 2)
    if sides[1] == "right":
        a_prev = s_one_minus(a_prev)
    levels = [ChainLevel(1, k_seq[1], n_seq[1], m1, a_prev, sides[1], True)]
    for i in range(2, len(k_seq)):
        m = k_seq[i] - 1
        a_i = _bisect_preimage(slope, zp, m, a_prev, sides[i], bits)
        onto = _branch_image(slope, zp, m, a_i).overlaps(a_prev)
        l_avoid = None
        if variant == "relaxed" and i + 1 < len(k_seq):
            l_end = zp.orbit.value(kd.S[k_seq[i + 1] - 1])
            l_set = _branch_image(slope, zp, m, Scalar(
                min(Fraction(C), l_end.lo), max(Fraction(C), l_end.hi)))
            l_avoid = not (l_set.lo < C < l_set.hi)
        levels.append(ChainLevel(i, k_seq[i], n_seq[i], m, a_i, sides[i],
                                 onto, l_avoid))
        if not onto:
            raise ConditionViolated(i, "level image does not meet a_{i-1}")
        a_prev = a_i
    return CriticalProjectionChain(k_seq, n_seq, levels, variant)


def _assert_chain_matches_bisection(slope, k_seq, zp, variant):
    """The levels of build_chain against the oracle's; returns the outcome
    kind, for counting."""
    try:
        want = bisection_chain(slope, k_seq, zp, variant)
    except UilkitError as err:
        with pytest.raises(UilkitError) as got:
            build_chain(k_seq, zp, variant)
        assert (type(got.value), str(got.value)) == (type(err), str(err)), \
            k_seq
        return f"{type(err).__name__}: {err}"
    got = build_chain(k_seq, zp, variant)
    assert (got.k_seq, got.n_seq, got.variant) == \
        (want.k_seq, want.n_seq, want.variant)
    assert len(got.levels) == len(want.levels)
    for g, w in zip(got.levels, want.levels):
        assert (g.i, g.k, g.n, g.cell, g.side, g.image_onto,
                g.l_image_avoids_c) == (w.i, w.k, w.n, w.cell, w.side,
                                        w.image_onto, w.l_image_avoids_c)
        assert w.a.lo <= g.a.lo and g.a.hi <= w.a.hi, (k_seq, g.i)
        assert g.a.is_exact == (slope.is_exact or g.i == 1)
    if slope.is_exact:      # T^{S_m}(a_i) = a_{i-1} exactly
        for prev, lv in zip(got.levels, got.levels[1:]):
            assert zp.image(lv.a, zp.kd.S[lv.cell]).value == prev.a.value
    return "ok"


@pytest.fixture(scope="module")
def stdlib_tables():
    """The ex35 and fib tables that tests/stdlib_check.py builds chains on."""
    out = {}
    for name, q in (("ex35", example35_q), ("fib", fibonacci_q)):
        slope = slope_for_prefix(nu_from_q(q, 120).bits)
        out[name] = slope, PrecriticalTable(
            slope, cutting_data(nu_from_orbit(slope, 120)))
    return out


def test_build_chain_matches_the_bisection_on_the_tested_chains(
        ex35_slope, ex35_kd, fib_slope, fib_kd, stdlib_tables):
    ex35_zp = PrecriticalTable(ex35_slope, ex35_kd)
    fib_zp = PrecriticalTable(fib_slope, fib_kd)
    greedy = find_qcond_chains(fibonacci_q, fib_kd.max_k,
                               variant="relaxed")["greedy"][:5]
    slope, zp = stdlib_tables["ex35"]
    cases = [(ex35_slope, ex35_zp, chain, "strict")
             for chain in ((2, 5, 8, 11), (2, 5, 9), (2,))]
    cases += [(slope, zp, chain, "strict")
              for chain in ((2, 5, 8, 11), (2, 5, 9), (2,))]
    cases.append((fib_slope, fib_zp, greedy, "relaxed"))
    slope, zp = stdlib_tables["fib"]
    cases.append((slope, zp, find_qcond_chains(
        fibonacci_q, zp.kd.max_k, variant="relaxed")["greedy"][:5],
        "relaxed"))
    outcomes = [_assert_chain_matches_bisection(slope, chain, zp, variant)
                for slope, zp, chain, variant in cases]
    violated = "ConditionViolated: chain condition violated at level 9: " \
        "chain condition (strict) fails at 5 -> 9"
    short = "DomainError: a chain needs at least two indices"
    assert outcomes == ["ok", violated, short] * 2 + ["ok", "ok"]


def _sweep_chains(kd, variant, rng, count):
    """The chains of find_qcond_chains and its greedy chain, random
    stretches of them, and random walks along the allowed steps."""
    res = find_qcond_chains(list(kd.Q), kd.max_k, variant)
    found = res["chains"] + [res["greedy"]]
    q_of = _q_lookup(kd.Q)
    succ = {k: [] for k in range(1, kd.max_k + 1)}
    for k in range(2, kd.max_k + 1):
        for k_prev in subcontinua._prev_range(q_of, variant, k):
            if 1 <= k_prev < k:
                succ[k_prev].append(k)
    starts = [k for k in succ if succ[k]]
    chains = list(found)
    for _ in range(count):
        chain = rng.choice(found)
        i = rng.randrange(len(chain))
        chains.append(chain[i:rng.randrange(i + 1, len(chain) + 1)])
        walk = [rng.choice(starts)]
        while succ[walk[-1]] and rng.random() < 0.9:
            walk.append(rng.choice(succ[walk[-1]]))
        chains.append(tuple(walk))
    return chains


@pytest.fixture(scope="module")
def sweep_tables(ex35_slope, ex35_kd, stdlib_tables):
    """ex35 and fib (exact), sqrt3 (algebraic) and an interval 2 * 10^-60
    wide around the ex35 slope."""
    sqrt3 = parse_slope("sqrt3")
    half = Fraction(1, 10 ** 60)
    interval = slope_interval(ex35_slope.s.lo - half, ex35_slope.s.lo + half)
    tables = [(ex35_slope, ex35_kd),
              (sqrt3, cutting_data(nu_from_orbit(sqrt3, 200))),
              (interval, cutting_data(nu_from_orbit(interval, 130)))]
    return [(slope, PrecriticalTable(slope, kd)) for slope, kd in tables] \
        + [stdlib_tables["fib"]]


@pytest.mark.parametrize("variant", ["strict", "relaxed"])
def test_build_chain_matches_the_bisection_on_admissible_chains(
        sweep_tables, variant):
    rng = random.Random(26)
    deepest = []            # levels of the longest chain realized, per slope
    for slope, zp in sweep_tables:
        levels = 0
        for chain in _sweep_chains(zp.kd, variant, rng, 12):
            outcome = _assert_chain_matches_bisection(slope, chain, zp,
                                                      variant)
            if outcome == "ok":
                levels = max(levels, len(chain) - 1)
        deepest.append(levels)
    # sqrt3 has no chain of three indices at this horizon
    assert deepest[1] == 1 and min(deepest[:1] + deepest[2:]) >= 3


def test_build_chain_matches_the_bisection_past_the_chain_condition(
        sweep_tables, monkeypatch):
    # with every step allowed, index sets that are no chain reach the
    # inverse, and some of their points fall outside their cell pieces
    monkeypatch.setattr(subcontinua, "_prev_range",
                        lambda q_of, variant, k: range(-k, k))
    rng = random.Random(27)
    outcomes = set()
    for slope, zp in sweep_tables:
        top = min(zp.kd.max_k, 12)
        for _ in range(15):
            chain = sorted(rng.sample(range(1, top + 1), rng.randrange(2, 6)))
            variant = rng.choice(("strict", "relaxed"))
            outcomes.add(_assert_chain_matches_bisection(slope, chain, zp,
                                                         variant))
    assert "ok" in outcomes
    assert any(o.endswith("target not inside the branch image of the cell "
                          "piece") for o in outcomes), outcomes


def test_fib400_relaxed_chain_has_exact_levels():
    # the bisection's comparison printed a c-value of more than 4300 digits
    # into its error text and raised ValueError here
    slope = parse_slope("fib:400")
    zp = PrecriticalTable(slope, cutting_data(nu_from_orbit(slope, 400)))
    chain = build_chain((3, 5, 7, 9, 11), zp, "relaxed")
    assert len(chain.levels) == 4
    assert all(lv.a.is_exact and lv.image_onto for lv in chain.levels)
    for prev, lv in zip(chain.levels, chain.levels[1:]):
        assert zp.image(lv.a, zp.kd.S[lv.cell]).value == prev.a.value
    assert chain.levels[-1].a.value.denominator.bit_length() > 4300 * 3


def test_nasty_cascade_rule_depth_is_the_number_of_values_read():
    # one list per verdict: undetermined, evidence, refuted
    for qs, status in (([0, 1, 1, 2, 3, 3, 4], "undetermined"),
                       ([cascade_q(k) for k in range(1, 41)], "evidence"),
                       ([example35_q(k) for k in range(1, 31)], "refuted")):
        for horizon in (None, 50):
            verdict = nasty_cascade_rule(qs, horizon)
            assert (verdict.status, verdict.depth) == (status, len(qs)), \
                horizon


def test_build_chain_rejects_another_slope(ex35_kd):
    # the chain's slope is its table's, and a table refuses another
    # slope's word when it is built
    with pytest.raises(DomainError, match="disagrees with the orbit table"):
        build_chain((2, 5, 8, 11),
                    PrecriticalTable(slope_for_prefix("1001"), ex35_kd))
