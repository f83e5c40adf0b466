import pytest

from uilkit import subcontinua
from uilkit.errors import ConditionViolated
from uilkit.hofbauer import OrbitTable, PrecriticalTable
from uilkit.kneading import (_materialize_q, _q_lookup, cascade_q,
                             cutting_data, example35_q, fibonacci_q,
                             nonrecurrent_example_nu, nu_from_orbit, nu_from_q)
from uilkit.scalars import C, slope_for_prefix, tent_apply
from uilkit.subcontinua import (_satisfies, build_chain, classify_chain,
                                find_qcond_chains, nasty_cascade_rule)


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


def test_build_chain_levels_certified(ex35_slope, ex35_kd):
    zp = PrecriticalTable(ex35_slope, ex35_kd)
    chain = build_chain(ex35_slope, (2, 5, 8, 11), zp, variant="strict",
                        bisect_bits=48)
    assert chain.n_seq == tuple(ex35_kd.S[k] for k in (2, 5, 8, 11))
    assert all(lv.image_onto for lv in chain.levels)
    # level identity: T^{S_{k_i - 1}}(a_i) recovers a_{i-1} within enclosures
    for prev, lv in zip(chain.levels, chain.levels[1:]):
        y = lv.a
        for _ in range(ex35_kd.S[lv.k - 1]):
            y = tent_apply(ex35_slope, y)
        assert y.overlaps(prev.a)


def test_build_chain_rejects_corruption(ex35_slope, ex35_kd):
    zp = PrecriticalTable(ex35_slope, ex35_kd)
    with pytest.raises(ConditionViolated):
        build_chain(ex35_slope, (2, 5, 9), zp, variant="strict")


def test_build_chain_relaxed_l_avoids_c(fib_slope, fib_kd):
    zp = PrecriticalTable(fib_slope, fib_kd)
    greedy = find_qcond_chains(fibonacci_q, fib_kd.max_k,
                               variant="relaxed")["greedy"][:5]
    chain = build_chain(fib_slope, greedy, zp, variant="relaxed",
                        bisect_bits=40)
    inner = [lv.l_image_avoids_c for lv in chain.levels[1:-1]]
    assert all(flag for flag in inner if flag is not None)


def test_direct_spiral_consistency_guard(ex35_slope, ex35_kd):
    # classification never reports a spiral when levels stabilize: feed a
    # bounded-Q chain through the numeric path and expect no spiral
    kd = cutting_data(nonrecurrent_example_nu(200))
    orbit = OrbitTable(slope_for_prefix(nonrecurrent_example_nu(200).bits))
    qs = list(kd.Q)
    fake_chain = (3, 5, 7, 9, 11, 13)
    cc = classify_chain(fake_chain, qs, kd=kd, orbit=orbit)
    assert cc.kind != "direct-spiral"
