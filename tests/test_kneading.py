import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from uilkit import scalars, verdicts as V
from uilkit.errors import (ConfigError, CriticalHit, DomainError,
                           NotAdmissible, PrecisionExhausted, UilkitError)
from uilkit.kneading import (RULE_DISJOINT, RULE_Q, RULE_RENORM,
                             KneadingPrefix, _extend_cutting, _lcp,
                             _materialize_q, _scan_structure,
                             admissible_disjoint, admissible_q, cascade_q,
                             cutting_data, emit_dotted, example35_q,
                             fibonacci_q, nonrecurrent_example_nu,
                             nu_from_orbit, nu_from_q, parse_dotted,
                             q_asymptotics, renorm_scan, rho_step)
from uilkit.presets import parse_q, parse_slope
from uilkit.scalars import (DEFAULT_PREC_CAP, SignRelC, _exact_orbit,
                            critical_orbit, slope_exact, slope_interval)
from uilkit.subcontinua import (classify_chain, find_qcond_chains,
                                nasty_cascade_rule)

def admissible_prefixes(length):
    """All admissible kneading prefixes of exactly this length."""
    out = []

    def rec(bits):
        if len(bits) == length:
            out.append(bits)
            return
        for b in "01":
            if not admissible_disjoint(KneadingPrefix(bits + b)).is_refuted:
                rec(bits + b)

    if length == 1:
        return ["1"]
    rec("10")
    return out


def test_appendix_seed():
    kd = cutting_data(parse_dotted("1.0.0.0.101"))
    assert kd.S == (1, 2, 3, 4, 7)
    assert kd.Q == (0, 0, 0, 2)
    assert kd.cocut == (5, 6) and kd.cocut_censored
    assert kd.kappa == 5
    assert emit_dotted(kd) == "1.0.0.0.101"


def test_dotted_validation():
    with pytest.raises(NotAdmissible):
        parse_dotted("1.00.0.0101")   # dots not on cutting times


@st.composite
def slope_kneading_words(draw):
    """Kneading words of exact slopes p/q in (1, 2], q < 2^20, length 1-120."""
    q = draw(st.integers(1, (1 << 20) - 1))
    p = draw(st.integers(q + 1, 2 * q))
    return nu_from_orbit(slope_exact(Fraction(p, q)), draw(st.integers(1, 120)))


@settings(max_examples=150, deadline=None)
@given(nu=slope_kneading_words())
def test_dotted_round_trip_on_slope_words(nu):
    assert parse_dotted(emit_dotted(cutting_data(nu))).bits == nu.bits


def test_nonrecurrent_pattern_cuts():
    kd = cutting_data(nonrecurrent_example_nu(40))
    assert kd.S[:8] == (1, 2, 3, 5, 6, 8, 10, 11)
    assert set(kd.Q) <= {0, 1, 2}


def test_fibonacci_prefix_from_q():
    nu = nu_from_q(fibonacci_q, 8)
    assert nu.bits == "10011101"
    kd = cutting_data(nu_from_q(fibonacci_q, 21))
    assert kd.S == (1, 2, 3, 5, 8, 13, 21)


def test_nu_from_q_tiny():
    assert nu_from_q([0], 2).bits == "10"
    assert nu_from_q([0, 0, 0, 2], 7).bits == "1000101"


def test_example35_values_and_cuts():
    assert example35_q(3) == 1
    assert example35_q(6) == 4
    assert example35_q(8) == 5
    kd = cutting_data(nu_from_q(example35_q, 9))
    assert kd.S == (1, 2, 3, 5, 6, 9)


def test_cocutting_times():
    kd = cutting_data(KneadingPrefix("1000101"))
    assert (kd.cocut, kd.cocut_censored) == ((5, 6), True)
    kd = cutting_data(KneadingPrefix("10"))
    assert (kd.cocut, kd.cocut_censored) == ((), False)


def _cocut_by_definition(bits):
    """The rho-orbit of the first 1 after position 1, with rho(j) the
    least k > j where nu_k != nu_{k-j}, read off the word by definition."""
    times, j = [], bits.find("1", 1) + 1
    while j:
        times.append(j)
        j = next((k for k in range(j + 1, len(bits) + 1)
                  if bits[k - 1] != bits[k - j - 1]), 0)
    return tuple(times)


def test_cocutting_times_agree_with_cutting_data():
    words = [w for n in range(1, 13) for w in admissible_prefixes(n)]
    words += [nu_from_q(q, h).bits
              for q in (fibonacci_q, example35_q, cascade_q)
              for h in (1, 2, 7, 40, 300)]
    for bits in words:
        kd = cutting_data(KneadingPrefix(bits))
        times = _cocut_by_definition(bits)
        assert (kd.cocut, kd.cocut_censored) == (times, bool(times)), bits
        assert kd.kappa == (kd.cocut[0] if kd.cocut else None), bits


def test_cocut_disjoint_from_cut_fibonacci():
    nu = nu_from_q(fibonacci_q, 100)
    kd = cutting_data(nu)
    assert not set(kd.S) & set(kd.cocut)


def test_admissible_q_verdicts():
    assert admissible_q([0, 2]).is_refuted
    assert admissible_q(fibonacci_q, horizon=12).is_certified
    assert admissible_q(example35_q, horizon=30).is_certified
    assert admissible_q([0, 0, 0, 2]).status == "evidence"


def test_negative_q_is_refuted_like_too_large_q():
    verdict = admissible_q([-1])
    assert verdict.is_refuted and verdict.witness["reason"] == "Q(1) = -1 < 0"
    for qs, k in (([-1], 1), ([0, -2, 1], 2), ([0, 1, 0, -1], 4)):
        assert admissible_q(qs).is_refuted
        with pytest.raises(NotAdmissible) as err:
            nu_from_q(qs, 10)
        assert err.value.position == k
    assert admissible_q([0, 2]).witness["reason"] == "Q(2) = 2 >= 2"


def test_admissible_disjoint_verdicts():
    assert admissible_disjoint(KneadingPrefix("11")).is_refuted
    assert admissible_disjoint(KneadingPrefix("10")).status == "evidence"
    seed = admissible_disjoint(KneadingPrefix("1000101"))
    assert seed.status == "evidence"
    assert seed.witness["cutting"] == [1, 2, 3, 4, 7]
    assert seed.witness["cocutting"] == [5, 6]


def test_checkers_never_disagree_exhaustive_len10():
    for length in range(1, 11):
        for bits in admissible_prefixes(length):
            kd = cutting_data(KneadingPrefix(bits))
            assert not admissible_q(list(kd.Q)).is_refuted, bits


def test_round_trip_exhaustive_len12():
    for length in range(1, 13):
        for bits in admissible_prefixes(length):
            kd = cutting_data(KneadingPrefix(bits))
            assert nu_from_q(list(kd.Q), length).bits == bits


def test_renorm_scan():
    full = renorm_scan(cascade_q, 20)
    assert full["passing"] == list(range(2, 21))
    assert renorm_scan(fibonacci_q, 20)["passing"] == []
    assert renorm_scan(example35_q, 30)["passing"] == []


def test_q_asymptotics_patterns():
    fib = q_asymptotics(fibonacci_q, 60)
    assert fib.to_infinity.is_positive and fib.unbounded.is_positive
    assert fib.bounded.is_refuted

    ex = q_asymptotics(example35_q, 60)
    assert ex.to_infinity.is_positive

    kd = cutting_data(nonrecurrent_example_nu(300))
    nr = q_asymptotics(list(kd.Q))
    assert nr.bounded.is_positive and not nr.to_infinity.is_positive


def test_kneading_invariant_under_horizon(fib_slope):
    # slope-derived kneading data does not change when recomputed deeper
    a = cutting_data(nu_from_orbit(fib_slope, 60))
    b = cutting_data(nu_from_orbit(fib_slope, 120))
    assert b.S[: len(a.S)] == a.S
    assert b.Q[: len(a.Q)] == a.Q


def test_cutting_gap_is_cutting_time():
    for bits in admissible_prefixes(12):
        kd = cutting_data(KneadingPrefix(bits))
        values = set(kd.S)
        for a, b in zip(kd.S, kd.S[1:]):
            assert b - a in values


def _random_admissible_q(rng, max_k, max_s):
    qs = []
    s_vals = [1]
    for k in range(1, max_k + 1):
        lo = max(0, (qs[-1] - 1) if qs else 0)
        choices = [m for m in range(lo, k)]
        small = [m for m in range(0, min(3, k))]
        qk = rng.choice(choices if rng.random() < 0.7 else small + choices)
        qs.append(qk)
        s_vals.append(s_vals[-1] + s_vals[qk])
        if s_vals[-1] >= max_s:
            break
    return qs


def test_random_q_generated_prefixes_agree():
    import random
    rng = random.Random(20260808)
    for _ in range(300):
        qs = _random_admissible_q(rng, 200, 1000)
        if admissible_q(qs).is_refuted:
            continue
        nu = nu_from_q(qs, min(1000, 4 * len(qs)))
        assert not admissible_disjoint(nu).is_refuted


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_round_trip_random_q(seed):
    import random
    rng = random.Random(seed)
    qs = _random_admissible_q(rng, 64, 400)
    if admissible_q(qs).is_refuted:
        return
    nu = nu_from_q(qs, 300)
    kd = cutting_data(nu)
    assert nu_from_q(list(kd.Q), 300).bits == nu.bits


# -- per-symbol oracles for the common-prefix code ---------------------------
# The loops below are the per-symbol implementations that ``_lcp`` and the
# segment-wise builders replaced; every field and message must agree.

def _lcp_ref(seq, i, j):
    n = 0
    while max(i, j) + n < len(seq) and seq[i + n] == seq[j + n]:
        n += 1
    return n


def _rho_step_ref(bits, j):
    for k in range(j + 1, len(bits) + 1):
        if bits[k - 1] != bits[k - 1 - j]:
            return k
    return None


def _scan_structure_ref(bits):
    """(S, Q, cocut, cocut_censored, refute_pos, refute_reason)."""
    n_len = len(bits)
    S, Q, s_index = [1], [], {1: 0}
    last, n = 1, 2
    while n <= n_len:
        if bits[n - 1] != bits[n - 1 - last]:
            gap = n - last
            if gap not in s_index:
                return S, Q, [], False, n, (
                    f"cutting gap {gap} at position {n} is not a cutting time")
            Q.append(s_index[gap])
            s_index[n] = len(S)
            S.append(n)
            last = n
        elif n == 2 * last:
            return S, Q, [], False, n, (
                f"no cutting time in ({last}, {2 * last}]; the next gap "
                f"could not be a cutting time")
        n += 1
    cocut = []
    j = bits.find("1", 1) + 1
    while j:
        cocut.append(j)
        if j in s_index:
            return S, Q, cocut, False, j, (
                f"position {j} is both a cutting and a co-cutting time")
        j = _rho_step_ref(bits, j) or 0
    return S, Q, cocut, bool(cocut), None, None


def _beta_ref(bits, S):
    beta, last, s_set = [0], 1, set(S)
    for n in range(2, len(bits) + 1):
        beta.append(n - last)
        if n in s_set:
            last = n
    return beta


def _admissible_q_ref(qs, horizon=None):
    m = len(qs)
    limit = horizon if horizon is not None else m

    def q_of(j):
        if 0 < j <= m:
            return qs[j - 1]
        return 0 if j == 0 else None

    first_unresolved = None
    for k in range(1, min(limit, m) + 1):
        qk = qs[k - 1]
        if not 0 <= qk < k:
            return V.refuted(RULE_Q, depth=limit, k=k, reason=f"Q({k}) = {qk} "
                             + (f">= {k}" if qk >= k else "< 0"))
        qq = q_of(q_of(k))
        resolved = False
        j = 1
        while True:
            a, b = q_of(qq + j), q_of(k + j)
            if a is None or b is None:
                break
            if a < b:
                resolved = True
                break
            if a > b:
                return V.refuted(RULE_Q, depth=limit, k=k, j=j,
                                 reason=(f"lex violation at k={k}: "
                                         f"Q({qq + j}) = {a} > Q({k + j}) = {b}"))
            j += 1
        if not resolved and first_unresolved is None:
            first_unresolved = k
    if limit > m:
        first_unresolved = first_unresolved or (m + 1)
    if first_unresolved is None:
        return V.certified(RULE_Q, depth=limit, checked_k=limit)
    return V.evidence(RULE_Q, depth=limit, first_unresolved_k=first_unresolved)


def _nu_from_q_ref(qs, horizon):
    """The word, or (position, reason) of the NotAdmissible it raises."""
    for k, qk in enumerate(qs, start=1):
        if not 0 <= qk < k:
            return k, f"Q({k}) = {qk} " + (f">= {k}" if qk >= k else "< 0")
    S = [1]
    for qk in qs:
        if S[-1] >= horizon:
            break
        S.append(S[-1] + S[qk])
    bits = ["1"]
    for prev, s_new in zip(S, S[1:]):
        while len(bits) < min(s_new - 1, horizon):
            bits.append(bits[len(bits) - prev])
        if s_new <= horizon:
            bits.append("1" if bits[s_new - prev - 1] == "0" else "0")
    while len(bits) < horizon:
        bits.append(bits[len(bits) - S[-1]])
    check = _admissible_q_ref(qs)
    if check.is_refuted and check.witness["k"] <= len(S) - 1:
        return check.witness["k"], check.witness["reason"]
    return "".join(bits)


def _emit_dotted_ref(bits, S):
    out = []
    for i, b in enumerate(bits, start=1):
        out.append(b)
        if i in S and i < len(bits):
            out.append(".")
    return "".join(out)


def assert_word_matches_oracle(bits):
    nu = KneadingPrefix(bits)
    S, Q, cocut, censored, pos, reason = want = _scan_structure_ref(bits)
    assert _scan_structure(bits) == want, bits
    assert [rho_step(bits, j) for j in range(len(bits) + 2)] == \
        [_rho_step_ref(bits, j) for j in range(len(bits) + 2)], bits
    if pos is not None:
        with pytest.raises(NotAdmissible) as err:
            cutting_data(nu)
        assert (err.value.position, err.value.reason) == (pos, reason), bits
        assert admissible_disjoint(nu) == V.refuted(
            RULE_DISJOINT, depth=len(bits), position=pos, reason=reason), bits
        return
    kd = cutting_data(nu)
    assert (kd.S, kd.Q, kd.cocut, kd.cocut_censored, kd.horizon, kd.kappa) == (
        tuple(S), tuple(Q), tuple(cocut), censored, len(bits),
        cocut[0] if cocut else None), bits
    assert tuple(map(kd.beta_of, range(1, kd.horizon + 1))) == \
        tuple(_beta_ref(bits, S)), bits
    want = V.evidence(RULE_DISJOINT, depth=len(bits), cutting=S,
                      cocutting=cocut, cocut_censored=censored)
    assert admissible_disjoint(nu) == want == admissible_disjoint(nu, kd)
    assert emit_dotted(kd) == _emit_dotted_ref(bits, set(S)), bits


def assert_q_matches_oracle(qs):
    for horizon in (None, 0, 1, len(qs) // 2 + 1, len(qs), len(qs) + 2):
        assert admissible_q(qs, horizon=horizon) == \
            _admissible_q_ref(qs, horizon), (qs, horizon)
    for horizon in (1, 2, len(qs) + 1, 3 * len(qs) + 5):
        want = _nu_from_q_ref(qs, horizon)
        if isinstance(want, str):
            assert nu_from_q(qs, horizon).bits == want, (qs, horizon)
        else:
            with pytest.raises(NotAdmissible) as err:
                nu_from_q(qs, horizon)
            got = (err.value.position, err.value.reason)
            assert got == want, (qs, horizon)


def _renorm_scan_ref(qs):
    m = len(qs)
    per_k, passing = {}, []
    for k in range(2, m + 1):
        verdict = None
        for j in range(0, m - k + 1):
            if qs[k + j - 1] < k - 1:
                verdict = V.refuted(RULE_RENORM, depth=m, k=k, j=j,
                                    value=qs[k + j - 1])
                break
        if verdict is None:
            verdict = V.evidence(RULE_RENORM, depth=m, k=k, checked_j=m - k)
            passing.append(k)
        per_k[k] = verdict
    return {"per_k": per_k, "passing": passing, "horizon": m}


@settings(max_examples=300)
@given(seq=st.one_of(st.text("01", max_size=70),
                     st.lists(st.integers(-1, 2), max_size=70)),
       data=st.data())
def test_lcp_matches_oracle(seq, data):
    i = data.draw(st.integers(0, len(seq)))
    j = data.draw(st.integers(0, len(seq)))
    assert _lcp(seq, i, j) == _lcp_ref(seq, i, j)


def test_lcp_on_periodic_and_long_words():
    # long common prefixes cross several gallop blocks before the bisection
    for period in ("10", "100", "1011", "10010"):
        for n in (1, 4, 5, 12, 13, 28, 29, 300):
            word = (period * n)[:n + 3] + "0" + period * 40
            for i in range(0, 3 * len(period) + 1):
                assert _lcp(word, i, 0) == _lcp_ref(word, i, 0), (word, i)
                assert _lcp(list(word), 0, i) == _lcp_ref(word, 0, i), word


def test_word_scan_matches_oracle_exhaustive_len12():
    # every word up to 12 symbols: lengths 1 and 2, rho leaving the prefix and
    # the 2*last boundary on both sides of the word's end
    for length in range(1, 13):
        for idx in range(1 << (length - 1)):
            tail = format(idx, "b").zfill(length - 1) if length > 1 else ""
            assert_word_matches_oracle("1" + tail)


@st.composite
def mutated_admissible_words(draw):
    """Admissible words of random kneading maps and named families, cut to a
    random length, with up to three symbols flipped."""
    import random
    rng = random.Random(draw(st.integers(0, 10 ** 6)))
    q = draw(st.sampled_from(["random", fibonacci_q, example35_q, cascade_q]))
    if q == "random":
        q = _random_admissible_q(rng, 64, 3000)
        verdict = admissible_q(q)
        if verdict.is_refuted:
            # a prefix of Q that only loses data stays unrefuted
            q = q[:verdict.witness["k"] - 1]
        bits = nu_from_q(q, rng.randrange(1, 3000)).bits
    else:
        bits = nu_from_q(q, draw(st.integers(1, 3000))).bits
    for _ in range(draw(st.integers(0, 3))):
        i = rng.randrange(1, len(bits)) if len(bits) > 1 else 0
        if i:
            bits = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1:]
    return bits


@settings(max_examples=250)
@given(bits=st.one_of(
    st.text("01", max_size=80).map(lambda t: "1" + t),
    mutated_admissible_words(),
    # periodic words: long self-matches run rho off the prefix
    st.tuples(st.text("01", max_size=7), st.integers(1, 400)).map(
        lambda pn: (("1" + pn[0]) * pn[1])[:pn[1]])))
def test_word_scan_matches_oracle(bits):
    assert_word_matches_oracle(bits)


@settings(max_examples=250)
@given(data=st.data())
def test_q_checks_match_oracle(data):
    # Q lists with values in [-2, k + 1]: negative and too-large values, lex
    # violations, and tails whose comparison runs off the data
    m = data.draw(st.integers(0, 40))
    spread = data.draw(st.sampled_from(["wide", "admissible", "repeats"]))
    qs = []
    for k in range(1, m + 1):
        if spread == "wide":
            qs.append(data.draw(st.integers(-2, k + 1)))
        elif spread == "admissible":
            qs.append(data.draw(st.integers(0, k - 1)))
        else:
            qs.append(data.draw(st.integers(0, min(k - 1, 1))))
    assert_q_matches_oracle(qs)
    m = len(qs)
    assert renorm_scan(qs, m) == _renorm_scan_ref(qs)


def test_q_checks_match_oracle_on_families():
    import random
    rng = random.Random(8)
    for qs in ([], [0], [-1], [1], [0, 0], [0, 1], [0, 0, 0, 2], [0] * 30,
               [max(k - 2, 0) for k in range(1, 200)],
               [example35_q(k) for k in range(1, 200)]):
        assert_q_matches_oracle(qs)
    for _ in range(100):
        qs = _random_admissible_q(rng, 80, 2000)
        assert_q_matches_oracle(qs)
        qs[rng.randrange(len(qs))] = rng.choice((-1, len(qs) + 1, 0, 1))
        assert_q_matches_oracle(qs)


def test_nu_from_q_checks_only_the_kneading_map_it_uses():
    # Q(2) breaks the lex condition (Q(2) = 1 > Q(4) = 0), but the horizon 2
    # uses only S_1 = 2, so Q(2) is never read
    qs = [0, 1, 0, 0]
    assert admissible_q(qs).witness["k"] == 2
    assert nu_from_q(qs, 2).bits == "10"
    with pytest.raises(NotAdmissible) as err:
        nu_from_q(qs, 3)
    assert err.value.position == 2


def test_alphabet_check_keeps_its_message():
    with pytest.raises(DomainError, match=r"over 0/1: '1021'"):
        KneadingPrefix("1021")
    with pytest.raises(DomainError):
        KneadingPrefix("1 0")


# -- one reader for Q: a callable equals the list of the values it reads ------

CHAINS = ((1, 2, 3, 4), (2, 5, 8, 11, 14, 17, 20, 23),
          tuple(3 * i - 1 for i in range(1, 12)), (4, 8, 12, 16, 20, 24, 28))


def _canon(out):
    if hasattr(out, "to_json"):
        return out.to_json()
    if isinstance(out, dict):
        return {key: _canon(value) for key, value in out.items()}
    if isinstance(out, (list, tuple)):
        return [_canon(value) for value in out]
    return out


# consumer -> (call with a kneading map and a horizon, how many values of a
# callable it reads at most at that horizon; nu_from_q reads on demand up
# to that many)
Q_CONSUMERS = {
    "admissible_q": (lambda q, h: admissible_q(q, horizon=h),
                     lambda h: 2 * h + 4),
    "nu_from_q": (lambda q, h: nu_from_q(q, h).bits, lambda h: 2 * h + 4),
    "renorm_scan": (renorm_scan, lambda h: h),
    "q_asymptotics": (q_asymptotics, lambda h: h),
    "find_qcond_chains": (lambda q, h: [find_qcond_chains(q, h, variant)
                                        for variant in ("strict", "relaxed")],
                          lambda h: h),
    "nasty_cascade_rule": (nasty_cascade_rule, lambda h: h),
    "classify_chain": (lambda q, h: [classify_chain(ch, q) for ch in CHAINS],
                       lambda h: max(map(max, CHAINS)) + 2),
}


@pytest.mark.parametrize("consumer", sorted(Q_CONSUMERS))
def test_callable_q_equals_its_materialized_list(consumer):
    call, reads = Q_CONSUMERS[consumer]
    for q in (fibonacci_q, example35_q, cascade_q):
        for horizon in (1, 3, 12, 40):
            qs = [q(k) for k in range(1, reads(horizon) + 1)]
            assert _canon(call(q, horizon)) == _canon(call(qs, horizon)), \
                (q.__name__, horizon)


def test_parse_q_reads_a_preset_to_the_horizon():
    assert parse_q("cascade", 9) == ([cascade_q(k) for k in range(1, 10)],
                                     "cascade")
    assert parse_q("fib", 5) == ([0, 0, 1, 2, 3], "fib")


_CASCADE_LIST = [0, 1, 1, 2, 3, 3, 4]


@pytest.mark.parametrize("scan, read", [
    (renorm_scan, lambda out: (out["horizon"], out["per_k"])),
    (q_asymptotics, lambda out: (out.horizon, out.to_json())),
    (find_qcond_chains, lambda out: (out["horizon"], out["chains"])),
    (nasty_cascade_rule, lambda out: (out.depth, out.witness))],
    ids=["renorm_scan", "q_asymptotics", "find_qcond_chains",
         "nasty_cascade_rule"])
def test_negative_horizon_is_a_domain_error(scan, read):
    # a negative horizon used to cut Q from its end: renorm_scan of this
    # list at horizon -2 scanned 5 values and reported horizon 5
    for q in (_CASCADE_LIST, cascade_q):
        with pytest.raises(DomainError,
                           match=r"^horizon must be >= 0, got -2$"):
            scan(q, -2)
    # None still reads a list whole, 0 reads nothing
    assert read(scan(_CASCADE_LIST, None))[1] == \
        read(scan(_CASCADE_LIST, len(_CASCADE_LIST)))[1]
    assert read(scan(_CASCADE_LIST, 4))[0] == 4
    assert read(scan(_CASCADE_LIST, 0))[0] == 0


def test_callable_q_without_a_horizon_is_one_domain_error():
    text = "a callable Q needs an explicit horizon"
    for call in (lambda: _materialize_q(fibonacci_q, None),
                 lambda: admissible_q(fibonacci_q),
                 lambda: q_asymptotics(example35_q),
                 lambda: renorm_scan(cascade_q, None),
                 lambda: find_qcond_chains(fibonacci_q, None),
                 lambda: nasty_cascade_rule(cascade_q, None)):
        with pytest.raises(DomainError, match=f"^{text}$"):
            call()
    # a list is read whole, with or without a horizon
    assert _materialize_q([0, 0, 1], None) == _materialize_q((0, 0, 1), 1) \
        == [0, 0, 1]


def test_nu_from_q_without_a_horizon_is_a_domain_error():
    for q in (fibonacci_q, [0, 0, 1, 2, 3]):
        with pytest.raises(DomainError, match="^horizon must be >= 1$"):
            nu_from_q(q, None)


# -- a callable Q read on demand --------------------------------------------------

class _CountingQ:
    """A kneading map that records every k it is called at."""

    def __init__(self, q):
        self.q, self.called = q, []

    def __call__(self, k):
        self.called.append(k)
        return self.q(k)


def _nu_from_q_read_everything(q, horizon):
    """nu_from_q as it read a callable: Q(1) .. Q(2 * horizon + 4), each
    range-checked, before the word is built.  The word, or (position,
    reason) of the NotAdmissible it raises."""
    qs = _materialize_q(q, 2 * horizon + 4)
    for k, qk in enumerate(qs, start=1):
        if not 0 <= qk < k:
            return k, f"Q({k}) = {qk} " + (f">= {k}" if qk >= k else "< 0")
    S = [1]
    for qk in qs:
        if S[-1] >= horizon:
            break
        S.append(S[-1] + S[qk])
    bits = "1"
    for prev, s_new in zip(S, S[1:]):
        gap = s_new - prev
        bits += bits[:gap - 1] + ("1" if bits[gap - 1] == "0" else "0")
    bits *= -(-horizon // len(bits))
    check = admissible_q(qs, horizon=len(S) - 1)
    if check.is_refuted:
        return check.witness["k"], check.witness["reason"]
    return bits[:horizon]


def test_nu_from_q_reads_fib_only_as_far_as_its_word():
    # S_24 = 121393 is fib's first cutting time >= 10**5; reading every
    # value up to 2 * horizon + 4 made 200004 calls
    q = _CountingQ(fibonacci_q)
    nu = nu_from_q(q, 10 ** 5)
    assert len(q.called) <= 64
    assert q.called == list(range(1, len(q.called) + 1))
    assert nu.bits == _nu_from_q_read_everything(fibonacci_q, 10 ** 5)
    # admissible_q still reads a callable whole
    q = _CountingQ(fibonacci_q)
    assert admissible_q(q, horizon=50).is_certified
    assert q.called == list(range(1, 105))


def test_a_value_out_of_range_past_the_read_raises_nothing():
    # Q(60) = 60 lies past fib's word and its lexicographic lookahead at
    # this horizon; the read-everything body raised on it
    def q(k):
        return max(k - 2, 0) if k < 60 else k
    assert _nu_from_q_read_everything(q, 10 ** 5) == (60, "Q(60) = 60 >= 60")
    assert nu_from_q(q, 10 ** 5).bits == nu_from_q(fibonacci_q, 10 ** 5).bits
    # a value the word uses still raises
    with pytest.raises(NotAdmissible, match=r"^.*Q\(20\) = 20 >= 20$"):
        nu_from_q(lambda k: max(k - 2, 0) if k < 20 else k, 10 ** 5)


def test_a_list_q_is_range_checked_whole():
    # Q(6) lies past the word of horizon 3 (S_2 = 3), yet a list is read
    # and range-checked whole
    for bad, reason in ((9, "Q(6) = 9 >= 6"), (-1, "Q(6) = -1 < 0")):
        with pytest.raises(NotAdmissible) as err:
            nu_from_q([0, 0, 1, 2, 3, bad], 3)
        assert (err.value.position, err.value.reason) == (6, reason)
    assert nu_from_q([0, 0, 1, 2, 3], 3).bits == "100"


def _random_callable_q(rng):
    """Up to 60 values, about 5 % of them out of range, continued by 0,
    k - 1, k - 2 or periodically."""
    qs = _random_admissible_q(rng, rng.randrange(1, 61), 10 ** 9)
    qs = [rng.choice((-1, k, k + 3)) if rng.random() < 0.05 else qk
          for k, qk in enumerate(qs, start=1)]
    n = len(qs)
    tail = rng.choice((lambda k: 0, cascade_q, fibonacci_q,
                       lambda k: qs[(k - 1) % n]))
    return lambda k: qs[k - 1] if k <= n else tail(k)


def test_nu_from_q_matches_the_read_everything_body():
    import random
    rng = random.Random(30)
    kinds = {"word": 0, "raised": 0, "range past the read": 0}
    for _ in range(1500):
        q = _random_callable_q(rng)
        horizon = rng.choice((rng.randrange(1, 40), rng.randrange(1, 600)))
        counted = _CountingQ(q)
        try:
            got = nu_from_q(counted, horizon).bits
        except NotAdmissible as err:
            got = err.position, err.reason
        want = _nu_from_q_read_everything(q, horizon)
        assert len(counted.called) <= 2 * horizon + 4
        if got != want:
            # the one difference: a value out of range that is never read
            k, reason = want
            assert reason.startswith(f"Q({k}) = "), (got, want)
            assert max(counted.called, default=0) < k, (got, want)
            kinds["range past the read"] += 1
        else:
            kinds["word" if isinstance(got, str) else "raised"] += 1
        limit = rng.randrange(0, horizon + 2)
        assert admissible_q(q, horizon=limit) == _admissible_q_ref(
            [q(k) for k in range(1, 2 * limit + 5)], limit)
    assert min(kinds.values()) >= 20, kinds


# -- nu_from_orbit against the code it replaced ----------------------------------

def _nu_from_orbit_oracle(slope, N, prec_cap=DEFAULT_PREC_CAP):
    """nu_from_orbit with its critical-hit raise and repeat scan."""
    orbit = critical_orbit(slope, N, prec_cap=prec_cap)
    bits = []
    flags = set()
    seen = set()
    for n, (x, sign) in enumerate(orbit, start=1):
        if sign is SignRelC.AT_C:
            raise CriticalHit(n)
        bits.append("1" if sign is SignRelC.ABOVE else "0")
        if x.is_exact:
            key = (x.lo.numerator, x.lo.denominator)
            if key in seen:
                flags.add("critical_orbit_finite")
            seen.add(key)
    name = slope.name or "slope"
    return KneadingPrefix("".join(bits), source=f"slope:{name}", flags=flags)


def _outcome(call, *args):
    try:
        nu = call(*args)
    except UilkitError as err:
        return type(err), str(err)
    return nu.bits, nu.flags, nu.source


@settings(max_examples=80)
@given(slope=st.one_of(
           st.builds(lambda q, k: slope_exact(Fraction(q + 1 + k % q, q)),
                     st.integers(1, 1 << 64), st.integers(0, 1 << 64)),
           st.builds(lambda p, h: slope_interval(Fraction(p, 100) - Fraction(1, 1 << h),
                                                 Fraction(p, 100) + Fraction(1, 1 << h)),
                     st.integers(101, 199), st.integers(8, 300))),
       N=st.integers(-2, 120))
def test_nu_from_orbit_matches_oracle(slope, N):
    assert _outcome(nu_from_orbit, slope, N) == \
        _outcome(_nu_from_orbit_oracle, slope, N)


@pytest.mark.parametrize("name, N, cap", [
    ("2", 12, 4096), ("2", 2, 4096), ("9/5", 0, 4096), ("golden", 5, 512),
    ("golden", 2, 512), ("sqrt3", 300, 192), ("sqrt3", 300, 4096),
    ("fib:120", 150, 4096)])
def test_nu_from_orbit_matches_oracle_on_presets(name, N, cap):
    slope = parse_slope(name)
    assert _outcome(nu_from_orbit, slope, N, cap) == \
        _outcome(_nu_from_orbit_oracle, slope, N, cap)


# -- interval signs from fixed-point balls against the orbit oracle -------------

@st.composite
def intervals_near_exhaustion(draw):
    """An interval slope, with dyadic or non-dyadic ends, and a horizon
    within 40 of where its orbit stops resolving: the width, 2^-h or the
    rounding 2^-cap when that is larger, grows like s^n, so that is about
    n = min(h, cap) / log2(s)."""
    h = draw(st.one_of(st.integers(12, 320), st.integers(320, 1100)))
    cap = draw(st.sampled_from([512, 1024, 2048]))
    if draw(st.booleans()):
        mid = Fraction(draw(st.integers(41 << 10, (1 << 16) - 1)), 1 << 15)
        half = Fraction(1, 1 << h)
    else:
        q = draw(st.integers(3, 10 ** 6))
        mid = Fraction(draw(st.integers(q * 13 // 10 + 1, 2 * q - 1)), q)
        half = Fraction(draw(st.integers(1, 9)), 3 ** (h * 2 // 3))
    slope = slope_interval(mid - half, min(mid + half, Fraction(2)),
                           precision_bits=draw(st.sampled_from([128, 200,
                                                                578])))
    N = round(min(h, cap) / math.log2(mid)) + draw(st.integers(-40, 40))
    return slope, N, cap


@settings(max_examples=100)
@given(case=intervals_near_exhaustion())
def test_interval_nu_from_orbit_matches_oracle_near_exhaustion(case):
    # the word, or the PrecisionExhausted index and text, or the DomainError
    # of a cap below the slope's precision or a horizon below 1
    slope, N, cap = case
    assert _outcome(nu_from_orbit, slope, N, cap) == \
        _outcome(_nu_from_orbit_oracle, slope, N, cap)


def test_rounding_sets_where_a_narrow_interval_exhausts():
    # the slope is far narrower than 2^-512, so the orbit's rounding onto
    # the grid of the cap ends its resolved signs at c_608; a ball on a
    # finer grid than the orbit's would resolve about ten more
    mid, half = Fraction(107, 60), Fraction(1, 1 << 1400)
    slope = slope_interval(mid - half, mid + half)
    outcomes = [_outcome(nu_from_orbit, slope, N, 512)
                for N in range(600, 620, 2)]
    assert outcomes == [_outcome(_nu_from_orbit_oracle, slope, N, 512)
                        for N in range(600, 620, 2)]
    assert [isinstance(o[0], str) for o in outcomes] == [True] * 4 + [False] * 6


@pytest.mark.parametrize("name", ["golden", "tribonacci"])
@pytest.mark.parametrize("cap", [512, 1024])
@pytest.mark.parametrize("N", [2, 3, 4, 5, 20, 60])
def test_exhausted_index_and_text_match_the_orbit(name, cap, N):
    # both return to c exactly, so a sign stays unresolved at any cap
    slope = parse_slope(name)
    try:
        want = critical_orbit(slope, N, prec_cap=cap)
    except PrecisionExhausted as err:
        with pytest.raises(PrecisionExhausted) as got:
            nu_from_orbit(slope, N, prec_cap=cap)
        assert (got.value.index, str(got.value)) == (err.index, str(err))
    else:
        assert nu_from_orbit(slope, N, cap).bits == \
            "".join("1" if sign is SignRelC.ABOVE else "0" for _, sign in want)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(scalars, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scalars, name, spy)
    return calls


def test_start_precision_578_clips_the_last_doubling(monkeypatch):
    # 578 doubles to 1156 > 1024, so the second and last pass runs at 1024
    mid, half = Fraction(17, 10), Fraction(1, 1 << 578)
    slope = slope_interval(mid - half, mid + half, precision_bits=578)
    passes = _spy(monkeypatch, "_word_pass")
    outcomes, schedules = [], []
    for N in range(700, 1100, 50):
        passes.clear()
        outcomes.append(_outcome(nu_from_orbit, slope, N, 1024))
        assert outcomes[-1] == _outcome(_nu_from_orbit_oracle, slope, N, 1024)
        schedules.append([bits for _, _, bits, _ in passes])
    assert {tuple(s) for s in schedules} == {(578,), (578, 1024)}
    assert any(isinstance(o[0], str) for o in outcomes)
    assert any(o[0] is PrecisionExhausted for o in outcomes)


def test_resolvable_interval_builds_no_orbit(monkeypatch):
    orbits = _spy(monkeypatch, "critical_orbit")
    scalar_passes = _spy(monkeypatch, "_orbit_pass")
    mid, half = Fraction(9, 5), Fraction(1, 1 << 300)
    slope = slope_interval(mid - half, mid + half, precision_bits=300)
    word = nu_from_orbit(slope, 200).bits
    assert (orbits, scalar_passes) == ([], [])
    assert word == nu_from_orbit(slope_exact(mid), 200).bits


@pytest.mark.parametrize("name", ["fib", "ex35", "nonrec41", "appendix"])
def test_exact_balls_match_the_integer_recurrence(name):
    # deep presets: q has hundreds of bits, so the signs come from balls
    slope = parse_slope(f"{name}:300")
    assert slope.s.value.denominator.bit_length() > 32
    want = "".join("1" if a > qn else "0"
                   for a, qn in islice(_exact_orbit(slope.s.value), 300))
    assert nu_from_orbit(slope, 300).bits == want


# -- the resumed cutting scan against a scan from scratch -------------------


def _scan_outcome(bits, base=None):
    """Every CuttingData field of ``bits``, scanned from scratch or resumed
    from ``base``; (position, reason, text) of a NotAdmissible."""
    try:
        kd = cutting_data(KneadingPrefix(bits)) if base is None \
            else _extend_cutting(base, bits)
    except NotAdmissible as err:
        return err.position, err.reason, str(err)
    return (kd.S, kd.Q, tuple(map(kd.beta_of, range(1, kd.horizon + 1))),
            kd.cocut, kd.cocut_censored, kd.horizon, kd.kappa, kd.nu.bits)


def assert_resume_matches_scratch(bits, split):
    base = cutting_data(KneadingPrefix(bits[:split]))
    assert _scan_outcome(bits, base) == _scan_outcome(bits), \
        (bits[:40], len(bits), split)


def _resume_words():
    import random
    from uilkit import seqgen
    rng = random.Random(20261019)
    words = [nu_from_q(q, n).bits for q, n in (
        (fibonacci_q, 3000), (example35_q, 3000), (cascade_q, 1024))]
    words += [nu_from_q(lambda k, d=d: max(k - d, 0), 2000).bits
              for d in (3, 5, 7)]
    # dense cutting times: about one split per two symbols
    words += [nu_from_q(lambda k, b=b: min(k - 1, b), 400).bits
              for b in (1, 2)]
    words.append(nonrecurrent_example_nu(400).bits)
    words.append(seqgen.generate(200)[0].bits)
    for _ in range(8):
        q = rng.randrange(2, 1 << 12)
        p = q + 1 + rng.randrange(q - 1)
        words.append(nu_from_orbit(slope_exact(Fraction(p, q)), 300).bits)
    return rng, words


def test_resumed_scan_matches_a_scan_from_scratch():
    # splits at every cutting time, on both sides of it, and at random
    # positions; the extension is the word itself or a mutated copy
    rng, words = _resume_words()
    for bits in words:
        S = cutting_data(KneadingPrefix(bits)).S
        splits = {s + d for s in S for d in (-1, 0, 1)
                  if 1 <= s + d <= len(bits)}
        splits.update(rng.randrange(1, len(bits) + 1) for _ in range(20))
        for split in sorted(splits):
            assert_resume_matches_scratch(bits, split)
            flips = list(bits)
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(split, len(bits)) if split < len(bits) \
                    else None
                if i is not None:
                    flips[i] = "1" if flips[i] == "0" else "0"
            assert_resume_matches_scratch("".join(flips), split)


def test_resumed_scan_matches_exhaustive_len11():
    # every word up to 11 symbols and every admissible proper prefix of it,
    # among them 10000 whose co-cutting orbit is still empty
    assert cutting_data(KneadingPrefix("10000")).cocut == ()
    for length in range(1, 12):
        for idx in range(1 << (length - 1)):
            bits = "1" + (format(idx, "b").zfill(length - 1)
                          if length > 1 else "")
            for split in range(1, length + 1):
                if not _scan_structure(bits[:split])[4]:
                    assert_resume_matches_scratch(bits, split)


def test_resumed_scan_from_a_base_without_cocutting_times():
    base = cutting_data(KneadingPrefix("10000"))
    for tail in ("", "0", "1", "01", "11", "0100", "10001", "0101110"):
        assert _scan_outcome("10000" + tail, base) == \
            _scan_outcome("10000" + tail)
    kd = _extend_cutting(base, "10000" + "1")
    assert kd.cocut == (6,) and kd.kappa == 6


def test_resumed_scan_rejects_a_word_that_does_not_extend_the_base():
    base = cutting_data(KneadingPrefix("1000101"))
    for bits in ("100010", "1000100", "1100101000"):
        with pytest.raises(DomainError):
            _extend_cutting(base, bits)


def test_q_of_is_defined_on_0_to_max_k_only():
    # a negative k used to read Q from its end: q_of(-1) and q_of(-3) both
    # gave 2 on this word, whose Q is 0, 0, 0, 2, 0, 2, 5
    bits = "1000101010110001011"
    kd = cutting_data(KneadingPrefix(bits))
    resumed = _extend_cutting(cutting_data(KneadingPrefix(bits[:9])), bits)
    for got in (kd, resumed):
        assert got.max_k == 7
        assert [got.q_of(k) for k in range(8)] == [0, 0, 0, 0, 2, 0, 2, 5]
        for k in (-1, -3, 8):
            with pytest.raises(IndexError):
                got.q_of(k)


def test_a_dotted_word_is_read_by_parse_dotted_alone():
    # the constructor used to drop the dots unchecked, so a word whose dots
    # are not its cutting times became 10000101
    for text in ("1.00.0.0101", "1.0.0.0.101"):
        with pytest.raises(DomainError, match="over 0/1"):
            KneadingPrefix(text)
    assert parse_dotted("1.0.0.0.101").bits == "1000101"
    with pytest.raises(NotAdmissible, match="dots do not match"):
        parse_dotted("1.00.0.0101")


def test_preset_aliases_are_unknown_names():
    for text in ("trib", "fibonacci", "fibonacci:50"):
        with pytest.raises(ConfigError):
            parse_slope(text)
    with pytest.raises(ConfigError):
        parse_q("fibonacci", 5)


def test_a_kd_of_another_word_is_refused():
    # a kd taken on trust once gave "11" evidence with cutting [1, 2]
    with pytest.raises(DomainError):
        admissible_disjoint(KneadingPrefix("11"),
                            cutting_data(KneadingPrefix("10")))
    assert admissible_disjoint(KneadingPrefix("11")).is_refuted
    nu = KneadingPrefix("1000101")
    kd = cutting_data(KneadingPrefix(nu.bits))
    assert admissible_disjoint(nu, kd) == admissible_disjoint(nu)


def test_beta_of_is_defined_on_1_to_the_horizon_only():
    # a negative n used to read the table from its end: beta_of(0) gave
    # beta(19) = 8 and beta_of(-2) gave beta(17) = 6
    bits = "1000101010110001011"
    kd = cutting_data(KneadingPrefix(bits))
    resumed = _extend_cutting(cutting_data(KneadingPrefix(bits[:9])), bits)
    for got in (kd, resumed):
        assert [got.beta_of(n) for n in (1, 4, 5, 11, 12, 19)] == \
            [0, 1, 1, 3, 1, 8]
        for n in (0, -2, 20):
            with pytest.raises(IndexError):
                got.beta_of(n)


def test_symbol_access_and_dotted_input_refusals():
    # nu_n and the tail read are 1-based, Q(k) starts at k = 1, and a
    # dotted word starts with a symbol and holds only 0, 1 and dots
    nu = KneadingPrefix("1000101", periodic_tail=(4, 3))
    for read in (nu.__getitem__, nu.symbol_at):
        with pytest.raises(IndexError, match="^0$"):
            read(0)
    assert (nu[1], nu.symbol_at(1), nu.symbol_at(8)) == ("1", "1", "1")
    with pytest.raises(DomainError, match="^k must be >= 1$"):
        example35_q(0)
    with pytest.raises(DomainError,
                       match="^kneading word cannot start with a dot$"):
        parse_dotted(".1.0.0.0.101")
    with pytest.raises(DomainError,
                       match="^unexpected character '2' in kneading word$"):
        parse_dotted("1.0.0.0.102")
