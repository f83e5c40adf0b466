from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uilkit.errors import NotAdmissible
from uilkit.kneading import (KneadingPrefix, admissible_disjoint, admissible_q,
                             cascade_q, cocutting_times, cutting_data,
                             emit_dotted, example35_q, fibonacci_q,
                             nonrecurrent_example_nu, nu_from_orbit, nu_from_q,
                             parse_dotted, q_asymptotics, renorm_scan)
from uilkit.scalars import slope_exact

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
    assert emit_dotted(kd.nu, kd) == "1.0.0.0.101"


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
    assert parse_dotted(emit_dotted(nu)).bits == nu.bits


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
    nu = KneadingPrefix("1000101")
    times, censored = cocutting_times(nu)
    assert times == (5, 6) and censored
    assert cocutting_times(KneadingPrefix("10")) == ((), False)


def test_cocutting_times_agree_with_cutting_data():
    words = [w for n in range(1, 13) for w in admissible_prefixes(n)]
    words += [nu_from_q(q, h).bits
              for q in (fibonacci_q, example35_q, cascade_q)
              for h in (1, 2, 7, 40, 300)]
    for bits in words:
        nu = KneadingPrefix(bits)
        kd = cutting_data(nu)
        assert cocutting_times(nu) == (kd.cocut, kd.cocut_censored), bits
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
