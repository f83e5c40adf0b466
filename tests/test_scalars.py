from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uilkit.errors import DomainError, PrecisionExhausted
from uilkit.kneading import (example35_q, fibonacci_q, nonrecurrent_example_nu,
                             nu_from_orbit, nu_from_q)
from uilkit.presets import golden_slope, parse_slope, tribonacci_slope
from uilkit.scalars import (C, Scalar, SignRelC, _kneading_probe,
                            critical_orbit, parity_lex_cmp, refine, sign_rel_c,
                            slope_decimal, slope_exact, slope_interval,
                            tent_apply)
from uilkit.seqgen import generate


def test_tent_full_slope_critical_value():
    out = tent_apply(slope_exact(2), Scalar.exact(Fraction(1, 2)))
    assert out.is_exact and out.value == 1


def test_tent_full_slope_at_one():
    out = tent_apply(slope_exact(2), Scalar.exact(1))
    assert out.is_exact and out.value == 0


def test_tent_interval_slope_at_c():
    s = slope_interval(Fraction("1.79"), Fraction("1.80"))
    out = tent_apply(s, Scalar.exact(Fraction(1, 2)))
    assert out.lo == Fraction("0.895") and out.hi == Fraction("0.900")


def test_tent_domain_error():
    with pytest.raises(DomainError):
        tent_apply(slope_exact(2), Scalar.exact(Fraction(3, 2)))


def test_orbit_full_tent():
    orbit = critical_orbit(slope_exact(2), 3)
    assert [x.value for x, _ in orbit] == [1, 0, 0]
    assert [s for _, s in orbit] == [SignRelC.ABOVE, SignRelC.BELOW,
                                     SignRelC.BELOW]


def test_orbit_three_halves_exact():
    orbit = critical_orbit(slope_exact(Fraction(3, 2)), 4)
    assert [x.value for x, _ in orbit] == [Fraction(3, 4), Fraction(3, 8),
                                           Fraction(9, 16), Fraction(21, 32)]


def test_fibonacci_slope_c3_below(fib_slope):
    orbit = critical_orbit(fib_slope, 3)
    assert orbit[2][1] is SignRelC.BELOW


def test_golden_slope_hits_c_exactly():
    # c is 3-periodic at the golden root: the sign of c_3 can never resolve
    s = golden_slope()
    with pytest.raises(PrecisionExhausted) as err:
        critical_orbit(s, 3, prec_cap=2048)
    assert err.value.index == 3
    with pytest.raises(PrecisionExhausted):
        nu_from_orbit(s, 3, prec_cap=2048)


def test_tribonacci_refine_c10():
    s = tribonacci_slope()
    orbit = critical_orbit(s, 10, prec_cap=512, allow_unresolved=True)
    c10 = orbit[9][0]
    tight = refine(c10, Fraction(1, 10 ** 12))
    assert tight.width() <= Fraction(1, 10 ** 12)
    assert tight.lo >= c10.lo and tight.hi <= c10.hi


def test_sign_rel_c_cases():
    assert sign_rel_c(Scalar.exact(Fraction(1, 2))) is SignRelC.AT_C
    assert sign_rel_c(Scalar.interval(Fraction("0.51"), Fraction("0.52"))) \
        is SignRelC.ABOVE
    assert sign_rel_c(Scalar.interval(Fraction("0.49"), Fraction("0.51"))) \
        is SignRelC.UNRESOLVED


def test_refine_exact_noop():
    x = Scalar.exact(Fraction(2, 3))
    assert refine(x, Fraction(1, 10 ** 9)) is x


def test_refine_without_hook_raises():
    x = Scalar.interval(Fraction(1, 3), Fraction(2, 3))
    with pytest.raises(PrecisionExhausted):
        refine(x, Fraction(1, 10 ** 6))


def test_slope_validation():
    with pytest.raises(DomainError):
        slope_exact(1)
    with pytest.raises(DomainError):
        slope_exact(Fraction(5, 2))
    assert slope_exact(2).kappa_finite is False
    assert slope_decimal("1.8393").kappa_finite is True


def test_critical_hit_detected():
    # T_{3/2}: does not hit c in 40 steps; the golden root hits at step 3
    nu = nu_from_orbit(slope_exact(Fraction(3, 2)), 40)
    assert len(nu) == 40
    s2 = nu_from_orbit(slope_exact(2), 5)
    assert s2.bits == "10000" and "critical_orbit_finite" in s2.flags


rational = st.fractions(min_value=0, max_value=1, max_denominator=997)


@settings(max_examples=150, deadline=None)
@given(lo=rational, hi=rational, s_num=st.integers(101, 200))
def test_interval_monotonicity(lo, hi, s_num):
    # x inside y implies T(x) inside T(y)
    if lo > hi:
        lo, hi = hi, lo
    slope = slope_exact(Fraction(s_num, 100))
    outer = Scalar(lo, hi)
    mid = (lo + hi) / 2
    inner = Scalar((lo + mid) / 2, (mid + hi) / 2)
    t_outer = tent_apply(slope, outer)
    t_inner = tent_apply(slope, inner)
    assert t_outer.lo <= t_inner.lo and t_inner.hi <= t_outer.hi
    # width contraction bound
    assert t_outer.width() <= Fraction(s_num, 100) * outer.width()


@settings(max_examples=100, deadline=None)
@given(x=rational, s_num=st.integers(101, 200), bits=st.integers(8, 24))
def test_exact_inside_interval_result(x, s_num, bits):
    slope = slope_exact(Fraction(s_num, 100))
    exact = tent_apply(slope, Scalar.exact(x))
    blur = Scalar(max(Fraction(0), x - Fraction(1, 1 << bits)),
                  min(Fraction(1), x + Fraction(1, 1 << bits)), bits)
    widened = tent_apply(slope, blur)
    assert widened.lo <= exact.value <= widened.hi


def test_parity_lex_order_examples():
    assert parity_lex_cmp("1011", "1001") < 0     # odd parity flips position 3
    assert parity_lex_cmp("10011010", "10001000") < 0
    assert parity_lex_cmp("100", "1001") == 0     # prefix tie


def test_sign_stability_under_refinement():
    s = tribonacci_slope(64)
    orbit = critical_orbit(s, 3, prec_cap=4096)
    for x, sign in orbit:
        if sign in (SignRelC.BELOW, SignRelC.ABOVE):
            finer = x.at(1024)
            assert sign_rel_c(finer) is sign


# -- integer kneading probe against the Fraction reference ---------------------

def _exact_kneading_bits(s: Fraction, depth: int):
    """Kneading bits of an exact rational slope; None marks an exact c-hit."""
    x = C
    bits = []
    for _ in range(depth):
        x = s * min(x, 1 - x)
        if x == C:
            bits.append(None)
            return bits
        bits.append("1" if x > C else "0")
    return bits


def _oracle_slope_for_prefix(target: str) -> Fraction:
    """The bisection of slope_for_prefix, probing with _exact_kneading_bits."""
    lo, hi = Fraction(5, 4), Fraction(2)
    for _ in range(4 * len(target) + 96):
        mid = (lo + hi) / 2
        nudge = (hi - lo) / 1024
        for _ in range(8):
            bits = _exact_kneading_bits(mid, len(target))
            if None not in bits:
                break
            mid = mid + nudge
            nudge /= 1024
        word = "".join(bits)
        if word == target:
            return mid
        if parity_lex_cmp(word, target) < 0:
            lo = mid
        else:
            hi = mid
    raise AssertionError("oracle bisection did not converge")


@st.composite
def slope_and_target(draw):
    q = draw(st.integers(1, 1 << 64))
    s = Fraction(draw(st.integers(q + 1, 2 * q)), q)
    depth = draw(st.integers(1, 200))
    word = "".join(_exact_kneading_bits(s, depth))
    # targets that agree with the slope's word for a while, then differ
    k = draw(st.integers(0, depth))
    flipped = "" if k == depth else "01"[word[k] == "0"]
    tail = draw(st.text(alphabet="01", max_size=depth - k - 1)) if flipped else ""
    return s, word, word[:k] + flipped + tail


@settings(max_examples=150, deadline=None)
@given(case=slope_and_target())
def test_kneading_probe_matches_fraction_reference(case):
    s, word, target = case
    probe = _kneading_probe(s, target)
    oracle = word[:len(target)]
    assert probe is not None
    # the probe is the reference word, cut right after its first mismatch
    assert oracle.startswith(probe)
    mismatch = next((i for i, (a, b) in enumerate(zip(oracle, target))
                     if a != b), None)
    assert len(probe) == (len(target) if mismatch is None else mismatch + 1)
    assert parity_lex_cmp(probe, target) == parity_lex_cmp(oracle, target)


def test_kneading_probe_critical_hit_at_one():
    assert _exact_kneading_bits(Fraction(1), 5) == [None]
    assert _kneading_probe(Fraction(1), "10") is None


_PRESET_TARGETS = {
    "fib": lambda d: nu_from_q(fibonacci_q, d).bits,
    "ex35": lambda d: nu_from_q(example35_q, d).bits,
    "nonrec41": lambda d: nonrecurrent_example_nu(d).bits,
    "appendix": lambda d: generate(max(d, 7))[0].bits[:d],
}


@pytest.mark.parametrize("name", sorted(_PRESET_TARGETS))
def test_preset_slopes_match_oracle_bisection(name):
    slope = parse_slope(f"{name}:150")
    assert slope.s.value == _oracle_slope_for_prefix(_PRESET_TARGETS[name](150))


# -- outward rounding of exact values --------------------------------------------

@settings(max_examples=150, deadline=None)
@given(x=st.fractions(min_value=0, max_value=1, max_denominator=1 << 300),
       bits=st.integers(1, 160))
def test_rounded_exact_encloses_on_grid(x, bits):
    r = Scalar.exact(x).rounded(bits)
    assert r.lo <= x <= r.hi
    assert (r.lo * (1 << bits)).denominator == 1
    assert (r.hi * (1 << bits)).denominator == 1
    assert r.width() <= Fraction(1, 1 << bits)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(0, 1 << 40), j=st.integers(0, 40), extra=st.integers(0, 24))
def test_rounded_exact_on_grid_unchanged(k, j, extra):
    x = Scalar.exact(Fraction(k, 1 << j))
    assert x.rounded(j + extra) is x
