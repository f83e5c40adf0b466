import math
import random
import runpy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uilkit.errors import (DomainError, NotAdmissible, PrecisionExhausted,
                           UnresolvedComparison)
from uilkit.kneading import (KneadingPrefix, example35_q, fibonacci_q,
                             nonrecurrent_example_nu, nu_from_orbit, nu_from_q)
from uilkit.presets import golden_slope, parse_slope, tribonacci_slope
from uilkit import hofbauer, inverse_limit, kneading, scalars
from uilkit.hofbauer import level_bounds
from uilkit.inverse_limit import BackwardWord, TwoSidedItinerary
from uilkit.scalars import (C, DEFAULT_PRECISION, TWO, Scalar, SignRelC,
                            SlopeParam, _SYMBOL, _diff, _frac, _gcd, _grid,
                            _grid_ends, _kneading_probe, _lt,
                            branch_preimage, branch_preimage_left,
                            branch_preimage_right, certified_cmp,
                            critical_orbit, parity_lex_cmp, refine,
                            s_one_minus, sign_rel_c, slope_exact,
                            slope_for_prefix, slope_interval, tent_apply)
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
    tight = refine(c10, Fraction(1, 10 ** 12), s, 10)
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
    assert refine(x, Fraction(1, 10 ** 9), tribonacci_slope(), 5) is x


def test_refine_without_hook_raises():
    # an interval slope has no root bracket, so c_n cannot be re-derived
    s = slope_interval(Fraction("1.79"), Fraction("1.80"))
    x = critical_orbit(s, 3, allow_unresolved=True)[-1][0]
    assert not x.is_exact
    with pytest.raises(PrecisionExhausted):
        refine(x, Fraction(1, 10 ** 6), s, 3)


def test_refine_c1200_of_sqrt3_reaches_2_to_minus_64_of_its_width():
    # c_n is re-derived from the slope in a loop over the orbit; when
    # values carried nested recomputation closures this was a RecursionError
    s = parse_slope("sqrt3")
    x = critical_orbit(s, 1200)[-1][0]
    target = x.width() / (1 << 64)
    tight = refine(x, target, s, 1200)
    assert tight.width() <= target
    assert x.lo <= tight.lo and tight.hi <= x.hi


def test_certified_cmp_only_compares(monkeypatch):
    s = parse_slope("sqrt3")
    c1 = critical_orbit(s, 1)[0][0]
    coarse = tent_apply(s, Scalar.exact(C), bits=64)
    assert c1.overlaps(coarse) and (c1.lo, c1.hi) != (coarse.lo, coarse.hi)

    def no_refinement(self, bits):
        raise AssertionError("certified_cmp refined the slope")

    monkeypatch.setattr(SlopeParam, "at", no_refinement)
    for a, b in ((c1, coarse), (coarse, c1), (c1, c1)):
        with pytest.raises(UnresolvedComparison):
            certified_cmp(a, b)
    assert certified_cmp(c1, Scalar.exact(1)) == -1
    assert certified_cmp(c1, Scalar.exact(C)) == 1
    assert certified_cmp(Scalar.exact(C), Scalar.exact(Fraction(2, 4))) == 0


def test_certified_cmp_past_the_digit_limit_is_unresolved():
    # an end of more than 4300 decimal digits has no str(); the message
    # falls back to 64-digit decimals, and is unchanged below the limit
    tiny = Fraction(1, 3 ** 10000)
    with pytest.raises(UnresolvedComparison) as err:
        certified_cmp(Scalar(C - tiny, C + tiny), Scalar.exact(C))
    assert str(err.value).startswith("cannot order ~[4.99999")
    half = "5." + "0" * 64 + "e-1"
    assert str(err.value).endswith(f" against ~[{half}, {half}]")
    with pytest.raises(UnresolvedComparison) as err:
        certified_cmp(Scalar(Fraction(1, 3), C), Scalar.exact(Fraction(2, 5)))
    assert str(err.value) == "cannot order [1/3, 1/2] against [2/5, 2/5]"


def test_slope_validation():
    with pytest.raises(DomainError):
        slope_exact(1)
    with pytest.raises(DomainError):
        slope_exact(Fraction(5, 2))


def test_critical_hit_detected():
    # T_{3/2}: does not hit c in 40 steps; the golden root hits at step 3
    nu = nu_from_orbit(slope_exact(Fraction(3, 2)), 40)
    assert len(nu) == 40
    s2 = nu_from_orbit(slope_exact(2), 5)
    assert s2.bits == "10000" and "critical_orbit_finite" in s2.flags


@settings(max_examples=100, deadline=None)
@given(q=st.integers(2, 1 << 64), data=st.data(), N=st.integers(1, 300))
def test_rational_orbit_never_hits_c_nor_repeats(q, data, N):
    # c_n = a_n / (2 q^n) with a_n coprime to q: no c_n equals c or another
    s = Fraction(data.draw(st.integers(q + 1, 2 * q - 1)), q)
    orbit = critical_orbit(slope_exact(s), N)
    assert all(sign is not SignRelC.AT_C for _, sign in orbit)
    assert len({x.value for x, _ in orbit}) == N
    word = "".join("1" if sign is SignRelC.ABOVE else "0" for _, sign in orbit)
    assert _kneading_probe(s, word) == word


def test_only_slope_two_has_a_finite_critical_orbit():
    for N in range(1, 12):
        flags = nu_from_orbit(slope_exact(2), N).flags
        assert flags == ({"critical_orbit_finite"} if N >= 3 else set()), N
    assert [x.value for x, _ in critical_orbit(slope_exact(2), 4)] == \
        [1, 0, 0, 0]


@pytest.mark.parametrize("name", ["sqrt3", "cbrt6", "golden", "tribonacci"])
def test_algebraic_orbits_hold_no_exact_value(name):
    # golden returns to c exactly, so its c_3 stays unresolved at the cap
    orbit = critical_orbit(parse_slope(name), 200, allow_unresolved=True)
    assert not any(x.is_exact for x, _ in orbit)


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
    finer_orbit = critical_orbit(s.at(1024), 3, prec_cap=4096)
    for (x, sign), (finer, _) in zip(orbit, finer_orbit):
        if sign in (SignRelC.BELOW, SignRelC.ABOVE):
            assert finer.precision_bits == 1024
            assert sign_rel_c(finer) is sign


# -- exact orbits: the integer recurrence against the tent_apply chain ----------

def _tent_chain(slope, N):
    """(c_n, sign) for n = 1 .. N by tent_apply from c_0, at the starting
    precision: how exact orbits were built before the integer recurrence."""
    bits = max(128, slope.s.precision_bits)
    x = Scalar.exact(C)
    out = []
    for _ in range(N):
        x = tent_apply(slope, x, bits=bits)
        out.append((x, sign_rel_c(x)))
    return out


def _assert_same_values(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.lo is x.hi
        assert (x.lo.numerator, x.lo.denominator, x.precision_bits) == \
            (y.lo.numerator, y.lo.denominator, y.precision_bits)
        assert (x.hi.numerator, x.hi.denominator) == \
            (y.hi.numerator, y.hi.denominator)


exact_slopes = st.one_of(
    st.just(Fraction(2)),
    st.integers(2, 1 << 64).flatmap(
        lambda q: st.integers(q + 1, 2 * q).map(lambda p: Fraction(p, q))))


def exact_slope_param(s, bits):
    return SlopeParam(Scalar(s, s, bits))


@settings(max_examples=100, deadline=None)
@given(s=exact_slopes, N=st.integers(1, 300),
       bits=st.sampled_from([64, 128, 200, 512]))
def test_exact_critical_orbit_matches_tent_chain(s, N, bits):
    slope = exact_slope_param(s, bits)
    chain = _tent_chain(slope, N)
    orbit = critical_orbit(slope, N)
    assert [sign for _, sign in orbit] == [sign for _, sign in chain]
    _assert_same_values([x for x, _ in orbit], [x for x, _ in chain])
    word = "".join(_SYMBOL[sign] for _, sign in chain)
    assert nu_from_orbit(slope, N).bits == word


def test_exact_nu_from_orbit_rejects_the_length_then_the_cap():
    slope = slope_exact(Fraction(9, 5))
    for cap in (64, 4096):
        with pytest.raises(DomainError, match="orbit length"):
            nu_from_orbit(slope, 0, prec_cap=cap)
    with pytest.raises(DomainError, match="precision cap 64"):
        nu_from_orbit(slope, 10, prec_cap=64)
    assert len(nu_from_orbit(slope, 10, prec_cap=128)) == 10


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


def _integer_probe(s: Fraction, target: str):
    """The exact integer probe that the fixed-point _kneading_probe
    replaced: c_n = a_n / (2 q^n), a_{n+1} = p * min(a_n, 2 q^n - a_n)."""
    p, q = s.numerator, s.denominator
    a = qn = 1
    word = []
    for t in target:
        a = p * min(a, 2 * qn - a)
        qn *= q
        if a == qn:
            return None
        word.append("1" if a > qn else "0")
        if word[-1] != t:
            break
    return "".join(word)


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
    assert probe == _integer_probe(s, target)


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


@settings(max_examples=60, deadline=None)
@given(s=st.sampled_from([Fraction(1), Fraction(2)]),
       target=st.text(alphabet="01", max_size=300))
def test_kneading_probe_matches_integer_probe_at_integer_slopes(s, target):
    # s = 1 hits c at once; s = 2 gives 1000...; both run exact at any w
    assert _kneading_probe(s, target) == _integer_probe(s, target)


@pytest.mark.parametrize("name, depth", [("fib", 300), ("ex35", 150),
                                         ("nonrec41", 150),
                                         ("appendix", 150)])
def test_preset_bisections_match_the_integer_probe(monkeypatch, name, depth):
    # every probe of the bisection, a deep fib target included, gives the
    # integer probe's word, so the bisection takes the same steps
    probes = []

    def both(s, target):
        word = _kneading_probe(s, target)
        assert word == _integer_probe(s, target), s
        probes.append(s)
        return word

    monkeypatch.setattr(scalars, "_kneading_probe", both)
    slope = parse_slope(f"{name}:{depth}")
    assert len(probes) > depth // 2
    assert slope.s.value == probes[-1]
    target = _PRESET_TARGETS[name](depth)
    assert _integer_probe(slope.s.value, target) == target


def test_slope_for_prefix_reads_a_word_over_0_1_only():
    # a dotted target was stripped unchecked; "10x1" ran every halving and
    # then raised PrecisionExhausted
    for target in ("1.0.0.0.101", "10x1", "1 0"):
        with pytest.raises(DomainError, match="over 0/1"):
            slope_for_prefix(target)
    assert slope_for_prefix("1000101").s.is_exact


@settings(max_examples=40, deadline=None)
@given(q=st.integers(2, 1 << 32), data=st.data(), depth=st.integers(1, 60))
def test_slope_for_prefix_matches_oracle_bisection(q, data, depth):
    # the oracle still nudges off exact critical hits, which never happen
    s = Fraction(data.draw(st.integers(q * 5 // 4 + 1, 2 * q - 1)), q)
    target = "".join(_exact_kneading_bits(s, depth))
    assert slope_for_prefix(target).s.value == _oracle_slope_for_prefix(target)


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


# -- the integer tent step against the Fraction code it replaced -----------------

def _floor_dyadic(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction((q.numerator * scale) // q.denominator, scale)


def _ceil_dyadic(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-q.numerator * scale) // q.denominator), scale)


def _oracle_rounded(lo: Fraction, hi: Fraction, bits: int):
    """Scalar.rounded of the Fraction code, as its two ends."""
    if lo == hi and (1 << bits) % lo.denominator == 0:
        return lo, hi
    return _floor_dyadic(lo, bits), _ceil_dyadic(hi, bits)


def _oracle_tent(s_lo, s_hi, x_lo, x_hi, bits):
    """tent_apply of the Fraction code (hooks left out), as its two ends."""
    if x_hi <= C:
        m_lo, m_hi = x_lo, x_hi
    elif x_lo >= C:
        m_lo, m_hi = 1 - x_hi, 1 - x_lo
    else:
        m_lo, m_hi = min(x_lo, 1 - x_hi), C
    lo, hi = s_lo * m_lo, s_hi * m_hi
    if lo != hi and max(lo.denominator.bit_length(),
                        hi.denominator.bit_length()) > 2 * bits:
        return _oracle_rounded(lo, hi, bits)
    return lo, hi


def _oracle_sign(lo: Fraction, hi: Fraction) -> SignRelC:
    if hi < C:
        return SignRelC.BELOW
    if lo > C:
        return SignRelC.ABOVE
    if lo == hi == C:
        return SignRelC.AT_C
    return SignRelC.UNRESOLVED


def _ends(x: Scalar):
    assert type(x.lo) is Fraction and type(x.hi) is Fraction
    return (x.lo.numerator, x.lo.denominator, x.hi.numerator, x.hi.denominator,
            x.precision_bits)


def _pairs(lo: Fraction, hi: Fraction, bits: int):
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator, bits


@st.composite
def dyadic_interval(draw, floor=Fraction(0), ceil=Fraction(1)):
    """[m - w, m + w] with m on a 2^-j grid and w = 2^-h, h in 64..2048."""
    j = draw(st.integers(1, 2100))
    h = draw(st.integers(64, 2048))
    k = draw(st.integers(0, (ceil - floor) * (1 << j)))
    m = floor + Fraction(k, 1 << j)
    w = Fraction(1, 1 << h)
    return max(m - w, floor), min(m + w, ceil)


@st.composite
def decimal_interval(draw, floor=Fraction(0), ceil=Fraction(1)):
    """Two decimals with up to 40 digits, in order."""
    k = draw(st.integers(1, 40))
    span = int((ceil - floor) * 10 ** k)
    a, b = sorted(draw(st.lists(st.integers(0, span), min_size=2, max_size=2)))
    return floor + Fraction(a, 10 ** k), floor + Fraction(b, 10 ** k)


@st.composite
def exact_point(draw, floor=Fraction(0), ceil=Fraction(1)):
    """p/q with q up to 2^64, or one of the ends and c."""
    if draw(st.booleans()):
        v = draw(st.sampled_from([floor, ceil, (floor + ceil) / 2]))
    else:
        q = draw(st.integers(1, 1 << 64))
        v = floor + Fraction(draw(st.integers(0, int((ceil - floor) * q))), q)
    return v, v


def _ends_in(floor, ceil):
    return st.one_of(exact_point(floor, ceil), dyadic_interval(floor, ceil),
                     decimal_interval(floor, ceil))


# slopes: exact p/q (q <= 2^64), dyadic and decimal intervals inside (1, 2]
slope_ends = st.one_of(
    exact_point(Fraction(1), Fraction(2)),
    dyadic_interval(Fraction(1), Fraction(2)),
    decimal_interval(Fraction(1), Fraction(2)),
).filter(lambda e: e[0] > 1)

# inputs below, at and above c, straddling it, and the ends of [0, 1]
input_ends = st.one_of(
    _ends_in(Fraction(0), C), _ends_in(C, Fraction(1)),
    _ends_in(Fraction(0), Fraction(1)),
    st.sampled_from([(Fraction(0), Fraction(0)), (C, C), (Fraction(1),) * 2,
                     (Fraction(0), Fraction(1))]),
)

precisions = st.integers(1, 2100)


@settings(max_examples=600)
@given(s=slope_ends, x=input_ends, s_bits=precisions, x_bits=precisions,
       data=st.data())
def test_tent_step_matches_fraction_oracle(s, x, s_bits, x_bits, data):
    slope = SlopeParam(Scalar(*s, s_bits))
    xs = Scalar(*x, x_bits)
    # the default precision, any, or one at the 2*bits rounding boundary of
    # the unrounded image
    lo, hi = _oracle_tent(*s, *x, 1 << 20)
    width = max(lo.denominator.bit_length(), hi.denominator.bit_length())
    bits = data.draw(st.one_of(
        st.none(), precisions,
        st.integers(-2, 1).map(lambda d: max(1, (width + d) // 2))))
    out = tent_apply(slope, xs, bits)
    bits = bits or min(s_bits, x_bits)
    assert _ends(out) == _pairs(*_oracle_tent(*s, *x, bits), bits)
    assert sign_rel_c(out) is _oracle_sign(out.lo, out.hi)
    assert sign_rel_c(xs) is _oracle_sign(*x)
    assert _ends(s_one_minus(xs)) == _pairs(1 - x[1], 1 - x[0], x_bits)
    rounded = xs.rounded(bits)
    on_grid = x[0] == x[1] and (1 << bits) % x[0].denominator == 0
    assert (rounded is xs) == on_grid
    assert _ends(rounded) == _pairs(*_oracle_rounded(*x, bits),
                                    x_bits if on_grid else bits)


def test_tent_step_rounding_boundary():
    # 3/2 * (2^-bits - 2^-e) has a denominator of e + 2 bits: 2*bits ends
    # are kept, 2*bits + 1 ends are rounded
    bits = 40
    slope = slope_exact(Fraction(3, 2))
    for e, kept in ((2 * bits - 2, True), (2 * bits - 1, False)):
        x = Scalar(Fraction(1, 1 << bits) - Fraction(1, 1 << e),
                   Fraction(1, 1 << bits))
        lo, hi = Fraction(3, 2) * x.lo, Fraction(3, 2) * x.hi
        assert lo.denominator.bit_length() == 2 * bits + (not kept)
        out = tent_apply(slope, x, bits=bits)
        assert (out.lo, out.hi) == ((lo, hi) if kept else
                                    _oracle_rounded(lo, hi, bits))
        assert (out.lo == lo) is kept


# -- the integer branch preimage against the Fraction code it replaced ----------

def _oracle_preimage_left(s_lo, s_hi, y_lo, y_hi, bits):
    """branch_preimage_left of the Fraction code, as its two ends: y / s by
    Fraction division into a checked Scalar, rounded outward when a
    denominator passes 2*bits bits."""
    lo, hi = y_lo / s_hi, y_hi / s_lo
    if lo != hi and lo > hi:
        raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
    if lo != hi and max(lo.denominator.bit_length(),
                        hi.denominator.bit_length()) > 2 * bits:
        return _oracle_rounded(lo, hi, bits)
    return lo, hi


def _check_preimages(slope, y):
    bits = min(slope.s.precision_bits, y.precision_bits)
    try:
        lo, hi = _oracle_preimage_left(slope.s.lo, slope.s.hi, y.lo, y.hi, bits)
    except ValueError as exc:
        for f in (branch_preimage_left, branch_preimage_right):
            with pytest.raises(ValueError) as err:
                f(slope, y)
            assert str(err.value) == str(exc)
        return False
    assert _ends(branch_preimage_left(slope, y)) == _pairs(lo, hi, bits)
    assert _ends(branch_preimage_right(slope, y)) == \
        _pairs(1 - hi, 1 - lo, bits)
    for symbol, f in ((0, branch_preimage_left), (1, branch_preimage_right)):
        assert _ends(branch_preimage(slope, y, symbol)) == _ends(f(slope, y))
    return True


_ALGEBRAIC = ["sqrt3", "cbrt6", "golden", "tribonacci"]

# exact, dyadic and decimal interval slopes, and algebraic root enclosures
any_slope = st.one_of(
    st.builds(lambda s, bits: SlopeParam(Scalar(*s, bits)), slope_ends,
              precisions),
    st.builds(lambda name, bits: parse_slope(name).at(bits),
              st.sampled_from(_ALGEBRAIC), st.integers(64, 1024)),
)


@settings(max_examples=600)
@given(slope=any_slope, y=input_ends, y_bits=precisions)
def test_branch_preimages_match_fraction_oracle(slope, y, y_bits):
    assert _check_preimages(slope, Scalar(*y, y_bits))


@pytest.mark.parametrize("name", ["9/5", "fib:60", "interval:1.79,1.8"]
                         + _ALGEBRAIC)
def test_branch_preimages_of_orbit_values_match_fraction_oracle(name):
    slope = parse_slope(name)
    for x, _ in critical_orbit(slope, 80, allow_unresolved=True):
        assert _check_preimages(slope, x)


@settings(max_examples=300)
@given(slope=any_slope, y=_ends_in(Fraction(-1), Fraction(0)),
       y_bits=precisions)
def test_branch_preimage_rejects_ends_out_of_order_as_before(slope, y, y_bits):
    # only a y wholly below 0 on an interval slope can put y/s out of order
    kept = _check_preimages(slope, Scalar(*y, y_bits))
    assert kept or (y[1] < 0 and not slope.is_exact)


def test_branch_preimage_out_of_order_example():
    y = Scalar(Fraction(-33, 64), Fraction(-1, 2))
    with pytest.raises(ValueError, match=r"out of order: \[-33/112, -1/3\]"):
        branch_preimage_left(slope_interval(Fraction(3, 2), Fraction(7, 4)), y)
    assert not _check_preimages(
        slope_interval(Fraction(3, 2), Fraction(7, 4)), y)
    assert _check_preimages(slope_exact(Fraction(3, 2)), y)


@settings(max_examples=300)
@given(n=st.integers(-(1 << 300), 1 << 300), e=st.integers(0, 300),
       odd=st.integers(1, 1 << 70).map(lambda v: 2 * v + 1))
def test_gcd_and_grid_helpers(n, e, odd):
    assert _gcd(n, 1 << e) == math.gcd(n, 1 << e)
    assert _gcd(n, odd) == math.gcd(n, odd)
    for d in (1 << e, odd):
        g = math.gcd(n, d)
        q = Fraction(n // g, d // g)
        for bits in {1, e // 2 + 1, max(e, 1), e + 3}:
            for up, oracle in ((False, _floor_dyadic), (True, _ceil_dyadic)):
                r = oracle(q, bits)
                assert _grid(q.numerator, q.denominator, bits, up) == \
                    (r.numerator, r.denominator)


@st.composite
def _fractions(draw):
    """Dyadic ends up to 2^-2100, decimal ends, and generic p/q, signed."""
    n = draw(st.integers(-(1 << 2100), 1 << 2100))
    kind = draw(st.sampled_from(["dyadic", "decimal", "generic", "small"]))
    if kind == "dyadic":
        return Fraction(n, 1 << draw(st.integers(0, 2100)))
    if kind == "decimal":
        return Fraction(n, 10 ** draw(st.integers(0, 640)))
    if kind == "generic":
        return Fraction(n, draw(st.integers(1, 1 << 2100)))
    return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))


@settings(max_examples=500)
@given(x=_fractions(), y=_fractions(), same=st.sampled_from([0, 0, 0, 1, 2]))
def test_lt_and_diff_match_fraction(x, y, same):
    if same == 1:
        y = x
    elif same == 2:                 # a common denominator
        y = Fraction(y.numerator, x.denominator)
    assert _lt(x, y) == (x < y)
    assert _lt(y, x) == (y < x)
    for a, b in ((x, y), (y, x)):
        got, want = _diff(a, b), a - b
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == \
            (want.numerator, want.denominator)


@st.composite
def _near_ratios(draw):
    """Non-dyadic ends whose cross products have bit lengths that differ by
    0 to 3, the edge of the bit-length test in ``_lt``; one end may be 0."""
    a = draw(st.one_of(st.just(0), st.integers(1, 1 << 3000)))
    b = draw(st.integers(1, 1 << 3000).map(lambda v: 3 * v))
    c = (a << draw(st.integers(0, 3))) + draw(st.integers(-2, 2))
    d = (b << draw(st.integers(0, 3))) + draw(st.integers(-2, 2))
    return Fraction(a, b), Fraction(max(c, 1), max(d, 1))


@settings(max_examples=500)
@given(pair=_near_ratios(), swap=st.booleans())
def test_lt_by_bit_lengths_matches_fraction(pair, swap):
    x, y = pair[::-1] if swap else pair
    assert _lt(x, y) == (x < y)
    assert _lt(y, x) == (y < x)
    assert not _lt(x, x)


# -- the shift paths against the two-gcd kernel they took over from ----------------

def _two_gcd_mul(n1, d1, n2, d2):
    """``scalars._mul`` before dyadic operands took shifts."""
    g1 = _gcd(n1, d2)
    g2 = _gcd(n2, d1)
    if g1 != 1:
        n1 //= g1
        d2 //= g1
    if g2 != 1:
        n2 //= g2
        d1 //= g2
    return n1 * n2, d1 * d2


def _two_gcd_diff(x, y):
    """``scalars._diff`` before dyadic operands took shifts."""
    na, da = x.numerator, x.denominator
    nb, db = y.numerator, y.denominator
    g = _gcd(da, db)
    s = da // g
    t = na * (db // g) - nb * s
    g2 = _gcd(t, g)
    return _frac(t // g2, s * (db // g2))


@st.composite
def _kernel_operand(draw, bits=4096):
    """A signed fraction in lowest terms up to ``bits`` bits: dyadic, a power
    of two over an odd number (an inverted dyadic slope), decimal, generic,
    an integer, zero or small."""
    kind = draw(st.sampled_from(["dyadic", "dyadic", "pow2_over", "decimal",
                                 "generic", "integer", "zero", "small"]))
    n = draw(st.integers(-(1 << bits), 1 << bits))
    if kind == "dyadic":
        return Fraction(n, 1 << draw(st.integers(0, bits)))
    if kind == "pow2_over":
        odd = 2 * draw(st.integers(0, 1 << bits)) + 1
        return Fraction(1 << draw(st.integers(0, bits)), odd)
    if kind == "decimal":
        return Fraction(n, 10 ** draw(st.integers(0, bits // 4)))
    if kind == "generic":
        return Fraction(n, draw(st.integers(1, 1 << bits)))
    if kind == "integer":
        return Fraction(n)
    if kind == "zero":
        return Fraction(0)
    return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))


@st.composite
def _diff_pair(draw):
    """Two operands, the second often sharing the first's denominator: equal,
    off by an odd multiple of a power of two (trailing zeros to shed), or
    with its own numerator."""
    x = draw(_kernel_operand())
    how = draw(st.sampled_from(["free", "equal", "zeros", "same_den"]))
    if how == "free":
        return x, draw(_kernel_operand())
    if how == "equal":
        return x, Fraction(x.numerator, x.denominator)
    if how == "zeros":
        odd = 2 * draw(st.integers(0, 1 << 64)) + 1
        z = draw(st.integers(0, x.denominator.bit_length()))
        return x, x - Fraction(odd << z, x.denominator)
    return x, Fraction(draw(st.integers(-(1 << 4096), 1 << 4096)),
                       x.denominator)


@settings(max_examples=800)
@given(x=_kernel_operand(), y=_kernel_operand())
def test_mul_matches_the_two_gcd_rule(x, y):
    for a, b in ((x, y), (y, x)):
        got = scalars._mul(a.numerator, a.denominator,
                           b.numerator, b.denominator)
        want = a * b
        assert got == _two_gcd_mul(a.numerator, a.denominator,
                                   b.numerator, b.denominator)
        assert got == (want.numerator, want.denominator)


@settings(max_examples=800)
@given(pair=_diff_pair(), swap=st.booleans())
def test_diff_matches_the_two_gcd_rule(pair, swap):
    x, y = pair[::-1] if swap else pair
    got, oracle, want = _diff(x, y), _two_gcd_diff(x, y), x - y
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == \
        (oracle.numerator, oracle.denominator) == \
        (want.numerator, want.denominator)


def _kernel_call(fn, *args):
    """The ends of fn(*args), one Scalar or a tuple of them, or the text of
    its ValueError."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return str(exc)
    return [_ends(x) for x in (out if isinstance(out, tuple) else (out,))]


def _on_the_two_gcd_kernel(fn, *args):
    """``_kernel_call`` with ``_mul`` and ``_diff`` swapped for the two-gcd
    code."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scalars, "_mul", _two_gcd_mul)
        mp.setattr(scalars, "_diff", _two_gcd_diff)
        mp.setattr(hofbauer, "_diff", _two_gcd_diff)
        return _kernel_call(fn, *args)


@st.composite
def _dyadic_slope(draw):
    """p/2^20 +- 2^-h at precision h, the shape of the benchmark's interval
    slopes, or an algebraic preset's dyadic bracket."""
    if draw(st.booleans()):
        return parse_slope(draw(st.sampled_from(["sqrt3", "cbrt6"]))).at(
            draw(st.sampled_from([128, 256, 1024, 2048])))
    h = draw(st.integers(64, 2048))
    mid = Fraction(draw(st.integers(int(1.45 * 2 ** 20), int(1.95 * 2 ** 20))),
                   1 << 20)
    half = Fraction(1, 1 << h)
    return slope_interval(mid - half, mid + half, h)


dyadic_ends = st.one_of(
    dyadic_interval(), dyadic_interval(Fraction(-1), Fraction(0)),
    st.sampled_from([(Fraction(0), Fraction(0)), (C, C), (Fraction(1),) * 2,
                     (Fraction(0), Fraction(1))]))


@settings(max_examples=400, deadline=None)
@given(slope=_dyadic_slope(), x=dyadic_ends, y=dyadic_ends,
       bits=st.sampled_from([64, 200, 1024, 2048, 4096]))
def test_kernel_outputs_match_the_two_gcd_kernel(slope, x, y, bits):
    xs, ys = Scalar(*x, bits), Scalar(*y, bits)
    calls = [(branch_preimage_left, slope, xs),
             (branch_preimage_right, slope, xs),
             (level_bounds, xs, ys), (level_bounds, xs, xs)]
    if x[0] >= 0:
        calls.append((tent_apply, slope, xs))
    for fn, *args in calls:
        assert _kernel_call(fn, *args) == _on_the_two_gcd_kernel(fn, *args)


@pytest.mark.parametrize("seed", range(4))
def test_orbits_and_levels_match_the_two_gcd_kernel(seed):
    # seeded dyadic orbits to horizon 300: each step, its preimages and the
    # level of each pair of consecutive values, on both kernels
    rng = random.Random(seed)
    h = rng.choice([256, 1024, 1722, 2048])
    mid = Fraction(rng.randrange(int(1.45 * 2 ** 20), int(1.95 * 2 ** 20)),
                   1 << 20)
    slope = slope_interval(mid - Fraction(1, 1 << h), mid + Fraction(1, 1 << h),
                           h)
    x = prev = Scalar.exact(C)
    for _ in range(300):
        for fn, *args in ((tent_apply, slope, x),
                          (branch_preimage_left, slope, x),
                          (branch_preimage_right, slope, x),
                          (level_bounds, x, prev)):
            assert _kernel_call(fn, *args) == _on_the_two_gcd_kernel(fn, *args)
        if sign_rel_c(x) is SignRelC.UNRESOLVED:
            break
        prev, x = x, tent_apply(slope, x)


@settings(max_examples=300)
@given(x=_fractions(), w=_fractions(), bits=st.integers(1, 2200))
def test_grid_ends_are_the_rounded_ends(x, w, bits):
    for v in (Scalar.exact(x), Scalar(x, x + abs(w))):
        r = v.rounded(bits)
        assert _grid_ends(v, bits) == (r.lo * (1 << bits), r.hi * (1 << bits))


# -- Fraction built from a reduced pair ------------------------------------------

@settings(max_examples=300)
@given(n=st.integers(-(1 << 2100), 1 << 2100), d=st.integers(1, 1 << 2100))
def test_fraction_from_reduced_pair(n, d):
    g = math.gcd(n, d)
    n, d = n // g, d // g
    f = _frac(n, d)
    ref = Fraction(n, d)
    assert type(f) is Fraction
    assert (f.numerator, f.denominator) == (ref.numerator, ref.denominator)
    assert f == ref and hash(f) == hash(ref)


# -- tent set images contain sampled points --------------------------------------

unit = st.fractions(min_value=0, max_value=1, max_denominator=1 << 20)


@settings(max_examples=400)
@given(s=slope_ends, x=input_ends, t=unit, u=unit, bits=st.integers(8, 600))
def test_tent_image_contains_sampled_points(s, x, t, u, bits):
    slope = SlopeParam(Scalar(*s, bits))
    image = tent_apply(slope, Scalar(*x, bits))
    s_pt = s[0] + t * (s[1] - s[0])
    x_pt = x[0] + u * (x[1] - x[0])
    assert image.contains(s_pt * min(x_pt, 1 - x_pt))


# -- the library's exact orbit against the integer kneading probe ----------------

@settings(max_examples=150)
@given(q=st.integers(1, 1 << 64), data=st.data(), depth=st.integers(1, 200))
def test_nu_from_orbit_matches_kneading_probe(q, data, depth):
    s = Fraction(data.draw(st.integers(q + 1, 2 * q)), q)
    word = nu_from_orbit(slope_exact(s), depth).bits
    assert _kneading_probe(s, word) == word


def test_stdlib_check():
    # the pinned orbit digest and the Fraction contract, as run on
    # interpreters that have no pytest
    runpy.run_path(str(Path(__file__).with_name("stdlib_check.py")))["main"]()


# -- the fixed-point ball at the orbit's precision contains the orbit ------------

def _ball_interval(mid, half, bits=DEFAULT_PRECISION):
    return slope_interval(mid - half, min(mid + half, TWO), precision_bits=bits)


ball_slopes = st.one_of(
    st.builds(lambda m, h: _ball_interval(Fraction(m, 1 << 12),
                                          Fraction(1, 1 << h), h),
              st.integers(5 << 10, (1 << 13) - 1), st.integers(8, 700)),
    st.builds(lambda p, h: _ball_interval(Fraction(p, 100), Fraction(1, 3 ** h)),
              st.integers(130, 199), st.integers(4, 300)),
    st.sampled_from(["golden", "tribonacci", "sqrt3", "cbrt6"]).map(parse_slope))


@settings(max_examples=150)
@given(slope=ball_slopes, bits=st.sampled_from([128, 256, 578, 1024, 2048]),
       N=st.integers(1, 600))
def test_ball_at_the_orbit_precision_contains_the_tent_chain(slope, bits, N):
    # at W = bits the ball holds the tent_apply chain at bits, so each sign
    # the ball decides is the orbit's; the ball ends are read off the
    # suspended generator's frame
    sl = slope.at(bits)
    balls = scalars._ball_signs(*_grid_ends(sl.s, bits), bits)
    x = Scalar.exact(C)
    for _, symbol in zip(range(N), balls):
        x = tent_apply(sl, x, bits=bits)
        ball = balls.gi_frame.f_locals
        assert Fraction(ball["lo"], 1 << bits) <= x.lo
        assert x.hi <= Fraction(ball["hi"], 1 << bits)
        assert symbol == _SYMBOL[sign_rel_c(x)]



# -- the one 0/1 check ------------------------------------------------------------

# the idioms each entry used before it called ``scalars._BINARY``
def _set_idiom(word):
    return set(word) <= {"0", "1"}


def _any_idiom(word):
    return not any(ch not in "01" for ch in word)


class _Probed(Exception):
    """Raised in place of the bisection once a target has passed entry."""


def _no_bisection(mid, target):
    raise _Probed


# (module holding the check, idiom it replaced, entry) for each entry that
# checks a word over 0/1
_ENTRIES = [
    (kneading, _set_idiom, KneadingPrefix),
    (inverse_limit, _any_idiom, BackwardWord),
    (inverse_limit, _any_idiom, lambda w: BackwardWord("", w)),
    (inverse_limit, _any_idiom,
     lambda w: TwoSidedItinerary(BackwardWord("1"), w)),
    (scalars, _set_idiom, slope_for_prefix),
]


def _outcome(entry, word):
    try:
        entry(word)
    except Exception as exc:      # the type and text are what is compared
        return type(exc), str(exc)
    return "accepted"


def _entry_words():
    rng = random.Random(29)
    words = ["", "1", "0", "10", "01", "2", " ", "1\n", "\n1", "0.1", "1.0",
             "\uff11\uff10", "1\uff10", "10x1", "\x00", "1" * 1000, "0" * 1000]
    for _ in range(60):
        word = "".join(rng.choice("01") for _ in range(rng.randint(1, 400)))
        i = rng.randrange(len(word) + 1)
        words += [word, word[:i] + rng.choice("2 .\n\t\u0660\u00b9x") + word[i:]]
    return words


def test_binary_check_matches_the_idioms_it_replaced(monkeypatch):
    # for a str, every entry keeps the parent's acceptance, exception type
    # and text; slope_for_prefix stops where its bisection would begin
    monkeypatch.setattr(scalars, "_kneading_probe", _no_bisection)
    seen = set()
    for module, idiom, entry in _ENTRIES:
        for word in _entry_words():
            now = _outcome(entry, word)
            with monkeypatch.context() as m:
                m.setattr(module, "_BINARY", idiom)
                assert _outcome(entry, word) == now, (entry, word[:40])
            seen.add(now if now == "accepted" else now[0])
    assert seen == {"accepted", _Probed, DomainError, NotAdmissible}


def test_a_word_that_is_not_a_str_is_refused():
    # a list of symbols was once taken as a word, and slope_for_prefix ran
    # its whole bisection on ["1", "0", "0"] to raise PrecisionExhausted
    for _, _, entry in _ENTRIES:
        with pytest.raises(TypeError):
            entry(["1", "0", "0"])
    assert slope_for_prefix("100").is_exact


def test_scalar_and_refine_refusals():
    # a precision is positive; only an exact scalar has a value; refine
    # stops at its cap, and refuses a c_n that the enclosure does not hold
    for bits in (0, -3):
        with pytest.raises(ValueError,
                           match="^precision_bits must be positive$"):
            Scalar(0, 1, bits)
    with pytest.raises(ValueError, match="^not an exact rational$"):
        Scalar.interval(0, 1).value
    s = parse_slope("sqrt3")
    c10 = critical_orbit(s, 10)[-1][0]
    assert c10.precision_bits == 192
    with pytest.raises(PrecisionExhausted, match=" above target at cap 192$"):
        refine(c10, 0, s, 10, prec_cap=192)
    with pytest.raises(DomainError,
                       match="^refinement produced a disjoint enclosure$"):
        refine(c10, c10.width() / 2, s, 9)          # c10 does not hold c_9
    assert refine(c10, c10.width() / 2, s, 10).width() <= c10.width() / 2
