import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uilkit import verdicts as V
from uilkit.errors import DomainError, NoRecurrenceWitness, UnrealizableWord
from uilkit.hofbauer import OrbitTable
from uilkit.inverse_limit import (RULE_FOLDING, BackwardWord, TauData,
                                  TwoSidedItinerary, backward_points,
                                  basic_arc_interval, classification_report,
                                  endpoint_itinerary_gen, endpoint_verdict,
                                  folding_verdict, parse_itinerary, pull_back,
                                  reconstruct_x0, reluctance_search, tau_data,
                                  verify_monotone, word_image_interval,
                                  word_realizable)
from uilkit.kneading import (KneadingPrefix, admissible_disjoint, cutting_data,
                             example35_q, fibonacci_q, nonrecurrent_example_nu,
                             nu_from_orbit, nu_from_q)
from uilkit.presets import parse_slope
from uilkit.scalars import (C, Scalar, slope_exact, slope_for_prefix,
                            slope_interval)


# -- words, itineraries, match sets ---------------------------------------------

def test_backward_word_access():
    w = BackwardWord("011", periodic_block="10")
    # symbols s_{-1}=1, s_{-2}=1, s_{-3}=0, then ...101010 to the left
    assert [w.at(n) for n in range(1, 8)] == list("110" + "0101")
    assert w.unrolled(5) == "10011"
    assert BackwardWord("01").at(3) is None


@given(symbols=st.text(alphabet="01", max_size=8),
       block=st.one_of(st.none(), st.text(alphabet="01", min_size=1,
                                          max_size=5)),
       depth=st.integers(-2, 30))
def test_unrolled_reads_the_symbols(symbols, block, depth):
    w = BackwardWord(symbols, block)
    top = depth if block is not None else min(depth, len(symbols))
    assert w.unrolled(depth) == "".join(w.at(n) for n in range(top, 0, -1))


def test_parse_itinerary_roundtrip():
    it = parse_itinerary("(10)^inf 0110.1001")
    assert it.backward.symbols == "0110"
    assert it.backward.periodic_block == "10"
    assert it.forward == "1001"
    it2 = parse_itinerary("...111.111")
    assert it2.backward.symbols == "111" and not it2.backward.is_periodic


def test_tau_data_spec_cases():
    nu = KneadingPrefix("1001101")
    td = tau_data(BackwardWord("100"), nu)
    assert set(td.NL) & set(range(2, 5)) == {4}
    assert set(td.NR) & set(range(1, 5)) == {1}

    td0 = tau_data(BackwardWord("0000"), nu)
    assert td0.NR == (1,) and td0.NL == ()


def test_one_always_in_nr_and_nl_nonempty_with_one():
    nu = nu_from_q(fibonacci_q, 64)
    for bits in ("1", "01", "0101", "100", "111"):
        td = tau_data(BackwardWord(bits), nu)
        assert 1 in td.NR
        if "1" in bits:
            assert td.NL, bits


def test_saturation_flags():
    nu = KneadingPrefix("1000101")
    td = tau_data(BackwardWord("1000101"), nu)   # the full prefix matches
    assert td.saturatedL or td.saturatedR
    td2 = tau_data(BackwardWord("0100"), nu)
    assert not td2.saturatedL and not td2.saturatedR


# -- arc intervals ----------------------------------------------------------------

def test_arc_interval_seed_d4():
    nu = KneadingPrefix("1000101")
    kd = cutting_data(nu)
    slope = slope_for_prefix(nu.bits)
    orbit = OrbitTable(slope)
    td = tau_data(BackwardWord("0100"), nu)
    arc = basic_arc_interval(td, orbit, kd=kd, mode="core")
    assert (td.tauL, td.tauR) == (4, 1)
    assert arc.exact and arc.tower_identity == 4     # [c_4, c_1] = D_4, beta(4)=1
    assert arc.lo.value == orbit.value(4).value
    assert arc.hi.value == orbit.value(1).value


def test_arc_interval_unbounded_side():
    nu = KneadingPrefix("1000101")
    slope = slope_for_prefix(nu.bits)
    orbit = OrbitTable(slope)
    td = tau_data(BackwardWord("0000"), nu)
    arc = basic_arc_interval(td, orbit, kd=cutting_data(nu), mode="core")
    assert not arc.exact
    assert arc.hi_n == 1 and arc.lo_n == 2           # only the trivial core floor


def test_word_oracle_exhaustive_small():
    nu = KneadingPrefix("10011101")        # Fibonacci prefix
    kd = cutting_data(nu)
    slope = slope_for_prefix(nu.bits)
    orbit = OrbitTable(slope)
    for n in range(1, 7):
        for tup in itertools.product("01", repeat=n):
            w = "".join(tup)
            brute = word_image_interval(slope, w)
            td = tau_data(BackwardWord(w), nu)
            try:
                arc = basic_arc_interval(td, orbit, word=w, kd=kd, mode="unit")
                got = (arc.lo.value, arc.hi.value)
            except UnrealizableWord:
                got = None
            assert got == brute, (w, got, brute)


def test_word_realizable_gate():
    nu = KneadingPrefix("10010100")
    assert not word_realizable("010001", nu)     # contains a too-long 0-block
    assert word_realizable("10010", nu)


# -- endpoint verdicts -------------------------------------------------------------

def test_rho_fixed_point_refuted(fib_nu):
    rho = TwoSidedItinerary(BackwardWord("", "1"), "1" * 8)
    verdict = endpoint_verdict(rho, fib_nu)
    assert verdict.is_refuted


def test_interior_point_refuted():
    nu = KneadingPrefix("1000101")
    it = TwoSidedItinerary(BackwardWord("0100"), "")
    assert endpoint_verdict(it, nu).is_refuted


def test_pumping_certificate_on_declared_periodic_nu():
    # synthetic: nu declared to continue 3-periodically; the matching
    # periodic tail pumps and tau = infinity is certified
    nu = KneadingPrefix("1011011011", periodic_tail=(1, 3))
    it = TwoSidedItinerary(BackwardWord("", "011"), "")
    td = tau_data(it.backward, nu)
    assert td.cert_infiniteL or td.cert_infiniteR
    assert endpoint_verdict(it, nu).is_certified


def test_endpoint_not_refuted_before_the_word_is_read():
    nu = nu_from_q(fibonacci_q, 400)
    it = TwoSidedItinerary(BackwardWord(nu.bits[:33]))
    assert endpoint_verdict(it, nu, depth=33).status == "undetermined"
    assert endpoint_verdict(it, nu, depth=34).status == "evidence"
    it = TwoSidedItinerary(BackwardWord("0100"))
    nu = KneadingPrefix("1000101")
    assert [endpoint_verdict(it, nu, depth=d).status for d in (3, 4, 5)] == \
        ["undetermined", "undetermined", "refuted"]


def _assert_decided_verdict_stays(back, nu, depths):
    """A certified or refuted endpoint verdict never changes as the depth
    grows on the same input."""
    decided = None
    for depth in depths:
        status = endpoint_verdict(TwoSidedItinerary(back), nu, depth).status
        if decided is not None:
            assert status == decided[1], (back.symbols, back.periodic_block,
                                           decided, depth)
        elif status in ("certified", "refuted"):
            decided = (depth, status)


METAMORPHIC_NUS = {
    "fib": nu_from_q(fibonacci_q, 400),
    "ex35": nu_from_q(example35_q, 400),
    "nonrec": nonrecurrent_example_nu(400),
    "periodic3": KneadingPrefix("1011011011", periodic_tail=(1, 3)),
    "periodic2": KneadingPrefix("1101010", periodic_tail=(1, 2)),
}


@pytest.mark.parametrize("name", ["fib", "ex35", "nonrec"])
def test_decided_endpoint_verdicts_stay_on_word_prefixes(name):
    nu = METAMORPHIC_NUS[name]
    for length in range(1, 81):
        _assert_decided_verdict_stays(BackwardWord(nu.bits[:length]), nu,
                                      range(1, length + 8))


@settings(max_examples=150)
@given(data=st.data())
def test_decided_endpoint_verdicts_stay_on_random_tails(data):
    nu = METAMORPHIC_NUS[data.draw(st.sampled_from(sorted(METAMORPHIC_NUS)))]
    symbols = data.draw(st.text("01", max_size=min(len(nu), 40)))
    block = data.draw(st.one_of(st.none(),
                                st.text("01", min_size=1, max_size=6)))
    _assert_decided_verdict_stays(BackwardWord(symbols, block), nu,
                                  range(1, len(symbols) + 24))


def test_generator_fibonacci_words(fib_nu):
    words = endpoint_itinerary_gen(fib_nu, count=3, depth=30)
    assert len(words) >= 2
    assert len({w.symbols for w in words}) == len(words)
    for w in words:
        assert len(w.symbols) >= 30
        verdict = endpoint_verdict(TwoSidedItinerary(w), fib_nu)
        assert verdict.status == "evidence"


def test_generator_nonrecurrent_fails(nonrec_nu):
    with pytest.raises(NoRecurrenceWitness):
        endpoint_itinerary_gen(nonrec_nu, count=2, depth=30)


# -- folding -----------------------------------------------------------------------

def test_folding_nonrecurrent_classes(nonrec_slope, nonrec_nu):
    s = nonrec_slope.s.value
    r = s / (1 + s)
    ones = TwoSidedItinerary(BackwardWord("", "1"), "1" * 10,
                             x0=Scalar.exact(r))
    v1 = folding_verdict(ones, nonrec_slope, nonrec_nu, depth=64,
                         eps=Fraction(1, 256), proxy_len=160)
    assert v1.is_positive

    mixed = TwoSidedItinerary(BackwardWord("0", "1"), "1" * 10,
                              x0=Scalar.exact(r))
    v2 = folding_verdict(mixed, nonrec_slope, nonrec_nu, depth=64,
                         eps=Fraction(1, 256), proxy_len=160)
    assert v2.is_positive

    zero = TwoSidedItinerary(BackwardWord("", "0"), "0" * 10,
                             x0=Scalar.exact(Fraction(1, 97)))
    v3 = folding_verdict(zero, nonrec_slope, nonrec_nu, depth=32,
                         eps=Fraction(1, 256), proxy_len=160)
    assert v3.is_refuted


def test_reconstruct_x0():
    slope = slope_exact(Fraction(9, 5))
    enc = reconstruct_x0(slope, "1")
    assert (enc.lo, enc.hi) == (Fraction(1, 2), Fraction(1, 1))
    enc2 = reconstruct_x0(slope, "10")
    assert enc2.lo >= Fraction(1, 2)


# -- pull-backs and persistence ------------------------------------------------------

def test_pull_back_single_branch_monotone():
    slope = slope_exact(Fraction(9, 5))
    J = (Scalar.exact(Fraction(3, 20)), Scalar.exact(Fraction(17, 100)))
    chain = pull_back(J, "0", slope)
    assert chain.monotone and chain.length == 1
    a, b = chain.intervals[1]
    assert (a.value, b.value) == (Fraction(1, 12), Fraction(17, 180))
    assert verify_monotone(chain)


def test_pull_back_through_peak_joins():
    slope = slope_exact(Fraction(9, 5))
    c1 = Fraction(9, 10)
    J = (Scalar.exact(c1 - Fraction(1, 50)), Scalar.exact(c1 + Fraction(1, 50)))
    chain = pull_back(J, [Scalar.exact(c1), Scalar.exact(C)], slope)
    assert chain.joined[1] and not chain.monotone
    a, b = chain.intervals[1]
    assert a.value < C < b.value
    assert verify_monotone(chain)      # prefix (empty) is consistent


def test_pull_back_maximality():
    # the preimage interval is the largest with T(J') inside J
    slope = slope_exact(Fraction(9, 5))
    J = (Scalar.exact(Fraction(3, 20)), Scalar.exact(Fraction(17, 100)))
    chain = pull_back(J, "1", slope)
    a, b = chain.intervals[1]
    lo, hi = a.value, b.value
    s = Fraction(9, 5)
    assert s * (1 - hi) == Fraction(3, 20) and s * (1 - lo) == Fraction(17, 100)


def test_persistence_dichotomy(fib_slope, fib_kd, nonrec_slope, nonrec_kd):
    grid = [Fraction(1, 1 << k) for k in range(6, 13)]
    fib = reluctance_search(fib_slope, grid, length_target=64, horizon=120,
                            kd=fib_kd)
    assert fib.witness["kind"] == "persistent"
    assert fib.witness["q_shortcut"]
    assert all(d["max_monotone"] < 64
               for d in fib.witness["per_eps"].values())

    nr = reluctance_search(nonrec_slope, grid, length_target=64, horizon=120,
                           kd=nonrec_kd)
    assert nr.witness["kind"] == "reluctant"
    assert nr.witness["length"] >= 64
    assert nr.witness["recurrent_within_horizon"] is False


def test_long_branched_bounded_q_reluctant():
    # a bounded-Q recurrent-ish word built from Q with small values
    qs = [0, 0, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2]
    nu = nu_from_q(qs, 60)
    if admissible_disjoint(nu).is_refuted:
        pytest.skip("constructed Q not admissible")
    slope = slope_for_prefix(nu.bits)
    verdict = reluctance_search(slope, [Fraction(1, 64)], length_target=40,
                                horizon=80, kd=cutting_data(nu))
    assert verdict.witness["kind"] == "reluctant"


# -- classification reports -----------------------------------------------------------

def test_classification_nonrec_fixed_point(nonrec_slope, nonrec_nu, nonrec_kd):
    s = nonrec_slope.s.value
    rho = TwoSidedItinerary(BackwardWord("", "1"), "1" * 10,
                            x0=Scalar.exact(s / (1 + s)))
    rep = classification_report(rho, nonrec_nu, nonrec_slope, nonrec_kd,
                                depth=48)
    assert rep.folding.is_positive
    assert rep.endpoint.is_refuted
    assert "non-end-folding" in rep.subclass_flags
    nondeg = rep.expectations["exists_nondegenerate_folding_arc"]
    assert nondeg.is_positive


def test_classification_fib_generated(fib_slope, fib_nu, fib_kd):
    word = endpoint_itinerary_gen(fib_nu, count=1, depth=24)[0]
    it = TwoSidedItinerary(word, "")
    rep = classification_report(it, fib_nu, fib_slope, fib_kd, depth=48)
    assert rep.endpoint.status == "evidence"
    assert rep.expectations["all_folding_arcs_degenerate"].is_positive


def test_shift_preserves_endpoint_class(fib_nu, fib_slope):
    word = endpoint_itinerary_gen(fib_nu, count=1, depth=20)[0]
    it = TwoSidedItinerary(word, fib_nu.bits[len(word.symbols):
                                             len(word.symbols) + 6])
    before = endpoint_verdict(it, fib_nu).status
    after = endpoint_verdict(it.shifted(fib_slope), fib_nu).status
    assert before == after == "evidence"


@settings(max_examples=40, deadline=None)
@given(bits=st.text(alphabet="01", min_size=1, max_size=8))
def test_arc_formula_matches_oracle_random_words(bits, fib_slope, fib_nu,
                                                 fib_kd):
    orbit = OrbitTable(fib_slope)
    brute = word_image_interval(fib_slope, bits)
    td = tau_data(BackwardWord(bits), fib_nu)
    try:
        arc = basic_arc_interval(td, orbit, word=bits, kd=fib_kd, mode="unit")
        got = (arc.lo.value, arc.hi.value)
    except UnrealizableWord:
        got = None
    assert got == brute


def test_endpoint_demoted_when_folding_refuted(fib_slope, fib_nu, fib_kd):
    # endpoints are folding points: evidence on the tau side cannot survive
    # a refuted folding verdict (E inside F at verdict level)
    word = endpoint_itinerary_gen(fib_nu, count=1, depth=24)[0]
    it = TwoSidedItinerary(word, "", x0=Scalar.exact(Fraction(1, 97)))
    rep = classification_report(it, fib_nu, fib_slope, fib_kd, depth=48,
                                eps=Fraction(1, 256))
    if rep.folding.is_refuted:
        assert not rep.endpoint.is_positive


def test_pull_back_forward_containment():
    from uilkit.scalars import tent_apply
    slope = slope_exact(Fraction(9, 5))
    J = (Scalar.exact(Fraction(1, 5)), Scalar.exact(Fraction(3, 10)))
    chain = pull_back(J, "011", slope)
    for (a0, b0), (a1, b1) in zip(chain.intervals, chain.intervals[1:]):
        img_a = tent_apply(slope, a1)
        img_b = tent_apply(slope, b1)
        lo = min(img_a.lo, img_b.lo)
        hi = max(img_a.hi, img_b.hi)
        assert a0.lo <= lo and hi <= b0.hi


# -- the automaton match sets against the naive rescanning matcher -----------
#
# The oracle below is the direct reading of the definitions: every depth n
# rescans the tail from s_{-1}, with separate loops for matches, for
# mismatches witnessed inside the known prefix and for pumping matches.

def _naive_match_at(back, nu, n):
    for i in range(1, n):
        if back.at(i) != nu.symbol_at(n - i):
            return False
    return True


def _naive_known_mismatch(back, nu, n):
    for i in range(1, n):
        v = nu.symbol_at(n - i)
        if v is not None and back.at(i) != v:
            return True
    return False


def _naive_pump_match(back, nu, n):
    for i in range(1, n):
        v = nu.symbol_at(n - i)
        if v is None or back.at(i) != v:
            return False
    return True


def _naive_pump_parity(nu, m):
    return sum(1 for i in range(1, m + 1) if nu.symbol_at(i) == "1") % 2


def _naive_periodic_tail_analysis(back, nu, n_max, parity):
    p = len(back.periodic_block)
    width = len(nu)
    explicit = len(back.symbols)
    threshold = explicit + width + p + 2
    maybeL = maybeR = False
    for n in range(n_max + 1, threshold + 1):
        if not _naive_known_mismatch(back, nu, n):
            if n - 1 <= width:
                if parity[n - 1] == 0:
                    maybeR = True
                else:
                    maybeL = True
            else:
                maybeL = maybeR = True
    for r in range(p):
        n = threshold + 1 + ((r - threshold - 1) % p)
        if not _naive_known_mismatch(back, nu, n):
            maybeL = maybeR = True
    ciL = ciR = False
    pump = None
    if nu.periodic_tail is not None:
        pre_nu, per_nu = nu.periodic_tail
        L = per_nu
        while L % p:
            L += per_nu
        base = max(pre_nu + per_nu, explicit + p) + L
        for n in range(base, base + 2 * L + 1):
            if _naive_pump_match(back, nu, n) and \
                    _naive_pump_match(back, nu, n + L):
                pump = (n, L)
                break
        if pump is not None:
            block_ones = sum(1 for i in range(pre_nu + 1, pre_nu + per_nu + 1)
                             if nu.symbol_at(i) == "1")
            if (L // per_nu) * block_ones % 2 == 0:
                if _naive_pump_parity(nu, pump[0] - 1) == 0:
                    ciR = True
                else:
                    ciL = True
            else:
                ciL = ciR = True
            maybeL = maybeL or ciL
            maybeR = maybeR or ciR
    return (not maybeL and not ciL, not maybeR and not ciR, ciL, ciR, pump)


def naive_tau_data(back, nu, depth=None):
    width = len(nu)
    avail = back.depth_available()
    if avail is not None and width < avail:
        raise DomainError("kneading prefix shorter than the backward word")
    n_max = width + 1 if avail is None else min(avail + 1, width + 1)
    if depth is not None:
        n_max = min(n_max, depth)
    parity = [0] * (width + 1)
    ones = 0
    for i in range(1, width + 1):
        ones += nu[i] == "1"
        parity[i] = ones % 2
    NL, NR = [], []
    for n in range(1, n_max + 1):
        if _naive_match_at(back, nu, n):
            (NR if parity[n - 1] == 0 else NL).append(n)
    saturatedL = bool(NL) and NL[-1] == n_max
    saturatedR = bool(NR) and NR[-1] == n_max
    cfL = cfR = ciL = ciR = False
    pump = None
    if back.is_periodic:
        cfL, cfR, ciL, ciR, pump = _naive_periodic_tail_analysis(
            back, nu, n_max, parity)
        saturatedL = saturatedL or ciL
        saturatedR = saturatedR or ciR
    return TauData(tuple(NL), tuple(NR), NL[-1] if NL else None,
                   NR[-1] if NR else None, saturatedL, saturatedR,
                   cfL, cfR, ciL, ciR, n_max, avail, pump)


@st.composite
def _tau_inputs(draw):
    """A kneading word (maybe declared periodic), a tail built from its
    pieces so that matches are frequent, and an optional depth cap."""
    block = "1" + draw(st.text(alphabet="01", max_size=5))
    width = draw(st.integers(1, 40))
    bits = (block * width)[:width] if draw(st.booleans()) else \
        "1" + draw(st.text(alphabet="01", min_size=width - 1,
                           max_size=width - 1))
    kind = draw(st.sampled_from(["none", "valid", "invalid"]))
    tail = None
    if kind == "valid":
        pre = draw(st.integers(0, width - 1))
        tail = (pre, draw(st.integers(1, width - pre)))
    elif kind == "invalid":
        pre = draw(st.integers(0, width))
        tail = (pre, draw(st.integers(max(1, width - pre + 1),
                                      width - pre + 6)))
    nu = KneadingPrefix(bits, periodic_tail=tail)
    piece = st.one_of(st.text(alphabet="01", max_size=4),
                      st.integers(0, width).map(lambda m: bits[:m]))
    symbols = "".join(draw(st.lists(piece, max_size=6)))
    if draw(st.booleans()):
        blocks = [st.text(alphabet="01", min_size=1, max_size=6),
                  st.integers(1, width).map(lambda m: bits[:m])]
        if kind == "valid":                 # a rotation of nu's own period
            pre, per = tail
            blocks.append(st.integers(0, per - 1).map(
                lambda r: (bits[pre:pre + per] * 2)[r:r + per]))
        periodic = draw(st.one_of(*blocks))
        back = BackwardWord(symbols[-3 * width:], periodic)
    else:
        back = BackwardWord(symbols[-width:])
    depth = draw(st.one_of(st.none(), st.integers(1, 2 * width + 4)))
    return back, nu, depth


@settings(max_examples=600)
@given(_tau_inputs())
def test_tau_data_matches_naive_oracle(args):
    back, nu, depth = args
    assert tau_data(back, nu, depth) == naive_tau_data(back, nu, depth)


def test_tau_data_oracle_rejects_alike():
    nu = KneadingPrefix("101")
    for fn in (tau_data, naive_tau_data):
        with pytest.raises(DomainError):
            fn(BackwardWord("0000"), nu)


def test_tau_data_matches_oracle_on_pumping_and_long_words(fib_nu):
    cases = [
        (BackwardWord("", "011"),
         KneadingPrefix("1011011011", periodic_tail=(1, 3))),
        (BackwardWord("1", "10"),
         KneadingPrefix("1101010", periodic_tail=(1, 2))),
        (BackwardWord("", "1"), fib_nu),
        (BackwardWord(fib_nu.bits[:150]), fib_nu),
        (BackwardWord(fib_nu.bits[:89], fib_nu.bits[:55]), fib_nu),
    ]
    for back, nu in cases:
        for depth in (None, 7, 64):
            assert tau_data(back, nu, depth) == naive_tau_data(back, nu, depth)
    assert tau_data(*cases[0][:2]).pump_witness is not None


# -- integer ends: differential tests against the Fraction code ----------------

def _word_image_oracle(slope, word, domain="unit"):
    """word_image_interval of the Fraction code."""
    s = slope.s.value
    if domain == "unit":
        lo, hi = Fraction(0), Fraction(1)
    else:
        lo, hi = s * (1 - s / 2), s / 2
    half = Fraction(1, 2)
    for ch in word:
        if ch == "0":
            a, b = lo, min(hi, half)
            if a > b:
                return None
            lo, hi = s * a, s * b
        else:
            a, b = max(lo, half), hi
            if a > b:
                return None
            lo, hi = s * (1 - b), s * (1 - a)
    return lo, hi


def _pair(ends):
    return None if ends is None else \
        [(v.numerator, v.denominator) for v in ends]


@st.composite
def _exact_fractions(draw):
    q = draw(st.integers(1, 1 << 64))
    return Fraction(q + draw(st.integers(1, q)), q)


@settings(max_examples=400)
@given(s=st.one_of(_exact_fractions(),
                   st.sampled_from([Fraction(2), Fraction(3, 2),
                                    Fraction(9, 5), Fraction(5, 4)])),
       word=st.text(alphabet="01", max_size=40),
       domain=st.sampled_from(["unit", "core"]))
def test_word_image_interval_matches_fraction_oracle(s, word, domain):
    slope = slope_exact(s)
    assert _pair(word_image_interval(slope, word, domain)) == \
        _pair(_word_image_oracle(slope, word, domain))


def test_word_image_interval_every_short_word():
    words = ["".join(w) for n in range(9)
             for w in itertools.product("01", repeat=n)]
    for s in (Fraction(2), Fraction(3, 2), Fraction(9, 5),
              Fraction(1000001, 1000000)):
        slope = slope_exact(s)
        for domain in ("unit", "core"):
            for w in words:
                assert _pair(word_image_interval(slope, w, domain)) == \
                    _pair(_word_image_oracle(slope, w, domain)), (s, w)
    with pytest.raises(DomainError, match="unknown domain"):
        word_image_interval(slope_exact(Fraction(9, 5)), "0", "box")


def _folding_oracle(it, slope, nu, depth=64, eps=Fraction(1, 1 << 20),
                    proxy_len=256, burn_in=None, window=24):
    """folding_verdict of the Fraction code: every projection against every
    proxy value, on Scalars rounded onto the grid."""
    eps = Fraction(eps)
    burn_in = proxy_len // 4 if burn_in is None else burn_in
    orbit = OrbitTable(slope)
    orbit.extend(proxy_len)
    bits = max(64, (eps.denominator.bit_length() + 32))
    proxy = [orbit.value(j).rounded(bits)
             for j in range(burn_in, proxy_len + 1)]
    resolution = max(p.width() for p in proxy)
    pts = [x.rounded(bits) for x in backward_points(slope, it, depth)]
    far = []
    for n, x in enumerate(pts):
        near = False
        certainly_far = True
        for p in proxy:
            gap_lo = max(Fraction(0), p.lo - x.hi, x.lo - p.hi)
            gap_hi = max(abs(p.hi - x.lo), abs(x.hi - p.lo))
            if gap_hi <= eps:
                near = True
                break
            if gap_lo <= eps + resolution + x.width():
                certainly_far = False
        if not near and certainly_far:
            far.append(n)
    if not far:
        return V.evidence(RULE_FOLDING, depth=len(pts) - 1, epsilon=eps,
                          proxy_len=proxy_len)
    n = far[0]
    piece = it.backward.unrolled(n + window)[:window] if n > 0 else \
        (it.forward[:window] or it.backward.unrolled(window))
    if piece and piece not in nu.bits:
        return V.refuted(RULE_FOLDING, depth=len(pts) - 1, epsilon=eps,
                         far_at=n, missing_word=piece)
    return V.evidence(RULE_FOLDING, depth=len(pts) - 1, epsilon=eps,
                      anomaly_at=n)


@functools.lru_cache(maxsize=None)
def _folding_slopes():
    half = Fraction(1, 1 << 200)
    dec = Fraction("1.76543210987654321")
    slopes = [slope_exact(Fraction(9, 5)), slope_exact(Fraction(3, 2)),
              slope_for_prefix(nonrecurrent_example_nu(180).bits),
              parse_slope("sqrt3"), parse_slope("cbrt6"),
              slope_interval(Fraction(9, 5) - half, Fraction(9, 5) + half,
                             precision_bits=256),
              slope_interval(dec - Fraction(1, 10 ** 60),
                             dec + Fraction(1, 10 ** 60), precision_bits=256)]
    return [(slope, nu_from_orbit(slope, 100)) for slope in slopes]


EPS_CASES = [Fraction(1, 256), Fraction(1, 1000), Fraction(1, 1 << 20),
             Fraction(1, 1 << 64), Fraction(0), Fraction(-1, 256),
             Fraction(-1, 1 << 70)]


@st.composite
def _folding_inputs(draw):
    slope, nu = draw(st.sampled_from(_folding_slopes()))
    eps = draw(st.one_of(st.sampled_from(EPS_CASES),
                         st.builds(Fraction, st.integers(-3, 1000),
                                   st.integers(1, 10 ** 6))))
    proxy_len = draw(st.integers(4, 80))
    burn_in = draw(st.one_of(st.none(), st.integers(0, proxy_len)))
    first = proxy_len // 4 if burn_in is None else burn_in
    bits = max(64, eps.denominator.bit_length() + 32)
    one = 1 << bits
    e = math.floor(eps * one)
    # grid ends of the proxy as the oracle rounds them, to place points at
    # distances e and t = e + resolution + width from a proxy end, and 1 off
    orbit = OrbitTable(slope)
    ends = [orbit.value(j).rounded(bits) for j in range(first, proxy_len + 1)]
    ends = [(int(p.lo * one), int(p.hi * one)) for p in ends]
    resolution = max(hi - lo for lo, hi in ends)
    # a negative eps leaves t = e + resolution + width < 0 for a point about
    # as wide as -e, with proxy values inside it
    width = draw(st.sampled_from([0, 0, 1, 2, resolution, -e * 4 // 5]))
    lo, hi = draw(st.sampled_from(ends))
    kind = draw(st.sampled_from(["tie", "tie", "around", "random"]))
    if kind == "tie":
        reach = draw(st.sampled_from([e, e + resolution + width]))
        off = reach + draw(st.integers(-1, 1))
        k = hi + off if draw(st.booleans()) else lo - off - width
    elif kind == "around":
        k = lo - width // 2
    else:
        k = draw(st.integers(0, one))
    width = max(width, 0)
    k = min(max(k, 0), one - width)
    x0 = Scalar.interval(Fraction(k, one), Fraction(k + width, one))
    back = BackwardWord(draw(st.text(alphabet="01", max_size=10)),
                        draw(st.one_of(st.none(), st.text(alphabet="01",
                                                          min_size=1,
                                                          max_size=3))))
    it = TwoSidedItinerary(back, draw(st.text(alphabet="01", max_size=6)),
                           x0=x0)
    return (it, slope, nu), dict(depth=draw(st.integers(0, 12)), eps=eps,
                                 proxy_len=proxy_len, burn_in=burn_in,
                                 window=draw(st.integers(1, 24)))


def _verdict_fields(v):
    return (v.status, v.rule, v.depth, v.epsilon, v.witness, v.to_json())


@settings(max_examples=400)
@given(_folding_inputs())
def test_folding_verdict_matches_fraction_oracle(args):
    (it, slope, nu), kw = args
    assert _verdict_fields(folding_verdict(it, slope, nu, **kw)) == \
        _verdict_fields(_folding_oracle(it, slope, nu, **kw))


@pytest.mark.parametrize("eps", [Fraction(1, 256), Fraction(0),
                                 Fraction(-1, 256)], ids=str)
def test_folding_battery_matches_fraction_oracle(eps, nonrec_slope,
                                                 nonrec_nu):
    s = nonrec_slope.s.value
    r = Scalar.exact(s / (1 + s))
    for it in (TwoSidedItinerary(BackwardWord("", "1"), "1" * 10, x0=r),
               TwoSidedItinerary(BackwardWord("0", "1"), "1" * 10, x0=r),
               TwoSidedItinerary(BackwardWord("", "0"), "0" * 10,
                                 x0=Scalar.exact(Fraction(1, 97))),
               TwoSidedItinerary(BackwardWord("", "01"), "01" * 5,
                                 x0=Scalar.exact(s / (1 + s * s)))):
        kw = dict(depth=64, eps=eps, proxy_len=170)
        assert _verdict_fields(folding_verdict(it, nonrec_slope, nonrec_nu,
                                               **kw)) == \
            _verdict_fields(_folding_oracle(it, nonrec_slope, nonrec_nu,
                                            **kw))
