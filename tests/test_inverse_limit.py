import dataclasses
import functools
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import uilkit
from uilkit import inverse_limit, verdicts as V
from uilkit.errors import (DomainError, NoRecurrenceWitness, NotAdmissible,
                           UnrealizableWord, UnresolvedComparison)
from uilkit.hofbauer import OrbitTable, level_ends, tower_levels
from uilkit.inverse_limit import (RULE_FOLDING, BackwardWord, TauData,
                                  TwoSidedItinerary, backward_points,
                                  basic_arc_interval, classification_report,
                                  endpoint_itinerary_gen, endpoint_verdict,
                                  folding_verdict, parse_itinerary, pull_back,
                                  reconstruct_x0, reluctance_search, tau_data,
                                  verify_monotone, word_image_interval)
from uilkit.kneading import (KneadingPrefix, _lcp, admissible_disjoint,
                             cutting_data, example35_q, fibonacci_q,
                             nonrecurrent_example_nu, nu_from_orbit, nu_from_q,
                             q_asymptotics)
from uilkit.presets import parse_slope
from uilkit.seqgen import generate
from uilkit.scalars import (C, Scalar, parity_lex_cmp, slope_exact,
                            slope_for_prefix, slope_interval, tent_apply)


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


def word_realizable(word, nu):
    """The per-window realizability oracle: every shifted window (offset
    >= 1) of the word stays parity-lex at or below the kneading word, and
    ties that run off the data pass."""
    return all(parity_lex_cmp(word[i:], nu.bits) <= 0
               for i in range(1, len(word)))


def test_word_realizable_gate():
    nu = KneadingPrefix("10010100")
    assert not word_realizable("010001", nu)     # contains a too-long 0-block
    assert word_realizable("10010", nu)
    for word, above in (("010001", True), ("10010", False)):
        assert tau_data(BackwardWord(word), nu).window_above is above


def _accepted_words(max_len):
    """Every word of up to ``max_len`` symbols that ``cutting_data``
    accepts, by DFS: a word it refuses has no accepted extension, since
    every refusal is at a position the extension reads the same."""
    out, stack = [], ["1"]
    while stack:
        bits = stack.pop()
        try:
            cutting_data(KneadingPrefix(bits))
        except NotAdmissible:
            continue
        out.append(bits)
        if len(bits) < max_len:
            stack += [bits + "0", bits + "1"]
    return out


def test_words_cutting_data_accepts_are_shift_maximal():
    # the premise that makes the scan's realizability flag exact on a word
    # taken as given: no shifted window lies above the word itself
    words = _accepted_words(18)
    assert len(words) == 33208
    for bits in words:
        assert all(parity_lex_cmp(bits[i:], bits) <= 0
                   for i in range(1, len(bits))), bits


def _seeded_slope_prefixes(count=200):
    """Kneading prefixes of 8 to 40 symbols of seeded exact slopes."""
    rng = random.Random(20261022)
    out = []
    for _ in range(count):
        slope = slope_exact(Fraction(rng.randrange(1001, 2000), 1000))
        out.append(nu_from_orbit(slope, rng.randrange(8, 41)))
    return out


def test_scan_flag_matches_the_per_window_oracle_on_short_words():
    # the prefixes of 200 seeded exact slopes and the words of up to 12
    # symbols that cutting_data accepts (criterion 4's prefixes); the flag
    # of a word of n symbols reads nu[:n] alone, so every pair (word of up
    # to 10 symbols, prefix) is one (word, nu[:n]) pair
    prefixes = {}
    for nu in _seeded_slope_prefixes() + \
            [KneadingPrefix(bits) for bits in _accepted_words(12)]:
        for n in range(1, min(len(nu), 10) + 1):
            prefixes.setdefault(nu.bits[:n], nu)
    assert len(prefixes) > 200
    pairs = 0
    for head, nu in prefixes.items():
        for tup in itertools.product("01", repeat=len(head)):
            word = "".join(tup)
            td = tau_data(BackwardWord(word), nu)
            assert td.window_above is (not word_realizable(word, nu)), \
                (word, head)
            pairs += 1
    assert pairs > 100_000


@st.composite
def _words_against_real_prefixes(draw):
    """A real kneading prefix, a word of up to 200 symbols cut from its
    pieces and random ones, and a depth below or above the word's
    length."""
    nu = draw(st.sampled_from([METAMORPHIC_NUS[k] for k in ("fib", "ex35",
                                                            "nonrec")]))
    piece = st.one_of(st.text("01", max_size=5),
                      st.integers(0, 60).map(lambda k: nu.bits[:k]),
                      st.integers(0, 390).map(lambda i: nu.bits[i:i + 9]))
    word = "".join(draw(st.lists(piece, max_size=12)))[-200:]
    depth = draw(st.one_of(st.none(), st.integers(0, len(word) + 3)))
    return word, nu, depth


@settings(max_examples=400)
@given(_words_against_real_prefixes())
def test_scan_flag_matches_the_per_window_oracle_on_long_words(args):
    word, nu, depth = args
    td = tau_data(BackwardWord(word), nu, depth)
    scanned = BackwardWord(word).unrolled(td.n_max - 1)
    assert td.window_above is (not word_realizable(scanned, nu))
    for block in ("1", "01", nu.bits[:7]):
        assert tau_data(BackwardWord(word, block), nu, depth).window_above \
            is None


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


def test_generator_refuses_a_count_below_one():
    # count 0 raised NoRecurrenceWitness ("no recurrence chain reaches the
    # requested depth"), a false statement about a recurrent word
    nu = nu_from_q(fibonacci_q, 200)
    for count in (0, -1):
        with pytest.raises(DomainError,
                           match=f"^count must be >= 1, got {count}$"):
            endpoint_itinerary_gen(nu, count=count)
    assert len(endpoint_itinerary_gen(nu, count=1)) == 1


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

def _points_along(word):
    """A backward orbit for ``pull_back`` whose k-th point lies on the side
    of c that the k-th symbol of ``word`` names: 1/4 for "0", 3/4 for "1",
    after the start point 1/4."""
    return [Scalar.exact(Fraction(1 if ch == "0" else 3, 4))
            for ch in "0" + word]


def test_pull_back_single_branch_monotone():
    slope = slope_exact(Fraction(9, 5))
    J = (Scalar.exact(Fraction(3, 20)), Scalar.exact(Fraction(17, 100)))
    chain = pull_back(J, _points_along("0"), slope)
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
    chain = pull_back(J, _points_along("1"), slope)
    a, b = chain.intervals[1]
    lo, hi = a.value, b.value
    s = Fraction(9, 5)
    assert s * (1 - hi) == Fraction(3, 20) and s * (1 - lo) == Fraction(17, 100)


def _narrow_9_5():
    """An interval slope 2^-80 about 9/5, working at 64 bits: c_1 is an
    enclosure, so an end placed on 9/10 cannot be ordered against it."""
    half = Fraction(1, 1 << 80)
    return slope_interval(Fraction(9, 5) - half, Fraction(9, 5) + half,
                          precision_bits=64)


def test_pull_back_stops_where_an_end_cannot_be_ordered_against_c1():
    slope = _narrow_9_5()
    on_c1 = Scalar.exact(Fraction(9, 10))
    for J in ((Scalar.exact(Fraction(1, 4)), on_c1),     # does J reach c_1?
              (on_c1, Scalar.exact(1))):                 # is J above c_1?
        chain = pull_back(J, _points_along("00"), slope)
        assert (chain.length, chain.complete, chain.monotone) == \
            (0, False, False)


def test_pull_back_refuses_a_target_that_straddles_c():
    J = (Scalar.exact(Fraction(1, 10)), Scalar.exact(Fraction(1, 5)))
    points = [Scalar.exact(Fraction(3, 20)),
              Scalar.interval(Fraction(49, 100), Fraction(51, 100))]
    with pytest.raises(UnresolvedComparison,
                       match=r"^pull-back step 1: target straddles c$"):
        pull_back(J, points, _narrow_9_5())


def test_verify_monotone_refuses_an_end_it_cannot_order_against_c():
    # an end 2^-300 below c_1 pulls back to within the 2^-64 grid of c, and
    # rounding outward puts the end of J_1 on c itself
    slope = _narrow_9_5()
    c1 = tent_apply(slope, Scalar.exact(C))
    J = (Scalar.exact(Fraction(1, 4)),
         Scalar.exact(c1.lo - Fraction(1, 1 << 300)))
    chain = pull_back(J, _points_along("0"), slope)
    assert chain.monotone and chain.length == 1
    end = chain.intervals[1][1]
    assert end.lo < C == end.hi
    assert not verify_monotone(chain)


def test_verify_monotone_refuses_c_inside_the_monotone_prefix():
    # a join around c_1 has c interior to J_1; counting J_1 in the monotone
    # prefix is the error the recheck exists to catch
    slope = _narrow_9_5()
    J = (Scalar.exact(Fraction(22, 25)), Scalar.exact(Fraction(23, 25)))
    chain = pull_back(J, _points_along("0"), slope)
    assert chain.joined[1] and chain.monotone_prefix == 0
    assert verify_monotone(chain)
    assert not verify_monotone(dataclasses.replace(chain, monotone_prefix=1))


def test_a_join_pinched_at_c1_stays_monotone():
    # J = [c_1, 1] pulls back through c to the point [c, c]
    slope = slope_exact(Fraction(9, 5))
    chain = pull_back((Scalar.exact(Fraction(9, 10)), Scalar.exact(1)),
                      _points_along("0"), slope)
    assert chain.joined[1] and chain.monotone and chain.complete
    assert chain.intervals[1][0].value == chain.intervals[1][1].value == C
    assert verify_monotone(chain)


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


_CLOSED_FORM_EPS = [Fraction(1, 1 << k) for k in (6, 9, 12)] + \
    [Fraction(1, 3), Fraction(1)]


@pytest.mark.parametrize("name", ["9/5", "3/2", "2", "17/10", "fib:220"])
def test_closed_form_prefix_matches_pull_back(name):
    # eps 1 clamps the ball at both ends of [0, 1]; s = 2 has c_n = 0
    slope = parse_slope(name)
    horizon = 32
    orbit = OrbitTable(slope)
    closed = inverse_limit._closed_form_prefix(slope.s.value, horizon)
    for eps in _CLOSED_FORM_EPS:
        for n in range(horizon + 1):
            center = orbit.value(n + 1).value
            ball = (Scalar.exact(max(Fraction(0), center - eps)),
                    Scalar.exact(min(Fraction(1), center + eps)))
            segment = [orbit.value(n + 1 - k) for k in range(n + 1)]
            chain = pull_back(ball, segment, slope, stop_on_nonmonotone=True)
            assert closed(eps, n) == chain.monotone_prefix, (eps, n)


@pytest.mark.parametrize("name,target,horizon", [
    ("9/5", 16, 40), ("2", 16, 40), ("nonrec41:180", 24, 48),
    ("ex35:130", 24, 48), ("fib:220", 16, 40), ("fib:220", 8, 24)])
def test_reluctance_search_same_verdict_without_closed_form(
        monkeypatch, name, target, horizon):
    slope = parse_slope(name)
    grid = [Fraction(1, 1 << k) for k in (5, 6, 7, 10)] + [Fraction(1, 3)]
    closed = reluctance_search(slope, grid, target, horizon)
    monkeypatch.setattr(inverse_limit, "_closed_form_prefix",
                        lambda s, horizon: None)
    assert closed.to_json() == \
        reluctance_search(slope, grid, target, horizon).to_json()


def test_reluctance_search_rejects_eps_at_most_zero():
    # a ball of radius <= 0 is a point or an inverted interval; such grids
    # once returned reluctant (0, -1/64) or persistent (-1/3) evidence
    exact, interval = slope_exact(Fraction(9, 5)), parse_slope("sqrt3")
    for eps in (Fraction(0), Fraction(-1, 64), Fraction(-1, 3)):
        for grid in ([eps], [Fraction(1, 64), eps], [eps, Fraction(1, 64)]):
            with pytest.raises(DomainError, match="eps must be > 0"):
                reluctance_search(exact, grid, 16, 40)
        with pytest.raises(DomainError, match="eps must be > 0"):
            reluctance_search(interval, [eps], 8, 20)


def test_reluctance_search_over_nothing_is_undetermined():
    slope = slope_exact(Fraction(9, 5))
    for grid, target, horizon in (([], 64, 120),
                                  ([Fraction(1, 64)], 64, 50)):
        verdict = reluctance_search(slope, grid, target, horizon)
        assert verdict.status == V.UNDETERMINED
        assert verdict.depth == horizon and "kind" not in verdict.witness
    with pytest.raises(DomainError, match="length target"):
        reluctance_search(slope, [Fraction(1, 64)], 0, 40)


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


def test_core_arc_of_nested_left_levels_is_degenerate(fib_slope, fib_nu,
                                                      fib_kd):
    # the tail nu_1 .. nu_21 matches on the left at depths 4 and 22, and the
    # tower levels D_4 and D_22 meet in less than 2^-20
    orbit = OrbitTable(fib_slope)
    td = tau_data(BackwardWord(fib_nu.bits[:21]), fib_nu)
    assert td.NL == (4, 22)
    arc = basic_arc_interval(td, orbit, kd=fib_kd, mode="core")
    lo, hi = level_ends(orbit, fib_kd, td.NL)
    assert 0 < hi - lo <= Fraction(1, 1 << 20)
    assert arc.degenerate_width == hi - lo
    # one left level alone is wide: no degeneracy
    wide = tau_data(BackwardWord(fib_nu.bits[:22]), fib_nu)
    assert wide.NL == (2,)
    assert basic_arc_interval(wide, orbit, kd=fib_kd,
                              mode="core").degenerate_width is None


def test_classification_flags_a_degenerate_endpoint_candidate(
        fib_slope, fib_nu, fib_kd):
    tail = fib_nu.bits[:21]
    rep = classification_report(TwoSidedItinerary(BackwardWord(tail)), fib_nu,
                                fib_slope, fib_kd, depth=64)
    assert rep.endpoint.status == "evidence"
    assert rep.subclass_flags == ("degenerate-arc-evidence",
                                  "degenerate-endpoint-candidate")
    # the same arc under a tail whose endpoint test finds no certificate
    rep = classification_report(
        TwoSidedItinerary(BackwardWord(fib_nu.bits[:76])), fib_nu, fib_slope,
        fib_kd, depth=64)
    assert rep.endpoint.status == "undetermined"
    assert rep.subclass_flags == ("degenerate-arc-evidence",)


def test_classification_refutes_an_endpoint_that_is_not_folding(
        fib_slope, fib_nu, fib_kd, monkeypatch):
    # Endpoints are folding points, so a refuted folding verdict refutes a
    # positive endpoint one.  A search over random fib and 9/5 tails found
    # no positive endpoint verdict with a refuted folding one, so the
    # folding verdict is injected.
    it = TwoSidedItinerary(BackwardWord(fib_nu.bits[:21]))
    monkeypatch.setattr(inverse_limit, "folding_verdict",
                        lambda *a, **k: V.refuted(RULE_FOLDING))
    rep = classification_report(it, fib_nu, fib_slope, fib_kd, depth=64)
    assert rep.folding.is_refuted
    assert rep.endpoint == V.refuted(
        inverse_limit.RULE_ENDPOINT, depth=64,
        reason="endpoints are folding points; folding refuted")
    assert rep.subclass_flags == ("degenerate-arc-evidence",)


def _tower_classification_oracle(it, nu, slope, kd, depth, orbit):
    """classification_report composed from the public verdicts: its own
    endpoint_verdict scan, and a witness search over a certified tower."""
    IL = inverse_limit
    endpoint = endpoint_verdict(it, nu, depth=depth)
    try:
        folding = folding_verdict(it, slope, nu, depth=depth, orbit=orbit)
    except (DomainError, UnrealizableWord) as exc:
        folding = V.undetermined(RULE_FOLDING, str(exc), depth=depth)
    if endpoint.is_positive and folding.is_refuted:
        endpoint = V.refuted(
            IL.RULE_ENDPOINT, depth=depth,
            reason="endpoints are folding points; folding refuted")
    td = tau_data(it.backward, nu, depth)
    arc = basic_arc_interval(td, orbit, kd=kd, mode="core")
    qa = q_asymptotics(list(kd.Q))
    if qa.to_infinity.is_positive:
        nondeg = V.refuted(IL.RULE_CLASS, depth=kd.horizon,
                           via="divergent-kneading-map")
    elif qa.to_infinity.is_refuted:
        witness = None
        for lv in tower_levels(kd, slope, min(kd.horizon, 4 * depth),
                               orbit=orbit)[2:]:
            if lv.length.lo > Fraction(1, 128):
                t = tau_data(BackwardWord("111" + nu.bits[:lv.n - 1]), nu)
                if t.tauL and t.tauR and max(t.tauL, t.tauR) == lv.n:
                    witness = {"n": lv.n,
                               "tail": "...111" + nu.bits[:lv.n - 1]}
                    break
        nondeg = V.evidence(IL.RULE_CLASS, depth=depth, witness_arc=witness) \
            if witness else V.undetermined(
                IL.RULE_CLASS, "no long-level witness found", depth=depth)
    else:
        nondeg = V.undetermined(IL.RULE_CLASS, "kneading-map trend unclear",
                                depth=kd.horizon)
    flags = []
    if arc.degenerate_width is not None:
        flags.append("degenerate-arc-evidence")
        if endpoint.is_positive:
            flags.append("degenerate-endpoint-candidate")
    if folding.is_positive and endpoint.is_refuted:
        flags.append("non-end-folding")
    return IL.PointClassification(folding, endpoint, arc, tuple(flags), {
        "folding_set_equals_endpoints": qa.to_infinity,
        "all_folding_arcs_degenerate": qa.to_infinity,
        "exists_nondegenerate_folding_arc": nondeg})


SURFACE_ITINERARIES = ("(1)^inf .1111", "(0)^inf .0000", "(01)^inf .0101",
                       "...100110.01", "(110)^inf .11")


@pytest.mark.parametrize("name", ["9/5", "nonrec41", "fib", "sqrt3", "cbrt6",
                                  "sqrt3:256"])
def test_classification_matches_the_tower_composition(name):
    # Each side keeps one table over all its reports, as the CLI does: an
    # interval table takes the precision of its longest read, so at
    # sqrt3:256 the witness search's reach into the table shows in the
    # later reports.
    slope = parse_slope(name, depth=500)
    nu = nu_from_orbit(slope, 500)
    kd = cutting_data(nu)
    got_orbit, want_orbit = OrbitTable(slope), OrbitTable(slope)
    for depth in (0, 2, 12, 32, 125):
        for text in SURFACE_ITINERARIES:
            it = parse_itinerary(text)
            got = classification_report(it, nu, slope, kd, depth=depth,
                                        orbit=got_orbit)
            want = _tower_classification_oracle(it, nu, slope, kd, depth,
                                                want_orbit)
            assert got.to_json() == want.to_json(), (depth, text)


@pytest.mark.parametrize("name", ["nonrec41:120", "fib:120", "cbrt6"])
def test_classification_scans_the_tail_once_and_builds_no_tower(
        name, monkeypatch):
    slope = parse_slope(name)
    nu = nu_from_orbit(slope, 120)
    kd = cutting_data(nu)
    orbit = OrbitTable(slope)
    tails = []

    def spy(back, *args, **kwargs):
        tails.append(back)
        return tau_data(back, *args, **kwargs)

    def no_tower(*args, **kwargs):
        raise AssertionError("classification built a tower")

    monkeypatch.setattr(inverse_limit, "tau_data", spy)
    monkeypatch.setattr(uilkit.hofbauer, "tower_levels", no_tower)
    assert not hasattr(inverse_limit, "tower_levels")
    for text in SURFACE_ITINERARIES:
        it = parse_itinerary(text)
        tails.clear()
        rep = classification_report(it, nu, slope, kd, depth=32, orbit=orbit)
        assert sum(back is it.backward for back in tails) == 1
        # any other scan is of a witness tail ...111 nu_1 .. nu_{n-1}
        assert all(back.symbols.startswith("111") for back in tails
                   if back is not it.backward)
        # fib's kneading map diverges; the others' witness search succeeds
        nondeg = rep.expectations["exists_nondegenerate_folding_arc"]
        assert nondeg.status == ("refuted" if name.startswith("fib")
                                 else "evidence")


@pytest.mark.parametrize("name, extended", [("nonrec41:600", False),
                                             ("cbrt6", True)])
def test_classification_extends_only_an_interval_table(name, extended,
                                                       monkeypatch):
    # the witness walk reads levels to n <= N = min(horizon, 4 depth) = 400;
    # an interval table is first read to N, so every level has one
    # precision, while an exact table's values do not depend on its length
    slope = parse_slope(name)
    nu = nu_from_orbit(slope, 400)
    kd = cutting_data(nu)
    reads = []
    extend = OrbitTable.extend

    def spy(self, n):
        reads.append(n)
        return extend(self, n)

    monkeypatch.setattr(OrbitTable, "extend", spy)
    rep = classification_report(parse_itinerary("(1)^inf .1111"), nu, slope,
                                kd, depth=100)
    assert rep.expectations["exists_nondegenerate_folding_arc"].is_positive
    assert (max(reads) == 400) == extended


def test_shift_preserves_endpoint_class(fib_nu):
    word = endpoint_itinerary_gen(fib_nu, count=1, depth=20)[0]
    forward = fib_nu.bits[len(word.symbols):len(word.symbols) + 6]
    before = endpoint_verdict(TwoSidedItinerary(word, forward), fib_nu).status
    # one shift step: s_0 moves into the tail
    shifted = TwoSidedItinerary(
        BackwardWord(word.symbols + forward[0], word.periodic_block),
        forward[1:])
    after = endpoint_verdict(shifted, fib_nu).status
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
    slope = slope_exact(Fraction(9, 5))
    J = (Scalar.exact(Fraction(1, 5)), Scalar.exact(Fraction(3, 10)))
    chain = pull_back(J, _points_along("011"), slope)
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


# -- the bounded periodic-tail scan against the whole-word scan -----------------
#
# The oracle is the periodic-tail analysis as it was before the scan was
# bounded: the automaton of the whole kneading word (or of its unrolled
# declared continuation) runs over the tail unrolled to every checked depth.

def _failure_table(pattern):
    """fail[l] = the longest proper border of pattern[:l]."""
    m = len(pattern)
    fail = [0] * (m + 1)
    k = 0
    for i in range(1, m):
        while k and pattern[i] != pattern[k]:
            k = fail[k]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i + 1] = k
    return fail


def _kmp_scan(pattern, text):
    """The KMP scan of ``pattern`` over ``text`` with a failure table built
    for this call alone: the border chain of the final state, the end
    indices of full occurrences, and whether a border the scan drops is a
    window, other than the whole text, that ``parity_lex_cmp`` puts above
    the pattern."""
    m = len(pattern)
    fail = _failure_table(pattern)
    state, ends, above = 0, [], False
    for e, ch in enumerate(text, 1):
        if state == m:
            state = fail[state]
        while state and pattern[state] != ch:
            above = above or state < e - 1 and \
                parity_lex_cmp(text[e - 1 - state:e], pattern) > 0
            state = fail[state]
        if state < m and pattern[state] == ch:
            state += 1
        if state == m:
            ends.append(e)
    chain = [state]
    while state:
        state = fail[state]
        chain.append(state)
    return chain, ends, above


def _prefix_parity(word):
    """parity[l] = the number of 1s in word[:l], mod 2."""
    parity = [0]
    for ch in word:
        parity.append(parity[-1] ^ (ch == "1"))
    return parity


def _whole_word_periodic_tail_analysis(back, nu, n_max):
    p = len(back.periodic_block)
    width = len(nu)
    explicit = len(back.symbols)
    last = explicit + width + p + 2
    top, pattern = last, nu.bits
    periodic_nu = nu.symbol_at(width + 1) is not None
    if periodic_nu:
        pre_nu, per_nu = nu.periodic_tail
        L = per_nu
        while L % p:
            L += per_nu
        base = max(pre_nu + per_nu, explicit + p) + L
        top = max(last, base + 3 * L)
        pattern = "".join(nu.symbol_at(i) for i in range(1, top))
    chain, ends, _ = _kmp_scan(pattern, back.unrolled(top - 1))
    parity = _prefix_parity(pattern)
    unrefuted = {ell + 1 for ell in chain}
    unrefuted.update(top + len(pattern) - e for e in ends if e < top - 1)

    maybeL = maybeR = False
    for n in unrefuted:
        if not n_max < n <= last:
            continue
        if n - 1 > width:
            maybeL = maybeR = True
        elif parity[n - 1]:
            maybeL = True
        else:
            maybeR = True

    ciL = ciR = False
    pump = None
    if periodic_nu:
        pump = next(((n, L) for n in range(base, base + 2 * L + 1)
                     if n in unrefuted and n + L in unrefuted), None)
    if pump is not None:
        block_ones = nu.bits[pre_nu:pre_nu + per_nu].count("1")
        if (L // per_nu) * block_ones % 2 == 0:
            ciR = parity[pump[0] - 1] == 0
            ciL = not ciR
        else:
            ciL = ciR = True
    return chain, parity, (not (maybeL or ciL), not (maybeR or ciR), ciL,
                           ciR, pump)


def whole_word_tau_data(back, nu, depth=None):
    """tau_data of a periodic tail with the whole-word scan."""
    n_max = len(nu) + 1 if depth is None else min(len(nu) + 1, depth)
    chain, parity, certs = _whole_word_periodic_tail_analysis(back, nu, n_max)
    cfL, cfR, ciL, ciR, pump = certs
    NL, NR = [], []
    for ell in reversed(chain):
        if ell < n_max:
            (NR if parity[ell] == 0 else NL).append(ell + 1)
    return TauData(tuple(NL), tuple(NR), NL[-1] if NL else None,
                   NR[-1] if NR else None,
                   bool(NL) and NL[-1] == n_max or ciL,
                   bool(NR) and NR[-1] == n_max or ciR,
                   cfL, cfR, ciL, ciR, n_max, None, pump)


def _scan_bound(back, nu):
    """m + p + z of the bounded scan, for a word without a declared tail."""
    p = len(back.periodic_block)
    return len(back.symbols) + p + _lcp(nu.bits, 0, p)


def _assert_tau_like_whole_word(back, nu, depths=()):
    for depth in (None, 1, 64, 512, len(nu) + 5, *depths):
        assert tau_data(back, nu, depth) == \
            whole_word_tau_data(back, nu, depth), (back, nu, depth)


def _rotations(word):
    return st.integers(0, max(len(word) - 1, 0)).map(
        lambda r: word[r:] + word[:r])


@st.composite
def _tails_from(draw, bits):
    """A periodic tail whose symbols and block are cut from ``bits``, so the
    block is often a prefix or a rotation of a prefix and z is large."""
    piece = st.one_of(st.text("01", max_size=6),
                      st.integers(0, 60).map(lambda k: bits[:k]))
    symbols = "".join(draw(st.lists(piece, max_size=5)))
    prefix = bits[:draw(st.integers(1, min(len(bits), 60)))]
    block = draw(st.one_of(st.text("01", min_size=1, max_size=8),
                           st.just(prefix), _rotations(prefix)))
    return BackwardWord(symbols, block)


@settings(max_examples=300)
@given(data=st.data())
def test_bounded_scan_matches_whole_word_scan_on_long_words(data):
    bits = data.draw(st.one_of(
        st.text("01", min_size=99, max_size=399).map("1".__add__),
        st.sampled_from([METAMORPHIC_NUS[k].bits
                         for k in ("fib", "ex35", "nonrec")])
        .flatmap(lambda b: st.integers(1, len(b)).map(lambda n: b[:n]))))
    nu = KneadingPrefix(bits)
    _assert_tau_like_whole_word(data.draw(_tails_from(bits)), nu)


@settings(max_examples=300)
@given(period=st.text("01", max_size=5).map("1".__add__),
       z=st.integers(0, 30), rest=st.text("01", max_size=40),
       shift=st.sampled_from([-1, 0, 1]), data=st.data())
def test_bounded_scan_at_the_edge_of_the_word(period, z, rest, shift, data):
    # nu is p-periodic for exactly p + z symbols, so the bound m + p + z
    # lands on |nu| + shift
    p = len(period)
    head = (period * (z // p + 2))[:p + z]
    bits = head + "01"[head[z] == "0"] + rest
    symbols = data.draw(st.one_of(
        st.text("01", min_size=len(rest) + 1 + shift,
                max_size=len(rest) + 1 + shift),
        st.just(bits[:len(rest) + 1 + shift])))
    block = data.draw(_rotations(period))
    back, nu = BackwardWord(symbols, block), KneadingPrefix(bits)
    assert _scan_bound(back, nu) == len(nu) + shift
    _assert_tau_like_whole_word(back, nu)


@settings(max_examples=300)
@given(_tau_inputs())
def test_bounded_scan_matches_whole_word_scan_on_short_words(args):
    back, nu, depth = args
    if back.is_periodic:
        _assert_tau_like_whole_word(back, nu, (depth,))


@settings(max_examples=150)
@given(data=st.data())
def test_bounded_scan_matches_whole_word_scan_on_fixture_words(
        data, fib_nu, nonrec_nu):
    nu = data.draw(st.sampled_from([fib_nu, nonrec_nu,
                                    METAMORPHIC_NUS["ex35"]]))
    _assert_tau_like_whole_word(data.draw(_tails_from(nu.bits)), nu)


def test_periodic_tail_tau_data_against_the_long_fibonacci_word(monkeypatch):
    # a periodic tail with m explicit symbols and period p reads the first
    # m + p + z symbols of the word (z the common prefix of the word and
    # its p-shift), not its 10 000, and the word's table covers no more
    nu = nu_from_q(fibonacci_q, 10000)
    reads = []
    scan = inverse_limit._kmp_scan

    def spy(pattern, fail, parity, m, text):
        reads.append(m)
        return scan(pattern, fail, parity, m, text)

    monkeypatch.setattr(inverse_limit, "_kmp_scan", spy)
    for back, read in ((BackwardWord("", "1"), 1),
                       (BackwardWord("0110", "10"), 6),
                       (BackwardWord(nu.bits[:89], nu.bits[:55]), 177)):
        reads.clear()
        tau_data(back, nu, 64)
        assert reads == [read], back
        assert len(nu.match_tables[0]) - 1 <= read, back


# -- one match table per kneading prefix against tables built per call -------
#
# The oracle builds the failure table and the parities for each call alone:
# of nu[:n_max - 1] for a finite tail, of the whole word for a periodic one.

def per_call_tau_data(back, nu, depth=None):
    if back.is_periodic:
        return whole_word_tau_data(back, nu, depth)
    n_max = len(back.symbols) + 1
    if depth is not None:
        n_max = min(n_max, depth)
    pattern = nu.bits[:max(n_max - 1, 0)]
    chain, _, above = _kmp_scan(pattern, back.unrolled(n_max - 1))
    parity = _prefix_parity(pattern)
    NL, NR = [], []
    for ell in reversed(chain):
        if ell < n_max:
            (NR if parity[ell] == 0 else NL).append(ell + 1)
    return TauData(tuple(NL), tuple(NR), NL[-1] if NL else None,
                   NR[-1] if NR else None, bool(NL) and NL[-1] == n_max,
                   bool(NR) and NR[-1] == n_max, n_max=n_max,
                   word_len=len(back.symbols), window_above=above)


def _assert_tau_fields_equal(back, nu, depth):
    got, want = tau_data(back, nu, depth), per_call_tau_data(back, nu, depth)
    for f in dataclasses.fields(TauData):
        assert getattr(got, f.name) == getattr(want, f.name), \
            (f.name, back, nu, depth)


def _assert_tables_are_the_words(nu):
    fail, parity, first, second = nu.match_tables
    n = len(fail) - 1
    assert len(parity) == len(first) == len(second) == n + 1
    assert n <= len(nu)
    assert fail == _failure_table(nu.bits[:n])
    assert parity == _prefix_parity(nu.bits[:n])
    # the first two children of each node of the failure tree, 0 for none
    children = [[] for _ in range(n + 1)]
    for e in range(1, n + 1):
        children[fail[e]].append(e)
    assert first == [(kids + [0])[0] for kids in children]
    assert second == [(kids + [0, 0])[1] for kids in children]


def _backs_reading(nu, n, rng):
    """Finite tails read to depth n + 1 and periodic tails cut from nu."""
    bits = nu.bits
    yield BackwardWord(bits[:n]), None
    yield BackwardWord("".join(rng.choice("01") for _ in range(n))), None
    yield BackwardWord(bits[:rng.randrange(n, len(bits) + 1)]), n + 1
    start = rng.randrange(max(len(bits) - n, 0) + 1)
    yield BackwardWord(bits[start:start + n]), None
    yield BackwardWord(bits[:n % 13], bits[:n % 17 + 1]), n + 1
    yield BackwardWord(bits[:rng.randrange(5)], bits[:rng.randrange(1, 9)]), \
        None


def test_one_prefix_table_serves_rising_falling_and_rising_depths(
        fib_nu, nonrec_nu):
    rng = random.Random(20261019)
    rising = [0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 200]
    for bits in (fib_nu.bits, nonrec_nu.bits, METAMORPHIC_NUS["ex35"].bits,
                 "1" + "".join(rng.choice("01") for _ in range(199))):
        nu = KneadingPrefix(bits)        # a fresh object: no table yet
        assert nu.match_tables is None
        for n in rising + rising[::-1] + rising:
            n = min(n, len(nu))
            for back, depth in _backs_reading(nu, n, rng):
                _assert_tau_fields_equal(back, nu, depth)
                _assert_tables_are_the_words(nu)


def test_prefix_tables_grow_only_as_far_as_a_call_reads():
    nu = KneadingPrefix(nu_from_q(fibonacci_q, 300).bits)
    read = 1
    for n, depth in ((5, None), (40, 12), (3, None), (40, None), (90, 300)):
        tau_data(BackwardWord(nu.bits[:n]), nu, depth)
        read = max(read, min(n, (depth or n + 1) - 1))
        assert len(nu.match_tables[0]) == read + 1
        _assert_tables_are_the_words(nu)
    # a declared periodic continuation keeps its tables to the call
    periodic = KneadingPrefix("1011011011", periodic_tail=(1, 3))
    _assert_tau_fields_equal(BackwardWord("", "011"), periodic, None)
    assert periodic.match_tables is None
    assert periodic == KneadingPrefix(periodic.bits)
    assert hash(nu) == hash(KneadingPrefix(nu.bits))


@settings(max_examples=300)
@given(_tau_inputs(), st.lists(st.integers(1, 90), min_size=1, max_size=6))
def test_prefix_tables_match_per_call_tables_on_short_words(args, depths):
    # one prefix object read by the drawn tail, then at the drawn depths
    back, nu, depth = args
    for d in (depth, *depths):
        _assert_tau_fields_equal(back, nu, d)
        if nu.match_tables is not None:
            _assert_tables_are_the_words(nu)


# -- the chain generator against the one that expands a head per chain -----------

class _OracleBudgetSpent(Exception):
    pass


def _per_chain_itinerary_gen(nu, count, depth, found, budget=100_000):
    """The generator as it was before heads were expanded once: every chain
    that reaches a head expands it again.  ``found`` memoizes the occurrence
    lists per (word, m), and ``budget`` caps the expansions."""
    bits = nu.bits

    def occurrences(m):
        if (bits, m) not in found:
            pref = bits[:m]
            out = []
            start = 1
            while True:
                idx = bits.find(pref, start)
                if idx < 0:
                    break
                out.append(idx + m)
                start = idx + 1
            found[bits, m] = [n for n in out if n > m]
        return found[bits, m]

    words, chains = [], []
    best_live = 1
    seen = set()
    stack = [(1, (1,))]
    while stack and len(words) < count:
        budget -= 1
        if budget < 0:
            raise _OracleBudgetSpent(nu, count, depth)
        n, chain = stack.pop()
        nexts = occurrences(n)
        if nexts:
            best_live = max(best_live, n)
        if n >= depth and nexts:
            w = bits[:n]
            if w not in seen:
                seen.add(w)
                words.append(BackwardWord(w))
                chains.append(chain)
            continue
        if not nexts:
            continue
        picked = [nexts[0]]
        for cand in nexts[1:]:
            if not bits[:cand].endswith(bits[:picked[0]]):
                picked.append(cand)
                break
        if len(picked) == 1 and len(nexts) > 1:
            picked.append(nexts[1])
        for cand in reversed(picked):
            stack.append((cand, chain + (cand,)))
    if not words:
        raise NoRecurrenceWitness(best_live)
    return words


def _generated(gen, *args):
    try:
        return [w.symbols for w in gen(*args)]
    except NoRecurrenceWitness as exc:
        return exc.max_depth


def test_generator_matches_per_chain_expansion_on_short_words():
    found = {}
    for length in range(1, 11):
        for tail in itertools.product("01", repeat=length - 1):
            nu = KneadingPrefix("1" + "".join(tail))
            for count in (1, 2, 3):
                for depth in range(1, length + 3):
                    assert _generated(endpoint_itinerary_gen, nu, count,
                                      depth) == \
                        _generated(_per_chain_itinerary_gen, nu, count,
                                   depth, found), (nu, count, depth)


def test_generator_matches_per_chain_expansion_on_benchmark_words():
    words = [nu_from_q(fibonacci_q, 10000), nu_from_q(example35_q, 6000),
             nonrecurrent_example_nu(4000),
             KneadingPrefix(generate(6773)[0].bits[:6773])]
    found = {}
    for nu in words:
        for count in range(1, 7):
            for depth in range(1, 401):
                assert _generated(endpoint_itinerary_gen, nu, count,
                                  depth) == \
                    _generated(_per_chain_itinerary_gen, nu, count, depth,
                               found), (nu, count, depth)
        _assert_tables_are_the_words(nu)      # the table tau_data reads


def test_generator_matches_per_chain_expansion_on_longer_words():
    # random, purely periodic and eventually periodic words of 11-200
    # symbols; on a word of least period p the oracle's expansions grow
    # about 1.6-fold per p symbols of depth, so depths stay within 16 p
    rng = random.Random(20261020)
    found = {}
    for _ in range(60):
        length = rng.randrange(11, 201)
        block = "".join(rng.choice("01") for _ in range(rng.randrange(1, 9)))
        preperiod = "1" + "".join(rng.choice("01")
                                  for _ in range(rng.randrange(12)))
        for bits in ("1" + "".join(rng.choice("01")
                                   for _ in range(length - 1)),
                     (("1" + block[1:]) * length)[:length],
                     (preperiod + block * length)[:length]):
            period = next(p for p in range(1, length + 1)
                          if bits[p:] == bits[:length - p])
            reach = min(length + 2, 16 * period)
            nu = KneadingPrefix(bits)
            for count in (1, 2, 3):
                for depth in {1, 2, *range(3, reach + 1, 1 + reach // 9)}:
                    assert _generated(endpoint_itinerary_gen, nu, count,
                                      depth) == \
                        _generated(_per_chain_itinerary_gen, nu, count,
                                   depth, found), (nu, count, depth)


def test_generator_expands_each_chain_head_once():
    # "1"*52: every head n continues at n + 1 and n + 2, so expanding a head
    # once per chain that reaches it doubles the work at each level;
    # "1"*20000: a scan of every later occurrence of each head is cubic
    code = ("from uilkit.errors import NoRecurrenceWitness\n"
            "from uilkit.inverse_limit import endpoint_itinerary_gen\n"
            "from uilkit.kneading import KneadingPrefix\n"
            "for n in (52, 20000):\n"
            "    try:\n"
            "        endpoint_itinerary_gen(KneadingPrefix('1' * n), count=1,"
            " depth=n + 7)\n"
            "    except NoRecurrenceWitness as exc:\n"
            "        print(exc.max_depth)\n")
    src = str(Path(uilkit.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=20, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["51", "19999"]


# -- integer ends: differential tests against the Fraction code ----------------

def _word_image_oracle(slope, word):
    """word_image_interval of the Fraction code."""
    s = slope.s.value
    lo, hi = Fraction(0), Fraction(1)
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
       word=st.text(alphabet="01", max_size=40))
def test_word_image_interval_matches_fraction_oracle(s, word):
    slope = slope_exact(s)
    assert _pair(word_image_interval(slope, word)) == \
        _pair(_word_image_oracle(slope, word))


def test_word_image_interval_every_short_word():
    words = ["".join(w) for n in range(9)
             for w in itertools.product("01", repeat=n)]
    for s in (Fraction(2), Fraction(3, 2), Fraction(9, 5),
              Fraction(1000001, 1000000)):
        slope = slope_exact(s)
        for w in words:
            assert _pair(word_image_interval(slope, w)) == \
                _pair(_word_image_oracle(slope, w)), (s, w)


def _folding_oracle(it, slope, nu, depth=64, eps=Fraction(1, 1 << 20),
                    proxy_len=256):
    """folding_verdict of the Fraction code: every projection against every
    proxy value, on Scalars rounded onto the grid; an eps <= 0 is refused."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    burn_in, window = proxy_len // 4, 24
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
    first = proxy_len // 4
    bits = max(64, eps.denominator.bit_length() + 32)
    one = 1 << bits
    e = math.floor(eps * one)
    # grid ends of the proxy as the oracle rounds them, to place points at
    # distances e and t = e + resolution + width from a proxy end, and 1 off
    orbit = OrbitTable(slope)
    ends = [orbit.value(j).rounded(bits) for j in range(first, proxy_len + 1)]
    ends = [(int(p.lo * one), int(p.hi * one)) for p in ends]
    resolution = max(hi - lo for lo, hi in ends)
    # a negative eps, which both refuse, once left t = e + resolution +
    # width < 0 for a point about as wide as -e, with proxy values inside it
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
                                 proxy_len=proxy_len)


def _verdict_fields(folding, *args, **kw):
    """The verdict's fields, or the type and text of the DomainError."""
    try:
        v = folding(*args, **kw)
    except DomainError as exc:
        return type(exc).__name__, str(exc)
    return (v.status, v.rule, v.depth, v.epsilon, v.witness, v.to_json())


@settings(max_examples=400)
@given(_folding_inputs())
def test_folding_verdict_matches_fraction_oracle(args):
    (it, slope, nu), kw = args
    assert _verdict_fields(folding_verdict, it, slope, nu, **kw) == \
        _verdict_fields(_folding_oracle, it, slope, nu, **kw)


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
        assert _verdict_fields(folding_verdict, it, nonrec_slope, nonrec_nu,
                               **kw) == \
            _verdict_fields(_folding_oracle, it, nonrec_slope, nonrec_nu,
                            **kw)


def test_folding_verdict_with_an_empty_proxy_is_a_domain_error():
    slope = slope_exact(Fraction(9, 5))
    nu = nu_from_orbit(slope, 40)
    it = TwoSidedItinerary(BackwardWord("", "1"), "1" * 10,
                           x0=Scalar.exact(Fraction(9, 14)))
    for proxy_len in (-1, -2, -9):
        with pytest.raises(DomainError, match=f"^proxy_len {proxy_len} < 0 "
                                              f"leaves the orbit-tail proxy"):
            folding_verdict(it, slope, nu, proxy_len=proxy_len)
    # a proxy of one value, c_0, is still a proxy
    assert folding_verdict(it, slope, nu, proxy_len=0).status \
        in ("evidence", "refuted")


def test_negative_depth_is_a_domain_error(nonrec_slope, nonrec_nu,
                                          nonrec_kd):
    # a negative depth used to reach the match sets and stamp the verdicts:
    # classification_report gave an undetermined endpoint at depth -3
    it = TwoSidedItinerary(BackwardWord("", "1"), "1" * 10,
                           x0=Scalar.exact(nonrec_slope.s.value
                                           / (1 + nonrec_slope.s.value)))
    back = it.backward
    for call in (lambda d: tau_data(back, nonrec_nu, d),
                 lambda d: endpoint_verdict(it, nonrec_nu, d),
                 lambda d: classification_report(it, nonrec_nu, nonrec_slope,
                                                 nonrec_kd, depth=d)):
        for depth in (-1, -3):
            with pytest.raises(DomainError,
                               match=f"^depth must be >= 0, got {depth}$"):
                call(depth)
    # depth 0 checks nothing, and None reads all the data
    assert tau_data(back, nonrec_nu, 0).n_max == 0
    assert endpoint_verdict(it, nonrec_nu, 0).depth == 0
    assert tau_data(back, nonrec_nu, None).n_max == len(nonrec_nu) + 1


@pytest.mark.parametrize("name", ["9/5", "nonrec41:120", "sqrt3"])
def test_refuted_folding_verdict_stays_as_depth_grows(name):
    """Deeper projections come after the first far one, so a refutation
    keeps its status, far_at and missing_word."""
    rng = random.Random(name)
    slope = parse_slope(name)
    nu = nu_from_orbit(slope, 120)
    orbit = OrbitTable(slope)
    refuted = 0
    for _ in range(30):
        symbols = "".join(rng.choice("01") for _ in range(rng.randrange(12)))
        block = rng.choice((None, "0", "1", "01", "10", "011", "001"))
        back = BackwardWord(symbols or "0", block)
        x0 = Scalar.exact(Fraction(rng.randrange(1, 200), 201))
        first = None
        for depth in (2, 4, 8, 16, 32, 64):
            v = folding_verdict(TwoSidedItinerary(back, "", x0=x0), slope, nu,
                                depth=depth, eps=Fraction(1, 256),
                                proxy_len=64, orbit=orbit)
            if first is None and v.is_refuted:
                first = v
                refuted += 1
            elif first is not None:
                assert (v.status, v.witness["far_at"],
                        v.witness["missing_word"]) == \
                    ("refuted", first.witness["far_at"],
                     first.witness["missing_word"]), (symbols, block, depth)
    assert refuted >= 10


def test_arc_and_reconstruction_input_refusals():
    # s_{-n} is 1-based; the word-image oracle and reconstruct_x0 need an
    # exact slope; unit mode needs a finite word; the mode is one of two
    s = slope_exact(Fraction(9, 5))
    nu = nu_from_orbit(s, 40)
    kd = cutting_data(nu)
    orbit = OrbitTable(s)
    with pytest.raises(IndexError, match="^0$"):
        BackwardWord("011").at(0)
    assert BackwardWord("011").at(1) == "1"
    with pytest.raises(DomainError, match="^the word-image oracle needs an "
                                          "exact rational slope$"):
        word_image_interval(slope_interval(Fraction(179, 100),
                                           Fraction(181, 100)), "01")
    with pytest.raises(DomainError,
                       match="^unit mode needs a finite backward word$"):
        basic_arc_interval(tau_data(BackwardWord("", "01"), nu), orbit, kd=kd)
    with pytest.raises(DomainError, match="^unknown mode 'bogus'$"):
        basic_arc_interval(tau_data(BackwardWord("01"), nu), orbit, "01",
                           kd=kd, mode="bogus")
    # 01000 ends in 1000, which the word (1001...) does not start with:
    # no point reads it forward, and its cylinder is empty
    assert word_image_interval(s, "01000") is None
    with pytest.raises(UnrealizableWord,
                       match="^forward word '01000' unrealizable$"):
        reconstruct_x0(s, "01000")
    td = tau_data(BackwardWord("01000"), nu)
    with pytest.raises(UnrealizableWord,
                       match="^a shifted window exceeds the kneading word$"):
        basic_arc_interval(td, orbit, "01000", kd=kd)


def test_arc_refuses_short_match_sets_and_missing_cutting_data():
    # each of these gave a wrong arc or a false "empty cylinder": from
    # match sets cut at depth 2 the arc of 01001 was [9/50, 9/10], marked
    # exact, where its pull-back is [9/50, 4689/6250]; the pull-back of
    # the empty word is [0, 1]; without cutting data no realizability
    # check ran, and words no point has got an arc
    s = slope_exact(Fraction(9, 5))
    nu = nu_from_orbit(s, 40)
    kd = cutting_data(nu)
    orbit = OrbitTable(s)
    td = tau_data(BackwardWord("01001"), nu)
    for word in (None, "0100", "010010"):
        with pytest.raises(DomainError, match="^unit mode needs the word of "
                                              "the match sets$"):
            basic_arc_interval(td, orbit, word, kd=kd)
    with pytest.raises(DomainError, match="^unit mode needs a nonempty word$"):
        basic_arc_interval(tau_data(BackwardWord(""), nu), orbit, "", kd=kd)
    for depth in (0, 1, 2, 5):
        short = tau_data(BackwardWord("01001"), nu, depth)
        with pytest.raises(DomainError, match=f"^unit mode needs match sets "
                                              f"past the word: depth {depth} "
                                              f"<= word length 5$"):
            basic_arc_interval(short, orbit, "01001", kd=kd)
    for depth in (None, 6):
        arc = basic_arc_interval(tau_data(BackwardWord("01001"), nu, depth),
                                 orbit, "01001", kd=kd)
        assert (arc.lo.value, arc.hi.value) == word_image_interval(s, "01001") \
            == (Fraction(9, 50), Fraction(4689, 6250))
    for mode in ("unit", "core"):
        with pytest.raises(TypeError, match="required keyword-only argument: "
                                            "'kd'$"):
            basic_arc_interval(td, orbit, "01001", mode=mode)
    with pytest.raises(TypeError, match="positional argument"):
        basic_arc_interval(td, orbit, "01001", kd)


ARC_SLOPES = (Fraction(9, 5), Fraction(3, 2), Fraction(17, 10),
              Fraction(13, 8), Fraction(19, 10), Fraction(8, 5),
              Fraction(7, 4))


@pytest.mark.parametrize("s", ARC_SLOPES, ids=str)
def test_unit_arc_is_the_pull_back_or_a_refusal(s):
    # every word of 1-8 symbols at every depth 0 .. N + 1: refused exactly
    # when the match sets stop at or before the word's length N, else the
    # pull-back of [0, 1] (UnrealizableWord where the cylinder is empty)
    slope = slope_exact(s)
    nu = nu_from_orbit(slope, 40)
    kd = cutting_data(nu)
    orbit = OrbitTable(slope)
    for n in range(1, 9):
        for tup in itertools.product("01", repeat=n):
            word = "".join(tup)
            want = word_image_interval(slope, word)
            back = BackwardWord(word)
            for depth in range(n + 2):
                td = tau_data(back, nu, depth)
                try:
                    arc = basic_arc_interval(td, orbit, word, kd=kd)
                except DomainError:
                    assert depth <= n, (word, depth)
                    continue
                except UnrealizableWord:
                    got = None
                else:
                    got = (arc.lo.value, arc.hi.value)
                    assert arc.exact
                assert depth > n and got == want, (word, depth, got, want)
