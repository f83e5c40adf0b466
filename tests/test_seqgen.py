import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from uilkit import seqgen
from uilkit.errors import ConstructionStuck, DomainError
from uilkit.kneading import (KneadingPrefix, admissible_disjoint, admissible_q,
                             cutting_data, fibonacci_q, nu_from_orbit,
                             nu_from_q)
from uilkit.presets import parse_slope
from uilkit.scalars import parity_lex_cmp, slope_exact
from uilkit.seqgen import (FIRST_EXTENSION_REFERENCE, SEED, WordLedger,
                           _segment_conditions, coverage_report, extend_step,
                           generate,
                           _verify_admissible, shortest_missing_pair,
                           word_admissible)


def _seed_ledger():
    return WordLedger(cutting_data(KneadingPrefix(SEED)))


def test_seed_ledger_matches_reference_collection():
    ledger = _seed_ledger()
    short = {w for w in ledger.ends_at_cuts if len(w) <= 3 and ledger.paired(w)}
    assert short == {"0", "1", "00", "01", "100", "101"}


def test_shortest_missing_pair_is_10_11():
    assert shortest_missing_pair(_seed_ledger()) == ("10", "11")


def test_first_extension_matches_reference():
    ledger, plan = extend_step(_seed_ledger())
    assert ledger.nu == FIRST_EXTENSION_REFERENCE
    assert generate(25)[1]["first_extension_matches_reference"]
    assert (plan.v, plan.v_flip) == ("11", "10")
    kd = ledger.kd
    assert kd.S == (1, 2, 3, 4, 7, 8, 11, 19)
    assert kd.Q == (0, 0, 0, 2, 0, 2, 5)


def test_second_step_postconditions():
    ledger, _ = extend_step(_seed_ledger())
    ledger2, plan = extend_step(ledger)
    assert {plan.v, plan.v_flip} == {"000", "001"}
    assert plan.u_flip.count("1") % 2 == 0
    assert ledger2.paired("000") and ledger2.paired("001")
    kd = ledger2.kd
    for j in range(1, kd.max_k + 1):
        if kd.S[j] > len(SEED):
            assert kd.Q[j - 1] != 1
            assert kd.Q[j - 1] <= j - 2


def test_u_parity_swap_logged():
    _, plan = extend_step(_seed_ledger())
    # the even-ones completion went to the flip side
    assert plan.u_flip.count("1") % 2 == 0
    assert plan.u.count("1") % 2 == 1


def test_ledger_soundness_incremental_vs_scratch():
    ledger = _seed_ledger()
    for _ in range(3):
        ledger, _ = extend_step(ledger)
        assert ledger.scratch_equal()


def _collect(bits, positions, cap, into):
    for p in positions:
        for L in range(1, min(p, cap) + 1):
            into.add(bits[p - L:p])
    return into


def _extended(ledger, new_bits, cuts, cap):
    """The incremental ledger update the generator used to run: the old
    suffix set plus the subwords ending at the new cutting times, rebuilt
    from scratch when the cap then grows."""
    assert new_bits.startswith(ledger.nu)
    if cap > ledger.len_cap:
        return _collect(new_bits, cuts, cap, set())
    old_cuts = set(ledger.kd.S)
    return _collect(new_bits, [p for p in cuts if p not in old_cuts],
                    ledger.len_cap, set(ledger.ends_at_cuts))


def test_ledger_built_from_the_word_equals_the_incremental_update(monkeypatch):
    # every round of generate(20000), past 6773 symbols: the ledger
    # extend_step builds from the word against the old incremental update
    rounds = []
    real = seqgen.extend_step

    def checked(ledger):
        new_ledger, plan = real(ledger)
        cap = max(ledger.len_cap, len(plan.v) + 1)
        assert new_ledger.len_cap == cap
        assert new_ledger.ends_at_cuts == _extended(
            ledger, new_ledger.nu, new_ledger.kd.S, cap)
        rounds.append(len(new_ledger.nu))
        return new_ledger, plan

    monkeypatch.setattr(seqgen, "extend_step", checked)
    nu, _, plans = generate(20000)
    assert len(rounds) == len(plans) == 5 and rounds[-1] == len(nu) > 6773


def test_word_admissibility_channels():
    assert word_admissible("11", SEED)           # window channel
    # occurs in the seed, and passes the window test as every occurring
    # word of an admissible prefix does: no substring channel decides it
    assert word_admissible("100", SEED)
    assert not word_admissible("0000", FIRST_EXTENSION_REFERENCE)


def _parent_word_admissible(word, nu_bits):
    """``word_admissible`` as it was, with a substring channel in front."""
    if word in nu_bits:
        return True
    sigma = nu_bits[1:len(word) + 1]
    return all(parity_lex_cmp(word[i:], nu_bits) <= 0
               and parity_lex_cmp(sigma, word[i:]) <= 0
               for i in range(len(word)))


def _parent_coverage_report(ledger, max_len=6, mode="occurs"):
    """``coverage_report`` as it was: admissibility first, then the hit."""
    ledger.ensure_cap(max(ledger.len_cap, max_len))
    covered_to, missing = 0, None
    for L in range(1, max_len + 1):
        for idx in range(1 << L):
            word = format(idx, f"0{L}b")
            if not _parent_word_admissible(word, ledger.nu):
                continue
            hit = word in ledger.nu if mode == "occurs" \
                else word in ledger.ends_at_cuts
            if not hit:
                return covered_to, word
        covered_to = L
    return covered_to, missing


def test_generator_calls_agree_with_the_substring_channel(monkeypatch):
    # every word_admissible and coverage_report call of generate(150000)
    real_admissible, real_coverage = word_admissible, coverage_report
    calls = {"admissible": 0, "coverage": 0}

    def admissible(word, nu_bits):
        calls["admissible"] += 1
        verdict = real_admissible(word, nu_bits)
        assert verdict == _parent_word_admissible(word, nu_bits), \
            (word, len(nu_bits))
        return verdict

    def coverage(ledger, max_len=6, mode="occurs"):
        calls["coverage"] += 1
        expected = _parent_coverage_report(ledger, max_len, mode)
        assert real_coverage(ledger, max_len, mode) == expected
        return expected

    monkeypatch.setattr(seqgen, "word_admissible", admissible)
    monkeypatch.setattr(seqgen, "coverage_report", coverage)
    nu, _, plans = generate(150000)
    assert len(nu) == 159261 and len(plans) == 5
    # the while test reads coverage once the length is reached, then the
    # certificate reads both modes
    assert calls["admissible"] >= 30 and calls["coverage"] == 3


def test_coverage_report_agrees_with_the_substring_channel():
    ledger = _seed_ledger()
    reports = set()
    for _ in range(6):
        for mode in ("occurs", "at_cuts"):
            report = coverage_report(ledger, 8, mode)
            assert report == _parent_coverage_report(ledger, 8, mode)
            reports.add(report)
        if len(ledger.nu) < 150000:
            ledger, _ = extend_step(ledger)
    assert len(reports) > 2


def test_every_occurring_word_passes_the_window_test():
    # why word_admissible needs no substring channel: in an admissible
    # prefix, each window of an occurring word lies between the shift and
    # the prefix in the parity-lexicographic order
    words = [nu_from_orbit(parse_slope(name), 400).bits
             for name in ("fib:400", "ex35:400", "nonrec41:400")]
    words.append(generate(20000)[0].bits)
    rng = random.Random(29)
    while len(words) < 24:
        q = rng.randrange(5, 400)
        words.append(nu_from_orbit(
            slope_exact(Fraction(rng.randrange(q + 1, 2 * q + 1), q)),
            300).bits)
    checked = 0
    for bits in words:
        occurring = {bits[i:i + L] for L in range(1, 13)
                     for i in range(len(bits) - L + 1)}
        assert all(word_admissible(w, bits) for w in occurring)
        checked += len(occurring)
    assert checked > 10000


def test_word_admissible_reads_the_shift_only_as_far_as_the_word():
    # the shift of the prefix was once copied whole on every call
    def whole_shift(word, nu_bits):
        if word in nu_bits:
            return True
        sigma = nu_bits[1:]
        return all(parity_lex_cmp(word[i:], nu_bits) <= 0
                   and parity_lex_cmp(sigma, word[i:]) <= 0
                   for i in range(len(word)))

    rng = random.Random(7)
    prefix = generate(2000)[0].bits
    verdicts = set()
    for _ in range(3000):
        nu_bits = prefix[:rng.choice((7, 19, 85, len(prefix)))]
        word = "".join(rng.choice("01") for _ in range(rng.randint(1, 30)))
        verdict = word_admissible(word, nu_bits)
        assert verdict == whole_shift(word, nu_bits), (word, len(nu_bits))
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_generate_small_targets():
    nu, cert, plans = generate(7)
    assert nu.bits == SEED and cert["steps"] == 0
    nu25, cert25, _ = generate(25)
    assert nu25.bits.startswith(FIRST_EXTENSION_REFERENCE)
    assert cert25["length"] >= 25


def test_generate_certificate_200():
    nu, cert, plans = generate(200)
    assert cert["length"] >= 200
    assert cert["coverage_length"] >= 4
    assert cert["coverage_length_at_cuts"] >= 3
    assert cert["scheduled_pairs_at_cuts"]
    assert cert["q_ne_1_and_le_k_minus_2_beyond_seed"]
    assert cert["admissible_disjoint"] != "refuted"
    assert cert["admissible_q"] != "refuted"
    assert cert["first_extension_matches_reference"]


def test_generate_certificate_500():
    nu, cert, _ = generate(500)
    assert cert["length"] >= 500
    kd = cutting_data(nu)
    for j in range(1, kd.max_k + 1):
        if kd.S[j] > len(SEED):
            assert kd.Q[j - 1] not in (1, j - 1)
    assert not admissible_disjoint(nu).is_refuted
    assert not admissible_q(list(kd.Q)).is_refuted


def test_u_length_is_cutting_time():
    ledger = _seed_ledger()
    for _ in range(3):
        new_ledger, plan = extend_step(ledger)
        assert len(plan.u) in new_ledger.kd.S
        assert len(plan.u) != 2
        ledger = new_ledger


def test_generate_rejects_tiny_target():
    with pytest.raises(DomainError):
        generate(3)


def test_coverage_modes_differ():
    ledger = _seed_ledger()
    for _ in range(4):
        ledger, _ = extend_step(ledger)
    occurs, _ = coverage_report(ledger, 4, mode="occurs")
    at_cuts, missing = coverage_report(ledger, 4, mode="at_cuts")
    assert occurs >= 4
    # 0001 occurs but cannot end at a cutting time (0000 is inadmissible)
    assert at_cuts == 3 and missing == "0001"


def test_verify_admissible_reports_the_structural_verdict():
    # one scan for an admissible candidate; a refuted one still reports the
    # word-structure checker's verdict in the state dump
    seed_kd = cutting_data(KneadingPrefix(SEED))
    kd = _verify_admissible("10001011", "block-ii", {"k": 4}, seed_kd)
    assert kd.S == (1, 2, 3, 4, 7)
    with pytest.raises(ConstructionStuck) as err:
        _verify_admissible("1000101" + "0000", "block-ii", {"k": 4}, seed_kd)
    assert err.value.stage == "block-ii"
    assert err.value.state == {"k": 4, "verdict": (
        "Verdict(refuted, rule=admissibility-cut-cocut-disjoint, depth=11, "
        "witness={'position': 11, 'reason': 'position 11 is both a cutting "
        "and a co-cutting time'})")}


def test_segment_conditions_name_the_first_failing_cutting_time():
    # Q(3) = 1 sits at S_3 = 5, inside the seed, so fib's map passes; past
    # the seed Q(5) = 1 breaks Q(j) != 1 and Q(5) = 4 breaks Q(j) <= j - 2
    seed_len = len(SEED)
    assert _segment_conditions(cutting_data(nu_from_q(fibonacci_q, 100)),
                               seed_len) == (True, "")
    for qs, horizon, reason in (([0, 0, 1, 2, 1], 10, "Q(5) = 1 at S_5 = 10"),
                                ([0, 0, 1, 2, 4], 16, "Q(5) = 4 > 5 - 2")):
        kd = cutting_data(nu_from_q(qs, horizon))
        assert kd.Q == tuple(qs)
        assert _segment_conditions(kd, seed_len) == (False, reason)


def test_final_certificate_refuses_a_word_that_breaks_a_q_clause(
        monkeypatch):
    # only the last check, the certificate's, reads the seed's own cutting
    # times, where Q(1) = 0 > 1 - 2: every round passes as before, and the
    # finished word is refused with its certificate
    real, rounds = seqgen._segment_conditions, []

    def step(ledger):
        rounds.append(True)
        try:
            return extend_step(ledger)
        finally:
            rounds.pop()

    monkeypatch.setattr(seqgen, "extend_step", step)
    monkeypatch.setattr(seqgen, "_segment_conditions", lambda kd, seed_len: (
        real(kd, seed_len if rounds else 0)))
    with pytest.raises(ConstructionStuck) as err:
        generate(25)
    assert err.value.stage == "final-certificate"
    certificate = err.value.state
    assert certificate["q_ne_1_and_le_k_minus_2_beyond_seed"] is False
    assert certificate["segment_condition_failure"] == "Q(1) = 0 > 1 - 2"
    assert certificate["admissible_disjoint"] != "refuted"
    assert certificate["admissible_q"] != "refuted"
    assert certificate["length"] >= 25


def _searching_extend_step(ledger, fallbacks):
    """``extend_step`` as it was, with its three searches: a pre-extension
    when the flipped stem ends only at the top cutting time, a second
    block-II attempt with the branch block, and block III's r tried upward.
    Appends to ``fallbacks`` each time it leaves the first candidate."""
    _block, _flip = seqgen._block, seqgen._flip_last
    _verify = seqgen._verify_admissible
    nu, kd = ledger.nu, ledger.kd
    S, k = kd.S, kd.max_k
    state = {"nu_len": len(nu), "k": k}
    v, v_flip = shortest_missing_pair(ledger)
    stem = v[:-1]
    w = next((stem[:j] for j in range(len(stem), 0, -1)
              if ledger.paired(stem[:j])), None)
    if w is None:
        raise ConstructionStuck("common-prefix-in-ledger",
                                dict(state, v=v, v_flip=v_flip))
    u, u_flip = v[len(w):], v_flip[len(w):]
    if u_flip.count("1") % 2 == 1:
        v, v_flip, u, u_flip = v_flip, v, u_flip, u
    w_flip = _flip(w)
    state.update(v=v, v_flip=v_flip, w=w, u=u, u_flip=u_flip)
    pre_extension = ""
    n_prime = next((m for m in range(2, k) if nu[:S[m]].endswith(w_flip)),
                   None)
    if n_prime is None and nu[:S[k]].endswith(w_flip):
        fallbacks.append("pre-extension")
        pre_extension = _block(nu, S, k - 1)
        nu = nu + pre_extension
        kd = _verify(nu, "pre-extension", state, kd)
        S, k = kd.S, kd.max_k
        n_prime = k - 1
    if n_prime is None:
        raise ConstructionStuck("n-prime-search", dict(state, w_flip=w_flip))
    state["n_prime"] = n_prime
    block_i = "".join(_block(nu, S, m) for m in range(kd.q_of(k) - 1, 1, -1))
    cur = nu + block_i
    kd_i = _verify(cur, "block-i", state, kd)

    def attach_completion(include_branch_block):
        body = _block(nu, S, n_prime) if include_branch_block else ""
        candidate = cur + body + u_flip
        kd_c = _verify(candidate, "block-ii", state, kd_i)
        if len(candidate) not in kd_c.S or not candidate.endswith(v_flip):
            return None
        return candidate, body, kd_c

    attempt = attach_completion(False) if cur.endswith(w) else None
    if attempt is None:
        if cur.endswith(w):
            fallbacks.append("block-ii-second-attempt")
        attempt = attach_completion(True)
    if attempt is None:
        raise ConstructionStuck("block-ii", dict(state, cur_len=len(cur)))
    cur, body, kd_ii = attempt
    block_iv = _flip(cur)
    for r in range(2, kd_ii.max_k):
        if r > 2:
            fallbacks.append(f"block-iii-r={r}")
        candidate = cur + _block(nu, S, r) + block_iv
        try:
            kd_fin = _verify(candidate, "block-iii", state, kd_ii)
        except ConstructionStuck:
            continue
        ok, _ = _segment_conditions(kd_fin, len(ledger.nu))
        if ok and len(candidate) in kd_fin.S and candidate.endswith(v):
            break
    else:
        raise ConstructionStuck("block-iii", dict(state, cur_len=len(cur)))
    new_ledger = WordLedger(kd_fin, max(ledger.len_cap, len(v) + 1))
    assert new_ledger.paired(v) and new_ledger.paired(v_flip)
    assert len(u) in new_ledger.kd.S and len(u) != 2
    return new_ledger, {
        "v": v, "v_flip": v_flip, "stem": w, "u": u, "u_flip": u_flip,
        "n_prime": n_prime, "r": r, "pre_extension": pre_extension,
        "blocks": [block_i, body + u_flip, _block(nu, S, r), block_iv]}


def test_extend_step_takes_the_searches_first_candidate_every_round():
    # rounds 1-6, the chain of generate(400000): the searching form never
    # leaves its first candidate, and both forms give the same word,
    # cutting data, ledger and plan
    ledger = _seed_ledger()
    fallbacks = []
    for _ in range(6):
        new_ledger, plan = extend_step(ledger)
        old_ledger, old_plan = _searching_extend_step(ledger, fallbacks)
        assert new_ledger.nu == old_ledger.nu
        assert new_ledger.kd == old_ledger.kd
        assert new_ledger.len_cap == old_ledger.len_cap
        assert new_ledger.ends_at_cuts == old_ledger.ends_at_cuts
        assert plan.to_json() == old_plan and plan.r == 2
        ledger = new_ledger
    assert fallbacks == []
    assert ledger.nu == generate(400000)[0].bits and len(ledger.nu) == 7267597


def _orbit_ledger(slope, length):
    return WordLedger(cutting_data(nu_from_orbit(slope_exact(slope), length)))


@pytest.mark.parametrize("slope, fallback", [
    (Fraction(43, 26), ["pre-extension"]),
    (Fraction(85, 44), ["block-iii-r=3"]),
])
def test_extend_step_stops_where_the_search_left_its_first_candidate(
        slope, fallback):
    # the declared contract: on a ledger that is not one of the generator's
    # rounds, a first candidate that fails raises ConstructionStuck, where
    # the searching form went on to another one
    ledger = _orbit_ledger(slope, 20)
    fallbacks = []
    _searching_extend_step(ledger, fallbacks)
    assert fallbacks == fallback
    with pytest.raises(ConstructionStuck):
        extend_step(ledger)


@pytest.mark.parametrize("slope, stage, dump", [
    # no m in 2..k-1 has its prefix end in the flipped stem
    (Fraction(43, 26), "n-prime-search", {
        "k": 10, "v": "0101", "v_flip": "0100", "w": "010", "u": "1",
        "u_flip": "0", "w_flip": "011"}),
    # block II admissible, but its end is no cutting time
    (Fraction(8, 5), "block-ii", {
        "k": 8, "v": "1111", "v_flip": "1110", "w": "111", "u": "1",
        "u_flip": "0", "n_prime": 3, "cur_len": 20}),
    # the word ends with the stem, so block II is u' alone, and no second
    # attempt with B(n') follows
    (Fraction(37, 21), "block-ii", {
        "k": 9, "v": "111", "v_flip": "110", "w": "11", "u": "1",
        "u_flip": "0", "n_prime": 6, "cur_len": 20}),
    (Fraction(4, 3), "block-ii", {
        "k": 6, "v": "111", "v_flip": "110", "w": "11", "u": "1",
        "u_flip": "0", "n_prime": 4, "verdict": (
            "Verdict(refuted, rule=admissibility-cut-cocut-disjoint, "
            "depth=21, witness={'position': 21, 'reason': 'cutting gap 5 "
            "at position 21 is not a cutting time'})")}),
    # block III with B(2) admissible, but its end is no cutting time
    (Fraction(29, 22), "block-iii", {
        "k": 6, "v": "01010", "v_flip": "01011", "w": "010", "u": "10",
        "u_flip": "11", "n_prime": 2, "cur_len": 22}),
    # the searching form raised IndexError here: its r ran past the
    # cutting times of the word it indexed
    (Fraction(7, 4), "block-iii", {
        "k": 11, "v": "0010", "v_flip": "0011", "w": "00", "u": "10",
        "u_flip": "11", "n_prime": 4, "cur_len": 30}),
    (Fraction(85, 44), "block-iii", {
        "k": 11, "v": "0001", "v_flip": "0000", "w": "000", "u": "1",
        "u_flip": "0", "n_prime": 5, "verdict": (
            "Verdict(refuted, rule=admissibility-cut-cocut-disjoint, "
            "depth=63, witness={'position': 33, 'reason': 'position 33 is "
            "both a cutting and a co-cutting time'})")}),
])
def test_each_stage_of_a_round_has_one_check(slope, stage, dump):
    with pytest.raises(ConstructionStuck) as err:
        extend_step(_orbit_ledger(slope, 20))
    assert err.value.stage == stage
    assert err.value.state == dict(nu_len=20, **dump)


# sha256 of json.dumps([word, certificate, plans], sort_keys=True), recorded
# with the scan that rescans every candidate word from its first symbol
GENERATE_DIGESTS = {
    200: "8811dd0e306760dd32ca0a4ba0af661fc03703cf5a0e0334c121d46b2f000528",
    6773: "8811dd0e306760dd32ca0a4ba0af661fc03703cf5a0e0334c121d46b2f000528",
    20000: "1e5045a869e4d6f166a51be88f528b7c2e5649f8c996f07cbb93678541ec21ea",
    150000: "1e5045a869e4d6f166a51be88f528b7c2e5649f8c996f07cbb93678541ec21ea",
}


@pytest.mark.parametrize("n", sorted(GENERATE_DIGESTS))
def test_generate_output_is_pinned(n):
    nu, cert, plans = generate(n)
    text = json.dumps([nu.bits, cert, [p.to_json() for p in plans]],
                      sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATE_DIGESTS[n]


def test_ledger_reads_its_word_off_the_cutting_data():
    # the word and its cutting data come as one, so they cannot disagree
    kd = cutting_data(KneadingPrefix(FIRST_EXTENSION_REFERENCE))
    ledger = WordLedger(kd, 8)
    assert ledger.nu == FIRST_EXTENSION_REFERENCE
    assert ledger.kd is kd and ledger.scratch_equal()


def test_a_raised_cap_rebuilds_the_set_from_the_word():
    # coverage_report past the cap raises it, and the set then holds the
    # longer words ending at cutting times
    ledger, _ = extend_step(extend_step(_seed_ledger())[0])
    assert ledger.len_cap == 8 and len(ledger.nu) == 85
    coverage_report(ledger, 10)
    assert ledger.len_cap == 10 and ledger.scratch_equal()
    assert max(map(len, ledger.ends_at_cuts)) == 10
    coverage_report(ledger, 4)              # a lower cap is no change
    assert ledger.len_cap == 10


def test_scratch_equal_compares_the_cutting_data():
    ledger, _ = extend_step(_seed_ledger())
    assert ledger.scratch_equal()
    ledger.kd = replace(ledger.kd, cocut=ledger.kd.cocut[:-1])
    assert not ledger.scratch_equal()
