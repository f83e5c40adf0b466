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


def test_seed_ledger_matches_reference_collection():
    ledger = WordLedger(SEED)
    short = {w for w in ledger.ends_at_cuts if len(w) <= 3 and ledger.paired(w)}
    assert short == {"0", "1", "00", "01", "100", "101"}


def test_shortest_missing_pair_is_10_11():
    assert shortest_missing_pair(WordLedger(SEED)) == ("10", "11")


def test_first_extension_matches_reference():
    ledger, plan = extend_step(WordLedger(SEED))
    assert ledger.nu == FIRST_EXTENSION_REFERENCE
    assert generate(25)[1]["first_extension_matches_reference"]
    assert (plan.v, plan.v_flip) == ("11", "10")
    kd = ledger.kd
    assert kd.S == (1, 2, 3, 4, 7, 8, 11, 19)
    assert kd.Q == (0, 0, 0, 2, 0, 2, 5)


def test_second_step_postconditions():
    ledger, _ = extend_step(WordLedger(SEED))
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
    _, plan = extend_step(WordLedger(SEED))
    # the even-ones completion went to the flip side
    assert plan.u_flip.count("1") % 2 == 0
    assert plan.u.count("1") % 2 == 1


def test_ledger_soundness_incremental_vs_scratch():
    ledger = WordLedger(SEED)
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
    ledger = WordLedger(SEED)
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
    ledger = WordLedger(SEED)
    for _ in range(3):
        new_ledger, plan = extend_step(ledger)
        assert len(plan.u) in new_ledger.kd.S
        assert len(plan.u) != 2
        ledger = new_ledger


def test_generate_rejects_tiny_target():
    with pytest.raises(DomainError):
        generate(3)


def test_coverage_modes_differ():
    ledger = WordLedger(SEED)
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


def test_ledger_refuses_cutting_data_of_another_word():
    with pytest.raises(DomainError):
        WordLedger(FIRST_EXTENSION_REFERENCE, 8, cutting_data(
            KneadingPrefix(SEED)))
    kd = cutting_data(KneadingPrefix(FIRST_EXTENSION_REFERENCE))
    ledger = WordLedger(FIRST_EXTENSION_REFERENCE, 8, kd)
    assert ledger.kd is kd and ledger.scratch_equal()


def test_scratch_equal_compares_the_cutting_data():
    ledger, _ = extend_step(WordLedger(SEED))
    assert ledger.scratch_equal()
    ledger.kd = replace(ledger.kd, cocut=ledger.kd.cocut[:-1])
    assert not ledger.scratch_equal()
