import hashlib
import json
from dataclasses import replace

import pytest

from uilkit import seqgen
from uilkit.errors import ConstructionStuck, DomainError
from uilkit.kneading import (KneadingPrefix, admissible_disjoint, admissible_q,
                             cutting_data)
from uilkit.seqgen import (FIRST_EXTENSION_REFERENCE, SEED, WordLedger,
                           coverage_report, dump_resume, extend_step, generate,
                           _verify_admissible, load_resume,
                           shortest_missing_pair, word_admissible)


def test_seed_ledger_matches_reference_collection():
    ledger = WordLedger(SEED)
    short = {w for w in ledger.ends_at_cuts if len(w) <= 3 and ledger.paired(w)}
    assert short == {"0", "1", "00", "01", "100", "101"}


def test_shortest_missing_pair_is_10_11():
    assert shortest_missing_pair(WordLedger(SEED)) == ("10", "11")


def test_first_extension_matches_reference():
    ledger, plan = extend_step(WordLedger(SEED), compat=True)
    assert ledger.nu == FIRST_EXTENSION_REFERENCE
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

    def checked(ledger, compat=False):
        new_ledger, plan = real(ledger, compat)
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
    assert word_admissible("100", SEED)          # substring channel
    assert not word_admissible("0000", FIRST_EXTENSION_REFERENCE)


def test_generate_small_targets():
    nu, cert, plans = generate(7)
    assert nu.bits == SEED and cert["steps"] == 0
    nu25, cert25, _ = generate(25)
    assert nu25.bits.startswith(FIRST_EXTENSION_REFERENCE)
    assert cert25["length"] >= 25


def test_generate_certificate_200():
    nu, cert, plans = generate(200, compat=True)
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


def test_resume_roundtrip():
    ledger, _ = extend_step(WordLedger(SEED))
    again = load_resume(dump_resume(ledger))
    assert again.nu == ledger.nu
    assert again.ends_at_cuts == ledger.ends_at_cuts


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
