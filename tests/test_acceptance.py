"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines and timings.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from uilkit.cli import main as cli_main
from uilkit.errors import PrecisionExhausted, UnrealizableWord
from uilkit.hofbauer import OrbitTable, PrecriticalTable, f_apply, \
    long_branched_evidence, verify_zzz
from uilkit.inverse_limit import (BackwardWord, TwoSidedItinerary,
                                  basic_arc_interval, endpoint_verdict,
                                  folding_verdict, pull_back,
                                  reluctance_search, tau_data, verify_monotone,
                                  word_image_interval)
from uilkit.kneading import (KneadingPrefix, admissible_disjoint, admissible_q,
                             cutting_data, example35_q, fibonacci_q,
                             nu_from_orbit, nu_from_q, q_asymptotics,
                             renorm_scan)
from uilkit.presets import appendix_slope, cbrt6_slope, nonrecurrent_slope, \
    sqrt3_slope
from uilkit.scalars import C, Scalar, slope_exact, slope_for_prefix
from uilkit.seqgen import (FIRST_EXTENSION_REFERENCE, SEED, WordLedger,
                           extend_step, generate)
from uilkit.subcontinua import classify_chain, find_qcond_chains


def _stamp(n, t0, message):
    print(f"\nACCEPTANCE {n}: PASS ({time.time() - t0:.1f}s) - {message}")


def _admissible_prefixes_upto(max_len):
    """All admissible kneading prefixes of length <= max_len, by DFS."""
    out = ["1"]

    def rec(bits):
        out.append(bits)
        if len(bits) == max_len:
            return
        for b in "01":
            if not admissible_disjoint(KneadingPrefix(bits + b)).is_refuted:
                rec(bits + b)

    if max_len >= 2:
        rec("10")
    return out


def test_criterion_1_appendix_seed_fidelity(capsys):
    t0 = time.time()
    with capsys.disabled():
        pass
    code = cli_main(["knead", "--nu", "1.0.0.0.101"])
    out = capsys.readouterr().out
    assert code == 0
    res = json.loads(out)["results"]
    assert res["cutting_times"] == [1, 2, 3, 4, 7]
    assert res["kneading_map"] == [0, 0, 0, 2]
    assert res["cocutting_times"] == [5, 6]
    assert res["admissible_disjoint"]["status"] != "refuted"
    assert res["admissible_q"]["status"] != "refuted"
    assert time.time() - t0 < 1.0
    _stamp(1, t0, "seed 1.0.0.0.101: S=(1,2,3,4,7), Q=(0,0,0,2), "
                  "cocut={5,6}, both checkers pass")


def test_criterion_2_admissibility_cross_validation():
    t0 = time.time()
    # exhaustive: every kneading prefix (nu_1 = 1) of length <= 14
    disagreements = 0
    checked = 0
    stack = ["1"]
    while stack:
        bits = stack.pop()
        checked += 1
        verdict = admissible_disjoint(KneadingPrefix(bits))
        if not verdict.is_refuted:
            kd = cutting_data(KneadingPrefix(bits))
            if admissible_q(list(kd.Q)).is_refuted:
                disagreements += 1
        else:
            # when the cutting structure itself is intact, the kneading-map
            # checker must also refute
            from uilkit.kneading import _scan_structure
            S, Q, _, _, pos, reason = _scan_structure(bits)
            if "both a cutting and a co-cutting" in (reason or ""):
                if not admissible_q(list(Q)).is_refuted:
                    disagreements += 1
        if len(bits) < 14:
            stack.extend(bits + b for b in "01")
    assert checked == 1 + 2 ** 14 - 2
    assert disagreements == 0

    # 10^4 random kneading-map-generated prefixes of length <= 10^3
    rng = random.Random(20260808)
    for _ in range(10 ** 4):
        qs = []
        s_vals = [1]
        horizon = rng.randrange(50, 1001)
        for k in range(1, 400):
            lo = max(0, (qs[-1] - 1) if qs else 0)
            if rng.random() < 0.6:
                qk = rng.randrange(lo, k)
            else:
                qk = rng.randrange(0, max(1, min(3, k)))
            qs.append(qk)
            if qk < len(s_vals):
                s_vals.append(s_vals[-1] + s_vals[qk])
            if s_vals[-1] >= horizon:
                break
        if admissible_q(qs).is_refuted:
            continue
        nu = nu_from_q(qs, horizon)
        assert not admissible_disjoint(nu).is_refuted
    assert time.time() - t0 < 120
    _stamp(2, t0, f"{checked} exhaustive prefixes (len<=14) + 10^4 random "
                  "kneading-map prefixes: checkers never disagree")


def test_criterion_3_round_trip():
    t0 = time.time()
    count = 0
    for bits in _admissible_prefixes_upto(16):
        kd = cutting_data(KneadingPrefix(bits))
        assert nu_from_q(list(kd.Q), len(bits)).bits == bits
        count += 1
    assert time.time() - t0 < 120
    _stamp(3, t0, f"nu_from_q(cutting_data(nu)) = nu on all {count} "
                  "admissible prefixes of length <= 16")


def test_criterion_4_lemma_first_oracle():
    t0 = time.time()
    pairs = 0
    skipped = 0
    realized = 0
    for bits in _admissible_prefixes_upto(12):
        nu = KneadingPrefix(bits)
        kd = cutting_data(nu)
        try:
            slope = slope_for_prefix(bits)
        except PrecisionExhausted:
            skipped += 1       # admissible but realized by no tent slope
            continue
        realized += 1
        orbit = OrbitTable(slope)
        for wlen in range(1, min(len(bits), 8) + 1):
            for tup in itertools.product("01", repeat=wlen):
                word = "".join(tup)
                brute = word_image_interval(slope, word)
                td = tau_data(BackwardWord(word), nu)
                try:
                    arc = basic_arc_interval(td, orbit, word=word, kd=kd,
                                             mode="unit")
                    got = (arc.lo.value, arc.hi.value)
                except UnrealizableWord:
                    got = None
                assert got == brute, (bits, word)
                pairs += 1
    assert realized > 400 and skipped < 20
    assert time.time() - t0 < 300
    _stamp(4, t0, f"arc projection = brute-force pull-back on {pairs} "
                  f"(nu, word) pairs ({realized} slopes, {skipped} "
                  "unrealizable prefixes skipped), exact agreement")


def _slopes_with_cuts(min_k, rationals, presets, depth0=128):
    out = []
    for s in [slope_exact(Fraction(r)) for r in rationals] + presets:
        depth = depth0
        while True:
            kd = cutting_data(nu_from_orbit(s, depth))
            if kd.max_k >= min_k + 1:
                out.append((s, kd))
                break
            depth *= 2
            if depth > 4096:
                raise AssertionError(f"no {min_k} cutting times for {s}")
    return out


RATIONALS_16 = ["39/20", "97/50", "19/10", "169/90", "28/15", "9/5", "16/9",
                "7/4", "12/7", "5/3", "13/8", "8/5", "11/7", "14/9", "31/20",
                "26/17"]


def test_criterion_5_eq2_verification():
    t0 = time.time()
    presets = [sqrt3_slope(), cbrt6_slope(), nonrecurrent_slope(200),
               appendix_slope(160)]
    slopes = _slopes_with_cuts(16, RATIONALS_16, presets)
    assert len(slopes) == 20
    for slope, kd in slopes:
        zp = PrecriticalTable(slope, kd)
        for k in range(0, 16):
            verdict = verify_zzz(slope, k, zp)
            if k >= 2:
                assert verdict.is_certified, (slope.name, k, verdict)
            else:
                assert verdict.status in ("certified", "evidence"), \
                    (slope.name, k, verdict)
    assert time.time() - t0 < 120
    _stamp(5, t0, "c_{S_k} certified interior to its precritical cell for "
                  "2<=k<=15 (boundary-consistent for k in {0,1}) at 20 slopes")


def test_criterion_6_f_orbit_identity():
    t0 = time.time()
    presets = [nonrecurrent_slope(200)]
    slopes = _slopes_with_cuts(26, ["39/20", "9/5", "7/4", "8/5"], presets)
    for slope, kd in slopes:
        zp = PrecriticalTable(slope, kd)
        orbit = zp.orbit
        for k in range(0, 26):
            y, cell = f_apply(slope, orbit.value(kd.S[k]), zp)
            assert cell == kd.q_of(k + 1)
            target = orbit.value(kd.S[k + 1])
            if slope.is_exact:
                assert y.value == target.value, (slope.name, k)
            else:
                assert y.overlaps(target)
    assert time.time() - t0 < 60
    _stamp(6, t0, "F(c_{S_k}) = c_{S_{k+1}} certified for k <= 25 at "
                  f"{len(slopes)} slopes")


def test_criterion_7_example35_pipeline():
    t0 = time.time()
    assert example35_q(3) == 1 and example35_q(6) == 4 and example35_q(8) == 5
    qa = q_asymptotics(example35_q, 60)
    assert qa.to_infinity.is_positive
    res = find_qcond_chains(example35_q, 40, variant="strict")
    target = tuple(3 * i - 1 for i in range(3, 13))
    carrier = [ch for ch in res["chains"] if set(target) <= set(ch)]
    assert carrier
    cc = classify_chain(carrier[0], example35_q)
    assert cc.kind == "direct-spiral"
    assert renorm_scan(example35_q, 30)["passing"] == []
    assert time.time() - t0 < 60
    _stamp(7, t0, "example kneading map: values at k in {3,6,8}, Q->oo "
                  "evidence, the (3i-1) chain, direct spiral, "
                  "non-renormalizable at horizon 30")


def test_criterion_8_nonrecurrent_fixture(nonrec_slope, nonrec_nu, nonrec_kd):
    t0 = time.time()
    s = nonrec_slope.s.value
    r = s / (1 + s)
    battery = {
        "ones": TwoSidedItinerary(BackwardWord("", "1"), "1" * 10,
                                  x0=Scalar.exact(r)),
        "one-zero-island": TwoSidedItinerary(BackwardWord("0", "1"), "1" * 10,
                                             x0=Scalar.exact(r)),
        "zero-ray": TwoSidedItinerary(BackwardWord("", "0"), "0" * 10,
                                      x0=Scalar.exact(Fraction(1, 97))),
        "period-two": TwoSidedItinerary(BackwardWord("", "01"), "01" * 5,
                                        x0=Scalar.exact(s / (1 + s * s))),
    }
    folding_expected = {"ones": True, "one-zero-island": True,
                        "zero-ray": False, "period-two": False}
    orbit = OrbitTable(nonrec_slope)
    for name, it in battery.items():
        fv = folding_verdict(it, nonrec_slope, nonrec_nu, depth=64,
                             eps=Fraction(1, 256), proxy_len=170, orbit=orbit)
        assert fv.is_positive == folding_expected[name], (name, fv)
        ev = endpoint_verdict(it, nonrec_nu, depth=64)
        assert ev.is_refuted, (name, ev)
    lb = long_branched_evidence(nonrec_kd)
    assert lb.is_positive
    qa = q_asymptotics(list(nonrec_kd.Q))
    assert qa.bounded.is_positive
    assert time.time() - t0 < 120
    _stamp(8, t0, "non-recurrent fixture: endpoints refuted everywhere, "
                  "folding evidence exactly on the ...1111/...111101111 "
                  "classes, bounded kneading map (long-branched evidence)")


def test_criterion_9_persistence_dichotomy(fib_slope, fib_kd, nonrec_slope,
                                           nonrec_kd):
    t0 = time.time()
    grid = [Fraction(1, 1 << k) for k in range(6, 13)]
    fib = reluctance_search(fib_slope, grid, length_target=64, horizon=120,
                            kd=fib_kd)
    assert fib.witness["kind"] == "persistent"
    assert fib.witness["q_shortcut"]
    assert all(d["max_monotone"] < 64 for d in fib.witness["per_eps"].values())
    t_fib = time.time() - t0
    assert t_fib < 300

    t1 = time.time()
    nr = reluctance_search(nonrec_slope, grid, length_target=64, horizon=120,
                           kd=nonrec_kd)
    assert nr.witness["kind"] == "reluctant"
    assert nr.witness["length"] >= 64
    # reconstruct and independently re-verify the witness pull-back
    eps = nr.epsilon
    n = nr.witness["segment_end"]
    orbit = OrbitTable(nonrec_slope)
    orbit.extend(n + 1)
    center = orbit.value(n + 1)
    ball = (Scalar.exact(center.value - eps), Scalar.exact(center.value + eps))
    segment = [orbit.value(n + 1 - k) for k in range(0, n + 1)]
    chain = pull_back(ball, segment, nonrec_slope)
    assert chain.monotone_prefix >= 64
    assert verify_monotone(chain)
    assert time.time() - t1 < 300
    _stamp(9, t0, "Fibonacci slope persistent (no 64-step monotone pull-back "
                  "for eps in 2^-6..2^-12, plus the divergence shortcut); "
                  "non-recurrent slope reluctant with a re-verified 64-step "
                  "monotone pull-back")


def test_criterion_10_generator_certificate():
    t0 = time.time()
    # per-step ledger soundness
    ledger = WordLedger(cutting_data(KneadingPrefix(SEED)))
    steps = 0
    while len(ledger.nu) < 200 or steps < 4:
        ledger, _ = extend_step(ledger)
        assert ledger.scratch_equal()
        if steps == 0:
            assert ledger.nu == FIRST_EXTENSION_REFERENCE
        steps += 1
    nu, cert, plans = generate(200)
    assert cert["length"] >= 200
    assert cert["coverage_length"] >= 4          # every admissible word occurs
    assert cert["coverage_length_at_cuts"] >= 3  # and ends at cuts up to len 3
    assert cert["scheduled_pairs_at_cuts"]
    assert cert["q_ne_1_and_le_k_minus_2_beyond_seed"]
    assert cert["admissible_disjoint"] != "refuted"
    assert cert["admissible_q"] != "refuted"
    assert cert["first_extension_matches_reference"]
    assert nu.bits.startswith(FIRST_EXTENSION_REFERENCE)
    assert time.time() - t0 < 180
    _stamp(10, t0, f"generate(200): length {cert['length']}, all admissible "
                   "words to length 4 occur, kneading-map clauses hold, both "
                   "checkers accept, ledger sound per step, first extension "
                   "matches the reference")


DETERMINISM_COMMANDS = [
    ["knead", "--nu", "1.0.0.0.101"],
    ["knead", "--q", "ex35", "--horizon", "64"],
    ["persistence", "--q", "fib", "--horizon", "100"],
    ["subcontinua", "--q", "ex35", "--horizon", "40"],
    ["genseq", "--length", "200"],
    ["density", "--slope", "9/5", "--K", "6", "--horizon", "64"],
    ["fmap", "--slope", "nonrec41:80", "--horizon", "64", "--grid", "16",
     "--max-cell", "2"],
]


def test_criterion_11_determinism(tmp_path, capsys):
    t0 = time.time()
    for argv in DETERMINISM_COMMANDS:
        outputs = []
        for run in (0, 1):
            path = tmp_path / f"{argv[0]}-{run}.json"
            code = cli_main(argv + ["--out", str(path)])
            capsys.readouterr()
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], argv
    _stamp(11, t0, f"{len(DETERMINISM_COMMANDS)} commands re-run: "
                   "byte-identical reports")
