"""Checks of the scalar kernel and the kneading layer that need only the
standard library.

For interpreters without pytest or hypothesis:

    PYTHONPATH=src python tests/stdlib_check.py

It checks that a ``Fraction`` built by setting its two slots (the path the
tent step builds its results through, ``scalars._frac``) behaves as the
``Fraction`` of the same pair in every use the toolkit makes of it, and
that three critical orbits, on an exact, an algebraic and a
decimal-interval slope, hash to the digest pinned below, which the
``Fraction`` implementation of the tent step gave.

A second digest covers the branch-preimage path: every closest precritical
pair ``PrecriticalTable.pair(k)`` (z, zhat and z_natural, their ends and
precisions) for k = -1 .. max_k of a 120-symbol kneading prefix, and one
pull-back chain from [1/4, 1] along a fixed 30-symbol word, on the slopes
sqrt3, cbrt6, 9/5 and a 10^-40-wide interval around 1.8393.  It was recorded
while algebraic enclosures still carried recomputation closures, so it pins
that dropping them changed no end, precision or chain flag.

A third digest covers the kneading layer: ``cutting_data`` (every field, or
the ``NotAdmissible`` position and reason), ``admissible_disjoint`` and
``admissible_q`` verdicts, and ``nu_from_q`` words or exception texts, on the
fib, ex35, nonrec and generator words, their truncations and seeded
one-symbol mutations, a fixed list of refuted words, and seeded ``Q`` lists
with negative, too-large and lex-violating values.  It was recorded with the
per-symbol scans that the common-prefix primitive ``kneading._lcp`` replaced.

A fourth digest covers the layers above the kernel: ``tower_levels`` (both
level Scalars and ``length`` per level) on 9/5, sqrt3, cbrt6 and a
10^-40-wide interval, the criterion-8 folding battery's verdicts on exact,
algebraic and interval slopes at several ``eps`` (zero and negative among
them), and ``word_image_interval`` on every word up to 8 symbols and seeded
longer ones, in both domains.  It was recorded with the ``Fraction``
versions of ``level_ends``, ``tower_levels``, ``folding_verdict`` and
``word_image_interval`` that the integer ones replaced.

A fifth digest covers the library surface that the classification reaches
users through: ``endpoint_verdict`` and ``classification_report`` on the
benchmark itineraries and on periodic-pumping words, ``basic_arc_interval``
in core mode, ``long_branched_evidence``, ``closest_precriticals``,
``cutting_value_gaps``, the kneading-map consumers (``classify_chain``,
``find_qcond_chains``, ``nasty_cascade_rule``, ``renorm_scan``,
``q_asymptotics``, ``admissible_q``, ``nu_from_q``) on callables and lists,
``build_chain``, ``generate``, ``slope_for_prefix`` and ``f_apply``.  It was
recorded while those functions still took settable values that no caller
set, and it calls them only with arguments both versions accept.

A sixth digest covers the tower of an exact slope p/q at depth:
``tower_levels`` (both level Scalars and ``length`` per level) and
``long_branched_evidence`` on odd q (9/5), even q (7/4, 13/8), q = 1
(s = 2) and a 64-bit q, at N = 0, small N, an N whose last level is a
cutting time and N = 600.  It was recorded with the ``Fraction`` induction
and ``_diff`` lengths that the integer-pair induction replaced.
"""

import copy
import hashlib
import itertools
import operator
import pickle
import random
from fractions import Fraction
from math import gcd

from uilkit.hofbauer import (OrbitTable, PrecriticalTable,
                             closest_precriticals, cutting_value_gaps,
                             f_apply, long_branched_evidence, tower_levels)
from uilkit.inverse_limit import (BackwardWord, TwoSidedItinerary,
                                  basic_arc_interval, classification_report,
                                  endpoint_verdict, folding_verdict,
                                  parse_itinerary, pull_back, tau_data,
                                  word_image_interval)
from uilkit.errors import NotAdmissible, UilkitError
from uilkit.kneading import (KneadingPrefix, admissible_disjoint,
                             admissible_q, cascade_q, cutting_data,
                             example35_q, fibonacci_q,
                             nonrecurrent_example_nu, nu_from_orbit,
                             nu_from_q, q_asymptotics, renorm_scan)
from uilkit.presets import parse_slope
from uilkit.scalars import (Scalar, _frac, critical_orbit, slope_exact,
                            slope_for_prefix, slope_interval)
from uilkit.seqgen import generate
from uilkit.subcontinua import (build_chain, classify_chain,
                                find_qcond_chains, nasty_cascade_rule)

ORBIT_DIGEST = "4ee8f2903c8ac3e6ca60262fcd351d6ba0a46f0a763b87d9f18a740ddf981f09"
PRECRITICAL_DIGEST = \
    "cca2e1830b435b61d8afc6d21fbcf53583748e2a3bb1b5c8541822f391490b02"
KNEADING_DIGEST = \
    "99cb070f664af0baa8aaacc4ea3b09b0bce023634d9f56ab61dc180f27335e1b"
TOWER_DIGEST = \
    "22dec4ba9d72d3ce5513006fe79a2bb2452d210ca2d69360cc1940ec0fd9d06b"
SURFACE_DIGEST = \
    "8fa8ebc9ee9b6a48f7ea052b8596cec144c4d905bd5bb08f6445e855fdecf774"
EXACT_TOWER_DIGEST = \
    "4e89918ca3071f5bb543102b4757af2e8ccccb512adf003f5166362188cee368"
PULLBACK_WORD = "110101101110101101011101101011"
REFUTED_WORDS = ("11", "100", "1001", "10000", "1011", "10010", "1000100",
                 "10011100", "1001110110", "1000101000", "10001011001")


_FRACTION_OPS = (operator.add, operator.sub, operator.mul, operator.truediv,
                 operator.lt, operator.le, operator.eq, operator.ne,
                 operator.gt, operator.ge)


def check_fraction_from_pair(pairs=3000, seed=5):
    rng = random.Random(seed)
    for _ in range(pairs):
        bits = rng.choice((8, 64, 512, 2048))
        n = rng.randrange(-(1 << bits), 1 << bits)
        d = 1 << rng.randrange(bits) if rng.random() < 0.5 else \
            rng.randrange(1, 1 << bits)
        g = gcd(n, d)
        n, d = n // g, d // g
        f, ref = _frac(n, d), Fraction(n, d)
        assert type(f) is Fraction, type(f)
        assert (f.numerator, f.denominator) == (ref.numerator, ref.denominator)
        assert f == ref and hash(f) == hash(ref) and str(f) == str(ref)
        for twin in (pickle.loads(pickle.dumps(f)), copy.copy(f),
                     copy.deepcopy(f)):
            assert type(twin) is Fraction and twin == ref
            assert (twin.numerator, twin.denominator) == (n, d)
        other = Fraction(rng.randrange(-99, 100), rng.randrange(1, 100))
        for y in (other, other.numerator, _frac(other.numerator,
                                                 other.denominator)):
            for op in _FRACTION_OPS:
                if op is not operator.truediv or y:
                    assert op(f, y) == op(ref, y)
                if op is not operator.truediv or f:
                    assert op(y, f) == op(y, ref)
    # taken as is: no gcd runs on the pair
    f = _frac(6, 4)
    assert (f.numerator, f.denominator) == (6, 4)


def _interval_slope():
    half = Fraction(1, 10 ** 40)
    return slope_interval(Fraction("1.8393") - half, Fraction("1.8393") + half)


def _hash_ends(h, x):
    h.update(f"{x.lo.numerator}/{x.lo.denominator},"
             f"{x.hi.numerator}/{x.hi.denominator},"
             f"{x.precision_bits}".encode())


def orbit_digest():
    slopes = (slope_exact(Fraction(9, 5)), parse_slope("sqrt3"),
              _interval_slope())
    h = hashlib.sha256()
    for slope in slopes:
        for x, sign in critical_orbit(slope, 150, allow_unresolved=True):
            _hash_ends(h, x)
            h.update(f",{sign.value};".encode())
    return h.hexdigest()


def precritical_digest():
    slopes = (parse_slope("sqrt3"), parse_slope("cbrt6"),
              slope_exact(Fraction(9, 5)), _interval_slope())
    h = hashlib.sha256()
    for slope in slopes:
        kd = cutting_data(nu_from_orbit(slope, 120))
        table = PrecriticalTable(slope, kd)
        for k in range(-1, kd.max_k + 1):
            pair = table.pair(k)
            for x in (pair.z, pair.zhat, pair.z_natural):
                _hash_ends(h, x)
                h.update(b";")
        chain = pull_back((Scalar.exact(Fraction(1, 4)), Scalar.exact(1)),
                          PULLBACK_WORD, slope)
        h.update(f"{chain.monotone_prefix},{chain.complete},"
                 f"{chain.joined};".encode())
        for a, b in chain.intervals:
            for x in (a, b):
                _hash_ends(h, x)
                h.update(b";")
    return h.hexdigest()


def _kneading_words(rng):
    bases = [nu_from_q(fibonacci_q, 3000).bits,
             nu_from_q(example35_q, 3000).bits,
             nonrecurrent_example_nu(3000).bits, generate(200)[0].bits]
    words = list(REFUTED_WORDS)
    for bits in bases:
        words += [bits[:n]
                  for n in (1, 2, 3, 7, 20, 199, 200, 1000, len(bits))]
        for _ in range(40):
            n = rng.randrange(2, len(bits) + 1)
            i = rng.randrange(1, n)
            flip = "1" if bits[i] == "0" else "0"
            words.append(bits[:i] + flip + bits[i + 1:n])
    for _ in range(200):
        words.append("1" + "".join(rng.choice("01")
                                   for _ in range(rng.randrange(0, 40))))
    return words


def _q_lists(rng, qs_of_words):
    lists = [list(qs) for qs in qs_of_words if qs]
    for qs in list(lists):
        for _ in range(3):
            mutated = list(qs)
            k = rng.randrange(len(mutated))
            mutated[k] = rng.choice((-1, -3, k + 1, k + 2,
                                     rng.randrange(k + 1), max(k - 1, 0)))
            lists.append(mutated)
    for _ in range(300):
        m = rng.randrange(2, 30)
        lists.append([rng.randrange(-1, k + 1) if rng.random() < 0.1
                      else rng.randrange(0, k) for k in range(1, m)])
    return lists


def kneading_digest(seed=11):
    rng = random.Random(seed)
    h = hashlib.sha256()
    qs_of_words = []
    for bits in _kneading_words(rng):
        nu = KneadingPrefix(bits)
        try:
            kd = cutting_data(nu)
        except NotAdmissible as err:
            h.update(f"NA {err.position} {err}|".encode())
        else:
            beta = tuple(map(kd.beta_of, range(1, kd.horizon + 1)))
            h.update(repr((kd.S, kd.Q, beta, kd.cocut, kd.cocut_censored,
                           kd.horizon, kd.kappa)).encode())
            qs_of_words.append(kd.Q)
            h.update(repr(admissible_q(list(kd.Q)).to_json()).encode())
        h.update(repr(admissible_disjoint(nu).to_json()).encode())
    for qs in _q_lists(rng, qs_of_words):
        for horizon in (None, 1, len(qs) // 2 + 1, len(qs) + 3):
            verdict = admissible_q(qs, horizon=horizon)
            h.update(repr(verdict.to_json()).encode())
        for horizon in (1, 2, len(qs), 3 * len(qs) + 5):
            try:
                h.update(nu_from_q(qs, horizon).bits.encode())
            except NotAdmissible as err:
                h.update(f"NA {err.position} {err}|".encode())
    for q in (fibonacci_q, example35_q):
        for horizon in (1, 5, 30, 200):
            h.update(repr(admissible_q(q, horizon=horizon).to_json()).encode())
            h.update(nu_from_q(q, horizon).bits.encode())
    return h.hexdigest()


def _folding_battery(slope):
    s = slope.s.lo
    r = Scalar.exact(s / (1 + s))
    return (TwoSidedItinerary(BackwardWord("", "1"), "1" * 10, x0=r),
            TwoSidedItinerary(BackwardWord("0", "1"), "1" * 10, x0=r),
            TwoSidedItinerary(BackwardWord("", "0"), "0" * 10,
                              x0=Scalar.exact(Fraction(1, 97))),
            TwoSidedItinerary(BackwardWord("", "01"), "01" * 5,
                              x0=Scalar.exact(s / (1 + s * s))))


def tower_digest(seed=13):
    rng = random.Random(seed)
    h = hashlib.sha256()
    for slope in (slope_exact(Fraction(9, 5)), parse_slope("sqrt3"),
                  parse_slope("cbrt6"), _interval_slope()):
        kd = cutting_data(nu_from_orbit(slope, 120))
        for lv in tower_levels(kd, slope, kd.horizon):
            h.update(f"{lv.n},{lv.beta_n},{lv.contains_c};".encode())
            for x in lv.numeric + (lv.length,):
                _hash_ends(h, x)
                h.update(b";")
    nonrec = slope_for_prefix(nonrecurrent_example_nu(180).bits)
    for slope in (nonrec, parse_slope("sqrt3"), _interval_slope()):
        nu = nu_from_orbit(slope, 120)
        for it in _folding_battery(slope):
            for eps in (Fraction(1, 256), Fraction(1, 1000),
                        Fraction(1, 1 << 20), Fraction(0), Fraction(-1, 256)):
                for depth, proxy_len in ((64, 120), (16, 40)):
                    v = folding_verdict(it, slope, nu, depth=depth, eps=eps,
                                        proxy_len=proxy_len)
                    h.update(repr(v.to_json()).encode())
    words = ["".join(w) for n in range(1, 9)
             for w in itertools.product("01", repeat=n)]
    words += ["".join(rng.choice("01") for _ in range(rng.randrange(9, 60)))
              for _ in range(200)]
    for s in (Fraction(9, 5), Fraction(3, 2), Fraction(2), Fraction(7, 4),
              nonrec.s.value):
        slope = slope_exact(s)
        for domain in ("unit", "core"):
            for w in words:
                h.update(repr(word_image_interval(slope, w, domain)).encode())
    return h.hexdigest()


def _feed(h, obj):
    """Hash a report value canonically; integers in hex, so exact values of
    any size pass (the int-to-str limit covers only decimal)."""
    if hasattr(obj, "to_json"):
        obj = obj.to_json()
    if isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=str):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, Fraction):
        h.update(f"{obj.numerator:x}/{obj.denominator:x};".encode())
    elif isinstance(obj, int) and not isinstance(obj, bool):
        h.update(f"{obj:x};".encode())
    else:
        h.update(f"{obj!r};".encode())


def _feed_call(h, fn, *args, **kwargs):
    """Hash fn's result, or the type and text of the uilkit error it raises."""
    try:
        out = fn(*args, **kwargs)
    except UilkitError as err:
        out = f"{type(err).__name__}: {err}"
    _feed(h, out)
    return out


SURFACE_ITINERARIES = ("(1)^inf .1111", "(0)^inf .0000", "(01)^inf .0101",
                       "...100110.01", "(110)^inf .11")
PUMPING = ((KneadingPrefix("1011011011", periodic_tail=(1, 3)),
            (("", "011"), ("", "101"), ("", "110"), ("0", "11"), ("1", None))),
           (KneadingPrefix("1101010", periodic_tail=(1, 2)),
            (("", "01"), ("", "10"), ("1", "10"), ("0100", None))))


def _surface_points(h):
    """endpoint_verdict, classification_report and the core-mode arc."""
    for target in (nonrecurrent_example_nu(120).bits,
                   nu_from_q(fibonacci_q, 120).bits):
        slope = slope_for_prefix(target)
        nu = nu_from_orbit(slope, 120)
        kd = cutting_data(nu)
        orbit = OrbitTable(slope)
        s = slope.s.value
        fixed = TwoSidedItinerary(BackwardWord("", "1"), "1" * 10,
                                  x0=Scalar.exact(s / (1 + s)))
        for it in [fixed] + [parse_itinerary(t) for t in SURFACE_ITINERARIES]:
            _feed_call(h, endpoint_verdict, it, nu)
            _feed_call(h, endpoint_verdict, it, nu, depth=24)
            _feed_call(h, classification_report, it, nu, slope, kd, depth=32,
                       orbit=orbit)
            _feed_call(h, classification_report, it, nu, depth=32)
            td = tau_data(it.backward, nu, 32)
            _feed_call(h, basic_arc_interval, td, orbit, kd=kd, mode="core")
            _feed_call(h, basic_arc_interval, td, orbit, mode="core")
    for pnu, backs in PUMPING:
        for symbols, block in backs:
            it = TwoSidedItinerary(BackwardWord(symbols, block))
            for depth in (4, 16, 256):
                _feed_call(h, endpoint_verdict, it, pnu, depth=depth)
            _feed_call(h, classification_report, it, pnu, depth=16)
    return slope, kd


def _surface_q(h):
    """Every kneading-map consumer on callables and on lists."""
    nonrec_q = list(cutting_data(nonrecurrent_example_nu(300)).Q)
    cases = [(q, horizon) for q in (fibonacci_q, example35_q, cascade_q)
             for horizon in (6, 20, 40)]
    cases += [([q(k) for k in range(1, 61)], horizon)
              for q in (fibonacci_q, example35_q, cascade_q)
              for horizon in (6, 40, 60)]
    cases += [(nonrec_q, 20), (nonrec_q, len(nonrec_q)),
              ([0, 0, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2], 14),
              ([0, 1, 5, 0], 4), ([0, 0, -1, 2], 4)]
    for q, horizon in cases:
        for variant in ("strict", "relaxed"):
            res = _feed_call(h, find_qcond_chains, q, horizon, variant=variant)
            for chain in list(res["chains"])[:4] + [res["greedy"]]:
                _feed_call(h, classify_chain, chain, q)
        _feed_call(h, nasty_cascade_rule, q, horizon)
        _feed_call(h, nasty_cascade_rule, q, horizon, 2)
        _feed_call(h, renorm_scan, q, horizon)
        _feed_call(h, q_asymptotics, q, horizon)
        _feed_call(h, admissible_q, q, horizon=horizon)
        _feed_call(h, nu_from_q, q, horizon)
        for chain in ((2, 5), tuple(3 * i - 1 for i in range(1, 12)),
                      (4, 8, 12, 16, 20, 24, 28), (1, 2, 3, 4)):
            _feed_call(h, classify_chain, chain, q)
        if not callable(q):
            _feed_call(h, q_asymptotics, q)
            _feed_call(h, admissible_q, q)
    for q in (fibonacci_q, example35_q):
        _feed_call(h, q_asymptotics, q)
        _feed_call(h, admissible_q, q)


def surface_digest():
    h = hashlib.sha256()
    fib_slope, fib_kd = _surface_points(h)
    _surface_q(h)
    sqrt3 = parse_slope("sqrt3")
    sqrt3_kd = cutting_data(nu_from_orbit(sqrt3, 120))
    nonrec_kd = cutting_data(nonrecurrent_example_nu(180))
    cascade_kd = cutting_data(nu_from_q(cascade_q, 600))
    for kd in (fib_kd, nonrec_kd, cascade_kd, sqrt3_kd):
        _feed_call(h, long_branched_evidence, kd)
    for slope, kd in ((fib_slope, fib_kd), (sqrt3, sqrt3_kd)):
        _feed_call(h, long_branched_evidence, kd, 60, slope)
        for K, eps in ((1, Fraction(1, 20)), (8, Fraction(1, 20)),
                       (8, Fraction(1, 2))):
            _feed_call(h, cutting_value_gaps, slope, K, eps, kd)
    for slope, upto_k in ((fib_slope, 6), (slope_exact(Fraction(9, 5)), 4),
                          (sqrt3, 5), (slope_exact(2), 0)):
        _feed_call(h, closest_precriticals, slope, upto_k)
    # chains realized numerically, strict and relaxed
    ex35 = slope_for_prefix(nu_from_q(example35_q, 120).bits)
    ex35_kd = cutting_data(nu_from_orbit(ex35, 120))
    zp = PrecriticalTable(ex35, ex35_kd)
    _feed_call(h, build_chain, ex35, (2, 5, 8, 11), zp, variant="strict",
               bisect_bits=48)
    _feed_call(h, build_chain, ex35, (2, 5, 9), zp, variant="strict")
    _feed_call(h, build_chain, ex35, (2,), zp)
    zp = PrecriticalTable(fib_slope, fib_kd)
    greedy = find_qcond_chains(fibonacci_q, fib_kd.max_k,
                               variant="relaxed")["greedy"][:5]
    _feed_call(h, build_chain, fib_slope, greedy, zp, variant="relaxed",
               bisect_bits=40)
    orbit = zp.orbit
    points = [orbit.value(fib_kd.S[k]) for k in range(6)]
    points += [Scalar.exact(orbit.value(2).value + (orbit.value(1).value
                                                    - orbit.value(2).value)
                            * Fraction(i, 17)) for i in range(0, 18)]
    for x in points:
        _feed_call(h, f_apply, fib_slope, x, zp)
    for length in (7, 25, 200):
        _feed_call(h, generate, length)
    for target in (nu_from_q(fibonacci_q, 120).bits,
                   nu_from_q(example35_q, 120).bits,
                   nonrecurrent_example_nu(120).bits):
        _feed(h, slope_for_prefix(target).s.lo)
    return h.hexdigest()


_Q64 = (1 << 64) - 59
EXACT_TOWER_SLOPES = (Fraction(9, 5), Fraction(7, 4), Fraction(13, 8),
                      Fraction(2), Fraction(_Q64 + 0x9E3779B97F4A7C15, _Q64))


def exact_tower_digest(horizon=600):
    h = hashlib.sha256()
    for s in EXACT_TOWER_SLOPES:
        slope = slope_exact(s)
        kd = cutting_data(nu_from_orbit(slope, horizon))
        last_cut = max(S for S in kd.S if S <= horizon)
        for N in (0, 1, 2, 37, last_cut, horizon):
            levels = tower_levels(kd, slope, N)
            for lv in levels:
                _feed(h, (lv.n, lv.beta_n, lv.contains_c))
                for x in lv.numeric + (lv.length,):
                    _feed(h, (x.lo, x.hi, x.precision_bits))
            if N:
                _feed_call(h, long_branched_evidence, kd, N, slope, levels)
    return h.hexdigest()


def main():
    check_fraction_from_pair()
    digest = orbit_digest()
    assert digest == ORBIT_DIGEST, digest
    assert precritical_digest() == PRECRITICAL_DIGEST, precritical_digest()
    assert kneading_digest() == KNEADING_DIGEST, kneading_digest()
    assert tower_digest() == TOWER_DIGEST, tower_digest()
    assert surface_digest() == SURFACE_DIGEST, surface_digest()
    assert exact_tower_digest() == EXACT_TOWER_DIGEST, exact_tower_digest()
    print("ok", digest[:16])


if __name__ == "__main__":
    main()
