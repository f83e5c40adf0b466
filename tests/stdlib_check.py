"""Checks of the scalar kernel and the kneading layer that need only the
standard library.

For interpreters without pytest or hypothesis:

    PYTHONPATH=src python tests/stdlib_check.py

It checks that ``Fraction`` takes the numerator and denominator of a
``numbers.Rational`` as they are (the path the tent step builds its results
through), and that three critical orbits, on an exact, an algebraic and a
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
"""

import hashlib
import itertools
import random
from fractions import Fraction
from math import gcd

from uilkit.hofbauer import PrecriticalTable, tower_levels
from uilkit.inverse_limit import (BackwardWord, TwoSidedItinerary,
                                  folding_verdict, pull_back,
                                  word_image_interval)
from uilkit.errors import NotAdmissible
from uilkit.kneading import (KneadingPrefix, admissible_disjoint,
                             admissible_q, cutting_data, example35_q,
                             fibonacci_q, nonrecurrent_example_nu,
                             nu_from_orbit, nu_from_q)
from uilkit.presets import parse_slope
from uilkit.scalars import (Scalar, _Coprime, critical_orbit, slope_exact,
                            slope_for_prefix, slope_interval)
from uilkit.seqgen import generate

ORBIT_DIGEST = "4ee8f2903c8ac3e6ca60262fcd351d6ba0a46f0a763b87d9f18a740ddf981f09"
PRECRITICAL_DIGEST = \
    "cca2e1830b435b61d8afc6d21fbcf53583748e2a3bb1b5c8541822f391490b02"
KNEADING_DIGEST = \
    "99cb070f664af0baa8aaacc4ea3b09b0bce023634d9f56ab61dc180f27335e1b"
TOWER_DIGEST = \
    "22dec4ba9d72d3ce5513006fe79a2bb2452d210ca2d69360cc1940ec0fd9d06b"
PULLBACK_WORD = "110101101110101101011101101011"
REFUTED_WORDS = ("11", "100", "1001", "10000", "1011", "10010", "1000100",
                 "10011100", "1001110110", "1000101000", "10001011001")


def check_fraction_from_pair(pairs=3000, seed=5):
    rng = random.Random(seed)
    for _ in range(pairs):
        bits = rng.choice((8, 64, 512, 2048))
        n = rng.randrange(-(1 << bits), 1 << bits)
        d = 1 << rng.randrange(bits) if rng.random() < 0.5 else \
            rng.randrange(1, 1 << bits)
        g = gcd(n, d)
        n, d = n // g, d // g
        f, ref = Fraction(_Coprime(n, d)), Fraction(n, d)
        assert type(f) is Fraction, type(f)
        assert (f.numerator, f.denominator) == (ref.numerator, ref.denominator)
    # taken as is: no gcd runs on the pair
    f = Fraction(_Coprime(6, 4))
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
            h.update(repr((kd.S, kd.Q, kd.beta, kd.cocut, kd.cocut_censored,
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


def main():
    check_fraction_from_pair()
    digest = orbit_digest()
    assert digest == ORBIT_DIGEST, digest
    assert precritical_digest() == PRECRITICAL_DIGEST, precritical_digest()
    assert kneading_digest() == KNEADING_DIGEST, kneading_digest()
    assert tower_digest() == TOWER_DIGEST, tower_digest()
    print("ok", digest[:16])


if __name__ == "__main__":
    main()
