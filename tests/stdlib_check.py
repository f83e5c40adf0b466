"""Checks of the scalar kernel that need only the standard library.

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
"""

import hashlib
import random
from fractions import Fraction
from math import gcd

from uilkit.hofbauer import PrecriticalTable
from uilkit.inverse_limit import pull_back
from uilkit.kneading import cutting_data, nu_from_orbit
from uilkit.presets import parse_slope
from uilkit.scalars import (Scalar, _Coprime, critical_orbit, slope_exact,
                            slope_interval)

ORBIT_DIGEST = "4ee8f2903c8ac3e6ca60262fcd351d6ba0a46f0a763b87d9f18a740ddf981f09"
PRECRITICAL_DIGEST = \
    "cca2e1830b435b61d8afc6d21fbcf53583748e2a3bb1b5c8541822f391490b02"
PULLBACK_WORD = "110101101110101101011101101011"


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


def main():
    check_fraction_from_pair()
    digest = orbit_digest()
    assert digest == ORBIT_DIGEST, digest
    assert precritical_digest() == PRECRITICAL_DIGEST, precritical_digest()
    print("ok", digest[:16])


if __name__ == "__main__":
    main()
