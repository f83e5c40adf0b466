"""Checks of the scalar kernel that need only the standard library.

For interpreters without pytest or hypothesis:

    PYTHONPATH=src python tests/stdlib_check.py

It checks that ``Fraction`` takes the numerator and denominator of a
``numbers.Rational`` as they are (the path the tent step builds its results
through), and that three critical orbits, on an exact, a dyadic-interval and
a decimal-interval slope, hash to the digest pinned below, which the
``Fraction`` implementation of the tent step gave.
"""

import hashlib
import random
from fractions import Fraction
from math import gcd

from uilkit.presets import parse_slope
from uilkit.scalars import (_Coprime, critical_orbit, slope_exact,
                            slope_interval)

ORBIT_DIGEST = "4ee8f2903c8ac3e6ca60262fcd351d6ba0a46f0a763b87d9f18a740ddf981f09"


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


def orbit_digest():
    half = Fraction(1, 10 ** 40)
    slopes = (slope_exact(Fraction(9, 5)), parse_slope("sqrt3"),
              slope_interval(Fraction("1.8393") - half,
                             Fraction("1.8393") + half))
    h = hashlib.sha256()
    for slope in slopes:
        for x, sign in critical_orbit(slope, 150, allow_unresolved=True):
            h.update(f"{x.lo.numerator}/{x.lo.denominator},"
                     f"{x.hi.numerator}/{x.hi.denominator},"
                     f"{x.precision_bits},{sign.value};".encode())
    return h.hexdigest()


def main():
    check_fraction_from_pair()
    digest = orbit_digest()
    assert digest == ORBIT_DIGEST, digest
    print("ok", digest[:16])


if __name__ == "__main__":
    main()
