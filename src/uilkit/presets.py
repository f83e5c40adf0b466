"""Named slope presets and input parsing helpers.

Two kinds of presets:

* algebraic roots (``golden``, ``tribonacci``, ``sqrt3``, ``cbrt6``) given
  as certified interval enclosures.  Each slope carries the sign bisection
  on its minimal polynomial as its root bracket, which ``SlopeParam.at``
  calls for a finer enclosure.  ``golden`` and ``tribonacci`` have finite
  critical orbits (the critical point returns exactly after 3 resp. 4
  steps), so they exercise exact-hit handling;
* kneading-matched rationals (``fib``, ``ex35``, ``nonrec41``, ``appendix``)
  found by bisection against a target kneading word to a requested depth.
  They are exact rationals certified to reproduce the target combinatorics
  for that many symbols, which is what every finite-horizon computation
  needs.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import ConfigError
from .kneading import _materialize_q, cascade_q, example35_q, fibonacci_q, \
    nonrecurrent_example_nu, nu_from_q
from .scalars import Scalar, SlopeParam, slope_exact, slope_for_prefix

DEFAULT_PRESET_DEPTH = 200


def _poly_root_enclosure(coeffs, lo, hi, bits):
    """Sign bisection for a polynomial with a single root in [lo, hi].

    Halves [lo, hi] until it is at most 2^-bits wide; a midpoint where p
    vanishes is returned exact.  The bracket is memoized, the Scalar is not:
    each call builds a fresh one.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    a, b, den, hit = _root_bracket(tuple(coeffs), lo, hi, bits)
    if hit:
        return Scalar.exact(Fraction(a, den))
    return Scalar(Fraction(a, den), Fraction(b, den), bits)


@functools.lru_cache(maxsize=256)
def _root_bracket(coeffs, lo, hi, bits):
    """The bisection in integers: bracket numerators over ``den``, hit flag.

    den = D 2^k, with D the lcm of the bracket's denominators and k the
    number of halvings the stop rule needs; these k guard bits put every
    midpoint on the grid g_j = a + j w of the final width w, so the ends
    equal those of a bisection in rationals.  p(m/den) den^deg is a Horner
    sum with the powers of den folded into the coefficients once.

    When ``_newton_root`` certifies p strictly monotone on [lo, inf), the
    grid points on the low end's side of the root form a prefix, so the
    bisection ends in the cell that holds the root, or at the root when it
    is an interior grid point.  Newton's estimate of that cell is accepted
    after sign checks at its two ends (one cell lower when the estimate
    sits just past a grid point); otherwise the k halvings run.
    Memoized, because each precision doubling of a preset slope asks for
    the same few keys again.
    """
    d = math.lcm(lo.denominator, hi.denominator)
    a, b = int(lo * d), int(hi * d)
    w = b - a
    k = max(0, (w << bits).bit_length() - d.bit_length())
    if w << bits > d << k:
        k += 1
    a, b, den = a << k, b << k, d << k
    scaled = [c * den ** i for i, c in enumerate(coeffs)]

    def p(m):
        acc = 0
        for c in scaled:
            acc = acc * m + c
        return acc

    neg_lo = p(a) < 0
    x = _newton_root(scaled, a, b)
    if x is not None:
        # x is not below the root, so the cell is x's or the one under it
        top = min(max((x - a) // w, 0), (1 << k) - 1)
        for j in range(top, max(top - 2, -1), -1):
            g = a + j * w
            if j:
                v = p(g)
                if v == 0:
                    return g, g, den, True
                if (v < 0) != neg_lo:       # g is past the root
                    continue
            if j + 1 == 1 << k:
                return g, g + w, den, False
            v = p(g + w)
            if v and (v < 0) != neg_lo:
                return g, g + w, den, False
            break
    for _ in range(k):
        mid = (a + b) >> 1
        v = p(mid)
        if v == 0:
            return mid, mid, den, True
        if (v < 0) == neg_lo:
            a = mid
        else:
            b = mid
    return a, b, den, False


def _newton_root(scaled, a, b):
    """A Newton estimate of the root of P(X) = sum scaled[i] X^(deg - i),
    or None unless P is certified strictly monotone on [a, inf).

    The certificate: the Taylor coefficients of P at a of order >= 1 all
    share the sign of P'(a) or vanish.  Then P is monotone and convex (or
    concave) there, so Newton's iterates from b, each step rounded toward
    zero, are past the root after at most one step, approach it from there
    and stop within a unit; P' has no zero on [a, inf), where they stay.
    """
    taylor, cs = [], scaled
    while cs:                           # synthetic division by X - a
        acc, quotient = 0, []
        for c in cs:
            acc = acc * a + c
            quotient.append(acc)
        taylor.append(quotient.pop())
        cs = quotient
    if len(taylor) < 2 or taylor[1] == 0 or \
            any((t < 0) != (taylor[1] < 0) for t in taylor[2:] if t):
        return None
    x = b
    for _ in range(256):
        v = dv = 0
        for c in scaled:
            dv = dv * x + v
            v = v * x + c
        step = v // dv if (v < 0) == (dv < 0) else -(-v // dv)
        if not step:
            return x
        x -= step
        if x < a:                       # the root is below the bracket
            return a
    return None


def _algebraic_slope(name, coeffs, lo, hi, bits) -> SlopeParam:
    def bracket(p):
        return _poly_root_enclosure(coeffs, lo, hi, p)

    return SlopeParam(bracket(bits), name, bracket)


def golden_slope(bits: int = 128) -> SlopeParam:
    """Root of x^2 - x - 1: the critical point is 3-periodic."""
    return _algebraic_slope("golden", (1, -1, -1), Fraction(3, 2),
                            Fraction(7, 4), bits)


def tribonacci_slope(bits: int = 128) -> SlopeParam:
    """Root of x^3 - x^2 - x - 1: the critical point is 4-periodic."""
    return _algebraic_slope("tribonacci", (1, -1, -1, -1), Fraction(7, 4),
                            Fraction(15, 8), bits)


def sqrt3_slope(bits: int = 192) -> SlopeParam:
    """Root of x^2 - 3: a generic algebraic slope with infinite orbit."""
    return _algebraic_slope("sqrt3", (1, 0, -3), Fraction(3, 2),
                            Fraction(15, 8), bits)


def cbrt6_slope(bits: int = 192) -> SlopeParam:
    """Root of x^3 - 6: a generic algebraic slope with infinite orbit."""
    return _algebraic_slope("cbrt6", (1, 0, 0, -6), Fraction(3, 2),
                            Fraction(15, 8), bits)


def fibonacci_slope(depth: int = DEFAULT_PRESET_DEPTH) -> SlopeParam:
    target = nu_from_q(fibonacci_q, depth)
    return slope_for_prefix(target.bits, name="fib")


def example35_slope(depth: int = DEFAULT_PRESET_DEPTH) -> SlopeParam:
    target = nu_from_q(example35_q, depth)
    return slope_for_prefix(target.bits, name="ex35")


def nonrecurrent_slope(depth: int = DEFAULT_PRESET_DEPTH) -> SlopeParam:
    target = nonrecurrent_example_nu(depth)
    return slope_for_prefix(target.bits, name="nonrec41")


def appendix_slope(depth: int = DEFAULT_PRESET_DEPTH) -> SlopeParam:
    from .seqgen import generate
    nu, _, _ = generate(max(depth, 7))
    return slope_for_prefix(nu.bits[:depth], name="appendix")


_KNEADING_PRESETS = {
    "fib": fibonacci_slope,
    "ex35": example35_slope,
    "nonrec41": nonrecurrent_slope,
    "appendix": appendix_slope,
}

_ALGEBRAIC_PRESETS = {
    "golden": golden_slope,
    "tribonacci": tribonacci_slope,
    "sqrt3": sqrt3_slope,
    "cbrt6": cbrt6_slope,
}


def parse_slope(text: str, depth: int = DEFAULT_PRESET_DEPTH) -> SlopeParam:
    """Slope inputs: exact rationals/decimals, intervals, or preset names.

    ``1.84``, ``9/5``, ``fib``, ``fib:300`` (preset to a depth),
    ``sqrt3:256`` (first enclosure to 256 bits), ``interval:1.79,1.80``.  A
    bare kneading-matched name is matched to ``depth`` symbols.  A preset
    suffix below 1 is refused.
    """
    text = text.strip()
    if ":" in text:
        head, _, rest = text.partition(":")
        if head == "interval":
            lo, _, hi = rest.partition(",")
            from .scalars import slope_interval
            try:
                return slope_interval(Fraction(lo), Fraction(hi), name=text)
            except (ValueError, ZeroDivisionError):
                raise ConfigError(f"cannot parse slope interval {rest!r}")
        make = _KNEADING_PRESETS.get(head) or _ALGEBRAIC_PRESETS.get(head)
        if make is None:
            raise ConfigError(f"unknown slope preset {head!r}")
        try:
            depth = int(rest)
        except ValueError:
            raise ConfigError(f"cannot parse preset depth {rest!r}")
        if depth < 1:
            raise ConfigError(f"preset suffix must be >= 1, got {depth}")
        return make(depth)
    if text in _KNEADING_PRESETS:
        return _KNEADING_PRESETS[text](depth)
    if text in _ALGEBRAIC_PRESETS:
        return _ALGEBRAIC_PRESETS[text]()
    try:
        return slope_exact(Fraction(text), name=text)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse slope {text!r}")


def parse_q(text: str, horizon: int):
    """Kneading-map inputs: preset names or a comma-separated list."""
    named = {"fib": fibonacci_q, "ex35": example35_q, "cascade": cascade_q}
    text = text.strip()
    if text in named:
        return _materialize_q(named[text], horizon), text
    try:
        return [int(tok) for tok in text.replace(",", " ").split()], "literal"
    except ValueError:
        raise ConfigError(f"cannot parse kneading map {text!r}")
