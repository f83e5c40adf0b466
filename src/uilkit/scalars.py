"""Certified scalar arithmetic and tent-map iteration.

Values are exact rationals or intervals with rational endpoints.  Every
decision made on such values (in particular the sign of ``x - c`` for the
critical point ``c = 1/2``) is either provably correct or explicitly
unresolved; there is no silently rounding fast path.

The tent map with slope ``s`` is ``T_s(x) = min(s*x, s*(1-x))`` on [0, 1],
normalized so the critical point is always 1/2.  The same interval formula
evaluates both the enclosure of ``T(point)`` and the set image ``T([a, b])``,
because ``T`` attains its maximum ``s/2`` inside any interval straddling c.

Intervals carry a working precision (``precision_bits``); non-exact results
are rounded outward onto the dyadic grid of that precision so denominators
stay bounded along long orbits.  A value keeps no record of how it was
computed.  The only refinable object is the slope: an algebraic preset
carries its root bracket, and ``SlopeParam.at(bits)`` encloses the root at
2^-bits.  Precision escalates by re-deriving from that slope, as
``critical_orbit`` does for a whole orbit and ``refine`` for one orbit value
(intersected with the old enclosure, so refinement never widens).

The tent step, the branch preimages, the sign test against c, the
reflection ``1 - x``, the grid rounding and ``_diff`` work on the endpoints'
integer numerators and denominators: a product of two fractions in lowest
terms is reduced by the two cross gcds, a difference by ``Fraction``'s two
gcds, and a power of two in either enters by shifts (a dyadic end's
numerator is odd unless it is an integer), as does rounding onto the
2^-bits grid.  The results are the same reduced ``Fraction``s that
``Fraction`` arithmetic gives, built without a renormalising gcd.

The critical orbit of an exact slope s = p/q runs on one integer recurrence
(``_exact_orbit``): c_n = a_n / (2 q^n) with a_0 = 1 and
a_{n+1} = p * min(a_n, 2 q^n - a_n), so c_n > c exactly when a_n > q^n.
For q > 1, a_n stays coprime to q, so c_n never equals c or repeats, and
its one common factor with 2 q^n is a 2 when a_n is even; that gives the
reduced ``Fraction`` with no gcd.  ``tent_apply`` serves interval slopes
(their tower's induction among them) and set images; the tower of an exact
slope reruns the recurrence on its own integer pairs to cross-check it.

Kneading words need only signs, so ``_ball_signs`` carries c_n and s as
integer balls [L, H] / 2^W, rounded outward at every step (the ball
arithmetic of Arb: F. Johansson, IEEE Trans. Computers 66, 2017).  Kneading
words are monotone in s (Milnor and Thurston, LNM 1342, 1988), so certified
signs are all a bisection on s needs.  Two kernels share that step:

* the probe behind ``slope_for_prefix`` starts at W = bits(q) + 64 and
  doubles W, with a restart, when a sign is undecided; so does
  ``_critical_word`` for an exact slope with q of more than 32 bits, from
  W = bits(q) + N + 64 (below that, the integer recurrence is cheaper);
* ``_critical_word`` for an interval slope runs the ball at W = B at each
  precision B of the schedule of ``critical_orbit`` (``_escalate``), on
  ``slope.at(B)`` rounded outward onto the 2^-B grid.  The interval
  formula of ``tent_apply`` and outward rounding onto one grid are both
  inclusion-isotone: a ball whose ends lie on the 2^-B grid and bound the
  exact image also bounds its rounding onto that grid.  So the ball holds
  the ``Scalar`` enclosure of every c_n at B, and each sign it decides is
  the sign ``critical_orbit`` decides at B.  At W > B the orbit's coarser
  rounding can leave the ball, so W is B.  At the first sign the ball
  leaves undecided, the ``Scalar`` orbit runs once at the same B
  (``_orbit_pass``) and its verdict stands: every sign resolved returns the
  word, an unresolved one goes on to the next B, or at the cap raises the
  PrecisionExhausted that ``critical_orbit`` raises.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional

from .errors import DomainError, PrecisionExhausted, UnresolvedComparison
from .verdicts import approx

C = Fraction(1, 2)
ONE = Fraction(1)
TWO = Fraction(2)

DEFAULT_PRECISION = 128
DEFAULT_PREC_CAP = 4096

_new_object = object.__new__

# The one check that a word is over 0/1, matched in C with no copy; a
# non-str raises TypeError.  ``*`` compiles to MAXREPEAT, which ``_sre``
# treats as no bound, so a word longer than 2^32 symbols is matched whole.
_BINARY = re.compile("[01]*").fullmatch


class SignRelC(enum.Enum):
    """Position of a certified value relative to the critical point."""

    BELOW = "below"
    ABOVE = "above"
    AT_C = "at_c"
    UNRESOLVED = "unresolved"


_SYMBOL = dict(zip(SignRelC, "01??"))      # kneading symbol; "?" is none


def _frac(n: int, d: int) -> Fraction:
    """The Fraction n/d, for n/d in lowest terms with d > 0.

    The two slots are set directly, so no gcd and no ``Fraction.__new__``
    runs.  ``Fraction`` keeps its value in ``_numerator`` and
    ``_denominator`` and derives everything else (``==``, ``hash``, ``str``,
    arithmetic, pickling) from them, in CPython 3.10 to 3.13; checked by
    ``tests/stdlib_check.py``.
    """
    f = _new_object(Fraction)
    f._numerator = n
    f._denominator = d
    return f


def _gcd(n: int, d: int) -> int:
    """gcd(n, d) for d > 0: a trailing-zero count when d is a power of two."""
    if d & (d - 1):
        return math.gcd(n, d)
    return min(n & -n or d, d)


def _shed(n: int, e: int):
    """n / 2^e in lowest terms: a shift by the trailing zeros of n."""
    if not n:
        return 0, 1
    t = min((n & -n).bit_length() - 1, e)
    return n >> t, 1 << (e - t)


def _mul(n1: int, d1: int, n2: int, d2: int):
    """(n1/d1) * (n2/d2) in lowest terms, from two factors in lowest terms.
    Two dyadic factors shed only their product's trailing zeros, and
    (n1/2^a) * (2^b/d2) only gcd(n1, d2) and a power of two."""
    if not d1 & (d1 - 1):
        if not d2 & (d2 - 1):
            return _shed(n1 * n2, d1.bit_length() + d2.bit_length() - 2)
        if n2 > 0 and not n2 & (n2 - 1):
            g = math.gcd(n1, d2)
            if g != 1:
                n1, d2 = n1 // g, d2 // g
            shift = n2.bit_length() - d1.bit_length()
            return (n1 << shift, d2) if shift >= 0 else (n1, d2 << -shift)
    g1 = _gcd(n1, d2)
    g2 = _gcd(n2, d1)
    if g1 != 1:
        n1 //= g1
        d2 //= g1
    if g2 != 1:
        n2 //= g2
        d1 //= g2
    return n1 * n2, d1 * d2


def _lt(x: Fraction, y: Fraction) -> bool:
    """x < y: one cross-multiplication, or a shift for two dyadic ends.  For
    positive ends, bit lengths decide when they differ by two or more, since
    2^(m + n - 2) <= u * v < 2^(m + n) for m- and n-bit u and v."""
    a, b = x.numerator, x.denominator
    c, d = y.numerator, y.denominator
    if b & (b - 1) or d & (d - 1):
        k = a.bit_length() + d.bit_length() - c.bit_length() - b.bit_length()
        if a > 0 and c > 0 and abs(k) > 1:
            return k < 0
        return a * d < c * b
    shift = d.bit_length() - b.bit_length()
    return a << shift < c if shift >= 0 else a < c << -shift


def _diff(x: Fraction, y: Fraction) -> Fraction:
    """x - y in lowest terms by the two-gcd subtraction of ``Fraction``, or
    on the finer denominator for two dyadic ends."""
    na, da = x.numerator, x.denominator
    nb, db = y.numerator, y.denominator
    if not (da & (da - 1) or db & (db - 1)):
        shift = da.bit_length() - db.bit_length()
        if shift > 0:       # the finer end has an odd numerator, so has x - y
            return _frac(na - (nb << shift), da)
        if shift < 0:
            return _frac((na << -shift) - nb, db)
        return _frac(*_shed(na - nb, da.bit_length() - 1))
    g = _gcd(da, db)
    s = da // g
    t = na * (db // g) - nb * s
    g2 = _gcd(t, g)
    return _frac(t // g2, s * (db // g2))


def _grid_num(n: int, d: int, bits: int, up: bool) -> int:
    """n/d rounded down (or up) onto the 2^-bits grid, as the k of k/2^bits."""
    if d & (d - 1):
        return -((-n << bits) // d) if up else (n << bits) // d
    shift = d.bit_length() - 1 - bits
    if shift <= 0:
        return n << -shift
    return -(-n >> shift) if up else n >> shift


def _grid_ends(x: "Scalar", bits: int):
    """The ends of ``x.rounded(bits)`` as the integers k of k/2^bits."""
    lo, hi = x.lo, x.hi
    d = lo.denominator
    if lo is hi and d & (d - 1):        # off the grid: between k and k + 1
        k = (lo.numerator << bits) // d
        return k, k + 1
    return (_grid_num(lo.numerator, d, bits, False),
            _grid_num(hi.numerator, hi.denominator, bits, True))


def _grid(n: int, d: int, bits: int, up: bool):
    """n/d rounded down (or up) onto the 2^-bits grid, in lowest terms."""
    return _shed(_grid_num(n, d, bits, up), bits)


class Scalar:
    """An exact rational, or an interval enclosure [lo, hi] of a real value."""

    __slots__ = ("lo", "hi", "precision_bits")

    def __init__(self, lo, hi, precision_bits=DEFAULT_PRECISION):
        lo = Fraction(lo)
        hi = Fraction(hi)
        # equal ends skip the order test, which cross-multiplies
        if lo != hi and lo > hi:
            raise ValueError(f"interval endpoints out of order: [{lo}, {hi}]")
        if precision_bits <= 0:
            raise ValueError("precision_bits must be positive")
        self.lo = lo
        self.hi = hi
        self.precision_bits = precision_bits

    @classmethod
    def exact(cls, value) -> "Scalar":
        v = Fraction(value)
        return _scalar(v, v, DEFAULT_PRECISION)

    @classmethod
    def interval(cls, lo, hi, precision_bits=DEFAULT_PRECISION) -> "Scalar":
        return cls(lo, hi, precision_bits)

    @property
    def is_exact(self) -> bool:
        lo, hi = self.lo, self.hi       # both in lowest terms
        return lo is hi or (lo.numerator == hi.numerator
                            and lo.denominator == hi.denominator)

    @property
    def value(self) -> Fraction:
        if not self.is_exact:
            raise ValueError("not an exact rational")
        return self.lo

    def width(self) -> Fraction:
        return self.hi - self.lo

    def rounded(self, bits: int) -> "Scalar":
        """Outward rounding onto the dyadic grid with 2^-bits resolution.

        An exact value off the grid becomes an enclosure at most 2^-bits
        wide, which sheds its denominator; one on the grid is returned as is.
        """
        lo, hi = self.lo, self.hi
        d = lo.denominator
        # on the grid: d = 2^e with e <= bits
        if self.is_exact and not d & (d - 1) and d.bit_length() <= bits + 1:
            return self
        return _scalar(_frac(*_grid(lo.numerator, d, bits, False)),
                       _frac(*_grid(hi.numerator, hi.denominator, bits, True)),
                       bits)

    def contains(self, q) -> bool:
        q = Fraction(q)
        return self.lo <= q <= self.hi

    def overlaps(self, other: "Scalar") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def certainly_lt(self, other) -> bool:
        o = other if isinstance(other, Scalar) else Scalar.exact(other)
        return self.hi < o.lo

    def __repr__(self):
        if self.is_exact:
            return f"Scalar({self.lo})"
        return f"Scalar([{self.lo}, {self.hi}], bits={self.precision_bits})"

    def to_json(self):
        return {
            "lo": {"num": self.lo.numerator, "den": self.lo.denominator},
            "hi": {"num": self.hi.numerator, "den": self.hi.denominator},
            "exact": self.is_exact,
        }



def _scalar(lo: Fraction, hi: Fraction, bits: int) -> Scalar:
    """A Scalar from ends known to be in order, without the order test."""
    if bits <= 0:
        raise ValueError("precision_bits must be positive")
    out = Scalar.__new__(Scalar)
    out.lo = lo
    out.hi = hi
    out.precision_bits = bits
    return out


def _maybe_round(ln: int, ld: int, hn: int, hd: int, bits: int) -> Scalar:
    """The Scalar [ln/ld, hn/hd] from ends in lowest terms, rounded outward
    only when a denominator outgrows the working precision."""
    if ln == hn and ld == hd:
        v = _frac(ln, ld)
        return _scalar(v, v, bits)
    if max(ld.bit_length(), hd.bit_length()) > 2 * bits:
        ln, ld = _grid(ln, ld, bits, False)
        hn, hd = _grid(hn, hd, bits, True)
    return _scalar(_frac(ln, ld), _frac(hn, hd), bits)


def s_one_minus(a: Scalar) -> Scalar:
    lo, hi = a.lo, a.hi
    return _scalar(_frac(hi.denominator - hi.numerator, hi.denominator),
                   _frac(lo.denominator - lo.numerator, lo.denominator),
                   a.precision_bits)


def sign_rel_c(x: Scalar) -> SignRelC:
    """Certified position of x relative to c = 1/2."""
    hi2, hid = 2 * x.hi.numerator, x.hi.denominator
    if hi2 < hid:
        return SignRelC.BELOW
    lo2, lod = 2 * x.lo.numerator, x.lo.denominator
    if lo2 > lod:
        return SignRelC.ABOVE
    if lo2 == lod and hi2 == hid:
        return SignRelC.AT_C
    return SignRelC.UNRESOLVED


class SlopeParam:
    """A certified tent-map slope s with 1 < s <= 2.

    ``bracket``, when given, maps a precision to an enclosure of the same
    slope at least that fine; it is how an algebraic slope is refined.
    """

    __slots__ = ("s", "name", "bracket")

    def __init__(self, s: Scalar, name: str = "",
                 bracket: Optional[Callable[[int], Scalar]] = None):
        if not (s.lo > ONE and s.hi <= TWO):
            raise DomainError(f"slope not certified inside (1, 2]: [{s.lo}, {s.hi}]")
        self.s = s
        self.name = name
        self.bracket = bracket

    def at(self, bits: int) -> "SlopeParam":
        """The slope enclosed at 2^-bits; itself when exact or unbracketed."""
        if self.bracket is None or self.s.is_exact:
            return self
        return SlopeParam(self.bracket(bits), self.name, self.bracket)

    @property
    def is_exact(self) -> bool:
        return self.s.is_exact

    def __repr__(self):
        label = self.name or "slope"
        return f"SlopeParam({label}, s={self.s!r})"


def slope_exact(value, name="") -> SlopeParam:
    return SlopeParam(Scalar.exact(Fraction(value)), name)


def slope_interval(lo, hi, precision_bits=DEFAULT_PRECISION, name="") -> SlopeParam:
    return SlopeParam(Scalar.interval(Fraction(lo), Fraction(hi), precision_bits), name)


def tent_apply(slope: SlopeParam, x: Scalar, bits=None) -> Scalar:
    """One certified tent-map step T_s(x) = s * min(x, 1 - x).

    Works both as an enclosure of T(point) and as the set image T([a, b]):
    when the input straddles c the upper end of the image is the peak s/2.
    """
    a, b = x.lo.numerator, x.lo.denominator
    c, d = x.hi.numerator, x.hi.denominator
    if a < 0 or c > d:
        raise DomainError(f"tent_apply input not certified inside [0,1]: [{x.lo}, {x.hi}]")
    s = slope.s
    bits = bits or min(s.precision_bits, x.precision_bits)
    # min(x, 1 - x) over the input, as [mln/mld, mhn/mhd]
    if 2 * c <= d:
        mln, mld, mhn, mhd = a, b, c, d
    elif 2 * a >= b:
        mln, mld, mhn, mhd = d - c, d, b - a, b
    else:
        mln, mld = (a, b) if a * d <= (d - c) * b else (d - c, d)
        mhn, mhd = 1, 2
    pn, pd = s.lo.numerator, s.lo.denominator
    rn, rd = s.hi.numerator, s.hi.denominator
    ln, ld = _mul(pn, pd, mln, mld)
    if mln == mhn and mld == mhd and pn == rn and pd == rd:
        hn, hd = ln, ld
    else:
        hn, hd = _mul(rn, rd, mhn, mhd)
    return _maybe_round(ln, ld, hn, hd, bits)


def branch_preimage_left(slope: SlopeParam, y: Scalar) -> Scalar:
    """The preimage of y on the increasing branch: y / s.  Its ends fall out
    of order (ValueError) only for a y below 0 on an interval slope."""
    a, b, lo, hi = slope.s.lo, slope.s.hi, y.lo, y.hi
    ln, ld = _mul(lo.numerator, lo.denominator, b.denominator, b.numerator)
    hn, hd = _mul(hi.numerator, hi.denominator, a.denominator, a.numerator)
    if ln < 0 and hn * ld < ln * hd:
        raise ValueError("interval endpoints out of order: "
                         f"[{_frac(ln, ld)}, {_frac(hn, hd)}]")
    bits = min(slope.s.precision_bits, y.precision_bits)
    return _maybe_round(ln, ld, hn, hd, bits)


def branch_preimage_right(slope: SlopeParam, y: Scalar) -> Scalar:
    """The preimage of y on the decreasing branch: 1 - y / s."""
    return s_one_minus(branch_preimage_left(slope, y))


def branch_preimage(slope: SlopeParam, y: Scalar, symbol: int) -> Scalar:
    return (branch_preimage_left if symbol == 0 else branch_preimage_right)(
        slope, y)


def _start_precision(slope: SlopeParam, prec_cap: int) -> int:
    """Precision of a first orbit build: the default, or the slope's if finer.

    A cap below it cannot be honoured, and raising it silently would change
    the input, so it is rejected.
    """
    bits = max(DEFAULT_PRECISION, slope.s.precision_bits)
    if prec_cap < bits:
        raise DomainError(f"precision cap {prec_cap} is below the starting "
                          f"precision {bits} of the slope")
    return bits


def _orbit_start(slope: SlopeParam, N: int, prec_cap: int) -> int:
    """``_start_precision`` of an orbit c_1 .. c_N, after rejecting N < 1."""
    if N < 1:
        raise DomainError("orbit length must be >= 1")
    return _start_precision(slope, prec_cap)


def _exact_orbit(s: Fraction):
    """(a_n, q^n) for n = 1, 2, ...: c_n = a_n / (2 q^n) for s = p/q."""
    p, q = s.numerator, s.denominator
    a = qn = 1
    while True:
        a = p * (a if a <= qn else 2 * qn - a)
        qn *= q
        yield a, qn


def _exact_critical_orbit(slope: SlopeParam, bits: int):
    """(c_n, sign) for n = 1, 2, ... of an exact slope, each c_n exact at
    ``bits``.  a_n is coprime to q, so a_n / (2 q^n) loses one 2 at most."""
    for a, qn in _exact_orbit(slope.s.lo):
        v = _frac(a, qn << 1) if a & 1 else _frac(a >> 1, qn)
        yield (_scalar(v, v, bits),
               SignRelC.ABOVE if a > qn else SignRelC.BELOW)


def _ball_signs(s_lo: int, s_hi: int, w: int):
    """Kneading symbols of c_1, c_2, ... for a slope in [s_lo, s_hi] / 2^w.

    c_n is the ball [lo, hi] / 2^w, so one step is a reflection when the
    ball lies above c, then a product and a floor (ceiling) shift on each
    end.  Yields "1" or "0" while the ball misses c.  It stops at the first
    ball that meets c, after yielding "" when that ball is c itself (an
    exact hit).
    """
    one = 1 << w
    half = one >> 1
    lo = hi = half
    while True:
        if hi > half:                   # above c: T reflects first
            lo, hi = one - hi, one - lo
        lo, hi = s_lo * lo >> w, -(-s_hi * hi >> w)
        if lo > half:
            yield "1"
        elif hi < half:
            yield "0"
        else:
            if lo == hi:
                yield ""
            return


def _orbit_pass(sl: SlopeParam, N: int, bits: int, whole: bool):
    """c_1 .. c_N with signs at ``bits``, and the index of the first
    unresolved sign (None when all resolve).  Unless ``whole``, the pass
    stops at that sign, since its caller then escalates or raises."""
    orbit = []
    unresolved_at = None
    x = Scalar.exact(C)
    for n in range(1, N + 1):
        x = tent_apply(sl, x, bits=bits)
        sign = sign_rel_c(x)
        orbit.append((x, sign))
        if sign is SignRelC.UNRESOLVED and unresolved_at is None:
            unresolved_at = n
            if not whole:
                break
    return orbit, unresolved_at


def _word_pass(sl: SlopeParam, N: int, bits: int, whole: bool):
    """nu_1 .. nu_N at ``bits`` from the ball at W = bits, or, from the
    first sign the ball leaves undecided, from ``_orbit_pass``."""
    word = "".join(islice(_ball_signs(*_grid_ends(sl.s, bits), bits), N))
    if len(word) == N:
        return word, None
    orbit, unresolved_at = _orbit_pass(sl, N, bits, whole)
    return "".join(_SYMBOL[sign] for _, sign in orbit), unresolved_at


def _escalate(slope: SlopeParam, N: int, prec_cap: int, run,
              allow_unresolved: bool = False):
    """The precision schedule of an interval slope's orbit.

    ``run(slope.at(bits), N, bits, whole)`` is one pass; it returns its
    result and the index of its first unresolved sign, None when there is
    none.  ``bits`` starts at ``_start_precision`` and doubles, clipped at
    the cap, until a pass resolves every sign up to N.  An unresolved sign
    at the cap raises PrecisionExhausted, or, with ``allow_unresolved``,
    returns that ``whole`` pass as it is.
    """
    bits = _orbit_start(slope, N, prec_cap)
    while True:
        whole = allow_unresolved and bits >= prec_cap
        result, unresolved_at = run(slope.at(bits), N, bits, whole)
        if unresolved_at is None or whole:
            return result
        if bits >= prec_cap:
            raise PrecisionExhausted(
                f"sign of c_{unresolved_at} unresolved at precision cap {prec_cap}",
                index=unresolved_at)
        bits = min(2 * bits, prec_cap)


def critical_orbit(slope: SlopeParam, N: int, prec_cap: int = DEFAULT_PREC_CAP,
                   allow_unresolved: bool = False):
    """Certified orbit c_1 .. c_N of the critical value, with signs.

    Precision escalates geometrically (recomputing the whole orbit from the
    refined slope) until every sign up to N is resolved or the cap is hit.
    An exact rational slope is one pass of the integer recurrence, with
    every value exact and no sign at c.
    """
    if slope.is_exact:
        bits = _orbit_start(slope, N, prec_cap)
        return list(islice(_exact_critical_orbit(slope, bits), N))
    return _escalate(slope, N, prec_cap, _orbit_pass, allow_unresolved)


def _critical_word(slope: SlopeParam, N: int, prec_cap: int) -> str:
    """The signs nu_1 .. nu_N of ``critical_orbit(slope, N, prec_cap)``, or
    its PrecisionExhausted or DomainError.

    An interval slope runs ``_word_pass`` on the schedule of
    ``critical_orbit``.  An exact slope p/q with q below 2^32 reads its
    signs off ``_exact_orbit`` (a_n > q^n), whose step multiplies by the
    small p.  A larger q runs the ball at W = bits(q) + N + 64, whose step
    multiplies two W-bit ends, and doubles W, with a restart, while a sign
    is undecided: for q > 1 no c_n is c, so some W decides every sign and
    no cap or fallback is needed.  The two cost the same near bits(q) = 32
    for N from 100 to 1000.
    """
    if not slope.is_exact:
        return _escalate(slope, N, prec_cap, _word_pass)
    _orbit_start(slope, N, prec_cap)
    s = slope.s.lo
    if s.denominator.bit_length() <= 32:
        return "".join("1" if a > qn else "0"
                       for a, qn in islice(_exact_orbit(s), N))
    w = s.denominator.bit_length() + N + 64
    while True:
        word = "".join(islice(_ball_signs(*_grid_ends(slope.s, w), w), N))
        if len(word) == N:
            return word
        w *= 2


def refine(x: Scalar, target_width, slope: SlopeParam, n: int,
           prec_cap: int = DEFAULT_PREC_CAP) -> Scalar:
    """Shrink the enclosure x of c_n to the target width.

    Each round re-derives c_n from the slope at twice the precision and
    intersects it with x, so the result never widens.  Exact values are
    returned unchanged.  Raises PrecisionExhausted when the slope has no
    root bracket or the cap is reached first, and DomainError when the
    re-derived enclosure misses x.
    """
    target_width = Fraction(target_width)
    if x.is_exact or x.width() <= target_width:
        return x
    if slope.bracket is None:
        raise PrecisionExhausted("the slope has no root bracket to refine")
    bits = x.precision_bits
    while x.width() > target_width:
        if bits >= prec_cap:
            raise PrecisionExhausted(
                f"width {float(x.width())} above target at cap {prec_cap}")
        bits = min(2 * bits, prec_cap)
        sl = slope.at(bits)
        y = Scalar.exact(C)
        for _ in range(n):
            y = tent_apply(sl, y, bits=bits)
        lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
        if lo > hi:
            raise DomainError("refinement produced a disjoint enclosure")
        x = Scalar(lo, hi, bits)
    return x


def certified_cmp(a: Scalar, b: Scalar) -> int:
    """Certified three-way comparison; raises UnresolvedComparison on overlap.

    Exact equal values compare as 0.  Nothing is refined here: a caller that
    needs a finer answer re-derives both values from ``slope.at(bits)``.
    The message prints the four ends, or 64-digit decimals of them when an
    integer is past the interpreter's int-to-str digit limit.
    """
    if _lt(a.hi, b.lo):
        return -1
    if _lt(b.hi, a.lo):
        return 1
    if a.is_exact and b.is_exact:
        return 0
    try:
        text = f"cannot order [{a.lo}, {a.hi}] against [{b.lo}, {b.hi}]"
    except ValueError:
        ends = [approx(x, 64) for x in (a.lo, a.hi, b.lo, b.hi)]
        text = "cannot order ~[{}, {}] against ~[{}, {}]".format(*ends)
    raise UnresolvedComparison(text)


# -- slope from kneading data ------------------------------------------------

def parity_lex_cmp(a: str, b: str) -> int:
    """Parity-lexicographic comparison of 0/1 words (tent itinerary order).

    At the first difference the usual order is flipped when the count of 1s
    before it is odd.  Returns 0 when one word is a prefix of the other.
    """
    n = min(len(a), len(b))
    ones = 0
    for i in range(n):
        if a[i] != b[i]:
            if ones % 2 == 0:
                return -1 if a[i] < b[i] else 1
            return -1 if a[i] > b[i] else 1
        if a[i] == "1":
            ones += 1
    return 0


def _kneading_probe(s: Fraction, target: str) -> Optional[str]:
    """Kneading word of the exact slope s = p/q up to its first mismatch
    with ``target``; None marks an exact critical hit.

    The signs come from ``_ball_signs`` at w bits.  When the ball meets c,
    w doubles and the probe restarts.  For q > 1 no c_n is c, so some w
    decides every sign; for q = 1 every step is exact, and a ball of width
    0 at c is an exact hit whatever q is.
    """
    p, q = s.numerator, s.denominator
    w = q.bit_length() + 64
    while True:
        word = []
        for t, sym in zip(target, _ball_signs((p << w) // q,
                                              -(-(p << w) // q), w)):
            if not sym:
                return None
            word.append(sym)
            if sym != t:
                return "".join(word)
        if len(word) == len(target):
            return "".join(word)
        w *= 2


def slope_for_prefix(target: str, name: str = "") -> SlopeParam:
    """An exact rational slope whose kneading sequence starts with ``target``.

    Bisection on the slope, using the fact that the kneading sequence is
    monotone in s for the parity-lexicographic order.  Each probe runs the
    orbit as a fixed-point ball and stops at the first symbol that differs
    from the target, which already decides the step.  No midpoint in
    (5/4, 2) hits c, so CriticalHit never fires: a_{n+1} = p * min(a_n,
    2 q^n - a_n) stays coprime to q for s = p/q in lowest terms, q > 1.
    The search runs on [5/4, 2] for at most 4 |target| + 96 halvings.
    """
    if not _BINARY(target):
        raise DomainError(f"kneading target must be over 0/1: {target[:20]!r}")
    if not target or target[0] != "1":
        raise DomainError("kneading target must start with 1")
    lo, hi = Fraction(5, 4), Fraction(2)
    for _ in range(4 * len(target) + 96):
        mid = (lo + hi) / 2
        word = _kneading_probe(mid, target)
        if word == target:
            return SlopeParam(Scalar.exact(mid), name or f"prefix:{target[:16]}")
        if parity_lex_cmp(word, target) < 0:
            lo = mid
        else:
            hi = mid
    raise PrecisionExhausted(
        f"no slope found for kneading prefix {target[:32]}... "
        f"(prefix may not be realizable)")
