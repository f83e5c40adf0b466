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
stay bounded along long orbits.  An interval may also carry a recomputation
hook: refining re-derives the value at a higher precision and intersects it
with the old enclosure, so refinement never widens.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Callable, Optional

from .errors import DomainError, PrecisionExhausted, UnresolvedComparison

C = Fraction(1, 2)
ZERO = Fraction(0)
ONE = Fraction(1)
TWO = Fraction(2)

DEFAULT_PRECISION = 128
DEFAULT_PREC_CAP = 4096


class SignRelC(enum.Enum):
    """Position of a certified value relative to the critical point."""

    BELOW = "below"
    ABOVE = "above"
    AT_C = "at_c"
    UNRESOLVED = "unresolved"


def _floor_dyadic(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction((q.numerator * scale) // q.denominator, scale)


def _ceil_dyadic(q: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-q.numerator * scale) // q.denominator), scale)


class Scalar:
    """An exact rational, or an interval enclosure [lo, hi] of a real value."""

    __slots__ = ("lo", "hi", "precision_bits", "recompute")

    def __init__(self, lo, hi, precision_bits=DEFAULT_PRECISION,
                 recompute: Optional[Callable[[int], "Scalar"]] = None):
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
        self.recompute = recompute

    @classmethod
    def exact(cls, value) -> "Scalar":
        v = Fraction(value)
        return cls(v, v)

    @classmethod
    def interval(cls, lo, hi, precision_bits=DEFAULT_PRECISION) -> "Scalar":
        return cls(lo, hi, precision_bits)

    @classmethod
    def from_decimal(cls, text: str) -> "Scalar":
        """Exact rational value of a decimal literal like ``"1.8393"``."""
        return cls.exact(Fraction(text.strip()))

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

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
        if self.is_exact and (1 << bits) % self.lo.denominator == 0:
            return self
        return Scalar(_floor_dyadic(self.lo, bits), _ceil_dyadic(self.hi, bits),
                      bits, self.recompute)

    def at(self, bits: int) -> "Scalar":
        """Re-derive this value at the given precision, never widening."""
        if self.is_exact or self.recompute is None:
            return self
        fresh = self.recompute(bits)
        lo = max(self.lo, fresh.lo)
        hi = min(self.hi, fresh.hi)
        if lo > hi:
            raise DomainError("refinement produced a disjoint enclosure")
        return Scalar(lo, hi, bits, self.recompute)

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



def _maybe_round(x: "Scalar", bits: int) -> "Scalar":
    """Round outward only when the endpoints outgrow the working precision."""
    if x.is_exact:
        return x
    if max(x.lo.denominator.bit_length(), x.hi.denominator.bit_length()) <= 2 * bits:
        return x
    return x.rounded(bits)

def s_one_minus(a: Scalar, bits=None) -> Scalar:
    bits = bits or a.precision_bits
    hook = None if a.recompute is None or a.is_exact else \
        (lambda p: s_one_minus(a.at(p), bits=p))
    return Scalar(ONE - a.hi, ONE - a.lo, bits, hook)


def sign_rel_c(x: Scalar) -> SignRelC:
    """Certified position of x relative to c = 1/2."""
    if x.hi < C:
        return SignRelC.BELOW
    if x.lo > C:
        return SignRelC.ABOVE
    if x.is_exact and x.lo == C:
        return SignRelC.AT_C
    return SignRelC.UNRESOLVED


class SlopeParam:
    """A certified tent-map slope s with 1 < s <= 2."""

    __slots__ = ("s", "family_tag", "name")

    def __init__(self, s: Scalar, name: str = ""):
        if not (s.lo > ONE and s.hi <= TWO):
            raise DomainError(f"slope not certified inside (1, 2]: [{s.lo}, {s.hi}]")
        self.s = s
        self.family_tag = "tent"
        self.name = name

    @property
    def kappa_finite(self) -> bool:
        """Whether the first return of the orbit above c is provably finite.

        True exactly when s < 2 is certified; at s = 2 the critical orbit
        collapses onto the fixed point 0 and never crosses c again.
        """
        return self.s.hi < TWO

    @property
    def is_exact(self) -> bool:
        return self.s.is_exact

    def __repr__(self):
        label = self.name or "slope"
        return f"SlopeParam({label}, s={self.s!r})"

    def to_json(self):
        return {"family": self.family_tag, "name": self.name, "s": self.s.to_json()}


def slope_exact(value, name="") -> SlopeParam:
    return SlopeParam(Scalar.exact(Fraction(value)), name)


def slope_decimal(text: str) -> SlopeParam:
    return SlopeParam(Scalar.from_decimal(text), name=text.strip())


def slope_interval(lo, hi, precision_bits=DEFAULT_PRECISION, name="") -> SlopeParam:
    return SlopeParam(Scalar.interval(Fraction(lo), Fraction(hi), precision_bits), name)


def tent_apply(slope: SlopeParam, x: Scalar, bits=None) -> Scalar:
    """One certified tent-map step T_s(x) = s * min(x, 1 - x).

    Works both as an enclosure of T(point) and as the set image T([a, b]):
    when the input straddles c the upper end of the image is the peak s/2.
    """
    if not (x.lo >= ZERO and x.hi <= ONE):
        raise DomainError(f"tent_apply input not certified inside [0,1]: [{x.lo}, {x.hi}]")
    s = slope.s
    bits = bits or min(s.precision_bits, x.precision_bits)
    if x.hi <= C:
        m_lo, m_hi = x.lo, x.hi
    elif x.lo >= C:
        m_lo, m_hi = ONE - x.hi, ONE - x.lo
    else:
        m_lo, m_hi = min(x.lo, ONE - x.hi), C
    out = _maybe_round(Scalar(s.lo * m_lo, s.hi * m_hi, bits), bits)
    if s.recompute is not None or x.recompute is not None:
        out.recompute = lambda p: tent_apply(
            SlopeParam(s.at(p), slope.name), x.at(p), bits=p)
    return out


def branch_preimage_left(slope: SlopeParam, y: Scalar, bits=None) -> Scalar:
    """The preimage of y on the increasing branch: y / s."""
    s = slope.s
    bits = bits or min(s.precision_bits, y.precision_bits)
    out = _maybe_round(Scalar(y.lo / s.hi, y.hi / s.lo, bits), bits)
    if s.recompute is not None or y.recompute is not None:
        out.recompute = lambda p: branch_preimage_left(
            SlopeParam(s.at(p), slope.name), y.at(p), bits=p)
    return out


def branch_preimage_right(slope: SlopeParam, y: Scalar, bits=None) -> Scalar:
    """The preimage of y on the decreasing branch: 1 - y / s."""
    return s_one_minus(branch_preimage_left(slope, y, bits=bits))


def branch_preimage(slope: SlopeParam, y: Scalar, symbol: int, bits=None) -> Scalar:
    return (branch_preimage_left if symbol == 0 else branch_preimage_right)(
        slope, y, bits=bits)


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


def critical_orbit(slope: SlopeParam, N: int, prec_cap: int = DEFAULT_PREC_CAP,
                   allow_unresolved: bool = False):
    """Certified orbit c_1 .. c_N of the critical value, with signs.

    Precision escalates geometrically (recomputing the whole orbit from the
    refined slope) until every sign up to N is resolved or the cap is hit.
    For an exact rational slope everything is exact and a single pass
    suffices; an exact critical return is reported as AT_C.
    """
    if N < 1:
        raise DomainError("orbit length must be >= 1")
    bits = _start_precision(slope, prec_cap)
    while True:
        s = slope.s if slope.s.is_exact else slope.s.at(bits)
        sl = SlopeParam(s, slope.name)
        orbit = []
        x = Scalar.exact(C)
        unresolved_at = None
        for n in range(1, N + 1):
            x = tent_apply(sl, x, bits=bits)
            sign = sign_rel_c(x)
            orbit.append((x, sign))
            if sign is SignRelC.UNRESOLVED and unresolved_at is None:
                unresolved_at = n
        if unresolved_at is None or slope.s.is_exact:
            return orbit
        if bits >= prec_cap:
            if allow_unresolved:
                return orbit
            raise PrecisionExhausted(
                f"sign of c_{unresolved_at} unresolved at precision cap {prec_cap}",
                index=unresolved_at)
        bits = min(2 * bits, prec_cap)


def refine(x: Scalar, target_width, prec_cap: int = DEFAULT_PREC_CAP) -> Scalar:
    """Shrink an enclosure to the target width by recomputation.

    Exact values are returned unchanged.  Raises PrecisionExhausted when the
    value has no recomputation hook or the cap is reached first.
    """
    target_width = Fraction(target_width)
    if x.is_exact or x.width() <= target_width:
        return x
    if x.recompute is None:
        raise PrecisionExhausted("value has no recomputation hook")
    bits = x.precision_bits
    current = x
    while current.width() > target_width:
        if bits >= prec_cap:
            raise PrecisionExhausted(
                f"width {float(current.width())} above target at cap {prec_cap}")
        bits = min(2 * bits, prec_cap)
        current = current.at(bits)
    return current


def certified_cmp(a: Scalar, b: Scalar, prec_cap: int = DEFAULT_PREC_CAP) -> int:
    """Certified three-way comparison; raises UnresolvedComparison on overlap.

    Exact equal values compare as 0; overlapping non-identical enclosures are
    refined (when possible) before giving up.
    """
    for bits_round in range(64):
        if a.hi < b.lo:
            return -1
        if a.lo > b.hi:
            return 1
        if a.is_exact and b.is_exact and a.lo == b.lo:
            return 0
        progressed = False
        bits = max(a.precision_bits, b.precision_bits) * 2
        if bits > prec_cap:
            break
        if not a.is_exact and a.recompute is not None:
            a = a.at(bits)
            progressed = True
        if not b.is_exact and b.recompute is not None:
            b = b.at(bits)
            progressed = True
        if not progressed:
            break
    raise UnresolvedComparison(
        f"cannot order [{a.lo}, {a.hi}] against [{b.lo}, {b.hi}]")


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

    The orbit is carried as integers, c_n = a_n / (2 q^n) with
    a_{n+1} = p * min(a_n, 2 q^n - a_n), so no gcd runs.
    """
    p, q = s.numerator, s.denominator
    a = qn = 1
    word = []
    for t in target:
        a = p * min(a, 2 * qn - a)
        qn *= q
        if a == qn:
            return None
        word.append("1" if a > qn else "0")
        if word[-1] != t:
            break
    return "".join(word)


def slope_for_prefix(target: str, lo=Fraction(5, 4), hi=Fraction(2),
                     max_iter: int = 0, name: str = "") -> SlopeParam:
    """An exact rational slope whose kneading sequence starts with ``target``.

    Bisection on the slope, using the fact that the kneading sequence is
    monotone in s for the parity-lexicographic order.  Each probe runs the
    integer orbit and stops at the first symbol that differs from the
    target, which already decides the step.  In lowest terms, c_n = 1/2
    needs p * m = q^n with m <= q^(n-1), so only s = 1 hits c (at n = 1);
    a dyadic nudge sidesteps it.
    """
    target = "".join(target.split("."))
    if not target or target[0] != "1":
        raise DomainError("kneading target must start with 1")
    lo = Fraction(lo)
    hi = Fraction(hi)
    max_iter = max_iter or (4 * len(target) + 96)
    for _ in range(max_iter):
        mid = (lo + hi) / 2
        nudge = (hi - lo) / 1024
        for _ in range(8):
            word = _kneading_probe(mid, target)
            if word is not None:
                break
            mid = mid + nudge
            nudge /= 1024
        else:
            raise PrecisionExhausted("persistent exact critical hits in bisection")
        if word == target:
            return SlopeParam(Scalar.exact(mid), name or f"prefix:{target[:16]}")
        if parity_lex_cmp(word, target) < 0:
            lo = mid
        else:
            hi = mid
    raise PrecisionExhausted(
        f"no slope found for kneading prefix {target[:32]}... "
        f"(prefix may not be realizable)")
