"""Geometric realization of the Hofbauer tower for tent maps.

Tower levels follow the inductive definition D_1 = [c, c_1] and
D_{n+1} = [c_{n+1}, c_1] when c is in D_n, else T(D_n); the index form
D_n = [c_n, c_beta(n)] (with c_0 standing for c) is computed independently
from the cutting structure and cross-checked against the induction.  For
an interval slope both compare ends by cross-multiplying their integers
and subtract them by Fraction's two-gcd rule, dyadic ones by shifts, to
the same reduced Fractions.  For an exact slope p/q both run on the
integer orbit c_m = a_m / (2 q^m): the induction carries integer pairs
(a, m), the cross-check is integer equality, and one integer orders a
level's ends and gives its reduced length with no gcd
(``_exact_tower_levels``).

Closest precritical points z_k < c < zhat_k = 1 - z_k satisfy
T^{S_k}(z_k) = c with no earlier critical visit on [z_k, zhat_k].  T^n is
monotone on [z_{k-1}, c] for n <= S_k, and one inverse of that branch
(``PrecriticalTable.inverse``, the branch preimages along the kneading
symbols) gives z_k exactly and the points of the chains in ``subcontinua``.
The cells

    Upsilon_k = [z_{k-1}, z_k) u (zhat_k, zhat_{k-1}]

partition the core minus c (with zhat_{-1} = c_1, z_{-1} = c_2, and the
z_0 = c_2 adjustment when the first return above c happens at time 3), and
drive both the membership test for critical values and the accelerated map
F(y) = T^{S_k}(y) on Upsilon_k, which satisfies F(c_{S_k}) = c_{S_{k+1}}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import verdicts as V
from .errors import (DomainError, InternalInconsistency, PrecisionExhausted,
                     UnresolvedComparison)
from .kneading import CuttingData, KneadingPrefix, q_asymptotics
from .scalars import (C, DEFAULT_PREC_CAP, DEFAULT_PRECISION, Scalar,
                      SignRelC, SlopeParam, _SYMBOL, _diff, _frac,
                      _exact_critical_orbit, _grid_ends, _lt, _scalar,
                      _start_precision, branch_preimage,
                      branch_preimage_left, certified_cmp, critical_orbit,
                      s_one_minus, sign_rel_c, tent_apply)

RULE_ZZZ = "critical-value-in-precritical-cell"
RULE_LONGBRANCH = "tower-level-length-trend"
RULE_DENSITY = "cutting-value-gap-scan"
RULE_TOWER = "tower-index-vs-induction"
_LONG_BRANCH_THRESHOLD = Fraction(1, 1 << 16)


class OrbitTable:
    """Lazily extended certified critical orbit c_0 = c, c_1, c_2, ...

    A read past the end of an exact slope's table takes the next steps of
    the integer recurrence in ``scalars``, so the table equals
    ``critical_orbit(slope, n)``.  An interval slope's table appends
    c_{k+1} = T(c_k) at the table's precision, with the slope refined to
    it.  It is built, and rebuilt when a new sign is unresolved below the
    cap, by ``critical_orbit``, and takes that call's precision.  So it
    equals ``critical_orbit(slope, n, allow_unresolved=True)`` for the
    largest n read, as that call keeps the precision of the shorter orbit
    exactly when the next sign resolves.

    ``word`` holds the signs nu_1 nu_2 ... read, up to the first unresolved
    one.  None is at c, so CriticalHit never fires: for s = p/q in lowest
    terms, q > 1, c_n = a_n / (2 q^n) with a_{n+1} = p * min(a_n, 2 q^n -
    a_n) coprime to q; s = 2 and interval slopes miss c too.

    The table owns the precision cap of its orbit: the functions that read
    the orbit take it as ``orbit=``.

    ``grid_ends(n, bits)`` memoizes the grid ends of c_n per ``bits``.  The
    memo lives as long as the values: a rebuild clears both.
    """

    def __init__(self, slope: SlopeParam, prec_cap: int = DEFAULT_PREC_CAP):
        self.slope = slope
        self.prec_cap = prec_cap
        self.word = ""
        self._values = [Scalar.exact(C)]
        self._step_slope = slope
        self._bits = _start_precision(slope, prec_cap)
        self._exact = _exact_critical_orbit(slope, self._bits) \
            if slope.is_exact else None
        self._grid = {}

    def extend(self, n: int):
        values = self._values
        signs = []
        while len(values) <= n:
            if self._exact is not None:
                x, sign = next(self._exact)
                values.append(x)
                signs.append(sign)
                continue
            if len(values) > 1:
                x = tent_apply(self._step_slope, values[-1], self._bits)
                sign = sign_rel_c(x)
                if (sign is not SignRelC.UNRESOLVED
                        or self._bits >= self.prec_cap):
                    values.append(x)
                    signs.append(sign)
                    continue
            fresh = critical_orbit(self.slope, n, prec_cap=self.prec_cap,
                                   allow_unresolved=True)
            values = self._values = [Scalar.exact(C)] + [x for x, _ in fresh]
            signs = [sign for _, sign in fresh]
            self.word = ""
            self._grid.clear()
            self._bits = values[-1].precision_bits
            self._step_slope = self.slope.at(self._bits)
        if len(self.word) + len(signs) == len(values) - 1:  # no gap yet
            self.word += "".join(map(_SYMBOL.get, signs)).partition("?")[0]

    def value(self, n: int) -> Scalar:
        """c_n, with c_0 = c."""
        if n < 0:
            raise DomainError("orbit index must be >= 0")
        if n >= len(self._values):
            self.extend(n)
        return self._values[n]

    def grid_ends(self, n: int, bits: int):
        """``_grid_ends(c_n, bits)``, rounded once per table and ``bits``."""
        x = self.value(n)               # first: a rebuild clears the memo
        memo = self._grid.setdefault(bits, {})
        ends = memo.get(n)
        if ends is None:
            ends = memo[n] = _grid_ends(x, bits)
        return ends

    def check_word(self, nu: KneadingPrefix):
        """DomainError unless ``nu`` is this slope's word: a prefix that
        ``nu_from_orbit`` certified for this slope object passes unread, any
        other is held whole to ``word``, the table first read to len(nu)."""
        if nu.certified_for is self.slope:
            return
        if len(self._values) <= len(nu.bits):
            self.extend(len(nu.bits))
        word, signs = nu.bits, self.word
        if word[:len(signs)] != signs[:len(word)]:
            n = next(i for i, (a, b) in enumerate(zip(word, signs), 1)
                     if a != b)
            raise DomainError(f"kneading word disagrees with the orbit table "
                              f"of {self.slope.name or 'its slope'} at nu_{n}")


def orbit_table(slope: SlopeParam, orbit: Optional[OrbitTable] = None,
                nu: Optional[KneadingPrefix] = None) -> OrbitTable:
    """``orbit``, or a table for ``slope`` at the default cap, with ``nu``
    held to it (``OrbitTable.check_word``): the one gate between a kneading
    word and the orbit it is read beside.

    A caller sets the precision cap by building the table itself.  A table
    built for a slope with other ends is rejected.
    """
    if orbit is None:
        orbit = OrbitTable(slope)
    elif orbit.slope.s.lo != slope.s.lo or orbit.slope.s.hi != slope.s.hi:
        raise DomainError("orbit table built for another slope")
    if nu is not None:
        orbit.check_word(nu)
    return orbit


def _hull(a: Scalar, b: Scalar):
    """Ends (lo, hi) of the hull of two enclosures."""
    return (b.lo if _lt(b.lo, a.lo) else a.lo,
            b.hi if _lt(a.hi, b.hi) else a.hi)


def level_ends(orbit: OrbitTable, kd: CuttingData, ns):
    """Outer ends (lo, hi) of the tower levels D_n = [c_n, c_beta(n)], n in
    ``ns``, intersected: for one n, the hull of the two enclosures.

    lo > hi when the levels are disjoint; None when ``ns`` is empty.
    """
    lo = hi = None
    for n in ns:
        d_lo, d_hi = _hull(orbit.value(n), orbit.value(kd.beta_of(n)))
        if lo is None or _lt(lo, d_lo):
            lo = d_lo
        if hi is None or _lt(d_hi, hi):
            hi = d_hi
    return None if lo is None else (lo, hi)


def level_bounds(x: Scalar, y: Scalar):
    """(hull, length) of the level whose ends x and y enclose: the hull of
    the two enclosures, and the level's length from the hull's width less
    both enclosure widths, clamped at 0, up to the hull's width."""
    lo, hi = _hull(x, y)
    width = low = _diff(hi, lo)
    for z in (x, y):
        if z.lo is not z.hi:                    # an exact end has width 0
            low = _diff(low, _diff(z.hi, z.lo))
    return (_scalar(lo, hi, min(x.precision_bits, y.precision_bits)),
            _scalar(Fraction(0) if low.numerator < 0 else low, width,
                    DEFAULT_PRECISION))


@dataclass(frozen=True)
class TowerLevel:
    n: int
    beta_n: int                       # 0 stands for the critical point c
    numeric: Optional[tuple] = None   # enclosures (index form, induction)
    length: Optional[Scalar] = None
    contains_c: bool = False

    def to_json(self):
        out = {"n": self.n, "beta": self.beta_n, "is_cutting": self.contains_c}
        if self.numeric is not None:
            out["lo"] = self.numeric[0].to_json()
            out["hi"] = self.numeric[1].to_json()
        return out


def tower_levels(kd: CuttingData, slope: Optional[SlopeParam] = None,
                 N: Optional[int] = None,
                 orbit: Optional[OrbitTable] = None):
    """Tower levels D_1 .. D_N with the induction cross-checked numerically.

    Without a slope only the index form is produced.  With one, the two
    computations of every level must agree (exactly for exact slopes;
    otherwise the induction's end at c_n and its end at c_beta(n) each
    overlap that orbit value) or InternalInconsistency is raised.
    ``N`` defaults to the kneading horizon; ``N = 0`` gives no levels.
    """
    N = kd.horizon if N is None else N
    if N < 0:
        raise DomainError(f"tower depth must be >= 0, got {N}")
    if N > kd.horizon:
        raise DomainError("tower depth exceeds the kneading horizon")
    cuts = set(kd.S)
    if slope is None:
        return [TowerLevel(n, kd.beta_of(n), contains_c=n in cuts)
                for n in range(1, N + 1)]

    orbit = orbit_table(slope, orbit, kd.nu)
    orbit.extend(N)                 # one precision for every level
    if slope.is_exact:
        return _exact_tower_levels(kd, slope, N, orbit, cuts)
    c1 = orbit.value(1)
    # The inductive level is carried as its two endpoint values, end_a at c_n
    # and end_b at c_beta(n), each checked against its own orbit value; away
    # from cutting times c is outside the level, so T maps ends to ends.
    end_a, end_b = c1, Scalar.exact(C)          # D_1 = [c_1, c_0]
    levels = []
    for n in range(1, N + 1):
        beta = kd.beta_of(n)
        lo_idx = orbit.value(n)
        hi_idx = orbit.value(beta)
        index_form, length = level_bounds(lo_idx, hi_idx)
        inductive = _scalar(*_hull(end_a, end_b),
                            min(end_a.precision_bits, end_b.precision_bits))
        if _lt(end_a.hi, lo_idx.lo) or _lt(lo_idx.hi, end_a.lo) \
                or _lt(end_b.hi, hi_idx.lo) or _lt(hi_idx.hi, end_b.lo):
            raise InternalInconsistency(
                f"tower level {n}: index form [{index_form.lo}, {index_form.hi}] "
                f"!= induction [{inductive.lo}, {inductive.hi}]")
        levels.append(TowerLevel(n, beta, (index_form, inductive), length,
                                 n in cuts))
        if n == N:
            break
        if n in cuts:
            end_a, end_b = orbit.value(n + 1), c1
        else:
            end_a, end_b = tent_apply(slope, end_a), tent_apply(slope, end_b)
    return levels


def _orbit_int(x: Fraction) -> int:
    """a_m of c_m = a_m / (2 q^m), from the reduced Fraction c_m: a_m is
    coprime to q, so 2 q^m keeps its factor 2 exactly when a_m is odd."""
    d = x.denominator
    return x.numerator << (d & 1)


def _exact_tower_levels(kd: CuttingData, slope: SlopeParam, N: int,
                        orbit: OrbitTable, cuts):
    """``tower_levels`` of an exact slope s = p/q, on the integer orbit.

    The induction carries each end of D_n as a pair (a, m) for a / (2 q^m),
    with q^m beside it; one end is at m = n.  Off a cutting time T maps an
    end to (p * min(a, 2 q^m - a), m + 1); at a cutting time n the level
    restarts at (a_{n+1}, n + 1) and (a_1, 1).  The cross-check is then
    integer equality of the two ends with (a_n, n) and (a_beta, beta),
    beta = beta(n), the a read off the table's reduced Fractions.

    One integer t = a_beta q^(n - beta) - a_n orders the ends and gives the
    length |c_beta - c_n| = |t| / (2 q^n), with q^(n - beta) = q^(S_k) kept
    from the last cutting time.  As n > beta and a_n is coprime to q, t is
    coprime to q, so gcd(t, 2 q^n) = gcd(t, 2) and the reduced length is
    (|t| / 2) / q^n for even t and |t| / (2 q^n) for odd t, with no gcd.
    The two forms were just found equal, so one Scalar serves as both.
    """
    p, q = slope.s.lo.numerator, slope.s.lo.denominator
    value = orbit.value
    a1 = _orbit_int(value(1).lo)
    # ends (a, q^n) at n and (b, mb, q^mb) at beta(n); D_1 = [c_0, c_1]
    a, qn = a1, q
    b, mb, qb = 1, 0, 1
    gap = q                                     # q^(n - mb)
    levels = []
    for n in range(1, N + 1):
        beta = kd.beta_of(n)
        x, y = value(n), value(beta)
        if mb != beta or a != _orbit_int(x.lo) or b != _orbit_int(y.lo):
            lo, hi = _hull(x, y)
            raise InternalInconsistency(
                f"tower level {n}: index form [{lo}, {hi}] != induction "
                f"[{Fraction(a, 2 * qn)} (c_{n}), {Fraction(b, 2 * qb)} "
                f"(c_{mb})]")
        t = b * gap - a
        lo, hi = (y, x) if t < 0 else (x, y)
        level = _scalar(lo.lo, hi.lo, min(x.precision_bits, y.precision_bits))
        t = abs(t)
        length = _frac(t, qn << 1) if t & 1 else _frac(t >> 1, qn)
        levels.append(TowerLevel(n, beta, (level, level),
                                 _scalar(length, length, DEFAULT_PRECISION),
                                 n in cuts))
        if n == N:
            break
        if n in cuts:
            gap, qn = qn, qn * q
            a = _orbit_int(value(n + 1).lo)
            b, mb, qb = a1, 1, q
        else:
            a, qn = p * min(a, (qn << 1) - a), qn * q
            b, mb, qb = p * min(b, (qb << 1) - b), mb + 1, qb * q
    return levels


class PrecriticalTable:
    """Certified closest precritical points for a slope, lazily extended.

    z_k is computed by inverting the monotone branch of T^{S_{k-1}} on
    [z_{k-1}, c]: the inverse composes branch preimages along the kneading
    symbols and finishes with the increasing branch.  The image endpoint used
    is whichever of z_{Q(k)}, zhat_{Q(k)} lies between c and c_{S_{k-1}}, read
    off from the kneading bit at S_{k-1}.

    Those symbols and the cutting times S_{k-1}, S_k that fix Q(k) are read
    off the word of ``kd``, which ``orbit_table`` holds to the slope's
    orbit table when the table is built.
    """

    def __init__(self, slope: SlopeParam, kd: CuttingData,
                 orbit: Optional[OrbitTable] = None):
        self.slope = slope
        self.kd = kd
        self.orbit = orbit_table(slope, orbit, kd.nu)
        self._natural = [branch_preimage_left(slope, Scalar.exact(C))]

    @property
    def max_k(self) -> int:
        return self.kd.max_k

    def natural(self, k: int) -> Scalar:
        if k < 0:
            raise DomainError("natural precritical index must be >= 0")
        if k > self.kd.max_k:
            raise DomainError(
                f"z_{k} needs cutting data to S_{k} (have {self.kd.max_k})")
        nu = self.kd.nu.bits
        while len(self._natural) <= k:
            j = len(self._natural)
            s_prev, q = self.kd.S[j - 1], self.kd.q_of(j)
            y = self.hat_natural(q) if nu[s_prev - 1] == "1" \
                else self.natural(q)
            self._natural.append(self.inverse(y, s_prev))
        return self._natural[k]

    def inverse(self, y: Scalar, n: int) -> Scalar:
        """The x in [z_{k-1}, c] with T^n(x) = y, for n <= S_k: the branch
        preimages of y along nu_{n-1} .. nu_1, which every point of that
        monotone branch follows, then the increasing one.  Exact for an
        exact slope and y.
        """
        nu = self.kd.nu.bits
        for i in range(n - 1, 0, -1):
            y = branch_preimage(self.slope, y, int(nu[i - 1]))
        return branch_preimage_left(self.slope, y)

    def image(self, x: Scalar, n: int) -> Scalar:
        """T^n(x) by ``tent_apply``: the point image, or the set image of
        an interval, which ``inverse`` undoes on [z_{k-1}, c]."""
        for _ in range(n):
            x = tent_apply(self.slope, x)
        return x

    def hat_natural(self, k: int) -> Scalar:
        return s_one_minus(self.natural(k))

    def boundary(self, k: int) -> Scalar:
        """Left cell-boundary value of z_k: c_2 for k = -1, and for k = 0
        when kappa = 3."""
        if k == -1 or (k == 0 and self.kd.kappa == 3):
            return self.orbit.value(2)
        return self.natural(k)

    def boundary_hat(self, k: int) -> Scalar:
        """Right cell-boundary value zhat_k (c_1 for k = -1).  Not clamped
        when kappa = 3: zhat_0 keeps its dynamical meaning T(zhat_0) = c."""
        if k == -1:
            return self.orbit.value(1)
        return self.hat_natural(k)


def upsilon_index(x: Scalar, zp: PrecriticalTable) -> int:
    """The unique k with x in Upsilon_k, certified by comparisons against z_k.

    Raises UnresolvedComparison when the enclosure of x straddles a cell
    boundary, and DomainError when x is not certified
    inside the core minus the critical point.
    """
    c2 = zp.orbit.value(2)
    c1 = zp.orbit.value(1)
    try:
        if certified_cmp(x, c2) < 0 or certified_cmp(x, c1) > 0:
            raise DomainError("x not certified inside the core [c_2, c_1]")
    except UnresolvedComparison:
        # equality with a core endpoint is fine; being outside is not
        if x.lo < c2.lo or x.hi > c1.hi:
            raise DomainError("x not certified inside the core [c_2, c_1]")
    sign = sign_rel_c(x)
    if sign is SignRelC.AT_C:
        raise DomainError("x = c has no cell")
    if sign is SignRelC.UNRESOLVED:
        raise UnresolvedComparison("x straddles the critical point")
    # cells are walked on each side separately: the kappa = 3 clamp makes
    # the left and right boundary ladders asymmetric
    k = 0
    while True:
        if k > zp.max_k:
            raise PrecisionExhausted(
                f"x closer to c than z_{zp.max_k}; extend the kneading horizon")
        if sign is SignRelC.BELOW:
            if certified_cmp(x, zp.boundary(k)) < 0:
                return k            # x in [z_{k-1}, z_k)
        else:
            if certified_cmp(x, zp.boundary_hat(k)) > 0:
                return k            # x in (zhat_k, zhat_{k-1}]
        k += 1


def f_apply(slope: SlopeParam, y: Scalar, zp: PrecriticalTable):
    """The accelerated map F(y) = T^{S_k}(y) for y in Upsilon_k.

    Returns (F(y), k).  Unresolved cell membership propagates from
    upsilon_index.  A slope other than the table's raises DomainError.
    """
    orbit_table(slope, zp.orbit)
    k = upsilon_index(y, zp)
    return zp.image(y, zp.kd.S[k]), k


def verify_zzz(slope: SlopeParam, k: int, zp: PrecriticalTable) -> V.Verdict:
    """Check that c_{S_k} sits in the interior of Upsilon_{Q(k+1)} (k >= 2).

    For k = 0 and k = 1 the membership is on the boundary: c_1 = zhat_{-1}
    and c_2 equals the left cell edge (z_{-1}, or the clamped z_0 when
    kappa = 3).  A slope other than the table's raises DomainError.
    """
    kd = zp.kd
    if k + 1 > kd.max_k:
        raise DomainError(f"need cutting data to S_{k + 1}")
    orbit_table(slope, zp.orbit)
    q = kd.q_of(k + 1)
    val = zp.orbit.value(kd.S[k])
    if k >= 2:
        # cell boundaries per side: conventions at -1 and the kappa = 3 clamp
        # make the ladders asymmetric
        lo = zp.boundary(q - 1)
        hi = zp.boundary(q)
        lo_hat = zp.boundary_hat(q)
        hi_hat = zp.boundary_hat(q - 1)

        def strictly_inside(a, b):
            try:
                return certified_cmp(val, a) > 0 and certified_cmp(val, b) < 0
            except UnresolvedComparison:
                return None

        in_left = strictly_inside(lo, hi)
        in_right = strictly_inside(lo_hat, hi_hat)
        if in_left or in_right:
            return V.certified(RULE_ZZZ, depth=k, k=k, q=q,
                               side="left" if in_left else "right")
        if in_left is None or in_right is None:
            return V.undetermined(RULE_ZZZ, "cell comparison unresolved",
                                  depth=k, k=k, q=q)
        return V.refuted(RULE_ZZZ, depth=k, k=k, q=q)
    # boundary cases
    edge = zp.orbit.value(1) if k == 0 else zp.orbit.value(2)
    if slope.is_exact and val.is_exact and edge.is_exact:
        if val.lo == edge.lo:
            return V.certified(RULE_ZZZ, depth=k, k=k, q=q, boundary=True)
        return V.refuted(RULE_ZZZ, depth=k, k=k, q=q, boundary=True)
    if val.overlaps(edge):
        return V.evidence(RULE_ZZZ, depth=k, k=k, q=q, boundary=True)
    return V.refuted(RULE_ZZZ, depth=k, k=k, q=q, boundary=True)


def long_branched_evidence(kd: CuttingData,
                           levels: Optional[list] = None) -> V.Verdict:
    """Finite-horizon verdict for inf_n |D_n| > 0.

    Refuted-style evidence (status ``refuted``) when the minimum level length
    decays below 2^-16, the verdict's epsilon, with a decreasing trend;
    evidence when the kneading map shows bounded evidence or the minimum is
    stable above it.  ``levels`` with lengths, ``tower_levels(kd, slope,
    N)`` for the word's slope, select the numeric rule: the witness then
    carries min |D_n| and its argmin, the smallest n on a tie.  Without
    them (none, or the index form's, which has no lengths) the rule reads
    the kneading map alone.  The depth N is the number of levels given,
    else the kneading horizon.

    One pass over the levels, in order of n, keeps the minimum length of
    each half (n <= N // 2 and n > N // 2) with its first argmin: the
    trend compares the two, and the overall minimum is the smaller one,
    the first half's on a tie.
    """
    N = kd.horizon if levels is None else len(levels)
    if N < 1:
        raise DomainError(f"long-branched depth must be >= 1, got {N}")
    qa = q_asymptotics(list(kd.Q))
    witness = {"q_bounded": qa.bounded.status, "q_max": qa.max_value}
    numeric = levels is not None and levels[0].length is not None
    if numeric:
        mins = [None, None]         # (min length, argmin) per half
        for lv in levels:
            x, late = lv.length.hi, lv.n > N // 2
            best = mins[late]
            if best is None or _lt(x, best[0]):
                mins[late] = (x, lv.n)
        first, second = mins
        decreasing = first is not None and second is not None \
            and _lt(second[0], first[0])
        min_len, argmin = second if first is None or decreasing else first
        witness.update(min_length=V.approx(min_len), argmin=argmin,
                       decreasing=decreasing)
        if _lt(min_len, _LONG_BRANCH_THRESHOLD) and decreasing \
                and not qa.bounded.is_positive:
            return V.refuted(RULE_LONGBRANCH, depth=N,
                             epsilon=_LONG_BRANCH_THRESHOLD, **witness)
    if qa.bounded.is_positive:
        return V.evidence(RULE_LONGBRANCH, depth=N, **witness)
    if numeric and witness.get("decreasing") is False:
        return V.evidence(RULE_LONGBRANCH, depth=N, **witness)
    if not numeric and qa.to_infinity.is_positive:
        return V.refuted(RULE_LONGBRANCH, depth=N, **witness)
    return V.undetermined(RULE_LONGBRANCH, "no stable trend", depth=N, **witness)


def _tolerance(eps) -> Fraction:
    """``eps`` as a Fraction; DomainError unless it is > 0."""
    eps = Fraction(eps)
    if eps <= 0:
        raise DomainError(f"eps must be > 0, got {eps}")
    return eps


def cutting_value_gaps(zp: PrecriticalTable, K: int, eps):
    """Largest gap in {c_{S_k} : k <= K} (plus core endpoints), and the
    sub-report restricted to k with Q(k) <= 1, from the table's cutting
    data and orbit.

    The verdict is about eps-density at this horizon only; eps must be > 0.
    """
    eps = _tolerance(eps)
    kd, orbit = zp.kd, zp.orbit
    if kd.max_k < K:
        raise DomainError(f"cutting data only reaches S_{kd.max_k}")

    def gap_report(ks):
        pts = [(orbit.value(kd.S[k]), kd.S[k]) for k in ks]
        pts.append((orbit.value(1), 1))
        pts.append((orbit.value(2), 2))
        pts.sort(key=lambda p: p[0].lo)
        rows = []
        worst = (Fraction(0), None)
        for (a, na), (b, nb) in zip(pts, pts[1:]):
            gap = b.hi - a.lo          # outer estimate of the gap
            rows.append({"from_n": na, "to_n": nb, "gap_hi": V.approx(gap)})
            if gap > worst[0]:
                worst = (gap, (na, nb))
        return rows, worst

    all_rows, (max_gap, max_pair) = gap_report(range(0, K + 1))
    small_ks = [k for k in range(0, K + 1) if kd.q_of(k) <= 1]
    small_rows, (small_gap, small_pair) = gap_report(small_ks)
    dense = max_gap <= eps
    verdict = V.evidence(RULE_DENSITY, depth=K, epsilon=eps,
                         max_gap=V.approx(max_gap), pair=max_pair) if dense else \
        V.refuted(RULE_DENSITY, depth=K, epsilon=eps,
                  max_gap=V.approx(max_gap), pair=max_pair)
    return {
        "K": K,
        "eps": V.approx(eps),
        "max_gap": max_gap,
        "max_gap_pair": max_pair,
        "rows": all_rows,
        "restricted_q_le_1": {"ks": small_ks, "max_gap": small_gap,
                              "pair": small_pair, "rows": small_rows},
        "eps_dense_at_horizon": verdict,
    }


def f_graph_data(zp: PrecriticalTable, grid: int = 256, max_cell: int = 8):
    """Sample rows (x_lo, x_hi, F_lo, F_hi, cell_k) for plotting Eq-style
    graphs of the accelerated map; cell-aware so each branch piece shows its
    affine structure (at least 3 interior points per piece)."""
    if max_cell < 0:
        raise DomainError(f"max_cell must be >= 0, got {max_cell}")
    c2 = zp.orbit.value(2)
    c1 = zp.orbit.value(1)
    samples = []
    for k in range(0, max_cell + 1):
        if k > zp.max_k:
            break
        lo = zp.boundary(k - 1)
        hi = zp.boundary(k)
        if not lo.certainly_lt(hi):
            continue
        for i in (1, 2, 3):
            t = Fraction(i, 4)
            pt = Scalar.exact(lo.hi + (hi.lo - lo.hi) * t)
            samples.append(pt)
            samples.append(s_one_minus(pt))
    lo_f, hi_f = c2.hi, c1.lo
    for i in range(1, grid):
        samples.append(Scalar.exact(lo_f + (hi_f - lo_f) * Fraction(i, grid)))
    rows = []
    for x in samples:
        try:
            y, k = f_apply(zp.slope, x, zp)
        except (UnresolvedComparison, DomainError, PrecisionExhausted):
            continue
        rows.append((x.lo, x.hi, y.lo, y.hi, k))
    rows.sort(key=lambda r: (r[0], r[4]))
    return rows
