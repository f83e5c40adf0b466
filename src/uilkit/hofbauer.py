"""Geometric realization of the Hofbauer tower for tent maps.

Tower levels follow the inductive definition D_1 = [c, c_1] and
D_{n+1} = [c_{n+1}, c_1] when c is in D_n, else T(D_n); the index form
D_n = [c_n, c_beta(n)] (with c_0 standing for c) is computed independently
from the cutting structure and cross-checked against the induction.  For
an interval slope both compare ends by cross-multiplying their integers
(shifting dyadic ones) and subtract them by Fraction's two-gcd rule, to the
same reduced Fractions.  For an exact slope p/q both run on the integer
orbit c_m = a_m / (2 q^m): the induction carries integer pairs (a, m), the
cross-check is integer equality, and one integer orders a level's ends and
gives its reduced length with no gcd (``_exact_tower_levels``).

Closest precritical points z_k < c < zhat_k = 1 - z_k satisfy
T^{S_k}(z_k) = c with no earlier critical visit on [z_k, zhat_k]; they are
obtained exactly by composing inverse branches along the kneading symbols.
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
from .kneading import CuttingData, cutting_data, nu_from_orbit, q_asymptotics
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

    def check_word(self, word: str):
        """Raise DomainError when ``word`` and ``self.word`` differ within
        their common length: ``word`` is then another slope's."""
        _check_word(word, self.word, "the orbit table", self.slope)


def _check_word(word: str, signs: str, source: str, slope: SlopeParam):
    """DomainError naming ``source`` when ``word`` and the certified
    ``signs`` of ``slope`` differ within their common length."""
    if word[:len(signs)] != signs[:len(word)]:
        n = next(i for i, (a, b) in enumerate(zip(word, signs), 1) if a != b)
        raise DomainError(f"kneading word disagrees with {source} of "
                          f"{slope.name or 'its slope'} at nu_{n}")


def orbit_table(slope: SlopeParam,
                orbit: Optional[OrbitTable] = None) -> OrbitTable:
    """``orbit``, or a table for ``slope`` at the default cap.

    A caller sets the precision cap by building the table itself.  A table
    built for a slope with other ends is rejected.
    """
    if orbit is None:
        return OrbitTable(slope)
    if orbit.slope.s.lo != slope.s.lo or orbit.slope.s.hi != slope.s.hi:
        raise DomainError("orbit table built for another slope")
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


@dataclass(frozen=True)
class TowerLevel:
    n: int
    beta_n: int                       # 0 stands for the critical point c
    numeric: Optional[tuple] = None   # enclosures (index form, induction)
    length: Optional[Scalar] = None
    contains_c: bool = False

    @property
    def endpoint_indices(self):
        return (self.n, self.beta_n)

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
    computations of every level must agree (exactly for exact slopes,
    overlapping enclosures otherwise) or InternalInconsistency is raised.
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

    orbit = orbit_table(slope, orbit)
    orbit.extend(N)
    orbit.check_word(kd.nu.bits)
    if slope.is_exact:
        return _exact_tower_levels(kd, slope, N, orbit, cuts)
    c1 = orbit.value(1)
    # The inductive level is carried as its two endpoint values; away from
    # cutting times c is outside the level, so T maps endpoints to endpoints.
    end_a, end_b = Scalar.exact(C), c1          # D_1 = [c, c_1]
    levels = []
    for n in range(1, N + 1):
        beta = kd.beta_of(n)
        lo_idx = orbit.value(n)
        hi_idx = orbit.value(beta)
        index_form = _scalar(*_hull(lo_idx, hi_idx),
                             min(lo_idx.precision_bits, hi_idx.precision_bits))
        inductive = _scalar(*_hull(end_a, end_b),
                            min(end_a.precision_bits, end_b.precision_bits))
        if _lt(inductive.hi, index_form.lo) or _lt(index_form.hi, inductive.lo):
            raise InternalInconsistency(
                f"tower level {n}: index form [{index_form.lo}, {index_form.hi}] "
                f"!= induction [{inductive.lo}, {inductive.hi}]")
        width = low = _diff(index_form.hi, index_form.lo)
        for x in (lo_idx, hi_idx):
            if x.lo is not x.hi:                # an exact end has width 0
                low = _diff(low, _diff(x.hi, x.lo))
        length = _scalar(Fraction(0) if low.numerator < 0 else low, width,
                         DEFAULT_PRECISION)
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


def tower_level(kd: CuttingData, n: int) -> TowerLevel:
    if n < 1:
        raise DomainError(f"tower level index must be >= 1, got {n}")
    return tower_levels(kd, None, n)[n - 1]


@dataclass(frozen=True)
class PrecriticalPair:
    """z_k and zhat_k = 1 - z_k, with the conventions for k = -1 and kappa = 3.

    ``z_natural`` is the genuine closest precritical point (T^{S_k} maps it to
    c); ``z`` is the cell-boundary convention value, which differs from the
    natural point only for k = 0 when kappa = 3 (then z is clamped to c_2).
    """

    k: int
    z: Scalar
    zhat: Scalar
    z_natural: Scalar
    flags: tuple = ()

    def to_json(self):
        return {"k": self.k, "z": self.z.to_json(), "zhat": self.zhat.to_json(),
                "flags": list(self.flags)}


class PrecriticalTable:
    """Certified closest precritical points for a slope, lazily extended.

    z_k is computed by inverting the monotone branch of T^{S_{k-1}} on
    [z_{k-1}, c]: the inverse composes branch preimages along the kneading
    symbols and finishes with the increasing branch.  The image endpoint used
    is whichever of z_{Q(k)}, zhat_{Q(k)} lies between c and c_{S_{k-1}}, read
    off from the kneading bit at S_{k-1}.

    Those symbols and the cutting times S_{k-1}, S_k that fix Q(k) are read
    off nu_1 .. nu_{S_k}, which must be the slope's own: ``check_symbols``
    takes a word ``nu_from_orbit`` certified for this slope object, and
    holds any other to the orbit table's signs, up to the first sign
    unresolved at the cap, with DomainError on a mismatch.
    """

    def __init__(self, slope: SlopeParam, kd: CuttingData,
                 orbit: Optional[OrbitTable] = None):
        self.slope = slope
        self.kd = kd
        self.orbit = orbit_table(slope, orbit)
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
        if len(self._natural) <= k:
            self.check_symbols(k)
        while len(self._natural) <= k:
            j = len(self._natural)
            s_prev, q = self.kd.S[j - 1], self.kd.q_of(j)
            y = self.hat_natural(q) if nu[s_prev - 1] == "1" \
                else self.natural(q)
            for i in range(s_prev - 1, 0, -1):
                y = branch_preimage(self.slope, y, int(nu[i - 1]))
            self._natural.append(branch_preimage_left(self.slope, y))
        return self._natural[k]

    def check_symbols(self, k: int):
        """Raise DomainError unless nu_1 .. nu_{S_k} of the cutting data
        are the slope's certified signs, as far as they resolve."""
        if self.kd.nu.certified_for is not self.slope:
            n = self.kd.S[k]
            self.orbit.extend(n)
            _check_word(self.kd.nu.bits[:n], self.orbit.word,
                        "the certified signs", self.slope)

    def hat_natural(self, k: int) -> Scalar:
        return s_one_minus(self.natural(k))

    def pair(self, k: int) -> PrecriticalPair:
        if k == -1:
            c2 = self.orbit.value(2)
            return PrecriticalPair(-1, c2, self.orbit.value(1), c2,
                                   ("boundary-convention",))
        z = self.natural(k)
        if k == 0 and self.kd.kappa == 3:
            # only the left boundary is clamped into the core; the hat point
            # keeps its dynamical meaning T(zhat_0) = c
            z_adj = self.orbit.value(2)
            return PrecriticalPair(0, z_adj, s_one_minus(z), z,
                                   ("kappa3-clamped-to-c2",))
        return PrecriticalPair(k, z, s_one_minus(z), z, ())

    def boundary(self, k: int) -> Scalar:
        """Left cell-boundary value of z_k (conventions included)."""
        return self.pair(k).z

    def boundary_hat(self, k: int) -> Scalar:
        """Right cell-boundary value zhat_k (c_1 for k = -1)."""
        return self.pair(k).zhat


def closest_precriticals(slope: SlopeParam, upto_k: int):
    """Certified pairs (z_k, zhat_k) for k = 0 .. upto_k, from the shortest
    kneading prefix (doubling from 4 symbols) that reaches S_{upto_k}."""
    depth = 4
    while (kd := cutting_data(nu_from_orbit(slope, depth))).max_k < upto_k:
        depth *= 2
    table = PrecriticalTable(slope, kd)
    return [table.pair(k) for k in range(0, upto_k + 1)]


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
    upsilon_index.
    """
    k = upsilon_index(y, zp)
    out = y
    for _ in range(zp.kd.S[k]):
        out = tent_apply(slope, out)
    return out, k


def verify_zzz(slope: SlopeParam, k: int, zp: PrecriticalTable) -> V.Verdict:
    """Check that c_{S_k} sits in the interior of Upsilon_{Q(k+1)} (k >= 2).

    For k = 0 and k = 1 the membership is on the boundary: c_1 = zhat_{-1}
    and c_2 equals the left cell edge (z_{-1}, or the clamped z_0 when
    kappa = 3).
    """
    kd = zp.kd
    if k + 1 > kd.max_k:
        raise DomainError(f"need cutting data to S_{k + 1}")
    zp.check_symbols(k + 1)
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


def long_branched_evidence(kd: CuttingData, N: Optional[int] = None,
                           slope: Optional[SlopeParam] = None,
                           levels: Optional[list] = None) -> V.Verdict:
    """Finite-horizon verdict for inf_n |D_n| > 0.

    Refuted-style evidence (status ``refuted``) when the minimum level length
    decays below 2^-16, the verdict's epsilon, with a decreasing trend;
    evidence when the kneading map shows bounded evidence or the minimum is
    stable above it.  The witness always carries min |D_n| and its argmin
    when a slope is available, argmin the smallest n on a tie.  ``levels``,
    when given, must be ``tower_levels(kd, slope, N, orbit=...)``; it saves
    recomputing them.  ``N`` defaults to the kneading horizon.

    One pass over the levels, in order of n, keeps the minimum length of
    each half (n <= N // 2 and n > N // 2) with its first argmin: the
    trend compares the two, and the overall minimum is the smaller one,
    the first half's on a tie.
    """
    N = kd.horizon if N is None else N
    if N < 1:
        raise DomainError(f"long-branched depth must be >= 1, got {N}")
    qa = q_asymptotics(list(kd.Q))
    witness = {"q_bounded": qa.bounded.status, "q_max": qa.max_value}
    if slope is not None:
        levels = levels or tower_levels(kd, slope, N)
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
    if slope is not None and witness.get("decreasing") is False:
        return V.evidence(RULE_LONGBRANCH, depth=N, **witness)
    if slope is None and qa.to_infinity.is_positive:
        return V.refuted(RULE_LONGBRANCH, depth=N, **witness)
    return V.undetermined(RULE_LONGBRANCH, "no stable trend", depth=N, **witness)


def cutting_value_gaps(slope: SlopeParam, K: int, eps, kd: CuttingData,
                       orbit: Optional[OrbitTable] = None):
    """Largest gap in {c_{S_k} : k <= K} (plus core endpoints), and the
    sub-report restricted to k with Q(k) <= 1.

    The verdict is about eps-density at this horizon only.
    """
    eps = Fraction(eps)
    orbit = orbit_table(slope, orbit)
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


def f_graph_data(slope: SlopeParam, zp: PrecriticalTable, grid: int = 256,
                 max_cell: int = 8):
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
            y, k = f_apply(slope, x, zp)
        except (UnresolvedComparison, DomainError, PrecisionExhausted):
            continue
        rows.append((x.lo, x.hi, y.lo, y.hi, k))
    rows.sort(key=lambda r: (r[0], r[4]))
    return rows
