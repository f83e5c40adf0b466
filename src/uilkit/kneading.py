"""Kneading sequences, cutting times, kneading maps and admissibility.

A kneading prefix is the itinerary word of the critical value: bit n is 1
when the n-th image of the critical point lies above c.  Cutting times are
read off combinatorially: after a cutting time the sequence copies its own
prefix, and the next cutting time is the first position where the copy
breaks.  Equivalently they are the orbit of 1 under

    rho(j) = min{ k > j : nu_k != nu_{k-j} },

while the co-cutting times are the rho-orbit of the first 1 after position 1.
``_lcp`` computes rho(j) - j - 1, the common prefix of nu and its j-shift, by
slice comparisons; the kneading map's lexicographic check uses it on lists.
It is one of three prefix primitives, each the measured fastest on its
traffic, with ``inverse_limit._kmp_scan`` and ``scalars.parity_lex_cmp``.
The kneading map Q is defined by S_k - S_{k-1} = S_{Q(k)} with Q(0) = 0,
and beta(n) = n - S_{k-1} for S_{k-1} < n <= S_k is read off S.

The scan of a word that extends an already scanned word resumes where that
scan stopped (``_extend_cutting``), and the result is exact.  A word that
scanned without a failure ended its cutting loop because rho ran off the
word: a step n <= len with n > 2 * last would have refuted it.  Wherever
rho(j) is defined on the shorter word it has the same value on the longer
one.  So every new cutting time lies past the shorter word and every old
co-cutting time within it: S and Q resume at the last cutting time, the
co-cutting orbit at the last co-cutting time (afresh if there was none).

Two independent admissibility checkers are provided and cross-validated:

* ``admissible_q``        -- 0 <= Q(k) < k together with the lexicographic
                             tail condition on the kneading map;
* ``admissible_disjoint`` -- structural scan of the word itself: consecutive
                             cutting gaps must be earlier cutting times, and
                             cutting and co-cutting times must be disjoint.

Both return horizon-censored verdicts: any comparison that needs symbols
beyond the prefix yields evidence, never a certificate.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from . import verdicts as V
from .errors import DomainError, NotAdmissible
from .scalars import DEFAULT_PREC_CAP, SlopeParam, _BINARY, _critical_word

RULE_Q = "admissibility-kneading-map-lex"
RULE_DISJOINT = "admissibility-cut-cocut-disjoint"
RULE_RENORM = "renormalization-window-scan"
RULE_QASYMP = "kneading-map-asymptotics"


class KneadingPrefix:
    """A finite kneading word nu_1 .. nu_N over {0, 1}.

    ``periodic_tail=(p, q)`` declares that the (hypothetical) infinite word
    continues q-periodically after preperiod p.  Genuine tent slopes with an
    infinite critical orbit never produce eventually periodic kneading
    sequences, so the declaration is only honoured for literal inputs; it is
    what makes tail-pumping certificates possible in synthetic tests.
    ``certified_for`` is the slope object that ``nu_from_orbit`` certified
    the bits for, else None.  ``match_tables`` is None until
    ``inverse_limit.tau_data`` or ``inverse_limit.endpoint_itinerary_gen``
    first reads the word, then the KMP failure table of ``bits``, its
    prefix parities and the first and the second child (0 for none) of each
    node of the failure tree, as far as any call has read.
    Equality and hashing read ``bits`` alone.
    """

    __slots__ = ("bits", "source", "flags", "periodic_tail", "certified_for",
                 "match_tables")

    def __init__(self, bits: str, source: str = "literal", flags=(),
                 periodic_tail: Optional[tuple[int, int]] = None):
        if not bits:
            raise NotAdmissible(1, "empty kneading prefix")
        if not _BINARY(bits):
            raise DomainError(f"kneading prefix must be over 0/1: {bits[:20]!r}")
        if bits[0] != "1":
            raise NotAdmissible(1, "nu_1 must be 1 (c_1 > c for every slope)")
        self.bits = bits
        self.source = source
        self.flags = frozenset(flags)
        self.periodic_tail = periodic_tail
        self.certified_for = None
        self.match_tables = None

    def __len__(self):
        return len(self.bits)

    def __getitem__(self, n: int) -> str:
        """1-based symbol access nu_n."""
        if not 1 <= n <= len(self.bits):
            raise IndexError(n)
        return self.bits[n - 1]

    def __eq__(self, other):
        return isinstance(other, KneadingPrefix) and self.bits == other.bits

    def __hash__(self):
        return hash(self.bits)

    def __repr__(self):
        head = self.bits if len(self.bits) <= 24 else self.bits[:24] + "..."
        return f"KneadingPrefix({head}, len={len(self.bits)}, source={self.source})"

    def symbol_at(self, n: int) -> Optional[str]:
        """nu_n, using the declared periodic tail when n exceeds the prefix."""
        if n < 1:
            raise IndexError(n)
        if n <= len(self.bits):
            return self.bits[n - 1]
        if self.periodic_tail is None:
            return None
        pre, per = self.periodic_tail
        if per <= 0 or pre + per > len(self.bits):
            return None
        return self.bits[pre + (n - pre - 1) % per]


def _lcp(seq, i: int, j: int) -> int:
    """Length of the common prefix of seq[i:] and seq[j:] (a str or a list):
    slice comparisons gallop over blocks of 4, 8, 16, ..., then bisect the
    first block that differs."""
    limit = len(seq) - max(i, j)
    lo, hi = 0, 4
    while seq[i + lo:i + hi] == seq[j + lo:j + hi]:
        if hi >= limit:
            return limit
        lo, hi = hi, hi + 2 * (hi - lo)
    # seq[i:i+lo] == seq[j:j+lo], and the first difference lies in [lo, hi);
    # for i != j a slice cut short by the end of seq compares unequal, which
    # is a difference at limit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if seq[i + lo:i + mid] == seq[j + lo:j + mid]:
            lo = mid
        else:
            hi = mid
    return lo


def rho_step(bits: str, j: int) -> Optional[int]:
    """rho(j) = min{k > j : nu_k != nu_{k-j}}, or None if it exits the prefix."""
    if j >= len(bits):
        return None
    # steps of length 1 and 2, common with dense cutting times, need no call
    if bits[j] != bits[0]:
        return j + 1
    if j + 1 < len(bits) and bits[j + 1] != bits[1]:
        return j + 2
    k = j + 1 + _lcp(bits, j, 0)
    return k if k <= len(bits) else None


def _scan_structure(bits: str, S=(1,), Q=(), cocut=()):
    """One pass over a word with nu_1 = 1 computing cutting data and
    structural failures: (S, Q, cocut, cocut_censored, refute_pos,
    refute_reason), with S and Q filled up to the failure point.  Given the
    S, Q and co-cutting times of a prefix of the word that scanned without
    a failure, the pass resumes where that scan stopped."""
    S, Q = list(S), list(Q)
    s_index = {s: k for k, s in enumerate(S)}
    # the cutting times are the rho-orbit of 1
    last = S[-1]
    while (n := rho_step(bits, last)) is not None and n <= 2 * last:
        gap = n - last
        if gap not in s_index:
            return S, Q, [], False, n, (
                f"cutting gap {gap} at position {n} is not a cutting time")
        Q.append(s_index[gap])
        s_index[n] = len(S)
        S.append(n)
        last = n
    if 2 * last <= len(bits):
        return S, Q, [], False, 2 * last, (
            f"no cutting time in ({last}, {2 * last}]; the next gap "
            f"could not be a cutting time")
    cocut = list(cocut)
    for j in _cocut_orbit(bits, cocut[-1] if cocut else None):
        cocut.append(j)
        if j in s_index:
            return S, Q, cocut, False, j, (
                f"position {j} is both a cutting and a co-cutting time")
    return S, Q, cocut, bool(cocut), None, None


def _cocut_orbit(bits: str, after: Optional[int] = None):
    """The rho-orbit of the first 1 after position 1, until a step exits;
    given a co-cutting time ``after``, the orbit's part past it."""
    j = bits.find("1", 1) + 1 if after is None else rho_step(bits, after) or 0
    while j:
        yield j
        j = rho_step(bits, j) or 0


@dataclass(frozen=True)
class CuttingData:
    """Cutting times, kneading map and co-cutting times; beta is read off S.

    ``cocut_censored`` is True when the last rho step of the co-cutting
    orbit ran off the word, so later co-cutting times may exist.
    """

    S: tuple
    Q: tuple
    cocut: tuple
    cocut_censored: bool
    horizon: int
    kappa: Optional[int]
    nu: KneadingPrefix = field(repr=False)

    def q_of(self, k: int) -> int:
        """Q(k) with the Q(0) = 0 convention, for 0 <= k <= max_k."""
        if not 0 <= k <= self.max_k:
            raise IndexError(k)
        return self.Q[k - 1] if k else 0

    def beta_of(self, n: int) -> int:
        """n - S_{k-1} for S_{k-1} < n <= S_k; beta(1) = 0 stands for c."""
        if not 1 <= n <= self.horizon:
            raise IndexError(n)
        return n - self.S[bisect_left(self.S, n, 1) - 1]

    @property
    def max_k(self) -> int:
        return len(self.S) - 1


def cutting_data(nu: KneadingPrefix) -> CuttingData:
    """Cutting times S_k, kneading map Q and co-cutting times.

    Raises NotAdmissible at the first position where the word cannot be a
    kneading sequence prefix.
    """
    return _cutting_data(nu, [1], [], [])


def _extend_cutting(kd: CuttingData, bits: str) -> CuttingData:
    """``cutting_data(KneadingPrefix(bits))`` for a word ``bits`` that starts
    with ``kd``'s word: the scan resumes where ``kd``'s stopped."""
    if not bits.startswith(kd.nu.bits):
        raise DomainError("the word does not extend the scanned word")
    return _cutting_data(KneadingPrefix(bits), kd.S, kd.Q, kd.cocut)


def _cutting_data(nu, S, Q, cocut) -> CuttingData:
    """Cutting data of ``nu`` from the scan state of a prefix of it: its
    S, Q and co-cutting times (nu_1 alone: [1], [], [])."""
    S, Q, cocut, censored, pos, reason = _scan_structure(nu.bits, S, Q, cocut)
    if pos is not None:
        raise NotAdmissible(pos, reason)
    return CuttingData(tuple(S), tuple(Q), tuple(cocut), censored,
                       len(nu.bits), cocut[0] if cocut else None, nu)


def _checked(kd: CuttingData, nu: KneadingPrefix) -> CuttingData:
    """``kd``, when it is the cutting data of ``nu``'s word."""
    if kd.nu.bits != nu.bits:
        raise DomainError("the cutting data belong to another kneading word")
    return kd


def admissible_disjoint(nu: KneadingPrefix,
                        kd: Optional[CuttingData] = None) -> V.Verdict:
    """Word-structure admissibility: gaps recurse and cut/co-cut are disjoint.
    A given ``kd = cutting_data(nu)`` stands for a scan with no failure."""
    S, _, cocut, censored, pos, reason = (
        _scan_structure(nu.bits) if kd is None
        else (_checked(kd, nu).S, kd.Q, kd.cocut, kd.cocut_censored, None,
              None))
    if pos is not None:
        return V.refuted(RULE_DISJOINT, depth=len(nu.bits), position=pos,
                         reason=reason)
    return V.evidence(RULE_DISJOINT, depth=len(nu.bits),
                      cutting=list(S), cocutting=list(cocut),
                      cocut_censored=censored)


def _materialize_q(q, upto: Optional[int]):
    """Q as a list: a callable read as Q(1)..Q(upto), a list read whole.
    Every kneading-map consumer reads Q here, or on demand through
    ``_QRead`` when its scan may stop early; those that scan Q to a horizon
    cut it with ``_q_upto``."""
    if callable(q):
        if upto is None:
            raise DomainError("a callable Q needs an explicit horizon")
        return [q(k) for k in range(1, upto + 1)]
    return list(q)


class _QRead(list):
    """Q(1), Q(2), ... as read so far, each value range-checked as it is
    read: NotAdmissible at the first k with Q(k) outside [0, k).  A list Q
    is read whole at once; ``more(n)`` reads a callable on to n values, at
    least twice as many as before but never past Q(upto), and tells whether
    n values are read."""

    __slots__ = ("q", "upto")

    def __init__(self, q, upto: int):
        super().__init__(() if callable(q) else q)
        self.q, self.upto = (q if callable(q) else None), upto
        _check_range(self, 0)

    def more(self, n: int) -> bool:
        start = len(self)
        if n > start and self.q is not None:
            stop = min(self.upto, max(n, 2 * start))
            self.extend(map(self.q, range(start + 1, stop + 1)))
            _check_range(self, start)
        return n <= len(self)


def _check_range(qs, start: int):
    """NotAdmissible at the first k > start with Q(k) outside [0, k)."""
    for k, qk in enumerate(qs[start:], start + 1):
        if not 0 <= qk < k:
            raise NotAdmissible(k, _q_out_of_range(k, qk))


def _q_upto(q, horizon: Optional[int]):
    """Q(1)..Q(horizon) as a list (a list Q read whole when ``horizon`` is
    None); a negative horizon raises ``DomainError``."""
    if horizon is not None and horizon < 0:
        raise DomainError(f"horizon must be >= 0, got {horizon}")
    return _materialize_q(q, horizon)[:horizon]


def _q_lookup(qs):
    """j -> Q(j) over the list Q(1), Q(2), ...; Q(0) = 0, None beyond it."""
    m = len(qs)

    def q_of(j):
        if 0 < j <= m:
            return qs[j - 1]
        return 0 if j == 0 else None
    return q_of


def _q_out_of_range(k: int, qk: int) -> str:
    """Why Q(k) breaks 0 <= Q(k) < k."""
    return f"Q({k}) = {qk} " + (f">= {k}" if qk >= k else "< 0")


def _cutting_times(qs, horizon: Optional[int] = None) -> list:
    """S_0 = 1 and S_k = S_{k-1} + S_{Q(k)}, while 0 <= Q(k) < k and (with a
    horizon) until the first S_k >= horizon."""
    S = [1]
    for qk in qs:
        if not 0 <= qk < len(S) or horizon is not None and S[-1] >= horizon:
            break
        S.append(S[-1] + S[qk])
    return S


def admissible_q(q, horizon: Optional[int] = None) -> V.Verdict:
    """Kneading-map admissibility: 0 <= Q(k) < k and the lexicographic
    condition.

    The tail condition compares { Q(Q^2(k)+j) } against { Q(k+j) } for
    j >= 1; comparisons truncate at the available data.  ``horizon`` bounds
    the k that must resolve for a certificate; by default all k are examined
    and the verdict is at best evidence (the last k can never resolve).
    A list Q is read whole, a callable as Q(1) .. Q(2 * horizon + 4).
    ``nu_from_q`` passes its ``_QRead``, which is read on only where a
    comparison runs off the values read so far.
    """
    qs = q if isinstance(q, _QRead) else _materialize_q(
        q, None if horizon is None else 2 * horizon + 4)
    m = len(qs)
    limit = horizon if horizon is not None else m
    first_unresolved = None
    for k in range(1, min(limit, m) + 1):
        qk = qs[k - 1]
        if not 0 <= qk < k:
            return V.refuted(RULE_Q, depth=limit, k=k,
                             reason=_q_out_of_range(k, qk))
        # qq = Q^2(k) < k, so qs[k:] runs off the data before qs[qq:] does
        qq = qs[qk - 1] if qk else 0
        while True:
            t = _lcp(qs, qq, k) if k < m and qs[qq] == qs[k] else 0
            if k + t < m:
                a, b = qs[qq + t], qs[k + t]
                if a > b:
                    j = t + 1
                    return V.refuted(RULE_Q, depth=limit, k=k, j=j,
                                     reason=(f"lex violation at k={k}: "
                                             f"Q({qq + j}) = {a} > "
                                             f"Q({k + j}) = {b}"))
                break
            if not isinstance(qs, _QRead) or not qs.more(m + 1):
                if first_unresolved is None:
                    first_unresolved = k
                break
            m = len(qs)
    if limit > m:
        first_unresolved = first_unresolved or (m + 1)
    if first_unresolved is None:
        return V.certified(RULE_Q, depth=limit, checked_k=limit)
    return V.evidence(RULE_Q, depth=limit, first_unresolved_k=first_unresolved)


def nu_from_q(q, horizon: int) -> KneadingPrefix:
    """Reconstruct the kneading word from its kneading map.

    nu_1 = 1; between cutting times the word copies its own prefix and at a
    cutting time the copied symbol is flipped.  Round-trips with
    ``cutting_data``.  Raises NotAdmissible when Q violates admissibility
    within the horizon.

    A list Q is read and range-checked whole.  A callable is read on
    demand, in blocks that double, each value range-checked as it is read:
    Q(1), Q(2), ... until S_m >= horizon, then on only where the
    lexicographic check of some k <= m runs off the values read, and no
    further than Q(2 * horizon + 4).  A Q(k) out of range past what is
    read raises nothing: the word is returned, or the lexicographic
    violation that the values read show.
    """
    if horizon is None or horizon < 1:
        raise DomainError("horizon must be >= 1")
    qs = _QRead(q, 2 * horizon + 4)
    S = _cutting_times(qs, horizon)
    while S[-1] < horizon and qs.more(len(S)):
        S = _cutting_times(qs, horizon)
    bits = "1"
    for prev, s_new in zip(S, S[1:]):
        # nu_{S_{k-1}+1} .. nu_{S_k} copy nu_1 .. nu_{S_{Q(k)}}, with the
        # symbol at the cutting time S_k flipped
        gap = s_new - prev
        bits += bits[:gap - 1] + ("1" if bits[gap - 1] == "0" else "0")
    # when Q runs out before the horizon the word has period S_k, its length
    bits *= -(-horizon // len(bits))
    # the k loop ascends, so checking the k used finds the same first failure
    check = admissible_q(qs, horizon=len(S) - 1)
    if check.is_refuted:
        raise NotAdmissible(check.witness["k"], check.witness["reason"])
    return KneadingPrefix(bits[:horizon], source="from_q")


def nu_from_orbit(slope: SlopeParam, N: int,
                  prec_cap: int = DEFAULT_PREC_CAP) -> KneadingPrefix:
    """Certified kneading prefix of a slope; PrecisionExhausted, never a guess.

    No slope in (1, 2] raises CriticalHit: for s = p/q in lowest terms, q > 1,
    c_n = a_n / (2 q^n) with a_{n+1} = p * min(a_n, 2 q^n - a_n) coprime to q
    never equals c or repeats.  Only s = 2 repeats (c_2 = c_3 = 0), which
    flags ``critical_orbit_finite``; an interval slope never hits c exactly.

    The signs are those of ``critical_orbit(slope, N, prec_cap)``, with its
    exceptions, from ``scalars._critical_word``.  An interval slope's
    fixed-point ball runs at each precision of the orbit's schedule and
    hands over to the orbit itself at the first sign it leaves undecided.
    An exact slope p/q reads nu_n = 1 off a_n > q^n in the integer
    recurrence when q < 2^32, and otherwise widens a ball until it decides
    every sign.  The prefix is ``certified_for`` this very object: an
    interval with the ends of a bracketed slope certifies fewer signs.
    """
    bits = _critical_word(slope, N, prec_cap)
    flags = ("critical_orbit_finite",) if N >= 3 and slope.s.lo == 2 else ()
    nu = KneadingPrefix(bits, f"slope:{slope.name or 'slope'}", flags)
    nu.certified_for = slope
    return nu


def renorm_scan(q, horizon: int):
    """Scan for renormalization windows: k >= 2 with Q(k+j) >= k-1 for all j.

    Returns a dict with per-candidate verdicts and the ordered list of
    candidates passing at the horizon (a nested cascade when several pass).
    One pass: Q(i) < k - 1 closes the open window k with j = i - k; the open
    windows form a stack in increasing k and close from its top.
    """
    qs = _q_upto(q, horizon)
    m = len(qs)
    per_k = dict.fromkeys(range(2, m + 1))
    passing = []                                # the open windows
    for i in range(2, m + 1):
        passing.append(i)
        while passing and qs[i - 1] < passing[-1] - 1:
            k = passing.pop()
            per_k[k] = V.refuted(RULE_RENORM, depth=m, k=k, j=i - k,
                                 value=qs[i - 1])
    for k in passing:
        per_k[k] = V.evidence(RULE_RENORM, depth=m, k=k, checked_j=m - k)
    return {"per_k": per_k, "passing": passing, "horizon": m}


@dataclass(frozen=True)
class QAsymptotics:
    """Finite-horizon verdicts about the behaviour of the kneading map."""

    to_infinity: V.Verdict
    bounded: V.Verdict
    unbounded: V.Verdict
    eventually_le_k_minus_2: V.Verdict
    eventually_ne_1: V.Verdict
    max_value: int
    horizon: int

    def to_json(self):
        return {
            "to_infinity": self.to_infinity.to_json(),
            "bounded": self.bounded.to_json(),
            "unbounded": self.unbounded.to_json(),
            "eventually_le_k_minus_2": self.eventually_le_k_minus_2.to_json(),
            "eventually_ne_1": self.eventually_ne_1.to_json(),
            "max_value": self.max_value,
            "horizon": self.horizon,
        }


def q_asymptotics(q, horizon: Optional[int] = None) -> QAsymptotics:
    """Window-based evidence for Q -> oo, boundedness and related flags.

    The horizon is split into four windows; divergence evidence requires the
    window minima to strictly increase and new maxima to keep appearing in
    the second half, boundedness evidence requires the maximum to be attained
    in the first half.  At most one of the two can hold.
    """
    qs = _q_upto(q, horizon)
    m = len(qs)
    if m < 8:
        und = V.undetermined(RULE_QASYMP, "horizon too short", depth=m)
        return QAsymptotics(und, und, und, und, und, max(qs or [0]), m)

    quarter = m // 4
    windows = [qs[i * quarter:(i + 1) * quarter] for i in range(3)]
    windows.append(qs[3 * quarter:])
    mins = [min(w) for w in windows]
    last_new_max = 0
    best = -1
    for i, v in enumerate(qs):
        if v > best:
            best = v
            last_new_max = i
    grows = all(mins[i] < mins[i + 1] for i in range(3))
    fresh_maxima = last_new_max >= m // 2

    if grows and fresh_maxima:
        to_inf = V.evidence(RULE_QASYMP, depth=m, window_mins=mins)
        bounded = V.refuted(RULE_QASYMP, depth=m, window_mins=mins)
    elif not fresh_maxima:
        to_inf = V.refuted(RULE_QASYMP, depth=m, window_mins=mins,
                           last_new_max=last_new_max + 1)
        bounded = V.evidence(RULE_QASYMP, depth=m, max_value=best,
                             last_new_max=last_new_max + 1)
    else:
        to_inf = V.undetermined(RULE_QASYMP, "mixed window statistics", depth=m,
                                window_mins=mins)
        bounded = V.undetermined(RULE_QASYMP, "mixed window statistics", depth=m)
    if fresh_maxima:
        unbounded = V.evidence(RULE_QASYMP, depth=m,
                               last_new_max=last_new_max + 1, max_value=best)
    else:
        unbounded = V.refuted(RULE_QASYMP, depth=m,
                              last_new_max=last_new_max + 1, max_value=best)

    viol = [k for k in range(1, m + 1) if qs[k - 1] == k - 1]
    if viol and viol[-1] > m // 2:
        le2 = V.refuted(RULE_QASYMP, depth=m, last_q_eq_k_minus_1=viol[-1])
    else:
        le2 = V.evidence(RULE_QASYMP, depth=m,
                         last_q_eq_k_minus_1=viol[-1] if viol else None)
    ones = [k for k in range(1, m + 1) if qs[k - 1] == 1]
    if ones and ones[-1] > m // 2:
        ne1 = V.refuted(RULE_QASYMP, depth=m, last_q_eq_1=ones[-1])
    else:
        ne1 = V.evidence(RULE_QASYMP, depth=m,
                         last_q_eq_1=ones[-1] if ones else None)
    return QAsymptotics(to_inf, bounded, unbounded, le2, ne1, best, m)


# -- named kneading maps and example sequences --------------------------------

def fibonacci_q(k: int) -> int:
    """The kneading map with Fibonacci cutting times 1, 2, 3, 5, 8, ..."""
    return max(k - 2, 0)


def cascade_q(k: int) -> int:
    """The full period-doubling cascade pattern Q(k) = k - 1."""
    return k - 1


def example35_q(k: int) -> int:
    """A kneading map with Q -> oo realizing a triadic adding machine.

    Q(k) = 0 for k in {1, 2, 4}; 1 for k = 3; 3l-4 for k = 3l-1 or 3l+1 with
    l >= 2; 3l-2 for k = 3l with l >= 2.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    if k in (1, 2, 4):
        return 0
    if k == 3:
        return 1
    if k % 3 == 0:
        ell = k // 3
        return 3 * ell - 2
    if k % 3 == 2:
        ell = (k + 1) // 3
        return 3 * ell - 4
    ell = (k - 1) // 3
    return 3 * ell - 4


def nonrecurrent_example_nu(length: int) -> KneadingPrefix:
    """The non-recurrent word 100 110 11110 1111110 ... (growing 1-blocks).

    Between consecutive isolated zeros the block of 1s grows by one pair, so
    the critical orbit accumulates only on the fixed point and its preimage
    chain: infinitely many folding points, no endpoints.
    """
    chunks = ["100"]
    total = 3
    j = 1
    while total < length:
        block = "11" * j + "0"
        chunks.append(block)
        total += len(block)
        j += 1
    return KneadingPrefix("".join(chunks)[:length], source="nonrecurrent-example")


# -- dotted notation -----------------------------------------------------------

def parse_dotted(text: str) -> KneadingPrefix:
    """Parse ``1.0.0.0.101`` (dots mark cutting times) and validate the dots."""
    bits = []
    dots = set()
    for ch in text.strip():
        if ch == ".":
            if not bits:
                raise DomainError("kneading word cannot start with a dot")
            dots.add(len(bits))
        elif ch in "01":
            bits.append(ch)
        else:
            raise DomainError(f"unexpected character {ch!r} in kneading word")
    nu = KneadingPrefix("".join(bits))
    if dots:
        kd = cutting_data(nu)
        cuts = set(kd.S)
        allowed = {c for c in cuts if c < len(nu)}
        if dots != allowed and dots != cuts:
            raise NotAdmissible(
                min(dots.symmetric_difference(allowed), default=len(nu)),
                "dots do not match the computed cutting times")
    return nu


def emit_dotted(kd: CuttingData) -> str:
    # the word of kd, a dot after every cutting time but the last symbol
    bits = kd.nu.bits
    cuts = [0] + [s for s in kd.S if s < len(bits)]
    return ".".join(bits[a:b] for a, b in zip(cuts, cuts[1:] + [None]))
