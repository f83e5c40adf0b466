"""Kneading sequences, cutting times, kneading maps and admissibility.

A kneading prefix is the itinerary word of the critical value: bit n is 1
when the n-th image of the critical point lies above c.  Cutting times are
read off combinatorially: after a cutting time the sequence copies its own
prefix, and the next cutting time is the first position where the copy
breaks.  Equivalently they are the orbit of 1 under

    rho(j) = min{ k > j : nu_k != nu_{k-j} },

while the co-cutting times are the rho-orbit of the first 1 after position 1.
The kneading map Q is defined by S_k - S_{k-1} = S_{Q(k)} with Q(0) = 0.

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

from dataclasses import dataclass, field
from typing import Optional

from . import verdicts as V
from .errors import CriticalHit, DomainError, NotAdmissible, PrecisionExhausted
from .scalars import DEFAULT_PREC_CAP, SignRelC, SlopeParam, critical_orbit

RULE_Q = "admissibility-kneading-map-lex"
RULE_DISJOINT = "admissibility-cut-cocut-disjoint"
RULE_RENORM = "renormalization-window-scan"
RULE_QASYMP = "kneading-map-asymptotics"


def _flip(bit: str) -> str:
    return "1" if bit == "0" else "0"


class KneadingPrefix:
    """A finite kneading word nu_1 .. nu_N over {0, 1}.

    ``periodic_tail=(p, q)`` declares that the (hypothetical) infinite word
    continues q-periodically after preperiod p.  Genuine tent slopes with an
    infinite critical orbit never produce eventually periodic kneading
    sequences, so the declaration is only honoured for literal inputs; it is
    what makes tail-pumping certificates possible in synthetic tests.
    """

    __slots__ = ("bits", "source", "flags", "periodic_tail")

    def __init__(self, bits: str, source: str = "literal", flags=(),
                 periodic_tail: Optional[tuple[int, int]] = None):
        bits = "".join(bits.split("."))
        if not bits:
            raise NotAdmissible(1, "empty kneading prefix")
        if any(b not in "01" for b in bits):
            raise DomainError(f"kneading prefix must be over 0/1: {bits[:20]!r}")
        if bits[0] != "1":
            raise NotAdmissible(1, "nu_1 must be 1 (c_1 > c for every slope)")
        self.bits = bits
        self.source = source
        self.flags = frozenset(flags)
        self.periodic_tail = periodic_tail

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


def rho_step(bits: str, j: int) -> Optional[int]:
    """rho(j) = min{k > j : nu_k != nu_{k-j}}, or None if it exits the prefix."""
    for k in range(j + 1, len(bits) + 1):
        if bits[k - 1] != bits[k - 1 - j]:
            return k
    return None


def _scan_structure(bits: str):
    """One pass over the word computing cutting data and structural failures.

    Returns (S, Q, cocut, cocut_censored, refute_pos, refute_reason).
    S and Q are filled up to the failure point when a failure is found.
    """
    n_len = len(bits)
    S = [1]
    Q = []
    s_index = {1: 0}
    if bits[0] != "1":
        return S, Q, [], False, 1, "nu_1 must be 1"
    last = 1
    n = 2
    while n <= n_len:
        if bits[n - 1] != bits[n - 1 - last]:
            gap = n - last
            if gap not in s_index:
                return S, Q, [], False, n, (
                    f"cutting gap {gap} at position {n} is not a cutting time")
            Q.append(s_index[gap])
            s_index[n] = len(S)
            S.append(n)
            last = n
        elif n == 2 * last:
            return S, Q, [], False, n, (
                f"no cutting time in ({last}, {2 * last}]; the next gap "
                f"could not be a cutting time")
        n += 1

    cocut = []
    for j in _cocut_orbit(bits):
        cocut.append(j)
        if j in s_index:
            return S, Q, cocut, False, j, (
                f"position {j} is both a cutting and a co-cutting time")
    return S, Q, cocut, bool(cocut), None, None


def _cocut_orbit(bits: str):
    """The rho-orbit of the first 1 after position 1, until a step exits."""
    j = bits.find("1", 1) + 1
    while j:
        yield j
        j = rho_step(bits, j) or 0


@dataclass(frozen=True)
class CuttingData:
    """Cutting times, kneading map, beta table and co-cutting times."""

    S: tuple
    Q: tuple
    beta: tuple          # beta[n-1] for n = 1..horizon; beta(1) = 0 stands for c
    cocut: tuple
    cocut_censored: bool
    horizon: int
    kappa: Optional[int]
    nu: KneadingPrefix = field(repr=False)

    def q_of(self, k: int) -> int:
        """Q(k) with the Q(0) = 0 convention."""
        if k == 0:
            return 0
        return self.Q[k - 1]

    def beta_of(self, n: int) -> int:
        return self.beta[n - 1]

    def s_index(self, value: int) -> int:
        return self.S.index(value)

    @property
    def max_k(self) -> int:
        return len(self.S) - 1

    def to_json(self):
        return {
            "S": list(self.S),
            "Q": list(self.Q),
            "cocut": list(self.cocut),
            "cocut_censored": self.cocut_censored,
            "horizon": self.horizon,
            "kappa": self.kappa,
        }


def cutting_data(nu: KneadingPrefix) -> CuttingData:
    """Cutting times S_k, kneading map Q, beta table and co-cutting times.

    Raises NotAdmissible at the first position where the word cannot be a
    kneading sequence prefix.
    """
    bits = nu.bits
    S, Q, cocut, censored, pos, reason = _scan_structure(bits)
    if pos is not None:
        raise NotAdmissible(pos, reason)
    beta = [0]
    last = 1
    s_set = set(S)
    for n in range(2, len(bits) + 1):
        beta.append(n - last)
        if n in s_set:
            last = n
    kappa = cocut[0] if cocut else None
    return CuttingData(tuple(S), tuple(Q), tuple(beta), tuple(cocut),
                       censored, len(bits), kappa, nu)


def cocutting_times(nu: KneadingPrefix):
    """The rho-orbit of the first 1 after position 1, horizon-truncated.

    Returns (times, censored): ``censored`` is True when the last rho step
    ran off the prefix, so later co-cutting times may exist.
    """
    times = tuple(_cocut_orbit(nu.bits))
    return times, bool(times)


def admissible_disjoint(nu: KneadingPrefix) -> V.Verdict:
    """Word-structure admissibility: gaps recurse and cut/co-cut are disjoint."""
    S, Q, cocut, censored, pos, reason = _scan_structure(nu.bits)
    if pos is not None:
        return V.refuted(RULE_DISJOINT, depth=len(nu.bits), position=pos,
                         reason=reason)
    return V.evidence(RULE_DISJOINT, depth=len(nu.bits),
                      cutting=list(S), cocutting=list(cocut),
                      cocut_censored=censored)


def _materialize_q(q, upto: int):
    """Q as a list Q(1)..Q(upto) from a list or a callable."""
    if callable(q):
        return [q(k) for k in range(1, upto + 1)]
    return list(q[:upto])


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
    """
    if callable(q):
        if horizon is None:
            raise DomainError("a callable Q needs an explicit horizon")
        qs = _materialize_q(q, 2 * horizon + 4)
    else:
        qs = list(q)
    m = len(qs)
    limit = horizon if horizon is not None else m
    q_of = _q_lookup(qs)
    first_unresolved = None
    for k in range(1, min(limit, m) + 1):
        if not 0 <= qs[k - 1] < k:
            return V.refuted(RULE_Q, depth=limit, k=k,
                             reason=_q_out_of_range(k, qs[k - 1]))
        qq = q_of(q_of(k))
        resolved = False
        j = 1
        while True:
            a = q_of(qq + j)
            b = q_of(k + j)
            if a is None or b is None:
                break
            if a < b:
                resolved = True
                break
            if a > b:
                return V.refuted(RULE_Q, depth=limit, k=k, j=j,
                                 reason=(f"lex violation at k={k}: "
                                         f"Q({qq + j}) = {a} > Q({k + j}) = {b}"))
            j += 1
        if not resolved and first_unresolved is None:
            first_unresolved = k
    if limit > m:
        first_unresolved = first_unresolved or (m + 1)
    if first_unresolved is None:
        return V.certified(RULE_Q, depth=limit, checked_k=limit)
    return V.evidence(RULE_Q, depth=limit, first_unresolved_k=first_unresolved)


def nu_from_q(q, horizon: int, source: str = "from_q") -> KneadingPrefix:
    """Reconstruct the kneading word from its kneading map.

    nu_1 = 1; between cutting times the word copies its own prefix and at a
    cutting time the copied symbol is flipped.  Round-trips with
    ``cutting_data``.  Raises NotAdmissible when Q violates admissibility
    within the horizon.
    """
    if horizon < 1:
        raise DomainError("horizon must be >= 1")
    qs = _materialize_q(q, 2 * horizon + 4) if callable(q) else list(q)
    for k, qk in enumerate(qs, start=1):
        if not 0 <= qk < k:
            raise NotAdmissible(k, _q_out_of_range(k, qk))
    S = _cutting_times(qs, horizon)
    bits = ["1"]
    for prev, s_new in zip(S, S[1:]):
        # copy segment, then the flipped symbol at the cutting time, which
        # copies position S_{Q(k)} = S_k - S_{k-1}
        while len(bits) < min(s_new - 1, horizon):
            bits.append(bits[len(bits) - prev])
        if s_new <= horizon:
            bits.append(_flip(bits[s_new - prev - 1]))
    while len(bits) < horizon:
        bits.append(bits[len(bits) - S[-1]])
    k_used = len(S) - 1
    check = admissible_q(qs, horizon=None)
    if check.is_refuted and check.witness.get("k", 0) <= k_used:
        raise NotAdmissible(check.witness.get("k", 0), check.witness.get("reason", ""))
    return KneadingPrefix("".join(bits), source=source)


def nu_from_orbit(slope: SlopeParam, N: int,
                  prec_cap: int = DEFAULT_PREC_CAP) -> KneadingPrefix:
    """Certified kneading prefix of a slope; fails rather than guesses.

    Raises CriticalHit(n) on an exact critical return and PrecisionExhausted
    when a sign cannot be certified at the precision cap.  When the critical
    orbit is exactly eventually periodic (possible for rational slopes, e.g.
    s = 2) the prefix is flagged ``critical_orbit_finite``.
    """
    orbit = critical_orbit(slope, N, prec_cap=prec_cap)
    bits = []
    flags = set()
    seen = set()
    for n, (x, sign) in enumerate(orbit, start=1):
        if sign is SignRelC.AT_C:
            raise CriticalHit(n)
        if sign is SignRelC.UNRESOLVED:
            raise PrecisionExhausted(f"sign of c_{n} unresolved", index=n)
        bits.append("1" if sign is SignRelC.ABOVE else "0")
        if x.is_exact:
            # a reduced pair is equal exactly when the values are, and
            # hashing it skips Fraction.__hash__'s modular inverse
            key = (x.lo.numerator, x.lo.denominator)
            if key in seen:
                flags.add("critical_orbit_finite")
            seen.add(key)
    name = slope.name or "slope"
    return KneadingPrefix("".join(bits), source=f"slope:{name}", flags=flags)


def renorm_scan(q, horizon: int):
    """Scan for renormalization windows: k >= 2 with Q(k+j) >= k-1 for all j.

    Returns a dict with per-candidate verdicts and the ordered list of
    candidates passing at the horizon (a nested cascade when several pass).
    """
    qs = _materialize_q(q, horizon) if callable(q) else list(q[:horizon])
    m = len(qs)
    per_k = {}
    passing = []
    for k in range(2, m + 1):
        verdict = None
        for j in range(0, m - k + 1):
            if qs[k + j - 1] < k - 1:
                verdict = V.refuted(RULE_RENORM, depth=m, k=k, j=j,
                                    value=qs[k + j - 1])
                break
        if verdict is None:
            verdict = V.evidence(RULE_RENORM, depth=m, k=k,
                                 checked_j=m - k)
            passing.append(k)
        per_k[k] = verdict
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
    if callable(q):
        if horizon is None:
            raise DomainError("a callable Q needs an explicit horizon")
        qs = _materialize_q(q, horizon)
    else:
        qs = list(q if horizon is None else q[:horizon])
    m = len(qs)
    if m < 8:
        und = V.undetermined(RULE_QASYMP, "horizon too short", depth=m)
        return QAsymptotics(und, und, und, und, und, max(qs or [0]), m)

    quarter = m // 4
    windows = [qs[i * quarter:(i + 1) * quarter] for i in range(3)]
    windows.append(qs[3 * quarter:])
    mins = [min(w) for w in windows]
    argmax = max(range(m), key=lambda i: qs[i])  # first index attaining max
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


def emit_dotted(nu: KneadingPrefix, kd: Optional[CuttingData] = None) -> str:
    kd = kd or cutting_data(nu)
    cuts = set(kd.S)
    out = []
    for i, b in enumerate(nu.bits, start=1):
        out.append(b)
        if i in cuts and i < len(nu.bits):
            out.append(".")
    return "".join(out)
