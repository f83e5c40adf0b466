"""Itinerary-level classification of points of tent inverse limit spaces.

A point of the inverse limit is coded by a two-sided symbol sequence
``... s_{-2} s_{-1} . s_0 s_1 ...``; the left tail determines the basic arc
through the match sets

    N_L = { n > 1  : s_{-(n-1)}..s_{-1} = nu_1..nu_{n-1}, #1 odd }
    N_R = { n >= 1 : s_{-(n-1)}..s_{-1} = nu_1..nu_{n-1}, #1 even }

(parities count the 1s of the matched kneading prefix) and their suprema
tau_L, tau_R.  A depth n is in N_L or N_R exactly when the tail ends in the
kneading prefix of length n - 1, so both sets come from one pass of the
Knuth-Morris-Pratt automaton of nu over the tail: the border chain of its
final state lists every such length, in O(|tail| + |nu|).  Past the known
kneading data, the full occurrences of nu met on the way are the depths
that no known symbol refutes.  This scan is the measured fastest for match
sets: a Z-array or one ``kneading._lcp`` per position took two to four
times as long on the workloads' tails.  There is one failure table per
kneading word, kept with its prefix parities and the first two children of
each node of its failure tree on the ``KneadingPrefix`` and built on only as
far as a call reads: a border of nu[:l] depends on nu[:l] alone, so the
table of nu[:m] is the first m + 1 entries of the word's.  It serves both
the match sets and the prefix-recurrence chains of the endpoint generator.
A declared periodic continuation builds its unrolled word's tables per call.

For a finite left word, the zero-th projections of all compatible points
form an interval whose endpoints are critical-orbit values picked out by
exactly these matches (plus the domain floor for the two words coding the
endpoints 0 and 1); the independent oracle is a plain interval pull-back of
[0, 1] through the word, composing the certified branch maps.

An endpoint of the space needs an infinite tau on the side where the point
sits at the arc's edge.  A finite horizon can never certify a supremum over
an infinite set, so verdicts are the currency: infinite tails are certified
only by periodic pumping against a declared periodic kneading continuation,
finite tau with a mismatch witness inside the known prefix for every deeper
depth refutes, and persistent saturation yields depth-stamped evidence.

Pull-backs of intervals along backward orbits drive the recurrence-type
test: a monotone pull-back (no interior critical visit) of a fixed-size
neighbourhood along long critical-orbit segments witnesses reluctant
recurrence; systematic failure across an epsilon grid is finite-horizon
evidence of persistent recurrence, reported together with the shortcut
"divergent kneading map implies persistent recurrence".
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from operator import mul, xor
from typing import Optional, Sequence

from . import verdicts as V
from .errors import (DomainError, NoRecurrenceWitness, PrecisionExhausted,
                     UnrealizableWord, UnresolvedComparison)
from .hofbauer import OrbitTable, level_bounds, level_ends, orbit_table
from .kneading import (CuttingData, KneadingPrefix, _lcp, cutting_data,
                       q_asymptotics)
from .scalars import (C, Scalar, SignRelC, SlopeParam, _exact_orbit,
                      _grid_ends, _lt, branch_preimage, certified_cmp,
                      parity_lex_cmp, sign_rel_c, tent_apply)

RULE_TAU = "backward-word-prefix-matches"
RULE_ARC = "arc-projection-from-matches"
RULE_ENDPOINT = "endpoint-infinite-tau-criterion"
RULE_FOLDING = "folding-orbit-closure-membership"
RULE_PERSISTENCE = "monotone-pullback-search"
RULE_CLASS = "folding-endpoint-classification"
_DEGENERACY_THRESHOLD = Fraction(1, 1 << 20)
_LONG_LEVEL = Fraction(1, 128)      # a witness level is longer than this
_WINDOW = 24                        # symbols the folding test looks up in nu


# -- backward words and itineraries -------------------------------------------

class BackwardWord:
    """A finite left tail s_{-N} .. s_{-1}, optionally periodic further left.

    ``symbols`` is stored oldest-first, so ``symbols[-1]`` is s_{-1}.  When
    ``periodic_block`` is set the tail continues beyond depth N by repeating
    the block leftwards, making every depth well defined.
    """

    __slots__ = ("symbols", "periodic_block")

    def __init__(self, symbols: str, periodic_block: Optional[str] = None):
        if any(ch not in "01" for ch in symbols):
            raise DomainError("backward word must be over 0/1")
        if periodic_block is not None and (
                not periodic_block or any(ch not in "01" for ch in periodic_block)):
            raise DomainError("periodic block must be a nonempty 0/1 word")
        self.symbols = symbols
        self.periodic_block = periodic_block

    @property
    def is_periodic(self) -> bool:
        return self.periodic_block is not None

    def depth_available(self) -> Optional[int]:
        """Explicit depth, or None for an infinite (periodic) tail."""
        return None if self.is_periodic else len(self.symbols)

    def at(self, n: int) -> Optional[str]:
        """s_{-n} for n >= 1, or None beyond a finite word."""
        if n < 1:
            raise IndexError(n)
        if n <= len(self.symbols):
            return self.symbols[len(self.symbols) - n]
        if not self.is_periodic:
            return None
        p = len(self.periodic_block)
        return self.periodic_block[-(((n - len(self.symbols) - 1) % p) + 1)]

    def unrolled(self, depth: int) -> str:
        """s_{-depth} .. s_{-1}, cut at the start of a finite word."""
        n, depth = len(self.symbols), max(depth, 0)
        if depth <= n or not self.is_periodic:
            return self.symbols[n - min(depth, n):]
        reps = -(-(depth - n) // len(self.periodic_block))
        return (self.periodic_block * reps)[n - depth:] + self.symbols

    def __repr__(self):
        head = f"({self.periodic_block})^inf " if self.is_periodic else "..."
        return f"BackwardWord({head}{self.symbols})"


@dataclass
class TwoSidedItinerary:
    backward: BackwardWord
    forward: str = ""
    x0: Optional[Scalar] = None

    def __post_init__(self):
        if any(ch not in "01" for ch in self.forward):
            raise DomainError("forward word must be over 0/1")


def parse_itinerary(text: str) -> TwoSidedItinerary:
    """Parse ``(block)^inf tail.word`` / ``...tail.word`` itinerary notation."""
    text = text.strip().replace("|", " ")
    block = None
    if text.startswith("("):
        close = text.find(")")
        if close < 0 or not text.startswith("^inf", close + 1):
            raise DomainError("periodic marker must be written (block)^inf")
        block = text[1:close]
        text = text[close + 5:]
    text = text.strip().lstrip(".").strip()
    if "." in text:
        back, _, fwd = text.partition(".")
    else:
        back, fwd = text, ""
    return TwoSidedItinerary(BackwardWord(back.strip(), block), fwd.strip())


# -- match sets ---------------------------------------------------------------

@dataclass
class TauData:
    """Match sets of a left tail against the kneading prefix.

    ``n_max`` is the deepest checkable depth; a match at ``n_max`` saturates
    its side (the true tau may exceed the bound).  ``cert_finite*`` means
    every deeper depth carries a mismatch witness inside the known kneading
    prefix; ``cert_infinite*`` means a periodic pumping certificate exists
    (only possible against a declared periodic kneading continuation).
    """

    NL: tuple
    NR: tuple
    tauL: Optional[int]
    tauR: Optional[int]
    saturatedL: bool
    saturatedR: bool
    cert_finiteL: bool = False
    cert_finiteR: bool = False
    cert_infiniteL: bool = False
    cert_infiniteR: bool = False
    n_max: int = 0
    word_len: Optional[int] = None
    pump_witness: Optional[tuple] = None


def _kmp_tables(word: str, fail: list, parity: list, m: int):
    """Extend, in place, the KMP failure table ``fail`` (fail[l] is the
    longest proper border of word[:l]) and the prefix parities ``parity``
    (parity[l] is the number of 1s in word[:l], mod 2) of a nonempty word to
    cover word[:m].  Both start as [0, 0] and [0, parity of word[0]]."""
    n = len(fail) - 1
    if m <= n:
        return
    k = fail[n]
    for i in range(n, m):
        while k and word[i] != word[k]:
            k = fail[k]
        if word[i] == word[k]:
            k += 1
        fail.append(k)
    parity.extend(islice(accumulate(map("1".__eq__, word[n:m]), xor,
                                    initial=parity[n]), 1, None))


def _word_tables(nu: KneadingPrefix, m: int):
    """The failure table, the prefix parities and the first and second
    children in the failure tree (0 for none) of ``nu``, kept on the prefix
    and built on to cover nu.bits[:m].  The failure and parity tables of
    nu.bits[:m] are their first m + 1 entries; children are filled in
    ascending order as the table grows, so those of nu.bits[:m]'s tree are
    the child entries up to m."""
    if nu.match_tables is None:
        nu.match_tables = ([0, 0], [0, 1], [1, 0], [0, 0])      # nu_1 = 1
    fail, parity, first, second = nu.match_tables
    old = len(fail)
    if m >= old:
        _kmp_tables(nu.bits, fail, parity, m)
        first.extend(repeat(0, m + 1 - old))
        second.extend(repeat(0, m + 1 - old))
        for e in range(old, m + 1):
            p = fail[e]
            if not second[p]:
                (second if first[p] else first)[p] = e
    return nu.match_tables


def _kmp_scan(pattern: str, fail: list, m: int, text: str):
    """Knuth-Morris-Pratt automaton of ``pattern[:m]`` run over ``text``,
    with ``fail`` a failure table of ``pattern`` that covers pattern[:m].

    Returns the border chain of the final state (every length l, longest
    first down to 0, with ``text`` ending in ``pattern[:l]``) and the
    ascending end indices e of full occurrences (``text[:e]`` ends in it).
    """
    state, ends = 0, []
    for e, ch in enumerate(text, 1):
        if state == m:
            state = fail[state]
        while state and pattern[state] != ch:
            state = fail[state]
        if state < m and pattern[state] == ch:
            state += 1
        if state == m:
            ends.append(e)
    chain = [state]
    while state:
        state = fail[state]
        chain.append(state)
    return chain, ends


def tau_data(back: BackwardWord, nu: KneadingPrefix,
             depth: Optional[int] = None) -> TauData:
    """Exact match sets within the data, saturation flags at its boundary.

    A negative ``depth`` raises ``DomainError``."""
    if depth is not None and depth < 0:
        raise DomainError(f"depth must be >= 0, got {depth}")
    avail = back.depth_available()
    if avail is not None and len(nu) < avail:
        raise DomainError("kneading prefix shorter than the backward word")
    n_max = len(nu) + 1 if avail is None else avail + 1
    if depth is not None:
        n_max = min(n_max, depth)

    if back.is_periodic:
        chain, parity, certs = _periodic_tail_analysis(back, nu, n_max)
    else:
        m = max(n_max - 1, 0)
        fail, parity, _, _ = _word_tables(nu, m)
        chain, _ = _kmp_scan(nu.bits, fail, m, back.unrolled(n_max - 1))
        certs = (False,) * 4 + (None,)
    cfL, cfR, ciL, ciR, pump = certs

    NL, NR = [], []
    for ell in reversed(chain):
        if ell < n_max:
            (NR if parity[ell] == 0 else NL).append(ell + 1)
    tauL = NL[-1] if NL else None
    tauR = NR[-1] if NR else None
    saturatedL = bool(NL) and NL[-1] == n_max or ciL
    saturatedR = bool(NR) and NR[-1] == n_max or ciR
    return TauData(tuple(NL), tuple(NR), tauL, tauR, saturatedL, saturatedR,
                   cfL, cfR, ciL, ciR, n_max, avail, pump)


def _periodic_tail_analysis(back, nu, n_max):
    """Finiteness kill-witnesses and pumping certificates for periodic tails.

    A depth-n match needs s_{-i} = nu_{n-i} for every i < n; only positions
    with nu known can witness a mismatch.  Up to n = |nu| + 1 a depth without
    a witness is a border of the automaton state after reading the tail;
    deeper, it is a full occurrence of nu in the tail.  From n = explicit +
    |nu| + 1 on, the compared tail window is purely periodic and the witness
    pattern depends only on n mod p, so the depths up to ``explicit + |nu| +
    p + 2`` cover every class and certify that tau is finite.  With a
    declared periodic kneading continuation every symbol is known, the
    unrolled word is the pattern, and two aligned matches one common period
    apart pump forever.

    Only a short prefix of the pattern can match.  With m explicit symbols,
    block period p and z the common prefix of the pattern and its p-shift,
    the pattern's longest p-periodic prefix has length p + z.  A border of
    length l > m + p puts pattern[:l - m] inside the periodic part of the
    tail, so it is p-periodic and l <= m + p + z; a full occurrence puts at
    least len(pattern) - m of its leading symbols there, so it needs
    len(pattern) <= m + p + z.  So when m + p + z < len(pattern), the scan
    reads the first m + p + z pattern and last m + p + z tail symbols only.

    Returns the border chain and the prefix parities of the pattern (they
    give the match sets up to ``n_max``) and the certificate flags.
    """
    p = len(back.periodic_block)
    width = len(nu)
    explicit = len(back.symbols)
    last = explicit + width + p + 2
    top, pattern = last, nu.bits
    periodic_nu = nu.symbol_at(width + 1) is not None
    if periodic_nu:
        pre_nu, per_nu = nu.periodic_tail
        L = per_nu
        while L % p:
            L += per_nu
        base = max(pre_nu + per_nu, explicit + p) + L
        top = max(last, base + 3 * L)
        pattern = "".join(nu.symbol_at(i) for i in range(1, top))
    reach = top - 1
    bound = explicit + p + _lcp(pattern, 0, p)
    m = len(pattern)
    if bound < m:
        m = reach = bound
    if periodic_nu:
        fail, parity = [0, 0], [0, 1]           # pattern[0] = nu_1 = 1
        _kmp_tables(pattern, fail, parity, m)
    else:
        fail, parity, _, _ = _word_tables(nu, m)
    chain, ends = _kmp_scan(pattern, fail, m, back.unrolled(reach))
    unrefuted = {ell + 1 for ell in chain}
    unrefuted.update(reach + 1 + m - e for e in ends if e < reach)

    deeper = [n - 1 for n in unrefuted if n_max < n <= last]
    maybeL = any(ell > width or parity[ell] for ell in deeper)
    maybeR = any(ell > width or not parity[ell] for ell in deeper)

    ciL = ciR = False
    pump = None
    if periodic_nu:
        pump = next(((n, L) for n in range(base, base + 2 * L + 1)
                     if n in unrefuted and n + L in unrefuted), None)
    if pump is not None:
        block_ones = nu.bits[pre_nu:pre_nu + per_nu].count("1")
        if (L // per_nu) * block_ones % 2 == 0:
            ciR = parity[pump[0] - 1] == 0
            ciL = not ciR
        else:
            ciL = ciR = True
    return chain, parity, (not (maybeL or ciL), not (maybeR or ciR), ciL,
                           ciR, pump)


# -- arc projections ----------------------------------------------------------

def word_image_interval(slope: SlopeParam, word: str, domain: str = "unit"):
    """Interval pull-back of [0,1] (or the core) through a backward word.

    Composes the certified branch maps: K_0 is the start interval and
    K_i = T(K_{i-1} cut to the branch of w_i); K_N is exactly the set of
    zero-th projections compatible with the word.  Returns exact Fractions
    (lo, hi), or None when the cylinder is empty.

    For s = p/q, K_i is [lo/d, hi/d] over one even d: c is d/2, 1 - x is
    d - x, a step multiplies lo, hi by p and d by q, and one gcd reduces.
    """
    if not slope.is_exact:
        raise DomainError("the word-image oracle needs an exact rational slope")
    p, q = slope.s.value.numerator, slope.s.value.denominator
    if domain == "unit":
        lo, hi, d = 0, 2, 2
    elif domain == "core":
        lo, hi, d = p * (2 * q - p), p * q, 2 * q * q
    else:
        raise DomainError(f"unknown domain {domain!r}")
    for ch in word:
        half = d >> 1
        if ch == "0":
            hi = min(hi, half)
            if lo > hi:
                return None
            lo, hi = p * lo, p * hi
        else:
            lo = max(lo, half)
            if lo > hi:
                return None
            lo, hi = p * (d - hi), p * (d - lo)
        d *= q
    return Fraction(lo, d), Fraction(hi, d)


def word_realizable(word: str, nu: KneadingPrefix) -> bool:
    """Symbolic realizability of a word inside [0, 1] itineraries.

    Every point of [0, c_1] has itinerary parity-lex below the kneading
    sequence, and every symbol after the first sees such a point, so a word
    is realizable exactly when each of its shifted windows (offset >= 1)
    stays parity-lex at or below the kneading prefix; ties run off the data
    and pass (points shadowing the critical value realize them).
    """
    for i in range(1, len(word)):
        if parity_lex_cmp(word[i:], nu.bits) > 0:
            return False
    return True


@dataclass(frozen=True)
class ArcInterval:
    """Projection interval compatible with a backward word.

    ``exact`` means both endpoints are pinned orbit values (finite,
    unsaturated matches); otherwise lo/hi are one-sided bounds.  Orbit
    indices use 0 for the domain floor.
    """

    lo: Scalar
    hi: Scalar
    lo_n: int
    hi_n: int
    exact: bool
    tower_identity: Optional[int] = None
    degenerate_width: Optional[Fraction] = None

    def to_json(self):
        return {"lo": self.lo.to_json(), "hi": self.hi.to_json(),
                "lo_n": self.lo_n, "hi_n": self.hi_n, "exact": self.exact,
                "tower_identity": self.tower_identity,
                "degenerate_width": V.approx(self.degenerate_width)
                if self.degenerate_width is not None else None}


def _extreme_orbit_value(candidates, orbit, want_min):
    best_n, best = candidates[0], orbit.value(candidates[0])
    for n in candidates[1:]:
        v = orbit.value(n)
        try:
            cmp = certified_cmp(v, best)
        except UnresolvedComparison:
            raise PrecisionExhausted(f"cannot order c_{n} against c_{best_n}")
        if cmp != 0 and (cmp < 0) == want_min:
            best, best_n = v, n
    return best, best_n


def basic_arc_interval(td: TauData, orbit: OrbitTable, word: Optional[str] = None,
                       kd: Optional[CuttingData] = None,
                       mode: str = "unit") -> ArcInterval:
    """Arc projection interval from the match sets.

    ``unit`` mode reproduces the [0,1] pull-back through the finite word:
    matches at depths up to the word length contribute their orbit values,
    and the two words coding the domain endpoints (all zeros, or 1 followed
    by zeros) contribute the floor 0.  ``core`` mode keeps every match
    (including saturated full-word ones) as one-sided bounds with the trivial
    floor c_2; with finite unsaturated matches on both sides the interval is
    exact and is checked to be the tower level D_{max(tauL, tauR)}; with
    ``kd``, left-match levels nested within 2^-20 mark it degenerate.
    """
    exact, identity, degen = True, None, None
    if mode == "unit":
        if td.word_len is None:
            raise DomainError("unit mode needs a finite backward word")
        N = td.word_len
        nl = [n for n in td.NL if n <= N]
        nr = [n for n in td.NR if n <= N]
        domain_floor = word is not None and (
            word == "0" * N or word == "1" + "0" * (N - 1))
        if word is not None and kd is not None and \
                not word_realizable(word, kd.nu):
            raise UnrealizableWord("a shifted window exceeds the kneading word")
        if not nr:
            raise UnrealizableWord("no upper constraint: empty cylinder")
        hi, hi_n = _extreme_orbit_value(nr, orbit, True)
        if domain_floor:
            lo, lo_n = Scalar.exact(0), 0
        elif nl:
            lo, lo_n = _extreme_orbit_value(nl, orbit, False)
        else:
            raise UnrealizableWord(
                "no lower constraint and no domain endpoint: empty cylinder")
    elif mode == "core":
        nl, nr = list(td.NL), list(td.NR)
        hi, hi_n = _extreme_orbit_value(nr or [1], orbit, True)
        if nl:
            lo, lo_n = _extreme_orbit_value(nl, orbit, False)
        else:
            lo, lo_n = orbit.value(2), 2
        exact = bool(nl) and bool(nr) and not td.saturatedL \
            and not td.saturatedR and not td.cert_infiniteL \
            and not td.cert_infiniteR
        if exact and kd is not None:
            n_star = max(td.tauL, td.tauR)
            if n_star <= kd.horizon and \
                    kd.beta_of(n_star) == min(td.tauL, td.tauR):
                identity = n_star
        ends = None if kd is None else \
            level_ends(orbit, kd, [n for n in nl if n <= kd.horizon])
        if ends is not None and ends[1] - ends[0] <= _DEGENERACY_THRESHOLD:
            degen = max(Fraction(0), ends[1] - ends[0])
    else:
        raise DomainError(f"unknown mode {mode!r}")
    if kd is not None:
        orbit.check_word(kd.nu.bits)
    return ArcInterval(lo, hi, lo_n, hi_n, exact, identity, degen)


# -- endpoint and folding verdicts ---------------------------------------------

def endpoint_verdict(it: TwoSidedItinerary, nu: KneadingPrefix,
                     depth: int = 256) -> V.Verdict:
    """Endpoint test through the infinite-tau criterion.

    Certified only for periodic tails that pump against a declared periodic
    kneading continuation, the side of the infinite tau in the witness; refuted
    when both tail suprema are certifiably finite or, once the depth reaches
    past a finite word, its matches sit strictly inside it; evidence when
    saturation persists as the depth grows.
    """
    return _endpoint_verdict(tau_data(it.backward, nu, depth))


def _endpoint_verdict(td: TauData) -> V.Verdict:
    """``endpoint_verdict`` of the tail whose match sets are ``td``."""
    if td.cert_infiniteL or td.cert_infiniteR:
        return V.certified(RULE_ENDPOINT, depth=td.n_max,
                           side="left" if td.cert_infiniteL else "right",
                           pump=td.pump_witness)
    if td.cert_finiteL and td.cert_finiteR:
        return V.refuted(RULE_ENDPOINT, depth=td.n_max, tauL=td.tauL,
                         tauR=td.tauR,
                         reason="both tail suprema certifiably finite")
    if td.saturatedL or td.saturatedR:
        # evidence needs the recurrence to have fired repeatedly, not just a
        # one-off full-word match
        deep_l = td.saturatedL and len([n for n in td.NL if n > 1]) >= 2
        deep_r = td.saturatedR and len([n for n in td.NR if n > 1]) >= 2
        if deep_l or deep_r:
            return V.evidence(RULE_ENDPOINT, depth=td.n_max,
                              side="left" if deep_l else "right",
                              tauL=td.tauL, tauR=td.tauR)
        return V.undetermined(RULE_ENDPOINT,
                              "saturation without repeated recurrence",
                              depth=td.n_max)
    if td.word_len is not None and td.n_max > td.word_len:
        return V.refuted(RULE_ENDPOINT, depth=td.n_max, tauL=td.tauL,
                         tauR=td.tauR,
                         reason="matches sit strictly inside the word")
    return V.undetermined(RULE_ENDPOINT, "no certificate either way",
                          depth=td.n_max)


def reconstruct_x0(slope: SlopeParam, forward: str) -> Scalar:
    """Enclosure of the points whose forward itinerary starts with ``forward``."""
    if not slope.is_exact:
        raise DomainError("x0 reconstruction needs an exact rational slope")
    s = slope.s.value
    lo, hi = Fraction(0), Fraction(1)
    for ch in reversed(forward):
        hi = min(hi, s / 2)                 # values above c_1 have no preimage
        if lo > hi:
            raise UnrealizableWord(f"forward word {forward!r} unrealizable")
        if ch == "0":
            lo, hi = lo / s, hi / s
        else:
            lo, hi = 1 - hi / s, 1 - lo / s
    return Scalar(lo, hi)


def backward_points(slope: SlopeParam, it: TwoSidedItinerary, depth: int):
    """Enclosures of pi_0 .. pi_depth along the backward symbols."""
    x0 = it.x0
    if x0 is None:
        if not it.forward:
            raise DomainError("need x0 or a forward word to locate the point")
        x0 = reconstruct_x0(slope, it.forward)
    pts = [x0]
    for n in range(1, depth + 1):
        sym = it.backward.at(n)
        if sym is None:
            break
        pts.append(branch_preimage(slope, pts[-1], int(sym)))
    return pts


def folding_verdict(it: TwoSidedItinerary, slope: SlopeParam,
                    nu: KneadingPrefix, depth: int = 64,
                    eps=Fraction(1, 1 << 20), proxy_len: int = 256,
                    orbit: Optional[OrbitTable] = None) -> V.Verdict:
    """Two-channel finite test that all projections lie in omega(c).

    Numeric channel: every projection up to ``depth`` must come eps-close to
    the orbit-tail proxy {c_j : proxy_len // 4 <= j <= proxy_len}.  Symbolic
    channel: the itinerary window of ``_WINDOW`` symbols starting at a far
    coordinate must occur in the kneading prefix.  Refuted only when both
    channels fail; evidence otherwise.

    A projection [a, b] is far when every proxy interval is farther from it
    than eps + r + (b - a), r the widest proxy interval; one within eps of
    both ends is nearer than that, so no separate nearness test is needed.
    Ends are rounded outward onto the 2^-bits grid and kept as integers k of
    k/2^bits, so gaps are integers and the bound may be floored: [a, b] is
    far when t = floor(eps 2^bits) + r + (b - a) is negative or no proxy
    interval meets [a - t, b + t].  With the proxy sorted by low end and a
    running maximum of its high ends, that is one bisection.
    """
    eps = Fraction(eps)
    if proxy_len < 0:
        raise DomainError(f"proxy_len {proxy_len} < 0 leaves the orbit-tail "
                          f"proxy empty")
    orbit = orbit_table(slope, orbit)
    orbit.extend(proxy_len)
    bits = max(64, (eps.denominator.bit_length() + 32))
    proxy = sorted(orbit.grid_ends(j, bits)
                   for j in range(proxy_len // 4, proxy_len + 1))
    resolution = max(p_hi - p_lo for p_lo, p_hi in proxy)
    lows, highs = zip(*proxy)
    max_high = list(accumulate(highs, max))
    e = (eps.numerator << bits) // eps.denominator
    pts = [_grid_ends(x, bits) for x in backward_points(slope, it, depth)]
    for n, (a, b) in enumerate(pts):
        t = e + resolution + b - a
        i = bisect_right(lows, b + t)
        if t < 0 or not i or max_high[i - 1] < a - t:
            break
    else:
        return V.evidence(RULE_FOLDING, depth=len(pts) - 1, epsilon=eps,
                          proxy_len=proxy_len)
    piece = it.backward.unrolled(n + _WINDOW)[:_WINDOW] if n > 0 else \
        (it.forward[:_WINDOW] or it.backward.unrolled(_WINDOW))
    if piece and piece not in nu.bits:
        return V.refuted(RULE_FOLDING, depth=len(pts) - 1, epsilon=eps,
                         far_at=n, missing_word=piece)
    return V.evidence(RULE_FOLDING, depth=len(pts) - 1, epsilon=eps,
                      anomaly_at=n)


# -- endpoint itinerary generation ----------------------------------------------

def endpoint_itinerary_gen(nu: KneadingPrefix, count: int = 2,
                           depth: int = 30) -> list:
    """Backward words from prefix-recurrence chains of the kneading word.

    A chain n_1 < n_2 < ... with nu_1..nu_{n_{j+1}} ending in nu_1..nu_{n_j}
    yields the left tail lim_j nu_1..nu_{n_j}; the emitted word is the full
    prefix nu_1..nu_{n_J} at the first chain element past ``depth``, so the
    chain elements stay visible as matches and the deepest match saturates
    at the word boundary.  Words are emitted only from chains still alive at
    the horizon (the final element recurs again); a non-recurrent word
    raises NoRecurrenceWitness with the deepest live chain element.  When
    two non-nested continuations exist, both branches are explored.

    The continuations are read off the failure tree of nu, whose nodes are
    the lengths 0..|nu| and where parent(e) = fail[e] < e.  nu_1..nu_e ends
    in nu_1..nu_n for some n < e exactly when n is a proper ancestor of e,
    so the ends e > n of the occurrences of nu_1..nu_n after position 1 are
    n's proper descendants; as parents are smaller than their children, a
    subtree's least node is its root.  The first continuation is therefore
    n's least child, and the second, the least end not nested in the first,
    is n's second child, else (when every other occurrence is nested) the
    first's least child.  That fallback is pushed only when the first is
    emitted rather than expanded: otherwise the first pushes it as its own
    first continuation, and it is expanded there before n's copy pops.  So
    each node is pushed at most once, and the search is linear in |nu| even
    on periodic words.  The table is the one ``tau_data`` reads, built on
    in doubling steps only while a chain needs a child not met yet.
    """
    bits = nu.bits
    fail, _, first, second = _word_tables(nu, 1)

    def child(kids, n):                 # 0 when n has none
        while not kids[n] and len(fail) <= len(bits):
            _word_tables(nu, min(2 * len(fail), len(bits)))
        return kids[n]

    words, stack, best_live = [], [1], 1
    while stack and len(words) < count:
        n = stack.pop()
        head = child(first, n)
        if not head:
            continue
        best_live = max(best_live, n)
        if n >= depth:
            words.append(BackwardWord(bits[:n]))
            continue
        other = child(second, n) or head >= depth and child(first, head)
        if other:
            stack.append(other)
        stack.append(head)
    if not words:
        raise NoRecurrenceWitness(best_live)
    return words


# -- pull-backs and persistence ---------------------------------------------------

@dataclass
class PullbackChain:
    """A maximal pull-back J_0, J_1, ... with per-step monotonicity data.

    Intervals are endpoint pairs (Scalar, Scalar).  ``monotone_prefix`` is
    the largest m such that none of J_1 .. J_m has c in its interior; the
    chain is monotone when that covers its whole length.
    """

    intervals: list
    joined: list
    monotone_prefix: int
    complete: bool

    @property
    def length(self):
        return len(self.intervals) - 1

    @property
    def monotone(self):
        return self.complete and self.monotone_prefix == self.length


def pull_back(J, along, slope: SlopeParam,
              stop_on_nonmonotone: bool = False) -> PullbackChain:
    """Maximal pull-back of J = (a, b), two Scalar ends, along a backward
    orbit or a symbol word.

    ``along`` is either a list of point enclosures [x_0, x_{-1}, ...] (each
    J_k must contain x_{-k}) or a 0/1 word giving the branch of each step.
    J_{k+1} is the largest interval with T(J_{k+1}) inside J_k: a full branch
    preimage, or the join of both preimages through c whenever J_k reaches
    the critical value (the joined interval has c interior unless J_k is
    pinched at c_1, which is exactly when monotonicity breaks).
    """
    a, b = J
    c1 = tent_apply(slope, Scalar.exact(C))
    zero = Scalar.exact(0)
    intervals = [(a, b)]
    joined_flags = [False]
    symbols = along if isinstance(along, str) else None
    points = None if symbols is not None else list(along)
    steps = len(symbols) if symbols is not None else len(points) - 1
    first_interior = None
    complete = True
    for k in range(steps):
        a, b = intervals[-1]
        try:
            reaches_peak = certified_cmp(b, c1) >= 0
            if certified_cmp(a, c1) > 0:
                complete = False      # no preimage at all
                break
        except UnresolvedComparison:
            complete = False
            break
        a_eff = a if a.lo >= 0 else zero
        if reaches_peak:
            new = (branch_preimage(slope, a_eff, 0),
                   branch_preimage(slope, a_eff, 1))
            joined = True
        else:
            if symbols is not None:
                side = symbols[k]
            else:
                sgn = sign_rel_c(points[k + 1])
                if sgn is SignRelC.UNRESOLVED:
                    raise UnresolvedComparison(
                        f"pull-back step {k + 1}: target straddles c")
                side = "0" if sgn is SignRelC.BELOW else "1"
            new = ((branch_preimage(slope, a_eff, 0), branch_preimage(slope, b, 0))
                   if side == "0" else
                   (branch_preimage(slope, b, 1), branch_preimage(slope, a_eff, 1)))
            joined = False
        intervals.append(new)
        joined_flags.append(joined)
        if joined and first_interior is None:
            try:
                pinched = certified_cmp(a_eff, c1) == 0
            except UnresolvedComparison:
                pinched = False
            if not pinched:
                first_interior = k + 1
                if stop_on_nonmonotone:
                    break
    length = len(intervals) - 1
    monotone_prefix = length if first_interior is None else first_interior - 1
    return PullbackChain(intervals, joined_flags, monotone_prefix, complete)


def verify_monotone(chain: PullbackChain) -> bool:
    """Independent recheck that c is not interior to J_1 .. J_monotone_prefix."""
    c_scalar = Scalar.exact(C)
    for k in range(1, chain.monotone_prefix + 1):
        a, b = chain.intervals[k]
        try:
            if certified_cmp(a, c_scalar) < 0 and \
               certified_cmp(b, c_scalar) > 0:
                return False
        except UnresolvedComparison:
            return False
    return True


def _pull_back_prefix(slope: SlopeParam, orbit: OrbitTable):
    """``monotone_prefix(eps, n)`` of the pull-back of the eps-ball about
    c_{n+1} along c_{n+1}, c_n, ..., c_0, run by ``pull_back``."""
    def prefix(eps, n):
        center = orbit.value(n + 1)
        ball = (Scalar.exact(max(Fraction(0), center.lo - eps)),
                Scalar.exact(min(Fraction(1), center.hi + eps)))
        segment = [orbit.value(n + 1 - k) for k in range(0, n + 1)]
        return pull_back(ball, segment, slope,
                         stop_on_nonmonotone=True).monotone_prefix
    return prefix


def _closed_form_prefix(s: Fraction, horizon: int):
    """The same ``monotone_prefix(eps, n)`` for an exact slope s = p/q,
    eps > 0 and n <= horizon, in closed form on integers.

    While the pull-back is monotone, J_k is an affine image of
    J_0 = [c_{n+1} - d_l, c_{n+1} + d_r], with d_l = min(eps, c_{n+1}) and
    d_r = min(eps, 1 - c_{n+1}).  With m = n + 1 - k, J_k is
    [c_m - s^-k d, c_m + s^-k d'], where {d, d'} = {d_l, d_r}, swapped after
    each step onto the decreasing branch.  Step k joins the two preimages
    through c exactly when the upper end of J_k reaches c_1, and
    ``monotone_prefix`` is the first such k, or n when none does.
    ``pull_back``'s other two cases never occur:

    * "no preimage" needs the lower end above c_1, but it is at most
      c_m <= c_1;
    * a join is pinched (c not interior) only when the lower end is c_1,
      which needs c_m = c_1 with m >= 2.  That is impossible: for q > 1,
      a_m is coprime to q, while c_m = c_1 would need a_m = p q^{m-1}; for
      s = 2, c_m = 0.

    The clamps and the swaps never move the first join, so the test is
    c_m + s^-k eps >= c_1.  Clamped at 1, J_0 reaches 1 >= c_1 at k = 0.
    Clamped at 0, d_l < d_r, and the offsets first differ after the first
    step onto the decreasing branch.  Every step before it was increasing,
    so the lower end is still 0, the step maps it to 1, and J_{k+1}
    reaches 1 >= c_1 with either offset.

    With c_m = a_m / (2 q^m) (``scalars._exact_orbit``) and
    gap_m = p q^{m-1} - a_m, so that c_1 - c_m = gap_m / (2 q^m), and with
    eps = e / d, the test reads gap_m p^k d <= 2 q^{n+1} e: no ``Fraction``
    and no gcd.
    """
    p = s.numerator
    gap, two_q = [0], [2]           # gap_m and 2 q^m for m = 0 .. horizon + 1
    for a, qm in islice(_exact_orbit(s), horizon + 1):
        gap.append(p * (two_q[-1] >> 1) - a)
        two_q.append(qm << 1)
    pk = list(accumulate(repeat(p, horizon), mul, initial=1))

    def prefix(eps, n):
        e, d = eps.numerator, eps.denominator
        rhs = two_q[n + 1] * e
        for k in range(n):
            if gap[n + 1 - k] * pk[k] * d <= rhs:
                return k
        return n
    return prefix


def reluctance_search(slope: SlopeParam, eps_grid: Sequence,
                      length_target: int = 64, horizon: int = 200,
                      kd: Optional[CuttingData] = None,
                      orbit: Optional[OrbitTable] = None) -> V.Verdict:
    """Monotone pull-backs of eps-balls along critical-orbit segments.

    Reluctant recurrence is witnessed by a monotone pull-back of a fixed
    eps-neighbourhood of c_{n+1} along (c_1, ..., c_{n+1}) of length at
    least ``length_target``.  When every eps in the grid fails for every
    segment within the horizon, the verdict is persistence evidence.  The
    shortcut "divergent kneading map implies persistent recurrence" and the
    recurrence of c within the horizon are reported alongside.  A search
    over no eps, or over no n (a horizon below the length target), is
    ``undetermined``; a length target below 1 is rejected.

    For an exact slope and eps > 0, each pull-back's length comes from the
    closed form of ``_closed_form_prefix`` on integers; interval slopes,
    and eps <= 0, run ``pull_back``, which the closed form is tested
    against.
    """
    if length_target < 1:
        raise DomainError(f"length target must be >= 1, got {length_target}")
    eps_grid = [Fraction(eps) for eps in eps_grid]
    if not eps_grid:
        return V.undetermined(RULE_PERSISTENCE, "empty eps grid",
                              depth=horizon)
    if horizon < length_target:
        return V.undetermined(
            RULE_PERSISTENCE, f"horizon {horizon} below the length target "
            f"{length_target}: no segment to search", depth=horizon)
    orbit = orbit_table(slope, orbit)
    orbit.extend(horizon + 2)
    rec_gap = min(max(abs(x.hi - C), abs(C - x.lo))
                  for x in map(orbit.value, range(1, horizon + 1)))
    recurrent_hint = rec_gap < Fraction(1, 64)

    q_shortcut = None
    if kd is not None:
        qa = q_asymptotics(list(kd.Q))
        if qa.to_infinity.is_positive:
            q_shortcut = "kneading-map-divergence-implies-persistent"

    closed = _closed_form_prefix(slope.s.value, horizon) \
        if slope.is_exact else None
    by_pull_back = _pull_back_prefix(slope, orbit)
    per_eps = {}
    for eps in eps_grid:
        prefix = closed if closed is not None and eps > 0 else by_pull_back
        best_len, best_n = 0, None
        for n in range(length_target, horizon + 1):
            length = prefix(eps, n)
            if length > best_len:
                best_len, best_n = length, n
            if best_len >= length_target:
                break
        per_eps[str(eps)] = {"max_monotone": best_len, "at_n": best_n}
        if best_len >= length_target:
            return V.evidence(
                RULE_PERSISTENCE, depth=horizon, epsilon=eps,
                kind="reluctant", length=best_len, segment_end=best_n,
                recurrent_within_horizon=recurrent_hint,
                min_return_gap=V.approx(rec_gap), q_shortcut=q_shortcut)
    return V.evidence(RULE_PERSISTENCE, depth=horizon, kind="persistent",
                      per_eps=per_eps, recurrent_within_horizon=recurrent_hint,
                      min_return_gap=V.approx(rec_gap), q_shortcut=q_shortcut)


# -- combined classification -----------------------------------------------------

@dataclass
class PointClassification:
    folding: V.Verdict
    endpoint: V.Verdict
    arc: Optional[ArcInterval]
    subclass_flags: tuple
    expectations: dict

    def to_json(self):
        return {
            "folding": self.folding.to_json(),
            "endpoint": self.endpoint.to_json(),
            "arc": self.arc.to_json() if self.arc is not None else None,
            "subclass_flags": list(self.subclass_flags),
            "expectations": {k: (v.to_json() if isinstance(v, V.Verdict) else v)
                             for k, v in sorted(self.expectations.items())},
        }


def classification_report(it: TwoSidedItinerary, nu: KneadingPrefix,
                          slope: Optional[SlopeParam] = None,
                          kd: Optional[CuttingData] = None,
                          depth: int = 64, eps=Fraction(1, 1 << 20),
                          orbit: Optional[OrbitTable] = None) -> PointClassification:
    """Combine folding/endpoint verdicts with the global dichotomies.

    Expectations reported: a divergent kneading map (so persistent
    recurrence) makes the folding and endpoint sets expected to coincide and
    every folding arc degenerate; a non-divergent one yields a witness search
    for a folding point inside a non-degenerate arc: the first n in
    3 .. min(horizon, 4 depth) whose tower level D_n = [c_n, c_beta(n)] is
    certified longer than 2^-7 and whose tail ...111 nu_1..nu_{n-1} matches
    on both sides, the deeper match at n.  The level's length is read off
    the orbit table (``hofbauer.level_bounds``), with the table first
    extended to the last n: an interval slope's table takes the precision
    of its longest read, and later reports on the same table read that
    precision.

    The endpoint verdict and the core-mode arc share one ``tau_data`` of
    the point's tail.
    """
    kd = kd or cutting_data(nu)
    td = tau_data(it.backward, nu, depth)
    endpoint = _endpoint_verdict(td)
    if slope is not None:
        orbit = orbit_table(slope, orbit)
        try:
            folding = folding_verdict(it, slope, nu, depth=depth, eps=eps,
                                      orbit=orbit)
        except (DomainError, UnrealizableWord) as exc:
            folding = V.undetermined(RULE_FOLDING, str(exc), depth=depth)
    else:
        folding = V.undetermined(RULE_FOLDING, "no slope given", depth=depth)
    if endpoint.is_positive and folding.is_refuted:
        endpoint = V.refuted(RULE_ENDPOINT, depth=depth,
                             reason="endpoints are folding points; folding refuted")

    arc = None
    if orbit is not None:
        arc = basic_arc_interval(td, orbit, kd=kd, mode="core")

    qa = q_asymptotics(list(kd.Q))
    if qa.to_infinity.is_positive:
        nondeg = V.refuted(RULE_CLASS, depth=kd.horizon,
                           via="divergent-kneading-map")
    elif qa.to_infinity.is_refuted and slope is not None:
        witness = None
        N = min(kd.horizon, 4 * depth)
        orbit.extend(N)
        orbit.check_word(kd.nu.bits)
        for n in range(3, N + 1):
            _, length = level_bounds(orbit.value(n),
                                     orbit.value(kd.beta_of(n)))
            if _lt(_LONG_LEVEL, length.lo):
                t = tau_data(BackwardWord("111" + nu.bits[:n - 1]), nu)
                if t.tauL and t.tauR and max(t.tauL, t.tauR) == n:
                    witness = {"n": n, "tail": "...111" + nu.bits[:n - 1]}
                    break
        nondeg = V.evidence(RULE_CLASS, depth=depth, witness_arc=witness) \
            if witness else V.undetermined(RULE_CLASS,
                                           "no long-level witness found",
                                           depth=depth)
    else:
        nondeg = V.undetermined(RULE_CLASS, "kneading-map trend unclear",
                                depth=kd.horizon)
    expectations = {
        "folding_set_equals_endpoints": qa.to_infinity,
        "all_folding_arcs_degenerate": qa.to_infinity,
        "exists_nondegenerate_folding_arc": nondeg,
    }

    flags = []
    if arc is not None and arc.degenerate_width is not None:
        flags.append("degenerate-arc-evidence")
        if endpoint.is_positive:
            flags.append("degenerate-endpoint-candidate")
    if folding.is_positive and endpoint.is_refuted:
        flags.append("non-end-folding")
    return PointClassification(folding, endpoint, arc, tuple(flags), expectations)
