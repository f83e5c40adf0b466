"""Subcontinuum chains: direct spirals, basic sin(1/x)-continua, cascades.

A chain of critical projections is an increasing sequence (k_i) of cutting
indices such that consecutive levels pull back monotonically: the strict
condition is

    Q(k_i) = k_{i-1}   and   Q(Q(k_i - 1) + 1) < k_{i-1} - 1,

the relaxed variant replaces the equality by
``Q(Q(k_i-1)+1) < k_{i-1}-1 < Q(k_i)``.  Along a chain one chooses points
a_i inside the open precritical cell of index k_i - 1 so that T^{S_{k_i-1}}
maps [c, a_i] monotonically onto [c_{S_{k_i-1}}, a_{i-1}]; ``build_chain``
reads each a_i off the inverse of that branch that also gives the closest
precritical points (``PrecriticalTable.inverse``), exactly for an exact
slope, and certifies it inside its cell.  The nested levels then assemble
into a subcontinuum which is a direct spiral when
Q(k_i + 1) -> oo (the central tower levels shrink to a point) and a basic
sin(1/x)-continuum when Q(k_i + 1) stays bounded along a subsequence (the
levels' intersection is the bar).  A separate symbolic rule detects
renormalization cascades: a window k with Q(k + j) >= k - 1 for all j is a
renormalization of period S_{k-1}, and a deep nest of such windows is the
signature of the infinitely renormalizable case in which every folding
point is an endpoint with a degenerate arc-component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

from . import verdicts as V
from .errors import ConditionViolated, DomainError, UnresolvedComparison
from .hofbauer import PrecriticalTable, level_ends
from .kneading import (_cutting_times, _materialize_q, _q_lookup, _q_upto,
                       renorm_scan)
from .scalars import C, Scalar, _diff, certified_cmp, s_one_minus

RULE_CHAIN = "critical-projection-chain-search"
RULE_BUILD = "chain-level-construction"
RULE_CLASSIFY = "chain-shrinkage-classification"
RULE_NASTY = "renormalization-cascade-rule"

STRICT = "strict"
RELAXED = "relaxed"
_MIN_CHAIN_LEN = 2      # shortest chain find_qcond_chains reports
_MAX_CHAINS = 64        # find_qcond_chains stops after this many chains
_MIN_LEVELS = 3         # shortest chain classify_chain decides


def _prev_range(q_of, variant, k):
    """The k_prev the chain step k_prev -> k allows (``q_of`` from _q_lookup).

    With inner = Q(Q(k - 1) + 1), the relaxed step holds for k_prev in
    [inner + 2, Q(k)]; the strict one also needs k_prev = Q(k).
    """
    qk = q_of(k)
    inner = q_of(q_of(k - 1) + 1) if q_of(k - 1) is not None else None
    if qk is None or inner is None:
        return range(0)
    if variant == STRICT:
        return range(max(qk, inner + 2), qk + 1)
    if variant == RELAXED:
        return range(inner + 2, qk + 1)
    raise DomainError(f"unknown chain variant {variant!r}")


def find_qcond_chains(q, horizon: int, variant: str = STRICT):
    """All maximal chain prefixes within the horizon, plus the greedy chain.

    The greedy chain follows the recursion k_i = min{ k : Q(k) > k_{i-1}-1 }
    (which satisfies the relaxed condition whenever Q(k) <= k - 2 holds on
    the tail); it is reported separately even when shorter than two.
    """
    qs = _q_upto(q, horizon)
    m = len(qs)

    q_of = _q_lookup(qs)
    succ = {k_prev: [] for k_prev in range(1, m + 1)}
    for k in range(2, m + 1):
        allowed = _prev_range(q_of, variant, k)
        for k_prev in range(max(allowed.start, 1), min(allowed.stop, k)):
            succ[k_prev].append(k)

    reached = {k for s in succ.values() for k in s}
    starts = [k for k in range(1, m + 1) if succ[k] and k not in reached]
    chains = []
    stack = [(k0,) for k0 in reversed(starts or range(1, m + 1))]
    while stack and len(chains) < _MAX_CHAINS:  # depth first, smallest k first
        chain = stack.pop()
        nexts = succ[chain[-1]]
        if nexts:
            stack.extend(chain + (k,) for k in reversed(nexts))
        elif len(chain) >= _MIN_CHAIN_LEN:
            chains.append(chain)
    chains.sort()

    greedy, k_prev = [], 1          # the first step needs Q(k) > 0
    for k in range(1, m + 1):
        if qs[k - 1] > k_prev - 1:
            greedy.append(k)
            k_prev = k
    return {"variant": variant, "chains": chains, "greedy": tuple(greedy),
            "horizon": m}


@dataclass
class ChainLevel:
    i: int
    k: int
    n: int
    cell: int                       # a_i lies in Upsilon_{cell} (open)
    a: Scalar
    side: str
    image_onto: bool                # T^{S_{k-1}}([c, a_i]) = [c_{S_{k-1}}, a_{i-1}]
    l_image_avoids_c: Optional[bool] = None

    def to_json(self):
        return {"i": self.i, "k": self.k, "n": self.n, "cell": self.cell,
                "a": self.a.to_json(), "side": self.side,
                "image_onto": self.image_onto,
                "l_image_avoids_c": self.l_image_avoids_c}


@dataclass
class CriticalProjectionChain:
    k_seq: tuple
    n_seq: tuple
    levels: list
    variant: str

    def to_json(self):
        return {"k_seq": list(self.k_seq), "n_seq": list(self.n_seq),
                "variant": self.variant,
                "levels": [lv.to_json() for lv in self.levels]}


def build_chain(k_seq: Sequence[int], zp: PrecriticalTable,
                variant: str = STRICT) -> CriticalProjectionChain:
    """Realize a chain: certified a_i with monotone-onto levels, each a_i
    on the side of c the next level maps onto (the last on the left).

    a_1 is the midpoint of its cell piece.  For i >= 2, with m = k_i - 1,
    a_i is the point of the open piece of Upsilon_m with
    T^{S_m}(a_i) = a_{i-1}: ``zp.inverse(a_{i-1}, S_m)`` on the left piece,
    its reflection 1 - x on the right one, as T(1 - x) = T(x).  For an
    exact slope every a_i is exact and T^{S_m}(a_i) equals a_{i-1}.

    Aborts with ConditionViolated when a_i is not certified strictly inside
    the open piece, i.e. a_{i-1} is not in the branch image of the open
    cell, which would falsify the verified chain condition (used as a
    self-test).  The slope, word and cutting data are the table's.
    """
    kd = zp.kd
    q_of = _q_lookup(kd.Q)
    k_seq = tuple(k_seq)
    if len(k_seq) < 2:
        raise DomainError("a chain needs at least two indices")
    for k_prev, k in zip(k_seq, k_seq[1:]):
        if k_prev not in _prev_range(q_of, variant, k):
            raise ConditionViolated(
                k, f"chain condition ({variant}) fails at {k_prev} -> {k}")
    if variant == STRICT:
        n_seq = tuple(kd.S[k] for k in k_seq)
    else:
        n_seq = tuple(accumulate((kd.S[k - 1] for k in k_seq[1:]), initial=0))

    # The branch image of the level-(i+1) cell lies between c_{S_{Q(k_{i+1}-1)}}
    # and c, on the side given by the kneading bit at S_{Q(k_{i+1}-1)}; a_i
    # must sit on that side so the next level can map onto it.
    nu_bits = kd.nu.bits
    sides = {len(k_seq) - 1: "left"}
    for i in range(1, len(k_seq) - 1):
        m_next = k_seq[i + 1] - 1
        s_val = kd.S[kd.q_of(m_next)]
        sides[i] = "right" if nu_bits[s_val - 1] == "1" else "left"

    levels = []
    orbit = zp.orbit
    # base level: a_1 free inside the open cell of index k_1 - 1
    m1 = k_seq[1] - 1
    lo = zp.boundary(m1 - 1)
    hi = zp.boundary(m1)
    a_prev = Scalar.exact((lo.hi + hi.lo) / 2)
    if sides[1] == "right":
        a_prev = s_one_minus(a_prev)
    levels.append(ChainLevel(1, k_seq[1], n_seq[1], m1, a_prev, sides[1], True))
    for i in range(2, len(k_seq)):
        m = k_seq[i] - 1
        n = kd.S[m]
        lo = zp.boundary(m - 1)
        hi = zp.boundary(m)
        a_i = zp.inverse(a_prev, n)
        try:
            inside = certified_cmp(lo, a_i) < 0 and certified_cmp(a_i, hi) < 0
        except UnresolvedComparison:
            raise ConditionViolated(m, "branch image comparison unresolved")
        if not inside:
            raise ConditionViolated(
                m, "target not inside the branch image of the cell piece")
        if sides[i] == "right":
            a_i = s_one_minus(a_i)
        onto = zp.image(a_i, n).overlaps(a_prev)
        l_avoid = None
        if variant == RELAXED and i + 1 < len(k_seq):
            # L_{n_i} = [c, c_{S_{k_{i+1}-1}}]; its S_{k_i-1} image must avoid c
            l_end = orbit.value(kd.S[k_seq[i + 1] - 1])
            l_set = zp.image(Scalar(min(Fraction(C), l_end.lo),
                                    max(Fraction(C), l_end.hi)), n)
            l_avoid = not (l_set.lo < C < l_set.hi)
        levels.append(ChainLevel(i, k_seq[i], n_seq[i], m, a_i, sides[i], onto,
                                 l_avoid))
        if not onto:
            raise ConditionViolated(i, "level image does not meet a_{i-1}")
        a_prev = a_i
    return CriticalProjectionChain(k_seq, n_seq, levels, variant)


@dataclass(frozen=True)
class ChainClass:
    kind: str                       # direct-spiral | basic-sin-curve | undetermined
    verdict: V.Verdict
    bar_enclosure: Optional[tuple] = None

    def to_json(self):
        out = {"kind": self.kind, "verdict": self.verdict.to_json()}
        if self.bar_enclosure is not None:
            out["bar"] = {"lo": V.approx(self.bar_enclosure[0]),
                          "hi": V.approx(self.bar_enclosure[1])}
        return out


def classify_chain(k_seq: Sequence[int], q,
                   zp: Optional[PrecriticalTable] = None) -> ChainClass:
    """Direct spiral versus basic sin(1/x) from the tail of Q(k_i + 1).

    Divergence evidence of Q(k_i + 1) along the chain classifies a direct
    spiral (the central tower levels |D_{S_{k_i}}| shrink to a point); a
    bounded subsequence witness classifies a basic sin(1/x)-continuum, whose
    bar projection is enclosed by the intersection of the available levels.
    Chains shorter than three levels stay undetermined.  Levels are read
    from the table ``zp``, whose cutting data must agree with ``q`` where
    both are defined (DomainError otherwise).
    """
    k_seq = tuple(k_seq)
    if len(k_seq) < _MIN_LEVELS:
        return ChainClass("undetermined",
                          V.undetermined(RULE_CLASSIFY, "chain too short",
                                         depth=len(k_seq)))
    qs = _materialize_q(q, max(k_seq) + 2)
    kd = None if zp is None else zp.kd
    if kd is not None and qs[:len(kd.Q)] != list(kd.Q[:len(qs)]):
        j = next(j for j, (a, b) in enumerate(zip(qs, kd.Q), 1) if a != b)
        raise DomainError(f"kneading map disagrees with the cutting data at "
                          f"Q({j})")
    vals = []
    for k in k_seq:
        if k + 1 <= len(qs):
            vals.append(qs[k])          # Q(k_i + 1), 1-based list
    if len(vals) < _MIN_LEVELS:
        return ChainClass("undetermined",
                          V.undetermined(RULE_CLASSIFY,
                                         "Q(k_i + 1) not available",
                                         depth=len(vals)))
    half = len(vals) // 2
    head, tail = vals[:half], vals[half:]
    decay = None
    if kd is not None:
        level_ns = [kd.S[k] for k in k_seq
                    if k <= kd.max_k and kd.S[k] <= kd.horizon]
        lengths = [_diff(hi, lo) for lo, hi in
                   (level_ends(zp.orbit, kd, (n,)) for n in level_ns)]
        if len(lengths) >= _MIN_LEVELS:
            decay = all(y < x for x, y in zip(lengths, lengths[1:]))
    if min(tail) > max(head) and vals[-1] >= vals[0] + len(vals) // 2:
        if decay is False:
            return ChainClass("undetermined", V.undetermined(
                RULE_CLASSIFY, "symbolic divergence but no numeric decay",
                depth=len(vals), q_values=vals))
        return ChainClass("direct-spiral",
                          V.evidence(RULE_CLASSIFY, depth=len(vals),
                                     q_values=vals, level_decay=decay))
    bound = max(head)
    witnesses = [k for k, v in zip(k_seq, vals) if v <= bound]
    if len([v for v in tail if v <= bound]) >= 1 and len(witnesses) >= 2:
        ends = level_ends(zp.orbit, kd, level_ns) if kd is not None else None
        bar = ends if ends is not None and ends[0] <= ends[1] else None
        return ChainClass("basic-sin-curve",
                          V.evidence(RULE_CLASSIFY, depth=len(vals),
                                     q_values=vals, bounded_by=bound,
                                     witness_k=witnesses[:8]),
                          bar)
    return ChainClass("undetermined",
                      V.undetermined(RULE_CLASSIFY, "mixed Q(k_i+1) tail",
                                     depth=len(vals), q_values=vals))


def nasty_cascade_rule(q, horizon: int, cascade_min: int = 3) -> V.Verdict:
    """Symbolic rule for the infinitely renormalizable configuration.

    Evidence that every folding point is a nasty endpoint when the
    renormalization scan finds a nested cascade of at least ``cascade_min``
    windows; refuted(-leaning) when the scan sees a window and refutes every
    one; undetermined otherwise.  The witness reports the symbolic periods
    S_{k-1} of the cascade levels, and the depth is the number of Q values
    read.  A ``cascade_min`` below 1 or a negative horizon raises
    ``DomainError``: an empty cascade is no evidence of one.
    """
    if cascade_min < 1:
        raise DomainError(f"cascade_min must be >= 1, got {cascade_min}")
    qs = _q_upto(q, horizon)
    passing = renorm_scan(qs, horizon)["passing"]
    S = _cutting_times(qs)
    periods = [S[k - 1] for k in passing if k - 1 < len(S)]
    if len(passing) >= cascade_min:
        return V.evidence(RULE_NASTY, depth=len(qs), cascade=passing,
                          periods=periods)
    if not passing and len(qs) > 1:
        return V.refuted(RULE_NASTY, depth=len(qs),
                         reason="every renormalization window refuted")
    reason = "shallow cascade" if passing else "no renormalization window"
    return V.undetermined(RULE_NASTY, reason, depth=len(qs),
                          cascade=passing, periods=periods)
