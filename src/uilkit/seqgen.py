"""Generator for kneading words with dense orbits but sparse cutting values.

Starting from the seed 1.0.0.0.101 the word is extended in rounds; each
round schedules one new pair of admissible words (a stem completed by 0 and
by 1) to appear with their last letters at cutting times, while keeping two
standing constraints on every new kneading-map value: Q(j) <= j - 2 (which
rules out renormalization windows) and Q(j) != 1 (which keeps the cutting
values away from one side of the critical point, so they cannot be dense).
In the limit every admissible word appears ending at a cutting time, giving
a dense critical orbit, while the cutting values themselves stay nowhere
dense: the two densities genuinely differ.

One round appends four blocks.  Writing B(m) for the prefix of length S_m
with its last letter flipped (which advances the cutting structure by one
step with Q-value m):

* block I:   B(Q(k)-1) B(Q(k)-2) ... B(2) walks the kneading map down to 2;
* block II:  B(n') u', where n' is the first cutting index whose prefix ends
  with the flipped stem, so the pair's even-parity completion u' lands with
  its last letter on a cutting time (B(n') is skipped when the current word
  already ends with the stem);
* block III: B(r) with r minimal admissible, a spacer preventing Q(j) = j-1
  at the next step;
* block IV:  everything accumulated before block III with its last letter
  flipped, a single jump with Q(j) = j - 2 that realizes the odd-parity
  completion u at a cutting time.

Every round re-verifies all postconditions from scratch with both
admissibility checkers; a failure raises ConstructionStuck with a full
state dump and must never happen on admissible states.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .errors import ConstructionStuck, DomainError, NotAdmissible
from .kneading import (CuttingData, KneadingPrefix, _extend_cutting,
                       admissible_disjoint, admissible_q, cutting_data,
                       emit_dotted)
from .scalars import parity_lex_cmp

SEED = "1000101"
FIRST_EXTENSION_REFERENCE = "1000101" + "0" + "101" + "10001011"

RULE_CERT = "dense-words-sparse-cuttings-certificate"
_MAX_PAIR_LEN = 24      # longest stem + letter the missing-pair search tries
_MAX_STEPS = 64         # extension rounds generate runs before giving up


def word_admissible(word: str, nu_bits: str) -> bool:
    """Two-channel admissibility of a word against the current prefix.

    A word that occurs in the prefix is realizable outright.  Otherwise
    every shifted window must sit parity-lexicographically at or below the
    prefix and at or above its shift (the itineraries of the two core
    endpoints); comparisons that run off the data pass.
    """
    if word in nu_bits:
        return True
    sigma = nu_bits[1:]
    for i in range(len(word)):
        window = word[i:]
        if parity_lex_cmp(window, nu_bits) > 0:
            return False
        if parity_lex_cmp(sigma, window) > 0:
            return False
    return True


class WordLedger:
    """The prefix together with the pairs already realized at cutting times.

    ``ends_at_cuts`` collects all subwords (up to ``len_cap``) whose last
    letter falls on a cutting time; ``paired`` holds the words w such that
    both w and its last-letter flip appear there.  The set is built from
    the word alone, and again when the cap grows.  A given ``kd`` must be
    the word's cutting data, else the word is scanned.
    """

    def __init__(self, nu_bits: str = SEED, len_cap: int = 8,
                 kd: Optional[CuttingData] = None):
        if kd is None:
            kd = cutting_data(KneadingPrefix(nu_bits))
        elif kd.nu.bits != nu_bits:
            raise DomainError("the cutting data belong to another word")
        self.nu = nu_bits
        self.len_cap = len_cap
        self.kd: CuttingData = kd
        self._collect()

    def _collect(self):
        self.ends_at_cuts = {self.nu[p - L:p] for p in self.kd.S
                             for L in range(1, min(p, self.len_cap) + 1)}

    def ensure_cap(self, cap: int):
        if cap > self.len_cap:
            self.len_cap = cap
            self._collect()

    def paired(self, word: str) -> bool:
        flip = word[:-1] + ("1" if word[-1] == "0" else "0")
        return word in self.ends_at_cuts and flip in self.ends_at_cuts

    def scratch_equal(self) -> bool:
        """The set and the cutting data equal a fresh rebuild from the word;
        by construction for the set, as every ledger and every raised cap
        builds it from the word."""
        fresh = WordLedger(self.nu, self.len_cap)
        return fresh.ends_at_cuts == self.ends_at_cuts and fresh.kd == self.kd

    def to_json(self):
        return {"nu": self.nu, "len_cap": self.len_cap,
                "cuts": list(self.kd.S)}


@dataclass
class ExtensionPlan:
    """Record of one extension round (for reports and reproducibility)."""

    v: str
    v_flip: str
    stem: str
    u: str
    u_flip: str
    n_prime: Optional[int]
    r: Optional[int]
    block_i: str
    block_ii: str
    block_iii: str
    block_iv: str
    pre_extension: str = ""

    def to_json(self):
        return {"v": self.v, "v_flip": self.v_flip, "stem": self.stem,
                "u": self.u, "u_flip": self.u_flip, "n_prime": self.n_prime,
                "r": self.r, "blocks": [self.block_i, self.block_ii,
                                        self.block_iii, self.block_iv],
                "pre_extension": self.pre_extension}


def _flip_last(word: str) -> str:
    return word[:-1] + ("1" if word[-1] == "0" else "0")


def shortest_missing_pair(ledger: WordLedger):
    """Lexicographically first among the shortest admissible missing pairs.

    A pair is the two one-letter completions of a stem; it is missing when
    they are not both realized at cutting times, and eligible when both are
    admissible words.
    """
    for L in range(1, _MAX_PAIR_LEN + 1):
        ledger.ensure_cap(max(ledger.len_cap, L + 1))
        for idx in range(1 << max(L - 1, 0)):
            stem = format(idx, f"0{L - 1}b") if L > 1 else ""
            v, v_flip = stem + "0", stem + "1"
            if ledger.paired(v):
                continue
            if word_admissible(v, ledger.nu) and word_admissible(v_flip, ledger.nu):
                return v, v_flip
    raise ConstructionStuck("missing-pair-search",
                            {"nu": ledger.nu[:64], "max_len": _MAX_PAIR_LEN})


def _block(nu: str, S, m: int) -> str:
    """B(m): the prefix of length S_m with the last letter flipped."""
    return _flip_last(nu[:S[m]])


def _verify_admissible(bits: str, stage: str, state, kd: CuttingData):
    """Cutting data of ``bits``, resumed from ``kd``, that of a prefix of
    ``bits``; ConstructionStuck when the word is inadmissible."""
    try:
        kd = _extend_cutting(kd, bits)
    except NotAdmissible:
        verdict = str(admissible_disjoint(KneadingPrefix(bits)))
        raise ConstructionStuck(stage, dict(state, verdict=verdict)) from None
    lex = admissible_q(list(kd.Q))
    if lex.is_refuted:
        raise ConstructionStuck(stage, dict(state, verdict=str(lex)))
    return kd


def extend_step(ledger: WordLedger, compat: bool = False):
    """One full extension round; returns (new ledger, ExtensionPlan).

    ``compat`` additionally asserts that the very first round starting from
    the seed reproduces the reference extension
    1.0.0.0.101.0.101.10001011.
    """
    nu = ledger.nu
    kd = ledger.kd
    S = kd.S
    k = kd.max_k
    state = {"nu_len": len(nu), "k": k}

    v, v_flip = shortest_missing_pair(ledger)
    stem = v[:-1]
    w = None
    for j in range(len(stem), 0, -1):
        if ledger.paired(stem[:j]):
            w = stem[:j]
            break
    if w is None:
        raise ConstructionStuck("common-prefix-in-ledger",
                                dict(state, v=v, v_flip=v_flip))
    u, u_flip = v[len(w):], v_flip[len(w):]
    if u_flip.count("1") % 2 == 1:
        v, v_flip = v_flip, v
        u, u_flip = u_flip, u
    w_flip = _flip_last(w)
    state.update(v=v, v_flip=v_flip, w=w, u=u, u_flip=u_flip)

    pre_extension = ""
    n_prime = None
    for m in range(2, k):
        if nu[:S[m]].endswith(w_flip):
            n_prime = m
            break
    if n_prime is None and nu[:S[k]].endswith(w_flip):
        # the flipped stem only ends at the top cutting time: push one block
        pre_extension = _block(nu, S, k - 1)
        nu = nu + pre_extension
        kd = _verify_admissible(nu, "pre-extension", state, kd)
        S, k = kd.S, kd.max_k
        n_prime = k - 1
    if n_prime is None:
        raise ConstructionStuck("n-prime-search", dict(state, w_flip=w_flip))
    state["n_prime"] = n_prime

    q_top = kd.q_of(k)
    block_i = "".join(_block(nu, S, m) for m in range(q_top - 1, 1, -1))
    cur = nu + block_i
    kd_i = _verify_admissible(cur, "block-i", state, kd)

    def attach_completion(base, include_branch_block):
        body = "" if not include_branch_block else _block(nu, S, n_prime)
        candidate = base + body + u_flip
        kd_c = _verify_admissible(candidate, "block-ii", state, kd_i)
        end = len(candidate)
        if end not in kd_c.S or not candidate.endswith(v_flip):
            return None
        return candidate, body, kd_c

    # skip the branch block when the stem already sits at the current end
    attempt = None
    if cur.endswith(w):
        attempt = attach_completion(cur, False)
    if attempt is None:
        attempt = attach_completion(cur, True)
    if attempt is None:
        raise ConstructionStuck("block-ii", dict(state, cur_len=len(cur)))
    cur, branch_body, kd_ii = attempt
    block_ii = branch_body + u_flip
    p2 = cur                       # material reused (flipped) by block IV
    block_iv = _flip_last(p2)

    chosen_r = None
    for r in range(2, kd_ii.max_k):
        candidate = cur + _block(nu, S, r) + block_iv
        try:
            kd_fin = _verify_admissible(candidate, "block-iii", state,
                                        kd_ii)
        except ConstructionStuck:
            continue
        ok, _ = _segment_conditions(kd_fin, len(ledger.nu))
        if ok and len(candidate) in kd_fin.S and candidate.endswith(v):
            chosen_r = r
            break
    if chosen_r is None:
        raise ConstructionStuck("block-iii", dict(state, cur_len=len(cur)))
    state["r"] = chosen_r

    new_ledger = WordLedger(candidate, max(ledger.len_cap, len(v) + 1), kd_fin)
    if not (new_ledger.paired(v) and new_ledger.paired(v_flip)):
        raise ConstructionStuck("pair-not-realized", state)
    if len(u) not in new_ledger.kd.S or len(u) == 2:
        raise ConstructionStuck(
            "u-length", dict(state, u_len=len(u),
                             reason="|u| must be a cutting time other than 2"))
    if compat and ledger.nu == SEED and new_ledger.nu != FIRST_EXTENSION_REFERENCE:
        raise ConstructionStuck(
            "compat-first-extension",
            dict(state, got=new_ledger.nu, want=FIRST_EXTENSION_REFERENCE))
    plan = ExtensionPlan(v, v_flip, w, u, u_flip, n_prime, chosen_r,
                         block_i, block_ii, _block(nu, S, chosen_r), block_iv,
                         pre_extension)
    return new_ledger, plan


def _segment_conditions(kd: CuttingData, seed_len: int):
    """Q(j) <= j - 2 and Q(j) != 1 for every cutting time past the seed."""
    for j in range(1, kd.max_k + 1):
        if kd.S[j] <= seed_len:
            continue
        if kd.Q[j - 1] == 1:
            return False, f"Q({j}) = 1 at S_{j} = {kd.S[j]}"
        if kd.Q[j - 1] > j - 2:
            return False, f"Q({j}) = {kd.Q[j - 1]} > {j} - 2"
    return True, ""


def coverage_report(ledger: WordLedger, max_len: int = 6,
                    mode: str = "occurs"):
    """Largest L with every admissible word of length <= L covered.

    ``occurs`` checks occurrence in the word, which is what orbit density
    needs: every admissible word is a prefix of a scheduled pair word, so it
    eventually occurs.  ``at_cuts`` additionally demands the last letter on
    a cutting time, which the pair construction guarantees only for words
    whose last-letter flip is itself admissible -- for example 0001 occurs
    but can never end at a cutting time because 0000 is not an admissible
    word of these maps.
    """
    ledger.ensure_cap(max(ledger.len_cap, max_len))
    covered_to = 0
    missing = None
    for L in range(1, max_len + 1):
        all_in = True
        for idx in range(1 << L):
            word = format(idx, f"0{L}b")
            if not word_admissible(word, ledger.nu):
                continue
            hit = word in ledger.nu if mode == "occurs" \
                else word in ledger.ends_at_cuts
            if not hit:
                all_in = False
                missing = word
                break
        if not all_in:
            break
        covered_to = L
    return covered_to, missing


def coverage_goal(target_length: int) -> int:
    """Word length the coverage clause must reach for a given target."""
    if target_length >= 200:
        return 4
    if target_length >= 50:
        return 2
    return 0


def generate(target_length: int, compat: bool = False):
    """Extend the seed until the length target and the coverage goal hold.

    The certificate reports: the word-coverage depth (every admissible word
    up to that length ends at a cutting time), the two kneading-map clauses
    beyond the seed, acceptance by both admissibility checkers, and whether
    the first extension equals the reference one.
    """
    if target_length < len(SEED):
        raise DomainError(f"target length must be >= {len(SEED)}")
    goal = coverage_goal(target_length)
    ledger = WordLedger(SEED)
    plans = []
    first_matches = None
    while len(ledger.nu) < target_length or coverage_report(ledger, goal)[0] < goal:
        if len(plans) >= _MAX_STEPS:
            raise ConstructionStuck("step-budget", {"len": len(ledger.nu)})
        ledger, plan = extend_step(ledger, compat=compat and not plans)
        if first_matches is None:
            first_matches = ledger.nu.startswith(FIRST_EXTENSION_REFERENCE) \
                or ledger.nu == FIRST_EXTENSION_REFERENCE
        plans.append(plan)
    nu = KneadingPrefix(ledger.nu, source="generator")
    ok, reason = _segment_conditions(ledger.kd, len(SEED))
    covered_to, missing = coverage_report(ledger)
    cut_cov, cut_missing = coverage_report(ledger, mode="at_cuts")
    disjoint = admissible_disjoint(nu, ledger.kd)
    lex = admissible_q(list(ledger.kd.Q))
    scheduled_at_cuts = all(ledger.paired(p.v) and ledger.paired(p.v_flip)
                            for p in plans)
    certificate = {
        "length": len(ledger.nu),
        "steps": len(plans),
        "coverage_length": covered_to,
        "first_uncovered_word": missing,
        "coverage_length_at_cuts": cut_cov,
        "first_word_not_at_cut": cut_missing,
        "scheduled_pairs_at_cuts": scheduled_at_cuts,
        "q_ne_1_and_le_k_minus_2_beyond_seed": ok,
        "segment_condition_failure": reason or None,
        "admissible_disjoint": disjoint.status,
        "admissible_q": lex.status,
        "first_extension_matches_reference": bool(first_matches),
        "dotted_prefix": emit_dotted(nu, ledger.kd) if len(ledger.nu) <= 256
        else None,
        "rule": RULE_CERT,
    }
    if disjoint.is_refuted or lex.is_refuted or not ok:
        raise ConstructionStuck("final-certificate", certificate)
    return nu, certificate, plans


def dump_resume(ledger: WordLedger) -> str:
    return json.dumps(ledger.to_json(), sort_keys=True)


def load_resume(text: str) -> WordLedger:
    data = json.loads(text)
    return WordLedger(data["nu"], data["len_cap"])
