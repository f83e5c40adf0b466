"""Job cells, seeded job lists, shared set-up, job bodies and output checks.

A pass runs one job from every *cell* of a workload, in an order fixed per
workload, so the same slot holds the same cell on every seed.  A cell's
variants are inputs of nearly equal cost (slopes of one denominator size at
one horizon, one folding point at seeded offsets, neighbouring entries of a
cost-ordered pool); ``--seed`` picks the variant of every cell.  Different
seeds therefore run different inputs, while two seeds' passes do about the
same work, and every variant is covered by the reference digests in
``reference.json``.

A job is ``Job(kind, params)`` with plain-data params.  ``run_job`` is the
only part that is timed; ``check_job`` runs afterwards, outside job latency.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random
from collections import namedtuple
from fractions import Fraction

from uilkit import cli, errors, hofbauer, inverse_limit, kneading, presets, \
    scalars, seqgen, subcontinua

Job = namedtuple("Job", "kind params")

WORKLOADS = ("exact", "enclosure", "symbolic")

# Documented outcomes: recorded and compared with the reference, never
# counted as failures on their own.
DOCUMENTED = (errors.PrecisionExhausted, errors.UnresolvedComparison,
              errors.CriticalHit)

MOD = (1 << 61) - 1
PRESET_DEPTH = 150
EXACT_PRESETS = ("fib", "nonrec41", "ex35", "appendix")
ENCLOSURE_PRESETS = ("sqrt3", "cbrt6")
ITINERARIES = ("(1)^inf .1111", "(0)^inf .0000", "(01)^inf .0101",
               "...100110.01", "(110)^inf .11")
LONG_WORDS = {"fib": 10000, "ex35": 6000, "nonrec": 4000, "gen": 6773}
RECURRENT_WORDS = ("fib", "ex35", "gen")
VARIANTS = 4


def job_key(job: Job) -> str:
    return f"{job.kind}:{json.dumps(list(job.params), separators=(',', ':'))}"


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _strata(pool, n):
    """n equal contiguous strata of a cost-ordered pool, one cell each."""
    return [pool[i * len(pool) // n:max(i * len(pool) // n + 1,
                                        (i + 1) * len(pool) // n)]
            for i in range(n)]


def _horizon(i, n, shift=0):
    """Horizon of cell i of n: 200..400, in a stride order that pairs the
    horizons with the cells' sizes differently for every shift."""
    return 200 + 200 * ((7 * i + shift) % n) // (n - 1)


# -- cells --------------------------------------------------------------------

def _exact_slope_cells(tag, n, shift=0):
    """n cells of slopes p/q.  Cell i fixes the denominator's bit-length
    (log-uniform over 2..64) and the horizon N; its variants differ only in
    p and q, which moves the cost of an orbit to N by a few per cent."""
    rng = _rng("pool", tag)
    cells = []
    for i in range(n):
        b = min(64, max(2, round(2 * 32 ** ((i + 0.5) / n))))
        cell = []
        while len(cell) < VARIANTS:
            q = rng.randrange(1 << (b - 1), 1 << b)
            p = rng.randrange(int(q * 1.42) + 1, 2 * q)
            if math.gcd(p, q) == 1:
                cell.append((p, q, _horizon(i, n, shift)))
        cells.append(cell)
    return cells


def _interval_cells(tag, n, h_lo=256, h_hi=2048, shift=0):
    """n cells of narrow slope intervals.  Cell i fixes the half-width 2^-h
    (h log-uniform over h_lo..h_hi) and the horizon; its variants differ in
    the midpoint p/2^20, a slope in [1.45, 1.95)."""
    rng = _rng("pool", tag)
    cells = []
    for i in range(n):
        h = round(h_lo * (h_hi / h_lo) ** ((i + 0.5) / n))
        # keep every variant's orbit resolvable: its width grows like s^N 2^-h
        horizon = min(_horizon(i, n, shift), int(0.7 * h / math.log2(1.95)))
        q = 1 << 20
        cells.append([(rng.randrange(int(q * 1.45), int(q * 1.95)), q, h,
                       horizon) for _ in range(VARIANTS)])
    return cells


def _q_shift(d):
    return lambda k: max(k - d, 0)


def _q_bounded(b):
    return lambda k: min(k - 1, b)


Q_FAMILIES = {
    "fib": kneading.fibonacci_q, "ex35": kneading.example35_q,
    "cascade": kneading.cascade_q,
    "shift3": _q_shift(3), "shift4": _q_shift(4), "shift5": _q_shift(5),
    "shift6": _q_shift(6), "shift7": _q_shift(7),
    "bounded1": _q_bounded(1), "bounded2": _q_bounded(2),
}
QMAP_FAMILIES = ("fib", "ex35", "shift3", "shift4", "shift5", "shift6",
                 "shift7", "bounded1", "bounded2")


def _prefix_pool(n):
    """Kneading prefixes of length 8..12 read off exact slopes by hand."""
    rng = _rng("pool", "prefix")
    out = []
    while len(out) < n:
        s = Fraction(rng.randrange(1420, 2000), 1000)
        x, bits = Fraction(1, 2), []
        for _ in range(12):
            x = s * min(x, 1 - x)
            bits.append("1" if x > Fraction(1, 2) else "0")
        word = "".join(bits[:rng.randrange(8, 13)])
        if word not in out:
            out.append(word)
    return sorted(out, key=len)


def _backward_batch(family, index, variant, size=6):
    """Seeded backward words: recurrent prefixes, random and periodic tails.
    The lengths depend on the index alone, the random symbols also on the
    variant, so the variants of one index cost about the same."""
    sizes = _rng("pool", "backward", family, index)
    rng = _rng("pool", "backward", family, index, variant)

    def bits(lo, hi):
        return "".join(rng.choice("01") for _ in range(sizes.randrange(lo, hi)))

    words = []
    for i in range(size):
        r = i % 4
        if r == 0:
            words.append(("prefix", sizes.randrange(4, 400) - variant, ""))
        elif r == 1:
            words.append(("finite", bits(8, 200), ""))
        else:
            words.append(("periodic", bits(0, 12), bits(1, 7)))
    return words


def _one(*jobs):
    """Cells of a single, fixed job each."""
    return [[job] for job in jobs]


def cells(workload):
    """Every cell of a workload, grouped by kind; a cell lists its variants."""
    if workload == "exact":
        C = {k: [[Job(k, s + (0, 12)) for s in cell]
                 for cell in _exact_slope_cells(k, 6 if k == "tower" else 9,
                                                shift)]
             for shift, k in enumerate(("tower", "precritical", "zzz",
                                        "fapply"))}
        C["cli_tower"] = [[Job("cli", ("tower", "--slope", f"{p}/{q}",
                                       "--horizon", "120", "--depth", "60"))
                           for p, q, _ in cell]
                          for cell in _exact_slope_cells("cli_tower", 4)]
        C["cli_density"] = [[Job("cli", ("density", "--slope", f"{p}/{q}",
                                         "--K", "8", "--horizon", "128"))
                             for p, q, _ in cell]
                            for cell in _exact_slope_cells("cli_density", 8)]
        C["cli_fmap"] = [[Job("cli", ("fmap", "--slope", f"{p}/{q}",
                                      "--horizon", "128", "--grid", "64"))
                          for p, q, _ in cell]
                         for cell in _exact_slope_cells("cli_fmap", 3)]
        C["cli_fixed"] = _one(
            Job("cli", ("tower", "--slope", "9/5", "--horizon", "1000",
                        "--depth", "1000")),
            Job("cli", ("fmap", "--slope", "nonrec41:80", "--horizon", "64",
                        "--grid", "16", "--max-cell", "2")))
        C.update(_recurrence_cells(EXACT_PRESETS, cheap=False))
        return C
    if workload == "enclosure":
        # F on the algebraic slopes starts at k = 2: for k = 0, 1 the point
        # c_1 or c_2 is a core endpoint, and comparing it with itself refines
        # both enclosures up to the precision cap (the fapply_edge job)
        C = {}
        for shift, k in enumerate(("tower", "precritical", "zzz", "fapply")):
            ks = (2, 8) if k == "fapply" else (0, 10)
            count = {"tower": 6, "fapply": 8}.get(k, 10)
            C[k] = [[Job(k, ("interval",) + s + ks) for s in cell]
                    for cell in _interval_cells(k, count, shift=shift)]
            C[k + "_alg"] = _one(*(Job(k, ("alg", name, 150) + ks)
                                   for name in ENCLOSURE_PRESETS))
        C["fapply_edge"] = [[Job("fapply", ("alg", "sqrt3", n, 0, 1))
                             for n in (100, 150, 200)]]
        C["exhaust"] = [[Job("exhaust", (name, n, cap)) for n in (20, 60)]
                        for name in ("golden", "tribonacci")
                        for cap in (512, 1024)]
        C["cli_fixed"] = _one(
            Job("cli", ("tower", "--slope", "sqrt3", "--horizon", "100",
                        "--depth", "100")),
            Job("cli", ("tower", "--slope", "cbrt6", "--horizon", "80",
                        "--depth", "80")),
            Job("cli", ("fmap", "--slope", "sqrt3", "--horizon", "64",
                        "--grid", "16", "--max-cell", "2")),
            Job("cli", ("knead", "--slope", "golden", "--horizon", "20",
                        "--prec-cap", "1024")))
        C["cli_density"] = [
            [Job("cli", ("density", "--slope",
                         f"interval:{_dec(Fraction(p, q) - Fraction(1, 1 << h))},"
                         f"{_dec(Fraction(p, q) + Fraction(1, 1 << h))}",
                         "--K", "6", "--horizon", "96"))
             for p, q, h, _ in cell]
            for cell in _interval_cells("cli_density", 12, 256, 512)]
        C.update(_recurrence_cells(ENCLOSURE_PRESETS, cheap=True))
        return C
    if workload == "symbolic":
        return {
            "arc": _strata([Job("arc", (w,)) for w in _prefix_pool(64)], 32),
            "word": [[Job("word", (f, i, v)) for v in range(VARIANTS)]
                     for f in LONG_WORDS for i in range(0, 12, 2)],
            "qmap": [[Job("qmap", (f, h + 25 * v)) for v in range(VARIANTS)]
                     for f in QMAP_FAMILIES for h in (2000, 6000, 10000)],
            "chains": _strata([Job("chains", (f, h)) for h in (30, 40, 50, 60)
                               for f in ("fib", "ex35", "cascade", "shift3",
                                         "shift4", "shift5")], 12),
            "generate": _strata([Job("generate", (n,))
                                 for n in range(200, 6774, 274)], 12),
            "generate_long": _strata([Job("generate", (n,)) for n in
                                      (8000, 20000, 60000, 150000)], 2),
            "cli_knead": _strata([Job("cli", ("knead", "--q", f, "--horizon",
                                              str(h)))
                                  for f in ("fib", "ex35", "cascade")
                                  for h in (400, 410, 420)], 3),
            "cli_sub": _strata([Job("cli", ("subcontinua", "--q", f,
                                            "--horizon", str(h)))
                                for f in ("ex35", "fib") for h in (40, 41, 42)],
                               2),
            "cli_genseq": _strata([Job("cli", ("genseq", "--length", str(n)))
                                   for n in (2000, 3000, 4000, 5000)], 2)}
    raise ValueError(f"unknown workload {workload!r}")


def _dec(x: Fraction) -> str:
    """Exact decimal text of a dyadic rational."""
    den = x.denominator
    k = den.bit_length() - 1
    if den != 1 << k:
        raise ValueError(f"{x} is not dyadic")
    digits = x.numerator * 5 ** k
    s = str(digits).rjust(k + 1, "0")
    return f"{s[:-k]}.{s[-k:]}" if k else s


def _recurrence_cells(names, cheap):
    """Jobs on the preset slopes derived in set-up.  The folding battery's
    cells are near points (``ones``, ``island``; depth 6) and far points
    (``zero``, ``two``; depth 3), whose variants move x0 by a seeded offset;
    an exact preset gets one near and one far point, a ``cheap`` (enclosure)
    preset all four.  ``reluctance`` and ``classify`` cells are fixed jobs."""
    C = {"folding": [], "reluctance": [], "classify": [], "preset_word": []}
    for i, name in enumerate(names):
        for point, depth, proxy in (("ones", 6, 120), ("island", 6, 120),
                                    ("zero", 3, 100), ("two", 3, 100)):
            if cheap or point in (("ones", "zero"), ("island", "two"))[i % 2]:
                C["folding"].append([Job("folding", (name, point, offset,
                                                     depth, proxy))
                                     for offset in range(1, VARIANTS + 1)])
        C["reluctance"] += _one(*(Job("reluctance", (name, eps, 16, 40))
                                  for eps in ((5, 6, 7, 8) if cheap else (5, 7))))
        C["classify"] += _one(*(Job("classify", (name, index, depth))
                                for index in ((0, 1, 2, 3, 4) if cheap
                                              else (0, 1, 2, 4))
                                for depth in (12, 16)))
        C["preset_word"] += _one(Job("preset_word", (name,)))
    return C


def make_jobs(workload: str, seed: int):
    """The job list of one pass: every cell once, in an order fixed per
    workload, each as the variant the seed picks."""
    order = [cell for group in cells(workload).values() for cell in group]
    _rng("order", workload).shuffle(order)
    rng = _rng("run", workload, seed)
    return [cell[rng.randrange(len(cell))] for cell in order]


def all_pool_jobs(workload: str):
    """Every variant of every cell, each once."""
    seen, out = set(), []
    for group in cells(workload).values():
        for job in itertools.chain.from_iterable(group):
            if job not in seen:
                seen.add(job)
                out.append(job)
    return out


# -- shared set-up ----------------------------------------------------------------

class Context:
    """Shared inputs of a workload, built once and used by every pass."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.presets = {}        # name -> (slope, target bits, nu, kd)
        self.arc = {}            # prefix -> (slope, nu, kd)
        self.words = {}          # family -> KneadingPrefix
        self.orbits = {}         # per-pass OrbitTables, one per preset slope

    def new_pass(self):
        self.orbits = {name: hofbauer.OrbitTable(entry[0])
                       for name, entry in self.presets.items()}


def _preset_target(name):
    if name == "fib":
        return kneading.nu_from_q(kneading.fibonacci_q, PRESET_DEPTH).bits
    if name == "ex35":
        return kneading.nu_from_q(kneading.example35_q, PRESET_DEPTH).bits
    if name == "nonrec41":
        return kneading.nonrecurrent_example_nu(PRESET_DEPTH).bits
    if name == "appendix":
        return seqgen.generate(PRESET_DEPTH)[0].bits[:PRESET_DEPTH]
    return None


def setup(workload, jobs, out_dir) -> Context:
    """Build what a library user builds once: slopes, words, cutting data."""
    ctx = Context(out_dir)
    names = EXACT_PRESETS if workload == "exact" else \
        ENCLOSURE_PRESETS if workload == "enclosure" else ()
    for name in names:
        text = f"{name}:{PRESET_DEPTH}" if workload == "exact" else name
        slope = presets.parse_slope(text)
        nu = kneading.nu_from_orbit(slope, PRESET_DEPTH)
        ctx.presets[name] = (slope, _preset_target(name), nu,
                             kneading.cutting_data(nu))
    if workload == "symbolic":
        for job in jobs:
            if job.kind == "arc" and job.params[0] not in ctx.arc:
                bits = job.params[0]
                nu = kneading.KneadingPrefix(bits)
                ctx.arc[bits] = (scalars.slope_for_prefix(bits), nu,
                                 kneading.cutting_data(nu))
        ctx.words = {
            "fib": kneading.nu_from_q(kneading.fibonacci_q, LONG_WORDS["fib"]),
            "ex35": kneading.nu_from_q(kneading.example35_q, LONG_WORDS["ex35"]),
            "nonrec": kneading.nonrecurrent_example_nu(LONG_WORDS["nonrec"]),
            "gen": kneading.KneadingPrefix(
                seqgen.generate(LONG_WORDS["gen"])[0].bits[:LONG_WORDS["gen"]],
                source="generator"),
        }
        for nu in ctx.words.values():
            kneading.cutting_data(nu)
    ctx.new_pass()
    return ctx


# -- job bodies ---------------------------------------------------------------------

def _cold_slope(job):
    """Params end in (N, k_lo, k_hi); the slope comes first."""
    *spec, n, k_lo, k_hi = job.params
    if spec[0] == "alg":
        slope = presets.parse_slope(spec[1])
    elif spec[0] == "interval":
        _, p, q, h = spec
        mid, half = Fraction(p, q), Fraction(1, 1 << h)
        slope = scalars.slope_interval(mid - half, mid + half,
                                       precision_bits=h)
    else:
        slope = scalars.slope_exact(Fraction(*spec))
    nu = kneading.nu_from_orbit(slope, n)
    return slope, nu, kneading.cutting_data(nu), n, k_lo, k_hi


def _run_cold(job):
    slope, nu, kd, n, k_lo, K = _cold_slope(job)
    out = {"slope": slope, "nu": nu, "kd": kd}
    if job.kind == "tower":
        out["levels"] = hofbauer.tower_levels(kd, slope, n)
        return out
    zp = hofbauer.PrecriticalTable(slope, kd)
    out["zp"] = zp
    if job.kind == "precritical":
        K = min(K, kd.max_k)
        out["z"] = [zp.natural(k) for k in range(K + 1)]
    elif job.kind == "zzz":
        K = min(K, kd.max_k - 1)
        out["zzz"] = [hofbauer.verify_zzz(slope, k, zp) for k in range(K)]
    else:
        K = min(K, kd.max_k - 1)
        ks = range(k_lo, K)
        out["f"] = [hofbauer.f_apply(slope, zp.orbit.value(kd.S[k]), zp)
                    for k in ks]
        out["targets"] = [zp.orbit.value(kd.S[k + 1]) for k in ks]
        out["ks"] = ks
    return out


def _point(slope, name, offset):
    """The criterion-8 folding battery; ``offset`` moves x0 by offset/2^40
    (by 1/(97 + 2 offset) on the zero ray), a seeded input of equal cost."""
    s = slope.s.lo
    shift = Fraction(offset, 1 << 40)
    IL = inverse_limit
    if name == "ones":
        return IL.TwoSidedItinerary(IL.BackwardWord("", "1"), "1" * 10,
                                    x0=scalars.Scalar.exact(s / (1 + s) + shift))
    if name == "island":
        return IL.TwoSidedItinerary(IL.BackwardWord("0", "1"), "1" * 10,
                                    x0=scalars.Scalar.exact(s / (1 + s) + shift))
    if name == "zero":
        return IL.TwoSidedItinerary(
            IL.BackwardWord("", "0"), "0" * 10,
            x0=scalars.Scalar.exact(Fraction(1, 97 + 2 * offset)))
    return IL.TwoSidedItinerary(IL.BackwardWord("", "01"), "01" * 5,
                                x0=scalars.Scalar.exact(s / (1 + s * s) + shift))


def _run_recurrence(job, ctx):
    name = job.params[0]
    slope, target, nu, kd = ctx.presets[name]
    orbit = ctx.orbits[name]
    IL = inverse_limit
    if job.kind == "folding":
        _, point, offset, depth, proxy = job.params
        return {"verdict": IL.folding_verdict(
            _point(slope, point, offset), slope, nu, depth=depth,
            eps=Fraction(1, 256), proxy_len=proxy, orbit=orbit)}
    if job.kind == "reluctance":
        _, eps_pow, target_len, horizon = job.params
        grid = [Fraction(1, 1 << k) for k in range(eps_pow, eps_pow + 3)]
        return {"verdict": IL.reluctance_search(
            slope, grid, length_target=target_len, horizon=horizon, kd=kd,
            orbit=orbit), "slope": slope, "orbit": orbit}
    if job.kind == "classify":
        _, index, depth = job.params
        it = IL.parse_itinerary(ITINERARIES[index])
        return {"report": IL.classification_report(
            it, nu, slope, kd, depth=depth, eps=Fraction(1, 1 << 20),
            orbit=orbit)}
    return {"nu": kneading.nu_from_orbit(slope, PRESET_DEPTH),
            "target": target}


def _run_arc(job, ctx):
    slope, nu, kd = ctx.arc[job.params[0]]
    orbit = hofbauer.OrbitTable(slope)
    arcs = []
    for wlen in range(1, min(len(nu), 8) + 1):
        for tup in itertools.product("01", repeat=wlen):
            word = "".join(tup)
            td = inverse_limit.tau_data(inverse_limit.BackwardWord(word), nu)
            try:
                arc = inverse_limit.basic_arc_interval(td, orbit, word=word,
                                                       kd=kd, mode="unit")
                arcs.append((word, (arc.lo.value, arc.hi.value)))
            except errors.UnrealizableWord:
                arcs.append((word, None))
    return {"arcs": arcs, "slope": slope}


def _run_word(job, ctx):
    family, index, variant = job.params
    nu = ctx.words[family]
    IL = inverse_limit
    rows = []
    for kind, a, b in _backward_batch(family, index, variant):
        if kind == "prefix":
            back = IL.BackwardWord(nu.bits[:a])
        elif kind == "finite":
            back = IL.BackwardWord(a)
        else:
            back = IL.BackwardWord(a, b)
        td = IL.tau_data(back, nu, depth=512)
        rows.append((td, IL.endpoint_verdict(IL.TwoSidedItinerary(back), nu,
                                             depth=512)))
    gen = None
    if family in RECURRENT_WORDS:
        gen = IL.endpoint_itinerary_gen(nu, count=2 + index % 3,
                                        depth=30 + 10 * index)
    return {"rows": rows, "gen": gen}


def _run_qmap(job):
    family, horizon = job.params
    nu = kneading.nu_from_q(Q_FAMILIES[family], horizon)
    kd = kneading.cutting_data(nu)
    qs = list(kd.Q)
    return {"nu": nu, "kd": kd, "horizon": horizon,
            "adm_q": kneading.admissible_q(qs),
            "adm_d": kneading.admissible_disjoint(nu),
            "qa": kneading.q_asymptotics(qs),
            "renorm": kneading.renorm_scan(qs, len(qs))}


def _run_chains(job):
    family, horizon = job.params
    q = Q_FAMILIES[family]
    strict = subcontinua.find_qcond_chains(q, horizon, variant="strict")
    relaxed = subcontinua.find_qcond_chains(q, horizon, variant="relaxed")
    classes = [subcontinua.classify_chain(ch, q)
               for ch in strict["chains"][:8]]
    nasty = subcontinua.nasty_cascade_rule(q, horizon)
    return {"strict": strict, "relaxed": relaxed, "classes": classes,
            "nasty": nasty}


def _run_cli(job, ctx, slot):
    path = os.path.join(ctx.out_dir, f"report-{slot}.json")
    if os.path.exists(path):
        os.remove(path)          # a job that exits early must leave none
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(list(job.params) + ["--out", path])
    return {"code": code, "path": path, "stderr": err.getvalue()}


def run_job(job: Job, ctx: Context, slot: int):
    """Run one job; documented outcomes come back as ("documented", ...)."""
    try:
        if job.kind in ("tower", "precritical", "zzz", "fapply"):
            return _run_cold(job)
        if job.kind in ("folding", "reluctance", "classify", "preset_word"):
            return _run_recurrence(job, ctx)
        if job.kind == "exhaust":
            name, n, cap = job.params
            return {"nu": kneading.nu_from_orbit(presets.parse_slope(name), n,
                                                 prec_cap=cap)}
        if job.kind == "arc":
            return _run_arc(job, ctx)
        if job.kind == "word":
            return _run_word(job, ctx)
        if job.kind == "qmap":
            return _run_qmap(job)
        if job.kind == "chains":
            return _run_chains(job)
        if job.kind == "generate":
            nu, cert, plans = seqgen.generate(job.params[0])
            return {"nu": nu, "cert": cert}
        if job.kind == "cli":
            return _run_cli(job, ctx, slot)
    except DOCUMENTED as exc:
        return {"documented": type(exc).__name__,
                "index": getattr(exc, "index", getattr(exc, "n", None))}
    raise ValueError(f"unknown job kind {job.kind!r}")


# -- checks and digests ------------------------------------------------------------

def _h(x):
    """Canonical text of exact data for hashing; big integers reduced."""
    if isinstance(x, Fraction):
        return f"{x.numerator % MOD}/{x.denominator % MOD}"
    if isinstance(x, int) and not isinstance(x, bool):
        return str(x % MOD) if x.bit_length() > 60 else str(x)
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(_h(v) for v in x) + "]"
    return str(x)


def _status(v):
    return {"certified": "c", "refuted": "r"}.get(v.status, ".")


class Outcome:
    """What a job must keep (exact data and decided statuses) plus problems."""

    def __init__(self):
        self.exact = []
        self.statuses = ""
        self.problems = []

    def need(self, cond, message):
        if not cond:
            self.problems.append(message)

    def digest(self):
        return hashlib.sha256(_h(self.exact).encode()).hexdigest()[:16]


def _word_data(out, nu, kd):
    out.exact += [nu.bits, list(kd.S), list(kd.Q)]


def check_cold(job, res, out):
    slope, nu, kd = res["slope"], res["nu"], res["kd"]
    _word_data(out, nu, kd)
    exact = slope.is_exact
    if job.kind == "tower":
        levels = res["levels"]
        out.need(len(levels) == job.params[-3], "tower level count")
        for lv in levels:
            a, b = lv.numeric
            out.need(a.overlaps(b), f"tower level {lv.n} index/induction")
        if exact:
            out.exact.append([(lv.numeric[0].lo, lv.numeric[0].hi)
                              for lv in levels[-3:]])
    elif job.kind == "precritical":
        zs = res["z"]
        for k, z in enumerate(zs):
            y = z
            for _ in range(kd.S[k]):
                y = scalars.tent_apply(slope, y)
            out.need(y.contains(scalars.C), f"T^S_{k}(z_{k}) must reach c")
        if exact:
            out.exact.append([z.value for z in zs])
    elif job.kind == "zzz":
        for k, v in enumerate(res["zzz"]):
            out.statuses += _status(v)
            if k >= 2 and exact:
                out.need(v.is_certified, f"verify_zzz k={k} {v.status}")
    else:
        for k, (y, cell), target in zip(res["ks"], res["f"], res["targets"]):
            out.need(cell == kd.q_of(k + 1), f"F cell at k={k}")
            if exact:
                out.need(y.value == target.value, f"F(c_S{k}) != c_S{k + 1}")
                out.exact.append(y.value)
            else:
                out.need(y.overlaps(target), f"F(c_S{k}) misses c_S{k + 1}")


def check_recurrence(job, res, out):
    if job.kind == "folding":
        v = res["verdict"]
        out.statuses += _status(v)
        out.exact.append(v.witness.get("missing_word"))
    elif job.kind == "reluctance":
        v = res["verdict"]
        kind = v.witness["kind"]
        out.exact.append(kind)
        if kind == "reluctant":
            eps, n = v.epsilon, v.witness["segment_end"]
            orbit = res["orbit"]
            center = orbit.value(n + 1)
            ball = (scalars.Scalar.exact(max(Fraction(0), center.lo - eps)),
                    scalars.Scalar.exact(min(Fraction(1), center.hi + eps)))
            segment = [orbit.value(n + 1 - k) for k in range(0, n + 1)]
            chain = inverse_limit.pull_back(ball, segment, res["slope"])
            out.need(chain.monotone_prefix >= job.params[2],
                     "reluctant witness shorter than the target")
            out.need(inverse_limit.verify_monotone(chain),
                     "reluctant witness not monotone")
            out.exact += [v.witness["length"], n, eps]
    elif job.kind == "classify":
        rep = res["report"]
        out.statuses += _status(rep.folding) + _status(rep.endpoint) + "".join(
            _status(rep.expectations[k]) for k in sorted(rep.expectations)
            if hasattr(rep.expectations[k], "status"))
        if rep.arc is not None:
            out.exact.append((rep.arc.lo_n, rep.arc.hi_n, rep.arc.exact))
    else:
        out.need(res["target"] is None or res["nu"].bits == res["target"],
                 "preset word differs from its target prefix")
        out.exact.append(res["nu"].bits)


def check_arc(job, res, out):
    slope = res["slope"]
    for word, got in res["arcs"]:
        want = inverse_limit.word_image_interval(slope, word)
        out.need(got == want, f"arc of {word} differs from the pull-back")
        out.exact.append(got)


def check_word(job, res, out):
    for td, verdict in res["rows"]:
        out.exact.append((td.NL, td.NR, td.saturatedL, td.saturatedR,
                          td.cert_finiteL, td.cert_finiteR,
                          td.cert_infiniteL, td.cert_infiniteR))
        out.statuses += _status(verdict)
    if res["gen"] is not None:
        out.exact.append([w.symbols for w in res["gen"]])


def check_qmap(job, res, out):
    nu, kd = res["nu"], res["kd"]
    _word_data(out, nu, kd)
    back = kneading.nu_from_q(list(kd.Q), res["horizon"])
    out.need(back == nu, "nu_from_q(cutting_data(nu).Q) != nu")
    out.need(res["adm_q"].is_refuted == res["adm_d"].is_refuted,
             "admissibility checkers disagree")
    out.statuses += _status(res["adm_q"]) + _status(res["adm_d"]) + "".join(
        _status(v) for v in (res["qa"].to_infinity, res["qa"].bounded))
    out.exact.append(res["renorm"]["passing"])


def check_chains(job, res, out):
    out.exact += [res["strict"]["chains"], res["strict"]["greedy"],
                  res["relaxed"]["chains"], res["relaxed"]["greedy"],
                  [c.kind for c in res["classes"]]]
    out.statuses += _status(res["nasty"])


def check_generate(job, res, out):
    cert, nu = res["cert"], res["nu"]
    out.need(cert["length"] >= job.params[0], "generated word too short")
    out.need(cert["q_ne_1_and_le_k_minus_2_beyond_seed"],
             "kneading-map clauses fail")
    out.need(cert["admissible_disjoint"] != "refuted" and
             cert["admissible_q"] != "refuted", "generated word refuted")
    out.need(cert["scheduled_pairs_at_cuts"], "scheduled pairs not at cuts")
    out.need(nu.bits.startswith(seqgen.FIRST_EXTENSION_REFERENCE),
             "first extension differs from the reference")
    out.exact += [nu.bits, cert["coverage_length"],
                  cert["coverage_length_at_cuts"]]


def _cli_summary(command, results):
    """The parts of a report a correct change must keep."""
    if command == "tower":
        return [[(lv["n"], lv["beta"], lv["is_cutting"])
                 for lv in results["levels"]],
                results["long_branched"]["status"]]
    if command == "density":
        return [results["K"], results["max_gap_pair"],
                results["restricted_q_le_1"]["ks"],
                results["eps_dense_at_horizon"]["status"]]
    if command == "fmap":
        return [results["samples"], results["cells"]]
    if command == "knead":
        return [results["cutting_times"], results["kneading_map"],
                results["cocutting_times"], results["admissible_q"]["status"],
                results["admissible_disjoint"]["status"]]
    if command == "subcontinua":
        return [results["strict"], results["relaxed"],
                [c["class"]["kind"] for c in results["classified"]],
                results["nasty_cascade"]["status"]]
    if command == "genseq":
        return [results["nu"], results["certificate"]["length"]]
    return []


def check_cli(job, res, out, report):
    code = res["code"]
    out.exact.append(code)
    if code == 3:
        out.need("precision exhausted" in res["stderr"],
                 "exit 3 without a precision message")
        return
    out.need(code == 0, f"exit code {code}: {res['stderr'][:200]}")
    if code != 0:
        return
    try:
        doc = json.loads(report)
    except ValueError:
        out.problems.append("report is not JSON")
        return
    out.need(doc.get("command") == job.params[0], "report command mismatch")
    out.exact.append(_cli_summary(job.params[0], doc["results"]))


def check_job(job, res, ref, report=None) -> Outcome:
    """Check one job's outputs and compare them with its reference entry.

    ``ref`` is ``{"d": digest, "s": statuses}`` from the seed commit, or None
    while recording.  Every decided (certified/refuted) status in the
    reference must come back unchanged; undecided ones may become decided.
    """
    out = Outcome()
    if "documented" in res:
        out.exact.append((res["documented"], res["index"]))
    elif job.kind in ("tower", "precritical", "zzz", "fapply"):
        check_cold(job, res, out)
    elif job.kind in ("folding", "reluctance", "classify", "preset_word"):
        check_recurrence(job, res, out)
    elif job.kind == "exhaust":
        out.problems.append("golden/tribonacci orbit resolved past its "
                            "exact critical return")
    elif job.kind == "arc":
        check_arc(job, res, out)
    elif job.kind == "word":
        check_word(job, res, out)
    elif job.kind == "qmap":
        check_qmap(job, res, out)
    elif job.kind == "chains":
        check_chains(job, res, out)
    elif job.kind == "generate":
        check_generate(job, res, out)
    elif job.kind == "cli":
        check_cli(job, res, out, report)
    if ref is not None:
        out.need(out.digest() == ref["d"], "digest differs from the reference")
        want = ref["s"]
        out.need(len(out.statuses) == len(want) and all(
            w == "." or w == g for w, g in zip(want, out.statuses)),
            f"statuses {out.statuses!r} lose decided ones of {want!r}")
    return out
