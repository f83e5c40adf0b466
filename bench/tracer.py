"""Span tracing of uilkit's public functions, installed from outside.

``Tracer.install`` replaces every binding of each target function in every
loaded ``uilkit.*`` module (and the class attribute for methods), so calls
between uilkit modules are seen as well as calls from the benchmark.
``Tracer.uninstall`` puts every original object back.

Each call of a span target records ``[name, start, end, parent, job]``.
Very hot kernel leaves are folded: they record no span, only per-function
counts and time and, for the outermost leaf call, a count and time charged
to the enclosing span.  A function called while a leaf is running is folded
the same way.  Self time is a span's duration minus its child spans and the
folded leaf time directly under it.  While ``paused`` is set (the benchmark's
own output checks), wrapped functions run untraced.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

from uilkit import errors
from workloads import DOCUMENTED


def _bits(*values):
    return max((v.denominator.bit_length() for v in values), default=0)


def _orbit_bits(tr, idx, args, kwargs, result):
    bits = _bits(*(v for x, _ in result for v in (x.lo, x.hi)))
    tr.raise_max("scalars.critical_orbit.max_bits", bits)
    parent = tr.spans[idx][3]
    if parent >= 0 and tr.spans[parent][0] == "hofbauer.OrbitTable.extend":
        tr.rebuilt.add(parent)


def _slope_bits(tr, idx, args, kwargs, result):
    tr.raise_max("scalars.slope_for_prefix.max_bits",
                 _bits(result.s.lo, result.s.hi))


def _add(metric, value_of):
    def extra(tr, idx, args, kwargs, result):
        tr.counts[metric] += value_of(args, result)
    return extra


def _cached_extend(args, kwargs):
    """An OrbitTable.extend call that only reads the cache is folded."""
    n = args[1] if len(args) > 1 else kwargs.get("n", 0)
    return n < len(getattr(args[0], "_values", ()))


# (module, attribute, metric name, folded leaf?, extra stats, fold predicate)
TARGETS = [
    ("scalars", "critical_orbit", "scalars.critical_orbit", False,
     _orbit_bits, None),
    ("scalars", "tent_apply", "scalars.tent_apply", True, None, None),
    ("scalars", "branch_preimage", "scalars.branch_preimage", True, None, None),
    ("scalars", "branch_preimage_left", "scalars.branch_preimage", True,
     None, None),
    ("scalars", "branch_preimage_right", "scalars.branch_preimage", True,
     None, None),
    ("scalars", "certified_cmp", "scalars.certified_cmp", True, None, None),
    ("scalars", "Scalar.at", "scalars.Scalar.at", True, None, None),
    ("scalars", "slope_for_prefix", "scalars.slope_for_prefix", False,
     _slope_bits, None),
    ("presets", "parse_slope", "presets.parse_slope", False, None, None),
    ("kneading", "nu_from_orbit", "kneading.nu_from_orbit", False, None, None),
    ("kneading", "cutting_data", "kneading.cutting_data", False,
     _add("kneading.cutting_data.symbols", lambda a, r: len(a[0])), None),
    ("kneading", "nu_from_q", "kneading.nu_from_q", False,
     _add("kneading.nu_from_q.symbols", lambda a, r: len(r)), None),
    ("kneading", "admissible_q", "kneading.admissible_q", False, None, None),
    ("kneading", "admissible_disjoint", "kneading.admissible_disjoint", False,
     None, None),
    ("kneading", "renorm_scan", "kneading.renorm_scan", False, None, None),
    ("kneading", "q_asymptotics", "kneading.q_asymptotics", False, None, None),
    ("hofbauer", "OrbitTable.extend", "hofbauer.OrbitTable.extend", False,
     None, _cached_extend),
    ("hofbauer", "tower_levels", "hofbauer.tower_levels", False,
     _add("hofbauer.tower_levels.levels", lambda a, r: len(r)), None),
    ("hofbauer", "PrecriticalTable.natural",
     "hofbauer.PrecriticalTable.natural", False, None, None),
    ("hofbauer", "f_apply", "hofbauer.f_apply", False, None, None),
    ("hofbauer", "upsilon_index", "hofbauer.upsilon_index", False, None, None),
    ("hofbauer", "verify_zzz", "hofbauer.verify_zzz", False,
     _add("hofbauer.verify_zzz.certified", lambda a, r: int(r.is_certified)),
     None),
    ("hofbauer", "long_branched_evidence", "hofbauer.long_branched_evidence",
     False, None, None),
    ("hofbauer", "cutting_value_gaps", "hofbauer.cutting_value_gaps", False,
     None, None),
    ("hofbauer", "f_graph_data", "hofbauer.f_graph_data", False, None, None),
    ("inverse_limit", "tau_data", "inverse_limit.tau_data", False,
     _add("inverse_limit.tau_data.depths", lambda a, r: r.n_max), None),
    ("inverse_limit", "basic_arc_interval", "inverse_limit.basic_arc_interval",
     False, None, None),
    ("inverse_limit", "endpoint_verdict", "inverse_limit.endpoint_verdict",
     False, None, None),
    ("inverse_limit", "endpoint_itinerary_gen",
     "inverse_limit.endpoint_itinerary_gen", False, None, None),
    ("inverse_limit", "folding_verdict", "inverse_limit.folding_verdict",
     False, None, None),
    ("inverse_limit", "pull_back", "inverse_limit.pull_back", False,
     _add("inverse_limit.pull_back.steps", lambda a, r: r.length), None),
    ("inverse_limit", "reluctance_search", "inverse_limit.reluctance_search",
     False, None, None),
    ("inverse_limit", "classification_report",
     "inverse_limit.classification_report", False, None, None),
    ("subcontinua", "find_qcond_chains", "subcontinua.find_qcond_chains",
     False, None, None),
    ("subcontinua", "classify_chain", "subcontinua.classify_chain", False,
     None, None),
    ("subcontinua", "nasty_cascade_rule", "subcontinua.nasty_cascade_rule",
     False, None, None),
    ("seqgen", "generate", "seqgen.generate", False, None, None),
    ("seqgen", "extend_step", "seqgen.extend_step", False, None, None),
    ("seqgen", "word_admissible", "seqgen.word_admissible", True, None, None),
    ("cli", "main", "cli.main", False, None, None),
    ("cli", "_emit", "cli.report_write", False, None, None),
]


def self_times(spans, folded):
    """Self time of each span: its duration minus its direct children.

    ``spans`` holds ``[name, start, end, parent, job]`` rows with parent -1
    at the root; ``folded`` maps a span index to the folded leaf time
    directly under it.
    """
    out = [s[2] - s[1] - folded.get(i, 0.0) for i, s in enumerate(spans)]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.leaves = []                       # open leaf frames: [child_s]
        # (name, in set-up?) -> [calls, self_s, total_s]
        self.leaf_stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.folded = defaultdict(lambda: [0, 0.0])    # (parent, name) -> n, s
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.rebuilt = set()
        self.job = None
        self.paused = False
        self.saved = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self.saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "uilkit" or name.startswith("uilkit."))
                   and m is not None]
        for module, attr, name, leaf, extra, fold in TARGETS:
            mod = sys.modules.get(f"uilkit.{module}")
            if mod is None:
                continue
            owner_path, _, last = attr.rpartition(".")
            owner = mod
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            original = getattr(owner, last, None) if owner is not None else None
            if original is None:
                continue                       # gone in this version: no stats
            wrapper = self._wrap(original, name, leaf, extra, fold,
                                 module == "scalars")
            if owner_path:
                self.saved.append((owner, last, original))
                setattr(owner, last, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self.saved.append((m, key, original))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, original in reversed(self.saved):
            setattr(owner, key, original)
        self.saved = []

    # -- recording -----------------------------------------------------------

    def raise_max(self, metric, value):
        if value > self.maxima[metric]:
            self.maxima[metric] = value

    def _error(self, name, exc, kernel):
        if isinstance(exc, errors.UnresolvedComparison) and \
                name == "scalars.certified_cmp":
            self.counts["scalars.certified_cmp.unresolved"] += 1
        if kernel and isinstance(exc, DOCUMENTED) and \
                not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.counts["scalars.errors"] += 1

    def _leaf(self, name, fn, args, kwargs, kernel):
        frame = [0.0]
        self.leaves.append(frame)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self._error(name, exc, kernel)
            raise
        finally:
            dt = perf_counter() - t0
            self.leaves.pop()
            st = self.leaf_stats[(name, self.job == "setup")]
            st[0] += 1
            st[1] += dt - frame[0]
            st[2] += dt
            if self.leaves:
                self.leaves[-1][0] += dt
            else:
                f = self.folded[(self.stack[-1] if self.stack else -1, name)]
                f[0] += 1
                f[1] += dt

    def call(self, name, fn, args=(), kwargs=None, extra=None, kernel=False):
        """Run fn inside a span called ``name``."""
        kwargs = kwargs or {}
        idx = len(self.spans)
        row = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job]
        self.spans.append(row)
        self.stack.append(idx)
        row[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._error(name, exc, kernel)
            raise
        finally:
            row[2] = perf_counter()
            self.stack.pop()
        if extra is not None:
            extra(self, idx, args, kwargs, result)
        return result

    def _wrap(self, fn, name, leaf, extra, fold, kernel):
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.paused:
                return fn(*args, **kwargs)
            if leaf or tr.leaves or (fold is not None and fold(args, kwargs)):
                return tr._leaf(name, fn, args, kwargs, kernel)
            return tr.call(name, fn, args, kwargs, extra, kernel)

        return wrapper

    # -- results ------------------------------------------------------------------

    def metrics(self):
        """Per-function calls/self/total over set-up and jobs, named counts,
        and ``layer.<module>.self_s`` totals over the jobs alone (no set-up,
        no output checks), which add up to the traced job time."""
        folded_under = defaultdict(float)
        for (parent, _), (_, t) in self.folded.items():
            if parent >= 0:
                folded_under[parent] += t
        selfs = self_times(self.spans, folded_under)
        out = defaultdict(int)
        for row, own in zip(self.spans, selfs):
            name = row[0]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name}.total_s"] += row[2] - row[1]
            if row[4] != "setup" and name != "bench.check":
                out[f"layer.{name.split('.')[0]}.self_s"] += own
        for (name, in_setup), (calls, own, total) in self.leaf_stats.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += own
            out[f"{name}.total_s"] += total
            if not in_setup:
                out[f"layer.{name.split('.')[0]}.self_s"] += own
        for name, value in self.counts.items():
            out[name] += value
        out.update(self.maxima)
        out["hofbauer.OrbitTable.extend.rebuilds"] = len(self.rebuilt)
        return dict(out)

    def dump(self, path):
        """Write spans and folded per-parent leaf counts as JSON lines."""
        with open(path, "w") as fh:
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                fh.write(json.dumps({"i": i, "name": name, "start": t0,
                                     "end": t1, "parent": parent,
                                     "job": job}) + "\n")
            for (parent, name), (calls, t) in sorted(self.folded.items()):
                fh.write(json.dumps({"folded": name, "parent": parent,
                                     "calls": calls, "time": t}) + "\n")
