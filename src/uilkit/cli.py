"""Command-line surface: batch orchestration and report emission.

Commands
--------
knead         kneading word, cutting times, kneading map, co-cutting times,
              both admissibility checkers, kneading-map asymptotics
tower         Hofbauer levels with the index/induction cross-check, level
              length decay, long-branched evidence
classify      itinerary batch classification (folding/endpoint/arc verdicts)
persistence   monotone pull-back search and the recurrence-type dichotomy
subcontinua   chain search, chain classification, renormalization cascade
genseq        the dense-orbit/sparse-cutting-values generator + certificate
density       cutting-value gap scan
fmap          graph data for the accelerated map on the precritical cells

Exactly one of --slope / --nu / --q selects the input.  Reports are JSON
with sorted keys and no volatile fields, so identical configurations give
byte-identical output; CSV emitters cover the plottable series.  Exit
codes: 0 ok, 2 configuration error or an input too large for the memory at
hand, 3 precision exhausted, 4 internal consistency failure (cross-checker
disagreement, always a bug).  No environment variable is read.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from . import verdicts as V
from .errors import (ConfigError, InternalInconsistency, PrecisionExhausted,
                     UilkitError)
from .hofbauer import (OrbitTable, PrecriticalTable, _tolerance,
                       cutting_value_gaps, f_graph_data,
                       long_branched_evidence, tower_levels)
from .inverse_limit import (classification_report, parse_itinerary,
                            reluctance_search)
from .kneading import (admissible_disjoint, admissible_q, cutting_data,
                       emit_dotted, nu_from_orbit, nu_from_q, parse_dotted,
                       q_asymptotics, renorm_scan)
from .presets import parse_q, parse_slope
from .seqgen import generate
from .subcontinua import classify_chain, find_qcond_chains, nasty_cascade_rule

SCHEMA = "uilkit-report-v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


def _eps(args) -> Fraction:
    try:
        return _tolerance(args.eps)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse --eps {args.eps!r}")


def _at_least(args, low, *flags):
    """ConfigError unless each of ``flags`` is at least ``low``."""
    for flag in flags:
        value = getattr(args, flag[2:].replace("-", "_"))
        if value < low:
            raise ConfigError(f"{flag} must be >= {low}, got {value}")


def _resolve_inputs(args, need=("slope", "nu", "q")):
    """Exactly one of slope/nu/q; derive the kneading word where possible.

    Returns the slope, the kneading word, the kneading map, the cutting data
    and, for a slope, the one orbit table of the run at the precision cap.
    """
    _at_least(args, 1, "--horizon")
    given = [name for name in ("slope", "nu", "q") if getattr(args, name, None)]
    if len(given) != 1:
        raise ConfigError("exactly one of --slope / --nu / --q is required")
    kind = given[0]
    if kind not in need:
        raise ConfigError(f"--{kind} input not supported by this command")
    slope = nu = qs = orbit = None
    if kind == "slope":
        slope = parse_slope(args.slope, depth=max(args.horizon, 64))
        orbit = OrbitTable(slope, args.prec_cap)
        nu = nu_from_orbit(slope, args.horizon, prec_cap=orbit.prec_cap)
    elif kind == "nu":
        nu = parse_dotted(args.nu)
    else:
        qs, _ = parse_q(args.q, args.horizon)
        nu = nu_from_q(qs, args.horizon)
    kd = cutting_data(nu)
    if qs is None:
        qs = list(kd.Q)
    return slope, nu, qs, kd, orbit


def _json_text(report) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, byte for byte.

    Reports hold str keys and str, int, bool, None, dict, list and tuple
    values; anything else raises ``TypeError``.  A tower report repeats each
    exact c_n in several levels, so each distinct int is converted once.
    """
    parts = []
    _write_json(report, "\n", parts.append, {})
    return "".join(parts)


def _write_json(value, pad, put, digits):
    """Put the text of ``value``, indented after ``pad``, part by part.

    A module function, not a closure: a recursive closure refers to itself
    through its own cell, so the parts it held lived on until the cyclic
    collector ran, which raised the peak memory of a pass.
    """
    kind = type(value)
    if kind is str:
        put(encode_basestring_ascii(value))
    elif kind is int:
        text = digits.get(value)
        if text is None:
            text = digits[value] = int.__repr__(value)
        put(text)
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"report keys must be str, not "
                                f"{type(key).__name__}")
            put(sep)
            put(encode_basestring_ascii(key))
            put(": ")
            _write_json(value[key], inner, put, digits)
            sep = "," + inner
        put(pad + "}")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            put(sep)
            _write_json(item, inner, put, digits)
            sep = "," + inner
        put(pad + "]")
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON "
                        f"serializable")


def _emit(args, report):
    # exact report values may pass CPython's 4300-digit int-to-str limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = _json_text(report) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    if args.out:
        tmp = args.out + ".tmp"
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    else:
        sys.stdout.write(text)


def _emit_csv(path, header, rows):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")
    os.replace(tmp, path)


def _report(args, command, results):
    # output paths are volatile and excluded so identical configurations
    # produce byte-identical reports wherever they are written
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "out", "out_csv") and v is not None}
    return {"schema": SCHEMA, "command": command, "config": cfg,
            "results": results}


# -- commands -------------------------------------------------------------------

def cmd_knead(args):
    slope, nu, qs, kd, _ = _resolve_inputs(args)
    qa = q_asymptotics(qs)
    scan = renorm_scan(qs, min(len(qs), args.horizon))
    results = {
        "nu_dotted": emit_dotted(kd) if len(nu) <= 512 else None,
        "nu_length": len(nu),
        "cutting_times": list(kd.S),
        "kneading_map": list(kd.Q),
        "cocutting_times": list(kd.cocut),
        "cocut_censored": kd.cocut_censored,
        "kappa": kd.kappa,
        "flags": sorted(nu.flags),
        "admissible_disjoint": admissible_disjoint(nu, kd).to_json(),
        "admissible_q": admissible_q(qs).to_json(),
        "q_asymptotics": qa.to_json(),
        "renorm_passing": scan["passing"],
    }
    _emit(args, _report(args, "knead", results))


def cmd_tower(args):
    _at_least(args, 1, "--depth")
    slope, nu, qs, kd, orbit = _resolve_inputs(args)
    N = min(args.depth, kd.horizon)
    levels = tower_levels(kd, slope, N, orbit=orbit)
    lb = long_branched_evidence(kd, levels)
    if args.out_csv:
        rows = [(lv.n, V.approx(lv.length.lo), V.approx(lv.length.hi))
                if lv.length is not None else (lv.n, "", "") for lv in levels]
        _emit_csv(args.out_csv, ("n", "len_lo", "len_hi"), rows)
    results = {
        "levels": [lv.to_json() for lv in levels],
        "long_branched": lb.to_json(),
        "csv": args.out_csv,
    }
    _emit(args, _report(args, "tower", results))


def cmd_classify(args):
    _at_least(args, 0, "--depth")
    slope, nu, qs, kd, orbit = _resolve_inputs(args)
    if not args.itinerary:
        raise ConfigError("classify needs at least one --itinerary")
    eps = _eps(args)
    items = {}
    for text in args.itinerary:
        it = parse_itinerary(text)
        rep = classification_report(it, nu, slope, kd, depth=args.depth,
                                    eps=eps, orbit=orbit)
        items[text] = rep.to_json()
    _emit(args, _report(args, "classify", {"items": items}))


def cmd_persistence(args):
    _at_least(args, 0, "--eps-pow-min", "--eps-pow-max")
    slope, nu, qs, kd, orbit = _resolve_inputs(args)
    qa = q_asymptotics(qs)
    results = {"q_asymptotics": qa.to_json(), "search": None}
    kind = None
    if slope is not None:
        eps_grid = [Fraction(1, 1 << k) for k in range(args.eps_pow_min,
                                                       args.eps_pow_max + 1)]
        verdict = reluctance_search(slope, eps_grid,
                                    length_target=args.length_target,
                                    horizon=args.horizon, kd=kd,
                                    orbit=orbit)
        results["search"] = verdict.to_json()
        kind = verdict.witness.get("kind")
    rule, depth = "folding-equals-endpoints-dichotomy", args.horizon
    if kind == "persistent":
        expectation = V.evidence(rule, depth=depth, via="pullback-search")
    elif kind == "reluctant":
        expectation = V.refuted(rule, depth=depth, via="monotone-pullback")
    elif qa.to_infinity.is_positive:
        expectation = V.evidence(rule, depth=depth, via="q-divergence")
    else:
        expectation = V.undetermined(rule, "no persistence signal", depth=depth)
    results["folding_equals_endpoints"] = expectation.to_json()
    _emit(args, _report(args, "persistence", results))


def cmd_subcontinua(args):
    _at_least(args, 0, "--max-chains")
    _at_least(args, 1, "--cascade-min")
    slope, nu, qs, kd, orbit = _resolve_inputs(args)
    zp = None if slope is None else PrecriticalTable(slope, kd, orbit)
    strict = find_qcond_chains(qs, min(len(qs), args.horizon), variant="strict")
    relaxed = find_qcond_chains(qs, min(len(qs), args.horizon), variant="relaxed")
    chains_out = []
    for ch in strict["chains"][: args.max_chains]:
        cc = classify_chain(ch, qs, zp)
        chains_out.append({"k_seq": list(ch), "class": cc.to_json()})
    results = {
        "strict": {"chains": [list(c) for c in strict["chains"]],
                   "greedy": list(strict["greedy"])},
        "relaxed": {"chains": [list(c) for c in relaxed["chains"]],
                    "greedy": list(relaxed["greedy"])},
        "classified": chains_out,
        "nasty_cascade": nasty_cascade_rule(qs, min(len(qs), args.horizon),
                                            args.cascade_min).to_json(),
    }
    _emit(args, _report(args, "subcontinua", results))


def cmd_genseq(args):
    nu, certificate, plans = generate(args.length)
    results = {
        "certificate": certificate,
        "nu": nu.bits if len(nu) <= 4096 else nu.bits[:4096],
        "plans": [p.to_json() for p in plans] if args.plans else len(plans),
    }
    _emit(args, _report(args, "genseq", results))


def cmd_density(args):
    _at_least(args, 0, "--K")
    slope, nu, qs, kd, orbit = _resolve_inputs(args, need=("slope",))
    K = min(args.K, kd.max_k)
    report = cutting_value_gaps(PrecriticalTable(slope, kd, orbit), K,
                                _eps(args))
    if args.out_csv:
        pair = tuple(report["max_gap_pair"] or ())
        rows = [(r["from_n"], r["to_n"], r["gap_hi"],
                 int((r["from_n"], r["to_n"]) == pair)) for r in report["rows"]]
        _emit_csv(args.out_csv, ("from_n", "to_n", "gap_hi", "is_max_gap"), rows)
    results = {
        "K": K,
        "max_gap": V.approx(report["max_gap"]),
        "max_gap_pair": report["max_gap_pair"],
        "restricted_q_le_1": {
            "ks": report["restricted_q_le_1"]["ks"],
            "max_gap": V.approx(report["restricted_q_le_1"]["max_gap"]),
        },
        "eps_dense_at_horizon": report["eps_dense_at_horizon"].to_json(),
        "csv": args.out_csv,
    }
    _emit(args, _report(args, "density", results))


def cmd_fmap(args):
    _at_least(args, 1, "--grid")
    _at_least(args, 0, "--max-cell")
    slope, nu, qs, kd, orbit = _resolve_inputs(args, need=("slope",))
    zp = PrecriticalTable(slope, kd, orbit)
    rows = f_graph_data(zp, grid=args.grid, max_cell=args.max_cell)
    out_rows = [(V.approx(a), V.approx(b), V.approx(c), V.approx(d), k)
                for a, b, c, d, k in rows]
    if args.out_csv:
        _emit_csv(args.out_csv, ("x_lo", "x_hi", "F_lo", "F_hi", "cell_k"),
                  out_rows)
    results = {"samples": len(out_rows), "cells": sorted({r[4] for r in rows}),
               "csv": args.out_csv,
               "rows": out_rows if args.out_csv is None else None}
    _emit(args, _report(args, "fmap", results))


# -- argument parsing -------------------------------------------------------------

@functools.cache
def build_parser():
    """The parser, built on the first call and shared by later ones."""
    top = argparse.ArgumentParser(
        prog="uilkit",
        description="symbolic dynamics toolkit for tent-map inverse limits")
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, func, help, horizon=None):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        if horizon is None:
            return p
        p.add_argument("--slope", help="rational, decimal, interval:lo,hi, "
                       "or preset (fib, ex35, nonrec41, appendix, golden, "
                       "tribonacci), optionally name:depth")
        p.add_argument("--nu", help="kneading word, dots for cutting times ok")
        p.add_argument("--q", help="kneading map: comma list or preset "
                       "(fib, ex35, cascade)")
        p.add_argument("--horizon", type=int, default=horizon)
        p.add_argument("--prec-cap", type=int, default=4096,
                       help="precision cap in bits, not below the slope's "
                       "starting precision (128 or more)")
        p.add_argument("--out", help="write the JSON report here")
        return p

    command("knead", cmd_knead, "kneading data and admissibility", 1000)
    p = command("tower", cmd_tower, "Hofbauer tower levels", 256)
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--out-csv")

    p = command("classify", cmd_classify, "classify itineraries", 256)
    p.add_argument("--depth", type=int, default=64)
    p.add_argument("--eps", default="0.00000095367431640625",
                   help="tolerance (default 2^-20)")
    p.add_argument("--itinerary", action="append", default=[],
                   help="e.g. '(1)^inf 111.111' or '...100110.01'; repeatable")

    p = command("persistence", cmd_persistence, "recurrence-type search", 120)
    p.add_argument("--length-target", type=int, default=64)
    p.add_argument("--eps-pow-min", type=int, default=6)
    p.add_argument("--eps-pow-max", type=int, default=12)

    p = command("subcontinua", cmd_subcontinua,
                "chain search and classification", 60)
    p.add_argument("--max-chains", type=int, default=8)
    p.add_argument("--cascade-min", type=int, default=3)

    p = command("genseq", cmd_genseq, "appendix-style word generator")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--plans", action="store_true", help="include step plans")
    p.add_argument("--out")

    p = command("density", cmd_density, "cutting-value gap scan", 512)
    p.add_argument("--eps", default="0.00000095367431640625",
                   help="tolerance (default 2^-20)")
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--out-csv")

    p = command("fmap", cmd_fmap, "accelerated-map graph data", 128)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--max-cell", type=int, default=8)
    p.add_argument("--out-csv")
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        return EXIT_OK
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except PrecisionExhausted as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except InternalInconsistency as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except UilkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        print("out of memory: the input needs more memory than the process "
              "may use", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
