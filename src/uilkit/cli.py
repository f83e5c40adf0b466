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
codes: 0 ok, 2 configuration error, 3 precision exhausted, 4 internal
consistency failure (cross-checker disagreement, always a bug).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import verdicts as V
from .errors import (ConfigError, InternalInconsistency, PrecisionExhausted,
                     UilkitError)
from .hofbauer import (OrbitTable, PrecriticalTable, cutting_value_gaps,
                       f_graph_data, long_branched_evidence, tower_levels)
from .inverse_limit import (classification_report, parse_itinerary,
                            reluctance_search)
from .kneading import (admissible_disjoint, admissible_q, cutting_data,
                       emit_dotted, nu_from_orbit, nu_from_q, parse_dotted,
                       q_asymptotics, renorm_scan)
from .presets import parse_q, parse_slope
from .seqgen import generate
from .subcontinua import classify_chain, find_qcond_chains, nasty_cascade_rule

SCHEMA = "uilkit-report-v1"
PREC_CAP_ENV = "UILKIT_PREC_CAP"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4


def _prec_cap(args) -> int:
    """The precision cap; UILKIT_PREC_CAP, when set, overrides --prec-cap."""
    env = os.environ.get(PREC_CAP_ENV)
    if env is None:
        return getattr(args, "prec_cap", None)
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"{PREC_CAP_ENV} must be an integer, got {env!r}")


def _eps(args) -> Fraction:
    try:
        return Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse --eps {args.eps!r}")


def _resolve_inputs(args, need=("slope", "nu", "q")):
    """Exactly one of slope/nu/q; derive the kneading word where possible."""
    given = [name for name in ("slope", "nu", "q") if getattr(args, name, None)]
    if len(given) != 1:
        raise ConfigError("exactly one of --slope / --nu / --q is required")
    kind = given[0]
    if kind not in need:
        raise ConfigError(f"--{kind} input not supported by this command")
    slope = nu = qs = None
    if kind == "slope":
        slope = parse_slope(args.slope, depth=max(args.horizon, 64))
        nu = nu_from_orbit(slope, args.horizon, prec_cap=_prec_cap(args))
    elif kind == "nu":
        nu = parse_dotted(args.nu)
    else:
        qs, _ = parse_q(args.q, args.horizon)
        nu = nu_from_q(qs, args.horizon)
    if qs is None:
        qs = list(cutting_data(nu).Q)
    return slope, nu, qs


def _emit(args, report):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
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
    slope, nu, qs = _resolve_inputs(args)
    kd = cutting_data(nu)
    qa = q_asymptotics(qs)
    scan = renorm_scan(qs, min(len(qs), args.horizon))
    results = {
        "nu_dotted": emit_dotted(nu, kd) if len(nu) <= 512 else None,
        "nu_length": len(nu),
        "cutting_times": list(kd.S),
        "kneading_map": list(kd.Q),
        "cocutting_times": list(kd.cocut),
        "cocut_censored": kd.cocut_censored,
        "kappa": kd.kappa,
        "flags": sorted(nu.flags),
        "admissible_disjoint": admissible_disjoint(nu).to_json(),
        "admissible_q": admissible_q(qs).to_json(),
        "q_asymptotics": qa.to_json(),
        "renorm_passing": scan["passing"],
    }
    _emit(args, _report(args, "knead", results))


def cmd_tower(args):
    slope, nu, qs = _resolve_inputs(args)
    kd = cutting_data(nu)
    N = min(args.depth, kd.horizon)
    levels = tower_levels(kd, slope, N, prec_cap=_prec_cap(args))
    lb = long_branched_evidence(kd, N, slope, prec_cap=_prec_cap(args),
                                levels=levels)
    rows = []
    for lv in levels:
        if lv.length is not None:
            rows.append((lv.n, V.approx(lv.length.lo), V.approx(lv.length.hi)))
        else:
            rows.append((lv.n, "", ""))
    if args.out_csv:
        _emit_csv(args.out_csv, ("n", "len_lo", "len_hi"), rows)
    results = {
        "levels": [lv.to_json() for lv in levels[: args.depth]],
        "long_branched": lb.to_json(),
        "csv": args.out_csv,
    }
    _emit(args, _report(args, "tower", results))


def cmd_classify(args):
    slope, nu, qs = _resolve_inputs(args)
    kd = cutting_data(nu)
    if not args.itinerary:
        raise ConfigError("classify needs at least one --itinerary")
    orbit = OrbitTable(slope, _prec_cap(args)) if slope is not None else None
    items = {}
    for text in args.itinerary:
        it = parse_itinerary(text)
        rep = classification_report(it, nu, slope, kd, depth=args.depth,
                                    eps=_eps(args), orbit=orbit,
                                    prec_cap=_prec_cap(args))
        items[text] = rep.to_json()
    _emit(args, _report(args, "classify", {"items": items}))


def cmd_persistence(args):
    slope, nu, qs = _resolve_inputs(args)
    kd = cutting_data(nu)
    qa = q_asymptotics(qs)
    results = {"q_asymptotics": qa.to_json()}
    if slope is not None:
        eps_grid = [Fraction(1, 1 << k) for k in range(args.eps_pow_min,
                                                       args.eps_pow_max + 1)]
        verdict = reluctance_search(slope, eps_grid,
                                    length_target=args.length_target,
                                    horizon=args.horizon, kd=kd,
                                    prec_cap=_prec_cap(args))
        results["search"] = verdict.to_json()
        kind = verdict.witness.get("kind")
    else:
        kind = None
        results["search"] = None
    if kind == "persistent":
        expectation = V.evidence("folding-equals-endpoints-dichotomy",
                                 depth=args.horizon, via="pullback-search")
    elif kind == "reluctant":
        expectation = V.refuted("folding-equals-endpoints-dichotomy",
                                depth=args.horizon, via="monotone-pullback")
    elif qa.to_infinity.is_positive:
        expectation = V.evidence("folding-equals-endpoints-dichotomy",
                                 depth=args.horizon, via="q-divergence")
    else:
        expectation = V.undetermined("folding-equals-endpoints-dichotomy",
                                     "no persistence signal",
                                     depth=args.horizon)
    results["folding_equals_endpoints"] = expectation.to_json()
    _emit(args, _report(args, "persistence", results))


def cmd_subcontinua(args):
    slope, nu, qs = _resolve_inputs(args)
    strict = find_qcond_chains(qs, min(len(qs), args.horizon), variant="strict")
    relaxed = find_qcond_chains(qs, min(len(qs), args.horizon), variant="relaxed")
    kd = cutting_data(nu)
    orbit = OrbitTable(slope, _prec_cap(args)) if slope is not None else None
    chains_out = []
    for ch in strict["chains"][: args.max_chains]:
        cc = classify_chain(ch, qs, kd=kd, orbit=orbit)
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
    nu, certificate, plans = generate(args.length, compat=args.compat)
    results = {
        "certificate": certificate,
        "nu": nu.bits if len(nu) <= 4096 else nu.bits[:4096],
        "plans": [p.to_json() for p in plans] if args.plans else len(plans),
    }
    _emit(args, _report(args, "genseq", results))


def cmd_density(args):
    slope, nu, qs = _resolve_inputs(args, need=("slope",))
    kd = cutting_data(nu)
    K = min(args.K, kd.max_k)
    report = cutting_value_gaps(slope, K, _eps(args), kd,
                                prec_cap=_prec_cap(args))
    if args.out_csv:
        rows = []
        for row in report["rows"]:
            flag = 1 if (row["from_n"], row["to_n"]) == tuple(
                report["max_gap_pair"] or ()) else 0
            rows.append((row["from_n"], row["to_n"], row["gap_hi"], flag))
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
    slope, nu, qs = _resolve_inputs(args, need=("slope",))
    kd = cutting_data(nu)
    zp = PrecriticalTable(slope, kd, prec_cap=_prec_cap(args))
    rows = f_graph_data(slope, zp, grid=args.grid, max_cell=args.max_cell)
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

def build_parser():
    top = argparse.ArgumentParser(
        prog="uilkit",
        description="symbolic dynamics toolkit for tent-map inverse limits")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, horizon=10_000, depth=256):
        p.add_argument("--slope", help="rational, decimal, interval:lo,hi, "
                       "or preset (fib, ex35, nonrec41, appendix, golden, "
                       "tribonacci), optionally name:depth")
        p.add_argument("--nu", help="kneading word, dots for cutting times ok")
        p.add_argument("--q", help="kneading map: comma list or preset "
                       "(fib, ex35, cascade)")
        p.add_argument("--horizon", type=int, default=horizon)
        p.add_argument("--depth", type=int, default=depth)
        p.add_argument("--eps", default="0.00000095367431640625",
                       help="tolerance (default 2^-20)")
        p.add_argument("--prec-cap", type=int, default=4096,
                       help="precision cap in bits, not below the slope's "
                       f"starting precision (128 or more); {PREC_CAP_ENV}, "
                       "when set, overrides it")
        p.add_argument("--out", help="write the JSON report here")

    p = sub.add_parser("knead", help="kneading data and admissibility")
    common(p, horizon=1000)
    p.set_defaults(func=cmd_knead)

    p = sub.add_parser("tower", help="Hofbauer tower levels")
    common(p, horizon=256, depth=64)
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser("classify", help="classify itineraries")
    common(p, horizon=256, depth=64)
    p.add_argument("--itinerary", action="append", default=[],
                   help="e.g. '(1)^inf 111.111' or '...100110.01'; repeatable")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("persistence", help="recurrence-type search")
    common(p, horizon=120, depth=64)
    p.add_argument("--length-target", type=int, default=64)
    p.add_argument("--eps-pow-min", type=int, default=6)
    p.add_argument("--eps-pow-max", type=int, default=12)
    p.set_defaults(func=cmd_persistence)

    p = sub.add_parser("subcontinua", help="chain search and classification")
    common(p, horizon=60, depth=64)
    p.add_argument("--max-chains", type=int, default=8)
    p.add_argument("--cascade-min", type=int, default=3)
    p.set_defaults(func=cmd_subcontinua)

    p = sub.add_parser("genseq", help="appendix-style word generator")
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--compat", action="store_true",
                   help="assert the first extension matches the reference")
    p.add_argument("--plans", action="store_true", help="include step plans")
    p.add_argument("--out")
    p.set_defaults(func=cmd_genseq)

    p = sub.add_parser("density", help="cutting-value gap scan")
    common(p, horizon=512, depth=64)
    p.add_argument("--K", type=int, default=8)
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("fmap", help="accelerated-map graph data")
    common(p, horizon=128, depth=64)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--max-cell", type=int, default=8)
    p.add_argument("--out-csv")
    p.set_defaults(func=cmd_fmap)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _prec_cap(args)     # every command rejects a malformed env cap
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
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
