"""uilkit benchmark: one closed-loop client running one workload's jobs.

Usage (from the repository root):

    python3 bench/run.py --workload exact --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --record-reference        # rewrite reference.json

One process runs one workload: it imports uilkit, builds the workload's
shared inputs (at least three times; the median counts), then runs whole
passes over the seeded job list (at least 100 jobs), one job at a time,
until ``--seconds`` of job time have passed and at least four passes ran.
Each pass's timings are scaled to the reference speed of ``calibrate``,
timed every CALIBRATE_EVERY jobs (see there).  A job's latency is then the
median of its passes, and ``jobs_per_s`` is the pass size over the sum of
these latencies.  Every job's output is checked after the job, outside its
latency.  With ``--trace 1`` it runs one pass untraced, the same pass
traced and once more untraced, and reports per-layer metrics instead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(HERE, "reference.json")
MIN_JOBS = 100
MIN_PASSES = 4
CALIBRATE_EVERY = 5
# Time of one calibrate() call at the reference speed; on the 2-vCPU Xeon VM
# the benchmark was written on, its median over a pass ranged from 5.6 ms to
# 10 ms with the load of the host.
CALIBRATION_REF_S = 0.010
# Set-up runs at least SETUP_REPEATS times, and cheap set-ups repeat until
# SETUP_SECONDS have passed, so the median is taken over enough samples.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
MAX_SETUP_REPEATS = 25

END_TO_END = (("setup_s", "s"), ("job_p50_ms", "ms"), ("job_p90_ms", "ms"),
              ("jobs_per_s", "1/s"), ("success_rate", "ratio"),
              ("peak_rss_mib", "MiB"), ("report_bytes", "B"))

# Per-layer metrics printed by a traced run, with units.
PER_LAYER = [
    ("scalars.critical_orbit.calls", "count"),
    ("scalars.critical_orbit.self_s", "s"),
    ("scalars.critical_orbit.max_bits", "bits"),
    ("scalars.tent_apply.calls", "count"),
    ("scalars.tent_apply.self_s", "s"),
    ("scalars.branch_preimage.calls", "count"),
    ("scalars.branch_preimage.self_s", "s"),
    ("scalars.slope_for_prefix.calls", "count"),
    ("scalars.slope_for_prefix.self_s", "s"),
    ("scalars.slope_for_prefix.max_bits", "bits"),
    ("presets.parse_slope.calls", "count"),
    ("presets.parse_slope.self_s", "s"),
    ("scalars.certified_cmp.calls", "count"),
    ("scalars.certified_cmp.self_s", "s"),
    ("scalars.certified_cmp.unresolved", "count"),
    ("scalars.Scalar.at.calls", "count"),
    ("scalars.Scalar.at.total_s", "s"),
    ("scalars.errors", "count"),
    ("kneading.nu_from_orbit.calls", "count"),
    ("kneading.nu_from_orbit.self_s", "s"),
    ("kneading.cutting_data.calls", "count"),
    ("kneading.cutting_data.self_s", "s"),
    ("kneading.cutting_data.symbols", "count"),
    ("kneading.nu_from_q.calls", "count"),
    ("kneading.nu_from_q.self_s", "s"),
    ("kneading.nu_from_q.symbols", "count"),
    ("kneading.admissible_q.self_s", "s"),
    ("kneading.admissible_disjoint.self_s", "s"),
    ("kneading.renorm_scan.self_s", "s"),
    ("kneading.q_asymptotics.self_s", "s"),
    ("hofbauer.OrbitTable.extend.calls", "count"),
    ("hofbauer.OrbitTable.extend.rebuilds", "count"),
    ("hofbauer.tower_levels.calls", "count"),
    ("hofbauer.tower_levels.self_s", "s"),
    ("hofbauer.tower_levels.levels", "count"),
    ("hofbauer.PrecriticalTable.natural.calls", "count"),
    ("hofbauer.PrecriticalTable.natural.self_s", "s"),
    ("hofbauer.f_apply.calls", "count"),
    ("hofbauer.f_apply.self_s", "s"),
    ("hofbauer.upsilon_index.self_s", "s"),
    ("hofbauer.verify_zzz.calls", "count"),
    ("hofbauer.verify_zzz.certified", "count"),
    ("hofbauer.long_branched_evidence.self_s", "s"),
    ("hofbauer.cutting_value_gaps.self_s", "s"),
    ("hofbauer.f_graph_data.self_s", "s"),
    ("inverse_limit.tau_data.calls", "count"),
    ("inverse_limit.tau_data.self_s", "s"),
    ("inverse_limit.tau_data.depths", "count"),
    ("inverse_limit.basic_arc_interval.self_s", "s"),
    ("inverse_limit.endpoint_verdict.self_s", "s"),
    ("inverse_limit.endpoint_itinerary_gen.self_s", "s"),
    ("inverse_limit.folding_verdict.calls", "count"),
    ("inverse_limit.folding_verdict.self_s", "s"),
    ("inverse_limit.pull_back.calls", "count"),
    ("inverse_limit.pull_back.self_s", "s"),
    ("inverse_limit.pull_back.steps", "count"),
    ("inverse_limit.reluctance_search.self_s", "s"),
    ("inverse_limit.classification_report.self_s", "s"),
    ("subcontinua.find_qcond_chains.self_s", "s"),
    ("subcontinua.classify_chain.self_s", "s"),
    ("subcontinua.nasty_cascade_rule.self_s", "s"),
    ("seqgen.generate.self_s", "s"),
    ("seqgen.extend_step.calls", "count"),
    ("seqgen.extend_step.self_s", "s"),
    ("seqgen.word_admissible.calls", "count"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("cli.report_write.self_s", "s"),
    ("bench.check.self_s", "s"),
] + [(f"layer.{m}.self_s", "s") for m in (
    "scalars", "presets", "kneading", "hofbauer", "inverse_limit",
    "subcontinua", "seqgen", "cli", "bench")] + [
    ("trace.overhead_ratio", "ratio")]

# Layers whose largest operand bit-length is printed next to their time.
KERNEL_BITS = (("scalars.critical_orbit", "scalars.critical_orbit.max_bits"),
               ("scalars.slope_for_prefix", "scalars.slope_for_prefix.max_bits"))


def calibrate():
    """Time a fixed pure-Python kernel: big-rational orbit steps, dict
    updates and substring matching, the kinds of work the jobs do.

    The host of a small VM runs the same code up to a third faster or slower
    for seconds to minutes at a time, as the load of its neighbours changes,
    with process time tracking wall time.  Each pass's job timings are
    scaled by CALIBRATION_REF_S over the pass's median time of this kernel,
    so a run in a fast or slow spell reports the timings of the reference
    speed, and a spell that starts or ends within the run is followed too.
    The kernel uses the standard library only; a change to uilkit does not
    move it.
    """
    t0 = perf_counter()
    x, s = Fraction(1, 3), Fraction(17, 10)
    for _ in range(120):
        x = s * min(x, 1 - x)
    x, s = Fraction(1, 2), Fraction(12345679, 7654321)
    for _ in range(130):
        x = s * min(x, 1 - x)
    counts = {}
    for i in range(8000):
        counts[i % 700] = counts.get(i % 700, 0) + i
    "".join(str(i) for i in range(3000))
    word = "0110100110010110" * 64
    for i in list(range(1, 400)) * 5:
        j = word.find(word[i:i + 12], i + 1)
        counts[j] = word[i:i + 12] < word[j:j + 12]
    return perf_counter() - t0


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


IMPORT = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
          "t = time.perf_counter(); import uilkit, uilkit.cli, uilkit.presets; "
          "print(time.perf_counter() - t)")


def import_uilkit():
    """Import uilkit from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "uilkit", "__init__.py")):
        fail(f"no uilkit sources under {SRC}")
    sys.path.insert(0, SRC)
    uilkit = importlib.import_module("uilkit")
    for sub in ("cli", "presets"):
        importlib.import_module(f"uilkit.{sub}")
    if not os.path.abspath(uilkit.__file__).startswith(SRC + os.sep):
        fail(f"uilkit imported from {uilkit.__file__}, not from {SRC}")


def import_seconds():
    """Median time of a fresh interpreter's import of uilkit."""
    times = []
    while len(times) < SETUP_REPEATS or (
            sum(times) < SETUP_SECONDS / 4 and len(times) < MAX_SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT, SRC],
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def header(workload, seed, seconds, trace):
    rev = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                ref = fh.read().strip()
        rev = ref[:12]
    except OSError:
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    print(f"# uilkit bench  workload={workload} seed={seed} seconds={seconds} "
          f"trace={trace}")
    print(f"# rev={rev} python={platform.python_version()} "
          f"nproc={os.cpu_count()} cpu={cpu!r}")


def load_reference(workload):
    try:
        with open(REFERENCE) as fh:
            return json.load(fh)[workload]
    except (OSError, ValueError, KeyError) as exc:
        fail(f"cannot read the reference digests: {exc}")


class Loop:
    """Runs passes over a job list and keeps latencies and failure counts."""

    def __init__(self, W, jobs, ctx, ref, tracer=None):
        self.W, self.jobs, self.ctx, self.ref = W, jobs, ctx, ref
        self.tracer = tracer
        self.latencies = [[] for _ in jobs]     # per slot, one per pass
        self.pass_times = []
        self.calibration = []                   # per pass, kernel times
        self.attempted = self.failed = 0
        self.job_time = 0.0
        self.report_hashes = {}
        self.report_bytes = 0
        self.problems = []
        self.outcomes = {}

    def _check(self, slot, job, res):
        report = None
        if "path" in res and os.path.exists(res["path"]):
            with open(res["path"], "rb") as fh:
                report = fh.read()
        ref = None if self.ref is None else self.ref.get(self.W.job_key(job))
        if self.ref is not None and ref is None:
            return ["no reference entry"], None
        out = self.W.check_job(job, res, ref, report)
        self.outcomes.setdefault(self.W.job_key(job),
                                 {"d": out.digest(), "s": out.statuses})
        problems = list(out.problems)
        if report is not None:
            digest = hashlib.sha256(report).hexdigest()
            if slot not in self.report_hashes:
                self.report_hashes[slot] = digest
                self.report_bytes += len(report)
            elif self.report_hashes[slot] != digest:
                problems.append("report bytes differ from the first pass")
        return problems, out

    def run_pass(self):
        W, ctx, tr = self.W, self.ctx, self.tracer
        ctx.new_pass()
        self.calibration.append([])
        pass_time = 0.0
        for slot, job in enumerate(self.jobs):
            if slot % CALIBRATE_EVERY == 0 and tr is None:
                self.calibration[-1].append(calibrate())
            if tr is not None:
                tr.job = slot
            t0 = perf_counter()
            try:
                if tr is None:
                    res = W.run_job(job, ctx, slot)
                else:
                    res = tr.call("bench.job", W.run_job, (job, ctx, slot))
                error = None
            except Exception:
                res, error = None, traceback.format_exc(limit=4)
            dt = perf_counter() - t0
            pass_time += dt
            self.latencies[slot].append(dt)
            self.attempted += 1
            problems = [error]
            if error is None:
                try:
                    if tr is None:
                        problems, _ = self._check(slot, job, res)
                    else:
                        tr.paused = True
                        problems, _ = tr.call("bench.check", self._check,
                                              (slot, job, res))
                except Exception:
                    problems = [traceback.format_exc(limit=4)]
                finally:
                    if tr is not None:
                        tr.paused = False
            if problems:
                self.failed += 1
                self.problems.append((W.job_key(job), problems))
        self.job_time += pass_time
        self.pass_times.append(pass_time)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(args):
    import_uilkit()
    os.environ.pop("UILKIT_PREC_CAP", None)
    import workloads as W
    header(args.workload, args.seed, args.seconds, args.trace)
    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    os.makedirs(out_dir, exist_ok=True)
    ref = load_reference(args.workload)
    jobs = W.make_jobs(args.workload, args.seed)
    print(f"# jobs per pass: {len(jobs)}")
    if len(jobs) < MIN_JOBS:
        fail(f"a pass has {len(jobs)} jobs, fewer than {MIN_JOBS}")

    if args.trace:
        return run_traced(args, W, jobs, ref, out_dir)

    import_s = import_seconds()
    setups = []
    while len(setups) < SETUP_REPEATS or (
            sum(setups) < SETUP_SECONDS and len(setups) < MAX_SETUP_REPEATS):
        t0 = perf_counter()
        ctx = W.setup(args.workload, jobs, out_dir)
        setups.append(perf_counter() - t0)
    loop = Loop(W, jobs, ctx, ref)
    passes = 0
    while passes < MIN_PASSES or loop.job_time < args.seconds:
        loop.run_pass()
        passes += 1
    # a job's latency is its median over the passes, so a pass that ran in
    # a slower or faster spell of the host does not move the figures; a
    # spell that covers whole passes is taken out by the calibration
    speed = [statistics.median(c) / CALIBRATION_REF_S
             for c in loop.calibration]
    wall_ms = [statistics.median(v) * 1000 for v in loop.latencies]
    lat_ms = [statistics.median(t / speed[i] for i, t in enumerate(v)) * 1000
              for v in loop.latencies]
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "job_p50_ms": statistics.median(lat_ms),
        "job_p90_ms": percentile(lat_ms, 90),
        "jobs_per_s": 1000 * len(jobs) / sum(lat_ms),
        "success_rate": 1 - loop.failed / loop.attempted,
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report_bytes": loop.report_bytes,
    }
    units = dict(END_TO_END)
    beyond = sum(1 for t in lat_ms if t > metrics["job_p90_ms"])
    print(f"# passes={passes} jobs={loop.attempted} failed={loop.failed} "
          f"fail_rate={loop.failed / loop.attempted:.4f} "
          f"job_time_s={loop.job_time:.3f}")
    print("# pass times s: " + " ".join(f"{t:.3f}" for t in loop.pass_times))
    print(f"# wall clock: job_p50_ms {statistics.median(wall_ms):.4f} "
          f"job_p90_ms {percentile(wall_ms, 90):.4f} "
          f"jobs_per_s {1000 * len(jobs) / sum(wall_ms):.4f}")
    print("# calibration ms, median per pass: " + " ".join(
        f"{x * CALIBRATION_REF_S * 1000:.4f}" for x in speed) +
        f"; the metrics are at the {CALIBRATION_REF_S * 1000:g} ms reference")
    print(f"# set-up: import {import_s:.4f}s (median of a fresh interpreter's), "
          f"build median {statistics.median(setups):.4f}s of {len(setups)} "
          f"(min {min(setups):.4f}, max {max(setups):.4f})")
    for name, value in metrics.items():
        note = ""
        if name.startswith("job_p"):
            note = (f"  (n={len(lat_ms)} jobs, each the median of {passes} "
                    f"passes; {beyond} beyond p90)")
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.4f}"
        print(f"{name:16s} {text} {units[name]}{note}")
    report_problems(loop)
    emit(loop, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()})


def run_traced(args, W, jobs, ref, out_dir):
    from tracer import Tracer
    tr = Tracer()
    tr.job = "setup"
    tr.install()
    try:
        ctx = tr.call("bench.setup", W.setup, (args.workload, jobs, out_dir))
    finally:
        tr.uninstall()
    # untraced passes before and after the traced one give the baseline
    plain = Loop(W, jobs, ctx, ref)
    plain.run_pass()
    traced = Loop(W, jobs, ctx, ref, tracer=tr)
    tr.install()
    try:
        traced.run_pass()
    finally:
        tr.uninstall()
    plain.run_pass()
    stats = tr.metrics()
    stats["trace.overhead_ratio"] = 2 * traced.job_time / plain.job_time
    path = os.path.join(ROOT, ".bench_out",
                        f"trace-{args.workload}-{args.seed}.jsonl")
    tr.dump(path)
    print(f"# spans written to {os.path.relpath(path, ROOT)} "
          f"({len(tr.spans)} spans)")
    print(f"# untraced passes {plain.job_time:.3f}s for two, traced pass "
          f"{traced.job_time:.3f}s")
    total = sum(stats.get(f"layer.{m}.self_s", 0.0) for m in (
        "scalars", "presets", "kneading", "hofbauer", "inverse_limit",
        "subcontinua", "seqgen", "cli", "bench"))
    bits = dict(KERNEL_BITS)
    for name, unit in PER_LAYER:
        value = stats.get(name, 0)
        note = ""
        if name.startswith("layer.") and total:
            note = f"  ({100 * value / total:.1f}% of traced job time)"
        base = name.rsplit(".", 1)[0]
        if name.endswith(".self_s") and base in bits:
            note = f"  (max_bits {stats.get(bits[base], 0)})"
        text = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{name:46s} {text} {unit}{note}")
    calls = stats.get("scalars.certified_cmp.calls", 0)
    if calls:
        resolved = 1 - stats.get("scalars.certified_cmp.unresolved", 0) / calls
        print(f"# certified_cmp resolved share {resolved:.4f} of {calls} calls")
    print(f"# layer shares are of the traced job time; per-function figures "
          f"also cover set-up")
    loop = plain
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    loop.problems += traced.problems
    report_problems(loop)
    emit(loop, {name: {"value": stats.get(name, 0), "unit": unit}
                for name, unit in PER_LAYER})


def report_problems(loop):
    for key, problems in loop.problems[:10]:
        print(f"# FAILED {key}: {'; '.join(p.strip()[-300:] for p in problems)}",
              file=sys.stderr)


def emit(loop, metrics):
    print(json.dumps({"correct": loop.failed == 0,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))


def record_reference(args):
    """Run every pool job once and store what a correct change must keep."""
    import_uilkit()
    os.environ.pop("UILKIT_PREC_CAP", None)
    import workloads as W
    out = {}
    bad = 0
    for workload in W.WORKLOADS:
        out_dir = os.path.join(ROOT, ".bench_out", workload)
        os.makedirs(out_dir, exist_ok=True)
        jobs = W.all_pool_jobs(workload)
        t0 = time.time()
        ctx = W.setup(workload, jobs, out_dir)
        loop = Loop(W, jobs, ctx, None)
        loop.run_pass()
        for key, problems in loop.problems:
            print(f"{workload} {key}: {problems}", file=sys.stderr)
        bad += loop.failed
        out[workload] = dict(sorted(loop.outcomes.items()))
        print(f"{workload}: {len(jobs)} jobs, {loop.failed} failed, "
              f"{time.time() - t0:.1f}s")
        slow = sorted(zip(loop.latencies, jobs), key=lambda p: -p[0][0])[:5]
        for t, job in slow:
            print(f"   {t[0]:7.3f}s {W.job_key(job)}")
    if bad:
        fail(f"{bad} pool jobs failed their checks; reference not written")
    with open(REFERENCE, "w") as fh:
        json.dump(out, fh, indent=0, sort_keys=True)
        fh.write("\n")


def run_all(args):
    """Each workload in its own process, so memory is measured per workload."""
    for workload in ("exact", "enclosure", "symbolic"):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], check=False)
        if proc.returncode != 0:
            sys.exit(proc.returncode)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("exact", "enclosure", "symbolic",
                                          "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true")
    args = p.parse_args()
    if args.record_reference:
        return record_reference(args)
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    main()
