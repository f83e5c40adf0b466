"""Self-tests of the benchmark: ``python3 -m pytest -q bench/test_bench.py``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import uilkit  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from uilkit import kneading  # noqa: E402


def test_job_list_depends_on_seed_only():
    for workload in W.WORKLOADS:
        assert W.make_jobs(workload, 7) == W.make_jobs(workload, 7)
        assert W.make_jobs(workload, 7) != W.make_jobs(workload, 8)


def test_seed_picks_variants_of_the_same_cells():
    for workload in W.WORKLOADS:
        a, b = W.make_jobs(workload, 7), W.make_jobs(workload, 8)
        assert len(a) >= run.MIN_JOBS
        assert [j.kind for j in a] == [j.kind for j in b]
        slots = {j: i for i, j in enumerate(a)}
        cells = [c for group in W.cells(workload).values() for c in group]
        assert all(any(j in c and b[slots[j]] in c for c in cells)
                   for j in a)


def test_every_pool_job_has_a_reference_entry():
    for workload in W.WORKLOADS:
        ref = run.load_reference(workload)
        assert all(W.job_key(j) in ref for j in W.all_pool_jobs(workload))


def _bindings():
    """Identity of every attribute of every uilkit module and class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "uilkit" or name.startswith("uilkit.")):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = id(member)
    return out


def test_traced_run_restores_every_binding():
    before = _bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        assert _bindings() != before
        nu = uilkit.nu_from_q(kneading.fibonacci_q, 100)
        kneading.cutting_data(nu)
    finally:
        tr.uninstall()
    assert _bindings() == before
    names = {row[0] for row in tr.spans}
    assert {"kneading.nu_from_q", "kneading.admissible_q",
            "kneading.cutting_data"} <= names
    # the call into cutting_data went through the kneading module binding,
    # while nu_from_q was reached through the package re-export
    assert tr.metrics()["kneading.cutting_data.symbols"] == 100


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # 0.5 s of folded leaf time sits directly under b
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["c", 2.0, 3.0, 1, 0], ["b", 5.0, 9.0, 0, 0]]
    assert tracer.self_times(spans, {3: 0.5}) == [3.0, 2.0, 1.0, 3.5]


def test_tampered_result_counts_as_failure(tmp_path):
    job = W.Job("qmap", ("fib", 2000))
    ref = run.load_reference("symbolic")
    ctx = W.setup("symbolic", [], str(tmp_path))
    honest = run.Loop(W, [job], ctx, ref)
    honest.run_pass()
    assert (honest.attempted, honest.failed) == (1, 0)

    class Tampered:
        def __getattr__(self, name):
            return getattr(W, name)

        @staticmethod
        def run_job(job, ctx, slot):
            res = W.run_job(job, ctx, slot)
            bits = res["nu"].bits
            res["nu"] = kneading.KneadingPrefix(bits[:-1] + "01"[bits[-1] == "0"])
            return res

    tampered = run.Loop(Tampered(), [job, job], ctx, ref)
    tampered.run_pass()
    assert (tampered.attempted, tampered.failed) == (2, 2)
    assert any("digest" in p for _, ps in tampered.problems for p in ps)
