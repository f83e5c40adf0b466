import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uilkit import cli, hofbauer
from uilkit import verdicts as V
from uilkit.cli import main
from uilkit.errors import InternalInconsistency
from uilkit.kneading import (CuttingData, cascade_q, cutting_data, emit_dotted,
                             fibonacci_q, nu_from_orbit, nu_from_q)
from uilkit.presets import parse_slope
from uilkit.scalars import s_one_minus, slope_exact


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_knead_seed(capsys):
    code, out = run_cli(capsys, "knead", "--nu", "1.0.0.0.101")
    assert code == 0
    report = json.loads(out)
    res = report["results"]
    assert res["cutting_times"] == [1, 2, 3, 4, 7]
    assert res["kneading_map"] == [0, 0, 0, 2]
    assert res["cocutting_times"] == [5, 6]
    assert res["admissible_disjoint"]["status"] == "evidence"
    assert res["admissible_q"]["status"] == "evidence"


def test_exactly_one_input(capsys):
    code, _ = run_cli(capsys, "knead", "--nu", "10", "--q", "fib")
    assert code == 2
    code, _ = run_cli(capsys, "knead")
    assert code == 2
    # an input the command cannot use, and a batch with no item
    assert main(["density", "--nu", "1.0.0.0.101"]) == 2
    assert "--nu input not supported" in capsys.readouterr().err
    assert main(["classify", "--slope", "9/5"]) == 2
    assert "at least one --itinerary" in capsys.readouterr().err


def test_bad_slope_is_config_error(capsys):
    code, _ = run_cli(capsys, "knead", "--slope", "nonsense")
    assert code == 2


def test_persistence_symbolic_fib(capsys):
    code, out = run_cli(capsys, "persistence", "--q", "fib", "--horizon", "100")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["q_asymptotics"]["to_infinity"]["status"] == "evidence"
    assert res["folding_equals_endpoints"]["status"] == "evidence"


def test_genseq_certificate(capsys):
    code, out = run_cli(capsys, "genseq", "--length", "25", "--compat")
    assert code == 0
    cert = json.loads(out)["results"]["certificate"]
    assert cert["first_extension_matches_reference"]
    assert cert["q_ne_1_and_le_k_minus_2_beyond_seed"]


def test_subcontinua_ex35(capsys):
    code, out = run_cli(capsys, "subcontinua", "--q", "ex35",
                        "--horizon", "40")
    assert code == 0
    res = json.loads(out)["results"]
    assert any(set(tuple(ch)) >= {8, 11, 14} for ch in res["strict"]["chains"])
    assert res["nasty_cascade"]["status"] == "refuted"
    spiral = [c for c in res["classified"]
              if c["class"]["kind"] == "direct-spiral"]
    assert spiral


def test_fmap_csv(tmp_path, capsys):
    out_csv = str(tmp_path / "f.csv")
    code, out = run_cli(capsys, "fmap", "--slope", "nonrec41:80",
                        "--horizon", "64", "--grid", "24", "--max-cell", "2",
                        "--out-csv", out_csv)
    assert code == 0
    lines = open(out_csv).read().splitlines()
    assert lines[0] == "x_lo,x_hi,F_lo,F_hi,cell_k"
    assert len(lines) > 10


def test_tower_csv_monotone_n(tmp_path, capsys):
    out_csv = str(tmp_path / "t.csv")
    code, _ = run_cli(capsys, "tower", "--slope", "1.9", "--horizon", "64",
                      "--depth", "32", "--out-csv", out_csv)
    assert code == 0
    rows = open(out_csv).read().splitlines()[1:]
    ns = [int(r.split(",")[0]) for r in rows]
    assert ns == sorted(ns)


def test_tower_builds_csv_rows_only_for_a_csv(tmp_path, capsys, monkeypatch):
    calls = []
    approx = V.approx
    monkeypatch.setattr(cli.V, "approx",
                        lambda *a: calls.append(a) or approx(*a))
    argv = ("tower", "--slope", "9/5", "--horizon", "40", "--depth", "40")
    assert run_cli(capsys, *argv)[0] == 0
    report_calls = len(calls)
    out_csv = str(tmp_path / "t.csv")
    assert run_cli(capsys, *argv, "--out-csv", out_csv)[0] == 0
    # two lengths per level, and nothing else, are rendered for the CSV
    assert len(calls) == 2 * report_calls + 2 * 40
    assert len(open(out_csv).read().splitlines()) == 41


def _approx_oracle(value, digits=17):
    """verdicts.approx of the Fraction code: one step per decade."""
    value = Fraction(value)
    if value == 0:
        return "0"
    sign = "-" if value < 0 else ""
    value = abs(value)
    exp = 0
    while value >= 10:
        value /= 10
        exp += 1
    while value < 1:
        value *= 10
        exp -= 1
    scaled = int(value * 10 ** digits)
    mantissa = f"{scaled:0{digits + 1}d}"
    return f"{sign}{mantissa[0]}.{mantissa[1:]}e{exp:+d}"


def test_approx_matches_oracle_at_powers_of_ten():
    one = Fraction(1, 10 ** 700)
    for e in (-620, -301, -40, -18, -17, -2, -1, 0, 1, 2, 16, 17, 18, 40, 619):
        p = Fraction(10) ** e
        for v in (p, p - one, p + one, -p, p * Fraction(999, 1000),
                  p * 2 ** 60 / (2 ** 60 + 1)):
            for digits in (0, 3, 17):
                assert V.approx(v, digits) == _approx_oracle(v, digits), v
    assert V.approx(0) == "0" and V.approx(Fraction(0, 7), 3) == "0"


@settings(max_examples=300)
@given(n=st.integers(-(1 << 2100), 1 << 2100),
       d=st.one_of(st.integers(1, 1 << 2100),
                   st.integers(0, 2100).map(lambda e: 1 << e),
                   st.integers(0, 640).map(lambda e: 10 ** e)),
       digits=st.sampled_from([0, 1, 5, 17, 40]))
def test_approx_matches_oracle(n, d, digits):
    v = Fraction(n, d)
    assert V.approx(v, digits) == _approx_oracle(v, digits)


def test_density_csv_flags_max_gap(tmp_path, capsys):
    out_csv = str(tmp_path / "d.csv")
    code, out = run_cli(capsys, "density", "--slope", "1.9", "--K", "6",
                        "--horizon", "64", "--out-csv", out_csv)
    assert code == 0
    rows = [r.split(",") for r in open(out_csv).read().splitlines()[1:]]
    assert sum(int(r[3]) for r in rows) == 1


def test_classify_reports(capsys):
    code, out = run_cli(capsys, "classify", "--slope", "nonrec41:120",
                        "--horizon", "100", "--depth", "32",
                        "--itinerary", "(1)^inf .1111",
                        "--itinerary", "(0)^inf .0000")
    assert code == 0
    items = json.loads(out)["results"]["items"]
    ones = items["(1)^inf .1111"]
    assert ones["endpoint"]["status"] == "refuted"


def test_determinism_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "knead", "--q", "ex35", "--horizon", "60")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_report_written_atomically(tmp_path, capsys):
    out_path = str(tmp_path / "r.json")
    code, _ = run_cli(capsys, "knead", "--nu", "10", "--out", out_path)
    assert code == 0
    assert json.load(open(out_path))["schema"] == "uilkit-report-v1"
    assert not os.path.exists(out_path + ".tmp")


def test_bad_eps_is_config_error(capsys):
    code, _ = run_cli(capsys, "density", "--slope", "9/5", "--eps", "abc")
    assert code == 2
    code, _ = run_cli(capsys, "classify", "--slope", "9/5", "--eps", "1/0",
                      "--itinerary", "(1)^inf .1111")
    assert code == 2


def test_negative_q_is_not_admissible(capsys):
    for q in ("-1", "0,-2"):
        assert main(["knead", "--q", q, "--horizon", "10"]) == 2, q
        assert "< 0" in capsys.readouterr().err


def test_bad_slope_numbers_are_config_errors(capsys):
    for slope in ("interval:abc,1.8", "interval:1.8,1.7", "fib:abc",
                  "sqrt3:x"):
        code, _ = run_cli(capsys, "knead", "--slope", slope, "--horizon", "20")
        assert code == 2, slope


def test_prec_cap_below_start_precision_is_config_error(capsys):
    argv = ("knead", "--slope", "sqrt3", "--horizon", "100")
    assert run_cli(capsys, *argv, "--prec-cap", "1")[0] == 2
    assert run_cli(capsys, *argv, "--prec-cap", "-5")[0] == 2
    assert run_cli(capsys, *argv, "--prec-cap", "192")[0] == 0


def test_precision_cap_comes_from_the_flag_alone(capsys, monkeypatch):
    # the variable once overrode --prec-cap while config still named the flag
    argv = ("tower", "--slope", "sqrt3", "--horizon", "250", "--depth", "250")
    code, plain = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.setenv("UILKIT_PREC_CAP", "300")
    assert run_cli(capsys, *argv) == (0, plain)
    # c_146 of this slope needs 256 bits
    half = Fraction(1, 1 << 300)
    lo, hi = Fraction(9, 5) - half, Fraction(9, 5) + half
    argv = ("knead", "--slope", f"interval:{lo},{hi}", "--horizon", "200")
    monkeypatch.setenv("UILKIT_PREC_CAP", "128")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--prec-cap", "128")[0] == 3


def test_index_form_against_induction_failure_exits_4(capsys, monkeypatch):
    # one level whose index form is off by one: the cross-check must fire
    beta_of = CuttingData.beta_of
    monkeypatch.setattr(CuttingData, "beta_of",
                        lambda kd, n: beta_of(kd, n) + (n == 5))
    kd = cutting_data(nu_from_orbit(slope_exact(Fraction(9, 5)), 40))
    with pytest.raises(InternalInconsistency, match="^tower level 5: "):
        hofbauer.tower_levels(kd, slope_exact(Fraction(9, 5)), 40)
    code = main(["tower", "--slope", "9/5", "--horizon", "40", "--depth", "40"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: tower level 5")


def test_interval_induction_failure_exits_4(capsys, monkeypatch):
    # An interval slope's two forms of D_n both hold c_n, so an index form
    # off in beta(n) still overlaps the induction: only a wrong induction
    # step shows.  It is injected by mirroring the tower's tent map, 1 - T(x).
    sqrt3 = parse_slope("sqrt3")
    kd = cutting_data(nu_from_orbit(sqrt3, 40))
    beta_of = CuttingData.beta_of
    with monkeypatch.context() as m:
        m.setattr(CuttingData, "beta_of",
                  lambda kd, n: beta_of(kd, n) + (n == 5))
        assert len(hofbauer.tower_levels(kd, sqrt3, 40)) == 40
    tent_apply = hofbauer.tent_apply
    monkeypatch.setattr(hofbauer, "tent_apply",
                        lambda slope, x: s_one_minus(tent_apply(slope, x)))
    with pytest.raises(InternalInconsistency, match="^tower level 7: "):
        hofbauer.tower_levels(kd, sqrt3, 40)
    code = main(["tower", "--slope", "sqrt3", "--horizon", "40",
                 "--depth", "40"])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("internal consistency failure: tower level 7")


def test_wide_fractions_in_a_witness_are_approximated():
    wide = Fraction(1, 3 ** 162)                # a 257-bit denominator
    narrow = Fraction(1, 3 ** 161)              # 256 bits
    out = V.evidence("r", epsilon=wide, x=wide, y=[narrow],
                     z=-wide * 3 ** 400).to_json()
    assert out["epsilon"] == {"approx": V.approx(wide)}
    assert out["witness"] == {
        "x": {"approx": V.approx(wide)},
        "y": [{"num": 1, "den": 3 ** 161}],
        "z": {"approx": V.approx(-wide * 3 ** 400)}}


def test_out_of_memory_exits_2_without_a_traceback():
    resource = pytest.importorskip("resource")
    cap = 256 << 20

    def limit():            # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    code = "import sys; from uilkit.cli import main; sys.exit(main(sys.argv[1:]))"
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code, "genseq", "--length",
                          "8000000"], capture_output=True, text=True,
                         timeout=60, preexec_fn=limit,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 2
    assert out.stderr.startswith("out of memory: ")
    assert out.stderr.count("\n") == 1 and out.stdout == ""


TABLE_COMMANDS = [
    ("tower", "--depth", "10"),
    ("classify", "--depth", "8", "--itinerary", "(1)^inf .1111"),
    ("persistence", "--length-target", "8", "--eps-pow-max", "6"),
    ("subcontinua",),
    ("density", "--K", "3"),
    ("fmap", "--grid", "8", "--max-cell", "2"),
]


@pytest.mark.parametrize("argv", TABLE_COMMANDS, ids=lambda a: a[0])
def test_commands_build_one_table_at_the_cap(capsys, monkeypatch, argv):
    caps = []

    class RecordingTable(hofbauer.OrbitTable):
        def __init__(self, slope, prec_cap=hofbauer.DEFAULT_PREC_CAP):
            caps.append(prec_cap)
            super().__init__(slope, prec_cap)

    monkeypatch.setattr(cli, "OrbitTable", RecordingTable)
    monkeypatch.setattr(hofbauer, "OrbitTable", RecordingTable)
    argv = argv + ("--slope", "9/5", "--horizon", "40")
    assert run_cli(capsys, *argv, "--prec-cap", "512")[0] == 0
    assert caps == [512]


# sha256 of the stdout of README commands, recorded from the reports of the
# rescanning match-set implementation; rewrites of the symbolic and numeric
# layers must keep every byte.  All but the genseq and classify digests were
# re-recorded when commands stopped taking --depth and --eps they never read;
# each new report parses to the old one without those two config keys
README_REPORT_DIGESTS = [
    (("knead", "--nu", "1.0.0.0.101"),
     "ea74b69e25947ee3b517fcfbe4dcff5ec023ee31cf8f838bc273cd19794ba30e", None),
    (("persistence", "--q", "fib", "--horizon", "100"),
     "49eb0dcfe6aea8fbc8b58140b88af9df75e7d4e2847bf3d1b68fc5a0299ce74c", None),
    (("subcontinua", "--q", "ex35", "--horizon", "40"),
     "f0e48ac781932ccabf71e2e1f8207007e86c91451f223000711ef2897e81b05b", None),
    (("genseq", "--length", "200", "--compat"),
     "8082c4165b715172435a405e2253962b17ae044f33291913e77f5608604f4b64", None),
    (("classify", "--slope", "nonrec41:120", "--depth", "48",
      "--itinerary", "(1)^inf .1111", "--itinerary", "(0)^inf .0000"),
     "2869a3db8170f306f5b888c839092478deea74e8bf9aa8a9f7a488f8f99a5586", None),
    # recorded from the search that ran pull_back for every segment, the
    # oracle of the closed form that exact slopes now use
    (("persistence", "--slope", "fib:220", "--horizon", "120"),
     "6800b77a5bd8cbab41331cb37888ce7eee0f3f63a846c5dccbb0833e64d5310f", None),
    # the last four were recorded from the json.dumps encoder, the oracle of
    # the report writer; the report echoes the CSV's file name
    (("knead", "--slope", "1.9", "--horizon", "200"),
     "037c84c394849fd6efedd2dbd762a5a083e8d810174d6d8ab4dd03c4f42371ce", None),
    (("tower", "--slope", "fib:150", "--depth", "40", "--out-csv", "tower.csv"),
     "4fc5a37bafe632453a9cc11aefc1df9d8fbee8f8117aa128001f151e9e1e1f96",
     "ab52e435a2d008017edc11e036620b7e8bc717d5f0c81d0353c29a6dc9c35f56"),
    (("density", "--slope", "9/5", "--K", "8", "--out-csv", "gaps.csv"),
     "cbba9b6929e020d3f715eaf0c6466dbc5ca7c625d79b54081f6033a615714638",
     "4c6b7cc6688c4859314c805bc6b6a68003b74128fbf8fd118676f68f040d313e"),
    (("fmap", "--slope", "nonrec41:100", "--grid", "256",
      "--out-csv", "fgraph.csv"),
     "bdf86e56ca99d987e843de6b188cdbe9a1d77c30b7e15f1af262aaa187362c16",
     "4370683f794126e2a9ac071719110776b022dcca920e5fb5788ad1654988095f"),
]


def _digest_ids(cases):
    """The command name, and its input flag too for a repeated command."""
    ids = []
    for argv, *_ in cases:
        ids.append(argv[0] if argv[0] not in ids else f"{argv[0]}-{argv[1][2:]}")
    return ids


@pytest.mark.parametrize("argv,digest,csv_digest", README_REPORT_DIGESTS,
                         ids=_digest_ids(README_REPORT_DIGESTS))
def test_readme_reports_byte_identical(capsys, monkeypatch, tmp_path, argv,
                                       digest, csv_digest):
    monkeypatch.chdir(tmp_path)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if csv_digest is not None:
        csv = (tmp_path / argv[argv.index("--out-csv") + 1]).read_bytes()
        assert hashlib.sha256(csv).hexdigest() == csv_digest


# -- the report writer against json.dumps -----------------------------------------

_huge = st.integers(10 ** 4300, 10 ** 4400)
_json_strings = \
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8) | \
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600"])
_json_leaves = (st.none() | st.booleans() | st.sampled_from([0, 1, -1])
                | st.integers() | _huge | _huge.map(lambda n: -n) | _json_strings)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_json_strings, inner, max_size=4)),
    max_leaves=24)


def _both_texts(value):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return (cli._json_text(value),
                json.dumps(value, sort_keys=True, indent=2))
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=400, deadline=None)
@given(value=_json_values)
def test_report_writer_matches_json_dumps(value):
    text, oracle = _both_texts(value)
    assert text == oracle


def test_report_writer_fixed_shapes():
    for value in ({}, [], (), {"a": {}, "b": [], "c": ()}, [True, 1, False, 0],
                  {"\u00e9": None, '"': [-(10 ** 5000)], "\n": "\x00"},
                  {"b": 1, "a": [[], [{}]], "A": (True,)}):
        text, oracle = _both_texts(value)
        assert text == oracle


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 3), {1, 2}, {1: "a"}, {"a": [b"x"]}, {"a": (None, 0.0)},
], ids=["float", "fraction", "set", "int-key", "bytes", "nested-float"])
def test_report_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


def test_tower_prints_numerators_past_the_int_str_limit(capsys):
    """c_n of fib:300 at depth 60 has numerators of more than 4300 decimal
    digits, CPython's default int-to-str limit; the report still prints,
    and the limit is restored afterwards."""
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "tower", "--slope", "fib:300", "--depth", "60")
    assert code == 0
    assert out.endswith("}\n")
    assert max(map(len, re.findall(r"\d+", out))) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_unclosed_periodic_block_is_config_error(capsys):
    code = main(["classify", "--q", "fib", "--itinerary", "(01"])
    err = capsys.readouterr().err
    assert code == 2
    assert "(block)^inf" in err


@pytest.mark.parametrize("argv", [
    ("--q", "fib", "--horizon", "40", "--depth", "0"),
    ("--slope", "9/5", "--horizon", "40", "--depth", "-1"),
])
def test_tower_depth_below_one_is_config_error(capsys, argv):
    # depth 0 used to mean the whole horizon in the long-branched verdict
    code = main(["tower", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.strip() == \
        f"configuration error: --depth must be >= 1, got {argv[-1]}"


@pytest.mark.parametrize("argv", [
    ("--eps-pow-min", "9", "--eps-pow-max", "2"),
    ("--horizon", "50"),
], ids=["empty-eps-grid", "horizon-below-length-target"])
def test_persistence_claims_nothing_from_an_empty_search(capsys, argv):
    # both used to report persistence evidence via pullback-search
    code, out = run_cli(capsys, "persistence", "--slope", "9/5", *argv)
    assert code == 0
    res = json.loads(out)["results"]
    assert res["search"]["status"] == "undetermined"
    assert res["folding_equals_endpoints"]["status"] == "undetermined"


@pytest.mark.parametrize("argv", [
    ("persistence", "--eps-pow-min", "-2"),
    ("persistence", "--length-target", "0"),
    ("density", "--K", "-3"),
    ("fmap", "--grid", "-5"),
    ("fmap", "--grid", "0"),
    ("subcontinua", "--cascade-min", "0"),
    ("subcontinua", "--cascade-min", "-5"),
    ("subcontinua", "--max-chains", "-1"),
    ("fmap", "--max-cell", "-2"),
    ("classify", "--depth", "-2", "--itinerary", "(1)^inf .1111"),
], ids=lambda a: f"{a[0]}{a[1]}={a[2]}")
def test_flag_below_its_least_value_exits_2(capsys, argv):
    # a traceback with exit 1, a length-0 "reluctant" witness, a verdict at
    # depth -3, no uniform samples, nasty-endpoint evidence from an empty
    # cascade, all chains but the last classified, no per-cell samples,
    # verdicts at depth -2
    code, out = run_cli(capsys, *argv, "--slope", "9/5", "--horizon", "40")
    assert code == 2 and out == ""


@pytest.mark.parametrize("horizon", ["0", "-2"])
@pytest.mark.parametrize("command", ["knead", "tower", "classify", "persistence",
                                     "subcontinua", "density", "fmap"])
def test_horizon_below_one_exits_2(capsys, command, horizon):
    # a --nu input used to take it: knead reported the renormalization
    # windows of Q with its last two values dropped, and subcontinua every
    # window refuted after scanning none
    word = nu_from_q(cascade_q, 32).bits
    for inputs in (("--nu", word), ("--slope", "9/5"), ("--q", "cascade")):
        code, out = run_cli(capsys, command, *inputs, "--horizon", horizon)
        assert code == 2 and out == "", inputs


def test_least_K_and_grid_are_honoured(capsys):
    # --K 0 scans c_{S_0} = c_1 against the core ends; --grid 1 cuts the
    # core into one piece, so only the per-cell samples remain
    code, out = run_cli(capsys, "density", "--slope", "9/5", "--K", "0")
    assert code == 0
    assert json.loads(out)["results"]["eps_dense_at_horizon"]["depth"] == 0
    samples = []
    for grid in ("1", "2"):
        code, out = run_cli(capsys, "fmap", "--slope", "9/5", "--grid", grid)
        assert code == 0
        samples.append(json.loads(out)["results"]["samples"])
    assert 0 < samples[0] < samples[1]


def test_least_max_chains_max_cell_and_depth_are_honoured(capsys):
    code, out = run_cli(capsys, "subcontinua", "--q", "ex35", "--horizon",
                        "40", "--max-chains", "0")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["classified"] == [] and res["strict"]["chains"]
    samples = []
    for max_cell in ("0", "1"):
        code, out = run_cli(capsys, "fmap", "--slope", "9/5", "--grid", "1",
                            "--max-cell", max_cell)
        assert code == 0
        samples.append(json.loads(out)["results"]["samples"])
    assert 0 < samples[0] < samples[1]
    code, out = run_cli(capsys, "classify", "--slope", "9/5", "--horizon",
                        "40", "--depth", "0", "--itinerary", "(1)^inf .1111")
    assert code == 0
    item = json.loads(out)["results"]["items"]["(1)^inf .1111"]
    assert item["endpoint"]["depth"] == 0


UNREAD_FLAGS = [(command, flag, value)
                for command in ("knead", "persistence", "subcontinua", "fmap")
                for flag, value in (("--depth", "5"), ("--eps", "1/8"))] + [
    ("tower", "--eps", "1/8"), ("density", "--depth", "5")]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS])
def test_commands_refuse_flags_they_never_read(capsys, command, flag, value):
    # each used to be accepted, ignored and echoed in the report's config
    argv = [command, "--slope", "9/5", "--horizon", "40"]
    code, out = run_cli(capsys, *argv)
    assert code == 0 and flag[2:] not in json.loads(out)["config"]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2 and capsys.readouterr().out == ""


def test_one_parser_keeps_no_state_between_calls(capsys):
    argv = ("classify", "--slope", "9/5", "--horizon", "40", "--depth", "8")
    for itinerary in ("(1)^inf .1111", "(0)^inf .0000"):
        code, out = run_cli(capsys, *argv, "--itinerary", itinerary)
        assert code == 0
        report = json.loads(out)
        assert report["config"]["itinerary"] == [itinerary]
        assert list(report["results"]["items"]) == [itinerary]
    assert cli.build_parser() is cli.build_parser()


def test_bare_preset_slope_takes_the_horizon(capsys):
    code, out = run_cli(capsys, "knead", "--slope", "fib", "--horizon", "400")
    assert code == 0
    fib = nu_from_q(fibonacci_q, 400)
    assert json.loads(out)["results"]["nu_dotted"] == \
        emit_dotted(fib, cutting_data(fib))
