import hashlib
import json
import os
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uilkit import cli, hofbauer
from uilkit import verdicts as V
from uilkit.cli import main
from uilkit.kneading import cutting_data, emit_dotted, fibonacci_q, nu_from_q


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


def test_env_prec_cap_override(capsys, monkeypatch):
    monkeypatch.setenv("UILKIT_PREC_CAP", "256")
    code, out = run_cli(capsys, "knead", "--nu", "1.0.0.0.101")
    assert code == 0


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


def test_bad_env_prec_cap_is_config_error(capsys, monkeypatch):
    monkeypatch.setenv("UILKIT_PREC_CAP", "abc")
    code, _ = run_cli(capsys, "knead", "--slope", "9/5", "--horizon", "20")
    assert code == 2
    # also rejected by commands that never read the cap
    code, _ = run_cli(capsys, "genseq", "--length", "10")
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


def test_prec_cap_below_start_precision_is_config_error(capsys, monkeypatch):
    argv = ("knead", "--slope", "sqrt3", "--horizon", "100")
    assert run_cli(capsys, *argv, "--prec-cap", "1")[0] == 2
    assert run_cli(capsys, *argv, "--prec-cap", "-5")[0] == 2
    assert run_cli(capsys, *argv, "--prec-cap", "192")[0] == 0
    monkeypatch.setenv("UILKIT_PREC_CAP", "64")
    assert run_cli(capsys, *argv)[0] == 2


def test_env_prec_cap_overrides_flag(capsys, monkeypatch):
    # c_146 of this slope needs 256 bits
    half = Fraction(1, 1 << 300)
    lo, hi = Fraction(9, 5) - half, Fraction(9, 5) + half
    argv = ("knead", "--slope", f"interval:{lo},{hi}", "--horizon", "200")
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--prec-cap", "128")[0] == 3
    monkeypatch.setenv("UILKIT_PREC_CAP", "128")
    assert run_cli(capsys, *argv)[0] == 3
    assert run_cli(capsys, *argv, "--prec-cap", "4096")[0] == 3
    monkeypatch.setenv("UILKIT_PREC_CAP", "4096")
    assert run_cli(capsys, *argv, "--prec-cap", "128")[0] == 0


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
    monkeypatch.setenv("UILKIT_PREC_CAP", "768")
    assert run_cli(capsys, *argv, "--prec-cap", "512")[0] == 0
    assert caps == [512, 768]


# sha256 of the stdout of README commands, recorded from the reports of the
# rescanning match-set implementation; rewrites of the symbolic and numeric
# layers must keep every byte
README_REPORT_DIGESTS = [
    (("knead", "--nu", "1.0.0.0.101"),
     "4fe0b7e366fd75f082e71a0889e8fe4742c5706d60cfba499b8d08fd097c9a57"),
    (("persistence", "--q", "fib", "--horizon", "100"),
     "43aefde10c6d4b2871fac702ab29132c276f39d8cd86ab301ed17288bc9fbfd4"),
    (("subcontinua", "--q", "ex35", "--horizon", "40"),
     "be4ddb45fad23492f94e81825cb186abb00146144af7b4586e321078429c9abc"),
    (("genseq", "--length", "200", "--compat"),
     "8082c4165b715172435a405e2253962b17ae044f33291913e77f5608604f4b64"),
    (("classify", "--slope", "nonrec41:120", "--depth", "48",
      "--itinerary", "(1)^inf .1111", "--itinerary", "(0)^inf .0000"),
     "2869a3db8170f306f5b888c839092478deea74e8bf9aa8a9f7a488f8f99a5586"),
]


@pytest.mark.parametrize("argv,digest", README_REPORT_DIGESTS,
                         ids=[argv[0] for argv, _ in README_REPORT_DIGESTS])
def test_readme_reports_byte_identical(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("UILKIT_PREC_CAP", raising=False)
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    code, out = run_cli(capsys, "tower", *argv)
    assert code == 2 and out == ""


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
