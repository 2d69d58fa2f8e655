"""Batch runner: report rows, grids, reproducibility, exit codes."""

import argparse
import hashlib
import inspect
import json
import textwrap
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qhelab import cli, linpoly as lp, qsim, rebit_schemes
from qhelab.harness import (Form, ProtocolError, SymbolicBits,
                            enumerate_hidden, enumerate_hidden_adaptive)
from test_seclab import cmi7_oracle, theorem6_c0_oracle


def _rows(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_row_comparisons():
    assert cli._row("4", {}, "m", 1.0, 1.0 + 1e-12, 1e-9, 0, "p").passed
    assert not cli._row("4", {}, "m", 1.0, 1.1, 1e-9, 0, "p").passed
    assert cli._row("4", {}, "m", 0.5, 0.6, None, 0, "p",
                    comparison=">=").passed
    assert not cli._row("4", {}, "m", 0.5, 0.4, None, 0, "p",
                        comparison=">=").passed
    assert cli._row("4", {}, "m", None, 123.0, None, 0, "p").passed
    with pytest.raises(ValueError):
        cli._row("4", {}, "m", 1, 1, 0, 0, "p", comparison="~")


def test_row_json_shape():
    row = json.loads(cli._row("7", {"n": 2}, "cmi", 1.25, 1.25, 1e-9, 3,
                              "exact-enumeration").to_json())
    assert row["pass"] is True and "passed" not in row
    for key in ("scheme", "params", "metric", "expected", "observed",
                "tolerance", "comparison", "seed", "provenance"):
        assert key in row


def test_parse_range():
    assert cli._parse_range("3") == [3]
    assert cli._parse_range("1..3") == [1, 2, 3]
    assert cli._parse_range("1,4") == [1, 4]


def test_overlong_axis_exits_2_before_it_is_built(capsys):
    """An axis past the cap is refused from its endpoints or its comma
    count, before its list is built: a 2-million-point axis allocates
    well under the 16 MB its list would take, so one of 10^11 points is
    refused too, where it used to end in a MemoryError.  `--k 0` makes
    sure that no point runs even if an axis passed."""
    cap = cli._MAX_AXIS
    assert len(cli._parse_range(f"1..{cap}")) == cap
    assert len(cli._parse_range(",".join(["1"] * cap))) == cap
    argv = ["run", "--scheme", "10", "--k", "0", "--seed", "1", "--n"]
    tracemalloc.start()
    try:
        assert cli.main(argv + ["1..2000000"]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20
    errors = [capsys.readouterr().err]
    for axis in ("1..100000000000", f"1..{cap + 1}", f"0..{cap}",
                 ",".join(["1"] * (cap + 1))):
        assert cli.main(argv + [axis]) == 2
        errors.append(capsys.readouterr().err)
    for err in errors:
        (line,) = err.splitlines()
        assert f"the cap {cap}" in json.loads(line)["error"]


def test_list_schemes(capsys):
    assert cli.main(["list-schemes"]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == len(cli.SCHEMES)
    assert out.splitlines()[0].startswith("1\t")


def test_run_classical_exhaustive(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = cli.main(["run", "--scheme", "10", "--n", "1..2", "--k", "1",
                   "--exhaustive", "--seed", "7", "--output", str(out)])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert all(r["metric"] == "correctness-failures" and r["observed"] == 0
               for r in rows)
    assert rows[0]["provenance"] == "exhaustive-enumeration"
    assert rows[1]["seed"] == 7 + 1000


def test_run_scheme8_sampled(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = cli.main(["run", "--scheme", "8", "--n", "1", "--k", "1",
                   "--trials", "2", "--seed", "3", "--output", str(out)])
    assert rc == 0
    (row,) = _rows(out)
    assert row["params"]["mode"] == "sampled"
    assert row["provenance"] == "seeded-trials"


def test_run_scheme5_fidelity(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = cli.main(["run", "--scheme", "5", "--n", "1", "--k", "2", "--R", "1",
                   "--trials", "2", "--seed", "5", "--output", str(out)])
    assert rc == 0
    rows = _rows(out)
    assert len(rows) == 2
    assert all(r["metric"] == "fidelity"
               and abs(r["observed"] - 1) < 1e-8 for r in rows)


def test_run_rebit(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = cli.main(["run", "--scheme", "2", "--n", "1", "--depth", "2",
                   "--trials", "2", "--seed", "9", "--output", str(out)])
    assert rc == 0
    assert all(r["provenance"] == "logical-oracle" for r in _rows(out))


def test_audit_trace_distance(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = cli.main(["audit", "--metric", "trace-distance", "--scheme", "4",
                   "--k", "1..3", "--seed", "0", "--output", str(out)])
    assert rc == 0
    rows = _rows(out)
    assert [r["expected"] for r in rows] == [0.5, 0.25, 0.125]


def test_audit_theorem6_past_the_view_cap(tmp_path, capsys):
    """(n, k) = (4, 2) has 16-qubit views, beyond any dense eigensolve; its
    outcome rows are small enough to audit.  So are those of (4, 4), with
    2^20 lumped classes; (4, 6) has 2^28 and is refused."""
    out = tmp_path / "r.jsonl"
    rc = cli.main(["audit", "--metric", "trace-distance", "--scheme", "7",
                   "--n", "4", "--k", "2", "--seed", "0",
                   "--output", str(out)])
    assert rc == 0
    c0, spread = _rows(out)
    assert c0["metric"] == "trace-distance-c0" and c0["observed"] == 0.82421875
    assert c0["expected"] == 0.82421875 and c0["pass"]
    assert spread["metric"] == "trace-distance-spread" and spread["pass"]
    assert spread["observed"] == 0.0
    rc = cli.main(["audit", "--metric", "trace-distance", "--scheme", "7",
                   "--n", "4", "--k", "4", "--seed", "0",
                   "--output", str(out)])
    assert rc == 0
    c0, spread = _rows(out)
    assert c0["observed"] == c0["expected"] == float(theorem6_c0_oracle(4, 4))
    assert spread["pass"] and spread["observed"] == 0.0
    rc = cli.main(["audit", "--metric", "trace-distance", "--scheme", "7",
                   "--n", "4", "--k", "6", "--seed", "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"]


def test_audit_cmi_and_comm(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = cli.main(["audit", "--metric", "cmi", "--scheme", "7", "--n", "2",
                   "--k", "1", "--seed", "0", "--output", str(out)])
    assert rc == 0
    (row,) = _rows(out)
    assert abs(row["expected"] - 1.25) < 1e-12
    rc = cli.main(["audit", "--metric", "comm", "--scheme", "8", "--n", "2",
                   "--k", "2", "--seed", "1", "--output", str(out)])
    assert rc == 0
    (row,) = _rows(out)
    assert row["expected"] == 2 + 2 and row["observed"] == 4


def test_audit_rows_carry_the_rank_law(tmp_path):
    """Every scheme-7 c0 and CMI row, and every scheme-8 CMI row, checks
    its observed value against an exact expected value."""
    out = tmp_path / "r.jsonl"
    grid = ["--n", "1..3", "--k", "1..3", "--seed", "0", "--output", str(out)]
    for metric, scheme, oracle in (("trace-distance", "7", theorem6_c0_oracle),
                                   ("cmi", "7", cmi7_oracle)):
        assert cli.main(["audit", "--metric", metric, "--scheme", scheme,
                         *grid]) == 0
        rows = [r for r in _rows(out) if r["metric"] != "trace-distance-spread"]
        assert len(rows) == 9
        for row in rows:
            want = float(oracle(row["params"]["n"], row["params"]["k"]))
            assert row["expected"] == row["observed"] == want, row
    assert cli.main(["audit", "--metric", "cmi", "--scheme", "8", *grid]) == 0
    assert all(r["pass"] and r["tolerance"] == cli.TOL_EXACT
               for r in _rows(out))


def test_audit_cmi_refuses_by_table_size(tmp_path, capsys):
    """The CMI audits build only the outcome table (2^n x 2^(n(k+1))
    lumped entries for scheme 7, 2^n x 2^(k(n+1)) for scheme 8), so they
    are bounded by the table's size, not by a dense view's qubits."""
    out = tmp_path / "r.jsonl"
    rc = cli.main(["audit", "--metric", "cmi", "--scheme", "7", "--n", "2",
                   "--k", "4..5", "--seed", "0", "--output", str(out)])
    assert rc == 0
    rows = _rows(out)
    assert [r["expected"] for r in rows] == [0.18359375, 0.0927734375]
    assert all(r["pass"] and r["observed"] == r["expected"] for r in rows)
    rc = cli.main(["audit", "--metric", "cmi", "--scheme", "7", "--n", "5",
                   "--k", "2", "--seed", "0", "--output", str(out)])
    assert rc == 0
    (row,) = _rows(out)
    assert row["observed"] == row["expected"] == float(cmi7_oracle(5, 2))
    rc = cli.main(["audit", "--metric", "cmi", "--scheme", "7", "--n", "5",
                   "--k", "4", "--seed", "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"]
    rc = cli.main(["audit", "--metric", "cmi", "--scheme", "8", "--n", "3",
                   "--k", "4", "--seed", "0", "--output", str(out)])
    assert rc == 0
    (row,) = _rows(out)
    assert abs(row["observed"] - 0.13669799) < 1e-8
    assert abs(row["expected"] - row["observed"]) < 1e-12 and row["pass"]
    rc = cli.main(["audit", "--metric", "cmi", "--scheme", "8", "--n", "5",
                   "--k", "4", "--seed", "0"])
    assert rc == 2
    assert json.loads(capsys.readouterr().err)["error"]


def test_adversary_bob(tmp_path):
    out = tmp_path / "r.jsonl"
    rc = cli.main(["adversary", "--party", "bob", "--scheme", "4",
                   "--trials", "200", "--seed", "2", "--output", str(out)])
    assert rc == 0
    rows = _rows(out)
    metrics = {r["metric"] for r in rows}
    assert metrics == {"per-pair-guess-rate", "per-variable-guess-rate",
                       "induced-error-wilson-low"}


def test_adversary_scheme6_honest(tmp_path):
    """With or without traps, an honest Alice is never caught."""
    out = tmp_path / "r.jsonl"
    for traps in ("1", "0"):
        rc = cli.main(["adversary", "--scheme", "6", "--strategy", "honest",
                       "--traps", traps, "--trials", "3", "--seed", "4",
                       "--output", str(out)])
        assert rc == 0
        (row,) = _rows(out)
        assert row["metric"] == "abort-rate" and row["observed"] == 0.0


@pytest.mark.parametrize("argv", [
    ["--scheme", "6", "--strategy", "measure"],
    ["--scheme", "4", "--strategy", "measure"],
    ["--party", "bob", "--scheme", "6"],
    ["--party", "bob", "--scheme", "4", "--strategy", "honest"],
    ["--party", "bob", "--scheme", "4", "--strategy", "probe"],
    ["--scheme", "6", "--strategy", "probe", "--n", "1..2", "--traps", "2"],
    ["--scheme", "6", "--strategy", "honest", "--n", "2"],
    ["--scheme", "4", "--traps", "2"],
    ["--party", "bob", "--scheme", "4", "--traps", "4"],
    ["--scheme", "6", "--strategy", "probe", "--traps", "0"],
], ids=["alice-measure-6", "alice-measure-4", "bob-6", "bob-honest",
        "bob-probe", "scheme6-n-axis", "scheme6-n2", "alice-4-traps",
        "bob-4-traps", "probe-no-traps"])
def test_adversary_refuses_combinations_without_a_bench(tmp_path, capsys,
                                                        argv):
    """A party, scheme and strategy that name no bench are a refused
    argument, not a run of some other bench.  So are flags a bench would
    ignore: the scheme-6 bench runs a one-qubit circuit (an --n axis other
    than 1 would repeat it), and the scheme-4 benches have no traps.  A
    probe bench with no trap has nothing that could detect the probe."""
    out = tmp_path / "r.jsonl"
    assert cli.main(["adversary", *argv, "--trials", "1", "--seed", "1",
                     "--output", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "bench" in json.loads(line)["error"]
    assert not out.exists()


def test_adversary_traps_default_to_four_for_scheme6(tmp_path):
    """No --traps, --traps 4 and --n 1 give the same bytes."""
    base = ["adversary", "--scheme", "6", "--strategy", "honest", "--trials",
            "2", "--seed", "5"]
    outs = []
    for extra in ([], ["--traps", "4"], ["--n", "1"]):
        outs.append(tmp_path / f"r{len(outs)}.jsonl")
        assert cli.main(base + extra + ["--output", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == \
        outs[2].read_bytes()
    assert _rows(outs[0])[0]["params"]["traps"] == 4


@pytest.mark.parametrize("party,default", [("alice", "probe"),
                                           ("bob", "measure")])
def test_adversary_strategy_defaults_by_party(tmp_path, party, default):
    """--strategy defaults to the party's own bench; naming the default
    changes no byte of the report."""
    base = ["adversary", "--party", party, "--scheme", "4", "--trials", "20",
            "--seed", "3"]
    outs = []
    for extra in ([], ["--strategy", default]):
        outs.append(tmp_path / f"r{len(outs)}.jsonl")
        assert cli.main(base + extra + ["--output", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("argv,says", [
    (["run", "--scheme", "4", "--max-bits", "64", "--seed", "1"],
     "qhelab: unrecognized arguments: --max-bits 64"),
    (["run", "--scheme", "4"],
     "qhelab run: the following arguments are required: --seed"),
    (["run", "--scheme", "3", "--seed", "1"],
     "qhelab run: argument --scheme: invalid choice: '3'"),
    (["adversary", "--scheme", "4", "--trials", "many", "--seed", "1"],
     "qhelab adversary: argument --trials: invalid int value: 'many'"),
], ids=["unknown-flag", "missing-seed", "bad-choice", "non-integer"])
def test_parser_refusals_exit_2(capsys, argv, says):
    """What the parser itself refuses exits 2 with one JSON error line,
    as every other refusal does, and no usage text."""
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    (line,) = err.splitlines()
    assert out == "" and json.loads(line)["error"].startswith(says)


def test_help_exits_0_and_the_parser_is_built_once(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["run", "--help"])
    assert exc.value.code == 0
    assert "--scheme" in capsys.readouterr().out
    assert cli._build_parser() is cli._build_parser()


def test_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["run", "--scheme", "10", "--n", "2", "--k", "2", "--trials", "3",
            "--seed", "11"]
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_errors_exit_2(capsys):
    assert cli.main(["run", "--scheme", "10", "--n", "0", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]
    assert cli.main(["audit", "--metric", "trace-distance", "--scheme", "10",
                     "--seed", "0"]) == 2


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_output_exit_2(tmp_path, capsys, monkeypatch, where):
    """A report path that is a directory, or lies in a directory that does
    not exist, is refused with one JSON error line before any point runs,
    not with a traceback after the whole grid (exit 1, a failed row)."""
    def no_run(*args):
        raise AssertionError("a point ran")

    monkeypatch.setattr(cli, "_run_point", no_run)
    out = {"directory": tmp_path,
           "missing-parent": tmp_path / "missing" / "r.jsonl"}[where]
    assert cli.main(["run", "--scheme", "10", "--n", "1..2", "--seed", "1",
                     "--output", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "--output" in json.loads(line)["error"]
    assert not (tmp_path / "missing").exists()


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_failed_report_write_exit_2(capsys):
    """A report write that fails after the grid ran (here on a device that
    is always full) exits 2 with one JSON error line, not a traceback."""
    assert cli.main(["run", "--scheme", "10", "--n", "1", "--trials", "1",
                     "--seed", "1", "--output", "/dev/full"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"]


def test_degenerate_counts_exit_2(tmp_path, capsys, monkeypatch):
    """Zero trials, negative R/traps/depth, empty grid axes and registers
    past the 2^24-entry cap are refused with one JSON error line instead of
    an empty or vacuous report (or a numpy memory error)."""
    def no_build(*args, **kwargs):
        raise AssertionError("register built")

    # refusals come before any register or circuit layer is built
    monkeypatch.setattr(qsim, "random_state", no_build)
    monkeypatch.setattr(rebit_schemes, "Layer", no_build)
    out = tmp_path / "r.jsonl"
    for argv in (["run", "--scheme", "5", "--n", "40", "--trials", "1"],
                 ["run", "--scheme", "5", "--n", "1,25", "--trials", "1"],
                 ["audit", "--metric", "comm", "--scheme", "5", "--n", "40"],
                 ["run", "--scheme", "2", "--n", "40", "--trials", "1"],
                 ["run", "--scheme", "2", "--n", "13", "--trials", "1"],
                 ["run", "--scheme", "1", "--n", "13", "--trials", "1"],
                 ["audit", "--metric", "comm", "--scheme", "2", "--n", "13"],
                 ["run", "--scheme", "10", "--n", "1", "--trials", "0"],
                 ["run", "--scheme", "10", "--n", "3..1"],
                 ["run", "--scheme", "8", "--k", "2..1", "--exhaustive"],
                 ["audit", "--metric", "comm", "--scheme", "5", "--n", "1",
                  "--R", "-2"],
                 ["run", "--scheme", "2", "--depth", "-1", "--trials", "1"],
                 ["adversary", "--scheme", "6", "--traps", "-1"],
                 ["adversary", "--party", "bob", "--scheme", "4",
                  "--trials", "0"]):
        assert cli.main(argv + ["--seed", "1", "--output", str(out)]) == 2, \
            argv
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"]
    assert not out.exists()
    # the largest registers under the cap pass the check and reach a point
    for argv in (["run", "--scheme", "5", "--n", "24", "--trials", "1"],
                 ["run", "--scheme", "1", "--n", "12", "--trials", "1"],
                 ["audit", "--metric", "comm", "--scheme", "2", "--n", "12"]):
        assert cli.main(argv + ["--seed", "1", "--output", str(out)]) == 3, \
            argv
        assert "register built" in capsys.readouterr().err
    monkeypatch.undo()
    for argv in (["audit", "--metric", "comm", "--scheme", "5", "--n", "1",
                  "--R", "0"],
                 ["run", "--scheme", "2", "--depth", "0", "--trials", "1"]):
        assert cli.main(argv + ["--seed", "1", "--output", str(out)]) == 0


@pytest.mark.parametrize("argv,error", [
    (["audit", "--metric", "trace-distance", "--scheme", "4", "--n", "1..2"],
     "--n"),
    (["audit", "--metric", "trace-distance", "--scheme", "8", "--n", "2"],
     "--n"),
    (["run", "--scheme", "2", "--k", "1..2", "--trials", "1"], "--k"),
    (["run", "--scheme", "1", "--k", "2", "--trials", "1"], "--k"),
    (["audit", "--metric", "comm", "--scheme", "2", "--k", "2"], "--k"),
    (["run", "--scheme", "5", "--exhaustive", "--trials", "1"],
     "exhaustive"),
    (["run", "--scheme", "1", "--exhaustive", "--trials", "1"],
     "exhaustive"),
    (["run", "--scheme", "2", "--exhaustive", "--trials", "1"],
     "exhaustive"),
    (["run", "--scheme", "9", "--n", "1", "--k", "1..2", "--trials", "2"],
     "--k"),
    (["audit", "--metric", "trace-distance", "--scheme", "4", "--R", "9"],
     "--R"),
    (["audit", "--metric", "comm", "--scheme", "2", "--R", "4"], "--R"),
    (["audit", "--metric", "cmi", "--scheme", "7", "--R", "4"], "--R"),
    (["audit", "--metric", "comm", "--scheme", "8", "--depth", "3"],
     "--depth"),
], ids=["scheme4-distance-n", "scheme8-distance-n", "scheme2-k-axis",
        "scheme1-k", "scheme2-comm-k", "scheme5-exhaustive",
        "scheme1-exhaustive", "scheme2-exhaustive", "scheme9-k",
        "scheme4-distance-R", "scheme2-comm-R", "scheme7-cmi-R",
        "scheme8-comm-depth"])
def test_ignored_axes_and_flags_exit_2(tmp_path, capsys, argv, error):
    """An axis or flag that a point ignores would repeat its rows or
    silently run another mode, so it is refused: the per-variable distance
    audits have no n, schemes 1 and 2 no k, scheme 9 sets its own k, the
    fidelity schemes have no exhaustive mode, and only the scheme-5 and
    scheme-2 comm audits read --R and --depth."""
    out = tmp_path / "r.jsonl"
    assert cli.main(argv + ["--seed", "1", "--output", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert error in json.loads(line)["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv,error", [
    (["--scheme", "10", "--exhaustive", "--trials", "999"], "--trials"),
    (["--scheme", "9", "--exhaustive", "--trials", "20"], "--trials"),
    (["--scheme", "10", "--gamma", "5", "--k-prime", "-4", "--trials", "2"],
     "--gamma"),
    (["--scheme", "8", "--gamma", "1.5", "--trials", "2"], "--gamma"),
    (["--scheme", "4", "--k-prime", "1", "--exhaustive"], "--k-prime"),
    (["--scheme", "5", "--k-prime", "2", "--trials", "1"], "--k-prime"),
    (["--scheme", "10", "--R", "5", "--depth", "7", "--trials", "1"], "--R"),
    (["--scheme", "5", "--depth", "7", "--trials", "1"], "--depth"),
], ids=["trials-exhaustive", "default-trials-exhaustive", "gamma-scheme10",
        "gamma-scheme8", "k-prime-scheme4", "k-prime-scheme5", "R-scheme10",
        "depth-scheme5"])
def test_flags_a_point_ignores_exit_2(tmp_path, capsys, argv, error):
    """--trials with --exhaustive, --gamma or --k-prime outside scheme 9,
    --R outside scheme 5 and --depth outside schemes 1 and 2 would be
    dropped silently, so they are refused even at their defaults; where a
    point reads them they are accepted."""
    out = tmp_path / "r.jsonl"
    assert cli.main(["run", *argv, "--seed", "1", "--output", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert error in json.loads(line)["error"]
    assert not out.exists()
    for accepted in (["--scheme", "9", "--gamma", "1.5", "--k-prime", "2",
                      "--trials", "1"],
                     ["--scheme", "10", "--exhaustive"]):
        assert cli.main(["run", *accepted, "--seed", "1",
                         "--output", str(out)]) == 0


@pytest.mark.parametrize("argv,default", [
    (["run", "--scheme", "5", "--trials", "2"], ["--R", "1"]),
    (["audit", "--metric", "comm", "--scheme", "5", "--n", "2"],
     ["--R", "1"]),
    (["run", "--scheme", "1", "--trials", "2"], ["--depth", "2"]),
    (["run", "--scheme", "2", "--trials", "2"], ["--depth", "2"]),
    (["audit", "--metric", "comm", "--scheme", "2", "--n", "2"],
     ["--depth", "2"]),
    (["adversary", "--party", "bob", "--scheme", "4"], ["--trials", "1000"]),
], ids=["scheme5-run-R", "scheme5-comm-R", "scheme1-run-depth",
        "scheme2-run-depth", "scheme2-comm-depth", "bob-trials"])
def test_naming_a_default_changes_no_byte(tmp_path, argv, default):
    """Each default is written once, in the CLI's table of points: naming
    it gives the same report as leaving it out."""
    outs = []
    for extra in ([], default):
        outs.append(tmp_path / f"r{len(outs)}.jsonl")
        assert cli.main(argv + extra + ["--seed", "4",
                                        "--output", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_readme_commands_are_accepted():
    """Every `qhelab` line of the README's CLI examples passes the parser
    and the grid check, so the README shows no command the CLI refuses;
    no point runs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    lines = [line.split()[1:] for block in readme.split("```sh")[1:]
             for line in block.split("```")[0].splitlines()
             if line.startswith("qhelab ")]
    assert len(lines) >= 8
    for argv in lines:
        args = cli._build_parser().parse_args(argv)
        if args.command != "list-schemes":
            assert cli._grid_points(args), argv


@pytest.mark.parametrize("at", [1, 2])
def test_enumeration_budget_exit_2(tmp_path, capsys, at):
    """A grid with one exhaustive point past the 2^18-run cap, first or
    second on the n axis, is a refused argument (exit 2), not a failed row
    (exit 1), and writes no report for its point under the cap either.
    Scheme 10 at n = 16, k = 2 needs 2^(17 + 2) runs."""
    out = tmp_path / "r.jsonl"
    ns = "16,1" if at == 1 else "1,16"
    assert cli.main(["run", "--scheme", "10", "--n", ns, "--k", "2",
                     "--exhaustive", "--seed", "1",
                     "--output", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "over the cap of 262144" in json.loads(line)["error"]
    assert not out.exists()


# --- exhaustive runs: symbolic control branches against literal leaves ------

_ENUM = argparse.Namespace(gamma=1.5, k_prime=1)


def _literal_case(run, x, poly, k):
    """(failures, cases) of one (x, poly) from replaying every hidden-bit
    leaf on a FixedBits: the reference for the CLI's symbolic runs."""
    want = poly.evaluate(x)
    outs = [got for _, got in enumerate_hidden_adaptive(
        lambda src: run(x, poly, k, src, _ENUM.gamma, _ENUM.k_prime)[0],
        max_bits=64)]
    return sum(int(got != want) for got in outs), len(outs)


def _inputs(n):
    return [[(xv >> i) & 1 for i in range(n)] for xv in range(2 ** n)]


def _polys(n):
    """Every polynomial of arity n."""
    return [lp.LinearPolynomial(tuple((av >> i) & 1 for i in range(n)), c)
            for av in range(2 ** n) for c in (0, 1)]


def _summed(counts):
    return tuple(map(sum, zip(*counts)))


def _literal_poly(run, poly, k):
    """(failures, cases) of one polynomial, summed over every input x."""
    return _summed(_literal_case(run, x, poly, k) for x in _inputs(poly.n))


def _known_input_case(run, x, poly, k, control):
    """(failures, cases) of one known (x, poly) from one symbolic run per
    control branch: the route with one pass per input, the reference for
    the CLI's symbolic inputs."""
    want = poly.evaluate(x)
    failures = cases = 0

    def branch(fixed):
        source = SymbolicBits(fixed)
        got = run(x, poly, k, source, _ENUM.gamma, _ENUM.k_prime)[0]
        return got, source.vars

    for _, (got, nvars) in enumerate_hidden(branch, control):
        leaves = 2 ** nvars
        cases += leaves
        mask = got.mask if isinstance(got, Form) else got
        if mask >> 1:
            failures += leaves // 2
        elif mask != want:
            failures += leaves
    return failures, cases


# every point where literal enumeration finishes; past (1, 1), schemes 4
# and 7 take a few polynomials, each over both inputs (about 1.4 s each)
_FEW = [lp.LinearPolynomial((1,), 0), lp.LinearPolynomial((0,), 1)]


@pytest.mark.parametrize("scheme,n,k,cases", [
    *[("10", n, k, None) for n in (1, 2, 3) for k in (1, 2)],
    *[("8", n, k, None) for n, k in ((1, 1), (2, 1), (1, 2), (2, 2))],
    ("4", 1, 1, None), ("7", 1, 1, None), ("9", 1, 1, None),
    ("4", 1, 2, _FEW), ("7", 1, 2, _FEW[:1]),
])
def test_symbolic_exhaustive_matches_literal(scheme, n, k, cases):
    """One symbolic run per polynomial and control branch, with the input
    symbolic too, gives each polynomial's (failures, cases) exactly as
    replaying every leaf of every input does, and the grid point's row
    sums them; `cases` is a list of polynomials, or None for all."""
    run = cli._CLASSICAL[scheme]
    control = cli._control_bits(run, n, k, _ENUM)
    total = [0, 0]
    for poly in cases or _polys(n):
        want = _literal_poly(run, poly, k)
        assert cli._exhaustive_poly(run, poly, k, control, _ENUM) == want, \
            poly
        total = [t + w for t, w in zip(total, want)]
    if cases is None:
        args = argparse.Namespace(**vars(_ENUM), scheme=scheme,
                                  exhaustive=True)
        assert list(cli._classical_point(args, n, k, 0)) == total


def _mutant(fn, old, new):
    """`fn` recompiled from its source with the one `old` made `new`."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace = dict(vars(lp))
    exec(compile(source.replace(old, new), lp.__file__, "exec"), namespace)
    mutant = namespace[fn.__name__]
    return lambda x, poly, k, src, *_: mutant(x, poly, k, src)


@pytest.mark.parametrize("fn,old,new,n,k", [
    (lp.run_scheme10, "y0 ^= s[j] & R[j]", "y0 ^= 0", 2, 2),
    (lp.run_scheme10, "if s[j] == 0", "if s[j] == 1", 2, 2),
    (lp.run_scheme4, "terms = list(map(xor, ax, flips))",
     "terms = list(flips)", 1, 1),
    (lp.run_scheme4, "flips = map(xor, mx, map(and_, sp, dz))",
     "flips = map(xor, mz, map(and_, sp, dz))", 1, 1),
    (lp.run_scheme4, "sv = list(map(and_, s, v))", "sv = [0] * len(s)", 1,
     1),
], ids=["scheme10-no-s-and-R", "scheme10-swapped-slots",
        "scheme4-no-a-x-term", "scheme4-swapped-pair-parities",
        "scheme4-no-s-and-v"])
def test_symbolic_exhaustive_counts_mutant_failures(fn, old, new, n, k):
    """A broken protocol fails on the same number of leaves both ways,
    and on some: per polynomial with symbolic inputs, and summed over
    every input of literal leaves."""
    run = _mutant(fn, old, new)
    control = cli._control_bits(run, n, k, _ENUM)
    symbolic = _summed(cli._exhaustive_poly(run, poly, k, control, _ENUM)
                       for poly in _polys(n))
    literal = _summed(_literal_poly(run, poly, k) for poly in _polys(n))
    assert symbolic == literal and symbolic[0] > 0


@given(st.sampled_from([("4", 1, 2), ("4", 2, 1), ("7", 2, 2), ("7", 3, 1),
                        ("8", 2, 2), ("8", 3, 1), ("9", 1, 1), ("9", 2, 1),
                        ("10", 3, 2)]),
       st.integers(0, 2 ** 3 - 1), st.integers(0, 1))
@settings(deadline=None, max_examples=30)
def test_symbolic_inputs_sum_known_inputs(point, av, c):
    """With x symbolic, one polynomial's count equals the sum over every
    known x of the symbolic counts with that x."""
    scheme, n, k = point
    run = cli._CLASSICAL[scheme]
    poly = lp.LinearPolynomial(tuple((av >> i) & 1 for i in range(n)), c)
    control = cli._control_bits(run, n, k, _ENUM)
    assert cli._exhaustive_poly(run, poly, k, control, _ENUM) == _summed(
        _known_input_case(run, x, poly, k, control) for x in _inputs(n))


def test_exhaustive_preflight_refuses_before_enumerating(monkeypatch,
                                                         capsys):
    """An exhaustive point past the cap is refused with exit 2 after one
    symbolic run per grid point, before any point is enumerated: a runner
    that fails past that many calls is never reached again."""
    runner = cli._CLASSICAL["9"]
    argv = ["run", "--scheme", "9", "--exhaustive", "--seed", "1", "--n"]
    for ns, points in (("4", 1), ("1..4", 4)):
        calls = []

        def preflight_only(*args, calls=calls, points=points):
            calls.append(args[:3])  # (x, poly, k)
            if len(calls) > points:
                raise AssertionError("a protocol run past the preflight")
            return runner(*args)

        monkeypatch.setitem(cli._CLASSICAL, "9", preflight_only)
        assert cli.main(argv + [ns]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert "524288 symbolic runs" in json.loads(line)["error"]
        assert [len(x) for x, _, _ in calls] == cli._parse_range(ns)


def test_exhaustive_preflight_admits_scheme9_at_n3(monkeypatch):
    """Scheme 9 at n = 3 draws 12 control bits, so it needs 2^(4 + 12)
    symbolic runs, under the cap, and reaches its point."""
    args = argparse.Namespace(**vars(_ENUM), scheme="9")
    assert cli._control_bits(cli._CLASSICAL["9"], 3, 1, args) == 12
    assert cli._exhaustive_preflight(args, 3, 1, 1) == []
    reached = []
    monkeypatch.setattr(cli, "_run_point",
                        lambda *point: reached.append(point[1:]) or [])
    assert cli.main(["run", "--scheme", "9", "--n", "3", "--exhaustive",
                     "--seed", "1"]) == 0
    assert reached == [(3, 1, 1)]


def test_symbolic_bit_in_control_flow_exit_3(monkeypatch, capsys):
    """A runner that branches on a pad is an internal error (exit 3, one
    JSON line), not a wrong count."""
    def branching(x, poly, k, src, *_):
        if src.bit("pad"):
            return 1, None
        return 0, None

    monkeypatch.setitem(cli._CLASSICAL, "10", branching)
    assert cli.main(["run", "--scheme", "10", "--n", "1", "--exhaustive",
                     "--seed", "1"]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": "ProtocolError: a symbolic bit reached control flow",
        "command": "run", "scheme": "10", "n": 1, "k": 1, "seed": 1}


@pytest.mark.parametrize("misuse,error", [
    (lambda x: x[0] & x[1], "a product of two symbolic bits is not affine"),
    (lambda x: 1 if x[0] else 0, "a symbolic bit reached control flow"),
], ids=["product", "control-flow"])
def test_symbolic_input_in_product_or_control_flow_exit_3(monkeypatch,
                                                          capsys, misuse,
                                                          error):
    """A runner whose output multiplies two input bits, or that branches
    on one, is an internal error (exit 3, one JSON line), not a count."""
    monkeypatch.setitem(cli._CLASSICAL, "10",
                        lambda x, *_: (misuse(x), None))
    assert cli.main(["run", "--scheme", "10", "--n", "2", "--exhaustive",
                     "--seed", "1"]) == 3
    captured = capsys.readouterr()
    assert not captured.out
    (line,) = captured.err.splitlines()
    assert json.loads(line) == {
        "error": f"ProtocolError: {error}",
        "command": "run", "scheme": "10", "n": 2, "k": 1, "seed": 1}


@pytest.mark.parametrize("exc", [ProtocolError, AssertionError])
@pytest.mark.parametrize("at", [1, 2])
def test_internal_error_exit_3(monkeypatch, tmp_path, capsys, at, exc):
    """A protocol fault or a failed internal check inside a grid point, the
    first or one after a point that gave its rows, is neither a refused
    argument (2) nor a failed row (1): exit 3 with one JSON error line
    naming the command, scheme and point, and no report."""
    def fault(args, n, k, seed):
        if k == at:
            raise exc("injected fault")
        return []

    monkeypatch.setattr(cli, "_audit_point", fault)
    out = tmp_path / "r.jsonl"
    assert cli.main(["audit", "--metric", "trace-distance", "--scheme", "4",
                     "--k", "1..3", "--seed", "1", "--output", str(out)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": f"{exc.__name__}: injected fault", "command": "audit",
        "scheme": "4", "n": 1, "k": at, "seed": 1 + 1000 * (at - 1)}
    assert not out.exists()


# sha256 of seeded reports, which must stay byte-identical across refactors
# of the protocol and analysis code; the last two are the README privacy
# audits and pin seclab's exact distances and information values
_GOLDEN = [
    (["adversary", "--scheme", "6", "--strategy", "probe", "--traps", "4",
      "--trials", "20", "--seed", "3"],
     "c3bd04541bb14a5c346f2a11a2942c6816570c77b28e35d2db895bb990da607d"),
    (["adversary", "--scheme", "6", "--strategy", "honest", "--traps", "4",
      "--trials", "3", "--seed", "5"],
     "0dc14f10bf666f257e590032f54b2c2b1ad3842acf96415670122b203ce54bcd"),
    (["audit", "--metric", "comm", "--scheme", "5", "--n", "2", "--k", "2",
      "--R", "2", "--seed", "1"],
     "772819ce44901b409484b2eb4e3e95aac2d74dda6384928f414fba04c0d92dfd"),
    (["run", "--scheme", "10", "--n", "1..2", "--k", "1..2", "--exhaustive",
      "--seed", "7"],
     "732a4c562eca437613b7143d2f6acbde6cf8d6aad95822d05305d536d79462ad"),
    (["audit", "--metric", "comm", "--scheme", "2", "--n", "1..3", "--seed",
      "1"],
     "55990744d945dd2b1385c84801a7dbca333cf24fa4d6a98cfc3d99817408ad7a"),
    (["audit", "--metric", "trace-distance", "--scheme", "4", "--k", "1..3",
      "--seed", "0"],
     "d7abc39c06d9e09a1532638f06c8177a05df33faa9031b611848fa1eecf00320"),
    (["audit", "--metric", "cmi", "--scheme", "7", "--n", "2", "--k", "1..2",
      "--seed", "0"],
     "75d4541275e263eee8189112c0078ebd38c053918d27c18c53e909ca26616da0"),
    # fidelity reports that pin the Pauli-frame paths: the rz-layer and
    # sigma_y rules of schemes 1 and 2, and the scheme-5 key forms
    (["run", "--scheme", "1", "--n", "1..2", "--depth", "4", "--trials", "5",
      "--seed", "7"],
     "d30684b016257647c4a9f718cfe2e741bf0fe2832f083b0e833c9520e47c5e97"),
    (["run", "--scheme", "2", "--n", "2", "--depth", "4", "--trials", "5",
      "--seed", "7"],
     "5b8d8fc0d93ed9052cd6b2026a904742ba293939540592bbbc4702d226e9a303"),
    (["run", "--scheme", "5", "--n", "2", "--k", "2", "--R", "2", "--trials",
      "10", "--seed", "7"],
     "8d523fe691cec6f14a97489061eda18686b3a44a1d1e3a091aab85661f7642d2"),
    # scheme-4 adversary reports; the honest one's coin-flip guesses follow
    # run_scheme4's draws, so it pins the hidden-bit stream
    (["adversary", "--party", "bob", "--scheme", "4", "--trials", "300",
      "--seed", "17"],
     "c2d7a10e7dad57ed0a19ca4c5170965f7965337fec8f17893ee499d3facd972e"),
    (["adversary", "--scheme", "4", "--strategy", "probe", "--n", "2", "--k",
      "2", "--trials", "300", "--seed", "17"],
     "ee639c4ae7b825be8fa18b0f2b4d3827302c271ff58dc3988faf4de0f35b6c1d"),
    (["adversary", "--scheme", "4", "--strategy", "honest", "--n", "2", "--k",
      "2", "--trials", "300", "--seed", "17"],
     "7f3cac3f66e91d5f8318603ac8a2808e9ca6cb7dd85b16c3fe57048d6e6cccae"),
    # scheme-8 audits: the per-variable view distances (dense eigensolves)
    # and the one-way outcome-table CMI
    (["audit", "--metric", "trace-distance", "--scheme", "8", "--k", "1..6",
      "--seed", "0"],
     "bfed7d206933e599763424fec222a30a739276ee0507ea17d0d7687a65fdf0cc"),
    (["audit", "--metric", "cmi", "--scheme", "8", "--n", "1..3", "--k",
      "1..2", "--seed", "0"],
     "19c7e65bfbe5fdcbf792039e5f0ea421f2fca2aeff93dcf97dd20d21fb9617f1"),
    # scheme-6 reports over a k axis and other trap counts, so that every
    # trap's hidden bits and checkpoint outcome are pinned
    (["adversary", "--scheme", "6", "--strategy", "probe", "--traps", "3",
      "--k", "1..2", "--trials", "30", "--seed", "4"],
     "2a4dfce89df1ca655c19c97dd84d9a71d33066e47d3ad2cf21887cb3980ed29c"),
    (["adversary", "--scheme", "6", "--strategy", "honest", "--traps", "2",
      "--k", "1..3", "--trials", "8", "--seed", "9"],
     "cdaff542ca0fc84d350e71c30c891f968fa35cf94e3948aa5ec67ca5e8344e76"),
    # scheme-1/2 fidelity reports up to n = 8: every ry_product layer's
    # bytes and the statevector kernel's arithmetic at every register width
    (["run", "--scheme", "1", "--n", "1..8", "--depth", "4", "--trials", "5",
      "--seed", "7"],
     "2090b810ced3fa9122d621fced532ac6b051941f1dbceec3f40f3e4f7e8cf4f1"),
    (["run", "--scheme", "2", "--n", "1..8", "--depth", "4", "--trials", "5",
      "--seed", "7"],
     "00b8bc36971d4351251184b0d32142fb231a5dddbc7b26e6fcc7b7abacc31d33"),
]


@pytest.mark.parametrize("argv,digest", _GOLDEN, ids=[
    "scheme6-probe", "scheme6-honest", "scheme5-comm", "scheme10-exhaustive",
    "scheme2-comm", "scheme4-trace-distance", "scheme7-cmi", "scheme1-run",
    "scheme2-run", "scheme5-run", "scheme4-bob", "scheme4-probe",
    "scheme4-honest", "scheme8-trace-distance", "scheme8-cmi",
    "scheme6-probe-k-axis", "scheme6-honest-k-axis", "scheme1-run-n1-8",
    "scheme2-run-n1-8"])
def test_golden_seeded_reports(tmp_path, argv, digest):
    out = tmp_path / "r.jsonl"
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
