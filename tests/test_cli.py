"""Batch runner: report rows, grids, reproducibility, exit codes."""

import hashlib
import json
from dataclasses import dataclass

import pytest

from qhelab import cli
from qhelab.harness import ProtocolError
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
    out = tmp_path / "r.jsonl"
    rc = cli.main(["adversary", "--scheme", "6", "--strategy", "honest",
                   "--traps", "1", "--trials", "3", "--seed", "4",
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
], ids=["alice-measure-6", "alice-measure-4", "bob-6", "bob-honest",
        "bob-probe", "scheme6-n-axis", "scheme6-n2", "alice-4-traps",
        "bob-4-traps"])
def test_adversary_refuses_combinations_without_a_bench(tmp_path, capsys,
                                                        argv):
    """A party, scheme and strategy that name no bench are a refused
    argument, not a run of some other bench.  So are flags a bench would
    ignore: the scheme-6 bench runs a one-qubit circuit (an --n axis other
    than 1 would repeat it), and the scheme-4 benches have no traps."""
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
    """--strategy defaults to the party's own bench; naming the default,
    by flag or by config, changes no byte of the report."""
    base = ["adversary", "--party", party, "--scheme", "4", "--trials", "20",
            "--seed", "3"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"strategy": default}))
    outs = []
    for extra in ([], ["--strategy", default], ["--config", str(cfg)]):
        outs.append(tmp_path / f"r{len(outs)}.jsonl")
        assert cli.main(base + extra + ["--output", str(outs[-1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == \
        outs[2].read_bytes()


def test_reports_are_reproducible(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["run", "--scheme", "10", "--n", "2", "--k", "2", "--trials", "3",
            "--seed", "11"]
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": "2", "trials": 2}))
    out = tmp_path / "r.jsonl"
    rc = cli.main(["run", "--scheme", "10", "--n", "1", "--k", "1",
                   "--trials", "99", "--seed", "0", "--config", str(cfg),
                   "--output", str(out)])
    assert rc == 0
    (row,) = _rows(out)
    assert row["params"]["k"] == 2


def test_config_errors_exit_2(tmp_path, capsys):
    """A misspelled key, a missing file, malformed JSON, a non-object or a
    value its flag's type or choices refuse is refused with one JSON error
    line instead of running or a traceback.  A value is read as its flag's
    text would be, so "5" for --trials runs like --trials 5."""
    argv = ["run", "--scheme", "10", "--n", "1", "--trials", "1", "--seed",
            "0", "--output", str(tmp_path / "r.jsonl"), "--config"]
    bad = {"typo.json": json.dumps({"trails": 2}),
           "command.json": json.dumps({"command": "audit"}),
           "broken.json": "{\"k\": ",
           "list.json": "[1, 2]",
           "switch.json": json.dumps({"exhaustive": "no"}),
           "choice.json": json.dumps({"scheme": "3"}),
           "float.json": json.dumps({"seed": 1.5})}
    for name, text in bad.items():
        (tmp_path / name).write_text(text)
    for name in list(bad) + ["missing.json"]:
        assert cli.main(argv + [str(tmp_path / name)]) == 2, name
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line)["error"]
    assert not (tmp_path / "r.jsonl").exists()
    (tmp_path / "R.json").write_text(json.dumps({"R": 1.5}))
    assert cli.main(["audit", "--metric", "comm", "--scheme", "5", "--seed",
                     "1", "--config", str(tmp_path / "R.json")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"]
    (tmp_path / "trials.json").write_text(json.dumps({"trials": "5"}))
    flag, config = tmp_path / "flag.jsonl", tmp_path / "config.jsonl"
    assert cli.main(["run", "--scheme", "10", "--n", "1", "--seed", "1",
                     "--trials", "5", "--output", str(flag)]) == 0
    assert cli.main(["run", "--scheme", "10", "--n", "1", "--seed", "1",
                     "--output", str(config), "--config",
                     str(tmp_path / "trials.json")]) == 0
    assert config.read_bytes() == flag.read_bytes()


def test_worker_count_is_bounded(monkeypatch, capsys):
    """QHELAB_WORKERS is clamped to the grid size and the core count, and
    values below 1 are refused; the pool is a stand-in, so nothing spawns."""
    pools = []

    class FakePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    argv = ["audit", "--metric", "trace-distance", "--scheme", "4", "--seed",
            "0", "--k"]
    for workers, ks, want in [("8", "1..2", [2]), ("8", "1..5", [3]),
                              ("2", "1..5", [2]), ("1", "1..5", []),
                              ("5", "1", [])]:
        monkeypatch.setenv("QHELAB_WORKERS", workers)
        assert cli.main(argv + [ks]) == 0
        assert pools == want, (workers, ks)
        pools.clear()
    capsys.readouterr()
    for workers in ("0", "-2", "many"):
        monkeypatch.setenv("QHELAB_WORKERS", workers)
        assert cli.main(argv + ["1..2"]) == 2
        assert json.loads(capsys.readouterr().err)["error"]
    assert pools == []


def test_usage_errors_exit_2(capsys):
    assert cli.main(["run", "--scheme", "10", "--n", "0", "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]
    assert cli.main(["audit", "--metric", "trace-distance", "--scheme", "10",
                     "--seed", "0"]) == 2


def test_degenerate_counts_exit_2(tmp_path, capsys):
    """Zero trials, negative R/traps/depth and empty grid axes are refused
    with one JSON error line instead of an empty or vacuous report."""
    out = tmp_path / "r.jsonl"
    for argv in (["run", "--scheme", "10", "--n", "1", "--trials", "0"],
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
    for argv in (["audit", "--metric", "comm", "--scheme", "5", "--n", "1",
                  "--R", "0"],
                 ["run", "--scheme", "2", "--depth", "0", "--trials", "1"]):
        assert cli.main(argv + ["--seed", "1", "--output", str(out)]) == 0


@pytest.mark.parametrize("argv", [
    ["audit", "--metric", "trace-distance", "--scheme", "4", "--n", "1..2"],
    ["audit", "--metric", "trace-distance", "--scheme", "8", "--n", "2"],
    ["run", "--scheme", "2", "--k", "1..2", "--trials", "1"],
    ["run", "--scheme", "1", "--k", "2", "--trials", "1"],
    ["audit", "--metric", "comm", "--scheme", "2", "--k", "2"],
    ["run", "--scheme", "5", "--exhaustive", "--trials", "1"],
    ["run", "--scheme", "1", "--exhaustive", "--trials", "1"],
    ["run", "--scheme", "2", "--exhaustive", "--trials", "1"],
], ids=["scheme4-distance-n", "scheme8-distance-n", "scheme2-k-axis",
        "scheme1-k", "scheme2-comm-k", "scheme5-exhaustive",
        "scheme1-exhaustive", "scheme2-exhaustive"])
def test_ignored_axes_and_flags_exit_2(tmp_path, capsys, argv):
    """An axis or flag that a point ignores would repeat its rows or
    silently run another mode, so it is refused: the per-variable distance
    audits have no n, schemes 1 and 2 no k, and the fidelity schemes no
    exhaustive mode."""
    out = tmp_path / "r.jsonl"
    assert cli.main(argv + ["--seed", "1", "--output", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line)["error"]
    assert not out.exists()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_enumeration_budget_exit_2(monkeypatch, tmp_path, capsys, workers):
    """An exhaustive run that needs more hidden bits than --max-bits is a
    refused argument (exit 2), not a failed row (exit 1)."""
    monkeypatch.setenv("QHELAB_WORKERS", workers)
    out = tmp_path / "r.jsonl"
    assert cli.main(["run", "--scheme", "10", "--n", "1", "--k", "2..3",
                     "--exhaustive", "--max-bits", "3", "--seed", "1",
                     "--output", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "exceeded 3 hidden bits" in json.loads(line)["error"]
    assert not out.exists()


@dataclass
class _Fault:
    """A point function that raises `exc` at k = 2; a module-level class,
    so that a worker process can unpickle it."""

    exc: type

    def __call__(self, args, n, k, seed):
        if k == 2:
            raise self.exc("injected fault")
        return []


@pytest.mark.parametrize("exc", [ProtocolError, AssertionError])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_internal_error_exit_3(monkeypatch, tmp_path, capsys, workers, exc):
    """A protocol fault or a failed internal check inside a grid point is
    neither a refused argument (2) nor a failed row (1): exit 3 with one
    JSON error line naming the command, scheme and point."""
    monkeypatch.setenv("QHELAB_WORKERS", workers)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_audit_point", _Fault(exc))
    out = tmp_path / "r.jsonl"
    assert cli.main(["audit", "--metric", "trace-distance", "--scheme", "4",
                     "--k", "1..3", "--seed", "1", "--output", str(out)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {
        "error": f"{exc.__name__}: injected fault", "command": "audit",
        "scheme": "4", "n": 1, "k": 2, "seed": 1001}
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
]


@pytest.mark.parametrize("argv,digest", _GOLDEN, ids=[
    "scheme6-probe", "scheme6-honest", "scheme5-comm", "scheme10-exhaustive",
    "scheme2-comm", "scheme4-trace-distance", "scheme7-cmi", "scheme1-run",
    "scheme2-run", "scheme5-run", "scheme4-bob", "scheme4-probe",
    "scheme4-honest"])
def test_golden_seeded_reports(tmp_path, argv, digest):
    out = tmp_path / "r.jsonl"
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
