"""Acceptance suite: end-to-end correctness, exact constants, privacy
invariances, gadget contracts, communication accounting, adversary benches,
and report reproducibility.

Numbered to match the laboratory's acceptance checklist; each criterion is
one test (or one tightly scoped group).  Monte Carlo checks pin their seeds
and compare against thresholds; enumerations compare against exact values
with tolerance 1e-9.
"""

import itertools
import json
import math

import numpy as np
import pytest

from qhelab import cli, linpoly as lp, qhe_core as qc, qsim, rebit
from qhelab import rebit_schemes as rs
from qhelab import seclab
from qhelab.harness import (RandomBits, comm_audit, enumerate_hidden,
                            enumerate_hidden_adaptive, hidden_bit_count)

TOL = 1e-9
FID = 1 - 1e-8


# --- criterion 1: linear-polynomial scheme correctness ---------------------

_CLASSICAL = {
    "4": lambda x, poly, k, src: lp.run_scheme4(x, poly, k, src)[0],
    "7": lambda x, poly, k, src: lp.run_scheme7(x, poly, k, src)[0],
    "8": lambda x, poly, k, src: lp.run_scheme8(x, poly, k, src)[0],
    "9": lambda x, poly, k, src: lp.run_scheme9(x, poly, 1.5, 1, src)[0],
    "10": lambda x, poly, k, src: lp.run_scheme10(x, poly, k, src)[0],
}
# seeded trials per (x, a, c) case, scaled down with n to keep the full grid
# inside the runtime budget on one core
_TRIALS = {1: 200, 2: 50, 3: 10}


def _cases(n):
    for xv, av, c in itertools.product(range(2 ** n), range(2 ** n), (0, 1)):
        x = [(xv >> i) & 1 for i in range(n)]
        poly = lp.LinearPolynomial(tuple((av >> i) & 1 for i in range(n)), c)
        yield x, poly


def _exhaustive_ok(scheme, n, k):
    # schemes 4/7 burn 7 hidden bits per pad pair; enumerate only the
    # smallest grid point.  scheme 10 is cheap enough to enumerate always.
    if scheme == "10":
        return True
    return scheme in ("4", "7") and n == 1 and k == 1


@pytest.mark.parametrize("scheme", ["4", "7", "8", "9", "10"])
def test_criterion1_linear_polynomial_correctness(scheme):
    for n, k in itertools.product((1, 2, 3), (1, 2)):
        if scheme == "9" and k == 2:
            continue  # k' is fixed at 1; the outer k is ceil(1.5 * n)
        failures = 0
        rng = np.random.default_rng(1000 * n + 10 * k + int(scheme))
        for x, poly in _cases(n):
            want = poly.evaluate(x)
            if _exhaustive_ok(scheme, n, k):
                for _, got in enumerate_hidden_adaptive(
                        lambda src: _CLASSICAL[scheme](x, poly, k, src),
                        max_bits=24):
                    failures += int(got != want)
            else:
                for _ in range(_TRIALS[n]):
                    got = _CLASSICAL[scheme](x, poly, k, RandomBits(rng))
                    failures += int(got != want)
        assert failures == 0, (scheme, n, k)


@pytest.mark.parametrize("scheme,ns,ks", [
    ("4", "2..3", "1..2"), ("7", "2..3", "1..2"), ("8", "2..3", "1..2"),
    ("10", "2..3", "1..2"), ("9", "1..2", "1"),
    ("4", "4", "1..2"), ("7", "4", "1..2"), ("8", "4", "1..2"),
    ("10", "4", "1..2")])
def test_criterion1_symbolic_exhaustive_grid(scheme, ns, ks, tmp_path):
    """The CLI's exhaustive mode covers every hidden-bit leaf of every
    input at sizes the seeded trials above only sample, and no leaf fails.
    Outside scheme 9, whose inner pairing (and so its bit count) follows
    the outer s and t, a case's runs all draw the same number of bits, so
    each row must count 2^(bits of one run) leaves per (x, a, c) case.
    The grid runs at the CLI's defaults up to n = 4: schemes 4 and 7 at
    k = 2 draw 28 to 60 bits a leaf, and the run-count preflight is their
    only bound."""
    out = tmp_path / "r.jsonl"
    assert cli.main(["run", "--scheme", scheme, "--n", ns, "--k", ks,
                     "--exhaustive", "--seed", "1",
                     "--output", str(out)]) == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == len(cli._parse_range(ns)) * len(cli._parse_range(ks))
    for row in rows:
        n, k = row["params"]["n"], row["params"]["k"]
        assert row["observed"] == 0 and row["pass"], row
        if scheme != "9":
            leaves = sum(2 ** hidden_bit_count(
                lambda src: _CLASSICAL[scheme](x, poly, k, src))
                for x, poly in _cases(n))
            assert row["params"]["cases"] == leaves, row


# --- criterion 2: interactive Clifford+T evaluation ------------------------

def test_criterion2_scheme5_fidelity():
    grid = [(1, 1), (1, 2), (2, 1), (2, 2)]
    seeds = range(30)
    worst = 1.0
    for seed in seeds:
        n, r = grid[seed % len(grid)]
        rng = np.random.default_rng(seed)
        circuit = qc.random_clifford_t(n, r, rng)
        psi = qsim.random_state(n, rng)
        run = qc.run_scheme5(circuit, psi, 2, rng)
        worst = min(worst, qsim.fidelity(run.state, circuit.apply(psi)))
    assert worst >= FID


# --- criterion 3: remote Y-diagonal circuit evaluation ---------------------

def test_criterion3_rebit_scheme_fidelity():
    worst = 1.0
    for seed in range(20):
        scheme = "1" if seed % 2 else "2"
        n = 1 + (seed // 2) % 2
        rng = np.random.default_rng(100 + seed)
        circuit = cli.random_accircuit(scheme, n, depth=1 + seed % 3, rng=rng)
        psi = qsim.random_state(n, rng)
        enc = qsim.QuantumState(rebit.rebit_encode(psi))
        runner = rs.run_scheme1 if scheme == "1" else rs.run_scheme2
        run = runner(circuit, enc, RandomBits(rng))
        got = rebit.rebit_decode_logical(run.state)
        want = rs.logical_oracle(circuit, psi.vec)
        worst = min(worst, qsim.fidelity(got, want))
    assert worst >= FID


# --- criterion 4: exact constants ------------------------------------------

def test_criterion4_exact_constants():
    assert abs(seclab.privacy_distance("4", {"k": 1}, 0, 1) - 0.5) < TOL
    assert abs(seclab.bob_guess_rate(1) - 0.75) < TOL
    for k in (1, 2, 3):
        assert abs(seclab.privacy_distance("4", {"k": k}, 0, 1)
                   - 0.5 ** k) < TOL
    for k in (1, 2):
        assert abs(seclab.privacy_distance("8", {"k": k}, 0, 1)
                   - 2.0 ** (-k / 2)) < TOL
    for n in (2, 3):
        assert abs(seclab.cmi_uniform("7", n, 1)
                   - (n - 1 + 0.5 ** n)) < TOL
    assert abs(seclab.cmi_uniform("7", 2, 2) - 11 / 16) < TOL
    for k in (1, 2, 3):
        assert abs(seclab.cmi_uniform("7", 2, k)
                   - (3.0 / 2 ** k - 1.0 / 2 ** (2 * k))) < TOL


# --- criterion 5: privacy invariance suites --------------------------------

def _product_real_encoded(n, rng, complex_first=False):
    """Allowed scheme-1 input: product real state, optionally with the
    first qubit complex (rebit-encoded)."""
    vecs = []
    for q in range(n):
        if q == 0 and complex_first:
            vecs.append(qsim.random_state(1, rng).vec)
        else:
            th = rng.uniform(0, 2 * math.pi)
            vecs.append(np.array([math.cos(th), math.sin(th)]))
    psi = np.array([1.0 + 0j])
    for v in reversed(vecs):
        psi = np.kron(psi, v)
    return qsim.QuantumState(rebit.rebit_encode(qsim.QuantumState(psi)))


def _ydiag_layers(n, thetas, rz):
    """Global R_y-product layers at the given angles, with the rz layer
    after the first."""
    layers = [rs.Layer("ydiag", tuple(range(n)),
                       u=rs.named_generator("ry_product", n, theta))
              for theta in thetas]
    return rs.AlmostCommutingCircuit(n, layers[:1] + [rz] + layers[1:])


def test_criterion5_scheme1_input_independence():
    # n = 3 with a second ydiag layer: 6 gadgets
    for n, thetas in ((1, (0.8,)), (2, (0.8,)), (3, (0.8, 1.9))):
        rng = np.random.default_rng(50 + n)
        circuit = _ydiag_layers(n, thetas, rs.Layer("rz", (0,), j=3))
        ref = rs.bob_view(circuit, _product_real_encoded(n, rng), scheme=1)
        for i in range(20):
            view = rs.bob_view(
                circuit, _product_real_encoded(n, rng, complex_first=i % 2),
                scheme=1)
            assert qsim.trace_distance(ref, view) < TOL


def test_criterion5_scheme2_pair_indistinguishability_and_witness():
    rng = np.random.default_rng(60)
    circuit = _ydiag_layers(2, (0.8,), rs.Layer("rz", (1,), j=1))
    # and a 3-qubit circuit with two ydiag layers
    for n, circ in ((2, circuit),
                    (3, _ydiag_layers(3, (0.8, 2.3),
                                      rs.Layer("rz", (1,), j=1)))):
        for trial in range(5):
            e1 = _product_real_encoded(n, rng)
            e2 = e1.copy()
            for q in range(n):
                e2 = qsim.apply_gate(e2, qsim.ry(math.pi), [q])
            e2 = qsim.apply_gate(
                e2, qsim.ry(float(rng.uniform(0, 2 * math.pi))), [n])
            d = qsim.trace_distance(rs.bob_view(circ, e1, scheme=2),
                                    rs.bob_view(circ, e2, scheme=2))
            assert d < TOL
    # the distinguishable pair: (|00> +- |11>)/sqrt2
    plus = np.zeros(4)
    plus[0] = plus[3] = 1 / math.sqrt(2)
    minus = plus.copy()
    minus[3] = -minus[3]
    enc = lambda v: qsim.QuantumState(rebit.rebit_encode(qsim.QuantumState(v)))
    d = qsim.trace_distance(rs.bob_view(circuit, enc(plus), scheme=2),
                            rs.bob_view(circuit, enc(minus), scheme=2))
    assert d >= 0.5


def test_criterion5_theorem6_distance_equality():
    for (n, k), inputs in [((2, 1), None), ((2, 2), None), ((3, 1), None),
                           ((3, 2), None)]:
        out = seclab.theorem6_constants(n, k, inputs=inputs)
        assert out["spread"] < TOL, (n, k)


# --- criterion 6: gadget contracts -----------------------------------------

def test_criterion6_rotation_gadget_all_branches():
    rng = np.random.default_rng(70)
    for mode, js in (("rotation", (0, 1, 2, 3)), ("ty", (0,))):
        for j in js:
            psi = qsim.random_state(1, rng)
            angle = j * math.pi / 2 if mode == "rotation" else math.pi / 4
            target = qsim.apply_gate(psi, qsim.ry(angle), [0])

            def run(src):
                out, m, s, r = rebit.uncertain_gadget(psi.copy(), 0, j, src,
                                                      mode=mode)
                if r:
                    out = qsim.apply_gate(out, qsim.ry(math.pi), [0])
                return out

            for _, out in enumerate_hidden(run, 2):
                assert qsim.fidelity(out, target) >= FID


def test_criterion6_garden_hose_all_branches():
    for p, q in itertools.product((0, 1), repeat=2):
        for seed in range(50):
            rng = np.random.default_rng(1000 * p + 100 * q + seed)
            psi = qsim.random_state(1, rng)
            st, a4, (bx, bz), out_label = qc.garden_hose(
                psi.copy(), 0, p, q, RandomBits(rng))
            assert out_label == ("out1" if p == 0 else "out2")
            ax, az = (a4[0], a4[1]) if p == 0 else (a4[2], a4[3])
            for gate, bit in ((qsim.X, ax), (qsim.Z, az)):
                if bit:
                    st = qsim.apply_gate(st, gate, [0])
            if p ^ q:
                st = qsim.apply_gate(st, qsim.P, [0])
            for gate, bit in ((qsim.X, bx), (qsim.Z, bz)):
                if bit:
                    st = qsim.apply_gate(st, gate, [0])
            assert qsim.fidelity(st, psi) >= FID


# --- criterion 7: communication accounting ---------------------------------

def test_criterion7_communication_accounting():
    rng = np.random.default_rng(80)
    for n in (1, 2):
        circuit = cli.random_accircuit("2", n, 2, rng)
        enc = qsim.QuantumState(rebit.rebit_encode(qsim.random_state(n, rng)))
        run = rs.run_scheme2(circuit, enc, RandomBits(rng))
        assert comm_audit(run.transcript, "Bob->Alice") == 2 * n
    n, k = 2, 3
    poly = lp.LinearPolynomial((1, 0), 1)
    for runner, expected in [(lp.run_scheme4, n * k + 1),
                             (lp.run_scheme7, k + 1),
                             (lp.run_scheme8, k + 2),
                             (lp.run_scheme10, k + 1)]:
        _, tr = runner([1, 0], poly, k, rng)
        assert comm_audit(tr, "Bob->Alice") == expected
    for n, r in [(1, 1), (2, 2)]:
        circuit = qc.random_clifford_t(n, r, rng)
        run = qc.run_scheme5(circuit, qsim.random_state(n, rng), 2, rng)
        assert run.report.instance_count == 2 * n + r
        assert run.report.nvars == 2 * n + 4 * r


# --- criterion 8: adversary bench ------------------------------------------

def test_criterion8_cheating_bob_induces_errors():
    res = seclab.cheating_bob("4", {"n": 1, "k": 1},
                              np.random.default_rng(90), trials=10_000)
    assert res["induced_error_rate"] > 0.1
    lo, hi = res["induced_error_interval"]
    assert lo <= 0.5 <= hi  # each measured pair leaves one uniform bit


def test_criterion8_probe_alice_identifies_and_disturbs():
    res = seclab.cheating_alice("4", "probe", {"n": 1, "k": 1},
                                np.random.default_rng(91), trials=10_000)
    assert res["identification_rate"] == 1.0
    assert res["outcome_error_rate"] >= 0.2


def test_criterion8_scheme6_trap_detection():
    rng = np.random.default_rng(92)
    circuit = qc.CliffordTCircuit(1, (("H", (0,)), ("P", (0,))))
    psi = qsim.random_state(1, rng)
    probed = seclab.scheme6_detection(circuit, psi, 1, 4,
                                      np.random.default_rng(93), trials=400)
    assert probed["detection_rate"] >= 0.5
    honest = seclab.scheme6_detection(circuit, psi, 1, 4,
                                      np.random.default_rng(94), trials=100,
                                      strategy_factory=None)
    assert honest["detection_rate"] == 0.0


# --- criterion 9: report reproducibility -----------------------------------

@pytest.mark.parametrize("argv", [
    ["run", "--scheme", "10", "--n", "1..2", "--k", "1..2", "--exhaustive",
     "--seed", "17"],
    ["run", "--scheme", "8", "--n", "2", "--k", "1", "--trials", "5",
     "--seed", "17"],
    ["audit", "--metric", "cmi", "--scheme", "7", "--n", "2", "--k", "1..2",
     "--seed", "17"],
    ["adversary", "--party", "bob", "--scheme", "4", "--trials", "300",
     "--seed", "17"],
])
def test_criterion9_reports_are_byte_identical(argv, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli.main(argv + ["--output", str(a)]) == 0
    assert cli.main(argv + ["--output", str(b)]) == 0
    body = a.read_bytes()
    assert body and body == b.read_bytes()
