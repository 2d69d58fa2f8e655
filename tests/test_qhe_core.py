"""Interactive Clifford+T evaluation: key algebra, gadgets, full runs."""

import itertools

import numpy as np
import pytest

from qhelab import qhe_core as qc
from qhelab import qsim
from qhelab.harness import (RandomBits, bell_measure_with, conjugate_frame,
                            enumerate_hidden, measure_with)


def _value(form, bits):
    """An int-mask F2 form's value at the variable values `bits`: the
    parity of form & assignment, with bit 0 (the constant) set."""
    assignment = 1 | sum(b << v for v, b in enumerate(bits, 1))
    return bin(form & assignment).count("1") & 1


def test_linear_form_algebra():
    """Forms are int bitmasks: bit 0 the constant, bit v+1 variable v; XOR
    adds forms and XOR with 1 flips the constant."""
    f, g = 1 << 2, 1 << 3  # variables 1 and 2 of four
    h = f ^ g
    assert _value(h, [0, 1, 1, 0]) == 0
    assert _value(h, [0, 1, 0, 0]) == 1
    h ^= 1
    assert _value(h, [0, 1, 0, 0]) == 0
    assert _value(1, [0, 0, 0, 0]) == 1 and _value(0, [1, 1, 1, 1]) == 0


def _pauli(x, z):
    m = np.eye(2, dtype=complex)
    if z:
        m = qsim._Z @ m
    if x:
        m = qsim._X @ m
    return m


def _variables(qubits):
    """Qubit i's frame is (variable 2i, variable 2i+1)."""
    return [(1 << (2 * i + 1), 1 << (2 * i + 2)) for i in range(qubits)]


@pytest.mark.parametrize("gate", ["H", "P", "X", "Z", "Y"])
def test_single_qubit_key_update_matches_conjugation(gate):
    """Applied Cliffords satisfy G X^a Z^b = (phase) X^a' Z^b' G; absorbed
    Paulis instead fold into the mask, X^a' Z^b' = (phase) G X^a Z^b."""
    g = qc._GATES[gate].matrix
    applied = gate in ("H", "P")
    frames = _variables(1)
    conjugate_frame(frames, gate, (0,))
    for a, b in itertools.product((0, 1), repeat=2):
        a2, b2 = (_value(f, [a, b]) for f in frames[0])
        lhs = g @ _pauli(a, b)
        rhs = _pauli(a2, b2) @ g if applied else _pauli(a2, b2)
        coef = np.trace(rhs.conj().T @ lhs) / 2
        assert abs(abs(coef) - 1) < 1e-9
        assert np.allclose(lhs, coef * rhs, atol=1e-9)


def test_cnot_key_update_matches_conjugation():
    cnot = qc._GATES["CNOT"].matrix
    frames = _variables(2)
    conjugate_frame(frames, "CNOT", (0, 1))
    for bits in itertools.product((0, 1), repeat=4):
        # little-endian kron: qubit 1 factor first
        before = np.kron(_pauli(bits[2], bits[3]), _pauli(bits[0], bits[1]))
        after = np.kron(*(_pauli(*(_value(f, bits) for f in frames[q]))
                          for q in (1, 0)))
        lhs = cnot @ before
        rhs = after @ cnot
        coef = np.trace(rhs.conj().T @ lhs) / 4
        assert abs(abs(coef) - 1) < 1e-9
        assert np.allclose(lhs, coef * rhs, atol=1e-9)


def test_t_commutation_keeps_z_key():
    """T X^a Z^b = (phase) P^a X^a Z^b T: the induced factor is P^{f_a} and
    neither key polynomial changes."""
    t = qsim.T.matrix
    p = qsim.P.matrix
    for a, b in itertools.product((0, 1), repeat=2):
        lhs = t @ _pauli(a, b)
        rhs = np.linalg.matrix_power(p, a) @ _pauli(a, b) @ t
        coef = np.trace(rhs.conj().T @ lhs) / 2
        assert abs(abs(coef) - 1) < 1e-9
        assert np.allclose(lhs, coef * rhs, atol=1e-9)


def test_circuit_validation_and_r_count():
    with pytest.raises(ValueError):
        qc.CliffordTCircuit(1, (("Q", (0,)),))
    with pytest.raises(ValueError):
        qc.CliffordTCircuit(1, (("CNOT", (0,)),))
    with pytest.raises(ValueError):
        qc.CliffordTCircuit(1, (("H", (1,)),))
    circ = qc.CliffordTCircuit(2, (("H", (0,)), ("T", (1,)),
                                   ("CNOT", (0, 1))))
    assert circ.r_count == 1


def test_random_clifford_t_structure():
    rng = np.random.default_rng(0)
    circ = qc.random_clifford_t(2, 3, rng)
    assert circ.r_count == 3
    assert circ.n == 2


_SWAP = qsim.Gate("SWAP", np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                                    [0, 1, 0, 0], [0, 0, 0, 1]]), 2)


def garden_hose_literal(state, qubit, p, q, source):
    """Reference implementation of qc.garden_hose through 4 explicit EPR
    pairs A-D, each split (Bob's half, Alice's half); same return value.

    Bob Bell-measures (data, A's half) if p=0 else (data, B's half).  Alice
    always Bell-measures {A, C} and {B, D} on her side; q only selects which
    of the two gets a P-dagger on its potential carrier (B's half when q=0,
    A's half when q=1).  The data ends on Bob's half of C (p=0) or D (p=1)
    and is swapped back into the original slot.
    """
    st = state
    n0 = st.num_qubits
    half = {}
    for name in "ABCD":
        st, left, right = qsim.epr_extend(st)
        half[name] = (left, right)

    route = "A" if p == 0 else "B"
    (bx, bz), st = bell_measure_with(source, st, qubit, half[route][0])
    if q == 1:
        st = qsim.apply_gate(st, qsim.P_DAG, [half["A"][1]])
    (m1x, m1z), st = bell_measure_with(source, st, half["A"][1], half["C"][1])
    if q == 0:
        st = qsim.apply_gate(st, qsim.P_DAG, [half["B"][1]])
    (m2x, m2z), st = bell_measure_with(source, st, half["B"][1], half["D"][1])

    out_idx = half["C"][0] if p == 0 else half["D"][0]
    # the off-route chain leaves Bob's two spare halves in a Bell state;
    # Bob measures them out so the register shrinks back to n0 qubits
    spare = [half["B"][0], half["D"][0]] if p == 0 else [half["A"][0],
                                                          half["C"][0]]
    sp0, st = measure_with(source, st, "Z", spare[0])
    sp1, st = measure_with(source, st, "Z", spare[1])

    st = qsim.apply_gate(st, _SWAP, [qubit, out_idx])
    known = {
        half[route][0]: bx,
        half["A"][1]: m1z, half["C"][1]: m1x,
        half["B"][1]: m2z, half["D"][1]: m2x,
        spare[0]: sp0, spare[1]: sp1,
        out_idx: bz,  # post-swap: the slot holds the measured data qubit
    }
    for idx in sorted(known, reverse=True):
        st = qsim.remove_qubit(st, idx, known[idx])
    assert st.num_qubits == n0
    return st, (m1x, m1z, m2x, m2z), (bx, bz), "out1" if p == 0 else "out2"


@pytest.mark.parametrize("p,q", list(itertools.product((0, 1), repeat=2)))
def test_garden_hose_contract(p, q):
    """The gadget output is X^{ax} Z^{az} (Pdag)^{p^q} X^{bx} Z^{bz} psi,
    with (ax, az) the route-matching half of Alice's Bell outcomes."""
    for seed in range(3):
        rng = np.random.default_rng(10 * seed + 2 * p + q)
        psi = qsim.random_state(1, rng)
        st, a4, (bx, bz), _ = qc.garden_hose(psi.copy(), 0, p, q,
                                             RandomBits(rng))
        ax, az = (a4[0], a4[1]) if p == 0 else (a4[2], a4[3])
        # undo the layers inside out
        if ax:
            st = qsim.apply_gate(st, qsim.X, [0])
        if az:
            st = qsim.apply_gate(st, qsim.Z, [0])
        if p ^ q:
            st = qsim.apply_gate(st, qsim.P, [0])
        if bx:
            st = qsim.apply_gate(st, qsim.X, [0])
        if bz:
            st = qsim.apply_gate(st, qsim.Z, [0])
        assert qsim.fidelity(st, psi) > 1 - 1e-9


@pytest.mark.parametrize("p,q", list(itertools.product((0, 1), repeat=2)))
def test_garden_hose_channel_matches_literal_gadget(p, q):
    """Branch by branch over all 2^7 hidden-bit strings, on one qubit of an
    entangled 3-qubit register, the channel and the literal EPR gadget
    consume the same 7 bits and return the same bits, label and state."""
    psi = qsim.random_state(3, np.random.default_rng(40 + 2 * p + q))
    channel = list(enumerate_hidden(
        lambda src: qc.garden_hose(psi, 1, p, q, src), 7))
    literal = list(enumerate_hidden(
        lambda src: garden_hose_literal(psi, 1, p, q, src), 7))
    assert len(channel) == len(literal) == 2 ** 7
    for (bits_c, out_c), (bits_l, out_l) in zip(channel, literal):
        assert bits_c == bits_l
        assert out_c[1:] == out_l[1:]
        assert qsim.fidelity(out_c[0], out_l[0]) >= 1 - 1e-12


@pytest.mark.parametrize("p,q", list(itertools.product((0, 1), repeat=2)))
def test_garden_hose_leaves_input_untouched(p, q):
    psi = qsim.random_state(2, np.random.default_rng(2 * p + q))
    vec = psi.vec.copy()
    for _, (st, *_) in enumerate_hidden(
            lambda src: qc.garden_hose(psi, 0, p, q, src), 7):
        assert st is not psi
        assert np.array_equal(psi.vec, vec)


@pytest.mark.parametrize("a,b", list(itertools.product((0, 1), repeat=2)))
def test_t_gate_step_on_masked_state(a, b):
    """Regression: the T step must stay sound for every initial mask,
    including f_a = 1 where the P^{f_a} removal actually fires."""
    for seed in range(3):
        rng = np.random.default_rng(100 * seed + 2 * a + b)
        psi = qsim.random_state(1, rng)
        masked = psi.copy()
        if b:
            masked = qsim.apply_gate(masked, qsim.Z, [0])
        if a:
            masked = qsim.apply_gate(masked, qsim.X, [0])
        frames = _variables(1)
        alice_bits = [a, b, 0, 0, 0, 0]
        report = qc.Scheme5Report(n=1, r_cap=1, nvars=6)
        out = qc.t_gate_step(masked, 0, frames, alice_bits, 0, 2,
                             RandomBits(rng), report)
        ideal = qsim.apply_gate(psi, qsim.T, [0])
        assert qc._masked_fidelity(out, frames, alice_bits, ideal) > 1 - 1e-9


@pytest.mark.parametrize("n,r,seed", [(1, 1, 0), (1, 2, 1), (2, 1, 2),
                                      (2, 2, 3)])
def test_scheme5_end_to_end(n, r, seed):
    rng = np.random.default_rng(seed)
    circ = qc.random_clifford_t(n, r, rng)
    psi = qsim.random_state(n, rng)
    run = qc.run_scheme5(circ, psi, 2, rng, check_soundness=True)
    assert run.aborted is None
    assert min(run.report.soundness) > 1 - 1e-9
    ideal = circ.apply(psi.copy())
    assert qsim.fidelity(run.state, ideal) > 1 - 1e-9
    # one distributed instance per T plus 2n for the final key handoff
    assert run.report.instance_count == r + 2 * n


def test_scheme5_absorbs_pauli_gates():
    """Circuit Paulis are never applied physically; only key constants flip."""
    circ = qc.CliffordTCircuit(1, (("X", (0,)), ("Z", (0,)), ("Y", (0,))))
    rng = np.random.default_rng(7)
    psi = qsim.random_state(1, rng)
    run = qc.run_scheme5(circ, psi, 1, rng)
    ideal = circ.apply(psi.copy())
    assert qsim.fidelity(run.state, ideal) > 1 - 1e-9


@pytest.mark.parametrize("traps", [0, 2])
def test_scheme6_honest_run(traps):
    rng = np.random.default_rng(11)
    circ = qc.random_clifford_t(2, 1, rng)
    psi = qsim.random_state(2, rng)
    run = qc.run_scheme6(circ, psi, 2, traps, rng,
                         rng_bob=np.random.default_rng(5))
    assert run.aborted is None
    assert len(run.traps) == traps
    assert all(t.passed for t in run.traps)
    ideal = circ.apply(psi.copy())
    assert qsim.fidelity(run.state, ideal) > 1 - 1e-9


@pytest.mark.parametrize("seed", range(4))
def test_scheme6_without_traps_is_scheme5(seed):
    circ = qc.random_clifford_t(2, 2, np.random.default_rng(seed))
    psi = qsim.random_state(2, np.random.default_rng(100 + seed))
    five = qc.run_scheme5(circ, psi, 2, np.random.default_rng(200 + seed))
    six = qc.run_scheme6(circ, psi, 2, 0, np.random.default_rng(200 + seed))
    assert six.aborted is None and six.traps == []
    assert six.transcript.serialize() == five.transcript.serialize()
    assert ([tr.serialize() for tr in six.report.instance_transcripts]
            == [tr.serialize() for tr in five.report.instance_transcripts])
    assert six.report.t_audit == five.report.t_audit
    assert np.array_equal(six.state.vec, five.state.vec)


def test_trap_plan_is_data_local():
    plan = qc.trap_plan(3, 4, np.random.default_rng(0))
    assert len(plan) == 4
    assert all(0 <= p["data_qubit"] < 3 for p in plan)
    assert qc.trap_plan(3, 0, None) == []  # no traps, no draws
