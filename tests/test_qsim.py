"""Simulation-core tests: conventions, channels, and information measures."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhelab import qsim
from qhelab.harness import FixedBits, bell_measure_with


def von_neumann_entropy(rho) -> float:
    """S(rho) in bits; the reference for the Holevo cross-checks."""
    if isinstance(rho, qsim.QuantumState):
        rho = rho.density()
    return qsim._entropy_bits(np.linalg.eigvalsh(rho))


def holevo(ensemble) -> float:
    """S(sum p_i rho_i) - sum p_i S(rho_i), in bits."""
    probs = [p for p, _ in ensemble]
    if abs(sum(probs) - 1) > 1e-9:
        raise ValueError("ensemble probabilities do not sum to 1")
    mats = [r.density() if isinstance(r, qsim.QuantumState) else np.asarray(r)
            for _, r in ensemble]
    avg = sum(p * m for p, m in zip(probs, mats))
    return von_neumann_entropy(avg) - sum(p * von_neumann_entropy(m)
                                          for p, m in zip(probs, mats))


def test_little_endian_indexing():
    st0 = qsim.basis_state(2, 0)
    st0 = qsim.apply_gate(st0, qsim.X, [0])
    assert abs(st0.vec[1] - 1) < 1e-12  # qubit 0 is the LSB
    st1 = qsim.apply_gate(qsim.basis_state(2, 0), qsim.X, [1])
    assert abs(st1.vec[2] - 1) < 1e-12


def test_product_state_order():
    # product_state lists qubit 0 first
    st = qsim.product_state([1, 0], [0, 1])
    assert abs(st.vec[2] - 1) < 1e-12  # |q1 q0> = |10>


def test_controlled_slot_convention():
    # slot 0 controls, slot 1 is the target
    st = qsim.basis_state(2, 1)  # qubit 0 set
    st = qsim.apply_gate(st, qsim.CNOT, [0, 1])
    assert abs(st.vec[3] - 1) < 1e-12
    st = qsim.basis_state(2, 2)  # only the target set: no action
    st = qsim.apply_gate(st, qsim.CNOT, [0, 1])
    assert abs(st.vec[2] - 1) < 1e-12


def test_quantum_state_is_statevector_only():
    with pytest.raises(ValueError):
        qsim.QuantumState(np.eye(2) / 2)
    with pytest.raises(ValueError):
        qsim.QuantumState(np.ones(3) / math.sqrt(3))
    with pytest.raises(ValueError):
        qsim.QuantumState(np.ones(2))


def test_gate_unitarity_enforced():
    with pytest.raises(ValueError):
        qsim.Gate("bad", np.array([[1, 0], [0, 2]]), 1)
    with pytest.raises(ValueError):
        qsim.Gate("shape", np.eye(2), 2)


def _kron_oracle(n, u, targets):
    """Full-matrix construction for comparison, little-endian."""
    mats = [np.eye(2, dtype=complex)] * n
    if len(targets) == 1:
        mats[targets[0]] = u
        out = np.array([[1.0 + 0j]])
        for q in range(n - 1, -1, -1):
            out = np.kron(out, mats[q])
        return out
    # two-qubit gate on arbitrary targets via basis expansion
    dim = 2 ** n
    out = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        b0 = (col >> targets[0]) & 1
        b1 = (col >> targets[1]) & 1
        for r in range(4):
            amp = u[r, (b1 << 1) | b0]
            if amp == 0:
                continue
            row = col & ~(1 << targets[0]) & ~(1 << targets[1])
            row |= (r & 1) << targets[0]
            row |= ((r >> 1) & 1) << targets[1]
            out[row, col] += amp
    return out


@pytest.mark.parametrize("seed", range(10))
def test_apply_gate_matches_kron_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    psi = qsim.random_state(n, rng)
    if rng.random() < 0.5:
        gate = [qsim.X, qsim.H, qsim.T, qsim.ry(float(rng.uniform(0, 3)))][
            int(rng.integers(4))]
        targets = [int(rng.integers(n))]
    else:
        gate = [qsim.CNOT, qsim.controlled(qsim._Z, "CZ"),
                qsim.C_IY][int(rng.integers(3))]
        targets = [int(q) for q in rng.choice(n, size=2, replace=False)]
    got = qsim.apply_gate(psi, gate, targets).vec
    want = _kron_oracle(n, gate.matrix, targets) @ psi.vec
    assert np.allclose(got, want, atol=1e-10)


def test_measure_probabilities_and_post_state():
    st = qsim.product_state([math.sqrt(0.3), math.sqrt(0.7)], [1, 0])
    p0, _ = qsim.outcome_probability(st, 0, "Z")
    assert abs(p0 - 0.3) < 1e-12
    out, post = qsim.measure(st, "Z", 0, force=1)
    assert out == 1
    assert abs(np.linalg.norm(post.vec) - 1) < 1e-12
    with pytest.raises(qsim.ZeroProbabilityBranch):
        qsim.measure(qsim.basis_state(1, 0), "Z", 0, force=1)


def test_basis_rotated_measurement_stays_in_own_frame():
    # X measurement of |+> gives 0 and leaves the qubit in |+>
    plus = qsim.product_state([1, 1])
    out, post = qsim.measure(plus, "X", 0, force=0)
    assert out == 0
    assert qsim.fidelity(post, plus) > 1 - 1e-12
    # Y measurement of |y+> gives 0
    yplus = qsim.product_state([1, 1j])
    out, _ = qsim.measure(yplus, "Y", 0, force=0)
    assert out == 0


def test_bell_measure_convention():
    st, a, b = qsim.epr_extend(qsim.basis_state(0))
    source = FixedBits(())
    (mx, mz), post = bell_measure_with(source, st, a, b)
    assert (mx, mz) == (0, 0)
    assert source.pos == 0  # both outcomes are certain: no hidden bit drawn
    # the measured pair is left in |mz>|mx>
    assert abs(post.vec[0] - 1) < 1e-12


@pytest.mark.parametrize("force", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_teleportation_correction_convention(force):
    rng = np.random.default_rng(7)
    psi = qsim.random_state(1, rng)
    st, a, b = qsim.epr_extend(psi)
    # bell_measure_with draws m_z (first qubit) before m_x
    (mx, mz), post = bell_measure_with(FixedBits(force[::-1]), st, 0, a)
    assert (mx, mz) == force
    if mx:
        post = qsim.apply_gate(post, qsim.X, [b])
    if mz:
        post = qsim.apply_gate(post, qsim.Z, [b])
    post = qsim.remove_qubit(post, a, mx)
    post = qsim.remove_qubit(post, 0, mz)
    assert qsim.fidelity(post, psi) > 1 - 1e-10


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 64))
@settings(deadline=None, max_examples=50)
def test_trace_distance_of_diagonals_matches_dense(seed, dim):
    rng = np.random.default_rng(seed)
    p, q = rng.dirichlet(np.full(dim, 0.5)), rng.dirichlet(np.full(dim, 0.5))
    got = qsim.trace_distance(p, q)
    assert abs(got - qsim.trace_distance(np.diag(p), np.diag(q))) < 1e-12
    assert qsim.trace_distance(p, p) == 0.0
    with pytest.raises(ValueError):
        qsim.trace_distance(p, np.append(q, 0.0))


def test_trace_distance_extremes():
    z0, z1 = qsim.basis_state(1, 0), qsim.basis_state(1, 1)
    assert abs(qsim.trace_distance(z0, z1) - 1) < 1e-12
    assert qsim.trace_distance(z0, z0) < 1e-12
    plus = qsim.product_state([1, 1])
    assert abs(qsim.trace_distance(z0, plus) - math.sqrt(0.5)) < 1e-12


def test_entropy_and_information():
    assert von_neumann_entropy(qsim.basis_state(1, 0)) < 1e-9
    assert abs(von_neumann_entropy(np.eye(2) / 2) - 1) < 1e-12
    indep = np.full((2, 2), 0.25)
    assert abs(qsim.mutual_information(indep)) < 1e-12
    corr = np.diag([0.5, 0.5])
    assert abs(qsim.mutual_information(corr) - 1) < 1e-12
    with pytest.raises(ValueError):
        qsim.mutual_information(np.full((2, 2), 0.3))


def test_holevo_orthogonal_ensemble():
    ens = [(0.5, qsim.basis_state(1, 0)), (0.5, qsim.basis_state(1, 1))]
    assert abs(holevo(ens) - 1) < 1e-12
    same = [(0.5, qsim.basis_state(1, 0)), (0.5, qsim.basis_state(1, 0))]
    assert abs(holevo(same)) < 1e-12


@given(st.integers(0, 2 ** 32 - 1))
@settings(deadline=None, max_examples=25)
def test_random_state_normalized(seed):
    psi = qsim.random_state(3, np.random.default_rng(seed))
    assert abs(np.linalg.norm(psi.vec) - 1) < 1e-9


@given(st.floats(-3, 3), st.floats(-3, 3))
@settings(deadline=None, max_examples=25)
def test_ry_composition(t1, t2):
    got = qsim.ry(t1).matrix @ qsim.ry(t2).matrix
    assert np.allclose(got, qsim.ry(t1 + t2).matrix, atol=1e-9)
