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


def product_state(*single_qubit_vecs) -> qsim.QuantumState:
    """Build |v_{n-1}> x ... x |v_0> from per-qubit vectors listed for
    qubits 0, 1, ... in order (little-endian composition)."""
    out = np.array([1.0], dtype=complex)
    for v in single_qubit_vecs:
        out = np.kron(np.asarray(v, dtype=complex), out)
    out = out / np.linalg.norm(out)
    return qsim.QuantumState(out)


def test_little_endian_indexing():
    st0 = qsim.basis_state(2, 0)
    st0 = qsim.apply_gate(st0, qsim.X, [0])
    assert abs(st0.vec[1] - 1) < 1e-12  # qubit 0 is the LSB
    st1 = qsim.apply_gate(qsim.basis_state(2, 0), qsim.X, [1])
    assert abs(st1.vec[2] - 1) < 1e-12


def test_product_state_order():
    # product_state lists qubit 0 first
    st = product_state([1, 0], [0, 1])
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
    with pytest.raises(ValueError, match="normalized"):
        qsim.QuantumState(np.array([np.nan, 0]))


def test_gate_unitarity_enforced():
    with pytest.raises(ValueError):
        qsim.Gate("bad", np.array([[1, 0], [0, 2]]), 1)
    with pytest.raises(ValueError):
        qsim.Gate("shape", np.eye(2), 2)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3),
       st.floats(-3e-5, 3e-5), st.floats(-3e-10, 3e-10))
@settings(deadline=None, max_examples=300)
def test_gate_check_is_allclose(seed, arity, scale, skew):
    """The unitarity check refuses exactly what np.allclose(U U^dagger, I,
    atol=ATOL) refuses, near both of its tolerances: a scaled unitary
    moves the diagonal, a skewed one the off-diagonal entries."""
    rng = np.random.default_rng(seed)
    dim = 2 ** arity
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim))
                        + 1j * rng.normal(size=(dim, dim)))
    m = q * (1 + scale)
    m[0, -1] += skew
    ok = np.allclose(m @ m.conj().T, np.eye(dim), atol=qsim.ATOL)
    try:
        qsim.Gate("g", m, arity)
    except ValueError:
        assert not ok
    else:
        assert ok


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6),
       st.floats(-2e-8, 2e-8))
@settings(deadline=None, max_examples=300)
def test_norm_check_is_linalg_norm(seed, n, scale):
    """QuantumState refuses exactly the vectors whose np.linalg.norm is
    more than 1e-8 from 1."""
    v = qsim.random_state(n, np.random.default_rng(seed)).vec * (1 + scale)
    ok = abs(np.linalg.norm(v) - 1) <= 1e-8
    try:
        qsim.QuantumState(v)
    except ValueError:
        assert not ok
    else:
        assert ok


def test_gate_product_is_the_kron_chain():
    factors = [qsim.ry(0.3), qsim.CNOT, qsim.T]
    gate = qsim.Gate.product("U", factors)
    want = np.array([[1.0 + 0j]])
    for f in factors:
        want = np.kron(want, f.matrix)
    assert gate.matrix.tobytes() == want.tobytes()
    assert gate.arity == 4 and gate.name == "U"
    qsim.Gate("U", gate.matrix, 4)  # unitary, as a kron of unitaries is
    # the last factor on the lowest slots
    psi = qsim.random_state(5, np.random.default_rng(0))
    one_by_one = qsim.apply_gate(psi, qsim.T, [0])
    one_by_one = qsim.apply_gate(one_by_one, qsim.CNOT, [1, 2])
    one_by_one = qsim.apply_gate(one_by_one, qsim.ry(0.3), [4])
    assert np.allclose(qsim.apply_gate(psi, gate, [0, 1, 2, 4]).vec,
                       one_by_one.vec, atol=1e-12)


def test_apply_gate_refuses_bad_targets():
    """Duplicate, out-of-range and miscounted targets are refused, on
    every call (a refusal is not remembered as a plan)."""
    psi = qsim.basis_state(3)
    for _ in range(2):
        with pytest.raises(ValueError, match="duplicate"):
            qsim.apply_gate(psi, qsim.CNOT, [1, 1])
        for bad in ([3], [-1], 5):
            with pytest.raises(IndexError):
                qsim.apply_gate(psi, qsim.X, bad)
        with pytest.raises(ValueError, match="arity"):
            qsim.apply_gate(psi, qsim.CNOT, [0])
    # the same targets are fine on a register wide enough
    qsim.apply_gate(qsim.basis_state(4), qsim.X, [3])


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


def tensordot_apply(arr, n, u, targets):
    """The tensordot kernel that qsim._tensor_apply replaced: the
    reference its bytes are checked against."""
    k = len(targets)
    ut = u.reshape((2,) * (2 * k))
    in_axes = [2 * k - 1 - j for j in range(k)]
    arr_axes = [n - 1 - targets[j] for j in range(k)]
    res = np.tensordot(ut, arr, axes=(in_axes, arr_axes))
    return np.moveaxis(res, range(k),
                       [n - 1 - targets[k - 1 - j] for j in range(k)])


@st.composite
def _kernel_cases(draw):
    n = draw(st.integers(1, 8))
    targets = draw(st.lists(st.integers(0, n - 1), min_size=1,
                            max_size=min(3, n), unique=True))
    return n, targets, draw(st.integers(0, 2 ** 32 - 1))


@given(_kernel_cases())
@settings(deadline=None, max_examples=300)
def test_kernel_is_bitwise_the_tensordot_kernel(case):
    """The same bytes as tensordot + moveaxis, for every target order, on
    random complex gates (unitary or not) and registers."""
    n, targets, seed = case
    rng = np.random.default_rng(seed)
    dim = 2 ** len(targets)
    u = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    arr = (rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)).reshape(
        (2,) * n)
    got = qsim._tensor_apply(arr, n, u, targets)
    want = tensordot_apply(arr, n, u, targets)
    assert got.shape == want.shape
    assert got.reshape(-1).tobytes() == want.reshape(-1).tobytes()


def test_measure_probabilities_and_post_state():
    st = product_state([math.sqrt(0.3), math.sqrt(0.7)], [1, 0])
    p0, _ = qsim.outcome_probability(st, 0, "Z")
    assert abs(p0 - 0.3) < 1e-12
    out, post = qsim.measure(st, "Z", 0, force=1)
    assert out == 1
    assert abs(np.linalg.norm(post.vec) - 1) < 1e-12
    with pytest.raises(qsim.ZeroProbabilityBranch):
        qsim.measure(qsim.basis_state(1, 0), "Z", 0, force=1)


def test_basis_rotated_measurement_stays_in_own_frame():
    # X measurement of |+> gives 0 and leaves the qubit in |+>
    plus = product_state([1, 1])
    out, post = qsim.measure(plus, "X", 0, force=0)
    assert out == 0
    assert qsim.fidelity(post, plus) > 1 - 1e-12
    # Y measurement of |y+> gives 0
    yplus = product_state([1, 1j])
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
    plus = product_state([1, 1])
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
