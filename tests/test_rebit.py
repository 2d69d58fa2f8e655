"""Rebit encoding, Y-diagonal expansion, and the uncertain-rotation gadget."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhelab import qsim, rebit
from qhelab.harness import FixedBits, RandomBits, enumerate_hidden, measure_with
from qhelab.rebit_schemes import named_generator
from test_rebit_schemes import _RecordingBits


def rx(theta: float) -> qsim.Gate:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return qsim.Gate(f"Rx({theta:g})",
                     np.array([[c, -1j * s], [-1j * s, c]]), 1)


def literal_uncertain_gadget(state, data_qubit, j, source, mode="rotation"):
    """The literal EPR gadget (the reference that rebit.uncertain_gadget,
    its channel, is checked against): Alice applies controlled-i*sigma_y
    from her half onto the data qubit, R_y(pi/2) and a Z measurement; Bob
    rotates his half by R_y(j*pi/2) (ty mode: R_y(j*pi/4) with j from m)
    and measures it in Z."""
    st, a, b = qsim.epr_extend(state)
    st = qsim.apply_gate(st, qsim.C_IY, [a, data_qubit])
    st = qsim.apply_gate(st, qsim.ry(math.pi / 2), [a])
    m, st = measure_with(source, st, "Z", a)
    if mode == "ty":
        j = 1 if m == 1 else 3
        st = qsim.apply_gate(st, qsim.ry(j * math.pi / 4), [b])
    else:
        st = qsim.apply_gate(st, qsim.ry(j * math.pi / 2), [b])
    s, st = measure_with(source, st, "Z", b)
    st = qsim.remove_qubit(st, b, s)
    st = qsim.remove_qubit(st, a, m)
    return st, m, s, rebit.correction_flag(m, s, j, mode)


def uncertain_rz(state, data_qubit, k, source):
    """Uncertain R_z(-k*pi/2) as R_x(-pi/2) R_y(k*pi/2) R_x(pi/2) with the
    gadget supplying the middle rotation; residual correction is Z^r."""
    st = qsim.apply_gate(state, rx(math.pi / 2), [data_qubit])
    st, m, s, r = rebit.uncertain_gadget(st, data_qubit, k % 4, source)
    st = qsim.apply_gate(st, rx(-math.pi / 2), [data_qubit])
    return st, m, s, r


def test_encode_decode_roundtrip():
    rng = np.random.default_rng(0)
    psi = qsim.random_state(2, rng)
    enc = rebit.rebit_encode(psi)
    assert np.max(np.abs(enc.imag)) < 1e-12
    assert np.allclose(rebit.rebit_decode(enc), psi.vec, atol=1e-12)


def test_decode_rejects_complex_amplitudes():
    with pytest.raises(ValueError):
        rebit.rebit_decode(np.array([1j, 0, 0, 0]))


def test_normalize_global_phase():
    vec = np.array([0, 1j, 0, 0], dtype=complex)
    out = rebit.normalize_global_phase(vec)
    assert abs(out[1] - 1) < 1e-12


def test_logical_rz_is_controlled_ry():
    """diag(1, e^{i theta}) on the logical qubit equals C-Ry(2 theta) from
    the data qubit onto the phase qubit."""
    rng = np.random.default_rng(1)
    psi = qsim.random_state(2, rng)
    theta = 0.7
    enc = qsim.QuantumState(rebit.rebit_encode(psi))
    enc = qsim.apply_gate(enc, rebit.controlled_ry(2 * theta), [0, 2])
    got = rebit.rebit_decode_logical(enc)
    want = qsim.apply_gate(psi, qsim.Gate("Rz", np.diag([1, np.exp(1j * theta)]), 1),
                           [0]).vec
    assert abs(abs(np.vdot(got, want)) - 1) < 1e-10


def test_pauli_y_product_little_endian():
    m = rebit.pauli_y_product(0b01, 2)
    assert np.allclose(m, np.kron(np.eye(2), qsim._Y), atol=1e-12)


def test_is_y_diagonal_reads_read_only_w_powers():
    """W^{kron k} and its adjoint are built once per k, equal the kron
    chain, and cannot be written; the check keeps nothing of its input,
    so a caller that changes its own matrix gets the changed matrix's
    answer, and the original's again once it is restored."""
    for k in range(1, 4):
        w, w_dag = rebit._w_power(k)
        want = np.array([[1.0 + 0j]])
        for _ in range(k):
            want = np.kron(want, rebit._W)
        assert w.tobytes() == want.tobytes()
        assert w_dag.tobytes() == want.conj().T.tobytes()
        for arr in (w, w_dag):
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0] = 0
        assert rebit._w_power(k)[0] is w
    u = named_generator("ry_product", 2, 0.7)
    before = u.copy()
    assert rebit.is_y_diagonal(u)
    assert u.tobytes() == before.tobytes()
    u[0, 1] += 0.5
    assert not rebit.is_y_diagonal(u)
    u[...] = before
    assert rebit.is_y_diagonal(u)


@pytest.mark.parametrize("name,k,theta", [
    ("ry_product", 1, 0.4), ("ry_product", 2, 1.1), ("cos_sin", 1, 0.3),
    ("exp_yy", 2, 0.9),
])
def test_ydiag_expand_reconstruct(name, k, theta):
    u = named_generator(name, k, theta)
    exp = rebit.ydiag_expand(u)
    rebuilt = sum(exp.c[f] * rebit.pauli_y_product(f, k)
                  for f in range(2 ** k))
    assert np.allclose(rebuilt, u, atol=1e-10)
    c_mat = rebit.build_c_matrix(exp)
    assert np.allclose(c_mat @ c_mat.conj().T, np.eye(2 ** k), atol=1e-8)


def test_ydiag_expand_rejects_non_y_diagonal():
    with pytest.raises(ValueError):
        rebit.ydiag_expand(qsim.H.matrix)


def test_named_generator_unknown():
    with pytest.raises(ValueError):
        named_generator("nope", 1, 0.0)


@given(st.floats(-3, 3))
@settings(deadline=None, max_examples=25)
def test_ry_product_is_y_diagonal(theta):
    assert rebit.is_y_diagonal(named_generator("ry_product", 2, theta))


@pytest.mark.parametrize("j", [0, 1, 2, 3])
def test_uncertain_gadget_all_branches(j):
    """After the R_y(pi)^r correction every measurement branch applies
    exactly R_y(j*pi/2) to the data qubit."""
    rng = np.random.default_rng(j)
    psi = qsim.random_state(2, rng)
    target = qsim.apply_gate(psi, qsim.ry(j * math.pi / 2), [0])

    def run(src):
        out, m, s, r = rebit.uncertain_gadget(psi.copy(), 0, j, src)
        if r:
            out = qsim.apply_gate(out, qsim.ry(math.pi), [0])
        return out

    branches = list(enumerate_hidden(run, 2))
    assert len(branches) == 4
    for bits, out in branches:
        assert qsim.fidelity(out, target) > 1 - 1e-9


def test_uncertain_gadget_ty_mode():
    """Adaptive variant: Bob's rotation choice depends on Alice's outcome
    and the net effect is always R_y(pi/4)."""
    rng = np.random.default_rng(9)
    psi = qsim.random_state(1, rng)
    target = qsim.apply_gate(psi, qsim.ry(math.pi / 4), [0])

    def run(src):
        out, m, s, r = rebit.uncertain_gadget(psi.copy(), 0, 0, src, mode="ty")
        if r:
            out = qsim.apply_gate(out, qsim.ry(math.pi), [0])
        return out

    for bits, out in enumerate_hidden(run, 2):
        assert qsim.fidelity(out, target) > 1 - 1e-9


def test_uncertain_gadget_rejects_bad_j():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        rebit.uncertain_gadget(qsim.basis_state(1, 0), 0, 5, None)
    with pytest.raises(ValueError):
        rebit.correction_flag(0, 0, 0, mode="nope")


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_uncertain_rz_all_branches(k):
    rng = np.random.default_rng(20 + k)
    psi = qsim.random_state(1, rng)
    target = qsim.apply_gate(
        psi, qsim.Gate("Rz", np.diag([1, (-1j) ** k]), 1), [0])

    def run(src):
        out, m, s, r = uncertain_rz(psi.copy(), 0, k, src)
        if r:
            out = qsim.apply_gate(out, qsim.Z, [0])
        return out

    for bits, out in enumerate_hidden(run, 2):
        assert qsim.fidelity(out, target) > 1 - 1e-9


# (mode, j): every j of the rotation mode; the ty mode picks j from m
_GADGET_CASES = [("rotation", 0), ("rotation", 1), ("rotation", 2),
                 ("rotation", 3), ("ty", 0), ("ty", 2)]


@pytest.mark.parametrize("mode,j", _GADGET_CASES)
def test_uncertain_gadget_channel_matches_literal_on_every_branch(mode, j):
    """On all four (m, s) branches, for every data qubit of 1-3-qubit
    registers, the channel returns the literal gadget's (m, s, r) and its
    state, and the literal gadget's outcomes are all uniform."""
    rng = np.random.default_rng(_GADGET_CASES.index((mode, j)))
    for width in (1, 2, 3):
        for q in range(width):
            psi = qsim.random_state(width, rng)
            for bits in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                src_l, src_c = _RecordingBits(bits), FixedBits(bits)
                out_l, *flags_l = literal_uncertain_gadget(psi, q, j, src_l,
                                                           mode)
                out_c, *flags_c = rebit.uncertain_gadget(psi, q, j, src_c,
                                                         mode)
                assert src_l.pos == src_c.pos == 2
                assert np.allclose(src_l.p0s, 0.5, atol=1e-12)
                assert flags_l == flags_c
                assert qsim.fidelity(out_c, out_l) >= 1 - 1e-12


@pytest.mark.parametrize("width", [1, 2, 3])
def test_uncertain_gadget_channel_matches_literal_on_seeded_runs(width):
    """A chain of gadgets over every mode, j and data qubit, drawn from
    two equally seeded generators, gives the same outcomes and states and
    leaves both generators in the same state."""
    rng = np.random.default_rng(30 + width)
    psi = qsim.random_state(width, rng)
    src_l = RandomBits(np.random.default_rng(width))
    src_c = RandomBits(np.random.default_rng(width))
    st_l = st_c = psi
    for _ in range(10):
        for mode, j in _GADGET_CASES:
            q = int(rng.integers(width))
            st_l, *flags_l = literal_uncertain_gadget(st_l, q, j, src_l, mode)
            st_c, *flags_c = rebit.uncertain_gadget(st_c, q, j, src_c, mode)
            assert flags_l == flags_c
            assert qsim.fidelity(st_c, st_l) >= 1 - 1e-10
    assert (src_l.rng.bit_generator.state
            == src_c.rng.bit_generator.state)
