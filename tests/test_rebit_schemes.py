"""Remote Y-diagonal circuit evaluation: correctness, privacy, and audits."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhelab import cli, qsim, rebit, rebit_schemes as rs
from qhelab.harness import (ALICE, FixedBits, RandomBits, Transcript,
                            comm_audit, conjugate_frame, measure_with)


def gadget_layer_literal(state, layer, frames, source, transcript,
                         bob_local=()):
    """The literal EPR gadget for one Y-diagonal layer (the reference that
    rebit_schemes._gadget_layer, its channel, is checked against): per data
    qubit Alice spends one EPR pair (controlled-i*sigma_y from her half onto
    the data qubit, R_y(pi/2), Z measurement); Bob applies P or P-dagger per
    outcome, Z where his frame anticommutes with sigma_y, the joint
    group-circulant C, and Z measurements whose outcomes extend his frame."""
    qubits = list(layer.qubits)
    k = len(qubits)
    exp = rebit.ydiag_expand(layer.u)
    c_mat = rebit.build_c_matrix(exp)
    st = state
    a_idx, b_idx = [], []
    for q in qubits:
        st, a, b = qsim.epr_extend(st)
        a_idx.append(a)
        b_idx.append(b)
        st = qsim.apply_gate(st, qsim.C_IY, [a, q])
        st = qsim.apply_gate(st, qsim.ry(math.pi / 2), [a])
    m_bits = []
    for a in a_idx:
        m, st = measure_with(source, st, "Z", a)
        m_bits.append(m)
    sent = [m for q, m in zip(qubits, m_bits) if q not in bob_local]
    if transcript is not None and sent:
        transcript.record(ALICE, sent, tag="gadget-outcomes")
    # Bob's side
    for q, b, m in zip(qubits, b_idx, m_bits):
        st = qsim.apply_gate(st, qsim.P if m == 0 else qsim.P_DAG, [b])
        x, z = frames[q]
        if x ^ z:  # X or Z in the list anticommutes with sigma_y
            st = qsim.apply_gate(st, qsim.Z, [b])
    st = qsim.apply_gate(st, qsim.Gate("C", c_mat, k), b_idx)
    g_bits = []
    for b in b_idx:
        g, st = measure_with(source, st, "Z", b)
        g_bits.append(g)
    for q, g in zip(qubits, g_bits):
        if g:  # correction V(g)^dag ~ sigma_y on qubit q
            x, z = frames[q]
            frames[q] = (x ^ 1, z ^ 1)
    # drop measured ancillas, highest index first
    for idx, bit in sorted(zip(a_idx + b_idx, m_bits + g_bits), reverse=True):
        st = qsim.remove_qubit(st, idx, bit)
    return st


def physical_oracle(circuit, encoded_input):
    """Direct application of the physical layer unitaries (the correctness
    reference): each ydiag layer acts on its data qubits, each rz layer as
    controlled-R_y(j*pi) onto the phase qubit."""
    n = circuit.n
    st = encoded_input.copy()
    for layer in circuit.layers:
        if layer.kind == "ydiag":
            g = qsim.Gate("U", layer.u, len(layer.qubits))
            st = qsim.apply_gate(st, g, list(layer.qubits))
        else:
            st = qsim.apply_gate(st, rebit.controlled_ry(layer.j * math.pi),
                                 [layer.qubits[0], n])
    return st


def _pauli_from_bits(x, z):
    """X^x Z^z as a matrix."""
    m = np.eye(2, dtype=complex)
    if z:
        m = qsim._Z @ m
    if x:
        m = qsim._X @ m
    return m


def conjugate_frame_2q(gate_matrix, frame_c, frame_t):
    """Brute-force reference for the two-qubit frame rules: push the frame
    X^x Z^z (x, z) pairs on (control, target) through a two-qubit Clifford
    by trying all 16 candidate Paulis Q' for G Q G^dag ~ Q'."""
    q = np.kron(_pauli_from_bits(*frame_t), _pauli_from_bits(*frame_c))
    qq = gate_matrix @ q @ gate_matrix.conj().T
    for xc, zc, xt, zt in itertools.product((0, 1), repeat=4):
        cand = np.kron(_pauli_from_bits(xt, zt), _pauli_from_bits(xc, zc))
        coef = np.trace(cand.conj().T @ qq) / 4
        if abs(abs(coef) - 1) < 1e-8 and np.allclose(qq, coef * cand,
                                                     atol=1e-8):
            return (xc, zc), (xt, zt)
    raise ValueError("gate does not normalize the Pauli group")


@pytest.mark.parametrize("j", [1, 3])
def test_rz_layer_frame_rule_matches_brute_force(j):
    """The table's CRY rule, which every rz layer uses, equals the search
    over all 16 candidate Paulis on all 16 frames."""
    gate = rebit.controlled_ry(j * math.pi).matrix
    for xc, zc, xt, zt in itertools.product((0, 1), repeat=4):
        frames = {0: (xc, zc), 1: (xt, zt)}
        conjugate_frame(frames, "CRY", (0, 1))
        assert (frames[0], frames[1]) == conjugate_frame_2q(
            gate, (xc, zc), (xt, zt))


def _circuit_n2():
    return rs.AlmostCommutingCircuit(2, [
        rs.Layer("ydiag", (0, 1), u=rs.named_generator("ry_product", 2, 0.7)),
        rs.Layer("rz", (0,), j=1),
        rs.Layer("ydiag", (0, 1), u=rs.named_generator("ry_product", 2, 1.3)),
    ])


def _run_and_compare(runner, circuit, psi, seed):
    enc = qsim.QuantumState(rebit.rebit_encode(psi))
    run = runner(circuit, enc, RandomBits(np.random.default_rng(seed)))
    got = rebit.rebit_decode_logical(run.state)
    want = rs.logical_oracle(circuit, psi.vec)
    assert abs(abs(np.vdot(got, want)) - 1) < 1e-9
    return run


@pytest.mark.parametrize("seed", range(5))
def test_scheme1_matches_logical_oracle(seed):
    rng = np.random.default_rng(seed)
    circuit = rs.AlmostCommutingCircuit(2, [
        rs.Layer("ydiag", (1,), u=rs.named_generator("cos_sin", 1, 0.5)),
        rs.Layer("rz", (0,), j=3),
        rs.Layer("ydiag", (0, 1), u=rs.named_generator("ry_product", 2, 0.9)),
    ])
    _run_and_compare(rs.run_scheme1, circuit, qsim.random_state(2, rng), seed)


@pytest.mark.parametrize("seed", range(5))
def test_scheme2_matches_logical_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    _run_and_compare(rs.run_scheme2, _circuit_n2(),
                     qsim.random_state(2, rng), seed)


def test_scheme2_reply_is_two_bits_per_data_qubit():
    rng = np.random.default_rng(42)
    run = _run_and_compare(rs.run_scheme2, _circuit_n2(),
                           qsim.random_state(2, rng), 42)
    assert comm_audit(run.transcript, "Bob->Alice") == 2 * 2
    # one Alice bit per involved data qubit per ydiag layer
    assert comm_audit(run.transcript, "Alice->Bob") == 4


@pytest.mark.parametrize("seed", range(4))
def test_mask_variant_matches_logical_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    circuit = rs.AlmostCommutingCircuit(2, [
        rs.Layer("ydiag", (0, 1), u=rs.named_generator("ry_product", 2, 0.6)),
        rs.Layer("rz", (0,), j=1),
    ])
    psi = qsim.random_state(2, rng)
    enc = qsim.QuantumState(rebit.rebit_encode(psi))
    run = rs.simplified_mask_variant(circuit, enc,
                                     RandomBits(np.random.default_rng(seed)))
    got = rebit.rebit_decode_logical(run.state)
    want = rs.logical_oracle(circuit, psi.vec)
    assert abs(abs(np.vdot(got, want)) - 1) < 1e-9
    # Bob-local qubit outcomes stay off the transcript: 1 Alice bit per layer
    assert comm_audit(run.transcript, "Alice->Bob") == 1


def test_mask_variant_needs_two_qubits():
    circuit = rs.AlmostCommutingCircuit(1, [
        rs.Layer("ydiag", (0,), u=rs.named_generator("ry_product", 1, 0.4))])
    with pytest.raises(ValueError):
        rs.simplified_mask_variant(circuit, qsim.basis_state(2, 0),
                                   RandomBits(np.random.default_rng(0)))


def test_layer_validation():
    with pytest.raises(ValueError):
        rs.AlmostCommutingCircuit(1, [rs.Layer("ydiag", (0,), u=qsim.H.matrix)])
    with pytest.raises(ValueError):
        rs.AlmostCommutingCircuit(1, [rs.Layer("rz", (0,), j=2)])
    with pytest.raises(ValueError):
        rs.AlmostCommutingCircuit(1, [rs.Layer("what", (0,))])
    with pytest.raises(ValueError):
        rs.AlmostCommutingCircuit(1, [
            rs.Layer("ydiag", (1,), u=rs.named_generator("ry_product", 1, 0.1))])
    with pytest.raises(ValueError):
        rs.AlmostCommutingCircuit(2, [
            rs.Layer("ydiag", (0, 1), u=rs.named_generator("exp_yy", 2, 0.3))])
    # complex Y-diagonal layers are allowed when require_real is off
    rs.AlmostCommutingCircuit(
        2, [rs.Layer("ydiag", (0, 1), u=rs.named_generator("exp_yy", 2, 0.3))],
        require_real=False)


def test_layer_refuses_a_bad_factor():
    """An ry_product-style layer is checked factor by factor: a factor that
    is not Y-diagonal, not real or not unitary is refused, wherever it
    sits in the product."""
    ry = qsim.ry(0.7).matrix
    bad = [(qsim.H.matrix, "not Y-diagonal"), (1j * ry, "not real"),
           (2 * ry, "not unitary")]
    for (factor, message), pos in itertools.product(bad, range(3)):
        factors = [ry] * 3
        factors[pos] = factor
        with pytest.raises(ValueError, match=message):
            rs.AlmostCommutingCircuit(3, [
                rs.Layer("ydiag", (0, 1, 2), factors=tuple(factors))])
    # a complex Y-diagonal factor is allowed when require_real is off
    rs.AlmostCommutingCircuit(2, [rs.Layer("ydiag", (0, 1),
                                           factors=(ry, 1j * ry))],
                              require_real=False)
    with pytest.raises(ValueError, match="qubit count"):
        rs.Layer("ydiag", (0, 1), factors=(ry,))


_FACTORS = {
    "ry": lambda t: qsim.ry(t).matrix,
    "i*ry": lambda t: 1j * qsim.ry(t).matrix,       # Y-diagonal, complex
    "exp_y": lambda t: rs.named_generator("exp_yy", 1, t),
    "rx": lambda t: np.array([[math.cos(t / 2), -1j * math.sin(t / 2)],
                              [-1j * math.sin(t / 2), math.cos(t / 2)]]),
    "h": lambda t: qsim.H.matrix,
    "t": lambda t: qsim.T.matrix,
}


@given(st.lists(st.tuples(st.sampled_from(sorted(_FACTORS)),
                          st.floats(-3, 3)), min_size=1, max_size=4))
@settings(deadline=None, max_examples=100)
def test_factor_checks_agree_with_the_dense_checks(spec):
    """The factor route refuses a non-Y-diagonal product exactly when the
    dense is_y_diagonal of its kron does, and what it accepts passes every
    dense check; its u is the kron chain named_generator builds."""
    factors = tuple(_FACTORS[name](theta) for name, theta in spec)
    k = len(factors)
    dense = np.array([[1.0 + 0j]])
    for f in factors:
        dense = np.kron(dense, f)
    try:
        layer = rs.Layer("ydiag", tuple(range(k)), factors=factors)
    except ValueError as err:
        assert "not Y-diagonal" in str(err)
        assert not rebit.is_y_diagonal(dense)
        return
    assert rebit.is_y_diagonal(dense)
    assert layer.u.tobytes() == dense.tobytes()
    assert layer.gate.matrix is layer.u and layer.gate.arity == k
    qsim.Gate("U", layer.u, k)  # the dense unitarity check
    if layer.real:
        assert np.max(np.abs(layer.u.imag)) <= rs.ATOL
        rs.AlmostCommutingCircuit(k, [layer])
    else:
        with pytest.raises(ValueError, match="not real"):
            rs.AlmostCommutingCircuit(k, [layer])


@pytest.mark.parametrize("k", range(1, 6))
def test_ry_product_layer_has_the_dense_generator_bytes(k):
    ry = qsim.ry(0.9).matrix
    layer = rs.Layer("ydiag", tuple(range(k)), factors=(ry,) * k)
    assert layer.u.tobytes() == rs.named_generator("ry_product", k,
                                                   0.9).tobytes()


def test_validate_for_scheme_restrictions():
    c1 = rs.AlmostCommutingCircuit(2, [rs.Layer("rz", (1,), j=1)])
    with pytest.raises(ValueError):
        c1.validate_for(1)
    c2 = rs.AlmostCommutingCircuit(2, [
        rs.Layer("ydiag", (0,), u=rs.named_generator("ry_product", 1, 0.2))])
    with pytest.raises(ValueError):
        c2.validate_for(2)


def literal_bob_view(circuit, input_state, scheme=2):
    """Bob's view with literal EPR gadgets (the reference that
    rebit_schemes.bob_view, its channel, is checked against): Alice's side
    is simulated coherently and her measured ancillas are projected branch
    by branch.  Returns {m: (prob, rho)}, rho the density of Bob's halves
    given the message m, the first gadget's half lowest."""
    circuit.validate_for(scheme)
    n = circuit.n
    st = input_state.copy()
    a_idx = []
    for layer in circuit.layers:
        if layer.kind == "ydiag":
            for q in layer.qubits:
                st, a, _ = qsim.epr_extend(st)
                a_idx.append(a)
                st = qsim.apply_gate(st, qsim.C_IY, [a, q])
                st = qsim.apply_gate(st, qsim.ry(math.pi / 2), [a])
        else:
            st = qsim.apply_gate(st, rebit.controlled_ry(layer.j * math.pi),
                                 [layer.qubits[0], n])
    total = st.num_qubits
    vec = st.vec.reshape((2,) * total)
    view = {}
    for m in itertools.product((0, 1), repeat=len(a_idx)):
        sel = [slice(None)] * total
        for a, bit in zip(a_idx, m):
            sel[total - 1 - a] = bit
        # the data and phase qubits lowest, then the halves in order
        halves = vec[tuple(sel)].reshape(-1, 2 ** (n + 1))
        p = float(np.linalg.norm(halves) ** 2)
        view[m] = (p, halves @ halves.conj().T / p)
    return view


def _z_mask(m):
    """Diagonal of the product of Z on each half whose message bit is 0."""
    diag = np.ones(2 ** len(m))
    for i, bit in enumerate(m):
        if bit == 0:
            diag *= 1 - 2 * ((np.arange(diag.size) >> i) & 1)
    return diag


def _view_cases():
    """(circuit, scheme) pairs: random circuits of schemes 1 and 2 with 1-2
    data qubits and 1-3 layers, and a complex Y-diagonal layer."""
    rng = np.random.default_rng(8)
    cases = []
    for scheme in ("1", "2"):
        for n in (1, 2):
            for depth in (1, 2, 3):
                cases.append((cli.random_accircuit(scheme, n, depth, rng),
                              int(scheme)))
    cases.append((rs.AlmostCommutingCircuit(2, [
        rs.Layer("ydiag", (0, 1), u=rs.named_generator("exp_yy", 2, 0.3)),
        rs.Layer("rz", (0,), j=3),
        rs.Layer("ydiag", (0, 1), u=rs.named_generator("ry_product", 2, 1.2)),
    ], require_real=False), 2))
    return cases


def _encoded_inputs(n, rng):
    """Two complex inputs and one real one, rebit-encoded."""
    real = rng.normal(size=2 ** n)
    states = [qsim.random_state(n, rng), qsim.random_state(n, rng),
              qsim.QuantumState((real / np.linalg.norm(real)).astype(complex))]
    return [qsim.QuantumState(rebit.rebit_encode(psi)) for psi in states]


def test_bob_view_channel_matches_literal_view():
    """Every message m of the literal view has probability 2^-G for G
    gadgets, its density is the channel's view conjugated by Z^(1-m), and
    the literal distance (sum over m) equals the channel views' distance."""
    rng = np.random.default_rng(9)
    for circuit, scheme in _view_cases():
        views, literals = [], []
        for enc in _encoded_inputs(circuit.n, rng):
            view = rs.bob_view(circuit, enc, scheme=scheme)
            literal = literal_bob_view(circuit, enc, scheme=scheme)
            gadgets = sum(len(layer.qubits) for layer in circuit.layers
                          if layer.kind == "ydiag")
            assert len(literal) == 2 ** gadgets
            assert view.shape == (2 ** gadgets,) * 2
            for m, (p, rho) in literal.items():
                assert abs(p - 2.0 ** -gadgets) < 1e-12
                z = _z_mask(m)
                assert np.allclose(rho, z[:, None] * view * z[None, :],
                                   atol=1e-12)
            views.append(view)
            literals.append(literal)
        for i, j in ((0, 1), (0, 2), (1, 2)):
            summed = sum(qsim.trace_distance(pa * ra, pb * rb)
                         for (pa, ra), (pb, rb)
                         in zip(literals[i].values(), literals[j].values()))
            assert abs(summed - qsim.trace_distance(views[i], views[j])) \
                < 1e-12


def test_bob_view_is_input_independent():
    """Scheme 2 privacy: Bob's full view (message plus gadget halves) is the
    same density matrix for any two inputs.  A circuit without gadgets
    leaves Bob nothing: the 1x1 view [[1]]."""
    gadget = rs.AlmostCommutingCircuit(1, [
        rs.Layer("ydiag", (0,), u=rs.named_generator("ry_product", 1, 0.8)),
        rs.Layer("rz", (0,), j=1),
    ])
    rz_only = rs.AlmostCommutingCircuit(1, [rs.Layer("rz", (0,), j=1),
                                            rs.Layer("rz", (0,), j=3)])
    for circuit in (gadget, rz_only):
        rng = np.random.default_rng(3)
        views = []
        for psi in (qsim.random_state(1, rng), qsim.random_state(1, rng),
                    qsim.basis_state(1, 0)):
            enc = qsim.QuantumState(rebit.rebit_encode(psi))
            views.append(rs.bob_view(circuit, enc, scheme=2))
        assert qsim.trace_distance(views[0], views[1]) < 1e-9
        assert qsim.trace_distance(views[0], views[2]) < 1e-9
    # the views of the gadget-free circuit
    assert np.allclose(views[0], [[1.0]], atol=1e-12)
    assert qsim.trace_distance(views[0], views[1]) < 1e-15


def test_physical_oracle_agrees_with_logical():
    circuit = _circuit_n2()
    rng = np.random.default_rng(11)
    psi = qsim.random_state(2, rng)
    enc = qsim.QuantumState(rebit.rebit_encode(psi))
    phys = physical_oracle(circuit, enc)
    got = rebit.rebit_decode_logical(phys)
    want = rs.logical_oracle(circuit, psi.vec)
    assert abs(abs(np.vdot(got, want)) - 1) < 1e-10


class _RecordingBits(FixedBits):
    """FixedBits that also records the p0 of every drawn outcome."""

    def __init__(self, bits):
        super().__init__(bits)
        self.p0s = []

    def outcome(self, p0):
        self.p0s.append(p0)
        return super().outcome(p0)


# (qubits, generator, require_real)
_GADGET_LAYERS = [
    ((2,), rs.named_generator("ry_product", 1, 0.7), True),
    ((3, 1), rs.named_generator("ry_product", 2, 1.1), True),
    ((0, 2, 3), rs.named_generator("cos_sin", 3, 0.4), True),
    ((1, 0), rs.named_generator("exp_yy", 2, 0.3), False),
]


@pytest.mark.parametrize("bob_local", [False, True])
@pytest.mark.parametrize("qubits,u,real", _GADGET_LAYERS,
                         ids=["k1", "k2", "k3", "k2-complex"])
def test_gadget_channel_matches_literal_gadget(qubits, u, real, bob_local):
    """Over every outcome string and every anticommute mask, the channel
    draws the same bits, sends the same transcript, leaves the same frames
    and the same state as the literal EPR gadget, whose outcomes are all
    uniform."""
    k = len(qubits)
    layer = rs.Layer("ydiag", qubits, u=u)
    rs.AlmostCommutingCircuit(4, [layer], require_real=real)  # a legal layer
    rng = np.random.default_rng(k + 10 * bob_local)
    local = {qubits[-1]} if bob_local else set()
    for anti in itertools.product((0, 1), repeat=k):
        frames = {q: (0, 0) for q in range(5)}
        for q, bit in zip(qubits, anti):
            x = int(rng.integers(2))
            frames[q] = (x, x ^ bit)
        psi = qsim.random_state(5, rng)
        before = psi.vec.copy()
        for bits in itertools.product((0, 1), repeat=2 * k):
            src_l, src_c = _RecordingBits(bits), FixedBits(bits)
            tr_l, tr_c = Transcript(), Transcript()
            fr_l, fr_c = dict(frames), dict(frames)
            out_l = gadget_layer_literal(psi, layer, fr_l, src_l, tr_l, local)
            out_c = rs._gadget_layer(psi, layer, fr_c, src_c, tr_c, local)
            assert src_l.pos == src_c.pos == 2 * k
            assert np.allclose(src_l.p0s, 0.5, atol=1e-12)
            assert tr_l.serialize() == tr_c.serialize()
            assert fr_l == fr_c
            assert qsim.fidelity(out_c, out_l) >= 1 - 1e-12
            assert np.array_equal(psi.vec, before)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rebit_runs_stay_on_the_data_register(monkeypatch, n):
    """Schemes 1 and 2 and the mask variant add no ancilla: no gate acts on
    more than the n data qubits plus the phase qubit, and no EPR pair,
    measurement or ancilla removal happens.  Nor do Bob's view and the
    uncertain-rotation gadget, whose registers are wider."""
    widths = []
    apply_gate = qsim.apply_gate

    def traced(state, gate, targets):
        widths.append(state.num_qubits)
        return apply_gate(state, gate, targets)

    def forbidden(*args, **kwargs):
        raise AssertionError("the channel needs no ancilla")

    monkeypatch.setattr(qsim, "apply_gate", traced)
    for name in ("epr_extend", "measure", "remove_qubit"):
        monkeypatch.setattr(qsim, name, forbidden)
    rng = np.random.default_rng(n)
    runners = [("1", rs.run_scheme1), ("2", rs.run_scheme2)]
    if n >= 2:
        runners.append(("1", rs.simplified_mask_variant))
    for scheme, runner in runners:
        for _ in range(3):
            circuit = cli.random_accircuit(scheme, n, 4, rng)
            enc = qsim.QuantumState(rebit.rebit_encode(qsim.random_state(n, rng)))
            runner(circuit, enc, RandomBits(rng))
    assert widths and max(widths) == n + 1
    for scheme in (1, 2):
        circuit = cli.random_accircuit(str(scheme), n, 4, rng)
        enc = qsim.QuantumState(rebit.rebit_encode(qsim.random_state(n, rng)))
        rs.bob_view(circuit, enc, scheme=scheme)
    for q in range(n):
        for mode in ("rotation", "ty"):
            rebit.uncertain_gadget(qsim.random_state(n, rng), q, 1,
                                   RandomBits(rng), mode)
