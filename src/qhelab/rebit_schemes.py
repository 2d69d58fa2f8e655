"""Remote evaluation of Y-diagonal circuits (schemes 1 and 2).

Alice holds the n data qubits plus the phase qubit.  Each Y-diagonal layer
is applied remotely: per involved data qubit Alice burns one EPR pair
(controlled-i*sigma_y from her half onto the data qubit, R_y(pi/2), Z
measurement, outcome sent to Bob); Bob applies P or P-dagger per outcome,
Z gates where his Pauli list anticommutes with sigma_y, the joint
group-circulant C, and Z measurements whose outcomes extend his list by
R_y(pi) factors.  Fixed controlled-R_y(j*pi) gates (the encoded R_z layers)
are applied by Alice directly and pushed through Bob's list by Clifford
conjugation.  Bob's list is a Pauli frame of known bits, one (x, z) pair
per qubit; every update to it, the sigma_y factors included, goes through
`harness.conjugate_frame`, the rule table that schemes 5 and 6 use.  At
the end Bob discloses the data-qubit corrections: 2 bits per data qubit,
2n total.  The residual phase-qubit correction is always I or sigma_y, and
sigma_y on the phase qubit is a global phase on the decoded state, so it
is never sent.  The simulation runs each layer's
gadget as the channel it implements, with no EPR ancillas, and Bob's view
is one density on his gadget halves; the literal gadget and the literal
view are the references in tests/test_rebit_schemes.py.

Each `Layer` owns its `qsim.Gate`, checked once when the layer is built;
an ry_product layer is checked factor by factor, so a register-wide layer
never gets a dense check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qsim, rebit
from .harness import ALICE, BOB, Transcript, conjugate_frame
# unused here, but the bench tracer's self-test checks this binding
from .harness import measure_with  # noqa: F401

ATOL = 1e-9

# the rz layers' gates, by j: physical controlled-R_y(j*pi) onto the phase
# qubit, and logical R_z(j*pi/2) = diag(1, i^j)
_CRY = {j: rebit.controlled_ry(j * math.pi) for j in (1, 3)}
_RZ = {j: qsim.Gate("Rz", np.diag([1, 1j ** j]), 1) for j in (1, 3)}


@dataclass
class Layer:
    """One circuit layer.  A ydiag layer is given as its dense unitary `u`
    or, for a product of one-qubit rotations (an ry_product layer), as its
    2x2 `factors`, the first on the highest of its qubits; then `u` is set
    to their kron.  The layer owns its `gate` and is checked once, at
    construction: a dense `u` by the dense unitarity and Y-diagonal checks,
    a product by its factors', since a kron of unitary, Y-diagonal (real)
    factors is unitary, Y-diagonal (real)."""
    kind: str                 # "ydiag" or "rz"
    qubits: tuple             # data qubits the layer touches
    u: np.ndarray | None = None   # ydiag: 2^K x 2^K unitary
    j: int | None = None          # rz: R_z(j*pi/2) with j in {1, 3}
    factors: tuple | None = None  # ydiag: 2x2 factors whose kron is u
    gate: qsim.Gate | None = field(default=None, init=False, repr=False)
    real: bool = field(default=True, init=False, repr=False)

    def __post_init__(self):
        if self.kind != "ydiag":
            return
        if self.factors is None:
            self.gate = qsim.Gate("U", self.u, len(self.qubits))
            checked = [self.gate.matrix]
        else:
            gates = {}  # one check per distinct factor; a product often repeats one
            for f in self.factors:
                if id(f) not in gates:
                    gates[id(f)] = qsim.Gate("factor", f, 1)
            self.gate = qsim.Gate.product(
                "U", [gates[id(f)] for f in self.factors])
            if self.gate.arity != len(self.qubits):
                raise ValueError("layer qubit count does not match its factors")
            self.u = self.gate.matrix
            checked = [g.matrix for g in gates.values()]
        if not all(rebit.is_y_diagonal(m) for m in checked):
            raise ValueError("layer unitary is not Y-diagonal")
        self.real = max(np.max(np.abs(m.imag)) for m in checked) <= ATOL


@dataclass
class AlmostCommutingCircuit:
    n: int
    layers: list
    require_real: bool = True

    def __post_init__(self):
        for layer in self.layers:
            if layer.kind == "ydiag":
                if self.require_real and not layer.real:
                    raise ValueError("layer unitary is not real")
            elif layer.kind == "rz":
                if layer.j not in (1, 3):
                    raise ValueError("rz layers allow j in {1, 3} only")
            else:
                raise ValueError(f"unknown layer kind {layer.kind!r}")
            if any(q < 0 or q >= self.n for q in layer.qubits):
                raise ValueError("layer touches a qubit out of range")

    def validate_for(self, scheme: int):
        for layer in self.layers:
            if scheme == 1 and layer.kind == "rz" and layer.qubits != (0,):
                raise ValueError("scheme 1 allows rz layers on the first data "
                                 "qubit only")
            if scheme == 2 and layer.kind == "ydiag" and \
                    tuple(sorted(layer.qubits)) != tuple(range(self.n)):
                raise ValueError("scheme 2 requires ydiag layers on all qubits")


def named_generator(name: str, k: int, theta: float) -> np.ndarray:
    """Stock Y-diagonal layer generators for random circuits and tests."""
    if name == "ry_product":
        out = np.array([[1.0 + 0j]])
        for _ in range(k):
            out = np.kron(out, qsim.ry(theta).matrix)
        return out
    if name == "cos_sin":
        # cos(theta) I + sin(theta) R_y(pi)^{ox k}; real and unitary for odd k
        ryp = np.array([[1.0 + 0j]])
        for _ in range(k):
            ryp = np.kron(ryp, qsim.ry(math.pi).matrix)
        return math.cos(theta) * np.eye(2 ** k) + math.sin(theta) * ryp
    if name == "exp_yy":
        yy = np.array([[1.0 + 0j]])
        for _ in range(k):
            yy = np.kron(yy, qsim._Y)
        return math.cos(theta) * np.eye(2 ** k) - 1j * math.sin(theta) * yy
    raise ValueError(f"unknown generator {name!r}")


def logical_oracle(circuit: AlmostCommutingCircuit, psi: np.ndarray) -> np.ndarray:
    """Logical-level reference for real circuits: ydiag layers act directly,
    rz layers as R_z(j*pi/2) = diag(1, i^j) on the target."""
    st = qsim.QuantumState(psi)
    for layer in circuit.layers:
        if layer.kind == "ydiag":
            st = qsim.apply_gate(st, layer.gate, list(layer.qubits))
        else:
            st = qsim.apply_gate(st, _RZ[layer.j], [layer.qubits[0]])
    return st.vec


@dataclass
class SchemeRun:
    state: qsim.QuantumState          # corrected physical output (n+1 qubits)
    transcript: Transcript


def _gadget_layer(state, layer, frames, source, transcript, bob_local=()):
    """One Y-diagonal layer, run as the channel its EPR gadget implements.

    Alice's K gadget outcomes m and Bob's K outcomes g are uniform and
    independent of the data, drawn in that order.  Given g, the layer acts
    on its data qubits as Y^g Z^a U Z^a, where a marks the qubits whose
    frame anticommutes with sigma_y; each g_q = 1 adds sigma_y to the frame
    of qubit q.  `bob_local` marks data qubits Bob holds himself (mask
    variant); their Alice-side outcomes stay off the transcript.
    """
    qubits = list(layer.qubits)
    m_bits = [source.outcome(0.5) for _ in qubits]
    sent = [m for q, m in zip(qubits, m_bits) if q not in bob_local]
    if transcript is not None and sent:
        transcript.record(ALICE, sent, tag="gadget-outcomes")
    g_bits = [source.outcome(0.5) for _ in qubits]
    anti = [q for q in qubits if frames[q][0] ^ frames[q][1]]
    st = state
    for q in anti:
        st = qsim.apply_gate(st, qsim.Z, [q])
    st = qsim.apply_gate(st, layer.gate, qubits)
    for q in anti:
        st = qsim.apply_gate(st, qsim.Z, [q])
    for q, g in zip(qubits, g_bits):
        if g:
            st = qsim.apply_gate(st, qsim.Y, [q])
            conjugate_frame(frames, "Y", (q,))
    return st


def _run(circuit, input_state, source, scheme, mask_bits=None):
    circuit.validate_for(scheme)
    n = circuit.n
    st = input_state.copy()
    if st.num_qubits != n + 1:
        raise ValueError("input must be the encoded state on n+1 qubits")
    transcript = Transcript()
    frames = {q: (0, 0) for q in range(n + 1)}  # (x, z) per qubit, n = phase
    bob_local = set()
    if mask_bits is not None:
        # mask variant: last n-1 data qubits get R_y(pi)^mask and move to Bob
        for q, mb in zip(range(1, n), mask_bits):
            if mb:
                st = qsim.apply_gate(st, qsim.ry(math.pi), [q])
            bob_local.add(q)
    for layer in circuit.layers:
        if layer.kind == "ydiag":
            st = _gadget_layer(st, layer, frames, source, transcript, bob_local)
        else:
            d = layer.qubits[0]
            st = qsim.apply_gate(st, _CRY[layer.j], [d, n])
            conjugate_frame(frames, "CRY", (d, n))
    # Bob sends the data-qubit corrections: 2 bits per data qubit
    correction_bits = []
    for q in range(n):
        correction_bits.extend(frames[q])
    transcript.record(BOB, correction_bits, tag="corrections")
    for q in range(n):
        x, z = frames[q]
        if x:
            st = qsim.apply_gate(st, qsim.X, [q])
        if z:
            st = qsim.apply_gate(st, qsim.Z, [q])
    if mask_bits is not None:
        for q, mb in zip(range(1, n), mask_bits):
            if mb:
                st = qsim.apply_gate(st, qsim.ry(-math.pi), [q])
    px, pz = frames[n]
    if px != pz:
        raise AssertionError("phase-qubit frame left {I, Y}; bookkeeping bug")
    return SchemeRun(state=st, transcript=transcript)


def run_scheme1(circuit, input_state, source):
    return _run(circuit, input_state, source, scheme=1)


def run_scheme2(circuit, input_state, source):
    return _run(circuit, input_state, source, scheme=2)


def simplified_mask_variant(circuit, input_state, source):
    """Scheme 1 with the last n-1 data qubits R_y(pi)-masked and physically
    held by Bob; their gadget ancillas are Bob-local and their outcomes never
    enter the transcript."""
    if circuit.n < 2:
        raise ValueError("mask variant needs n >= 2")
    mask_bits = [source.bit("mask") for _ in range(circuit.n - 1)]
    return _run(circuit, input_state, source, scheme=1, mask_bits=mask_bits)


# --- Bob-view privacy computation ----------------------------------------

def bob_view(circuit, input_state, scheme=2):
    """Bob's exact view before his own processing (a fixed channel given
    the message, so it cannot increase distinguishability): the density of
    his gadget halves, one qubit per gadget, the first gadget's half lowest.

    Alice's outcome m on each gadget is uniform for every input, and given
    m Bob's half is his half of "|+> controlling i*sigma_y onto the data
    qubit" conjugated by Z^(1-m), a unitary that m fixes.  So the message
    adds nothing to the distance between two views, and the view is the
    one density below; a circuit without gadgets leaves Bob nothing, the
    1x1 density [[1]].  The literal EPR version, one density per message,
    is the reference in tests/test_rebit_schemes.py.
    """
    circuit.validate_for(scheme)
    n = circuit.n
    st = input_state
    plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
    for layer in circuit.layers:
        if layer.kind == "ydiag":
            for q in layer.qubits:
                st = qsim.QuantumState(np.kron(plus, st.vec))
                st = qsim.apply_gate(st, qsim.C_IY, [st.num_qubits - 1, q])
        else:
            st = qsim.apply_gate(st, _CRY[layer.j], [layer.qubits[0], n])
    halves = st.vec.reshape(-1, 2 ** (n + 1))
    return halves @ halves.conj().T
