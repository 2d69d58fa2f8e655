"""Dense simulation core: states, gates, measurements, and information measures.

Conventions used throughout the package:

- Qubit 0 is the least significant bit of the computational-basis index
  (little-endian).  The basis label |q_{n-1} ... q_1 q_0> therefore reads
  right to left.
- R_y(theta) = exp(-i theta sigma_y / 2), so R_y(pi) = -i sigma_y.
- Global phase is never compared; state equality means fidelity >= 1 - tol.
- Bell measurement outcome (m_x, m_z) (`harness.bell_measure_with`) means
  the teleported qubit needs the correction X^{m_x} Z^{m_z}.
- A register is plain linear algebra: which party holds a qubit is the
  protocol code's bookkeeping, and a protocol whose measurements read a
  fixed classical channel (schemes 8 and 9) runs as that channel with no
  register.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-10


class ZeroProbabilityBranch(Exception):
    """A measurement outcome was forced onto a zero-probability branch."""


@dataclass
class Gate:
    name: str
    matrix: np.ndarray
    arity: int

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        dim = 2 ** self.arity
        if self.matrix.shape != (dim, dim):
            raise ValueError(f"gate {self.name}: matrix shape {self.matrix.shape} "
                             f"does not match arity {self.arity}")
        if not np.allclose(self.matrix @ self.matrix.conj().T, np.eye(dim), atol=ATOL):
            raise ValueError(f"gate {self.name} is not unitary")


# single-qubit constants
_I = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)

I = Gate("I", _I, 1)
X = Gate("X", _X, 1)
Y = Gate("Y", _Y, 1)
Z = Gate("Z", _Z, 1)
H = Gate("H", _H, 1)
P = Gate("P", np.diag([1, 1j]), 1)           # phase gate, P|1> = i|1>
P_DAG = Gate("Pdg", np.diag([1, -1j]), 1)
T = Gate("T", np.diag([1, cmath.exp(1j * math.pi / 4)]), 1)


def ry(theta: float) -> Gate:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return Gate(f"Ry({theta:g})", np.array([[c, -s], [s, c]]), 1)


def controlled(u: np.ndarray, name: str) -> Gate:
    """Two-qubit controlled-U; gate slot 0 is the control, slot 1 the target.

    With little-endian slot indexing the joint index is (target, control),
    so the block acting when control=1 sits at odd rows/columns.
    """
    m = np.eye(4, dtype=complex)
    m[1, 1], m[1, 3] = u[0, 0], u[0, 1]
    m[3, 1], m[3, 3] = u[1, 0], u[1, 1]
    return Gate(name, m, 2)


CNOT = controlled(_X, "CNOT")
C_IY = controlled(1j * _Y, "C-iY")            # controlled i*sigma_y


class QuantumState:
    """Statevector over an ordered register."""

    def __init__(self, data):
        data = np.asarray(data, dtype=complex)
        if data.ndim != 1:
            raise ValueError("expected a statevector")
        n = int(round(math.log2(data.size)))
        if 2 ** n != data.size:
            raise ValueError("statevector length is not a power of 2")
        if abs(np.linalg.norm(data) - 1) > 1e-8:
            raise ValueError("statevector is not normalized")
        self.vec = data
        self.num_qubits = n

    def copy(self) -> "QuantumState":
        return QuantumState(self.vec.copy())

    def density(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


def basis_state(n: int, index: int = 0) -> QuantumState:
    v = np.zeros(2 ** n, dtype=complex)
    v[index] = 1.0
    return QuantumState(v)


def product_state(*single_qubit_vecs) -> QuantumState:
    """Build |v_{n-1}> x ... x |v_0> from per-qubit vectors listed for
    qubits 0, 1, ... in order (little-endian composition)."""
    out = np.array([1.0], dtype=complex)
    for v in single_qubit_vecs:
        out = np.kron(np.asarray(v, dtype=complex), out)
    out = out / np.linalg.norm(out)
    return QuantumState(out)


def random_state(n: int, rng) -> QuantumState:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return QuantumState(v / np.linalg.norm(v))


def _tensor_apply(arr: np.ndarray, n: int, u: np.ndarray, targets) -> np.ndarray:
    """Apply u on the given qubit axes of a rank-n tensor over axis set
    where axis (n-1-i) is qubit i."""
    k = len(targets)
    ut = u.reshape((2,) * (2 * k))
    in_axes = [2 * k - 1 - j for j in range(k)]
    arr_axes = [n - 1 - targets[j] for j in range(k)]
    res = np.tensordot(ut, arr, axes=(in_axes, arr_axes))
    # res: slot k-1..0 first, then the untouched axes in ascending order
    return np.moveaxis(res, range(k), [n - 1 - targets[k - 1 - j] for j in range(k)])


def apply_gate(state: QuantumState, gate: Gate, targets) -> QuantumState:
    if isinstance(targets, int):
        targets = [targets]
    targets = list(targets)
    n = state.num_qubits
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubits")
    if any(t < 0 or t >= n for t in targets):
        raise IndexError("target qubit out of range")
    if gate.arity != len(targets):
        raise ValueError(f"gate {gate.name} arity {gate.arity} != {len(targets)} targets")
    arr = _tensor_apply(state.vec.reshape((2,) * n), n, gate.matrix, targets)
    return QuantumState(arr.reshape(-1))


_BASIS_ROT = {"Z": None, "X": H, "Y": Gate("Wy", _H @ np.diag([1, -1j]), 1)}
# Wy maps the sigma_y eigenbasis to the computational basis: Wy|y+> = |0>.
_BASIS_ROT_INV = {basis: None if rot is None
                  else Gate("rot_inv", rot.matrix.conj().T, 1)
                  for basis, rot in _BASIS_ROT.items()}


def outcome_probability(state: QuantumState, qubit: int, basis: str = "Z"):
    """Return (p0, rotated_state) for a measurement of `qubit` in `basis`."""
    rot = _BASIS_ROT[basis]
    st = apply_gate(state, rot, [qubit]) if rot is not None else state
    n = st.num_qubits
    arr = st.vec.reshape((2,) * n)
    p0 = float(np.sum(np.abs(np.take(arr, 0, axis=n - 1 - qubit)) ** 2))
    return min(max(p0, 0.0), 1.0), st


def measure(state: QuantumState, basis: str, qubit: int, force):
    """Projective measurement; returns (outcome_bit, post_state).

    `force` picks the outcome: a bit, or a callable that receives p0 and
    returns the bit (sampling lives in the hidden-bit sources of
    `harness`).  It raises ZeroProbabilityBranch if that branch cannot
    occur.
    """
    p0, st = outcome_probability(state, qubit, basis)
    outcome = int(force(p0) if callable(force) else force)
    p = p0 if outcome == 0 else 1 - p0
    if p < 1e-12:
        raise ZeroProbabilityBranch(f"qubit {qubit} basis {basis} outcome {outcome}")
    n = st.num_qubits
    arr = st.vec.reshape((2,) * n).copy()
    sel = [slice(None)] * n
    sel[n - 1 - qubit] = 1 - outcome
    arr[tuple(sel)] = 0
    post = QuantumState(arr.reshape(-1) / math.sqrt(p))
    rot_inv = _BASIS_ROT_INV[basis]
    if rot_inv is not None:  # rotate back so the register stays in its own frame
        post = apply_gate(post, rot_inv, [qubit])
    return outcome, post


def epr_extend(state: QuantumState):
    """Append an EPR pair (|00>+|11>)/sqrt2 as the two highest qubits.

    Returns (state, index_first_half, index_second_half).
    """
    n = state.num_qubits
    epr = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    return QuantumState(np.kron(epr, state.vec)), n, n + 1


def remove_qubit(state: QuantumState, qubit: int, bit: int) -> QuantumState:
    """Drop a qubit known to be in the computational state |bit>."""
    n = state.num_qubits
    axis = n - 1 - qubit
    arr = np.take(state.vec.reshape((2,) * n), bit, axis=axis).reshape(-1)
    norm = np.linalg.norm(arr)
    if abs(norm - 1) > 1e-8:
        raise ValueError("qubit is not definitely in that basis state")
    return QuantumState(arr / norm)


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of rho - sigma.

    Two 1-D arguments are the diagonals of two states that share an
    eigenbasis (two probability vectors); their distance is 1/2 ||p - q||_1.
    """
    rho = rho.density() if isinstance(rho, QuantumState) else np.asarray(rho)
    sigma = sigma.density() if isinstance(sigma, QuantumState) else np.asarray(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("dimension mismatch")
    if rho.ndim == 1:
        diff = rho - sigma
        np.abs(diff, out=diff)  # one buffer: the rows may near the cap
        return 0.5 * float(np.sum(diff))
    eig = np.linalg.eigvalsh(rho - sigma)
    return 0.5 * float(np.sum(np.abs(eig)))


def fidelity(a, b) -> float:
    """|<a|b>|^2 for two pure states, each a QuantumState or a vector."""
    av = a.vec if isinstance(a, QuantumState) else np.asarray(a)
    bv = b.vec if isinstance(b, QuantumState) else np.asarray(b)
    return float(abs(np.vdot(av, bv)) ** 2)


def _entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 1e-12]
    plogp = np.log2(p)
    plogp *= p
    return float(-np.sum(plogp))


def mutual_information(joint) -> float:
    """I(X;Y) in bits from a joint probability table (rows X, columns Y)."""
    joint = np.asarray(joint, dtype=float)
    if np.any(joint < -1e-12):
        raise ValueError("negative probability")
    if abs(joint.sum() - 1) > 1e-9:
        raise ValueError("joint table does not sum to 1")
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return _entropy_bits(px) + _entropy_bits(py) - _entropy_bits(joint.reshape(-1))
