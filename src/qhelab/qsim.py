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
import functools
import math
from dataclasses import dataclass

import numpy as np

ATOL = 1e-10


class ZeroProbabilityBranch(Exception):
    """A measurement outcome was forced onto a zero-probability branch."""


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two 1-D or two 2-D arrays without its Python set-up: the
    same elementwise products a[i] * b[j], in the same order and dtype, so
    the same bytes, signed zeros included."""
    if a.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


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
        # np.allclose(U U^dagger, I, atol=ATOL) without its Python: the same
        # elementwise test |U U^dagger - I| <= ATOL + 1e-5 |I|
        eye = np.eye(dim)
        err = np.abs(self.matrix @ self.matrix.conj().T - eye)
        if not (err <= ATOL + 1e-5 * eye).all():
            raise ValueError(f"gate {self.name} is not unitary")

    @classmethod
    def product(cls, name: str, factors) -> "Gate":
        """The kron of checked gates, the first on the highest slots, built
        by the kron chain from [[1]].  A kron of unitaries is unitary, so
        the product skips the dense U U^dagger check that its factors
        passed."""
        matrix = np.array([[1.0 + 0j]])
        for f in factors:
            matrix = _kron(matrix, f.matrix)
        gate = cls.__new__(cls)
        gate.name, gate.matrix = name, matrix
        gate.arity = sum(f.arity for f in factors)
        return gate


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
        # np.linalg.norm's arithmetic for a complex vector, without its
        # Python; written so that a NaN norm is refused too
        re, im = data.real, data.imag
        if not abs(math.sqrt(re.dot(re) + im.dot(im)) - 1) <= 1e-8:
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


def random_state(n: int, rng) -> QuantumState:
    v = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    return QuantumState(v / np.linalg.norm(v))


def _tensor_apply(arr: np.ndarray, n: int, u: np.ndarray, targets) -> np.ndarray:
    """Apply u on the given qubit axes of a rank-n tensor over axis set
    where axis (n-1-i) is qubit i.

    This is the arithmetic of `np.tensordot` followed by `np.moveaxis`,
    without their Python set-up: one `np.dot` of u, its columns ordered
    with slot 0's bit highest, by the register with the target axes first
    (slot 0's axis first), then one transpose back.  The same dot call on
    the same operands gives the same bytes.
    """
    k = len(targets)
    if k > 1:
        u = u.reshape((2,) * (2 * k)).transpose(
            [*range(k), *range(2 * k - 1, k - 1, -1)]).reshape(2 ** k, 2 ** k)
    forward, back = _axes_plan(n, tuple(targets))
    res = np.dot(u, arr.transpose(forward).reshape(2 ** k, -1))
    return res.reshape((2,) * n).transpose(back)


@functools.lru_cache(maxsize=4096)
def _axes_plan(n: int, targets: tuple) -> tuple:
    """The transposes of `_tensor_apply`: target axes first (slot 0's
    first) then the rest in order, and back from the dot's axes, which are
    slot k-1..0 then the rest.  It refuses duplicate or out-of-range
    targets; a refusal is not cached, so every such call is refused."""
    if len(set(targets)) != len(targets):
        raise ValueError("duplicate target qubits")
    if any(t < 0 or t >= n for t in targets):
        raise IndexError("target qubit out of range")
    axes = [n - 1 - t for t in targets]
    rest = [a for a in range(n) if a not in axes]
    back = [0] * n
    for src, dest in enumerate(axes[::-1] + rest):
        back[dest] = src
    return tuple(axes + rest), tuple(back)


def apply_gate(state: QuantumState, gate: Gate, targets) -> QuantumState:
    if isinstance(targets, int):
        targets = [targets]
    targets = tuple(targets)
    n = state.num_qubits
    if gate.arity != len(targets):
        raise ValueError(f"gate {gate.name} arity {gate.arity} != {len(targets)} targets")
    # the kernel's axis plan refuses duplicate or out-of-range targets
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
    p0 = float((np.abs(arr.take(0, axis=n - 1 - qubit)) ** 2).sum())
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
    return QuantumState(_kron(epr, state.vec)), n, n + 1


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
    # the filtered p is a copy: overwrite it with p * log2(p) in slices, so
    # that no full-size log2 array is made
    p = p[p > 1e-12]
    for start in range(0, p.size, 2 ** 16):
        part = p[start:start + 2 ** 16]
        part *= np.log2(part)
    return float(-np.sum(p))


def mutual_information(joint) -> float:
    """I(X;Y) in bits from a joint probability table (rows X, columns Y)."""
    joint = np.asarray(joint, dtype=float)
    if joint.min() < -1e-12:
        raise ValueError("negative probability")
    if abs(joint.sum() - 1) > 1e-9:
        raise ValueError("joint table does not sum to 1")
    px = joint.sum(axis=1)
    py = joint.sum(axis=0)
    return _entropy_bits(px) + _entropy_bits(py) - _entropy_bits(joint.reshape(-1))
