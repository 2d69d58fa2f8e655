"""Rebit encoding and the remote Y-rotation machinery.

A complex n-qubit state is stored as a real state on n+1 qubits: the
amplitude a+bi on basis |x> becomes a on |x>|0> plus b on |x>|1>, with the
phase qubit always the highest index.  Real Y-diagonal unitaries act on
such states without touching the phase qubit; a logical R_z(theta) becomes
a controlled-R_y(2*theta) from the data qubit onto the phase qubit.

The uncertain-rotation gadget runs as the channel its EPR pair implements:
two uniform outcomes and one Y rotation, with no ancilla.

Y eigenbasis convention: |y+-> = (|0> +- i|1>)/sqrt(2).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qsim

ATOL = 1e-9


def rebit_encode(psi) -> np.ndarray:
    """Real statevector on n+1 qubits for a complex one on n qubits."""
    psi = psi.vec if isinstance(psi, qsim.QuantumState) else np.asarray(psi, dtype=complex)
    return np.concatenate([psi.real, psi.imag]).astype(complex)


def rebit_decode(enc) -> np.ndarray:
    enc = enc.vec if isinstance(enc, qsim.QuantumState) else np.asarray(enc, dtype=complex)
    if np.max(np.abs(enc.imag)) > ATOL:
        raise ValueError("rebit state has non-real amplitudes")
    half = enc.size // 2
    return enc.real[:half] + 1j * enc.real[half:]


def normalize_global_phase(vec) -> np.ndarray:
    """Rotate a statevector so its largest-magnitude amplitude is real
    positive (global phase is unobservable)."""
    vec = vec.vec if isinstance(vec, qsim.QuantumState) else np.asarray(vec, dtype=complex)
    idx = int(np.argmax(np.abs(vec)))
    phase = vec[idx] / abs(vec[idx])
    return vec / phase


def rebit_decode_logical(enc) -> np.ndarray:
    """Decode an encoded state that may carry a residual sigma_y on the
    phase qubit; that residual is a global phase of the logical state, so
    stripping the physical global phase first makes the amplitudes real."""
    return rebit_decode(normalize_global_phase(enc))


def controlled_ry(theta: float) -> qsim.Gate:
    return qsim.controlled(qsim.ry(theta).matrix, f"C-Ry({theta:g})")


# --- Y-diagonal expansion -------------------------------------------------

_W = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2)  # cols |y+>, |y->


def pauli_y_product(f: int, k: int) -> np.ndarray:
    """V(f) = tensor product of sigma_y^{f_i} over qubits, little-endian f."""
    out = np.array([[1.0 + 0j]])
    for q in range(k - 1, -1, -1):
        out = qsim._kron(out, qsim._Y if (f >> q) & 1 else qsim._I)
    return out


@dataclass
class YDiagExpansion:
    k: int
    c: np.ndarray  # length 2^k, c[f] indexed by the group element's bits


@functools.lru_cache(maxsize=None)
def _w_power(k: int) -> tuple:
    """W^{kron k} and its adjoint, built once per k by the kron chain from
    [[1]] and read-only, so no caller can change what the next one reads."""
    w = np.array([[1.0 + 0j]])
    for _ in range(k):
        w = qsim._kron(w, _W)
    w_dag = w.conj().T
    w.setflags(write=False)
    w_dag.setflags(write=False)
    return w, w_dag


def is_y_diagonal(u: np.ndarray) -> bool:
    w, w_dag = _w_power(int(round(math.log2(u.shape[0]))))
    d = w_dag @ u @ w
    return bool(np.abs(d - np.diag(np.diag(d))).max() < ATOL)


def ydiag_expand(u: np.ndarray) -> YDiagExpansion:
    u = np.asarray(u, dtype=complex)
    k = int(round(math.log2(u.shape[0])))
    if not is_y_diagonal(u):
        raise ValueError("operator is not diagonal in the Y eigenbasis")
    dim = 2 ** k
    c = np.array([np.trace(pauli_y_product(f, k).conj().T @ u) / dim
                  for f in range(dim)])
    return YDiagExpansion(k, c)


def build_c_matrix(exp: YDiagExpansion) -> np.ndarray:
    """Group-circulant C[g][f] = c(g xor f); raises if not unitary."""
    dim = 2 ** exp.k
    c_mat = np.empty((dim, dim), dtype=complex)
    for g in range(dim):
        for f in range(dim):
            c_mat[g, f] = exp.c[g ^ f]
    if not np.allclose(c_mat @ c_mat.conj().T, np.eye(dim), atol=1e-8):
        raise ValueError("expansion does not yield a unitary C matrix")
    return c_mat


# --- the uncertain-rotation gadget ---------------------------------------

def correction_flag(m: int, s: int, j: int, mode: str = "rotation") -> int:
    """Frozen correction table: the data qubit carries R_y(pi)^r times the
    target rotation.  Derived once by exhausting the four measurement
    branches symbolically; the gadget's channel applies it, and the tests
    check it against the literal EPR gadget on every branch."""
    if mode == "rotation":
        return s ^ ((j % 2) & (m ^ 1))
    if mode == "ty":
        return s ^ (m ^ 1)
    raise ValueError(f"unknown gadget mode {mode!r}")


def uncertain_gadget(state, data_qubit, j, source, mode="rotation"):
    """Fig.-style gadget: Bob's basis choice j selects which Y rotation hits
    the data qubit, up to an R_y(pi)^r correction known from (m, s, j).

    rotation mode: target R_y(j*pi/2), j in {0,1,2,3}.
    ty mode: target R_y(pi/4); Bob picks j in {1,3} from Alice's outcome m
    (j=1 if m=1 else 3) and rotates by j*pi/4.

    Runs as the channel the EPR gadget implements: Alice's outcome m and
    Bob's outcome s are uniform for every register state, because
    <psi|R_y(pi)_q|psi> is purely imaginary, and given them the data qubit
    carries R_y(pi)^r times the target, r = correction_flag(m, s, j, mode).
    The literal gadget is the reference in tests/test_rebit.py.

    Returns (state, m, s, r).
    """
    if mode == "rotation" and j not in (0, 1, 2, 3):
        raise ValueError("j must be in {0,1,2,3}")
    m = source.outcome(0.5)
    s = source.outcome(0.5)
    angle = math.pi / 4 if mode == "ty" else j * math.pi / 2
    r = correction_flag(m, s, j, mode)  # the ty row needs only (m, s)
    st = qsim.apply_gate(state, qsim.ry(angle + r * math.pi), [data_qubit])
    return st, m, s, r
