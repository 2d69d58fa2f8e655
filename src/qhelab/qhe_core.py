"""Interactive evaluation of Clifford+T circuits on Pauli-masked data.

Alice teleports her data qubits to Bob withholding all correction bits, so
Bob holds the state under an unknown Pauli mask X^a Z^b per qubit.  Bob
tracks the mask as a Pauli frame: a pair of F2 linear forms (f_a_i, f_b_i)
per qubit over a fixed variable registry, Alice's 2n initial key bits
followed by 4 Bell-outcome bits per T gate.  A form is an int bitmask (bit
0 the constant, bit v+1 variable v), and every Clifford or Pauli gate
rewrites the frame through `harness.conjugate_frame`, the rule table that
schemes 1 and 2 use as well; Alice's bits never change.  A T gate leaves
an unwanted P^{f_a} which is removed by a distributed linear-polynomial
evaluation (scheme 4, distributed mode) feeding a two-party garden-hose
gadget that applies P-dagger exactly when the shares XOR to 1.  The gadget
runs as its equivalent channel, as teleportation does; its literal
4-EPR-pair version is a test reference.  At the end Bob teleports the
state back and one more distributed evaluation per key bit hands Alice her
Pauli corrections.

Scheme 6 is the same evaluation with Bob-side trap qubits whose checkpoint
measurements catch a cheating Alice with constant probability per trap;
one evaluator runs both schemes.  A trap never interacts with the data, so
each runs on its own one-qubit register with its own frame, and no register
is wider than the data register.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import qsim
from .harness import (ALICE, BOB, Transcript, as_source, conjugate_frame,
                      measure_with)
from .linpoly import LinearPolynomial, run_scheme4


# --- circuits -------------------------------------------------------------

_GATES = {"H": qsim.H, "P": qsim.P, "CNOT": qsim.CNOT, "T": qsim.T,
          "X": qsim.X, "Z": qsim.Z, "Y": qsim.Y}


@dataclass(frozen=True)
class CliffordTCircuit:
    n: int
    gates: tuple  # of (name, targets tuple)

    def __post_init__(self):
        norm = []
        for name, targets in self.gates:
            targets = (targets,) if isinstance(targets, int) else tuple(targets)
            if name not in _GATES:
                raise ValueError(f"unknown gate {name!r}")
            if len(targets) != _GATES[name].arity:
                raise ValueError(f"{name} expects {_GATES[name].arity} targets")
            if any(t < 0 or t >= self.n for t in targets):
                raise ValueError("gate target out of range")
            norm.append((name, targets))
        object.__setattr__(self, "gates", tuple(norm))

    @property
    def r_count(self) -> int:
        return sum(1 for name, _ in self.gates if name == "T")

    def apply(self, state: qsim.QuantumState) -> qsim.QuantumState:
        for name, targets in self.gates:
            state = qsim.apply_gate(state, _GATES[name], list(targets))
        return state


def random_clifford_t(n: int, r: int, rng):
    """Random circuit with exactly r T gates separated by bursts of one to
    three Clifford gates."""
    names = ["H", "P", "X", "Z", "Y"] + (["CNOT"] if n > 1 else [])
    gates = []
    for stage in range(r + 1):
        for _ in range(int(rng.integers(1, 4))):
            name = names[int(rng.integers(len(names)))]
            if name == "CNOT":
                i, j = rng.choice(n, size=2, replace=False)
                gates.append((name, (int(i), int(j))))
            else:
                gates.append((name, (int(rng.integers(n)),)))
        if stage < r:
            gates.append(("T", (int(rng.integers(n)),)))
    return CliffordTCircuit(n, tuple(gates))


# --- the garden-hose gadget -----------------------------------------------

def garden_hose(state, qubit, p, q, source):
    """Two-party P-dagger-if-(p XOR q) gadget, run as its equivalent channel.

    The literal gadget (Dulek, Schaffner and Speelman, arXiv:1603.09717)
    routes the data through 4 EPR pairs; tests/test_qhe_core.py keeps it as
    a reference.  Its seven measurement outcomes are uniform, so the channel
    draws them in the same order (Bob's bz, bx; Alice's m1z, m1x, m2z, m2x;
    the spare pair's bit) and applies X^{ax} Z^{az} (P-dagger)^{p^q}
    X^{bx} Z^{bz} to a copy of the state, where (ax, az) is the half of
    Alice's bits on the route that p selects.

    Returns (state, alice_bits, bob_bits, out_label) with alice_bits =
    (m1x, m1z, m2x, m2z) for her two Bell measurements and bob_bits = his
    single measurement's (mx, mz).
    """
    bz, bx, m1z, m1x, m2z, m2x, _spare = [source.outcome(0.5)
                                          for _ in range(7)]
    ax, az = (m1x, m1z) if p == 0 else (m2x, m2z)
    st = state
    for gate, bit in ((qsim.Z, bz), (qsim.X, bx), (qsim.P_DAG, p ^ q),
                      (qsim.Z, az), (qsim.X, ax)):
        if bit:
            st = qsim.apply_gate(st, gate, [qubit])
    if st is state:  # never hand back the caller's object
        st = state.copy()
    return st, (m1x, m1z, m2x, m2z), (bx, bz), "out1" if p == 0 else "out2"


# --- schemes 5 and 6 ------------------------------------------------------

@dataclass
class Scheme5Report:
    n: int
    r_cap: int
    nvars: int
    instance_transcripts: list = field(default_factory=list)
    t_audit: list = field(default_factory=list)  # per-T dicts
    soundness: list = field(default_factory=list)  # fidelities if checked

    @property
    def instance_count(self) -> int:
        return len(self.instance_transcripts)


@dataclass
class TrapRecord:
    expected: int
    observed: int
    passed: bool


@dataclass
class Scheme5Run:
    """One interactive evaluation; `state` is None after an abort."""

    state: qsim.QuantumState | None
    transcript: Transcript
    report: Scheme5Report
    traps: list = field(default_factory=list)  # TrapRecords, scheme 6 only
    aborted: str | None = None


# maps the characters "0" and "1" of an encoded bit string to the bits
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _distributed_eval(form, alice_bits, k, source, report, alice_strategy=None):
    """Lower-level scheme: distributed evaluation of one frame form.

    Alice's inputs are her current variable-value vector (unperformed
    measurements count as zero); Bob's polynomial is the linear form."""
    nvars = len(alice_bits)
    bits = format((form >> 1) & ((1 << nvars) - 1), f"0{nvars}b")[::-1]
    poly = LinearPolynomial(tuple(bits.encode().translate(_BIT_BYTES)),
                            form & 1)
    dist, tr = run_scheme4(list(alice_bits), poly, k, source,
                           distributed=True, alice_strategy=alice_strategy)
    report.instance_transcripts.append(tr)
    return dist.alice_bit, dist.bob_bit


def t_gate_step(state, qubit, frames, alice_bits, t_index, k, source,
                report, alice_strategy=None):
    """Apply T and remove the induced P^{f_a} via the distributed
    evaluation plus the garden-hose gadget; registers 4 fresh variables."""
    st = qsim.apply_gate(state, qsim.T, [qubit])
    f_a = frames[qubit][0]  # TX = (phase) P X T: P^{f_a} appears

    q_share, p_share = _distributed_eval(f_a, alice_bits, k, source,
                                         report, alice_strategy)
    st, a4, b2, out_label = garden_hose(st, qubit, p_share, q_share, source)

    base = 2 * report.n + 4 * t_index
    alice_bits[base:base + 4] = a4
    # net mask from the two teleports, with the P-dagger pushed through
    # Bob's correction bits: X^{bx} Z^{bz + bx*f_a} then Alice's X^{ax} Z^{az}
    # (variables ax and ax + 1 of the route p selects)
    ax = base + (0 if p_share == 0 else 2)
    bx, bz = b2
    x, z = frames[qubit]
    frames[qubit] = (x ^ (1 << (ax + 1)),
                     z ^ (1 << (ax + 2)) ^ (f_a if bx else 0))
    for gate, bit in (("X", bx), ("Z", bz)):
        if bit:
            conjugate_frame(frames, gate, (qubit,))
    report.t_audit.append({
        "t_index": t_index, "qubit": qubit, "shares": (q_share, p_share),
        "correction": p_share ^ q_share, "out": out_label,
        "alice_bell_bits": a4, "bob_bell_bits": b2,
    })
    return st


def _pauli_pad(state, qubit, source):
    """A teleport that withholds both correction bits, as its channel:
    X^a Z^b on `qubit` with fresh (a, b), and nothing sent.  Returns the
    state and the sender's mask [a, b]."""
    mask = source.draw(2, "teleport")
    a, b = mask
    if b:
        state = qsim.apply_gate(state, qsim.Z, [qubit])
    if a:
        state = qsim.apply_gate(state, qsim.X, [qubit])
    return state, mask


def _masked_fidelity(state, frames, alice_bits, ideal):
    """Undo the mask at the true bits and compare with the ideal state."""
    assignment = 1 | sum(int(b) << v for v, b in enumerate(alice_bits, 1))
    st = state.copy()
    for i, (x, z) in enumerate(frames):
        for gate, form in ((qsim.Z, z), (qsim.X, x)):
            if (form & assignment).bit_count() & 1:
                st = qsim.apply_gate(st, gate, [i])
    return qsim.fidelity(st, ideal)


def _evaluate(circuit, input_state, k, source, traps=0, alice_strategy=None,
              check_soundness=False):
    """The interactive evaluation behind schemes 5 and 6; with traps=0 it
    is scheme 5 exactly."""
    n = circuit.n
    r_cap = circuit.r_count + 2 * traps
    transcript = Transcript()
    report = Scheme5Report(n=n, r_cap=r_cap, nvars=2 * n + 4 * r_cap)
    # Bob's frame: data qubit i is masked by Alice's key variables 2i and
    # 2i + 1
    frames = [(1 << (2 * i + 1), 1 << (2 * i + 2)) for i in range(n)]
    alice_bits = [0] * report.nvars

    # step 1: Alice teleports her data to Bob, withholding every correction
    st = input_state.copy()
    for i in range(n):
        st, alice_bits[2 * i:2 * i + 2] = _pauli_pad(st, i, source)

    # step 2: Bob evaluates, correcting each T via the distributed gadget.
    # Pauli gates are absorbed into the mask (constant flips), never applied.
    ideal = input_state
    t_index = 0
    for name, targets in circuit.gates:
        if name == "T":
            st = t_gate_step(st, targets[0], frames, alice_bits, t_index, k,
                             source, report, alice_strategy)
            t_index += 1
        else:
            if name not in ("X", "Y", "Z"):
                st = qsim.apply_gate(st, _GATES[name], list(targets))
            conjugate_frame(frames, name, targets)
        if check_soundness:
            ideal = qsim.apply_gate(ideal, _GATES[name], list(targets))
            report.soundness.append(
                _masked_fidelity(st, frames, alice_bits, ideal))

    # Bob's traps: each is his own qubit, unmasked in |0>, which H, T, T
    # drive to the +1 Y eigenstate; it never meets the data, so it runs on
    # a one-qubit register with a one-entry frame
    trap_records = []
    for t in range(traps):
        trap = qsim.apply_gate(qsim.basis_state(1), qsim.H, [0])
        trap_frames = [(0, 0)]  # H maps the empty mask to itself
        for _ in range(2):
            trap = t_gate_step(trap, 0, trap_frames, alice_bits, t_index, k,
                               source, report, alice_strategy)
            t_index += 1
        # checkpoint: trap should be the +1 Y eigenstate up to the mask;
        # X and Z each flip the Y outcome, so the relevant mask bit is
        # f_a ^ f_b.  Alice sends her share of it (the "reduced" lower
        # -level instance: no mask bit back from Bob, no correction).
        form = trap_frames[0][0] ^ trap_frames[0][1]
        if (form >> 1) & ((1 << 2 * n) - 1):
            raise AssertionError("trap polynomial touches data key variables")
        a_share, b_share = _distributed_eval(form, alice_bits, k, source,
                                             report, alice_strategy)
        transcript.record(ALICE, [a_share], tag=f"trap-{t}")
        expected = a_share ^ b_share
        observed, _ = measure_with(source, trap, "Y", 0)
        rec = TrapRecord(expected, observed, observed == expected)
        trap_records.append(rec)
        if not rec.passed:
            transcript.record_abort(BOB, f"trap {t} mismatch")
            return Scheme5Run(None, transcript, report, trap_records, BOB)

    # step 3: Bob teleports the data back, withholding his outcomes
    bob_return = []
    for i in range(n):
        st, mask = _pauli_pad(st, i, source)
        bob_return.append(mask)

    # step 4: 2n distributed evaluations; Bob folds his return-teleport bit
    # into his share before sending it, so Alice's combined bit is directly
    # the physical correction for the qubit she now holds
    for i in range(n):
        for gate, form, fold in ((qsim.X, frames[i][0], bob_return[i][0]),
                                 (qsim.Z, frames[i][1], bob_return[i][1])):
            a_share, b_share = _distributed_eval(form, alice_bits, k, source,
                                                 report)
            b_share ^= fold
            transcript.record(BOB, [b_share], tag=f"key-{i}")
            # step 5: Alice applies the Pauli correction
            if a_share ^ b_share:
                st = qsim.apply_gate(st, gate, [i])

    if check_soundness:
        report.soundness.append(qsim.fidelity(st, ideal))
    return Scheme5Run(st, transcript, report, trap_records)


def run_scheme5(circuit, input_state, k, rng, check_soundness=False):
    """Full interactive evaluation; returns Scheme5Run with the output on
    Alice's side.  With check_soundness=True an omniscient observer
    verifies the key polynomials against the ideal state after every gate.
    """
    return _evaluate(circuit, input_state, k, as_source(rng),
                     check_soundness=check_soundness)


def run_scheme6(circuit, input_state, k, traps, rng, alice_strategy=None):
    """Verification wrapper: after the circuit, Bob runs `traps` trap
    qubits, each on its own one-qubit register: |0>, then H, T, T with both
    T gates corrected through the distributed gadget, then a Y-basis
    checkpoint against the mask share Alice must send; any mismatch
    aborts.  No trap touches the data register.  traps=0 reduces to
    run_scheme5.
    """
    return _evaluate(circuit, input_state, k, as_source(rng), traps=traps,
                     alice_strategy=alice_strategy)
