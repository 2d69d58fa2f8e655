"""Protocol-harness tests: transcripts, bit sources, symbolic teleports."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhelab import qsim, rebit
from qhelab.harness import (ALICE, BOB, CountingBits, FixedBits, Form,
                            NeedMoreBits, ProtocolError, RandomBits,
                            SecretBit, SymbolicBits, Transcript, as_source,
                            bell_measure_with, comm_audit, conjugate_frame,
                            enumerate_hidden, enumerate_hidden_adaptive,
                            hidden_bit_count, measure_with,
                            teleport_symbolic)
from test_qsim import product_state
from test_rebit_schemes import _pauli_from_bits


def teleport_literal(state, qubit, withhold, source):
    """Reference implementation through an explicit EPR pair; used to check
    that teleport_symbolic induces the same channel.  Returns
    (state, (residual_x, residual_z)) with the teleported content moved
    back to `qubit`'s position via the EPR second half."""
    withhold = set(withhold)
    st, a_q, b_q = qsim.epr_extend(state)
    (mx, mz), st = bell_measure_with(source, st, qubit, a_q)
    # receiver corrects the disclosed components
    if "x" not in withhold and mx:
        st = qsim.apply_gate(st, qsim.X, [b_q])
    if "z" not in withhold and mz:
        st = qsim.apply_gate(st, qsim.Z, [b_q])
    # move the payload back down to `qubit` so register layout is stable
    st = qsim.apply_gate(st, qsim.Gate("SWAP", np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]), 2),
        [qubit, b_q])
    st = qsim.remove_qubit(st, b_q, mz)
    st = qsim.remove_qubit(st, a_q, mx)
    residual = (mx if "x" in withhold else 0, mz if "z" in withhold else 0)
    return st, residual


def test_transcript_records_and_counts():
    tr = Transcript()
    tr.record(ALICE, [0, 1, 1], tag="m1")
    tr.record(BOB, [1], tag="m2")
    assert tr.bits_from(ALICE) == [0, 1, 1]
    assert comm_audit(tr, "Bob->Alice") == 1
    assert comm_audit(tr, "Alice->Bob") == 3
    lines = tr.serialize().splitlines()
    assert len(lines) == 2 and "m1" in lines[0]


def test_transcript_rejects_secrets_and_nonbits():
    tr = Transcript()
    with pytest.raises(ProtocolError):
        tr.record(ALICE, [SecretBit(1, "mask")])
    with pytest.raises(ProtocolError):
        tr.record(ALICE, [2])
    with pytest.raises(ProtocolError):
        tr.record("Eve", [0])


def test_transcript_serialize_keeps_leading_zeros():
    tr = Transcript()
    tr.record(ALICE, [0, 0, 1], tag="bits")
    tr2 = Transcript()
    tr2.record(ALICE, [0, 1], tag="bits")
    assert tr.serialize() != tr2.serialize()


def _plain(bits):
    """Payload bits in a comparable form: a Form refuses ==."""
    return [("form", b.mask) if isinstance(b, Form) else b for b in bits]


def _result(fn, *args):
    """fn's result, or the message of the ProtocolError it raised."""
    try:
        return fn(*args)
    except ProtocolError as exc:
        return f"refused: {exc}"


_BIT = st.one_of(st.sampled_from([0, 1, False, True, np.int64(1)]),
                 st.builds(Form, st.integers(0, 15)))
_SENDER = st.sampled_from([ALICE, BOB])
_OPS = st.lists(st.one_of(
    st.tuples(st.just("block"), _SENDER, st.lists(_BIT, max_size=5),
              st.sampled_from(["", "fwd"])),
    st.tuples(st.just("record"), _SENDER, st.lists(_BIT, max_size=3),
              st.sampled_from(["", "m"])),
    st.tuples(st.just("abort"), _SENDER, st.just([]),
              st.sampled_from(["", "trap"]))), max_size=8)


@settings(max_examples=300, deadline=None)
@given(_OPS)
def test_transcript_blocks_equal_one_record_per_bit(ops):
    """A transcript built with blocks, empty ones included, equals the
    same messages recorded one at a time: messages, serialize (or its
    refusal of a form), bits_from and comm_audit."""
    blocked, single = Transcript(), Transcript()
    for kind, sender, bits, tag in ops:
        if kind == "block":
            def rule(i, tag=tag):
                return f"{tag}-{i}" if tag else ""

            blocked.record_block(sender, bits, rule)
            for i, b in enumerate(bits):
                single.record(sender, [b], rule(i))
        for tr in (blocked, single):
            if kind == "record":
                tr.record(sender, bits, tag)
            elif kind == "abort":
                tr.record_abort(sender, tag)
    assert ([(m.sender, _plain(m.bits), m.round, m.tag)
             for m in blocked.messages]
            == [(m.sender, _plain(m.bits), m.round, m.tag)
                for m in single.messages])
    assert _result(blocked.serialize) == _result(single.serialize)
    for sender in (ALICE, BOB):
        assert (_plain(blocked.bits_from(sender))
                == _plain(single.bits_from(sender)))
    for direction in ("Alice->Bob", "Bob->Alice"):
        assert (comm_audit(blocked, direction)
                == comm_audit(single, direction))


@pytest.mark.parametrize("sender,bits", [
    ("Eve", [0]), ("Eve", []), (ALICE, [SecretBit(1, "mask")]),
    (BOB, [0, Form(0b10), SecretBit(Form(0b10), "mask")]), (ALICE, [2]),
    (BOB, [1, -1]), (ALICE, [0.5])])
def test_transcript_block_refuses_as_record_does(sender, bits):
    """A block with an unknown sender, a secret or a non-bit payload is
    refused with record's own error, and leaves the transcript as it
    was."""
    blocked, single = Transcript(), Transcript()
    with pytest.raises(ProtocolError) as block_exc:
        blocked.record_block(sender, bits, str)
    with pytest.raises(ProtocolError) as record_exc:
        single.record(sender, bits)
    assert str(block_exc.value) == str(record_exc.value)
    blocked.record(BOB, [1], tag="after")
    assert blocked.serialize() == "0 Bob after 3"


def test_fixed_bits_replay_and_exhaustion():
    src = FixedBits([1, 0])
    assert src.bit() == 1 and src.bit() == 0
    with pytest.raises(NeedMoreBits):
        src.bit()
    # a block replays the next bits, or raises when fewer remain
    src = FixedBits([1, 0, 1])
    assert src.draw(0, "s") == [] and src.draw(2, "s") == [1, 0]
    with pytest.raises(NeedMoreBits):
        src.draw(2, "s")
    assert src.draw(1, "s") == [1] and src.pos == 3


def test_fixed_bits_zero_probability_branch():
    src = FixedBits([1])
    with pytest.raises(qsim.ZeroProbabilityBranch):
        src.outcome(1.0)


def test_counting_bits_and_probe():
    def run(src):
        src.bit()
        src.outcome(0.5)
        src.draw(5, "pad")
        src.draw(0, "pad")
        return None
    assert hidden_bit_count(run) == 7


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 300), st.integers(0, 1))
@settings(deadline=None, max_examples=300)
def test_random_bits_block_draw_is_the_scalar_stream(seed, count, before):
    """draw(count) gives the bits of `count` bit() calls and leaves the
    generator in the same state, also after an odd number of earlier
    draws, which leave half of a 32-bit word buffered.  Seeded reports
    rely on this; a numpy release that breaks it fails here first."""
    block, scalar = (RandomBits(np.random.default_rng(seed))
                     for _ in range(2))
    for src in (block, scalar):
        for _ in range(before):
            src.bit("s")
    bits = block.draw(count, "pad")
    assert bits == [scalar.bit("pad") for _ in range(count)]
    assert all(type(b) is int for b in bits)
    assert block.rng.bit_generator.state == scalar.rng.bit_generator.state
    assert block.outcome(0.3) == scalar.outcome(0.3)


def test_symbolic_bits_block_draws_match_scalar_draws():
    """SymbolicBits.draw replays tags s and t from the wrapped FixedBits
    and numbers every other variable as that many bit() calls would."""
    def scalar(src):
        return ([src.bit("s"), src.bit("pad"), src.bit("pad"),
                 src.outcome(0.5), src.bit("t"), src.bit("t"),
                 src.bit("mask")])

    def block(src):
        return (src.draw(1, "s") + src.draw(2, "pad") + src.draw(0, "pad")
                + [src.outcome(0.5)] + src.draw(2, "t") + src.draw(1, "mask"))

    runs = []
    for run in (scalar, block):
        fixed = FixedBits([1, 0, 1])
        src = SymbolicBits(fixed)
        bits = [b.mask if isinstance(b, Form) else ("known", b)
                for b in run(src)]
        runs.append((bits, src.vars, fixed.pos))
    assert runs[0] == runs[1]
    assert runs[0] == ([("known", 1), 0b10, 0b100, 0b1000, ("known", 0),
                        ("known", 1), 0b10000], 4, 3)
    with pytest.raises(NeedMoreBits):
        SymbolicBits(FixedBits([1])).draw(2, "s")


def test_enumerate_hidden_fixed_width():
    def run(src):
        return (src.bit(), src.bit())
    leaves = dict(enumerate_hidden(run, 2))
    assert len(leaves) == 4
    def uneven(src):
        if src.bit():
            src.bit()
        return None
    with pytest.raises(ProtocolError):
        list(enumerate_hidden(uneven, 2))


def test_enumerate_hidden_adaptive_weights():
    def run(src):
        first = src.bit()
        return (first, src.bit()) if first else (first,)
    leaves = list(enumerate_hidden_adaptive(run))
    weights = sum(2.0 ** -len(bits) for bits, _ in leaves)
    assert abs(weights - 1.0) < 1e-12
    assert sorted(len(b) for b, _ in leaves) == [1, 2, 2]
    # the bit budget bounds the caller's argument: exceeding it is a
    # ValueError, not a protocol fault
    with pytest.raises(ValueError, match="exceeded 1 hidden bits"):
        list(enumerate_hidden_adaptive(run, max_bits=1))


def test_as_source_wraps_seeds_and_generators():
    src = FixedBits([1])
    assert as_source(src) is src

    def bits(source):
        return [source.bit() for _ in range(16)]
    want = bits(RandomBits(np.random.default_rng(4)))
    assert bits(as_source(np.random.default_rng(4))) == want
    assert bits(as_source(4)) == want


def test_measure_with_deterministic_outcomes_free():
    src = CountingBits(np.random.default_rng(0))
    out, _ = measure_with(src, qsim.basis_state(1, 1), "Z", 0)
    assert out == 1 and src.count == 0
    out, _ = measure_with(src, product_state([1, 1]), "Z", 0)
    assert src.count == 1


@pytest.mark.parametrize("basis", ["Z", "X", "Y"])
def test_measure_with_computes_each_probability_once(monkeypatch, basis):
    calls = []
    original = qsim.outcome_probability

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qsim, "outcome_probability", counted)
    rng = np.random.default_rng(11)
    psi = qsim.random_state(2, rng)
    for bit in (0, 1):
        calls.clear()
        out, post = measure_with(FixedBits([bit]), psi, basis, 1)
        assert len(calls) == 1 and out == bit
        _, want = qsim.measure(psi, basis, 1, force=bit)
        assert np.array_equal(post.vec, want.vec)


@pytest.mark.parametrize("withhold", [set(), {"x"}, {"z"}, {"x", "z"}])
def test_symbolic_teleport_matches_literal_channel(withhold):
    """Averaged over the hidden bits, the symbolic teleport's masked output
    equals the literal EPR teleport channel."""
    rng = np.random.default_rng(11)
    psi = qsim.random_state(2, rng)

    def symbolic(src):
        st, rec = teleport_symbolic(psi.copy(), 0, withhold, src, Transcript(),
                                    sender=ALICE)
        return st
    def literal(src):
        st, _ = teleport_literal(psi.copy(), 0, withhold, src)
        return st

    for run in (symbolic, literal):
        n_bits = hidden_bit_count(run)
        rho = np.zeros((4, 4), dtype=complex)
        for bits, out in enumerate_hidden(run, n_bits):
            rho += out.density()
        rho /= 2 ** n_bits
        if run is symbolic:
            rho_sym = rho
        else:
            assert np.max(np.abs(rho - rho_sym)) < 1e-10


def test_symbolic_teleport_disclosed_is_identity():
    rng = np.random.default_rng(5)
    psi = qsim.random_state(1, rng)
    st, rec = teleport_symbolic(psi.copy(), 0, set(), RandomBits(rng),
                                Transcript(), sender=ALICE)
    assert qsim.fidelity(st, psi) > 1 - 1e-10
    assert rec.mask_x == 0 and rec.mask_z == 0


def test_symbolic_teleport_withheld_masks_reveal():
    rng = np.random.default_rng(6)
    psi = qsim.random_state(1, rng)
    st, rec = teleport_symbolic(psi.copy(), 0, {"x", "z"}, RandomBits(rng),
                                Transcript(), sender=ALICE)
    mx, mz = rec.mask_x.reveal(), rec.mask_z.reveal()
    if mx:
        st = qsim.apply_gate(st, qsim.X, [0])
    if mz:
        st = qsim.apply_gate(st, qsim.Z, [0])
    assert qsim.fidelity(st, psi) > 1 - 1e-10


@pytest.mark.parametrize("withhold", [set(), {"x"}, {"z"}, {"x", "z"}])
def test_symbolic_teleport_leaves_input_untouched(withhold):
    psi = qsim.random_state(2, np.random.default_rng(9))
    vec = psi.vec.copy()
    for a, b in itertools.product((0, 1), repeat=2):
        forced = [a] * ("x" in withhold) + [b] * ("z" in withhold)
        out, _ = teleport_symbolic(psi, 0, withhold, FixedBits(forced))
        assert out is not psi
        assert np.array_equal(psi.vec, vec)


# --- the Pauli-frame rule table -------------------------------------------

def _frame_matrix(pairs):
    """The frame's Pauli on qubits 0, 1, ... (little-endian kron)."""
    out = np.eye(1, dtype=complex)
    for x, z in pairs:
        out = np.kron(_pauli_from_bits(x, z), out)
    return out


# rule-table name -> (matrix, applied): an applied Clifford G conjugates the
# frame, G Q G^dag; a Pauli multiplies it, G Q
_FRAME_GATES = {
    "H": (qsim.H.matrix, True),
    "P": (qsim.P.matrix, True),
    "CNOT": (qsim.CNOT.matrix, True),
    "CRY-1": (rebit.controlled_ry(math.pi).matrix, True),
    "CRY-3": (rebit.controlled_ry(3 * math.pi).matrix, True),
    "X": (qsim._X, False),
    "Y": (qsim._Y, False),
    "Z": (qsim._Z, False),
}


@pytest.mark.parametrize("name", sorted(_FRAME_GATES))
def test_frame_rules_match_matrix_conjugation(name):
    """Every gate of the table on every constant frame of its qubits: the
    new frame equals the conjugated (or multiplied) Pauli up to phase, and
    a spectator qubit's frame is left alone."""
    g, applied = _FRAME_GATES[name]
    gate = name.split("-")[0]
    arity = 2 if gate in ("CNOT", "CRY") else 1
    for bits in itertools.product((0, 1), repeat=2 * arity):
        pairs = [bits[2 * q:2 * q + 2] for q in range(arity)]
        frames = {q: tuple(pair) for q, pair in enumerate(pairs)}
        frames["spectator"] = (1, 0)
        conjugate_frame(frames, gate, tuple(range(arity)))
        assert frames.pop("spectator") == (1, 0)
        q = _frame_matrix(pairs)
        want = g @ q @ g.conj().T if applied else g @ q
        got = _frame_matrix(frames[i] for i in range(arity))
        coef = np.trace(got.conj().T @ want) / 2 ** arity
        assert abs(abs(coef) - 1) < 1e-9, (name, bits)
        assert np.allclose(want, coef * got, atol=1e-9), (name, bits)


def test_frame_rules_refuse_other_gates():
    frames = {0: (0, 0), 1: (0, 0)}
    for gate, targets in (("T", (0,)), ("CZ", (0, 1)), ("Rz", (0,))):
        with pytest.raises(ValueError):
            conjugate_frame(frames, gate, targets)


def _value(form, assignment):
    return bin(form & assignment).count("1") & 1


@given(st.sampled_from(["H", "P", "X", "Y", "Z", "CNOT", "CRY"]),
       st.integers(1, 12), st.data())
@settings(deadline=None, max_examples=200)
def test_frame_rules_are_linear_over_f2(gate, nvars, data):
    """Rewriting F2 forms (int bitmasks over nvars variables) and then
    evaluating them gives the frame of the evaluated constants rewritten."""
    forms = st.integers(0, 2 ** (nvars + 1) - 1)
    frames = [(data.draw(forms), data.draw(forms)) for _ in range(2)]
    assignment = 1 | data.draw(st.integers(0, 2 ** nvars - 1)) << 1
    targets = (0, 1) if gate in ("CNOT", "CRY") else (data.draw(
        st.integers(0, 1)),)
    constants = [tuple(_value(f, assignment) for f in pair)
                 for pair in frames]
    conjugate_frame(frames, gate, targets)
    conjugate_frame(constants, gate, targets)
    assert [tuple(_value(f, assignment) for f in pair)
            for pair in frames] == constants


# --- symbolic hidden bits ---------------------------------------------------

@given(st.integers(1, 12), st.data())
@settings(deadline=None, max_examples=200)
def test_form_algebra_is_evaluation_linear(nvars, data):
    """^ with a form or a known bit and & with a known bit commute with
    evaluating the forms at any assignment, on either side of the
    operator."""
    masks = st.integers(0, 2 ** (nvars + 1) - 1)
    a, b = Form(data.draw(masks)), Form(data.draw(masks))
    bit = data.draw(st.sampled_from([0, 1, True]))
    assignment = 1 | data.draw(st.integers(0, 2 ** nvars - 1)) << 1

    def value(x):
        return _value(x.mask, assignment) if isinstance(x, Form) else x

    assert value(a ^ b) == value(a) ^ value(b)
    assert value(a ^ bit) == value(bit ^ a) == value(a) ^ int(bit)
    assert value(a & bit) == value(bit & a) == value(a) & int(bit)


def test_form_refuses_its_value():
    """A symbolic bit that reaches control flow, or a product of two, is a
    protocol fault rather than a silently wrong count."""
    a, b = Form(0b10), Form(0b101)
    for use in (bool, int, lambda f: f == 1, lambda f: f != 0,
                lambda f: f & b, lambda f: b & f, lambda f: [0][f],
                lambda f: f in (0, 1)):
        with pytest.raises(ProtocolError):
            use(a)


def test_symbolic_bits_replay_control_bits_only():
    """Tags s and t replay from the wrapped FixedBits; every other bit and
    every uniform outcome is a fresh variable; a biased outcome is
    refused."""
    fixed = FixedBits([1, 0])
    src = SymbolicBits(fixed)
    assert src.bit("s") == 1
    pad, outcome = src.bit("pad"), src.outcome(0.5)
    assert src.bit("t") == 0 and fixed.pos == 2
    assert (pad.mask, outcome.mask, src.vars) == (0b10, 0b100, 2)
    with pytest.raises(NeedMoreBits):
        src.bit("s")
    with pytest.raises(ProtocolError, match="uniform"):
        src.outcome(0.3)


def test_forms_pass_through_secrets_and_transcripts():
    """SecretBit carries a form through reveal(); a transcript stores
    forms as they are, counts them, and refuses to serialize them."""
    pad = Form(0b10)
    secret = SecretBit(pad, "mask") ^ SecretBit(1, "other")
    assert secret.reveal().mask == 0b11
    assert (SecretBit(1) ^ pad).reveal().mask == 0b11
    tr = Transcript()
    tr.record(BOB, [pad, 1], tag="R")
    assert tr.bits_from(BOB)[0] is pad and comm_audit(tr, "Bob->Alice") == 2
    with pytest.raises(ProtocolError, match="symbolic"):
        tr.serialize()
    with pytest.raises(ProtocolError):
        tr.record(BOB, [SecretBit(pad, "mask")])
