"""Two-party protocol engine: transcripts, hidden-bit hygiene, the
teleportation channel with withheld corrections, and the Pauli-frame rule
table that schemes 1, 2, 5 and 6 push their masks through.

Every classical bit that crosses between the parties passes through a
Transcript, so communication accounting is exact.  Bits that a party keeps
secret (teleportation mask bits, basis choices) are wrapped in SecretBit;
the Transcript refuses to record them, which turns "a hidden bit leaked
into a message" into a loud test failure instead of a silent privacy bug.

Hidden bits come from a source: RandomBits for seeded runs, FixedBits to
replay one branch, and SymbolicBits for exhaustive runs of the classical
schemes.  SymbolicBits replays only the control bits (tags "s" and "t")
and hands out every other bit as a fresh variable, a Form; one run per
control branch then gives the output as an F2 affine form in the other
bits, which stands for all 2^vars leaves of that branch at once.  Every
source draws a block of bits, draw(count, tag), exactly as `count` calls
of bit(tag) would draw them, so a protocol that draws its bits in blocks
consumes the same stream as one that draws them one at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import qsim

ALICE = "Alice"
BOB = "Bob"


class SecretBit:
    """Taint wrapper around a party-private bit.

    Arithmetic helpers return SecretBit so taint propagates; reveal() is the
    single deliberate exit point (e.g. when a protocol step discloses the bit).
    """

    __slots__ = ("_value", "tag")

    def __init__(self, value, tag: str = ""):
        self._value = value & 1  # a known bit or a Form
        self.tag = tag

    def reveal(self):
        return self._value

    def __xor__(self, other):
        o = other.reveal() if isinstance(other, SecretBit) else other
        return SecretBit(self._value ^ o, self.tag)

    __rxor__ = __xor__

    def __repr__(self):
        return f"SecretBit(<hidden>, tag={self.tag!r})"


@dataclass
class Message:
    sender: str
    bits: list
    round: int
    tag: str


class ProtocolError(Exception):
    pass


class Form:
    """One hidden bit held symbolically, as an F2 affine form.

    `mask` follows conjugate_frame's convention: bit 0 is the constant and
    bit v+1 the coefficient of variable v.  A form combines with a form or
    a known bit by ^, and with a known bit by &.  Anything that needs its
    value (bool, int, ==, or the product of two forms) raises
    ProtocolError, so a run that completes is affine in its variables, and
    a variable that reaches control flow is a loud fault, not a wrong count.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int):
        self.mask = mask

    def __xor__(self, other):
        if isinstance(other, Form):
            return Form(self.mask ^ other.mask)
        if isinstance(other, int):
            return Form(self.mask ^ (other & 1))
        return NotImplemented

    __rxor__ = __xor__

    def __and__(self, other):
        if isinstance(other, Form):
            raise ProtocolError("a product of two symbolic bits is not "
                                "affine")
        if isinstance(other, int):
            return self if other & 1 else Form(0)
        return NotImplemented

    __rand__ = __and__

    def _refuse(self, *_):
        raise ProtocolError("a symbolic bit reached control flow")

    __bool__ = __int__ = __index__ = __eq__ = _refuse


@dataclass
class _Block:
    """A run of one-bit messages from one sender on consecutive rounds,
    the first at `round`: message i holds bits[i] and is tagged tag(i)."""

    sender: str
    bits: list
    round: int
    tag: object  # index -> tag

    def expand(self) -> list:
        return [Message(self.sender, [b], self.round + i, self.tag(i))
                for i, b in enumerate(self.bits)]


_INT = frozenset((int,))
_BITS = frozenset((0, 1))


def _int_bits(bits) -> bool:
    """Whether a sequence holds only ints 0 and 1 (no bool, Form or numpy
    int), tested without building a set."""
    return _INT.issuperset(map(type, bits)) and _BITS.issuperset(bits)


def _clean_bits(sender, bits) -> list:
    """The payload as recorded: known bits as ints, a Form as it is, for
    a symbolic run that reads outputs and bit counts but never
    serializes.  Refuses an unknown sender, a secret and a non-bit."""
    if sender not in (ALICE, BOB):
        raise ProtocolError(f"unknown sender {sender!r}")
    if _int_bits(bits):
        return list(bits)  # known bits only: nothing to convert
    clean = []
    for b in bits:
        if isinstance(b, Form):
            clean.append(b)
            continue
        if isinstance(b, SecretBit):
            raise ProtocolError(
                f"secret bit {b.tag!r} almost written to the transcript")
        if b not in (0, 1):
            raise ProtocolError(f"non-bit payload {b!r}")
        clean.append(int(b))
    return clean


class Transcript:
    """Ordered record of every inter-party classical message.

    A run of one-bit messages from one sender can be stored as one block
    (record_block); `messages` and `serialize` expand it into the messages
    that recording them one at a time would give, and `bits_from` and
    comm_audit read its bits as they are."""

    def __init__(self):
        self._entries: list = []  # Messages and _Blocks, in round order
        self._rounds = 0  # the next message's round

    @property
    def messages(self) -> list:
        """Every message in round order, each block expanded."""
        out = []
        for e in self._entries:
            if isinstance(e, _Block):
                out.extend(e.expand())
            else:
                out.append(e)
        return out

    def record(self, sender: str, bits, tag: str = ""):
        """Append one message."""
        clean = _clean_bits(sender, bits)
        self._entries.append(Message(sender, clean, self._rounds, tag))
        self._rounds += 1

    def record_block(self, sender: str, bits, tag):
        """Append len(bits) one-bit messages at once: message i holds
        bits[i] and is tagged tag(i), as record(sender, [b], tag(i)) for
        each bit in turn would give.  A payload that record refuses is
        refused whole, with record's error."""
        clean = _clean_bits(sender, bits)
        if clean:
            self._entries.append(_Block(sender, clean, self._rounds, tag))
            self._rounds += len(clean)

    def record_abort(self, party: str, reason: str = ""):
        self._entries.append(Message(party, [], self._rounds,
                                     f"abort:{reason}"))
        self._rounds += 1

    def bits_from(self, sender: str) -> list:
        return [b for e in self._entries if e.sender == sender
                for b in e.bits]

    def serialize(self) -> str:
        """One line per message: `round sender tag hexbits`.

        Bits are packed MSB-first behind a sentinel 1 so leading zeros
        survive the integer round-trip; an empty payload serializes as "1".
        """
        lines = []
        for m in self.messages:
            if any(isinstance(b, Form) for b in m.bits):
                raise ProtocolError(f"message {m.tag!r} holds symbolic bits")
            packed = int("1" + "".join(str(b) for b in m.bits), 2)
            lines.append(f"{m.round} {m.sender} {m.tag or '-'} {packed:x}")
        return "\n".join(lines)


def comm_audit(transcript: Transcript, direction: str) -> int:
    """Exact bit count sent in `direction`, e.g. "Bob->Alice"; a block
    counts by its length."""
    sender = direction.split("->")[0].strip()
    return sum(len(e.bits) for e in transcript._entries
               if e.sender == sender)


class RandomBits:
    """Hidden-randomness source backed by a seeded generator."""

    def __init__(self, rng):
        self.rng = rng

    def bit(self, tag: str = "") -> int:
        return int(self.rng.integers(2))

    def draw(self, count: int, tag: str = "") -> list:
        """`count` bits in one generator call.  The generator hands out
        the same bits, and ends in the same state, as `count` calls of
        bit(); tests/test_harness.py pins this for the installed numpy.
        A block of one or two is that many scalar calls, each of which
        costs a third of one sized call.  A negative count is refused."""
        if count == 1:
            return [int(self.rng.integers(2))]
        if count == 2:
            integers = self.rng.integers
            return [int(integers(2)), int(integers(2))]
        if count < 0:
            raise ValueError(f"cannot draw {count} bits")
        return self.rng.integers(2, size=count).tolist() if count else []

    def outcome(self, p0: float) -> int:
        return 0 if self.rng.random() < p0 else 1


def as_source(rng):
    """A hidden-bit source as is, or a seed or generator wrapped in
    RandomBits."""
    if (hasattr(rng, "bit") and hasattr(rng, "draw")
            and hasattr(rng, "outcome")):
        return rng
    if hasattr(rng, "integers"):
        return RandomBits(rng)
    return RandomBits(np.random.default_rng(rng))


class NeedMoreBits(Exception):
    """A FixedBits source ran out of replay bits."""


class FixedBits:
    """Hidden-randomness source replaying a fixed bit string.

    Used to enumerate every hidden-randomness branch of a protocol.  Coin
    flips consume bits directly; measurement outcomes are forced, and a
    branch whose forced outcome has probability ~0 raises
    qsim.ZeroProbabilityBranch (the enumerator skips it with weight 0).
    """

    def __init__(self, bits):
        self.bits = list(bits)
        self.pos = 0

    def bit(self, tag: str = "") -> int:
        if self.pos >= len(self.bits):
            raise NeedMoreBits(f"FixedBits exhausted at {self.pos}")
        b = self.bits[self.pos]
        self.pos += 1
        return int(b)

    def draw(self, count: int, tag: str = "") -> list:
        if count < 0:
            raise ValueError(f"cannot draw {count} bits")
        end = self.pos + count
        if end > len(self.bits):
            raise NeedMoreBits(f"FixedBits exhausted at {len(self.bits)}")
        block = [int(b) for b in self.bits[self.pos:end]]
        self.pos = end
        return block

    def outcome(self, p0: float) -> int:
        b = self.bit()
        p = p0 if b == 0 else 1 - p0
        if p < 1e-9:
            raise qsim.ZeroProbabilityBranch(f"forced outcome {b} has p={p:.2e}")
        return b


class CountingBits(RandomBits):
    """RandomBits that counts how many hidden bits a run consumes."""

    def __init__(self, rng):
        super().__init__(rng)
        self.count = 0

    def bit(self, tag: str = "") -> int:
        self.count += 1
        return super().bit(tag)

    def draw(self, count: int, tag: str = "") -> list:
        self.count += count
        return super().draw(count, tag)

    def outcome(self, p0: float) -> int:
        self.count += 1
        return super().outcome(p0)


class SymbolicBits:
    """Hidden-bit source for exhaustive runs of the classical schemes.

    The control bits, tagged "s" (basis bits) or "t" (scheme 8's pad bits,
    which scheme 9 turns into inner coefficients), steer control flow, so
    they replay from the wrapped FixedBits.  Every other bit() and every
    uniform outcome is a fresh variable: the Form with bit `vars` set after
    the draw.  A biased outcome has no affine form and is refused.
    """

    def __init__(self, fixed):
        self.fixed = fixed
        self.vars = 0

    def bit(self, tag: str = ""):
        if tag in ("s", "t"):
            return self.fixed.bit(tag)
        self.vars += 1
        return Form(1 << self.vars)

    def draw(self, count: int, tag: str = "") -> list:
        if tag in ("s", "t"):
            return self.fixed.draw(count, tag)
        if count < 0:
            raise ValueError(f"cannot draw {count} bits")
        first = self.vars + 1
        self.vars += count
        return [Form(1 << v) for v in range(first, self.vars + 1)]

    def outcome(self, p0: float):
        if p0 != 0.5:
            raise ProtocolError(f"a symbolic outcome must be uniform, not "
                                f"p0={p0}")
        return self.bit()


def hidden_bit_count(run_fn) -> int:
    """Probe how many hidden random bits one run of a protocol consumes."""
    src = CountingBits(np.random.default_rng(0))
    run_fn(src)
    return src.count


def enumerate_hidden(run_fn, num_bits: int):
    """Run `run_fn(source)` for every hidden-bit assignment of width
    `num_bits`, yielding (bits, result) per realizable branch.  Branches
    forced onto zero-probability measurement outcomes are skipped (their
    weight is zero)."""
    for bits in itertools.product((0, 1), repeat=num_bits):
        src = FixedBits(bits)
        try:
            result = run_fn(src)
        except qsim.ZeroProbabilityBranch:
            continue
        if src.pos != num_bits:
            raise ProtocolError(
                f"branch consumed {src.pos} bits, expected {num_bits}; "
                "hidden-bit consumption is path dependent")
        yield bits, result


def enumerate_hidden_adaptive(run_fn, max_bits=32):
    """Like enumerate_hidden, but the number of hidden bits may depend on the
    branch (e.g. when earlier random bits select later protocol structure).
    Explores the binary prefix tree: a branch that exhausts its FixedBits is
    split into the two one-bit extensions.  Yields (bits, result) per
    realizable leaf; the leaf's probability weight is 2**-len(bits).
    A branch that needs more than `max_bits` bits raises ValueError: the
    bound is a limit on the caller's argument, not a protocol fault."""
    stack = [()]
    while stack:
        bits = stack.pop()
        if len(bits) > max_bits:
            raise ValueError(f"enumeration exceeded {max_bits} hidden bits")
        src = FixedBits(bits)
        try:
            result = run_fn(src)
        except NeedMoreBits:
            stack.append(bits + (1,))
            stack.append(bits + (0,))
            continue
        except qsim.ZeroProbabilityBranch:
            continue
        if src.pos != len(bits):
            raise ProtocolError(
                f"branch consumed {src.pos} of {len(bits)} provided bits")
        yield bits, result


def measure_with(source, state, basis, qubit):
    """Measure using a bit source (so runs are replayable/enumerable).

    Deterministic outcomes (probability within 1e-12 of 0 or 1) consume no
    hidden bit; this keeps exhaustive branch enumeration tight.
    """
    def pick(p0):
        if p0 > 1 - 1e-12:
            return 0
        if p0 < 1e-12:
            return 1
        return source.outcome(p0)

    return qsim.measure(state, basis, qubit, force=pick)


def bell_measure_with(source, state, q1, q2):
    """Bell measurement on (q1, q2); returns ((m_x, m_z), post_state).

    The measured pair is left in |m_z>|m_x> inside the register; a qubit
    teleported through the pair needs the correction X^{m_x} Z^{m_z}.
    """
    st = qsim.apply_gate(state, qsim.CNOT, [q1, q2])
    st = qsim.apply_gate(st, qsim.H, [q1])
    mz, st = measure_with(source, st, "Z", q1)
    mx, st = measure_with(source, st, "Z", q2)
    return (mx, mz), st


@dataclass
class TeleportRecord:
    mask_x: SecretBit | int  # SecretBit when withheld, plain bit when disclosed
    mask_z: SecretBit | int


def teleport_symbolic(state, qubit, withhold, source, transcript=None,
                      sender=ALICE, tag="teleport"):
    """Equivalent-channel teleportation without explicit EPR qubits.

    Applies X^a Z^b with fresh uniform (a, b) and discloses exactly the
    non-withheld correction bits (the receiver applies those immediately,
    so the residual mask is only the withheld part).  `withhold` is a set
    drawn from {"x", "z"}.
    """
    withhold = set(withhold)
    if not withhold <= {"x", "z"}:
        raise ValueError(f"bad withhold spec {withhold}")
    # Only the withheld mask components consume hidden randomness: a
    # disclosed bit is applied and immediately corrected by the receiver,
    # which is the identity channel, so it is emitted as a constant 0.
    a = source.bit("teleport-x") if "x" in withhold else 0
    b = source.bit("teleport-z") if "z" in withhold else 0
    disclosed = [0] * (2 - len(withhold))
    if transcript is not None and disclosed:
        transcript.record(sender, disclosed, tag=tag)
    rec = TeleportRecord(
        mask_x=SecretBit(a, "teleport-x") if "x" in withhold else 0,
        mask_z=SecretBit(b, "teleport-z") if "z" in withhold else 0,
    )
    # receiver's uncorrected state is X^a Z^b |psi>, matching the literal
    # EPR channel under our Bell-outcome convention
    st = state
    if b:
        st = qsim.apply_gate(st, qsim.Z, [qubit])
    if a:
        st = qsim.apply_gate(st, qsim.X, [qubit])
    if st is state:  # never hand back the caller's object
        st = state.copy()
    return st, rec


def conjugate_frame(frames, gate, targets):
    """Push a Pauli frame through one gate, in place.

    frames[q] = (x, z) says that qubit q carries the mask X^x Z^z, up to
    phase.  x and z are F2 linear forms held as int bitmasks: bit 0 is the
    constant and bit v+1 the coefficient of variable v, so a known bit is
    the form 0 or 1 and a form's value is the parity of form & assignment
    (with bit 0 of the assignment set).  Every rule is linear over F2.

    A Clifford gate G (H, P, CNOT, and CRY, a controlled-R_y(j*pi) with odd
    j; control first) is applied to the data, and the frame becomes that of
    G X^x Z^z G^dag.  A Pauli gate (X, Y, Z) multiplies the frame instead:
    it is absorbed into the mask, or applied as a mask correction.
    """
    if gate == "H":
        (q,) = targets
        x, z = frames[q]
        frames[q] = (z, x)
    elif gate == "P":
        (q,) = targets
        x, z = frames[q]
        frames[q] = (x, z ^ x)
    elif gate in ("X", "Y", "Z"):
        (q,) = targets
        x, z = frames[q]
        frames[q] = (x ^ (gate != "Z"), z ^ (gate != "X"))
    elif gate in ("CNOT", "CRY"):
        c, t = targets
        (xc, zc), (xt, zt) = frames[c], frames[t]
        if gate == "CNOT":
            frames[c], frames[t] = (xc, zc ^ zt), (xt ^ xc, zt)
        else:  # controlled-sigma_y, then S or S-dagger on the control
            frames[c], frames[t] = ((xc, zc ^ xc ^ xt ^ zt),
                                    (xt ^ xc, zt ^ xc))
    else:
        raise ValueError(f"no frame rule for gate {gate!r}")
