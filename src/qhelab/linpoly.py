"""Two-party evaluation of classical linear polynomials over F2.

Alice holds input bits x, Bob holds a polynomial y = (c + sum a_i x_i) mod 2.
Five protocols compute y on Alice's side while partially hiding x from Bob
and (a, c) from Alice:

- scheme 4: each input bit is split into k pads; each pad is encoded into a
  two-qubit state whose basis is chosen by a fresh secret bit, round-tripped
  through Bob, and decoded from measurement parities.  Every pair runs as
  its Pauli-frame channel: an honest pair's decoded parity is a fixed
  function of its pad and mask bits, a measuring Bob's pair is two Z/X
  eigenstates, and a probing Alice's pair two stabilizer signs.
- scheme 7: same, but the basis bit is shared across all pads with the same
  pad index, compressing Bob's return messages from n*k to k bits.
- scheme 8: single-qubit encodings with an extra pad qubit t_j per index;
  Bob evaluates by pairing up his a_i=1 qubits with CNOTs and measuring,
  so no quantum state travels back to Alice.  Each pair's two outcomes are
  its pad parity and a uniform bit, so the scheme runs as that classical
  channel and builds no register.
- scheme 9: scheme 8 at k = ceil(gamma*n), with Alice's final local
  evaluation replaced by a role-reversed inner scheme 8 so that Bob's
  summary bits R_j, w never reach Alice in the clear.
- scheme 10: a fully classical analogue of scheme 8's bit algebra.

Scheme 4 has a distributed mode that omits Bob's final mask bit and
leaves the result as the XOR of one bit per party; higher-level protocols
compose through that mode.  Schemes 5 and 6 (qhe_core) evaluate
each form of Bob's Pauli frame this way: the form's int bitmask becomes a
LinearPolynomial with its bit 0 as c and bit v+1 as a_v.  The literal
register protocols are the references in tests/test_linpoly.py.

The runners draw their hidden bits in blocks (source.draw), in the order
that the literal protocols draw them one by one, so a seeded run consumes
the same stream.  An honest or probed scheme-4 run makes two draws: its
basis bits, which SymbolicBits replays, then one block of pads, forward
masks and return masks.  Schemes 8 and 10 make one draw per kind (basis
bits, scheme 8's t, pads, fillers).  Uniform measurement outcomes are
still drawn one at a time, and so are a measuring Bob's return masks,
which his outcomes interleave.

Once the control bits (basis bits s, and scheme 8's t) are fixed, Alice's
input x and a run's pads, fillers, teleport masks and uniform outcomes
enter only through XOR and through AND with a known bit; a measuring
Bob's run too.  So the runners take harness.Form values for those bits,
which is how the CLI's exhaustive mode runs them, one run per polynomial
and control branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import and_, xor

from .harness import ALICE, BOB, ProtocolError, Transcript, as_source
# unused here, but the bench tracer's self-test checks this binding
from .harness import measure_with  # noqa: F401


@dataclass(frozen=True)
class LinearPolynomial:
    """y = (c + sum a_i x_i) mod 2 with coefficients known to Bob."""

    a: tuple
    c: int = 0

    def __post_init__(self):
        a = self.a
        if not (type(a) is tuple and set(map(type, a)) <= {int}
                and set(a) <= {0, 1}):  # a tuple of int bits is kept
            object.__setattr__(self, "a", tuple(int(b) & 1 for b in a))
        object.__setattr__(self, "c", int(self.c) & 1)

    @property
    def n(self) -> int:
        return len(self.a)

    def evaluate(self, x) -> int:
        if len(x) != self.n:
            raise ValueError(f"expected {self.n} input bits, got {len(x)}")
        y = self.c
        for ai, xi in zip(self.a, x):
            y ^= ai & (int(xi) & 1)
        return y


@dataclass(frozen=True)
class DistributedBit:
    """A bit shared as the XOR of one local bit per party."""

    alice_bit: int
    bob_bit: int

    @property
    def value(self) -> int:
        return self.alice_bit ^ self.bob_bit


@dataclass
class PadShares:
    """The data party's secret pad material for one scheme-8 run."""

    x_split: list  # x_split[i][j], XORing over j to x_i
    s: list        # basis bits s_j
    t: list        # pad bits t_j, carried by qubit n


def _split_bits(x, k, pads):
    """k pads per input bit, XORing to it: x_split[i][j].  `pads` holds
    the n*(k-1) random pads, input by input; the last pad of each input is
    fixed by the others.  Each pad index is one column pass over all
    inputs, with ^ only, so known bits and Forms take the same path."""
    cols = [pads[j::k - 1] for j in range(k - 1)]  # pad j of every input
    last = [xi & 1 for xi in x]  # known bits or Forms
    for col in cols:
        last = list(map(xor, last, col))
    return list(map(list, zip(*cols, last)))


def _check_params(x, poly, k):
    if k < 1:
        raise ValueError("k must be a positive integer")
    if len(x) != poly.n:
        raise ValueError(f"input length {len(x)} != polynomial arity {poly.n}")


# --- schemes 4 and 7 ------------------------------------------------------

def _check_party(strategy, party):
    if strategy is not None and getattr(strategy, "party", party) != party:
        raise ProtocolError(f"strategy for {strategy.party} plugged into "
                            f"{party}'s interface")


def _measure_eigenstate(qubit, basis, source):
    """Measure a qubit held as a Z/X eigenstate (held basis, bit) in
    `basis`: its own basis reads the bit, the other draws one uniform
    outcome.  Returns the collapsed qubit."""
    held, bit = qubit
    return basis, bit if held == basis else source.outcome(0.5)


def run_scheme4(x, poly, k, rng, distributed=False, m=1, alice_strategy=None,
                bob_strategy=None):
    """Round-trip pad protocol; `m` is the basis-sharing block size.

    m=1 gives fully independent basis bits s_ij (one return bit per pad,
    n*k of them); m=n shares s_j across all i (scheme 7, k return bits).
    Intermediate m trades Bob->Alice communication against data privacy.
    Returns (bit, transcript) or (DistributedBit, transcript).

    Every pad pair runs as its Pauli-frame channel, with no register and no
    teleport: the hidden bits come in two draws, the basis bits and then
    one block of pads, forward masks and (unless Bob cheats) return masks,
    in the order the literal protocol draws them.  The bookkeeping runs
    over those blocks too: Alice's 2nk forward disclosures and Bob's v
    bits are one transcript block each, the mask parities and Alice's
    per-pair terms are whole-list passes, and her share is one XOR
    reduction, with ^ and & only, so known bits and Forms take the same
    path.  A cheating party substitutes its own reading of a pair's term
    in that list.  tests/test_linpoly.py keeps the literal two-qubit
    pairs, cheaters included, as the reference.

    `bob_strategy` is an optional cheating-Bob plugin.  Its intercept hook
    gets each received pair as two Z/X eigenstates ((basis, bit), (basis,
    bit)) and returns it measured: a Z-basis first qubit and an X-basis
    second, which Bob's CNOT leaves alone.  Alice's basis-s reads in the
    other basis then draw one uniform outcome each.

    `alice_strategy` is an optional cheating-Alice plugin (m=1 only).  It
    substitutes pad pair (0, 0) with the probe, the +1 eigenstate of X(x)Z
    and Z(x)X, and supplies that pair's decoded contribution itself
    (measure_pair), seeing what a real Alice would see: the returned pair
    as the sign bits of those stabilizers, her own withheld forward bits,
    and Bob's v bit.  Only one party may cheat in a run.
    """
    _check_params(x, poly, k)
    _check_party(alice_strategy, ALICE)
    _check_party(bob_strategy, BOB)
    n = poly.n
    if m < 1 or n % m:
        raise ValueError("block size m must divide n")
    if alice_strategy is not None and m != 1:
        raise ValueError("adversary strategies support only m=1")
    if alice_strategy is not None and bob_strategy is not None:
        raise ValueError("only one party may cheat in a run")
    source = as_source(rng)
    transcript = Transcript()
    blocks = n // m

    # Alice: basis bits, pads, forward teleports.  Block b's basis bit
    # for pad j is s[b*k + j].  Pair p = i*k + j withholds the Z
    # correction on its first qubit, fwd[2p], and the X correction on its
    # second, fwd[2p + 1], and discloses the other two as 0 at once: one
    # block of 2nk one-bit messages.  t_ij is whichever withheld bit stays
    # relevant under her measurement basis.  An honest Bob's return masks
    # come next in the stream, so they share the pads' draw.
    nk, npad = n * k, n * (k - 1)
    s = source.draw(blocks * k, "s")
    bits = source.draw(npad + 2 * nk + (4 * nk if bob_strategy is None
                                        else 0), "pad")
    x_split = _split_bits(x, k, bits[:npad])
    fwd = bits[npad:npad + 2 * nk]
    transcript.record_block(ALICE, [0] * (2 * nk),
                            lambda r: f"fwd-{r // (2 * k)}-{r // 2 % k}")

    # Bob: CNOT exactly when a_i=0, then return teleports withholding all
    # correction bits, ret[4p:4p + 4] = (mx, mz) of each qubit; the
    # withheld bits are his sigma_y/sigma_z mask record.  A cheating Bob
    # first gets each pair: in basis s_ij = 0 the Z values (x_ij, forward
    # X mask), in basis 1 the X values (forward Z mask, x_ij); his
    # outcomes come between the pairs' return masks.
    if bob_strategy is None:
        ret = bits[npad + 2 * nk:]
    else:
        pairs, ret = [], []
        for i in range(n):
            for j in range(k):
                p = i * k + j
                pair = bob_strategy.intercept(
                    (("Z", x_split[i][j]), ("Z", fwd[2 * p + 1]))
                    if s[i // m * k + j] == 0
                    else (("X", fwd[2 * p]), ("X", x_split[i][j])), source)
                if poly.a[i] == 0 and [b for b, _ in pair] != ["Z", "X"]:
                    raise ProtocolError("Bob's CNOT on this pair has no "
                                        "eigenstate channel")
                pairs.append(pair)
                ret += source.draw(4, "return")

    # Bob's mask bookkeeping: X^mx Z^mz = (phase) Y^mx Z^(mx^mz), so the
    # sigma_y mask bit per qubit is mx and the sigma_z mask bit is mx^mz.
    # Pair p's two qubits give the parities mx[p] and mz[p], and dz[p] =
    # mx[p] ^ mz[p].  He keeps the sigma_y parity of every pair and
    # discloses, per block and pad index, v[b*k + j], the parity of the
    # sigma_z bits of the block's m pairs (i, j): one block of messages.
    # With m = 1 each block is one input, so v is dz (and below, sp is s).
    mx = list(map(xor, ret[0::4], ret[2::4]))
    mz = list(map(xor, ret[1::4], ret[3::4]))
    dz = list(map(xor, mx, mz))
    y_total = reduce(xor, mx)
    v = dz if m == 1 else [reduce(xor, dz[q + j:q + m * k:k])
                           for q in range(0, nk, m * k) for j in range(k)]
    transcript.record_block(BOB, v, lambda q: f"v-{q // k}-{q % k}")

    # Alice: basis-matched measurements, pad removal, block assembly.
    # Pair p is read in basis sp[p] = s[b*k + j].  The forward masks leave
    # Z values (x, a2) or X values (b1, x), Bob's CNOT (a_i=0) adds x into
    # the other qubit and the return masks' X (s=0) or Z (s=1) parts flip
    # both, so pair p's term o1 ^ o2 ^ t_ij is a_i x_ij ^ flips[p], with
    # flips[p] = mz[p] if sp[p] else mx[p].  Block (b, j) adds s_bj v_bj.
    sp = s if m == 1 else list(chain.from_iterable(
        s[q:q + k] * m for q in range(0, blocks * k, k)))
    ax = map(and_, chain.from_iterable(zip(*[poly.a] * k)),  # a_i, k times
             chain.from_iterable(x_split))
    flips = map(xor, mx, map(and_, sp, dz))
    terms = list(map(xor, ax, flips))
    sv = list(map(and_, s, v))
    if alice_strategy is not None:  # the probe is pair 0, all of block 0
        # The forward masks' Z (first qubit) and X (second) and Bob's
        # CNOT (a_i=0) flip the X(x)Z sign; each return mask flips a sign
        # its part anticommutes with.
        z1, x2 = fwd[0], fwd[1]
        mx1, mz1, mx2, mz2 = ret[0:4]
        signs = (z1 ^ x2 ^ poly.a[0] ^ 1 ^ mz1 ^ mx2, mx1 ^ mz2)
        sv[0] = 0
        terms[0] = alice_strategy.measure_pair(signs, x_split[0][0], v[0],
                                               z1, x2)
    elif bob_strategy is not None:
        # The return masks' X parts flip Z values and their Z parts X
        # values; Alice's reads draw in (b, j, i) order.
        for b in range(blocks):
            for j in range(k):
                basis = "ZX"[s[b * k + j]]
                for i in range(b * m, (b + 1) * m):
                    p = i * k + j
                    g = fwd[2 * p] if basis == "X" else fwd[2 * p + 1]  # t_ij
                    masks = (ret[4 * p:4 * p + 2], ret[4 * p + 2:4 * p + 4])
                    for (held, bit), (mxq, mzq) in zip(pairs[p], masks):
                        qubit = (held, bit ^ (mxq if held == "Z" else mzq))
                        g ^= _measure_eigenstate(qubit, basis, source)[1]
                    terms[p] = g
    y0 = reduce(xor, chain(sv, terms))
    bob_bit = poly.c ^ y_total
    if distributed:
        return DistributedBit(y0, bob_bit), transcript
    transcript.record(BOB, [bob_bit], tag="final")
    return y0 ^ bob_bit, transcript


def run_scheme7(x, poly, k, rng):
    """Shared-basis variant: one basis bit s_j across all i (m = n)."""
    return run_scheme4(x, poly, k, rng, m=poly.n)


# --- scheme 8 -------------------------------------------------------------

class Scheme8Instance:
    """One data-locking evaluation, split into role-parameterized phases so
    a higher-level scheme can run it in either direction and stop before the
    final mask bit.

    data party: holds x, prepares and teleports k*(n+1) single qubits.
    circuit party: holds the polynomial, pairs its a_i=1 qubits with CNOTs,
    measures, and reports R_j = u_j ^ v_j plus the parity w of the a_i.

    Nothing is withheld from the teleports and every measurement reads a
    fixed classical channel of the pads, so the phases run as that channel
    and no register is built.  The literal single-qubit protocol is the
    reference in tests/test_linpoly.py.
    """

    def __init__(self, x, poly, k, source, transcript=None,
                 data_party=ALICE, circuit_party=BOB):
        _check_params(x, poly, k)
        self.x = list(x)  # known bits, or Forms in scheme 9's inner run
        self.poly = poly
        self.k = k
        self.source = source
        self.transcript = transcript if transcript is not None else Transcript()
        self.data_party = data_party
        self.circuit_party = circuit_party
        self.shares = None
        self.u = self.v = self.R = self.w = None

    def data_phase(self):
        """Draw s, t and the pads; qubit i of index j encodes x_ij (qubit n
        encodes t_j) in basis s_j.  Each of the k*(n+1) teleports discloses
        both correction bits, which the receiver applies at once."""
        n, k, src = self.poly.n, self.k, self.source
        s = src.draw(k, "s")
        t = src.draw(k, "t")
        pads = src.draw(n * (k - 1), "pad")
        self.shares = PadShares(_split_bits(self.x, k, pads), s, t)
        for j in range(k):
            for _ in range(n + 1):
                self.transcript.record(self.data_party, [0, 0],
                                       tag=f"send-{j}")
        return self

    def circuit_phase(self, send=True):
        """CNOT pairing and measurements; optionally transmit (R_j..., w).

        After CNOT(ctrl, tgt) on two qubits in basis s_j, the one outcome
        that reads the pad parity is the Z outcome of the target (s_j = 0)
        or the X outcome of the control (s_j = 1); the other is a uniform
        bit, one hidden draw per pair.
        """
        a = self.poly.a
        ones = [i for i, ai in enumerate(a) if ai == 1]
        self.w = len(ones) & 1
        pairs = [(ones[p], ones[p + 1]) for p in range(0, len(ones) - 1, 2)]
        if self.w:
            pairs.append((ones[-1], self.poly.n))  # unpaired qubit -> t_j
        shares = self.shares
        self.u, self.v, self.R = [], [], []
        for j in range(self.k):
            pads = [row[j] for row in shares.x_split] + [shares.t[j]]
            uj = vj = 0
            for ctrl, tgt in pairs:
                parity = pads[ctrl] ^ pads[tgt]
                r = self.source.outcome(0.5)
                oz, ox = (parity, r) if shares.s[j] == 0 else (r, parity)
                # u_j must be the Z-parity so that the mask bit
                # c ^ sum(u_j) cancels the random half
                uj ^= oz
                vj ^= ox
            self.u.append(uj)
            self.v.append(vj)
            self.R.append(uj ^ vj)
        if send:
            self.transcript.record(self.circuit_party, self.R, tag="R")
            self.transcript.record(self.circuit_party, [self.w], tag="w")
        return list(self.R), self.w

    def data_value(self, R, w) -> int:
        """Data party's share y0 = sum(s_j R_j + t_j w) mod 2."""
        y0 = 0
        for j in range(self.k):
            y0 ^= (self.shares.s[j] & R[j]) ^ (self.shares.t[j] & w)
        return y0

    def circuit_value(self) -> int:
        """Circuit party's mask share (c + sum u_j) mod 2."""
        out = self.poly.c
        for uj in self.u:
            out ^= uj
        return out


def run_scheme8(x, poly, k, rng):
    """Data-locking protocol; returns (bit, transcript)."""
    source = as_source(rng)
    inst = Scheme8Instance(x, poly, k, source)
    inst.data_phase()
    R, w = inst.circuit_phase(send=True)
    y0 = inst.data_value(R, w)
    bob_bit = inst.circuit_value()
    inst.transcript.record(BOB, [bob_bit], tag="final")
    return y0 ^ bob_bit, inst.transcript


# --- scheme 9 -------------------------------------------------------------

def run_scheme9(x, poly, gamma, k_prime, rng):
    """Two-level composition: an outer scheme 8 at k = ceil(gamma*n) stops
    before Bob sends anything; the local evaluation sum(s_j R_j + t_j w) is
    replaced by an inner role-reversed scheme 8 (Bob's data: R_1..R_k, w;
    Alice's coefficients: s_1..s_k and sum(t_j)) with the inner mask bit
    omitted, so R_j and w never reach Alice in the clear.  Bob folds his
    inner share into the outer mask bit and sends that single bit.
    """
    if not 1 < gamma < 2:
        raise ValueError("gamma must lie strictly between 1 and 2")
    if k_prime < 1:
        raise ValueError("k_prime must be a positive integer")
    source = as_source(rng)
    transcript = Transcript()
    k = math.ceil(gamma * poly.n)

    outer = Scheme8Instance(x, poly, k, source, transcript)
    outer.data_phase()
    R, w = outer.circuit_phase(send=False)

    t_sum = 0
    for tj in outer.shares.t:
        t_sum ^= tj
    inner_poly = LinearPolynomial(tuple(outer.shares.s) + (t_sum,), 0)
    inner = Scheme8Instance(list(R) + [w], inner_poly, k_prime, source,
                            transcript, data_party=BOB, circuit_party=ALICE)
    inner.data_phase()
    R2, w2 = inner.circuit_phase(send=True)
    beta = inner.data_value(R2, w2)      # Bob's share of y0
    alpha = inner.circuit_value()        # Alice's share of y0

    final = beta ^ outer.circuit_value()
    transcript.record(BOB, [final], tag="final")
    return alpha ^ final, transcript


# --- scheme 10 ------------------------------------------------------------

def run_scheme10(x, poly, k, rng):
    """Classical analogue of scheme 8's parity algebra: each pad becomes a
    bit pair with x_ij in the slot selected by s_j and a random filler in
    the other; Bob returns the cross-slot parity over his a_i=1 pairs."""
    _check_params(x, poly, k)
    source = as_source(rng)
    transcript = Transcript()
    n = poly.n

    s = source.draw(k, "s")
    x_split = _split_bits(x, k, source.draw(n * (k - 1), "pad"))
    fillers = source.draw(n * k, "filler")
    pairs = {}
    payload = []
    for i in range(n):
        for j in range(k):
            filler = fillers[i * k + j]
            pair = ((x_split[i][j], filler) if s[j] == 0
                    else (filler, x_split[i][j]))
            pairs[i, j] = pair
            payload.extend(pair)
    transcript.record(ALICE, payload, tag="data")

    u, v, R = [], [], []
    for j in range(k):
        uj = vj = 0
        for i in range(n):
            if poly.a[i]:
                uj ^= pairs[i, j][0]
                vj ^= pairs[i, j][1]
        u.append(uj)
        v.append(vj)
        R.append(uj ^ vj)
    transcript.record(BOB, R, tag="R")

    y0 = 0
    for j in range(k):
        y0 ^= s[j] & R[j]
    bob_bit = poly.c
    for uj in u:
        bob_bit ^= uj
    transcript.record(BOB, [bob_bit], tag="final")
    return y0 ^ bob_bit, transcript
