"""Linear-polynomial protocols: correctness, communication, validation."""

import functools
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhelab import harness, linpoly as lp
from qhelab import qhe_core as qc
from qhelab import qsim, seclab
from qhelab.harness import (ALICE, BOB, FixedBits, ProtocolError,
                            RandomBits, Transcript, comm_audit,
                            enumerate_hidden_adaptive, measure_with,
                            teleport_symbolic)
from test_qsim import product_state


def scalar_split(x, k, source):
    """k pads per input bit, drawn one bit() at a time: the reference for
    lp._split_bits's block draw."""
    x_split = []
    for xi in x:
        pads = [source.bit("pad") for _ in range(k - 1)]
        last = xi & 1
        for p in pads:
            last ^= p
        x_split.append(pads + [last])
    return x_split


class LiteralScheme8(lp.Scheme8Instance):
    """Scheme 8 as the paper states it: per pad index j, an (n+1)-qubit
    register of single-qubit encodings (qubit n carries t_j) teleported to
    the circuit party, which CNOT-pairs its a_i=1 qubits and measures each
    control in X and each target in Z.  The reference for the classical
    channel that lp.Scheme8Instance runs."""

    def data_phase(self):
        n, k, src = self.poly.n, self.k, self.source
        s = [src.bit("s") for _ in range(k)]
        t = [src.bit("t") for _ in range(k)]
        x_split = scalar_split(self.x, k, src)
        self.shares = lp.PadShares(x_split, s, t)
        self.states = []
        for j in range(k):
            vecs = [_ENC[(x_split[i][j], s[j])] for i in range(n)]
            vecs.append(_ENC[(t[j], s[j])])
            st = product_state(*vecs)
            for q in range(n + 1):
                st, _ = teleport_symbolic(st, q, set(), src, self.transcript,
                                          sender=self.data_party,
                                          tag=f"send-{j}")
            self.states.append(st)
        return self

    def circuit_phase(self, send=True):
        ones = [i for i, ai in enumerate(self.poly.a) if ai == 1]
        self.w = len(ones) & 1
        pairs = [(ones[p], ones[p + 1]) for p in range(0, len(ones) - 1, 2)]
        if self.w:
            pairs.append((ones[-1], self.poly.n))
        self.u, self.v, self.R = [], [], []
        for j in range(self.k):
            st, uj, vj = self.states[j], 0, 0
            for ctrl, tgt in pairs:
                st = qsim.apply_gate(st, qsim.CNOT, [ctrl, tgt])
                ox, st = measure_with(self.source, st, "X", ctrl)
                oz, st = measure_with(self.source, st, "Z", tgt)
                uj ^= oz
                vj ^= ox
            self.u.append(uj)
            self.v.append(vj)
            self.R.append(uj ^ vj)
        if send:
            self.transcript.record(self.circuit_party, self.R, tag="R")
            self.transcript.record(self.circuit_party, [self.w], tag="w")
        return list(self.R), self.w


def _literal(run, *args):
    """Run a scheme-8 or scheme-9 runner on the literal reference."""
    channel = lp.Scheme8Instance
    lp.Scheme8Instance = LiteralScheme8
    try:
        return run(*args)
    finally:
        lp.Scheme8Instance = channel


_SQ = 1.0 / math.sqrt(2.0)
# single-qubit encoding vectors indexed by (bit, basis)
_ENC = {
    (0, 0): np.array([1.0, 0.0]),
    (1, 0): np.array([0.0, 1.0]),
    (0, 1): np.array([_SQ, _SQ]),
    (1, 1): np.array([_SQ, -_SQ]),
}
# (|0>|+> + |1>|->)/sqrt2 on (first, second); Bob's conditional CNOT sends
# it to (|0>|+> -+ |1>|->)/sqrt2, two orthogonal states indexed by a_i.
PROBE_VEC = np.array([1.0, 1.0, 1.0, -1.0]) / 2


def encode_pair(x, s):
    """Two-qubit pad encoding: x=0 -> |00> or |++>, x=1 -> |10> or |+->.

    In the Z-basis variant (s=0) the first qubit carries x; in the X-basis
    variant (s=1) the second qubit carries x as a relative sign.
    """
    if s == 0:
        first, second = _ENC[(int(x) & 1, 0)], _ENC[(0, 0)]
    else:
        first, second = _ENC[(0, 1)], _ENC[(int(x) & 1, 1)]
    return product_state(first, second)


def literal_intercept(state, source):
    """seclab.MeasuringBob on a register: Z on the first qubit, then X on
    the second."""
    _, st = measure_with(source, state, "Z", 0)
    _, st = measure_with(source, st, "X", 1)
    return st


def literal_probe_decode(strategy, state, x_ij, v, fwd_z1, fwd_x2, source):
    """seclab.ProbeAlice's decode on a register: undo the forward masks,
    rotate the second qubit by H and Bell-measure."""
    st = state
    if fwd_z1:
        st = qsim.apply_gate(st, qsim.Z, [0])
    if fwd_x2:
        st = qsim.apply_gate(st, qsim.X, [1])
    st = qsim.apply_gate(st, qsim.H, [1])
    (xobs, zobs), _ = harness.bell_measure_with(source, st, 0, 1)
    a_hat = xobs ^ zobs ^ v ^ 1
    strategy.identified.append(a_hat)
    return (a_hat & x_ij) ^ xobs


def literal_scheme4(x, poly, k, rng, distributed=False, m=1,
                    alice_strategy=None, bob_strategy=None):
    """Scheme 4 with every pad pair a two-qubit register: encoded,
    teleported to Bob, CNOTed when a_i = 0, teleported back and measured by
    Alice in her basis.  The reference for lp.run_scheme4's channels: an
    `alice_strategy` (a seclab.ProbeAlice) gets the PROBE_VEC register as
    pair (0, 0) and its decode runs on that register; a `bob_strategy` (a
    seclab.MeasuringBob) measures every received register."""
    n, source, transcript = poly.n, harness.as_source(rng), Transcript()
    blocks = n // m
    s = [[source.bit("s") for _ in range(k)] for _ in range(blocks)]
    x_split = scalar_split(x, k, source)
    states, t, fwd, returns = {}, {}, {}, {}
    for i in range(n):
        for j in range(k):
            s_ij = s[i // m][j]
            if alice_strategy is not None and (i, j) == (0, 0):
                st = qsim.QuantumState(PROBE_VEC.copy())
            else:
                st = encode_pair(x_split[i][j], s_ij)
            st, rec1 = teleport_symbolic(st, 0, {"z"}, source, transcript,
                                         sender=ALICE, tag=f"fwd-{i}-{j}")
            st, rec2 = teleport_symbolic(st, 1, {"x"}, source, transcript,
                                         sender=ALICE, tag=f"fwd-{i}-{j}")
            t[i, j] = (rec2.mask_x if s_ij == 0 else rec1.mask_z).reveal()
            fwd[i, j] = (rec1.mask_z.reveal(), rec2.mask_x.reveal())
            states[i, j] = st
    for i in range(n):
        for j in range(k):
            st = states[i, j]
            if bob_strategy is not None:
                st = literal_intercept(st, source)
            if poly.a[i] == 0:
                st = qsim.apply_gate(st, qsim.CNOT, [0, 1])
            st, ret1 = teleport_symbolic(st, 0, {"x", "z"}, source)
            st, ret2 = teleport_symbolic(st, 1, {"x", "z"}, source)
            states[i, j] = st
            returns[i, j] = [(r.mask_x.reveal(), r.mask_z.reveal())
                             for r in (ret1, ret2)]
    y_total = 0
    v = [[0] * k for _ in range(blocks)]
    for b in range(blocks):
        for j in range(k):
            for i in range(b * m, (b + 1) * m):
                for mx, mz in returns[i, j]:
                    y_total ^= mx
                    v[b][j] ^= mx ^ mz
            transcript.record(BOB, [v[b][j]], tag=f"v-{b}-{j}")
    y0 = 0
    for b in range(blocks):
        for j in range(k):
            g = s[b][j] & v[b][j]
            for i in range(b * m, (b + 1) * m):
                if alice_strategy is not None and (i, j) == (0, 0):
                    g = literal_probe_decode(
                        alice_strategy, states[i, j], x_split[i][j],
                        v[b][j], *fwd[i, j], source)
                    continue
                basis = "Z" if s[b][j] == 0 else "X"
                o1, st = measure_with(source, states[i, j], basis, 0)
                o2, st = measure_with(source, st, basis, 1)
                g ^= o1 ^ o2 ^ t[i, j]
            y0 ^= g
    bob_bit = poly.c ^ y_total
    if distributed:
        return lp.DistributedBit(y0, bob_bit), transcript
    transcript.record(BOB, [bob_bit], tag="final")
    return y0 ^ bob_bit, transcript


def _all_cases(n):
    """Every (x, polynomial) of arity n."""
    for xv, av, c in itertools.product(range(2 ** n), range(2 ** n), (0, 1)):
        yield ([(xv >> i) & 1 for i in range(n)],
               lp.LinearPolynomial(tuple((av >> i) & 1 for i in range(n)), c))


def test_polynomial_basics():
    poly = lp.LinearPolynomial((1, 0, 3), c=2)  # coefficients reduce mod 2
    assert poly.a == (1, 0, 1) and poly.c == 0
    assert poly.evaluate([1, 1, 1]) == 0
    assert poly.evaluate([1, 1, 0]) == 1
    with pytest.raises(ValueError):
        poly.evaluate([1, 1])
    assert lp.LinearPolynomial((1, 1), 1).c == 1


def test_encode_pair_states():
    assert abs(encode_pair(1, 0).vec[1] - 1) < 1e-12  # |0>|1>
    assert abs(encode_pair(0, 0).vec[0] - 1) < 1e-12  # |0>|0>
    minus_plus = encode_pair(1, 1).vec                # |->(q1=x) x |+>
    assert abs(minus_plus @ np.array([1, 1, -1, -1]) / 2 - 1) < 1e-12


@given(st.lists(st.integers(0, 1), max_size=5), st.integers(1, 6),
       st.integers(0, 2 ** 16))
@settings(deadline=None, max_examples=40)
def test_split_bit_xors_back(x, k, seed):
    """Each input's k pads XOR back to it, and the block draw gives the
    pads, and leaves the generator, as one bit() per pad would."""
    runs = []
    for split in (lp._split_bits, scalar_split):
        gen = np.random.default_rng(seed)
        runs.append((split(x, k, RandomBits(gen)), gen.random()))
    assert runs[0] == runs[1]
    x_split = runs[0][0]
    assert [len(pads) for pads in x_split] == [k] * len(x)
    for xi, pads in zip(x, x_split):
        total = 0
        for p in pads:
            total ^= p
        assert total == xi


_CASES = [((1,), 0), ((0,), 1), ((1, 1), 1), ((1, 0), 0), ((0, 1, 1), 1)]


@pytest.mark.parametrize("runner", [lp.run_scheme4, lp.run_scheme7,
                                    lp.run_scheme8, lp.run_scheme10])
@pytest.mark.parametrize("a,c", _CASES)
def test_scheme_correctness_sweep(runner, a, c):
    poly = lp.LinearPolynomial(a, c)
    for k in (1, 2):
        for bits in itertools.product((0, 1), repeat=poly.n):
            for seed in (0, 1):
                rng = np.random.default_rng(hash((a, c, k, bits, seed)) % 2**32)
                out, _ = runner(list(bits), poly, k, rng)
                assert out == poly.evaluate(bits)


@pytest.mark.parametrize("runner", [lp.run_scheme4, lp.run_scheme8,
                                    lp.run_scheme10])
def test_distributed_mode(runner):
    poly = lp.LinearPolynomial((1, 1), 1)
    rng = np.random.default_rng(5)
    out, tr = runner([1, 0], poly, 2, rng, distributed=True)
    assert isinstance(out, lp.DistributedBit)
    assert out.value == poly.evaluate([1, 0])
    assert "final" not in tr.serialize()


def test_scheme4_block_size_interpolates_to_scheme7():
    poly = lp.LinearPolynomial((1, 0, 1, 1), 0)
    rng = np.random.default_rng(9)
    out, tr = lp.run_scheme4([1, 1, 0, 1], poly, 2, rng, m=4)
    assert out == poly.evaluate([1, 1, 0, 1])
    assert comm_audit(tr, "Bob->Alice") == 2 + 1  # k bits + final mask
    out, tr = lp.run_scheme4([1, 1, 0, 1], poly, 2, rng, m=2)
    assert out == poly.evaluate([1, 1, 0, 1])
    assert comm_audit(tr, "Bob->Alice") == 2 * 2 + 1
    with pytest.raises(ValueError):
        lp.run_scheme4([1, 1, 0], lp.LinearPolynomial((1, 0, 1)), 1, rng, m=2)


@pytest.mark.parametrize("runner,reply", [
    (lp.run_scheme4, lambda n, k: n * k + 1),
    (lp.run_scheme7, lambda n, k: k + 1),
    (lp.run_scheme8, lambda n, k: k + 2),
    (lp.run_scheme10, lambda n, k: k + 1),
])
def test_reply_communication_counts(runner, reply):
    n, k = 2, 3
    poly = lp.LinearPolynomial((1, 1), 0)
    rng = np.random.default_rng(2)
    _, tr = runner([1, 0], poly, k, rng)
    assert comm_audit(tr, "Bob->Alice") == reply(n, k)


@pytest.mark.parametrize("x,a", [([1], (1,)), ([1, 0], (1, 1))])
def test_scheme8_exhaustive_branches(x, a):
    """Every hidden-randomness branch yields the correct value and the
    branch weights cover the full tree."""
    poly = lp.LinearPolynomial(a, 1)

    def run(src):
        out, _ = lp.run_scheme8(x, poly, 1, src)
        return out

    leaves = list(enumerate_hidden_adaptive(run))
    weight = sum(2.0 ** -len(bits) for bits, _ in leaves)
    assert abs(weight - 1.0) < 1e-9
    assert all(out == poly.evaluate(x) for _, out in leaves)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (1, 2), (3, 1)])
def test_scheme8_channel_matches_literal_on_every_branch(n, k):
    """On every (x, a, c) and every hidden-bit branch the channel draws the
    same bits and gives the same output and transcript as the literal
    single-qubit protocol."""
    for x, poly in _all_cases(n):
        def run(src, x=x, poly=poly):
            out, tr = lp.run_scheme8(x, poly, k, src)
            return out, tr.serialize()

        channel = list(enumerate_hidden_adaptive(run))
        literal = _literal(lambda: list(enumerate_hidden_adaptive(run)))
        assert channel == literal
        assert all(out == poly.evaluate(x) for _, (out, _) in channel)


def test_scheme9_channel_matches_literal_on_every_branch():
    """Scheme 9 at n=1, k'=1 (outer k=2): both scheme-8 instances, the
    outer one and the role-reversed inner one, run as the channel."""
    for x, poly in _all_cases(1):
        def run(src, x=x, poly=poly):
            out, tr = lp.run_scheme9(x, poly, 1.5, 1, src)
            return out, tr.serialize()

        channel = list(enumerate_hidden_adaptive(run))
        literal = _literal(lambda: list(enumerate_hidden_adaptive(run)))
        assert channel == literal
        assert all(out == poly.evaluate(x) for _, (out, _) in channel)


@pytest.mark.parametrize("runner,n,size", [
    (lambda x, poly, k, rng: lp.run_scheme8(x, poly, k, rng), 5, 3),
    (lambda x, poly, k, rng: lp.run_scheme8(x, poly, k, rng), 4, 4),
    (lambda x, poly, k, rng: lp.run_scheme9(x, poly, 1.5, k, rng), 3, 2),
], ids=["scheme8-5-3", "scheme8-4-4", "scheme9-3-2"])
def test_channel_matches_literal_on_seeded_runs(runner, n, size):
    """Past exhaustive sizes: seeded runs give the same output and
    transcript, and leave the generator in the same state."""
    rng = np.random.default_rng(n * 100 + size)
    for trial in range(30):
        x = [int(b) for b in rng.integers(0, 2, size=n)]
        poly = lp.LinearPolynomial(tuple(rng.integers(0, 2, size=n)),
                                   int(rng.integers(0, 2)))
        runs = []
        for run in (runner, functools.partial(_literal, runner)):
            gen = np.random.default_rng(trial)
            out, tr = run(x, poly, size, RandomBits(gen))
            runs.append((out, tr.serialize(), int(gen.integers(1 << 30))))
        assert runs[0] == runs[1]
        assert runs[0][0] == poly.evaluate(x)


# Every case at (1, 1); past it, one case whose pairs take both a_i values
# and a nonzero a_i x_ij term, since every branch of one case already costs
# the literal reference seconds.
_WIDE = ([1, 1], lp.LinearPolynomial((0, 1), 1))


@pytest.mark.parametrize("n,k,m,cases", [
    (1, 1, 1, list(_all_cases(1))),
    (2, 1, 1, [_WIDE]),
    (2, 1, 2, [_WIDE]),
    (1, 2, 1, [([1], lp.LinearPolynomial((1,), 0))]),
], ids=["1-1-1", "2-1-1", "2-1-2", "1-2-1"])
def test_scheme4_channel_matches_literal_on_every_branch(n, k, m, cases):
    """On every hidden-bit branch the honest pairs' channel consumes the
    same bits and gives the same output and transcript as the literal
    two-qubit registers."""
    for x, poly in cases:
        width = harness.hidden_bit_count(
            lambda src: lp.run_scheme4(x, poly, k, src, m=m))
        runs = []
        for runner in (lp.run_scheme4, literal_scheme4):
            def run(src, runner=runner):
                out, tr = runner(x, poly, k, src, m=m)
                return out, tr.serialize()

            runs.append(list(harness.enumerate_hidden(run, width)))
        assert runs[0] == runs[1]
        assert len(runs[0]) == 2 ** width
        assert all(out == poly.evaluate(x) for _, (out, _) in runs[0])


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (3, 2), (4, 3), (34, 1)])
def test_scheme4_channel_matches_literal_on_seeded_runs(n, k):
    """At m = 1 and m = n in both output modes, up to the 34 variables of
    a scheme-6 trap run: seeded runs give the same output and transcript,
    and leave the generator in the same state."""
    rng = np.random.default_rng(n * 100 + k)
    for trial in range(100):
        x = [int(b) for b in rng.integers(0, 2, size=n)]
        poly = lp.LinearPolynomial(tuple(rng.integers(0, 2, size=n)),
                                   int(rng.integers(0, 2)))
        m, distributed = (1, n)[trial % 2], trial % 4 >= 2
        runs = []
        for runner in (lp.run_scheme4, literal_scheme4):
            gen = np.random.default_rng(trial)
            out, tr = runner(x, poly, k, RandomBits(gen), distributed, m)
            runs.append((out, tr.serialize(), int(gen.integers(1 << 30))))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("probe", [False, True], ids=["honest", "probe"])
def test_scheme6_channel_matches_literal(monkeypatch, probe):
    """Scheme 6 reaches scheme 4 once per frame form; under honest and
    probing Alice the channel and the literal pairs give the same
    transcripts, final state and generator state."""
    def run(seed):
        gen = np.random.default_rng(seed)
        out = qc.run_scheme6(qc.random_clifford_t(2, 2, gen),
                             qsim.random_state(2, gen), 2, 4, gen,
                             alice_strategy=seclab.ProbeAlice() if probe
                             else None, rng_bob=np.random.default_rng(seed))
        return (out.aborted, out.transcript.serialize(),
                [tr.serialize() for tr in out.report.instance_transcripts],
                None if out.state is None else out.state.vec.tobytes(),
                int(gen.integers(1 << 30)))

    seeds = range(10)
    channel = [run(seed) for seed in seeds]
    monkeypatch.setattr(qc, "run_scheme4", literal_scheme4)
    assert channel == [run(seed) for seed in seeds]


def _forbid_registers(monkeypatch, names):
    """Make every qsim register call, and the named harness helpers, fail."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the channel builds no register")

    for name in ("apply_gate", "measure", "QuantumState"):
        monkeypatch.setattr(qsim, name, forbidden)
    for name in names:
        monkeypatch.setattr(harness, name, forbidden)
        if hasattr(lp, name):
            monkeypatch.setattr(lp, name, forbidden)


@pytest.mark.parametrize("run", [
    lambda x, poly, rng: lp.run_scheme8(x, poly, 2, rng)[0],
    lambda x, poly, rng: lp.run_scheme9(x, poly, 1.5, 2, rng)[0],
    lambda x, poly, rng: lp.run_scheme4(x, poly, 2, rng)[0],
    lambda x, poly, rng: lp.run_scheme7(x, poly, 2, rng)[0],
    lambda x, poly, rng: lp.run_scheme4(x, poly, 2, rng,
                                        distributed=True)[0].value,
    lambda x, poly, rng: lp.run_scheme4(x, poly, 2, rng, distributed=True,
                                        m=2)[0].value,
], ids=["scheme8", "scheme9", "scheme4", "scheme7", "scheme4-distributed",
        "scheme7-distributed"])
def test_channel_builds_no_register(monkeypatch, run):
    """The channels call no qsim function, measurement or symbolic
    teleport: every hidden bit comes from the source's block draws."""
    _forbid_registers(monkeypatch, ("teleport_symbolic", "measure_with"))
    rng = np.random.default_rng(3)
    for x, poly in _all_cases(2):
        assert run(x, poly, rng) == poly.evaluate(x)


# a fresh strategy per run, as keyword arguments of run_scheme4
_CHEATERS = {
    "bob": lambda: {"bob_strategy": seclab.MeasuringBob()},
    "probe": lambda: {"alice_strategy": seclab.ProbeAlice()},
}


def _cheater_run(runner, cheater, x, poly, k, source, distributed=False,
                 m=1):
    """Output, serialized transcript and the probe's identified bits of one
    scheme-4 run under a fresh cheater."""
    strategy = _CHEATERS[cheater]()
    out, tr = runner(x, poly, k, source, distributed, m, **strategy)
    alice = strategy.get("alice_strategy")
    return out, tr.serialize(), alice and alice.identified


@pytest.mark.parametrize("cheater", sorted(_CHEATERS))
def test_cheater_channel_builds_no_register(monkeypatch, cheater):
    """Under either cheater, run_scheme4 constructs no qsim.QuantumState
    and calls no qsim function or measurement."""
    _forbid_registers(monkeypatch, ("teleport_symbolic", "measure_with",
                                    "bell_measure_with"))
    rng = np.random.default_rng(3)
    for x, poly in _all_cases(2):
        for distributed in (False, True):
            _cheater_run(lp.run_scheme4, cheater, x, poly, 2,
                         RandomBits(rng), distributed)


@pytest.mark.parametrize("cheater", sorted(_CHEATERS))
def test_cheater_channel_matches_literal_on_every_branch(cheater):
    """At (n, k) = (1, 1), on every case and every hidden-bit branch, the
    cheater's channel consumes the same bits and gives the same output,
    transcript and identified coefficient as the literal registers."""
    for x, poly in _all_cases(1):
        width = harness.hidden_bit_count(lambda src: _cheater_run(
            lp.run_scheme4, cheater, x, poly, 1, src))
        for bits in itertools.product((0, 1), repeat=width):
            runs = []
            for runner in (lp.run_scheme4, literal_scheme4):
                src = FixedBits(bits)
                runs.append((_cheater_run(runner, cheater, x, poly, 1, src),
                             src.pos))
            assert runs[0] == runs[1]
            assert runs[0][1] == width


@pytest.mark.parametrize("cheater", sorted(_CHEATERS))
@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3)
                                 for k in (1, 2, 3)])
def test_cheater_channel_matches_literal_on_seeded_runs(cheater, n, k):
    """For 200 seeds at m = 1 and m = n (the probe: m = 1 only), in both
    output modes, seeded runs give the same output, transcript and
    identified coefficient, and leave the generator in the same state."""
    rng = np.random.default_rng(n * 10 + k)
    blocks = (1,) if cheater == "probe" else sorted({1, n})
    for seed in range(200):
        x = [int(b) for b in rng.integers(0, 2, size=n)]
        poly = lp.LinearPolynomial(tuple(rng.integers(0, 2, size=n)),
                                   int(rng.integers(0, 2)))
        for m, distributed in itertools.product(blocks, (False, True)):
            runs = []
            for runner in (lp.run_scheme4, literal_scheme4):
                gen = np.random.default_rng(seed)
                runs.append((_cheater_run(runner, cheater, x, poly, k,
                                          RandomBits(gen), distributed, m),
                             gen.random()))
            assert runs[0] == runs[1]


class _PassThroughBob:
    """A Bob who hands every received pair on unmeasured."""

    party = BOB

    def intercept(self, pair, source):
        return pair


def test_cnot_without_an_eigenstate_channel_is_refused():
    """The channel takes Bob's CNOT only on a Z-basis control and an
    X-basis target, which it leaves alone; an unmeasured pair (Z-Z or X-X)
    under a_i = 0 is refused, and under a_i = 1, with no CNOT, it decodes
    as the honest pair."""
    for s_bit in (0, 1):
        src = FixedBits([s_bit] + [0] * 6)
        with pytest.raises(ProtocolError):
            lp.run_scheme4([1], lp.LinearPolynomial((0,), 0), 1, src,
                           bob_strategy=_PassThroughBob())
    poly = lp.LinearPolynomial((1, 1), 1)
    for seed in range(20):
        runs = []
        for strategy in (None, _PassThroughBob()):
            gen = np.random.default_rng(seed)
            out, tr = lp.run_scheme4([1, 0], poly, 2, RandomBits(gen),
                                     bob_strategy=strategy)
            runs.append((out, tr.serialize(), gen.random()))
        assert runs[0] == runs[1] and runs[0][0] == poly.evaluate([1, 0])


def test_scheme10_exhaustive_branches():
    poly = lp.LinearPolynomial((1, 1), 0)

    def run(src):
        out, _ = lp.run_scheme10([1, 0], poly, 2, src)
        return out

    leaves = list(enumerate_hidden_adaptive(run))
    weight = sum(2.0 ** -len(bits) for bits, _ in leaves)
    assert abs(weight - 1.0) < 1e-9
    assert all(out == 1 for _, out in leaves)


@pytest.mark.parametrize("gamma,k_prime", [(1.5, 1), (1.2, 2)])
def test_scheme9_correctness(gamma, k_prime):
    poly = lp.LinearPolynomial((1, 0), 1)
    for bits in itertools.product((0, 1), repeat=2):
        rng = np.random.default_rng(sum(bits) + 17)
        out, _ = lp.run_scheme9(list(bits), poly, gamma, k_prime, rng)
        assert out == poly.evaluate(bits)


def test_scheme9_parameter_validation():
    poly = lp.LinearPolynomial((1,), 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        lp.run_scheme9([1], poly, 2.5, 1, rng)
    with pytest.raises(ValueError):
        lp.run_scheme9([1], poly, 1.0, 1, rng)
    with pytest.raises(ValueError):
        lp.run_scheme9([1], poly, 1.5, 0, rng)


def test_common_parameter_validation():
    poly = lp.LinearPolynomial((1, 1), 0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        lp.run_scheme4([1, 0], poly, 0, rng)
    with pytest.raises(ValueError):
        lp.run_scheme8([1], poly, 1, rng)


def test_strategy_party_enforcement():
    poly = lp.LinearPolynomial((1,), 0)
    rng = np.random.default_rng(0)
    imposter = types.SimpleNamespace(party=ALICE)
    with pytest.raises(ProtocolError):
        lp.run_scheme4([1], poly, 1, rng, bob_strategy=imposter)
    with pytest.raises(ValueError):  # one cheating party per run
        lp.run_scheme4([1], poly, 1, rng, bob_strategy=seclab.MeasuringBob(),
                       alice_strategy=seclab.ProbeAlice())


def test_inner_product_demo():
    """Bipartite inner product sum(a_i x_i) mod 2 via one scheme 8 call."""
    rng = np.random.default_rng(4)
    for x, a, want in (([1, 1, 0], (1, 0, 1), 1), ([1, 1], (1, 1), 0)):
        out, _ = lp.run_scheme8(x, lp.LinearPolynomial(a, 0), 1, rng)
        assert out == want
    with pytest.raises(ValueError):  # vectors of unequal length
        lp.run_scheme8([1], lp.LinearPolynomial((1, 0), 0), 1, rng)
