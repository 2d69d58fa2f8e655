"""Linear-polynomial protocols: correctness, communication, validation."""

import itertools
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhelab import linpoly as lp
from qhelab import qsim
from qhelab.harness import (ALICE, FixedBits, ProtocolError, RandomBits,
                            comm_audit, enumerate_hidden_adaptive)


def test_polynomial_basics():
    poly = lp.LinearPolynomial((1, 0, 3), c=2)  # coefficients reduce mod 2
    assert poly.a == (1, 0, 1) and poly.c == 0
    assert poly.evaluate([1, 1, 1]) == 0
    assert poly.evaluate([1, 1, 0]) == 1
    with pytest.raises(ValueError):
        poly.evaluate([1, 1])
    assert lp.LinearPolynomial((1, 1), 1).c == 1


def test_encode_pair_states():
    assert abs(lp.encode_pair(1, 0).vec[1] - 1) < 1e-12   # |0>|1>
    assert abs(lp.encode_pair(0, 0).vec[0] - 1) < 1e-12   # |0>|0>
    minus_plus = lp.encode_pair(1, 1).vec                 # |->(q1=x) x |+>
    assert abs(minus_plus @ np.array([1, 1, -1, -1]) / 2 - 1) < 1e-12


@given(st.integers(0, 1), st.integers(1, 6), st.integers(0, 2 ** 16))
@settings(deadline=None, max_examples=40)
def test_split_bit_xors_back(x, k, seed):
    pads = lp._split_bit(x, k, RandomBits(np.random.default_rng(seed)))
    assert len(pads) == k
    total = 0
    for p in pads:
        total ^= p
    assert total == x


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


def test_inner_product_demo():
    """Bipartite inner product sum(a_i x_i) mod 2 via one scheme 8 call."""
    rng = np.random.default_rng(4)
    for x, a, want in (([1, 1, 0], (1, 0, 1), 1), ([1, 1], (1, 1), 0)):
        out, _ = lp.run_scheme8(x, lp.LinearPolynomial(a, 0), 1, rng)
        assert out == want
    with pytest.raises(ValueError):  # vectors of unequal length
        lp.run_scheme8([1], lp.LinearPolynomial((1, 0), 0), 1, rng)
