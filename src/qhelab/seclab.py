"""Privacy analyzer and adversary bench for the linear-polynomial schemes.

Everything quantitative here comes from exact averages over the hidden
randomness (pad splits, basis bits, withheld teleport bits), never from
sampling.  Only adversary *dynamics* (how much a cheating measurement
disturbs a live protocol run) are Monte Carlo, and those report Wilson 95%
intervals.

Layout conventions for views and outcome tables (shared so that the
computations here and the measurement enumerations can be compared):

- Pad pairs are ordered with variable index i outermost, pad index j
  inner; within each two-qubit pair the first (Z-carrier) qubit is the
  higher-order tensor factor.  Outcome integers use the same digit order.
- The round-trip schemes' outcomes lump into one class digit per
  variable, c = alpha * 2^k + beta: alpha is the XOR of its k first-slot
  (Z) outcomes, bit k-1-j of beta is first XOR second on pair j, and the
  basis bits s use the same bit order.
- The round-trip schemes' views are averaged over the withheld teleport
  bits, which turn the non-carrier qubit of each pair into I/2.
- The one-way scheme's qubits carry no residual masks; its extra pad
  qubits (one per j) sit below the data qubits and average to I/2.

Bob's reference measurements: Z on the first qubit of each pair and X on
the second for the round-trip schemes (the views are diagonal in that
product basis, so this measurement is optimal and its classical mutual
information equals the Holevo quantity); the Hadamard eigenbasis per qubit
for the one-way scheme (the optimal axis for distinguishing the per-bit
views, which are not co-diagonalizable).

Each view family has one route.  The round-trip schemes (4 and 7) share
that eigenbasis, so every privacy quantity of theirs comes from rows and
tables of the lumped outcome classes, whose outcomes have equal
likelihoods (lumping changes no distance, information or guess rate).  A
row is a tensor product of closed-form one-variable laws, and a trace
distance is the total-variation distance of two rows.  A variable with
its own basis bits, or alone in its row, has its law averaged over s
(`_variable_law`).  Where one s serves two or more variables, or s is
kept as a column, every law is read per s from one closed-form array
(`_shared_laws`: 0/1 in uint8, every s at once), which each public call
builds once and hands down; it is never built off that route, where a
row is at least as large as it.  The one-way scheme (8) has views that do not commute, so
its per-variable distance compares two dense k-qubit densities
(`bob_view`); its tables are tensor products of one-variable laws too, the
lumped law for its Z/X pairing attack.  A pad b in basis s has density
(I + (-1)^b sigma_s)/2 with sigma_0 = Z and sigma_1 = X; each pad has its
own uniform basis bit, so k pads that XOR to x average to
(I + (-1)^x A^{kron k})/2^k with A = (Z + X)/2.  Dense views exist per
variable only: no audit reads a joint or uniform scheme-8 view, and the
tests keep those as a reference.  Every view, row and table is refused
past 2^24 entries before it is built, and an input bit other than 0 or 1
or an n or k that is not a positive integer is refused before anything
is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import qsim
from .harness import ALICE, BOB, as_source
# unused here, but the bench tracer's self-test checks this binding
from .harness import measure_with  # noqa: F401
from .linpoly import LinearPolynomial, _measure_eigenstate, run_scheme4
from .qhe_core import run_scheme6

# entries in the largest view density, outcome row or table built: one
# 12-qubit density, a row of n(k+1) = 24 class bits
_ENTRY_CAP = 2 ** 24
# P(Hadamard-basis outcome 0 | computational bit 0) = cos^2(pi/8); the same
# number appears for |+> versus |->, so the outcome law is basis-blind.
_C8 = math.cos(math.pi / 8) ** 2


def _check_entries(entries, what):
    """Refuse a view density, outcome row or table of more than
    _ENTRY_CAP entries before it is built."""
    if entries > _ENTRY_CAP:
        raise ValueError(f"{what} has {entries} entries, more than the cap "
                         f"{_ENTRY_CAP}")


def _positive(name, value):
    """A variable count n or pad count k as an int; anything but a
    positive integer is refused."""
    if not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, not {value!r}")
    return int(value)


def _bit(b):
    """An input bit as an int; anything but 0 or 1 is refused."""
    if not isinstance(b, (int, np.integer)) or b not in (0, 1):
        raise ValueError(f"input bits are 0 or 1, not {b!r}")
    return int(b)


def _bits(value, n):
    return [(value >> i) & 1 for i in range(n)]


def _inputs(x, n):
    """The input bit lists a view or row averages over: x is a single bit
    (per-variable view), a bit tuple of length n, or "uniform" (every
    input)."""
    if x == "uniform":
        return [_bits(v, n) for v in range(2 ** n)]
    if isinstance(x, (int, np.integer)):
        return [[_bit(x)]]
    xbits = [_bit(b) for b in x]
    if len(xbits) != n:
        raise ValueError(f"input length {len(xbits)} != n={n}")
    return [xbits]


# --- one-way Bob-view densities -------------------------------------------

@dataclass(frozen=True)
class BobView:
    """Average density operator of the k one-way qubits that Bob receives
    for one variable, conditioned on its input bit x.  bob_view's closed
    form is positive by construction; the tests check the spectrum of each
    view they build."""

    scheme: str
    k: int
    x: int
    density: np.ndarray

    def __post_init__(self):
        rho = self.density
        dim = 2 ** self.k
        if rho.shape != (dim, dim):
            raise ValueError(f"scheme {self.scheme} view should cover "
                             f"{self.k} qubits")
        if not np.allclose(rho, rho.conj().T, atol=1e-9):
            raise ValueError("view density is not Hermitian")
        if abs(np.trace(rho).real - 1.0) > 1e-9:
            raise ValueError("view density has trace != 1")


def _view_bit(scheme, x):
    """x as the input bit of a per-variable view; only the one-way scheme
    (8) has views, and joint inputs and non-bits are refused."""
    if scheme != "8":
        raise ValueError(f"no view construction for scheme {scheme!r}")
    if not isinstance(x, (int, np.integer)):
        raise ValueError("scheme-8 views are built per variable only; "
                         f"got input {x!r}")
    return _bit(x)


def bob_view(scheme, params, x) -> BobView:
    """Exact average of Bob's k received qubits of one variable in the
    one-way scheme (8) over Alice's hidden randomness, for the input bit
    x; params carries k.  The round-trip schemes' views are diagonal in
    the pair basis and are handled as outcome rows instead.

    With its own basis bit per pad, a variable's view is
    (I + (-1)^x A^{kron k})/2^k with A = (Z + X)/2.  Joint views (a bit
    tuple) and the uniform mixture are refused: no audit reads them, and
    the tests keep them as a reference.
    """
    scheme = str(scheme)
    x = _view_bit(scheme, x)
    k = _positive("k", params["k"])
    _check_entries(4 ** k, f"view on {k} qubits")
    # A = (Z + X)/2, real float64 so that view eigensolves stay on the
    # real LAPACK routine
    a = functools.reduce(qsim._kron, [np.array([[0.5, 0.5], [0.5, -0.5]])] * k)
    return BobView(scheme, k, x, (np.eye(2 ** k) + (-1) ** x * a) / 2 ** k)


def _view_row(scheme, k, inputs):
    """Law of Bob's outcome classes in a round-trip scheme: the diagonal of
    his view in the pair basis, summed over each class, averaged over the
    input bit lists from _inputs."""
    bits = len(inputs[0]) * (k + 1)
    _check_entries(2 ** bits, f"outcome row over {bits} class bits")
    laws = _route_laws(len(inputs[0]), k, shared_s=(scheme == "7"))
    row = _pair_row(inputs[0], k, laws)
    for xbits in inputs[1:]:  # in place: a row may near the entry cap
        row += _pair_row(xbits, k, laws)
    row /= len(inputs)
    if row.min() < -1e-9 or abs(row.sum() - 1.0) > 1e-9:
        raise ValueError("outcome row is not a probability distribution")
    return row


def privacy_distance(scheme, params, input_a, input_b) -> float:
    """Trace distance between Bob's views for two inputs.

    The round-trip schemes' views are diagonal in the shared pair basis, so
    their distance is that of two outcome rows; the one-way scheme's views
    do not commute and are compared as dense densities, one variable's
    (two input bits) only.
    """
    scheme = str(scheme)
    if scheme in ("4", "7"):
        k = _positive("k", params["k"])
        n = _positive("n", params.get("n", 1))
        a, b = (_inputs(x, n) for x in (input_a, input_b))
        return qsim.trace_distance(_view_row(scheme, k, a),
                                   _view_row(scheme, k, b))
    _view_bit(scheme, input_b)  # refused before the first view is built
    va = bob_view(scheme, params, input_a)
    vb = bob_view(scheme, params, input_b)
    return qsim.trace_distance(va.density, vb.density)


def theorem6_constants(n, k, inputs=None):
    """Pairwise view distances of the shared-basis scheme from the all-zero
    string to other inputs (default: every nonzero string); they should all
    agree.  Each distance compares two outcome rows."""
    n, k = _positive("n", n), _positive("k", k)
    if inputs is None:
        inputs = [_bits(v, n) for v in range(1, 2 ** n)]
    elif not inputs:
        raise ValueError("theorem6_constants needs at least one input")
    # every input is checked before any row is built
    others = [_inputs(tuple(other), n) for other in inputs]
    zero = _view_row("7", k, [[0] * n])
    vals = [qsim.trace_distance(zero, _view_row("7", k, other))
            for other in others]
    return {"values": vals, "spread": max(vals) - min(vals), "c0": vals[0]}


# --- fixed-measurement outcome tables ------------------------------------

def _variable_law(x, k):
    """Law of one variable's class c = alpha * 2^k + beta for input bit x,
    averaged over its basis bits s: the class (x, 0) keeps 2^-k and every
    class with beta != 0 has 2^-(k+1)."""
    law = np.zeros((2, 2 ** k))
    law[:, 1:] = 2.0 ** -(k + 1)
    law[x, 0] = 2.0 ** -k
    return law.reshape(-1)


def _shared_laws(k):
    """laws[x][s, c]: 1 where one variable with input bit x has class
    c = alpha * 2^k + beta at basis bits s, else 0.  Beta is uniform (mass
    2^-k each) and alpha = x ^ parity(s & beta), built by doubling over the
    bits of s, lowest first, for every s at once."""
    s = np.arange(2 ** k)
    parity = np.zeros((2 ** k, 1), np.uint8)
    for j in range(k):
        sj = ((s >> j) & 1).astype(np.uint8)[:, None]
        parity = np.concatenate([parity, parity ^ sj], axis=1)
    other = 1 - parity
    return np.stack([np.concatenate([other, parity], axis=1),
                     np.concatenate([parity, other], axis=1)])


def _per_s_laws(xbits, laws):
    """m[s, c]: the kron of the laws of the variables with input bits xbits
    at basis bits s (variable 0 outermost), one row per s; laws comes from
    _shared_laws, and each variable's mass 2^-k is in the starting column."""
    count = laws.shape[1]
    m = np.full((count, 1), 1.0 / count ** len(xbits))
    for x in xbits:
        m = (m[:, :, None] * laws[x][:, None, :]).reshape(count, -1)
    return m


def _route_laws(width, k, shared_s, with_s=False):
    """The per-s law array where a row reads it (one s shared by two or
    more variables, or kept as a column), else None.  A row on that route
    has at least 2^(2k+1) entries, so the row's entry check bounds it."""
    return _shared_laws(k) if shared_s and (with_s or width > 1) else None


def _pair_row(xbits, k, laws, with_s=False):
    """Law of the classes of all variables for input bits xbits, the kron
    of one-variable laws (variable 0 outermost).  With laws (from
    _route_laws) one s serves them all, and with_s=True puts it first in
    the column index (s, c); with None, each variable's s is averaged
    out."""
    if laws is None:
        return functools.reduce(qsim._kron,
                                [_variable_law(x, k) for x in xbits])
    if with_s:
        return _per_s_laws(xbits, laws).reshape(-1) / 2 ** k
    # the sum over s of the kron of two halves' laws is one matrix product
    half = len(xbits) // 2
    return (_per_s_laws(xbits[:half], laws).T
            @ _per_s_laws(xbits[half:], laws)).reshape(-1) / 2 ** k


def _pair_table(n, k, shared_s, with_s=False):
    """p[x, c] for the round-trip schemes; with with_s=True (shared s only)
    the column index becomes (s, c) so that conditioning on the basis bits
    is a plain mutual-information computation."""
    cols = (2 ** k if with_s else 1) * 2 ** (n * (k + 1))
    _check_entries(2 ** n * cols, "outcome table")
    laws = _route_laws(n, k, shared_s, with_s)
    return np.fromiter((_pair_row(_bits(xv, n), k, laws, with_s)
                        for xv in range(2 ** n)), (float, cols), 2 ** n)


def _oneway_law(k):
    """Hadamard-basis outcome law of one variable's k one-way qubits,
    averaged over its pad splits: q[x, m].

    A bit b splits as (pads of value b ^ p, p) for p uniform, so each extra
    pad is one kron per value, pad 0 outermost."""
    step = (np.array([_C8, 1 - _C8]), np.array([1 - _C8, _C8]))
    q = step
    for _ in range(k - 1):
        q = tuple((qsim._kron(q[b], step[0])
                   + qsim._kron(q[1 - b], step[1])) / 2 for b in (0, 1))
    return np.stack(q)


def _oneway_table(n, k):
    """p[x, m] for the one-way scheme under the per-qubit Hadamard-basis
    measurement; each qubit is a binary symmetric channel with crossover
    sin^2(pi/8) regardless of its encoding basis, and the t_j qubits are
    uniform noise, so a row is the kron of one pad-averaged law per
    variable and a flat t_j block."""
    cols = 2 ** (k * (n + 1))
    _check_entries(2 ** n * cols, "outcome table")
    q = _oneway_law(k)
    flat = np.full(2 ** k, 1.0 / 2 ** k)  # t_j outcome block
    return np.fromiter((functools.reduce(qsim._kron,
                                         [q[x] for x in _bits(xv, n)] + [flat])
                        for xv in range(2 ** n)), (float, cols), 2 ** n)


def cmi_uniform(scheme, n, k) -> float:
    """Classical mutual information, in bits, between a uniform input and
    Bob's outcomes under his reference measurement."""
    scheme = str(scheme)
    if scheme not in ("7", "8"):
        raise ValueError(f"cmi_uniform supports schemes 7 and 8, not {scheme!r}")
    n, k = _positive("n", n), _positive("k", k)
    table = (_pair_table(n, k, shared_s=True) if scheme == "7"
             else _oneway_table(n, k))
    table /= 2 ** n
    return qsim.mutual_information(table)


def per_bit_information(scheme, k) -> float:
    """Mutual information between one uniform input bit and the outcomes on
    its own k pad pairs (schemes 4 and 7) or k qubits (scheme 8).

    Every outcome-table row is a tensor product of one-variable laws, so
    this is the information in one variable's own law (averaged over s, or
    over the pad splits for scheme 8), for any n and any variable."""
    scheme = str(scheme)
    if scheme not in ("4", "7", "8"):
        raise ValueError(f"unknown scheme {scheme!r}")
    k = _positive("k", k)
    _check_entries(2 ** (k + (1 if scheme == "8" else 2)), "outcome table")
    law = (_oneway_law(k) if scheme == "8"
           else np.stack([_variable_law(x, k) for x in (0, 1)]))
    return qsim.mutual_information(law / 2)


def conditioned_information(scheme, n, k) -> float:
    """Information about the input available to Bob when the basis bits are
    conditioned on after his fixed measurement.

    Round-trip scheme: Z/X pair outcomes joined with the s_j values (each
    pair's carrier slot then reveals its pad, so the result is n bits).
    One-way scheme: Bob CNOTs same-index qubits of the variable pairs
    (0, 1), (2, 3), ..., measures control in X and target in Z, and
    conditions on (s, sum t); each pair then reveals x_i + x_{i+1}, and for
    odd n the last variable with its t_j reveals x_{n-1}: ceil(n/2) bits.
    """
    scheme = str(scheme)
    if scheme not in ("7", "8"):
        raise ValueError(f"unknown scheme {scheme!r}")
    n, k = _positive("n", n), _positive("k", k)
    if scheme == "8":
        return _oneway_pairing_information(n, k)
    table = _pair_table(n, k, shared_s=True, with_s=True)
    table /= 2 ** n
    return qsim.mutual_information(table)


def _oneway_pairing_information(n, k):
    """I(X; outcomes, s, sum t) for the CNOT-pairing strategy against the
    one-way scheme.  Per pair and pad index the X outcome on the control
    carries the pad sum when s_j=1 and the Z outcome on the target carries
    it when s_j=0; the other slot is uniform.

    Given s, the pads of a pair (a, b) XOR to a uniform split of
    x_a + x_b, and for odd n the last variable's pads XOR the t_j to a
    uniform split of x_{n-1} + sum t, so each group is a pad-pair variable
    in basis bits 1 - s with the lumped law, and the columns are
    (s, [sum t], groups)."""
    pairs = [(i, i + 1) for i in range(0, n - 1, 2)]
    odd = n % 2
    count, cols = 2 ** k, 2 ** (odd + (len(pairs) + odd) * (k + 1))
    _check_entries(2 ** n * count * cols, "outcome table")
    table = np.empty((2 ** n, count, cols))
    laws = _shared_laws(k)
    for xv in range(2 ** n):
        x = _bits(xv, n)
        groups = [x[a] ^ x[b] for a, b in pairs]
        tails = [[x[-1] ^ t] for t in (0, 1)] if odd else [[]]
        per_s = np.concatenate([_per_s_laws(groups + tail, laws)
                                for tail in tails], axis=1)
        # row si of per_s[::-1] is at basis bits 1 - s; sum t is uniform
        table[xv] = per_s[::-1] / (len(tails) * 2 ** (n + k))
    return qsim.mutual_information(table.reshape(2 ** n, -1))


# --- adversary strategies -------------------------------------------------
# A strategy is a scripted deviation; its `party` says which party's
# interface of run_scheme4 it plugs into, and the runner checks that.

class ProbeAlice:
    """Substitute pad pair (i, j) = (0, 0) with an entangled probe, identify
    Bob's coefficient a_i from the returned pair, and fake that pair's decoded
    contribution.

    The probe (|0>|+> + |1>|->)/sqrt2 is the +1 eigenstate of X(x)Z and
    Z(x)X, and comes back as those two sign bits.  Decode: undo the known
    forward masks (they flip the X(x)Z sign), rotate the second qubit by
    H and Bell-measure, which reads the signs as (Zobs, Xobs).  Bob's CNOT
    flips the X(x)Z sign exactly when a_i=0, so Zobs ^ Xobs ^ v = 1 ^ a_i.
    The contribution Alice owes is a_i*x_ij ^ mx1 ^ mx2, but her
    observations fix mx1 ^ mx2 only up to Bob's withheld mx2 ^ mz2, so
    her reported share is wrong with probability 1/2.
    """

    party = ALICE

    def __init__(self):
        self.identified = []

    def measure_pair(self, signs, x_ij, v, fwd_z1, fwd_x2):
        xz, zx = signs
        zobs, xobs = xz ^ fwd_z1 ^ fwd_x2, zx
        a_hat = xobs ^ zobs ^ v ^ 1
        self.identified.append(a_hat)
        return (a_hat & x_ij) ^ xobs  # guesses Bob's mx2 ^ mz2 as 0


class MeasuringBob:
    """Measure every received pair in the fixed Z-first/X-second basis,
    whose pad-bit guess rate bob_guess_rate gives exactly, then continue
    the protocol on the collapsed pair: of two Z/X eigenstates, one reads
    x_ij and the other a uniform bit.  It keeps no state, so one serves
    every run."""

    party = BOB

    def intercept(self, pair, source):
        first, second = pair
        return (_measure_eigenstate(first, "Z", source),
                _measure_eigenstate(second, "X", source))


def wilson_interval(successes, trials):
    """95% score interval for a binomial rate."""
    z = 1.959963984540054
    if trials <= 0:
        raise ValueError("trials must be positive")
    p = successes / trials
    denom = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def bob_guess_rate(k) -> float:
    """Exact success probability of the fixed pair measurement guessing a
    uniformly random variable encoded in k pad pairs."""
    joint = _pair_table(1, _positive("k", k), shared_s=False) / 2
    return float(np.max(joint, axis=0).sum())


def cheating_bob(scheme, params, rng, trials=10_000):
    """Analytic guess rates plus the Monte Carlo evaluation-error rate a
    measuring Bob induces by continuing the protocol after measuring."""
    if str(scheme) != "4":
        raise ValueError("the measuring-Bob bench targets scheme 4")
    k = int(params["k"])
    n = int(params.get("n", 1))
    source, bob = as_source(rng), MeasuringBob()
    errors = 0
    for _ in range(trials):
        x = source.draw(n)
        poly = LinearPolynomial(tuple(source.draw(n)), source.bit())
        out, _ = run_scheme4(x, poly, k, source, bob_strategy=bob)
        errors += int(out != poly.evaluate(x))
    lo, hi = wilson_interval(errors, trials)
    return {
        "scheme": "4", "n": n, "k": k,
        "per_pair_guess_rate": bob_guess_rate(1),
        "per_variable_guess_rate": bob_guess_rate(k),
        "induced_error_rate": errors / trials,
        "induced_error_interval": (lo, hi),
        "trials": trials,
    }


def cheating_alice(scheme, strategy, params, rng, trials=10_000):
    """Monte Carlo bench of a cheating Alice against scheme 4: coefficient
    identification rate and the error rate of the output she still
    produces."""
    if str(scheme) != "4":
        raise ValueError("the cheating-Alice bench targets scheme 4")
    if strategy not in ("probe", "honest"):
        raise ValueError(f"unknown Alice strategy {strategy!r}")
    k = int(params["k"])
    n = int(params.get("n", 1))
    source = as_source(rng)
    identified = errors = 0
    for _ in range(trials):
        x = source.draw(n)
        poly = LinearPolynomial(tuple(source.draw(n)), source.bit())
        if strategy == "honest":  # no deviation: a coin-flip guess
            out, _ = run_scheme4(x, poly, k, source)
            a_hat = source.bit()
        else:
            strat = ProbeAlice()
            out, _ = run_scheme4(x, poly, k, source, alice_strategy=strat)
            a_hat = strat.identified[-1]
        identified += int(a_hat == poly.a[0])
        errors += int(out != poly.evaluate(x))
    id_lo, id_hi = wilson_interval(identified, trials)
    err_lo, err_hi = wilson_interval(errors, trials)
    return {
        "scheme": "4", "n": n, "k": k, "strategy": strategy,
        "identification_rate": identified / trials,
        "identification_interval": (id_lo, id_hi),
        "outcome_error_rate": errors / trials,
        "outcome_error_interval": (err_lo, err_hi),
        "trials": trials,
    }


def scheme6_detection(circuit, input_state, k, traps, rng, trials,
                      strategy_factory=ProbeAlice):
    """Fraction of trap-augmented runs that abort when every distributed
    evaluation is probed by the given Alice strategy (None = honest)."""
    source = as_source(rng)
    aborts = 0
    for _ in range(trials):
        strat = strategy_factory() if strategy_factory is not None else None
        run = run_scheme6(circuit, input_state, k, traps, source,
                          alice_strategy=strat)
        aborts += int(run.aborted is not None)
    lo, hi = wilson_interval(aborts, trials)
    return {"traps": traps, "trials": trials,
            "detection_rate": aborts / trials,
            "detection_interval": (lo, hi)}
