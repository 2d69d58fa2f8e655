"""Privacy analyzer: exact view constants, information measures, benches."""

import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from qhelab import qhe_core as qc
from qhelab import qsim, seclab
from qhelab.harness import Form, SymbolicBits, enumerate_hidden
from qhelab.linpoly import run_scheme4
from test_linpoly import PROBE_VEC, _all_cases
from test_qsim import holevo


@pytest.fixture(autouse=True)
def _views_are_positive(monkeypatch):
    """Every BobView these tests build must also be positive semidefinite;
    production builds views positive by construction and skips the
    eigensolve."""
    checks = seclab.BobView.__post_init__

    def checked(view):
        checks(view)
        if np.linalg.eigvalsh(view.density).min() < -1e-9:
            raise ValueError("view density is not positive semidefinite")

    monkeypatch.setattr(seclab.BobView, "__post_init__", checked)


def partial_trace_matrix(rho: np.ndarray, n: int, keep) -> np.ndarray:
    """The reduced density of an n-qubit rho on the qubits in `keep`, in
    their register order (the reference for the literal views below)."""
    keep = sorted(keep)
    if not keep:
        raise ValueError("keep set must be nonempty")
    # iteratively trace out discarded qubits, highest index first
    cur = rho
    cur_n = n
    cur_map = list(range(n))  # current qubit index -> original index
    for q in sorted(set(range(n)) - set(keep), reverse=True):
        pos = cur_map.index(q)
        cur = _trace_out_one(cur, cur_n, pos)
        cur_n -= 1
        cur_map.pop(pos)
    return cur


def _trace_out_one(rho: np.ndarray, n: int, qubit: int) -> np.ndarray:
    arr = rho.reshape((2,) * n + (2,) * n)
    r_ax = n - 1 - qubit
    c_ax = 2 * n - 1 - qubit
    out = np.trace(arr, axis1=r_ax, axis2=c_ax)
    return out.reshape(2 ** (n - 1), 2 ** (n - 1))


def test_partial_trace_of_product():
    rng = np.random.default_rng(3)
    a, b = qsim.random_state(1, rng), qsim.random_state(2, rng)
    joint = qsim.QuantumState(np.kron(b.vec, a.vec)).density()
    rho_a = partial_trace_matrix(joint, 3, [0])
    assert np.allclose(rho_a, a.density(), atol=1e-10)
    rho_b = partial_trace_matrix(joint, 3, [1, 2])
    assert np.allclose(rho_b, b.density(), atol=1e-10)


def splits_literal(x, k):
    """All pad tuples of length k XORing to x."""
    out = []
    for head in itertools.product((0, 1), repeat=k - 1):
        last = int(x) & 1
        for b in head:
            last ^= b
        out.append(head + (last,))
    return out


def pad_average_literal(steps, x):
    """Reference pad average: the kron of steps[j][pad_j] averaged over
    every pad split of x."""
    terms = [functools.reduce(np.kron, [steps[j][p] for j, p in
                                        enumerate(pads)])
             for pads in splits_literal(x, len(steps))]
    return sum(terms) / len(terms)


# PZ[b], PX[b]: one-way qubit density for pad bit b in basis s = 0, 1
PZ = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
PX = [np.full((2, 2), 0.5), np.array([[0.5, -0.5], [-0.5, 0.5]])]


def pad_average(steps):
    """Pad average by recursion: steps[j] = (object for pad bit 0, object
    for pad bit 1) of pad j; returns (average for x = 0, average for
    x = 1) of the kron of the chosen objects, pad 0 outermost.  A bit b
    splits as (pads of value b ^ p, p) for p uniform, so each extra pad is
    one kron per value."""
    q = tuple(steps[0])
    for step in steps[1:]:
        q = tuple((np.kron(q[b], step[0]) + np.kron(q[1 - b], step[1])) / 2
                  for b in (0, 1))
    return q


def oneway_view_recursion(x, k):
    """Reference scheme-8 view built by the pad recursion over densities,
    in the order of its additions, so that the closed-form views must
    match it bit for bit, signs of zeros included: a bit x (per-variable
    view) or a bit tuple (joint view, the t_j qubits below)."""
    if isinstance(x, int):
        step = tuple((PZ[b] + PX[b]) / 2 for b in (0, 1))
        return pad_average([step] * k)[x]
    acc = 0
    for s in itertools.product((0, 1), repeat=k):
        q = pad_average([(PZ, PX)[sj] for sj in s])
        acc = acc + functools.reduce(np.kron, [q[b] for b in x])
    return np.kron(acc, np.eye(2 ** k) / 2 ** k) / 2 ** k


# SIGMA[s]: the Pauli matrix of a one-way pad in basis s (Z, then X)
SIGMA = (np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]]))


def oneway_view_closed_form(x, n, k):
    """Reference scheme-8 joint view of a bit tuple x, or the uniform
    mixture over every input ("uniform"), from one Pauli form: the joint
    view averages the kron of the variables' (I + (-1)^{x_i} S_s)/2^k over
    the shared s, with S_s the kron of the SIGMA[s_j] and the t_j qubits
    below as I/2, and the uniform mixture is I/2^(k(n+1)).  `bob_view`
    builds per-variable views only; these are the starting point for
    joint audits."""
    qubits = k * (n + 1)
    if x == "uniform":
        return np.eye(2 ** qubits) / 2 ** qubits
    eye = np.eye(2 ** k)
    acc = 0  # from int 0: every zero entry of the sum is +0
    for s in itertools.product(SIGMA, repeat=k):
        pauli = functools.reduce(np.kron, s)
        pm = ((eye + pauli) / 2 ** k, (eye - pauli) / 2 ** k)
        acc = acc + functools.reduce(np.kron, [pm[b] for b in x])
    return np.kron(acc, eye / 2 ** k) / 2 ** k


def assert_bitwise_equal(got, want):
    """Equal entries and equal signs of zero (a dense eigensolve depends on
    both)."""
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def pair_outcome_vec(b, s):
    """Distribution of (Z on first qubit, X on second) over one pad pair
    holding pad bit b in basis s; outcome index = 2*o_first + o_second."""
    v = np.zeros(4)
    if s == 0:
        v[(b << 1) | 0] = 0.5
        v[(b << 1) | 1] = 0.5
    else:
        v[(0 << 1) | b] = 0.5
        v[(1 << 1) | b] = 0.5
    return v


# PAIR_OUTCOMES[pad, s] is one pair's outcome law
PAIR_OUTCOMES = np.array([[pair_outcome_vec(b, s) for s in (0, 1)]
                          for b in (0, 1)])


def outcome_classes_literal(n, k):
    """cls[m]: the lumped class of each outcome m of n*k pad pairs.  Per
    variable, alpha is the XOR of the first-slot outcomes and beta has
    first XOR second of pair j at bit k-1-j; class alpha * 2^k + beta, one
    digit per variable, variable 0 outermost."""
    cls = np.zeros(4 ** (n * k), dtype=np.int64)
    for m in range(4 ** (n * k)):
        c = 0
        for i in range(n):
            alpha = beta = 0
            for j in range(k):
                digit = (m >> 2 * ((n - 1 - i) * k + k - 1 - j)) & 3
                alpha ^= digit >> 1
                beta = (beta << 1) | (digit >> 1) ^ (digit & 1)
            c = (c << (k + 1)) | (alpha << k) | beta
        cls[m] = c
    return cls


def lump_literal(table, n, k):
    """Sum the outcome axis (the last, 4^(nk) long) of a row or table into
    the lumped classes."""
    cls = outcome_classes_literal(n, k)
    flat = table.reshape(-1, 4 ** (n * k))
    out = np.stack([np.bincount(cls, weights=r, minlength=2 ** (n * (k + 1)))
                    for r in flat])
    return out.reshape(table.shape[:-1] + (-1,))


def pair_density_literal(b, s):
    """Mask-averaged two-qubit pad pair of a round-trip scheme: the carrier
    holds pad bit b in basis s, the non-carrier qubit is I/2."""
    mix = np.eye(2) / 2
    if s == 0:
        return np.kron(PZ[b], mix)
    return np.kron(mix, PX[b])


def variable_view_literal(xi, k, s_vec):
    """Reference 2k-qubit view of one variable: enumerate its pad splits."""
    acc = np.zeros((4 ** k, 4 ** k))
    for pads in splits_literal(xi, k):
        term = np.array([[1.0]])
        for j in range(k):
            term = np.kron(term, pair_density_literal(pads[j], s_vec[j]))
        acc += term
    return acc / 2 ** (k - 1)


def joint_view_literal(scheme, xbits, k):
    """Reference joint view: average over every basis setting (shared by
    all variables, or independent per variable for scheme 4) of the kron of
    split-enumerated per-variable views; the one-way scheme's t_j qubits
    add an I/2 block."""
    n, shared = len(xbits), scheme != "4"
    settings = list(itertools.product((0, 1), repeat=k if shared else n * k))
    acc = 0
    for s in settings:
        views = []
        for i, x in enumerate(xbits):
            s_vec = s if shared else s[i * k:(i + 1) * k]
            views.append(pad_average_literal(
                [(PZ, PX)[b] for b in s_vec], x)
                if scheme == "8" else variable_view_literal(x, k, s_vec))
        acc = acc + functools.reduce(np.kron, views)
    acc = acc / len(settings)
    if scheme == "8":
        acc = np.kron(acc, np.eye(2 ** k) / 2 ** k)
    return acc


def view_literal(scheme, x, n, k):
    """Reference view for a bit tuple, or the uniform mixture over every
    input."""
    inputs = ([seclab._bits(v, n) for v in range(2 ** n)] if x == "uniform"
              else [list(x)])
    return sum(joint_view_literal(scheme, xbits, k)
               for xbits in inputs) / len(inputs)


def pair_basis_literal(pairs):
    """2^pairs times the change to Bob's pair basis (Z on each pair's first
    qubit, X on its second): an unnormalized H on every second qubit, so a
    dyadic view stays exact."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]])
    return functools.reduce(np.kron, [np.eye(2), h] * pairs)


def oneway_table_literal(n, k):
    """Reference one-way outcome table: enumerate the joint pad product."""
    c8 = seclab._C8
    table = np.zeros((2 ** n, 2 ** (k * (n + 1))))
    flat = np.full(2 ** k, 1.0 / 2 ** k)
    for xv in range(2 ** n):
        xbits = seclab._bits(xv, n)
        for pads in itertools.product(*[splits_literal(xi, k)
                                        for xi in xbits]):
            vec = np.array([1.0])
            for i in range(n):
                for j in range(k):
                    vec = np.kron(vec, np.array([c8, 1 - c8]) if
                                  pads[i][j] == 0 else
                                  np.array([1 - c8, c8]))
            table[xv] += np.kron(vec, flat)
        table[xv] /= 2 ** (n * (k - 1))
    return table


def oneway_pairing_information_literal(n, k):
    """Reference CNOT-pairing information: enumerate s, the joint pad
    product and the t_j bits."""
    pairs = [(i, i + 1) for i in range(0, n - 1, 2)]
    odd = n % 2
    cols_m = 4 ** ((len(pairs) + odd) * k)
    table = np.zeros((2 ** n, 2 ** k * 2 * cols_m))
    for xv in range(2 ** n):
        xbits = seclab._bits(xv, n)
        for s in itertools.product((0, 1), repeat=k):
            si = sum(b << j for j, b in enumerate(s))
            for pads in itertools.product(*[splits_literal(xi, k)
                                            for xi in xbits]):
                for t in itertools.product((0, 1), repeat=k * odd):
                    tsum = 0
                    for tb in t:
                        tsum ^= tb
                    vec = np.array([1.0])
                    for j in range(k):
                        for a, b in pairs:
                            vec = np.kron(vec, pair_outcome_vec(
                                pads[a][j] ^ pads[b][j], 1 - s[j]))
                        if odd:
                            vec = np.kron(vec, pair_outcome_vec(
                                pads[n - 1][j] ^ t[j], 1 - s[j]))
                    col = (si * 2 + tsum) * cols_m
                    table[xv, col:col + cols_m] += vec
        table[xv] /= 2 ** (k + n * (k - 1) + k * odd)
    return qsim.mutual_information(table / 2 ** n)


def pair_table_literal(n, k, shared_s, with_s=False):
    """Reference outcome table over all 4^(nk) outcomes: enumerate the
    joint pad product of every input and basis setting and accumulate the
    kron of the pair laws."""
    s_space = list(itertools.product((0, 1),
                                     repeat=k if shared_s else n * k))
    cols = 4 ** (n * k)
    table = np.zeros((2 ** n, len(s_space) * cols if with_s else cols))
    for xv in range(2 ** n):
        xbits = seclab._bits(xv, n)
        for si, s in enumerate(s_space):
            for pads in itertools.product(*[splits_literal(xi, k)
                                            for xi in xbits]):
                vec = np.array([1.0])
                for i in range(n):
                    s_vec = s if shared_s else s[i * k:(i + 1) * k]
                    for j in range(k):
                        vec = np.kron(vec, pair_outcome_vec(
                            pads[i][j], s_vec[j]))
                if with_s:
                    table[xv, si * cols:(si + 1) * cols] += vec
                else:
                    table[xv] += vec
        table[xv] /= len(s_space) * 2 ** (n * (k - 1))
    return table


# --- exact view distances -------------------------------------------------

@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                 (2, 3), (3, 1), (3, 2)])
def test_pair_table_equals_joint_enumeration(n, k):
    """The lumped table is the 4^(nk)-outcome reference summed into
    classes, exactly."""
    for shared_s, with_s in [(True, False), (True, True), (False, False)]:
        got = seclab._pair_table(n, k, shared_s, with_s)
        # each basis setting's block of 4^(nk) columns is lumped on its own
        want = pair_table_literal(n, k, shared_s, with_s)
        want = lump_literal(want.reshape(2 ** n, -1, 4 ** (n * k)), n, k)
        want = want.reshape(2 ** n, -1)
        assert got.shape == want.shape
        assert np.array_equal(got, want), (shared_s, with_s)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_pad_average_matches_split_enumeration(k):
    """Outcome vectors, densities and (s, m) tables, with a different step
    per pad: the kron recursion equals the average over every split."""
    rng = np.random.default_rng(k)
    laws = [tuple(v / v.sum() for v in rng.random((2, 3))) for _ in range(k)]
    s_vec = [int(b) for b in rng.integers(0, 2, size=k)]
    cases = [
        laws,
        [(pair_density_literal(0, s), pair_density_literal(1, s))
         for s in s_vec],
        [(PZ, PX)[s] for s in s_vec],
        [PAIR_OUTCOMES[:, 1 - s] for s in s_vec],
        [PAIR_OUTCOMES] * k,
    ]
    for steps in cases:
        got = pad_average(steps)
        for x in (0, 1):
            want = pad_average_literal(steps, x)
            assert got[x].shape == want.shape
            assert np.abs(got[x] - want).max() < 1e-15


@pytest.mark.parametrize("n,k,scheme", [
    (n, k, scheme) for n, k in [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1),
                                (2, 2), (3, 1)] for scheme in ("4", "7", "8")
] + [(1, 5, "8"), (1, 6, "8"), (2, 3, "8"), (3, 2, "8")])
def test_views_match_split_enumeration(scheme, n, k):
    """Per-variable views (averaged over the basis bits) and joint views of
    every input against split- and setting-enumerated densities.  The
    round-trip schemes' views are their outcome rows: in the pair basis
    the enumerated density must be diagonal, and its diagonal summed into
    classes must be exactly the row.  The one-way scheme's closed-form
    views also equal the pad recursion bit for bit, signs of zeros
    included.  Production builds the per-variable views and refuses the
    joint ones, which come from the reference closed form."""
    if scheme != "8":
        u = pair_basis_literal(n * k)
        inputs = [tuple(seclab._bits(v, n)) for v in range(2 ** n)]
        if n == 1:
            inputs += [0, 1]  # per-variable rows
        for x in inputs:
            xbits = [x] if isinstance(x, int) else list(x)
            want = (u @ joint_view_literal(scheme, xbits, k) @ u
                    / 2 ** (n * k))
            diag = np.diag(want)
            assert np.array_equal(want, np.diag(diag)), x
            row = seclab._view_row(scheme, {"n": n, "k": k}, x)
            assert np.array_equal(lump_literal(diag, n, k), row), x
        with pytest.raises(ValueError):
            seclab.bob_view(scheme, {"n": n, "k": k}, inputs[0])
        return
    params = {"n": n, "k": k}
    for v in range(2 ** n):
        xbits = tuple(seclab._bits(v, n))
        literal = joint_view_literal("8", list(xbits), k)
        joint = oneway_view_closed_form(xbits, n, k)
        assert_bitwise_equal(joint, oneway_view_recursion(xbits, k))
        assert np.abs(joint - literal).max() < 1e-15
        assert np.linalg.eigvalsh(joint).min() > -1e-9
        with pytest.raises(ValueError, match="per variable"):
            seclab.bob_view("8", params, xbits)
        if n == 1:  # no t_j qubits in a per-variable view
            got = seclab.bob_view("8", params, v).density
            assert_bitwise_equal(got, oneway_view_recursion(v, k))
            want = partial_trace_matrix(literal, 2 * k, range(k, 2 * k))
            assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1),
                                 (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
def test_oneway_table_equals_joint_enumeration(n, k):
    got = seclab._oneway_table(n, k)
    want = oneway_table_literal(n, k)
    assert got.shape == want.shape
    assert np.abs(got - want).max() < 1e-15


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_oneway_pairing_information_equals_joint_enumeration(n, k):
    got = seclab._oneway_pairing_information(n, k)
    assert abs(got - oneway_pairing_information_literal(n, k)) < 1e-15


def test_table_size_guard(monkeypatch):
    """Every outcome table counts the entries it builds and is refused
    past 2^24 entries before anything is built."""
    checked = []
    monkeypatch.setattr(seclab, "_check_entries",
                        lambda entries, what: checked.append(entries))
    for n, k, shared_s, with_s in [(2, 2, True, False), (2, 1, True, True),
                                   (2, 2, False, False)]:
        table = seclab._pair_table(n, k, shared_s, with_s)
        assert checked.pop() == table.size
    table = seclab._oneway_table(2, 3)
    assert checked.pop() == table.size
    monkeypatch.undo()
    seclab._check_entries(2 ** 24, "table")
    with pytest.raises(ValueError):
        seclab._check_entries(2 ** 24 + 1, "table")

    def no_build(*args):
        raise AssertionError("table built past the cap")

    monkeypatch.setattr(seclab, "_oneway_law", no_build)
    monkeypatch.setattr(seclab, "_variable_law", no_build)
    for call in (lambda: seclab.cmi_uniform("8", 5, 4),
                 lambda: seclab.cmi_uniform("7", 5, 4),
                 lambda: seclab.conditioned_information("8", 5, 4),
                 lambda: seclab.conditioned_information("7", 2, 8),
                 lambda: seclab.per_bit_information("4", 23),
                 lambda: seclab.bob_guess_rate(23)):
        with pytest.raises(ValueError):
            call()
    monkeypatch.undo()
    # lumped tables below the cap: values, not refusals
    assert seclab.cmi_uniform("7", 5, 2) == float(cmi7_oracle(5, 2))
    assert seclab.conditioned_information("7", 2, 6) == 2.0
    assert seclab.per_bit_information("4", 13) == 2.0 ** -13
    assert seclab.bob_guess_rate(12) == 0.5 + 2.0 ** -13
    # one variable's law is small whatever n
    assert abs(seclab.per_bit_information("4", 4) - 2.0 ** -4) < 1e-15
    assert abs(seclab.per_bit_information("8", 4)
               - (1 - _binary_entropy((1 - 2.0 ** -2) / 2))) < 1e-15


@pytest.mark.parametrize("scheme", ["4", "7"])
@pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2),
                                 (3, 1)])
def test_row_distances_match_dense_views(scheme, n, k):
    """Every pair of inputs, the uniform mixture included: the outcome-row
    distance equals the eigensolved distance of the enumerated view
    densities."""
    params = {"n": n, "k": k}
    inputs = [tuple(seclab._bits(v, n)) for v in range(2 ** n)]
    inputs.append("uniform")
    dense = {x: view_literal(scheme, x, n, k) for x in inputs}
    for a, b in itertools.combinations(inputs, 2):
        want = qsim.trace_distance(dense[a], dense[b])
        got = seclab.privacy_distance(scheme, params, a, b)
        assert abs(got - want) < 1e-12, (a, b)


@pytest.mark.parametrize("scheme", ["4", "7"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_per_variable_row_distance_matches_dense_view(scheme, k):
    dense = [joint_view_literal(scheme, [b], k) for b in (0, 1)]
    got = seclab.privacy_distance(scheme, {"k": k}, 0, 1)
    assert abs(got - qsim.trace_distance(*dense)) < 1e-12
    assert got == 0.5 ** k


def test_view_row_size_guard_and_validation(monkeypatch):
    """Rows of n(k+1) = 24 class bits and views on 12 qubits (2^24
    entries) are the largest built; larger ones are refused before
    anything is built."""
    seclab._check_entries(2 ** 24, "row")
    with pytest.raises(ValueError):
        seclab._check_entries(2 ** 24 + 1, "row")

    def no_build(*args):
        raise AssertionError("row built past the cap")

    monkeypatch.setattr(seclab, "_variable_law", no_build)
    with pytest.raises(ValueError):
        seclab.privacy_distance("4", {"k": 24}, 0, 1)
    with pytest.raises(ValueError):
        seclab.privacy_distance("7", {"n": 4, "k": 6}, (0,) * 4, (1,) * 4)
    with pytest.raises(ValueError):
        seclab.theorem6_constants(4, 6)
    monkeypatch.undo()
    # rows of 14 and 20 class bits are built; theorem6_constants(4, 4) is
    # checked against the rank law below
    assert seclab.privacy_distance("4", {"k": 13}, 0, 1) == 2.0 ** -13
    assert (seclab.privacy_distance("7", {"n": 4, "k": 4}, (0,) * 4, (1,) * 4)
            == float(theorem6_c0_oracle(4, 4)))
    with pytest.raises(ValueError):
        seclab.privacy_distance("7", {"n": 2, "k": 1}, (0, 0), (0, 0, 0))
    with pytest.raises(ValueError):
        seclab.privacy_distance("5", {"k": 1}, 0, 1)
    with pytest.raises(ValueError):
        seclab.bob_view("8", {"k": 13}, 0)
    # each route checks the entries of the row or view it is about to build
    checked = []
    monkeypatch.setattr(seclab, "_check_entries",
                        lambda entries, what: checked.append(entries))
    seclab.privacy_distance("7", {"n": 3, "k": 2}, (0, 0, 0), "uniform")
    seclab.privacy_distance("4", {"k": 5}, 0, 1)
    seclab.privacy_distance("8", {"k": 3}, 0, 1)
    # scheme-8 joint views are refused before any size check
    with pytest.raises(ValueError, match="per variable"):
        seclab.privacy_distance("8", {"n": 2, "k": 2}, (0, 1), "uniform")
    assert checked == [2 ** 9, 2 ** 9, 2 ** 6, 2 ** 6, 4 ** 3, 4 ** 3]


@pytest.mark.parametrize("scheme", ["4", "7"])
@pytest.mark.parametrize("k,want", [(1, 0.5), (2, 0.25), (3, 0.125)])
def test_pair_scheme_per_variable_distance(scheme, k, want):
    got = seclab.privacy_distance(scheme, {"k": k}, 0, 1)
    assert abs(got - want) < 1e-10


@pytest.mark.parametrize("k,want", [(1, 1 / math.sqrt(2)), (2, 0.5)] + [
    (k, 2 ** (-k / 2)) for k in range(3, 11)])
def test_oneway_per_variable_distance(k, want):
    """The per-variable views differ by 2^(1-k) A^{kron k} with
    A = (Z + X)/2, whose eigenvalues are +-2^(-k/2) each 2^(k-1) times."""
    got = seclab.privacy_distance("8", {"k": k}, 0, 1)
    assert abs(got - want) < 1e-15


def test_theorem6_constants_are_input_independent():
    for (n, k), want in [((2, 1), 0.75), ((2, 2), 0.4375), ((3, 1), 0.875),
                         ((3, 2), 0.671875), ((3, 3), 0.412109375),
                         ((4, 2), 0.82421875)]:
        assert want == theorem6_c0_oracle(n, k)
        out = seclab.theorem6_constants(n, k)
        # exact dyadic arithmetic: every value equal, no spread at all
        assert out["values"] == [want] * (2 ** n - 1)
        assert out["c0"] == want and out["spread"] == 0.0


def rank_counts(n, k):
    """Number of n x k matrices over F2 of each rank r, the Gaussian
    binomial count prod_{i<r} (2^n - 2^i)(2^k - 2^i) / (2^r - 2^i)."""
    counts = []
    for r in range(min(n, k) + 1):
        count = Fraction(1)
        for i in range(r):
            count *= Fraction((2 ** n - 2 ** i) * (2 ** k - 2 ** i),
                              2 ** r - 2 ** i)
        counts.append(count)
    assert sum(counts) == 2 ** (n * k)
    return counts


def rank_mean(n, k, f):
    """E[f(rank B)] for a uniform n x k matrix B over F2."""
    counts = rank_counts(n, k)
    return sum(c * f(r) for r, c in enumerate(counts)) / 2 ** (n * k)


def theorem6_c0_oracle(n, k):
    """Scheme 7 with the rows of B the per-variable beta: Bob's classes
    tell x from 0 unless x is in the column space of B, so
    c0 = 1 - (E[2^rank B] - 1) / (2^n - 1) for every nonzero x."""
    return 1 - (rank_mean(n, k, lambda r: 2 ** r) - 1) / (2 ** n - 1)


def cmi7_oracle(n, k):
    """Scheme 7's uniform-input information n - E[rank B]."""
    return n - rank_mean(n, k, lambda r: r)


@pytest.mark.parametrize("n,k,want", [(2, 5, Fraction(63, 1024)),
                                      (4, 4, Fraction(26251, 65536)),
                                      (5, 3, Fraction(26251, 32768)),
                                      (3, 6, Fraction(16003, 262144))])
def test_theorem6_constants_equal_the_rank_law(n, k, want):
    """Exactly, for every nonzero input, at sizes whose 4^(nk) pair outcomes
    exceed the 2^24-entry cap."""
    assert theorem6_c0_oracle(n, k) == want
    out = seclab.theorem6_constants(n, k)
    assert out["values"] == [float(want)] * (2 ** n - 1)
    assert out["c0"] == float(want) and out["spread"] == 0.0


@pytest.mark.parametrize("n,k,want", [(2, 5, Fraction(95, 1024)),
                                      (4, 4, Fraction(53179, 65536))])
def test_cmi_uniform_equals_the_rank_law(n, k, want):
    assert cmi7_oracle(n, k) == want
    assert seclab.cmi_uniform("7", n, k) == float(want)


@pytest.mark.parametrize("n,k", [(3, 4), (4, 3), (2, 8)])
def test_scheme4_joint_distance_closed_form(n, k):
    """With independent basis bits each variable is revealed with
    probability 2^-k, so two inputs are told apart unless no variable where
    they differ is revealed: 1 - (1 - 2^-k)^wt(x ^ x'), exactly."""
    inputs = [tuple(seclab._bits(v, n)) for v in range(2 ** n)]
    for a, b in itertools.combinations(inputs, 2):
        wt = sum(x ^ y for x, y in zip(a, b))
        want = 1 - (1 - Fraction(1, 2 ** k)) ** wt
        got = seclab.privacy_distance("4", {"n": n, "k": k}, a, b)
        assert got == float(want), (a, b)


def factorization_gap(scheme, n, k, x) -> float:
    """Trace distance between the joint view and the tensor product of the
    per-variable marginals (zero iff the per-variable views are
    independent in Bob's eyes)."""
    joint = joint_view_literal(scheme, list(x), k)
    q = 2 * k  # qubits per variable
    prod = np.array([[1.0]])
    for i in range(n):
        keep = range((n - 1 - i) * q, (n - i) * q)  # variable i sits high
        prod = np.kron(prod, partial_trace_matrix(joint, n * q, keep))
    return qsim.trace_distance(joint, prod)


def test_factorization_gap():
    assert factorization_gap("4", 2, 1, (0, 0)) < 1e-10
    assert abs(factorization_gap("7", 2, 1, (0, 0)) - 0.125) < 1e-10


def test_bob_view_validation_and_caps():
    """Dense views exist for the one-way scheme only, one variable at a
    time; the round-trip schemes' views are outcome rows."""
    for scheme in ("4", "5", "7"):
        with pytest.raises(ValueError):
            seclab.bob_view(scheme, {"k": 1}, 0)
    for params, x in [({"n": 6, "k": 2}, (0,) * 6), ({"n": 1, "k": 1}, (0,)),
                      ({"n": 2, "k": 1}, (0, 0, 0)),
                      ({"n": 2, "k": 1}, "uniform")]:
        with pytest.raises(ValueError, match="per variable"):
            seclab.bob_view("8", params, x)
        with pytest.raises(ValueError, match="per variable"):
            seclab.privacy_distance("8", params, x, x)
    with pytest.raises(ValueError):
        seclab.BobView("8", 1, 0, np.eye(2))  # trace 2, not a state
    with pytest.raises(ValueError):
        seclab.BobView("8", 2, 0, np.eye(2) / 2)  # 1 qubit, not k = 2
    with pytest.raises(ValueError, match="positive"):  # the tests' check
        seclab.BobView("8", 1, 0, np.diag([1.5, -0.5]))


def test_bob_view_uniform_mixes_inputs():
    """The reference uniform view is I/dim, and bit for bit the mean of the
    reference joint views of every input."""
    for n, k in [(1, 1), (2, 2), (3, 1), (2, 3)]:
        uni = oneway_view_closed_form("uniform", n, k)
        dim = 2 ** (k * (n + 1))
        assert_bitwise_equal(uni, np.eye(dim) / dim)
        joints = [oneway_view_closed_form(tuple(seclab._bits(v, n)), n, k)
                  for v in range(2 ** n)]
        assert_bitwise_equal(uni, sum(joints) / 2 ** n)


# --- information measures -------------------------------------------------

def two_bit_lower(n, k):
    """The part of scheme 7's CMI induced by single- and two-bit
    correlations only: a lower-bound reference, not an exact value."""
    return n - (2 ** k - 1) * (1 - (1 - 0.5 ** k) ** n)


def test_cmi_matches_closed_forms():
    """The rank law at k = 1 is n - 1 + 2^-n, and at n = 2 it is
    3 * 2^-k - 2^-2k."""
    assert seclab.cmi_uniform("7", 2, 1) == 1.25
    assert abs(seclab.cmi_uniform("7", 3, 1) - 2.125) < 1e-9
    assert seclab.cmi_uniform("7", 2, 2) == 11 / 16
    for n in range(1, 7):
        assert cmi7_oracle(n, 1) == n - 1 + Fraction(1, 2 ** n)
    for k in range(1, 7):
        assert cmi7_oracle(2, k) == 3 * Fraction(1, 2 ** k) - \
            Fraction(1, 2 ** (2 * k))
    # the two-bit lower bound coincides with the exact value at k=1
    for n in range(1, 6):
        assert abs(two_bit_lower(n, 1) - float(cmi7_oracle(n, 1))) < 1e-12
    with pytest.raises(ValueError):
        seclab.cmi_uniform("4", 1, 1)


def per_bit_information_literal(scheme, n, k, i):
    """Reference for per_bit_information: enumerate the whole 2^n-row
    outcome table and sum it down to variable i's bit and its own outcome
    digits."""
    if scheme in ("4", "7"):
        table = pair_table_literal(n, k, shared_s=(scheme == "7"))
        base = 4
    else:
        table, base = oneway_table_literal(n, k), 2
    # variable i's k outcome digits follow the i*k digits of the variables
    # before it (variable 0 outermost); sum out the digits on either side
    marg = table.reshape(2 ** n, base ** (i * k), base ** k, -1).sum(
        axis=(1, 3))
    # collapse the input axis to the single bit x_i
    out = np.zeros((2, marg.shape[1]))
    for xv in range(2 ** n):
        out[(xv >> i) & 1] += marg[xv]
    out /= 2 ** n
    return qsim.mutual_information(out)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                 (3, 2), (2, 3), (4, 1)])
def test_per_bit_information_pair_schemes(n, k):
    """One input bit leaks exactly 1/2^k bits through its own pad pairs,
    independent of n, of the variable and of whether the basis bits are
    shared: the one-variable law equals the marginal of the whole table."""
    for scheme in ("4", "7"):
        got = seclab.per_bit_information(scheme, k)
        assert abs(got - 2.0 ** -k) < 1e-15
        for i in range(n):
            want = per_bit_information_literal(scheme, n, k, i)
            assert abs(got - want) < 1e-15, (scheme, i)


@pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1),
                                 (3, 2), (2, 3), (4, 2), (1, 5)])
def test_per_bit_information_oneway_scheme(n, k):
    """Scheme 8: each variable's Hadamard-basis parity is its bit through a
    binary symmetric channel with crossover (1 - 2^(-k/2))/2, for every
    variable of every n."""
    got = seclab.per_bit_information("8", k)
    assert abs(got - (1 - _binary_entropy((1 - 2 ** (-k / 2)) / 2))) < 1e-15
    for i in range(n):
        want = per_bit_information_literal("8", n, k, i)
        assert abs(got - want) < 1e-15, i


@pytest.mark.parametrize("k", range(1, 11))
def test_per_bit_information_closed_forms(k):
    """The closed forms hold at sizes the whole-table reference cannot
    reach.  Scheme 8's value and its closed form both subtract an entropy
    near 1 from 1, so their rounding is a few ulp of 1, not of the value."""
    for scheme in ("4", "7"):
        assert abs(seclab.per_bit_information(scheme, k) - 2.0 ** -k) < 1e-15
    want = 1 - _binary_entropy((1 - 2 ** (-k / 2)) / 2)
    assert abs(seclab.per_bit_information("8", k) - want) < 4e-15
    with pytest.raises(ValueError):
        seclab.per_bit_information("5", k)


def test_conditioned_information_pair_scheme_reveals_everything():
    assert abs(seclab.conditioned_information("7", 2, 1) - 2) < 1e-9
    assert abs(seclab.conditioned_information("7", 1, 2) - 1) < 1e-9


def _binary_entropy(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(1, 5)
                                 for k in range(1, 4)] + [(3, 4)])
def test_oneway_cmi_closed_form(n, k):
    """Each variable's outcome parity is x_i through a binary symmetric
    channel with crossover (1 - 2^(-k/2))/2, and the parities carry all the
    information."""
    want = n * (1 - _binary_entropy((1 - 2 ** (-k / 2)) / 2))
    assert abs(seclab.cmi_uniform("8", n, k) - want) < 1e-12


@pytest.mark.parametrize("n,want", [(2, 1), (3, 2), (4, 2), (5, 3)])
def test_conditioned_information_oneway_pairing(n, want):
    """Each CNOT group reveals one parity: ceil(n/2) bits at every k."""
    assert want == math.ceil(n / 2)
    for k in (1, 2, 3) if n <= 4 else (1, 2):
        got = seclab.conditioned_information("8", n, k)
        assert abs(got - want) < 1e-9, k


def holevo_crosscheck(n, k):
    """Holevo quantity of the uniform view ensemble versus the enumerated
    CMI for the shared-basis scheme; the views commute (they are diagonal
    in the fixed Z/X product basis), so the two must agree."""
    views = [joint_view_literal("7", seclab._bits(v, n), k)
             for v in range(2 ** n)]
    comm = max(np.abs(a @ b - b @ a).max()
               for a, b in itertools.combinations(views, 2))
    chi = holevo([(2.0 ** -n, rho) for rho in views])
    return {"holevo": chi, "cmi": seclab.cmi_uniform("7", n, k),
            "max_commutator": float(comm)}


def test_holevo_equals_cmi_for_commuting_views():
    out = holevo_crosscheck(2, 1)
    assert out["max_commutator"] < 1e-10
    assert abs(out["holevo"] - out["cmi"]) < 1e-9
    assert abs(out["cmi"] - 1.25) < 1e-9


# --- adversary bench ------------------------------------------------------

def test_probe_state_separates_bob_branches():
    """Bob's conditional CNOT maps the probe to one of two orthogonal
    states, so the coefficient is identifiable with certainty."""
    probe = qsim.QuantumState(PROBE_VEC.copy())
    flipped = qsim.apply_gate(probe, qsim.CNOT, [0, 1])
    assert abs(np.vdot(probe.vec, flipped.vec)) < 1e-12


@pytest.mark.parametrize("k,want", [(1, 0.75), (2, 0.625)])
def test_bob_guess_rate(k, want):
    assert abs(seclab.bob_guess_rate(k) - want) < 1e-12


def test_wilson_interval():
    lo, hi = seclab.wilson_interval(50, 100)
    assert lo < 0.5 < hi and hi - lo < 0.25
    with pytest.raises(ValueError):
        seclab.wilson_interval(0, 0)


def test_cheating_bob_bench():
    out = seclab.cheating_bob("4", {"n": 1, "k": 1},
                              np.random.default_rng(0), trials=400)
    assert out["per_pair_guess_rate"] == 0.75
    lo, hi = out["induced_error_interval"]
    assert lo > 0.35 and hi < 0.65  # far from an undetectable attack
    with pytest.raises(ValueError):
        seclab.cheating_bob("8", {"k": 1}, 0)


@pytest.mark.parametrize("n,k", [(n, k) for n in (1, 2, 3)
                                 for k in (1, 2, 3)])
def test_cheating_bob_error_is_half_on_every_control_branch(n, k):
    """Alice reads each pair the measuring Bob collapsed with one uniform
    outcome in her share, so on every control branch, at m = 1 and m = n,
    the output is a non-constant affine form in the other hidden bits:
    wrong on exactly half the leaves, for every (n, k)."""
    cases = list(_all_cases(n))
    if n == 3:  # a sample: 512 control branches per case at m = 1
        rng = np.random.default_rng(n * 10 + k)
        cases = [cases[i] for i in rng.choice(len(cases), 8, replace=False)]
    for m in sorted({1, n}):
        for x, poly in cases:
            def run(fixed, x=x, poly=poly, m=m):
                return run_scheme4(
                    x, poly, k, SymbolicBits(fixed), m=m,
                    bob_strategy=seclab.MeasuringBob())[0]

            branches = list(enumerate_hidden(run, (n // m) * k))
            assert len(branches) == 2 ** ((n // m) * k)
            assert all(isinstance(out, Form) and out.mask >> 1
                       for _, out in branches)


def test_cheating_alice_probe_identifies_but_disturbs():
    out = seclab.cheating_alice("4", "probe", {"n": 1, "k": 1},
                                np.random.default_rng(1), trials=300)
    assert out["identification_rate"] == 1.0
    lo, hi = out["outcome_error_interval"]
    assert lo > 0.35 and hi < 0.65
    with pytest.raises(ValueError):
        seclab.cheating_alice("4", "nope", {"k": 1}, 0)


def test_honest_alice_baseline():
    out = seclab.cheating_alice("4", "honest", {"n": 1, "k": 1},
                                np.random.default_rng(2), trials=200)
    assert out["outcome_error_rate"] == 0.0
    lo, hi = out["identification_interval"]
    assert lo < 0.5 < hi  # coin-flip guessing


def test_scheme6_detection_and_honest_baseline():
    rng = np.random.default_rng(3)
    circ = qc.random_clifford_t(1, 1, rng)
    psi = qsim.random_state(1, rng)
    probed = seclab.scheme6_detection(circ, psi, 1, 2,
                                      np.random.default_rng(4), trials=15)
    assert probed["detection_rate"] >= 0.25
    honest = seclab.scheme6_detection(circ, psi, 1, 2,
                                      np.random.default_rng(5), trials=5,
                                      strategy_factory=None)
    assert honest["detection_rate"] == 0.0
