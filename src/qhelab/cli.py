"""Batch experiment runner and report emitter.

Commands:

- run: correctness experiments over a parameter grid (exhaustive hidden-bit
  enumeration or seeded trials for the classical-output schemes, fidelity
  trials for the circuit-evaluation schemes).  Exhaustive mode enumerates
  only the control bits (basis bits, and scheme 8's and 9's t) and makes
  one symbolic run per (a, c) and control branch, with Alice's input x
  and every other hidden bit a fresh variable.  The output's difference
  from c ^ a.x is then an F2 affine form: a constant one is right or
  wrong on all 2^vars leaves of the branch, x included, and a
  non-constant one wrong on exactly half.  So the counts equal those of
  leaf-by-leaf enumeration over every x.  The one bound is
  _MAX_EXHAUSTIVE_RUNS symbolic runs: a point that needs more is refused
  before anything runs.
- audit: privacy metrics and communication accounting against registered
  expected values.
- adversary: scripted cheating strategies with Monte Carlo rates.
- list-schemes: inventory of runnable protocols.

Reports are JSON lines, one row per (scheme, params, metric), each carrying
expected/observed/tolerance/pass/seed/provenance so a report is
self-describing.  Rows contain no timestamps and all sampling is seeded, so
identical configurations produce byte-identical reports.  Grid points run
in order, in one process, and rows are emitted in grid order.

Exit codes: 0 when every row passes, 1 when a row fails, 2 for refused
arguments, and 3 for an internal error (a protocol fault or a failed
internal check) inside a grid point.  Refused arguments include those the
parser itself refuses (an unknown flag, a missing --seed, a bad choice or a
non-integer count), an --output that cannot be written, and whatever a
point would ignore: _POINTS lists the axes and optional flags that each
command, mode and scheme reads, with their defaults, and any other flag
given, or any other axis value than 1, is refused.  Exits 2 and 3 write
one JSON error line to stderr and no report; exit 3's line names the
command, the scheme and the point's (n, k, seed).  --help prints usage and
exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import qsim, rebit, rebit_schemes, seclab
from .harness import (Form, ProtocolError, RandomBits, SymbolicBits,
                      comm_audit, enumerate_hidden, hidden_bit_count)
from .linpoly import (LinearPolynomial, run_scheme4, run_scheme7, run_scheme8,
                      run_scheme9, run_scheme10)
from .qhe_core import CliffordTCircuit, random_clifford_t, run_scheme5

SCHEMES = {
    "1": "remote Y-diagonal circuit evaluation (single-qubit phase layers)",
    "2": "remote Y-diagonal circuit evaluation (global layers, 2n-bit reply)",
    "4": "linear polynomial via independent-basis pad pairs",
    "5": "interactive Clifford+T evaluation over pad-pair subprotocols",
    "6": "scheme 5 with trap-qubit verification",
    "7": "linear polynomial via shared-basis pad pairs",
    "8": "linear polynomial via one-way single-qubit encodings",
    "9": "scheme 8 composed with a role-reversed inner instance",
    "10": "classical bit-pair analogue of scheme 8",
}

TOL_EXACT = 1e-9
TOL_FIDELITY = 1e-8


@dataclass
class SchemeReport:
    """One report row; `comparison` is \"==\" for tolerance checks and an
    inequality for Monte Carlo threshold checks."""

    scheme: str
    params: dict
    metric: str
    expected: object
    observed: object
    tolerance: object
    comparison: str
    passed: bool
    seed: object
    provenance: str

    def to_json(self) -> str:
        row = asdict(self)
        row["pass"] = row.pop("passed")
        return json.dumps(row, sort_keys=True)


def _row(scheme, params, metric, expected, observed, tolerance, seed,
         provenance, comparison="=="):
    if comparison == "==":
        ok = (expected is None
              or abs(observed - expected) <= (tolerance or 0.0))
    elif comparison == ">=":
        ok = observed >= expected
    elif comparison == "<=":
        ok = observed <= expected
    else:
        raise ValueError(f"unknown comparison {comparison!r}")
    return SchemeReport(str(scheme), dict(params), metric, expected,
                        observed, tolerance, comparison, bool(ok), seed,
                        provenance)


# points one grid axis may hold; its length is checked from the text
# before the axis is built
_MAX_AXIS = 1024


def _parse_range(text):
    """Grid axis syntax: "2", "1..3", or "1,2,4"."""
    text = str(text)
    if ".." in text:
        lo, hi = (int(v) for v in text.split(".."))
        axis, length = range(lo, hi + 1), hi - lo + 1
    else:
        axis = text.split(",")
        length = len(axis)
    if length > _MAX_AXIS:
        raise ValueError(f"a grid axis of {length} points is more than "
                         f"the cap {_MAX_AXIS}")
    return [int(v) for v in axis]


# --- correctness runners --------------------------------------------------

# scheme id -> runner(x, poly, k, source, gamma, k_prime) -> (output, transcript)
_CLASSICAL = {
    "4": lambda x, poly, k, src, *_: run_scheme4(x, poly, k, src),
    "7": lambda x, poly, k, src, *_: run_scheme7(x, poly, k, src),
    "8": lambda x, poly, k, src, *_: run_scheme8(x, poly, k, src),
    "9": lambda x, poly, k, src, gamma, k_prime: run_scheme9(
        x, poly, gamma, k_prime, src),
    "10": lambda x, poly, k, src, *_: run_scheme10(x, poly, k, src),
}


# symbolic runs one exhaustive grid point may make: 2^(n+1) polynomials
# times 2^control branches each
_MAX_EXHAUSTIVE_RUNS = 2 ** 18


def _control_bits(run, n, k, args):
    """Control bits one exhaustive run at (n, k) draws, counted with one
    symbolic run; every polynomial draws as many."""
    poly = LinearPolynomial((1,) * n, 0)
    return hidden_bit_count(lambda src: run(
        [0] * n, poly, k, SymbolicBits(src), args.gamma, args.k_prime))


def _exhaustive_preflight(args, n, k, seed):
    """Refuse an exhaustive grid point past _MAX_EXHAUSTIVE_RUNS; a point
    that passes adds no rows."""
    control = _control_bits(_CLASSICAL[args.scheme], n, k, args)
    runs = 2 ** (n + 1 + control)
    if runs > _MAX_EXHAUSTIVE_RUNS:
        raise ValueError(f"exhaustive run at n={n}, k={k} needs {runs} "
                         f"symbolic runs (2^{n + 1} polynomials x "
                         f"2^{control} control branches), over the cap of "
                         f"{_MAX_EXHAUSTIVE_RUNS}")
    return []


def _exhaustive_poly(run, poly, k, control, args):
    """(failures, cases) of one polynomial over every input x and every
    hidden-bit leaf, from one symbolic run per branch of its `control`
    control bits, with x drawn as n fresh variables."""

    def branch(fixed):
        source = SymbolicBits(fixed)
        x = source.draw(poly.n, "x")
        got = run(x, poly, k, source, args.gamma, args.k_prime)[0]
        want = poly.c  # c ^ a.x, a form in x
        for ai, xi in zip(poly.a, x):
            want ^= ai & xi
        return got ^ want, source.vars

    failures = cases = 0
    for _, (diff, nvars) in enumerate_hidden(branch, control):
        leaves = 2 ** nvars
        cases += leaves
        mask = diff.mask if isinstance(diff, Form) else diff
        if mask >> 1:  # a non-constant affine form is balanced
            failures += leaves // 2
        elif mask:
            failures += leaves
    return failures, cases


def _classical_point(args, n, k, seed):
    """One grid point of the classical-output schemes: count failing cases
    over all (x, a, c), either over every input and hidden-bit leaf per
    polynomial or over seeded trials per case."""
    run = _CLASSICAL[args.scheme]
    polys = [LinearPolynomial(tuple((av >> i) & 1 for i in range(n)), c)
             for av in range(2 ** n) for c in (0, 1)]
    if args.exhaustive:
        control = _control_bits(run, n, k, args)
        counts = [_exhaustive_poly(run, poly, k, control, args)
                  for poly in polys]
        return tuple(map(sum, zip(*counts)))
    failures = cases = 0
    rng = np.random.default_rng(seed)
    for xv in range(2 ** n):
        x = [(xv >> i) & 1 for i in range(n)]
        for poly in polys:
            want = poly.evaluate(x)
            for _ in range(args.trials):
                got = run(x, poly, k, RandomBits(rng), args.gamma,
                          args.k_prime)[0]
                cases += 1
                failures += int(got != want)
    return failures, cases


def _scheme5_runs(n, r_cap, k, seed, trials):
    """(circuit, psi, run) of each of `trials` scheme-5 runs on a random
    circuit and input, all drawn from one generator seeded with `seed`."""
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        circuit = random_clifford_t(n, r_cap, rng)
        psi = qsim.random_state(n, rng)
        yield circuit, psi, run_scheme5(circuit, psi, k, rng)


def random_accircuit(scheme, n, depth, rng):
    """Random circuit accepted by the Y-diagonal evaluation schemes: global
    product-of-R_y layers alternating with R_z(j*pi/2) layers (on the first
    data qubit for scheme 1)."""
    layers = []
    for _ in range(depth):
        if rng.random() < 0.5:
            ry = qsim.ry(float(rng.uniform(0, math.pi))).matrix
            layers.append(rebit_schemes.Layer("ydiag", tuple(range(n)),
                                              factors=(ry,) * n))
        else:
            q = 0 if scheme == "1" else int(rng.integers(n))
            layers.append(rebit_schemes.Layer("rz", (q,),
                                              j=int(rng.choice([1, 3]))))
    return rebit_schemes.AlmostCommutingCircuit(n, layers)


def _rebit_runs(scheme, n, depth, seed, trials):
    """(circuit, psi, run) of each of `trials` scheme-1 or scheme-2 runs on
    a random circuit and rebit-encoded input, all drawn from one generator
    seeded with `seed`."""
    rng = np.random.default_rng(seed)
    runner = (rebit_schemes.run_scheme1 if scheme == "1"
              else rebit_schemes.run_scheme2)
    for _ in range(trials):
        circuit = random_accircuit(scheme, n, depth, rng)
        psi = qsim.random_state(n, rng)
        enc = qsim.QuantumState(rebit.rebit_encode(psi))
        yield circuit, psi, runner(circuit, enc, RandomBits(rng))


# --- command implementations ----------------------------------------------
#
# One point function per command: (args, n, k, seed) -> list of report rows.

def _run_point(args, n, k, seed):
    scheme = args.scheme
    if scheme in _CLASSICAL:
        failures, cases = _classical_point(args, n, k, seed)
        params = {"n": n, "k": k, "cases": cases,
                  "mode": "exhaustive" if args.exhaustive else "sampled"}
        if args.gamma is not None:  # scheme 9
            params.update(gamma=args.gamma, k_prime=args.k_prime)
        prov = ("exhaustive-enumeration" if args.exhaustive
                else "seeded-trials")
        return [_row(scheme, params, "correctness-failures", 0, failures,
                     0, seed, prov)]
    if scheme == "5":
        runs = _scheme5_runs(n, args.R, k, seed, args.trials)
        return [_row("5", {"n": n, "R": args.R, "k": k, "trial": t},
                     "fidelity", 1.0,
                     qsim.fidelity(run.state, circuit.apply(psi)),
                     TOL_FIDELITY, seed, "direct-simulation")
                for t, (circuit, psi, run) in enumerate(runs)]
    runs = _rebit_runs(scheme, n, args.depth, seed, args.trials)
    return [_row(scheme, {"n": n, "depth": args.depth, "trial": t},
                 "fidelity", 1.0,
                 qsim.fidelity(rebit.rebit_decode_logical(run.state),
                               rebit_schemes.logical_oracle(circuit, psi.vec)),
                 TOL_FIDELITY, seed, "logical-oracle")
            for t, (circuit, psi, run) in enumerate(runs)]


def _rank_counts(n, k):
    """Number of n x k matrices over F2 of each rank r, exactly: the
    Gaussian-binomial count prod_{i<r} (2^n - 2^i)(2^k - 2^i) / (2^r - 2^i).
    In scheme 7 the rows of B are the variables' lumped classes beta."""
    counts = []
    for r in range(min(n, k) + 1):
        num = den = 1
        for i in range(r):
            num *= (2 ** n - 2 ** i) * (2 ** k - 2 ** i)
            den *= 2 ** r - 2 ** i
        counts.append(num // den)
    return counts


def _audit_point(args, n, k, seed):
    scheme, metric = args.scheme, args.metric
    if metric == "comm":
        return _comm_audit(args, n, k, seed)
    if metric == "trace-distance" and scheme != "7":  # 4, 8: per variable
        expected = 0.5 ** k if scheme == "4" else 2.0 ** (-k / 2)
        obs = seclab.privacy_distance(scheme, {"k": k}, 0, 1)
        return [_row(scheme, {"k": k}, metric, expected, obs, TOL_EXACT,
                     seed, "exact-enumeration")]
    params = {"n": n, "k": k}
    if metric == "trace-distance":
        # Bob tells x from 0 unless x lies in B's column space:
        # c0 = 1 - (E[2^rank B] - 1) / (2^n - 1), one rounding
        res = seclab.theorem6_constants(n, k)
        total = 2 ** (n * k) * (2 ** n - 1)
        spanned = sum(c << r for r, c in enumerate(_rank_counts(n, k)))
        c0 = (total - (spanned - 2 ** (n * k))) / total
        return [_row("7", params, "trace-distance-c0", c0, res["c0"],
                     TOL_EXACT, seed, "exact-enumeration"),
                _row("7", params, "trace-distance-spread", 0.0,
                     res["spread"], TOL_EXACT, seed, "exact-enumeration")]
    obs = seclab.cmi_uniform(scheme, n, k)
    if scheme == "7":  # n - E[rank B], one rounding
        ranks = sum(c * r for r, c in enumerate(_rank_counts(n, k)))
        expected = (n * 2 ** (n * k) - ranks) / 2 ** (n * k)
    else:  # 8: each variable's parity through a binary symmetric
        # channel with crossover (1 - 2^(-k/2))/2
        p = (1 - 2 ** (-k / 2)) / 2
        expected = n * (1 + p * math.log2(p) + (1 - p) * math.log2(1 - p))
    return [_row(scheme, params, metric, expected, obs, TOL_EXACT, seed,
                 "exact-enumeration")]


# closed-form Bob->Alice bit counts of one run, as functions of (n, k)
_COMM_BOB_TO_ALICE = {
    "4": lambda n, k: n * k + 1,
    "7": lambda n, k: k + 1,
    "8": lambda n, k: k + 2,
    "10": lambda n, k: k + 1,
}


def _comm_audit(args, n, k, seed):
    """Bob->Alice bit counts of one live run versus the closed forms."""
    scheme = args.scheme
    if scheme == "2":
        (_, _, run), = _rebit_runs("2", n, args.depth, seed, 1)
        return [_row("2", {"n": n}, "comm-bob-to-alice", 2 * n,
                     comm_audit(run.transcript, "Bob->Alice"), 0, seed,
                     "protocol-audit")]
    if scheme == "5":
        (_, _, run), = _scheme5_runs(n, args.R, k, seed, 1)
        params = {"n": n, "R": args.R, "k": k}
        return [_row("5", params, "subprotocol-instances", 2 * n + args.R,
                     run.report.instance_count, 0, seed, "protocol-audit"),
                _row("5", params, "key-variables", 2 * n + 4 * args.R,
                     run.report.nvars, 0, seed, "protocol-audit")]
    rng = np.random.default_rng(seed)
    x = [int(b) for b in rng.integers(0, 2, size=n)]
    poly = LinearPolynomial(tuple(rng.integers(0, 2, size=n)),
                            int(rng.integers(0, 2)))
    _, tr = _CLASSICAL[scheme](x, poly, k, rng)
    return [_row(scheme, {"n": n, "k": k}, "comm-bob-to-alice",
                 _COMM_BOB_TO_ALICE[scheme](n, k),
                 comm_audit(tr, "Bob->Alice"), 0, seed, "protocol-audit")]


def _adversary_point(args, n, k, seed):
    scheme, strategy, trials = args.scheme, args.strategy, args.trials
    if scheme == "6":
        circuit = CliffordTCircuit(1, (("H", (0,)), ("P", (0,))))
        psi = qsim.random_state(1, np.random.default_rng(seed))
        honest = strategy == "honest"
        res = seclab.scheme6_detection(
            circuit, psi, k, args.traps, seed, trials,
            strategy_factory=None if honest else seclab.ProbeAlice)
        params = {"k": k, "traps": args.traps, "trials": trials,
                  "strategy": strategy}
        if honest:
            return [_row("6", params, "abort-rate", 0.0,
                         res["detection_rate"], 0.0, seed, "monte-carlo")]
        return [_row("6", params, "detection-rate", 0.5,
                     res["detection_rate"], None, seed, "monte-carlo",
                     comparison=">=")]
    if args.party == "bob":
        res = seclab.cheating_bob("4", {"n": n, "k": k}, seed, trials=trials)
        params = {"n": n, "k": k, "trials": trials}
        lo, _ = res["induced_error_interval"]
        return [_row("4", params, "per-pair-guess-rate", 0.75,
                     res["per_pair_guess_rate"], 1e-12, seed,
                     "exact-enumeration"),
                _row("4", params, "per-variable-guess-rate",
                     0.5 + 0.5 ** (k + 1), res["per_variable_guess_rate"],
                     1e-12, seed, "exact-enumeration"),
                _row("4", params, "induced-error-wilson-low", 0.1, lo, None,
                     seed, "monte-carlo", comparison=">=")]
    res = seclab.cheating_alice("4", strategy, {"n": n, "k": k}, seed,
                                trials=trials)
    params = {"n": n, "k": k, "trials": trials, "strategy": strategy}
    if strategy == "probe":
        lo, _ = res["outcome_error_interval"]
        return [_row("4", params, "identification-rate", 1.0,
                     res["identification_rate"], 0.0, seed, "monte-carlo"),
                _row("4", params, "outcome-error-wilson-low", 0.2, lo, None,
                     seed, "monte-carlo", comparison=">=")]
    return [_row("4", params, "identification-rate", None,
                 res["identification_rate"], None, seed, "monte-carlo"),
            _row("4", params, "outcome-error-rate", 0.0,
                 res["outcome_error_rate"], 0.0, seed, "monte-carlo")]


# --- argument plumbing ----------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An argument parser, subcommand parsers included, whose refusals
    raise ValueError, so that main refuses them as it refuses every other
    argument: exit 2 and one JSON error line.  --help still prints and
    exits."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def _build_parser():
    """The parser, built once per process; parsing leaves it unchanged."""
    p = _Parser(prog="qhelab", description="scheme laboratory batch runner")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, required=True,
                        help="base seed; mandatory for sampled experiments")
        sp.add_argument("--output", default=None,
                        help="report path (default stdout)")

    run = sub.add_parser("run", help="correctness experiments")
    run.add_argument("--scheme", required=True, choices=sorted(SCHEMES))
    run.add_argument("--n", default="1")
    run.add_argument("--k", default="1")
    run.add_argument("--R", type=int, help="scheme 5 only: T gates per "
                     "random circuit (default 1)")
    run.add_argument("--depth", type=int, help="schemes 1 and 2 only: "
                     "layers per random circuit (default 2)")
    run.add_argument("--gamma", type=float,
                     help="scheme 9 only (default 1.5)")
    run.add_argument("--k-prime", type=int,
                     help="scheme 9 only (default 1)")
    run.add_argument("--trials", type=int,
                     help="sampled runs only (default 20)")
    run.add_argument("--exhaustive", action="store_true")
    common(run)

    audit = sub.add_parser("audit", help="privacy and communication audits")
    audit.add_argument("--metric", required=True,
                       choices=["trace-distance", "cmi", "comm"])
    audit.add_argument("--scheme", required=True, choices=sorted(SCHEMES))
    audit.add_argument("--n", default="1")
    audit.add_argument("--k", default="1")
    audit.add_argument("--R", type=int, help="scheme-5 comm audit only: T "
                       "gates in its random circuit (default 1)")
    audit.add_argument("--depth", type=int, help="scheme-2 comm audit only: "
                       "layers in its random circuit (default 2)")
    common(audit)

    adv = sub.add_parser("adversary", help="cheating-strategy benches")
    adv.add_argument("--party", choices=["alice", "bob"], default="alice")
    adv.add_argument("--scheme", required=True, choices=["4", "6"])
    adv.add_argument("--strategy", default=None,
                     choices=["probe", "honest", "measure"],
                     help="alice: probe (default) or honest; bob: measure")
    adv.add_argument("--n", default="1")
    adv.add_argument("--k", default="1")
    adv.add_argument("--traps", type=int, help="scheme 6 only (default 4)")
    adv.add_argument("--trials", type=int)
    common(adv)

    sub.add_parser("list-schemes", help="inventory of runnable protocols")
    return p


# What each grid point reads: (command, mode, scheme) -> (axes, flags),
# with the mode the audit metric, the adversary party, or whether a run is
# exhaustive or sampled.  `axes` names the grid axes the point reads and
# `flags` its optional flags with their defaults; a tuple lists the values
# a flag may take, its default first.  _grid_points refuses every other
# flag given and every other axis but 1: the point would ignore it, and
# so repeat its rows or run another mode than the one asked for.

# the linear-polynomial schemes but 9, which sets k = ceil(gamma n) itself
_LINPOLY = ("4", "7", "8", "10")
_POINTS = {
    **{("run", "sampled", s): ("nk", {"trials": 20}) for s in _LINPOLY},
    **{("run", "exhaustive", s): ("nk", {}) for s in _LINPOLY},
    ("run", "sampled", "9"): ("n", {"trials": 20, "gamma": 1.5,
                                    "k_prime": 1}),
    ("run", "exhaustive", "9"): ("n", {"gamma": 1.5, "k_prime": 1}),
    ("run", "sampled", "5"): ("nk", {"R": 1, "trials": 20}),
    **{("run", "sampled", s): ("n", {"depth": 2, "trials": 20})
       for s in ("1", "2")},
    # the scheme-4 and scheme-8 distances are per variable
    ("audit", "trace-distance", "4"): ("k", {}),
    ("audit", "trace-distance", "8"): ("k", {}),
    ("audit", "trace-distance", "7"): ("nk", {}),
    ("audit", "cmi", "7"): ("nk", {}),
    ("audit", "cmi", "8"): ("nk", {}),
    **{("audit", "comm", s): ("nk", {}) for s in _LINPOLY},
    ("audit", "comm", "5"): ("nk", {"R": 1}),
    ("audit", "comm", "2"): ("n", {"depth": 2}),
    ("adversary", "alice", "4"): ("nk", {"strategy": ("probe", "honest"),
                                         "trials": 1000}),
    # the scheme-6 bench runs a fixed one-qubit circuit
    ("adversary", "alice", "6"): ("k", {"strategy": ("probe", "honest"),
                                        "traps": 4, "trials": 1000}),
    ("adversary", "bob", "4"): ("nk", {"strategy": ("measure",),
                                       "trials": 1000}),
}
_FLAGS = sorted({flag for _, flags in _POINTS.values() for flag in flags})


def _grid_points(args):
    """Check the parsed arguments against their point's entry in _POINTS,
    fill in its defaults, and expand the grid into (n, k, seed) points."""
    mode = (args.metric if args.command == "audit"
            else args.party if args.command == "adversary"
            else "exhaustive" if args.exhaustive else "sampled")
    noun = {"run": "run of", "audit": "audit of", "adversary": "bench against"}
    what = f"{mode} {noun[args.command]} scheme {args.scheme}"
    if (args.command, mode, args.scheme) not in _POINTS:
        raise ValueError(f"there is no {what}")
    axes, flags = _POINTS[args.command, mode, args.scheme]
    ns, ks = _parse_range(args.n), _parse_range(args.k)
    for axis, values in (("n", ns), ("k", ks)):
        if axis not in axes and values != [1]:
            raise ValueError(f"the {what} reads no {axis}; it takes "
                             f"--{axis} 1 only")
    for flag in _FLAGS:
        given, default = getattr(args, flag, None), flags.get(flag)
        name = "--" + flag.replace("_", "-")
        values = default if isinstance(default, tuple) else (default,)
        if given is None:
            setattr(args, flag, values[0])
        elif default is None:
            raise ValueError(f"the {what} does not read {name}")
        elif isinstance(default, tuple) and given not in values:
            raise ValueError(f"the {what} takes {name} "
                             f"{' or '.join(values)} only")
    if args.strategy == "probe" and args.traps == 0:
        raise ValueError("the probe bench needs --traps of at least 1: "
                         "with no trap nothing can detect the probe")
    if not ns or not ks:
        raise ValueError("the --n and --k axes must not be empty")
    if any(n < 1 for n in ns) or any(k < 1 for k in ks):
        raise ValueError("n and k must be positive")
    # a register past seclab's entry cap is refused before anything is
    # built: scheme 5 keeps a 2^n statevector, and each random R_y layer
    # of schemes 1 and 2 is a dense 2^n x 2^n unitary
    if args.scheme in ("1", "2", "5"):
        n = max(ns)
        log_entries = n if args.scheme == "5" else 2 * n
        if log_entries > seclab._ENTRY_CAP.bit_length() - 1:
            raise ValueError(f"scheme {args.scheme} at n = {n} builds an "
                             f"array of 2^{log_entries} entries, more than "
                             f"the cap {seclab._ENTRY_CAP}")
    for flag, least in (("trials", 1), ("R", 0), ("traps", 0), ("depth", 0)):
        if getattr(args, flag) is not None and getattr(args, flag) < least:
            raise ValueError(f"--{flag} must be at least {least}")
    # a report path that cannot be opened is refused before any point runs
    if args.output:
        out = Path(args.output)
        if out.is_dir() or not out.parent.is_dir():
            raise ValueError(f"--output {args.output} is a directory or lies "
                             "in a directory that does not exist")
    return [(n, k, args.seed + 1000 * idx)
            for idx, (n, k) in enumerate((n, k) for n in ns for k in ks)]


def _emit(rows, output):
    text = "".join(r.to_json() + "\n" for r in rows)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "list-schemes":
            for sid in sorted(SCHEMES, key=int):
                print(f"{sid}\t{SCHEMES[sid]}")
            return 0
        # an exhaustive grid passes its preflight at every point before
        # any point runs
        passes = [{"run": _run_point, "audit": _audit_point,
                   "adversary": _adversary_point}[args.command]]
        if getattr(args, "exhaustive", False):
            passes.insert(0, _exhaustive_preflight)
        points = _grid_points(args)
        rows = []
        for point_fn in passes:
            for n, k, seed in points:
                try:
                    rows += point_fn(args, n, k, seed)
                except (ProtocolError, AssertionError) as exc:
                    record = {"error": f"{type(exc).__name__}: {exc}",
                              "command": args.command, "scheme": args.scheme,
                              "n": n, "k": k, "seed": seed}
                    sys.stderr.write(json.dumps(record, sort_keys=True)
                                     + "\n")
                    return 3
        _emit(rows, args.output)
    except (ValueError, KeyError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    return 0 if all(r.passed for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
