"""Batch experiment runner and report emitter.

Commands:

- run: correctness experiments over a parameter grid (exhaustive hidden-bit
  enumeration or seeded trials for the classical-output schemes, fidelity
  trials for the circuit-evaluation schemes).
- audit: privacy metrics and communication accounting against registered
  expected values.
- adversary: scripted cheating strategies with Monte Carlo rates.
- list-schemes: inventory of runnable protocols.

Reports are JSON lines, one row per (scheme, params, metric), each carrying
expected/observed/tolerance/pass/seed/provenance so a report is
self-describing.  Rows contain no timestamps and all sampling is seeded, so
identical configurations produce byte-identical reports.  Grid points can
be dispatched to a process pool via the QHELAB_WORKERS environment
variable (a positive integer, capped by the number of grid points and of
cores); rows are emitted in grid order either way.

Exit codes: 0 when every row passes, 1 when a row fails, 2 for refused
arguments, and 3 for an internal error (a protocol fault or a failed
internal check) inside a grid point.  Exits 2 and 3 write one JSON error
line to stderr and no report; exit 3's line names the command, the scheme
and the point's (n, k, seed).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import qsim, rebit, rebit_schemes, seclab
from .harness import (ProtocolError, RandomBits, comm_audit,
                      enumerate_hidden_adaptive)
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


def _parse_range(text):
    """Grid axis syntax: "2", "1..3", or "1,2,4"."""
    text = str(text)
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


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


def _classical_point(args, n, k, seed):
    """One grid point of the classical-output schemes: count failing cases
    over all (x, a, c), either exhausting the hidden randomness per case or
    running seeded trials."""
    run = _CLASSICAL[args.scheme]
    failures = cases = 0
    rng = np.random.default_rng(seed)
    for xv in range(2 ** n):
        x = [(xv >> i) & 1 for i in range(n)]
        for av in range(2 ** n):
            for c in (0, 1):
                poly = LinearPolynomial(
                    tuple((av >> i) & 1 for i in range(n)), c)
                want = poly.evaluate(x)
                if args.exhaustive:
                    for _, got in enumerate_hidden_adaptive(
                            lambda src: run(x, poly, k, src, args.gamma,
                                            args.k_prime)[0],
                            max_bits=args.max_bits):
                        cases += 1
                        failures += int(got != want)
                else:
                    for _ in range(args.trials):
                        got = run(x, poly, k, RandomBits(rng), args.gamma,
                                  args.k_prime)[0]
                        cases += 1
                        failures += int(got != want)
    return failures, cases


def _scheme5_point(n, r_cap, k, seed, trials):
    rng = np.random.default_rng(seed)
    fids = []
    for _ in range(trials):
        circuit = random_clifford_t(n, r_cap, rng)
        psi = qsim.random_state(n, rng)
        run = run_scheme5(circuit, psi, k, rng)
        fids.append(qsim.fidelity(run.state, circuit.apply(psi)))
    return fids


def random_accircuit(scheme, n, depth, rng):
    """Random circuit accepted by the Y-diagonal evaluation schemes: global
    product-of-R_y layers alternating with R_z(j*pi/2) layers (on the first
    data qubit for scheme 1)."""
    layers = []
    for _ in range(depth):
        if rng.random() < 0.5:
            u = rebit_schemes.named_generator("ry_product", n,
                                              float(rng.uniform(0, math.pi)))
            layers.append(rebit_schemes.Layer("ydiag", tuple(range(n)), u=u))
        else:
            q = 0 if scheme == "1" else int(rng.integers(n))
            layers.append(rebit_schemes.Layer("rz", (q,),
                                              j=int(rng.choice([1, 3]))))
    return rebit_schemes.AlmostCommutingCircuit(n, layers)


def _rebit_point(scheme, n, depth, seed, trials):
    rng = np.random.default_rng(seed)
    runner = (rebit_schemes.run_scheme1 if scheme == "1"
              else rebit_schemes.run_scheme2)
    fids = []
    for _ in range(trials):
        circuit = random_accircuit(scheme, n, depth, rng)
        psi = qsim.random_state(n, rng)
        enc = qsim.QuantumState(rebit.rebit_encode(psi))
        run = runner(circuit, enc, RandomBits(rng))
        got = rebit.rebit_decode_logical(run.state)
        want = rebit_schemes.logical_oracle(circuit, psi.vec)
        fids.append(qsim.fidelity(got, want))
    return fids


# --- command implementations ----------------------------------------------
#
# One point function per command: (args, n, k, seed) -> list of report rows.

def _run_point(args, n, k, seed):
    scheme = args.scheme
    if scheme in _CLASSICAL:
        failures, cases = _classical_point(args, n, k, seed)
        params = {"n": n, "k": k, "cases": cases,
                  "mode": "exhaustive" if args.exhaustive else "sampled"}
        if scheme == "9":
            params.update(gamma=args.gamma, k_prime=args.k_prime)
        prov = ("exhaustive-enumeration" if args.exhaustive
                else "seeded-trials")
        return [_row(scheme, params, "correctness-failures", 0, failures,
                     0, seed, prov)]
    if scheme == "5":
        fids = _scheme5_point(n, args.R, k, seed, args.trials)
        return [_row("5", {"n": n, "R": args.R, "k": k, "trial": t},
                     "fidelity", 1.0, f, TOL_FIDELITY, seed,
                     "direct-simulation")
                for t, f in enumerate(fids)]
    fids = _rebit_point(scheme, n, args.depth, seed, args.trials)
    return [_row(scheme, {"n": n, "depth": args.depth, "trial": t},
                 "fidelity", 1.0, f, TOL_FIDELITY, seed, "logical-oracle")
            for t, f in enumerate(fids)]


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
    rows = []
    if metric == "trace-distance":
        if scheme == "4":
            obs = seclab.privacy_distance("4", {"k": k}, 0, 1)
            rows.append(_row("4", {"k": k}, metric, 0.5 ** k, obs, TOL_EXACT,
                             seed, "exact-enumeration"))
        elif scheme == "8":
            obs = seclab.privacy_distance("8", {"k": k}, 0, 1)
            rows.append(_row("8", {"k": k}, metric, 2.0 ** (-k / 2), obs,
                             TOL_EXACT, seed, "exact-enumeration"))
        elif scheme == "7":
            # Bob tells x from 0 unless x lies in B's column space:
            # c0 = 1 - (E[2^rank B] - 1) / (2^n - 1), one rounding
            res = seclab.theorem6_constants(n, k)
            total = 2 ** (n * k) * (2 ** n - 1)
            spanned = sum(c << r for r, c in enumerate(_rank_counts(n, k)))
            c0 = (total - (spanned - 2 ** (n * k))) / total
            rows.append(_row("7", {"n": n, "k": k}, "trace-distance-c0", c0,
                             res["c0"], TOL_EXACT, seed,
                             "exact-enumeration"))
            rows.append(_row("7", {"n": n, "k": k}, "trace-distance-spread",
                             0.0, res["spread"], TOL_EXACT, seed,
                             "exact-enumeration"))
        else:
            raise ValueError(f"no trace-distance audit for scheme {scheme}")
    elif metric == "cmi":
        obs = seclab.cmi_uniform(scheme, n, k)
        if scheme == "7":  # n - E[rank B], one rounding
            ranks = sum(c * r for r, c in enumerate(_rank_counts(n, k)))
            expected = (n * 2 ** (n * k) - ranks) / 2 ** (n * k)
        else:  # 8: each variable's parity through a binary symmetric
            # channel with crossover (1 - 2^(-k/2))/2
            p = (1 - 2 ** (-k / 2)) / 2
            expected = n * (1 + p * math.log2(p) + (1 - p) * math.log2(1 - p))
        rows.append(_row(scheme, {"n": n, "k": k}, metric, expected, obs,
                         TOL_EXACT, seed, "exact-enumeration"))
    elif metric == "comm":
        rows.extend(_comm_audit(args, n, k, seed))
    else:
        raise ValueError(f"unknown audit metric {metric!r}")
    return rows


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
    rng = np.random.default_rng(seed)
    rows = []
    if scheme == "2":
        circuit = random_accircuit("2", n, args.depth, rng)
        psi = qsim.random_state(n, rng)
        enc = qsim.QuantumState(rebit.rebit_encode(psi))
        run = rebit_schemes.run_scheme2(circuit, enc, RandomBits(rng))
        obs = comm_audit(run.transcript, "Bob->Alice")
        rows.append(_row("2", {"n": n}, "comm-bob-to-alice", 2 * n, obs, 0,
                         seed, "protocol-audit"))
        return rows
    if scheme == "5":
        circuit = random_clifford_t(n, args.R, rng)
        run = run_scheme5(circuit, qsim.random_state(n, rng), k, rng)
        params = {"n": n, "R": args.R, "k": k}
        rows.append(_row("5", params, "subprotocol-instances", 2 * n + args.R,
                         run.report.instance_count, 0, seed,
                         "protocol-audit"))
        rows.append(_row("5", params, "key-variables", 2 * n + 4 * args.R,
                         run.report.nvars, 0, seed, "protocol-audit"))
        return rows
    if scheme not in _COMM_BOB_TO_ALICE:
        raise ValueError(f"no communication audit for scheme {scheme}")
    x = [int(b) for b in rng.integers(0, 2, size=n)]
    poly = LinearPolynomial(tuple(rng.integers(0, 2, size=n)),
                            int(rng.integers(0, 2)))
    _, tr = _CLASSICAL[scheme](x, poly, k, rng)
    expected = _COMM_BOB_TO_ALICE[scheme](n, k)
    obs = comm_audit(tr, "Bob->Alice")
    rows.append(_row(scheme, {"n": n, "k": k}, "comm-bob-to-alice", expected,
                     obs, 0, seed, "protocol-audit"))
    return rows


def _adversary_point(args, n, k, seed):
    scheme, strategy, trials = args.scheme, args.strategy, args.trials
    rows = []
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
            rows.append(_row("6", params, "abort-rate", 0.0,
                             res["detection_rate"], 0.0, seed,
                             "monte-carlo"))
        else:
            rows.append(_row("6", params, "detection-rate", 0.5,
                             res["detection_rate"], None, seed,
                             "monte-carlo", comparison=">="))
        return rows
    if args.party == "bob":
        res = seclab.cheating_bob("4", {"n": n, "k": k}, seed, trials=trials)
        params = {"n": n, "k": k, "trials": trials}
        rows.append(_row("4", params, "per-pair-guess-rate", 0.75,
                         res["per_pair_guess_rate"], 1e-12, seed,
                         "exact-enumeration"))
        rows.append(_row("4", params, "per-variable-guess-rate",
                         0.5 + 0.5 ** (k + 1),
                         res["per_variable_guess_rate"], 1e-12, seed,
                         "exact-enumeration"))
        lo, _ = res["induced_error_interval"]
        rows.append(_row("4", params, "induced-error-wilson-low", 0.1, lo,
                         None, seed, "monte-carlo", comparison=">="))
        return rows
    res = seclab.cheating_alice("4", strategy, {"n": n, "k": k}, seed,
                                trials=trials)
    params = {"n": n, "k": k, "trials": trials, "strategy": strategy}
    if strategy == "probe":
        rows.append(_row("4", params, "identification-rate", 1.0,
                         res["identification_rate"], 0.0, seed,
                         "monte-carlo"))
        lo, _ = res["outcome_error_interval"]
        rows.append(_row("4", params, "outcome-error-wilson-low", 0.2, lo,
                         None, seed, "monte-carlo", comparison=">="))
    else:
        rows.append(_row("4", params, "identification-rate", None,
                         res["identification_rate"], None, seed,
                         "monte-carlo"))
        rows.append(_row("4", params, "outcome-error-rate", 0.0,
                         res["outcome_error_rate"], 0.0, seed,
                         "monte-carlo"))
    return rows


# --- argument plumbing ----------------------------------------------------

def _build_parser():
    p = argparse.ArgumentParser(prog="qhelab",
                                description="scheme laboratory batch runner")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, required=True,
                        help="base seed; mandatory for sampled experiments")
        sp.add_argument("--output", default=None,
                        help="report path (default stdout)")
        sp.add_argument("--config", default=None,
                        help="JSON file whose keys override flags")

    run = sub.add_parser("run", help="correctness experiments")
    run.add_argument("--scheme", required=True, choices=sorted(SCHEMES))
    run.add_argument("--n", default="1")
    run.add_argument("--k", default="1")
    run.add_argument("--R", type=int, default=1)
    run.add_argument("--depth", type=int, default=2)
    run.add_argument("--gamma", type=float, default=1.5)
    run.add_argument("--k-prime", type=int, default=1)
    run.add_argument("--trials", type=int, default=20)
    run.add_argument("--exhaustive", action="store_true")
    run.add_argument("--max-bits", type=int, default=24)
    common(run)

    audit = sub.add_parser("audit", help="privacy and communication audits")
    audit.add_argument("--metric", required=True,
                       choices=["trace-distance", "cmi", "comm"])
    audit.add_argument("--scheme", required=True, choices=sorted(SCHEMES))
    audit.add_argument("--n", default="1")
    audit.add_argument("--k", default="1")
    audit.add_argument("--R", type=int, default=1)
    audit.add_argument("--depth", type=int, default=2)
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
    adv.add_argument("--trials", type=int, default=1000)
    common(adv)

    sub.add_parser("list-schemes", help="inventory of runnable protocols")
    return p, sub.choices


# the adversary benches: party -> (schemes, strategies); the first strategy
# is the party's default
_BENCHES = {"alice": (("4", "6"), ("probe", "honest")),
            "bob": (("4",), ("measure",))}


def _grid_points(args):
    """Check the parsed arguments, resolve the adversary defaults in place,
    and expand the grid into (n, k, seed) points."""
    ns, ks = _parse_range(args.n), _parse_range(args.k)
    if args.command == "adversary":
        schemes, strategies = _BENCHES[args.party]
        args.strategy = args.strategy or strategies[0]
        if args.scheme not in schemes or args.strategy not in strategies:
            raise ValueError(f"no {args.party} bench runs strategy "
                             f"{args.strategy!r} against scheme "
                             f"{args.scheme}")
        if args.scheme == "6" and ns != [1]:  # a fixed one-qubit circuit
            raise ValueError("the scheme-6 bench takes --n 1 only")
        if args.scheme == "4" and args.traps is not None:
            raise ValueError("--traps applies to the scheme-6 bench only")
        if args.traps is None:
            args.traps = 4
    if args.command == "run" and args.scheme == "6":
        raise ValueError("scheme 6 has no run mode; use the adversary "
                         "command for scheme 6")
    # an axis or flag that a point ignores would repeat its rows or run
    # another mode than the one asked for
    if (args.command == "audit" and args.metric == "trace-distance"
            and args.scheme in ("4", "8") and ns != [1]):
        raise ValueError(f"the scheme-{args.scheme} trace-distance audit "
                         "is per variable and takes --n 1 only")
    if args.scheme in ("1", "2") and ks != [1]:
        raise ValueError(f"scheme {args.scheme} has no k; it takes --k 1 "
                         "only")
    if getattr(args, "exhaustive", False) and args.scheme in ("1", "2", "5"):
        raise ValueError(f"scheme {args.scheme} runs fidelity trials and "
                         "has no --exhaustive mode")
    if not ns or not ks:
        raise ValueError("the --n and --k axes must not be empty")
    if any(n < 1 for n in ns) or any(k < 1 for k in ks):
        raise ValueError("n and k must be positive")
    if getattr(args, "trials", 1) < 1:
        raise ValueError("--trials must be positive")
    for flag in ("R", "traps", "depth"):
        if (getattr(args, flag, None) or 0) < 0:
            raise ValueError(f"--{flag} must not be negative")
    return [(n, k, args.seed + 1000 * idx)
            for idx, (n, k) in enumerate((n, k) for n in ns for k in ks)]


class _PointError(Exception):
    """A protocol fault or failed internal check inside one grid point;
    its one argument is the JSON error record that names the point."""


def _execute_point(point_fn, args, point):
    """Run one grid point; a ProtocolError or AssertionError comes back as
    a _PointError naming the command, scheme and (n, k, seed)."""
    n, k, seed = point
    try:
        return point_fn(args, n, k, seed)
    except (ProtocolError, AssertionError) as exc:
        raise _PointError({"error": f"{type(exc).__name__}: {exc}",
                          "command": args.command, "scheme": args.scheme,
                          "n": n, "k": k, "seed": seed}) from exc


def _apply_config(args, command_parser):
    """Override parsed flags with the keys of the JSON object in
    args.config; a key that names no flag of the command is refused."""
    try:
        with open(args.config, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read config {args.config}: {exc}") from exc
    if not isinstance(config, dict):
        raise ValueError(f"config {args.config} is not a JSON object")
    flags = {a.dest: a for a in command_parser._actions if a.dest != "help"}
    for key, value in config.items():
        action = flags.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"unknown config key {key!r}")
        setattr(args, action.dest, _config_value(action, key, value))


def _config_value(action, key, value):
    """A config value checked as its flag's own text would be: through the
    flag's type and choices, or a JSON boolean for an on/off flag."""
    if action.nargs == 0:  # store_true
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false")
        return value
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ValueError(f"config key {key!r} must be a string or a number")
    try:
        value = action.type(str(value)) if action.type else str(value)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise ValueError(f"config key {key!r} must be one of "
                         f"{sorted(action.choices)}")
    return value


def _worker_count(points):
    """QHELAB_WORKERS, bounded by the number of grid points and of cores."""
    text = os.environ.get("QHELAB_WORKERS", "1")
    if not text.strip().isdigit() or int(text) < 1:
        raise ValueError(f"QHELAB_WORKERS must be a positive integer, "
                         f"not {text!r}")
    return min(int(text), points, os.cpu_count() or 1)


def _emit(rows, output):
    text = "".join(r.to_json() + "\n" for r in rows)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list-schemes":
        for sid in sorted(SCHEMES, key=int):
            print(f"{sid}\t{SCHEMES[sid]}")
        return 0
    point_fn = {"run": _run_point, "audit": _audit_point,
                "adversary": _adversary_point}[args.command]
    try:
        if args.config:
            _apply_config(args, commands[args.command])
        points = _grid_points(args)
        execute = functools.partial(_execute_point, point_fn, args)
        workers = _worker_count(len(points))
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                per_point = list(pool.map(execute, points))
        else:
            per_point = [execute(p) for p in points]
        rows = [row for point in per_point for row in point]
    except (ValueError, KeyError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return 2
    except _PointError as exc:
        sys.stderr.write(json.dumps(exc.args[0], sort_keys=True) + "\n")
        return 3
    _emit(rows, args.output)
    return 0 if all(r.passed for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
