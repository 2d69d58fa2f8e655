"""Call tracing around qhelab's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a timing wrapper at
every place it is bound: the defining module, every qhelab module that
imported it with `from ... import`, and the class for methods.
`Tracer.uninstall()` puts every original back.  Nothing inside qhelab is
edited.

Each wrapper records one span per call.  A span's self time is its
duration minus the durations of the traced calls it made (its child
spans), so self times add up to the traced wall time without double
counting.  Counters that need an argument or a result (register width,
amplitude bytes, view dimension) are taken by observers at the same
boundary.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Functions timed per layer; "linalg" is numpy.linalg, the eigensolver the
# privacy analysis spends its time in.
TIMED = {
    "qsim": ("apply_gate", "measure", "outcome_probability", "trace_distance",
             "epr_extend", "remove_qubit"),
    "harness": ("teleport_symbolic", "measure_with", "bell_measure_with"),
    "rebit": ("rebit_encode", "rebit_decode_logical", "ydiag_expand",
              "build_c_matrix", "controlled_ry"),
    "rebit_schemes": ("run_scheme2", "logical_oracle"),
    "linpoly": ("run_scheme4", "run_scheme8", "run_scheme10"),
    "qhe_core": ("t_gate_step", "garden_hose", "run_scheme5", "run_scheme6"),
    "seclab": ("bob_view", "privacy_distance", "theorem6_constants",
               "cmi_uniform", "conditioned_information", "cheating_bob",
               "scheme6_detection"),
    "cli": ("main",),
    "linalg": ("eigvalsh",),
}
KEEP_DURATIONS = {"qhe_core.run_scheme6"}  # one call is one Monte Carlo trial


@dataclass
class Stat:
    calls: int = 0
    self_s: float = 0.0
    durations: list = field(default_factory=list)


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- recording -------------------------------------------------------

    def bump(self, name, amount=1):
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name, value):
        self.counters[name] = max(self.counters.get(name, 0), value)

    def timed(self, name, fn, observe=None):
        """Wrapper that records a span for each call of `fn` under `name`."""
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = time.perf_counter
        keep = name in KEEP_DURATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stat.calls += 1
                stat.self_s += dur - frame[0]
                if keep:
                    stat.durations.append(dur)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def counted(self, name, fn):
        """Wrapper that only counts completed calls (for very hot, very
        cheap calls, where a span would cost more than the call)."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[name] = counters.get(name, 0) + 1
            return result

        return wrapper

    # --- observers -------------------------------------------------------

    def _on_gate(self, args, result):
        self.peak("qsim.apply_gate.max_width", args[0].num_qubits)
        # amplitudes written: one vector, or two row passes on a density
        if result.vec is not None:
            self.bump("qsim.apply_gate.amp_bytes_computed", result.vec.nbytes)
        else:
            self.bump("qsim.apply_gate.amp_bytes_computed",
                      2 * result.rho.nbytes)

    def _on_view(self, args, result):
        self.peak("seclab.bob_view.max_dim", result.density.shape[0])

    def _on_eig(self, args, result):
        self.peak("linalg.eigvalsh.max_dim", np.shape(args[0])[0])

    # --- patching --------------------------------------------------------

    def install(self):
        from qhelab import cli, harness, qsim  # noqa: F401  (loads all)
        observers = {"qsim.apply_gate": self._on_gate,
                     "seclab.bob_view": self._on_view,
                     "linalg.eigvalsh": self._on_eig}
        for layer, names in TIMED.items():
            module = (np.linalg if layer == "linalg"
                      else importlib.import_module(f"qhelab.{layer}"))
            for name in names:
                key = f"{layer}.{name}"
                self._patch_function(module, name, lambda fn, key=key:
                                     self.timed(key, fn, observers.get(key)))
        self._replace(qsim.QuantumState, "__init__",
                           self.counted("qsim.QuantumState.init.calls",
                                        qsim.QuantumState.__init__))
        self._replace(harness.Transcript, "record", self.timed(
            "harness.Transcript.record", harness.Transcript.record))
        for cls, attr in ((harness.RandomBits, "bit"),
                          (harness.RandomBits, "outcome"),
                          (harness.FixedBits, "bit")):
            self._replace(cls, attr, self.counted(
                "harness.hidden_bits.drawn", vars(cls)[attr]))
        self._patch_function(harness, "enumerate_hidden_adaptive",
                             self._counting_enumerator)

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _patch_function(self, module, attr, wrap):
        """Replace `module.attr` and every qhelab-module alias of the same
        object with `wrap(original)`."""
        original = getattr(module, attr)
        wrapper = wrap(original)
        owners = [module] + [mod for name, mod in list(sys.modules.items())
                             if name.startswith("qhelab.")]
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is original:
                    self._replace(owner, name, wrapper)

    def _replace(self, owner, name, value):
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _counting_enumerator(self, enumerate_fn):
        """Count every branch the enumerator runs and every leaf it yields;
        the generator's own time stays with its consumer."""

        @functools.wraps(enumerate_fn)
        def wrapper(run_fn, *args, **kwargs):
            def counted_run(source):
                self.bump("harness.enumerate.attempts")
                return run_fn(source)

            for item in enumerate_fn(counted_run, *args, **kwargs):
                self.bump("harness.enumerate.leaves")
                yield item

        return wrapper
