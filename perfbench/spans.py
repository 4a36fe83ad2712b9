"""Spans around the calls into each polytorus layer, and the per-layer
metrics computed from them.

`Tracer.installed()` replaces each function of `TRACED` by a wrapper in
every polytorus module that holds a reference to it, so calls made inside
the package (say, `solve_bivariate` calling `eliminant_bivariate`) are
spanned too; the originals come back when the block ends.  A span records
its name, start, end, parent span and trial id; spans stay in memory until
`write` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# (module, function, span name)
TRACED = (
    ("polynomials", "sample_bernoulli_system", "polynomials.sample"),
    ("lattice", "mixed_volume", "lattice.mixed_volume"),
    ("resultants", "classify_exceptional", "resultants.classify"),
    ("resultants", "eliminant_bivariate", "resultants.eliminant"),
    ("resultants", "roots_structure", "resultants.roots_structure"),
    ("solver", "roots_univariate", "solver.roots"),
    ("solver", "solve_bivariate", "solver.solve"),
    ("solver", "solve_univariate_cycle", "solver.solve"),
    ("discrepancy", "angle_discrepancy", "discrepancy.angle"),
    ("discrepancy", "radius_discrepancy", "discrepancy.radius"),
    ("discrepancy", "erdos_turan_size", "discrepancy.eta"),
    ("discrepancy", "box_count", "discrepancy.box"),
    ("experiment", "run_trial", "experiment.run_trial"),
    ("experiment", "aggregate", "experiment.aggregate"),
)

# per-layer metrics: name -> unit; `*_s` are span times summed over the pass
METRIC_UNITS = {
    "polynomials.sample_s": "s",
    "lattice.mixed_volume_s": "s",
    "lattice.mixed_volume_calls": "count",
    "resultants.classify_s": "s",
    "resultants.eliminant_s": "s",
    "resultants.roots_structure_s": "s",
    "resultants.eliminant_degree": "count",
    "resultants.eliminant_bits": "bits",
    "solver.roots_s": "s",
    "solver.solve_s": "s",
    "solver.backsub_rest_s": "s",
    "solver.aberth_sweeps": "count",
    "solver.zeros_found": "count",
    "solver.dropped": "count",
    "solver.unconverged": "count",
    "solver.crosscheck_mismatches": "count",
    "discrepancy.angle_s": "s",
    "discrepancy.radius_s": "s",
    "discrepancy.eta_s": "s",
    "discrepancy.box_s": "s",
    "experiment.run_trial_s": "s",
    "experiment.aggregate_s": "s",
    "experiment.records_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Span:
    __slots__ = ("id", "name", "parent", "trial", "start", "end", "counts")

    def __init__(self, id, name, parent, trial):
        self.id = id
        self.name = name
        self.parent = parent
        self.trial = trial
        self.start = self.end = None
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Collects spans, and the inputs and zeros the checks need.

    A trial id is the pair (d, trial).  `systems` and `cycles` map it to
    the sampled system and to the solved zero cycle.
    """

    def __init__(self):
        self.spans = []
        self.systems = {}
        self.cycles = {}
        self._stack = []
        self._trial = None

    def _wrap(self, name, fn):
        # span "layer.x" passes the call's result to self._after_x, if any
        hook = getattr(self, "_after_" + name.split(".")[1], None)
        is_trial = fn.__name__ == "run_trial"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if is_trial:  # run_trial(n, d, trial, ...)
                self._trial = (args[1], args[2])
            span = Span(len(self.spans), name, self._stack[-1] if self._stack else None, self._trial)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if is_trial:
                    self._trial = None
            if hook is not None:
                hook(span, result)
            return result

        return traced

    def _after_sample(self, span, system):
        self.systems[span.trial] = system

    def _after_solve(self, span, result):
        cycle, diag = result
        self.cycles[span.trial] = cycle
        span.counts = {
            "aberth_sweeps": diag.iterations,
            "zeros_found": diag.count_found,
            "dropped": diag.dropped,
            "crosscheck_mismatches": diag.cross_check_mismatches,
        }

    def _after_roots(self, span, res):
        span.counts = {"unconverged": int((~res.converged).sum())}

    def _after_eliminant(self, span, coeffs):
        span.counts = {
            "eliminant_degree": max(len(coeffs) - 1, 0),
            "eliminant_bits": max((abs(int(c)).bit_length() for c in coeffs), default=0),
        }

    @contextlib.contextmanager
    def installed(self):
        """Span every function of TRACED while the block runs."""
        patched = []
        try:
            for module, fname, name in TRACED:
                original = getattr(importlib.import_module("polytorus." + module), fname)
                wrapper = self._wrap(name, original)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "polytorus" and not mod_name.startswith("polytorus."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")

    def metrics(self) -> dict:
        """Per-layer values from the spans; trace.overhead_s and
        experiment.records_bytes are filled in by the caller."""
        out = {name: 0.0 if unit == "s" else 0 for name, unit in METRIC_UNITS.items()}
        child_time = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
        for span in self.spans:
            out[span.name + "_s"] += span.duration
            if span.name == "lattice.mixed_volume":
                out["lattice.mixed_volume_calls"] += 1
            if span.name == "solver.solve":
                # derived: solve time not covered by the spanned calls inside it
                out["solver.backsub_rest_s"] += span.duration - child_time.get(span.id, 0.0)
            for key, value in (span.counts or {}).items():
                layer = span.name.split(".")[0]
                if key == "eliminant_bits":
                    out[f"{layer}.{key}"] = max(out[f"{layer}.{key}"], value)
                else:
                    out[f"{layer}.{key}"] += value
        return out
