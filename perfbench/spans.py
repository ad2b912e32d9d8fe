"""Span tracing of ecgdyn's public functions, from outside the package.

``Tracer.install`` replaces each listed function in every ``ecgdyn``
module namespace that binds it, so calls made between modules are caught
as well as calls from the CLI. A wrapper records a span only while a job
is open; input generation and output checks between jobs pass through.
Spans are kept in memory as (name, start, end, parent, job) and written
out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np


def _rows(beats) -> int:
    return sum(b.grid.L for b in beats)


def _refine_args(args, kwargs):
    # the history list is the 7th parameter of refine_waveform
    if len(args) < 7 and kwargs.get("history") is None:
        kwargs["history"] = []


def _refine_stats(args, kwargs, result):
    history = kwargs["history"] if len(args) < 7 else args[6]
    # an input already at the loss floor returns with an empty history
    ratio = history[-1] / history[0] if history and history[0] else 1.0
    return {"steps": max(len(history) - 1, 0), "loss_ratio_sum": ratio}


#: (module, function, argument hook, result hook). The result hook turns
#: one call into counter increments.
TARGETS = (
    ("cli", "run_cli", None, lambda a, k, r: {"nonzero_exits": int(r != 0)}),
    ("cli", "read_beats_csv", None, lambda a, k, r: {"rows": _rows(r)}),
    ("cli", "write_beats_csv", None,
     lambda a, k, r: {"rows": _rows(a[1]), "bytes": os.path.getsize(a[0])}),
    ("cli", "read_record_csv", None, lambda a, k, r: {"rows": r.channels.shape[1]}),
    ("params", "read_param_file", None, None),
    ("params", "write_param_file", None, None),
    ("integrate", "integrate_euler", None, lambda a, k, r: {"steps": r.grid.L - 1}),
    ("leads", "synthesize_heartbeat", None, None),
    ("leads", "check_lead_consistency", None, None),
    ("model", "wave_rate_sum", None, lambda a, k, r: {"points": r.size}),
    ("fidelity", "loss_components", None, None),
    ("fidelity", "draw_param_samples", None, None),
    ("fidelity", "sim_distance", None, None),
    ("fidelity", "sim_distance_interlead", None, None),
    ("fidelity", "grad_sim_distance_wrt_eta", None, None),
    ("fitting", "fit_params", None,
     lambda a, k, r: {"iterations": r.iterations, "converged": int(r.converged)}),
    ("fitting", "refine_waveform", _refine_args, _refine_stats),
    ("segmentation", "detect_r_peaks", None,
     lambda a, k, r: {"samples": np.asarray(a[0]).size}),
    ("segmentation", "segment_record", None, lambda a, k, r: {"cycles": len(r)}),
    ("segmentation", "resample_cycle", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, job id)
        self.counts: dict[str, float] = defaultdict(float)
        self.cache: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._job = None
        self._undo: list = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module, func, before, after in TARGETS:
            original = getattr(importlib.import_module(f"ecgdyn.{module}"), func)
            wrapper = self._wrap(f"{module}.{func}", original, before, after)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "ecgdyn"
                                       or mod_name.startswith("ecgdyn.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    def _wrap(self, name, fn, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._job)
            counts[f"{name}.calls"] += 1
            if after is not None:
                for stat, value in after(args, kwargs, result).items():
                    counts[f"{name}.{stat}"] += value
            return result

        return wrapper

    # -- jobs --------------------------------------------------------------

    @contextlib.contextmanager
    def job(self, job_id):
        from ecgdyn.fidelity import reference_trajectory

        before = reference_trajectory.cache_info()
        self._job = job_id
        try:
            yield
        finally:
            self._job = None
            after = reference_trajectory.cache_info()
            self.cache["hits"] += after.hits - before.hits
            self.cache["misses"] += after.misses - before.misses

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer totals over every traced job; a function never called
        has no entry."""
        out = dict(self.counts)
        for span, own in zip(self.spans, self_times(self.spans)):
            key = f"{span[0]}.self_s"
            out[key] = out.get(key, 0.0) + own
        out["fidelity.reference_trajectory.hits"] = self.cache["hits"]
        out["fidelity.reference_trajectory.misses"] = self.cache["misses"]
        fits = out.get("fitting.fit_params.calls", 0)
        iterations = out.get("fitting.fit_params.iterations", 0)
        evals = count_under(self.spans, "fidelity.sim_distance", "fitting.fit_params")
        out["fitting.fit_params.converged_ratio"] = _ratio(
            out.pop("fitting.fit_params.converged", 0), fits)
        out["fitting.fit_params.evals_per_iteration"] = _ratio(evals, iterations)
        out["fitting.refine_waveform.loss_ratio"] = _ratio(
            out.pop("fitting.refine_waveform.loss_ratio_sum", 0),
            out.get("fitting.refine_waveform.calls", 0))
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line, with its self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for span, own in zip(self.spans, self_times(self.spans)):
                name, start, end, parent, job = span
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job,
                                     "self_s": own}) + "\n")


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def self_times(spans) -> list[float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent, job) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def count_under(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have a span called ``ancestor`` above them."""
    total = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent is not None:
            if spans[parent][0] == ancestor:
                total += 1
                break
            parent = spans[parent][3]
    return total
