"""Span tracer that wraps deep_euler's public functions from outside.

Spans (name, start, end, parent span, job) are kept in flat in-memory arrays
and written once, when the run ends. Wrapping is by name: every
``deep_euler.*`` module namespace that binds the original function object
gets the wrapper, so calls made through module attributes or through
``from .x import f`` bindings are both seen. References captured before
install (``cli._CLASSIC_STEPPERS`` holds ``euler_step``/``heun_step``) keep
the originals and stay invisible; the benchmark times solve layers through
library calls for that reason.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from dataclasses import replace

import numpy as np

# (module, function) pairs that make up the per-layer metrics, in report order.
LAYERS = [
    ("dataset", "sample_measurements"),
    ("dataset", "build_pairs"),
    ("dataset", "stack_samples"),
    ("mlp", "train"),
    ("mlp", "loss_and_grad"),
    ("mlp", "adam_step"),
    ("mlp", "forward"),
    ("mlp", "forward_batch"),
    ("mlp", "save_model"),
    ("mlp", "load_model"),
    ("ode", "solve_fixed"),
    ("ode", "euler_step"),
    ("ode", "heun_step"),
    ("ode", "flow"),
    ("ode", "evaluate_truth"),
    ("ode", "solve_reference"),
    ("dem", "corrected_step"),
    ("metrics", "eps_series"),
    ("metrics", "stability_scan"),
    ("metrics", "max_abs_error"),
    ("cli", "main"),
]

# Layers called thousands of times per job, for which a p99 can have at
# least ten samples beyond it.
PERCENTILE_LAYERS = {
    "mlp.loss_and_grad",
    "mlp.adam_step",
    "mlp.forward",
    "ode.euler_step",
    "ode.heun_step",
    "dem.corrected_step",
}

ROOT_SPAN = "bench.job"


def pair_count(built) -> int:
    """Pairs in a ``build_pairs`` result: a list of samples, or a tuple of
    arrays whose first is the inputs (the array form ROADMAP item 3 plans)."""
    return len(built[0]) if isinstance(built, tuple) else len(built)


class Tracer:
    """In-memory span recorder. One instance per run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_col = array("i")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.job = -1
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.name_col)
        self.name_col.append(name_id)
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.job_col.append(self.job)
        self.start_col.append(0)
        self.end_col.append(0)
        self._stack.append(idx)
        self.start_col[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.end_col[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, count_pairs: bool = False):
        """``fn`` recording one span per call, optionally counting the pairs it returns."""
        name_id = self._name_id(name)
        open_, close = self._open, self._close
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if count_pairs:
                counters["dataset.pairs"] = counters.get("dataset.pairs", 0) + pair_count(result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, job: int):
        """Span that covers one whole job."""
        self.job = job
        idx = self._open(self._name_id(ROOT_SPAN))
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        """Replace every deep_euler binding of each layer function with a wrapper."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "deep_euler" or name.startswith("deep_euler."))
        ]
        for mod_name, fn_name in LAYERS:
            layer = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"deep_euler.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            wrapper = self.wrap(layer, original, count_pairs=layer == "dataset.build_pairs")
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._installed.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._installed):
            setattr(mod, attr, original)
        self._installed.clear()

    def count_rhs(self, problem):
        """Copy of ``problem`` whose right-hand side counts its calls into ``ode.rhs.calls``."""
        rhs = problem.rhs
        counters = self.counters

        def counted(x, y):
            counters["ode.rhs.calls"] = counters.get("ode.rhs.calls", 0) + 1
            return rhs(x, y)

        return replace(problem, rhs=counted)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job_col, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start_col, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end_col, dtype=np.int64).copy(),
        }

    def write(self, path, env: dict) -> None:
        """Dump every span plus the run id and environment record to an .npz file."""
        np.savez(
            path,
            names=np.array(self.names),
            run_id=np.array(self.run_id),
            env=np.array(json.dumps(env, sort_keys=True)),
            **self.columns(),
        )

    def layer_metrics(self, jobs: int) -> tuple[dict[str, tuple[float, str]], float]:
        """Per-job calls, self time and per-call percentiles for every layer.

        Self time is a span's duration minus the durations of its direct
        children. ``trace.job_s`` is the mean root span. Returns the metrics
        and the closure error: the sum of all self times minus the root
        spans' total, per job.
        """
        cols = self.columns()
        dur = (cols["end_ns"] - cols["start_ns"]).astype(np.float64) * 1e-9
        parent, name = cols["parent"], cols["name"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        self_by_name = np.bincount(name, weights=self_time, minlength=n_names)

        out: dict[str, tuple[float, str]] = {}
        for mod_name, fn_name in LAYERS:
            layer = f"{mod_name}.{fn_name}"
            nid = self.name_ids.get(layer)
            n = int(calls[nid]) if nid is not None else 0
            out[f"{layer}.calls"] = (n / jobs, "count")
            out[f"{layer}.self_s"] = (float(self_by_name[nid]) / jobs if n else 0.0, "s")
            per_call = dur[name == nid] * 1e6 if n else np.empty(0)
            out[f"{layer}.p50_us"] = (float(np.percentile(per_call, 50)) if n else 0.0, "us")
            if layer in PERCENTILE_LAYERS:
                # p99 needs at least ten samples beyond it; 0 marks "not enough calls".
                p99 = float(np.percentile(per_call, 99)) if n >= 1000 else 0.0
                out[f"{layer}.p99_us"] = (p99, "us")
            if layer == "dataset.build_pairs":
                pairs = self.counters.get("dataset.pairs", 0)
                total = float(np.sum(per_call))
                out[f"{layer}.us_per_pair"] = (total / pairs if pairs else 0.0, "us")
        out["dataset.pairs"] = (self.counters.get("dataset.pairs", 0) / jobs, "count")
        out["ode.rhs.calls"] = (self.counters.get("ode.rhs.calls", 0) / jobs, "count")

        root_id = self.name_ids[ROOT_SPAN]
        root_total = float(np.sum(dur[name == root_id]))
        # Time inside the job that no layer span covers: the benchmark's own
        # code and unwrapped library code called from it.
        out[f"{ROOT_SPAN}.self_s"] = (float(self_by_name[root_id]) / jobs, "s")
        out["trace.job_s"] = (root_total / jobs, "s")
        closure = (float(np.sum(self_time)) - root_total) / jobs
        return out, closure
