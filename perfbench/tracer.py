#!/usr/bin/env python3
"""Span tracing for the painfusion benchmark.

Run as a script, it wraps the public functions of painfusion's modules in
the namespace where their callers look them up, runs the painfusion CLI
with the remaining arguments, and writes every recorded span to a .npz
file when the command ends:

    PYTHONPATH=src python perfbench/tracer.py SPANS.npz matrix --config ...

Imported, ``layer_metrics`` turns such a file into the per-layer metrics.
Nothing under src/ is modified; the wrappers exist only in the traced
process.
"""

import functools
import importlib
import itertools
import math
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _windows_out(args, kwargs, result):
    return len(result)


def _bytes_written(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return os.path.getsize(path)


def _bytes_parsed(args, kwargs, result):
    return len(args[0] if args else kwargs["data"])


def _sgd_steps(args, kwargs, result):
    windows = args[0] if args else kwargs["windows"]
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return spec.epochs * math.ceil(len(windows) / spec.batch_size)


def _windows_in(args, kwargs, result):
    return len(args[1] if len(args) > 1 else kwargs["windows"])


def _fused_windows(args, kwargs, result):
    return len(result[0])


# (span name, module, attribute in that module, count taken from the call).
# Each function is wrapped where its caller looks it up, so a call made
# through another name is not traced twice.
TARGETS = (
    ("config.load_run_config", "painfusion.cli", "load_run_config", None),
    ("data.generate_synthetic", "painfusion.cli", "generate_synthetic", None),
    ("data.write_sequence_file", "painfusion.cli", "write_sequence_file", _bytes_written),
    ("data.parse_emopain_file", "painfusion.data", "parse_emopain_file", _bytes_parsed),
    ("data.make_windows", "painfusion.evaluate", "make_windows", _windows_out),
    ("modality.project", "painfusion.evaluate", "project", None),
    ("stats.modality_weights", "painfusion.evaluate", "modality_weights", None),
    ("models.fit", "painfusion.evaluate", "fit", _sgd_steps),
    ("models.frame_statistics", "painfusion.models", "frame_statistics", None),
    (
        "models.predict_proba_windows",
        "painfusion.models",
        "TrainedClassifier.predict_proba_windows",
        _windows_in,
    ),
    ("fusion.fuse_batch", "painfusion.evaluate", "fuse_batch", _fused_windows),
    ("evaluate.run_experiment", "painfusion.evaluate", "run_experiment", None),
    ("evaluate.run_experiment", "painfusion.cli", "run_experiment", None),
    ("evaluate.run_matrix", "painfusion.cli", "run_matrix", None),
    ("evaluate.loocv", "painfusion.cli", "loocv", None),
    ("evaluate.render", "painfusion.cli", "metrics_csv", None),
    ("evaluate.render", "painfusion.cli", "confusion_csv", None),
    ("evaluate.render", "painfusion.cli", "predictions_csv", None),
    ("evaluate.render", "painfusion.cli", "weights_csv", None),
)

ROOT_SPAN = "cli.main"
# Spans that also read the thread's CPU clock (a system call per read).
CPU_SPANS = ("models.fit",)
# The outermost of these spans encloses the worker pool of one command.
POOL_OWNERS = ("evaluate.run_matrix", "evaluate.loocv", "evaluate.run_experiment")

# Columns of the spans array in the output file.
SID, NAME, T0, T1, PARENT, THREAD, CPU, COUNT = range(8)


class Tracer:
    """Records one span per completed call of each wrapped function: its
    name, start and end (perf_counter), the calling thread's CPU time (for
    CPU_SPANS only, else 0), the span that caused it, the thread, and a
    per-function count. A span opened on a thread with no open span (a
    pool worker) takes as parent the span open on the thread that created
    the tracer."""

    def __init__(self):
        self._ids = itertools.count()
        self._local = threading.local()
        self._names: list[str] = []
        self._spans: list[tuple] = []
        self._main_stack = self._stack()
        self.missing: list[str] = []
        self.count_errors: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._local.thread = threading.get_native_id()
        return stack

    def wrap(self, name: str, fn, count=None):
        if name not in self._names:
            self._names.append(name)
        name_id = self._names.index(name)
        clock = time.thread_time if name in CPU_SPANS else float

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = -1
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = self._main_stack[-1]
                except IndexError:
                    pass
            sid = next(self._ids)
            stack.append(sid)
            c0 = clock()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = clock()
                stack.pop()
            n = 0
            if count is not None:
                try:
                    n = count(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.count_errors.add(name)
            self._spans.append(
                (sid, name_id, t0, t1, parent, self._local.thread, c1 - c0, n)
            )
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace each target by its traced wrapper. A target the code no
        longer has is listed in ``missing`` and left alone."""
        for name, module_name, attribute, count in targets:
            *path, leaf = attribute.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in path:
                    owner = getattr(owner, part)
                fn = getattr(owner, leaf)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attribute}")
                continue
            setattr(owner, leaf, self.wrap(name, fn, count))

    def dump(self, path: str) -> None:
        spans = np.array(sorted(self._spans), dtype=np.float64).reshape(-1, 8)
        np.savez(
            path,
            spans=spans,
            names=np.array(self._names, dtype=str),
            missing=np.array(self.missing, dtype=str),
            count_errors=np.array(sorted(self.count_errors), dtype=str),
        )


def load_spans(path: str):
    with np.load(path, allow_pickle=False) as data:
        return (
            data["spans"],
            [str(n) for n in data["names"]],
            [str(m) for m in data["missing"]],
            [str(c) for c in data["count_errors"]],
        )


def self_times(spans: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of its interval that its
    direct children cover, whichever thread the children ran on."""
    duration = spans[:, T1] - spans[:, T0]
    own = duration.copy()
    row_of = {int(sid): i for i, sid in enumerate(spans[:, SID])}
    children = defaultdict(list)
    for t0, t1, parent in spans[:, [T0, T1, PARENT]].tolist():
        if parent >= 0:
            children[int(parent)].append((t0, t1))
    for parent, intervals in children.items():
        i = row_of[parent]
        lo, hi = spans[i, T0], spans[i, T1]
        covered, reach = 0.0, lo
        for t0, t1 in sorted(intervals):
            t0, t1 = max(t0, reach), min(t1, hi)
            if t1 > t0:
                covered += t1 - t0
                reach = t1
        own[i] = duration[i] - covered
    return own


def layer_metrics(paths: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics from the spans files of one operation's commands,
    plus notes on targets that could not be traced or counted."""
    parts, names, notes = [], [], {"missing_targets": [], "count_errors": []}
    offset = 0.0
    for path in paths:
        spans, file_names, missing, count_errors = load_spans(path)
        remap = []
        for name in file_names:
            if name not in names:
                names.append(name)
            remap.append(names.index(name))
        spans[:, NAME] = np.asarray(remap)[spans[:, NAME].astype(int)]
        spans[:, SID] += offset
        spans[spans[:, PARENT] >= 0, PARENT] += offset
        offset = spans[:, SID].max() + 1 if len(spans) else offset
        parts.append(spans)
        notes["missing_targets"] += missing
        notes["count_errors"] += count_errors
    spans = np.concatenate(parts) if parts else np.zeros((0, 8))
    name_of = np.array(names, dtype=object)[spans[:, NAME].astype(int)]
    duration = spans[:, T1] - spans[:, T0]
    own = self_times(spans)

    def rows(name):
        return np.flatnonzero(name_of == name)

    def total(values, name):
        return float(values[rows(name)].sum())

    fit = rows("models.fit")
    steps = float(spans[fit, COUNT].sum())
    # Pool concurrency: summed self time under the outermost pool-owning
    # span, over that span's wall time; 1.0 means no overlap.
    row_of = {int(sid): i for i, sid in enumerate(spans[:, SID])}
    parents = spans[:, PARENT].tolist()
    owner = [-1] * len(spans)
    for i in np.argsort(spans[:, SID], kind="stable").tolist():
        parent = row_of.get(int(parents[i]), -1)
        inherited = owner[parent] if parent >= 0 else -1
        owner[i] = i if inherited < 0 and name_of[i] in POOL_OWNERS else inherited
    owner = np.array(owner)
    owned = owner >= 0
    pool_wall = float(duration[np.unique(owner[owned])].sum()) if owned.any() else 0.0

    metrics = {
        "data.generate_synthetic.s": total(duration, "data.generate_synthetic"),
        "data.make_windows.s": total(duration, "data.make_windows"),
        "data.make_windows.windows": total(spans[:, COUNT], "data.make_windows"),
        "data.write_sequence_file.s": total(duration, "data.write_sequence_file"),
        "data.write_sequence_file.mb": total(spans[:, COUNT], "data.write_sequence_file") / 1e6,
        "data.parse_emopain_file.s": total(duration, "data.parse_emopain_file"),
        "data.parse_emopain_file.mb": total(spans[:, COUNT], "data.parse_emopain_file") / 1e6,
        "modality.project.calls": float(len(rows("modality.project"))),
        "modality.project.s": total(duration, "modality.project"),
        "stats.modality_weights.calls": float(len(rows("stats.modality_weights"))),
        "stats.modality_weights.s": total(duration, "stats.modality_weights"),
        "models.fit.calls": float(len(fit)),
        "models.fit.s": float(duration[fit].sum()),
        "models.fit.sgd_steps": steps,
        "models.fit.us_per_step": float(own[fit].sum()) / steps * 1e6 if steps else 0.0,
        "models.fit.busy_s": float(spans[fit, CPU].sum()),
        "models.fit.wait_s": float((duration[fit] - spans[fit, CPU]).sum()),
        "models.frame_statistics.s": total(duration, "models.frame_statistics"),
        "models.predict_proba_windows.s": total(duration, "models.predict_proba_windows"),
        "models.predict_proba_windows.windows": total(
            spans[:, COUNT], "models.predict_proba_windows"
        ),
        "fusion.fuse_batch.s": total(duration, "fusion.fuse_batch"),
        "fusion.fuse_batch.windows": total(spans[:, COUNT], "fusion.fuse_batch"),
        "evaluate.run_experiment.self_s": total(own, "evaluate.run_experiment"),
        "evaluate.pool.concurrency": float(own[owned].sum()) / pool_wall if pool_wall else 0.0,
        "evaluate.render.s": total(duration, "evaluate.render"),
        "config.load_run_config.s": total(duration, "config.load_run_config"),
        "cli.main.s": total(duration, ROOT_SPAN),
        "cli.main.self_s": total(own, ROOT_SPAN),
        "trace.spans": float(len(spans)),
    }
    return metrics, notes


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: tracer.py SPANS.npz <painfusion arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    import painfusion.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap(ROOT_SPAN, painfusion.cli.main)(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
