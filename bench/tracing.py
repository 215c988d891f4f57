"""Spans around the public functions of dpplearn, recorded from outside.

A :class:`Tracer` replaces module attributes with timing wrappers, keeps
every span (name, start, end, parent) in memory, and restores the
originals on :meth:`Tracer.uninstall`.  Nothing inside ``src/`` changes.

Names that a module imported by value (``from .batch import
map_exhaustive_stack``) are separate bindings of the same function, so
each binding gets its own wrapper under the shared span name.
``kernel.log_subset_det`` is deliberately left alone: per-instance MAP
calls it about 1000 times per instance, and a wrapper there would
measure the wrapper.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time

# (module, attribute, span name) for every binding a workload reaches.
_BINDINGS = (
    ("synth", "generate_dataset", "synth.generate_dataset"),
    ("cli", "generate_dataset", "synth.generate_dataset"),
    ("harness", "generate_dataset", "synth.generate_dataset"),
    ("kernel", "build_kernel", "kernel.build_kernel"),
    ("cli", "build_kernel", "kernel.build_kernel"),
    ("batch", "stack_instances", "batch.stack_instances"),
    ("harness", "stack_instances", "batch.stack_instances"),
    ("batch", "dataset_value_and_grad", "batch.dataset_value_and_grad"),
    ("batch", "hinge_terms", "batch.hinge_terms"),
    ("batch", "map_exhaustive_stack", "batch.map_exhaustive_stack"),
    ("harness", "map_exhaustive_stack", "batch.map_exhaustive_stack"),
    ("synth", "map_exhaustive_stack", "batch.map_exhaustive_stack"),
    ("learning", "train", "learning.train"),
    ("cli", "train", "learning.train"),
    ("harness", "train", "learning.train"),
    ("inference", "predict_subset", "inference.predict_subset"),
    ("cli", "predict_subset", "inference.predict_subset"),
    ("harness", "predict_subset", "inference.predict_subset"),
    ("inference", "map_exhaustive", "inference.map_exhaustive"),
    ("inference", "mbr_decode", "inference.mbr_decode"),
    ("inference", "sample_dpp", "inference.sample_dpp"),
    ("inference", "consensus_scores", "inference.consensus_scores"),
    ("harness", "evaluate_params", "harness.evaluate_params"),
    ("serialize", "read_instances", "serialize.read_instances"),
    ("serialize", "write_instances", "serialize.write_instances"),
    ("serialize", "read_train_result", "serialize.read_train_result"),
    ("serialize", "write_train_result", "serialize.write_train_result"),
    ("serialize", "read_predictions", "serialize.read_predictions"),
    ("serialize", "write_predictions", "serialize.write_predictions"),
)

# cli dispatches through its _COMMANDS dict, which holds the handlers by value.
_CLI_COMMANDS = ("gen", "train", "infer", "eval")

# numpy.linalg calls counted only while a batch.* span is open.
_LINALG = (("eigh", "batch.eigh"), ("slogdet", "batch.slogdet"))

_SERIALIZE_WRITERS = ("serialize.write_instances", "serialize.write_train_result",
                      "serialize.write_predictions")


class Tracer:
    """In-memory span recorder; spans are lists [name, start, end, parent]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.origin = clock()
        self.spans = []
        self.counts = {}
        self._stack = []
        self._batch_depth = 0
        self._undo = []

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock() - self.origin
        return rec

    def _close(self, rec):
        rec[2] = self.clock() - self.origin
        self._stack.pop()

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a
        wrapper that records a span ``name``.

        ``after(tracer, args, result)`` runs once the call returns, to
        record counts taken from the arguments or the result.
        """
        fn = _get(owner, attr)
        is_batch = name.startswith("batch.")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._open(name)
            tracer._batch_depth += is_batch
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._batch_depth -= is_batch
                tracer._close(rec)
            if after is not None:
                after(tracer, args, result)
            return result

        _set(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def _wrap_linalg(self, linalg, attr, name):
        fn = getattr(linalg, attr)
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if not tracer._batch_depth:
                return fn(a, *args, **kwargs)
            rec = tracer._open(name)
            try:
                return fn(a, *args, **kwargs)
            finally:
                tracer._close(rec)
                matrices = 1
                for dim in a.shape[:-2]:
                    matrices *= dim
                tracer.count(name + ".matrices", matrices)

        setattr(linalg, attr, wrapper)
        self._undo.append((linalg, attr, fn))

    def install(self):
        """Wrap every binding listed above in the imported dpplearn."""
        import importlib

        import numpy as np

        modules = {m: importlib.import_module("dpplearn." + m)
                   for m in {b[0] for b in _BINDINGS}}
        after = {
            "batch.hinge_terms": _after_hinge_terms,
            "batch.map_exhaustive_stack": _after_map_stack,
            "learning.train": _after_train,
        }
        for writer in _SERIALIZE_WRITERS:
            after[writer] = _after_write
        for module, attr, name in _BINDINGS:
            self.wrap(modules[module], attr, name, after.get(name))
        commands = modules["cli"]._COMMANDS
        for cmd in _CLI_COMMANDS:
            self.wrap(commands, cmd, "cli." + cmd)
        for attr, name in _LINALG:
            self._wrap_linalg(np.linalg, attr, name)

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            _set(owner, attr, fn)
        self._undo.clear()


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _after_hinge_terms(tracer, args, result):
    n = args[0].n
    tracer.count("batch.hinge_terms.instances", n)
    tracer.count("batch.hinge_terms.nonsingular", n - result[3])


def _after_map_stack(tracer, args, result):
    tracer.count("batch.map_exhaustive_stack.kernels", len(result))


def _after_train(tracer, args, result):
    tracer.count("learning.train.iterations", result.iterations_used)


def _after_write(tracer, args, result):
    tracer.count("serialize.bytes_written", os.path.getsize(args[0]))


def span_totals(spans):
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly, since the program is single-threaded.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals = {}
    for i, (name, start, end, _) in enumerate(spans):
        calls, incl, self_s = totals.get(name, (0, 0.0, 0.0))
        totals[name] = (calls + 1, incl + end - start,
                        self_s + end - start - child[i])
    return totals


def layer_metrics(totals, counts, names):
    """Per-layer metrics by name, from one traced job.

    A name ``<span>.calls``, ``<span>.s`` or ``<span>.self_s`` reads the
    span totals; any other name reads the count recorded under it, except
    ``batch.hinge_terms.nonsingular_ratio``, a ratio of two counts.
    ``trace.overhead_s`` compares two jobs and is left to the caller.
    """
    out = {}
    for metric in names:
        span, _, kind = metric.rpartition(".")
        calls, incl, self_s = totals.get(span, (0, 0.0, 0.0))
        value = {"calls": calls, "s": incl, "self_s": self_s}.get(kind)
        out[metric] = float(counts.get(metric, 0) if value is None else value)
    evaluated = counts.get("batch.hinge_terms.instances", 0)
    out["batch.hinge_terms.nonsingular_ratio"] = (
        counts.get("batch.hinge_terms.nonsingular", 0) / evaluated if evaluated else 1.0)
    out.pop("trace.overhead_s", None)
    return out
