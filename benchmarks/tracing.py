"""Span tracing of polarsim's layers, installed from outside the package.

The tracer replaces module attributes (functions, and methods of
`sc._PairBank`) with wrappers that record one span per call: name, start,
end and the index of the enclosing span. Counters that the layer-to-cost
checks need (additions, bytes moved) are computed in the wrappers from the
arrays that cross the boundary, or observed while the call runs through an
argument the program offers for it (`Observer`). A hook whose target or
argument no longer exists is reported as missing and skipped; tracing never
raises on its own account.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from dataclasses import dataclass

# A wrapper's counter callback receives (counts, args, result) and adds to
# `counts`, a dict of counter name -> number.


def _add(counts, key, value):
    counts[key] = counts.get(key, 0) + value


def _symbol_table_count(counts, args, out):
    _add(counts, "sc.symbol_tables.tables", math.prod(args[0].shape[:-2]))


def _combine_additions(counts, args, out):
    # one addition per entry of the combined table
    _add(counts, "sc.channel_combine.additions", out.size)


def _gather_counts(counts, args, out):
    bank = args[0]
    _add(counts, "sc.gather_paths.bytes",
         sum(a.nbytes for a in bank.up) + sum(a.nbytes for a in bank.ev))


@dataclass(frozen=True)
class Observer:
    """A hook callback that passes the call a keyword argument, `param`,
    made by `make(counts, value the caller passed or None)`, instead of
    counting after the call. `name` is reported as missing when the wrapped
    function has no such parameter."""

    name: str
    param: str
    make: object


def _history_copies(counts, inner):
    """A list decoder `trace_hook` that counts path-history copies.

    The decoder passes the hook its history array after every step. When a
    step's array lives in another buffer than the previous step's, the step
    copied the history, and the new array's size is added. The array of the
    first step is taken as the initial one. The previous array is kept
    referenced, so a new one cannot reuse its buffer.
    """
    last = []

    def hook(j, alpha, hist, pm):
        data = hist.__array_interface__["data"][0]
        if last and last[1] != data:
            _add(counts, "scl.hist.bytes_copied", hist.nbytes)
        last[:] = [hist, data]
        if inner is not None:
            inner(j, alpha, hist, pm)
    return hook


HISTORY = Observer("scl.hist", "trace_hook", _history_copies)


# (span name, module, attribute path inside the module, counter, Observer
# or None).
# The same span name may wrap several targets: a function imported by name
# into another module is a separate attribute there.
HOOKS = (
    ("construction.construct_code", "polarsim.sim", "construct_code", None),
    ("construction.partition_symbols", "polarsim.sim", "partition_symbols", None),
    ("construction.partition_symbols", "polarsim.construction",
     "partition_symbols", None),
    ("sim.run_point", "polarsim.sim", "run_point", None),
    ("codec.scatter_info_batch", "polarsim.sim", "scatter_info_batch", None),
    ("codec.attach_crc", "polarsim.sim", "attach_crc", None),
    ("codec.encode_bits", "polarsim.sim", "encode_bits", None),
    ("channel.modulate", "polarsim.sim", "modulate", None),
    ("channel.initial_metrics", "polarsim.sim", "initial_metrics", None),
    ("sc.decode", "polarsim.sim", "sc_decode_batch", None),
    ("sc.decode", "polarsim.sc", "sc_decode_batch", None),
    ("sc.decode", "polarsim.sim", "symbol_sc_decode_batch", None),
    ("sc.decode", "polarsim.sc", "symbol_sc_decode_batch", None),
    ("scl.decode", "polarsim.sim", "scl_decode_batch", HISTORY),
    ("scl.decode", "polarsim.scl", "scl_decode_batch", HISTORY),
    ("scl.decode", "polarsim.sim", "symbol_scl_decode_batch", HISTORY),
    ("scl.decode", "polarsim.scl", "symbol_scl_decode_batch", HISTORY),
    ("cascl.decode", "polarsim.sim", "ca_scl_decode_batch", None),
    ("cascl.decode", "polarsim.scl", "ca_scl_decode_batch", None),
    ("sc.refresh", "polarsim.sc", "_PairBank.refresh", None),
    ("sc.feed", "polarsim.sc", "_PairBank.feed", None),
    ("sc.take_static", "polarsim.sc", "_PairBank.take_static", None),
    ("sc.gather_paths", "polarsim.sc", "_PairBank.gather_paths", _gather_counts),
    ("sc.symbol_tables", "polarsim.sc", "_symbol_tables", _symbol_table_count),
    ("sc.symbol_tables", "polarsim.scl", "_symbol_tables", _symbol_table_count),
    ("sc.channel_combine", "polarsim.sc", "channel_combine", _combine_additions),
    ("pruning.full_select", "polarsim.scl", "full_select", None),
    ("pruning.two_stage_select", "polarsim.scl", "two_stage_select", None),
    ("codec.verify_crc", "polarsim.scl", "verify_crc", None),
)


class Tracer:
    """Spans and counters of one traced run, grouped by phase.

    `phase` names the part of the run being traced (setup, batched campaign,
    single-frame calls); spans and counters land under the current phase.
    """

    def __init__(self):
        self.phase = "setup"
        self.spans = {}    # phase -> list of (name, start, end, parent)
        self.counts = {}   # phase -> {counter name: value}
        self._stack = []
        self.missing = []  # (span name, "module:attribute") of absent hooks

    def wrap(self, name, fn, counter=None):
        tracer = self
        observer = counter if isinstance(counter, Observer) else None
        if observer is not None:
            counter = None
            signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.arguments[observer.param] = observer.make(
                    tracer.counts.setdefault(tracer.phase, {}),
                    bound.arguments.get(observer.param))
                args, kwargs = bound.args, bound.kwargs
            spans = tracer.spans.setdefault(tracer.phase, [])
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(spans)
            spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                spans[index] = (name, start, end, parent)
            if counter is not None:
                counter(tracer.counts.setdefault(tracer.phase, {}), args, out)
            return out
        return traced

    def install(self, hooks=HOOKS):
        """Wrap every hook target that exists; return an undo list."""
        undo = []
        for name, module_name, path, counter in hooks:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            try:
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append((name, f"{module_name}:{path}"))
                continue
            if (isinstance(counter, Observer) and counter.param
                    not in inspect.signature(original).parameters):
                self.missing.append(
                    (counter.name, f"{module_name}:{path}({counter.param})"))
                counter = None
            setattr(owner, attr, self.wrap(name, original, counter))
            undo.append((owner, attr, original))
        return undo

    @staticmethod
    def uninstall(undo):
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def summary(self, phase):
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, which lie inside it.
        """
        spans = self.spans.get(phase, [])
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        table = {}
        for i, (name, start, end, parent) in enumerate(spans):
            row = table.setdefault(name, {"calls": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return table

    def children_per_span(self, phase, parent_name, child_names):
        """For each span called `parent_name`, the number of direct children
        whose name is in `child_names`."""
        spans = self.spans.get(phase, [])
        found = {i: 0 for i, s in enumerate(spans) if s[0] == parent_name}
        for name, start, end, parent in spans:
            if parent in found and name in child_names:
                found[parent] += 1
        return list(found.values())
