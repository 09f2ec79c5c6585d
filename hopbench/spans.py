"""In-memory spans around hoptrace's public functions, for the traced run.

Each wrapper is installed at the module attribute its caller resolves:
``model`` imports ``encode_question_batch`` by name, so that copy is wrapped
in ``hoptrace.model``; ``training`` imports ``forward_batch`` by name, so it
is wrapped in ``hoptrace.training``; ``model`` calls ``kernels.push_*``
through the module, so those are wrapped in ``hoptrace.kernels``.  Nothing
under ``src/`` is edited.

A span is (name, start, end, parent, unit).  The unit is the round the span
belongs to, so per-layer figures can be taken per round.  A layer's self
time is its span time minus the time its direct child spans cover.

This module imports nothing from numpy or hoptrace at import time: the
traced ``answer`` subprocess imports it before timing ``import hoptrace.cli``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


def _edge_rows(tracer, name, args, out):
    """Work done by a transfer kernel: batch rows x edges (1 row if 1-D),
    read off the size of its per-edge weight array."""
    if name == "kernels.col_scatter_add":
        weights = args[1]
    elif "max" in name:
        weights = args[3]
    else:
        weights = args[2]
    tracer.count("kernels.edge_rows", weights.size)


def _selected(tracer, name, args, out):
    tracer.count("graph.select_calls", 1)
    tracer.count("graph.selected_relations", len(out[0]))


def _calls(counter):
    def hook(tracer, name, args, out):
        tracer.count(counter, 1)

    return hook


def _tape_nodes(tracer, args):
    """Nodes reachable from the loss, walked before the backward span opens."""
    seen = set()
    stack = [args[0]]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    tracer.sample("autodiff.tape_nodes", len(seen))


# (module, attribute path, span name, hook after the call, hook before the span)
TARGETS = [
    ("hoptrace.data", "generate_synthetic", "data.generate", None, None),
    ("hoptrace.graph", "load_triples_tsv", "graph.build", None, None),
    ("hoptrace.graph", "load_corpus_jsonl", "graph.build", None, None),
    ("hoptrace.graph", "build_from_triples", "graph.build", None, None),
    ("hoptrace.graph", "build_from_text_corpus", "graph.build", None, None),
    ("hoptrace.graph", "add_reverse_relations", "graph.build", None, None),
    ("hoptrace.graph", "RelationGraph.save", "graph.save", None, None),
    ("hoptrace.graph", "RelationGraph.load", "graph.load", None, None),
    ("hoptrace.graph", "RelationGraph.select_text_relation_ids", "graph.select", _selected, None),
    ("hoptrace.model", "encode_question_batch", "encoder.question", _calls("encoder.question_calls"), None),
    ("hoptrace.model", "encode_question", "encoder.question", _calls("encoder.question_calls"), None),
    ("hoptrace.encoder", "encode_relation_batch", "encoder.relation_table",
     _calls("encoder.relation_table_builds"), None),
    ("hoptrace.training", "forward_batch", "model.forward", None, None),
    ("hoptrace.model", "forward", "model.forward", None, None),
    ("hoptrace.cli", "forward", "model.forward", None, None),
    ("hoptrace.model", "text_relation_scores", "model.text_scores", _calls("model.text_scores_calls"), None),
    ("hoptrace.model", "rank_answers", "model.rank_answers", None, None),
    ("hoptrace.training", "rank_answers", "model.rank_answers", None, None),
    ("hoptrace.cli", "rank_answers", "model.rank_answers", None, None),
    ("hoptrace.kernels", "push_forward", "kernels.push_forward", _edge_rows, None),
    ("hoptrace.kernels", "push_backward", "kernels.push_backward", _edge_rows, None),
    ("hoptrace.kernels", "push_batch_forward", "kernels.push_batch_forward", _edge_rows, None),
    ("hoptrace.kernels", "push_batch_backward", "kernels.push_batch_backward", _edge_rows, None),
    ("hoptrace.kernels", "push_max_forward", "kernels.push_max_forward", _edge_rows, None),
    ("hoptrace.kernels", "push_max_backward", "kernels.push_max_backward", _edge_rows, None),
    ("hoptrace.kernels", "col_scatter_add", "kernels.col_scatter_add", _edge_rows, None),
    ("hoptrace.autodiff", "Tensor.backward", "autodiff.backward", None, _tape_nodes),
    ("hoptrace.training", "compute_loss", "training.loss", None, None),
    ("hoptrace.training", "RAdam.step", "training.optimizer", None, None),
    ("hoptrace.training", "evaluate", "training.evaluate", None, None),
    ("hoptrace.training", "save_checkpoint", "training.checkpoint_save", None, None),
    ("hoptrace.training", "load_checkpoint", "training.checkpoint_load", None, None),
    ("hoptrace.cli", "load_checkpoint", "training.checkpoint_load", None, None),
    ("hoptrace.trace", "ReasoningTrace.save_json", "trace.save_json", None, None),
]

# span names reported as per-layer times; "autodiff.backward" also gets a self time
SPAN_NAMES = sorted({t[2] for t in TARGETS} | {"cli.import"})
COUNT_NAMES = [
    "graph.select_calls",
    "graph.selected_relations",
    "encoder.question_calls",
    "encoder.relation_table_builds",
    "model.text_scores_calls",
    "kernels.edge_rows",
]


class Tracer:
    """Spans and counts in memory, grouped by unit (one round)."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, unit]
        self._open: list[int] = []
        self.unit = None
        self.counts: dict = defaultdict(float)  # (unit, name) -> total
        self.samples: dict = defaultdict(list)  # name -> per-call values
        self.external: dict = defaultdict(float)  # (unit, name) -> seconds from a subprocess

    def count(self, name, value):
        self.counts[(self.unit, name)] += value

    def sample(self, name, value):
        self.samples[name].append(value)

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.unit])
        idx = len(self.spans) - 1
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, after=None, before=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args)
            with self.span(name):
                out = fn(*args, **kwargs)
            if after is not None:
                after(self, name, args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit."""
        saved = []
        try:
            for module, path, name, after, before in TARGETS:
                owner = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, after, before))
                else:
                    wrapped = self.wrap(name, raw, after, before)
                saved.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    # -- aggregation -------------------------------------------------------

    def unit_totals(self) -> dict:
        """(unit, name) -> seconds in spans of that name (no wrapped function
        calls another of the same name), plus (unit, "autodiff.backward_self")
        for the backward walk's self time."""
        totals: dict = defaultdict(float)
        child_time: dict = defaultdict(float)
        for name, start, end, parent, unit in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        for idx, (name, start, end, parent, unit) in enumerate(self.spans):
            totals[(unit, name)] += end - start
            if name == "autodiff.backward":
                totals[(unit, "autodiff.backward_self")] += end - start - child_time[idx]
        for key, value in self.external.items():
            totals[key] += value
        return totals

    def summary(self, scales: dict) -> dict:
        """Per-layer figures: for each span name and count, the median over
        the units in which it ran (0 where it never ran).  Times in a unit
        are multiplied by scales[unit]."""
        by_name: dict = defaultdict(list)
        for (unit, name), value in self.unit_totals().items():
            by_name[name + "_s"].append(value * scales[unit])
        for (unit, name), value in self.counts.items():
            by_name[name].append(value)
        out = {}
        for name in [n + "_s" for n in SPAN_NAMES] + ["autodiff.backward_self_s"] + COUNT_NAMES:
            values = [v for v in by_name.get(name, []) if v > 0]
            out[name] = statistics.median(values) if values else 0.0
        nodes = self.samples.get("autodiff.tape_nodes")
        out["autodiff.tape_nodes"] = statistics.median(nodes) if nodes else 0.0
        return out

    def export(self) -> dict:
        """Per-name totals of this process, for a parent to merge."""
        totals: dict = defaultdict(float)
        for (unit, name), value in self.unit_totals().items():
            totals[name] += value
        counts: dict = defaultdict(float)
        for (unit, name), value in self.counts.items():
            counts[name] += value
        return {"seconds": dict(totals), "counts": dict(counts), "samples": dict(self.samples)}

    def merge(self, exported: dict):
        """Add a subprocess's export to the current unit."""
        for name, value in exported["seconds"].items():
            self.external[(self.unit, name)] += value
        for name, value in exported["counts"].items():
            self.counts[(self.unit, name)] += value
        for name, values in exported["samples"].items():
            self.samples[name].extend(values)
