"""Outside-in tracing: spans around the library's public functions.

Each function is replaced where its caller looks it up (``model`` imports
``multi_hop_conv`` by name, so the span goes on ``flowcast.model``), so
no file under ``src/`` changes. A span records its name, start, end and
the span that was open when it started; spans stay in memory until the
run writes them out. Self time is a span's duration minus the time its
direct children cover.
"""

from __future__ import annotations

import gc
import json
import time
from collections import Counter, defaultdict

# (module, attribute, span name). A missing attribute raises when the
# tracer is installed, so a refactor that drops a lookup site fails the
# traced run instead of reading as zero.
SITES = (
    ("flowcast.data", "load_dataset", "data.load"),
    ("flowcast.data", "load_readings", "data.load"),
    ("flowcast.data", "make_windows", "data.make_windows"),
    ("flowcast.model", "make_windows", "data.make_windows"),
    ("flowcast.model", "metrics", "data.metrics"),
    ("flowcast.context", "node2vec_walks", "context.node2vec_walks"),
    ("flowcast.context", "skipgram_train", "context.skipgram_train"),
    ("flowcast.model", "gru_sequence", "context.gru_sequence"),
    ("flowcast.model", "gru_cell", "context.gru_cell"),
    ("flowcast.model", "multi_hop_conv", "graph.multi_hop_conv"),
    ("flowcast.model", "multi_head_attention", "attention.multi_head_attention"),
    ("flowcast.model", "context_block", "model.context_block"),
    ("flowcast.model", "transform_layer", "model.transform_layer"),
    ("flowcast.model", "forward_batch", "model.forward"),
    ("flowcast.model", "evaluate", "model.evaluate"),
    ("flowcast.model", "adam_step", "optim.adam_step"),
    ("flowcast.model", "save_model", "checkpoint.save"),
    ("flowcast.model", "load_model", "checkpoint.load"),
    ("flowcast.tensor", "backward", "tensor.backward"),
)
# (module, class, class method, span name). The method is read bound to
# its class and set back as a static method, so callers see no change.
METHOD_SITES = (
    ("flowcast.model", "GraphInputs", "build", "graph.build"),
)


class Tracer:
    """Span recorder plus cyclic-GC pause accounting for one run."""

    def __init__(self, workload_id: str):
        self.workload_id = workload_id
        self.spans: list[list] = []        # [name, start, end, parent index]
        self._open: list[int] = []
        self.samples = 0                   # samples through forward_batch
        self.graph_nodes_per_sample = 0.0  # of the first loss backpropagated
        self.gc_collections = 0
        self.gc_pause_s = 0.0
        self._gc_started = 0.0

    def _wrap(self, fn, name, before=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1])
            open_.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[idx][2] = clock()

        return traced

    def _count_forward(self, args):
        self.samples += args[4].shape[0]      # forward_batch(cfg, params, gin, emb, xs, t0s)

    def _count_graph(self, args):
        # Every full-batch step builds the same graph, so the first one is
        # counted; walking it each step cost 7% of a traced toy run.
        if self.graph_nodes_per_sample:
            return
        seen: set[int] = set()
        stack = [args[0]]
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                stack.extend(parent for parent, _ in node.parents)
        # No sample has been predicted yet, so these are the first batch's.
        self.graph_nodes_per_sample = len(seen) / self.samples

    def _on_gc(self, phase, info):
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def install(self) -> None:
        import importlib

        hooks = {"model.forward": self._count_forward, "tensor.backward": self._count_graph}
        for module, attr, name in SITES:
            mod = importlib.import_module(module)
            setattr(mod, attr, self._wrap(getattr(mod, attr), name, hooks.get(name)))
        for module, cls_name, attr, name in METHOD_SITES:
            cls = getattr(importlib.import_module(module), cls_name)
            setattr(cls, attr, staticmethod(self._wrap(getattr(cls, attr), name)))
        gc.callbacks.append(self._on_gc)

    def uninstall_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def summary(self) -> dict:
        """Per span name: calls, outermost calls and total self seconds."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        outer: Counter = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - covered[i]
            calls[name] += 1
            if parent < 0 or self.spans[parent][0] != name:
                outer[name] += 1
        return {
            name: {"calls": calls[name], "outer_calls": outer[name], "self_s": self_s[name]}
            for name in sorted(self_s)
        }

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "workload": self.workload_id, "name": name,
                    "start": start, "end": end, "parent": parent,
                }) + "\n")
