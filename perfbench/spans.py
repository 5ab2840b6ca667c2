"""Outside-in spans around semaffine's layers.

Nothing under ``src/`` knows about tracing. :func:`instrument` swaps
wrappers into the module namespaces through which each layer is called
(``semaffine.model`` for the model's stages, ``semaffine.train`` for the
training and evaluation loops, ``semaffine.tensor`` for ``backward``,
``semaffine.verify`` for the gradient checks) and puts the originals back
on exit.

A span records its name, start, end, parent span, the id of the scene (or
other operation) it belongs to, and the number of tape nodes created while
it was open. Node counts are deltas of ``Tensor.node_id``, read from the
tensor module's id counter without consuming an id. Spans stay in memory
until :meth:`Tracer.write`.

Model stages are named after the parameter prefixes (``enc<i>``,
``pos_mlp``, ``token_encoder.block<b>``, ``query_decoder.block<b>``,
``mask_head``, ``affine_heads.<i>``, ``mid<level>``, ``site0``) and found by
identity: a wrapped call whose parameter record belongs to a registered
model opens a span with that record's stage name. Work inside
``model_forward`` that no wrapped call covers is its self time, reported as
``stage.unattributed``.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import asdict, dataclass

import semaffine.model as model_mod
import semaffine.tensor as tensor_mod
import semaffine.train as train_mod
import semaffine.verify as verify_mod


@dataclass(slots=True)
class Span:
    name: str
    start: float  # perf_counter seconds
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    scene: int  # operation id; one per model forward in the model workloads
    nodes: int  # tape nodes created while open


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0  # minus the time covered by child spans
    nodes: int = 0
    self_nodes: int = 0


def _next_node_id() -> int:
    """The id the next Tensor will get, read without consuming it.

    ``tensor._NODE_IDS`` is an ``itertools.count``, whose repr is
    ``count(<next value>)``."""
    return int(repr(tensor_mod._NODE_IDS)[len("count("):-1])


class Off:
    """The tracer used for untraced runs: spans and counts cost a call."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, name: str, n: float = 1) -> None:
        pass

    def register_model(self, params) -> None:
        pass


OFF = Off()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.scene = 0
        self.origin = time.perf_counter()
        self._open: list[int] = []
        self.stages: dict[int, str] = {}  # id(parameter record) -> stage name
        self.tags: dict[int, str] = {}  # node_id of a stage's output -> stage name

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = Span(name, time.perf_counter(), 0.0,
                      self._open[-1] if self._open else -1, self.scene, _next_node_id())
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            self._open.pop()
            record.end = time.perf_counter()
            record.nodes = _next_node_id() - record.nodes

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def register_model(self, params) -> None:
        """Map each parameter record of ``params`` to its stage name."""
        cfg = params.cfg
        stages = {}
        for level, layers in enumerate(params.enc_mlps):
            stages[id(layers)] = f"enc{level}"
        stages[id(params.pos_mlp)] = "pos_mlp"
        for b, block in enumerate(params.token_encoder):
            stages[id(block)] = f"token_encoder.block{b}"
        for b, block in enumerate(params.query_decoder):
            stages[id(block)] = f"query_decoder.block{b}"
        stages[id(params.mask_head)] = "mask_head"
        for i, level in enumerate(cfg.mid_levels, start=1):
            stages[id(params.scale_heads[i])] = f"affine_heads.{i}"
            stages[id(params.down_proj[i])] = f"mid{level}"
        for level, site in params.sites.items():
            name = f"mid{level}" if level else "site0"
            stages[id(site.mask_proj)] = name
            stages[id(site.fc)] = name
        self.stages = stages

    def totals(self) -> dict[str, Totals]:
        child_seconds = [0.0] * len(self.spans)
        child_nodes = [0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child_seconds[s.parent] += s.end - s.start
                child_nodes[s.parent] += s.nodes
        out: dict[str, Totals] = {}
        for i, s in enumerate(self.spans):
            t = out.setdefault(s.name, Totals())
            t.calls += 1
            t.seconds += s.end - s.start
            t.self_seconds += s.end - s.start - child_seconds[i]
            t.nodes += s.nodes
            t.self_nodes += s.nodes - child_nodes[i]
        return out

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the tracer's creation."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                row = asdict(s)
                row["start"] -= self.origin
                row["end"] -= self.origin
                fh.write(json.dumps(row) + "\n")


def _tape_size(root) -> tuple[int, int]:
    """(nodes, leaves) that ``backward(root)`` visits: the grad-requiring
    nodes reachable from ``root`` through grad-requiring parents."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if p.requires_grad and id(p) not in seen:
                seen[id(p)] = p
                stack.append(p)
    return len(seen), sum(1 for t in seen.values() if t.op == "leaf")


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route semaffine's layer calls through ``tracer`` until exit."""
    saved = []

    def patch(module, name, make):
        original = getattr(module, name)
        saved.append((module, name, original))
        setattr(module, name, make(original))

    def spanned(name, before=None, after=None):
        def make(fn):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before()
                with tracer.span(name):
                    out = fn(*args, **kwargs)
                if after is not None:
                    after(args, out)
                return out
            return wrapper
        return make

    def staged(stage_of, tag=None):
        """Span named by ``stage_of(args)``; no span when it gives None."""
        def make(fn):
            def wrapper(*args, **kwargs):
                stage = stage_of(args) if tracer.stages else None
                if stage is None:
                    return fn(*args, **kwargs)
                with tracer.span(stage):
                    out = fn(*args, **kwargs)
                if tag is not None:
                    tracer.tags[tag(out).node_id] = stage
                return out
            return wrapper
        return make

    def by_record(args):
        return tracer.stages.get(id(args[0]))

    def start_forward():
        tracer.scene += 1
        tracer.tags.clear()

    def first_loss_graph(args, loss):
        if "tensor.tape_nodes" not in tracer.counts:
            nodes, leaves = _tape_size(loss)
            tracer.count("tensor.tape_nodes", nodes)
            tracer.count("tensor.tape_leaves", leaves)

    def hierarchy_sizes(args, hier):
        tracer.count("hierarchy.builds")
        for level, size in enumerate(hier.sizes):
            tracer.count(f"hierarchy.level{level}.points", size)

    def counted_forwards(fn):
        def wrapper(f, *args, **kwargs):
            def counted():
                tracer.count("gradcheck.forward_calls")
                return f()
            return fn(counted, *args, **kwargs)
        return wrapper

    M = model_mod
    patch(M, "mlp_forward", staged(by_record))
    patch(M, "pool_features", staged(lambda a: f"enc{a[1] + 1}"))
    patch(M, "encoder_block", staged(by_record))
    patch(M, "decoder_block", staged(by_record))
    patch(M, "predict_masks", staged(lambda a: tracer.stages.get(id(a[1]))))
    patch(M, "predict_affine_params", staged(lambda a: tracer.stages.get(id(a[1]))))
    # site projections and down projections; their outputs tag the confidences
    patch(M, "linear_forward", staged(by_record, tag=lambda out: out))
    patch(M, "mask_confidences", staged(lambda a: tracer.tags.get(a[1].node_id), tag=lambda c: c.probs))
    patch(M, "confidences_from_logits", staged(lambda a: tracer.tags.get(a[0].node_id), tag=lambda c: c.probs))
    patch(M, "semantic_affine_transform", staged(lambda a: tracer.tags.get(a[1].probs.node_id)))
    patch(M, "unpool_features", staged(lambda a: f"mid{a[1] + 1}"))

    patch(train_mod, "model_forward", spanned("model.forward", before=start_forward))
    patch(train_mod, "total_loss", spanned("loss", after=first_loss_graph))
    patch(train_mod, "sgd_step", spanned("harness.sgd_step"))
    patch(train_mod, "build_model",
          spanned("model.build", after=lambda args, params: tracer.register_model(params)))
    patch(train_mod, "build_hierarchy", spanned("hierarchy.build", after=hierarchy_sizes))
    patch(train_mod, "shadow_labels", spanned("hierarchy.shadow"))
    patch(train_mod, "read_scene", spanned("scenes.read"))
    patch(tensor_mod, "backward",
          spanned("tensor.backward", before=lambda: tracer.count("tensor.backward_calls")))
    patch(verify_mod, "finite_diff_check", counted_forwards)

    try:
        yield tracer
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)
