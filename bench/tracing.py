"""Span tracer for the traced benchmark run.

The tracer measures maskgram from outside: `installed()` rebinds the package's
functions and methods to timing wrappers and puts every original back on exit.
Nothing under `src/` changes.

- `ad.*` calls and the Tensor operators look up `maskgram.autodiff` globals at
  call time, so rebinding the module attribute covers them. Each op output's
  `_backward` is replaced by a timed closure, which gives the VJP time.
- A name bound with `from ... import` lives in every importing module, so a
  function is rebound in every `maskgram` module that holds it.
- Model parts come from `_encode`, `_seq2seq_block`/`_adaln_block`, and `_lin`
  called with a `head.*` name.

Spans record name, start, end, parent span and operation id, and stay in
memory until the run ends. A span's self time is its duration minus that of
its children. Counts (graph nodes, computed matmul flop and bytes, file bytes,
sampler rows) are recorded beside the spans.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# autodiff function name -> op label; every other op is reported as "other"
AUTODIFF_OPS = {
    "matmul": "matmul", "add": "add", "mul": "mul", "softmax": "softmax",
    "log_softmax": "log_softmax", "layer_norm": "layer_norm", "gelu": "gelu",
    "embedding": "embedding", "concat": "concat", "_getitem": "getitem",
    "reshape": "reshape", "swapaxes": "swapaxes",
    "take_along_last": "take_along_last", "index_select": "index_select",
}
AUTODIFF_OTHER = (
    "sub", "div", "pow_const", "sqrt", "exp", "log", "tanh", "transpose",
    "broadcast_to", "tsum", "tmean", "where",
)
OP_LABELS = tuple(AUTODIFF_OPS.values())

# plain functions wrapped as one span each: (module, function, span name)
FUNCTION_SPANS = (
    ("train", "train_model", "train.train_model"),
    ("train", "compute_losses", "train.losses"),
    ("train", "masked_token_accuracy", "train.accuracy"),
    ("scheduler", "draw_train_mask", "scheduler.draw_train_mask"),
    ("sampler", "sample_step", "sampler.step"),
    ("sampler", "_model_logits", "sampler.forward"),
    ("sampler", "guided_logits", "sampler.guide"),
    ("sampler", "_log_softmax", "sampler.softmax"),
    ("sampler", "_multinomial", "sampler.multinomial"),
    ("sampler", "confidence", "sampler.confidence"),
    ("selector", "train_scav", "selector.train_scav"),
    ("selector", "select_best", "selector.select_best"),
    ("selector", "_encode", "selector.encode"),
    ("metrics", "mfcc_like_frontend", "metrics.mfcc"),
    ("metrics", "frechet_from_sets", "metrics.frechet"),
    ("metrics", "novelty_score", "metrics.novelty"),
    ("synthetic", "gen_dataset", "synthetic.gen_dataset"),
    ("synthetic", "load_dataset", "synthetic.load_dataset"),
    ("model", "save_checkpoint", "model.checkpoint_save"),
    ("model", "load_checkpoint", "model.checkpoint_load"),
    ("cli", "main", "cli.main"),
    ("cli", "_eval_codegram_dirs", "cli.eval"),
)
# file writers and readers: (module, function, span name, path argument, byte counter)
IO_SPANS = (
    ("codegram", "save_codegram", "codegram.save", 1, "codegram.bytes"),
    ("codegram", "load_codegram", "codegram.load", 0, "codegram.bytes"),
    ("features", "save_features", "features.save", 0, "features.bytes"),
    ("features", "load_features", "features.load", 0, "features.bytes"),
)
MODEL_PARTS = ("model.encode", "model.decoder", "model.head")
CLI_STAGES = ("data", "train", "scav", "sample", "select", "eval")


def matmul_cost(a_shape, b_shape) -> tuple[int, int]:
    """Computed flop and bytes of one float64 `a @ b` from the operand shapes.

    flop = 2*m*k*n per broadcast batch entry; bytes = 8 * (|a| + |b| + |out|),
    each operand read once and the output written once (caches ignored).
    """
    *a_batch, m, k = a_shape
    *b_batch, _, n = b_shape
    batch = math.prod(np.broadcast_shapes(tuple(a_batch), tuple(b_batch)))
    flop = 2 * batch * m * k * n
    nbytes = 8 * (math.prod(a_shape) + math.prod(b_shape) + batch * m * n)
    return flop, nbytes


class Tracer:
    """In-memory spans and counts; `op` is the id of the current operation."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, name, start, end, parent id, op id)
        self.counts: list[tuple] = []  # (name, value, op id)
        self.op = 0
        self.op_base = 0   # operations of earlier traced chunks, so op ids stay unique
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.op))

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def count(self, name: str, value=1) -> None:
        self.counts.append((name, value, self.op))


class Rebinder:
    """Attribute replacements that `restore()` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def everywhere(self, original, replacement) -> None:
        """Rebind `original` in every loaded maskgram module that holds it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "maskgram" or name.startswith("maskgram.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _op_wrapper(tracer: Tracer, label: str, fn):
    fwd, vjp = f"autodiff.{label}.fwd", f"autodiff.{label}.vjp"

    def wrapper(*args, **kwargs):
        out = tracer.call(fwd, fn, args, kwargs)
        if out._backward is not None:
            tracer.count("autodiff.nodes")
            out._backward = tracer.wrap(vjp, out._backward)
        return out

    return wrapper


def _matmul_wrapper(tracer: Tracer, fn):
    def wrapper(a, b):
        out = tracer.call("autodiff.matmul.fwd", fn, (a, b), {})
        flop, nbytes = matmul_cost(a.shape, b.shape)
        tracer.count("autodiff.matmul.flop", flop)
        tracer.count("autodiff.matmul.bytes", nbytes)
        backward = out._backward
        if backward is not None:
            tracer.count("autodiff.nodes")
            # one forward-sized GEMM per operand that receives a gradient
            grads = sum(int(p.requires_grad) for p in out._parents)

            def timed(g):
                tracer.call("autodiff.matmul.vjp", backward, (g,), {})
                tracer.count("autodiff.matmul.flop", grads * flop)
                tracer.count("autodiff.matmul.bytes", grads * nbytes)

            out._backward = timed
        return out

    return wrapper


def _head_wrapper(tracer: Tracer, fn):
    def _lin(self, name, x):
        if name.startswith("head."):
            return tracer.call("model.head", fn, (self, name, x), {})
        return fn(self, name, x)

    return _lin


def _sample_batch_wrapper(tracer: Tracer, fn):
    def sample_batch(model, bundles, length, config, seeds=None, trace=None):
        rows = len(bundles) if bundles is not None else (1 if seeds is None else len(seeds))
        tracer.count("sampler.rows", rows)
        return tracer.call("sampler.sample_batch", fn,
                           (model, bundles, length, config, seeds, trace), {})

    return sample_batch


def _io_wrapper(tracer: Tracer, name: str, fn, path_index: int, counter: str):
    def wrapper(*args, **kwargs):
        out = tracer.call(name, fn, args, kwargs)
        path = args[path_index] if len(args) > path_index else kwargs["path"]
        tracer.count(counter, os.path.getsize(path))
        return out

    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route maskgram's layers through `tracer`; originals return on exit."""
    import importlib

    mods = {
        name: importlib.import_module(f"maskgram.{name}")
        for name in ("autodiff", "model", "train", "scheduler", "sampler", "selector",
                     "metrics", "synthetic", "codegram", "features", "cli")
    }
    ad, model = mods["autodiff"], mods["model"]
    rebinder = Rebinder()
    try:
        for fname, label in AUTODIFF_OPS.items():
            fn = getattr(ad, fname)
            wrapper = (_matmul_wrapper(tracer, fn) if fname == "matmul"
                       else _op_wrapper(tracer, label, fn))
            rebinder.everywhere(fn, wrapper)
        for fname in AUTODIFF_OTHER:
            fn = getattr(ad, fname)
            rebinder.everywhere(fn, _op_wrapper(tracer, "other", fn))
        tensor = ad.Tensor
        rebinder.set(tensor, "backward", tracer.wrap("autodiff.backward", tensor.backward))

        net = model.MaskedGridTransformer
        rebinder.set(net, "forward", tracer.wrap("model.forward", net.forward))
        rebinder.set(net, "_encode", tracer.wrap("model.encode", net._encode))
        for block in ("_seq2seq_block", "_adaln_block"):
            rebinder.set(net, block, tracer.wrap("model.decoder", getattr(net, block)))
        rebinder.set(net, "_lin", _head_wrapper(tracer, net._lin))
        adamw = mods["train"].AdamW
        rebinder.set(adamw, "step", tracer.wrap("train.optimizer", adamw.step))

        for mod, fname, span in FUNCTION_SPANS:
            fn = getattr(mods[mod], fname)
            rebinder.everywhere(fn, tracer.wrap(span, fn))
        fn = mods["sampler"].sample_batch
        rebinder.everywhere(fn, _sample_batch_wrapper(tracer, fn))
        for mod, fname, span, path_index, counter in IO_SPANS:
            fn = getattr(mods[mod], fname)
            rebinder.everywhere(fn, _io_wrapper(tracer, span, fn, path_index, counter))
        yield tracer
    finally:
        rebinder.restore()


# -- per-layer metrics -------------------------------------------------------------


def _layer_metric_table() -> tuple[tuple[str, str], ...]:
    names: list[tuple[str, str]] = []
    for label in OP_LABELS:
        names += [(f"autodiff.{label}.fwd_ms", "ms/op"),
                  (f"autodiff.{label}.vjp_ms", "ms/op"),
                  (f"autodiff.{label}.calls", "count/op")]
    names += [
        ("autodiff.other.fwd_ms", "ms/op"), ("autodiff.other.vjp_ms", "ms/op"),
        ("autodiff.backward.walk_ms", "ms/op"), ("autodiff.nodes", "count/op"),
        ("autodiff.matmul.flop", "flop/op"), ("autodiff.matmul.bytes", "B/op"),
        ("autodiff.matmul.gflops", "GFLOP/s"),
        ("model.forward_ms", "ms/op"), ("model.forward_calls", "count/op"),
        ("model.embed_ms", "ms/op"), ("model.encode_ms", "ms/op"),
        ("model.encode_calls", "count/op"), ("model.decoder_ms", "ms/op"),
        ("model.head_ms", "ms/op"), ("model.checkpoint_save_ms", "ms/op"),
        ("model.checkpoint_load_ms", "ms/op"),
        ("train.losses_ms", "ms/op"), ("train.backward_ms", "ms/op"),
        ("train.optimizer_ms", "ms/op"), ("train.accuracy_ms", "ms/op"),
        ("train.batch_ms", "ms/op"),
        ("scheduler.draw_train_mask_ms", "ms/op"),
        ("scheduler.draw_train_mask.calls", "count/op"),
        ("sampler.forward_ms", "ms/sampler_step"), ("sampler.guide_ms", "ms/sampler_step"),
        ("sampler.softmax_ms", "ms/sampler_step"), ("sampler.draw_ms", "ms/sampler_step"),
        ("sampler.remask_ms", "ms/sampler_step"),
        ("sampler.forward_passes", "1/sampler_step"),
        ("sampler.rows_per_call", "rows/call"), ("sampler.calls", "count/op"),
        ("selector.train_scav_ms", "ms/op"), ("selector.select_best_ms", "ms/op"),
        ("selector.encode_calls", "count/op"),
        ("metrics.mfcc_ms", "ms/op"), ("metrics.frechet_ms", "ms/op"),
        ("metrics.novelty_ms", "ms/op"),
        ("synthetic.gen_dataset_ms", "ms/op"), ("synthetic.load_dataset_ms", "ms/op"),
        ("codegram.save_ms", "ms/op"), ("codegram.load_ms", "ms/op"),
        ("codegram.bytes", "B/op"),
        ("features.save_ms", "ms/op"), ("features.load_ms", "ms/op"),
        ("features.bytes", "B/op"),
    ]
    names += [(f"cli.stage.{stage}_ms", "ms/op") for stage in CLI_STAGES]
    names += [("cli.sample.wait_ms", "ms/beam")]
    return tuple(names)


LAYER_METRICS = _layer_metric_table()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _SpanIndex:
    """Totals, self times and ancestry over a finished span list."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.total: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.name_of: dict[int, str] = {}
        self.parent_of: dict[int, int] = {}
        child_time: dict[int, float] = defaultdict(float)
        for span_id, name, start, end, parent, _ in spans:
            self.name_of[span_id] = name
            self.parent_of[span_id] = parent
            self.total[name] += end - start
            self.calls[name] += 1
            child_time[parent] += end - start
        for span_id, name, start, end, _, _ in spans:
            self.self_time[name] += (end - start) - child_time[span_id]

    def parent_name(self, span_id: int) -> str | None:
        return self.name_of.get(self.parent_of.get(span_id, 0))

    def total_under(self, name: str, ancestor: str) -> float:
        """Summed duration of `name` spans with an `ancestor` span above them."""
        seconds = 0.0
        for span_id, span_name, start, end, _, _ in self.spans:
            if span_name != name:
                continue
            up = self.parent_of[span_id]
            while up:
                if self.name_of.get(up) == ancestor:
                    seconds += end - start
                    break
                up = self.parent_of.get(up, 0)
        return seconds


def _embed_seconds(index: _SpanIndex) -> float:
    """Time from each forward's start to its first model-part child span."""
    first: dict[int, float] = {}
    for _, name, start, _, parent, _ in index.spans:
        if name in MODEL_PARTS and index.name_of.get(parent) == "model.forward":
            first[parent] = min(start, first.get(parent, start))
    starts = {s[0]: s[2] for s in index.spans if s[1] == "model.forward"}
    return sum(first[f] - starts[f] for f in first)


def _cli_stages(index: _SpanIndex) -> tuple[dict[str, float], float, int]:
    """Stage seconds summed over CLI invocations, plus pool wait over beams.

    A stage runs from its marker to the next marker or the invocation's end:
    data from the start, train at `train_model`, scav at `train_scav`, sample
    at the first `sample_batch`, select after the last `sample_batch` (when
    the invocation selects), eval at `_eval_codegram_dirs`.
    """
    by_op: dict[int, list[tuple]] = defaultdict(list)
    for span in index.spans:
        by_op[span[5]].append(span)
    stages: dict[str, float] = defaultdict(float)
    wait = 0.0
    beams = 0
    for spans in by_op.values():
        for _, name, start, end, _, _ in spans:
            if name != "cli.main":
                continue
            inner = [s for s in spans if start <= s[2] and s[3] <= end]
            marks = {"data": start}

            def first(span_name):
                times = [s[2] for s in inner if s[1] == span_name]
                return min(times) if times else None

            for stage, span_name in (("train", "train.train_model"),
                                     ("scav", "selector.train_scav"),
                                     ("sample", "sampler.sample_batch"),
                                     ("eval", "cli.eval")):
                t = first(span_name)
                if t is not None:
                    marks[stage] = t
            batch_starts = [s[2] for s in inner if s[1] == "sampler.sample_batch"]
            if batch_starts and first("selector.select_best") is not None:
                marks["select"] = max(s[3] for s in inner if s[1] == "sampler.sample_batch")
            if batch_starts:
                wait += sum(t - min(batch_starts) for t in batch_starts)
                beams += len(batch_starts)
            ordered = sorted(marks.items(), key=lambda kv: kv[1])
            for (stage, t), (_, t_next) in zip(ordered, ordered[1:] + [("end", end)]):
                stages[stage] += t_next - t
    return stages, wait, beams


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, normalised as its unit states (op, sampler step, ...).

    A layer the workload never calls reads 0.
    """
    index = _SpanIndex(tracer.spans)
    counts: dict[str, float] = defaultdict(float)
    for name, value, _ in tracer.counts:
        counts[name] += value
    total, calls, self_time = index.total, index.calls, index.self_time

    def per_op_ms(seconds: float) -> float:
        return 1000.0 * _ratio(seconds, n_ops)

    values: dict[str, float] = {}
    for label in OP_LABELS + ("other",):
        values[f"autodiff.{label}.fwd_ms"] = per_op_ms(total[f"autodiff.{label}.fwd"])
        values[f"autodiff.{label}.vjp_ms"] = per_op_ms(total[f"autodiff.{label}.vjp"])
        values[f"autodiff.{label}.calls"] = _ratio(calls[f"autodiff.{label}.fwd"], n_ops)
    del values["autodiff.other.calls"]
    matmul_s = total["autodiff.matmul.fwd"] + total["autodiff.matmul.vjp"]
    values.update({
        "autodiff.backward.walk_ms": per_op_ms(self_time["autodiff.backward"]),
        "autodiff.nodes": _ratio(counts["autodiff.nodes"], n_ops),
        "autodiff.matmul.flop": _ratio(counts["autodiff.matmul.flop"], n_ops),
        "autodiff.matmul.bytes": _ratio(counts["autodiff.matmul.bytes"], n_ops),
        "autodiff.matmul.gflops": _ratio(counts["autodiff.matmul.flop"], matmul_s) / 1e9,
        "model.forward_ms": per_op_ms(total["model.forward"]),
        "model.forward_calls": _ratio(calls["model.forward"], n_ops),
        "model.embed_ms": per_op_ms(_embed_seconds(index)),
        "model.encode_ms": per_op_ms(total["model.encode"]),
        "model.encode_calls": _ratio(calls["model.encode"], n_ops),
        "model.decoder_ms": per_op_ms(total["model.decoder"]),
        "model.head_ms": per_op_ms(total["model.head"]),
        "model.checkpoint_save_ms": per_op_ms(total["model.checkpoint_save"]),
        "model.checkpoint_load_ms": per_op_ms(total["model.checkpoint_load"]),
        "train.losses_ms": per_op_ms(total["train.losses"]),
        "train.backward_ms": per_op_ms(
            index.total_under("autodiff.backward", "train.train_model")),
        "train.optimizer_ms": per_op_ms(
            index.total_under("train.optimizer", "train.train_model")),
        "train.accuracy_ms": per_op_ms(total["train.accuracy"]),
        "train.batch_ms": per_op_ms(self_time["train.train_model"]),
        "scheduler.draw_train_mask_ms": per_op_ms(total["scheduler.draw_train_mask"]),
        "scheduler.draw_train_mask.calls": _ratio(calls["scheduler.draw_train_mask"], n_ops),
    })
    steps = calls["sampler.step"]
    passes = sum(1 for span_id, name, *_ in index.spans
                 if name == "model.forward" and index.parent_name(span_id) == "sampler.forward")
    values.update({
        "sampler.forward_ms": 1000.0 * _ratio(total["sampler.forward"], steps),
        "sampler.guide_ms": 1000.0 * _ratio(total["sampler.guide"], steps),
        "sampler.softmax_ms": 1000.0 * _ratio(total["sampler.softmax"], steps),
        "sampler.draw_ms": 1000.0 * _ratio(
            total["sampler.multinomial"] + total["sampler.confidence"], steps),
        "sampler.remask_ms": 1000.0 * _ratio(self_time["sampler.step"], steps),
        "sampler.forward_passes": _ratio(passes, steps),
        "sampler.rows_per_call": _ratio(counts["sampler.rows"], calls["sampler.sample_batch"]),
        "sampler.calls": _ratio(calls["sampler.sample_batch"], n_ops),
        "selector.train_scav_ms": per_op_ms(total["selector.train_scav"]),
        "selector.select_best_ms": per_op_ms(total["selector.select_best"]),
        "selector.encode_calls": _ratio(calls["selector.encode"], n_ops),
        "metrics.mfcc_ms": per_op_ms(total["metrics.mfcc"]),
        "metrics.frechet_ms": per_op_ms(total["metrics.frechet"]),
        "metrics.novelty_ms": per_op_ms(total["metrics.novelty"]),
        "synthetic.gen_dataset_ms": per_op_ms(total["synthetic.gen_dataset"]),
        "synthetic.load_dataset_ms": per_op_ms(total["synthetic.load_dataset"]),
        "codegram.save_ms": per_op_ms(total["codegram.save"]),
        "codegram.load_ms": per_op_ms(total["codegram.load"]),
        "codegram.bytes": _ratio(counts["codegram.bytes"], n_ops),
        "features.save_ms": per_op_ms(total["features.save"]),
        "features.load_ms": per_op_ms(total["features.load"]),
        "features.bytes": _ratio(counts["features.bytes"], n_ops),
    })
    stages, wait, beams = _cli_stages(index)
    for stage in CLI_STAGES:
        values[f"cli.stage.{stage}_ms"] = per_op_ms(stages[stage])
    values["cli.sample.wait_ms"] = 1000.0 * _ratio(wait, beams)
    return {name: (values[name], unit) for name, unit in LAYER_METRICS}
