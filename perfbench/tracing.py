"""Span tracing of tsgseg from the outside, for the traced benchmark run.

``Tracer.install()`` replaces the package's public functions and methods
with wrappers that record one span per call: a name, a start, an end and
the span that was open when the call began (its parent). Modules import
ops by name (``from .tensor import matmul``), so a function is replaced
under every name that refers to it in every loaded ``tsgseg`` module, not
only in the module that defines it. The autodiff closure an op attaches
to its output tensor is wrapped too, so backward time is split by the op
that built the node. ``restore()`` puts every original back.

Spans stay in memory as flat arrays and are reduced once, by
``Tracer.metrics()``. A span's self time is its duration minus the part
its child spans of the same kind cover. There are two kinds:

- op spans (tensor ops and their backward closures), so an op nested in
  another op (``upsample_bilinear`` calls ``matmul``) is counted once, as
  the inner op;
- layer spans (everything else), so a layer's self time keeps the ops it
  calls and excludes the layers it calls.

Normalisation of each reported metric is given next to it in ``metrics``.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# Tensor ops as listed in tensor.__all__; all are counted per forward.
OPS = ("add", "mul", "scale", "matmul", "transpose", "softmax", "layernorm",
       "gelu", "linear", "concat", "narrow", "take", "tsum",
       "upsample_bilinear", "cross_entropy")
# Ops whose forward and backward times are reported.
TIMED_OPS = ("narrow", "matmul", "linear", "softmax", "transpose", "concat",
             "take", "upsample_bilinear")

# Layer spans: (span name, module, owner class or None, attribute).
LAYERS = (
    ("model.forward", "model", "SegModel", "__call__"),
    ("encoder.backbone", "encoder", "Backbone", "__call__"),
    ("encoder.patch_embed", "encoder", "PatchEmbed", "__call__"),
    ("encoder.patch_merge", "encoder", "PatchMerge", "__call__"),
    ("encoder.fusion", "encoder", "TsgeFusion", "__call__"),
    ("encoder.upsample_attention", "encoder", None, "upsample_attention"),
    ("attention.self", "attention", "MultiheadSelfAttention", "__call__"),
    ("attention.cross", "attention", "MultiheadCrossAttention", "__call__"),
    ("scale_gate.integrate_self", "scale_gate", "TsgHead", "integrate_self"),
    ("scale_gate.integrate_cross", "scale_gate", "TsgHead", "integrate_cross"),
    ("scale_gate.gate", "scale_gate", "TsgHead", "gate"),
    ("scale_gate.gated_sum", "scale_gate", None, "gated_sum"),
    ("decoder.forward", "decoder", "Decoder", "__call__"),
    ("tensor.backward", "tensor", "Tensor", "backward"),
    ("optim.step", "optim", "AdamW", "step"),
    ("train.evaluate", "train", None, "evaluate_model"),
    ("segbench.generate", "segbench", None, "generate"),
    ("segbench.load_sample", "segbench", None, "load_sample"),
    ("segbench.metrics", "segbench", None, "confusion_matrix"),
    ("segbench.metrics", "segbench", None, "bucket_masks"),
    ("segbench.metrics", "segbench", None, "iou_from_confusion"),
    ("netpbm.read", "netpbm", None, "read_ppm"),
    ("netpbm.read", "netpbm", None, "read_pgm"),
    ("checkpoint.load", "checkpoint", None, "load_model"),
)

# Layers reported as self time per model forward.
FORWARD_LAYERS = ("model.forward", "encoder.backbone", "encoder.patch_embed",
                  "encoder.patch_merge", "encoder.fusion",
                  "encoder.upsample_attention", "attention.self",
                  "attention.cross", "scale_gate.integrate_self",
                  "scale_gate.integrate_cross", "scale_gate.gate",
                  "scale_gate.gated_sum", "decoder.forward")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, name: str, fn, is_op: bool):
        sid = self._id(("op:" if is_op else "") + name)
        bwd_id = self._id("bwd:" + name) if is_op else -1
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter
        timed_closure = self._timed_closure

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if is_op:
                # The innermost op that built the node owns its backward.
                bw = out._backward
                if bw is not None and not hasattr(bw, "traced_op"):
                    out._backward = timed_closure(bwd_id, bw)
            return out

        return wrapper

    def _timed_closure(self, sid: int, closure):
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        def timed(g):
            idx = len(start)
            name_of.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            start.append(clock())
            try:
                closure(g)
            finally:
                end[idx] = clock()

        timed.traced_op = True
        return timed

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every traced function under every name that refers to it."""
        mods = [m for n, m in sorted(sys.modules.items())
                if (n == "tsgseg" or n.startswith("tsgseg.")) and m is not None]
        tensor = sys.modules["tsgseg.tensor"]
        targets = [(op, None, getattr(tensor, op), True) for op in OPS]
        for name, mod, cls, attr in LAYERS:
            module = sys.modules[f"tsgseg.{mod}"]
            if cls is None:
                targets.append((name, None, getattr(module, attr), False))
            else:
                owner = getattr(module, cls)
                targets.append((name, (owner, attr), owner.__dict__[attr], False))
        for name, method, fn, is_op in targets:
            wrapped = self._wrap(name, fn, is_op)
            if method is not None:
                self._patch(method[0], method[1], wrapped)
                continue
            for m in mods:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, attr, wrapped)

    def restore(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def metrics(self, calls: int) -> dict[str, float]:
        """Per-layer metrics of the spans so far; ``calls`` is the number of
        traced workload calls (``train_run`` or checkpoint evaluations)."""
        n = len(self.start)
        names = np.array(self.names + ["<none>"])
        name_of = np.frombuffer(self.name_of, dtype=np.int32)[:n]
        label = names[name_of] if n else np.array([], dtype=names.dtype)
        parent = np.frombuffer(self.parent, dtype=np.int64)[:n]
        dur = np.frombuffer(self.end)[:n] - np.frombuffer(self.start)[:n]
        start = np.frombuffer(self.start)[:n]
        is_op = np.char.startswith(label, "op:") | np.char.startswith(label, "bwd:")
        has_parent = parent >= 0
        same_kind = np.zeros(n, dtype=bool)
        same_kind[has_parent] = is_op[has_parent] == is_op[parent[has_parent]]
        covered = np.bincount(parent[same_kind], weights=dur[same_kind], minlength=n)
        self_time = dur - covered[:n]

        # An op span belongs to a forward when it starts inside one;
        # forwards never nest, so one sorted search decides it.
        fwd = label == "model.forward"
        f_start, f_end = start[fwd], start[fwd] + dur[fwd]
        slot = np.searchsorted(f_start, start, side="right") - 1
        in_fwd = (slot >= 0) & (start < f_end[np.maximum(slot, 0)]) if fwd.any() \
            else np.zeros(n, dtype=bool)
        n_fwd = int(fwd.sum())
        n_bwd = int((label == "tensor.backward").sum())

        def per(total: float, count: int) -> float:
            return float(total) / count if count else 0.0

        def ms(mask) -> float:
            return 1e3 * float(self_time[mask].sum())

        out: dict[str, float] = {}
        op_calls = {op: int((in_fwd & (label == "op:" + op)).sum()) for op in OPS}
        out["tensor.ops_per_forward"] = per(sum(op_calls.values()), n_fwd)
        for op in OPS:
            out[f"tensor.{op}.calls_per_forward"] = per(op_calls[op], n_fwd)
        for op in TIMED_OPS:
            out[f"tensor.{op}.fwd_ms"] = per(ms(in_fwd & (label == "op:" + op)), n_fwd)
            out[f"tensor.{op}.bwd_ms"] = per(ms(label == "bwd:" + op), n_bwd)
        # Inclusive times: one backward pass, one model forward.
        out["tensor.backward_ms"] = per(1e3 * dur[label == "tensor.backward"].sum(), n_bwd)
        out["model.forward_total_ms"] = per(1e3 * dur[fwd].sum(), n_fwd)
        for layer in FORWARD_LAYERS:
            out[f"{layer}_ms"] = per(ms(label == layer), n_fwd)

        def per_call(layer: str, inclusive: bool = True) -> float:
            mask = label == layer
            times = dur if inclusive else self_time
            return per(1e3 * times[mask].sum(), int(mask.sum()))

        out["optim.step_ms"] = per_call("optim.step")
        # evaluate_model: inclusive time and calls per workload call
        # (one train_run or one checkpoint evaluation).
        ev = label == "train.evaluate"
        out["train.evaluate_ms"] = per(1e3 * dur[ev].sum(), calls)
        out["train.evaluate_calls"] = per(int(ev.sum()), calls)
        out["segbench.generate_ms"] = per_call("segbench.generate")
        out["segbench.load_sample_ms"] = per_call("segbench.load_sample", inclusive=False)
        out["netpbm.read_ms"] = per_call("netpbm.read")
        out["checkpoint.load_ms"] = per_call("checkpoint.load")
        # Confusion, bucket-mask and IoU time per image evaluate_model scored.
        images = int((fwd & has_parent & ev[np.maximum(parent, 0)]).sum())
        out["segbench.metrics_ms"] = per(ms(label == "segbench.metrics"), images)
        return out
