"""Timing hooks the benchmark places on the package's public functions.

Nothing under ``src/`` is edited. A hook swaps a module or class attribute for
a wrapper and puts the original back when its ``Patches`` are restored. A
function that another mgsgan module imported by name (``from .models import
predict_labels``) is swapped under every alias, so callers see the wrapper.

Two layers of hooks exist:

* ``BatchClock`` is always on. It timestamps the start of every batch (each
  mode calls its generator player exactly once per batch) and the end of
  every epoch's batches (``RunLog.append``). That is one timestamp per batch,
  so it does not perturb the end-to-end timings.
* ``Tracer`` is on only around traced calls (``--trace 1``). It times every
  autodiff op forward and vector-Jacobian product, the tape walk, the
  finiteness scan, Adam, batch norm, the generator player, the checkpoint
  codec, prediction and the evaluation metrics, and works out GEMM flops and
  bytes from operand shapes.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from mgsgan import autodiff, checkpoint, evaluation, layers, models, training


class Patches:
    """Attribute swaps that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper):
        """Wrap module.name under every alias in the loaded mgsgan modules."""
        orig = getattr(module, name, None)
        if orig is None:
            return
        wrapper = make_wrapper(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "mgsgan":
                continue
            for alias, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, alias, orig))
                    setattr(mod, alias, wrapper)

    def method(self, cls, name, make_wrapper):
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapper = classmethod(make_wrapper(raw.__func__))
        else:
            wrapper = make_wrapper(raw)
        self._undo.append((cls, name, raw))
        setattr(cls, name, wrapper)

    def restore(self):
        while self._undo:
            owner, name, orig = self._undo.pop()
            setattr(owner, name, orig)


class HookError(RuntimeError):
    """A hook saw a different number of batches or epochs than the run has."""


# ---------------------------------------------------------------------------
# batch and epoch boundaries (always on)

class BatchClock:
    """Batch starts and epoch ends of the train() call being recorded."""

    def __init__(self):
        self.events = None  # list of ("b" | "e", t) while a call is recorded
        self._in_bank = 0
        self._patches = Patches()

    def install(self):
        clock = self

        def wrap_bank(orig):
            def generate_batch(bank, z, classes):
                if clock.events is not None:
                    clock.events.append(("b", perf_counter()))
                clock._in_bank += 1
                try:
                    return orig(bank, z, classes)
                finally:
                    clock._in_bank -= 1
            return generate_batch

        def wrap_forward(orig):
            def forward(gen, z):
                if clock.events is not None and not clock._in_bank:
                    clock.events.append(("b", perf_counter()))
                return orig(gen, z)
            return forward

        def wrap_append(orig):
            def append(log, rec):
                orig(log, rec)
                if clock.events is not None:
                    clock.events.append(("e", perf_counter()))
            return append

        self._patches.method(models.GeneratorBank, "generate_batch", wrap_bank)
        self._patches.method(models.Generator, "forward", wrap_forward)
        self._patches.method(training.RunLog, "append", wrap_append)

    def uninstall(self):
        self._patches.restore()

    def train(self, train_ds, config):
        """training.train under the clock; returns (result, Timeline)."""
        self.events = []
        start = perf_counter()
        try:
            result = training.train(train_ds, config)
        finally:
            events, self.events = self.events, None
        timeline = Timeline(start, perf_counter(), events)
        timeline.validate(config.epochs, train_ds.size // config.batch)
        return result, timeline


class Timeline:
    """Per-epoch and per-batch durations of one train() call."""

    def __init__(self, start, end, events):
        self.start = start
        self.end = end
        self.epochs = []  # (batch start times, epoch end time)
        batches = []
        for kind, t in events:
            if kind == "b":
                batches.append(t)
            else:
                self.epochs.append((batches, t))
                batches = []
        self.trailing = batches

    def validate(self, epochs, batches_per_epoch):
        counts = [len(b) for b, _ in self.epochs]
        if self.trailing or counts != [batches_per_epoch] * epochs:
            raise HookError(f"hooks saw batches per epoch {counts} (+{len(self.trailing)}), "
                            f"expected {epochs} epochs of {batches_per_epoch}")

    def epoch_seconds(self):
        """Time from one epoch's end to the next; the first starts at the call."""
        out, prev = [], self.start
        for _, end in self.epochs:
            out.append(end - prev)
            prev = end
        return out

    def step_seconds(self, epoch):
        """Each batch of `epoch`, from its generator call to the next boundary."""
        starts, end = self.epochs[epoch]
        bounds = starts[1:] + [end]
        return [b - a for a, b in zip(starts, bounds)]

    def total(self):
        return self.end - self.start


# ---------------------------------------------------------------------------
# per-layer tracer (on only around traced calls)

MAIN_OPS = ("conv1d", "conv1d_transpose", "batch_norm", "batch_norm_eval",
            "leaky_relu", "matmul")
# Primitive ops in autodiff; mean_ and relu are compositions of these.
AUTODIFF_OPS = ("add", "mul", "matmul", "conv1d", "conv1d_transpose", "leaky_relu",
                "sigmoid", "tanh", "log", "softmax", "clamp", "reshape", "concat",
                "gather", "sum_", "batch_norm", "batch_norm_eval")
# Row and column pickers that models builds directly on autodiff._make.
MODEL_OPS = ("_take_rows", "_scatter_rows", "_take_cols")
# Order of the player updates inside one batch.
STEP_ORDER = {"mgsgan": ("d", "c", "g"), "acsgan": ("d", "c", "g"), "achsgan": ("d", "g")}


def _group(op_name: str) -> str:
    name = op_name.rstrip("_")
    return name if name in MAIN_OPS else "other_ops"


def computed_work(op, parents, out):
    """(forward flops, forward bytes, backward flops, backward bytes) of a GEMM op.

    Counted from operand shapes: the GEMM operands and results plus the
    im2col/col2im patch matrices the conv pair builds, at the array itemsize.
    Bias adds and elementwise work are not counted. None for other ops.
    """
    if op == "matmul":
        (m, k), (_, n) = parents[0].shape, parents[1].shape
        return 2 * m * k * n, None, 4 * m * k * n, None
    if op not in ("conv1d", "conv1d_transpose"):
        return None
    o, c, k = parents[1].shape
    if op == "conv1d":
        (b, _, length), t = parents[0].shape, out.shape[2]
    else:
        (b, _, t), length = parents[0].shape, out.shape[2]
    x, col, w, y = b * c * length, b * t * c * k, o * c * k, b * t * o
    size = out.itemsize
    gemm = 2 * b * t * c * k * o
    patches = x + col  # im2col or col2im: one side read, the other written
    fwd_bytes = size * (patches + col + w + y)
    bwd_bytes = size * (patches + 2 * (col + w + y))
    return gemm, fwd_bytes, 2 * gemm, bwd_bytes


class Tracer:
    """Accumulates per-layer totals under a context: a mode, or "cli" for eval/export."""

    def __init__(self):
        self.totals = defaultdict(lambda: defaultdict(float))
        self.context = None
        self._stack = []  # child seconds of each open span
        self._in_bank = 0
        self._step = None  # (start, backward total, adam total) of the open update
        self._step_index = 0
        self._patches = Patches()

    def add(self, key, value):
        self.totals[self.context][key] += value

    def _open(self):
        self._stack.append(0.0)
        return perf_counter()

    def _close(self, t0):
        elapsed = perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        return elapsed, elapsed - child

    def span(self, key, self_key=None, count=None):
        """Wrapper factory: time calls into `key`, self time into `self_key`."""
        tracer = self

        def make(orig):
            def wrapper(*args, **kwargs):
                t0 = tracer._open()
                try:
                    result = orig(*args, **kwargs)
                finally:
                    elapsed, own = tracer._close(t0)
                    tracer.add(key, elapsed)
                    if self_key:
                        tracer.add(self_key, own)
                if count:
                    count(args, result)
                return result
            return wrapper
        return make

    @contextmanager
    def recording(self, context):
        """Install the tracer and count under `context` for the with block."""
        self.context = context
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.context = None
            self._stack.clear()
            self._step = None

    # -- installation ------------------------------------------------------

    def install(self):
        p = self._patches
        for name in AUTODIFF_OPS:
            p.function(autodiff, name, self.span(f"{_group(name)}.fwd_s"))
        for name in MODEL_OPS:
            p.function(models, name, self.span("other_ops.fwd_s"))
        p.function(autodiff, "_make", self._wrap_make)
        p.function(autodiff, "_check_finite", self.span(
            "check_finite.s", count=lambda a, r: self.add("check_finite.calls", 1)))
        p.function(autodiff, "backward", self.span("backward.s", "backward.self_s"))
        p.method(layers.Adam, "zero_grad", self._wrap_zero_grad)
        p.method(layers.Adam, "step", self._wrap_adam_step)
        p.method(layers.BatchNorm1d, "forward", self.span("batchnorm.s", "batchnorm.self_s"))
        p.method(models.GeneratorBank, "generate_batch", self._wrap_bank)
        p.method(models.Generator, "forward", self._wrap_generator)
        p.function(checkpoint, "save_checkpoint_bytes", self.span(
            "save.s", count=lambda a, r: self.add("save.bytes", len(r))))
        p.function(checkpoint, "load_checkpoint_bytes", self.span(
            "load.s", count=lambda a, r: self.add("load.calls", 1)))
        p.function(models, "predict_labels", self.span(
            "predict.s", count=lambda a, r: self.add("predict.rows", len(r))))
        p.method(evaluation.ConfusionMatrix, "from_predictions", self.span("metrics.s"))
        p.method(evaluation.EvalReport, "from_runs", self.span("metrics.s"))
        p.function(evaluation, "mcnemar", self.span("metrics.s"))

    def uninstall(self):
        self._patches.restore()

    def _wrap_make(self, orig):
        tracer = self

        def _make(data, parents, vjp, op):
            group = _group(op)
            tracer.add("ops", 1)
            tracer.add(f"{group}.calls", 1)
            work = computed_work(op, parents, data)
            if work:
                tracer.add(f"{group}.flops", work[0])
                if work[1] is not None:
                    tracer.add(f"{group}.bytes", work[1])

            def timed_vjp(g):
                t0 = tracer._open()
                try:
                    return vjp(g)
                finally:
                    tracer.add(f"{group}.bwd_s", tracer._close(t0)[0])
                    if work:
                        tracer.add(f"{group}.flops", work[2])
                        if work[3] is not None:
                            tracer.add(f"{group}.bytes", work[3])

            return orig(data, parents, timed_vjp, op)
        return _make

    def _wrap_zero_grad(self, orig):
        tracer = self

        def zero_grad(adam):
            totals = tracer.totals[tracer.context]
            tracer._step = (perf_counter(), totals["backward.s"], totals["adam.step_s"])
            return orig(adam)
        return zero_grad

    def _wrap_adam_step(self, orig):
        tracer = self
        timed = self.span("adam.step_s",
                          count=lambda a, r: self.add("adam.tensors", len(a[0].params)))(orig)

        def step(adam):
            timed(adam)
            if tracer._step is None or tracer.context not in STEP_ORDER:
                return
            start, backward0, adam0 = tracer._step
            tracer._step = None
            totals = tracer.totals[tracer.context]
            player = STEP_ORDER[tracer.context][tracer._step_index]
            tracer._step_index += 1
            elapsed = perf_counter() - start
            tracer.add(f"{player}_step.s", elapsed)
            tracer.add(f"{player}.s", elapsed - (totals["backward.s"] - backward0)
                       - (totals["adam.step_s"] - adam0))
        return step

    def _player_call(self, orig, *args):
        self._step_index = 0
        self.add("batches", 1)
        return self.span("generate.s")(orig)(*args)

    def _wrap_bank(self, orig):
        tracer = self

        def generate_batch(bank, z, classes):
            tracer._in_bank += 1
            try:
                return tracer._player_call(orig, bank, z, classes)
            finally:
                tracer._in_bank -= 1
        return generate_batch

    def _wrap_generator(self, orig):
        tracer = self

        def forward(gen, z):
            tracer.add("generate.groups", 1)
            if tracer._in_bank:
                return orig(gen, z)
            return tracer._player_call(orig, gen, z)
        return forward
