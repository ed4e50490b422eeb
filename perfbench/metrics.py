"""The benchmark's metric names and units, and their values from a finished Run.

BENCHMARK.json lists the same names; a run prints every end-to-end metric with
``--trace 0`` and every per-layer metric with ``--trace 1``.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from workloads import MODES

# Per-layer metrics of each mode's traced train() calls: (name, unit).
PER_MODE = [
    *((f"{op}.{k}", u) for op in ("conv1d", "conv1d_transpose") for k, u in (
        ("fwd_s", "s/epoch"), ("bwd_s", "s/epoch"), ("calls", "calls/epoch"),
        ("flops", "flop/epoch"), ("bytes", "B/epoch"))),
    *((f"{op}.{k}", "s/epoch") for op in ("batch_norm", "leaky_relu") for k in ("fwd_s", "bwd_s")),
    ("matmul.fwd_s", "s/epoch"), ("matmul.bwd_s", "s/epoch"), ("matmul.flops", "flop/epoch"),
    ("other_ops.fwd_s", "s/epoch"), ("other_ops.bwd_s", "s/epoch"),
    ("ops", "calls/epoch"), ("backward.self_s", "s/epoch"),
    ("check_finite.s", "s/epoch"), ("check_finite.calls", "calls/epoch"),
    ("adam.step_s", "s/epoch"), ("adam.tensors", "tensors/epoch"),
    ("batchnorm.self_s", "s/epoch"),
    ("generate.s", "s/epoch"), ("generate.groups", "groups/batch"),
    ("d.s", "s/epoch"), ("c.s", "s/epoch"), ("g.s", "s/epoch"),
    ("d_step.s", "s/epoch"), ("c_step.s", "s/epoch"), ("g_step.s", "s/epoch"),
    ("epoch_overhead.s", "s/epoch"),
    ("save.s", "s/epoch"), ("save.bytes", "B/epoch"),
    ("trace_overhead_s", "s/epoch"),
]
# Per traced eval + export-spectra pair.
PER_CLI = [
    ("conv1d.fwd_s", "s/iteration"), ("conv1d_transpose.fwd_s", "s/iteration"),
    ("batch_norm_eval.fwd_s", "s/iteration"),
    ("predict.s", "s/iteration"), ("predict.rows", "rows/iteration"),
    ("load.s", "s/iteration"), ("load.calls", "calls/iteration"),
    ("metrics.s", "s/iteration"),
]
# Median over the set-up repeats.
PER_DATA = [("synth.s", "s"), ("csv_write.s", "s"), ("load.s", "s"), ("load.bytes", "B"),
            ("split.s", "s")]
# Worked out from operand shapes by hooks.computed_work, not measured.
COMPUTED = {"conv1d.flops", "conv1d.bytes", "conv1d_transpose.flops",
            "conv1d_transpose.bytes", "matmul.flops"}


def end_to_end_specs():
    """(name, unit) of every end-to-end metric, in report order."""
    specs = [("setup_s", "s")]
    for mode in MODES:
        specs += [(f"{mode}.epoch_s", "s"), (f"{mode}.step_ms", "ms"),
                  (f"{mode}.step_ms.p90", "ms")]
    specs += [("eval_rows_per_s", "rows/s"), ("export_rows_per_s", "rows/s"),
              ("peak_rss_mb", "MB")]
    return specs


def per_layer_specs():
    """(name, unit) of every per-layer metric, in report order; achsgan has no C player."""
    specs = []
    for mode in MODES:
        specs += [(f"{mode}.{k}", u) for k, u in PER_MODE
                  if not (mode == "achsgan" and k.split(".")[0] in ("c", "c_step"))]
    specs += [(f"cli.{k}", u) for k, u in PER_CLI]
    specs += [(f"data.{k}", u) for k, u in PER_DATA]
    return specs


def end_to_end(run, setup_s, parts):
    """name -> (value, sample count) of every end-to-end metric that has samples."""
    out = {"setup_s": (setup_s, len(parts["total"]))}
    for mode in MODES:
        epochs, steps = run.epoch_s[mode], run.step_s[mode]
        if epochs and steps:
            out[f"{mode}.epoch_s"] = (statistics.median(epochs), len(epochs))
            out[f"{mode}.step_ms"] = (1000 * statistics.median(steps), len(steps))
            out[f"{mode}.step_ms.p90"] = (1000 * float(np.percentile(steps, 90)), len(steps))
    if run.eval_rates:
        out["eval_rows_per_s"] = (statistics.median(run.eval_rates), len(run.eval_rates))
        out["export_rows_per_s"] = (statistics.median(run.export_rates), len(run.export_rates))
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


def per_layer(run, parts):
    """name -> (value, sample count) of every per-layer metric that has samples."""
    out = {}
    for mode in MODES:
        epochs = run.traced_epochs[mode]
        if not (epochs and run.epoch_s[mode]):
            continue
        totals = run.tracer.totals[mode]
        for key, _ in PER_MODE:
            if key == "generate.groups":
                value = totals[key] / totals["batches"]
            elif key == "trace_overhead_s":
                value = (statistics.median(run.traced_epoch_s[mode])
                         - statistics.median(run.epoch_s[mode]))
            else:
                value = totals[key] / epochs
            out[f"{mode}.{key}"] = (value, epochs)
    if run.traced_iterations:
        totals = run.tracer.totals["cli"]
        for key, _ in PER_CLI:
            out[f"cli.{key}"] = (totals[key] / run.traced_iterations, run.traced_iterations)
    for key, _ in PER_DATA:
        out[f"data.{key}"] = (statistics.median(parts[key]), len(parts[key]))
    return out
