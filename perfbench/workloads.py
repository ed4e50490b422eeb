"""The benchmark's workloads: data set-up, training rounds, eval/export commands.

Every workload drives the package through its public API (``training.train``)
and its CLI (``cli.main`` in-process), checks the outputs, and leaves the
timings in a ``Run``. An operation is one train() call or one CLI command; it
fails when it raises, exits non-zero or fails an output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import statistics
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from mgsgan import cli
from mgsgan.checkpoint import load_checkpoint
from mgsgan.data import (SplitSpec, load_dataset, make_synthetic, normalize_pair,
                         save_dataset, split_tttr)
from mgsgan.models import predict_labels
from mgsgan.training import TrainConfig

from hooks import BatchClock, Tracer

# The benchmark's own list, so its metric names do not follow the program's.
MODES = ("mgsgan", "acsgan", "achsgan")
# Real Indian Pines labelled-pixel counts per class (10249 rows).
INDIAN_PINES_COUNTS = (46, 1428, 830, 237, 483, 730, 28, 478, 20, 972, 2455, 593,
                       205, 1265, 386, 93)
SETUP_REPEATS = 3
# A set-up this cheap next to one training round is repeated after every round,
# so its samples span the run like the timings do.
SETUP_SHARE = 0.25
EXPORT_SAMPLES = 64  # a power of two, so a mean of clamped values stays in the box
EXPORTS_PER_EVAL = 3  # export-spectra is short, so it runs this often per eval


@dataclass(frozen=True)
class Shape:
    classes: int
    bands: int
    sizes: tuple
    overlap: float
    tttr: float
    prior_mode: str


SHAPES = {
    # criterion-6 acceptance shape: 453 training rows, 7 batches of 64
    "4x64": Shape(4, 64, (500, 500, 500, 10), 0.85, 0.3, "uniform"),
    # Indian Pines shape: 1027 training rows, 16 batches of 64
    "16x200": Shape(16, 200, INDIAN_PINES_COUNTS, 0.5, 0.1, "empirical"),
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Data:
    shape: Shape
    seed: int
    csv: Path
    bin: Path  # a lossless copy the CLI commands read where the CSV parse would dominate
    train: object
    test: object


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def set_up(shape: Shape, seed: int, work: Path, parts) -> Data:
    """Synthesize, write the CSV, load it, copy it to BIN, split and normalize.

    Appends the seconds of each part to `parts`. Every call writes the same
    bytes to the same files, so a repeat leaves earlier Data valid.
    """
    csv, bin_ = work / "data.csv", work / "data.bin"
    t0 = perf_counter()
    ds = make_synthetic(seed, shape.classes, shape.bands, shape.sizes, overlap=shape.overlap)
    t1 = perf_counter()
    save_dataset(csv, ds)
    t2 = perf_counter()
    loaded = load_dataset(csv)
    t3 = perf_counter()
    save_dataset(bin_, loaded)
    t4 = perf_counter()
    train_n, test_n = normalize_pair(*split_tttr(loaded, SplitSpec(shape.tttr, seed)))
    t5 = perf_counter()
    if not (np.array_equal(loaded.samples, ds.samples)
            and np.array_equal(loaded.labels, ds.labels)):
        raise CheckFailed("CSV round trip changed the dataset")
    for key, value in (("synth.s", t1 - t0), ("csv_write.s", t2 - t1), ("load.s", t3 - t2),
                       ("split.s", t5 - t4), ("total", t5 - t0)):
        parts[key].append(value)
    parts["load.bytes"].append(csv.stat().st_size)
    return Data(shape, seed, csv, bin_, train_n, test_n)


def prepare_data(shape: Shape, seed: int, work: Path):
    """SETUP_REPEATS set-ups; returns the data and the per-part seconds of each."""
    parts = defaultdict(list)
    for _ in range(SETUP_REPEATS):
        data = set_up(shape, seed, work, parts)
    return data, parts


def _scores(truth, pred, n):
    """OA, Cohen's kappa and AA from predictions, written out independently."""
    cm = np.zeros((n, n))
    np.add.at(cm, (truth, pred), 1.0)
    total = cm.sum()
    oa = np.trace(cm) / total
    p_e = float(cm.sum(axis=0) @ cm.sum(axis=1)) / total ** 2
    kappa = 0.0 if p_e >= 1.0 else (oa - p_e) / (1.0 - p_e)
    aa = float(np.mean(np.diag(cm) / cm.sum(axis=1)))
    return float(oa), float(kappa), aa


def _mean_std(values):
    v = np.asarray(values, dtype=np.float64)
    return float(v.mean()), float(v.std(ddof=1)) if v.size > 1 else 0.0


class Run:
    """Operation counts, timings, fingerprints and traces of one benchmark run."""

    def __init__(self, work: Path, trace: bool):
        self.work = work
        self.trace = trace
        self.clock = BatchClock()
        self.tracer = Tracer()
        self.attempted = 0
        self.failures = []
        self.epoch_s = defaultdict(list)  # mode -> untraced epochs after warm-up
        self.step_s = defaultdict(list)
        self.traced_epoch_s = defaultdict(list)
        self.traced_epochs = defaultdict(int)  # every epoch of traced calls
        self.fingerprints = {}
        self.eval_rates = []
        self.export_rates = []
        self.traced_iterations = 0

    # -- operations ----------------------------------------------------------

    def _operation(self, label, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # every failure is counted and reported
            self._fail(label, exc)
            return None

    def _fail(self, label, exc):
        self.failures.append(f"{label}: {type(exc).__name__}: {exc}")

    def train(self, data: Data, mode: str, seed: int, epochs: int, traced: bool):
        """One train() call; returns its result, or None when it failed."""
        return self._operation(f"train {mode} seed {seed}", self._train,
                               data, mode, seed, epochs, traced)

    def _train(self, data, mode, seed, epochs, traced):
        config = TrainConfig(epochs=epochs, seed=seed, mode=mode,
                             prior_mode=data.shape.prior_mode)
        if traced:
            with self.tracer.recording(mode):
                result, timeline = self.clock.train(data.train, config)
        else:
            result, timeline = self.clock.train(data.train, config)
        _check_runlog(result, mode, epochs)
        self._fingerprint(f"{mode}/seed{seed}/epochs{epochs}", {
            "runlog": _sha256(result.runlog.to_jsonl().encode("utf-8")),
            "checkpoint": _sha256(result.checkpoint_bytes()),
        })
        after_warmup = timeline.epoch_seconds()[1:]  # epoch 0 pays the warm-up
        if traced:
            self.traced_epoch_s[mode] += after_warmup
            self.traced_epochs[mode] += epochs
            steps = sum(sum(timeline.step_seconds(e)) for e in range(epochs))
            self.tracer.totals[mode]["epoch_overhead.s"] += timeline.total() - steps
        else:
            self.epoch_s[mode] += after_warmup
            for e in range(1, epochs):
                self.step_s[mode] += timeline.step_seconds(e)
        return result

    def _fingerprint(self, key, digests):
        seen = self.fingerprints.setdefault(key, digests)
        if seen != digests:
            raise CheckFailed(f"fingerprint of {key} differs between two runs: {seen} vs {digests}")

    def cli(self, args, manifest: Path):
        """Run one CLI command in-process; returns its seconds, or None on failure."""
        return self._operation(args[0], self._cli, args, manifest)

    def _cli(self, args, manifest):
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(args)
            seconds = perf_counter() - t0
        if code != 0:
            raise CheckFailed(f"exit code {code}")
        if not manifest.is_file():
            raise CheckFailed(f"no manifest {manifest.name}")
        return seconds

    def _output_ok(self, command, path: Path, check) -> bool:
        """Check a command's first output; later outputs must repeat it byte for byte."""
        try:
            key = f"{command} output"
            digest = _sha256(path.read_bytes())
            seen = self.fingerprints.get(key)
            if seen is None:
                check(path)
                self.fingerprints[key] = digest
            elif seen != digest:
                raise CheckFailed("output differs from the command's first run")
        except Exception as exc:  # a failed check fails its command
            self._fail(command, exc)
            return False
        return True

    # -- eval and export -----------------------------------------------------

    def eval_iteration(self, data: Data, runs: Path, eval_input: Path, traced: bool):
        """`mgsgan eval` over the mgsgan run dir against acsgan, then export-spectra.

        eval reads `eval_input`; export-spectra reads the BIN copy of the data.
        """
        out = self.work / "reports"
        shutil.rmtree(out, ignore_errors=True)
        split = ["--tttr", repr(data.shape.tttr), "--split-seed", str(data.seed)]
        ckpts = sorted((runs / "mgsgan").glob("seed_*/checkpoint.mgsg"))
        # relative paths: eval's report names its checkpoints, and should repeat
        compare = runs / "acsgan" / f"seed_{data.seed}" / "checkpoint.mgsg"
        eval_args = ["eval", "--data", os.path.relpath(eval_input), *split,
                     "--run-dir", os.path.relpath(runs / "mgsgan"),
                     "--compare", os.path.relpath(compare),
                     "--out", os.path.relpath(out / "eval")]
        export_args = ["export-spectra", "--checkpoint", os.path.relpath(ckpts[0]),
                       "--data", os.path.relpath(data.bin), *split,
                       "--samples", str(EXPORT_SAMPLES),
                       "--out", os.path.relpath(out / "spectra.csv")]
        with self.tracer.recording("cli") if traced else contextlib.nullcontext():
            eval_s = self.cli(eval_args, out / "eval.manifest.json")
            export_s = [self.cli(export_args, out / "spectra.csv.manifest.json")
                        for _ in range(EXPORTS_PER_EVAL)]
        # checked outside the trace, whose predict_labels calls must be eval's own
        eval_ok = eval_s is not None and self._output_ok(
            "eval", out / "eval.json", lambda p: _check_eval_json(p, data, ckpts))
        export_ok = None not in export_s and self._output_ok(
            "export-spectra", out / "spectra.csv", lambda p: _check_spectra(p, data.shape))
        if traced:
            self.traced_iterations += 1
        elif eval_ok and export_ok:
            # eval predicts once per run-dir checkpoint and once for --compare
            self.eval_rates.append(data.test.size * (len(ckpts) + 1) / eval_s)
            self.export_rates += [EXPORT_SAMPLES * data.shape.classes / s for s in export_s]


# ---------------------------------------------------------------------------
# output checks

def _check_runlog(result, mode, epochs):
    records = result.runlog.records
    if len(records) != epochs:
        raise CheckFailed(f"runlog has {len(records)} epochs, expected {epochs}")
    for r in records:
        values = (r.loss_d, r.loss_g, r.loss_c, r.d_real_mean, r.d_fake_mean)
        if not all(math.isfinite(v) for v in values):
            raise CheckFailed(f"non-finite loss in epoch {r.epoch}: {values}")
        if mode == "mgsgan" and r.containment_overall != 1.0:
            raise CheckFailed(f"containment {r.containment_overall} in epoch {r.epoch}")


def _check_eval_json(path, data, ckpts):
    report = json.loads(path.read_text(encoding="utf-8"))
    scores = []
    for ckpt in ckpts:
        pred = predict_labels(load_checkpoint(ckpt).classifier, data.test.samples)
        scores.append(_scores(data.test.labels, pred, data.shape.classes))
    for i, name in enumerate(("oa", "kappa", "aa")):
        want = _mean_std([s[i] for s in scores])
        got = (report[name]["mean"], report[name]["std"])
        if not all(math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-12) for g, w in zip(got, want)):
            raise CheckFailed(f"eval {name} {got} != recomputed {want}")


def _check_spectra(path, shape):
    lines = path.read_text(encoding="utf-8").splitlines()
    if lines[0] != "class,band,real_mean,generated_mean,box_lower,box_upper":
        raise CheckFailed(f"spectra header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != shape.classes * shape.bands:
        raise CheckFailed(f"spectra has {len(rows)} rows, expected {shape.classes * shape.bands}")
    for row in rows:
        real, gen, lo, hi = (float(v) for v in row[2:])
        if not (all(math.isfinite(v) for v in (real, gen, lo, hi)) and lo <= gen <= hi):
            raise CheckFailed(f"class {row[0]} band {row[1]}: generated mean {gen} "
                              f"outside box [{lo}, {hi}]")


# ---------------------------------------------------------------------------
# workloads

def _write_run(runs: Path, mode: str, seed: int, result):
    seed_dir = runs / mode / f"seed_{seed}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    (seed_dir / "checkpoint.mgsg").write_bytes(result.checkpoint_bytes())
    (seed_dir / "runlog.jsonl").write_text(result.runlog.to_jsonl(), encoding="utf-8")


def _eval_loop(run: Run, data: Data, runs: Path, start: float, seconds: float):
    """Eval (on the CSV) and export pairs until `seconds` have passed, at least three.

    A traced run alternates untraced and traced pairs.
    """
    i = 0
    while i < 3 or perf_counter() - start < seconds:
        run.eval_iteration(data, runs, data.csv, traced=run.trace and i % 2 == 1)
        i += 1


def training_workload(run: Run, shape: Shape, seed: int, seconds: float, epochs: int):
    """Rounds of train() over the three modes, each followed by an eval/export pair.

    Rounds run for `seconds`, at least two; each repeats the same configs, so
    its fingerprints must repeat. A pair evaluates the round's checkpoints and
    reads the BIN copy of the data, so its time goes to the model rather than
    to parsing the CSV, which eval16x200 covers; at least three pairs run. A
    traced run traces every second round and pair.
    """
    data, parts = prepare_data(shape, seed, run.work)
    runs = run.work / "runs"
    start = perf_counter()
    rounds = pairs = 0
    while rounds < 2 or perf_counter() - start < seconds:
        traced = run.trace and rounds % 2 == 1
        t0 = perf_counter()
        results = {mode: run.train(data, mode, seed, epochs, traced) for mode in MODES}
        if results["mgsgan"] is not None and results["acsgan"] is not None:
            _write_run(runs, "mgsgan", seed, results["mgsgan"])
            _write_run(runs, "acsgan", seed, results["acsgan"])
            run.eval_iteration(data, runs, data.bin, traced)
            pairs += 1
        if statistics.median(parts["total"]) < SETUP_SHARE * (perf_counter() - t0):
            set_up(shape, seed, run.work, parts)
        rounds += 1
    while 0 < pairs < 3:
        run.eval_iteration(data, runs, data.bin, traced=run.trace and pairs % 2 == 1)
        pairs += 1
    return statistics.median(parts["total"]), parts


def eval_workload(run: Run, shape: Shape, seed: int, seconds: float, epochs: int):
    """Checkpoints from a short training in set-up, then eval/export pairs.

    Set-up trains every mode for seeds seed..seed+2, modes interleaved so
    each one's epoch samples span the set-up. eval reads the mgsgan
    checkpoints and the acsgan one of `seed`; achsgan only supplies that
    mode's training metrics. A traced run trains each config a second time
    under the tracer. eval reads the CSV, so it pays the parse a user pays.
    """
    data, parts = prepare_data(shape, seed, run.work)
    runs = run.work / "runs"
    t0 = perf_counter()
    configs = [(mode, seed + k) for k in range(3) for mode in MODES]
    ready = True
    for mode, s in configs:
        result = run.train(data, mode, s, epochs, traced=False)
        if run.trace:
            run.train(data, mode, s, epochs, traced=True)
        if result is None:
            ready = False
        elif mode != "achsgan":
            _write_run(runs, mode, s, result)
    setup_s = statistics.median(parts["total"]) + perf_counter() - t0
    if ready:
        _eval_loop(run, data, runs, perf_counter(), seconds)
    return setup_s, parts


# name -> (function, shape, epochs per train() call)
WORKLOADS = {
    "acc4x64": (training_workload, SHAPES["4x64"], 4),
    "ip16x200": (training_workload, SHAPES["16x200"], 3),
    "eval16x200": (eval_workload, SHAPES["16x200"], 2),
}
