"""End-to-end training loop: per batch, one D step, one C step, one G step.

Every mode runs the same D and G updates (`_update`); the mode only decides
which players `build_players` puts in the `models.Model` that `train` returns.
A class head on the discriminator is trained through `loss_d` and `loss_g`,
with no C step of its own.

Each update holds the other players fixed in one way only: `_Freezer` sets
`requires_grad` False on their parameters, which makes them constants to the
engine, so no gradient reaches them and their batch norms keep their running
statistics. The fake batch fed to the D and C updates is detached from the
generator graph. The C step reads only real rows and that detached batch, so
a separate classifier is updated in a worker process that owns it, one batch
behind the parent: C(b) is sent as soon as batch b is generated, and
C(b-1)'s reply is read only then, before D(b); the last batch's reply is
read at epoch end. Its results are the same bits as in the order D, C, G, and
an error is reported at the batch of the step that raised it, in that order:
an error of D(b) wins, then C(b)'s, then G(b)'s or one in generating batch
b+1. Noise, class sampling, data order and initialization each draw from
their own seeded stream, so a run is bit-reproducible from (seed, config,
dataset) and all modes share the same data order for a given seed.

Losses are checked for finiteness by the engine on every op; a non-finite
value aborts the run with the epoch/batch context and the serialized
checkpoint of the last completed epoch.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import signal
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import blas
from .checkpoint import save_checkpoint_bytes
from .data import SpectralDataset, class_priors, dataset_digest
from .errors import ContractError, NumericError, TrainingAborted
from .layers import Adam
from .losses import ClampLog, ClassPriors, loss_c, loss_d, loss_g
from .models import (DTYPE, MODES, ClassDomain, Model, build_players, compute_class_domains,
                     generate, player_dtype)

NOISE_DISTS = ("normal", "normal-shifted", "uniform")
PRIOR_MODES = ("empirical", "uniform")
GEN_LOSSES = ("non-saturating", "saturating")


@dataclass
class TrainConfig:
    epochs: int = 1500
    batch: int = 64
    lr: float = 0.0002
    beta1: float = 0.5
    beta2: float = 0.999
    noise_dim: int = 100
    seed: int = 0
    domain_margin: float = 0.05
    prior_mode: str = "empirical"
    gen_loss: str = "non-saturating"
    mode: str = "mgsgan"
    noise_dist: str = "normal"
    checkpoint_interval: int = 0

    def __post_init__(self):
        if self.epochs < 0 or self.noise_dim < 1:
            raise ContractError("TrainConfig: epochs/noise_dim out of range")
        if self.batch < 2:
            raise ContractError(f"TrainConfig: batch norm needs batch >= 2, got {self.batch}")
        for name in ("lr", "domain_margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ContractError(f"TrainConfig: {name} must be finite and >= 0, got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0 <= value < 1:  # also rejects nan
                raise ContractError(f"TrainConfig: {name} must lie in [0, 1), got {value}")
        for name in ("seed", "checkpoint_interval"):
            if getattr(self, name) < 0:
                raise ContractError(f"TrainConfig: {name} must be >= 0, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ContractError(f"TrainConfig: unknown mode {self.mode!r}")
        if self.prior_mode not in PRIOR_MODES:
            raise ContractError(f"TrainConfig: unknown prior_mode {self.prior_mode!r}")
        if self.gen_loss not in GEN_LOSSES:
            raise ContractError(f"TrainConfig: unknown gen_loss {self.gen_loss!r}")
        if self.noise_dist not in NOISE_DISTS:
            raise ContractError(f"TrainConfig: unknown noise_dist {self.noise_dist!r}")

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class EpochRecord:
    epoch: int
    loss_d: float
    loss_g: float
    loss_c: float
    d_real_mean: float
    d_fake_mean: float
    containment: list
    containment_overall: float
    data_order_digest: str
    wall_clock: float = 0.0

    def as_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "wall_clock"}
        return d


@dataclass
class RunLog:
    meta: dict
    records: list = field(default_factory=list)

    def append(self, rec: EpochRecord):
        if self.records and rec.epoch != self.records[-1].epoch + 1:
            raise ContractError("RunLog: epoch index must increase by one")
        self.records.append(rec)

    def to_jsonl(self) -> str:
        """Deterministic log: meta line, then one record per epoch (no timing)."""
        lines = [json.dumps({"meta": self.meta}, sort_keys=True)]
        lines += [json.dumps(r.as_dict(), sort_keys=True) for r in self.records]
        return "\n".join(lines) + "\n"

    def to_timing_json(self) -> str:
        return json.dumps({"wall_clock_per_epoch": [r.wall_clock for r in self.records]})


@dataclass
class TrainResult:
    model: Model
    priors: ClassPriors
    runlog: RunLog
    config: TrainConfig

    def checkpoint_bytes(self) -> bytes:
        return save_checkpoint_bytes(self.model)


def _draw_noise(rng: np.random.Generator, n: int, dim: int, dist: str) -> np.ndarray:
    if dist == "normal":
        return rng.standard_normal((n, dim))
    if dist == "normal-shifted":
        return rng.normal(-1.0, 1.0, size=(n, dim))
    return rng.uniform(-1.0, 1.0, size=(n, dim))


def _boxes_in_dtype(domains: list[ClassDomain]) -> list[ClassDomain]:
    """The boxes with each bound rounded outward to the nearest DTYPE value.

    The clamp runs in DTYPE, so with these bounds the clamp, `contains` and the
    checkpoint see the same numbers, and each box still holds every sample it
    held before.
    """
    out = []
    for dom in domains:
        lo, hi = dom.lower.astype(DTYPE), dom.upper.astype(DTYPE)
        lo = np.where(lo > dom.lower, np.nextafter(lo, DTYPE(-np.inf)), lo)
        hi = np.where(hi < dom.upper, np.nextafter(hi, DTYPE(np.inf)), hi)
        out.append(ClassDomain(dom.class_id, lo, hi))
    return out


class _Freezer:
    """Holds every player but `active` fixed for the with block.

    The others' parameters get `requires_grad` False: the engine treats them
    as constants, so backward gives them no gradient, and a batch norm among
    them leaves its running statistics alone. On exit, also when the block
    raises, every parameter is trainable again. This is the only code that
    sets `requires_grad` on parameters.
    """

    def __init__(self, players: dict, active: str):
        self.players = players
        self.active = active

    def __enter__(self):
        for name, player in self.players.items():
            for p in player.parameters():
                p.requires_grad = name == self.active

    def __exit__(self, *exc):
        for player in self.players.values():
            for p in player.parameters():
                p.requires_grad = True


@blas.single_thread()
def train(train_ds: SpectralDataset, config: TrainConfig, checkpoint_dir=None) -> TrainResult:
    """Run the configured game on a normalized training split, on one BLAS thread.

    Every sample must lie in [-1, 1], the range of the generator's tanh and of
    `normalize_pair`. With `checkpoint_dir` set and config.checkpoint_interval
    > 0, a checkpoint file `epoch_<k>.mgsg` is written every interval epochs.
    """
    train_ds.require_all_classes()
    outside = np.abs(train_ds.samples) > 1.0
    if outside.any():  # the generator could not reach it, and the box would pin its bands
        row, band = np.argwhere(outside)[0]
        raise ContractError(f"train: sample {row}, band {band} is {train_ds.samples[row, band]}, "
                            "outside [-1, 1]; normalize the data first (normalize_pair)")
    if config.batch > train_ds.size:
        raise ContractError(
            f"train: batch {config.batch} exceeds training-set size {train_ds.size}"
        )
    n, d = train_ds.class_count, train_ds.band_count
    clamps = ClampLog()

    rng_init = np.random.default_rng([config.seed, 10])
    rng_shuffle = np.random.default_rng([config.seed, 11])
    rng_noise = np.random.default_rng([config.seed, 12])
    rng_class = np.random.default_rng([config.seed, 13])

    priors = class_priors(train_ds, config.prior_mode)
    domains = _boxes_in_dtype(compute_class_domains(train_ds, config.domain_margin))
    lower = np.stack([dom.lower for dom in domains])  # row j: class j's box, for containment
    upper = np.stack([dom.upper for dom in domains])

    model = build_players(config.mode, n, d, config.noise_dim, domains, rng_init)
    players = model.trainable()
    adams = {k: Adam(p.parameters(), lr=config.lr, beta1=config.beta1, beta2=config.beta2)
             for k, p in players.items()}

    runlog = RunLog(meta={
        "config": config.as_dict(),
        "dataset_digest": dataset_digest(train_ds),
        "class_sizes": train_ds.class_sizes().tolist(),
    })
    result = TrainResult(model, priors, runlog, config)

    n_batches = train_ds.size // config.batch
    last_good = None
    worker = None
    if "c" in players:
        worker = _ClassifierWorker(players["c"], adams.pop("c"), train_ds, priors, clamps)
    try:
        for epoch in range(config.epochs):
            tic = time.perf_counter()
            perm = rng_shuffle.permutation(train_ds.size)
            digest = hashlib.sha256(
                np.ascontiguousarray(perm, dtype="<i8").tobytes()).hexdigest()[:16]
            sums = {"loss_d": 0.0, "loss_g": 0.0, "loss_c": 0.0,
                    "d_real": 0.0, "d_fake": 0.0}
            inside = np.zeros(n)
            made = np.zeros(n)
            for b in range(n_batches):
                idx = perm[b * config.batch : (b + 1) * config.batch]
                z = _draw_noise(rng_noise, config.batch, config.noise_dim, config.noise_dist)
                classes = rng_class.choice(n, size=config.batch, p=priors.p_gen)
                with _aborts_at(epoch, b, last_good, worker, clamps):
                    stats = _train_batch(config, players, adams, priors, train_ds, idx, z,
                                         classes, worker, clamps)
                for key in sums:
                    sums[key] += stats[key]
                fake = stats["fake_values"]
                held = np.all((fake >= lower[classes]) & (fake <= upper[classes]), axis=1)
                made += np.bincount(classes, minlength=n)
                inside += np.bincount(classes, weights=held, minlength=n)
            if worker is not None:  # the last batch's C step, one batch behind
                with _aborts_at(epoch, n_batches - 1, last_good, worker, clamps):
                    sums["loss_c"] += worker.result()
                worker.pull_classifier()
            containment = [float(inside[j] / made[j]) if made[j] else None for j in range(n)]
            overall = float(inside.sum() / made.sum()) if made.sum() else 1.0
            runlog.append(EpochRecord(
                epoch=epoch,
                loss_d=sums["loss_d"] / max(n_batches, 1),
                loss_g=sums["loss_g"] / max(n_batches, 1),
                loss_c=sums["loss_c"] / max(n_batches, 1),
                d_real_mean=sums["d_real"] / max(n_batches, 1),
                d_fake_mean=sums["d_fake"] / max(n_batches, 1),
                containment=containment,
                containment_overall=overall,
                data_order_digest=digest,
                wall_clock=time.perf_counter() - tic,
            ))
            last_good = result.checkpoint_bytes()
            if (checkpoint_dir is not None and config.checkpoint_interval > 0
                    and (epoch + 1) % config.checkpoint_interval == 0):
                path = Path(checkpoint_dir) / f"epoch_{epoch + 1}.mgsg"
                path.write_bytes(last_good)
    finally:
        if worker is not None:
            worker.close()
    return result


@contextmanager
def _aborts_at(epoch, batch, last_good, worker, clamps):
    """Raise a non-finite loss as TrainingAborted at (epoch, batch), or at a failed C step's batch."""
    try:
        yield
    except NumericError as exc:
        if worker is not None and worker.failed is not None:
            batch = worker.failed
        raise TrainingAborted(
            f"non-finite loss at epoch {epoch}, batch {batch}: {exc}",
            epoch=epoch, batch=batch, last_good=last_good,
        ) from exc
    finally:
        clamps.warn_once()


def _train_batch(config, players, adams, priors, train_ds, idx, z, classes,
                 worker, clamps) -> dict:
    real_x = ad.const(train_ds.samples[idx], dtype=player_dtype(players["d"]))
    real_y = train_ds.labels[idx]
    # With a worker, C(b) goes to it as soon as batch b exists, and only then is
    # C(b-1)'s reply read, so the worker never waits for this process.
    # C(b-1)'s error wins over one in generating batch b. The loss_c returned is
    # C(b-1)'s and `train` adds the epoch's last, so the sum keeps batch order.
    previous = worker is not None and worker.sent > worker.answered
    try:
        fake = generate(players["g"], z, classes)
        if worker is not None:
            worker.submit(idx, fake.data, classes)
    finally:
        lc_previous = worker.result() if previous else 0.0

    # If D(b) fails, C(b)'s reply is never read; the game's order is D, C, G, so
    # C(b)'s error wins over G(b)'s.
    aux = {}
    ld = _update(players, "d", adams["d"], lambda: loss_d(
        players["d"], real_x, real_y, fake.detach(), classes, priors, train=True, stats=aux,
        clamps=clamps))
    try:
        lg = _update(players, "g", adams["g"], lambda: loss_g(
            players["d"], fake, classes, priors, saturating=config.gen_loss == "saturating",
            train=True, clamps=clamps))
    except Exception:
        if worker is not None:
            worker.result()  # C(b)'s error, if any, replaces G(b)'s
        raise

    # A class head on D reports its own loss_c; otherwise the worker's C step does.
    return {"fake_values": fake.data, "loss_d": ld.item(), "loss_g": lg.item(),
            "loss_c": aux.get("loss_c", lc_previous),
            "d_real": aux["d_real_mean"], "d_fake": aux["d_fake_mean"]}


def _update(players, name, adam, loss_fn) -> ad.Tensor:
    """One optimizer step of player `name` on loss_fn(), the others held fixed."""
    with _Freezer(players, name):
        adam.zero_grad()
        loss = loss_fn()
        ad.backward(loss)
        adam.step()
    return loss


def _serve_classifier(conn, parent_end, cls, adam, train_ds, priors, clamps):
    """Worker loop: a C step per (idx, fake, classes) message, the state per None.

    A step replies (loss, None, clamp hit) or, when it raised, (exception,
    formatted traceback, clamp hit). Returns when the parent closes the pipe.

    The step clears the gradients itself instead of calling `Adam.zero_grad`:
    the per-layer tracer (perfbench/hooks.py), whose hooks a forked worker
    inherits, counts each zero_grad/step pair as the next of the batch's D, C
    and G updates and restarts that count at the generator call, which only
    the parent makes; with zero_grad the worker's count would run past G.
    """
    parent_end.close()  # the forked copy of the parent's end would hold off EOF
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C and closes the pipe
    try:
        while True:
            msg = conn.recv()
            if msg is None:
                conn.send(cls.state_arrays())
                continue
            idx, fake, classes = msg
            try:
                for p in adam.params:
                    p.grad = None
                dtype = player_dtype(cls)
                lc = loss_c(cls, ad.const(train_ds.samples[idx], dtype=dtype),
                            train_ds.labels[idx], ad.const(fake, dtype=dtype), classes, priors,
                            train=True, clamps=clamps)
                ad.backward(lc)
                adam.step()
                reply = (lc.item(), None)
            except Exception as exc:  # sent to the parent, which raises it
                reply = (exc, traceback.format_exc())
            conn.send((*reply, clamps.hit))
    except (EOFError, ConnectionError):
        return


class _ClassifierWorker:
    """The classifier and its optimizer, updated in a forked process.

    The C step reads only real rows and the detached fake batch, and nothing
    flows from it back to D or G, so it can run beside them on the second
    core (threads cannot: the interpreter lock serialises the many small ops).
    Fork, not spawn: the worker starts from the parent's players, training set
    and priors without pickling them. The parent's copy of the classifier is
    brought up to date by `pull_classifier`.

    The worker answers in order. Within an epoch the k-th C step sent is batch
    k's, so the k-th reply read names the batch a failed step is reported at.
    """

    def __init__(self, cls, adam, train_ds, priors, clamps):
        ctx = multiprocessing.get_context("fork")
        self.cls = cls
        self.clamps = clamps
        self.sent = 0      # C steps sent this epoch
        self.answered = 0  # their replies read
        self.failed = None  # batch of the C step whose error `result` raised
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(target=_serve_classifier, daemon=True,
                                args=(child, self.conn, cls, adam, train_ds, priors, clamps))
        self.proc.start()
        child.close()

    def submit(self, idx, fake, classes):
        """Start the next C step on rows idx of the training set and a fake batch."""
        self._send((idx, fake, classes))
        self.sent += 1

    def result(self) -> float:
        """The oldest unanswered C step's loss; raises what the step raised."""
        value, tb, hit = self._recv()
        self.answered += 1
        self.clamps.hit |= hit
        if tb is not None:
            self.failed = self.answered - 1
            raise value from RuntimeError(f"in the classifier worker:\n{tb}")
        return value

    def pull_classifier(self):
        """Copy the worker's classifier weights and running statistics into the parent's arrays.

        Every C step must be answered first; the next C step is batch 0 of a new epoch.
        """
        self._send(None)
        state = self._recv()
        for dst, src in zip(self.cls.state_arrays(), state, strict=True):
            dst[...] = src
        self.sent = self.answered = 0

    def _send(self, msg):
        try:
            self.conn.send(msg)
        except ConnectionError:  # the worker's end is closed
            raise self._exited() from None

    def _recv(self):
        try:
            return self.conn.recv()
        except (EOFError, ConnectionError):  # reset when it died with a message unread
            raise self._exited() from None

    def _exited(self) -> RuntimeError:
        self.proc.join(timeout=1)
        return RuntimeError(f"classifier worker exited (exit code {self.proc.exitcode})")

    def close(self):
        """Close the pipe, so the worker exits, and reap it."""
        self.conn.close()
        self.proc.join(timeout=5)
        if self.proc.is_alive():  # still in a C step whose result is not wanted
            self.proc.terminate()
            self.proc.join()
