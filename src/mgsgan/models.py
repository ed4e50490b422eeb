"""The three players: a generator stack, a discriminator and a classifier.

Every mode's generator is a stack of experts of one architecture whose weights
are stacked as (experts, …) arrays, the mixture-of-generators layout of MGAN
(Hoang et al., ICLR 2018). mgsgan's stack has one expert per class: its bank
sorts a batch by class, runs each expert on its class's rows with one op per
layer, and projects each raw tanh output into its class's per-band box
(computed from the class's training samples) by clamping, so generated samples
are contained in the class domain by construction. acsgan and achsgan use a
one-expert stack fed the noise and a one-hot class code. The discriminator is
a strided conv stack with a sigmoid head; achsgan's has N+1 outputs, the first
N a softmax class head that serves as its classifier. The classifier of the
other modes extracts features through parallel conv branches with distinct
kernel sizes and ends in an N-way softmax.

The players train and predict in DTYPE (f32). `build_players` is the one place
that casts: it casts every parameter and batch-norm running statistic, and
every other input (noise, samples, fake rows) is cast to the dtype of the
parameters of the player it enters. The ops and layers themselves keep their
inputs' dtype, f64 by default, so a player built from its layers by hand
stays f64.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from . import blas
from .errors import ContractError, DataError, ShapeError
from .layers import BatchNorm1d, Conv1d, Dense, xavier_init

MODES = ("mgsgan", "acsgan", "achsgan")

# The architecture is fixed. A checkpoint holds layer shapes, not these values,
# and loading rebuilds the players from them and checks the shapes agree.
GEN_CHANNELS = (12, 6)
GEN_KERNEL, GEN_STRIDE, GEN_PAD = 4, 2, 1  # each transpose conv doubles the length
DISC_CHANNELS = (8, 16)
DISC_KERNEL = 5
CLS_KERNELS = (3, 5, 7)
CLS_BRANCH_CHANNELS = (6, 12)
CLS_STRIDE = 2
LEAKY_SLOPE = 0.2

# The precision the players train and predict in. A checkpoint stores f32
# weights and boxes, so f64 training bought no precision that a save keeps.
DTYPE = np.float32


@dataclass
class ClassDomain:
    """Per-band box occupied by one class's training samples."""

    class_id: int
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=np.float64)
        self.upper = np.asarray(self.upper, dtype=np.float64)
        if self.lower.shape != self.upper.shape:
            raise ShapeError(
                f"ClassDomain: bound shapes differ, {self.lower.shape} and {self.upper.shape}"
            )
        if np.any(self.lower > self.upper):
            raise ContractError(f"ClassDomain: lower > upper for class {self.class_id}")

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Row-wise exact containment test for samples shaped (M, d) or (d,)."""
        x = np.atleast_2d(x)
        return np.all((x >= self.lower) & (x <= self.upper), axis=1)


def compute_class_domains(train, margin: float = 0.0) -> list[ClassDomain]:
    """Per-band min/max boxes per class, widened by margin * band range each side."""
    if margin < 0:
        raise ContractError(f"compute_class_domains: margin must be >= 0, got {margin}")
    domains = []
    for j in range(train.class_count):
        rows = train.samples[train.labels == j]
        if rows.shape[0] == 0:
            raise DataError(f"compute_class_domains: class {j} has no training samples")
        lo = rows.min(axis=0)
        hi = rows.max(axis=0)
        width = hi - lo
        domains.append(ClassDomain(j, lo - margin * width, hi + margin * width))
    return domains


def _upsample_plan(d: int) -> tuple[int, int]:
    """Lengths (L0, L1) so two stride-2 k=4 p=1 transpose convs reach exactly d."""
    if d < 4:
        raise ContractError(f"generator needs at least 4 bands, got {d}")
    l1 = d // 2
    l0 = l1 // 2
    return l0, l1


class Generator:
    """A stack of generators ("experts"): dense -> reshape -> two transpose convs -> tanh.

    Each of the six parameters is an (experts, …) array whose row j belongs to
    expert j. A batch sorted into expert segments runs as one bank op per
    layer, so every row gets the bits its own expert alone would give it. The
    conditional generator of acsgan and achsgan is a one-expert stack.
    """

    def __init__(self, in_dim: int, d: int, rng: np.random.Generator, experts: int):
        if experts < 1:
            raise ContractError(f"Generator: needs at least one expert, got {experts}")
        c0, c1 = GEN_CHANNELS
        l0, l1 = _upsample_plan(d)
        self.in_dim = in_dim
        self.d = d
        self.experts = experts
        self.c0 = c0
        self.l0 = l0
        # (C_in, C_out, output length) of the two transpose convs
        self.ups = ((c0, c1, l1), (c1, 1, d))
        k = GEN_KERNEL
        # expert by expert, dense before the convs: the draws of separate layers
        draws = [[xavier_init(in_dim, c0 * l0, rng)]
                 + [xavier_init(ci * k, co * k, rng, shape=(ci, co, k)) for ci, co, _ in self.ups]
                 for _ in range(experts)]
        self.params = []
        for w in map(np.stack, zip(*draws)):
            self.params += [ad.param(w), ad.param(np.zeros((experts, w.shape[2])))]

    def parameters(self):
        return list(self.params)

    def forward(self, z: ad.Tensor) -> ad.Tensor:
        """Every row of z through the single expert: the conditional generator."""
        if z.ndim != 2 or z.shape[1] != self.in_dim:
            raise ShapeError(f"Generator: expected (B, {self.in_dim}) noise, got {z.shape}")
        if self.experts != 1:
            raise ContractError(f"Generator.forward: needs one expert, the stack has {self.experts}")
        return self.forward_segments(z, [0, z.shape[0]])

    def forward_segments(self, z: ad.Tensor, bounds) -> ad.Tensor:
        """Raw tanh output of rows bounds[j]:bounds[j+1] of z through expert j."""
        b = z.shape[0]
        fc_w, fc_b, up1_w, up1_b, up2_w, up2_b = self.params
        (_, _, l1), (_, _, d) = self.ups
        h = ad.relu(ad.bank_dense(z, fc_w, fc_b, bounds))
        h = ad.reshape(h, (b, self.c0, self.l0))
        h = ad.relu(ad.bank_convt(h, up1_w, up1_b, bounds, stride=GEN_STRIDE, pad=GEN_PAD,
                                  output_length=l1))
        h = ad.bank_convt(h, up2_w, up2_b, bounds, stride=GEN_STRIDE, pad=GEN_PAD,
                          output_length=d)
        return ad.tanh(ad.reshape(h, (b, d)))


def _class_ids(classes, n: int, who: str) -> np.ndarray:
    """`classes` as int64 class ids; ContractError if one lies outside [0, n)."""
    classes = np.asarray(classes, dtype=np.int64)
    if classes.size and not (0 <= classes.min() and classes.max() < n):
        raise ContractError(f"{who}: class ids outside [0, {n})")
    return classes


class GeneratorBank:
    """A generator stack with one expert and one domain box per class.

    Selection is the conditioning: a batch is sorted by class, expert j runs
    class j's rows, and each row is clamped into its class's box and put back
    in input order.
    """

    def __init__(self, generator: Generator, domains: list[ClassDomain]):
        if generator.experts != len(domains):
            raise ContractError("GeneratorBank: need exactly one domain per expert")
        self.generator = generator
        self.domains = domains
        self.lower = np.stack([dom.lower for dom in domains])
        self.upper = np.stack([dom.upper for dom in domains])

    def parameters(self):
        return self.generator.parameters()

    def generate_batch(self, z: ad.Tensor, classes: np.ndarray) -> ad.Tensor:
        """Each row of z through its class's expert and box, in input order."""
        n, b, width = self.generator.experts, z.shape[0], self.generator.in_dim
        classes = _class_ids(classes, n, "generate_batch")
        if z.ndim != 2 or z.shape[1] != width or classes.shape != (b,):
            raise ShapeError(f"generate_batch: noise {z.shape} vs classes {classes.shape}, "
                             f"noise dim {width}")
        order = np.argsort(classes, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(classes, minlength=n))])
        raw = self.generator.forward_segments(ad.permute_rows(z, order), bounds)
        rows = classes[order]
        boxed = ad.clamp(raw, self.lower[rows], self.upper[rows])
        return ad.permute_rows(boxed, np.argsort(order))


class Discriminator:
    """conv stack -> dense head; n_out=1 gives the real/fake sigmoid player."""

    def __init__(self, d: int, rng: np.random.Generator, n_out: int = 1):
        c1, c2 = DISC_CHANNELS
        k = DISC_KERNEL
        self.d = d
        self.n_out = n_out
        self.conv1 = Conv1d(1, c1, k, rng, stride=2, pad=k // 2)
        self.conv2 = Conv1d(c1, c2, k, rng, stride=2, pad=k // 2)
        self.bn = BatchNorm1d(c2)
        l1 = (d + 2 * (k // 2) - k) // 2 + 1
        l2 = (l1 + 2 * (k // 2) - k) // 2 + 1
        self.feat = c2 * l2
        self.head = Dense(self.feat, n_out, rng)
        self.layers = [self.conv1, self.conv2, self.bn, self.head]

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def logits(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ShapeError(f"Discriminator: expected (B, {self.d}) input, got {x.shape}")
        h = ad.reshape(x, (x.shape[0], 1, self.d))
        h = ad.leaky_relu(self.conv1.forward(h), LEAKY_SLOPE)
        h = ad.leaky_relu(self.bn.forward(self.conv2.forward(h), train), LEAKY_SLOPE)
        h = ad.reshape(h, (x.shape[0], self.feat))
        return self.head.forward(h)

    def heads(self, x: ad.Tensor, train: bool) -> tuple[ad.Tensor, ad.Tensor | None]:
        """One forward pass: P(real) per sample, shape (B,), and the class head's
        (B, N) softmax over the first N of N+1 outputs, or None when n_out == 1."""
        logits = self.logits(x, train)
        if self.n_out == 1:
            return ad.sigmoid(ad.reshape(logits, (x.shape[0],))), None
        n = self.n_out - 1
        adv = ad.sigmoid(ad.reshape(_take_cols(logits, np.array([n])), (x.shape[0],)))
        return adv, ad.softmax(_take_cols(logits, np.arange(n)), axis=1)

    def prob(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        """P(real) per sample, shape (B,)."""
        return self.heads(x, train)[0]


def player_dtype(player):
    """The dtype of a player's parameters, which every input to it is cast to."""
    return player.parameters()[0].data.dtype


def discriminate(disc: Discriminator, x: np.ndarray) -> float:
    """Probability that a single spectrum is real (eval mode)."""
    x = np.asarray(x, dtype=player_dtype(disc))
    if x.shape != (disc.d,):
        raise ShapeError(f"discriminate: expected shape ({disc.d},), got {x.shape}")
    with ad.no_grad():
        return float(disc.prob(ad.const(x[None, :]), train=False).data[0])


class Classifier:
    """Parallel conv branches with distinct kernel sizes feeding an N-way softmax."""

    def __init__(self, d: int, n_classes: int, rng: np.random.Generator):
        self.d = d
        self.n_classes = n_classes
        cb1, cb2 = CLS_BRANCH_CHANNELS
        s = CLS_STRIDE
        self.branches = []
        feat = 0
        for k in CLS_KERNELS:
            p = (k - 1) // 2
            conv_a = Conv1d(1, cb1, k, rng, stride=s, pad=p)
            conv_b = Conv1d(cb1, cb2, k, rng, stride=s, pad=p)
            bn = BatchNorm1d(cb2)
            l1 = (d + 2 * p - k) // s + 1
            l2 = (l1 + 2 * p - k) // s + 1
            feat += cb2 * l2
            self.branches.append((conv_a, conv_b, bn, cb2 * l2))
        self.feat = feat
        self.head = Dense(feat, n_classes, rng)
        self.layers = [layer for br in self.branches for layer in br[:3]] + [self.head]

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def logits(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ShapeError(f"Classifier: expected (B, {self.d}) input, got {x.shape}")
        h0 = ad.reshape(x, (x.shape[0], 1, self.d))
        feats = []
        for conv_a, conv_b, bn, width in self.branches:
            h = ad.leaky_relu(conv_a.forward(h0), LEAKY_SLOPE)
            h = ad.leaky_relu(bn.forward(conv_b.forward(h), train), LEAKY_SLOPE)
            feats.append(ad.reshape(h, (x.shape[0], width)))
        return self.head.forward(ad.concat(feats, axis=1))

    def probs(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        return ad.softmax(self.logits(x, train), axis=1)


def classify(cls: Classifier, x: np.ndarray) -> np.ndarray:
    """Softmax class probabilities for a single spectrum (eval mode)."""
    x = np.asarray(x, dtype=player_dtype(cls))
    if x.shape != (cls.d,):
        raise ShapeError(f"classify: expected shape ({cls.d},), got {x.shape}")
    with ad.no_grad():
        return cls.probs(ad.const(x[None, :]), train=False).data[0]


class HeadClassifier:
    """Classifier facade over a multi-head discriminator's first N outputs."""

    def __init__(self, disc: Discriminator, n_classes: int):
        if disc.n_out != n_classes + 1:
            raise ContractError(
                f"HeadClassifier: discriminator has {disc.n_out} outputs, expected {n_classes + 1}"
            )
        self.disc = disc
        self.d = disc.d
        self.n_classes = n_classes

    def parameters(self):
        return self.disc.parameters()

    def probs(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        return self.disc.heads(x, train)[1]


def _take_cols(x: ad.Tensor, cols: np.ndarray) -> ad.Tensor:
    out = x.data[:, cols]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, cols] = g
        return (gx,)

    return ad._make(out, (x,), vjp, "take_cols")


def predict_labels(cls, samples: np.ndarray, batch: int = 256) -> np.ndarray:
    """Argmax class predictions in eval mode, batched over the sample matrix.

    The batches run on a thread pool, one thread per usable CPU and at most
    one per batch: numpy's kernels release the interpreter lock, and each
    batch keeps the rows, shapes and kernels it has on one thread, so the
    labels are the same. OpenBLAS runs one thread per call meanwhile, and
    no_grad is entered here, in the calling thread, because its flag is
    global to the process.
    """
    samples = np.asarray(samples, dtype=player_dtype(cls))
    preds = np.empty(samples.shape[0], dtype=np.int64)
    starts = range(0, samples.shape[0], batch)

    def predict(start):
        probs = cls.probs(ad.const(samples[start : start + batch]), train=False)
        preds[start : start + batch] = probs.data.argmax(axis=1)

    workers = max(1, min(_usable_cpus(), len(starts)))
    with ad.no_grad(), blas.single_thread(), ThreadPoolExecutor(workers) as pool:
        for _ in pool.map(predict, starts):  # re-raises a batch's error
            pass
    return preds


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Players(NamedTuple):
    """One mode's generator, discriminator and classifier."""

    generator: GeneratorBank | Generator
    discriminator: Discriminator
    classifier: Classifier | HeadClassifier

    def trainable(self) -> dict:
        """The players that own parameters, keyed g/d/c; a head classifier is part of D."""
        out = {"g": self.generator, "d": self.discriminator}
        if not isinstance(self.classifier, HeadClassifier):
            out["c"] = self.classifier
        return out


def generator_plan(mode: str, n: int, noise_dim: int) -> tuple[int, int]:
    """(experts, input width) of the generator stack `build_players` makes for `mode`.

    mgsgan has one expert per class fed the noise; the other modes have one
    fed the noise and a one-hot class code.
    """
    return (n, noise_dim) if mode == "mgsgan" else (1, noise_dim + n)


def build_players(mode: str, n: int, d: int, noise_dim: int, domains: list[ClassDomain],
                  rng: np.random.Generator) -> Players:
    """The players of `mode`, initialised from rng in the order G, D, C, in DTYPE.

    mgsgan: one expert per class plus its box; acsgan: one generator
    conditioned by a one-hot class code; achsgan: the acsgan generator and a
    discriminator with N+1 outputs whose first N act as the classifier.
    The weights are drawn in f64 and then cast, so the draws do not depend on
    DTYPE.
    """
    if mode not in MODES:
        raise ContractError(f"build_players: unknown mode {mode!r}")
    experts, width = generator_plan(mode, n, noise_dim)
    gen = Generator(width, d, rng, experts)
    if mode == "mgsgan":
        gen = GeneratorBank(gen, domains)
    if mode == "achsgan":
        disc = Discriminator(d, rng, n_out=n + 1)
        players = Players(gen, disc, HeadClassifier(disc, n))
    else:
        disc = Discriminator(d, rng, n_out=1)
        players = Players(gen, disc, Classifier(d, n, rng))
    for player in players.trainable().values():
        for p in player.parameters():
            p.data = p.data.astype(DTYPE)
        for layer in getattr(player, "layers", []):  # the generator has no batch norm
            if isinstance(layer, BatchNorm1d):
                layer.running_mean = layer.running_mean.astype(DTYPE)
                layer.running_var = layer.running_var.astype(DTYPE)
    return players


def generate(gen: GeneratorBank | Generator, z: np.ndarray, classes: np.ndarray) -> ad.Tensor:
    """Fake samples of `classes` from noise z: one generator call for the whole batch.

    A bank picks each row's class generator and box; a conditional generator
    reads the one-hot class code appended to z. The input is cast to the
    generator's dtype.
    """
    dtype = player_dtype(gen)
    if isinstance(gen, GeneratorBank):
        return gen.generate_batch(ad.const(z, dtype=dtype), classes)
    n = gen.in_dim - z.shape[1]
    onehot = np.eye(n)[_class_ids(classes, n, "generate")]
    return gen.forward(ad.const(np.concatenate([z, onehot], axis=1), dtype=dtype))
