"""The three players: class-conditional generator bank, discriminator, classifier.

Each generator in the bank serves exactly one class and its raw tanh output is
projected into that class's per-band box (computed from the class's training
samples) by clamping, so generated samples are contained in the class domain
by construction. The bank stores its N generators' weights stacked as (N, …)
arrays and runs a batch as one op per layer over its rows sorted by class, the
mixture-of-generators layout of MGAN (Hoang et al., ICLR 2018). The
discriminator is a strided conv stack with a sigmoid head; the classifier
extracts features through parallel conv branches with distinct kernel sizes
and ends in an N-way softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DataError, ShapeError
from .layers import BatchNorm1d, Conv1d, ConvTranspose1d, Dense, Layer

MODES = ("mgsgan", "acsgan", "achsgan")


@dataclass
class ArchConfig:
    """Network width/kernel defaults; fixed so checkpoints are reconstructable."""

    gen_channels: tuple = (12, 6)
    disc_channels: tuple = (8, 16)
    disc_kernel: int = 5
    cls_kernels: tuple = (3, 5, 7)
    cls_branch_channels: tuple = (6, 12)
    cls_stride: int = 2
    leaky_slope: float = 0.2


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
    """dense -> reshape -> transpose-conv stack -> tanh, output length d."""

    def __init__(self, in_dim: int, d: int, rng: np.random.Generator,
                 arch: ArchConfig | None = None):
        arch = arch or ArchConfig()
        c0, c1 = arch.gen_channels
        l0, l1 = _upsample_plan(d)
        self.in_dim = in_dim
        self.d = d
        self.c0 = c0
        self.l0 = l0
        self.fc = Dense(in_dim, c0 * l0, rng)
        self.up1 = ConvTranspose1d(c0, c1, 4, rng, stride=2, pad=1, output_length=l1)
        self.up2 = ConvTranspose1d(c1, 1, 4, rng, stride=2, pad=1, output_length=d)
        self.layers: list[Layer] = [self.fc, self.up1, self.up2]

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def set_frozen(self, frozen: bool):
        for layer in self.layers:
            layer.frozen = frozen

    def forward(self, z: ad.Tensor) -> ad.Tensor:
        if z.ndim != 2 or z.shape[1] != self.in_dim:
            raise ShapeError(f"Generator: expected (B, {self.in_dim}) noise, got {z.shape}")
        h = ad.relu(self.fc.forward(z))
        h = ad.reshape(h, (z.shape[0], self.c0, self.l0))
        h = ad.relu(self.up1.forward(h))
        h = self.up2.forward(h)
        return ad.tanh(ad.reshape(h, (z.shape[0], self.d)))


class GeneratorBank:
    """One generator plus one domain box per class; selection is the conditioning.

    The N generators' weights are stacked: each parameter is an (N, …) array
    whose row j belongs to generator j, and `generators[j]`'s layers hold views
    of those rows (the checkpoint reads and writes them one generator at a
    time). A batch is sorted by class and each layer runs as one bank op over
    the class segments, so every row gets the bits its own generator gives.
    """

    def __init__(self, generators: list[Generator], domains: list[ClassDomain],
                 noise_dim: int):
        if not generators or len(generators) != len(domains):
            raise ContractError("GeneratorBank: need exactly one domain per generator")
        self.generators = generators
        self.domains = domains
        self.noise_dim = noise_dim
        self.frozen = False
        self.lower = np.stack([dom.lower for dom in domains])
        self.upper = np.stack([dom.upper for dom in domains])
        per_gen = [g.parameters() for g in generators]
        self.params = [ad.param(np.stack([ps[i].data for ps in per_gen]))
                       for i in range(len(per_gen[0]))]
        for j, ps in enumerate(per_gen):
            for p, stacked in zip(ps, self.params, strict=True):
                p.data = stacked.data[j]

    @property
    def class_count(self) -> int:
        return len(self.generators)

    def parameters(self):
        return list(self.params)

    def set_frozen(self, frozen: bool):
        self.frozen = frozen

    def generate(self, z: ad.Tensor, class_id: int) -> ad.Tensor:
        """Raw tanh output of generator `class_id`, clamped into its box."""
        if not 0 <= class_id < self.class_count:
            raise ContractError(f"generate: class {class_id} out of range [0, {self.class_count})")
        return self.generate_batch(z, np.full(z.shape[0], class_id))

    def generate_batch(self, z: ad.Tensor, classes: np.ndarray) -> ad.Tensor:
        """Each row of z through its class's generator and box, in input order."""
        classes = np.asarray(classes, dtype=np.int64)
        n, b = self.class_count, z.shape[0]
        if z.ndim != 2 or z.shape[1] != self.noise_dim or classes.shape != (b,):
            raise ShapeError(f"generate_batch: noise {z.shape} vs classes {classes.shape}, "
                             f"noise dim {self.noise_dim}")
        if b and not (0 <= classes.min() and classes.max() < n):
            raise ContractError(f"generate_batch: class ids outside [0, {n})")
        order = np.argsort(classes, kind="stable")
        bounds = np.concatenate([[0], np.cumsum(np.bincount(classes, minlength=n))])
        fc_w, fc_b, up1_w, up1_b, up2_w, up2_b = (
            ad.Tensor(p.data) if self.frozen else p for p in self.params)
        g0 = self.generators[0]
        h = ad.relu(ad.bank_dense(ad.permute_rows(z, order), fc_w, fc_b, bounds))
        h = ad.reshape(h, (b, g0.c0, g0.l0))
        h = ad.relu(ad.bank_convt(h, up1_w, up1_b, bounds, stride=g0.up1.stride,
                                  pad=g0.up1.pad, output_length=g0.up1.output_length))
        h = ad.bank_convt(h, up2_w, up2_b, bounds, stride=g0.up2.stride, pad=g0.up2.pad,
                          output_length=g0.up2.output_length)
        raw = ad.tanh(ad.reshape(h, (b, g0.d)))
        rows = classes[order]
        boxed = ad.clamp(raw, self.lower[rows], self.upper[rows])
        return ad.permute_rows(boxed, np.argsort(order))


class Discriminator:
    """conv stack -> dense head; n_out=1 gives the real/fake sigmoid player."""

    def __init__(self, d: int, rng: np.random.Generator, n_out: int = 1,
                 arch: ArchConfig | None = None):
        arch = arch or ArchConfig()
        c1, c2 = arch.disc_channels
        k = arch.disc_kernel
        self.d = d
        self.n_out = n_out
        self.slope = arch.leaky_slope
        self.conv1 = Conv1d(1, c1, k, rng, stride=2, pad=k // 2)
        self.conv2 = Conv1d(c1, c2, k, rng, stride=2, pad=k // 2)
        self.bn = BatchNorm1d(c2)
        l1 = (d + 2 * (k // 2) - k) // 2 + 1
        l2 = (l1 + 2 * (k // 2) - k) // 2 + 1
        self.feat = c2 * l2
        self.head = Dense(self.feat, n_out, rng)
        self.layers: list[Layer] = [self.conv1, self.conv2, self.bn, self.head]

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def set_frozen(self, frozen: bool):
        for layer in self.layers:
            layer.frozen = frozen

    def logits(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ShapeError(f"Discriminator: expected (B, {self.d}) input, got {x.shape}")
        h = ad.reshape(x, (x.shape[0], 1, self.d))
        h = ad.leaky_relu(self.conv1.forward(h), self.slope)
        h = ad.leaky_relu(self.bn.forward(self.conv2.forward(h), train), self.slope)
        h = ad.reshape(h, (x.shape[0], self.feat))
        return self.head.forward(h)

    def prob(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        """P(real) per sample, shape (B,). Only valid for n_out == 1."""
        if self.n_out != 1:
            raise ContractError("prob: adversarial head needs n_out == 1")
        return ad.sigmoid(ad.reshape(self.logits(x, train), (x.shape[0],)))


def discriminate(disc: Discriminator, x: np.ndarray) -> float:
    """Probability that a single spectrum is real (eval mode)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (disc.d,):
        raise ShapeError(f"discriminate: expected shape ({disc.d},), got {x.shape}")
    with ad.no_grad():
        return float(disc.prob(ad.const(x[None, :]), train=False).data[0])


class Classifier:
    """Parallel conv branches with distinct kernel sizes feeding an N-way softmax."""

    def __init__(self, d: int, n_classes: int, rng: np.random.Generator,
                 arch: ArchConfig | None = None):
        arch = arch or ArchConfig()
        self.d = d
        self.n_classes = n_classes
        self.slope = arch.leaky_slope
        cb1, cb2 = arch.cls_branch_channels
        s = arch.cls_stride
        self.branches = []
        feat = 0
        for k in arch.cls_kernels:
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
        self.layers: list[Layer] = [
            layer for br in self.branches for layer in br[:3]
        ] + [self.head]

    def parameters(self):
        return [p for layer in self.layers for p in layer.parameters()]

    def set_frozen(self, frozen: bool):
        for layer in self.layers:
            layer.frozen = frozen

    def logits(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        if x.ndim != 2 or x.shape[1] != self.d:
            raise ShapeError(f"Classifier: expected (B, {self.d}) input, got {x.shape}")
        h0 = ad.reshape(x, (x.shape[0], 1, self.d))
        feats = []
        for conv_a, conv_b, bn, width in self.branches:
            h = ad.leaky_relu(conv_a.forward(h0), self.slope)
            h = ad.leaky_relu(bn.forward(conv_b.forward(h), train), self.slope)
            feats.append(ad.reshape(h, (x.shape[0], width)))
        return self.head.forward(ad.concat(feats, axis=1))

    def probs(self, x: ad.Tensor, train: bool) -> ad.Tensor:
        return ad.softmax(self.logits(x, train), axis=1)


def classify(cls: Classifier, x: np.ndarray) -> np.ndarray:
    """Softmax class probabilities for a single spectrum (eval mode)."""
    x = np.asarray(x, dtype=np.float64)
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
        logits = self.disc.logits(x, train)
        cls_logits = _take_cols(logits, np.arange(self.n_classes))
        return ad.softmax(cls_logits, axis=1)


def _take_cols(x: ad.Tensor, cols: np.ndarray) -> ad.Tensor:
    out = x.data[:, cols]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[:, cols] = g
        return (gx,)

    return ad._make(out, (x,), vjp, "take_cols")


def predict_labels(cls, samples: np.ndarray, batch: int = 256) -> np.ndarray:
    """Argmax class predictions in eval mode, batched over the sample matrix."""
    samples = np.asarray(samples, dtype=np.float64)
    preds = np.empty(samples.shape[0], dtype=np.int64)
    with ad.no_grad():
        for start in range(0, samples.shape[0], batch):
            chunk = samples[start : start + batch]
            probs = cls.probs(ad.const(chunk), train=False)
            preds[start : start + chunk.shape[0]] = probs.data.argmax(axis=1)
    return preds


def build_generator_bank(n_classes: int, d: int, noise_dim: int,
                         domains: list[ClassDomain], rng: np.random.Generator,
                         arch: ArchConfig | None = None) -> GeneratorBank:
    gens = [Generator(noise_dim, d, rng, arch) for _ in range(n_classes)]
    return GeneratorBank(gens, domains, noise_dim)


def build_conditional_generator(n_classes: int, d: int, noise_dim: int,
                                rng: np.random.Generator,
                                arch: ArchConfig | None = None) -> Generator:
    """Single generator conditioned by concatenating a one-hot class code to z."""
    return Generator(noise_dim + n_classes, d, rng, arch)


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

    def networks(self) -> list:
        """Checkpoint network order: the generator(s), D, then a separate classifier."""
        gen, *rest = self.trainable().values()
        return (list(gen.generators) if isinstance(gen, GeneratorBank) else [gen]) + rest


def generator_plan(mode: str, n: int, noise_dim: int) -> tuple[int, int]:
    """(count, input width) of the generators `build_players` makes for `mode`.

    mgsgan has one generator per class fed the noise; the other modes have one
    fed the noise and a one-hot class code.
    """
    return (n, noise_dim) if mode == "mgsgan" else (1, noise_dim + n)


def build_players(mode: str, n: int, d: int, noise_dim: int, domains: list[ClassDomain],
                  rng: np.random.Generator, arch: ArchConfig | None = None) -> Players:
    """The players of `mode`, initialised from rng in the order G, D, C.

    mgsgan: one generator per class plus its box; acsgan: one generator
    conditioned by a one-hot class code; achsgan: the acsgan generator and a
    discriminator with N+1 outputs whose first N act as the classifier.
    """
    if mode not in MODES:
        raise ContractError(f"build_players: unknown mode {mode!r}")
    if mode == "mgsgan":
        gen = build_generator_bank(n, d, noise_dim, domains, rng, arch)
    else:
        gen = build_conditional_generator(n, d, noise_dim, rng, arch)
    if mode == "achsgan":
        disc = Discriminator(d, rng, n_out=n + 1, arch=arch)
        return Players(gen, disc, HeadClassifier(disc, n))
    disc = Discriminator(d, rng, n_out=1, arch=arch)
    return Players(gen, disc, Classifier(d, n, rng, arch))


def generate(gen: GeneratorBank | Generator, z: np.ndarray, classes: np.ndarray) -> ad.Tensor:
    """Fake samples of `classes` from noise z: one generator call for the whole batch.

    A bank picks each row's class generator and box; a conditional generator
    reads the one-hot class code appended to z.
    """
    if isinstance(gen, GeneratorBank):
        return gen.generate_batch(ad.const(z), classes)
    onehot = np.eye(gen.in_dim - z.shape[1])[classes]
    return gen.forward(ad.const(np.concatenate([z, onehot], axis=1)))
