"""Dataset ingestion, normalization, stratified splitting and synthetic spectra.

File formats
------------
CSV: header line "d=<int>,N=<int>", then one row per sample holding d floats
followed by an integer label in [0, N). A field may be padded with whitespace,
and blank and whitespace-only lines are skipped. numpy's C reader
(`np.loadtxt`) parses the body when every line is a row of d + 1 fields in
ASCII decimal notation with an integer label, and the samples are finite, the
labels in range and every class present. Any other text falls back to a loop
of Python's float() and int() per line: a whitespace-only line, an underscore
in a number ("1_0"), a non-ASCII digit, a label written "1.0", a row of the
wrong length, an empty body. The loop reads what it can and raises the
DataError naming the line for what it cannot, so both readers give a file the
same samples and labels, bit for bit, or the same error.

BIN: little-endian; magic "MGSD", version u32, M u32, d u32, N u32, a u8 flag
for the normalization record (followed, when set, by two f64 arrays of length
d: the per-band minima and maxima the normalization was fitted on), then the
sample matrix as f64 row-major and the labels as i64. Lossless for the
in-memory representation, so save -> load round-trips bit-identically.

Normalization maps each band to [-1, 1] via the min/max of the split it was
fitted on; applying it to other data clips into [-1, 1].
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .losses import ClassPriors

_BIN_MAGIC = b"MGSD"
_BIN_VERSION = 1


@dataclass
class Normalization:
    """Per-band min/max record used to map raw band values into [-1, 1]."""

    band_min: np.ndarray
    band_max: np.ndarray

    def apply(self, samples: np.ndarray) -> np.ndarray:
        span = np.where(self.band_max > self.band_min, self.band_max - self.band_min, 1.0)
        # 2 (x - min) / span - 1, clipped, with the formula's rounding steps in
        # one buffer: no temporary the size of the samples
        scaled = np.subtract(samples, self.band_min, dtype=np.float64)
        np.multiply(scaled, 2.0, out=scaled)
        np.divide(scaled, span, out=scaled)
        np.subtract(scaled, 1.0, out=scaled)
        return np.clip(scaled, -1.0, 1.0, out=scaled)


@dataclass
class SpectralDataset:
    """Labeled band vectors; samples is (M, d), labels is (M,) ints in [0, N)."""

    samples: np.ndarray
    labels: np.ndarray
    class_count: int
    normalization: Normalization | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.samples.ndim != 2 or self.labels.shape != (self.samples.shape[0],):
            raise DataError(
                f"SpectralDataset: samples {self.samples.shape} vs labels {self.labels.shape}"
            )
        if self.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError(f"SpectralDataset: label out of range [0, {self.class_count})")
        if not np.isfinite(self.samples).all():  # argwhere costs 9x more; only to name it
            row, band = np.argwhere(~np.isfinite(self.samples))[0]
            raise DataError(f"SpectralDataset: sample {row} (counted from 0), band {band} "
                            f"is {self.samples[row, band]}")

    @property
    def size(self) -> int:
        return self.samples.shape[0]

    @property
    def band_count(self) -> int:
        return self.samples.shape[1]

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.class_count)

    def require_all_classes(self):
        sizes = self.class_sizes()
        missing = np.flatnonzero(sizes == 0)
        if missing.size:
            raise DataError(f"dataset is missing class {int(missing[0])}")


@dataclass
class SplitSpec:
    """Stratified train/test split request; tttr is the training fraction."""

    tttr: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.tttr < 1.0:
            raise ContractError(f"SplitSpec: tttr must lie in (0, 1), got {self.tttr}")
        if self.seed < 0:
            raise ContractError(f"SplitSpec: seed must be >= 0, got {self.seed}")


def split_tttr(ds: SpectralDataset, spec: SplitSpec) -> tuple[SpectralDataset, SpectralDataset]:
    """Disjoint, exhaustive, per-class stratified split, deterministic per seed."""
    ds.require_all_classes()
    rng = np.random.default_rng([spec.seed, 0x5011])
    train_idx, test_idx = [], []
    for j in range(ds.class_count):
        idx = np.flatnonzero(ds.labels == j)
        k = max(1, int(math.floor(spec.tttr * idx.size + 0.5)))
        perm = rng.permutation(idx.size)
        train_idx.append(idx[perm[:k]])
        test_idx.append(idx[perm[k:]])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    train = SpectralDataset(ds.samples[tr], ds.labels[tr], ds.class_count)
    test = SpectralDataset(ds.samples[te], ds.labels[te], ds.class_count)
    return train, test


def dataset_digest(ds: SpectralDataset) -> str:
    """Short sha256 of the samples and labels; a run log records its training split's."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.samples, dtype="<f8").tobytes())
    h.update(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())
    return h.hexdigest()[:16]


def fit_normalization(train: SpectralDataset) -> Normalization:
    return Normalization(train.samples.min(axis=0).copy(), train.samples.max(axis=0).copy())


def normalize_pair(train: SpectralDataset, test: SpectralDataset
                   ) -> tuple[SpectralDataset, SpectralDataset]:
    """Fit the band scaling on train only and apply it to both splits."""
    norm = fit_normalization(train)
    train_n = SpectralDataset(norm.apply(train.samples), train.labels.copy(),
                              train.class_count, normalization=norm)
    test_n = SpectralDataset(norm.apply(test.samples), test.labels.copy(),
                             test.class_count, normalization=norm)
    return train_n, test_n


def class_priors(train: SpectralDataset, mode: str = "empirical") -> ClassPriors:
    """Empirical class frequencies of the split (or the uniform ablation)."""
    if train.size == 0:
        raise ContractError("class_priors: empty training split")
    if mode == "uniform":
        return ClassPriors.uniform(train.class_count)
    if mode != "empirical":
        raise ContractError(f"class_priors: unknown mode {mode!r}")
    return ClassPriors.from_counts(train.class_sizes())


# ---------------------------------------------------------------------------
# file formats

def save_csv(path, ds: SpectralDataset):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"d={ds.band_count},N={ds.class_count}\n")
        for row, label in zip(ds.samples, ds.labels):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(label)}\n")


def load_csv(path) -> SpectralDataset:
    try:
        return _read_csv(path)
    except UnicodeDecodeError as exc:  # a binary file, say a checkpoint
        raise DataError(f"{path}: not a UTF-8 text CSV file ({exc.reason})") from None


def _read_csv(path) -> SpectralDataset:
    """numpy's C reader's dataset when it takes the body and the data passes its
    checks; otherwise the per-line loop's, which also words every error."""
    with open(path, "r", encoding="utf-8") as fh:
        d, n = _read_header(fh, path)
        # A body too short for one row of d + 1 fields is refused without the C
        # reader, whose set-up costs memory per column before it reads a row.
        body = None
        if 2 * d + 1 <= os.fstat(fh.fileno()).st_size:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # an empty body; "1.0" as a label on old numpy
                    body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=1,
                                      dtype=[("samples", "f8", (d,)), ("label", "i8")])
            except (ValueError, Warning):
                pass
    if body is not None and n <= body.size:  # else the loop words the error
        try:
            ds = SpectralDataset(np.ascontiguousarray(body["samples"]),
                                 np.ascontiguousarray(body["label"]), n)
            ds.require_all_classes()
            return ds
        except DataError:
            pass
    return _read_csv_lines(path)


def _read_header(fh, path) -> tuple[int, int]:
    """(d, N) from the header line "d=<int>,N=<int>"."""
    header = fh.readline().strip()
    try:
        d_part, n_part = header.split(",")
        d = int(d_part.removeprefix("d="))
        n = int(n_part.removeprefix("N="))
        if d_part[:2] != "d=" or n_part[:2] != "N=" or d < 1 or n < 1:
            raise ValueError
    except ValueError:
        raise DataError(f"{path}: line 1: expected header 'd=<int>,N=<int>', got {header!r}")
    return d, n


def _read_csv_lines(path) -> SpectralDataset:
    """The CSV read one line and one Python float() at a time."""
    with open(path, "r", encoding="utf-8") as fh:
        d, n = _read_header(fh, path)
        samples, labels = [], []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != d + 1:
                raise DataError(f"{path}: line {lineno}: expected {d + 1} fields, got {len(parts)}")
            try:
                samples.append([float(v) for v in parts[:d]])
                labels.append(int(parts[d]))
            except ValueError as exc:
                raise DataError(f"{path}: line {lineno}: {exc}")
            if not 0 <= labels[-1] < n:
                raise DataError(f"{path}: line {lineno}: label {labels[-1]} out of range [0, {n})")
    if n > len(labels):  # before require_all_classes counts N classes
        raise DataError(f"{path}: header N={n} exceeds the {len(labels)} rows; "
                        "N classes need 1 <= N <= M rows")
    ds = SpectralDataset(np.asarray(samples, dtype=np.float64).reshape(len(samples), d),
                         np.asarray(labels, dtype=np.int64), n)
    ds.require_all_classes()
    return ds


def save_bin(path, ds: SpectralDataset):
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<IIII", _BIN_VERSION, ds.size, ds.band_count, ds.class_count))
        fh.write(struct.pack("<B", 1 if ds.normalization is not None else 0))
        if ds.normalization is not None:
            fh.write(np.ascontiguousarray(ds.normalization.band_min, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(ds.normalization.band_max, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.samples, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(ds.labels, dtype="<i8").tobytes())


def load_bin(path) -> SpectralDataset:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(4 + 16 + 1)
        if head[:4] != _BIN_MAGIC:
            raise DataError(f"{path}: bad magic, not a dataset file")
        if len(head) < 4 + 16 + 1:
            raise DataError(f"{path}: truncated dataset header ({size} bytes)")
        version, m, d, n, has_norm = struct.unpack_from("<IIIIB", head, 4)
        if version != _BIN_VERSION:
            raise DataError(f"{path}: unsupported dataset format version {version}")
        # Every size is checked against the file before anything is allocated.
        if has_norm not in (0, 1) or d < 1 or not 1 <= n <= m:
            raise DataError(f"{path}: corrupt dataset header (M={m}, d={d}, N={n}, "
                            f"normalization flag {has_norm}); N classes need 1 <= N <= M rows")
        need = len(head) + 16 * d * has_norm + 8 * m * d + 8 * m
        if size != need:
            raise DataError(f"{path}: truncated dataset file ({size} bytes, expected {need})")
        norm = None
        if has_norm:
            norm = Normalization(_read_array(fh, path, "<f8", d), _read_array(fh, path, "<f8", d))
        samples = _read_array(fh, path, "<f8", (m, d))
        labels = _read_array(fh, path, "<i8", m)
    ds = SpectralDataset(samples, labels, n, normalization=norm)
    ds.require_all_classes()
    return ds


def _read_array(fh, path, dtype, shape) -> np.ndarray:
    """The next bytes of fh read straight into a new array, with no copy of the file."""
    out = np.empty(shape, dtype=dtype)
    if fh.readinto(out) != out.nbytes:  # the file shrank after its size was checked
        raise DataError(f"{path}: truncated dataset file")
    return out


def load_dataset(path) -> SpectralDataset:
    """A `.bin` file is the binary format; any other path is CSV."""
    return load_bin(path) if str(path).endswith(".bin") else load_csv(path)


def save_dataset(path, ds: SpectralDataset):
    """A `.bin` path gets the binary format; any other path gets CSV."""
    if str(path).endswith(".bin"):
        save_bin(path, ds)
    else:
        save_csv(path, ds)


# ---------------------------------------------------------------------------
# synthetic imbalanced spectra

NOISE_HALF_WIDTH = 0.1  # uniform band noise, so class boxes have crisp edges
NOISE_STD = NOISE_HALF_WIDTH / math.sqrt(3.0)


def _bump_template(rng: np.random.Generator, d: int) -> np.ndarray:
    bands = np.arange(d, dtype=np.float64)
    template = np.zeros(d)
    for _ in range(3):
        center = rng.uniform(0, d - 1)
        width = rng.uniform(d / 16.0, d / 8.0)
        amp = rng.uniform(0.5, 1.0)
        template += amp * np.exp(-0.5 * ((bands - center) / width) ** 2)
    return template


def make_synthetic(seed: int, n_classes: int, d: int, sizes,
                   overlap: float = 0.0) -> SpectralDataset:
    """Seeded imbalanced dataset of smooth per-class spectra plus band noise.

    Each class template is a sum of three Gaussian bumps. `overlap` in [0, 1]
    shrinks every template toward the shared mean template, so at high values
    the per-class value boxes of different classes intersect. At overlap 0 the
    templates are resampled (deterministically) until all pairwise distances
    are at least 5x the noise standard deviation.
    """
    if seed < 0:
        raise ContractError(f"make_synthetic: seed must be >= 0, got {seed}")
    if n_classes < 1:
        raise ContractError(f"make_synthetic: need at least one class, got {n_classes}")
    if d < 4:  # the generator's two upsampling steps need 4
        raise ContractError(f"make_synthetic: need at least 4 bands, got {d}")
    sizes = [int(s) for s in sizes]
    if len(sizes) != n_classes:
        raise ContractError(f"make_synthetic: got {len(sizes)} sizes for {n_classes} classes")
    if any(s < 2 for s in sizes):
        raise ContractError("make_synthetic: every class needs at least 2 samples")
    if not 0.0 <= overlap <= 1.0:
        raise ContractError(f"make_synthetic: overlap must lie in [0, 1], got {overlap}")
    rng = np.random.default_rng([seed, 0x57E0])
    min_sep = 5.0 * NOISE_STD
    for _ in range(100):
        templates = np.stack([_bump_template(rng, d) for _ in range(n_classes)])
        gaps = [np.linalg.norm(templates[i] - templates[j])
                for i in range(n_classes) for j in range(i + 1, n_classes)]
        if not gaps or min(gaps) >= min_sep:
            break
    else:
        raise ContractError("make_synthetic: could not separate class templates")
    center = templates.mean(axis=0)
    templates = center + (1.0 - overlap) * (templates - center)
    rows, labels = [], []
    for j, size in enumerate(sizes):
        noise = rng.uniform(-NOISE_HALF_WIDTH, NOISE_HALF_WIDTH, size=(size, d))
        rows.append(templates[j] + noise)
        labels.append(np.full(size, j, dtype=np.int64))
    return SpectralDataset(np.concatenate(rows), np.concatenate(labels), n_classes)
