"""Binary checkpoint format for the three players and their class domains.

Layout (all little-endian):

    magic           4 bytes  "MGSG"
    version         u32      currently 1
    mode            u32      0 = mgsgan, 1 = acsgan, 2 = achsgan
    N, d, noise_dim u32 x 3
    network_count   u32
    per network:
        layer_count u32
        per layer:
            kind    u32      1 dense | 2 conv1d | 3 conv1d_transpose | 4 batchnorm
            n_ints  u32      followed by n_ints u32 shape/config integers
            n_arrs  u32      followed per array by u64 element count + f32 payload
    N domain boxes: per class, d f32 lower bounds then d f32 upper bounds

Networks appear in this order: one per expert of the generator stack (N for
mgsgan, one for the conditional generator), then the discriminator, then the
classifier (absent for achsgan, whose class head lives in the discriminator).
Expert j's network is a dense and two conv1d_transpose records written from
row j of the stack's (experts, …) parameters. Loading builds fresh players
and copies every record into their arrays in place.
Weights and boxes are stored in f32, the dtype the players train in and the
boxes are rounded to, so a trained model's save -> load round trip is lossless
and save -> load -> save is bit-identical. A player built in f64 by hand is
quantized by its first save.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DataError
from .layers import BatchNorm1d, Conv1d, Dense
from .models import (GEN_KERNEL, GEN_PAD, GEN_STRIDE, ClassDomain, Classifier, Discriminator,
                     Generator, GeneratorBank, HeadClassifier, Players, build_players,
                     generator_plan)

_MAGIC = b"MGSG"
_VERSION = 1
_MODES = {"mgsgan": 0, "acsgan": 1, "achsgan": 2}
_MODE_NAMES = {v: k for k, v in _MODES.items()}

_KIND_DENSE = 1
_KIND_CONV = 2
_KIND_CONVT = 3
_KIND_BN = 4


@dataclass
class LoadedCheckpoint:
    mode: str
    n_classes: int
    d: int
    noise_dim: int
    generator: GeneratorBank | Generator
    discriminator: Discriminator
    classifier: Classifier | HeadClassifier
    domains: list[ClassDomain]


def _layer_record(layer):
    if isinstance(layer, Dense):
        return _KIND_DENSE, [layer.fan_in, layer.fan_out], [layer.weight.data, layer.bias.data]
    if isinstance(layer, Conv1d):
        c_out, c_in, k = layer.weight.shape
        return (_KIND_CONV, [c_in, c_out, k, layer.stride, layer.pad],
                [layer.weight.data, layer.bias.data])
    if isinstance(layer, BatchNorm1d):
        return _KIND_BN, [layer.gamma.size], layer.state_arrays()
    raise ContractError(f"cannot serialize layer of type {type(layer).__name__}")


def _expert_records(gen: Generator, j: int) -> list:
    """Expert j's dense and transpose-conv records, arrays viewing row j of the stack."""
    fc_w, fc_b, *ups = (p.data[j] for p in gen.parameters())
    return [(_KIND_DENSE, list(fc_w.shape), [fc_w, fc_b])] + [
        (_KIND_CONVT, [c_in, c_out, GEN_KERNEL, GEN_STRIDE, GEN_PAD, length], [w, b])
        for (c_in, c_out, length), w, b in zip(gen.ups, ups[0::2], ups[1::2], strict=True)]


def _network_records(players: Players) -> list:
    """Each network's layer records in file order: the experts, D, then a separate C."""
    gen, *rest = players.trainable().values()
    stack = gen.generator if isinstance(gen, GeneratorBank) else gen
    return ([_expert_records(stack, j) for j in range(stack.experts)]
            + [[_layer_record(layer) for layer in net.layers] for net in rest])


def _write_network(buf: bytearray, records):
    buf += struct.pack("<I", len(records))
    for kind, ints, arrays in records:
        buf += struct.pack("<I", kind)
        buf += struct.pack("<I", len(ints))
        buf += struct.pack(f"<{len(ints)}I", *ints)
        buf += struct.pack("<I", len(arrays))
        for arr in arrays:
            flat = np.ascontiguousarray(arr, dtype="<f4").reshape(-1)
            buf += struct.pack("<Q", flat.size)
            buf += flat.tobytes()


class _Reader:
    """Reads fields up to `end`; a field that would cross it is a DataError."""

    def __init__(self, blob: bytes):
        self.blob = blob
        self.off = 0
        self.end = len(blob)

    def _take(self, nbytes: int) -> int:
        off = self.off
        if nbytes > self.end - off:
            raise DataError(f"checkpoint: truncated or corrupt file ({nbytes} bytes wanted "
                            f"at byte {off}, {self.end - off} left)")
        self.off += nbytes
        return off

    def ints(self, n: int):
        return struct.unpack_from(f"<{n}I", self.blob, self._take(4 * n))

    def u64(self) -> int:
        return struct.unpack_from("<Q", self.blob, self._take(8))[0]

    def f32(self, n: int) -> np.ndarray:
        """n f32 values as a read-only view of the file; loading copies them into the players."""
        return np.frombuffer(self.blob, dtype="<f4", count=n, offset=self._take(4 * n))


def _read_records(r: _Reader) -> list:
    """One network's layer records, (kind, ints, arrays) each."""
    (layer_count,) = r.ints(1)
    records = []
    for _ in range(layer_count):
        (kind,) = r.ints(1)
        (n_ints,) = r.ints(1)
        ints = list(r.ints(n_ints))
        (n_arrs,) = r.ints(1)
        records.append((kind, ints, [r.f32(r.u64()) for _ in range(n_arrs)]))
    return records


def _generator_io(records) -> tuple[int, int] | None:
    """(input width, output length) of a generator's records, None if they are not one's."""
    if (len(records) < 2 or records[0][0] != _KIND_DENSE or len(records[0][1]) != 2
            or records[-1][0] != _KIND_CONVT or len(records[-1][1]) != 6):
        return None
    return records[0][1][0], records[-1][1][5]


def _load_network(want, records, what: str):
    """Copy a network's records into the arrays of `want`, the fresh network's records."""
    if len(records) != len(want):
        raise DataError(f"checkpoint: {what} has {len(records)} layers, expected {len(want)}")
    for i, ((kind, ints, arrays), (want_kind, want_ints, want_arrays)) in enumerate(
            zip(records, want)):
        if kind != want_kind or ints != want_ints:
            raise DataError(
                f"checkpoint: {what} layer {i} mismatch (kind {kind}, ints {ints}; "
                f"expected kind {want_kind}, ints {want_ints})"
            )
        if [a.size for a in arrays] != [w.size for w in want_arrays]:
            raise DataError(f"checkpoint: {what} layer {i} payload size mismatch")
        for dst, src in zip(want_arrays, arrays):
            dst[...] = src.reshape(dst.shape)


def save_checkpoint_bytes(mode: str, gen, disc, classifier,
                          domains: list[ClassDomain], noise_dim: int) -> bytes:
    if mode not in _MODES:
        raise ContractError(f"save_checkpoint_bytes: unknown mode {mode!r}")
    n = len(domains)
    d = disc.d
    buf = bytearray()
    buf += _MAGIC
    buf += struct.pack("<IIIII", _VERSION, _MODES[mode], n, d, noise_dim)
    nets = _network_records(Players(gen, disc, classifier))
    buf += struct.pack("<I", len(nets))
    for records in nets:
        _write_network(buf, records)
    for dom in domains:
        buf += np.ascontiguousarray(dom.lower, dtype="<f4").tobytes()
        buf += np.ascontiguousarray(dom.upper, dtype="<f4").tobytes()
    return bytes(buf)


def load_checkpoint_bytes(blob: bytes) -> LoadedCheckpoint:
    if blob[:4] != _MAGIC:
        raise DataError("checkpoint: bad magic, not a checkpoint file")
    try:
        return _parse_checkpoint(blob)
    except (struct.error, ValueError, ContractError) as exc:
        raise DataError(f"checkpoint: corrupt or truncated file ({exc})") from exc


def _parse_checkpoint(blob: bytes) -> LoadedCheckpoint:
    r = _Reader(blob)
    r.off = 4
    version, mode_tag, n, d, noise_dim = r.ints(5)
    if version != _VERSION:
        raise DataError(f"checkpoint: unsupported format version {version}")
    if mode_tag not in _MODE_NAMES:
        raise DataError(f"checkpoint: unknown mode tag {mode_tag}")
    mode = _MODE_NAMES[mode_tag]
    (net_count,) = r.ints(1)

    # The domains fill the tail and the network records everything before it;
    # each record's size is checked against the bytes left before it is read.
    r.end = len(blob) - n * d * 2 * 4
    records = [_read_records(r) for _ in range(net_count)]
    if r.off != r.end:
        raise DataError("checkpoint: payload size inconsistent with header")
    # The players are built from the header, so its sizes must be those of the
    # generator records the file holds before anything is allocated.
    count, width = generator_plan(mode, n, noise_dim)
    if len(records) < count or any(_generator_io(rec) != (width, d) for rec in records[:count]):
        raise DataError(f"checkpoint: header (N={n}, d={d}, noise_dim={noise_dim}) does not "
                        f"match the generator records")

    domains = []
    off = r.end
    for j in range(n):
        lo = np.frombuffer(blob, dtype="<f4", count=d, offset=off).astype(np.float64)
        off += 4 * d
        hi = np.frombuffer(blob, dtype="<f4", count=d, offset=off).astype(np.float64)
        off += 4 * d
        domains.append(ClassDomain(j, lo, hi))

    players = build_players(mode, n, d, noise_dim, domains, np.random.default_rng(0))
    nets = _network_records(players)
    if net_count != len(nets):
        raise DataError(f"checkpoint: {net_count} networks, expected {len(nets)} for {mode}")
    for i, want in enumerate(nets):
        _load_network(want, records[i], f"network {i}")
    return LoadedCheckpoint(mode, n, d, noise_dim, *players, domains)


def load_checkpoint(path) -> LoadedCheckpoint:
    with open(path, "rb") as fh:
        return load_checkpoint_bytes(fh.read())
