"""Both binary readers raise DataError, and nothing else, on a cut or bit-flipped file.

A corrupt size field must be caught before it sizes an allocation, so the
properties run in a child process under an address-space limit: an allocation
sized by a corrupt field fails there as a MemoryError (and the test with it)
instead of exhausting the machine's memory. A CSV header's class count is held
to the BIN reader's rule, 1 <= N <= M, the same way.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mgsgan
from mgsgan.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
from mgsgan.data import Normalization, SpectralDataset, load_bin, make_synthetic, save_bin
from mgsgan.errors import DataError
from mgsgan.models import MODES, ClassDomain, build_players

ADDRESS_SPACE_LIMIT = 1 << 30  # bytes; the properties need well under half of it
HEADER_BITS = 8 * 32  # both headers, and the first record after them, fit in 32 bytes

_FUZZ = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _bin_blob() -> bytes:
    ds = make_synthetic(3, 3, 6, [5, 4, 3])
    ds = SpectralDataset(ds.samples, ds.labels, 3,
                         normalization=Normalization(ds.samples.min(0), ds.samples.max(0)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.bin"
        save_bin(path, ds)
        return path.read_bytes()


def _checkpoint_blob(mode: str) -> bytes:
    rng = np.random.default_rng(5)
    n, d, noise = 3, 12, 8
    lo = rng.uniform(-1.0, 0.5, size=(n, d))
    domains = [ClassDomain(j, lo[j], lo[j] + 0.3) for j in range(n)]
    return save_checkpoint_bytes(build_players(mode, n, d, noise, domains, rng))


def _flip(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _bits(blob: bytes):
    """Any bit, with half the draws in the header, where the size fields are."""
    return st.one_of(st.integers(0, HEADER_BITS - 1), st.integers(0, 8 * len(blob) - 1))


def _load_bin(blob: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ds.bin"
        path.write_bytes(blob)
        return load_bin(path)


def _loads_bin_or_data_error(blob: bytes):
    try:
        _load_bin(blob)
    except DataError:
        pass


def _loads_checkpoint_or_data_error(blob: bytes):
    try:
        load_checkpoint_bytes(blob)
    except DataError:
        pass


# The properties; `test_readers_raise_only_data_error` runs each in a child process.

@_FUZZ
@given(data=st.data())
def bin_truncated(data):
    blob = _bin_blob()
    _loads_bin_or_data_error(blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")])


@_FUZZ
@given(data=st.data())
def bin_bit_flipped(data):
    blob = _bin_blob()
    _loads_bin_or_data_error(_flip(blob, data.draw(_bits(blob), label="bit")))


@_FUZZ
@given(mode=st.sampled_from(MODES), data=st.data())
def checkpoint_truncated(mode, data):
    blob = _checkpoint_blob(mode)
    _loads_checkpoint_or_data_error(blob[:data.draw(st.integers(0, len(blob) - 1), label="cut")])


@_FUZZ
@given(mode=st.sampled_from(MODES), data=st.data())
def checkpoint_bit_flipped(mode, data):
    blob = _checkpoint_blob(mode)
    _loads_checkpoint_or_data_error(_flip(blob, data.draw(_bits(blob), label="bit")))


_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
sys.path.insert(0, {tests!r})
import test_corrupt_files
getattr(test_corrupt_files, sys.argv[1])()
"""


@pytest.mark.parametrize("prop", ["bin_truncated", "bin_bit_flipped",
                                  "checkpoint_truncated", "checkpoint_bit_flipped"])
def test_readers_raise_only_data_error(prop):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(mgsgan.__file__).parents[1]))
    code = _CHILD.format(limit=ADDRESS_SPACE_LIMIT, tests=str(Path(__file__).parent))
    child = subprocess.run([sys.executable, "-c", code, prop], env=env,
                           capture_output=True, text=True, timeout=600)
    assert child.returncode == 0, child.stderr[-4000:]


def test_a_bit_flipped_header_cannot_size_an_allocation():
    # N = 2^31 + 3 classes in a 12-row file: bincount(minlength=N) would ask for 16 GiB
    blob = _flip(_bin_blob(), 8 * 16 + 31)
    with pytest.raises(DataError, match="N classes"):
        _load_bin(blob)
    # noise_dim + 2^30 would size a generator's dense layer at 3 TiB
    with pytest.raises(DataError, match="does not match the generator records"):
        load_checkpoint_bytes(_flip(_checkpoint_blob("mgsgan"), 8 * 20 + 30))


_CLI_CHILD = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
from mgsgan.cli import main
sys.exit(main(sys.argv[1:]))
"""


def test_a_csv_header_with_more_classes_than_rows_is_a_data_error(tmp_path):
    # N = 4e9 classes over one row: counting them would ask for 29.8 GiB
    data = tmp_path / "huge_n.csv"
    data.write_text("d=2,N=4000000000\n0.5,0.25,0\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(mgsgan.__file__).parents[1]))
    argv = ["eval", "--data", str(data), "--checkpoint", str(tmp_path / "none.mgsg"),
            "--tttr", "0.5", "--out", str(tmp_path / "rep")]
    child = subprocess.run([sys.executable, "-c", _CLI_CHILD.format(limit=ADDRESS_SPACE_LIMIT),
                            *argv], env=env, capture_output=True, text=True, timeout=600)
    assert child.returncode == 2, child.stderr[-4000:]
    assert "N=4000000000 exceeds the 1 rows" in child.stderr
