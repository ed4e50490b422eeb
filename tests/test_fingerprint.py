"""Behaviour fingerprint: pinned sha256 digests of small end-to-end runs.

One 3-epoch `train` per mode on a fixed synthetic set, plus the
`export-spectra` CSV of the mgsgan run. A refactor must leave every digest
bit-identical; a change that reorders float sums must update a pin on purpose
and say so.

A second, wider set (16 classes x 200 bands, batch 64) pins one 2-epoch run
per mode. Its conv outputs are large enough that a kernel returning an array
in a different memory layout changes the order in which later reductions sum,
and with it the checkpoint; the 3 x 16 set does not reach that regime.

`train` runs numpy's OpenBLAS on one thread, so the pins hold whatever
OPENBLAS_NUM_THREADS is set to; a multi-threaded GEMM sums these products in
another order and gave other wide mgsgan and acsgan checkpoints.
"""

import hashlib

import pytest

from mgsgan import blas
from mgsgan.cli import EXIT_OK, main
from mgsgan.data import make_synthetic, save_dataset

PINNED = {
    "mgsgan": {
        "checkpoint.mgsg": "7873769bb0d7980bd71ced0cf9a979f40b3eaf790a4cf8bdccfeafd273669ecf",
        "runlog.jsonl": "e04469ac9b759e8af3bab974aee703ec525cdc9b828ff9c07bab53ab5afc04b5",
    },
    "acsgan": {
        "checkpoint.mgsg": "b277cedc5daaa8659a0e9a56c28c677e32704c2f5242f6da3bd4674c7980a66a",
        "runlog.jsonl": "9f5bd7e165cd2c3b3fc4919da447030689d57689719768698d1307506b1bcbdf",
    },
    "achsgan": {
        "checkpoint.mgsg": "8a9da1bfdd7812608173ad44b0c3ad6fb5fcf7f6c0b8e7c1c15bc72c203c38f2",
        "runlog.jsonl": "88797e8d1b86155585ef093a8a1163ee58c3749c6389b9c382b9628a36b58cf7",
    },
}
PINNED_EXPORT = "5bbd6e8fada37b18d9a6727cea3a39d42e21e0ad11cccccefca154b10ebaab8b"
PINNED_WIDE = {
    "mgsgan": {
        "checkpoint.mgsg": "1395847de0876b1dea479e7be76046c3c7f0550930b05ae255dc733ac16f41a9",
        "runlog.jsonl": "a361b5b3d8858613aba12b63326fe9cc412c6e5041538f0dd0493ff145ad18f4",
    },
    "acsgan": {
        "checkpoint.mgsg": "8a0d1e8a15e29907f9dacff792e7ba7b9c7c8d131b363815a4db350abeeab45c",
        "runlog.jsonl": "3a4848da0701411162124468ad79c82f03dbc7b635621b60c80323a026b558ce",
    },
    "achsgan": {
        "checkpoint.mgsg": "e2d6e15b82df5eb6b18444507e8de937fa51f7355e5fbadaba2184e6e03ae405",
        "runlog.jsonl": "5603a3512a48b4287c908dea8bbc5adeba0ef20acc224671155025f4f289c125",
    },
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _blas_note():
    """The BLAS behind a digest mismatch: another library or CPU may sum in another order."""
    info = blas.describe()
    return (f"digests differ under BLAS {info['name']} {info['version']}, "
            f"{info['threads']} thread(s)")


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fingerprint") / "ds.csv"
    save_dataset(path, make_synthetic(7, 3, 16, [40, 40, 12], overlap=0.3))
    return path


@pytest.fixture(scope="module")
def wide_data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fingerprint_wide") / "ds.csv"
    save_dataset(path, make_synthetic(7, 16, 200, [16] * 16, overlap=0.3))
    return path


def _train(data_path, mode, epochs=3, batch=16):
    out = data_path.parent / mode
    rc = main(["train", "--data", str(data_path), "--out", str(out), "--mode", mode,
               "--epochs", str(epochs), "--tttr", "0.5", "--split-seed", "0",
               "--batch", str(batch), "--seeds", "1"])
    assert rc == EXIT_OK
    return out / "seed_1"


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_train_artifacts_match_pinned_digests(data_path, mode):
    seed_dir = _train(data_path, mode)
    got = {name: _sha(seed_dir / name) for name in PINNED[mode]}
    assert got == PINNED[mode], _blas_note()


@pytest.mark.parametrize("mode", sorted(PINNED_WIDE))
def test_wide_train_artifacts_match_pinned_digests(wide_data_path, mode):
    seed_dir = _train(wide_data_path, mode, epochs=2, batch=64)
    got = {name: _sha(seed_dir / name) for name in PINNED_WIDE[mode]}
    assert got == PINNED_WIDE[mode], _blas_note()


def test_export_spectra_matches_pinned_digest(data_path):
    seed_dir = _train(data_path, "mgsgan")
    csv_path = data_path.parent / "spectra.csv"
    rc = main(["export-spectra", "--checkpoint", str(seed_dir / "checkpoint.mgsg"),
               "--data", str(data_path), "--tttr", "0.5", "--split-seed", "0",
               "--out", str(csv_path)])
    assert rc == EXIT_OK
    assert _sha(csv_path) == PINNED_EXPORT, _blas_note()
