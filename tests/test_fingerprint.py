"""Behaviour fingerprint: pinned sha256 digests of small end-to-end runs.

One 3-epoch `train` per mode on a fixed synthetic set, plus the
`export-spectra` CSV of the mgsgan run. A refactor must leave every digest
bit-identical; a change that reorders float sums must update a pin on purpose
and say so.
"""

import hashlib

import pytest

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


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fingerprint") / "ds.csv"
    save_dataset(path, make_synthetic(7, 3, 16, [40, 40, 12], overlap=0.3))
    return path


def _train(data_path, mode):
    out = data_path.parent / mode
    rc = main(["train", "--data", str(data_path), "--out", str(out), "--mode", mode,
               "--epochs", "3", "--tttr", "0.5", "--split-seed", "0",
               "--batch", "16", "--seeds", "1"])
    assert rc == EXIT_OK
    return out / "seed_1"


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_train_artifacts_match_pinned_digests(data_path, mode):
    seed_dir = _train(data_path, mode)
    got = {name: _sha(seed_dir / name) for name in PINNED[mode]}
    assert got == PINNED[mode]


def test_export_spectra_matches_pinned_digest(data_path):
    seed_dir = _train(data_path, "mgsgan")
    csv_path = data_path.parent / "spectra.csv"
    rc = main(["export-spectra", "--checkpoint", str(seed_dir / "checkpoint.mgsg"),
               "--data", str(data_path), "--tttr", "0.5", "--split-seed", "0",
               "--out", str(csv_path)])
    assert rc == EXIT_OK
    assert _sha(csv_path) == PINNED_EXPORT
