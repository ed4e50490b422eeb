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

The bits also depend on the kernels picked for the CPU: OpenBLAS's GEMM
kernel set and numpy's SIMD loops for exp, log and tanh (AVX-512 and AVX2 code
round some results differently). Each `synth`, `train` and `export-spectra`
therefore runs in a child process whose environment fixes both at the AVX2
level that every x86-64 CI runner has (`PORTABLE_ENV`); both must be set
before numpy loads, hence the child. The pins then hold on any x86-64 CPU
with AVX2, but not on another architecture.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mgsgan
from mgsgan.cli import EXIT_OK

PORTABLE_ENV = {"OPENBLAS_CORETYPE": "Haswell",
                "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
SRC = str(Path(mgsgan.__file__).resolve().parent.parent)

PINNED = {
    "mgsgan": {
        "checkpoint.mgsg": "3737a40ee33fdf562ec673fbbfc232fb54c6e15d5c2a3822f042db7a85e5b35e",
        "runlog.jsonl": "e6adda14d5d73f7267b51531b2cf84bbf48ec305cd1a9f0786c3186390192ad3",
    },
    "acsgan": {
        "checkpoint.mgsg": "039bd3c0c624f971d3bfe33fc8ab421244d17ca7c40a2be86dd7c5f4abd310cb",
        "runlog.jsonl": "cc00d7b55b55bc7f690b46a3b0b4ec3fc39864503631acbc77be4276966f2a8d",
    },
    "achsgan": {
        "checkpoint.mgsg": "f04972fed8b961cdbfa703c74665ecd7f2cda897634908c9f452042131d29bd1",
        "runlog.jsonl": "57458d9875aeed01a62fe70202484fb0d1eb46be9bb7f28c43af11c1056e803a",
    },
}
PINNED_EXPORT = "1ac88aad7ecb325f8ed12e63025d892da3bc857ed58b1a1dd3655afaa1df9b4f"
PINNED_WIDE = {
    "mgsgan": {
        "checkpoint.mgsg": "cab35225ce8c988ad0bb57640d25a0e75750a074ae0f3575d498f3ccae655160",
        "runlog.jsonl": "a2aecf604fe263a6013c62a5722816bf4504eeaf8aa4950266ca7f0eb8332563",
    },
    "acsgan": {
        "checkpoint.mgsg": "d9201bec05232adf3d8385ab7d4bd6b980af0569cca2a2a7e6eb50d7007425cf",
        "runlog.jsonl": "65ce007128abf398703d63b8b010c14b3b7c44710f2f7a132ad3033aa6d0e09c",
    },
    "achsgan": {
        "checkpoint.mgsg": "87aa69ffd713c9b810909bbb375ddfc5e18485d4dc2d23e76d4c7a0ec8276ee3",
        "runlog.jsonl": "6d317c0de92351c3b724937722fcd93b05ccbe865098e46aae64e9ce37f5a887",
    },
}


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _mgsgan(*argv):
    """Run the CLI in a child process that loads numpy under PORTABLE_ENV."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **PORTABLE_ENV, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "mgsgan.cli", *argv], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr


def _blas_note(run_dir):
    """The kernels behind a digest mismatch, from the train manifest: another
    library, kernel set or SIMD level may sum or round in another way."""
    info = json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))["blas"]
    return (f"digests differ under BLAS {info['name']} {info['version']}, "
            f"{info['threads']} thread(s), core {info['core']}, numpy SIMD {info['simd']}")


def _synth(path, classes, bands, sizes):
    """The synthetic set, made in a child too: its templates go through np.exp."""
    _mgsgan("synth", "--classes", str(classes), "--bands", str(bands), "--sizes", sizes,
            "--seed", "7", "--overlap", "0.3", "--out", str(path))
    return path


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return _synth(tmp_path_factory.mktemp("fingerprint") / "ds.csv", 3, 16, "40,40,12")


@pytest.fixture(scope="module")
def wide_data_path(tmp_path_factory):
    return _synth(tmp_path_factory.mktemp("fingerprint_wide") / "ds.csv", 16, 200,
                  ",".join(["16"] * 16))


def _train(data_path, mode, epochs=3, batch=16):
    out = data_path.parent / mode
    _mgsgan("train", "--data", str(data_path), "--out", str(out), "--mode", mode,
            "--epochs", str(epochs), "--tttr", "0.5", "--split-seed", "0",
            "--batch", str(batch), "--seeds", "1")
    return out / "seed_1"


@pytest.mark.parametrize("mode", sorted(PINNED))
def test_train_artifacts_match_pinned_digests(data_path, mode):
    seed_dir = _train(data_path, mode)
    got = {name: _sha(seed_dir / name) for name in PINNED[mode]}
    assert got == PINNED[mode], _blas_note(seed_dir.parent)


@pytest.mark.parametrize("mode", sorted(PINNED_WIDE))
def test_wide_train_artifacts_match_pinned_digests(wide_data_path, mode):
    seed_dir = _train(wide_data_path, mode, epochs=2, batch=64)
    got = {name: _sha(seed_dir / name) for name in PINNED_WIDE[mode]}
    assert got == PINNED_WIDE[mode], _blas_note(seed_dir.parent)


def test_export_spectra_matches_pinned_digest(data_path):
    seed_dir = _train(data_path, "mgsgan")
    csv_path = data_path.parent / "spectra.csv"
    _mgsgan("export-spectra", "--checkpoint", str(seed_dir / "checkpoint.mgsg"),
            "--data", str(data_path), "--tttr", "0.5", "--split-seed", "0",
            "--out", str(csv_path))
    assert _sha(csv_path) == PINNED_EXPORT, _blas_note(seed_dir.parent)
