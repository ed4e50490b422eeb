"""Command-line surface: dataset synthesis, training, evaluation, spectra export.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every command writes a `.manifest.json` next to its main artifact recording
the resolved configuration, input digests and produced files; re-running a
command with the manifest's settings reproduces the artifacts bit-identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import blas
from .checkpoint import LoadedCheckpoint, load_checkpoint
from .data import (SpectralDataset, SplitSpec, dataset_digest, load_dataset, make_synthetic,
                   normalize_pair, save_dataset, split_tttr)
from .errors import ContractError, DataError, MgsganError, NumericError, TrainingAborted
from .evaluation import ConfusionMatrix, EvalReport, mcnemar
from .models import MODES, generate, predict_labels
from .training import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the package's exit-code contract (usage errors -> 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path: Path, command: str, settings: dict, inputs: dict, outputs: list,
                    **extra):
    manifest = {
        "command": command,
        "settings": settings,
        "inputs": {k: _sha256_file(v) for k, v in inputs.items()},
        "outputs": [str(p) for p in outputs],
        **extra,
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _seed(text: str) -> int:
    """argparse type of a seed flag: numpy's generators need an integer >= 0."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text}")
    return int(text)


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise _UsageError(f"{flag}: expected comma-separated integers, got {text!r}")


def _load_config_file(path) -> dict:
    """key=value lines; '#' starts a comment. Flags override these values."""
    values = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _UsageError(f"{path}: line {lineno}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="mgsgan", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", parents=[], help="generate a synthetic imbalanced dataset")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--bands", type=int, required=True)
    p.add_argument("--sizes", type=str, required=True, help="per-class sample counts, comma-separated")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--overlap", type=float, default=0.0)
    p.add_argument("--out", type=str, required=True, help="output path (.csv or .bin)")

    p = sub.add_parser("train", help="train one of mgsgan|acsgan|achsgan")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--out", type=str, required=True, help="output directory")
    p.add_argument("--config", type=str, default=None, help="optional key=value config file")
    p.add_argument("--tttr", type=float, default=None)
    p.add_argument("--split-seed", type=_seed, default=None)
    p.add_argument("--seeds", type=str, default=None, help="run seeds, comma-separated")
    for f in _config_fields():
        p.add_argument("--" + f.name.replace("_", "-"), type=type(f.default), default=None,
                       choices=MODES if f.name == "mode" else None)

    p = sub.add_parser("eval", help="evaluate checkpoints on the held-out split")
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--run-dir", type=str, default=None, help="directory with seed_*/checkpoint.mgsg")
    p.add_argument("--checkpoint", type=str, default=None, help="single checkpoint file")
    p.add_argument("--tttr", type=float, required=True)
    p.add_argument("--split-seed", type=_seed, default=0)
    p.add_argument("--compare", type=str, default=None,
                   help="second run dir or checkpoint for a McNemar comparison")
    p.add_argument("--out", type=str, required=True, help="report path prefix")

    p = sub.add_parser("export-spectra", help="per-class mean spectra: real vs generated")
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument("--data", type=str, required=True)
    p.add_argument("--tttr", type=float, required=True)
    p.add_argument("--split-seed", type=_seed, default=0)
    p.add_argument("--samples", type=int, default=64, help="generated draws per class")
    p.add_argument("--classes", type=str, default="all",
                   help="class ids to export, comma-separated (default: all)")
    p.add_argument("--noise-seed", type=_seed, default=0)
    p.add_argument("--out", type=str, required=True, help="output CSV path")

    return parser


# ---------------------------------------------------------------------------
# commands

def _cmd_synth(args) -> int:
    sizes = _parse_int_list(args.sizes, "--sizes")
    if len(sizes) != args.classes:
        raise _UsageError(f"--sizes has {len(sizes)} entries for --classes {args.classes}")
    ds = make_synthetic(args.seed, args.classes, args.bands, sizes, overlap=args.overlap)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_dataset(out, ds)
    settings = {"classes": args.classes, "bands": args.bands, "sizes": sizes,
                "seed": args.seed, "overlap": args.overlap}
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "synth",
                    settings, {}, [out])
    print(f"wrote {out} ({ds.size} samples, {ds.class_count} classes, {ds.band_count} bands)")
    return EXIT_OK


# train settings that are not TrainConfig fields: the data split and the run seeds
_SPLIT_DEFAULTS = {"tttr": 0.1, "split_seed": 0, "seeds": "0"}


def _config_fields():
    """TrainConfig fields that are train settings; each run's `seed` comes from --seeds."""
    return [f for f in dataclasses.fields(TrainConfig) if f.name != "seed"]


def _resolve_train_settings(args) -> dict:
    """Each setting from its flag, else the --config file, else its default."""
    defaults = {**_SPLIT_DEFAULTS, **{f.name: f.default for f in _config_fields()}}
    file_values = _load_config_file(args.config) if args.config else {}
    unknown = sorted(set(file_values) - set(defaults))
    if unknown:
        raise _UsageError(f"{args.config}: unknown config key {unknown[0]!r}")
    settings = {}
    for key, default in defaults.items():
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
        elif key in file_values:
            try:
                settings[key] = type(default)(file_values[key])
            except ValueError:
                raise _UsageError(f"{args.config}: {key}={file_values[key]!r} "
                                  f"is not a valid {type(default).__name__}")
        else:
            settings[key] = default
    return settings


def _prepared_split(data_path, tttr: float, split_seed: int):
    spec = SplitSpec(tttr=tttr, seed=split_seed)  # checked before the data is read
    train_raw, test_raw = split_tttr(load_dataset(data_path), spec)
    return normalize_pair(train_raw, test_raw)


def _cmd_train(args) -> int:
    settings = _resolve_train_settings(args)
    seeds = _parse_int_list(settings["seeds"], "--seeds")
    if not seeds or min(seeds) < 0:
        raise _UsageError(f"--seeds: expected one or more seeds >= 0, got {settings['seeds']!r}")
    fields = {f.name: settings[f.name] for f in _config_fields()}
    configs = [TrainConfig(**fields, seed=seed) for seed in seeds]
    train_n, _test_n = _prepared_split(args.data, settings["tttr"], settings["split_seed"])
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []

    def write_manifest(**extra):
        # blas: the library and thread count the runs used, which the bits depend on
        _write_manifest(out_dir / "manifest.json", "train", {**settings, "seeds": seeds},
                        {"data": args.data}, outputs, blas=blas.describe(), **extra)

    for config in configs:
        seed_dir = out_dir / f"seed_{config.seed}"
        seed_dir.mkdir(parents=True, exist_ok=True)
        try:
            result = train(train_n, config, checkpoint_dir=seed_dir)
        except TrainingAborted as exc:
            salvage = "no epoch finished, no checkpoint written"
            if exc.last_good is not None:
                salvaged = seed_dir / "checkpoint.aborted.mgsg"
                salvaged.write_bytes(exc.last_good)
                salvage = f"last good checkpoint in {salvaged}"
            print(f"training aborted: {exc} ({salvage})", file=sys.stderr)
            write_manifest(aborted_seed=config.seed)  # lists the seeds that finished
            raise
        ckpt = seed_dir / "checkpoint.mgsg"
        ckpt.write_bytes(result.checkpoint_bytes())
        (seed_dir / "runlog.jsonl").write_text(result.runlog.to_jsonl(), encoding="utf-8")
        (seed_dir / "runlog.timing.json").write_text(
            result.runlog.to_timing_json() + "\n", encoding="utf-8")
        outputs += [ckpt, seed_dir / "runlog.jsonl"]
        print(f"seed {config.seed}: wrote {ckpt}")
    write_manifest()
    return EXIT_OK


def _discover_checkpoints(spec: str) -> list[Path]:
    p = Path(spec)
    if p.is_dir():
        found = sorted(p.glob("seed_*/checkpoint.mgsg"))
        if not found:
            raise DataError(f"{spec}: no seed_*/checkpoint.mgsg files found")
        return found
    if not p.exists():
        raise DataError(f"{spec}: no such checkpoint")
    return [p]


def _run_seed(ckpt_path: Path, index: int) -> int:
    """The seed a run directory `seed_<k>` names, else the checkpoint's index."""
    name = ckpt_path.parent.name
    if not name.startswith("seed_"):
        return index
    try:
        return int(name.removeprefix("seed_"))
    except ValueError:
        raise DataError(f"{ckpt_path.parent}: run directory is not named seed_<integer>") from None


def _checkpoint_for(ckpt_path, ds: SpectralDataset) -> LoadedCheckpoint:
    """Load a checkpoint and check it was trained on data of ds's d and N."""
    ck = load_checkpoint(ckpt_path)
    if ck.d != ds.band_count or ck.n_classes != ds.class_count:
        raise DataError(
            f"{ckpt_path}: checkpoint is for d={ck.d}, N={ck.n_classes}; "
            f"data has d={ds.band_count}, N={ds.class_count}"
        )
    return ck


def _split_checked(ckpt_path, digest: str, args) -> bool:
    """Whether a run log beside the checkpoint names the split; DataError if another one.

    `train` records the digest of the normalized training split in the meta
    line of each run's runlog.jsonl; --data, --tttr and --split-seed must give
    that split again, or the test rows would overlap the training rows.
    """
    runlog = Path(ckpt_path).parent / "runlog.jsonl"
    if not runlog.is_file():
        return False
    try:
        with open(runlog, encoding="utf-8") as fh:
            trained_on = json.loads(fh.readline())["meta"]["dataset_digest"]
    except (ValueError, KeyError, TypeError):  # bad JSON or UTF-8, or no such field
        raise DataError(f"{runlog}: first line is not a run log meta line with a "
                        "dataset_digest") from None
    if trained_on != digest:
        raise DataError(f"{ckpt_path} was trained on another split: {runlog} records training "
                        f"split {trained_on}, but --data {args.data} --tttr {args.tttr} "
                        f"--split-seed {args.split_seed} give {digest}; pass the values "
                        "it was trained with")
    return True


def _cmd_eval(args) -> int:
    if (args.run_dir is None) == (args.checkpoint is None):
        raise _UsageError("eval needs exactly one of --run-dir or --checkpoint")
    train_n, test_n = _prepared_split(args.data, args.tttr, args.split_seed)
    ckpts = _discover_checkpoints(args.run_dir or args.checkpoint)
    seeds = [_run_seed(p, i) for i, p in enumerate(ckpts)]
    loaded = [_checkpoint_for(p, test_n) for p in ckpts]
    odd = next((i for i, ck in enumerate(loaded) if ck.mode != loaded[0].mode), None)
    if odd is not None:  # a report names one model
        raise DataError(f"checkpoints of two modes: {ckpts[0]} is {loaded[0].mode} and "
                        f"{ckpts[odd]} is {loaded[odd].mode}; evaluate one mode at a time")
    other = _discover_checkpoints(args.compare)[0] if args.compare else None
    other_ck = _checkpoint_for(other, test_n) if other else None
    digest = dataset_digest(train_n)
    unchecked = [str(p) for p in ckpts + ([other] if other else [])
                 if not _split_checked(p, digest, args)]
    preds = [predict_labels(ck.classifier, test_n.samples) for ck in loaded]
    cms = [ConfusionMatrix.from_predictions(test_n.labels, pr, test_n.class_count)
           for pr in preds]
    report = EvalReport.from_runs(loaded[0].mode, cms, seeds)
    report.notes["tttr"] = args.tttr
    report.notes["split_seed"] = args.split_seed
    if unchecked:  # no runlog.jsonl beside them
        report.notes["split_not_checked"] = unchecked
    if other:
        other_pred = predict_labels(other_ck.classifier, test_n.samples)
        report.mcnemar_vs[other_ck.mode] = mcnemar(preds[0], other_pred, test_n.labels)
        report.notes["mcnemar_checkpoints"] = [str(ckpts[0]), str(other)]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    json_path = out.with_suffix(".json")
    table_path = out.with_suffix(".txt")
    json_path.write_text(report.to_json() + "\n", encoding="utf-8")
    table_path.write_text(report.to_table(), encoding="utf-8")
    inputs = {"data": args.data, **{f"ckpt_{i}": p for i, p in enumerate(ckpts)}}
    _write_manifest(out.with_suffix(".manifest.json"), "eval",
                    {"tttr": args.tttr, "split_seed": args.split_seed,
                     "compare": args.compare}, inputs, [json_path, table_path])
    print(report.to_table())
    return EXIT_OK


def _cmd_export_spectra(args) -> int:
    if args.samples < 1:
        raise _UsageError("--samples must be >= 1")
    train_n, _test_n = _prepared_split(args.data, args.tttr, args.split_seed)
    ck = _checkpoint_for(args.checkpoint, train_n)
    if not _split_checked(args.checkpoint, dataset_digest(train_n), args):
        print(f"note: no runlog.jsonl beside {args.checkpoint}; the split was not checked",
              file=sys.stderr)
    if args.classes == "all":
        class_ids = list(range(ck.n_classes))
    else:
        class_ids = _parse_int_list(args.classes, "--classes")
        bad = [j for j in class_ids if not 0 <= j < ck.n_classes]
        if bad:
            raise ContractError(f"export-spectra: unknown class id {bad[0]} "
                                f"(checkpoint has {ck.n_classes} classes)")
    rng = np.random.default_rng([args.noise_seed, 20])
    lines = ["class,band,real_mean,generated_mean,box_lower,box_upper"]
    for j in class_ids:
        real_mean = train_n.samples[train_n.labels == j].mean(axis=0)
        z = rng.standard_normal((args.samples, ck.noise_dim))
        with ad.no_grad():
            fake = generate(ck.generator, z, np.full(args.samples, j))
        gen_mean = fake.data.mean(axis=0, dtype=np.float64)  # an f32 sum can round past the box
        dom = ck.domains[j]
        for band in range(ck.d):
            vals = (float(real_mean[band]), float(gen_mean[band]),
                    float(dom.lower[band]), float(dom.upper[band]))
            lines.append(f"{j},{band}," + ",".join(repr(v) for v in vals))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "export-spectra",
                    {"samples": args.samples, "noise_seed": args.noise_seed,
                     "tttr": args.tttr, "split_seed": args.split_seed,
                     "classes": class_ids},
                    {"data": args.data, "checkpoint": args.checkpoint}, [out])
    print(f"wrote {out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "export-spectra": _cmd_export_spectra,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TrainingAborted, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ContractError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MgsganError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
