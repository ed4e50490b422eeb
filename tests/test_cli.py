"""Command-line contract: artifacts, manifests, exit codes, reproducibility."""

import hashlib
import json

import pytest

from mgsgan import blas
from mgsgan.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _synth(tmp_path, name="ds.csv", sizes="40,40,12", classes=3, bands=16, seed=7,
           overlap=0.3):
    path = tmp_path / name
    rc = main(["synth", "--classes", str(classes), "--bands", str(bands),
               "--sizes", sizes, "--seed", str(seed), "--overlap", str(overlap),
               "--out", str(path)])
    assert rc == EXIT_OK
    return path


def test_synth_writes_dataset_and_manifest(tmp_path):
    path = _synth(tmp_path)
    assert path.exists()
    manifest = json.loads((tmp_path / "ds.csv.manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["settings"]["sizes"] == [40, 40, 12]


def test_synth_deterministic_file_hash(tmp_path):
    p1 = _synth(tmp_path, "a.csv")
    p2 = _synth(tmp_path, "b.csv")
    assert _sha(p1) == _sha(p2)


def test_synth_sizes_count_mismatch_is_usage_error(tmp_path):
    rc = main(["synth", "--classes", "3", "--bands", "8", "--sizes", "10,10",
               "--seed", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_unknown_flag_is_usage_error(tmp_path):
    rc = main(["synth", "--classes", "2", "--bands", "8", "--sizes", "4,4",
               "--no-such-flag", "1", "--out", str(tmp_path / "x.csv")])
    assert rc == EXIT_USAGE


def test_train_zero_epochs_writes_init_checkpoint(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
               "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    assert rc == EXIT_OK
    assert (out / "seed_0" / "checkpoint.mgsg").exists()
    assert (out / "manifest.json").exists()


def test_train_two_seeds_two_runlogs_one_manifest(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
               "--tttr", "0.5", "--batch", "16", "--seeds", "3,4"])
    assert rc == EXIT_OK
    logs = sorted(out.glob("seed_*/runlog.jsonl"))
    assert len(logs) == 2
    assert logs[0].read_text() != logs[1].read_text()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["seeds"] == [3, 4]
    assert "aborted_seed" not in manifest
    # the BLAS the bits depend on, at the one thread train runs it with
    assert manifest["blas"] == blas.describe() and manifest["blas"]["threads"] in (1, None)
    assert manifest["blas"]["name"] is not None


def test_train_abort_at_second_seed_writes_manifest_of_finished_seeds(tmp_path, monkeypatch):
    import mgsgan.training as training
    from mgsgan.cli import EXIT_NUMERIC
    from mgsgan.errors import NumericError

    data = _synth(tmp_path)  # 46 training rows: one batch of 32 per epoch
    calls = {"n": 0}
    real_loss_d = training.loss_d

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:  # seed 4's second epoch
            raise NumericError("poisoned")
        return real_loss_d(*args, **kwargs)

    monkeypatch.setattr(training, "loss_d", poisoned)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "2",
               "--tttr", "0.5", "--batch", "32", "--seeds", "3,4,5"])
    assert rc == EXIT_NUMERIC
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["aborted_seed"] == 4
    assert manifest["settings"]["seeds"] == [3, 4, 5]
    assert manifest["outputs"] == [str(out / "seed_3" / "checkpoint.mgsg"),
                                   str(out / "seed_3" / "runlog.jsonl")]
    assert (out / "seed_4" / "checkpoint.aborted.mgsg").exists()
    assert not (out / "seed_5").exists()


def test_train_missing_data_is_data_error(tmp_path):
    rc = main(["train", "--data", str(tmp_path / "nope.csv"),
               "--out", str(tmp_path / "run"), "--epochs", "1", "--tttr", "0.5"])
    assert rc == EXIT_DATA


def test_train_rerun_reproduces_bit_identical_artifacts(tmp_path):
    data = _synth(tmp_path)
    args = ["--data", str(data), "--epochs", "2", "--tttr", "0.5",
            "--batch", "16", "--seeds", "1"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["train", "--out", str(out1)] + args) == EXIT_OK
    assert main(["train", "--out", str(out2)] + args) == EXIT_OK
    assert _sha(out1 / "seed_1" / "checkpoint.mgsg") == _sha(out2 / "seed_1" / "checkpoint.mgsg")
    assert _sha(out1 / "seed_1" / "runlog.jsonl") == _sha(out2 / "seed_1" / "runlog.jsonl")


def test_config_file_values_with_flag_override(tmp_path):
    data = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=1\nbatch=16\ntttr=0.5\nseeds=5\n", encoding="utf-8")
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out),
               "--config", str(cfg), "--epochs", "0"])
    assert rc == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["epochs"] == 0      # flag wins
    assert manifest["settings"]["batch"] == 16      # file value applies
    assert manifest["settings"]["seeds"] == [5]


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=0\nnoise-dim=7\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
               "--config", str(cfg), "--tttr", "0.5", "--batch", "16"])
    assert rc == EXIT_USAGE
    assert "noise-dim" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_file_unparseable_value_is_usage_error(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs=abc\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
               "--config", str(cfg), "--tttr", "0.5", "--batch", "16"])
    assert rc == EXIT_USAGE
    assert "epochs='abc'" in capsys.readouterr().err


def test_config_file_line_without_equals_is_usage_error(tmp_path, capsys):
    data = _synth(tmp_path)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("# run settings\nepochs 1\n", encoding="utf-8")
    rc = main(["train", "--data", str(data), "--out", str(tmp_path / "run"),
               "--config", str(cfg), "--tttr", "0.5", "--batch", "16"])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert "bad.cfg" in err and "line 2" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seeds", ["", ","])
def test_train_empty_seed_list_rejected_before_data_is_read(tmp_path, capsys, seeds):
    # the data file does not exist: a data error would mean it was read first
    out = tmp_path / "run"
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(out),
               "--epochs", "1", "--tttr", "0.5", "--batch", "16", "--seeds", seeds])
    assert rc == EXIT_USAGE
    assert "--seeds" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_train_batch_of_one_rejected_before_data_is_read(tmp_path):
    # the data file does not exist: a data error would mean it was read first
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "run"),
               "--epochs", "1", "--tttr", "0.5", "--batch", "1"])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("flag,value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--domain-margin", "nan"), ("--domain-margin", "inf"),
    ("--beta1", "1.5"), ("--beta1", "nan"), ("--beta2", "1.0"), ("--beta2", "-0.1"),
    ("--checkpoint-interval", "-1"),
])
def test_train_bad_config_value_rejected_before_data_is_read(tmp_path, capsys, flag, value):
    # the data file does not exist: a data error would mean it was read first
    rc = main(["train", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "run"),
               "--epochs", "1", "--tttr", "0.5", "--batch", "16", flag, value])
    assert rc == EXIT_USAGE
    assert flag[2:].replace("-", "_") in capsys.readouterr().err


@pytest.mark.parametrize("argv,flag", [
    (["synth", "--classes", "2", "--bands", "8", "--sizes", "4,4", "--seed", "-3"], "--seed"),
    (["train", "--tttr", "0.5", "--batch", "16", "--seeds", "0,-1"], "--seeds"),
    (["train", "--tttr", "0.5", "--batch", "16", "--split-seed", "-1"], "--split-seed"),
    (["eval", "--checkpoint", "none.mgsg", "--tttr", "0.5", "--split-seed", "-1"],
     "--split-seed"),
    (["export-spectra", "--checkpoint", "none.mgsg", "--tttr", "0.5", "--split-seed", "-1"],
     "--split-seed"),
    (["export-spectra", "--checkpoint", "none.mgsg", "--tttr", "0.5", "--noise-seed", "-1"],
     "--noise-seed"),
])
def test_negative_seed_rejected_before_data_is_read(tmp_path, capsys, argv, flag):
    # the data file does not exist: a data error would mean it was read first
    out = tmp_path / "out"
    data = [] if argv[0] == "synth" else ["--data", str(tmp_path / "nope.csv")]
    rc = main(argv + data + ["--out", str(out)])
    assert rc == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_report_and_compare_identical_checkpoints(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
          "--tttr", "0.5", "--batch", "16", "--seeds", "0,1"])
    report = tmp_path / "report"
    rc = main(["eval", "--data", str(data), "--run-dir", str(out),
               "--tttr", "0.5", "--out", str(report),
               "--compare", str(out / "seed_0" / "checkpoint.mgsg")])
    assert rc == EXIT_OK
    payload = json.loads(report.with_suffix(".json").read_text())
    # comparing the first checkpoint against itself: no discordant pairs
    assert payload["mcnemar_vs"]["mgsgan"]["statistic"] == 0.0
    assert payload["mcnemar_vs"]["mgsgan"]["significant"] is False
    table = report.with_suffix(".txt").read_text()
    assert "OA" in table and "Kappa" in table and "AA" in table


def test_eval_run_dir_with_non_integer_seed_is_data_error(tmp_path, capsys):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
          "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    (out / "seed_0").rename(out / "seed_best")
    rc = main(["eval", "--data", str(data), "--run-dir", str(out),
               "--tttr", "0.5", "--out", str(tmp_path / "rep")])
    assert rc == EXIT_DATA
    assert "seed_best" in capsys.readouterr().err


def test_eval_dimension_mismatch_is_data_error(tmp_path):
    data = _synth(tmp_path)
    other = _synth(tmp_path, name="other.csv", sizes="30,30", classes=2, bands=8)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
          "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    rc = main(["eval", "--data", str(other), "--run-dir", str(out),
               "--tttr", "0.5", "--out", str(tmp_path / "rep")])
    assert rc == EXIT_DATA


@pytest.mark.parametrize("name", ["bad.csv", "bad.bin"])
def test_non_finite_data_is_data_error_before_training(tmp_path, capsys, name):
    from mgsgan.data import load_dataset, save_dataset

    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
          "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    ds = load_dataset(data)
    ds.samples[5, 3] = float("nan")
    bad = tmp_path / name
    save_dataset(bad, ds)
    capsys.readouterr()
    rc = main(["train", "--data", str(bad), "--out", str(tmp_path / "bad_run"), "--epochs", "2",
               "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    assert rc == EXIT_DATA
    assert not (tmp_path / "bad_run").exists()
    rc = main(["eval", "--data", str(bad), "--run-dir", str(out),
               "--tttr", "0.5", "--out", str(tmp_path / "rep")])
    assert rc == EXIT_DATA
    assert capsys.readouterr().err.count("band 3 is nan") == 2


def test_eval_and_export_on_another_split_are_data_errors(tmp_path, capsys):
    data = _synth(tmp_path)
    runs = {}
    for tttr, split_seed in (("0.3", "0"), ("0.5", "4")):
        runs[tttr] = tmp_path / f"run_{tttr}"
        main(["train", "--data", str(data), "--out", str(runs[tttr]), "--epochs", "1",
              "--tttr", tttr, "--split-seed", split_seed, "--batch", "16", "--seeds", "0"])
    ckpt = {tttr: str(run / "seed_0" / "checkpoint.mgsg") for tttr, run in runs.items()}
    cases = [  # (argv, the checkpoint of another split, the split flags given)
        (["eval", "--run-dir", str(runs["0.3"])], ckpt["0.3"], ("0.5", "4")),
        (["eval", "--run-dir", str(runs["0.3"]), "--compare", ckpt["0.5"]], ckpt["0.5"],
         ("0.3", "0")),
        (["export-spectra", "--checkpoint", ckpt["0.3"]], ckpt["0.3"], ("0.5", "4")),
    ]
    for argv, wrong, (tttr, split_seed) in cases:
        capsys.readouterr()
        rc = main(argv + ["--data", str(data), "--tttr", tttr, "--split-seed", split_seed,
                          "--out", str(tmp_path / "rep")])
        assert rc == EXIT_DATA, argv
        err = capsys.readouterr().err
        assert f"{wrong} was trained on another split" in err
        assert f"--data {data} --tttr {tttr} --split-seed {split_seed}" in err
    assert not list(tmp_path.glob("rep*"))
    rc = main(["eval", "--run-dir", str(runs["0.3"]), "--data", str(data), "--tttr", "0.3",
               "--out", str(tmp_path / "rep")])
    assert rc == EXIT_OK
    assert "split_not_checked" not in json.loads((tmp_path / "rep.json").read_text())["notes"]


def test_eval_notes_a_checkpoint_without_a_run_log(tmp_path, capsys):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), "--epochs", "1",
          "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    lone = tmp_path / "lone.mgsg"
    lone.write_bytes((out / "seed_0" / "checkpoint.mgsg").read_bytes())
    rc = main(["eval", "--data", str(data), "--checkpoint", str(lone), "--tttr", "0.5",
               "--compare", str(out / "seed_0" / "checkpoint.mgsg"),
               "--out", str(tmp_path / "rep")])
    assert rc == EXIT_OK
    notes = json.loads((tmp_path / "rep.json").read_text())["notes"]
    assert notes["split_not_checked"] == [str(lone)]
    capsys.readouterr()
    rc = main(["export-spectra", "--checkpoint", str(lone), "--data", str(data),
               "--tttr", "0.5", "--out", str(tmp_path / "spectra.csv")])
    assert rc == EXIT_OK
    assert "the split was not checked" in capsys.readouterr().err


def test_eval_requires_exactly_one_source(tmp_path):
    data = _synth(tmp_path)
    rc = main(["eval", "--data", str(data), "--tttr", "0.5",
               "--out", str(tmp_path / "rep")])
    assert rc == EXIT_USAGE


def test_export_spectra_columns_and_containment(tmp_path, made_nodes):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), "--epochs", "2",
          "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    made_nodes.clear()  # the export that follows builds no tape
    csv_path = tmp_path / "spectra.csv"
    rc = main(["export-spectra", "--checkpoint", str(out / "seed_0" / "checkpoint.mgsg"),
               "--data", str(data), "--tttr", "0.5", "--samples", "16",
               "--out", str(csv_path)])
    assert rc == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "class,band,real_mean,generated_mean,box_lower,box_upper"
    assert len(lines) == 1 + 3 * 16  # classes x bands
    assert made_nodes and not [op for op, on_tape in made_nodes if on_tape]
    for line in lines[1:]:
        _, _, _real, gen, lo, hi = line.split(",")
        assert float(lo) <= float(gen) <= float(hi)  # generated mean inside the box


def test_train_abort_exit_code_and_salvage_checkpoint(tmp_path, monkeypatch, capsys):
    import mgsgan.training as training
    from mgsgan.cli import EXIT_NUMERIC
    from mgsgan.errors import NumericError

    data = _synth(tmp_path)
    calls = {"n": 0}
    real_loss_d = training.loss_d

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise NumericError("poisoned")
        return real_loss_d(*args, **kwargs)

    monkeypatch.setattr(training, "loss_d", poisoned)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "3",
               "--tttr", "0.5", "--batch", "32", "--seeds", "0"])
    assert rc == EXIT_NUMERIC
    salvaged = out / "seed_0" / "checkpoint.aborted.mgsg"
    assert salvaged.exists()
    assert f"last good checkpoint in {salvaged}" in capsys.readouterr().err


def test_train_abort_in_first_epoch_names_no_checkpoint(tmp_path, monkeypatch, capsys):
    import mgsgan.training as training
    from mgsgan.cli import EXIT_NUMERIC
    from mgsgan.errors import NumericError

    data = _synth(tmp_path)

    def poisoned(*args, **kwargs):
        raise NumericError("poisoned")

    monkeypatch.setattr(training, "loss_d", poisoned)
    out = tmp_path / "run"
    rc = main(["train", "--data", str(data), "--out", str(out), "--epochs", "3",
               "--tttr", "0.5", "--batch", "32", "--seeds", "0"])
    assert rc == EXIT_NUMERIC
    assert list((out / "seed_0").iterdir()) == []
    err = capsys.readouterr().err
    assert "no checkpoint written" in err and "last good checkpoint" not in err


def test_export_spectra_rejects_bad_sample_count(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
          "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    rc = main(["export-spectra", "--checkpoint", str(out / "seed_0" / "checkpoint.mgsg"),
               "--data", str(data), "--tttr", "0.5", "--samples", "0",
               "--out", str(tmp_path / "s.csv")])
    assert rc == EXIT_USAGE


def test_export_spectra_class_filter_and_unknown_class(tmp_path):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    main(["train", "--data", str(data), "--out", str(out), "--epochs", "0",
          "--tttr", "0.5", "--batch", "16", "--seeds", "0"])
    ckpt = str(out / "seed_0" / "checkpoint.mgsg")
    csv_path = tmp_path / "one.csv"
    rc = main(["export-spectra", "--checkpoint", ckpt, "--data", str(data),
               "--tttr", "0.5", "--samples", "4", "--classes", "2",
               "--out", str(csv_path)])
    assert rc == EXIT_OK
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 16 and all(l.startswith("2,") for l in lines[1:])
    rc = main(["export-spectra", "--checkpoint", ckpt, "--data", str(data),
               "--tttr", "0.5", "--samples", "4", "--classes", "7",
               "--out", str(tmp_path / "bad.csv")])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("argv, code, message", [
    (["synth", "--classes", "0", "--bands", "8", "--sizes", ""], EXIT_USAGE, "at least one class"),
    (["synth", "--classes", "1", "--bands", "0", "--sizes", "5"], EXIT_USAGE, "at least 4 bands"),
    (["eval", "--data", "{binary}", "--checkpoint", "{binary}", "--tttr", "0.5"], EXIT_DATA,
     "not a UTF-8 text CSV file"),
], ids=["no-classes", "no-bands", "binary-data"])
def test_bad_input_exits_with_its_code_and_no_traceback(tmp_path, capsys, argv, code, message):
    binary = tmp_path / "blob.csv"
    binary.write_bytes(bytes(range(256)) * 4)
    argv = [a.format(binary=binary) for a in argv] + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_eval_run_dir_of_two_modes_is_data_error(tmp_path, capsys):
    data = _synth(tmp_path)
    out = tmp_path / "run"
    for mode, seed in (("mgsgan", "0"), ("acsgan", "1")):
        main(["train", "--data", str(data), "--out", str(out), "--epochs", "0", "--mode", mode,
              "--tttr", "0.5", "--batch", "16", "--seeds", seed])
    rc = main(["eval", "--data", str(data), "--run-dir", str(out),
               "--tttr", "0.5", "--out", str(tmp_path / "rep")])
    assert rc == EXIT_DATA
    err = capsys.readouterr().err
    for mode, seed in (("mgsgan", "0"), ("acsgan", "1")):
        assert f"{out / f'seed_{seed}' / 'checkpoint.mgsg'} is {mode}" in err
    assert not (tmp_path / "rep.json").exists()
