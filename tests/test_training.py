"""Training-engine contracts: update order, isolation, determinism, abort."""

import multiprocessing
import os
import time

import numpy as np
import pytest

import mgsgan.training as training
from mgsgan import autodiff as ad
from mgsgan.data import SpectralDataset, class_priors
from mgsgan.errors import ContractError, NumericError, TrainingAborted
from mgsgan.layers import Adam
from mgsgan.losses import loss_c, loss_d, loss_g
from mgsgan.models import (MODES, Classifier, Discriminator, Generator, GeneratorBank,
                           compute_class_domains)
from mgsgan.training import TrainConfig, train
from mgsgan.checkpoint import load_checkpoint_bytes


def _toy_ds(n_per=16, d=4, n_classes=2, spread=0.02, seed=321):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.7, 0.7, size=(n_classes, d))
    rows, labels = [], []
    for j in range(n_classes):
        rows.append(centers[j] + rng.uniform(-spread, spread, size=(n_per, d)))
        labels.append(np.full(n_per, j, dtype=np.int64))
    return SpectralDataset(np.concatenate(rows), np.concatenate(labels), n_classes)


def _params_bytes(net):
    return b"".join(p.data.tobytes() for p in net.parameters())


def test_zero_epochs_returns_initialized_networks_and_empty_log():
    ds = _toy_ds()
    res = train(ds, TrainConfig(epochs=0, batch=8, seed=3))
    assert res.runlog.records == []
    assert res.model.d == 4
    assert res.model.generator.generator.experts == 2


def test_lr_zero_leaves_parameters_bit_identical():
    ds = _toy_ds()
    cfg0 = TrainConfig(epochs=0, batch=32, seed=5, lr=0.0)
    init = train(ds, cfg0)
    cfg1 = TrainConfig(epochs=1, batch=32, seed=5, lr=0.0)
    stepped = train(ds, cfg1)
    for a, b in [(init.model.generator, stepped.model.generator),
                 (init.model.discriminator, stepped.model.discriminator),
                 (init.model.classifier, stepped.model.classifier)]:
        assert _params_bytes(a) == _params_bytes(b)


@pytest.mark.parametrize("mode", MODES)
def test_generator_calls_per_batch(mode, monkeypatch):
    # The benchmark marks each batch's start by wrapping these two methods with
    # exactly these arguments: mgsgan calls the bank once per batch and never
    # Generator.forward, the other modes call Generator.forward(gen, z) once.
    calls = []
    generate_batch, forward = GeneratorBank.generate_batch, Generator.forward

    def counted_generate_batch(bank, z, classes):
        calls.append("generate_batch")
        return generate_batch(bank, z, classes)

    def counted_forward(gen, z):
        calls.append("forward")
        return forward(gen, z)

    monkeypatch.setattr(GeneratorBank, "generate_batch", counted_generate_batch)
    monkeypatch.setattr(Generator, "forward", counted_forward)
    ds = _toy_ds()
    train(ds, TrainConfig(epochs=2, batch=8, seed=3, mode=mode))
    want = "generate_batch" if mode == "mgsgan" else "forward"
    assert calls == [want] * (2 * (ds.size // 8))


def test_batch_larger_than_dataset_rejected():
    ds = _toy_ds(n_per=4)
    with pytest.raises(ContractError):
        train(ds, TrainConfig(epochs=1, batch=64, seed=0))
    with pytest.raises(ContractError):  # batch norm needs two rows
        TrainConfig(epochs=1, batch=1, seed=0)


def test_negative_seed_rejected():
    with pytest.raises(ContractError, match="seed"):  # numpy's generators need seeds >= 0
        TrainConfig(epochs=1, batch=8, seed=-1)


def test_frozen_player_contract_each_step():
    rng = np.random.default_rng(9)
    ds = _toy_ds(n_per=12, d=8)
    priors = class_priors(ds)
    domains = compute_class_domains(ds, 0.05)
    bank = GeneratorBank(Generator(6, 8, rng, 2), domains)
    disc = Discriminator(8, rng)
    cls = Classifier(8, 2, rng)
    adam = {"g": Adam(bank.parameters(), lr=0.01),
            "d": Adam(disc.parameters(), lr=0.01),
            "c": Adam(cls.parameters(), lr=0.01)}
    players = {"g": bank, "d": disc, "c": cls}
    real_x = ad.const(ds.samples[:8])
    real_y = ds.labels[:8]
    z = ad.const(rng.standard_normal((8, 6)))
    classes = rng.integers(0, 2, size=8)

    def snap():
        return {k: _params_bytes(v) for k, v in players.items()}

    # D step: theta_g, theta_c bit-identical before and after
    before = snap()
    fake = bank.generate_batch(z, classes)
    with training._Freezer(players, "d"):
        adam["d"].zero_grad()
        ad.backward(loss_d(disc, real_x, real_y, fake.detach(), classes, priors))
        adam["d"].step()
    after = snap()
    assert after["g"] == before["g"] and after["c"] == before["c"]
    assert after["d"] != before["d"]

    # C step
    before = after
    with training._Freezer(players, "c"):
        adam["c"].zero_grad()
        ad.backward(loss_c(cls, real_x, real_y, fake.detach(), classes, priors))
        adam["c"].step()
    after = snap()
    assert after["g"] == before["g"] and after["d"] == before["d"]
    assert after["c"] != before["c"]

    # G step
    before = after
    fake = bank.generate_batch(z, classes)
    with training._Freezer(players, "g"):
        adam["g"].zero_grad()
        ad.backward(loss_g(disc, fake, classes, priors))
        adam["g"].step()
    after = snap()
    assert after["d"] == before["d"] and after["c"] == before["c"]
    assert after["g"] != before["g"]


def test_training_determinism_bit_identical():
    ds = _toy_ds(n_per=16, d=8, n_classes=3)
    cfg = TrainConfig(epochs=3, batch=16, seed=11)
    r1 = train(ds, cfg)
    r2 = train(ds, TrainConfig(epochs=3, batch=16, seed=11))
    assert r1.runlog.to_jsonl() == r2.runlog.to_jsonl()
    assert r1.checkpoint_bytes() == r2.checkpoint_bytes()
    r3 = train(ds, TrainConfig(epochs=3, batch=16, seed=12))
    assert r1.checkpoint_bytes() != r3.checkpoint_bytes()


def test_mgsgan_containment_telemetry_is_exact():
    ds = _toy_ds(n_per=20, d=8, n_classes=2)
    res = train(ds, TrainConfig(epochs=4, batch=16, seed=2, mode="mgsgan"))
    for rec in res.runlog.records:
        assert rec.containment_overall == 1.0
        for c in rec.containment:
            assert c is None or c == 1.0


def test_acsgan_single_class_losses_reduce_to_vanilla_gan():
    # with N = 1 every prior weight is 1, so the game losses equal the plain
    # unweighted two-player forms on the same fixed batches
    rng = np.random.default_rng(20)
    ds = _toy_ds(n_per=16, d=8, n_classes=1)
    priors = class_priors(ds)
    np.testing.assert_array_equal(priors.p_real, [1.0])
    disc = Discriminator(8, rng)
    real_x = ad.const(ds.samples[:8])
    fake_x = ad.const(rng.uniform(-1, 1, size=(8, 8)))
    y = np.zeros(8, dtype=int)
    ld = loss_d(disc, real_x, y, fake_x, y, priors, train=False)
    d_real = disc.prob(real_x, False).data
    d_fake = disc.prob(fake_x, False).data
    vanilla = -(np.mean(np.log(d_real)) + np.mean(np.log(1.0 - d_fake)))
    assert abs(ld.item() - vanilla) < 1e-10
    lg = loss_g(disc, fake_x, y, priors, train=False)
    assert abs(lg.item() - -np.mean(np.log(d_fake))) < 1e-10


def test_achsgan_discriminator_has_n_plus_one_outputs():
    ds = _toy_ds(n_per=16, d=8, n_classes=3)
    res = train(ds, TrainConfig(epochs=1, batch=16, seed=0, mode="achsgan"))
    assert res.model.discriminator.n_out == 4
    logits = res.model.discriminator.logits(ad.const(ds.samples[:5]), train=False)
    assert logits.shape == (5, 4)
    probs = res.model.classifier.probs(ad.const(ds.samples[:5]), train=False)
    assert probs.shape == (5, 3)
    np.testing.assert_allclose(probs.data.sum(axis=1), 1.0, atol=1e-9)


def test_all_modes_share_data_order_for_a_seed():
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    digests = {}
    for mode in ("mgsgan", "acsgan", "achsgan"):
        res = train(ds, TrainConfig(epochs=3, batch=16, seed=7, mode=mode))
        assert res.model.mode == mode
        digests[mode] = [r.data_order_digest for r in res.runlog.records]
    assert digests["mgsgan"] == digests["acsgan"] == digests["achsgan"]


def test_train_baseline_is_mode_dispatch():
    ds = _toy_ds(n_per=8, d=8)
    res = train(ds, TrainConfig(epochs=1, batch=8, seed=1, mode="acsgan"))
    assert res.model.mode == "acsgan"


def test_nonfinite_loss_aborts_with_context_and_checkpoint(monkeypatch):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    calls = {"n": 0}
    real_loss_d = training.loss_d

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:  # first batch of the second epoch (2 batches/epoch)
            raise NumericError("poisoned loss")
        return real_loss_d(*args, **kwargs)

    monkeypatch.setattr(training, "loss_d", poisoned)
    with pytest.raises(TrainingAborted) as err:
        train(ds, TrainConfig(epochs=4, batch=16, seed=1, mode="mgsgan"))
    abort = err.value
    assert abort.epoch == 1 and abort.batch == 0
    assert abort.last_good is not None
    restored = load_checkpoint_bytes(abort.last_good)
    assert restored.mode == "mgsgan" and restored.d == 8


def test_runlog_jsonl_excludes_wall_clock():
    ds = _toy_ds(n_per=8, d=8)
    res = train(ds, TrainConfig(epochs=2, batch=8, seed=0))
    assert "wall_clock" not in res.runlog.to_jsonl()
    assert "wall_clock_per_epoch" in res.runlog.to_timing_json()


def test_uniform_prior_mode_uses_uniform_weights():
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    res = train(ds, TrainConfig(epochs=1, batch=16, seed=0, prior_mode="uniform"))
    np.testing.assert_allclose(res.priors.p_gen, [0.5, 0.5], atol=1e-15)


def test_interval_checkpoints_written(tmp_path):
    ds = _toy_ds(n_per=16, d=8)
    cfg = TrainConfig(epochs=5, batch=16, seed=0, checkpoint_interval=2)
    train(ds, cfg, checkpoint_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.glob("epoch_*.mgsg"))
    assert names == ["epoch_2.mgsg", "epoch_4.mgsg"]
    restored = load_checkpoint_bytes((tmp_path / "epoch_4.mgsg").read_bytes())
    assert restored.d == 8


@pytest.mark.parametrize("dist", ["normal", "normal-shifted", "uniform"])
def test_noise_distributions_run_and_differ(dist):
    ds = _toy_ds(n_per=16, d=8)
    res = train(ds, TrainConfig(epochs=1, batch=16, seed=0, noise_dist=dist))
    assert len(res.runlog.records) == 1


def test_noise_dist_changes_outputs():
    ds = _toy_ds(n_per=16, d=8)
    outs = {}
    for dist in ("normal", "uniform"):
        res = train(ds, TrainConfig(epochs=1, batch=16, seed=0, noise_dist=dist))
        outs[dist] = res.checkpoint_bytes()
    assert outs["normal"] != outs["uniform"]


@pytest.mark.slow
def test_toy_equilibrium_discriminator_near_half():
    # tight per-class clusters: the clamped generator output matches the real
    # distribution almost immediately, so D hovers at its 0.5 equilibrium
    ds = _toy_ds(n_per=16, d=4, n_classes=2, spread=0.02, seed=321)
    finals_real, finals_fake = [], []
    for seed in range(5):
        res = train(ds, TrainConfig(epochs=500, batch=16, seed=seed, mode="mgsgan"))
        rec = res.runlog.records[-1]
        finals_real.append(rec.d_real_mean)
        finals_fake.append(rec.d_fake_mean)
    assert abs(np.median(finals_real) - 0.5) < 0.1
    assert abs(np.median(finals_fake) - 0.5) < 0.1


# ---------------------------------------------------------------------------
# the classifier's worker process (mgsgan and acsgan); it is forked, so it
# inherits the monkeypatched `training.loss_c` and counts its own calls


def _on_call(at_call, action, real):
    """A stand-in for `real` that runs action instead on its at_call-th call in its process."""
    calls = {"n": 0}

    def wrapped(*args, **kwargs):
        calls["n"] += 1
        return (action if calls["n"] == at_call else real)(*args, **kwargs)

    return wrapped


def _poison(monkeypatch, name, at_call, exc):
    """Make training.<name> raise exc on its at_call-th call in its process."""
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(training, name, _on_call(at_call, fail, getattr(training, name)))


def test_classifier_clamp_logged_once_in_the_parent(monkeypatch, caplog):
    import logging
    import os

    from mgsgan.losses import _safe_log

    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    cfg = TrainConfig(epochs=2, batch=16, seed=1, mode="mgsgan")
    with caplog.at_level(logging.WARNING, logger="mgsgan.losses"):
        train(ds, cfg)
    assert not [r for r in caplog.records if "clamped" in r.message]  # D and G never clamp here
    real_loss_c = training.loss_c

    def clamping_loss_c(*args, clamps=None, **kwargs):
        _safe_log(ad.const(np.ones(2)), clamps)  # a clamp in every C step
        return real_loss_c(*args, clamps=clamps, **kwargs)

    monkeypatch.setattr(training, "loss_c", clamping_loss_c)
    with caplog.at_level(logging.WARNING, logger="mgsgan.losses"):
        train(ds, cfg)
    clamped = [r for r in caplog.records if "clamped" in r.message]
    assert len(clamped) == 1 and clamped[0].process == os.getpid()
    assert multiprocessing.active_children() == []


def test_classifier_step_abort_has_context_and_last_good(monkeypatch):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    one_epoch = train(ds, TrainConfig(epochs=1, batch=16, seed=1, mode="mgsgan"))
    init = train(ds, TrainConfig(epochs=0, batch=16, seed=1, mode="mgsgan"))
    # the parent's classifier holds the worker's epoch-end weights
    assert _params_bytes(one_epoch.model.classifier) != _params_bytes(init.model.classifier)
    # call 3 is the first batch of the second epoch (2 batches/epoch)
    _poison(monkeypatch, "loss_c", 3, NumericError("poisoned C"))
    with pytest.raises(TrainingAborted, match="poisoned C") as err:
        train(ds, TrainConfig(epochs=4, batch=16, seed=1, mode="mgsgan"))
    assert err.value.epoch == 1 and err.value.batch == 0
    assert err.value.last_good == one_epoch.checkpoint_bytes()
    assert load_checkpoint_bytes(err.value.last_good).mode == "mgsgan"
    assert multiprocessing.active_children() == []


def test_pulled_classifier_keeps_the_arrays_it_was_built_with(monkeypatch):
    # the epoch-end pull copies the worker's state into the parent's arrays in place
    built = []
    real_build_players = training.build_players

    def recording_build_players(*args):
        model = real_build_players(*args)
        built.extend((p, p.data, p.data.copy()) for p in model.classifier.parameters())
        return model

    monkeypatch.setattr(training, "build_players", recording_build_players)
    res = train(_toy_ds(n_per=16, d=8), TrainConfig(epochs=2, batch=16, seed=1, mode="acsgan"))
    assert [p for p, _, _ in built] == res.model.classifier.parameters()
    assert all(p.data is data for p, data, _ in built)
    assert any(not np.array_equal(p.data, init) for p, _, init in built)  # it was trained


def test_classifier_error_is_reported_over_generator_error(monkeypatch):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    _poison(monkeypatch, "loss_c", 3, NumericError("poisoned C"))
    _poison(monkeypatch, "loss_g", 3, NumericError("poisoned G"))
    with pytest.raises(TrainingAborted, match="poisoned C") as err:
        train(ds, TrainConfig(epochs=2, batch=16, seed=1, mode="acsgan"))
    assert err.value.epoch == 1 and err.value.batch == 0


def test_discriminator_error_discards_the_classifier_result(monkeypatch):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    workers = []
    real_loss_d = training.loss_d

    def watching_loss_d(*args, **kwargs):
        workers.extend(multiprocessing.active_children())
        return real_loss_d(*args, **kwargs)

    monkeypatch.setattr(training, "loss_d", watching_loss_d)
    _poison(monkeypatch, "loss_d", 3, NumericError("poisoned D"))
    _poison(monkeypatch, "loss_c", 3, ValueError("C fails too"))
    with pytest.raises(TrainingAborted, match="poisoned D") as err:
        train(ds, TrainConfig(epochs=2, batch=16, seed=1, mode="mgsgan"))
    assert err.value.epoch == 1 and err.value.batch == 0
    assert workers and all(w.daemon for w in workers) and len(set(workers)) == 1
    assert multiprocessing.active_children() == []


def test_classifier_worker_exception_keeps_its_type(monkeypatch):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    _poison(monkeypatch, "loss_c", 2, KeyError("not numeric"))
    with pytest.raises(KeyError, match="not numeric") as err:
        train(ds, TrainConfig(epochs=2, batch=16, seed=1, mode="mgsgan"))
    assert "in the classifier worker" in str(err.value.__cause__)
    assert multiprocessing.active_children() == []


# the worker runs one batch behind: C(b) is sent once batch b is generated and
# C(b-1)'s reply read after that; these runs have 2 batches per epoch


def test_classifier_error_is_reported_at_its_batch_over_next_discriminator(monkeypatch):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    _poison(monkeypatch, "loss_c", 1, NumericError("poisoned C"))
    _poison(monkeypatch, "loss_d", 2, NumericError("poisoned D"))
    with pytest.raises(TrainingAborted, match="poisoned C") as err:
        train(ds, TrainConfig(epochs=2, batch=16, seed=1, mode="mgsgan"))
    assert err.value.epoch == 0 and err.value.batch == 0
    assert "epoch 0, batch 0" in str(err.value)
    assert multiprocessing.active_children() == []


def test_last_classifier_step_error_is_read_before_the_epoch_is_logged(monkeypatch):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    appended = []
    real_append = training.RunLog.append
    monkeypatch.setattr(training.RunLog, "append",
                        lambda log, rec: (appended.append(rec), real_append(log, rec)))
    _poison(monkeypatch, "loss_c", 2, NumericError("poisoned C"))
    with pytest.raises(TrainingAborted, match="poisoned C") as err:
        train(ds, TrainConfig(epochs=2, batch=16, seed=1, mode="acsgan"))
    assert err.value.epoch == 0 and err.value.batch == 1
    assert err.value.last_good is None and appended == []
    assert multiprocessing.active_children() == []


def test_classifier_error_wins_over_generating_the_next_batch(monkeypatch):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    _poison(monkeypatch, "loss_c", 1, NumericError("poisoned C"))
    _poison(monkeypatch, "generate", 2, NumericError("poisoned generator"))
    with pytest.raises(TrainingAborted, match="poisoned C") as err:
        train(ds, TrainConfig(epochs=2, batch=16, seed=1, mode="mgsgan"))
    assert err.value.epoch == 0 and err.value.batch == 0
    assert multiprocessing.active_children() == []


def _exit(*args, **kwargs):
    os._exit(1)


def _sleep_then_exit(*args, **kwargs):
    time.sleep(0.5)  # meanwhile the parent sends C(1) and waits for C(0)'s reply
    os._exit(1)


_REAL_GENERATE = training.generate


def _generate_once_the_worker_exited(*args, **kwargs):
    for proc in multiprocessing.active_children():
        proc.join(timeout=10)
    return _REAL_GENERATE(*args, **kwargs)


@pytest.mark.parametrize("case", ["sending", "receiving-unread", "receiving-at-epoch-end"])
def test_worker_exit_raises_instead_of_hanging(monkeypatch, case):
    ds = _toy_ds(n_per=16, d=8, n_classes=2)
    real_loss_c = training.loss_c
    if case == "sending":  # the worker is gone when C(1) is sent
        monkeypatch.setattr(training, "loss_c", _on_call(1, _exit, real_loss_c))
        monkeypatch.setattr(training, "generate",
                            _on_call(2, _generate_once_the_worker_exited, _REAL_GENERATE))
    elif case == "receiving-unread":  # it exits in C(0) with C(1) unread
        monkeypatch.setattr(training, "loss_c", _on_call(1, _sleep_then_exit, real_loss_c))
    else:  # it exits in C(1), whose reply is read at epoch end
        monkeypatch.setattr(training, "loss_c", _on_call(2, _exit, real_loss_c))
    with pytest.raises(RuntimeError, match=r"classifier worker exited \(exit code 1\)"):
        train(ds, TrainConfig(epochs=2, batch=16, seed=1, mode="mgsgan"))
    assert multiprocessing.active_children() == []
