"""Training precision: ops keep their operands' dtype, players train in models.DTYPE.

The engine computes in whatever dtype it is given (f64 by default, which the
finite-difference gradient gates use); `build_players` casts the players to
f32 and every input is cast to its player's dtype, so a run moves no f64
array through its players, and a checkpoint, which stores f32, keeps every
bit of the model it saves.
"""

import zlib

import numpy as np
import pytest

import mgsgan.training as training
import test_autodiff
from mgsgan import autodiff as ad
from mgsgan.checkpoint import load_checkpoint_bytes
from mgsgan.data import SpectralDataset
from mgsgan.errors import ContractError
from mgsgan.layers import Adam, BatchNorm1d
from mgsgan.losses import ClampLog, _safe_log
from mgsgan.models import DTYPE, MODES, compute_class_domains
from mgsgan.training import TrainConfig, train

F32 = np.dtype(np.float32)


def _toy_ds(n_per=16, d=8, n_classes=3, seed=5):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-0.7, 0.7, size=(n_classes, d))
    rows = [c + rng.uniform(-0.05, 0.05, size=(n_per, d)) for c in centers]
    return SpectralDataset(np.concatenate(rows), np.repeat(np.arange(n_classes), n_per),
                           n_classes)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", sorted(ad.OP_KINDS))
def test_ops_compute_in_the_dtype_of_their_operands(kind, dtype, monkeypatch):
    # Each op's gradient case with its leaves and probe made in `dtype`: every
    # node on the way to the loss and every leaf gradient must be in it too.
    outputs = []
    make = ad._make

    def recording_make(data, *rest):
        outputs.append(data.dtype)
        return make(data, *rest)

    monkeypatch.setattr(ad, "_make", recording_make)
    monkeypatch.setattr(ad, "param", lambda data: ad.Tensor(np.asarray(data, dtype=dtype),
                                                             requires_grad=True))
    monkeypatch.setattr(test_autodiff, "random_probe",
                        lambda rng, shape: ad.const(rng.standard_normal(shape), dtype=dtype))
    rng = np.random.default_rng(zlib.crc32(kind.encode()))
    for _ in range(3):
        loss, leaves = test_autodiff._case(rng, kind)
        ad.backward(loss())
        assert {leaf.grad.dtype for leaf in leaves} == {np.dtype(dtype)}
    assert set(outputs) == {np.dtype(dtype)}


def _batch_norms(model):
    nets = list(model.trainable().values())[1:]  # D, and C when it is a separate player
    return [layer for net in nets for layer in net.layers if isinstance(layer, BatchNorm1d)]


@pytest.mark.parametrize("mode", MODES)
def test_training_keeps_every_array_in_f32(mode, monkeypatch):
    adams = []

    class RecordingAdam(Adam):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            adams.append(self)

    def f32_loss_c(cls, real_x, real_y, fake_x, *args, **kwargs):
        # runs in the classifier worker, whose arrays the parent never sees
        loss = loss_c(cls, real_x, real_y, fake_x, *args, **kwargs)
        assert {real_x.data.dtype, fake_x.data.dtype, loss.data.dtype} == {F32}
        return loss

    loss_c = training.loss_c
    monkeypatch.setattr(training, "Adam", RecordingAdam)
    monkeypatch.setattr(training, "loss_c", f32_loss_c)
    res = train(_toy_ds(), TrainConfig(epochs=1, batch=16, seed=3, mode=mode))
    assert DTYPE == np.float32
    model = res.model
    players = (model.generator, model.discriminator, model.classifier)
    arrays = [p.data for player in players for p in player.parameters()]
    arrays += [a for adam in adams for a in adam.m + adam.v]
    arrays += [a for bn in _batch_norms(model) for a in (bn.running_mean, bn.running_var)]
    assert {a.dtype for a in arrays} == {F32}
    if mode == "mgsgan":
        assert [r.containment_overall for r in res.runlog.records] == [1.0]


@pytest.mark.parametrize("mode", MODES)
def test_checkpoint_round_trip_of_a_trained_model_is_lossless(mode):
    res = train(_toy_ds(), TrainConfig(epochs=1, batch=16, seed=4, mode=mode))
    ck = load_checkpoint_bytes(res.checkpoint_bytes())
    model = res.model
    for mine, loaded in [(model.generator, ck.generator), (model.discriminator, ck.discriminator),
                         (model.classifier, ck.classifier)]:
        for p, q in zip(mine.parameters(), loaded.parameters(), strict=True):
            assert p.data.dtype == q.data.dtype and p.data.tobytes() == q.data.tobytes()
    for dom, back in zip(model.domains, ck.domains, strict=True):
        assert dom.lower.tobytes() == back.lower.tobytes()
        assert dom.upper.tobytes() == back.upper.tobytes()


def test_train_boxes_are_f32_values_that_hold_the_class_boxes():
    ds = _toy_ds()
    res = train(ds, TrainConfig(epochs=0, batch=16, seed=0, domain_margin=0.0))
    for dom, exact in zip(res.model.domains, compute_class_domains(ds, 0.0), strict=True):
        for bound in (dom.lower, dom.upper):
            np.testing.assert_array_equal(bound.astype(np.float32), bound)
        assert np.all(dom.lower <= exact.lower) and np.all(exact.upper <= dom.upper)
        assert np.all(dom.contains(ds.samples[ds.labels == dom.class_id]))


def test_train_rejects_samples_outside_the_unit_range():
    # unnormalized data would leave the generator's tanh range, and its box
    # would pin every generated band
    ds = _toy_ds()
    raw = SpectralDataset(ds.samples * 1000.0 + 3000.0, ds.labels, ds.class_count)
    with pytest.raises(ContractError, match=r"sample 0, band 0 .* outside \[-1, 1\]"):
        train(raw, TrainConfig(epochs=1, batch=16, seed=0))
    edge = ds.samples.copy()
    edge[0, :] = 1.0
    edge[1, :] = -1.0
    train(SpectralDataset(edge, ds.labels, ds.class_count), TrainConfig(epochs=0, batch=16))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
def test_a_probability_clamp_is_recorded_whenever_it_moves_a_value(dtype):
    # 1 - PROB_EPS rounds to 0.99999988 in f32, so the largest f32 below 1 is
    # clamped, with a zero gradient, though it is neither 0 nor 1
    top = np.nextafter(dtype(1), dtype(0))
    for values, moved in (([0.5, 0.25], False), ([0.5, top], True), ([0.0, 0.5], True)):
        clamps = ClampLog()
        _safe_log(ad.const(values, dtype=dtype), clamps)
        assert clamps.hit == moved
