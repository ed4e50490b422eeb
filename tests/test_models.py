"""Player models: domain boxes, projection, heads, checkpoint round-trip."""

import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsgan import autodiff as ad
from mgsgan import blas, models
from mgsgan.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
from mgsgan.data import SpectralDataset
from mgsgan.errors import ContractError, DataError, NumericError, ShapeError
from mgsgan.layers import ConvTranspose1d, Dense
from mgsgan.models import (GEN_KERNEL, GEN_PAD, GEN_STRIDE, MODES, ClassDomain, Classifier,
                           Discriminator, Generator, GeneratorBank, build_players, classify,
                           compute_class_domains, discriminate, generate, generator_plan,
                           player_dtype, predict_labels)

from conftest import fd_gradcheck, random_probe, reduce_to_scalar


def _domains_for(d, n, lo=-1.0, hi=1.0):
    return [ClassDomain(j, np.full(d, lo), np.full(d, hi)) for j in range(n)]


def _bank(d, noise, domains, rng):
    return GeneratorBank(Generator(noise, d, rng, len(domains)), domains)


def test_domain_single_sample_is_degenerate_box():
    ds = SpectralDataset(np.array([[0.3, -0.2, 0.9]]), np.array([0]), 1)
    dom = compute_class_domains(ds, margin=0.0)[0]
    np.testing.assert_array_equal(dom.lower, dom.upper)
    np.testing.assert_array_equal(dom.lower, [0.3, -0.2, 0.9])


def test_domain_per_band_extrema():
    ds = SpectralDataset(np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 0]), 1)
    dom = compute_class_domains(ds, margin=0.0)[0]
    np.testing.assert_array_equal(dom.lower, [0.0, 1.0])
    np.testing.assert_array_equal(dom.upper, [2.0, 3.0])


def test_domain_margin_widening():
    ds = SpectralDataset(np.array([[0.0], [2.0]]), np.array([0, 0]), 1)
    dom = compute_class_domains(ds, margin=0.05)[0]
    np.testing.assert_allclose(dom.lower, [-0.1], atol=1e-12)
    np.testing.assert_allclose(dom.upper, [2.1], atol=1e-12)


def test_domain_rejects_negative_margin_and_bad_bounds():
    ds = SpectralDataset(np.zeros((2, 2)), np.array([0, 0]), 1)
    with pytest.raises(ContractError):
        compute_class_domains(ds, margin=-0.1)
    with pytest.raises(ContractError):
        ClassDomain(0, np.array([1.0]), np.array([0.0]))


def test_generate_output_always_inside_box():
    rng = np.random.default_rng(0)
    d, n = 12, 3
    domains = [ClassDomain(j, np.full(d, -0.3 + 0.1 * j), np.full(d, 0.2 + 0.1 * j))
               for j in range(n)]
    bank = _bank(d, 16, domains, rng)
    for j in range(n):
        z = ad.const(rng.standard_normal((8, 16)) * 3.0)
        out = bank.generate_batch(z, np.full(8, j)).data
        assert np.all(out >= domains[j].lower) and np.all(out <= domains[j].upper)


def test_generate_degenerate_domain_pins_output():
    rng = np.random.default_rng(1)
    d = 8
    s = rng.uniform(-0.5, 0.5, size=d)
    domains = [ClassDomain(0, s.copy(), s.copy())]
    bank = _bank(d, 10, domains, rng)
    for _ in range(3):
        out = bank.generate_batch(ad.const(rng.standard_normal((4, 10))), np.zeros(4, int)).data
        np.testing.assert_array_equal(out, np.tile(s, (4, 1)))


def test_generate_batch_minority_containment_under_overlap():
    # minority box inside an overlapping majority box: all draws stay inside it
    rng = np.random.default_rng(2)
    d = 10
    minority = ClassDomain(1, np.full(d, -0.1), np.full(d, 0.15))
    majority = ClassDomain(0, np.full(d, -0.8), np.full(d, 0.8))
    bank = _bank(d, 12, [majority, minority], rng)
    z = ad.const(rng.standard_normal((64, 12)))
    out = bank.generate_batch(z, np.ones(64, dtype=int)).data
    assert int(minority.contains(out).sum()) == 64


def _take_rows(x, idx):
    out = x.data[idx]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[idx] = g
        return (gx,)

    return ad._make(out, (x,), vjp, "take_rows")


def _scatter_rows(x, perm, n):
    out = np.empty((n,) + x.shape[1:], dtype=x.data.dtype)
    out[perm] = x.data

    def vjp(g):
        return (g[perm],)

    return ad._make(out, (x,), vjp, "scatter_rows")


def _expert_layers(gen, j):
    """Expert j of a generator stack as Dense and ConvTranspose1d layers holding its row."""
    rng = np.random.default_rng(0)
    (c0, c1, l1), (_, c2, d) = gen.ups
    up = dict(stride=GEN_STRIDE, pad=GEN_PAD)
    layers = [Dense(gen.in_dim, c0 * gen.l0, rng),
              ConvTranspose1d(c0, c1, GEN_KERNEL, rng, output_length=l1, **up),
              ConvTranspose1d(c1, c2, GEN_KERNEL, rng, output_length=d, **up)]
    params = [p for layer in layers for p in layer.parameters()]
    for p, stacked in zip(params, gen.parameters(), strict=True):
        p.data = stacked.data[j].copy()
    return layers, params


def _layers_forward(gen, layers, z):
    fc, up1, up2 = layers
    b = z.shape[0]
    h = ad.reshape(ad.relu(fc.forward(z)), (b, gen.c0, gen.l0))
    h = up2.forward(ad.relu(up1.forward(h)))
    return ad.tanh(ad.reshape(h, (b, gen.d)))


@pytest.mark.parametrize("noise,d,batch", [(7, 13, 5), (116, 200, 64)])
def test_one_expert_generator_gives_the_bits_of_its_layers(noise, d, batch):
    # the conditional generator runs through the bank ops: the forward output and
    # all six gradients are those of Dense -> ConvTranspose1d x2; the second shape
    # is the wide fingerprint's acsgan generator (100 noise + 16 classes, 200 bands)
    rng = np.random.default_rng(22)
    gen = Generator(noise, d, rng, 1)
    layers, params = _expert_layers(gen, 0)
    z = ad.const(rng.standard_normal((batch, noise)))
    probe = random_probe(rng, (batch, d))
    out = gen.forward(z)
    ad.backward(reduce_to_scalar(out, probe))
    ref = _layers_forward(gen, layers, z)
    ad.backward(reduce_to_scalar(ref, probe))
    assert out.data.tobytes() == ref.data.tobytes()
    for stacked, p in zip(gen.parameters(), params, strict=True):
        assert stacked.grad[0].tobytes() == p.grad.tobytes()


def _per_class_loop(bank, z, classes):
    """The bank's batch through per-class layer copies, reassembled in input order."""
    pieces, order, experts = [], [], []
    for j, dom in enumerate(bank.domains):
        layers, params = _expert_layers(bank.generator, j)
        experts.append(params)
        idx = np.flatnonzero(classes == j)
        if idx.size:
            raw = _layers_forward(bank.generator, layers, _take_rows(z, idx))
            pieces.append(ad.clamp(raw, dom.lower, dom.upper))
            order.append(idx)
    out = _scatter_rows(ad.concat(pieces, axis=0), np.concatenate(order), z.shape[0])
    return out, experts


def test_generate_batch_preserves_order():
    # the stacked bank gives the per-class loop's bits, forward and every gradient
    rng = np.random.default_rng(3)
    d, noise = 13, 6
    bank = _bank(d, noise, _domains_for(d, 4, -0.4, 0.4), rng)
    cases = [np.array([2, 0, 1, 1, 0, 2, 0, 1, 2]),  # class 3 absent
             np.array([3, 0, 0, 2, 0, 2, 0, 2]),  # class 1 absent, class 3 one row
             np.full(7, 1)]  # every row in one class
    for classes in cases:
        z = ad.const(rng.standard_normal((classes.size, noise)))
        probe = random_probe(rng, (classes.size, d))
        for p in bank.parameters():
            p.grad = None
        batched = bank.generate_batch(z, classes)
        ad.backward(reduce_to_scalar(batched, probe))
        looped, experts = _per_class_loop(bank, z, classes)
        ad.backward(reduce_to_scalar(looped, probe))
        assert batched.data.tobytes() == looped.data.tobytes()
        for i, stacked in enumerate(bank.parameters()):
            for j, params in enumerate(experts):
                want = params[i].grad
                if want is None:  # class j absent from the batch
                    want = np.zeros(stacked.shape[1:])
                assert stacked.grad[j].tobytes() == want.tobytes()
        for i, zi in enumerate(z.data):
            single = bank.generate_batch(ad.const(zi[None, :]), classes[i : i + 1]).data[0]
            np.testing.assert_allclose(batched.data[i], single, atol=1e-12)


def test_generate_invalid_class_rejected():
    rng = np.random.default_rng(4)
    bank = _bank(8, 6, _domains_for(8, 2), rng)
    for bad in (2, -1):
        with pytest.raises(ContractError):
            bank.generate_batch(ad.const(np.zeros((2, 6))), np.array([0, bad]))


@pytest.mark.parametrize("bad", [2, -1])
def test_generate_rejects_class_ids_outside_the_range_for_either_generator(bad):
    # a one-hot code of class -1 would be class N-1's; class N would index past np.eye(N)
    rng = np.random.default_rng(4)
    bank = _bank(8, 6, _domains_for(8, 2), rng)
    cond = Generator(8, 8, rng, 1)  # noise 6 plus a 2-class one-hot code
    for gen in (bank, cond):
        with pytest.raises(ContractError, match="outside"):
            generate(gen, np.zeros((2, 6)), np.array([0, bad]))


def test_discriminator_zero_head_gives_half():
    rng = np.random.default_rng(5)
    disc = Discriminator(16, rng)
    disc.head.weight.data[:] = 0.0
    disc.head.bias.data[:] = 0.0
    x = rng.standard_normal(16)
    assert discriminate(disc, x) == 0.5


def test_discriminator_output_strictly_inside_unit_interval():
    rng = np.random.default_rng(6)
    disc = Discriminator(16, rng)
    for _ in range(20):
        p = discriminate(disc, rng.standard_normal(16) * 5.0)
        assert 0.0 < p < 1.0


def test_discriminator_wrong_length_rejected():
    rng = np.random.default_rng(7)
    disc = Discriminator(16, rng)
    with pytest.raises(ShapeError):
        discriminate(disc, np.zeros(15))


def test_discriminator_probs_is_the_class_head_and_needs_one():
    rng = np.random.default_rng(9)
    x = ad.const(rng.standard_normal((3, 16)))
    with pytest.raises(ContractError, match="no class head"):
        Discriminator(16, rng).probs(x, train=False)
    disc = Discriminator(16, rng, n_out=5)
    assert disc.probs(x, train=False).data.tobytes() == \
        disc.heads(x, train=False)[1].data.tobytes()


def test_classifier_uniform_on_zero_head():
    rng = np.random.default_rng(8)
    cls = Classifier(16, 4, rng)
    cls.head.weight.data[:] = 0.0
    cls.head.bias.data[:] = 0.0
    probs = classify(cls, rng.standard_normal(16))
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)


def test_classifier_probs_sum_to_one():
    rng = np.random.default_rng(9)
    cls = Classifier(20, 5, rng)
    for _ in range(10):
        probs = classify(cls, rng.standard_normal(20))
        assert abs(probs.sum() - 1.0) < 1e-6


def test_classifier_argmax_shift_invariant():
    rng = np.random.default_rng(10)
    cls = Classifier(16, 3, rng)
    x = rng.standard_normal(16)
    base = classify(cls, x).argmax()
    cls.head.bias.data += 7.5  # constant shift of all logits
    assert classify(cls, x).argmax() == base


def test_generator_differentiable_through_projection():
    rng = np.random.default_rng(12)
    d = 8
    # box wide enough that all outputs sit strictly inside (clamp inactive)
    domains = [ClassDomain(0, np.full(d, -2.0), np.full(d, 2.0))]
    bank = _bank(d, 6, domains, rng)
    disc = Discriminator(d, rng)
    z = ad.const(rng.standard_normal((2, 6)))

    def loss():
        fake = bank.generate_batch(z, np.zeros(2, int))
        return ad.mean_(disc.prob(fake, train=False))

    leaves = bank.parameters()
    assert fd_gradcheck(loss, leaves) < 1e-3


def test_conditional_generator_input_dim():
    rng = np.random.default_rng(13)
    gen = build_players("acsgan", 4, 16, 10, _domains_for(16, 4), rng).generator
    assert gen.in_dim == 14
    out = gen.forward(ad.const(rng.standard_normal((3, 14))))
    assert out.shape == (3, 16)


def test_generate_matches_bank_call_and_onehot_input():
    rng = np.random.default_rng(17)
    bank = _bank(8, 6, _domains_for(8, 3, -0.4, 0.4), rng)
    cond = Generator(9, 8, rng, 1)
    z = rng.standard_normal((5, 6))
    for j in range(3):
        classes = np.full(5, j)
        assert generate(bank, z, classes).data.tobytes() == \
            bank.generate_batch(ad.const(z), classes).data.tobytes()
        onehot = np.zeros((5, 3))
        onehot[:, j] = 1.0
        assert generate(cond, z, classes).data.tobytes() == \
            cond.forward(ad.const(np.concatenate([z, onehot], axis=1))).data.tobytes()


def test_build_players_rejects_unknown_mode():
    with pytest.raises(ContractError):
        build_players("gan", 2, 8, 4, _domains_for(8, 2), np.random.default_rng(0))


def test_generator_exact_output_length_odd_bands():
    rng = np.random.default_rng(14)
    for d in (5, 7, 64, 103, 200):
        gen = Generator(6, d, rng, 1)
        assert gen.forward(ad.const(rng.standard_normal((2, 6)))).shape == (2, d)


def test_predict_labels_matches_classify():
    rng = np.random.default_rng(15)
    cls = Classifier(12, 3, rng)
    xs = rng.standard_normal((7, 12))
    preds = predict_labels(cls, xs)
    singles = [classify(cls, x).argmax() for x in xs]
    np.testing.assert_array_equal(preds, singles)


def _predict_one_batch_at_a_time(cls, samples, batch=256):
    """predict_labels as a plain loop in the calling thread."""
    x = np.asarray(samples, dtype=player_dtype(cls))
    out = []
    with ad.no_grad():
        for start in range(0, x.shape[0], batch):
            probs = cls.probs(ad.const(x[start : start + batch]), train=False)
            out.append(probs.data.argmax(axis=1))
    return np.concatenate(out)


def _eval_state():
    threads = blas._openblas()[0]() if blas._openblas() is not None else None
    return ad._recording, blas.describe()["threads"], threads


@pytest.fixture(scope="module")
def eval_players():
    """f32 players with a classifier and with a class head, and 9,222 rows of 16 bands."""
    rng = np.random.default_rng(31)
    samples = rng.uniform(-1.0, 1.0, size=(9222, 16))
    players = {mode: build_players(mode, 4, 16, 8, _domains_for(16, 4), rng)
               for mode in ("mgsgan", "achsgan")}
    return players, samples


@pytest.mark.parametrize("rows", [1, 255, 256, 257, 9222])
@pytest.mark.parametrize("mode", ["mgsgan", "achsgan"])
def test_threaded_predict_labels_matches_a_sequential_loop(monkeypatch, eval_players, mode,
                                                            rows):
    players, samples = eval_players
    cls = players[mode].classifier
    before = _eval_state()
    monkeypatch.setattr(models, "_usable_cpus", lambda: 4)  # more threads than cores
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        preds = predict_labels(cls, samples[:rows])
    finally:
        sys.setswitchinterval(switch)
    want = _predict_one_batch_at_a_time(cls, samples[:rows])
    assert preds.dtype == np.int64 and preds.tobytes() == want.tobytes()
    assert np.unique(want).size > 1 or rows == 1
    assert _eval_state() == before


@pytest.mark.parametrize("bad, error", [("band", ShapeError), ("nan", NumericError)])
def test_predict_labels_batch_error_reaches_the_caller_and_state_is_restored(
        monkeypatch, eval_players, bad, error):
    players, samples = eval_players
    cls = players["mgsgan"].classifier
    x = samples[:1000].copy()
    if bad == "band":
        x = x[:, :15]  # every batch raises
    else:
        x[700, 3] = np.nan  # the third of four batches raises
    before = _eval_state()
    monkeypatch.setattr(models, "_usable_cpus", lambda: 2)
    with pytest.raises(error):
        predict_labels(cls, x)
    assert _eval_state() == before
    assert ad._recording and before[0]


def test_eval_paths_record_no_tape_and_match_taped_bits(made_nodes):
    rng = np.random.default_rng(20)
    cls, disc = Classifier(12, 3, rng), Discriminator(12, rng)
    bank = _bank(12, 6, _domains_for(12, 3), rng)
    xs = rng.standard_normal((7, 12))
    z = rng.standard_normal((5, 6))
    classes = np.array([2, 0, 2, 1, 0])
    taped = {
        "preds": cls.probs(ad.const(xs), train=False).data.argmax(axis=1),
        "probs": cls.probs(ad.const(xs[:1]), train=False).data[0],
        "p_real": disc.prob(ad.const(xs[:1]), train=False).data[0],
        "fake": generate(bank, z, classes).data,
    }
    made_nodes.clear()
    untaped = {"preds": predict_labels(cls, xs), "probs": classify(cls, xs[0]),
               "p_real": np.float64(discriminate(disc, xs[0]))}
    with ad.no_grad():
        untaped["fake"] = generate(bank, z, classes).data
    assert made_nodes and not [op for op, on_tape in made_nodes if on_tape]
    for key, value in taped.items():
        assert untaped[key].tobytes() == value.tobytes(), key


# ---------------------------------------------------------------------------
# checkpoint format

def _trained_like_model(mode, rng, n=3, d=12):
    lo = rng.uniform(-1.0, 0.5, size=(n, d))
    domains = [ClassDomain(j, lo[j], lo[j] + rng.uniform(0.0, 0.5, size=d)) for j in range(n)]
    return build_players(mode, n, d, 8, domains, rng)


_CHECKPOINT_SHAPES = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("mode", MODES)
@_CHECKPOINT_SHAPES
@given(n=st.integers(1, 5), d=st.integers(4, 24))
def test_checkpoint_save_load_save_bit_identical(mode, n, d):
    rng = np.random.default_rng(16)
    blob = save_checkpoint_bytes(_trained_like_model(mode, rng, n, d))
    ck = load_checkpoint_bytes(blob)
    blob2 = save_checkpoint_bytes(ck)
    assert blob == blob2
    assert ck.mode == mode and ck.d == d and ck.n_classes == n
    # the reloaded generator gives the bits of the one it was saved from
    ck2 = load_checkpoint_bytes(blob2)
    z = rng.standard_normal((2 * n + 1, ck.noise_dim))
    classes = rng.integers(0, n, size=2 * n + 1)
    assert generate(ck2.generator, z, classes).data.tobytes() == \
        generate(ck.generator, z, classes).data.tobytes()


def test_checkpoint_loaded_values_are_f32_quantized_originals():
    rng = np.random.default_rng(17)
    model = _trained_like_model("mgsgan", rng)
    ck = load_checkpoint_bytes(save_checkpoint_bytes(model))
    orig = model.discriminator.head.weight.data
    loaded = ck.discriminator.head.weight.data
    np.testing.assert_array_equal(loaded, orig.astype(np.float32).astype(np.float64))


@_CHECKPOINT_SHAPES
@given(mode=st.sampled_from(MODES), n=st.integers(1, 5), d=st.integers(4, 24), data=st.data())
def test_checkpoint_magic_and_truncation_errors(mode, n, d, data):
    rng = np.random.default_rng(18)
    blob = save_checkpoint_bytes(_trained_like_model(mode, rng, n, d))
    with pytest.raises(DataError):
        load_checkpoint_bytes(b"XXXX" + blob[4:])
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(DataError):  # and nothing else
        load_checkpoint_bytes(blob[:cut])


@pytest.mark.parametrize("mode", MODES)
def test_generator_plan_is_what_build_players_makes(mode):
    # the checkpoint reader checks a header against this plan before building
    rng = np.random.default_rng(20)
    gen = build_players(mode, 3, 12, 8, _trained_like_model(mode, rng).domains, rng).generator
    stack = gen.generator if mode == "mgsgan" else gen
    assert (stack.experts, stack.in_dim) == generator_plan(mode, 3, 8)


@pytest.mark.parametrize("mode", MODES)
def test_checkpoint_writes_rebound_generator_parameters(mode):
    # a parameter whose .data is rebound (as the classifier worker's pull does to
    # C) must be saved with its new values, never through a stale view of the old
    rng = np.random.default_rng(21)
    model = _trained_like_model(mode, rng)
    for p in model.generator.parameters():
        p.data = p.data + 0.5
    ck = load_checkpoint_bytes(save_checkpoint_bytes(model))
    for saved, p in zip(ck.generator.parameters(), model.generator.parameters(), strict=True):
        np.testing.assert_array_equal(saved.data, p.data.astype(np.float32).astype(np.float64))


def test_checkpoint_preserves_batchnorm_running_stats():
    rng = np.random.default_rng(19)
    model = _trained_like_model("mgsgan", rng)
    disc = model.discriminator
    disc.bn.running_mean[:] = rng.standard_normal(disc.bn.running_mean.shape)
    disc.bn.running_var[:] = rng.uniform(0.5, 2.0, disc.bn.running_var.shape)
    ck = load_checkpoint_bytes(save_checkpoint_bytes(model))
    np.testing.assert_array_equal(
        ck.discriminator.bn.running_mean,
        disc.bn.running_mean.astype(np.float32).astype(np.float64))


# ---------------------------------------------------------------------------
# committed version-1 checkpoints

GOLDEN = Path(__file__).parent / "golden"


def _payload_arrays(blob: bytes) -> tuple[tuple, list, np.ndarray]:
    """(mode tag, N, d, noise_dim), every record's f32 arrays in file order, and the
    boxes, read by walking the version-1 layout directly, apart from the loader."""
    off = 4
    mode_tag, n, d, noise = struct.unpack_from("<4I", blob, off + 4)
    (net_count,) = struct.unpack_from("<I", blob, off + 20)
    off += 24
    arrays = []
    for _ in range(net_count):
        (layer_count,) = struct.unpack_from("<I", blob, off)
        off += 4
        for _ in range(layer_count):
            _kind, n_ints = struct.unpack_from("<2I", blob, off)
            off += 8 + 4 * n_ints
            (n_arrs,) = struct.unpack_from("<I", blob, off)
            off += 4
            for _ in range(n_arrs):
                (count,) = struct.unpack_from("<Q", blob, off)
                arrays.append(np.frombuffer(blob, dtype="<f4", count=count, offset=off + 8))
                off += 8 + 4 * count
    boxes = np.frombuffer(blob, dtype="<f4", offset=off).reshape(n, 2, d)
    return (mode_tag, n, d, noise), arrays, boxes


def _layer_arrays(layer) -> list:
    if hasattr(layer, "running_mean"):
        return [layer.gamma.data, layer.beta.data, layer.running_mean, layer.running_var]
    return [layer.weight.data, layer.bias.data]


@pytest.mark.parametrize("mode", MODES)
def test_golden_v1_checkpoint_loads_every_array_and_resaves_its_bytes(mode):
    # tests/golden/<mode>_v1.mgsg: build_players(mode, 2, 8, 4, ...) from
    # default_rng(2026) with random running statistics, written by the version-1
    # writer. Bytes only are pinned: predictions depend on the CPU's kernels.
    blob = (GOLDEN / f"{mode}_v1.mgsg").read_bytes()
    header, payload, boxes = _payload_arrays(blob)
    ck = load_checkpoint_bytes(blob)
    assert header == (MODES.index(mode), 2, 8, 4)
    assert (ck.mode, ck.n_classes, ck.d, ck.noise_dim) == (mode, 2, 8, 4)
    stack = ck.generator.generator if mode == "mgsgan" else ck.generator
    nets = [ck.discriminator] + ([] if mode == "achsgan" else [ck.classifier])
    loaded = [p.data[j] for j in range(stack.experts) for p in stack.parameters()]
    loaded += [a for net in nets for layer in net.layers for a in _layer_arrays(layer)]
    assert len(loaded) == len(payload)
    for i, (got, want) in enumerate(zip(loaded, payload)):
        assert got.dtype == np.float32 and got.ravel().tobytes() == want.tobytes(), i
    for dom, (lo, hi) in zip(ck.domains, boxes, strict=True):
        assert np.array_equal(dom.lower, lo) and np.array_equal(dom.upper, hi)
    assert save_checkpoint_bytes(ck) == blob
