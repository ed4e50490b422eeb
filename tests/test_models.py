"""Player models: domain boxes, projection, heads, checkpoint round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsgan import autodiff as ad
from mgsgan.checkpoint import load_checkpoint_bytes, save_checkpoint_bytes
from mgsgan.data import SpectralDataset
from mgsgan.errors import ContractError, DataError, ShapeError
from mgsgan.models import (MODES, ArchConfig, ClassDomain, Classifier, Discriminator,
                           Generator, build_conditional_generator,
                           build_generator_bank, build_players, classify,
                           compute_class_domains, discriminate, generate, generator_plan,
                           predict_labels)

from conftest import fd_gradcheck, random_probe, reduce_to_scalar


def _domains_for(d, n, lo=-1.0, hi=1.0):
    return [ClassDomain(j, np.full(d, lo), np.full(d, hi)) for j in range(n)]


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
    bank = build_generator_bank(n, d, 16, domains, rng)
    for j in range(n):
        z = ad.const(rng.standard_normal((8, 16)) * 3.0)
        out = bank.generate(z, j).data
        assert np.all(out >= domains[j].lower) and np.all(out <= domains[j].upper)


def test_generate_degenerate_domain_pins_output():
    rng = np.random.default_rng(1)
    d = 8
    s = rng.uniform(-0.5, 0.5, size=d)
    domains = [ClassDomain(0, s.copy(), s.copy())]
    bank = build_generator_bank(1, d, 10, domains, rng)
    for _ in range(3):
        out = bank.generate(ad.const(rng.standard_normal((4, 10))), 0).data
        np.testing.assert_array_equal(out, np.tile(s, (4, 1)))


def test_generate_batch_minority_containment_under_overlap():
    # minority box inside an overlapping majority box: all draws stay inside it
    rng = np.random.default_rng(2)
    d = 10
    minority = ClassDomain(1, np.full(d, -0.1), np.full(d, 0.15))
    majority = ClassDomain(0, np.full(d, -0.8), np.full(d, 0.8))
    bank = build_generator_bank(2, d, 12, [majority, minority], rng)
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


def _per_class_loop(bank, z, classes):
    """The bank's batch as one generator call per class, reassembled in input order."""
    pieces, order = [], []
    for j, (gen, dom) in enumerate(zip(bank.generators, bank.domains)):
        idx = np.flatnonzero(classes == j)
        if idx.size:
            pieces.append(ad.clamp(gen.forward(_take_rows(z, idx)), dom.lower, dom.upper))
            order.append(idx)
    return _scatter_rows(ad.concat(pieces, axis=0), np.concatenate(order), z.shape[0])


def test_generate_batch_preserves_order():
    # the stacked bank gives the per-class loop's bits, forward and every gradient
    rng = np.random.default_rng(3)
    d, noise = 13, 6
    bank = build_generator_bank(4, d, noise, _domains_for(d, 4, -0.4, 0.4), rng)
    cases = [np.array([2, 0, 1, 1, 0, 2, 0, 1, 2]),  # class 3 absent
             np.array([3, 0, 0, 2, 0, 2, 0, 2]),  # class 1 absent, class 3 one row
             np.full(7, 1)]  # every row in one class
    for classes in cases:
        z = ad.const(rng.standard_normal((classes.size, noise)))
        probe = random_probe(rng, (classes.size, d))
        leaves = bank.parameters() + [p for g in bank.generators for p in g.parameters()]
        for p in leaves:
            p.grad = None
        batched = bank.generate_batch(z, classes)
        ad.backward(reduce_to_scalar(batched, probe))
        looped = _per_class_loop(bank, z, classes)
        ad.backward(reduce_to_scalar(looped, probe))
        assert batched.data.tobytes() == looped.data.tobytes()
        for i, stacked in enumerate(bank.parameters()):
            for j, gen in enumerate(bank.generators):
                want = gen.parameters()[i].grad
                if want is None:  # class j absent from the batch
                    want = np.zeros(stacked.shape[1:])
                assert stacked.grad[j].tobytes() == want.tobytes()
        for i, (zi, ci) in enumerate(zip(z.data, classes)):
            single = bank.generate(ad.const(zi[None, :]), int(ci)).data[0]
            np.testing.assert_allclose(batched.data[i], single, atol=1e-12)


def test_generate_invalid_class_rejected():
    rng = np.random.default_rng(4)
    bank = build_generator_bank(2, 8, 6, _domains_for(8, 2), rng)
    with pytest.raises(ContractError):
        bank.generate(ad.const(np.zeros((1, 6))), 2)
    for bad in (2, -1):
        with pytest.raises(ContractError):
            bank.generate_batch(ad.const(np.zeros((2, 6))), np.array([0, bad]))


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


def test_classifier_branch_setup_never_changes_output_shape():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((3, 24))
    counts = []
    for kernels in [(3,), (3, 5), (3, 5, 7), (3, 5, 7, 9)]:
        cls = Classifier(24, 4, np.random.default_rng(0),
                         ArchConfig(cls_kernels=kernels))
        assert cls.probs(ad.const(x), train=False).shape == (3, 4)
        counts.append(sum(p.size for p in cls.parameters()))
    assert len(set(counts)) == len(counts)  # parameter count varies with K


def test_generator_differentiable_through_projection():
    rng = np.random.default_rng(12)
    d = 8
    # box wide enough that all outputs sit strictly inside (clamp inactive)
    domains = [ClassDomain(0, np.full(d, -2.0), np.full(d, 2.0))]
    bank = build_generator_bank(1, d, 6, domains, rng)
    disc = Discriminator(d, rng)
    z = ad.const(rng.standard_normal((2, 6)))

    def loss():
        fake = bank.generate(z, 0)
        return ad.mean_(disc.prob(fake, train=False))

    leaves = bank.parameters()
    assert fd_gradcheck(loss, leaves) < 1e-3


def test_conditional_generator_input_dim():
    rng = np.random.default_rng(13)
    gen = build_conditional_generator(4, 16, 10, rng)
    assert gen.in_dim == 14
    out = gen.forward(ad.const(rng.standard_normal((3, 14))))
    assert out.shape == (3, 16)


def test_generate_matches_bank_call_and_onehot_input():
    rng = np.random.default_rng(17)
    bank = build_generator_bank(3, 8, 6, _domains_for(8, 3, -0.4, 0.4), rng)
    cond = build_conditional_generator(3, 8, 6, rng)
    z = rng.standard_normal((5, 6))
    for j in range(3):
        classes = np.full(5, j)
        assert generate(bank, z, classes).data.tobytes() == \
            bank.generate(ad.const(z), j).data.tobytes()
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
        gen = Generator(6, d, rng)
        assert gen.forward(ad.const(rng.standard_normal((2, 6)))).shape == (2, d)


def test_predict_labels_matches_classify():
    rng = np.random.default_rng(15)
    cls = Classifier(12, 3, rng)
    xs = rng.standard_normal((7, 12))
    preds = predict_labels(cls, xs)
    singles = [classify(cls, x).argmax() for x in xs]
    np.testing.assert_array_equal(preds, singles)


def test_eval_paths_record_no_tape_and_match_taped_bits(made_nodes):
    rng = np.random.default_rng(20)
    cls, disc = Classifier(12, 3, rng), Discriminator(12, rng)
    bank = build_generator_bank(3, 12, 6, _domains_for(12, 3), rng)
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

def _trained_like_bundle(mode, rng, n=3, d=12):
    noise = 8
    lo = rng.uniform(-1.0, 0.5, size=(n, d))
    domains = [ClassDomain(j, lo[j], lo[j] + rng.uniform(0.0, 0.5, size=d)) for j in range(n)]
    gen, disc, cls = build_players(mode, n, d, noise, domains, rng)
    return gen, disc, cls, domains, noise


_CHECKPOINT_SHAPES = settings(max_examples=12, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("mode", MODES)
@_CHECKPOINT_SHAPES
@given(n=st.integers(1, 5), d=st.integers(4, 24))
def test_checkpoint_save_load_save_bit_identical(mode, n, d):
    rng = np.random.default_rng(16)
    gen, disc, cls, domains, noise = _trained_like_bundle(mode, rng, n, d)
    blob = save_checkpoint_bytes(mode, gen, disc, cls, domains, noise)
    ck = load_checkpoint_bytes(blob)
    blob2 = save_checkpoint_bytes(ck.mode, ck.generator, ck.discriminator,
                                  ck.classifier, ck.domains, ck.noise_dim)
    assert blob == blob2
    assert ck.mode == mode and ck.d == d and ck.n_classes == n
    # the reloaded generator gives the bits of the one it was saved from
    ck2 = load_checkpoint_bytes(blob2)
    z = rng.standard_normal((2 * n + 1, noise))
    classes = rng.integers(0, n, size=2 * n + 1)
    assert generate(ck2.generator, z, classes).data.tobytes() == \
        generate(ck.generator, z, classes).data.tobytes()


def test_checkpoint_loaded_values_are_f32_quantized_originals():
    rng = np.random.default_rng(17)
    gen, disc, cls, domains, noise = _trained_like_bundle("mgsgan", rng)
    blob = save_checkpoint_bytes("mgsgan", gen, disc, cls, domains, noise)
    ck = load_checkpoint_bytes(blob)
    orig = disc.head.weight.data
    loaded = ck.discriminator.head.weight.data
    np.testing.assert_array_equal(loaded, orig.astype(np.float32).astype(np.float64))


@_CHECKPOINT_SHAPES
@given(mode=st.sampled_from(MODES), n=st.integers(1, 5), d=st.integers(4, 24), data=st.data())
def test_checkpoint_magic_and_truncation_errors(mode, n, d, data):
    rng = np.random.default_rng(18)
    gen, disc, cls, domains, noise = _trained_like_bundle(mode, rng, n, d)
    blob = save_checkpoint_bytes(mode, gen, disc, cls, domains, noise)
    with pytest.raises(DataError):
        load_checkpoint_bytes(b"XXXX" + blob[4:])
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(DataError):  # and nothing else
        load_checkpoint_bytes(blob[:cut])


@pytest.mark.parametrize("mode", MODES)
def test_generator_plan_is_what_build_players_makes(mode):
    # the checkpoint reader checks a header against this plan before building
    rng = np.random.default_rng(20)
    players = build_players(mode, 3, 12, 8, _trained_like_bundle(mode, rng)[3], rng)
    count, width = generator_plan(mode, 3, 8)
    gens = [net for net in players.networks() if isinstance(net, Generator)]
    assert [gen.in_dim for gen in gens] == [width] * count


def test_checkpoint_preserves_batchnorm_running_stats():
    rng = np.random.default_rng(19)
    gen, disc, cls, domains, noise = _trained_like_bundle("mgsgan", rng)
    disc.bn.running_mean[:] = rng.standard_normal(disc.bn.running_mean.shape)
    disc.bn.running_var[:] = rng.uniform(0.5, 2.0, disc.bn.running_var.shape)
    blob = save_checkpoint_bytes("mgsgan", gen, disc, cls, domains, noise)
    ck = load_checkpoint_bytes(blob)
    np.testing.assert_array_equal(
        ck.discriminator.bn.running_mean,
        disc.bn.running_mean.astype(np.float32).astype(np.float64))
