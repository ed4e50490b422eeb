"""Game-loss contracts and the discrete optimal-discriminator oracles."""

import math

import numpy as np
import pytest

from mgsgan import autodiff as ad
from mgsgan.errors import ContractError
from mgsgan.losses import (PROB_EPS, ClassPriors, DiscreteDistribution, _safe_log,
                           adversarial_value, game_value_at_optimum, js_divergence,
                           loss_c, loss_d, loss_g, optimal_discriminator)
from mgsgan.models import Discriminator, Generator, _take_cols, generate


class ConstantDisc:
    """Discriminator stub returning a fixed probability for every sample."""

    def __init__(self, p):
        self.p = p

    def heads(self, x, train):
        return ad.mul(ad.const(np.ones(x.shape[0])), ad.const(self.p)), None


class LogisticDisc:
    """Differentiable 1-d stub: sigmoid(a*x + b) with trainable (a, b)."""

    def __init__(self, a, b):
        self.a = ad.param([a])
        self.b = ad.param([b])

    def heads(self, x, train):
        return ad.sigmoid(ad.add(ad.mul(ad.reshape(x, (x.shape[0],)), self.a), self.b)), None


class UniformClassifier:
    def __init__(self, n):
        self.n = n

    def probs(self, x, train):
        return ad.const(np.full((x.shape[0], self.n), 1.0 / self.n))


def _batch(rng, n, d):
    return ad.const(rng.standard_normal((n, d)))


def test_loss_d_half_everywhere_single_class():
    rng = np.random.default_rng(0)
    priors = ClassPriors.uniform(1)
    ld = loss_d(ConstantDisc(0.5), _batch(rng, 6, 4), np.zeros(6, dtype=int),
                _batch(rng, 6, 4), np.zeros(6, dtype=int), priors)
    assert abs(ld.item() - 2 * math.log(2)) < 1e-12


def test_loss_d_uniform_priors_pattern():
    # D == 0.5 with uniform priors gives 2*log(2)/N
    rng = np.random.default_rng(1)
    for n in (2, 4, 5):
        priors = ClassPriors.uniform(n)
        y = rng.integers(0, n, size=8)
        ld = loss_d(ConstantDisc(0.5), _batch(rng, 8, 3), y, _batch(rng, 8, 3), y, priors)
        assert abs(ld.item() - 2 * math.log(2) / n) < 1e-12


def test_loss_d_perfect_discriminator_clamp_bound():
    rng = np.random.default_rng(2)
    priors = ClassPriors.uniform(1)

    class PerfectDisc:
        def __init__(self):
            self.calls = 0

        def heads(self, x, train):  # 1 on the real batch, 0 on the fake batch
            self.calls += 1
            return ad.const(np.full(x.shape[0], 1.0 if self.calls == 1 else 0.0)), None

    ld = loss_d(PerfectDisc(), _batch(rng, 4, 3), np.zeros(4, dtype=int),
                _batch(rng, 4, 3), np.zeros(4, dtype=int), priors)
    assert 0.0 <= ld.item() <= 2 * -math.log(1.0 - PROB_EPS) + 1e-15


def test_loss_d_uniform_priors_match_scaled_unweighted():
    rng = np.random.default_rng(3)
    n = 4
    priors = ClassPriors.uniform(n)
    y = rng.integers(0, n, size=10)
    c = rng.integers(0, n, size=10)
    d_real = rng.uniform(0.1, 0.9, size=10)
    d_fake = rng.uniform(0.1, 0.9, size=10)

    class TableDisc:
        def __init__(self):
            self.calls = 0

        def heads(self, x, train):
            self.calls += 1
            return ad.const(d_real if self.calls == 1 else d_fake), None

    ld = loss_d(TableDisc(), _batch(rng, 10, 3), y, _batch(rng, 10, 3), c, priors)
    unweighted = -(np.mean(np.log(d_real)) + np.mean(np.log(1 - d_fake)))
    assert abs(ld.item() - unweighted / n) < 1e-10


def test_loss_g_nonsaturating_at_half():
    rng = np.random.default_rng(4)
    priors = ClassPriors.uniform(1)
    lg = loss_g(ConstantDisc(0.5), _batch(rng, 5, 3), np.zeros(5, dtype=int), priors)
    assert abs(lg.item() - math.log(2)) < 1e-12


def test_loss_g_gradient_reaches_generator_not_discriminator():
    # the update contract holds D fixed during the G step
    disc = LogisticDisc(0.8, -0.2)
    disc.a.requires_grad = disc.b.requires_grad = False
    theta = ad.param([0.3])  # one-parameter "generator": its output is theta
    fake = ad.reshape(ad.mul(theta, ad.const([1.0])), (1, 1))
    priors = ClassPriors.uniform(1)
    lg = loss_g(disc, fake, np.zeros(1, dtype=int), priors)
    ad.backward(lg)
    assert theta.grad is not None and theta.grad[0] != 0.0
    assert disc.a.grad is None and disc.b.grad is None


def test_loss_g_saturating_and_nonsaturating_agree_in_sign():
    # hand gradients for D = sigmoid(a*theta + b):
    #   d/dtheta log(1 - D) = -a*D ; d/dtheta -log(D) = -a*(1 - D)
    priors = ClassPriors.uniform(1)
    for a, b, theta0 in [(1.3, -0.4, 0.2), (-0.9, 0.3, -0.5), (2.0, 0.0, 1.0)]:
        grads = {}
        for saturating in (True, False):
            disc = LogisticDisc(a, b)
            theta = ad.param([theta0])
            fake = ad.reshape(ad.mul(theta, ad.const([1.0])), (1, 1))
            lg = loss_g(disc, fake, np.zeros(1, dtype=int), priors, saturating=saturating)
            ad.backward(lg)
            grads[saturating] = theta.grad[0]
        d = 1.0 / (1.0 + math.exp(-(a * theta0 + b)))
        assert abs(grads[True] - (-a * d)) < 1e-9
        assert abs(grads[False] - (-a * (1.0 - d))) < 1e-9
        assert np.sign(grads[True]) == np.sign(grads[False])


def test_loss_c_uniform_classifier_term():
    rng = np.random.default_rng(5)
    n = 5
    priors = ClassPriors.uniform(n)
    y = rng.integers(0, n, size=7)
    lc = loss_c(UniformClassifier(n), _batch(rng, 7, 3), y, None, None, priors)
    # per-sample term log N, weighted by 1/N
    assert abs(lc.item() - math.log(n) / n) < 1e-12


def test_loss_c_perfect_classifier_clamp_bound():
    rng = np.random.default_rng(6)
    n = 3

    class PerfectClassifier:
        def probs(self, x, train):
            p = np.full((x.shape[0], n), 0.0)
            p[np.arange(x.shape[0]), labels] = 1.0
            return ad.const(p)

    labels = rng.integers(0, n, size=6)
    priors = ClassPriors.uniform(n)
    lc = loss_c(PerfectClassifier(), _batch(rng, 6, 2), labels,
                _batch(rng, 6, 2), labels, priors)
    assert 0.0 <= lc.item() <= 2 * -math.log(1.0 - PROB_EPS) + 1e-15


def test_loss_c_without_fakes_is_weighted_cross_entropy():
    rng = np.random.default_rng(7)
    n = 4
    counts = np.array([10, 5, 3, 2], dtype=float)
    priors = ClassPriors.from_counts(counts)
    y = rng.integers(0, n, size=9)
    table = rng.dirichlet(np.ones(n), size=9)

    class TableClassifier:
        def probs(self, x, train):
            return ad.const(table)

    lc = loss_c(TableClassifier(), _batch(rng, 9, 2), y, None, None, priors)
    w = priors.p_cls[y]
    expected = -np.mean(w * np.log(table[np.arange(9), y]))
    assert abs(lc.item() - expected) < 1e-10


def test_loss_empty_batch_rejected():
    priors = ClassPriors.uniform(2)
    with pytest.raises(ContractError):
        loss_g(ConstantDisc(0.5), ad.const(np.zeros((0, 3))), np.zeros(0, dtype=int), priors)


def test_probability_clamp_logged_once_per_run(caplog):
    import logging

    from mgsgan.losses import ClampLog

    rng = np.random.default_rng(8)
    priors = ClassPriors.uniform(1)
    with caplog.at_level(logging.WARNING, logger="mgsgan.losses"):
        clamps = ClampLog()
        loss_g(ConstantDisc(0.5), _batch(rng, 4, 2), np.zeros(4, dtype=int), priors,
               clamps=clamps)
        clamps.warn_once()
        assert not clamps.hit and caplog.records == []
        for _ in range(3):
            loss_g(ConstantDisc(1.0), _batch(rng, 4, 2), np.zeros(4, dtype=int), priors,
                   clamps=clamps)
            clamps.warn_once()
        assert clamps.hit
        assert sum("clamped" in r.message for r in caplog.records) == 1
        clamps = ClampLog()  # the next run
        loss_g(ConstantDisc(1.0), _batch(rng, 4, 2), np.zeros(4, dtype=int), priors,
               clamps=clamps)
        clamps.warn_once()
    assert sum("clamped" in r.message for r in caplog.records) == 2


# ---------------------------------------------------------------------------
# a discriminator with an N+1 class head, against the two-player formulas that
# the training loop used to write out inline; both must give the same bits


def _reference_heads(disc, x):
    n = disc.n_out - 1
    logits = disc.logits(x, train=True)
    adv = ad.sigmoid(ad.reshape(_take_cols(logits, np.array([n])), (x.shape[0],)))
    probs = ad.softmax(_take_cols(logits, np.arange(n)), axis=1)
    return adv, probs


def _reference_loss_d(disc, real_x, real_y, fake_x, classes, priors):
    w_r = ad.const(priors.p_real[real_y])
    w_g = ad.const(priors.p_gen[classes])
    w_cr = ad.const(priors.p_cls[real_y])
    w_cf = ad.const(priors.p_cls[classes])
    adv_r, probs_r = _reference_heads(disc, real_x)
    adv_f, probs_f = _reference_heads(disc, fake_x)
    ce_real = ad.mean_(ad.mul(w_cr, _safe_log(ad.gather(probs_r, real_y))))
    ce_fake = ad.mean_(ad.mul(w_cf, _safe_log(ad.gather(probs_f, classes))))
    ld = -(ad.mean_(ad.mul(w_r, _safe_log(adv_r)))
           + ad.mean_(ad.mul(w_g, _safe_log(1.0 - adv_f)))
           + ce_real + ce_fake)
    stats = {"d_real_mean": float(adv_r.data.mean()), "d_fake_mean": float(adv_f.data.mean()),
             "loss_c": float(-(ce_real.item() + ce_fake.item()))}
    return ld, stats


def _reference_loss_g(disc, fake_x, classes, priors, saturating):
    w_g = ad.const(priors.p_gen[classes])
    w_cf = ad.const(priors.p_cls[classes])
    adv_fl, probs_fl = _reference_heads(disc, fake_x)
    ce_fl = ad.mean_(ad.mul(w_cf, _safe_log(ad.gather(probs_fl, classes))))
    if saturating:
        return ad.mean_(ad.mul(w_g, _safe_log(1.0 - adv_fl))) - ce_fl
    return -(ad.mean_(ad.mul(w_g, _safe_log(adv_fl))) + ce_fl)


def _state_bytes(disc, gen):
    """Each D and G parameter's gradient, and D's batch-norm running statistics."""
    def grads(net):
        return [None if p.grad is None else p.grad.tobytes() for p in net.parameters()]

    return {"d": grads(disc), "g": grads(gen),
            "bn": (disc.bn.running_mean.tobytes(), disc.bn.running_var.tobytes())}


@pytest.mark.parametrize("saturating", [False, True])
def test_class_head_losses_match_the_two_player_reference_bit_for_bit(saturating):
    n, d, b = 3, 16, 8
    priors = ClassPriors([0.5, 0.3, 0.2], [0.2, 0.3, 0.5], [0.4, 0.4, 0.2])
    rng = np.random.default_rng(30)
    real_x = ad.const(rng.uniform(-1, 1, size=(b, d)))
    real_y = rng.integers(0, n, size=b)
    classes = rng.integers(0, n, size=b)
    z = rng.standard_normal((b, 5))
    results = []
    for reference in (True, False):
        disc = Discriminator(d, np.random.default_rng(31), n_out=n + 1)
        gen = Generator(5 + n, d, np.random.default_rng(32), 1)
        fake = generate(gen, z, classes)
        for p in gen.parameters():  # the D step holds G fixed
            p.requires_grad = False
        stats = {}
        if reference:
            ld, stats = _reference_loss_d(disc, real_x, real_y, fake.detach(), classes, priors)
        else:
            ld = loss_d(disc, real_x, real_y, fake.detach(), classes, priors, stats=stats)
        ad.backward(ld)
        after_d = _state_bytes(disc, gen)
        for p in gen.parameters() + disc.parameters():  # the G step holds D fixed
            p.requires_grad = not p.requires_grad
            p.grad = None
        fake = generate(gen, z, classes)
        if reference:
            lg = _reference_loss_g(disc, fake, classes, priors, saturating)
        else:
            lg = loss_g(disc, fake, classes, priors, saturating=saturating)
        ad.backward(lg)
        results.append((ld.data.tobytes(), stats, after_d,
                        lg.data.tobytes(), _state_bytes(disc, gen)))
    assert results[0] == results[1]
    _, stats, after_d, _, after_g = results[1]
    assert set(stats) == {"d_real_mean", "d_fake_mean", "loss_c"}
    assert None not in after_d["d"] and None not in after_g["g"]


def test_heads_without_a_class_head_give_the_bits_of_prob():
    x = ad.const(np.random.default_rng(33).uniform(-1, 1, size=(6, 16)))
    disc = Discriminator(16, np.random.default_rng(34))
    p, probs = disc.heads(x, train=False)
    assert probs is None
    want = ad.sigmoid(ad.reshape(disc.logits(x, train=False), (6,)))
    assert p.data.tobytes() == want.data.tobytes()
    assert disc.prob(x, train=False).data.tobytes() == want.data.tobytes()


# ---------------------------------------------------------------------------
# oracles

def test_optimal_discriminator_symmetric_case():
    d = optimal_discriminator([0.25, 0.5, 0.25], [0.25, 0.5, 0.25])
    np.testing.assert_allclose(d, 0.5, atol=1e-15)


def test_optimal_discriminator_disjoint_deltas():
    d = optimal_discriminator([1.0, 0.0], [0.0, 1.0])
    np.testing.assert_array_equal(d, [1.0, 0.0])


def test_optimal_discriminator_fixture():
    d = optimal_discriminator([0.7, 0.3], [0.2, 0.8])
    np.testing.assert_allclose(d, [0.7 / 0.9, 0.3 / 1.1], atol=1e-15)


def test_game_value_equal_distributions():
    v = game_value_at_optimum([0.5, 0.5], [0.5, 0.5])
    assert abs(v - (-2 * math.log(2))) < 1e-12


def test_game_value_disjoint_supports():
    assert abs(game_value_at_optimum([1.0, 0.0], [0.0, 1.0])) < 1e-12


def test_game_value_dual_route_fixture():
    pr, pg = [0.7, 0.3], [0.2, 0.8]
    d = optimal_discriminator(pr, pg)
    assert abs(adversarial_value(d, pr, pg) - game_value_at_optimum(pr, pg)) < 1e-12


def test_dual_route_random_triples_with_weights():
    rng = np.random.default_rng(100)
    for _ in range(100):
        k = int(rng.integers(2, 12))
        pr = rng.dirichlet(np.ones(k))
        pg = rng.dirichlet(np.ones(k))
        w_r, w_g = rng.uniform(0.05, 1.0, size=2)
        d = optimal_discriminator(pr, pg, w_r, w_g)
        gap = abs(adversarial_value(d, pr, pg, w_r, w_g)
                  - game_value_at_optimum(pr, pg, w_r, w_g))
        assert gap < 1e-12


def test_optimum_not_improved_by_pointwise_perturbation():
    rng = np.random.default_rng(200)
    delta = 1e-3
    for _ in range(100):
        k = int(rng.integers(2, 10))
        pr = rng.dirichlet(np.ones(k))
        pg = rng.dirichlet(np.ones(k))
        w_r, w_g = rng.uniform(0.05, 1.0, size=2)
        d = optimal_discriminator(pr, pg, w_r, w_g)
        base = adversarial_value(d, pr, pg, w_r, w_g)
        for i in range(k):
            for sign in (delta, -delta):
                d2 = d.copy()
                d2[i] = min(1.0, max(0.0, d2[i] + sign))
                assert adversarial_value(d2, pr, pg, w_r, w_g) <= base + 1e-14


def test_js_divergence_bounds():
    assert abs(js_divergence([0.5, 0.5], [0.5, 0.5])) < 1e-15
    assert abs(js_divergence([1.0, 0.0], [0.0, 1.0]) - math.log(2)) < 1e-15


def test_discrete_distribution_validation():
    with pytest.raises(ContractError):
        DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.6, 0.5]))
    dd = DiscreteDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
    assert abs(dd.mass.sum() - 1.0) < 1e-12


def test_class_priors_validation():
    with pytest.raises(ContractError):
        ClassPriors(np.array([0.5, 0.6]), np.array([0.5, 0.5]), np.array([0.5, 0.5]))
    cp = ClassPriors.from_counts(np.array([90, 10]))
    np.testing.assert_allclose(cp.p_real, [0.9, 0.1], atol=1e-15)
