"""Three-player game losses with class-prior weights, plus analytic oracles.

The adversarial pair works on per-sample probabilities: each sample's log term
is multiplied by the prior of its class and the weighted terms are averaged
over the batch (`_log_likelihood`). The losses read the discriminator through
`heads`; where it has a class head, `loss_d` and `loss_g` add that head's
class terms, so the same two losses serve every mode. Probabilities are
clamped to [PROB_EPS, 1 - PROB_EPS] before any log so a saturated player
yields a large but finite loss; a run's `ClampLog`, passed to the losses,
records whether a clamp actually changed a probability, and the run logs
that once. The bounds are taken in the probability's dtype: in f32,
1 - PROB_EPS is 0.99999988, below the largest f32 value under 1.

The oracle half of the module works on plain discrete distributions and gives
closed-form references for the optimal discriminator and the value of the
adversarial objective at that optimum. The prior weights enter as nonnegative
scalars (w_r, w_g) scaling the two measures; with unit weights the optimum
value reduces to -2*log(2) + 2*JS(p_r || p_g).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ContractError, ShapeError

logger = logging.getLogger(__name__)

PROB_EPS = 1e-7


class ClampLog:
    """One run's record of probability clamps.

    `hit` turns True the first time a clamp fires; the run's owner calls
    `warn_once` to log it. Recording and logging are apart so that a worker
    process can hand its hit to the process that owns the log.
    """

    def __init__(self):
        self.hit = False
        self._warned = False

    def warn_once(self):
        """Log the run's clamp warning if a clamp has fired and it is not yet logged."""
        if self.hit and not self._warned:
            logger.warning("probability outside [%.0e, 1-%.0e]; clamped", PROB_EPS, PROB_EPS)
            self._warned = True


def _safe_log(p: ad.Tensor, clamps: ClampLog | None = None) -> ad.Tensor:
    """log(p) with p clamped into [PROB_EPS, 1 - PROB_EPS]; marks `clamps` when that moves a value."""
    safe = ad.clamp(p, PROB_EPS, 1.0 - PROB_EPS)
    if clamps is not None and not clamps.hit and not np.array_equal(safe.data, p.data):
        clamps.hit = True
    return ad.log(safe)


@dataclass
class ClassPriors:
    """Per-class weights for the real, generated and classifier loss terms."""

    p_real: np.ndarray
    p_gen: np.ndarray
    p_cls: np.ndarray

    def __post_init__(self):
        for name in ("p_real", "p_gen", "p_cls"):
            v = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, v)
            if v.ndim != 1 or np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
                raise ContractError(f"ClassPriors.{name} must be a simplex vector")
        if not (len(self.p_real) == len(self.p_gen) == len(self.p_cls)):
            raise ContractError("ClassPriors vectors must share one length")

    @property
    def class_count(self) -> int:
        return len(self.p_real)

    @classmethod
    def uniform(cls, n: int) -> "ClassPriors":
        u = np.full(n, 1.0 / n)
        return cls(u.copy(), u.copy(), u.copy())

    @classmethod
    def from_counts(cls, counts: np.ndarray) -> "ClassPriors":
        counts = np.asarray(counts, dtype=np.float64)
        if counts.sum() <= 0:
            raise ContractError("ClassPriors.from_counts: empty counts")
        p = counts / counts.sum()
        return cls(p.copy(), p.copy(), p.copy())


def _check_batch(x: ad.Tensor, labels: np.ndarray, n_classes: int, who: str) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ContractError(f"{who}: empty batch")
    if labels.shape != (x.shape[0],):
        raise ShapeError(f"{who}: labels {labels.shape} do not match batch {x.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ContractError(f"{who}: label out of range [0, {n_classes})")
    return labels


def _log_likelihood(w: np.ndarray, p: ad.Tensor, clamps: ClampLog | None) -> ad.Tensor:
    """Batch mean of w * log(p) for per-sample weights w, p clamped by `_safe_log`."""
    return ad.mean_(ad.mul(ad.const(w, dtype=p.data.dtype), _safe_log(p, clamps)))


def loss_d(disc, real_x: ad.Tensor, real_y: np.ndarray,
           fake_x: ad.Tensor, fake_c: np.ndarray,
           priors: ClassPriors, train: bool = True,
           stats: dict | None = None, clamps: ClampLog | None = None) -> ad.Tensor:
    """Discriminator loss: negated prior-weighted real/fake log-likelihood.

    A class head adds the p_cls-weighted log-likelihood of the real labels and
    the generated classes; `stats` then gets that term, negated, as "loss_c".
    """
    real_y = _check_batch(real_x, real_y, priors.class_count, "loss_d")
    fake_c = _check_batch(fake_x, fake_c, priors.class_count, "loss_d")
    d_real, c_real = disc.heads(real_x, train)
    d_fake, c_fake = disc.heads(fake_x, train)
    if stats is not None:
        stats["d_real_mean"] = float(d_real.data.mean())
        stats["d_fake_mean"] = float(d_fake.data.mean())
    total = (_log_likelihood(priors.p_real[real_y], d_real, clamps)
             + _log_likelihood(priors.p_gen[fake_c], 1.0 - d_fake, clamps))
    if c_real is not None:
        ce_real = _log_likelihood(priors.p_cls[real_y], ad.gather(c_real, real_y), clamps)
        ce_fake = _log_likelihood(priors.p_cls[fake_c], ad.gather(c_fake, fake_c), clamps)
        total = total + ce_real + ce_fake
        if stats is not None:
            stats["loss_c"] = -(ce_real.item() + ce_fake.item())
    return -total


def loss_g(disc, fake_x: ad.Tensor, fake_c: np.ndarray,
           priors: ClassPriors, saturating: bool = False, train: bool = True,
           clamps: ClampLog | None = None) -> ad.Tensor:
    """Generator loss; non-saturating -log D(fake) by default, minus a class head's term."""
    fake_c = _check_batch(fake_x, fake_c, priors.class_count, "loss_g")
    d_fake, c_fake = disc.heads(fake_x, train)
    adv = _log_likelihood(priors.p_gen[fake_c], 1.0 - d_fake if saturating else d_fake, clamps)
    if c_fake is None:
        return adv if saturating else -adv
    ce = _log_likelihood(priors.p_cls[fake_c], ad.gather(c_fake, fake_c), clamps)
    return adv - ce if saturating else -(adv + ce)


def loss_c(cls, real_x: ad.Tensor, real_y: np.ndarray,
           fake_x: ad.Tensor | None, fake_c: np.ndarray | None,
           priors: ClassPriors, train: bool = True,
           clamps: ClampLog | None = None) -> ad.Tensor:
    """Classifier loss: prior-weighted cross-entropy on real plus generated."""
    real_y = _check_batch(real_x, real_y, priors.class_count, "loss_c")
    p_real = ad.gather(cls.probs(real_x, train), real_y)
    total = -_log_likelihood(priors.p_cls[real_y], p_real, clamps)
    if fake_x is not None:
        fake_c = _check_batch(fake_x, fake_c, priors.class_count, "loss_c")
        p_fake = ad.gather(cls.probs(fake_x, train), fake_c)
        total = total - _log_likelihood(priors.p_cls[fake_c], p_fake, clamps)
    return total


# ---------------------------------------------------------------------------
# discrete-distribution oracles

@dataclass
class DiscreteDistribution:
    """Probability masses over an explicit finite support."""

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.float64)
        self.mass = np.asarray(self.mass, dtype=np.float64)
        if len(self.mass) != len(self.support):
            raise ShapeError(
                f"DiscreteDistribution: support {self.support.shape} vs mass {self.mass.shape}"
            )
        if np.any(self.mass < 0) or abs(self.mass.sum() - 1.0) > 1e-12:
            raise ContractError("DiscreteDistribution: mass must sum to 1 within 1e-12")


def _as_mass(p) -> np.ndarray:
    if isinstance(p, DiscreteDistribution):
        return p.mass
    return np.asarray(p, dtype=np.float64)


def optimal_discriminator(p_r, p_g, w_r: float = 1.0, w_g: float = 1.0) -> np.ndarray:
    """Pointwise optimum w_r*p_r / (w_r*p_r + w_g*p_g) over a shared support."""
    pr, pg = _as_mass(p_r), _as_mass(p_g)
    if pr.shape != pg.shape:
        raise ShapeError(f"optimal_discriminator: supports differ, {pr.shape} vs {pg.shape}")
    num = w_r * pr
    den = num + w_g * pg
    zero = den == 0.0
    if np.any(zero):
        logger.info("optimal_discriminator: %d zero-mass points set to 0.5", int(zero.sum()))
    out = np.full_like(pr, 0.5)
    np.divide(num, den, out=out, where=~zero)
    return out


def _xlogy(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 0 * log(0) := 0
    out = np.zeros_like(x)
    nz = x > 0
    out[nz] = x[nz] * np.log(y[nz])
    return out


def adversarial_value(d_vals: np.ndarray, p_r, p_g,
                      w_r: float = 1.0, w_g: float = 1.0) -> float:
    """Prior-weighted two-term log objective at a given pointwise discriminator.

    Returns w_r*E_pr[log d] + w_g*E_pg[log(1-d)]; maximized over d by
    `optimal_discriminator`. A log(0) under positive mass yields -inf, which
    is the honest value of that configuration.
    """
    pr, pg = _as_mass(p_r), _as_mass(p_g)
    d = np.asarray(d_vals, dtype=np.float64)
    if not (pr.shape == pg.shape == d.shape):
        raise ShapeError(
            f"adversarial_value: shapes differ, {pr.shape}, {pg.shape}, {d.shape}"
        )
    with np.errstate(divide="ignore"):
        return float(np.sum(_xlogy(w_r * pr, d)) + np.sum(_xlogy(w_g * pg, 1.0 - d)))


def js_divergence(mu, nu) -> float:
    """Generalized Jensen-Shannon: mean of the two KL terms against the midpoint.

    Accepts nonnegative measures (not necessarily normalized); natural log,
    0*log(0) := 0.
    """
    mu = np.asarray(mu, dtype=np.float64)
    nu = np.asarray(nu, dtype=np.float64)
    if mu.shape != nu.shape:
        raise ShapeError(f"js_divergence: shapes differ, {mu.shape} vs {nu.shape}")
    if np.any(mu < 0) or np.any(nu < 0):
        raise ContractError("js_divergence: measures must be nonnegative")
    mid = 0.5 * (mu + nu)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_mu = np.sum(_xlogy(mu, mu) - _xlogy(mu, mid))
        kl_nu = np.sum(_xlogy(nu, nu) - _xlogy(nu, mid))
    return float(0.5 * (kl_mu + kl_nu))


def game_value_at_optimum(p_r, p_g, w_r: float = 1.0, w_g: float = 1.0) -> float:
    """Adversarial objective at the optimal discriminator, in closed form.

    Equals 2*JS(w_r*p_r || w_g*p_g) - (w_r + w_g)*log(2); with unit weights
    this is the familiar -2*log(2) + 2*JS(p_r || p_g).
    """
    mu = w_r * _as_mass(p_r)
    nu = w_g * _as_mass(p_g)
    return 2.0 * js_divergence(mu, nu) - (w_r + w_g) * math.log(2.0)
