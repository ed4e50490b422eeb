"""Mixture-of-generators spectral GAN for class-imbalanced 1-D classification."""

from .data import SpectralDataset, SplitSpec, class_priors, load_dataset, make_synthetic, split_tttr
from .evaluation import (ConfusionMatrix, EvalReport, average_accuracy, cohen_kappa,
                         mcnemar, overall_accuracy)
from .losses import (ClassPriors, DiscreteDistribution, adversarial_value,
                     game_value_at_optimum, js_divergence, loss_c, loss_d, loss_g,
                     optimal_discriminator)
from .models import (ClassDomain, Classifier, Discriminator, Generator, GeneratorBank,
                     classify, compute_class_domains, discriminate)
from .training import RunLog, TrainConfig, TrainResult, train

__all__ = [
    "ClassDomain", "ClassPriors", "Classifier", "ConfusionMatrix",
    "DiscreteDistribution", "Discriminator", "EvalReport", "Generator", "GeneratorBank",
    "RunLog", "SpectralDataset", "SplitSpec", "TrainConfig", "TrainResult",
    "adversarial_value", "average_accuracy", "class_priors", "classify", "cohen_kappa",
    "compute_class_domains", "discriminate", "game_value_at_optimum", "js_divergence",
    "load_dataset", "loss_c", "loss_d", "loss_g", "make_synthetic", "mcnemar",
    "optimal_discriminator", "overall_accuracy", "split_tttr", "train",
]
