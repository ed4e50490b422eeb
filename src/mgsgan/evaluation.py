"""Classification metrics and McNemar's paired significance test.

The confusion matrix follows the rows = truth, columns = prediction
convention. McNemar's statistic is the signed z form
(f12 - f21) / sqrt(f12 + f21) over the discordant pairs, judged significant
above 1.96.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, ShapeError

logger = logging.getLogger(__name__)

MCNEMAR_THRESHOLD = 1.96


@dataclass
class ConfusionMatrix:
    counts: np.ndarray

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise ShapeError(f"ConfusionMatrix: expected square counts, got {self.counts.shape}")
        if np.any(self.counts < 0):
            raise ContractError("ConfusionMatrix: counts must be nonnegative")

    @classmethod
    def from_predictions(cls, truth, preds, n_classes: int) -> "ConfusionMatrix":
        truth = np.asarray(truth, dtype=np.int64)
        preds = np.asarray(preds, dtype=np.int64)
        if truth.shape != preds.shape:
            raise ShapeError(f"ConfusionMatrix: truth {truth.shape} vs preds {preds.shape}")
        counts = np.zeros((n_classes, n_classes), dtype=np.int64)
        np.add.at(counts, (truth, preds), 1)
        return cls(counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def overall_accuracy(cm: ConfusionMatrix) -> float:
    if cm.total < 1:
        raise ContractError("overall_accuracy: empty confusion matrix")
    return float(np.trace(cm.counts) / cm.total)


def cohen_kappa(cm: ConfusionMatrix) -> float:
    if cm.total < 1:
        raise ContractError("cohen_kappa: empty confusion matrix")
    m = cm.total
    p_o = np.trace(cm.counts) / m
    rows = cm.counts.sum(axis=1)
    cols = cm.counts.sum(axis=0)
    p_e = float(np.dot(rows, cols)) / (m * m)
    if p_e >= 1.0:
        logger.info("cohen_kappa: degenerate single-cell matrix, defining kappa = 0")
        return 0.0
    return float((p_o - p_e) / (1.0 - p_e))


def per_class_recall(cm: ConfusionMatrix) -> np.ndarray:
    rows = cm.counts.sum(axis=1)
    empty = np.flatnonzero(rows == 0)
    if empty.size:
        raise ContractError(f"per_class_recall: class {int(empty[0])} has no true samples")
    return np.diag(cm.counts) / rows


def average_accuracy(cm: ConfusionMatrix) -> float:
    return float(per_class_recall(cm).mean())


@dataclass
class McNemarResult:
    f12: int
    f21: int
    statistic: float
    significant: bool

    def as_dict(self) -> dict:
        return {"f12": self.f12, "f21": self.f21,
                "statistic": self.statistic, "significant": self.significant}


def mcnemar(preds_a, preds_b, truth) -> McNemarResult:
    """Signed z statistic over the discordant pairs of two aligned classifiers."""
    preds_a = np.asarray(preds_a, dtype=np.int64)
    preds_b = np.asarray(preds_b, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if not (preds_a.shape == preds_b.shape == truth.shape):
        raise ShapeError(
            f"mcnemar: shapes differ, {preds_a.shape}, {preds_b.shape}, {truth.shape}"
        )
    ok_a = preds_a == truth
    ok_b = preds_b == truth
    f12 = int(np.sum(ok_a & ~ok_b))
    f21 = int(np.sum(~ok_a & ok_b))
    if f12 + f21 == 0:
        logger.info("mcnemar: no discordant pairs, statistic defined as 0")
        return McNemarResult(0, 0, 0.0, False)
    stat = (f12 - f21) / math.sqrt(f12 + f21)
    return McNemarResult(f12, f21, float(stat), stat > MCNEMAR_THRESHOLD)


# ---------------------------------------------------------------------------
# aggregated report

def _mean_std(values) -> tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return float(values.mean()), std


@dataclass
class EvalReport:
    """Per-class and summary metrics aggregated over seeded runs."""

    model_name: str
    class_names: list[str]
    seeds: list[int]
    per_class: list[tuple[float, float]]
    oa: tuple[float, float]
    kappa: tuple[float, float]
    aa: tuple[float, float]
    mcnemar_vs: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @classmethod
    def from_runs(cls, model_name: str, runs: list[ConfusionMatrix],
                  seeds: list[int], class_names: list[str] | None = None) -> "EvalReport":
        if not runs:
            raise ContractError("EvalReport: need at least one run")
        n = runs[0].counts.shape[0]
        if class_names is None:
            class_names = [f"class_{j}" for j in range(n)]
        recalls = np.stack([per_class_recall(cm) for cm in runs])
        return cls(
            model_name=model_name,
            class_names=list(class_names),
            seeds=list(seeds),
            per_class=[_mean_std(recalls[:, j]) for j in range(n)],
            oa=_mean_std([overall_accuracy(cm) for cm in runs]),
            kappa=_mean_std([cohen_kappa(cm) for cm in runs]),
            aa=_mean_std([average_accuracy(cm) for cm in runs]),
        )

    def as_dict(self) -> dict:
        return {
            "model": self.model_name,
            "seeds": self.seeds,
            "per_class": {
                name: {"mean": m, "std": s}
                for name, (m, s) in zip(self.class_names, self.per_class)
            },
            "oa": {"mean": self.oa[0], "std": self.oa[1]},
            "kappa": {"mean": self.kappa[0], "std": self.kappa[1]},
            "aa": {"mean": self.aa[0], "std": self.aa[1]},
            "mcnemar_vs": {k: v.as_dict() for k, v in self.mcnemar_vs.items()},
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_table(self) -> str:
        """Aligned plain-text table: per-class rows, then OA/Kappa/AA rows."""
        width = max(12, max(len(n) for n in self.class_names) + 2)
        lines = [f"{'Class':<{width}}{self.model_name:>20}"]
        lines.append("-" * (width + 20))
        for name, (m, s) in zip(self.class_names, self.per_class):
            lines.append(f"{name:<{width}}{_fmt_pm(m, s):>20}")
        lines.append("-" * (width + 20))
        for label, (m, s) in (("OA", self.oa), ("Kappa", self.kappa), ("AA", self.aa)):
            lines.append(f"{label:<{width}}{_fmt_pm(m, s):>20}")
        for other, res in self.mcnemar_vs.items():
            flag = "significant" if res.significant else "not significant"
            lines.append(f"McNemar vs {other}: M_t = {res.statistic:.4f} ({flag})")
        return "\n".join(lines) + "\n"


def _fmt_pm(mean: float, std: float) -> str:
    return f"{mean:.4f} +/- {std:.4f}"
