"""Metric oracles against hand-computed fixtures, plus structural properties."""

import numpy as np
import pytest

from mgsgan.errors import ContractError
from mgsgan.evaluation import (ConfusionMatrix, EvalReport, average_accuracy,
                               cohen_kappa, mcnemar, overall_accuracy)

FIXTURE = ConfusionMatrix(np.array([[40, 10], [20, 30]]))


def test_overall_accuracy_fixture():
    assert abs(overall_accuracy(FIXTURE) - 0.70) < 1e-9


def test_overall_accuracy_extremes():
    assert overall_accuracy(ConfusionMatrix(np.diag([5, 7]))) == 1.0
    assert overall_accuracy(ConfusionMatrix(np.array([[0, 3], [4, 0]]))) == 0.0


def test_cohen_kappa_fixture():
    # p_o = 0.7, p_e = (50*60 + 50*40)/10000 = 0.5 -> kappa = 0.4
    assert abs(cohen_kappa(FIXTURE) - 0.40) < 1e-9


def test_cohen_kappa_perfect_and_chance():
    assert abs(cohen_kappa(ConfusionMatrix(np.diag([10, 20]))) - 1.0) < 1e-12
    chance = ConfusionMatrix(np.array([[25, 25], [25, 25]]))
    assert abs(cohen_kappa(chance)) < 1e-12


def test_cohen_kappa_degenerate_single_cell():
    assert cohen_kappa(ConfusionMatrix(np.array([[7, 0], [0, 0]]))) == 0.0


def test_average_accuracy_fixture():
    assert abs(average_accuracy(FIXTURE) - 0.70) < 1e-9
    assert average_accuracy(ConfusionMatrix(np.diag([3, 9]))) == 1.0


def test_average_accuracy_size_invariance():
    doubled = ConfusionMatrix(np.array([[80, 20], [20, 30]]))
    assert abs(average_accuracy(doubled) - average_accuracy(FIXTURE)) < 1e-12


def test_average_accuracy_empty_class_named():
    with pytest.raises(ContractError) as err:
        average_accuracy(ConfusionMatrix(np.array([[5, 0], [0, 0]])))
    assert "1" in str(err.value)


def test_metrics_invariant_under_class_permutation():
    rng = np.random.default_rng(12)
    counts = rng.integers(1, 50, size=(4, 4))
    cm = ConfusionMatrix(counts)
    perm = rng.permutation(4)
    cm_p = ConfusionMatrix(counts[np.ix_(perm, perm)])
    assert abs(overall_accuracy(cm) - overall_accuracy(cm_p)) < 1e-12
    assert abs(cohen_kappa(cm) - cohen_kappa(cm_p)) < 1e-12
    assert abs(average_accuracy(cm) - average_accuracy(cm_p)) < 1e-12


def test_kappa_below_oa_for_nonperfect_matrices():
    rng = np.random.default_rng(13)
    for _ in range(30):
        counts = rng.integers(1, 40, size=(3, 3))
        cm = ConfusionMatrix(counts)
        if overall_accuracy(cm) == 1.0:
            continue
        assert cohen_kappa(cm) < overall_accuracy(cm)


def test_mcnemar_fixture():
    # f12=15, f21=5 -> 10/sqrt(20) ~ 2.236 -> significant
    truth = np.zeros(40, dtype=int)
    preds_a = np.zeros(40, dtype=int)
    preds_b = np.zeros(40, dtype=int)
    preds_b[:15] = 1          # a correct, b wrong
    preds_a[15:20] = 1        # a wrong, b correct
    res = mcnemar(preds_a, preds_b, truth)
    assert res.f12 == 15 and res.f21 == 5
    assert abs(res.statistic - 10 / np.sqrt(20)) < 1e-9
    assert res.significant


def test_mcnemar_identical_predictions():
    truth = np.array([0, 1, 2, 1])
    preds = np.array([0, 1, 1, 1])
    res = mcnemar(preds, preds, truth)
    assert res.statistic == 0.0 and not res.significant


def test_mcnemar_antisymmetry():
    rng = np.random.default_rng(14)
    truth = rng.integers(0, 3, size=200)
    a = rng.integers(0, 3, size=200)
    b = rng.integers(0, 3, size=200)
    assert abs(mcnemar(a, b, truth).statistic + mcnemar(b, a, truth).statistic) < 1e-12


def test_mcnemar_agreement_translation_invariance():
    truth = np.zeros(30, dtype=int)
    a = np.zeros(30, dtype=int)
    b = np.zeros(30, dtype=int)
    b[:6] = 1
    base = mcnemar(a, b, truth).statistic
    # append pairs where both classifiers agree (both right, both wrong)
    truth2 = np.concatenate([truth, np.zeros(50, dtype=int), np.zeros(50, dtype=int)])
    a2 = np.concatenate([a, np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    b2 = np.concatenate([b, np.zeros(50, dtype=int), np.ones(50, dtype=int)])
    assert abs(mcnemar(a2, b2, truth2).statistic - base) < 1e-12


def test_confusion_matrix_from_predictions():
    truth = np.array([0, 0, 1, 1, 1])
    preds = np.array([0, 1, 1, 1, 0])
    cm = ConfusionMatrix.from_predictions(truth, preds, 2)
    np.testing.assert_array_equal(cm.counts, [[1, 1], [1, 2]])
    assert cm.total == 5


def test_report_table_matches_golden():
    from pathlib import Path

    cms = [ConfusionMatrix(np.array([[40, 10], [20, 30]])),
           ConfusionMatrix(np.array([[45, 5], [15, 35]]))]
    report = EvalReport.from_runs("mgsgan", cms, seeds=[0, 1],
                                  class_names=["grass", "stone"])
    report.mcnemar_vs["acsgan"] = mcnemar(
        np.array([0, 0, 1, 1]), np.array([0, 1, 1, 0]), np.array([0, 0, 1, 1]))
    golden = Path(__file__).parent / "golden" / "report_golden.txt"
    assert report.to_table() == golden.read_text(encoding="utf-8")


def test_report_json_round_trips():
    import json

    cms = [ConfusionMatrix(np.array([[3, 1], [0, 4]]))]
    report = EvalReport.from_runs("acsgan", cms, seeds=[7])
    parsed = json.loads(report.to_json())
    assert parsed["model"] == "acsgan"
    assert abs(parsed["oa"]["mean"] - 7 / 8) < 1e-12
    assert parsed["seeds"] == [7]
