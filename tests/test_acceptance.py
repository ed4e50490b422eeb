"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. Criteria 4 and 6 share one
module-scoped comparative experiment (about ten minutes on a laptop CPU);
deselect them with `-m "not slow"` for a quick pass over the rest.
Criterion 8 needs a user-supplied hyperspectral CSV (see README) and skips
when the MGSGAN_INDIAN_PINES_CSV environment variable is not set.
"""

import math
import os
import time
import zlib

import numpy as np
import pytest

from mgsgan import autodiff as ad
from mgsgan.data import SplitSpec, load_csv, make_synthetic, normalize_pair, split_tttr
from mgsgan.evaluation import (ConfusionMatrix, EvalReport, average_accuracy,
                               cohen_kappa, mcnemar, overall_accuracy,
                               per_class_recall)
from mgsgan.layers import Adam, BatchNorm1d, Conv1d, ConvTranspose1d, Dense
from mgsgan.losses import (adversarial_value, game_value_at_optimum, js_divergence,
                           optimal_discriminator)
from mgsgan.models import Discriminator, compute_class_domains, predict_labels
from mgsgan.training import TrainConfig, train

from conftest import fd_gradcheck, random_probe, reduce_to_scalar
from test_autodiff import N_CASES, _case


def _report(criterion: str, ok: bool, detail: str):
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient suite

def test_criterion_1_gradient_suite():
    tic = time.perf_counter()
    worst = 0.0
    for kind in sorted(ad.OP_KINDS):
        rng = np.random.default_rng(zlib.crc32(kind.encode()))
        for _ in range(N_CASES):
            loss, leaves = _case(rng, kind)
            worst = max(worst, fd_gradcheck(loss, leaves))

    # layer-level composites: dense / conv / transpose conv / batchnorm net
    rng = np.random.default_rng(404)
    for _ in range(N_CASES):
        dense = Dense(12, 3, rng)
        conv = Conv1d(2, 3, 3, rng, stride=2, pad=1)
        convt = ConvTranspose1d(3, 2, 4, rng, stride=2, pad=1, output_length=12)
        bn = BatchNorm1d(3)
        x = ad.param(rng.standard_normal((3, 2, 12)))
        probe = random_probe(rng, (3, 3))

        def loss():
            h = ad.tanh(bn.forward(conv.forward(x), train=True))
            h = ad.leaky_relu(convt.forward(h), 0.2)
            h = dense.forward(ad.reshape(ad.mean_(h, axis=1), (3, 12)))
            return reduce_to_scalar(h, probe)

        leaves = ([x] + dense.parameters() + conv.parameters()
                  + convt.parameters() + bn.parameters())
        worst = max(worst, fd_gradcheck(loss, leaves))
    elapsed = time.perf_counter() - tic
    _report("criterion-1 gradient-suite",
            worst < 1e-4 and elapsed < 60.0,
            f"max scaled error {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2-3 share one set of random discrete triples

def _triples(count=100, seed=1234):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 12))
        out.append((rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)),
                    float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0))))
    return out


def test_criterion_2_optimal_discriminator_oracle():
    tic = time.perf_counter()
    delta = 1e-3
    improved = 0
    for pr, pg, wr, wg in _triples():
        d = optimal_discriminator(pr, pg, wr, wg)
        base = adversarial_value(d, pr, pg, wr, wg)
        for i in range(len(pr)):
            for sign in (delta, -delta):
                d2 = d.copy()
                d2[i] = min(1.0, max(0.0, d2[i] + sign))
                if adversarial_value(d2, pr, pg, wr, wg) > base + 1e-14:
                    improved += 1

    # trained-D convergence on one fixed toy instance
    rng = np.random.default_rng(2024)
    k, d_bands = 8, 8
    support = rng.uniform(-1, 1, size=(k, d_bands))
    p_r = rng.dirichlet(np.ones(k) * 3)
    p_g = rng.dirichlet(np.ones(k) * 3)
    d_star = optimal_discriminator(p_r, p_g)
    disc = Discriminator(d_bands, np.random.default_rng(5))
    opt = Adam(disc.parameters(), lr=0.0002, beta1=0.5, beta2=0.999)
    x = ad.const(support)
    wr_t, wg_t = ad.const(p_r), ad.const(p_g)
    for _ in range(2000):
        opt.zero_grad()
        probs = disc.prob(x, train=True)
        value = (ad.sum_(ad.mul(wr_t, ad.log(ad.clamp(probs, 1e-7, 1 - 1e-7))))
                 + ad.sum_(ad.mul(wg_t, ad.log(ad.clamp(1.0 - probs, 1e-7, 1 - 1e-7)))))
        ad.backward(-value)
        opt.step()
    gap = float(np.abs(disc.prob(x, train=False).data - d_star).max())
    elapsed = time.perf_counter() - tic
    _report("criterion-2 optimal-discriminator",
            improved == 0 and gap < 0.02 and elapsed < 120.0,
            f"{improved} improving perturbations, trained gap {gap:.4f}, {elapsed:.1f}s")


def test_criterion_3_game_value_oracle():
    worst_dual = 0.0
    for pr, pg, wr, wg in _triples():
        d = optimal_discriminator(pr, pg, wr, wg)
        worst_dual = max(worst_dual, abs(adversarial_value(d, pr, pg, wr, wg)
                                         - game_value_at_optimum(pr, pg, wr, wg)))
        # unit-weight closed form: -2 log 2 + 2 JS(p_r || p_g)
        d1 = optimal_discriminator(pr, pg)
        closed = -2.0 * math.log(2.0) + 2.0 * js_divergence(pr, pg)
        worst_dual = max(worst_dual, abs(adversarial_value(d1, pr, pg) - closed))
    worst_equal = 0.0
    rng = np.random.default_rng(77)
    for _ in range(100):
        k = int(rng.integers(2, 12))
        p = rng.dirichlet(np.ones(k))
        worst_equal = max(worst_equal, abs(game_value_at_optimum(p, p)
                                           - (-2.0 * math.log(2.0))))
    _report("criterion-3 game-value",
            worst_dual < 1e-12 and worst_equal < 1e-12,
            f"dual-route gap {worst_dual:.2e}, p_r=p_g gap {worst_equal:.2e}")


# ---------------------------------------------------------------------------
# criteria 4 and 6: comparative experiment on the 50:1 synthetic set

EXP_DATA_SEED = 6
EXP_OVERLAP = 0.85
EXP_TTTR = 0.3
EXP_SPLIT_SEED = 0
EXP_EPOCHS = 300
EXP_SEEDS = (0, 1, 2, 3, 4)
MINORITY = 3


@pytest.fixture(scope="module")
def experiment():
    ds = make_synthetic(EXP_DATA_SEED, 4, 64, [500, 500, 500, 10], overlap=EXP_OVERLAP)
    train_raw, test_raw = split_tttr(ds, SplitSpec(tttr=EXP_TTTR, seed=EXP_SPLIT_SEED))
    train_n, test_n = normalize_pair(train_raw, test_raw)
    domains = compute_class_domains(train_n, 0.05)
    out = {"domains": domains, "runs": {}, "elapsed": 0.0}
    tic = time.perf_counter()
    for mode in ("mgsgan", "acsgan"):
        runs = []
        for seed in EXP_SEEDS:
            cfg = TrainConfig(epochs=EXP_EPOCHS, batch=64, seed=seed, mode=mode,
                              prior_mode="uniform")
            result = train(train_n, cfg)
            preds = predict_labels(result.classifier, test_n.samples)
            cm = ConfusionMatrix.from_predictions(test_n.labels, preds, 4)
            runs.append({"recalls": per_class_recall(cm), "runlog": result.runlog})
            print(f"  {mode} seed {seed}: per-class recall "
                  f"{np.round(runs[-1]['recalls'], 3)}")
        out["runs"][mode] = runs
    out["elapsed"] = time.perf_counter() - tic
    return out


@pytest.mark.slow
def test_criterion_4_domain_containment(experiment):
    violations = 0
    epochs_checked = 0
    for run in experiment["runs"]["mgsgan"]:
        for rec in run["runlog"].records:
            epochs_checked += 1
            if rec.containment_overall != 1.0:
                violations += 1
            if any(c is not None and c != 1.0 for c in rec.containment):
                violations += 1
    _report("criterion-4 domain-containment",
            violations == 0 and epochs_checked == EXP_EPOCHS * len(EXP_SEEDS),
            f"{epochs_checked} epoch records, {violations} violations")


@pytest.mark.slow
def test_criterion_6_imbalance_experiment(experiment):
    domains = experiment["domains"]
    intersecting = [j for j in range(3)
                    if np.all((domains[MINORITY].lower <= domains[j].upper)
                              & (domains[j].lower <= domains[MINORITY].upper))]
    med = {mode: float(np.median([r["recalls"][MINORITY]
                                  for r in experiment["runs"][mode]]))
           for mode in ("mgsgan", "acsgan")}
    acs_minority_containment = [
        rec.containment[MINORITY]
        for run in experiment["runs"]["acsgan"] for rec in run["runlog"].records
        if rec.containment[MINORITY] is not None
    ]
    acs_below = any(c < 1.0 for c in acs_minority_containment)
    mgs_full = all(
        rec.containment[MINORITY] in (None, 1.0)
        for run in experiment["runs"]["mgsgan"] for rec in run["runlog"].records
    )
    ok = (bool(intersecting)
          and med["mgsgan"] >= med["acsgan"]
          and mgs_full and acs_below
          and experiment["elapsed"] < 1200.0)
    _report("criterion-6 imbalance-experiment", ok,
            f"minority box intersects majority {intersecting}; median minority recall "
            f"mgsgan {med['mgsgan']:.3f} vs acsgan {med['acsgan']:.3f}; "
            f"containment mgsgan 100% vs acsgan<100%={acs_below}; "
            f"{experiment['elapsed']:.0f}s")


# ---------------------------------------------------------------------------
# criterion 5: metric oracles

def test_criterion_5_metric_oracles():
    cm = ConfusionMatrix(np.array([[40, 10], [20, 30]]))
    gaps = [
        abs(overall_accuracy(cm) - 0.70),
        abs(cohen_kappa(cm) - 0.40),
        abs(average_accuracy(cm) - 0.70),
    ]
    truth = np.zeros(40, dtype=int)
    a = np.zeros(40, dtype=int)
    b = np.zeros(40, dtype=int)
    b[:15] = 1
    a[15:20] = 1
    res = mcnemar(a, b, truth)
    gaps.append(abs(res.statistic - 10.0 / math.sqrt(20.0)))
    ok = max(gaps) < 1e-9 and res.significant and res.f12 == 15 and res.f21 == 5
    _report("criterion-5 metric-oracles", ok, f"max fixture gap {max(gaps):.2e}")


# ---------------------------------------------------------------------------
# criterion 7: determinism

def test_criterion_7_determinism():
    ds = make_synthetic(33, 3, 16, [30, 30, 12], overlap=0.4)
    train_raw, test_raw = split_tttr(ds, SplitSpec(tttr=0.5, seed=2))
    train_n, test_n = normalize_pair(train_raw, test_raw)

    def one_run():
        cfg = TrainConfig(epochs=3, batch=16, seed=9, mode="mgsgan")
        result = train(train_n, cfg)
        preds = predict_labels(result.classifier, test_n.samples)
        cm = ConfusionMatrix.from_predictions(test_n.labels, preds, 3)
        report = EvalReport.from_runs("mgsgan", [cm], seeds=[9])
        return (result.runlog.to_jsonl(), result.checkpoint_bytes(), report.to_json())

    log1, ck1, rep1 = one_run()
    log2, ck2, rep2 = one_run()
    ok = log1 == log2 and ck1 == ck2 and rep1 == rep2
    _report("criterion-7 determinism", ok,
            f"runlog {'==' if log1 == log2 else '!='}, "
            f"checkpoint {'==' if ck1 == ck2 else '!='}, "
            f"report {'==' if rep1 == rep2 else '!='}")


# ---------------------------------------------------------------------------
# criterion 8: real-data smoke run (optional input)

def test_criterion_8_real_data_smoke():
    path = os.environ.get("MGSGAN_INDIAN_PINES_CSV")
    if not path:
        pytest.skip("set MGSGAN_INDIAN_PINES_CSV to a converted CSV to run the "
                    "real-data smoke test (see README for the conversion recipe)")
    epochs = int(os.environ.get("MGSGAN_SMOKE_EPOCHS", "2"))
    ds = load_csv(path)
    train_raw, test_raw = split_tttr(ds, SplitSpec(tttr=0.10, seed=0))
    train_n, test_n = normalize_pair(train_raw, test_raw)
    preds = {}
    for mode in ("mgsgan", "acsgan"):
        cfg = TrainConfig(epochs=epochs, batch=64, seed=0, mode=mode)
        result = train(train_n, cfg)
        preds[mode] = predict_labels(result.classifier, test_n.samples)
    cm = ConfusionMatrix.from_predictions(test_n.labels, preds["mgsgan"], ds.class_count)
    report = EvalReport.from_runs("mgsgan", [cm], seeds=[0])
    report.mcnemar_vs["acsgan"] = mcnemar(preds["mgsgan"], preds["acsgan"], test_n.labels)
    table = report.to_table()
    rows = table.strip().splitlines()
    ok = (len(report.per_class) == ds.class_count
          and "OA" in table and "Kappa" in table and "AA" in table
          and any("McNemar vs acsgan" in r for r in rows))
    _report("criterion-8 real-data-smoke", ok,
            f"{ds.class_count} classes, d={ds.band_count}, epochs={epochs}")
