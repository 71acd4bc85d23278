"""End-to-end acceptance checks.

Each test prints exactly one line

    ACCEPTANCE <n>: PASS|FAIL - <measured values>

and then asserts, so a full run yields a ten-line scoreboard.  The slow
fixtures (ten full trimming runs on the benchmark generator) are shared
across the criteria that need them.
"""

import json
import os
import time

import numpy as np
import pytest
from scipy.stats import kstest

from oclust import (
    DowndateVariant,
    FitConfig,
    MixtureModel,
    OclustConfig,
    SimModelSpec,
    approx_log_likelihood,
    beta_mixture_reference,
    build_bins,
    classify_errors,
    cluster_stats,
    default_num_bins,
    delta_formula,
    downdate_stats,
    frozen_subset_deltas,
    gamma_reference,
    gen_dataset,
    kl_divergence,
    mahalanobis_sq,
    oclust_run,
    sample_reference,
    separation_experiment,
)
from oclust.cli import main as cli_main


def _report(num: int, ok: bool, details: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, f"criterion {num} failed: {details}"


def _random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + p * np.eye(p))


# ---------------------------------------------------------------------------
# 1. closed-form removal delta vs two full evaluations
# ---------------------------------------------------------------------------


def test_criterion_01_delta_formula_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    t0 = time.time()
    for _ in range(200):
        n_comp = int(rng.integers(1, 4))
        p = int(rng.choice([1, 2, 5]))
        n = int(rng.integers(n_comp + 2, 101))
        model = MixtureModel(
            weights=rng.dirichlet(np.ones(n_comp)),
            means=rng.standard_normal((n_comp, p)) * 3.0,
            covariances=np.stack([_random_spd(rng, p) for _ in range(n_comp)]),
        )
        data = rng.standard_normal((n, p)) * 2.0
        labels = rng.integers(0, n_comp, size=n)
        q_full = approx_log_likelihood(data, model, labels)
        for j in rng.choice(n, size=min(5, n), replace=False):
            h = labels[j]
            direct = delta_formula(
                data[j], model.means[h], model.covariances[h], model.weights[h]
            )
            q_minus = approx_log_likelihood(
                np.delete(data, j, axis=0), model, np.delete(labels, j)
            )
            worst = max(worst, abs(direct - (q_minus - q_full)))
    elapsed = time.time() - t0
    ok = worst < 1e-9 and elapsed < 5.0
    _report(
        1,
        ok,
        f"max |formula - two-evaluation difference| = {worst:.3e} "
        f"(tol 1e-9) over 200 instances in {elapsed:.2f}s (limit 5s)",
    )


# ---------------------------------------------------------------------------
# 2. one-point statistic downdates
# ---------------------------------------------------------------------------


def test_criterion_02_downdate_oracle():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(500):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(4, 60))
        block = rng.standard_normal((n, p)) * rng.uniform(0.5, 3.0)
        mean = block.mean(axis=0)
        cov = np.cov(block, rowvar=False, ddof=1).reshape(p, p)
        j = int(rng.integers(0, n))
        got_mean, got_cov = downdate_stats(n, mean, cov, block[j], DowndateVariant.EXACT)
        rest = np.delete(block, j, axis=0)
        worst = max(
            worst,
            np.abs(got_mean - rest.mean(axis=0)).max(),
            np.abs(got_cov - np.cov(rest, rowvar=False, ddof=1).reshape(p, p)).max(),
        )

    gap_means = []
    for n in [10, 100, 1000]:
        gaps = []
        for seed in range(50):
            r = np.random.default_rng(seed)
            block = r.standard_normal((n, 3))
            mean = block.mean(axis=0)
            cov = np.cov(block, rowvar=False, ddof=1)
            _, exact = downdate_stats(n, mean, cov, block[0], DowndateVariant.EXACT)
            _, asym = downdate_stats(n, mean, cov, block[0], DowndateVariant.ASYMPTOTIC)
            gaps.append(np.abs(exact - asym).max())
        gap_means.append(float(np.mean(gaps)))
    monotone = gap_means[0] > gap_means[1] > gap_means[2]
    ok = worst < 1e-12 and monotone
    _report(
        2,
        ok,
        f"max exact-vs-recompute error = {worst:.3e} (tol 1e-12) on 500 clusters; "
        f"mean approx-variant gap over n_h=(10,100,1000) = "
        f"({gap_means[0]:.2e}, {gap_means[1]:.2e}, {gap_means[2]:.2e}), "
        f"monotone decreasing = {monotone}",
    )


# ---------------------------------------------------------------------------
# 3. beta law of frozen deltas for one Gaussian cluster
# ---------------------------------------------------------------------------


def test_criterion_03_beta_law():
    n, p = 200, 2
    passes = 0
    pooled = []
    t0 = time.time()
    for seed in range(100):
        data = np.random.default_rng(seed).standard_normal((n, p))
        labels = np.zeros(n, dtype=int)
        stats = cluster_stats(data, labels, 1)
        values = frozen_subset_deltas(data, labels, stats)
        ref = beta_mixture_reference(stats)
        scaled = ref.scale[0] * (values - ref.shift[0])
        if kstest(scaled, "beta", args=(p / 2.0, (n - p - 1) / 2.0)).pvalue > 0.01:
            passes += 1
        pooled.append(scaled)
    elapsed = time.time() - t0
    pooled = np.concatenate(pooled)
    target = p / (n - 1.0)
    a, b = p / 2.0, (n - p - 1) / 2.0
    beta_sd = np.sqrt(a * b / ((a + b) ** 2 * (a + b + 1.0)))
    se = beta_sd / np.sqrt(pooled.size)
    mean_dev = abs(pooled.mean() - target)
    ok = passes >= 90 and mean_dev <= 3.0 * se and elapsed < 30.0
    _report(
        3,
        ok,
        f"KS(Beta(1, 98.5), level 0.01) passed {passes}/100 trials (need >= 90); "
        f"|mean - 2/199| = {mean_dev:.2e} vs 3*SE = {3 * se:.2e}; {elapsed:.1f}s (limit 30s)",
    )


# ---------------------------------------------------------------------------
# 4. gamma law under population parameters
# ---------------------------------------------------------------------------


def test_criterion_04_gamma_law():
    n, p = 5000, 3
    rng = np.random.default_rng(11)
    cov = _random_spd(rng, p)
    mean = rng.standard_normal(p)
    model = MixtureModel(weights=[1.0], means=[mean], covariances=[cov])
    data = rng.multivariate_normal(mean, cov, size=n)
    ref = gamma_reference(model)
    deltas = np.array([delta_formula(x, mean, cov, 1.0) for x in data])
    centered = deltas - ref.shift[0]
    # Gamma(p/2, 1): mean p/2, variance p/2
    se = np.sqrt(p / 2.0) / np.sqrt(n)
    dev = abs(centered.mean() - p / 2.0)
    ok = dev <= 3.0 * se and ref.shape == pytest.approx(p / 2.0)
    _report(
        4,
        ok,
        f"|mean(delta - shift) - 1.5| = {dev:.4f} vs 3*SE = {3 * se:.4f} "
        f"(n={n}, p={p}, population parameters)",
    )


# ---------------------------------------------------------------------------
# 5. KL estimator sanity
# ---------------------------------------------------------------------------


def test_criterion_05_kl_estimator():
    rng = np.random.default_rng(30)
    data = np.vstack([rng.standard_normal((300, 2)), rng.standard_normal((200, 2)) + 7.0])
    labels = np.repeat([0, 1], [300, 200])
    ref = beta_mixture_reference(cluster_stats(data, labels, 2))

    self_kls = []
    for seed in range(20):
        draws = sample_reference(ref, 10_000, np.random.default_rng(seed))
        bins = build_bins(ref, default_num_bins(10_000))
        self_kls.append(kl_divergence(draws, bins).value)
    self_ok = max(self_kls) < 0.01

    point_ok = True
    for num_bins in [10, 17, 64]:
        bins = build_bins(ref, num_bins)
        mid = 0.5 * (bins.edges[1] + bins.edges[2])
        est = kl_divergence(np.full(123, mid), bins)
        point_ok = point_ok and est.value == np.log(float(num_bins))

    min_val = np.inf
    for _ in range(1000):
        num_bins = int(rng.integers(2, 40))
        bins = build_bins(ref, num_bins)
        size = int(rng.integers(1, 300))
        lo, hi = ref.support_lo, ref.support_hi
        values = rng.uniform(lo - 0.5, hi + 0.5, size=size)
        min_val = min(min_val, kl_divergence(values, bins).value)
    nonneg_ok = min_val >= -1e-12

    ok = self_ok and point_ok and nonneg_ok
    _report(
        5,
        ok,
        f"max self-KL over 20 seeds = {max(self_kls):.5f} (< 0.01); "
        f"point-mass == log(B) exactly: {point_ok}; "
        f"min KL over 1000 random inputs = {min_val:.2e} (>= -1e-12)",
    )


# ---------------------------------------------------------------------------
# 6. likelihood-gap bands across calibrated separation levels
# ---------------------------------------------------------------------------


def test_criterion_06_separation_gap_bands():
    t0 = time.time()
    grid = [-0.9, -0.5, 0.0, 0.5]
    gaps = {}
    for target in grid:
        report = separation_experiment(p=2, target=target, replicates=20, seed=1)
        gaps[target] = report.relative_gap
    elapsed = time.time() - t0
    band_high = 0.05 <= gaps[-0.9] <= 0.20
    band_mid = 0.002 <= gaps[0.0] <= 0.02
    band_low = gaps[0.5] < 1e-6
    ordered = all(gaps[a] >= gaps[b] for a, b in zip(grid, grid[1:]))
    ok = band_high and band_mid and band_low and ordered and elapsed < 300.0
    _report(
        6,
        ok,
        f"mean relative gap: J*=-0.9 -> {gaps[-0.9]:.4f} (band [0.05, 0.20]), "
        f"J*=-0.5 -> {gaps[-0.5]:.4f}, J*=0 -> {gaps[0.0]:.5f} (band [0.002, 0.02]), "
        f"J*=0.5 -> {gaps[0.5]:.2e} (< 1e-6); nonincreasing = {ordered}; "
        f"{elapsed:.0f}s (limit 300s)",
    )


# ---------------------------------------------------------------------------
# 7-9. full trimming runs on the benchmark generator (shared fixture)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def model_one_runs():
    """Ten seeded trimming runs: shape setting I, p=2, 450 good + 50 outliers,
    budget 63."""
    threads = min(4, os.cpu_count() or 1)
    runs = []
    t0 = time.time()
    for i in range(10):
        dataset = gen_dataset(
            SimModelSpec(model="I", n_good=450, n_outliers=50, seed=1000 + i)
        )
        config = OclustConfig(
            n_clusters=3, max_outliers=63, fit=FitConfig(seed=i), n_threads=threads
        )
        result = oclust_run(dataset.data, config)
        runs.append((result, dataset.outlier_mask))
    return runs, time.time() - t0


def test_criterion_07_outlier_proportion(model_one_runs):
    runs, elapsed = model_one_runs
    alphas = [result.alpha_hat for result, _ in runs]
    mean_alpha = float(np.mean(alphas))
    ok = abs(mean_alpha - 0.10) <= 0.02 and elapsed < 1800.0
    _report(
        7,
        ok,
        f"mean alpha_hat = {mean_alpha:.4f} over 10 seeds (target 0.10 +/- 0.02); "
        f"per-seed = {[round(a, 3) for a in alphas]}; fixture took {elapsed:.0f}s "
        f"(limit 1800s)",
    )


def test_criterion_08_misclassification(model_one_runs):
    runs, _ = model_one_runs
    rates = [classify_errors(result, truth)[2] for result, truth in runs]
    mean_rate = float(np.mean(rates))
    ok = mean_rate <= 0.02
    _report(
        8,
        ok,
        f"mean outlier misclassification = {mean_rate:.4f} over 10 seeds (<= 0.02); "
        f"per-seed = {[round(r, 3) for r in rates]}",
    )


def test_criterion_09_divergence_trace_shape(model_one_runs):
    runs, _ = model_one_runs
    hits = 0
    pairs = []
    for result, _ in runs:
        kls = np.array([record.kl.value for record in result.trace])
        early = float(kls[0:41].mean())
        late = float(kls[45:56].mean())
        pairs.append((round(early, 3), round(late, 3)))
        hits += early > late
    ok = hits >= 8
    _report(
        9,
        ok,
        f"mean KL(iterations 0-40) > mean KL(iterations 45-55) in {hits}/10 seeds "
        f"(need >= 8); (early, late) pairs = {pairs}",
    )


# ---------------------------------------------------------------------------
# 10. byte-identical CLI reruns
# ---------------------------------------------------------------------------


def test_criterion_10_cli_determinism(tmp_path, capsys):
    checked = []

    def rerun(argv, outputs):
        snapshots = []
        stdouts = []
        for _ in range(2):
            code = cli_main(list(argv))
            assert code == 0
            stdouts.append(capsys.readouterr().out)
            snapshots.append([path.read_bytes() for path in outputs])
        identical = snapshots[0] == snapshots[1] and stdouts[0] == stdouts[1]
        checked.append((argv[0], identical))
        return identical

    sim_csv = tmp_path / "bench.csv"
    ok = rerun(
        ["simulate", "--model", "II", "--n-good", "120", "--n-out", "12",
         "--seed", "9", "--out", str(sim_csv)],
        [sim_csv, sim_csv.with_name(sim_csv.name + ".manifest.json")],
    )

    run_dir = tmp_path / "run"
    ok &= rerun(
        ["oclust", str(sim_csv), "--clusters", "3", "--max-outliers", "14",
         "--seed", "4", "--out", str(run_dir)],
        [run_dir / name for name in
         ["trace.csv", "labels.csv", "summary.json", "manifest.json"]],
    )

    study_csv = tmp_path / "study.csv"
    ok &= rerun(
        ["separation-study", "--dims", "2", "--grid", "0.0", "--replicates", "2",
         "--seed", "0", "--out", str(study_csv)],
        [study_csv],
    )

    ok &= rerun(
        ["score", "--pred", str(run_dir / "labels.csv"), "--truth", str(sim_csv)],
        [],
    )

    _report(
        10,
        ok,
        "byte-identical reruns (files + stdout) per subcommand: "
        + ", ".join(f"{name}={'yes' if good else 'NO'}" for name, good in checked),
    )
