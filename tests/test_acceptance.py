"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Criteria 6-9 run the full synthetic experiments and take a few minutes.
"""

import logging
import math
import time
from itertools import combinations

import numpy as np
import pytest

from oracles import project_to_simplex, random_psd_matrix

# singular-label warnings are unit-tested elsewhere; keep this output readable
logging.getLogger("dpplearn.learning").setLevel(logging.ERROR)

from dpplearn import (
    EnsembleKernel,
    GroundSetInstance,
    ModelParams,
    SimilarityConfig,
    SynthConfig,
    TRUE_SIMILARITY,
    TrainConfig,
    build_kernel,
    chain_L_to_params,
    finite_difference_check,
    grad_loglik_wrt_L,
    grad_margin_wrt_L,
    instance_objective,
    log_probability,
    marginal_kernel_from_L,
    sample_dpp_stack,
    softmax_margin_term,
    subset_marginal,
    total_objective,
)
from dpplearn.harness import ExperimentSpec, run_experiment, summarize


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d}: {status} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _all_masks_probs(L):
    """P(y) for every subset of an N x N kernel, via LU determinants."""
    n = L.shape[0]
    Z = float(np.linalg.det(L + np.eye(n)))
    masks, probs = [], []
    for size in range(n + 1):
        for y in combinations(range(n), size):
            d = 1.0 if size == 0 else float(np.linalg.det(L[np.ix_(y, y)]))
            masks.append(sum(1 << i for i in y))
            probs.append(d / Z)
    return np.array(masks, dtype=np.uint32), np.array(probs)


# -------------------------------------------------------------------- 1

def test_criterion_01_softmax_closed_form():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        L = random_psd_matrix(rng, n, scale=float(rng.uniform(0.5, 2.0)))
        kernel = EnsembleKernel.from_matrix(L)
        y = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                    replace=False).tolist()))
        omega = float(2.0 ** rng.uniform(-6, 6))
        got = math.exp(softmax_margin_term(marginal_kernel_from_L(kernel), y, omega))
        masks, probs = _all_masks_probs(L)
        ymask = sum(1 << i for i in y)
        extras = np.bitwise_count(masks & ~np.uint32(ymask))
        misses = np.bitwise_count(np.uint32(ymask) & ~masks)
        want = float(np.sum((extras + omega * misses) * probs))
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    elapsed = time.perf_counter() - t0
    report(1, worst <= 1e-8 and elapsed < 60.0,
           f"softmax closed form: 200 cases, max rel err {worst:.2e}, "
           f"{elapsed:.1f}s")


# -------------------------------------------------------------------- 2

def test_criterion_02_marginal_identity_and_normalization():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    worst_norm, worst_marg = 0.0, 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        L = random_psd_matrix(rng, n, scale=float(rng.uniform(0.5, 2.0)))
        kernel = EnsembleKernel.from_matrix(L)
        K = marginal_kernel_from_L(kernel)
        masks, probs = _all_masks_probs(L)
        worst_norm = max(worst_norm, abs(float(probs.sum()) - 1.0))
        contain = (masks[None, :] & masks[:, None]) == masks[:, None]
        superset_sums = contain @ probs
        for idx, mask in enumerate(masks):
            y = tuple(i for i in range(n) if mask >> i & 1)
            err = abs(subset_marginal(K, y) - superset_sums[idx])
            worst_marg = max(worst_marg, err)
    elapsed = time.perf_counter() - t0
    report(2, worst_norm <= 1e-8 and worst_marg <= 1e-8 and elapsed < 60.0,
           f"normalization err {worst_norm:.2e}, marginal identity err "
           f"{worst_marg:.2e} over 100 kernels, {elapsed:.1f}s")


# -------------------------------------------------------------------- 3

SIM3 = SimilarityConfig(bandwidths=(0.8, 2.0), include_linear=True)


def _hinge_active_instance(rng, lam, omega):
    while True:
        n = int(rng.integers(3, 7))
        x = 0.5 * rng.standard_normal((n, 3))
        phi = rng.standard_normal((n, 3))
        label = tuple(sorted(rng.choice(n, size=int(rng.integers(1, n)),
                                        replace=False).tolist()))
        inst = GroundSetInstance(x, phi, label)
        theta = 0.5 * rng.standard_normal(3)
        weights = project_to_simplex(rng.random(3) + 0.2)
        config = TrainConfig(similarity=SIM3, lam=lam, omega=omega)
        if instance_objective(ModelParams(theta, weights), inst, config) > 0.05:
            return inst, theta, weights, config


def _fd_matrix(f, M, step=1e-5):
    g = np.zeros_like(M)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            hi, lo = M.copy(), M.copy()
            hi[i, j] += step
            lo[i, j] -= step
            g[i, j] = (f(hi) - f(lo)) / (2 * step)
    return g


# Central differences at step 1e-5 on an O(1) function cannot resolve
# absolute discrepancies below ~|f| * eps / step; entries already agreeing
# to that floor count as resolved rather than diluting the relative error.
FD_NOISE_FLOOR = 2e-10


def _rel_err(a, b):
    close = np.abs(a - b) <= FD_NOISE_FLOOR
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    rel = np.abs(a - b) / denom
    rel[close] = 0.0
    return float(np.max(rel))


def test_criterion_03_gradient_suite():
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        lam = float(rng.choice([0.5, 1.0, 2.0]))
        omega = float(rng.choice([0.25, 1.0, 4.0]))
        inst, theta, weights, config = _hinge_active_instance(rng, lam, omega)
        params = ModelParams(theta, weights)
        L = build_kernel(inst, params, SIM3)
        K = marginal_kernel_from_L(L)
        y = inst.label
        n = inst.n_items
        M0 = np.array(L.matrix)

        # d log P / dL via LU-based slogdet of perturbed matrices
        def loglik(M):
            sign, ld = np.linalg.slogdet(M[np.ix_(y, y)])
            signz, ldz = np.linalg.slogdet(M + np.eye(n))
            return float(ld - ldz)

        worst = max(worst, _rel_err(grad_loglik_wrt_L(L, y), _fd_matrix(loglik, M0)))

        # d margin term / dL via LU-based inverse
        mask = np.zeros(n, dtype=bool)
        mask[list(y)] = True

        def margin(M):
            kd = 1.0 - np.diag(np.linalg.inv(M + np.eye(n)))
            return math.log(float(kd[~mask].sum() + omega * (1 - kd[mask]).sum()))

        worst = max(worst, _rel_err(grad_margin_wrt_L(L, K, y, omega),
                                    _fd_matrix(margin, M0)))

        # dK_ii/dL entrywise for one random diagonal element
        i = int(rng.integers(n))
        B = np.linalg.inv(M0 + np.eye(n))

        def kii(M):
            return float((M @ np.linalg.inv(M + np.eye(n)))[i, i])

        worst = max(worst, _rel_err(np.outer(B[:, i], B[:, i]),
                                    _fd_matrix(kii, M0)))

        # chained full parameter gradient vs FD of the hinge objective
        d = theta.size

        def f(v):
            return instance_objective(ModelParams(v[:d], v[d:]), inst, config)

        def grad(v):
            p = ModelParams(v[:d], v[d:])
            Lp = build_kernel(inst, p, SIM3)
            Kp = marginal_kernel_from_L(Lp)
            U = -grad_loglik_wrt_L(Lp, y) + lam * grad_margin_wrt_L(Lp, Kp, y, omega)
            gt, gw = chain_L_to_params(inst, p, SIM3, U)
            return np.concatenate([gt, gw])

        rep = finite_difference_check(f, grad, np.concatenate([theta, weights]))
        worst = max(worst, rep.max_rel_error)
    elapsed = time.perf_counter() - t0
    report(3, worst < 1e-5 and elapsed < 120.0,
           f"gradient suite: 50 hinge-active instances, max rel err "
           f"{worst:.2e}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 4

def test_criterion_04_mle_reduction():
    rng = np.random.default_rng(404)
    config = TrainConfig(similarity=SIM3, lam=0.0)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 7))
        x = 0.5 * rng.standard_normal((n, 3))
        phi = rng.standard_normal((n, 3))
        label = tuple(sorted(rng.choice(n, size=int(rng.integers(0, n + 1)),
                                        replace=False).tolist()))
        inst = GroundSetInstance(x, phi, label)
        params = ModelParams(0.5 * rng.standard_normal(3),
                             project_to_simplex(rng.random(3)))
        total = total_objective(params, [inst], config)
        nll = -log_probability(build_kernel(inst, params, SIM3), label)
        worst = max(worst, abs(total - nll))
    report(4, worst <= 1e-10,
           f"lam=0 objective equals negative log-likelihood, max err {worst:.2e}")


# -------------------------------------------------------------------- 5

def test_criterion_05_sampler_correctness():
    from scipy.stats import chisquare

    rng = np.random.default_rng(505)
    t0 = time.perf_counter()
    L = EnsembleKernel.from_matrix(random_psd_matrix(rng, 4, scale=2.0))
    K = marginal_kernel_from_L(L)
    n_draws = 200_000
    masks, probs = _all_masks_probs(np.array(L.matrix))
    index = {int(m): k for k, m in enumerate(masks)}
    counts = np.zeros(len(masks))
    item_counts = np.zeros(4)
    for y in sample_dpp_stack(L, n_draws, rng):
        counts[index[sum(1 << i for i in y)]] += 1
        for i in y:
            item_counts[i] += 1
    expected = probs * n_draws
    stat, pvalue = chisquare(counts, expected * counts.sum() / expected.sum())
    marg_ok = True
    for i in range(4):
        p = K.matrix[i, i]
        sigma = math.sqrt(n_draws * p * (1 - p))
        marg_ok &= abs(item_counts[i] - n_draws * p) <= 4.0 * sigma
    elapsed = time.perf_counter() - t0
    report(5, pvalue > 0.001 and marg_ok and elapsed < 120.0,
           f"sampler: chi-square p={pvalue:.4f} over {len(masks)} subsets, "
           f"marginals within 4 sigma={marg_ok}, {elapsed:.1f}s")


# -------------------------------------------------------------------- 6

MASTER_SEED = 20240613
BASE_TRAIN = TrainConfig(similarity=TRUE_SIMILARITY, rel_tolerance=1e-9)


def _cell(cells, method, cell_value=None):
    for entry in cells:
        if entry["method"] == method and (
            cell_value is None or entry["cell"] == cell_value
        ):
            return entry
    raise KeyError((method, cell_value))


@pytest.mark.slow
def test_criterion_06_fig1a_direction():
    spec = ExperimentSpec(
        kind="fig1a", synth=SynthConfig(seed=MASTER_SEED), train=BASE_TRAIN,
        replicates=10, train_sizes=(200,), lambda_grid=(0.01, 0.1, 1.0, 10.0),
    )
    cells = summarize(run_experiment(spec)[0])
    lme = _cell(cells, "lme", 200)
    mle = _cell(cells, "mle", 200)
    oracle = _cell(cells, "oracle", 200)
    pooled = math.hypot(lme["fscore_stderr"], mle["fscore_stderr"])
    diff = lme["fscore_mean"] - mle["fscore_mean"]
    ok = diff > pooled and oracle["fscore_mean"] > 0
    report(6, ok,
           f"fig1a: lme F {lme['fscore_mean']:.4f} vs mle F "
           f"{mle['fscore_mean']:.4f} (oracle {oracle['fscore_mean']:.4f}), "
           f"diff {diff:.4f} > pooled stderr {pooled:.4f}")


# -------------------------------------------------------------------- 7

@pytest.mark.slow
def test_criterion_07_fig1b_robustness():
    spec = ExperimentSpec(
        kind="fig1b", synth=SynthConfig(seed=MASTER_SEED), train=BASE_TRAIN,
        replicates=10, lambda_grid=(1.0, 10.0),
    )
    cells = summarize(run_experiment(spec)[0])
    mle = [c["fscore_mean"] for c in cells if c["method"] == "mle"]
    lme = [c["fscore_mean"] for c in cells if c["method"] == "lme"]
    r_mle = max(mle) - min(mle)
    r_lme = max(lme) - min(lme)
    report(7, r_lme < r_mle,
           f"fig1b: lme F range {r_lme:.4f} < mle F range {r_mle:.4f} "
           f"across {len(mle)} bandwidths")


# -------------------------------------------------------------------- 8

@pytest.mark.slow
def test_criterion_08_fig1c_recovery():
    # fig1c draws its labels from the RBF at sigma = 2, a member of the
    # bank, so joint training over the bank must match training with that
    # similarity fixed.  The criterion is asserted as stated, not loosened.
    spec = ExperimentSpec(
        kind="fig1c", synth=SynthConfig(seed=MASTER_SEED), train=BASE_TRAIN,
        replicates=10, train_sizes=(800,), lambda_grid=(1.0, 10.0),
        methods=("lme",),
    )
    cells = summarize(run_experiment(spec)[0])
    mkl = _cell(cells, "lme", 800)
    ref = _cell(cells, "lme_true_s", 800)
    pooled = math.hypot(mkl["fscore_stderr"], ref["fscore_stderr"])
    diff = abs(mkl["fscore_mean"] - ref["fscore_mean"])
    report(8, diff <= 2.0 * pooled,
           f"fig1c: |lme+mkl F {mkl['fscore_mean']:.4f} - lme+true-S F "
           f"{ref['fscore_mean']:.4f}| = {diff:.4f} vs 2*pooled stderr "
           f"{2.0 * pooled:.4f}")


# -------------------------------------------------------------------- 9

@pytest.mark.slow
def test_criterion_09_omega_tradeoff():
    lo_w, hi_w = 2.0**-6, 2.0**6
    spec = ExperimentSpec(
        kind="omega_sweep", synth=SynthConfig(seed=MASTER_SEED),
        train=TrainConfig(similarity=TRUE_SIMILARITY, lam=1.0,
                          rel_tolerance=1e-9),
        replicates=20, omega_grid=(lo_w, hi_w),
    )
    rows, _ = run_experiment(spec)
    cells = summarize(rows)
    lo = _cell(cells, "lme", lo_w)
    hi = _cell(cells, "lme", hi_w)
    p_margin = lo["precision_mean"] - hi["precision_mean"]
    p_pooled = math.hypot(lo["precision_stderr"], hi["precision_stderr"])
    r_margin = hi["recall_mean"] - lo["recall_mean"]
    r_pooled = math.hypot(lo["recall_stderr"], hi["recall_stderr"])
    ok = p_margin > p_pooled and r_margin > r_pooled
    report(9, ok,
           f"omega tradeoff over 20 runs: precision(2^-6) "
           f"{lo['precision_mean']:.4f} > precision(2^6) "
           f"{hi['precision_mean']:.4f} by {p_margin:.4f} (pooled "
           f"{p_pooled:.4f}); recall(2^6) {hi['recall_mean']:.4f} > "
           f"recall(2^-6) {lo['recall_mean']:.4f} by {r_margin:.4f} "
           f"(pooled {r_pooled:.4f})")


# ------------------------------------------------------------------- 10

def test_criterion_10_determinism(tmp_path):
    from dpplearn.cli import EXIT_OK, cli_main

    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        'kind = "omega_sweep"\n'
        "replicates = 2\n"
        "omega_grid = [0.25, 4.0]\n"
        "sigma_grid = [0.5, 2.0]\n"
        "train.lam = 1.0\n"
        "train.max_outer_iterations = 6\n"
        "synth.n_train = 20\nsynth.n_holdout = 8\nsynth.n_test = 8\n"
    )
    gen_cfg = tmp_path / "synth.cfg"
    gen_cfg.write_text("synth.n_train = 12\nsynth.n_holdout = 5\nsynth.n_test = 5\n")

    outputs = {}
    for tag in ("a", "b"):
        exp_dir = tmp_path / f"exp_{tag}"
        assert cli_main(["experiment", "--config", str(cfg), "--seed", "3",
                         "--out-dir", str(exp_dir)]) == EXIT_OK
        gen_dir = tmp_path / f"gen_{tag}"
        assert cli_main(["gen", "--config", str(gen_cfg), "--seed", "4",
                         "--out-dir", str(gen_dir)]) == EXIT_OK
        outputs[tag] = (exp_dir, gen_dir)

    same = True
    for name in ("results.csv", "summary.csv", "manifest.json", "pr_curve.csv"):
        same &= (outputs["a"][0] / name).read_bytes() == \
            (outputs["b"][0] / name).read_bytes()
    for name in ("train.jsonl", "holdout.jsonl", "test.jsonl"):
        same &= (outputs["a"][1] / name).read_bytes() == \
            (outputs["b"][1] / name).read_bytes()
    report(10, same, "experiment and gen reruns byte-identical "
                     "(timings.csv excluded by design)")
