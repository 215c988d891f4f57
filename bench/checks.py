"""Checks of dpplearn's outputs by computations made apart from it.

Nothing here imports dpplearn.  Kernels are assembled from the features
and parameters by this module's own code (L_ij = q_i q_j S_ij with
q = exp(X theta), S an RBF mix or the linear Gram), MAP is found by LU
determinants over all 2^N subsets, K = L (L + I)^-1 by a linear solve,
and F-scores by set arithmetic.  Each check returns ``(ok, detail)``.

The identities used (P(y) proportional to det(L_y), K = L (L + I)^-1,
P(i in Y) = K_ii) follow Kulesza & Taskar, "Determinantal point processes
for machine learning" (arXiv 1207.6083).
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations

import numpy as np

# A subset counts as numerically singular when det(L_y) is below this share
# of the Hadamard bound prod_{i in y} L_ii.  The ratio is invariant to the
# qualities q, so it separates exact-rank deficiency (rank <= feature_dim
# for the linear kernel) from LU rounding at any scale of L.
SINGULAR_RATIO = 1e-10

# A prediction is a MAP subset when its determinant is within this relative
# distance of the brute-force maximum (near-ties may break either way).
MAP_RTOL = 1e-9

# Binomial bounds: allowed deviation in standard deviations, plus a
# continuity slack of a few counts for items with tiny inclusion rates.
Z_BOUND = 6.0
COUNT_SLACK = 3.0

# Fit property: the fitted F must close at least this share of the gap from
# the untrained uniform parameters' F to the generating parameters' F.  On
# 20 seeds of the CLI workloads the share ran from 0.79 to 0.97 (mean 0.89);
# the fit converges to a theta shrunk by the label noise, more on some seeds.
FIT_SHARE = 0.6


def quality_similarity(X, Phi, theta, weights, bandwidths, linear):
    """L stack (n, N, N) from features (n, N, d) and parameters."""
    q = np.exp(np.asarray(X) @ np.asarray(theta))
    Phi = np.asarray(Phi, dtype=float)
    S = np.zeros(Phi.shape[:2] + (Phi.shape[1],))
    w = list(weights)
    if bandwidths:
        diff = Phi[:, :, None, :] - Phi[:, None, :, :]
        d2 = np.sum(diff * diff, axis=3)
        for k, sigma in enumerate(bandwidths):
            S += w[k] * np.exp(-d2 / (sigma * sigma))
    if linear:
        S += w[-1] * (Phi @ np.swapaxes(Phi, 1, 2))
    return q[:, :, None] * q[:, None, :] * S


def subset_dets(L):
    """All 2^N subsets and their determinants, by LU.

    Returns ``(index, dets)``: ``index`` maps each subset (a sorted tuple)
    to its column, in order of size and then lexicographically, and
    ``dets`` (n, 2^N) holds det(L_y) per kernel.  Numerically singular
    subsets (see SINGULAR_RATIO) get 0; the empty set gets 1.
    """
    n, N = L.shape[0], L.shape[1]
    diag = np.diagonal(L, axis1=1, axis2=2)
    keys, cols = [()], [np.ones((n, 1))]
    for size in range(1, N + 1):
        combs = np.array(list(combinations(range(N), size)))
        det = np.linalg.det(L[:, combs[:, :, None], combs[:, None, :]])
        bound = np.prod(diag[:, combs], axis=2)
        cols.append(np.where(det > SINGULAR_RATIO * bound, det, 0.0))
        keys.extend(tuple(int(i) for i in c) for c in combs)
    return {k: j for j, k in enumerate(keys)}, np.concatenate(cols, axis=1)


def brute_force_map(L):
    """One MAP subset per kernel: the largest LU determinant, ties going
    to the smaller, then lexicographically first, subset."""
    index, dets = subset_dets(L)
    keys = list(index)
    return [keys[j] for j in np.argmax(dets, axis=1)]


def dice(a, b):
    """F-score of two subsets by set arithmetic; two empty sets score 1."""
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return 2.0 * len(a & b) / (len(a) + len(b))


def mean_f(preds, labels):
    return float(np.mean([dice(p, y) for p, y in zip(preds, labels)]))


def check_map(L, preds):
    """Each prediction attains the brute-force maximum of det(L_y)."""
    if len(preds) != L.shape[0]:
        return False, f"{len(preds)} predictions for {L.shape[0]} kernels"
    index, dets = subset_dets(L)
    best = dets.max(axis=1)
    for row, pred in enumerate(preds):
        got = dets[row, index[tuple(sorted(pred))]]
        if got < best[row] * (1.0 - MAP_RTOL):
            return False, (f"instance {row}: predicted {tuple(pred)} has det "
                           f"{got:.6g}, brute-force maximum {best[row]:.6g}")
    return True, f"{len(preds)} predictions are brute-force MAP"


def check_fscores(preds, labels, reported_mean, reported_rows=None):
    """The program's F-scores equal those recomputed from the subsets."""
    if len(preds) != len(labels):
        return False, f"{len(preds)} predictions for {len(labels)} labels"
    ours = [dice(p, y) for p, y in zip(preds, labels)]
    if reported_rows is not None:
        if len(reported_rows) != len(ours):
            return False, f"{len(reported_rows)} score rows for {len(ours)} instances"
        for row, (a, b) in enumerate(zip(ours, reported_rows)):
            if abs(a - b) > 1e-12:
                return False, f"instance {row}: F {b!r} reported, {a!r} recomputed"
    mean = float(np.mean(ours))
    if abs(mean - reported_mean) > 1e-12:
        return False, f"mean F {reported_mean!r} reported, {mean!r} recomputed"
    return True, f"mean F {mean:.4f} over {len(ours)} instances"


def check_fit(f_fit, f_uniform, f_true):
    """The fitted F closes most of the gap from the untrained uniform
    parameters' F to the generating parameters' F."""
    if f_true <= f_uniform:
        return False, f"generating F {f_true:.4f} is not above uniform F {f_uniform:.4f}"
    share = (f_fit - f_uniform) / (f_true - f_uniform)
    detail = (f"F fitted {f_fit:.4f}, uniform {f_uniform:.4f}, "
              f"generating {f_true:.4f}: closes {share:.0%} of the gap")
    return share >= FIT_SHARE, detail


def _binomial_ok(count, trials, p):
    sd = math.sqrt(max(p * (1.0 - p), 0.0) * trials)
    return abs(count - p * trials) <= Z_BOUND * sd + COUNT_SLACK


def check_label_noise(labels, clean, n_items, noise_prob):
    """Label memberships differ from the noiseless MAP at rate noise_prob."""
    flips = sum(len(set(a) ^ set(b)) for a, b in zip(labels, clean))
    trials = len(labels) * n_items
    detail = (f"{flips} of {trials} memberships differ from the noiseless "
              f"MAP ({flips / trials:.4f}, noise_prob {noise_prob})")
    return _binomial_ok(flips, trials, noise_prob), detail


def marginal_diagonals(L):
    """diag K for K = L (L + I)^-1, by a linear solve per kernel."""
    eye = np.eye(L.shape[1])
    # K = I - (L + I)^-1
    return 1.0 - np.diagonal(np.linalg.solve(L + eye, eye), axis1=1, axis2=2)


def check_sampler(L, sample_lists):
    """Item inclusion frequencies match diag K within a binomial bound."""
    if len(sample_lists) != L.shape[0]:
        return False, f"{len(sample_lists)} sample lists for {L.shape[0]} kernels"
    kdiag = marginal_diagonals(L)
    worst = 0.0
    for row, samples in enumerate(sample_lists):
        T = len(samples)
        counts = np.zeros(L.shape[1])
        for s in samples:
            counts[list(s)] += 1
        for i, (c, p) in enumerate(zip(counts, kdiag[row])):
            if not _binomial_ok(c, T, p):
                return False, (f"instance {row} item {i}: included {int(c)} of "
                               f"{T} times, K_ii = {p:.4f}")
            sd = math.sqrt(max(p * (1.0 - p), 1e-12) * T)
            worst = max(worst, abs(c - p * T) / sd)
    return True, (f"{len(sample_lists)} x {L.shape[1]} inclusion rates within "
                  f"bound (largest |z| {worst:.2f})")


def consensus(samples):
    """{subset: mean F-score against all samples, itself included}.

    Set arithmetic over the distinct subsets, weighted by how often each
    was drawn.
    """
    counts = Counter(frozenset(s) for s in samples)
    T = len(samples)
    return {tuple(sorted(a)): sum(n * dice(a, b) for b, n in counts.items()) / T
            for a in counts}


def check_consensus(sample_lists, preds):
    """Each MBR prediction is a drawn sample of maximal consensus F."""
    if len(sample_lists) != len(preds):
        return False, f"{len(sample_lists)} sample lists for {len(preds)} predictions"
    for row, (samples, pred) in enumerate(zip(sample_lists, preds)):
        scores = consensus(samples)
        best = max(scores.values())
        got = scores.get(tuple(sorted(pred)))
        if got is None:
            return False, f"instance {row}: prediction {tuple(pred)} was never drawn"
        if got < best - 1e-9:
            return False, (f"instance {row}: prediction {tuple(pred)} has consensus "
                           f"{got:.6f}, maximum {best:.6f}")
    return True, f"{len(preds)} predictions are consensus maxima"
