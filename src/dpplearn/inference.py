"""Extracting a predicted subset from a DPP kernel.

Exact MAP by enumeration for small ground sets; exact sampling via the
two-phase spectral algorithm; and minimum-Bayes-risk decoding, which draws
many samples and returns the one with the highest average F-score
consensus against the rest.

Sampling has one engine, :func:`sample_dpp_stack`, which draws a kernel's
T samples together: its phase two follows the conditional diagonal of the
kept eigenvectors' projection kernel by incremental Cholesky, one
vectorized step per drawn item.  It consumes the random stream exactly as
T one-sample draws would, and :func:`sample_dpp` is its stack of one.
The consensus is scored over the distinct drawn subsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import batch as _batch
from .batch import map_exhaustive_stack
from .errors import ParameterError


@dataclass(frozen=True)
class InferenceConfig:
    """How to turn a kernel into a predicted subset.

    mode "exhaustive" enumerates all subsets (item counts up to
    ``exhaustive_limit``); "mbr" samples ``mbr_samples`` subsets and picks
    the consensus winner.
    """

    mode: str = "exhaustive"
    exhaustive_limit: int = 20
    mbr_samples: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exhaustive", "mbr"):
            raise ParameterError(f"unknown inference mode {self.mode!r}")
        if not 1 <= self.exhaustive_limit <= 25:
            raise ParameterError(
                f"exhaustive_limit must be in [1, 25], got {self.exhaustive_limit}"
            )
        if self.mbr_samples < 1:
            raise ParameterError("mbr_samples must be at least 1")


def map_exhaustive(L, exhaustive_limit=20):
    """The subset maximizing det(L_y) over all 2^N subsets of a PSD kernel.

    Ties break toward smaller subsets, then lexicographically.  The
    enumeration is :func:`dpplearn.batch.map_exhaustive_stack` on a stack
    of one: one Schur-complement update per subset, so its cost grows as
    2^N times a small power of N.  Raises ParameterError beyond
    ``exhaustive_limit`` items; use MBR decoding for larger ground sets.
    """
    require_enumerable(L.n_items, exhaustive_limit)
    return map_exhaustive_stack(L.matrix[None])[0]


def require_enumerable(n_items, exhaustive_limit):
    """Raise ParameterError when exhaustive MAP may not enumerate n_items."""
    if n_items > exhaustive_limit:
        raise ParameterError(
            f"{n_items} items exceed the exhaustive enumeration limit "
            f"{exhaustive_limit}; use mbr_decode instead"
        )


def sample_dpp(L, rng):
    """Draw one subset exactly distributed as P(y) proportional to det(L_y).

    The stack of one of :func:`sample_dpp_stack`: it draws the same
    subset and advances ``rng`` by the same amount.
    """
    return sample_dpp_stack(L, 1, rng)[0]


def sample_dpp_stack(L, T, rng):
    """Draw T independent subsets, a list of sorted int tuples, from the DPP.

    The two-phase spectral algorithm (Kulesza & Taskar, arXiv 1207.6083,
    Alg. 1).  Phase one keeps eigenvector m independently with probability
    lambda_m / (lambda_m + 1); the kept eigenvectors V span a projection
    DPP with kernel V V^T.  Phase two draws one item per kept eigenvector
    from the conditional diagonal of that projection kernel given the
    items already drawn, and updates the diagonal by incremental Cholesky
    (Chen, Zhang & Zhou, arXiv 1709.05135).  Items whose conditional
    diagonal falls below 1e-12 are excluded before each draw.

    The draws are the same as those of T successive one-sample calls, in
    order: ``rng.random(N)`` for phase one, then one ``rng.random()`` per
    drawn item, mapped to an item by the rule ``Generator.choice`` applies
    (normalize, cumulative sum, ``searchsorted(side="right")``).  So the
    samples agree with a one-at-a-time sampler up to rounding near a
    boundary of the cumulative distribution, and ``rng`` ends in the same
    state.  Phase two is vectorized across the samples, one step per drawn
    item; samples are processed in chunks whose temporaries stay within
    ``batch.MAP_CHUNK_BYTES``.
    """
    probs = L.eigenvalues / (L.eigenvalues + 1.0)
    # per sample, the Cholesky rows, uniforms and diagonal take 8 N (k + 2)
    # bytes, and k is at most the number of eigenvalues above zero
    k_bound = int(np.count_nonzero(probs > 0))
    per_sample = 8 * max(1, L.n_items) * (k_bound + 2)
    step = max(1, _batch.MAP_CHUNK_BYTES // per_sample)
    samples = []
    for t0 in range(0, T, step):
        samples += _sample_chunk(L.eigenvectors, probs, min(step, T - t0), rng)
    return samples


def _sample_chunk(E, probs, T, rng):
    """T consecutive samples of :func:`sample_dpp_stack`."""
    N = len(probs)
    keep = np.empty((T, N), dtype=bool)
    u = np.zeros((T, N))  # u[t, j]: the uniform behind sample t's j-th item
    for t in range(T):  # the draw order of T one-sample calls
        keep[t] = rng.random(N) < probs
        k_t = np.count_nonzero(keep[t])
        u[t, :k_t] = rng.random(k_t)
    k = np.count_nonzero(keep, axis=1)
    # Larger samples first, so the samples still drawing at step j are a prefix.
    order = np.argsort(-k, kind="stable")
    keep, u, k = keep[order], u[order], k[order]
    k_max = int(k[0]) if T else 0
    # Sample t's projection kernel is K_t = E diag(keep_t) E^T; d2 is its
    # diagonal conditioned on the items drawn so far.
    d2 = keep @ (E**2).T
    C = np.empty((k_max, T, N))  # incremental Cholesky rows
    items = np.full((T, k_max), N)
    for j in range(k_max):
        a = int(np.count_nonzero(k > j))
        rows = np.arange(a)
        p = d2[:a].copy()  # Generator.choice's rule, row by row
        p[p < 1e-12] = 0.0
        p /= p.sum(axis=1, keepdims=True)
        cdf = np.cumsum(p, axis=1)
        cdf /= cdf[:, -1:]
        # per row, searchsorted(cdf, u, side="right")
        s = np.count_nonzero(cdf <= u[:a, j, None], axis=1)
        items[:a, j] = s
        e = (keep[:a] * E[s]) @ E.T  # row s of K_t
        e -= np.einsum("it,itn->tn", C[:j, rows, s], C[:j, :a])
        e /= np.sqrt(d2[rows, s])[:, None]
        C[j, :a] = e
        d2[:a] -= e * e
        d2[rows, s] = 0.0  # rounding leaves ~1e-16 on the item just drawn
    items.sort(axis=1)
    out = [None] * T
    for t, row, n in zip(order.tolist(), items.tolist(), k.tolist()):
        out[t] = tuple(row[:n])
    return out


def consensus_scores(samples):
    """Mean F-score of each sample against the whole list, itself included.

    The pairwise F-scores are computed over the U distinct subsets only
    (U x U, not T x T), found by ``np.unique`` over packed membership
    bitmasks; each is weighted by how often it was drawn, and the scores
    are mapped back to the samples, so equal subsets score equally.  Two
    empty subsets score F = 1.
    """
    T = len(samples)
    n = 1 + max((max(s) for s in samples if s), default=0)
    member = np.zeros((T, n), dtype=bool)
    lengths = np.fromiter(map(len, samples), dtype=int, count=T)
    member[np.repeat(np.arange(T), lengths), [i for s in samples for i in s]] = True
    _, first, inverse, counts = np.unique(
        np.packbits(member, axis=1), axis=0,
        return_index=True, return_inverse=True, return_counts=True,
    )
    distinct = member[first].astype(float)
    sizes = distinct.sum(axis=1)
    inter = distinct @ distinct.T
    denom = sizes[:, None] + sizes[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(denom > 0, 2.0 * inter / denom, 1.0)
    return (f @ counts / T)[inverse.reshape(-1)]


def mbr_decode(L, config, rng=None, metric=None):
    """Minimum-Bayes-risk decoding: the sample with highest consensus.

    Draws ``config.mbr_samples`` subsets in one :func:`sample_dpp_stack`
    call, scores each by its average F-score against all drawn samples
    (itself included; that adds the same 1/T to every candidate), and
    returns the argmax, first occurrence winning ties.  Deterministic
    given (L, config, seed).  Pass ``metric`` (a subset-pair -> float
    callable) to replace the F-score consensus.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    samples = sample_dpp_stack(L, config.mbr_samples, rng)
    if len(samples) == 1:
        return samples[0]
    if metric is None:
        scores = consensus_scores(samples)
    else:
        scores = np.array(
            [np.mean([metric(a, b) for b in samples]) for a in samples]
        )
    return samples[int(np.argmax(scores))]


def predict_subset(L, config, rng=None):
    """Dispatch on ``config.mode`` to MAP enumeration or MBR decoding."""
    if config.mode == "exhaustive":
        return map_exhaustive(L, config.exhaustive_limit)
    return mbr_decode(L, config, rng)
