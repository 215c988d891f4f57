"""Extracting a predicted subset from a DPP kernel.

Exact MAP by enumeration for small ground sets; exact sampling via the
two-phase spectral algorithm; and minimum-Bayes-risk decoding, which draws
many samples and returns the one with the highest average F-score
consensus against the rest.

Sampling has one engine, :func:`sample_dpp_stack`, which draws a kernel's
T samples together: its phase two follows the conditional diagonal of the
kept eigenvectors' projection kernel by incremental Cholesky, one
vectorized step per drawn item.  It consumes the random stream exactly as
T one-sample draws would, without a Python step per sample: it draws an
upper bound of uniforms, finds where each sample's draws start, and
restores the generator's state to redraw exactly the uniforms used.
:func:`sample_dpp` is its stack of one.  The consensus is scored over the
distinct drawn subsets, grouped by sorting their packed membership bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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
    boundary of the cumulative distribution.  The uniforms are drawn
    without a loop over the samples (:func:`_uniforms`): the generator's
    state is saved, an upper bound of uniforms drawn, the samples' offsets
    into that stream found, and the state restored to redraw exactly the
    uniforms used, so ``rng`` ends where T one-sample calls leave it,
    whatever its bit generator.  Phase two is vectorized across the
    samples, one step per drawn item; samples are processed in chunks
    whose temporaries stay within ``batch.MAP_CHUNK_BYTES``.
    """
    probs = L.eigenvalues / (L.eigenvalues + 1.0)
    # Per sample, phase two's Cholesky rows, uniforms and diagonal take
    # 8 N (k + 2) bytes, with k at most the number of eigenvalues above
    # zero, and phase one's 2N uniforms, 2N start counts (2 bytes each for
    # N < 2^16) with their list, and 2N compare bytes take 38 N < 8 N * 5.
    k_bound = int(np.count_nonzero(probs > 0))
    per_sample = 8 * max(1, L.n_items) * (k_bound + 7)
    step = max(1, _batch.MAP_CHUNK_BYTES // per_sample)
    samples = []
    for t0 in range(0, T, step):
        samples += _sample_chunk(L.eigenvectors, probs, min(step, T - t0), rng)
    return samples


def _uniforms(probs, T, rng):
    """Phase one's keeps and phase two's uniforms of T one-sample draws.

    Sample t reads N uniforms from offset o_t of the stream for phase one
    and then one per kept eigenvector, so o_{t+1} = o_t + N + k(o_t), where
    k(o) counts the eigenvectors a sample starting at o keeps.  A sample
    reads at most 2N, so 2NT uniforms hold every sample; k is counted at
    every start by N compares of shifted slices, and the chain of offsets
    is walked in integer Python.  Then the generator's saved state is
    restored and exactly the o_T uniforms used are drawn again, into the
    same buffer, so ``rng`` ends where T one-sample draws leave it.

    Returns ``keep`` (T, N), phase one's kept eigenvectors, and ``u``
    (T, N), ``u[t, j]`` the uniform behind sample t's j-th drawn item
    (entries from ``k_t`` on are not used).
    """
    N = len(probs)
    state = rng.bit_generator.state
    U = rng.random(2 * N * T)
    starts = 2 * N * (T - 1) + 1  # the offsets a sample can start at
    k = np.zeros(starts, dtype=np.min_scalar_type(N))  # fewer bytes per pass
    less = np.empty(starts, dtype=bool)
    for m in range(N):
        np.less(U[m:m + starts], probs[m], out=less)
        k += less
    k = k.tolist()
    offsets = [0] * T
    o = 0
    for t in range(T):
        offsets[t] = o
        o += N + k[o]
    rng.bit_generator.state = state
    rng.random(out=U[:o])
    idx = np.array(offsets)[:, None] + np.arange(N)
    return U[idx] < probs, U[idx + N]


def _sample_chunk(E, probs, T, rng):
    """T consecutive samples of :func:`sample_dpp_stack`."""
    N = len(probs)
    keep, u = _uniforms(probs, T, rng)
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
    (U x U, not T x T); each is weighted by how often it was drawn, and the
    scores are mapped back to the samples, so equal subsets score equally.
    Two empty subsets score F = 1.  Equal subsets are grouped by a stable
    ``np.lexsort`` of their packed membership bits, read as big-endian
    64-bit words: the order ``np.unique(axis=0)`` gives the packed rows, so
    the sums run in that order too.
    """
    T = len(samples)
    lengths = np.fromiter(map(len, samples), dtype=np.intp, count=T)
    items = np.fromiter(chain.from_iterable(samples), dtype=np.intp,
                        count=int(lengths.sum()))
    n = 1 + int(items.max(initial=0))
    member = np.zeros((T, 64 * -(-n // 64)), dtype=bool)
    member[np.repeat(np.arange(T), lengths), items] = True
    keys = np.packbits(member, axis=1).view(">u8")
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(T, dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    first = order[new]
    counts = np.diff(np.append(np.flatnonzero(new), T))
    inverse = np.empty(T, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    distinct = member[first].astype(float)
    sizes = distinct.sum(axis=1)
    inter = distinct @ distinct.T
    denom = sizes[:, None] + sizes[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(denom > 0, 2.0 * inter / denom, 1.0)
    return (f @ counts / T)[inverse]


def mbr_decode(L, config, rng=None):
    """Minimum-Bayes-risk decoding: the sample with highest consensus.

    Draws ``config.mbr_samples`` subsets in one :func:`sample_dpp_stack`
    call, scores each by its average F-score against all drawn samples
    (itself included; that adds the same 1/T to every candidate), and
    returns the argmax, first occurrence winning ties.  Deterministic
    given (L, config, seed).
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    samples = sample_dpp_stack(L, config.mbr_samples, rng)
    if len(samples) == 1:
        return samples[0]
    return samples[int(np.argmax(consensus_scores(samples)))]


def predict_subset(L, config, rng=None):
    """Dispatch on ``config.mode`` to MAP enumeration or MBR decoding."""
    if config.mode == "exhaustive":
        return map_exhaustive(L, config.exhaustive_limit)
    return mbr_decode(L, config, rng)
