"""Extracting a predicted subset from a DPP kernel.

Exact MAP by enumeration for small ground sets; exact sampling via the
two-phase spectral algorithm; and minimum-Bayes-risk decoding, which draws
many samples and returns the one with the highest average F-score
consensus against the rest.

Sampling has one engine, :func:`sample_dpp_stack`, which draws a kernel's
T samples together in one vectorized pass, 2N uniforms per sample: sample
t reads ``U[2Nt : 2Nt + N]`` for phase one and ``U[2Nt + N + j]`` for its
j-th item.  :func:`sample_dpp_stack` draws the 2NT uniforms from its
generator; :func:`mbr_decode` reads them from one cached draw per
(seed, N, T), shared by every kernel of an item count.  :func:`sample_dpp`
is the stack of one.  Each distinct drawn subset becomes one tuple; the
consensus groups the tuples by hashing them and scores the distinct
subsets.
"""

from __future__ import annotations

import functools
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
    of one: it walks only the m items with L_ii > 1, since no other item
    is in a MAP subset, at one Schur-complement update per subset, so its
    cost grows as 2^m times a small power of m.  Raises ParameterError
    beyond ``exhaustive_limit`` items, which bounds N, not m; use MBR
    decoding for larger ground sets.
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
    subset and reads the same 2N uniforms from ``rng``.
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

    The draws are ``U = rng.random(2 * N * T)``: sample t keeps eigenvector
    m when ``U[2Nt + m] < lambda_m / (lambda_m + 1)`` and picks its j-th
    item with u = ``U[2Nt + N + j]``; the rest of its 2N go unread.  u
    picks item s = #{i : c_i <= u c_N}, with c the running sum of the
    unnormalized conditional diagonal: the item whose share of the
    cumulative mass holds u.  ``Generator.choice`` normalizes the mass,
    sums it and normalizes the sum again before it compares u, so the two
    rules differ only when u falls within rounding of a boundary of the
    cumulative distribution.  fl(u c_N) < c_N for u < 1, so s always has
    positive mass.

    Phase two runs item-major, (N, T) with the sample axis last, one
    vectorized step per drawn item: the diagonal, its running sum and the
    compare-and-count run down columns.  Samples are processed in chunks
    whose temporaries stay within ``batch.MAP_CHUNK_BYTES``, besides the
    16 N T bytes of the draw.  Each drawn subset is packed into a
    membership key; equal keys share one tuple, and the list holds
    references to those tuples.
    """
    return _sample_stream(L, T, rng.random(2 * L.n_items * T))


def _sample_stream(L, T, U):
    """T samples read from the 2NT uniforms U, 2N per sample."""
    N = L.n_items
    probs = L.eigenvalues / (L.eigenvalues + 1.0)
    # Per sample, the Cholesky rows take 8 N k bytes, with k at most the
    # number of eigenvalues above zero; the diagonal, item uniforms, items,
    # keep flags and key take under 34 N and a step's temporaries 24 N,
    # within the 80 N allowed besides the rows.
    k_bound = int(np.count_nonzero(probs > 0))
    per_sample = 8 * max(1, N) * (k_bound + 10)
    step = max(1, _batch.MAP_CHUNK_BYTES // per_sample)
    draws = U.reshape(T, 2, N)
    samples = []
    for t0 in range(0, T, step):
        samples += _sample_chunk(L.eigenvectors, probs, draws[t0:t0 + step])
    return samples


@functools.lru_cache(maxsize=1)
def _seeded_uniforms(seed, n):
    """The first n uniforms of ``default_rng(seed)``, read-only.

    :func:`mbr_decode` samples an N-item kernel T times from the first 2NT,
    so the kernels of one item count share one draw of 16 N T bytes.
    """
    U = np.random.default_rng(seed).random(n)
    U.flags.writeable = False
    return U


def _sample_chunk(E, probs, draws):
    """The samples of the (T, 2, N) uniforms ``draws``: ``draws[t, 0]`` for
    sample t's phase one and ``draws[t, 1, j]`` for its j-th item."""
    T, _, N = draws.shape
    kept = draws[:, 0] < probs  # (T, N)
    k = np.count_nonzero(kept, axis=1)
    # Larger samples first, so the samples still drawing at step j are a prefix.
    order = np.argsort(-k, kind="stable")
    k = k[order]
    k_max = int(k[0])
    keep = kept[order].T  # (N, T), the sample axis last
    u = draws[order, 1, :k_max].T  # u[j, t]: the uniform behind sample t's j-th item
    # Sample t's projection kernel is K_t = E diag(keep_t) E^T; d2 is its
    # diagonal conditioned on the items drawn so far.
    d2 = (E**2) @ keep
    C = np.empty((k_max, T, N))  # incremental Cholesky rows, sample-major
    items = np.full((k_max, T), N)
    keys = np.zeros((1 + N // 64, T), dtype=np.uint64)  # membership bits
    for j in range(k_max):
        a = int(np.count_nonzero(k > j))
        rows = np.arange(a)
        c = d2[:, :a].copy()
        c[c < 1e-12] = 0.0
        # A running sum down the columns, in the order np.cumsum adds: N
        # adds across the samples, unless too few samples are left to
        # outweigh a Python step per item.
        if a >= 256:
            for i in range(1, N):
                c[i] += c[i - 1]
        else:
            c = np.cumsum(c, axis=0)
        s = np.sum(c <= u[j, :a] * c[-1], axis=0)
        items[j, :a] = s
        keys[s >> 6, rows] |= np.left_shift(1, (s & 63).astype(np.uint64))
        e = E @ (keep[:, :a] * E[s].T)  # column s_t of K_t
        if j:
            e -= np.einsum("it,itn->nt", C[:j, rows, s], C[:j, :a])
        e /= np.sqrt(d2[s, rows])
        C[j, :a] = e.T
        d2[:, :a] -= e * e
        d2[s, rows] = 0.0  # rounding leaves ~1e-16 on the item just drawn
    first, group = _group_rows(keys.T)
    reps = np.sort(items[:, first], axis=0).T.tolist()
    subsets = [tuple(row[:n]) for row, n in zip(reps, k[first].tolist())]
    out = np.empty(T, dtype=np.intp)
    out[order] = group
    return [subsets[g] for g in out.tolist()]


def _group_rows(keys):
    """Group the equal rows of a 2-D key array, in row-lexicographic order.

    Returns ``first``, one row index per group, and ``group``, each row's
    group.  The sort is a stable ``np.lexsort``, so ``first`` is each
    group's first row.
    """
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    group = np.empty(len(keys), dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return order[new], group


def consensus_scores(samples):
    """Mean F-score of each sample, a tuple of item indices, against the
    whole list, itself included.

    The pairwise F-scores are computed over the U distinct subsets only
    (U x U, not T x T); each is weighted by how often it was drawn, and the
    scores are mapped back to the samples, so equal subsets score equally.
    Two empty subsets score F = 1.  The samples are first grouped by
    hashing the tuples; the distinct tuples' packed membership bits, read
    as big-endian 64-bit words, then merge tuples that list one subset
    differently, by a stable ``np.lexsort``: the order ``np.unique(axis=0)``
    gives the packed rows, so the sums run in that order.
    """
    T = len(samples)
    index = {y: i for i, y in enumerate(dict.fromkeys(samples))}
    tuples = list(index)
    inverse = np.fromiter(map(index.__getitem__, samples), dtype=np.intp, count=T)
    lengths = np.fromiter(map(len, tuples), dtype=np.intp, count=len(tuples))
    items = np.fromiter(chain.from_iterable(tuples), dtype=np.intp,
                        count=int(lengths.sum()))
    n = 1 + int(items.max(initial=0))
    member = np.zeros((len(tuples), 64 * -(-n // 64)), dtype=bool)
    member[np.repeat(np.arange(len(tuples)), lengths), items] = True
    first, group = _group_rows(np.packbits(member, axis=1).view(">u8"))
    counts = np.bincount(group, weights=np.bincount(inverse))
    distinct = member[first].astype(float)
    sizes = distinct.sum(axis=1)
    scores = np.empty(len(first))
    # Row blocks whose F-scores and denominators, 8 U bytes a row each, and
    # U-byte mask of empty pairs stay within MAP_CHUNK_BYTES; each block is
    # scored in a call of its own, so its temporaries go before the next.
    step = max(1, _batch.MAP_CHUNK_BYTES // (17 * len(first)))
    for r0 in range(0, len(first), step):
        block = slice(r0, r0 + step)
        scores[block] = _fscores(distinct, sizes, block) @ counts
    return (scores / T)[group[inverse]]


def _fscores(distinct, sizes, block):
    """F-scores of the membership rows ``distinct[block]`` against every
    row of ``distinct``, whose sizes are ``sizes``; two empty rows score 1."""
    f = distinct[block] @ distinct.T
    denom = sizes[block, None] + sizes
    f *= 2.0
    with np.errstate(invalid="ignore"):
        f /= denom
    f[denom == 0] = 1.0
    return f


def mbr_decode(L, config):
    """Minimum-Bayes-risk decoding: the sample with highest consensus.

    Draws ``config.mbr_samples`` subsets as :func:`sample_dpp_stack` does
    with ``default_rng(config.seed)``, scores each by its average F-score
    against all drawn samples (itself included; that adds the same 1/T to
    every candidate), and returns the argmax, first occurrence winning
    ties.  The T samples of an N-item kernel read the first 2NT of the
    seed's cached uniforms (:func:`_seeded_uniforms`), so the kernels of
    one item count share one draw.  Deterministic given (L, config).
    """
    T = config.mbr_samples
    samples = _sample_stream(
        L, T, _seeded_uniforms(config.seed, 2 * L.n_items * T))
    if len(samples) == 1:
        return samples[0]
    return samples[int(np.argmax(consensus_scores(samples)))]


def predict_subset(L, config):
    """Dispatch on ``config.mode`` to MAP enumeration or MBR decoding."""
    if config.mode == "exhaustive":
        return map_exhaustive(L, config.exhaustive_limit)
    return mbr_decode(L, config)
