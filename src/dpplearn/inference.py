"""Extracting a predicted subset from a DPP kernel.

Exact MAP by enumeration for small ground sets; exact sampling via the
two-phase spectral algorithm; and minimum-Bayes-risk decoding, which draws
many samples and returns the one with the highest average F-score
consensus against the rest.

Sampling has one engine, :func:`sample_dpp_stack`, which draws a kernel's
T samples together: its phase two follows the conditional diagonal of the
kept eigenvectors' projection kernel by incremental Cholesky, one
vectorized step per drawn item, laid out item-major (N, T) so that the
running sum and the item choice run down columns.  An item is chosen by
comparing u times the total mass with the unnormalized running sum, which
differs from ``Generator.choice`` only at rounding boundaries of the
cumulative distribution.  The sampler consumes the random stream exactly
as T one-sample draws would, without a Python step per sample: it reads
an array that holds an upper bound of the stream's uniforms and finds
where each sample's draws start.  :func:`sample_dpp_stack` draws that
array from its generator, then restores the generator's state and
redraws exactly the uniforms used; :func:`mbr_decode` reads it from one
cached draw per (seed, N, T), shared by every kernel of an item count.
:func:`sample_dpp` is the stack of one.  Each distinct drawn subset
becomes one tuple; the consensus groups the tuples by hashing them and
scores the distinct subsets.
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

    The draws are those of T successive one-sample calls, in order:
    ``rng.random(N)`` for phase one, then one uniform u per drawn item.
    u picks item s = #{i : c_i <= u c_N}, with c the running sum of the
    unnormalized conditional diagonal: the item whose share of the
    cumulative mass holds u.  ``Generator.choice`` normalizes the mass,
    sums it and normalizes the sum again before it compares u, so the two
    rules pick different items only when u falls within rounding of a
    boundary of the cumulative distribution; the samples agree with a
    one-at-a-time sampler that calls ``choice`` up to such draws.
    fl(u c_N) < c_N for u < 1, so s always has positive mass.  The
    sampler draws the 2NT uniforms that T samples read at most in one
    call, finds where each sample starts without a loop over the samples
    (:func:`_uniforms`), then restores ``rng``'s saved state and redraws
    exactly the uniforms used, so ``rng`` ends where T one-sample calls
    leave it, whatever its bit generator.

    Phase two runs item-major, (N, T) with the sample axis last, one
    vectorized step per drawn item: the diagonal, its running sum and the
    compare-and-count run down columns.  Samples are processed in chunks
    whose temporaries stay within ``batch.MAP_CHUNK_BYTES``, besides the
    16 N T bytes of the draw.  Each drawn subset is packed into a
    membership key; equal keys share one tuple, and the list holds
    references to those tuples.
    """
    state = rng.bit_generator.state
    U = rng.random(2 * L.n_items * T)
    samples, used = _sample_stream(L, T, U)
    rng.bit_generator.state = state
    rng.random(out=U[:used])
    return samples


def _sample_stream(L, T, U):
    """T samples read from the array U, which holds at least the first 2NT
    uniforms of a generator's stream, and the number of uniforms they
    read."""
    probs = L.eigenvalues / (L.eigenvalues + 1.0)
    # Per sample, the Cholesky rows take 8 N k bytes, with k at most the
    # number of eigenvalues above zero; the diagonal, index, uniforms,
    # items, keep flags and key under 34 N; phase one's 2N uniforms,
    # counts and compares under 22 N; a step's temporaries 24 N.
    k_bound = int(np.count_nonzero(probs > 0))
    per_sample = 8 * max(1, L.n_items) * (k_bound + 10)
    step = max(1, _batch.MAP_CHUNK_BYTES // per_sample)
    samples = []
    used = 0
    for t0 in range(0, T, step):
        stream = U[used:]
        offsets = _uniforms(probs, min(step, T - t0), stream)
        samples += _sample_chunk(L.eigenvectors, probs, stream, offsets)
        used += int(offsets[-1])
    return samples, used


@functools.lru_cache(maxsize=1)
def _seeded_uniforms(seed, n):
    """The first n uniforms of ``default_rng(seed)``, read-only.

    Every kernel that :func:`mbr_decode` samples reads a prefix of the
    same stream, so the kernels of one item count share one draw.  The
    one cached entry holds 16 N T bytes.
    """
    U = np.random.default_rng(seed).random(n)
    U.flags.writeable = False
    return U


def _uniforms(probs, T, U):
    """Where each of T one-sample draws starts in the uniforms U.

    Sample t reads N uniforms from offset o_t of the stream for phase one
    and then one per kept eigenvector, so o_{t+1} = o_t + N + k(o_t), where
    k(o) counts the eigenvectors a sample starting at o keeps.  A sample
    reads at most 2N, so 2NT uniforms hold every sample, and U must hold
    that many; k is counted at every start by N compares of shifted
    slices, and the chain of offsets is walked in Python through a
    memoryview of the counts, reading only the T counts it lands on.

    Returns the T + 1 offsets o_0 = 0, ..., o_T; o_T uniforms are used.
    """
    N = len(probs)
    starts = 2 * N * (T - 1) + 1  # the offsets a sample can start at
    k = np.zeros(starts, dtype=np.min_scalar_type(N))  # fewer bytes per pass
    less = np.empty(starts, dtype=bool)
    for m in range(N):
        np.less(U[m:m + starts], probs[m], out=less)
        k += less
    k = memoryview(k)
    offsets = [0] * (T + 1)
    o = 0
    for t in range(T):
        o += N + k[o]
        offsets[t + 1] = o
    return np.array(offsets)


def _sample_chunk(E, probs, U, offsets):
    """The samples whose draws start at ``offsets[:-1]`` in the stream U."""
    N, T = len(probs), len(offsets) - 1
    k = np.diff(offsets) - N
    # Larger samples first, so the samples still drawing at step j are a prefix.
    order = np.argsort(-k, kind="stable")
    k = k[order]
    k_max = int(k[0])
    idx = offsets[order] + np.arange(N)[:, None]
    keep = U[idx] < probs[:, None]  # (N, T), the sample axis last
    u = U[idx[:k_max] + N]  # u[j, t]: the uniform behind sample t's j-th item
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
    inter = distinct @ distinct.T
    denom = sizes[:, None] + sizes[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(denom > 0, 2.0 * inter / denom, 1.0)
    return (f @ counts / T)[group[inverse]]


def mbr_decode(L, config):
    """Minimum-Bayes-risk decoding: the sample with highest consensus.

    Draws ``config.mbr_samples`` subsets as :func:`sample_dpp_stack` does
    with ``default_rng(config.seed)``, scores each by its average F-score
    against all drawn samples (itself included; that adds the same 1/T to
    every candidate), and returns the argmax, first occurrence winning
    ties.  The samples are read from the seed's cached uniforms
    (:func:`_seeded_uniforms`), so the kernels of one item count share
    one draw.  Deterministic given (L, config).
    """
    T = config.mbr_samples
    samples, _ = _sample_stream(
        L, T, _seeded_uniforms(config.seed, 2 * L.n_items * T))
    if len(samples) == 1:
        return samples[0]
    return samples[int(np.argmax(consensus_scores(samples)))]


def predict_subset(L, config):
    """Dispatch on ``config.mode`` to MAP enumeration or MBR decoding."""
    if config.mode == "exhaustive":
        return map_exhaustive(L, config.exhaustive_limit)
    return mbr_decode(L, config)
