"""Extracting a predicted subset from a DPP kernel.

Exact MAP by enumeration for small ground sets; exact sampling via the
two-phase spectral algorithm; and minimum-Bayes-risk decoding, which draws
many samples and returns the one with the highest average F-score
consensus against the rest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if self.exhaustive_limit > 25:
            raise ParameterError("exhaustive_limit above 25 is not supported")
        if self.mbr_samples < 1:
            raise ParameterError("mbr_samples must be at least 1")


def map_exhaustive(L, exhaustive_limit=20):
    """The subset maximizing det(L_y), found by enumerating all 2^N.

    Ties break toward smaller subsets, then lexicographically.  Raises
    ParameterError beyond ``exhaustive_limit`` items; use MBR decoding for
    larger ground sets.
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

    Phase one keeps eigenvector m independently with probability
    lambda_m / (lambda_m + 1).  Phase two repeatedly samples an item from
    the squared row norms of the kept eigenvector basis, then contracts the
    basis to the subspace with zero component on that item.  Items whose
    remaining projection mass falls below 1e-12 are excluded before each
    draw, so a degenerate step resamples among the remaining items.
    """
    probs = L.eigenvalues / (L.eigenvalues + 1.0)
    keep = rng.random(L.n_items) < probs
    V = np.array(L.eigenvectors[:, keep])
    items = []
    while V.shape[1] > 0:
        p = np.sum(V**2, axis=1)
        p[p < 1e-12] = 0.0
        p /= p.sum()
        i = int(rng.choice(L.n_items, p=p))
        items.append(i)
        j = int(np.argmax(np.abs(V[i])))
        V = V - np.outer(V[:, j], V[i] / V[i, j])
        V = np.delete(V, j, axis=1)
        if V.shape[1]:
            V, _ = np.linalg.qr(V)
    return tuple(sorted(items))


def consensus_scores(samples):
    """Mean pairwise F-score of each sample against the whole list."""
    T = len(samples)
    n = 1 + max((max(s) for s in samples if s), default=0)
    member = np.zeros((T, n), dtype=float)
    for t, s in enumerate(samples):
        member[t, list(s)] = 1.0
    sizes = member.sum(axis=1)
    inter = member @ member.T
    denom = sizes[:, None] + sizes[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        f = np.where(denom > 0, 2.0 * inter / denom, 1.0)  # two empties: F = 1
    return f.mean(axis=1)


def mbr_decode(L, config, rng=None, metric=None):
    """Minimum-Bayes-risk decoding: the sample with highest consensus.

    Draws ``config.mbr_samples`` subsets, scores each by its average
    F-score against all drawn samples (itself included; that adds the same
    1/T to every candidate), and returns the argmax, first occurrence
    winning ties.  Deterministic given (L, config, seed).  Pass ``metric``
    (a subset-pair -> float callable) to replace the F-score consensus.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    samples = [sample_dpp(L, rng) for _ in range(config.mbr_samples)]
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
