"""Synthetic diverse-subset datasets with known ground-truth parameters.

Each dataset shares one quality parameter vector theta drawn from a
standard Gaussian.  Every instance draws item features x_i ~ N(0, I),
uses them both as quality and similarity features (phi_i = x_i), builds
L_ij = q_i q_j S_ij with q_i = exp(theta . x_i), and labels the instance
with the exhaustive MAP subset.  S is a single base kernel on the
features: by default the linear kernel S_ij = x_i . x_j
(:data:`TRUE_SIMILARITY`), or any one RBF exp(-||x_i - x_j||^2 / sigma^2)
given as a one-kernel :class:`SimilarityConfig`.  The Gram matrices of
all instances come from one :func:`dpplearn.kernel.gram_stack` call on
the stacked features, and L from :func:`dpplearn.kernel.similarity_stack`
and ``kernel_stack``, the same code that evaluates learned kernels.
Label noise then flips the membership of each item independently with
probability ``noise_prob`` (an absent item is added, a present one
dropped), so a fraction of labels disagrees with the noiseless MAP by one
or more items.

Reproducibility: the generator is the counter-based Philox engine keyed by
``seed``, and the draw order is fixed: theta first; then, for every
instance in order (train block, then holdout, then test), its feature
matrix row-major followed by one flip coin per item.  Coins are always
drawn, so the stream does not depend on intermediate results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .batch import map_exhaustive_stack
from .errors import ParameterError
from .kernel import (
    GroundSetInstance,
    ModelParams,
    SimilarityConfig,
    gram_stack,
    kernel_stack,
    quality_stack,
    similarity_stack,
)

# The default generating similarity is the plain linear kernel on the features.
TRUE_SIMILARITY = SimilarityConfig(bandwidths=(), include_linear=True)
TRUE_WEIGHTS = (1.0,)


@dataclass(frozen=True)
class SynthConfig:
    n_items: int = 10
    feature_dim: int = 5
    noise_prob: float = 0.1
    n_train: int = 200
    n_holdout: int = 100
    n_test: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.noise_prob <= 1.0:
            raise ParameterError(f"noise_prob must be in [0, 1], got {self.noise_prob}")
        if min(self.n_items, self.feature_dim, self.n_train, self.n_holdout,
               self.n_test) < 1:
            raise ParameterError("all counts must be positive")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class SynthDataset:
    """Generated splits plus the ground truth that produced them.

    ``similarity`` is the single-kernel similarity that generated the
    labels, and ``true_theta`` the quality weights.  ``provenance`` maps
    each split name to the noiseless MAP subsets, in instance order,
    before label perturbation.
    """

    config: SynthConfig
    similarity: SimilarityConfig
    true_theta: np.ndarray
    train: tuple
    holdout: tuple
    test: tuple
    provenance: dict = field(default_factory=dict)

    @property
    def splits(self):
        return {"train": self.train, "holdout": self.holdout, "test": self.test}


def generate_dataset(config, similarity=TRUE_SIMILARITY):
    """Draw a full train/holdout/test dataset; deterministic given seed.

    ``similarity`` is the generating similarity S and must hold exactly one
    base kernel (the linear kernel by default, or one RBF bandwidth).  It
    does not enter the random stream, so datasets drawn with the same
    config but different similarities share theta, features and flip
    coins, and differ only in their labels.

    The labels of all instances come from one pass: the (n, N, d) features
    of every split go through :func:`~dpplearn.kernel.gram_stack` and the
    kernel assembly as one stack, and one ``map_exhaustive_stack`` call
    finds all their MAP subsets, raising ParameterError for any instance
    with more than ``batch.MAP_MAX_ITEMS`` items whose L_ii exceeds 1.
    """
    if similarity.n_weights != 1:
        raise ParameterError(
            "the generating similarity must be a single base kernel, got "
            f"{similarity.n_weights}"
        )
    rng = np.random.default_rng(np.random.Philox(config.seed))
    n, d = config.n_items, config.feature_dim
    theta = rng.standard_normal(d)

    total = config.n_train + config.n_holdout + config.n_test
    features = np.empty((total, n, d))
    flips = np.empty((total, n), dtype=bool)
    for t in range(total):
        features[t] = rng.standard_normal((n, d))
        flips[t] = rng.random(n) < config.noise_prob

    L = kernel_stack(quality_stack(features, theta),
                     similarity_stack(gram_stack(features, similarity),
                                      np.array(TRUE_WEIGHTS)))
    clean = map_exhaustive_stack(L)

    instances = []
    for t in range(total):
        label = set(clean[t])
        label.symmetric_difference_update(np.nonzero(flips[t])[0].tolist())
        instances.append(
            GroundSetInstance(features[t], features[t], tuple(sorted(label)))
        )

    a = config.n_train
    b = a + config.n_holdout
    return SynthDataset(
        config=config,
        similarity=similarity,
        true_theta=theta,
        train=tuple(instances[:a]),
        holdout=tuple(instances[a:b]),
        test=tuple(instances[b:]),
        provenance={
            "train": tuple(clean[:a]),
            "holdout": tuple(clean[a:b]),
            "test": tuple(clean[b:]),
        },
    )


def true_params(dataset):
    """ModelParams that generated the labels: the true theta and unit
    weight on ``dataset.similarity``."""
    return ModelParams(dataset.true_theta, np.array(TRUE_WEIGHTS))

