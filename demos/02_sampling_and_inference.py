"""Exact sampling, exhaustive MAP, and minimum-Bayes-risk decoding.

Draws many samples from a small DPP, checks the empirical item frequencies
against the marginal kernel diagonal, and compares the MAP subset with the
MBR consensus pick.
"""

from collections import Counter

import numpy as np

from dpplearn import (
    EnsembleKernel,
    InferenceConfig,
    map_exhaustive,
    marginal_kernel_from_L,
    mbr_decode,
    sample_dpp_stack,
)

rng = np.random.default_rng(7)
A = rng.standard_normal((5, 7))
L = EnsembleKernel.from_matrix(A @ A.T / 4.0)
K = marginal_kernel_from_L(L)

n_draws = 20_000
counts = np.zeros(5)
sizes = Counter()
for y in sample_dpp_stack(L, n_draws, rng):  # one vectorized pass
    sizes[len(y)] += 1
    for i in y:
        counts[i] += 1

print("item   empirical freq   K_ii")
for i in range(5):
    print(f"  {i}       {counts[i] / n_draws:.4f}       {K.matrix[i, i]:.4f}")

print("\nsampled subset sizes:", dict(sorted(sizes.items())))
print("expected size sum(K_ii) =", round(float(np.trace(K.matrix)), 3))

print("\nexhaustive MAP subset:", map_exhaustive(L))
config = InferenceConfig(mode="mbr", mbr_samples=500, seed=1)
print("MBR consensus subset: ", mbr_decode(L, config))
