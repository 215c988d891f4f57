"""Build a DPP kernel from item features and inspect its probabilities.

A small ground set of six items, each with a quality feature vector and a
similarity feature vector.  The kernel factors into per-item quality and
pairwise similarity; determinants of its submatrices score subsets so that
high-quality, mutually dissimilar collections win.
"""

import itertools

import numpy as np

from dpplearn import (
    GroundSetInstance,
    ModelParams,
    SimilarityConfig,
    build_kernel,
    log_probability,
    marginal_kernel_from_L,
    subset_marginal,
)
from dpplearn.kernel import gram_stack, quality_stack, similarity_stack

rng = np.random.default_rng(0)
n = 6

# two tight clusters of similar items plus two loners
centers = np.array([[2.0, 0.0], [2.0, 0.1], [0.0, 2.0], [0.1, 2.0],
                    [-2.0, -2.0], [2.0, -2.0]])
phi = centers + 0.05 * rng.standard_normal((n, 2))
x = rng.standard_normal((n, 3)) * 0.5
instance = GroundSetInstance(x, phi)

config = SimilarityConfig(bandwidths=(1.0, 4.0), include_linear=False)
params = ModelParams(theta=np.array([0.3, 0.0, -0.2]), kernel_weights=[0.5, 0.5])
L = build_kernel(instance, params, config)  # L_ij = q_i q_j S_ij

# the factors of L, from the stack functions on a stack of one ground set
S = similarity_stack(gram_stack(phi[None], config), params.kernel_weights)[0]
q = quality_stack(x, params.theta)

print("similarity matrix (items 0,1 and 2,3 are near-duplicates):")
print(np.round(S, 3))

print("\nper-item qualities:", np.round(q, 3))

K = marginal_kernel_from_L(L)
print("\nitem inclusion marginals K_ii:", np.round(K.diagonal, 3))

print("\npair marginals vs independence (duplicates repel):")
for i, j in [(0, 1), (0, 2), (4, 5)]:
    pair = subset_marginal(K, (i, j))
    indep = K.matrix[i, i] * K.matrix[j, j]
    print(f"  P(items {i},{j} together) = {pair:.4f}   "
          f"K_ii*K_jj = {indep:.4f}")

print("\nfive most probable subsets:")
scored = []
for size in range(n + 1):
    for y in itertools.combinations(range(n), size):
        scored.append((log_probability(L, y), y))
scored.sort(reverse=True)
total = sum(np.exp(lp) for lp, _ in scored)
for lp, y in scored[:5]:
    print(f"  {str(y):18s} P = {np.exp(lp):.4f}")
print(f"probabilities over all {len(scored)} subsets sum to {total:.6f}")
