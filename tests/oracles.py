"""Independent brute-force oracles for the test suite.

Everything here is deliberately written against numpy's generic LU-based
determinants, eigendecompositions where the library factors by Cholesky,
and plain Python set arithmetic, so a disagreement implicates the
implementation rather than a shared bug.
"""

from itertools import combinations

import numpy as np

from dpplearn.errors import ParameterError


def all_subsets(n):
    for size in range(n + 1):
        yield from combinations(range(n), size)


def det_sub(M, y):
    if not y:
        return 1.0
    return float(np.linalg.det(M[np.ix_(y, y)]))


def enumerate_probabilities(L_matrix):
    """{subset: P(subset)} over all 2^N subsets, normalized by det(L+I)."""
    n = L_matrix.shape[0]
    Z = float(np.linalg.det(L_matrix + np.eye(n)))
    return {y: det_sub(L_matrix, y) / Z for y in all_subsets(n)}


def superset_sum(probs, y):
    y = set(y)
    return sum(p for sub, p in probs.items() if y.issubset(sub))


def generalized_hamming_reference(y_star, y, omega):
    a, b = set(y_star), set(y)
    return sum(1 for i in b if i not in a) + omega * sum(1 for i in a if i not in b)


def loss_weighted_mass(L_matrix, y_star, omega):
    """sum over all subsets of loss_omega(y*, y) * P(y; L)."""
    probs = enumerate_probabilities(L_matrix)
    return sum(
        generalized_hamming_reference(y_star, y, omega) * p
        for y, p in probs.items()
    )


def log_probability_reference(L_matrix, y):
    n = L_matrix.shape[0]
    sign_z, logdet_z = np.linalg.slogdet(L_matrix + np.eye(n))
    d = det_sub(L_matrix, tuple(y))
    if d <= 0:
        return -np.inf
    return float(np.log(d) - logdet_z)


def entrywise_fd_matrix_gradient(f, M, step=1e-5):
    """Central finite differences of scalar f over every entry of M."""
    g = np.zeros_like(M, dtype=float)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            hi, lo = M.copy(), M.copy()
            hi[i, j] += step
            lo[i, j] -= step
            g[i, j] = (f(hi) - f(lo)) / (2.0 * step)
    return g


def map_exhaustive_reference(L_matrix):
    """Argmax of det(L_y); smaller subsets then lexicographic on ties."""
    best, best_val = (), 1.0
    for y in all_subsets(L_matrix.shape[0]):
        val = det_sub(L_matrix, y)
        if val > best_val:
            best, best_val = y, val
    return best


def gram_references(phi, similarity):
    """Base Gram matrices, one per kernel, from explicit loops over pairs."""
    n = phi.shape[0]
    grams = []
    for sigma in similarity.bandwidths:
        G = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                G[i, j] = np.exp(-np.sum((phi[i] - phi[j]) ** 2) / sigma**2)
        grams.append(G)
    if similarity.include_linear:
        grams.append(np.array([[float(a @ b) for b in phi] for a in phi]))
    return grams


def kernel_reference(instance, params, similarity):
    """L_ij = q_i q_j S_ij with S the weighted sum of the reference Grams."""
    q = np.exp(instance.quality_features @ params.theta)
    grams = gram_references(instance.similarity_features, similarity)
    S = sum(w * G for w, G in zip(params.kernel_weights, grams))
    return np.outer(q, q) * S


def resolvent_reference(L, digits=None):
    """log det(L + I) and (L + I)^{-1} of a (n, N, N) stack by eigh.

    The spectrum of L + I, clamped at one, gives both.  With ``digits``
    the eigendecomposition runs in that many decimal digits (mpmath), for
    stacks whose conditioning makes the double-precision one inexact:
    there the inverse is only good to about cond(L + I) * 1e-16.
    """
    L = np.asarray(L, dtype=float)
    eye = np.eye(L.shape[-1])
    if digits is None:
        evals, evecs = np.linalg.eigh(L + eye)
        evals = np.maximum(evals, 1.0)
        inv = (evecs / evals[:, None, :]) @ np.swapaxes(evecs, -1, -2)
        return np.sum(np.log(evals), axis=1), inv
    import mpmath

    logdets, invs = [], []
    with mpmath.workdps(digits):
        for M in L:
            evals, evecs = mpmath.eigsy(mpmath.matrix((M + eye).tolist()))
            evals = [max(e, mpmath.mpf(1)) for e in evals]
            diag = mpmath.diag([1 / e for e in evals])
            logdets.append(float(mpmath.fsum(mpmath.log(e) for e in evals)))
            invs.append(np.array((evecs * diag * evecs.T).tolist(), dtype=float))
    return np.array(logdets), np.array(invs)


def _marginal_mass(L_matrix, y, omega):
    """(L + I)^{-1} by LU, and A = sum_{i not in y} K_ii + omega sum_{i in y} (1 - K_ii)."""
    B = np.linalg.inv(L_matrix + np.eye(L_matrix.shape[0]))
    kd = 1.0 - np.diag(B)
    inside = [i in set(y) for i in range(len(kd))]
    A = sum(omega * (1.0 - k) if ins else k for k, ins in zip(kd, inside))
    return B, A


def hinge_reference(L_matrix, y, lam, omega):
    """[ -log P(y; L) + lam * log A ]_+ from LU determinants and inverses."""
    z = -log_probability_reference(L_matrix, y)
    if lam > 0:
        z += lam * np.log(_marginal_mass(L_matrix, y, omega)[1])
    return max(0.0, z)


def loglik_grad_reference(L_matrix, y):
    """d log P(y; L) / dL = (L_y)^{-1} zero-padded, minus (L + I)^{-1}."""
    g = -np.linalg.inv(L_matrix + np.eye(L_matrix.shape[0]))
    if y:
        g[np.ix_(y, y)] += np.linalg.inv(L_matrix[np.ix_(y, y)])
    return g


def margin_grad_reference(L_matrix, y, omega):
    """d log A / dL = B D B / A, D = diag(-omega on y, 1 off it)."""
    B, A = _marginal_mass(L_matrix, y, omega)
    d = [-omega if i in set(y) else 1.0 for i in range(B.shape[0])]
    return B @ np.diag(d) @ B / A


def chain_reference(instance, params, similarity, U):
    """(dF/dtheta, dF/dw) from dF/dL = U by the chain rule, entry by entry."""
    x = instance.quality_features
    q = np.exp(x @ params.theta)
    grams = gram_references(instance.similarity_features, similarity)
    L = kernel_reference(instance, params, similarity)
    n = x.shape[0]
    g_theta = np.zeros(x.shape[1])
    g_weights = np.zeros(len(grams))
    for i in range(n):
        for j in range(n):
            g_theta += U[i, j] * L[i, j] * (x[i] + x[j])
            for k, G in enumerate(grams):
                g_weights[k] += U[i, j] * q[i] * q[j] * G[i, j]
    return g_theta, g_weights


def fscore_reference(a, b):
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    hit = len(a & b)
    p = hit / len(a) if a else 0.0
    r = hit / len(b) if b else 0.0
    return 2.0 * p * r / (p + r) if p + r > 0 else 0.0


def mbr_reference(samples):
    """Highest mean F-score against the sample list, first index on ties."""
    best_idx, best_score = 0, -1.0
    for i, cand in enumerate(samples):
        score = sum(fscore_reference(cand, other) for other in samples) / len(samples)
        if score > best_score:
            best_idx, best_score = i, score
    return samples[best_idx]


def choice_reference(p, u):
    """The item ``Generator.choice(len(p), p=p)`` picks with the uniform u:
    the running sum of p, divided by its last entry, searched from the
    right."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return int(np.searchsorted(cdf, u, side="right"))


def sample_dpp_reference(L, rng):
    """One DPP sample by the spectral algorithm with a QR per step.

    Reads ``rng.random(2N)``: phase one keeps eigenvector m when
    ``U[m] < lambda_m / (lambda_m + 1)``.  Phase two samples its j-th item
    from the squared row norms of the kept basis with ``U[N + j]``, as
    ``Generator.choice`` would, then contracts the basis to the subspace
    with zero component on that item and re-orthonormalizes it.  Items
    whose projection mass falls below 1e-12 are excluded before each draw.
    """
    N = L.n_items
    U = rng.random(2 * N)
    keep = U[:N] < L.eigenvalues / (L.eigenvalues + 1.0)
    V = np.array(L.eigenvectors[:, keep])
    items = []
    while V.shape[1] > 0:
        p = np.sum(V**2, axis=1)
        p[p < 1e-12] = 0.0
        p /= p.sum()
        i = choice_reference(p, U[N + len(items)])
        items.append(i)
        j = int(np.argmax(np.abs(V[i])))
        V = V - np.outer(V[:, j], V[i] / V[i, j])
        V = np.delete(V, j, axis=1)
        if V.shape[1]:
            V, _ = np.linalg.qr(V)
    return tuple(sorted(items))


def consensus_reference(samples):
    """Mean F-score of each sample against all samples, from the dense T x T
    F-score matrix."""
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


def project_to_simplex(v):
    """Euclidean projection onto {w >= 0, sum(w) = 1}, by the sort-based
    rule; tests draw random kernel weights with it."""
    v = np.ravel(np.asarray(v, dtype=float))
    if v.size == 0:
        raise ParameterError("cannot project an empty vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = np.count_nonzero(u - css / ind > 0)
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def project_simplex_reference(v):
    """Quadratic-program projection onto the simplex via SLSQP."""
    from scipy.optimize import minimize

    v = np.asarray(v, dtype=float)
    n = v.size
    res = minimize(
        lambda x: 0.5 * np.sum((x - v) ** 2),
        np.full(n, 1.0 / n),
        jac=lambda x: x - v,
        method="SLSQP",
        bounds=[(0.0, None)] * n,
        constraints=[{"type": "eq", "fun": lambda x: np.sum(x) - 1.0}],
        options={"maxiter": 200, "ftol": 1e-14},
    )
    return res.x


def random_psd_matrix(rng, n, scale=1.0):
    """A well-conditioned random PSD matrix with moderate spectrum."""
    A = rng.standard_normal((n, n + 2))
    return scale * (A @ A.T) / (n + 2) + 0.05 * np.eye(n)
