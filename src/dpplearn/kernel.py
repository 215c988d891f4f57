"""Kernel construction and probability evaluation for L-ensemble DPPs.

A determinantal point process (DPP) over a ground set of N items assigns
every subset y the probability det(L_y) / det(L + I), where L is an N x N
positive semidefinite kernel and L_y its principal submatrix.  Here L is
factored into per-item qualities and pairwise similarities,

    L_ij = q_i * q_j * S_ij,     q_i = exp(theta . x_i),

with S a convex combination of Gaussian (RBF) base kernels on the
similarity features plus an optional linear kernel:

    S_ij = sum_k alpha_k * exp(-||phi_i - phi_j||^2 / sigma_k^2)
           + beta * (phi_i . phi_j),      sum_k alpha_k + beta = 1.

The marginal kernel K = L (L + I)^{-1} gives inclusion probabilities:
det(K_y) is the probability that a sampled subset contains y, and K_ii is
the marginal probability of item i.

All types here are immutable after construction (arrays are marked
read-only), so instances are safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveSemidefiniteError, NumericalError, ParameterError

# Negative eigenvalues of L down to -EIG_CLAMP_TOL (lower on large spectra)
# are rounding noise and clamped to zero; see clamp_psd_stack.
EIG_CLAMP_TOL = 1e-6

# A label submatrix whose unit-diagonal form has its smallest eigenvalue at
# most this fraction of its largest counts as numerically singular.
LABEL_SINGULAR_RTOL = 1e-8

# Largest x . theta a quality may carry.  Past it q_i q_j exceeds the
# square root of the largest double, and L, L + I and their factors would
# hold inf or nan; quality_stack raises instead.
LOG_QUALITY_MAX = 0.25 * math.log(np.finfo(float).max)

# Loose enough that finite-difference probes (step ~1e-5) of the objective
# remain inside the accepted domain; tight enough to catch real mistakes.
SIMPLEX_TOL = 1e-4
SYMMETRY_TOL = 1e-10


def as_subset(indices, n_items=None):
    """Normalize ``indices`` to a sorted tuple of distinct item indices.

    Raises ParameterError on duplicates, negative indices, or indices at or
    beyond ``n_items`` when a ground-set size is given.  The empty subset is
    valid.
    """
    idx = tuple(sorted(int(i) for i in indices))
    if len(set(idx)) != len(idx):
        raise ParameterError(f"subset has duplicate indices: {idx}")
    if idx and idx[0] < 0:
        raise ParameterError(f"subset has negative index: {idx[0]}")
    if n_items is not None and idx and idx[-1] >= n_items:
        raise ParameterError(
            f"subset index {idx[-1]} out of range for ground set of {n_items}"
        )
    return idx


def _readonly(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroundSetInstance:
    """One ground set: per-item feature vectors and an optional label subset.

    Parameters
    ----------
    quality_features : array, shape (n_items, d_q)
        Features x_i feeding the per-item quality q_i = exp(theta . x_i).
    similarity_features : array, shape (n_items, d_s)
        Features phi_i feeding the pairwise similarity kernels.
    label : iterable of int, optional
        The annotated diverse subset; absent at inference time.
    """

    quality_features: np.ndarray
    similarity_features: np.ndarray
    label: tuple = None

    def __post_init__(self):
        x = _readonly(np.atleast_2d(self.quality_features))
        phi = _readonly(np.atleast_2d(self.similarity_features))
        if x.ndim != 2 or phi.ndim != 2:
            raise ParameterError("feature arrays must be 2-D (items, features)")
        if x.shape[0] != phi.shape[0]:
            raise ParameterError(
                f"quality features describe {x.shape[0]} items but similarity "
                f"features describe {phi.shape[0]}"
            )
        object.__setattr__(self, "quality_features", x)
        object.__setattr__(self, "similarity_features", phi)
        if self.label is not None:
            object.__setattr__(self, "label", as_subset(self.label, x.shape[0]))

    @property
    def n_items(self):
        return self.quality_features.shape[0]


@dataclass(frozen=True)
class SimilarityConfig:
    """Base-kernel layout for the similarity matrix S.

    ``bandwidths`` lists the RBF scales sigma_k; ``include_linear`` appends
    the linear kernel phi_i . phi_j as the final component.  Kernel weights
    elsewhere in the package are ordered (alpha_1, ..., alpha_K[, beta]) to
    match this layout.
    """

    bandwidths: tuple = ()
    include_linear: bool = True

    def __post_init__(self):
        bw = tuple(float(b) for b in self.bandwidths)
        if any(b <= 0 for b in bw):
            raise ParameterError(f"bandwidths must be strictly positive: {bw}")
        object.__setattr__(self, "bandwidths", bw)
        if self.n_weights == 0:
            raise ParameterError("similarity needs at least one base kernel")

    @property
    def n_weights(self):
        return len(self.bandwidths) + bool(self.include_linear)


@dataclass(frozen=True)
class ModelParams:
    """Learnable parameters: quality weights theta and kernel weights.

    ``kernel_weights`` concatenates (alpha_1, ..., alpha_K[, beta]) and must
    lie on the probability simplex.
    """

    theta: np.ndarray
    kernel_weights: np.ndarray

    def __post_init__(self):
        theta = _readonly(np.ravel(self.theta))
        w = np.ravel(np.asarray(self.kernel_weights, dtype=float))
        check_simplex(w)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "kernel_weights", _readonly(w))


def check_simplex(w, tol=SIMPLEX_TOL):
    """Raise ParameterError unless w is nonnegative and sums to one."""
    w = np.asarray(w, dtype=float)
    if w.size == 0:
        raise ParameterError("kernel weight vector is empty")
    if np.min(w) < -tol:
        raise ParameterError(f"kernel weights must be nonnegative, got {w}")
    if abs(float(np.sum(w)) - 1.0) > tol:
        raise ParameterError(f"kernel weights must sum to 1, got sum {np.sum(w)!r}")


def uniform_params(d_q, similarity):
    """Default starting point: theta = 0 (all qualities 1), uniform weights."""
    k = similarity.n_weights
    return ModelParams(np.zeros(d_q), np.full(k, 1.0 / k))


class EnsembleKernel:
    """The N x N DPP kernel L with its eigendecomposition cached.

    Construct via :func:`build_kernel` or :meth:`from_matrix`.  The
    spectrum passes the trainer's PSD rule, :func:`clamp_psd_stack`, which
    clamps rounding noise to zero; a matrix with a non-finite entry, or
    one whose eigendecomposition does not converge, raises NumericalError.
    Instances are immutable.
    """

    __slots__ = ("matrix", "eigenvalues", "eigenvectors")

    def __init__(self, matrix, eigenvalues, eigenvectors):
        self.matrix = _readonly(matrix)
        self.eigenvalues = _readonly(eigenvalues)
        self.eigenvectors = _readonly(eigenvectors)

    @classmethod
    def from_matrix(cls, L):
        L = np.asarray(L, dtype=float)
        if L.ndim != 2 or L.shape[0] != L.shape[1]:
            raise ParameterError(f"kernel must be square, got shape {L.shape}")
        if not np.isfinite(L).all():
            bad = np.argwhere(~np.isfinite(L))
            entries = ", ".join(str(tuple(ij)) for ij in bad[:4].tolist())
            more = ", ..." if len(bad) > 4 else ""
            raise NumericalError(
                f"kernel matrix has non-finite entries at {entries}{more}")
        tol = SYMMETRY_TOL * max(1.0, float(np.max(np.abs(L))) if L.size else 1.0)
        if L.size and np.max(np.abs(L - L.T)) > tol:
            raise ParameterError("kernel matrix is not symmetric")
        try:
            evals, evecs = np.linalg.eigh(L)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(
                f"eigendecomposition of the kernel matrix failed: {exc}") from exc
        return cls(L, clamp_psd_stack(evals[None])[0], evecs)

    @property
    def n_items(self):
        return self.matrix.shape[0]

    def log_normalizer(self):
        """log det(L + I), always finite since eigenvalues are >= 0."""
        return float(np.sum(np.log1p(self.eigenvalues)))


@dataclass(frozen=True)
class MarginalKernel:
    """The marginal kernel K = L (L + I)^{-1}; K_ii is item i's marginal."""

    matrix: np.ndarray = field()

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))

    @property
    def diagonal(self):
        return self.matrix.diagonal()


def clamp_psd_stack(evals, indices=None, context="", tol=EIG_CLAMP_TOL):
    """The PSD rule for a stack of kernel spectra, one row per kernel.

    :class:`EnsembleKernel` applies it to the spectrum of L; the batched
    trainer applies it once to the spectra of the base Gram matrices,
    so every L built from them with simplex weights is PSD
    (``batch.check_grams``).
    Returns the eigenvalues clamped at zero.  A row with an eigenvalue
    below -max(tol, 1e-12 max|eig|), absolute for unit-scale kernels and
    relative for large spectra, raises NotPositiveSemidefiniteError that
    names the kernel by its entry in ``indices`` when given.
    """
    evals = np.asarray(evals, dtype=float)
    lowest = np.min(evals, axis=-1, initial=np.inf)
    floor = -np.maximum(tol, 1e-12 * np.max(np.abs(evals), axis=-1, initial=0.0))
    bad = lowest < floor
    if np.any(bad):
        row = int(np.argmax(bad))
        name = "" if indices is None else f" for instance {int(indices[row])}"
        raise NotPositiveSemidefiniteError(
            f"kernel{name} has eigenvalue {lowest[row]:.3e} below tolerance "
            f"{floor[row]:.3e}{context}: it is not positive semidefinite")
    return np.maximum(evals, 0.0)


def gram_stack(phi, config):
    """Base Gram matrices of a split, kernel axis first: (n_weights, n, N, N).

    ``phi`` (n, N, d) stacks the similarity features of n ground sets with
    a common item count.  The RBF Grams exp(-||phi_i - phi_j||^2 / sigma^2)
    come first, one per bandwidth, from squared distances
    ||phi_i||^2 + ||phi_j||^2 - 2 phi_i . phi_j clipped at zero, with a
    zero diagonal; the linear Gram phi_i . phi_j comes last when
    configured.  Each formula runs once over the whole split: the products
    phi phi^T are one batched matmul, and each exponential one call.
    """
    phi = np.asarray(phi, dtype=float)
    n, N = phi.shape[:2]
    grams = np.empty((config.n_weights, n, N, N))
    gram = phi @ np.swapaxes(phi, -1, -2)
    if config.bandwidths:
        sq = np.sum(phi**2, axis=-1)
        d2 = sq[:, :, None] + sq[:, None, :] - 2.0 * gram
        np.maximum(d2, 0.0, out=d2)
        d2.reshape(n, N * N)[:, ::N + 1] = 0.0
        for k, sigma in enumerate(config.bandwidths):
            np.exp(-d2 / sigma**2, out=grams[k])
    if config.include_linear:
        grams[-1] = gram
    return grams


def quality_stack(X, theta, indices=None, context=""):
    """Qualities q = exp(X theta) for quality features X of shape (..., N, d_q).

    Raises NumericalError when some x . theta exceeds ``LOG_QUALITY_MAX``,
    naming the first such ground set by its entry in ``indices`` (its row
    when ``indices`` is None) and its largest |x . theta|.
    """
    z = X @ theta
    top = np.ravel(np.max(z, axis=-1, initial=-np.inf))
    bad = ~(top <= LOG_QUALITY_MAX)  # nan counts as overflow
    if np.any(bad):
        row = int(np.argmax(bad))
        name = f"row {row}" if indices is None else f"instance {int(indices[row])}"
        largest = np.max(np.abs(np.reshape(z, (top.size, -1))[row]))
        raise NumericalError(
            f"qualities for {name} overflow{context}: largest |x . theta| is "
            f"{largest:.4g}, above {LOG_QUALITY_MAX:.4g}")
    return np.exp(z)


def similarity_stack(grams, weights):
    """The one mix of base kernels: S = sum_k w_k G^k for the (K, n, N, N)
    base Gram matrices ``grams`` of n ground sets (:func:`gram_stack`);
    returns (n, N, N), by one matrix-vector product."""
    return (weights @ grams.reshape(len(grams), -1)).reshape(grams.shape[1:])


def kernel_stack(q, S):
    """The one assembly of L: L_ij = q_i q_j S_ij.

    ``q`` (n, N) holds the qualities and ``S`` (n, N, N) the similarities
    (:func:`similarity_stack`) of n ground sets; returns the (n, N, N)
    kernels.  The trainer, data generation, prediction and build_kernel
    all use it.
    """
    return q[:, :, None] * q[:, None, :] * S


def build_kernel(instance, params, similarity):
    """Ground-set features + parameters -> EnsembleKernel (one call).

    The stack functions on a stack of one ground set: :func:`gram_stack`,
    :func:`similarity_stack`, :func:`quality_stack` and
    :func:`kernel_stack`, so the kernel is bit for bit the batch's row
    (``batch.build_L_stack``).  Raises ParameterError when theta does not
    match the quality features or the kernel weights do not match
    ``similarity``.
    """
    theta, weights = params.theta, params.kernel_weights
    x = instance.quality_features
    if theta.size != x.shape[1]:
        raise ParameterError(
            f"theta has dimension {theta.size}, quality features have {x.shape[1]}"
        )
    if weights.size != similarity.n_weights:
        raise ParameterError(
            f"expected {similarity.n_weights} kernel weights, got {weights.size}"
        )
    S = similarity_stack(gram_stack(instance.similarity_features[None], similarity),
                         weights)
    q = quality_stack(x[None], theta)
    return EnsembleKernel.from_matrix(kernel_stack(q, S)[0])


def marginal_kernel_from_L(L):
    """Marginal kernel K = L (L + I)^{-1} via the cached eigendecomposition.

    Each eigenvalue lambda of L maps to lambda / (lambda + 1), so K shares
    L's eigenvectors and has spectrum in [0, 1).
    """
    v = L.eigenvectors
    K = (v * (L.eigenvalues / (L.eigenvalues + 1.0))) @ v.T
    return MarginalKernel(0.5 * (K + K.T))


def label_spectra(sub):
    """The singular-label rule for a (m, k, k) stack of label submatrices.

    Returns ``(logdet, singular)``.  Each submatrix M is scored on its
    unit-diagonal form R = D^{-1/2} M D^{-1/2}, D = diag(M), as
    log det M = sum_i log M_ii + log det R.  For L = diag(q) S diag(q),
    R is the same for L_y as for S_y, so the rule does not depend on the
    qualities, and its eigenvalues sum to k whatever the scale of L.
    A submatrix is singular when it has a diagonal entry <= 0 or when the
    smallest eigenvalue of R is at most ``LABEL_SINGULAR_RTOL`` times its
    largest.  A singular row's logdet is -inf.  Only eigenvalues are
    computed.
    """
    d = np.diagonal(sub, axis1=1, axis2=2)
    positive = d > 0
    d = np.where(positive, d, 1.0)
    scale = 1.0 / np.sqrt(d)
    evals = np.linalg.eigvalsh(sub * scale[:, :, None] * scale[:, None, :])
    singular = ~np.all(positive, axis=1) | (
        evals[:, 0] <= np.maximum(0.0, LABEL_SINGULAR_RTOL * evals[:, -1]))
    logdet = np.full(len(sub), -np.inf)
    ok = ~singular
    logdet[ok] = np.sum(np.log(d[ok]), axis=1) + np.sum(np.log(evals[ok]), axis=1)
    return logdet, singular


def log_subset_det(L_matrix, y):
    """log det of the principal submatrix indexed by y, -inf when singular.

    Singular, and the log-determinant otherwise, are those of the
    trainer's rule, :func:`label_spectra`, on the unit-diagonal form of
    the submatrix; det over the empty index set is 1 by definition.
    """
    if not y:
        return 0.0
    return float(label_spectra(np.asarray(L_matrix)[np.ix_(y, y)][None])[0][0])


def log_probability(L, y):
    """log P(y; L) = log det(L_y) - log det(L + I).

    Returns -inf (never raises) on exactly the labels the trainer counts
    as singular (:func:`label_spectra`), which the trainer's objective
    scores by their margin term alone; on every other label log det(L_y)
    is the trainer's, sum_i log L_ii plus the log-determinant of the
    unit-diagonal form.
    """
    y = as_subset(y, L.n_items)
    return log_subset_det(L.matrix, y) - L.log_normalizer()


def subset_marginal(K, y):
    """det(K_y): probability that a sampled subset contains all of y."""
    y = as_subset(y, K.matrix.shape[0])
    if not y:
        return 1.0
    evals = np.linalg.eigvalsh(K.matrix[np.ix_(y, y)])
    det = float(np.prod(evals))
    if det < 0.0 and det > -1e-12:
        det = 0.0
    return det
