"""The numerical engine: objective, gradients and MAP over kernel stacks.

Training and the experiment harness repeatedly evaluate the hinge
objective, its subgradient, and exhaustive MAP predictions over hundreds
of small ground sets.  Doing that one instance at a time is dominated by
Python overhead, so this module stacks instances with equal item counts
into contiguous arrays and pushes the work through batched LAPACK calls.

Every formula is defined here once.  The per-instance functions in
:mod:`dpplearn.learning` and :mod:`dpplearn.inference` call it with a
stack of one; slow, independent reference implementations live in the
test suite's ``oracles.py``.  The assembly of L, the PSD rule and the
singular-label rule are those of the per-instance kernel API:
:func:`dpplearn.kernel.similarity_stack` with ``kernel_stack``,
``clamp_psd_stack`` and ``label_spectra``.

Every Cholesky factorization here is one LAPACK call over a whole stack
that flags the rows without a factor and never raises
(:func:`cholesky_stack`).  A training pass factors L + I once and does
no LU or eigenvector work.  The normalizer log det(L + I) and the resolvent
(L + I)^{-1} = X^T X, X the inverse of the Cholesky factor found by
batched forward substitution, come from that one factorization.  That is
sound because L + I is positive definite whenever L is PSD, and
L = diag(q) S diag(q), with S a simplex mix of the base Gram matrices,
is PSD whenever those Grams are (Schur product theorem).  So the PSD
rule runs on the base Grams, once per batch, the first time
:func:`hinge_terms` evaluates it: the trainer and ``total_objective``
pay for it once, and prediction never does.  A batch stores its base
Grams kernel axis first, (K, n, N, N), so mixing them into S and
chaining a gradient back to the K kernel weights are one matrix-vector
product each.

Labels are scored on S: log det L_y = 2 sum_{i in y} theta . x_i +
log det S_y, and the singular-label rule looks at the unit-diagonal form
R of the label submatrix, which is the same for L_y as for S_y.  So all
label work depends on the kernel weights alone, and each batch keeps S
and its label terms for the last weight vector it saw
(:class:`SimilarityTerms`): a theta-only fit computes them once, a joint
fit once per new weight vector.  One Cholesky factorization of the
labels' unit-diagonal forms, padded to N x N, decides most labels
(:func:`label_terms`).  A label whose form has no factor is singular.
The factor's inverse gives tr(R^{-1}), and
lambda_min(R) >= 1 / tr(R^{-1}) while lambda_max(R) <= k for a label of
k items, so a label with tr(R^{-1}) k ``LABEL_SINGULAR_RTOL`` < 1/2 is
nonsingular by a factor of two, and its log-determinant comes from the
factor's diagonal.  The bound is one-sided: a label with a factor but no
certificate goes through ``label_spectra``.  Every label keeps its row of
the factor.  A singular label, one of probability zero,
is scored by its margin term alone.  The objective is then a smooth
function of theta, and its gradient is the derivative of its value.
The theta gradient is in closed form and needs no label inverse.  The
kernel-weight gradient, which exists only for more than one base kernel,
needs S_y^{-1}, which the same factor gives.  A pass evaluates the
gradient on every row of a batch and leaves the inactive hinges out of
its sums, so it copies no subset of rows.

Exhaustive MAP first drops every item with L_ii <= 1, which no MAP
subset holds: adding an item multiplies det(L_y) by its Schur pivot, at
most L_ii, and ties go to the smaller subset.  It then needs
log det(L_y) for every subset y of the m items left, and groups the
kernels of a stack by m.  It walks the tree of subsets in which each
subset extends its parent by one later item: the child's
log-determinant is the parent's plus the log of one pivot, read off the
parent's Schur complement, and the child's complement is a rank-one
update of the parent's.  So each of the 2^m subsets costs one update,
vectorized over the kernels of a group and the subsets of a tree level,
instead of its own factorization; ``MAP_CHUNK_BYTES`` bounds the memory
this takes, and ``MAP_MAX_ITEMS`` bounds m, whatever N is.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from math import comb

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import NumericalError, ParameterError
from .kernel import (
    EIG_CLAMP_TOL,
    LABEL_SINGULAR_RTOL,
    clamp_psd_stack,
    gram_stack,
    kernel_stack,
    label_spectra,
    quality_stack,
    similarity_stack,
)

# Margin-term masses below this floor have log -inf.
LOG_FLOOR = 1e-300

# Upper bound on the bytes of the arrays that exhaustive MAP (and the
# batched sampler) hold at once; larger stacks are split into chunks.
MAP_CHUNK_BYTES = 1 << 24
# Most items with L_ii > 1 whose 2^m subsets exhaustive MAP walks: at 25,
# one kernel's walk takes seconds, well inside the int64 masks' 62 bits.
MAP_MAX_ITEMS = 25


class InstanceBatch:
    """Instances with a common item count, stacked for array evaluation."""

    __slots__ = ("indices", "X", "grams", "mask", "n", "n_items",
                 "grams_checked", "label_cache")

    def __init__(self, dataset_positions, instances, similarity):
        self.indices = np.asarray(dataset_positions, dtype=int)
        self.n = len(instances)
        self.n_items = instances[0].n_items
        self.X = np.stack([inst.quality_features for inst in instances])
        self.grams = gram_stack(
            np.stack([inst.similarity_features for inst in instances]), similarity)
        self.mask = np.zeros((self.n, self.n_items), dtype=bool)
        for row, inst in enumerate(instances):
            self.mask[row, list(inst.label or ())] = True
        self.grams_checked = False
        # the SimilarityTerms of the last weight vector a pass used: S and
        # the label log-dets, flags and factor
        self.label_cache = None


def stack_instances(dataset, similarity):
    """Group a dataset by item count into :class:`InstanceBatch` objects.

    Ground sets of one item count whose similarity features differ in
    dimension go into separate batches, so each batch's features stack.
    """
    if not dataset:
        raise ParameterError("dataset is empty")
    d_q = dataset[0].quality_features.shape[1]
    groups = {}
    for pos, inst in enumerate(dataset):
        if inst.quality_features.shape[1] != d_q:
            raise ParameterError(
                "all instances must share the quality feature dimension "
                f"(instance {pos} has {inst.quality_features.shape[1]}, expected {d_q})"
            )
        key = inst.similarity_features.shape
        groups.setdefault(key, ([], []))
        groups[key][0].append(pos)
        groups[key][1].append(inst)
    return [
        InstanceBatch(pos, insts, similarity)
        for _, (pos, insts) in sorted(groups.items())
    ]


def build_L_stack(batch, theta, weights):
    """Qualities (n, N) and kernels (n, N, N) for every instance in a batch."""
    q = quality_stack(batch.X, theta, batch.indices)
    return q, kernel_stack(q, similarity_stack(batch.grams, weights))


def check_grams(batch):
    """Apply the PSD rule of :func:`~dpplearn.kernel.clamp_psd_stack` to
    every base Gram matrix of a batch, once per batch.

    Raises NotPositiveSemidefiniteError naming the instance.  Passing
    makes every L of the batch PSD for simplex weights, so its L + I has
    the Cholesky factor :func:`resolvent_stack` takes.

    The Grams are certified by batched Cholesky factorizations of
    G + (tol / 2) I, tol = ``EIG_CLAMP_TOL``, one call per base kernel,
    so the shifted copy holds one kernel's Grams at a time.  A computed
    factor is the exact one of G + (tol / 2) I + E with
    ||E|| = O(N eps ||G||), so success gives
    lambda_min(G) >= -tol / 2 - O(N eps ||G||).  That clears the rule's
    floor -max(tol, 1e-12 max|eig|): the tol / 2 margin covers the
    rounding term while N eps ||G|| << tol / 2, and the relative floor
    covers it beyond.  Only when some Gram has no such factor does the
    rule run on the eigenvalues, which the error message needs.
    """
    if batch.grams_checked:
        return
    k, n, N, _ = batch.grams.shape
    shift = 0.5 * EIG_CLAMP_TOL * np.eye(N)
    if any(cholesky_stack(G + shift)[1].any() for G in batch.grams):
        evals = np.linalg.eigvalsh(np.swapaxes(batch.grams, 0, 1)).reshape(n * k, N)
        clamp_psd_stack(evals, np.repeat(batch.indices, k),
                        " in a base Gram matrix")
    batch.grams_checked = True


def resolvent_stack(L, indices=None):
    """log det(L + I) and (L + I)^{-1} for a (n, N, N) kernel stack.

    One batched Cholesky factorization L + I = C C^T gives the
    log-determinant as twice the log-sum of the diagonal of C, and the
    resolvent as X^T X with X = C^{-1} (:func:`_inverse_factor`).
    Every caller passes a PSD L (certified Grams, or a kernel that passed
    the PSD rule), so an L + I without a Cholesky factor is numerically
    singular: its qualities' range swamps the identity.  That raises
    NumericalError naming the first such kernel by its entry in
    ``indices`` (its row when ``indices`` is None).
    """
    C, failed = cholesky_stack(L + np.eye(L.shape[-1]))
    if failed.any():
        row = int(np.argmax(failed))
        name = f"row {row}" if indices is None else f"instance {int(indices[row])}"
        raise NumericalError(
            f"L + I for {name} is numerically singular: it has no Cholesky factor")
    logdet = 2.0 * np.sum(np.log(np.diagonal(C, axis1=1, axis2=2)), axis=1)
    X = _inverse_factor(C)
    return logdet, np.swapaxes(X, -1, -2) @ X


def cholesky_stack(B):
    """Lower Cholesky factors of a (n, N, N) stack in one LAPACK call, and
    a flag per row that has none.  Never raises.

    ``numpy.linalg.cholesky`` raises for the whole stack when one matrix
    has no factor.  The gufunc it calls fills each such matrix with NaN
    and returns every other factor as ``numpy.linalg.cholesky`` would, bit
    for bit.  Returns ``(C, failed)``; a flagged row of C holds the
    identity, its own factor, so that every row can be inverted.
    """
    with np.errstate(invalid="ignore"):
        C = _umath_linalg.cholesky_lo(B, signature="d->d")
    # a factor has a positive diagonal; a failed one is NaN throughout
    failed = ~np.all(np.diagonal(C, axis1=1, axis2=2) > 0, axis=1)
    C[failed] = np.eye(B.shape[-1])
    return C, failed


def _inverse_factor(C):
    """X = C^{-1} for a (n, N, N) stack of lower Cholesky factors, so that
    (C C^T)^{-1} = X^T X.

    X is lower triangular; forward substitution finds it one row at a
    time, X_i = (e_i - sum_{k<i} C_ik X_k) / C_ii, vectorized over the
    stack with the kernel axis last, as in :func:`_eliminate`.
    """
    N = C.shape[-1]
    Ct = np.ascontiguousarray(np.moveaxis(C, 0, -1))
    X = np.zeros_like(Ct)
    for i in range(N):
        X[i, :i] = np.einsum("kn,kjn->jn", Ct[i, :i], X[:i, :i]) / -Ct[i, i]
        X[i, i] = 1.0 / Ct[i, i]
    return np.moveaxis(X, -1, 0)


def _unit_diagonal_forms(M, keep):
    """The labels of a (n, N, N) stack M on their unit-diagonal forms,
    padded to N x N.

    ``keep`` (n, N) marks the label items.  Returns ``(scale, P)``: scale
    is M_ii^{-1/2} on ``keep`` and 0 elsewhere, where a diagonal entry
    <= 0 is left unscaled, as in :func:`~dpplearn.kernel.label_spectra`;
    P is scale M scale on the label and the identity off it.
    """
    N = M.shape[-1]
    d = np.diagonal(M, axis1=1, axis2=2)
    scale = np.where(keep, 1.0 / np.sqrt(np.where(d > 0, d, 1.0)), 0.0)
    P = scale[:, :, None] * scale[:, None, :]
    P *= M
    P.reshape(-1, N * N)[:, ::N + 1] += ~keep
    return scale, P


def label_terms(M, mask):
    """Label log-determinants, singular flags and label factor of a stack.

    ``M`` (n, N, N) is a stack of kernels or of similarities S, whose
    labels have the same flags, and ``mask`` (n, N) marks each row's
    label items.  Returns ``(logdet_y, singular, factor)`` under the rule
    of :func:`~dpplearn.kernel.label_spectra`: a singular label has
    log-determinant -inf.

    One batched Cholesky factorization C C^T = P of the labels' padded
    unit-diagonal forms (:func:`_unit_diagonal_forms`) decides most rows.
    A row with a diagonal entry <= 0 on its label, or whose P has no
    factor, is singular: a computed factorization fails only when
    lambda_min(R) is at rounding level, far below ``LABEL_SINGULAR_RTOL``
    lambda_max(R) (a label larger than the rank of a linear kernel, say).
    With X = C^{-1}, tr(R^{-1}) is the squared norm of X on the label, and
    for a k-item label R, lambda_min(R) >= 1 / tr(R^{-1}) and
    lambda_max(R) <= k.  A row with tr(R^{-1}) k ``LABEL_SINGULAR_RTOL``
    < 1/2 is therefore nonsingular with a factor of two to spare, and its
    log det is sum_i log M_ii + 2 sum_i log C_ii.  Only the rows left,
    which have a factor but no certificate, go through ``label_spectra``,
    one call per label size among them.  ``factor`` is ``(scale, X)``,
    what :func:`label_inverse` needs; X is the identity on a row without a
    factor (:func:`cholesky_stack`).
    """
    d = np.diagonal(M, axis1=1, axis2=2)
    positive = np.all(d > 0, axis=1, where=mask)
    keep = mask & positive[:, None]
    scale, P = _unit_diagonal_forms(M, keep)
    C, failed = cholesky_stack(P)
    X = _inverse_factor(C)
    singular = failed | ~positive
    tr = np.sum(np.einsum("nij,nij->ni", X, X), axis=1, where=keep)
    k = np.count_nonzero(keep, axis=1)
    certified = ~singular & (tr * k * LABEL_SINGULAR_RTOL < 0.5)
    logdet_y = np.sum(np.log(np.where(keep, d, 1.0)), axis=1) + 2.0 * np.sum(
        np.log(np.diagonal(C, axis1=1, axis2=2)), axis=1)
    logdet_y[singular] = -np.inf
    todo = ~(certified | singular)
    sizes = np.count_nonzero(mask, axis=1)
    for size in np.unique(sizes[todo]).tolist():
        rows = np.nonzero(todo & (sizes == size))[0]
        labs = np.nonzero(mask[rows])[1].reshape(rows.size, size)
        sub = M[rows[:, None, None], labs[:, :, None], labs[:, None, :]]
        logdet_y[rows], singular[rows] = label_spectra(sub)
    return logdet_y, singular, (scale, X)


def label_inverse(factor, keep):
    """The label inverses (M_y)^{-1}, zero-padded to N x N, per row of a
    (n, N, N) stack, from the ``factor`` that :func:`label_terms` returns
    for M: M_y^{-1} = scale R^{-1} scale with R^{-1} = X^T X.

    ``keep`` (n, N) marks the label items of the rows wanted, the
    nonsingular ones; a row without any is zero.
    """
    scale, X = factor
    # X is zero between the label and the items off it, where it has unit
    # rows; zeroing its columns off ``keep`` zeroes the product there
    Y = X * (scale * keep)[:, None, :]
    return np.swapaxes(Y, -1, -2) @ Y


def margin_mass(kdiag, mask, omega):
    """Loss-weighted incorrect-subset mass A and log A, per row.

    A = sum_{i not in y} K_ii + omega * sum_{i in y} (1 - K_ii), which is
    sum_y' loss_omega(y, y') P(y') over all subsets; log A is -inf where A
    underflows ``LOG_FLOOR``.
    """
    A = np.sum(np.where(mask, omega * (1.0 - kdiag), kdiag), axis=1)
    logA = np.full(A.shape, -np.inf)
    ok = A >= LOG_FLOOR
    logA[ok] = np.log(A[ok])
    return A, logA


def margin_grad(invB, mask, omega, A, lam=1.0):
    """d (lam * log A) / dL = (lam / A) * B D B, per row.

    B = (L + I)^{-1} and D is diagonal with -omega on the label and 1 off
    it; this follows from dK_ii/dL = b_i b_i^T, b_i the i-th column of B.
    """
    d = np.where(mask, -omega, 1.0)
    return (lam / A)[:, None, None] * ((invB * d[:, None, :]) @ invB)


def chain_to_theta(U, L, X):
    """Chain symmetric gradients dF/dL (m, N, N) to theta:
    dF/dtheta = sum_ij U_ij L_ij (x_i + x_j), summed over the stack."""
    r = np.sum(U * L, axis=2)
    return 2.0 * np.einsum("mi,mid->d", r, X)


def chain_to_weights(V, grams):
    """Chain gradients dF/dS (n, N, N) to the kernel weights, given the
    (K, n, N, N) base Grams: dF/dw_k = sum_nij V_nij G^k_nij, one
    matrix-vector product.  For dF/dL = U, dF/dS = q_i q_j U_ij."""
    return grams.reshape(grams.shape[0], -1) @ V.reshape(-1)


def theta_rates(kdiag, invB, mask, singular, omega, A, lam):
    """r_i = sum_j U_ij L_ij for the hinge's dF/dL = U, per row, without U.

    dF/dtheta is then 2 sum_i r_i x_i.  Since (L_y^{-1} L_y)_ii = 1 on
    the label and (L + I)^{-1} L = I - (L + I)^{-1},

        r_i = [label nonsingular] (K_ii - [i in y])
              + (lam / A) (B_ii D_i - sum_j B_ij^2 D_j),

    with B = ``invB`` = (L + I)^{-1}, ``kdiag`` = diag K = 1 - diag B and D
    as in :func:`margin_grad`; the second line is left out at lam = 0.
    """
    r = np.where(mask, kdiag - 1.0, kdiag)
    r[singular] = 0.0
    if lam > 0:
        d = np.where(mask, -omega, 1.0)
        binv_d = np.diagonal(invB, axis1=1, axis2=2) * d
        r += (lam / A)[:, None] * (binv_d - np.einsum("mij,mj->mi", invB**2, d))
    return r


class SimilarityTerms:
    """What every pass over a batch at one kernel-weight vector shares.

    ``S`` is the batch's :func:`~dpplearn.kernel.similarity_stack` at the
    weights whose bytes are ``key``; ``logdet``, ``singular`` and
    ``factor`` are the read-only log det S_y, flags and label factor of
    :func:`label_terms`.  The factor has a row for every label, and
    :func:`label_inverse` builds S_y^{-1} from it on the nonsingular ones.
    """

    __slots__ = ("key", "S", "logdet", "singular", "factor")

    def __init__(self, batch, weights, key):
        self.key = key
        self.S = similarity_stack(batch.grams, weights)
        self.logdet, self.singular, self.factor = label_terms(self.S, batch.mask)
        self.logdet.setflags(write=False)
        self.singular.setflags(write=False)


def similarity_label_terms(batch, weights):
    """The batch's :class:`SimilarityTerms` at ``weights``.

    A one-entry cache on the batch, keyed by the bytes of ``weights``,
    returns the same terms while the weights stay the same, as they do
    across every pass of a theta-only fit.  So S is mixed and the labels
    are factored once per weight vector.
    """
    key = np.asarray(weights, dtype=float).tobytes()
    if batch.label_cache is None or batch.label_cache.key != key:
        batch.label_cache = SimilarityTerms(batch, weights, key)
    return batch.label_cache


def hinge_terms(batch, theta, weights, lam, omega, want_grad=True):
    """Hinge objective and (optionally) its gradient for one batch.

    Returns ``(value, g_theta, g_weights, n_singular)``.  An instance
    whose label is nonsingular (see :func:`label_terms`) adds
    max(0, -log P(y_n) + lam * log A_n).  One whose label is singular,
    and so has probability zero, adds lam * log A_n and always counts as
    active: its margin term alone, which is 0 at lam = 0 and, since
    A_n >= min(1, omega) in exact arithmetic, bounded below.  So the
    gradient is the derivative of the value wherever no hinge sits at its
    kink and the set of singular labels stays put.  The gradient blocks
    are None when ``want_grad`` is false, and g_weights is None for a
    single base kernel, whose weight the simplex pins at 1.  The value
    does not depend on ``want_grad``.  The first call on a batch runs
    :func:`check_grams`.

    S and the label terms come from :func:`similarity_label_terms`, once
    per kernel-weight vector.  Every pass builds L = diag(q) S diag(q) and
    factors L + I once (:func:`resolvent_stack`).  The labels are scored
    on S: log det L_y = log det S_y + 2 sum_{i in y} x_i . theta.  The
    value is therefore a smooth function of theta, and which labels are
    singular depends on the weights alone.  The gradient is evaluated on
    every row and the inactive rows are left out of its sums; such a row
    gets A = 1, so that one with A = 0 stays finite.  The theta block is
    in closed form (:func:`theta_rates`).  The weights block chains
    dF/dS = q_i q_j (B + M)_ij - (S_y^{-1})_ij, with B = (L + I)^{-1}
    (left out on singular rows) and M = :func:`margin_grad`, zeroed on
    the inactive rows; the label part needs no qualities, since
    q_i q_j (L_y^{-1})_ij = (S_y^{-1})_ij, and S_y^{-1} comes from the
    factor the label terms kept, zero on the singular rows.
    """
    check_grams(batch)
    terms = similarity_label_terms(batch, weights)
    q = quality_stack(batch.X, theta, batch.indices)
    L = kernel_stack(q, terms.S)
    logdetB, invB = resolvent_stack(L, batch.indices)
    logdet_y = terms.logdet + 2.0 * np.sum(batch.X @ theta, axis=1, where=batch.mask)
    kdiag = 1.0 - np.diagonal(invB, axis1=1, axis2=2)
    A, logA = margin_mass(kdiag, batch.mask, omega)

    singular = terms.singular
    # a singular row, whose logdet_y is -inf, keeps its margin term alone
    z = np.where(singular, 0.0, logdetB - logdet_y)
    if lam > 0:
        z = z + lam * logA
    value = float(np.sum(np.where(singular, z, np.maximum(z, 0.0))))
    n_singular = int(np.count_nonzero(singular))
    if not want_grad:
        return value, None, None, n_singular

    active = (z > 0) | singular
    A = np.where(active, A, 1.0)
    r = theta_rates(kdiag, invB, batch.mask, singular, omega, A, lam)
    g_theta = 2.0 * np.einsum("mi,mid->d", r[active], batch.X[active])
    g_weights = None
    if np.size(weights) > 1:
        U = np.where(singular[:, None, None], 0.0, invB)
        if lam > 0:
            U += margin_grad(invB, batch.mask, omega, A, lam)
        V = kernel_stack(q, U)
        V -= label_inverse(terms.factor, batch.mask & ~singular[:, None])
        V[~active] = 0.0
        g_weights = chain_to_weights(V, batch.grams)
    return value, g_theta, g_weights, n_singular


def dataset_value_and_grad(batches, theta, weights, lam, omega, want_grad=True):
    """Sum :func:`hinge_terms` over all batches of a dataset.

    One pass: the value and, when ``want_grad`` is true, both gradient
    blocks (g_weights None for a single base kernel).
    """
    want_weights = want_grad and np.size(weights) > 1
    total = 0.0
    g_theta = np.zeros_like(theta) if want_grad else None
    g_weights = np.zeros_like(weights) if want_weights else None
    n_singular = 0
    for batch in batches:
        val, gt, gw, ns = hinge_terms(batch, theta, weights, lam, omega, want_grad)
        total += val
        n_singular += ns
        if want_grad:
            g_theta += gt
        if want_weights:
            g_weights += gw
    return total, g_theta, g_weights, n_singular


def _eliminate(X):
    """One elimination step on the leading item of s x s matrices stacked
    as X (..., s, s, r), with the axis of the r kernels last.

    Returns the log of the pivot X[..., 0, 0, :] and the Schur complement
    of that pivot on the other s - 1 items.  Where the pivot is <= 0 the
    log is -inf and the complement is zero, so every pivot below it is 0.
    """
    piv = X[..., 0, 0, :]
    ok = piv > 0
    w = np.divide(X[..., 0, 1:, :], piv[..., None, :],
                  out=np.zeros_like(X[..., 0, 1:, :]), where=ok[..., None, :])
    comp = X[..., 1:, 0, None, :] * w[..., None, :, :]
    np.subtract(X[..., 1:, 1:, :], comp, out=comp)
    np.copyto(comp, 0.0, where=~ok[..., None, None, :])
    logp = np.full(piv.shape, -np.inf)
    np.log(piv, out=logp, where=ok)
    return logp, comp


@lru_cache(maxsize=None)
def _walk_bytes(m):
    """Upper bound on the bytes per kernel that :func:`_walk` holds at once
    on m items: two levels of the tree plus one stacked child group."""
    def level(size):
        # comb(last, size - 1) nodes end at item ``last``; each holds a
        # (m - 1 - last)^2 complement and a few scalars
        return sum(comb(last, size - 1) * ((m - 1 - last) ** 2 + 4)
                   for last in range(size - 1, m)) if size else m * m

    peak = 0
    for size in range(1, m + 1):
        group = max(comb(j, size - 1) * (m - j) * (m - j + 1)
                    for j in range(size - 1, m))
        peak = max(peak, level(size - 1) + level(size) + group)
    return 8 * peak


def _map_bytes(m):
    """Bytes per kernel that :func:`_best_by_size` holds at once on m items."""
    if m == 0 or _walk_bytes(m) <= MAP_CHUNK_BYTES:
        return _walk_bytes(m)
    # a split holds one (m - 1)^2 complement and a few per-size arrays
    return 8 * ((m - 1) ** 2 + 4 * (m + 1)) + _map_bytes(m - 1)


def _walk(L, base):
    """Best log det(L_y) and subset of every size, for r kernels stacked
    as L (m, m, r).

    Walks the tree of subsets level by level.  The parent of a node y is y
    without its last item; y carries log det(L_y) and the Schur complement
    of L_y on the items after its last one, so its child y + {j} adds the
    log of that complement's diagonal entry at j (:func:`_eliminate`).  The
    nodes of a level are stacked by last item.  ``base`` (r,) is the
    log-determinant the root starts from.

    Returns ``(vals, masks)``, both (m + 1, r): per size, the best
    log-determinant and a subset attaining it, as a bit mask with bit
    m - 1 - i for item i.  Of equal values the larger mask, which is the
    lexicographically first subset, wins.
    """
    m, r = L.shape[0], L.shape[-1]
    vals = np.full((m + 1, r), -np.inf)
    masks = np.zeros((m + 1, r), dtype=np.int64)
    vals[0] = base
    # last item -> (log det (P, r), complement (P, s, s, r), masks (P,))
    level = {-1: (base[None], L[None], np.zeros(1, dtype=np.int64))}
    for size in range(1, m + 1):
        nxt = {}
        for j in range(size - 1, m):
            parents = [(j - last - 1, g) for last, g in level.items() if last < j]
            logp, comp = _eliminate(np.concatenate(
                [C[:, a:, a:] for a, (_, C, _) in parents]))
            logdet = np.concatenate([ld for _, (ld, _, _) in parents])
            mask = np.concatenate([mk for _, (_, _, mk) in parents])
            nxt[j] = (logdet + logp, comp, mask | (1 << (m - 1 - j)))
        level = nxt
        logdet = np.concatenate([ld for ld, _, _ in level.values()])
        mask = np.concatenate([mk for _, _, mk in level.values()])
        vals[size] = np.max(logdet, axis=0)
        tied = np.where(logdet == vals[size], mask[:, None], -1)
        masks[size] = mask[np.argmax(tied, axis=0)]
    return vals, masks


def _best_by_size(L, base):
    """:func:`_walk` within ``MAP_CHUNK_BYTES`` per kernel.

    A walk over budget is split into the subtrees of the first item f:
    the subsets whose smallest item is f are f plus the subsets of the
    Schur complement of L_ff on the items after f, found by the same
    search.  Visiting f in increasing order with a strict > keeps, of
    equal values, the lexicographically first subset.
    """
    m = L.shape[0]
    if m == 0 or _walk_bytes(m) <= MAP_CHUNK_BYTES:
        return _walk(L, base)
    vals = np.full((m + 1, L.shape[-1]), -np.inf)
    masks = np.zeros(vals.shape, dtype=np.int64)
    vals[0] = base
    for f in range(m):
        logp, comp = _eliminate(L[f:, f:])
        sub_vals, sub_masks = _best_by_size(comp, base + logp)
        win = sub_vals > vals[1:m - f + 1]
        vals[1:m - f + 1][win] = sub_vals[win]
        masks[1:m - f + 1][win] = sub_masks[win] | (1 << (m - 1 - f))
    return vals, masks


def map_exhaustive_stack(L_stack, indices=None):
    """Exhaustive MAP subset, a tuple of int, for each kernel of a stack.

    Maximizes det(L_y) over all 2^N subsets of every (N, N) kernel in the
    (n, N, N) stack; the empty set scores det = 1.  Ties go to the smaller
    subset, then to the lexicographically first.

    Each kernel must be positive semidefinite, as every kernel the library
    builds is.  An item i with L_ii <= 1 is in no MAP subset: adding it to
    any y multiplies det(L_y) by its Schur pivot
    L_ii - L_iy L_y^{-1} L_yi <= L_ii <= 1, so y itself scores at least
    as high and, being smaller, wins the tie.  Such items are dropped
    first, and the kernels are grouped by m, the number of items left.
    Before any walk, an m above ``MAP_MAX_ITEMS`` raises ParameterError
    naming the first such kernel by its entry in ``indices`` (its row
    when ``indices`` is None).
    Each group's (m, m) kernels, compacted in item order, are searched by
    one walk of the subset tree that extends a subset's Cholesky
    factorization by one item per step, so each of the 2^m subsets costs
    one Schur-complement update instead of a factorization.  A subset of
    the remaining items gets the same updates in the same order as in a
    walk over all N items, so its value is the same to the bit, and
    compaction keeps the order on which the lexicographic tie rule rests.
    A pivot <= 0 marks the subset as singular, and with it its whole
    subtree: for a PSD kernel a principal submatrix that contains a
    singular one is singular too, so none of them can win.

    The walk's temporaries stay within ``MAP_CHUNK_BYTES``: each group's
    kernels are taken in chunks, and a single kernel whose walk would
    exceed it is split into subtrees (see :func:`_best_by_size`).
    """
    L_stack = np.asarray(L_stack, dtype=float)
    eligible = np.diagonal(L_stack, axis1=1, axis2=2) > 1.0
    counts = np.count_nonzero(eligible, axis=1)
    if counts.max(initial=0) > MAP_MAX_ITEMS:
        row = int(np.argmax(counts > MAP_MAX_ITEMS))
        name = f"row {row}" if indices is None else f"instance {int(indices[row])}"
        raise ParameterError(
            f"{name} has {counts[row]} items with L_ii > 1, too many to enumerate "
            f"(MAP_MAX_ITEMS = {MAP_MAX_ITEMS}); use MBR decoding instead")
    subsets = [()] * L_stack.shape[0]
    for m in np.unique(counts[counts > 0]).tolist():
        rows = np.nonzero(counts == m)[0]
        items = np.nonzero(eligible[rows])[1].reshape(rows.size, m)
        shifts = np.arange(m - 1, -1, -1)
        step = max(1, MAP_CHUNK_BYTES // _map_bytes(m))
        for r0 in range(0, rows.size, step):
            r, it = rows[r0:r0 + step], items[r0:r0 + step]
            # the compacted kernels, (m, m, r) with the kernel axis last
            block = L_stack[r, it.T[:, None], it.T[None]]
            vals, masks = _best_by_size(block, np.zeros(r.size))
            # first maximum over sizes: the smaller subset wins ties
            best = masks[np.argmax(vals, axis=0), np.arange(r.size)]
            chosen = (best[:, None] >> shifts & 1).astype(bool)
            for row, its, keep in zip(r.tolist(), it.tolist(), chosen.tolist()):
                subsets[row] = tuple(compress(its, keep))
    return subsets
