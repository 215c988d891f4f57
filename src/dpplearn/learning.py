"""Estimation of DPP parameters: maximum likelihood and large margin.

Both estimators minimize the same hinge objective over labeled instances,

    sum_n [ -log P(y_n; L_n) + lam * log A_n ]_+ ,

where A_n = sum_{i not in y_n} K_ii + omega * sum_{i in y_n} (1 - K_ii)
is the loss-weighted probability mass of incorrect subsets, computable in
closed form from the marginal kernel diagonal.  lam = 0 recovers plain
maximum likelihood; lam > 0 additionally pushes probability mass away from
subsets that disagree with the label, weighted by how much they disagree.
The objective and its gradients are computed in :mod:`dpplearn.batch`; the
per-instance functions here evaluate it on a stack of one.

With L = diag(q) S diag(q), log det L_y = 2 sum_{i in y} theta . x_i +
log det S_y, and the singular-label rule looks only at the unit-diagonal
form of S_y (:func:`dpplearn.kernel.label_spectra`).  So the objective is
a smooth function of theta, the set of singular labels depends on the
kernel weights alone, and a fit factors the labels once per
kernel-weight vector rather than once per pass
(:func:`dpplearn.batch.similarity_label_terms`).  Its relative change
between iterations is then a meaningful stopping test.

Optimization is block-alternating projected subgradient descent: a block
of steps on theta with the kernel weights fixed, then a block of projected
steps on the kernel weights, repeating with a diminishing step size.
The schedule is fixed (``STEP_SIZE``, ``ALTERNATION_BLOCK``,
``GRAD_CLIP``); :class:`TrainConfig` holds only the objective's lam and
omega and the two stopping rules.
Every objective evaluation is one pass of
:func:`dpplearn.batch.dataset_value_and_grad` over the training set, and
each pass computes only the gradient block that the next step uses.  The
pass that records an outer iteration's objective also gives the theta
gradient for the next iteration's first step, so no iterate is evaluated
twice.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import batch as _batch
from .errors import DegenerateLabelError, NumericalError, ParameterError
from .kernel import (
    ModelParams,
    SimilarityConfig,
    as_subset,
    kernel_stack,
    uniform_params,
)

logger = logging.getLogger(__name__)


# The subgradient schedule: outer iteration t steps STEP_SIZE / sqrt(t) on
# the per-instance average subgradient, ALTERNATION_BLOCK times per block.
STEP_SIZE = 0.5
ALTERNATION_BLOCK = 3
# Cap on the norm of each block's average subgradient.  A label that is
# nearly impossible under the current kernel makes the inverse of its
# submatrix, and hence the kernel-weight subgradient, arbitrarily large;
# the cap keeps one such instance from wrecking the iterate while keeping
# the descent direction.
GRAD_CLIP = 10.0


@dataclass(frozen=True)
class TrainConfig:
    """Objective settings and the trainer's stopping rules.

    Parameters
    ----------
    similarity : SimilarityConfig
        Base-kernel layout used to build L from each instance.
    lam : float
        Tradeoff coefficient on the margin term; 0 gives maximum likelihood.
    omega : float
        Weight on missed label items in the generalized Hamming loss.
    max_outer_iterations : int
        Iteration budget of :func:`train`.
    rel_tolerance : float
        Stop, with ``converged`` True, after the first outer iteration
        whose recorded objective differs from the previous iteration's by
        at most ``rel_tolerance * max(1, |previous|)``.
    """

    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    lam: float = 0.0
    omega: float = 1.0
    max_outer_iterations: int = 40
    rel_tolerance: float = 1e-7

    def __post_init__(self):
        if self.lam < 0:
            raise ParameterError(f"lam must be nonnegative, got {self.lam}")
        if self.omega <= 0:
            raise ParameterError(f"omega must be positive, got {self.omega}")
        if self.rel_tolerance <= 0:
            raise ParameterError("rel_tolerance must be positive")
        if self.max_outer_iterations < 1:
            raise ParameterError("max_outer_iterations must be at least 1")


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    objective_trace: tuple
    converged: bool
    iterations_used: int


def _label_mask(y_star, n_items):
    mask = np.zeros((1, n_items), dtype=bool)
    mask[0, list(as_subset(y_star, n_items))] = True
    return mask


def softmax_margin_term(K, y_star, omega=1.0):
    """log of the loss-weighted incorrect-subset mass, from K's diagonal.

    Computes log(sum_{i not in y*} K_ii + omega * sum_{i in y*} (1 - K_ii)),
    which equals the log of sum_y loss_omega(y*, y) P(y; L) over all 2^N
    subsets.  Returns -inf when the argument underflows (all probability
    mass already sits on the correct subset).
    """
    if omega <= 0:
        raise ParameterError(f"omega must be positive, got {omega}")
    kdiag = K.diagonal
    _, logA = _batch.margin_mass(
        kdiag[None], _label_mask(y_star, kdiag.shape[0]), omega
    )
    return float(logA[0])


def instance_objective(params, instance, config):
    """Hinge objective of one labeled instance under the given parameters.

    [ -log P(y; L) + lam * softmax_margin_term ]_+ with L built from the
    instance features and ``params``.  A label whose kernel submatrix is
    numerically singular (``kernel.LABEL_SINGULAR_RTOL``) enters with the
    trainer's finite surrogate log-determinant, so the value is finite.
    """
    return total_objective(params, [instance], config)


def total_objective(params, dataset, config):
    """Hinge objective summed over a dataset (0 when empty).

    The value :func:`train` records in ``objective_trace``.
    """
    dataset = list(dataset)
    if not dataset:
        return 0.0
    if any(inst.label is None for inst in dataset):
        raise ParameterError("instance has no label")
    batches = _batch.stack_instances(dataset, config.similarity)
    return _batch.dataset_value_and_grad(
        batches, params.theta, params.kernel_weights, config.lam,
        config.omega, want_grad=False,
    )[0]


def grad_loglik_wrt_L(L, y_star):
    """d log P(y*; L) / dL, treating every entry of L as independent.

    Equals the submatrix inverse (L_{y*})^{-1} zero-padded back to N x N,
    minus (L + I)^{-1}.  Raises DegenerateLabelError when L_{y*} is
    singular by the trainer's rule (``kernel.LABEL_SINGULAR_RTOL``).
    """
    mask = _label_mask(y_star, L.n_items)
    L_stack = L.matrix[None]
    _, singular, factor = _batch.label_terms(L_stack, _batch.label_groups(mask))
    if singular[0]:
        raise DegenerateLabelError(
            f"kernel submatrix for label {as_subset(y_star)} is numerically "
            "singular"
        )
    _, invB = _batch.resolvent_stack(L_stack)
    return _batch.label_inverse(L_stack, mask, singular, factor)[0] - invB[0]


def grad_margin_wrt_L(L, K, y_star, omega=1.0):
    """Gradient of the softmax margin term with respect to L.

    (1/A) * (L+I)^{-1} D (L+I)^{-1} with D diagonal: D_ii = 1 off the
    label, -omega on it.  Follows from dK_ii/dL = b_i b_i^T where b_i is
    the i-th column of (L+I)^{-1}.
    """
    if omega <= 0:
        raise ParameterError(f"omega must be positive, got {omega}")
    mask = _label_mask(y_star, L.n_items)
    A, _ = _batch.margin_mass(K.diagonal[None], mask, omega)
    if not A[0] > 0:
        raise NumericalError(f"margin-term mass must be positive, got {A[0]!r}")
    _, invB = _batch.resolvent_stack(L.matrix[None])
    return _batch.margin_grad(invB, mask, omega, A)[0]


def chain_L_to_params(instance, params, similarity, upstream):
    """Chain an N x N gradient dF/dL to (theta, kernel_weights) gradients.

    dF/dtheta_k = sum_ij U_ij L_ij (x_ik + x_jk); dF/dw_k contracts U
    against q_i q_j times the k-th base Gram matrix.  Returns the pair
    (g_theta, g_weights).
    """
    U = np.asarray(upstream, dtype=float)
    n = instance.n_items
    if U.shape != (n, n):
        raise ParameterError(
            f"upstream gradient has shape {U.shape}, expected {(n, n)}"
        )
    batch = _batch.stack_instances([instance], similarity)[0]
    q, L = _batch.build_L_stack(batch, params.theta, params.kernel_weights)
    # L is symmetric, so only the symmetric part of U enters either sum
    U = (0.5 * (U + U.T))[None]
    return (_batch.chain_to_theta(U, L, batch.X),
            _batch.chain_to_weights(kernel_stack(q, U), batch.grams))


def project_to_simplex(v):
    """Euclidean projection onto {w >= 0, sum(w) = 1}."""
    v = np.ravel(np.asarray(v, dtype=float))
    if v.size == 0:
        raise ParameterError("cannot project an empty vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ind = np.arange(1, v.size + 1)
    rho = np.count_nonzero(u - css / ind > 0)
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


@dataclass(frozen=True)
class FiniteDifferenceReport:
    analytic: np.ndarray
    numeric: np.ndarray
    rel_errors: np.ndarray

    @property
    def max_rel_error(self):
        return float(np.max(self.rel_errors)) if self.rel_errors.size else 0.0


def finite_difference_check(f, grad, x0, step=1e-5):
    """Compare an analytic gradient against central finite differences.

    ``f`` maps a flat parameter vector to a scalar and ``grad`` to its
    gradient.  Relative errors use max(|analytic|, |numeric|, 1e-8) as the
    denominator.  Raises NumericalError if ``f`` is non-finite anywhere it
    is evaluated.
    """
    x0 = np.ravel(np.asarray(x0, dtype=float))
    analytic = np.ravel(np.asarray(grad(x0), dtype=float))
    numeric = np.empty_like(x0)
    for k in range(x0.size):
        hi, lo = x0.copy(), x0.copy()
        hi[k] += step
        lo[k] -= step
        f_hi, f_lo = f(hi), f(lo)
        if not (math.isfinite(f_hi) and math.isfinite(f_lo)):
            raise NumericalError(
                f"objective is non-finite near coordinate {k}: {f_hi!r}, {f_lo!r}"
            )
        numeric[k] = (f_hi - f_lo) / (2.0 * step)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return FiniteDifferenceReport(analytic, numeric, np.abs(analytic - numeric) / denom)


def _clip(g, max_norm):
    norm = float(np.linalg.norm(g))
    if norm > max_norm:
        return g * (max_norm / norm)
    return g


def train(dataset, config, initial=None):
    """Fit parameters by block-alternating projected subgradient descent.

    Each outer iteration t runs ``ALTERNATION_BLOCK`` subgradient steps on
    theta, then the same number of projected steps on the kernel weights
    (skipped when there is a single base kernel, since the simplex then
    pins the weight at 1), with step ``STEP_SIZE / sqrt(t)``.  Steps use
    the average subgradient over instances, so ``STEP_SIZE`` is insensitive
    to dataset size, clipped to norm ``GRAD_CLIP``.  The hinge subgradient
    is zero whenever the bracket is nonpositive.

    Pass schedule, with B = ``ALTERNATION_BLOCK``: one pass at the
    starting point gives the first theta gradient.  Outer iteration t
    then makes B - 1 theta-gradient passes (its first step reuses the
    gradient it starts with), B weight-gradient passes when the weights
    are learned, and one pass at the new iterate that records the
    objective and computes the theta gradient for iteration t + 1.  T
    iterations thus cost 2BT + 1 passes with weights, BT + 1 without.

    Instances whose label submatrix is numerically singular (the label is
    impossible under a rank-deficient similarity, e.g. after label noise
    inflates a subset past the feature rank) contribute a finite jittered
    surrogate to the recorded objective and only the margin-term gradient;
    a warning reports how many instances were affected.  The rule looks
    at the unit-diagonal form of the label submatrix, so which labels are
    singular changes only with the kernel weights, and the surrogate is a
    smooth function of theta.

    The recorded ``objective_trace`` holds :func:`total_objective` after
    every outer iteration.
    """
    if not dataset:
        raise ParameterError("training dataset is empty")
    for pos, inst in enumerate(dataset):
        if inst.label is None:
            raise ParameterError(f"training instance {pos} has no label")
    d_q = dataset[0].quality_features.shape[1]
    if initial is None:
        initial = uniform_params(d_q, config.similarity)
    theta = np.array(initial.theta, dtype=float)
    weights = np.array(initial.kernel_weights, dtype=float)
    if weights.size != config.similarity.n_weights:
        raise ParameterError(
            f"initial params carry {weights.size} kernel weights, similarity "
            f"config expects {config.similarity.n_weights}"
        )

    batches = _batch.stack_instances(dataset, config.similarity)
    n_total = len(dataset)
    learn_weights = weights.size > 1
    trace = []
    converged = False
    warned_singular = False
    prev = None
    t = 0

    def evaluate(want_grad, iteration):
        """Objective and the clipped average gradient of one block."""
        nonlocal warned_singular
        context = f" (training iteration {iteration})"
        val, g_t, g_w, n_sing = _batch.dataset_value_and_grad(
            batches, theta, weights, config.lam, config.omega,
            want_grad=want_grad, context=context,
        )
        if n_sing and not warned_singular:
            logger.warning(
                "%d of %d training instances have numerically singular label "
                "submatrices (unit-diagonal form below the relative "
                "tolerance); using jittered objective surrogates and "
                "margin-term gradients for them", n_sing, n_total,
            )
            warned_singular = True
        g = g_t if want_grad == "theta" else g_w
        return val, _clip(g / n_total, GRAD_CLIP)

    # the theta gradient at the starting point, for the first step
    _, g_t = evaluate("theta", 1)
    for t in range(1, config.max_outer_iterations + 1):
        step = STEP_SIZE / math.sqrt(t)
        for k in range(ALTERNATION_BLOCK):
            if k:
                _, g_t = evaluate("theta", t)
            theta = theta - step * g_t
        if learn_weights:
            for _ in range(ALTERNATION_BLOCK):
                _, g_w = evaluate("weights", t)
                weights = project_to_simplex(weights - step * g_w)
        # the objective at this iterate, where the next iteration's first
        # theta step starts, so the same pass yields that step's gradient
        obj, g_t = evaluate("theta", t)
        trace.append(obj)
        if prev is not None and abs(prev - obj) <= config.rel_tolerance * max(
            1.0, abs(prev)
        ):
            converged = True
            break
        prev = obj

    params = ModelParams(theta, project_to_simplex(weights))
    return TrainResult(params, tuple(trace), converged, t)
