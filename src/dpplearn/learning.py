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
form of S_y (:func:`dpplearn.kernel.label_spectra`).  A singular label
has probability zero, and its instance adds lam * log A_n, its margin
term alone.  So the objective is a smooth function of theta whose
gradient is the derivative of its value, the set of singular labels
depends on the kernel weights alone, and a fit factors the labels once
per kernel-weight vector rather than once per pass
(:func:`dpplearn.batch.similarity_label_terms`).  Its relative change is
then a meaningful stopping test, over one step and over the last
``LBFGS_MEMORY`` steps (:class:`TrainConfig`).

Optimization is L-BFGS (Liu & Nocedal, Math. Programming 45, 1989) on
(theta, u), with kernel weights w = softmax(u), so they stay on the
simplex without a projection; a single base kernel's weight is pinned
at 1 and only theta is fitted.  Every objective evaluation is one pass
of :func:`dpplearn.batch.dataset_value_and_grad` over the training set,
which gives the value and the full gradient.  The optimizer's constants
are fixed (``LBFGS_MEMORY``, ``ARMIJO_C``, ``MAX_HALVINGS``);
:class:`TrainConfig` holds only the objective's lam and omega and the
two stopping rules, and ``max_outer_iterations`` T budgets 3T + 1
passes.
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


# L-BFGS: the number of curvature pairs kept, the sufficient-decrease
# constant of the Armijo test, and how many times a line search halves a
# step before it gives up.
LBFGS_MEMORY = 8
ARMIJO_C = 1e-4
MAX_HALVINGS = 30

# Why train stopped: the one-step or the stall test of rel_tolerance was
# met (or the start was stationary), the pass budget ran out, or no step
# passed the Armijo test.
STOP_REASONS = ("tolerance", "budget", "no_step")


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
        T: :func:`train` makes at most 3T + 1 passes over the data.
    rel_tolerance : float
        tau, 1e-9 by default.  Stop, with ``converged`` True, after the
        first accepted step k that meets either of two tests on the
        objectives f_k.  The one-step test: f_k differs from f_{k-1} by
        at most ``tau * max(1, |f_{k-1}|)``.  The stall test, for
        k > M = ``LBFGS_MEMORY``: the last M steps gained at most
        ``sqrt(tau) * max(1, |f_k|)``, f_{k-M} - f_k.  A joint fit's
        tail creeps along weights near 0, and the stall test ends it.
    """

    similarity: SimilarityConfig = field(default_factory=SimilarityConfig)
    lam: float = 0.0
    omega: float = 1.0
    max_outer_iterations: int = 40
    rel_tolerance: float = 1e-9

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
    """A fit: its parameters, the objective after every accepted step (or
    at the start, when there was none), whether the tolerance was met, the
    number of accepted steps, and why it stopped: one of
    ``STOP_REASONS``, by default "tolerance" when ``converged``, else
    "budget"."""

    params: ModelParams
    objective_trace: tuple
    converged: bool
    iterations_used: int
    stop_reason: str = None

    def __post_init__(self):
        if self.stop_reason is None:
            object.__setattr__(self, "stop_reason",
                               "tolerance" if self.converged else "budget")
        if self.stop_reason not in STOP_REASONS:
            raise ParameterError(f"unknown stop reason {self.stop_reason!r}")
        if self.converged != (self.stop_reason == "tolerance"):
            raise ParameterError(
                f"converged={self.converged} contradicts stop reason "
                f"{self.stop_reason!r}")


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
    numerically singular (``kernel.LABEL_SINGULAR_RTOL``) has probability
    zero and scores lam * softmax_margin_term, unclipped: 0 at lam = 0.
    """
    return total_objective(params, [instance], config)


def total_objective(params, dataset, config):
    """Hinge objective summed over a dataset (0 when empty).

    Each instance adds its :func:`instance_objective`: the hinge
    [ -log P(y; L) + lam * log A ]_+, or lam * log A alone when its label
    is singular.  The value :func:`train` records in ``objective_trace``.
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
    _, singular, factor = _batch.label_terms(L_stack, mask)
    if singular[0]:
        raise DegenerateLabelError(
            f"kernel submatrix for label {as_subset(y_star)} is numerically "
            "singular"
        )
    _, invB = _batch.resolvent_stack(L_stack)
    return _batch.label_inverse(factor, mask)[0] - invB[0]


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


def _softmax(u):
    e = np.exp(u - np.max(u))
    return e / np.sum(e)


def _lbfgs_direction(g, pairs):
    """-H g by the two-loop recursion over the curvature pairs (s, y, 1/s.y),
    with H_0 = (s.y / y.y) I from the newest pair; -g when there is none."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        a = rho * (s @ q)
        q -= a * y
        alphas.append(a)
    if pairs:
        s, y, rho = pairs[-1]
        q *= 1.0 / (rho * (y @ y))
    for (s, y, rho), a in zip(pairs, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    return -q


def train(dataset, config, initial=None):
    """Fit parameters by L-BFGS on the hinge objective.

    The objective is :func:`total_objective`: over instances, the hinge
    [ -log P(y_n) + lam * log A_n ]_+, where an instance whose label
    submatrix is numerically singular (the label is impossible under a
    rank-deficient similarity, e.g. after label noise inflates a subset
    past the feature rank) adds lam * log A_n, its margin term alone, 0
    at lam = 0; a warning reports how many instances that is.  The
    gradient of every pass is the derivative of that value.

    The variables are theta and, with more than one base kernel, u with
    kernel weights softmax(u), starting from u = log w (a zero weight
    starts at the log of the smallest normal double).  A single kernel's
    weight is 1.  Each iteration takes the L-BFGS direction
    (``LBFGS_MEMORY`` pairs) and an Armijo backtracking line search
    (``ARMIJO_C``) from step 1, halving the step on failure; the first
    direction, and any direction after the memory is reset, is -g with
    step 1 / ||g||.  A trial point that raises NumericalError (its
    qualities overflow, say) or has a non-finite value fails the test.
    When ``MAX_HALVINGS`` halvings find no step, the memory is cleared
    and the line search retried along -g; when that fails too, the fit
    stops with reason "no_step".  A pair with s . y <= 0 is not kept.

    Every pass, at the start and at each trial point, is one call of
    :func:`dpplearn.batch.dataset_value_and_grad`, and a fit makes at most
    3T + 1 passes for T = ``max_outer_iterations``; the fit stops with
    reason "budget" when the next trial would exceed that.  It stops with
    reason "tolerance", and ``converged`` True, after the first accepted
    step that meets the one-step or the stall test of ``rel_tolerance``
    (see :class:`TrainConfig`): its objective changed by at most
    ``rel_tolerance`` relative, or the last ``LBFGS_MEMORY`` steps
    together by at most its square root; or at once when the gradient
    is zero.
    ``objective_trace`` holds :func:`total_objective` at every accepted
    iterate, so it never increases, or the starting value alone when no
    step was accepted; ``iterations_used`` counts the accepted steps.
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
    learn_weights = weights.size > 1
    if learn_weights:
        x = np.concatenate(
            [theta, np.log(np.maximum(weights, np.finfo(float).tiny))])
    else:
        x = theta
    budget = 3 * config.max_outer_iterations + 1
    passes = 0

    def split(x):
        if learn_weights:
            return x[:d_q], _softmax(x[d_q:])
        return x, np.ones(1)

    def evaluate(x):
        """Objective, gradient in x and singular count of one pass."""
        nonlocal passes
        passes += 1
        theta, weights = split(x)
        val, g_t, g_w, n_sing = _batch.dataset_value_and_grad(
            batches, theta, weights, config.lam, config.omega)
        if learn_weights:
            # d/du of F(softmax(u)) = w * (g_w - w . g_w)
            return val, np.concatenate([g_t, weights * (g_w - weights @ g_w)]), n_sing
        return val, g_t, n_sing

    f, g, n_sing = evaluate(x)
    if n_sing:
        logger.warning(
            "%d of %d training instances have numerically singular label "
            "submatrices (unit-diagonal form below the relative tolerance); "
            "scoring them by their margin term alone", n_sing, len(dataset),
        )
    trace = []
    pairs = []
    reason = None
    while reason is None:
        gnorm = float(np.linalg.norm(g))
        if gnorm == 0.0:
            reason = "tolerance"
            break
        d = _lbfgs_direction(g, pairs)
        slope = float(g @ d)
        if not slope < 0.0:  # not a descent direction: restart from -g
            pairs.clear()
            d, slope = -g, -gnorm * gnorm
        step = 1.0 if pairs else 1.0 / gnorm
        accepted = None
        for _ in range(MAX_HALVINGS + 1):
            if passes >= budget:
                reason = "budget"
                break
            x_new = x + step * d
            try:
                f_new, g_new, _ = evaluate(x_new)
            except NumericalError:
                f_new = math.nan
            if math.isfinite(f_new) and f_new <= f + ARMIJO_C * step * slope:
                accepted = x_new
                break
            step *= 0.5
        if accepted is None:
            if reason is None and pairs:
                pairs.clear()  # retry along -g with a fresh memory
                continue
            reason = reason or "no_step"
            break
        s_k, y_k = accepted - x, g_new - g
        sy = float(s_k @ y_k)
        if sy > 0.0:
            pairs.append((s_k, y_k, 1.0 / sy))
            del pairs[:-LBFGS_MEMORY]
        trace.append(f_new)
        # the one-step test, then the stall test over the last M steps
        if (abs(f - f_new) <= config.rel_tolerance * max(1.0, abs(f))
                or len(trace) > LBFGS_MEMORY
                and trace[-1 - LBFGS_MEMORY] - f_new
                <= math.sqrt(config.rel_tolerance) * max(1.0, abs(f_new))):
            reason = "tolerance"
        x, f, g = accepted, f_new, g_new

    steps = len(trace)
    if not trace:
        trace.append(f)
    theta, weights = split(x)
    return TrainResult(ModelParams(theta, weights), tuple(trace),
                       reason == "tolerance", steps, reason)
