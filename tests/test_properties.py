"""Property tests of the trainer and the engine on small random problems
(hypothesis), against the brute-force oracles of ``tests/oracles.py``."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    all_subsets,
    consensus_reference,
    det_sub,
    hinge_reference,
    kernel_reference,
    log_probability_reference,
    loss_weighted_mass,
    map_exhaustive_reference,
)

from dpplearn import (
    EnsembleKernel,
    GroundSetInstance,
    ModelParams,
    SimilarityConfig,
    TrainConfig,
    map_exhaustive,
    total_objective,
    train,
)
from dpplearn import batch as batch_mod
from dpplearn import learning
from dpplearn.inference import consensus_scores
from dpplearn.kernel import LABEL_SINGULAR_RTOL, uniform_params

D_Q, D_S = 2, 2


@st.composite
def problems(draw):
    """A small labeled dataset and a TrainConfig to fit it with."""
    n_items = draw(st.integers(1, 6))
    n_instances = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = []
    for _ in range(n_instances):
        size = int(rng.integers(1, n_items + 1))
        label = tuple(sorted(rng.choice(n_items, size=size, replace=False).tolist()))
        data.append(GroundSetInstance(0.6 * rng.standard_normal((n_items, D_Q)),
                                      rng.standard_normal((n_items, D_S)), label))
    bandwidths = draw(st.lists(st.sampled_from((0.5, 1.0, 2.0, 4.0)),
                               min_size=1, max_size=3, unique=True))
    similarity = SimilarityConfig(bandwidths=tuple(bandwidths),
                                  include_linear=draw(st.booleans()))
    config = TrainConfig(
        similarity=similarity,
        lam=draw(st.floats(0.0, 10.0)),
        omega=2.0 ** draw(st.floats(-3.0, 3.0)),
        max_outer_iterations=draw(st.integers(1, 30)),
        rel_tolerance=draw(st.sampled_from((1e-3, 1e-6, 1e-9, 1e-12))),
    )
    return data, config


def meets_a_test(f, k, tau):
    """Whether accepted step k passes the one-step or the stall test, with
    f[0] the start value and f[j] the objective after step j."""
    M = learning.LBFGS_MEMORY
    one_step = abs(f[k - 1] - f[k]) <= tau * max(1.0, abs(f[k - 1]))
    stall = k > M and f[k - M] - f[k] <= math.sqrt(tau) * max(1.0, abs(f[k]))
    return one_step or stall


def gradient_is_zero(params, data, config):
    """Whether the trainer's gradient in (theta, u) vanishes at ``params``."""
    batches = batch_mod.stack_instances(data, config.similarity)
    w = params.kernel_weights
    _, g_t, g_w, _ = batch_mod.dataset_value_and_grad(
        batches, params.theta, w, config.lam, config.omega)
    g_u = w * (g_w - w @ g_w) if w.size > 1 else np.zeros(0)
    return not (np.any(g_t) or np.any(g_u))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(problems())
def test_fit_stops_at_the_first_step_that_meets_a_test(problem):
    data, config = problem
    start = total_objective(uniform_params(D_Q, config.similarity), data, config)
    result = train(data, config)
    k = result.iterations_used
    f = (start,) + (result.objective_trace if k else ())
    tau = config.rel_tolerance
    # no step before the last meets either test
    assert not any(meets_a_test(f, j, tau) for j in range(1, k))
    if result.stop_reason == "tolerance":
        # the last step met a test, or the fit stopped where g = 0
        assert ((k and meets_a_test(f, k, tau))
                or gradient_is_zero(result.params, data, config))
    else:
        assert not (k and meets_a_test(f, k, tau))


@st.composite
def hinge_problems(draw):
    """One item count's instances, some with a duplicated item, labels of
    every size from empty to full, and a random point of parameter space."""
    n_items = draw(st.integers(1, 6))
    bandwidths = draw(st.lists(st.sampled_from((0.5, 1.0, 2.0)),
                               max_size=3, unique=True))
    similarity = SimilarityConfig(bandwidths=tuple(bandwidths),
                                  include_linear=draw(st.booleans()) or not bandwidths)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = []
    for _ in range(draw(st.integers(1, 8))):
        phi = rng.standard_normal((n_items, D_S))
        if n_items > 1 and rng.random() < 0.3:
            phi[1] = phi[0]
        size = int(rng.integers(0, n_items + 1))
        label = tuple(sorted(rng.choice(n_items, size=size, replace=False).tolist()))
        data.append(GroundSetInstance(0.6 * rng.standard_normal((n_items, D_Q)),
                                      phi, label))
    weights = rng.uniform(0.1, 1.0, similarity.n_weights)
    params = ModelParams(0.5 * rng.standard_normal(D_Q), weights / weights.sum())
    return data, similarity, params, draw(st.floats(0.0, 10.0)), \
        2.0 ** draw(st.floats(-6.0, 6.0))


def label_is_singular(L, y):
    """Whether the library calls label y of kernel L singular, rejecting
    the example unless y stands clear of its threshold on either side."""
    if not y:
        return False
    d = np.sqrt(np.diag(L)[list(y)])
    evals = np.linalg.eigvalsh(L[np.ix_(y, y)] / np.outer(d, d))
    ratio = evals[0] / evals[-1]
    assume(ratio < 1e-3 * LABEL_SINGULAR_RTOL or ratio > 1e3 * LABEL_SINGULAR_RTOL)
    return ratio < LABEL_SINGULAR_RTOL


def hinge_term_reference(L, y, lam, omega):
    """One instance's term of the hinge objective: ``hinge_reference``, or
    lam * log A alone when the label's submatrix is singular."""
    if label_is_singular(L, y):
        return lam * math.log(loss_weighted_mass(L, y, omega))
    return hinge_reference(L, y, lam, omega)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(hinge_problems())
def test_hinge_value_is_the_sum_of_reference_terms(problem):
    data, similarity, params, lam, omega = problem
    want = sum(hinge_term_reference(kernel_reference(inst, params, similarity),
                                    inst.label, lam, omega) for inst in data)
    (b,) = batch_mod.stack_instances(data, similarity)
    value, _, _, _ = batch_mod.hinge_terms(b, params.theta, params.kernel_weights,
                                           lam, omega, want_grad=False)
    assert value == pytest.approx(want, rel=1e-9, abs=1e-9)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(hinge_problems())
def test_hinge_gradient_is_the_derivative_of_its_value(problem):
    data, similarity, params, lam, omega = problem
    for inst in data:
        L = kernel_reference(inst, params, similarity)
        if not label_is_singular(L, inst.label):
            # the hinge's argument, clear of its kink at 0
            z = -log_probability_reference(L, inst.label)
            if lam > 0:
                z += lam * math.log(loss_weighted_mass(L, inst.label, omega))
            assume(abs(z) > 1e-3)
    (b,) = batch_mod.stack_instances(data, similarity)

    def value(theta, weights):
        return batch_mod.hinge_terms(b, theta, weights, lam, omega,
                                     want_grad=False)[0]

    theta, weights = params.theta, params.kernel_weights
    _, g_theta, g_weights, _ = batch_mod.hinge_terms(b, theta, weights, lam, omega)
    h = 1e-6
    fd = [(value(theta + e, weights) - value(theta - e, weights)) / (2 * h)
          for e in h * np.eye(theta.size)]
    scale = 1e-6 * max(1.0, abs(value(theta, weights)))
    np.testing.assert_allclose(g_theta, fd, rtol=1e-5, atol=scale)
    if weights.size > 1:
        fd = [(value(theta, weights + e) - value(theta, weights - e)) / (2 * h)
              for e in h * np.eye(weights.size)]
        np.testing.assert_allclose(g_weights, fd, rtol=1e-5, atol=scale)
    else:
        assert g_weights is None


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.lists(st.lists(st.integers(0, 3) | st.integers(60, 70), unique=True)
                .map(tuple), min_size=1, max_size=40))
def test_consensus_scores_equal_the_dense_reference(samples):
    # items past 63 take a second membership word; tuples come in any order
    np.testing.assert_allclose(consensus_scores(samples),
                               consensus_reference(samples), rtol=1e-12, atol=0)


@st.composite
def kernel_stacks(draw):
    """PSD kernels of one item count, of full rank or not, at scales that
    leave MAP subsets of every size, some with a duplicated item."""
    n_items = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 6))
    A = rng.standard_normal((n, n_items, draw(st.integers(1, n_items + 2))))
    if n_items > 1 and draw(st.booleans()):
        A[:, 1] = A[:, 0]
    scale = np.exp(rng.uniform(-1.0, 2.0, n)) / A.shape[-1]
    return scale[:, None, None] * (A @ np.swapaxes(A, 1, 2))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(kernel_stacks())
def test_map_stack_attains_the_reference_value(L_stack):
    for L, got in zip(L_stack, batch_mod.map_exhaustive_stack(L_stack)):
        want = map_exhaustive_reference(L)
        assert det_sub(L, got) == pytest.approx(det_sub(L, want), rel=1e-9)
        # the subset too, where the best value stands clear of every other
        vals = sorted((det_sub(L, y) for y in all_subsets(L.shape[0])), reverse=True)
        if len(vals) == 1 or vals[1] < (1.0 - 1e-9) * vals[0]:
            assert got == want


@st.composite
def padded_kernels(draw):
    """A PSD kernel on at most 7 items, and a copy padded with zero items
    to at most 30, with the positions its items took."""
    core = draw(kernel_stacks())[0]
    N = core.shape[0] + draw(st.integers(0, 30 - core.shape[0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    at = np.sort(rng.choice(N, core.shape[0], replace=False))
    L = np.zeros((N, N))
    L[np.ix_(at, at)] = core
    return core, L, at


@settings(derandomize=True, deadline=None, max_examples=100)
@given(padded_kernels())
def test_zero_items_leave_the_map_subset_in_place(case):
    core, L, at = case
    want = map_exhaustive(EnsembleKernel.from_matrix(core))
    assert map_exhaustive(EnsembleKernel.from_matrix(L)) == tuple(at[list(want)].tolist())
