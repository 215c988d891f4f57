"""Property tests of the trainer on small random problems (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplearn import (
    GroundSetInstance,
    SimilarityConfig,
    TrainConfig,
    total_objective,
    train,
)
from dpplearn import batch as batch_mod
from dpplearn import learning
from dpplearn.kernel import uniform_params

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
