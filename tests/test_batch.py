"""The vectorized engine must agree with independent per-instance oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import RBF_SIM, make_instance
from oracles import (
    chain_reference,
    hinge_reference,
    kernel_reference,
    log_probability_reference,
    loglik_grad_reference,
    loss_weighted_mass,
    map_exhaustive_reference,
    margin_grad_reference,
    project_to_simplex,
    resolvent_reference,
)

from dpplearn import (
    TRUE_SIMILARITY,
    DegenerateLabelError,
    GroundSetInstance,
    ModelParams,
    NotPositiveSemidefiniteError,
    NumericalError,
    ParameterError,
    SimilarityConfig,
    SynthConfig,
    TrainConfig,
    build_kernel,
    generate_dataset,
    grad_loglik_wrt_L,
    instance_objective,
    log_probability,
    total_objective,
)
from dpplearn import batch as batch_mod
from dpplearn.batch import (
    build_L_stack,
    cholesky_stack,
    dataset_value_and_grad,
    hinge_terms,
    label_terms,
    map_exhaustive_stack,
    resolvent_stack,
    similarity_label_terms,
    stack_instances,
)
from dpplearn.harness import DEFAULT_SIGMA_GRID, FIG1C_SIMILARITY
from dpplearn.kernel import (
    LABEL_SINGULAR_RTOL,
    label_spectra,
    log_subset_det,
    similarity_stack,
)
from dpplearn.learning import finite_difference_check

# the fig1c bank: one RBF per bandwidth of the default grid
FIG1C_BANK = SimilarityConfig(bandwidths=DEFAULT_SIGMA_GRID, include_linear=False)


@pytest.fixture
def dataset(rng):
    return [
        make_instance(rng, n=6, label_size=int(rng.integers(0, 5)))
        for _ in range(30)
    ]


def test_value_matches_total_objective(rng, dataset):
    theta = 0.4 * rng.standard_normal(3)
    weights = project_to_simplex(rng.random(3))
    params = ModelParams(theta, weights)
    config = TrainConfig(similarity=RBF_SIM, lam=1.5, omega=2.0)
    batches = stack_instances(dataset, RBF_SIM)
    val, _, _, n_sing = dataset_value_and_grad(
        batches, theta, weights, config.lam, config.omega, want_grad=False
    )
    assert n_sing == 0
    ref = sum(
        hinge_reference(kernel_reference(inst, params, RBF_SIM), inst.label,
                        config.lam, config.omega)
        for inst in dataset
    )
    assert val == pytest.approx(ref, rel=1e-12)


def test_gradient_matches_per_instance_chain(rng, dataset):
    theta = 0.4 * rng.standard_normal(3)
    weights = project_to_simplex(rng.random(3))
    params = ModelParams(theta, weights)
    lam, omega = 1.5, 2.0
    batches = stack_instances(dataset, RBF_SIM)
    _, g_t, g_w, _ = dataset_value_and_grad(batches, theta, weights, lam, omega)

    ref_t, ref_w = np.zeros(3), np.zeros(3)
    for inst in dataset:
        L = kernel_reference(inst, params, RBF_SIM)
        if hinge_reference(L, inst.label, lam, omega) <= 0:
            continue
        U = -loglik_grad_reference(L, inst.label) + lam * margin_grad_reference(
            L, inst.label, omega
        )
        a, b = chain_reference(inst, params, RBF_SIM, U)
        ref_t += a
        ref_w += b
    assert np.max(np.abs(g_t - ref_t)) < 1e-10
    assert np.max(np.abs(g_w - ref_w)) < 1e-10


def test_mixed_item_counts_are_grouped(rng):
    data = [make_instance(rng, n=n) for n in (4, 6, 4, 5, 6, 6)]
    batches = stack_instances(data, RBF_SIM)
    assert sorted(b.n_items for b in batches) == [4, 5, 6]
    assert sum(b.n for b in batches) == len(data)
    positions = sorted(int(i) for b in batches for i in b.indices)
    assert positions == list(range(len(data)))
    # similarity features of another dimension go into a batch of their own
    data.append(make_instance(rng, n=4, d_s=2))
    batches = stack_instances(data, RBF_SIM)
    assert sorted(b.n_items for b in batches) == [4, 4, 5, 6]
    assert [b.indices.tolist() for b in batches if b.n_items == 4] == [[6], [0, 2]]


def test_map_stack_matches_public_op(rng):
    data = [make_instance(rng, n=6) for _ in range(15)]
    theta = 0.3 * rng.standard_normal(3)
    weights = project_to_simplex(rng.random(3))
    params = ModelParams(theta, weights)
    batch = stack_instances(data, RBF_SIM)[0]
    _, L_stack = build_L_stack(batch, theta, weights)
    got = map_exhaustive_stack(L_stack)
    for row, inst in enumerate(data):
        assert got[row] == map_exhaustive_reference(
            kernel_reference(inst, params, RBF_SIM)
        )


def test_singular_labels_counted_not_fatal(rng):
    # identical items in the label make L_y exactly singular
    phi = np.vstack([np.ones(3), np.ones(3), rng.standard_normal(3)])
    x = 0.1 * rng.standard_normal((3, 2))
    inst = GroundSetInstance(x, phi, label=(0, 1))
    sim = SimilarityConfig(bandwidths=(1.0,), include_linear=False)
    batches = stack_instances([inst], sim)
    val, g_t, g_w, n_sing = dataset_value_and_grad(
        batches, np.zeros(2), np.ones(1), 0.0, 1.0
    )
    assert n_sing == 1
    # an impossible label scores its margin term alone: 0 under maximum
    # likelihood, and 2 log A at lam = 2
    assert val == 0.0
    assert not g_t.any()  # likelihood gradient dropped under maximum likelihood
    assert g_w is None  # one base kernel: its weight is pinned at 1
    val2, g_t2, _, _ = dataset_value_and_grad(
        batches, np.zeros(2), np.ones(1), 2.0, 1.0
    )
    L = kernel_reference(inst, ModelParams(np.zeros(2), np.ones(1)), sim)
    assert val2 == pytest.approx(2.0 * np.log(loss_weighted_mass(L, (0, 1), 1.0)),
                                 rel=1e-12)
    assert g_t2.any()  # margin-term gradient still flows when lam > 0


def test_log_probability_consistency(rng, dataset):
    theta = 0.4 * rng.standard_normal(3)
    weights = project_to_simplex(rng.random(3))
    params = ModelParams(theta, weights)
    batch = stack_instances(dataset, RBF_SIM)[0]
    _, L_stack = build_L_stack(batch, theta, weights)
    for row, inst in enumerate(dataset):
        L = kernel_reference(inst, params, RBF_SIM)
        assert np.max(np.abs(L_stack[row] - L)) < 1e-12
        assert log_probability_reference(L, inst.label) < 0


@pytest.mark.parametrize("delta", [1e-10, 1e-6])
def test_one_singular_label_rule(delta):
    # label eigenvalues delta and 2 - delta: singular below 1e-8 relative.
    # Linear similarity on Cholesky rows at unit quality gives that kernel.
    M = np.array([[1.0, 1.0 - delta, 0.0],
                  [1.0 - delta, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    inst = GroundSetInstance(np.zeros((3, 1)), np.linalg.cholesky(M), (0, 1))
    params = ModelParams(np.zeros(1), np.ones(1))
    L = build_kernel(inst, params, TRUE_SIMILARITY)
    assert np.max(np.abs(L.matrix - M)) < 1e-15
    mask = np.array([[True, True, False]])
    _, singular, _ = label_terms(L.matrix[None], mask)
    assert singular[0] == (delta < 2e-8)
    objective = instance_objective(
        params, inst, TrainConfig(similarity=TRUE_SIMILARITY, lam=0.0)
    )
    assert np.isfinite(objective)
    if singular[0]:
        with pytest.raises(DegenerateLabelError):
            grad_loglik_wrt_L(L, (0, 1))
        assert log_probability(L, (0, 1)) == -np.inf
    else:
        assert np.all(np.isfinite(grad_loglik_wrt_L(L, (0, 1))))
        assert -log_probability(L, (0, 1)) == pytest.approx(objective, rel=1e-12)


def test_objective_is_continuous_in_theta():
    # seed-0 linear data: noisy labels of more than 5 items are singular
    ds = generate_dataset(SynthConfig(seed=0))
    data = list(ds.train)
    config = TrainConfig(lam=1.0)
    batches = stack_instances(data, TRUE_SIMILARITY)
    assert dataset_value_and_grad(batches, ds.true_theta, np.ones(1), 1.0, 1.0,
                                  False)[3] > 0
    value = total_objective(ModelParams(ds.true_theta, np.ones(1)), data, config)
    for factor in (1.0 + 1e-13, 1.0 - 1e-13):
        moved = total_objective(ModelParams(factor * ds.true_theta, np.ones(1)),
                                data, config)
        assert abs(moved - value) <= 1e-9 * abs(value)


def test_label_rule_ignores_the_quality_scale(rng):
    # rank-3 linear similarity: labels of more than 3 items are singular
    data = [make_instance(rng, n=6, label_size=int(rng.integers(1, 6)))
            for _ in range(40)]
    batch = stack_instances(data, TRUE_SIMILARITY)[0]
    _, L = build_L_stack(batch, 0.4 * rng.standard_normal(3), np.ones(1))
    logdet, singular, _ = label_terms(L, batch.mask)
    assert 0 < np.count_nonzero(singular) < len(data)
    log_c = rng.uniform(-7.0, 7.0, size=(len(data), 6))
    c = np.exp(log_c)
    scaled_logdet, scaled_singular, _ = label_terms(
        c[:, :, None] * c[:, None, :] * L, batch.mask)
    assert np.array_equal(scaled_singular, singular)
    shift = 2.0 * np.sum(log_c, axis=1, where=batch.mask)
    ok = ~singular
    assert np.allclose(scaled_logdet[ok], logdet[ok] + shift[ok], rtol=1e-12,
                       atol=1e-12)


def test_cached_label_logdets_are_log_subset_det(rng):
    data = [make_instance(rng, n=6, label_size=int(rng.integers(1, 6)))
            for _ in range(40)]
    theta = 0.4 * rng.standard_normal(3)
    for similarity, weights in ((TRUE_SIMILARITY, np.ones(1)),
                                (RBF_SIM, project_to_simplex(rng.random(3)))):
        batch = stack_instances(data, similarity)[0]
        hinge_terms(batch, theta, weights, 1.0, 1.0, False)
        assert batch.label_cache is not None
        terms = similarity_label_terms(batch, weights)
        assert terms is batch.label_cache
        assert np.array_equal(terms.S, similarity_stack(batch.grams, weights))
        logdet_S, singular = terms.logdet, terms.singular
        logdet = logdet_S + 2.0 * np.sum(batch.X @ theta, axis=1,
                                         where=batch.mask)
        _, L = build_L_stack(batch, theta, weights)
        for row, inst in enumerate(data):
            ref = log_subset_det(L[row], inst.label)
            if singular[row]:
                assert ref == -np.inf
            else:
                assert logdet[row] == pytest.approx(ref, rel=1e-12)


def test_zero_diagonal_label_is_singular():
    # a zero similarity-feature row gives a zero row of the linear Gram
    phi = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.0]])
    x = np.array([[0.5], [-0.2], [0.1]])
    params = ModelParams(np.array([0.7]), np.ones(1))
    L = build_kernel(GroundSetInstance(x, phi), params, TRUE_SIMILARITY)
    assert L.matrix[0, 0] == 0.0
    for label in ((0,), (0, 1)):
        inst = GroundSetInstance(x, phi, label)
        mask = np.zeros((1, 3), dtype=bool)
        mask[0, list(label)] = True
        logdet, singular, _ = label_terms(L.matrix[None], mask)
        assert singular[0] and logdet[0] == -np.inf
        assert log_probability(L, label) == -np.inf
        with pytest.raises(DegenerateLabelError):
            grad_loglik_wrt_L(L, label)
        for lam in (0.0, 1.0):
            config = TrainConfig(similarity=TRUE_SIMILARITY, lam=lam)
            assert np.isfinite(instance_objective(params, inst, config))


@pytest.mark.parametrize("similarity", [FIG1C_BANK, TRUE_SIMILARITY, RBF_SIM],
                         ids=["rbf-bank", "linear", "rbf-and-linear"])
def test_build_kernel_is_the_stack_row(rng, dataset, similarity):
    theta = 0.4 * rng.standard_normal(3)
    weights = project_to_simplex(rng.random(similarity.n_weights))
    params = ModelParams(theta, weights)
    _, L_stack = build_L_stack(stack_instances(dataset, similarity)[0], theta, weights)
    for row, inst in enumerate(dataset):
        assert np.array_equal(build_kernel(inst, params, similarity).matrix,
                              L_stack[row])


def _peak_bytes(fn, *args):
    """fn(*args) and the peak bytes that tracemalloc saw allocated by it,
    measured on a second call so that one-time caches do not count."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Array headers, frames and the result list of a walk split down to single
# items, on top of the numbers the budget covers
MAP_OBJECT_BYTES = 16 << 10


def test_map_stack_chunks_agree_and_return_ints(rng, monkeypatch):
    data = [make_instance(rng, n=7) for _ in range(5)]
    batch = stack_instances(data, RBF_SIM)[0]
    _, L_stack = build_L_stack(batch, 0.3 * rng.standard_normal(3),
                               project_to_simplex(rng.random(3)))
    # two identical items 0 and 1: {0, 2} and {1, 2} tie, {0, 1} is singular
    dup = np.array([[2.0, 2.0, 0.0], [2.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    whole = map_exhaustive_stack(L_stack)
    assert map_exhaustive_stack(dup[None]) == [(0, 2)]

    for budget in (1, 500):
        monkeypatch.setattr(batch_mod, "MAP_CHUNK_BYTES", budget)
        chunked, peak = _peak_bytes(map_exhaustive_stack, L_stack)
        assert chunked == whole
        assert all(type(i) is int for y in chunked for i in y)
        assert peak <= max(budget, 7 * 7 * 8) + MAP_OBJECT_BYTES
        assert map_exhaustive_stack(dup[None]) == [(0, 2)]


def _psd_stack(rng, n, N, rank=None):
    """n random PSD kernels on N items whose MAP sizes vary across the stack."""
    A = rng.standard_normal((n, N, rank or N + 2))
    scale = np.exp(rng.uniform(-1.0, 2.0, n)) / A.shape[-1]
    return scale[:, None, None] * (A @ np.swapaxes(A, 1, 2))


def _assert_map_is_oracle(L_stack):
    got = map_exhaustive_stack(L_stack)
    assert got == [map_exhaustive_reference(L) for L in L_stack]
    return got


@pytest.mark.parametrize("N", range(1, 11))
def test_map_stack_matches_oracle_on_random_psd(N):
    rng = np.random.default_rng(N)
    got = _assert_map_is_oracle(_psd_stack(rng, 12, N))
    if N >= 4:
        assert len({len(y) for y in got}) > 1


def test_map_stack_on_rank_deficient_kernels():
    # rank 3 at N = 8: every subset of more than 3 items is singular
    got = _assert_map_is_oracle(_psd_stack(np.random.default_rng(3), 30, 8, rank=3))
    assert max(len(y) for y in got) <= 3


def test_map_stack_on_zero_kernels_among_others():
    L = _psd_stack(np.random.default_rng(4), 6, 5)
    L[[1, 4]] = 0.0
    got = _assert_map_is_oracle(L)
    assert got[1] == got[4] == ()


def test_map_stack_with_duplicate_items():
    # items 1 and 2 copy item 0, item 4 copies item 3: a subset and its
    # swaps among copies tie exactly, and the lexicographically first wins
    copies = [0, 0, 0, 1, 1, 2, 3]
    L = _psd_stack(np.random.default_rng(5), 30, 4)[:, copies][:, :, copies]
    got = _assert_map_is_oracle(L)
    for y in got:
        assert len(set(y) & {0, 1, 2}) <= 1 and len(set(y) & {3, 4}) <= 1
        assert not set(y) & {1, 2, 4}


def test_map_stack_ties_go_to_smaller_then_lexicographically_first():
    c = 0.45  # a 4-cycle 0-1-3-2-0: only {0, 3} and {1, 2} are uncorrelated
    cycle = 1.5 * np.array([[1.0, c, c, 0.0], [c, 1.0, 0.0, c],
                            [c, 0.0, 1.0, c], [0.0, c, c, 1.0]])
    two_pairs = 2.0 * np.kron(np.eye(2), np.ones((2, 2)))
    cases = [
        (np.eye(4), ()),  # every subset ties the empty set
        (np.diag([2.0, 1.0, 2.0, 0.5]), (0, 2)),  # ties {0, 1, 2}
        (3.0 * np.ones((2, 2)), (0,)),
        (two_pairs, (0, 2)),  # ties (0, 3), (1, 2), (1, 3)
        (cycle, (0, 3)),  # ties (1, 2), whose last item is smaller
    ]
    for L, want in cases:
        assert map_exhaustive_stack(L[None]) == [want]
        assert map_exhaustive_reference(L) == want


def test_map_stack_at_the_eligibility_boundary():
    # uncorrelated items: an item at L_ii = 1 ties the subset without it,
    # which wins.  One just above 1 adds log L_ii = 2.2e-16, which a sum
    # already holding log 2 rounds away, so it is kept only beside its kind
    one, below, above = 1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
    rng = np.random.default_rng(12)
    diags = rng.choice([one, below, above, 2.0, 0.5], size=(40, 7))
    diags[0], diags[1], diags[2] = one, below, above
    got = _assert_map_is_oracle(np.stack([np.diag(d) for d in diags]))
    assert got[:3] == [(), (), tuple(range(7))]
    for y, d in zip(got, diags):
        assert set(np.nonzero(d == 2.0)[0].tolist()) <= set(y)
        assert all(d[i] > 1.0 for i in y)

    # the same diagonals on correlated kernels: unit-diagonal forms with
    # off-diagonal entries up to 0.9 in magnitude
    A = rng.standard_normal((40, 7, 3))
    R = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(7)
    r = np.sqrt(np.diagonal(R, axis1=1, axis2=2))
    s = np.sqrt(diags) / r
    L = s[:, :, None] * R * s[:, None, :]
    L[:, np.arange(7), np.arange(7)] = diags  # exact, not rounded by scaling
    assert np.all(np.linalg.eigvalsh(L)[:, 0] > 0)
    for y, d in zip(_assert_map_is_oracle(L), diags):
        assert all(d[i] > 1.0 for i in y)


def test_map_stack_on_strongly_correlated_eligible_items():
    # every item eligible, pairs correlated up to 0.999: each MAP subset
    # keeps few of them, and the near-duplicates pick the first copy
    rng = np.random.default_rng(13)
    base = _psd_stack(rng, 30, 4)
    copies = [0, 0, 1, 1, 2, 3, 3]
    L = base[:, copies][:, :, copies]
    L += 1e-3 * np.einsum("nii->ni", base)[:, copies][:, :, None] * np.eye(7)
    L *= (1.5 / np.min(np.diagonal(L, axis1=1, axis2=2), axis=1))[:, None, None]
    assert np.all(np.diagonal(L, axis1=1, axis2=2) > 1.0)
    got = _assert_map_is_oracle(L)
    assert len({len(y) for y in got}) > 1


def test_map_stack_groups_every_eligible_count(monkeypatch):
    # N = 8 with kernels of every count m = 0..8 of items with L_ii > 1,
    # three of each, shuffled, so that one stack walks nine groups
    N, rng = 8, np.random.default_rng(14)
    counts = rng.permutation(np.repeat(np.arange(N + 1), 3))
    L = _psd_stack(rng, counts.size, N)
    d = np.sqrt(np.diagonal(L, axis1=1, axis2=2))
    target = rng.uniform(0.2, 1.0, (counts.size, N))
    for row, m in enumerate(counts):
        target[row, rng.choice(N, m, replace=False)] = rng.uniform(1.05, 6.0, m)
    s = np.sqrt(target) / d
    L = s[:, :, None] * L * s[:, None, :]
    eligible = np.count_nonzero(np.diagonal(L, axis1=1, axis2=2) > 1.0, axis=1)
    assert np.array_equal(eligible, counts)
    got = _assert_map_is_oracle(L)
    assert {len(y) for y in got} >= {0, 1, 2}
    for budget in (1, 40000):
        monkeypatch.setattr(batch_mod, "MAP_CHUNK_BYTES", budget)
        assert map_exhaustive_stack(L) == got


def _eligible_psd_stack(rng, n, N):
    """:func:`_psd_stack` scaled so that every diagonal entry exceeds 1, so
    that MAP keeps all N items in its walk."""
    L = _psd_stack(rng, n, N)
    return L * (1.01 / np.min(np.diagonal(L, axis1=1, axis2=2), axis=1))[:, None, None]


def _count_walk_sizes(monkeypatch):
    """Record the item count of every _best_by_size call, recursive ones
    included."""
    sizes = []
    inner = batch_mod._best_by_size

    def counted(L, base):
        sizes.append(L.shape[0])
        return inner(L, base)

    monkeypatch.setattr(batch_mod, "_best_by_size", counted)
    return sizes


def test_map_stack_subtree_split_equals_one_walk(monkeypatch):
    rng = np.random.default_rng(6)
    stacks = [_eligible_psd_stack(rng, 3, N) for N in (14, 15, 16)]
    whole = [map_exhaustive_stack(L) for L in stacks]
    budget = 1 << 18  # under one 14-item walk: 16 items split three levels deep
    monkeypatch.setattr(batch_mod, "MAP_CHUNK_BYTES", budget)
    for L, want in zip(stacks, whole):
        got, peak = _peak_bytes(map_exhaustive_stack, L)
        assert got == want
        assert peak <= budget
    sizes = _count_walk_sizes(monkeypatch)
    map_exhaustive_stack(stacks[-1])
    assert sizes[0] == 16 and 13 in sizes


def test_map_stack_temporaries_stay_within_the_budget(monkeypatch):
    # one walk of 16 items holds about 1.4 MB per kernel, 29 MB for all 20
    L = _eligible_psd_stack(np.random.default_rng(7), 20, 16)
    got, peak = _peak_bytes(map_exhaustive_stack, L)
    assert peak <= batch_mod.MAP_CHUNK_BYTES
    assert len(got) == 20
    # the 20 kernels keep all 16 items and take more than one chunk
    sizes = _count_walk_sizes(monkeypatch)
    map_exhaustive_stack(L)
    assert len(sizes) > 1 and set(sizes) == {16}


def test_map_stack_bounds_the_items_it_walks_not_n(monkeypatch):
    # N = 30 kernels: one with 6 items of L_ii > 1, whose MAP is the
    # oracle's on those items, and two with 26, one more than the walk takes
    rng = np.random.default_rng(15)
    L = _psd_stack(rng, 3, 30)
    target = rng.uniform(0.2, 1.0, (3, 30))
    items = np.sort(rng.choice(30, 6, replace=False))
    target[0, items] = rng.uniform(1.5, 6.0, 6)
    target[1:, 4:] = rng.uniform(1.5, 6.0, (2, 26))
    s = np.sqrt(target / np.diagonal(L, axis1=1, axis2=2))
    L = s[:, :, None] * L * s[:, None, :]
    (got,) = map_exhaustive_stack(L[:1])
    want = map_exhaustive_reference(L[0][np.ix_(items, items)])
    assert got == tuple(items[list(want)].tolist())
    # the first kernel over the bound is named before any walk starts
    sizes = _count_walk_sizes(monkeypatch)
    with pytest.raises(ParameterError, match=r"^instance 8 has 26 items .* MBR"):
        map_exhaustive_stack(L, indices=[3, 8, 9])
    with pytest.raises(ParameterError, match=r"^row 1 has 26 items"):
        map_exhaustive_stack(L)
    assert sizes == []


def _resolvent_case(rng, kind):
    """A (20, 8, 8) kernel stack of the given kind and the oracle's digits."""
    data = [make_instance(rng, n=8, label_size=3) for _ in range(20)]
    if kind == "zero":
        return np.zeros((20, 8, 8)), None
    if kind == "linear":
        # 3 similarity features: every L has rank 3
        batch = stack_instances(data, TRUE_SIMILARITY)[0]
        _, L = build_L_stack(batch, 0.5 * rng.standard_normal(3), np.ones(1))
        return L, None
    # RBF bank with qualities up to about 1e3, so entries reach about 1e6;
    # double-precision eigh is only good to ~cond * 1e-16 there
    bank = SimilarityConfig(bandwidths=(0.5, 1.0, 2.0, 4.0), include_linear=False)
    batch = stack_instances(data, bank)[0]
    theta = np.full(3, 7.0) / np.max(np.abs(batch.X).sum(axis=2))
    _, L = build_L_stack(batch, theta, project_to_simplex(rng.random(4)))
    assert 1e5 < np.max(L) < 1e7
    return L, 40


@pytest.mark.parametrize("kind", ["linear", "rbf_large", "zero"])
def test_resolvent_matches_eigh_oracle(rng, kind):
    L, digits = _resolvent_case(rng, kind)
    logdet, inv = resolvent_stack(L)
    ref_logdet, ref_inv = resolvent_reference(L, digits)
    assert np.all(np.abs(logdet - ref_logdet) <= 1e-12 * np.abs(ref_logdet))
    err = np.max(np.abs(inv - ref_inv), axis=(1, 2))
    assert np.all(err <= 1e-12 * np.max(np.abs(ref_inv), axis=(1, 2)))


def test_indefinite_base_gram_names_the_instance(rng):
    data = [make_instance(rng, n=5) for _ in range(6)]
    batch = stack_instances(data, RBF_SIM)[0]
    batch.indices = np.arange(10, 16)
    # a negated RBF Gram is negative definite
    batch.grams[0, 3] = -batch.grams[0, 3]
    with pytest.raises(NotPositiveSemidefiniteError, match="instance 13"):
        hinge_terms(batch, np.zeros(3), np.full(3, 1 / 3), 1.0, 1.0, True)
    assert not batch.grams_checked


@pytest.mark.parametrize("lowest, eigvalsh_calls, raises", [
    (-0.4e-6, 0, False),  # certified by the Cholesky factor of G + tol/2 I
    (-0.75e-6, 1, False),  # no factor; the eigenvalues pass the rule
    (-2e-6, 1, True),  # no factor; the eigenvalues fail the rule
])
def test_base_grams_certified_by_cholesky(rng, monkeypatch, lowest,
                                          eigvalsh_calls, raises):
    data = [make_instance(rng, n=5) for _ in range(6)]
    batch = stack_instances(data, RBF_SIM)[0]
    batch.indices = np.arange(10, 16)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    batch.grams[1, 4] = (Q * [lowest, 0.0, 0.5, 1.0, 2.0]) @ Q.T
    assert np.linalg.eigvalsh(batch.grams[1, 4])[0] == pytest.approx(lowest, rel=1e-6)
    calls = _count_linalg(monkeypatch)
    if raises:
        with pytest.raises(NotPositiveSemidefiniteError, match="instance 14"):
            batch_mod.check_grams(batch)
    else:
        batch_mod.check_grams(batch)
    assert calls["eigvalsh"] == eigvalsh_calls
    assert batch.grams_checked is not raises


def test_kernel_without_cholesky_factor_names_the_instance():
    # a PSD rank-one kernel whose range swamps the identity in float64
    v = 3e8 * np.array([1.0, 1 / 3, 2 / 3])
    L = np.zeros((3, 3, 3))
    L[1] = np.outer(v, v)
    with pytest.raises(NumericalError) as info:
        resolvent_stack(L, np.array([7, 8, 9]))
    assert type(info.value) is NumericalError
    assert str(info.value) == (
        "L + I for instance 8 is numerically singular: it has no Cholesky factor")


def test_inactive_rows_leave_the_pass_unchanged(rng):
    # a seventh instance with an empty label and qualities e^-400: its L
    # underflows to zero, so A = 0, log A = -inf and its hinge is inactive
    bank = SimilarityConfig(bandwidths=(0.8, 2.0), include_linear=False)
    theta = np.array([0.5, -0.3, 0.2])
    weights = np.array([0.3, 0.7])
    data = [make_instance(rng, n=6) for _ in range(6)]
    x = np.zeros((6, 3))
    x[:, 0] = -800.0
    discarded = GroundSetInstance(x, rng.standard_normal((6, 3)), ())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = stack_instances(data + [discarded], bank)[0]
        assert batch.n == 7
        got = hinge_terms(batch, theta, weights, 1.0, 2.0)
        want = hinge_terms(stack_instances(data, bank)[0], theta, weights, 1.0, 2.0)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


def test_value_does_not_depend_on_want_grad(rng, dataset):
    batches = stack_instances(dataset, RBF_SIM)
    theta = 0.4 * rng.standard_normal(3)
    weights = project_to_simplex(rng.random(3))
    full = dataset_value_and_grad(batches, theta, weights, 1.5, 2.0, True)
    value = dataset_value_and_grad(batches, theta, weights, 1.5, 2.0, False)
    assert full[0] == value[0] and full[3] == value[3]
    assert full[1].shape == (3,) and full[2].shape == (3,)
    assert value[1] is None and value[2] is None


@pytest.mark.parametrize("lam", [0.0, 1.5])
def test_closed_form_theta_gradient_matches_the_chain_rule(lam):
    # rank-3 linear similarity: labels of more than 3 items are singular
    rng = np.random.default_rng(11)
    data = [make_instance(rng, n=6, label_size=int(rng.integers(0, 6)))
            for _ in range(40)]
    theta = 0.4 * rng.standard_normal(3)
    params = ModelParams(theta, np.ones(1))
    omega = 2.0
    config = TrainConfig(similarity=TRUE_SIMILARITY, lam=lam, omega=omega)
    batch = stack_instances(data, TRUE_SIMILARITY)[0]
    _, g_theta, g_weights, n_sing = hinge_terms(
        batch, theta, np.ones(1), lam, omega, True)
    assert g_weights is None

    ref = np.zeros(3)
    singular = 0
    for inst in data:
        L = kernel_reference(inst, params, TRUE_SIMILARITY)
        y = inst.label
        U = np.zeros_like(L)
        if lam > 0:
            U += lam * margin_grad_reference(L, y, omega)
        if len(y) > 3:
            # an impossible label scores its margin term alone
            singular += 1
            margin = lam * np.log(loss_weighted_mass(L, y, omega)) if lam else 0.0
            assert instance_objective(params, inst, config) == pytest.approx(
                margin, rel=1e-9)
        elif hinge_reference(L, y, lam, omega) > 0:
            U -= loglik_grad_reference(L, y)
        else:
            continue
        ref += chain_reference(inst, params, TRUE_SIMILARITY, U)[0]
    assert 0 < n_sing == singular < len(data)
    assert np.max(np.abs(g_theta - ref)) <= 1e-10 * max(1.0, np.max(np.abs(ref)))


def _count_linalg(monkeypatch):
    """Count the calls to numpy.linalg's cholesky, inv, eigh and eigvalsh."""
    calls = dict.fromkeys(("cholesky", "inv", "eigh", "eigvalsh"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _count_cholesky_stack(monkeypatch):
    """Count the calls to batch.cholesky_stack."""
    calls = []

    def counted(B):
        calls.append(len(B))
        return cholesky_stack(B)

    monkeypatch.setattr(batch_mod, "cholesky_stack", counted)
    return calls


def test_passes_factor_by_cholesky_alone(rng, monkeypatch):
    data = [make_instance(rng, n=n) for n in (5, 6, 5, 6, 6, 5)]
    batches = stack_instances(data, RBF_SIM)
    theta = 0.4 * rng.standard_normal(3)
    weights = project_to_simplex(rng.random(3))
    calls = _count_linalg(monkeypatch)
    factorizations = _count_cholesky_stack(monkeypatch)
    _, g_t, g_w, _ = dataset_value_and_grad(batches, theta, weights, 1.5, 2.0)
    # the first pass certifies the base Grams by one factorization per
    # base kernel and batch and needs no eigenvalues; at a new weight
    # vector: one factorization of L + I and one of the padded labels per
    # batch, whose factor also gives the label inverses
    assert len(factorizations) == (RBF_SIM.n_weights + 2) * len(batches)
    assert calls == {"cholesky": 0, "inv": 0, "eigh": 0, "eigvalsh": 0}
    assert g_t.any() and g_w.any()

    factorizations.clear()
    again = dataset_value_and_grad(batches, theta, weights, 1.5, 2.0)
    # at the same weights the labels' factor is reused: only L + I
    assert len(factorizations) == len(batches)
    assert calls == {"cholesky": 0, "inv": 0, "eigh": 0, "eigvalsh": 0}
    assert np.array_equal(again[1], g_t) and np.array_equal(again[2], g_w)


def test_cholesky_stack_flags_rows_without_a_factor(rng):
    # the installed numpy's gufunc must fill a matrix without a factor
    # with NaN and give every other factor as numpy.linalg.cholesky does
    A = rng.standard_normal((6, 5, 5))
    B = A @ np.swapaxes(A, 1, 2) + 0.1 * np.eye(5)
    B[1] = np.diag([1.0, 2.0, -1.0, 3.0, 1.0])  # indefinite
    v = rng.standard_normal(5)
    B[4] = np.outer(v, v)  # singular: rank one
    C, failed = cholesky_stack(B)
    assert failed.tolist() == [False, True, False, False, True, False]
    ok = ~failed
    assert np.array_equal(C[ok], np.linalg.cholesky(B[ok]))
    assert np.array_equal(C[failed], np.broadcast_to(np.eye(5), (2, 5, 5)))
    for row in np.nonzero(failed)[0]:
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(B[row])


def _label_spectra_rows(M, mask):
    """label_spectra on each row's label submatrix, one row at a time."""
    logdet, singular = np.zeros(len(M)), np.zeros(len(M), dtype=bool)
    for row, keep in enumerate(mask):
        if keep.any():
            sub = M[row][np.ix_(keep, keep)][None]
            logdet[row], singular[row] = (v[0] for v in label_spectra(sub))
    return logdet, singular


def _assert_logdets_close(logdet, ref, rtol=1e-12):
    # relative to max(1, |log det|): a label of one unit-diagonal item has
    # log det 0 up to rounding.  A singular label's is -inf on both sides.
    assert np.array_equal(logdet == -np.inf, ref == -np.inf)
    ok = ref > -np.inf
    assert np.all(np.abs(logdet[ok] - ref[ok])
                  <= rtol * np.maximum(1.0, np.abs(ref[ok])))


def _count_label_spectra(monkeypatch):
    """Record the label submatrices that label_terms passes to
    label_spectra, one list entry per label."""
    rows = []

    def counted(sub):
        rows.extend(sub)
        return label_spectra(sub)

    monkeypatch.setattr(batch_mod, "label_spectra", counted)
    return rows


def _fig1c_batch(seed, n_train):
    ds = generate_dataset(SynthConfig(n_train=n_train, n_holdout=1, n_test=1,
                                      seed=seed), FIG1C_SIMILARITY)
    return list(ds.train), stack_instances(list(ds.train), FIG1C_BANK)[0]


class TestLabelCertificate:
    """label_terms decides labels by one Cholesky factorization where it
    can, and must agree with label_spectra on every row."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_fig1c_bank_labels(self, seed, monkeypatch):
        _, batch = _fig1c_batch(seed, 200)
        rng = np.random.default_rng(seed)
        for weights in (np.full(9, 1 / 9), project_to_simplex(rng.random(9))):
            S = similarity_stack(batch.grams, weights)
            spectra = _count_label_spectra(monkeypatch)
            logdet, singular, factor = label_terms(S, batch.mask)
            ref_logdet, ref_singular = _label_spectra_rows(S, batch.mask)
            assert np.array_equal(singular, ref_singular)
            _assert_logdets_close(logdet, ref_logdet)
            # every label of the fig1c bank is certified
            assert factor is not None and spectra == []

    @pytest.mark.parametrize("c", [0.5, 1.0, 2.0, 10.0, 1e4])
    def test_labels_near_the_singular_threshold(self, c, monkeypatch):
        # equicorrelated R = (1 - rho) I + rho 11^T has eigenvalues 1 - rho
        # (k - 1 times) and 1 + (k - 1) rho; rho is set so that their ratio
        # is c * LABEL_SINGULAR_RTOL.  Rows at unit and at random scale,
        # padded by well-conditioned items.
        rng = np.random.default_rng(7)
        N, stack, mask = 6, [], []
        for k in (2, 3, 4):
            rho = ((1 - c * LABEL_SINGULAR_RTOL)
                   / (1 + (k - 1) * c * LABEL_SINGULAR_RTOL))
            for scale in (np.ones(N), np.exp(rng.uniform(-3, 3, N))):
                M = np.eye(N) + 0.1 * (1 - np.eye(N))
                M[:k, :k] = (1 - rho) * np.eye(k) + rho
                stack.append(M * scale[:, None] * scale[None, :])
                mask.append(np.arange(N) < k)
        M, mask = np.array(stack), np.array(mask)
        spectra = _count_label_spectra(monkeypatch)
        logdet, singular, factor = label_terms(M, mask)
        ref_logdet, ref_singular = _label_spectra_rows(M, mask)
        assert factor is not None
        assert np.array_equal(singular, ref_singular)
        if c != 1.0:  # at c = 1 rounding decides
            assert ref_singular.all() if c < 1.0 else not ref_singular.any()
        # up to c = 2 the bound cannot certify a label, so label_spectra
        # scores every row; far above, it certifies every one
        if c <= 2.0:
            assert len(spectra) == len(M)
        if c >= 1e4:
            assert spectra == []
        # a certified label with lambda_min ~ 1e-7 carries a rounding error
        # of about eps / lambda_min in either computation (each is off by up
        # to 3e-11 relative against a 50-digit determinant), so c = 10 is
        # held to that; everywhere else both agree to 1e-12
        _assert_logdets_close(logdet, ref_logdet, 1e-10 if c == 10.0 else 1e-12)

    def test_stack_with_a_label_beyond_the_linear_rank(self, rng, monkeypatch):
        # the 3-item label of a rank-2 linear Gram has no Cholesky factor:
        # it is singular without label_spectra, and every other row keeps
        # its factor
        data = [make_instance(rng, n=5, d_s=2, label_size=2) for _ in range(7)]
        data.append(make_instance(rng, n=5, d_s=2, label_size=3))
        batch = stack_instances(data, TRUE_SIMILARITY)[0]
        S = similarity_stack(batch.grams, np.ones(1))
        spectra = _count_label_spectra(monkeypatch)
        logdet, singular, (scale, X) = label_terms(S, batch.mask)
        ref_logdet, ref_singular = _label_spectra_rows(S, batch.mask)
        assert np.array_equal(singular, ref_singular) and singular[-1]
        assert np.count_nonzero(singular) == 1
        _assert_logdets_close(logdet, ref_logdet)
        assert X.shape == S.shape and np.all(np.isfinite(X))
        beyond = S[-1][np.ix_(batch.mask[-1], batch.mask[-1])]
        assert not any(np.array_equal(sub, beyond) for sub in spectra)

    def test_zero_diagonal_label(self, rng, monkeypatch):
        data = [make_instance(rng, n=5, label_size=3) for _ in range(6)]
        batch = stack_instances(data, TRUE_SIMILARITY)[0]
        S = similarity_stack(batch.grams, np.ones(1))
        zero = batch.mask[2].argmax()
        S[2, zero, :] = S[2, :, zero] = 0.0
        spectra = _count_label_spectra(monkeypatch)
        logdet, singular, factor = label_terms(S, batch.mask)
        ref_logdet, ref_singular = _label_spectra_rows(S, batch.mask)
        # the zero-diagonal row is left out of the factorization and is
        # singular without label_spectra
        assert factor is not None and spectra == []
        assert np.array_equal(singular, ref_singular)
        assert singular[2] and np.count_nonzero(singular) == 1
        _assert_logdets_close(logdet, ref_logdet)

    def test_gen_labels_beyond_the_linear_rank(self, monkeypatch):
        # seed-1 linear training data: label noise takes some labels past
        # the feature rank, and those have no factor
        data = list(generate_dataset(SynthConfig(seed=1)).train)
        batch = stack_instances(data, TRUE_SIMILARITY)[0]
        S = similarity_stack(batch.grams, np.ones(1))
        spectra = _count_label_spectra(monkeypatch)
        flags = []

        def recorded(B):
            C, failed = cholesky_stack(B)
            flags.append(failed)
            return C, failed

        monkeypatch.setattr(batch_mod, "cholesky_stack", recorded)
        logdet, singular, _ = label_terms(S, batch.mask)
        ref_logdet, ref_singular = _label_spectra_rows(S, batch.mask)
        assert np.array_equal(singular, ref_singular)
        assert 0 < np.count_nonzero(singular) < len(data)
        _assert_logdets_close(logdet, ref_logdet)
        # label_spectra sees a few labels that the bound cannot certify,
        # and none of those without a factor
        (failed,) = flags
        assert 0 < len(spectra) < np.count_nonzero(~failed)
        without = [S[r][np.ix_(batch.mask[r], batch.mask[r])]
                   for r in np.nonzero(failed)[0]]
        assert not any(np.array_equal(sub, w) for sub in spectra for w in without)


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_fig1c_weight_gradient_matches_its_own_value(lam):
    data, _ = _fig1c_batch(3, 30)
    batches = stack_instances(data, FIG1C_BANK)
    rng = np.random.default_rng(5)
    theta = 0.3 * rng.standard_normal(5)
    weights = project_to_simplex(rng.random(9))

    def value(w):
        return dataset_value_and_grad(batches, theta, w, lam, 1.0, False)[0]

    full = dataset_value_and_grad(batches, theta, weights, lam, 1.0, True)
    assert full[3] == 0
    report = finite_difference_check(value, lambda w: full[2], weights, step=1e-6)
    assert report.max_rel_error <= 1e-6


def _with_duplicate_label_items(instances):
    """The instances with each label's second item given its first item's
    similarity features, so that every label of two or more items is
    singular under every kernel-weight vector."""
    out = []
    for inst in instances:
        phi = np.array(inst.similarity_features)
        if len(inst.label) > 1:
            phi[inst.label[1]] = phi[inst.label[0]]
        out.append(GroundSetInstance(inst.quality_features, phi, inst.label))
    return out


@pytest.mark.parametrize("lam", [0.0, 1.0])
def test_gradient_is_the_derivative_of_its_value(lam):
    # linear gen data: noisy labels past the feature rank are singular
    ds = generate_dataset(SynthConfig(seed=0, n_train=80))
    data = list(ds.train)
    rng = np.random.default_rng(9)
    theta = ds.true_theta + 0.3 * rng.standard_normal(ds.true_theta.size)
    batches = stack_instances(data, TRUE_SIMILARITY)

    def theta_value(t):
        return dataset_value_and_grad(batches, t, np.ones(1), lam, 1.0, False)[0]

    full = dataset_value_and_grad(batches, theta, np.ones(1), lam, 1.0, True)
    assert 0 < full[3] < len(data)
    report = finite_difference_check(theta_value, lambda t: full[1], theta,
                                     step=1e-6)
    assert report.max_rel_error <= 1e-6

    # both blocks on a mixed bank, with a few labels singular at any weights
    mixed = data[:60] + _with_duplicate_label_items(data[60:])
    batches = stack_instances(mixed, RBF_SIM)
    weights = np.array([0.25, 0.25, 0.5])
    d = theta.size

    def value(v):
        return dataset_value_and_grad(batches, v[:d], v[d:], lam, 1.0, False)[0]

    full = dataset_value_and_grad(batches, theta, weights, lam, 1.0, True)
    assert 0 < full[3] < len(mixed)
    report = finite_difference_check(
        value, lambda v: np.concatenate(full[1:3]),
        np.concatenate([theta, weights]), step=1e-6)
    assert report.max_rel_error <= 1e-6


def test_overflowing_qualities_raise_from_total_objective(rng):
    data = [make_instance(rng, n=5, label_size=2) for _ in range(4)]
    x = np.zeros((5, 3))
    config = TrainConfig(similarity=RBF_SIM, lam=1.0)
    params = ModelParams(np.array([1.0, 0.0, 0.0]), np.full(3, 1 / 3))
    for top, overflows in ((170.0, False), (400.0, True)):
        x[3, 0] = top
        data[2] = GroundSetInstance(x, data[2].similarity_features, (0, 3))
        if overflows:
            with pytest.raises(NumericalError,
                               match=r"instance 2 .*largest \|x \. theta\| is 400"):
                total_objective(params, data, config)
        else:
            assert np.isfinite(total_objective(params, data, config))
