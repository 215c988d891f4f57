import json
import logging
from dataclasses import replace

import numpy as np
import pytest

from dpplearn import InferenceConfig, SynthConfig, TRUE_SIMILARITY, generate_dataset
from dpplearn.harness import (
    EXPERIMENT_KINDS,
    FIG1C_SIMILARITY,
    ExperimentSpec,
    GridSearchResult,
    ResultRow,
    evaluate_params,
    grid_search,
    run_and_write,
    run_experiment,
    summarize,
    write_manifest,
)
from dpplearn.learning import TrainConfig
from dpplearn.errors import NumericalError, ParameterError
from dpplearn.kernel import ModelParams
from dpplearn.synth import true_params

logging.getLogger("dpplearn.learning").setLevel(logging.ERROR)

FAST_TRAIN = TrainConfig(similarity=TRUE_SIMILARITY, max_outer_iterations=8,
                         rel_tolerance=1e-12)
TINY_SYNTH = SynthConfig(n_train=25, n_holdout=12, n_test=12, seed=5)


def tiny_spec(**kw):
    defaults = dict(
        kind="fig1a", synth=TINY_SYNTH, train=FAST_TRAIN,
        inference=InferenceConfig(), replicates=2, train_sizes=(15, 25),
        sigma_grid=(0.5, 2.0), lambda_grid=(0.1, 1.0), omega_grid=(0.25, 4.0),
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestGridSearch:
    def test_single_cell_returns_it(self):
        # omega is not searched: the cell trains at the base config's omega
        ds = generate_dataset(TINY_SYNTH)
        result = grid_search(list(ds.train), list(ds.holdout), (0.5,),
                             replace(FAST_TRAIN, omega=2.0))
        assert isinstance(result, GridSearchResult)
        assert result.best_config.lam == 0.5
        assert result.best_config.omega == 2.0
        assert len(result.table) == 1

    def test_argmax_contract(self):
        ds = generate_dataset(TINY_SYNTH)
        result = grid_search(list(ds.train), list(ds.holdout), (1.0, 0.0),
                             FAST_TRAIN)
        # cells run in ascending lam, so a tie keeps the smaller lam
        assert [lam for lam, _ in result.table] == [0.0, 1.0]
        scores = {lam: f for lam, f in result.table}
        assert result.best_holdout_fscore == max(scores.values())

    def test_deterministic(self):
        ds = generate_dataset(TINY_SYNTH)
        a = grid_search(list(ds.train), list(ds.holdout), (0.1, 1.0), FAST_TRAIN)
        b = grid_search(list(ds.train), list(ds.holdout), (0.1, 1.0), FAST_TRAIN)
        assert a.best_config == b.best_config
        assert a.table == b.table

    def test_empty_holdout_rejected(self):
        ds = generate_dataset(TINY_SYNTH)
        with pytest.raises(ParameterError):
            grid_search(list(ds.train), [], (1.0,), FAST_TRAIN)

    def test_empty_lambda_grid_rejected(self):
        ds = generate_dataset(TINY_SYNTH)
        with pytest.raises(ParameterError, match="lambda grid"):
            grid_search(list(ds.train), list(ds.holdout), (), FAST_TRAIN)


class TestExperiments:
    def test_fig1a_shape_and_oracle_rows(self):
        spec = tiny_spec()
        rows, _ = run_experiment(spec)
        methods = {r.method for r in rows}
        assert methods == {"oracle", "mle", "lme"}
        # one row per (method, size, replicate)
        assert len(rows) == 3 * 2 * 2
        for r in rows:
            assert 0.0 <= r.fscore <= 1.0

    def test_fig1a_oracle_dominates(self):
        spec = tiny_spec(replicates=3, train_sizes=(25,))
        cells = summarize(run_experiment(spec)[0])
        by_method = {c["method"]: c for c in cells}
        oracle = by_method["oracle"]
        assert oracle["fscore_mean"] > 0
        for method in ("mle", "lme"):
            c = by_method[method]
            floor = c["fscore_mean"] - 2.0 * c["fscore_stderr"]
            assert oracle["fscore_mean"] >= floor

    def test_fig1b_runs_each_sigma(self):
        spec = tiny_spec(kind="fig1b", lambda_grid=(1.0,))
        rows, _ = run_experiment(spec)
        cells = {(r.method, r.cell) for r in rows}
        assert cells == {(m, s) for m in ("mle", "lme") for s in (0.5, 2.0)}

    def test_fig1c_reference_rows_present(self):
        spec = tiny_spec(kind="fig1c", train_sizes=(25,), lambda_grid=(1.0,),
                         sigma_grid=(0.5, 2.0))
        rows, _ = run_experiment(spec)
        methods = {r.method for r in rows}
        assert methods == {"mle", "lme", "mle_true_s", "lme_true_s"}

    def test_omega_sweep_rows_and_curve(self):
        spec = tiny_spec(kind="omega_sweep", replicates=2)
        rows, pr = run_experiment(spec)
        assert len(rows) == 2 * len(spec.omega_grid)
        assert all(r.method == "lme" for r in rows)
        assert len(pr) >= 2
        recalls = [p[0] for p in pr]
        assert recalls == sorted(recalls)

    @pytest.mark.parametrize("kind", EXPERIMENT_KINDS)
    def test_replicate_rows_depend_on_their_seed_alone(self, kind):
        # replicate r of a run equals replicate 0 of a one-replicate run at
        # seed synth.seed + r, so replicates may run in any order
        spec = tiny_spec(kind=kind, train_sizes=(12, 20), lambda_grid=(1.0,),
                         omega_grid=(0.5, 2.0),
                         synth=replace(TINY_SYNTH, n_train=20, n_test=8))

        def fields(rows, rep):
            return [(r.experiment, r.method, r.cell, r.precision, r.recall,
                     r.fscore) for r in rows if r.replicate == rep]

        rows, _ = run_experiment(spec)
        for rep in range(spec.replicates):
            alone = replace(spec, replicates=1,
                            synth=replace(spec.synth, seed=spec.synth.seed + rep))
            assert fields(rows, rep) == fields(run_experiment(alone)[0], 0)

    def test_methods_subset_respected(self):
        spec = tiny_spec(methods=("mle",), train_sizes=(25,))
        rows, _ = run_experiment(spec)
        assert {r.method for r in rows} == {"oracle", "mle"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            tiny_spec(kind="fig9")

    def test_unknown_method_rejected(self):
        # a misspelled method would otherwise drop its rows without a word
        with pytest.raises(ParameterError, match="lmee"):
            tiny_spec(methods=("mle", "lmee"))

    def test_custom_kind_rejected_at_construction(self):
        # no runner exists for it, so the spec must not validate
        with pytest.raises(ParameterError):
            ExperimentSpec(kind="custom")

    def test_fig1c_bank_must_contain_generating_bandwidth(self):
        # fig1c labels come from the RBF at FIG1C_SIGMA; a bank without it
        # could not express the true similarity
        from dpplearn.harness import FIG1C_SIGMA

        grid = (FIG1C_SIGMA / 2, FIG1C_SIGMA * 2)
        with pytest.raises(ParameterError):
            tiny_spec(kind="fig1c", sigma_grid=grid)
        tiny_spec(kind="fig1b", sigma_grid=grid)  # other kinds unaffected


class TestSummaries:
    def test_mean_and_stderr(self):
        rows = [
            ResultRow("e", 0, "m", 1.0, 0.5, 0.5, 0.4, 0.0),
            ResultRow("e", 1, "m", 1.0, 0.7, 0.7, 0.6, 0.0),
        ]
        (cell,) = summarize(rows)
        assert cell["fscore_mean"] == pytest.approx(0.5)
        assert cell["fscore_stderr"] == pytest.approx(
            np.std([0.4, 0.6], ddof=1) / np.sqrt(2)
        )

    def test_evaluate_params_matches_oracle_provenance(self):
        ds = generate_dataset(SynthConfig(n_train=5, n_holdout=3, n_test=10,
                                          seed=2, noise_prob=0.0))
        prf = evaluate_params(ds.test, true_params(ds), TRUE_SIMILARITY,
                              InferenceConfig())
        assert prf == (1.0, 1.0, 1.0)

    def test_evaluate_params_rejects_no_instances(self):
        ds = generate_dataset(TINY_SYNTH)
        with pytest.raises(ParameterError):
            evaluate_params([], true_params(ds), TRUE_SIMILARITY, InferenceConfig())


class TestMbrContract:
    def test_one_consensus_call_per_kernel_with_int_tuples(self, monkeypatch):
        # MBR scores each kernel's samples in one call through the module
        # global; bench/job.py wraps that call to read the drawn samples
        import dpplearn.inference as inference_mod
        from dpplearn.harness import predict_subsets

        calls = []
        inner = inference_mod.consensus_scores

        def recording(samples):
            calls.append(samples)
            return inner(samples)

        monkeypatch.setattr(inference_mod, "consensus_scores", recording)
        ds = generate_dataset(TINY_SYNTH)
        config = InferenceConfig(mode="mbr", mbr_samples=30, seed=4)
        preds = predict_subsets(ds.test, true_params(ds), TRUE_SIMILARITY, config)
        assert len(calls) == len(ds.test) == len(preds)
        for samples, pred in zip(calls, preds):
            assert isinstance(samples, list) and len(samples) == 30
            assert all(type(y) is tuple and all(type(i) is int for i in y)
                       for y in samples)
            assert pred in samples

    def test_linear_kernels_match_the_oracles(self, monkeypatch):
        # Rank <= 5 linear kernels on 10 items: phase two meets items of
        # zero eigenvalue and the 1e-12 exclusion.  Every kernel of the
        # item count reads the seed's shared uniforms, so each must decode
        # as a fresh default_rng(seed) drawing reference samples would.
        import dpplearn.harness as harness_mod
        import dpplearn.inference as inference_mod
        from oracles import mbr_reference, sample_dpp_reference

        kernels, drawn = [], []
        decode, score = harness_mod.predict_subset, inference_mod.consensus_scores

        def recording_decode(L, config):
            kernels.append(L)
            return decode(L, config)

        def recording_score(samples):
            drawn.append(samples)
            return score(samples)

        monkeypatch.setattr(harness_mod, "predict_subset", recording_decode)
        monkeypatch.setattr(inference_mod, "consensus_scores", recording_score)
        ds = generate_dataset(replace(TINY_SYNTH, n_test=6, seed=8))
        config = InferenceConfig(mode="mbr", mbr_samples=100, seed=3)
        preds = harness_mod.predict_subsets(ds.test, true_params(ds),
                                            TRUE_SIMILARITY, config)
        assert len(kernels) == len(drawn) == len(preds) == 6
        assert all(np.linalg.matrix_rank(L.matrix) <= 5 for L in kernels)
        for L, samples, pred in zip(kernels, drawn, preds):
            rng = np.random.default_rng(config.seed)
            want = [sample_dpp_reference(L, rng) for _ in range(config.mbr_samples)]
            assert samples == want
            assert pred == mbr_reference(want)


@pytest.mark.parametrize("mode", ["exhaustive", "mbr"])
def test_predict_subsets_with_overflowing_qualities_is_numerical_error(mode):
    # the generating theta scaled by 200 takes x . theta past LOG_QUALITY_MAX
    from dpplearn.harness import predict_subsets

    ds = generate_dataset(TINY_SYNTH)
    params = ModelParams(200.0 * ds.true_theta, [1.0])
    config = InferenceConfig(mode=mode, mbr_samples=50)
    with pytest.raises(NumericalError, match="overflow"):
        predict_subsets(ds.test, params, TRUE_SIMILARITY, config)


class TestDirections:
    def test_omega_one_sweep_equals_plain_training(self):
        from dpplearn.learning import train
        from dpplearn.kernel import SimilarityConfig
        from dpplearn.harness import evaluate_params

        spec = tiny_spec(kind="omega_sweep", replicates=1, omega_grid=(1.0,),
                         sigma_grid=(0.5, 2.0))
        rows, _ = run_experiment(spec)
        sim = SimilarityConfig(bandwidths=(0.5, 2.0), include_linear=False)
        ds = generate_dataset(
            replace(spec.synth, seed=spec.synth.seed)
        )
        result = train(list(ds.train), replace(spec.train, similarity=sim,
                                               omega=1.0))
        prf = evaluate_params(ds.test, result.params, sim, spec.inference)
        assert rows[0].precision == pytest.approx(prf[0], abs=1e-12)
        assert rows[0].recall == pytest.approx(prf[1], abs=1e-12)
        assert rows[0].fscore == pytest.approx(prf[2], abs=1e-12)

    def test_mkl_training_never_touches_a_linear_weight(self):
        # a bank configured without the linear kernel has no linear
        # coefficient to learn: one weight per RBF, none for beta
        from dpplearn.kernel import SimilarityConfig
        from dpplearn.learning import train

        sim = SimilarityConfig(bandwidths=(0.5, 2.0), include_linear=False)
        ds = generate_dataset(TINY_SYNTH)
        result = train(list(ds.train), replace(FAST_TRAIN, similarity=sim,
                                               lam=1.0))
        assert result.params.kernel_weights.shape == (len(sim.bandwidths),)

    def test_misspecification_costs_fscore(self):
        # fig1b cells (theta learned under a wrong similarity) score below
        # the same methods' fig1a cells (true similarity) on the same data
        synth = SynthConfig(n_train=120, n_holdout=40, n_test=60, seed=31)
        train_cfg = TrainConfig(similarity=TRUE_SIMILARITY, rel_tolerance=1e-9,
                                max_outer_iterations=25)
        spec_a = tiny_spec(synth=synth, train=train_cfg, replicates=3,
                           train_sizes=(120,), lambda_grid=(10.0,))
        spec_b = tiny_spec(kind="fig1b", synth=synth, train=train_cfg,
                           replicates=3, sigma_grid=(0.25, 1.0, 4.0, 16.0),
                           lambda_grid=(10.0,))
        cells_a = summarize(run_experiment(spec_a)[0])
        cells_b = summarize(run_experiment(spec_b)[0])
        for method in ("mle", "lme"):
            ref = next(c for c in cells_a if c["method"] == method)
            worst_b = max(c["fscore_mean"] for c in cells_b
                          if c["method"] == method)
            assert worst_b <= ref["fscore_mean"] + 0.02


class TestFileEmission:
    def test_all_files_written(self, tmp_path):
        spec = tiny_spec(train_sizes=(25,), replicates=1)
        out = tmp_path / "run"
        rows = run_and_write(spec, out)
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "timings.csv").exists()
        lines = (out / "results.csv").read_text().splitlines()
        assert lines[0] == "experiment,replicate,method,cell,precision,recall,fscore"
        assert len(lines) == len(rows) + 1
        for line in lines[1:]:  # numeric columns must be plain parseable floats
            fields = line.split(",")
            assert [float(v) for v in fields[3:]] == [
                pytest.approx(float(v)) for v in fields[3:]
            ]
            assert "(" not in line

    def test_omega_sweep_writes_pr_curve(self, tmp_path):
        spec = tiny_spec(kind="omega_sweep", replicates=1)
        run_and_write(spec, tmp_path / "sweep")
        assert (tmp_path / "sweep" / "pr_curve.csv").exists()

    def test_rerun_byte_identical_outside_timings(self, tmp_path):
        spec = tiny_spec(train_sizes=(15,), replicates=1)
        run_and_write(spec, tmp_path / "a")
        run_and_write(spec, tmp_path / "b")
        for name in ("results.csv", "summary.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("kind, similarity", [
        ("fig1a", TRUE_SIMILARITY), ("fig1b", TRUE_SIMILARITY),
        ("fig1c", FIG1C_SIMILARITY), ("omega_sweep", TRUE_SIMILARITY),
    ])
    def test_manifest_names_generating_similarity(self, tmp_path, kind, similarity):
        write_manifest(tmp_path / "manifest.json", tiny_spec(kind=kind))
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["generating_similarity"] == {
            "bandwidths": list(similarity.bandwidths),
            "include_linear": similarity.include_linear,
        }
