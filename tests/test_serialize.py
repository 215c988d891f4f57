import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpplearn import DataFormatError, SynthConfig, generate_dataset
from dpplearn.kernel import SimilarityConfig
from dpplearn.learning import TrainConfig, TrainResult
from dpplearn.kernel import ModelParams
from dpplearn import InferenceConfig, serialize
from dpplearn.harness import (
    EXPERIMENT_KINDS,
    FIG1C_SIGMA,
    ExperimentSpec,
)


@pytest.fixture
def dataset():
    return generate_dataset(SynthConfig(n_train=6, n_holdout=3, n_test=3, seed=9))


class TestInstanceFiles:
    def test_roundtrip(self, tmp_path, dataset):
        path = tmp_path / "train.jsonl"
        header = {"split": "train", "seed": 9}
        serialize.write_instances(path, dataset.train, header)
        got_header, got = serialize.read_instances(path)
        assert got_header["split"] == "train"
        assert got_header["kind"] == serialize.INSTANCES_KIND
        assert len(got) == len(dataset.train)
        for a, b in zip(dataset.train, got):
            assert np.array_equal(a.quality_features, b.quality_features)
            assert np.array_equal(a.similarity_features, b.similarity_features)
            assert a.label == b.label

    def test_unlabeled_roundtrip(self, tmp_path):
        from dpplearn import GroundSetInstance

        inst = GroundSetInstance(np.ones((2, 2)), np.ones((2, 2)))
        path = tmp_path / "x.jsonl"
        serialize.write_instances(path, [inst], {})
        _, got = serialize.read_instances(path)
        assert got[0].label is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "something-else"}\n')
        with pytest.raises(DataFormatError):
            serialize.read_instances(path)

    def test_bad_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": serialize.INSTANCES_KIND}) + "\n"
            + '{"n_items": 2}\n'
        )
        with pytest.raises(DataFormatError, match=":2:"):
            serialize.read_instances(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(DataFormatError):
            serialize.read_instances(path)


class TestConfigFiles:
    def test_parse_flat_keys(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(
            "# comment line\n"
            "kind = \"fig1b\"\n"
            "replicates = 3\n"
            "synth.n_items = 8\n"
            "train.lam = 0.5\n"
            "train.similarity.bandwidths = [0.5, 2.0]\n"
            "train.similarity.include_linear = false\n"
        )
        cfg = serialize.parse_config(path)
        assert cfg["kind"] == "fig1b"
        assert cfg["synth"]["n_items"] == 8
        assert cfg["train"]["similarity"]["bandwidths"] == [0.5, 2.0]

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("this is not an assignment\n")
        with pytest.raises(DataFormatError):
            serialize.parse_config(path)

    def test_bad_json_value_rejected(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("x = not-json\n")
        with pytest.raises(DataFormatError, match="x"):
            serialize.parse_config(path)

    def test_train_config_from_dict(self):
        cfg = serialize.config_from_dict(
            TrainConfig(),
            {"lam": 2.0, "similarity": {"bandwidths": [1.0],
                                        "include_linear": False}}
        )
        assert cfg.lam == 2.0
        assert cfg.similarity == SimilarityConfig((1.0,), False)


class TestTrainResultFiles:
    def test_roundtrip(self, tmp_path):
        params = ModelParams(np.array([0.5, -1.0]), np.array([0.25, 0.75]))
        config = TrainConfig(
            similarity=SimilarityConfig((0.5, 2.0), False), lam=1.5
        )
        result = TrainResult(params, (10.0, 5.0, 4.5), True, 3)
        assert result.stop_reason == "tolerance"
        path = tmp_path / "result.json"
        serialize.write_train_result(path, result, config)
        got_params, got_config, got_result = serialize.read_train_result(path)
        assert np.allclose(got_params.theta, params.theta)
        assert np.allclose(got_params.kernel_weights, params.kernel_weights)
        assert got_config == config
        assert got_result.objective_trace == result.objective_trace
        assert got_result.converged and got_result.iterations_used == 3
        assert got_result.stop_reason == "tolerance"
        for reason in ("budget", "no_step"):
            serialize.write_train_result(
                path, TrainResult(params, (1.0,), False, 0, reason), config)
            assert json.loads(path.read_text())["stop_reason"] == reason
            got_result = serialize.read_train_result(path)[2]
            assert got_result.stop_reason == reason and not got_result.converged
        # a document written before the reason was recorded reads as the
        # reason its converged flag implies
        doc = json.loads(path.read_text())
        del doc["stop_reason"]
        path.write_text(json.dumps(doc))
        assert serialize.read_train_result(path)[2].stop_reason == "budget"

    @pytest.mark.parametrize("converged, reason", [
        (True, "budget"), (False, "tolerance"), (False, "diverged")])
    def test_rejects_a_bad_stop_reason(self, tmp_path, converged, reason):
        params = ModelParams(np.array([0.5, -1.0]), np.array([0.25, 0.75]))
        path = tmp_path / "result.json"
        serialize.write_train_result(
            path, TrainResult(params, (1.0,), True, 1), TrainConfig())
        doc = json.loads(path.read_text())
        doc["converged"], doc["stop_reason"] = converged, reason
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="stop reason"):
            serialize.read_train_result(path)

    def test_every_config_field_roundtrips(self, tmp_path):
        config = TrainConfig(
            similarity=SimilarityConfig((0.5, 2.0), False), lam=1.5, omega=2.5,
            max_outer_iterations=7, rel_tolerance=1e-5,
        )
        default = TrainConfig()
        for f in dataclasses.fields(TrainConfig):
            assert getattr(config, f.name) != getattr(default, f.name), f.name
        params = ModelParams(np.array([0.5, -1.0]), np.array([0.25, 0.75]))
        path = tmp_path / "result.json"
        serialize.write_train_result(
            path, TrainResult(params, (1.0,), False, 1), config
        )
        assert serialize.read_train_result(path)[1] == config

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{}")
        with pytest.raises(DataFormatError):
            serialize.read_train_result(path)

    def test_rejects_a_removed_optimizer_key(self, tmp_path):
        # the step schedule is fixed in the trainer; a result that still
        # records step_size is refused rather than read with it ignored
        params = ModelParams(np.array([0.5, -1.0]), np.array([0.25, 0.75]))
        path = tmp_path / "result.json"
        serialize.write_train_result(
            path, TrainResult(params, (1.0,), False, 1), TrainConfig())
        doc = json.loads(path.read_text())
        doc["config"]["step_size"] = 0.5
        path.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="'config.step_size'"):
            serialize.read_train_result(path)


class TestPredictions:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        serialize.write_predictions(path, [(0, 2), (), (1,)])
        assert serialize.read_predictions(path) == [(0, 2), (), (1,)]


positive = st.floats(min_value=1e-6, max_value=1e6)
similarities = st.tuples(
    st.lists(positive, max_size=3), st.booleans()
).filter(lambda t: t[0] or t[1]).map(lambda t: SimilarityConfig(tuple(t[0]), t[1]))
train_configs = st.builds(
    TrainConfig,
    similarity=similarities,
    lam=st.floats(min_value=0.0, max_value=100.0),
    omega=positive,
    max_outer_iterations=st.integers(1, 100),
    rel_tolerance=positive,
)
grids = st.lists(positive, min_size=1, max_size=4).map(tuple)
specs = st.builds(
    ExperimentSpec,
    kind=st.sampled_from(EXPERIMENT_KINDS),
    synth=st.builds(
        SynthConfig, n_items=st.integers(1, 200), feature_dim=st.integers(1, 8),
        noise_prob=st.floats(min_value=0.0, max_value=1.0),
        n_train=st.integers(1, 1000), n_holdout=st.integers(1, 100),
        n_test=st.integers(1, 100), seed=st.integers(0, 2**31),
    ),
    train=train_configs,
    inference=st.builds(
        InferenceConfig, mode=st.sampled_from(["exhaustive", "mbr"]),
        mbr_samples=st.integers(1, 5000),
        seed=st.integers(0, 2**31),
    ),
    replicates=st.integers(1, 20),
    methods=st.lists(st.sampled_from(["mle", "lme"]), unique=True).map(tuple),
    train_sizes=st.lists(st.integers(1, 1000), min_size=1, max_size=4).map(tuple),
    sigma_grid=grids.map(lambda g: g + (FIG1C_SIGMA,)),
    lambda_grid=grids,
    omega_grid=grids,
)


class TestConfigRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(specs)
    def test_experiment_spec_roundtrips_through_json(self, spec):
        doc = json.loads(json.dumps(dataclasses.asdict(spec)))
        assert serialize.config_from_dict(ExperimentSpec(), doc) == spec

    @settings(max_examples=60, deadline=None)
    @given(train_configs)
    def test_train_config_roundtrips_through_train_result(self, config):
        params = ModelParams(np.array([0.5, -1.0]), np.array([0.25, 0.75]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "result.json"
            serialize.write_train_result(
                path, TrainResult(params, (1.0,), False, 1), config
            )
            assert serialize.read_train_result(path)[1] == config

    @pytest.mark.parametrize("data, key", [
        ({"lamda": 1.0}, "'lamda'"),
        ({"similarity": {"bandwidth": [1.0]}}, "'similarity.bandwidth'"),
        ({"similarity": {"include_linear": "false"}}, "'similarity.include_linear'"),
        ({"similarity": 1}, "'similarity'"),
        ({"lam": True}, "'lam'"),
        ({"max_outer_iterations": 4.0}, "'max_outer_iterations'"),
    ])
    def test_reader_names_the_bad_key(self, data, key):
        with pytest.raises(DataFormatError, match=key):
            serialize.config_from_dict(TrainConfig(), data)
