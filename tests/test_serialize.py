import dataclasses
import json

import numpy as np
import pytest

from dpplearn import DataFormatError, SynthConfig, generate_dataset
from dpplearn.kernel import SimilarityConfig
from dpplearn.learning import TrainConfig, TrainResult
from dpplearn.kernel import ModelParams
from dpplearn import serialize


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
        cfg = serialize.train_config_from_dict(
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
        path = tmp_path / "result.json"
        serialize.write_train_result(path, result, config)
        got_params, got_config, got_result = serialize.read_train_result(path)
        assert np.allclose(got_params.theta, params.theta)
        assert np.allclose(got_params.kernel_weights, params.kernel_weights)
        assert got_config == config
        assert got_result.objective_trace == result.objective_trace
        assert got_result.converged and got_result.iterations_used == 3

    def test_every_config_field_roundtrips(self, tmp_path):
        config = TrainConfig(
            similarity=SimilarityConfig((0.5, 2.0), False), lam=1.5, omega=2.5,
            max_outer_iterations=7, alternation_block=2, step_size=0.25,
            step_decay="constant", rel_tolerance=1e-5, grad_clip=3.0,
            l2_theta=0.1, seed=4,
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


class TestPredictions:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "p.jsonl"
        serialize.write_predictions(path, [(0, 2), (), (1,)])
        assert serialize.read_predictions(path) == [(0, 2), (), (1,)]
