import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dpplearn
from dpplearn.cli import EXIT_DATA, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, cli_main


def write_cfg(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def gen_cfg(tmp_path):
    return write_cfg(
        tmp_path / "synth.cfg",
        "synth.n_train = 20\nsynth.n_holdout = 8\nsynth.n_test = 8\n"
        "synth.seed = 11\n",
    )


def test_unknown_subcommand_is_usage_error(capsys):
    assert cli_main(["frobnicate"]) == EXIT_USAGE
    assert "frobnicate" in capsys.readouterr().err


def test_unknown_flag_is_usage_error():
    assert cli_main(["gen", "--config", "x.cfg", "--bogus"]) == EXIT_USAGE


def test_missing_config_names_path(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    code = cli_main(["gen", "--config", str(missing),
                     "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "nope.cfg" in capsys.readouterr().err


def test_gen_train_infer_eval_pipeline(tmp_path, gen_cfg, capsys):
    data_dir = tmp_path / "data"
    assert cli_main(["gen", "--config", gen_cfg, "--out-dir", str(data_dir)]) == EXIT_OK

    train_cfg = write_cfg(
        tmp_path / "train.cfg",
        f'dataset = "{data_dir}/train.jsonl"\n'
        "train.lam = 1.0\n"
        "train.max_outer_iterations = 8\n"
        "train.similarity.bandwidths = []\n"
        "train.similarity.include_linear = true\n",
    )
    fit_dir = tmp_path / "fit"
    assert cli_main(["train", "--config", train_cfg, "--out-dir", str(fit_dir)]) == EXIT_OK
    doc = json.loads((fit_dir / "train_result.json").read_text())
    assert doc["stop_reason"] in ("tolerance", "budget", "no_step")
    assert f"stopped on {doc['stop_reason']}" in capsys.readouterr().out

    infer_cfg = write_cfg(
        tmp_path / "infer.cfg",
        f'dataset = "{data_dir}/test.jsonl"\n'
        f'model = "{fit_dir}/train_result.json"\n'
        "inference.mode = \"exhaustive\"\n",
    )
    pred_dir = tmp_path / "pred"
    assert cli_main(["infer", "--config", infer_cfg, "--out-dir", str(pred_dir)]) == EXIT_OK

    eval_cfg = write_cfg(
        tmp_path / "eval.cfg",
        f'dataset = "{data_dir}/test.jsonl"\n'
        f'predictions = "{pred_dir}/predictions.jsonl"\n',
    )
    score_dir = tmp_path / "scores"
    assert cli_main(["eval", "--config", eval_cfg, "--out-dir", str(score_dir)]) == EXIT_OK
    summary = json.loads((score_dir / "scores_summary.json").read_text())
    assert 0.0 <= summary["fscore"] <= 1.0
    assert summary["n"] == 8


def _trained_infer_cfg(tmp_path, gen_cfg, mode, theta_scale=1.0):
    """gen and a short linear-kernel train, then an infer config for the
    test split in ``mode`` with the fitted theta scaled by theta_scale."""
    data_dir = tmp_path / "data"
    assert cli_main(["gen", "--config", gen_cfg, "--out-dir", str(data_dir)]) == EXIT_OK
    train_cfg = write_cfg(
        tmp_path / "train.cfg",
        f'dataset = "{data_dir}/train.jsonl"\n'
        "train.max_outer_iterations = 4\n"
        "train.similarity.bandwidths = []\n",
    )
    fit_dir = tmp_path / "fit"
    assert cli_main(["train", "--config", train_cfg, "--out-dir", str(fit_dir)]) == EXIT_OK
    model = fit_dir / "train_result.json"
    doc = json.loads(model.read_text())
    doc["params"]["theta"] = [theta_scale * t for t in doc["params"]["theta"]]
    model.write_text(json.dumps(doc))
    return write_cfg(
        tmp_path / "infer.cfg",
        f'dataset = "{data_dir}/test.jsonl"\n'
        f'model = "{model}"\n'
        f'inference.mode = "{mode}"\n'
        "inference.mbr_samples = 50\n",
    )


@pytest.mark.parametrize("mode", ["exhaustive", "mbr"])
def test_infer_with_overflowing_qualities_is_numerical_error(tmp_path, gen_cfg,
                                                             capsys, mode):
    infer_cfg = _trained_infer_cfg(tmp_path, gen_cfg, mode, theta_scale=200.0)
    capsys.readouterr()
    code = cli_main(["infer", "--config", infer_cfg,
                     "--out-dir", str(tmp_path / "pred")])
    assert code == EXIT_NUMERICAL
    assert "overflow" in capsys.readouterr().err
    assert not (tmp_path / "pred" / "predictions.jsonl").exists()


def test_infer_mbr_with_failing_eigendecomposition_is_numerical_error(
        tmp_path, gen_cfg, capsys, monkeypatch):
    infer_cfg = _trained_infer_cfg(tmp_path, gen_cfg, "mbr")

    def fail(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    capsys.readouterr()
    code = cli_main(["infer", "--config", infer_cfg,
                     "--out-dir", str(tmp_path / "pred")])
    assert code == EXIT_NUMERICAL
    assert "did not converge" in capsys.readouterr().err
    assert not (tmp_path / "pred" / "predictions.jsonl").exists()


def test_experiment_rerun_byte_identical(tmp_path):
    cfg = write_cfg(
        tmp_path / "exp.cfg",
        'kind = "fig1a"\n'
        "replicates = 1\n"
        "train_sizes = [15]\n"
        "lambda_grid = [1.0]\n"
        "synth.n_train = 15\nsynth.n_holdout = 6\nsynth.n_test = 6\n"
        "train.max_outer_iterations = 6\n"
        "train.similarity.bandwidths = []\n",
    )
    a, b = tmp_path / "runA", tmp_path / "runB"
    assert cli_main(["experiment", "--config", cfg, "--seed", "7",
                     "--out-dir", str(a)]) == EXIT_OK
    assert cli_main(["experiment", "--config", cfg, "--seed", "7",
                     "--out-dir", str(b)]) == EXIT_OK
    for name in ("results.csv", "summary.csv", "manifest.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["seed"] == 7


def test_gradcheck_passes(capsys):
    assert cli_main(["gradcheck", "--n", "5", "--trials", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "(per-instance chain)" in out and "(trainer pass)" in out


@pytest.mark.parametrize("n", ["0", "-3"])
def test_gradcheck_nonpositive_n_is_usage_error(capsys, n):
    assert cli_main(["gradcheck", "--n", n, "--trials", "1"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--n" in err and n in err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gradcheck_nonpositive_trials_is_usage_error(capsys, trials):
    assert cli_main(["gradcheck", "--trials", trials]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--trials" in err and trials in err


@pytest.mark.parametrize("flag", ["step", "tolerance"])
@pytest.mark.parametrize("value", ["0", "-1e-5", "nan", "inf"])
def test_gradcheck_bad_float_is_usage_error(capsys, flag, value):
    argv = ["gradcheck", "--trials", "1", f"--{flag}={value}"]
    assert cli_main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"dpplearn: argument --{flag}: ") and value in err


def test_python_dash_m_runs_the_cli():
    # the package's own source tree first, as for a checkout without an install
    src = str(Path(dpplearn.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, "-m", "dpplearn", "gradcheck", "--trials", "1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "max relative error" in proc.stdout


def test_eval_mismatched_counts_is_data_error(tmp_path, gen_cfg, capsys):
    data_dir = tmp_path / "data"
    cli_main(["gen", "--config", gen_cfg, "--out-dir", str(data_dir)])
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text('{"index": 0, "subset": [1]}\n')
    eval_cfg = write_cfg(
        tmp_path / "eval.cfg",
        f'dataset = "{data_dir}/test.jsonl"\n'
        f'predictions = "{pred_path}"\n',
    )
    assert cli_main(["eval", "--config", eval_cfg,
                     "--out-dir", str(tmp_path / "s")]) == EXIT_DATA


def test_eval_on_an_instance_file_without_records_is_data_error(tmp_path, capsys):
    data_path = tmp_path / "empty.jsonl"
    data_path.write_text('{"kind": "dpplearn-instances"}\n')
    pred_path = tmp_path / "preds.jsonl"
    pred_path.write_text("")
    eval_cfg = write_cfg(
        tmp_path / "eval.cfg",
        f'dataset = "{data_path}"\n'
        f'predictions = "{pred_path}"\n',
    )
    assert cli_main(["eval", "--config", eval_cfg,
                     "--out-dir", str(tmp_path / "s")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "empty.jsonl" in err and "Traceback" not in err


TINY_EXPERIMENT = (
    'kind = "fig1a"\ntrain_sizes = [15]\nlambda_grid = [1.0]\n'
    "synth.n_train = 15\nsynth.n_holdout = 6\nsynth.n_test = 6\n"
    "train.max_outer_iterations = 2\n"
)


@pytest.mark.parametrize("command, line, key", [
    ("train", "train.lamda = 1.0", "train.lamda"),
    ("train", "train.similarity.bandwidth = [1.0]", "train.similarity.bandwidth"),
    ("train", 'train.similarity.include_linear = "false"',
     "train.similarity.include_linear"),
    ("experiment", "replicate = 1", "replicate"),
    ("experiment", "lambda_grd = [1.0]", "lambda_grd"),
    ("gen", "synth = 5", "synth"),
    ("train", "train.step_size = 0.5", "train.step_size"),
], ids=["lamda", "bandwidth", "include_linear", "replicate", "lambda_grd",
        "seeded_scalar_section", "removed_step_size"])
def test_bad_config_key_is_data_error(tmp_path, gen_cfg, capsys, command, line, key):
    if command == "train":
        data_dir = tmp_path / "data"
        assert cli_main(["gen", "--config", gen_cfg,
                         "--out-dir", str(data_dir)]) == EXIT_OK
        text = f'dataset = "{data_dir}/train.jsonl"\n{line}\n'
    elif command == "experiment":
        text = TINY_EXPERIMENT + line + "\n"
    else:
        text = line + "\n"
    cfg = write_cfg(tmp_path / "bad.cfg", text)
    capsys.readouterr()
    seed = [] if command == "train" else ["--seed", "3"]
    code = cli_main([command, "--config", cfg, *seed,
                     "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert f"'{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_seed_on_a_seedless_command_is_usage_error(capsys, command):
    # train and eval draw no random numbers, so they take no --seed
    assert cli_main([command, "--config", "x.cfg", "--seed", "3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seed" in err


def test_unknown_experiment_method_is_data_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path / "bad.cfg",
                    TINY_EXPERIMENT + 'methods = ["mle", "lmee"]\n')
    capsys.readouterr()
    code = cli_main(["experiment", "--config", cfg,
                     "--out-dir", str(tmp_path / "o")])
    assert code == EXIT_DATA
    assert "'lmee'" in capsys.readouterr().err
