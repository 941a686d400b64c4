import csv
import os

import numpy as np
import pytest

from flagdim import cli
from flagdim.ensemble import finite_support, to_text


@pytest.fixture
def clean_env(monkeypatch):
    """No FLAGDIM_* setting leaks in from the calling shell."""
    for name in list(os.environ):
        if name.startswith("FLAGDIM_"):
            monkeypatch.delenv(name)
    return monkeypatch


def error_rows(out_dir):
    with open(out_dir / "error.csv", newline="") as fh:
        return list(csv.reader(fh))


def test_validate_exits_zero(clean_env, tmp_path):
    assert cli.main(["validate", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "error.csv").exists()


def test_missing_seed_exits_one(clean_env, tmp_path):
    assert cli.main(["spectrum", "--out", str(tmp_path)]) == 1
    header, row = error_rows(tmp_path)
    assert header == ["exit_code", "error_type", "message"]
    assert row[:2] == ["1", "ConfigError"]
    assert "seed is mandatory" in row[2]


@pytest.mark.parametrize("name, value, message", [
    ("BANDWIDTH", "2", "bandwidth must lie in (0, pi/2)"),
    ("ORBIT_SAMPLES", "1", "orbit_samples must lie between 2 and tail_replicas"),
], ids=["bandwidth", "orbit_samples"])
def test_out_of_range_setting_exits_one(clean_env, tmp_path, name, value,
                                        message):
    # refused with the config, before any estimator runs
    clean_env.setenv("FLAGDIM_SPECTRUM_STEPS", "400")
    clean_env.setenv("FLAGDIM_TAIL_REPLICAS", "1500")
    clean_env.setenv("FLAGDIM_" + name, value)
    code = cli.main(["entropy", "--ensemble", "bern2", "--seed", "1",
                     "--out", str(tmp_path), "--no-figures"])
    assert code == 1
    _, row = error_rows(tmp_path)
    assert row[:2] == ["1", "ConfigError"]
    assert message in row[2]


def test_every_leg_refused_exits_two_with_the_gate_class(clean_env, tmp_path):
    # rot2 acts isometrically: kappa is zero and the dimension gate refuses
    for name, value in (("SPECTRUM_STEPS", "400"), ("TAIL_REPLICAS", "1500"),
                        ("ORBIT_SAMPLES", "8"), ("BANDWIDTH", "0.1")):
        clean_env.setenv("FLAGDIM_" + name, value)
    code = cli.main(["dimension", "--ensemble", "rot2", "--seed", "3",
                     "--out", str(tmp_path), "--no-figures"])
    assert code == 2
    _, row = error_rows(tmp_path)
    assert row[:2] == ["2", "HypothesisNotMet"]
    assert row[2].startswith("kappa[1] = ")


@pytest.mark.parametrize("atom, probs, reason", [
    (np.nan, [0.5, 0.5], "support matrix 0 is singular or ill-conditioned"),
    (2.0, [0.5, 0.6], "probabilities sum to 1.1"),
    (2.0, [np.nan, 0.5], "probabilities must be strictly positive"),
], ids=["nan_atom", "probs_sum", "nan_prob"])
def test_bad_spec_file_exits_one_with_invalid_spec(clean_env, tmp_path, atom,
                                                   probs, reason):
    # a spec file is checked as the config loads it, before any draw or fold
    path = tmp_path / "bad.spec"
    path.write_text(to_text(finite_support(
        "bad", [np.diag([atom, 0.5]), np.eye(2)], probs)))
    code = cli.main(["spectrum", "--ensemble", str(path), "--seed", "1",
                     "--out", str(tmp_path), "--no-figures"])
    assert code == 1
    _, row = error_rows(tmp_path)
    assert row[:2] == ["1", "InvalidSpec"]
    assert reason in row[2]


def test_config_precedence_file_then_environment_then_flags(clean_env,
                                                             tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\nschema = 1\nseed = 1\nensemble = rot2\n"
                    "replicas = 5\norbit_samples = 6\n")
    clean_env.setenv("FLAGDIM_SEED", "2")
    clean_env.setenv("FLAGDIM_ENSEMBLE", "diag3eps")
    clean_env.setenv("FLAGDIM_ORBIT_SAMPLES", "16")
    args = cli._parser().parse_args(
        ["spectrum", "--config", str(path), "--seed", "3",
         "--ensemble", "bern2"])
    cfg = cli._config(args)
    assert cfg.replicas == 5            # file over default
    assert cfg.orbit_samples == 16      # environment over file
    assert (cfg.seed, cfg.ensemble) == (3, "bern2")   # flags over both
