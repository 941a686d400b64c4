import csv
import os

import numpy as np
import pytest

from flagdim import cli, harness
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


def data_rows(path):
    """The rows of an output CSV below its schema line and header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[2:]


def diag4eps():
    """diag3eps's recipe one dimension up: a diagonal stretch behind
    sign-flipped rotations on the three adjacent coordinate planes."""
    def rotation(a, angle):
        r = np.eye(4)
        c, s = np.cos(angle), np.sin(angle)
        r[[a, a, a + 1, a + 1], [a, a + 1, a, a + 1]] = [c, -s, s, c]
        return r

    stretch = np.diag(np.exp([0.20, 0.07, -0.05, -0.17]))
    atoms = [rotation(0, s1 * 0.7) @ rotation(1, s2 * 0.8)
             @ rotation(2, s3 * 0.6) @ stretch
             for s1 in (1, -1) for s2 in (1, -1) for s3 in (1, -1)]
    return finite_support("diag4eps", atoms, np.full(8, 0.125))


def test_validate_exits_zero(clean_env, tmp_path):
    assert cli.main(["validate", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert not (tmp_path / "error.csv").exists()


def test_missing_seed_exits_one(clean_env, tmp_path):
    assert cli.main(["spectrum", "--out", str(tmp_path)]) == 1
    header, row = error_rows(tmp_path)
    assert header == ["exit_code", "error_type", "message"]
    assert row[:2] == ["1", "ConfigError"]
    assert "seed is mandatory" in row[2]


def test_negative_seed_exits_one(clean_env, tmp_path):
    # refused with the config, not by the seed sequence's ValueError
    assert cli.main(["spectrum", "--ensemble", "bern2", "--seed", "-1",
                     "--out", str(tmp_path), "--no-figures"]) == 1
    _, row = error_rows(tmp_path)
    assert row[:2] == ["1", "ConfigError"]
    assert "seed must be nonnegative" in row[2]


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


def test_single_depth_decay_grid_exits_one(clean_env, tmp_path):
    # interval_n <= 10 leaves verify's decay grid at the one depth
    # interval_n, where a slope fit is a line through a single point; no
    # depth exceeds interval_n
    for interval_n in ("5", "9", "10"):
        clean_env.setenv("FLAGDIM_INTERVAL_N", interval_n)
        out = tmp_path / interval_n
        code = cli.main(["verify", "--ensemble", "bern2", "--seed", "11",
                         "--out", str(out), "--no-figures"])
        assert code == 1
        _, row = error_rows(out)
        assert row[:2] == ["1", "ConfigError"]
        assert "decay grid of one depth" in row[2]


@pytest.mark.parametrize("command", ["entropy", "dimension"])
def test_single_depth_decay_grid_leaves_other_commands_alone(clean_env,
                                                             tmp_path, command):
    # only verify runs the decay curve; an interval route at small n goes
    # through the entropy command.  The budget is the verify-bern2
    # workload's, at which the dimension leg's kappa is significant
    for name, value in (("SPECTRUM_STEPS", "10000"), ("TAIL_REPLICAS", "6000"),
                        ("ORBIT_SAMPLES", "24"), ("REPLICAS", "12"),
                        ("INTERVAL_N", "8")):
        clean_env.setenv("FLAGDIM_" + name, value)
    code = cli.main([command, "--ensemble", "bern2", "--seed", "7",
                     "--out", str(tmp_path), "--no-figures"])
    assert code == 0
    assert not (tmp_path / "error.csv").exists()


def test_bad_fiber_flag_exits_one(clean_env, tmp_path):
    code = cli.main(["spectrum", "--ensemble", "bern2", "--seed", "1",
                     "--fiber", "x", "--out", str(tmp_path), "--no-figures"])
    assert code == 1
    _, row = error_rows(tmp_path)
    assert row[:2] == ["1", "ConfigError"]
    assert "bad value for fiber_index: 'x'" in row[2]


@pytest.mark.parametrize("command", ["spectrum", "entropy", "dimension",
                                     "verify"])
def test_out_of_range_fiber_exits_one_before_any_draw(clean_env, tmp_path,
                                                      command):
    # bern2 has the one fiber 1: fiber 2 is refused as the run starts, so
    # the spectrum, the first draw of every command, never runs
    calls = []
    clean_env.setattr(harness, "lyapunov_spectrum",
                      lambda *args, **kwargs: calls.append(args))
    code = cli.main([command, "--ensemble", "bern2", "--seed", "7",
                     "--fiber", "2", "--out", str(tmp_path), "--no-figures"])
    assert code == 1
    _, row = error_rows(tmp_path)
    assert row == ["1", "ConfigError", "fiber_index 2 out of range for d = 2"]
    assert calls == []


@pytest.mark.parametrize("args, message", [
    (["verify", "--bogus"], "unrecognized arguments: --bogus"),
    (["verify", "--threads", "x"], "argument --threads: invalid int value"),
    (["verify", "--threads", "0"], "argument --threads: must be at least 1"),
    (["verify", "--threads", "-1"], "argument --threads: must be at least 1"),
], ids=["unknown_flag", "bad_threads", "zero_threads", "negative_threads"])
def test_usage_error_exits_one_not_the_gate_code(clean_env, tmp_path, args,
                                                  message):
    # exit 2 means a gate refused; a typo is a configuration failure, and
    # its record goes to out/ since no --out could be read
    clean_env.chdir(tmp_path)
    assert cli.main(args + ["--out", str(tmp_path / "unread")]) == 1
    _, row = error_rows(tmp_path / "out")
    assert row[:2] == ["1", "ConfigError"]
    assert message in row[2]


@pytest.mark.parametrize("args", [["--version"], ["verify", "--help"]])
def test_help_and_version_exit_zero(clean_env, tmp_path, args):
    clean_env.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        cli.main(args)
    assert exit_.value.code == 0
    assert not (tmp_path / "out").exists()


def test_every_leg_refused_exits_two_with_the_gate_class(clean_env, tmp_path):
    # rot2 acts isometrically: its gap is zero and the dimension report's
    # gap gate refuses before its kappa gate is read
    for name, value in (("SPECTRUM_STEPS", "400"), ("TAIL_REPLICAS", "1500"),
                        ("ORBIT_SAMPLES", "8"), ("BANDWIDTH", "0.1")):
        clean_env.setenv("FLAGDIM_" + name, value)
    code = cli.main(["dimension", "--ensemble", "rot2", "--seed", "3",
                     "--out", str(tmp_path), "--no-figures"])
    assert code == 2
    _, row = error_rows(tmp_path)
    assert row[:2] == ["2", "HypothesisNotMet"]
    assert row[2].startswith("gap[1] = ")


def test_a_run_removes_an_earlier_runs_outputs(clean_env, tmp_path):
    # a refused dimension run writes kappa.csv, ballmass.csv and
    # error.csv; a spectrum run into the same directory then succeeds and
    # writes none of them, so none may stay to read as its own
    for name, value in (("SPECTRUM_STEPS", "400"), ("TAIL_REPLICAS", "1500"),
                        ("ORBIT_SAMPLES", "8")):
        clean_env.setenv("FLAGDIM_" + name, value)
    args = ["--ensemble", "rot2", "--seed", "3", "--out", str(tmp_path)]
    assert cli.main(["dimension"] + args) == 2
    assert {"error.csv", "kappa.csv", "ballmass.csv"} <= set(
        os.listdir(tmp_path))
    assert cli.main(["spectrum"] + args) == 0
    assert sorted(os.listdir(tmp_path)) == ["diagnostics.csv",
                                            "spectrum.csv", "summary.txt"]


def test_a_failed_run_removes_an_earlier_runs_outputs(clean_env, tmp_path):
    # a verify writes every output and its figures; a spectrum run into
    # the same directory then fails as it starts (bern2 has no fiber 2)
    # and must leave its error.csv alone, with nothing to read as its own
    for name, value in (("SPECTRUM_STEPS", "400"), ("TAIL_REPLICAS", "1500"),
                        ("ORBIT_SAMPLES", "8"), ("REPLICAS", "4"),
                        ("INTERVAL_N", "20")):
        clean_env.setenv("FLAGDIM_" + name, value)
    args = ["--ensemble", "bern2", "--seed", "7", "--out", str(tmp_path)]
    cli.main(["verify"] + args)
    assert {"kappa.csv", "decay.csv", "ballmass.csv", "spectrum.csv",
            "summary.txt", "kappa_gap.svg"} <= set(os.listdir(tmp_path))
    assert cli.main(["spectrum", "--fiber", "2"] + args) == 1
    assert os.listdir(tmp_path) == ["error.csv"]
    _, row = error_rows(tmp_path)
    assert row == ["1", "ConfigError", "fiber_index 2 out of range for d = 2"]


def test_verify_with_every_kappa_leg_refused_exits_two(clean_env, tmp_path):
    # two commuting diagonal atoms fix the coordinate flag: every fiber is
    # atomic, so no density or interval leg of any fiber yields a kappa
    path = tmp_path / "twodiag.spec"
    path.write_text(to_text(finite_support(
        "twodiag", [np.diag([1.2, 1.0, 0.8]), np.diag([1.3, 0.9, 0.85])],
        [0.5, 0.5])))
    for name, value in (("SPECTRUM_STEPS", "2000"), ("TAIL_REPLICAS", "1500"),
                        ("ORBIT_SAMPLES", "8"), ("REPLICAS", "12"),
                        ("INTERVAL_N", "60")):
        clean_env.setenv("FLAGDIM_" + name, value)
    code = cli.main(["verify", "--ensemble", str(path), "--seed", "7",
                     "--out", str(tmp_path / "out"), "--no-figures"])
    assert code == 2
    # the gate that fired first, the density leg of fiber 1, rather than
    # a dimension leg's refusal derived from it
    _, row = error_rows(tmp_path / "out")
    assert row[:2] == ["2", "AtomicFiber"]
    assert row[2].startswith("twodiag fiber 1: cluster of weight")


def test_spec_file_of_a_removed_kind_exits_one(clean_env, tmp_path):
    # the format of the diagonal kind, which has no stationary measure to
    # check and is no longer read
    path = tmp_path / "dg.spec"
    path.write_text("flagdim ensemble schema 1\nname = dg\nkind = diagonal\n"
                    "dim = 2\nlog_means = 0.2 -0.1\nlog_sds = 0.3 0.2\n")
    code = cli.main(["spectrum", "--ensemble", str(path), "--seed", "1",
                     "--out", str(tmp_path), "--no-figures"])
    assert code == 1
    _, row = error_rows(tmp_path)
    assert row[:2] == ["1", "InvalidSpec"]
    assert "unknown ensemble kind 'diagonal'" in row[2]


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


def test_config_file_with_a_pin_length_exits_one(clean_env, tmp_path):
    # the pin is entropy.PIN_LENGTH, not a setting: the key is unknown in
    # a file, and FLAGDIM_PIN_LENGTH names no field, so it is not read
    path = tmp_path / "run.ini"
    path.write_text("[experiment]\nschema = 1\nseed = 1\npin_length = 60\n")
    assert cli.main(["verify", "--config", str(path),
                     "--out", str(tmp_path)]) == 1
    _, row = error_rows(tmp_path)
    assert row[:2] == ["1", "ConfigError"]
    assert "unknown keys: pin_length" in row[2]
    clean_env.setenv("FLAGDIM_PIN_LENGTH", "-1")
    args = cli._parser().parse_args(["verify", "--seed", "1"])
    assert cli._config(args).seed == 1


def test_every_command_runs_d4_from_a_spec_file(clean_env, tmp_path):
    # at d = 4 fiber 2's base has a subspace on each side; the budget is
    # the verify-diag3eps workload's.  Shapes only, not values
    path = tmp_path / "diag4eps.spec"
    path.write_text(to_text(diag4eps()))
    for name, value in (("SPECTRUM_STEPS", "5000"), ("TAIL_REPLICAS", "2000"),
                        ("ORBIT_SAMPLES", "24"), ("REPLICAS", "12"),
                        ("INTERVAL_N", "60")):
        clean_env.setenv("FLAGDIM_" + name, value)
    for command in ("spectrum", "entropy", "dimension", "verify"):
        out = tmp_path / command
        args = [command, "--ensemble", str(path), "--seed", "7",
                "--out", str(out)]
        assert cli.main(args if command == "verify"
                        else args + ["--no-figures"]) == 0
        assert not (out / "error.csv").exists()
    both = [[str(i), method] for i in (1, 2, 3)
            for method in ("density", "interval")]
    for command in ("entropy", "verify"):
        kappa = data_rows(tmp_path / command / "kappa.csv")
        assert [row[:2] for row in kappa] == both
    for command in ("dimension", "verify"):
        out = tmp_path / command
        assert [row[0] for row in data_rows(out / "dimension.csv")] == \
            ["1", "2", "3"]
        assert len(data_rows(out / "ballmass.csv")) == 216
    for command in ("spectrum", "entropy", "dimension", "verify"):
        spectrum = data_rows(tmp_path / command / "spectrum.csv")
        assert [row[0] for row in spectrum] == ["1", "2", "3", "4"]
    for figure in ("kappa_gap.svg", "interval_decay.svg",
                   "dimension_slopes.svg"):
        assert (tmp_path / "verify" / figure).stat().st_size > 0
