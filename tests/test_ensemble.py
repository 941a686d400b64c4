import numpy as np
import pytest

from flagdim import ensemble
from flagdim.ensemble import (BENCHMARKS, EnsembleSpec, SeededSampler,
                              atom_indices, bern2, diag3eps, finite_support,
                              from_text, mean_log_abs_det, rot2, sample_batch,
                              to_text, validate)
from flagdim.errors import ConfigError, InvalidSpec
from flagdim.harness import load_config


def test_sampler_is_reproducible():
    a = sample_batch(bern2(), SeededSampler(123), 50)
    b = sample_batch(bern2(), SeededSampler(123), 50)
    assert np.array_equal(a, b)


def test_sampler_streams_differ():
    a = sample_batch(bern2(), SeededSampler(123, (0,)), 50)
    b = sample_batch(bern2(), SeededSampler(123, (1,)), 50)
    assert not np.array_equal(a, b)


def test_child_key_paths_are_distinct():
    root = SeededSampler(9)
    a = sample_batch(diag3eps(), root.child(0, 1), 20)
    b = sample_batch(diag3eps(), root.child(0, 2), 20)
    c = sample_batch(diag3eps(), root.child(0, 1), 20)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, b)


def test_single_atom_sample_is_constant():
    spec = finite_support("single", [np.diag([2.0, 0.5])], [1.0])
    for k in range(5):
        assert np.array_equal(sample_batch(spec, SeededSampler(k), 1)[0],
                              np.diag([2.0, 0.5]))


@pytest.mark.parametrize("spec", [bern2(), diag3eps()], ids=lambda s: s.name)
def test_atom_indices_gather_to_sample_batch(spec):
    by_index, by_matrix = SeededSampler(46), SeededSampler(46)
    idx = atom_indices(spec, by_index, 1000)
    assert np.array_equal(spec.params["atoms"][idx],
                          sample_batch(spec, by_matrix, 1000))
    # both leave the stream at the same place
    assert np.array_equal(sample_batch(spec, by_index, 300),
                          sample_batch(spec, by_matrix, 300))


def unequal(name, k):
    """k scaled identities with probabilities proportional to 1..k."""
    return finite_support(name, [np.eye(2) * (1.0 + j / k) for j in range(k)],
                          np.arange(1, k + 1) / (k * (k + 1) / 2))


@pytest.mark.parametrize("spec", [
    bern2(), diag3eps(), unequal("three", 3), unequal("seventeen", 17),
    unequal("eighty", 80)], ids=lambda s: s.name)
def test_atom_indices_equal_generator_choice(spec):
    # the counted draw is choice's, byte for byte, and leaves the stream
    # where choice leaves it
    probs = spec.params["probs"]
    for seed in range(3):
        ours, theirs = SeededSampler(seed, 49), SeededSampler(seed, 49)
        got = atom_indices(spec, ours, 16_000)
        want = theirs.rng.choice(len(probs), size=16_000, p=probs)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert ours.rng.random() == theirs.rng.random()


@pytest.mark.parametrize("probs", [[0.5, 0.6], [-0.5, 1.5], [np.nan, 1.0]])
def test_atom_indices_refuse_what_choice_refuses(probs):
    # a spec built in code runs without validate, so the draw keeps
    # choice's refusal of probabilities that are not a distribution
    spec = finite_support("bad", [np.eye(2), np.diag([2.0, 0.5])], probs)
    with pytest.raises(ValueError):
        SeededSampler(0).rng.choice(2, size=4, p=spec.params["probs"])
    with pytest.raises(ValueError):
        atom_indices(spec, SeededSampler(0), 4)


@pytest.mark.parametrize("kind, params", [
    ("rotation_invariant", {"stretch": np.array([[np.nan, 0.0], [0.0, 1.0]])}),
    ("diagonal", {"log_means": np.array([np.nan, 0.0]),
                  "log_sds": np.array([0.1, 0.1])}),
    ("diagonal", {"log_means": np.zeros(2),
                  "log_sds": np.array([np.inf, 0.1])}),
], ids=["stretch", "log_means", "log_sds"])
def test_check_spec_refuses_non_finite_parameters(kind, params):
    with pytest.raises(InvalidSpec):
        ensemble.check_spec(EnsembleSpec("bad", 2, kind, params))


def test_two_atom_frequencies_binomial():
    # 1e6 draws from a fair two-atom ensemble; distinguish atoms by a
    # matrix entry and compare the count against the binomial oracle
    spec = bern2()
    draws = 1_000_000
    batch = sample_batch(spec, SeededSampler(2024), draws)
    first = spec.params["atoms"][0]
    hits = int(np.sum(np.abs(batch[:, 0, 1] - first[0, 1]) < 1e-12))
    sigma = np.sqrt(draws * 0.25)
    assert abs(hits - draws / 2) < 4 * sigma


def test_validate_single_atom_moments():
    rep = validate(finite_support("single", [np.diag([2.0, 0.5])], [1.0]))
    assert np.allclose(rep.log_sv_moments, [np.log(2), np.log(2)], rtol=1e-12)
    assert np.array_equal(rep.moment_stderr, [0.0, 0.0])
    assert "valid" in rep.lines()[0]


def test_validate_bern2_exact_moments():
    rep = validate(bern2())
    assert np.allclose(rep.log_sv_moments, [0.15, 0.15], rtol=1e-12)


def test_validate_rejects_bad_probabilities():
    spec = finite_support("bad", [np.eye(2), np.diag([2.0, 0.5])], [0.5, 0.6])
    with pytest.raises(InvalidSpec) as exc:
        validate(spec)
    assert any("sum" in r for r in exc.value.reasons)


def test_validate_rejects_singular_atom():
    spec = finite_support("bad", [np.array([[1.0, 1.0], [1.0, 1.0]])], [1.0])
    with pytest.raises(InvalidSpec) as exc:
        validate(spec)
    assert any("singular" in r or "invertib" in r for r in exc.value.reasons)


def test_validate_collects_all_reasons():
    spec = finite_support("bad", [np.array([[1.0, 1.0], [1.0, 1.0]])], [0.9])
    with pytest.raises(InvalidSpec) as exc:
        validate(spec)
    assert len(exc.value.reasons) >= 2


def test_unknown_kind_rejected():
    with pytest.raises(InvalidSpec):
        EnsembleSpec(name="x", dim=2, kind="mystery")


def test_mean_log_abs_det_exact_for_benchmarks():
    value, stderr = mean_log_abs_det(bern2())
    assert value == pytest.approx(0.0, abs=1e-14) and stderr == 0.0
    value, stderr = mean_log_abs_det(diag3eps())
    assert value == pytest.approx(0.03, abs=1e-12) and stderr == 0.0
    value, _ = mean_log_abs_det(rot2())
    assert value == pytest.approx(0.0, abs=1e-12)


def test_benchmark_lookup():
    assert set(BENCHMARKS) == {"rot2", "bern2", "diag3eps"}
    assert BENCHMARKS["bern2"]().name == "bern2"
    # a name that is neither a benchmark nor a spec file is refused
    with pytest.raises(ConfigError):
        load_config(None, {"ensemble": "nope", "seed": 1}, environ={})


def test_rotation_invariant_samples_are_orthogonal_times_stretch():
    batch = sample_batch(rot2(), SeededSampler(5), 200)
    eye = np.eye(2)
    for m in batch:
        assert np.max(np.abs(m.T @ m - eye)) < 1e-10
        assert abs(abs(np.linalg.det(m)) - 1.0) < 1e-10


def test_diagonal_kind_samples():
    spec = EnsembleSpec("dg", 2, "diagonal",
                        {"log_means": np.array([0.5, -0.5]),
                         "log_sds": np.array([0.0, 0.0])})
    m = sample_batch(spec, SeededSampler(3), 1)[0]
    assert np.allclose(m, np.diag([np.exp(0.5), np.exp(-0.5)]), atol=1e-12)


def test_text_round_trip_all_kinds():
    specs = [bern2(), rot2(), diag3eps(),
             EnsembleSpec("dg", 3, "diagonal",
                          {"log_means": np.array([0.3, 0.0, -0.3]),
                           "log_sds": np.array([0.1, 0.2, 0.3])}),
             EnsembleSpec("pt", 2, "perturbed",
                          {"atoms": np.array([np.diag([2.0, 0.5])]),
                           "probs": np.array([1.0]),
                           "magnitude": 0.05})]
    for spec in specs:
        text = to_text(spec)
        back = from_text(text)
        assert (back.name, back.kind, back.dim) == (spec.name, spec.kind,
                                                    spec.dim)
        for key, val in spec.params.items():
            assert np.array_equal(np.asarray(back.params[key], dtype=float),
                                  np.asarray(val, dtype=float)), key
        assert to_text(back) == text


def test_text_rejects_malformed():
    good = to_text(bern2())
    cases = [
        "",
        good.replace("schema 1", "schema 9"),
        good.replace("kind = finite_support", "kind = mystery"),
        "\n".join(ln for ln in good.splitlines() if not ln.startswith("probs")),
        good + "name = twice\n",
        good.replace("probs = 0.5 0.5", "probs = half half"),
    ]
    for text in cases:
        with pytest.raises(InvalidSpec):
            from_text(text)


def test_text_ignores_comments_and_blank_lines():
    text = to_text(bern2())
    noisy = "# header comment\n" + text.replace(
        "dim = 2", "dim = 2\n\n# interlude")
    assert to_text(from_text(noisy)) == text


def test_validated_round_trip_preserves_moments():
    rep1 = validate(diag3eps())
    rep2 = validate(from_text(to_text(diag3eps())))
    assert np.array_equal(rep1.log_sv_moments, rep2.log_sv_moments)
