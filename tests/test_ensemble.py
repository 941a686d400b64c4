from types import SimpleNamespace

import numpy as np
import pytest

from flagdim import ensemble
from flagdim.ensemble import (BENCHMARKS, EnsembleSpec, SeededSampler,
                              bern2, diag3eps, finite_support,
                              from_text, iso2, iso3, mean_log_abs_det, rot2,
                              sample_batch, to_text, validate)
from flagdim.errors import ConfigError, InvalidSpec
from flagdim.harness import load_config

import seed_census


def test_sampler_is_reproducible():
    a = sample_batch(bern2(), SeededSampler(123), 50)
    b = sample_batch(bern2(), SeededSampler(123), 50)
    assert np.array_equal(a, b)


def test_sampler_streams_differ():
    a = sample_batch(bern2(), SeededSampler(123, (0,)), 50)
    b = sample_batch(bern2(), SeededSampler(123, (1,)), 50)
    assert not np.array_equal(a, b)


class _Logged(SeededSampler):
    """A sampler that builds its children from its own seed, as the
    harness tests' key log does."""

    def child(self, *subkey):
        return _Logged(self.seed, self.stream + subkey)


def test_seed_census_shifts_every_stream_once():
    # the census moves every stream's seed by its shift exactly once: a
    # child, and a child of a child, built by ``child`` or from its
    # parent's ``seed``, draws what an unshifted sampler on the shifted
    # seed and the same key draws; the shift ends with its context.  The
    # census runs this test shifted too, so it compares samplers only
    keys = [(), (3,), (3, 4)]
    want = [SeededSampler(1007, key).rng.random(4) for key in keys]
    unshifted = SeededSampler(7).rng.random(4)
    with seed_census.shift_seeds(1000):
        for root in (SeededSampler(7), _Logged(7)):
            line = [root, root.child(3), root.child(3).child(4)]
            assert [s.seed for s in line] == [7] * 3
            assert [s.stream for s in line] == keys
            for sampler, bits in zip(line, want, strict=True):
                assert np.array_equal(sampler.rng.random(4), bits)
    assert np.array_equal(SeededSampler(7).rng.random(4), unshifted)
    assert not np.array_equal(unshifted, want[0])


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
    idx = ensemble._atom_counts(spec, by_index, 1000)
    assert np.array_equal(spec.params["atoms"][idx],
                          sample_batch(spec, by_matrix, 1000))
    # both leave the stream at the same place
    assert np.array_equal(sample_batch(spec, by_index, 300),
                          sample_batch(spec, by_matrix, 300))


def unequal(name, k):
    """k scaled identities with probabilities proportional to 1..k."""
    return finite_support(name, [np.eye(2) * (1.0 + j / k) for j in range(k)],
                          np.arange(1, k + 1) / (k * (k + 1) / 2))


def three_atoms(name, probs):
    """Three scaled identities with the given probabilities."""
    return finite_support(name, [np.eye(2) * (1.0 + j / 3) for j in range(3)],
                          probs)


@pytest.mark.parametrize("spec", [
    bern2(), diag3eps(), unequal("three", 3), unequal("seventeen", 17),
    unequal("eighty", 80),
    # cdf entries that are not multiples of 2^-53
    three_atoms("tenths", [0.1, 0.2, 0.7]),
    three_atoms("thirds", [1 / 3, 1 / 3, 1 / 3]),
    # a cdf entry of 1 before the last, and a repeated entry
    three_atoms("last-zero", [0.5, 0.5, 0.0]),
    three_atoms("middle-zero", [0.3, 0.0, 0.7])],
    ids=lambda s: s.name)
def test_atom_indices_equal_generator_choice(spec):
    # the counted draw is choice's, byte for byte once widened to its
    # int64, and leaves the stream where choice leaves it; the narrow
    # counts gather to sample_batch's matrices
    probs = spec.params["probs"]
    for seed in range(3):
        ours, theirs = SeededSampler(seed, 49), SeededSampler(seed, 49)
        counts = ensemble._atom_counts(spec, ours, 16_000)
        want = theirs.rng.choice(len(probs), size=16_000, p=probs)
        assert counts.dtype == np.min_scalar_type(len(probs) - 1)
        assert counts.astype(want.dtype).tobytes() == want.tobytes()
        assert ours.rng.random() == theirs.rng.random()
        assert np.array_equal(
            spec.params["atoms"][counts],
            sample_batch(spec, SeededSampler(seed, 49), 16_000))


@pytest.mark.parametrize("probs", [
    [0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0], [0.3, 0.0, 0.7]])
def test_atom_counts_read_choice_uniforms_at_the_thresholds(probs):
    # words on either side of each threshold, where a random draw almost
    # never lands: each counts as choice counts its uniform
    # u = (w >> 11) 2^-53, cdf.searchsorted(u, side="right")
    spec = three_atoms("edges", probs)
    cdf = np.cumsum(probs)
    cdf /= cdf[-1]
    tops = [int(m) for m in np.ceil(cdf * 2.0 ** 53)] + [2 ** 53]
    words = np.array(sorted({(top + shift) << 11 | low for top in tops
                             for shift in (-2, -1, 0) for low in (0, 2047)
                             if 0 <= top + shift < 2 ** 53}), dtype=np.uint64)
    fake = SimpleNamespace(rng=SimpleNamespace(bit_generator=SimpleNamespace(
        random_raw=lambda n: words[:n])))
    u = (words >> np.uint64(11)).astype(float) * 2.0 ** -53
    assert np.array_equal(ensemble._atom_counts(spec, fake, len(words)),
                          cdf.searchsorted(u, side="right"))


def equiprobable(k):
    """k scaled identities, each of probability 1/k."""
    return finite_support(f"equal{k}", [np.eye(2) * (1.0 + j / k)
                                        for j in range(k)], np.full(k, 1 / k))


# one spec for each packed width b = 1, 2, 4 and 8
PACKED = [bern2(), diag3eps(), equiprobable(16), equiprobable(256)]


@pytest.mark.parametrize("spec, bits", [
    (bern2(), 1), (diag3eps(), 2), (equiprobable(16), 4),
    (equiprobable(256), 8), (equiprobable(8), None), (equiprobable(1), None),
    (unequal("three", 3), None), (three_atoms("thirds", [1 / 3] * 3), None),
    (finite_support("skew", bern2().params["atoms"], [0.75, 0.25]), None),
    (iso3(), None), (rot2(), None)], ids=lambda v: getattr(v, "name", v))
def test_packed_draws_take_only_dyadic_equal_weights(spec, bits):
    assert ensemble._packed_bits(spec) == bits


@pytest.mark.parametrize("spec", PACKED, ids=lambda s: s.name)
@pytest.mark.parametrize("n", [1, 7, 64, 65, 200])
def test_packed_draw_of_t_steps_equals_t_one_step_draws(spec, n):
    # each step spends its own words, so any split of the steps into
    # calls draws the same indices and leaves the stream at one place
    b = ensemble._packed_bits(spec)
    stepwise, one_call = SeededSampler(53, 1), SeededSampler(53, 1)
    steps = np.concatenate([ensemble._packed_atom_counts(stepwise, 1, n, b)
                            for _ in range(30)])
    got = ensemble._packed_atom_counts(one_call, 30, n, b)
    assert got.shape == (30, n) and got.dtype == np.uint8
    assert np.array_equal(got, steps)
    assert (stepwise.rng.bit_generator.random_raw()
            == one_call.rng.bit_generator.random_raw())


@pytest.mark.parametrize("spec", PACKED, ids=lambda s: s.name)
@pytest.mark.parametrize("n", [1, 7, 64, 65, 200])
def test_packed_draw_reads_shifts_and_masks_of_its_raw_words(spec, n):
    # T ceil(n b / 64) words, and replica r reads the b-bit field
    # r mod (64 / b) of its step's word r div (64 / b), lowest bits first
    b = ensemble._packed_bits(spec)
    words, per = -(-n * b // 64), 64 // b
    drawn, fresh = SeededSampler(54), SeededSampler(54)
    got = ensemble._packed_atom_counts(drawn, 30, n, b)
    raw = fresh.rng.bit_generator.random_raw(30 * words).reshape(30, words)
    r = np.arange(n)
    want = (raw[:, r // per] >> (b * (r % per)).astype(np.uint64)) & (2 ** b - 1)
    assert np.array_equal(got, want)
    assert (drawn.rng.bit_generator.random_raw()
            == fresh.rng.bit_generator.random_raw())


@pytest.mark.parametrize("spec, critical", [(bern2(), 10.83),
                                            (diag3eps(), 16.27)],
                         ids=lambda v: getattr(v, "name", v))
def test_packed_indices_are_uniform(spec, critical):
    # chi-square of 64 000 indices against 1/K each, below its 0.999
    # quantile (1 and 3 degrees of freedom)
    idx = ensemble._packed_atom_counts(SeededSampler(55), 1000, 64,
                                       ensemble._packed_bits(spec))
    k = len(spec.params["probs"])
    counts = np.bincount(idx.ravel(), minlength=k)
    expected = idx.size / k
    assert len(counts) == k
    assert np.sum((counts - expected) ** 2 / expected) < critical


@pytest.mark.parametrize("probs", [[0.5, 0.6], [-0.5, 1.5], [np.nan, 1.0]])
def test_atom_indices_refuse_what_choice_refuses(probs):
    # a spec built in code runs without validate, so the draw keeps
    # choice's refusal of probabilities that are not a distribution
    spec = finite_support("bad", [np.eye(2), np.diag([2.0, 0.5])], probs)
    with pytest.raises(ValueError):
        SeededSampler(0).rng.choice(2, size=4, p=spec.params["probs"])
    with pytest.raises(ValueError):
        ensemble._atom_counts(spec, SeededSampler(0), 4)


@pytest.mark.parametrize("kind, params", [
    ("rotation_invariant", {"stretch": np.array([[np.nan, 0.0], [0.0, 1.0]])}),
], ids=["stretch"])
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


@pytest.mark.parametrize("kind", ["mystery", "diagonal", "perturbed"])
def test_unknown_kind_rejected(kind):
    with pytest.raises(InvalidSpec):
        EnsembleSpec(name="x", dim=2, kind=kind)


def test_validate_rotation_invariant_moments_in_closed_form():
    # every draw of iso3 has the stretch's singular values and |det|
    rep = validate(iso3())
    assert np.allclose(rep.log_sv_moments, [0.20, 0.0, 0.17], rtol=0,
                       atol=1e-12)


def test_mean_log_abs_det_exact_for_benchmarks():
    assert mean_log_abs_det(bern2()) == pytest.approx(0.0, abs=1e-14)
    assert mean_log_abs_det(diag3eps()) == pytest.approx(0.03, abs=1e-12)
    assert mean_log_abs_det(rot2()) == pytest.approx(0.0, abs=1e-12)
    assert mean_log_abs_det(iso2()) == pytest.approx(0.0, abs=1e-12)
    assert mean_log_abs_det(iso3()) == pytest.approx(0.03, abs=1e-12)


def test_benchmark_lookup():
    assert set(BENCHMARKS) == {"rot2", "bern2", "diag3eps", "iso2", "iso3"}
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


def test_text_round_trip_all_kinds():
    for spec in [bern2(), rot2(), diag3eps(), iso3()]:
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
