import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flagdim import circle, dynamics, ensemble, entropy, harness
from flagdim.dynamics import (DECAY_STABLE_TOL, FOLD_COND_CAP,
                              INTERVAL_STABLE_TOL, THINNING,
                              WORD_FOLD_STEPS, WORD_TABLE, Arc,
                              batched_orthonormalize, circle_map_between,
                              evolve_flags, fold_width, forward_orbit,
                              interval_decay_curve, lyapunov_spectrum,
                              pinned_samples, pull_forward, push_flags,
                              stable_coordinates,
                              stationary_flag_pool, stationary_interval,
                              stationary_lines, stationary_orbit)
from flagdim.ensemble import (SeededSampler, bern2, diag3eps, finite_support,
                              from_text, iso2, iso3, rot2, sample_batch,
                              to_text)
from flagdim.errors import (DegenerateFiberPair, GapTooSmall, IntervalWrap)
from flagdim.flagcore import (CircleMap, Flag, LinearMap, act_flag,
                              completion_frames, det2, fiber_coordinates,
                              fiber_map_image, partial_flag)

import fold_loop_reference
from test_cli import diag4eps
from iso_reference import iso3_exponents
from stable_line_reference import oseledets_stable_line


def single(name, mat):
    return finite_support(name, [np.asarray(mat, dtype=float)], [1.0])


def every_time(n_steps, t0=0):
    """Every time of the window [t0, t0 + n_steps]: a trace naming them
    all folds one step at a time, the stepwise trace."""
    return np.arange(t0, t0 + n_steps + 1)


def matrices(trace):
    """Each step's matrix (R, T, d, d) of a trace, bit for bit
    ``sample_batch``'s draws: finite support takes its atoms at the drawn
    indices."""
    if trace.spec.kind == "finite_support":
        return trace.spec.params["atoms"].take(trace.draws, axis=0)
    return trace.draws


HYPER2 = single("hyper2", np.diag([2.0, 0.5]))
HYPER3 = single("hyper3", np.diag([3.0, 1.0, 1 / 3.0]))


def givens(d, a, b, angle):
    g = np.eye(d)
    g[[a, a, b, b], [a, b, a, b]] = [np.cos(angle), -np.sin(angle),
                                     np.sin(angle), np.cos(angle)]
    return g


def hyper3mix():
    # two hyperbolic atoms in general position: gaps at both fibers and
    # replicas that differ, unlike a single atom
    stretch = np.diag([3.0, 1.0, 1 / 3.0])
    return finite_support("hyper3mix",
                          [givens(3, 0, 1, 0.7) @ stretch,
                           givens(3, 1, 2, 1.1) @ givens(3, 0, 2, 0.4) @ stretch],
                          [0.5, 0.5])


def strong2(angle=0.9, stretch=0.8):
    r = np.array([[np.cos(angle), -np.sin(angle)],
                  [np.sin(angle), np.cos(angle)]])
    d = np.diag([np.exp(stretch), np.exp(-stretch)])
    return finite_support("strong2", [r @ d, r.T @ d], [0.5, 0.5])


def test_batched_orthonormalize_matches_scalar(rng):
    mats = rng.standard_normal((16, 3, 3)) + 2 * np.eye(3)
    q, logr = batched_orthonormalize(mats)
    for k in range(16):
        qk, rk = np.linalg.qr(mats[k])
        sign = np.sign(np.diag(rk))
        assert np.allclose(q[k], qk * sign, atol=1e-10)
        assert np.allclose(logr[k], np.log(np.abs(np.diag(rk))), atol=1e-10)


@pytest.mark.parametrize("layout", ["F", "replica-last"])
def test_batched_orthonormalize_keeps_the_memory_order(rng, layout):
    # a stack whose replica axis is innermost in memory comes back in the
    # same order, with the C-ordered stack's Q and log|diag R|
    mats = rng.standard_normal((500, 3, 3)) + 2 * np.eye(3)
    q, logr = batched_orthonormalize(mats)
    assert q.flags.c_contiguous
    if layout == "F":
        copy = np.asfortranarray(mats)
    else:
        copy = np.moveaxis(np.ascontiguousarray(np.moveaxis(mats, 0, -1)),
                           -1, 0)
    got_q, got_logr = batched_orthonormalize(copy)
    assert got_q.strides == copy.strides
    assert np.max(np.abs(got_q - q)) < 1e-14
    assert np.max(np.abs(got_logr - logr)) < 1e-14


@pytest.mark.parametrize("spec", [bern2(), iso3(), iso2()],
                         ids=["finite_support", "rotation_invariant", "iso2"])
def test_block_draws_equal_stepwise_draws(spec):
    # 800 replicas over 90 steps, more draws than DRAW_BLOCK: one call
    # draws what a call per step draws, which is what lets an orbit window
    # draw in one call and a stack in blocks of any size
    n, steps = 800, 90
    stream = SeededSampler(40)
    stepwise = np.stack([sample_batch(spec, stream, n) for _ in range(steps)])
    one_call = sample_batch(spec, SeededSampler(40), steps * n)
    assert np.array_equal(one_call, stepwise.reshape(one_call.shape))


@given(st.integers(0, 5000), st.integers(0, 3000),
       st.integers(1, WORD_FOLD_STEPS))
def test_block_steps_hold_whole_folds(n, steps, width):
    # blocks cover the steps, every block but the last holds whole folds,
    # and none holds more than DRAW_BLOCK draws or one fold of the stack
    blocks = list(dynamics._block_steps(n, steps, width))
    assert sum(blocks) == steps
    assert all(t > 0 for t in blocks)
    assert all(t % width == 0 for t in blocks[:-1])
    assert all(t * n <= max(dynamics.DRAW_BLOCK, n * width) for t in blocks)


def stepwise_advance(spec, bases, steps, sampler, batch=sample_batch):
    """The reference: one draw and one QR step per step, each step's
    matrices drawn by ``batch(spec, sampler, n)``."""
    logs = 0.0
    for _ in range(steps):
        bases, logr = batched_orthonormalize(
            batch(spec, sampler, len(bases)) @ bases)
        logs = logs + logr
    return bases, logs


def packed_batch(spec, sampler, n):
    """One step's n matrices as the d = 2 lines draw them: the atoms at
    packed indices, ceil(n b / 64) raw words, for 2^b equiprobable atoms,
    and ``sample_batch`` for every other spec."""
    b = ensemble._packed_bits(spec)
    if b is None:
        return sample_batch(spec, sampler, n)
    return spec.params["atoms"].take(
        ensemble._packed_atom_counts(sampler, 1, n, b)[0], axis=0)


def left_folds(mats, width):
    """The products of mats (T, ...), ``width`` steps at a time and the
    last fold shorter, each multiplied out left-associated, one by one."""
    products = []
    for lo in range(0, len(mats), width):
        prod = mats[lo]
        for a in mats[lo + 1: lo + width]:
            prod = a @ prod
        products.append(prod)
    return products


def matrix_path(spec, bases, steps, sampler):
    """evolve_flags through drawn matrices, the path of rotation_invariant:
    the steps' draws in one call, folded by ``left_folds`` at the spec's
    fold width, and one QR step per fold."""
    n, d = len(bases), spec.dim
    mats = sample_batch(spec, sampler, steps * n).reshape(steps, n, d, d)
    return dynamics._apply(bases, left_folds(mats, fold_width(spec)))


def assert_matches_stepwise(got, want):
    (got_b, got_l), (want_b, want_l) = got, want
    assert np.max(np.abs(got_b - want_b)) < 1e-12
    assert np.max(np.abs(got_l - want_l)) <= 1e-12 * np.max(np.abs(want_l))


def rotations(name, d, k):
    """k atoms: a stretch behind rotations spread over the (0, 1) plane."""
    stretch = np.diag(np.exp(np.linspace(0.2, -0.15, d)))
    return finite_support(name, [givens(d, 0, 1, 2 * np.pi * j / k)
                                 @ givens(d, d - 2, d - 1, 0.3 * j) @ stretch
                                 for j in range(k)],
                          np.arange(1, k + 1) / (k * (k + 1) / 2))


# word lengths h: 8 for bern2, 4 for diag3eps and THREE, 1 for SEVENTEEN
THREE = rotations("three", 3, 3)
SEVENTEEN = rotations("seventeen", 2, 17)
# THREE's atoms scaled to three different |det|, so each replica's summed
# log|det A_t| depends on its draws
SCALED3 = finite_support(
    "scaled3", [np.exp(c) * a for c, a in zip((0.0, 0.08, -0.05),
                                              THREE.params["atoms"])],
    THREE.params["probs"])
# four of diag4eps's eight atoms, equiprobable: a d = 4 chain on packed
# atom indices (diag4eps itself has 8 = 2^3 atoms and draws thresholds)
QUAD4 = finite_support("quad4", diag4eps().params["atoms"][::2],
                       np.full(4, 0.25))


@pytest.mark.parametrize("spec", [bern2(), diag3eps(), iso3(), SCALED3,
                                  diag4eps(), QUAD4], ids=lambda s: s.name)
def test_draw_block_size_moves_no_result(monkeypatch, spec):
    # blocks of one fold, of 4096, 10 000 and DRAW_BLOCK draws: the same
    # folds, and each fold's log|diag R| added to one running sum in turn,
    # as the spectrum adds each fold's log|det|; at d = 4 the spectrum's
    # QR chain and its log|det| sum, on threshold and on packed draws
    start = np.broadcast_to(np.eye(spec.dim), (64, spec.dim, spec.dim))
    runs, spectra = [], []
    for block in (1, 4096, 10_000, dynamics.DRAW_BLOCK):
        monkeypatch.setattr(dynamics, "DRAW_BLOCK", block)
        runs.append(evolve_flags(spec, start, 700, SeededSampler(51)))
        est = lyapunov_spectrum(spec, 700, SeededSampler(51), burnin=50)
        spectra.append(np.concatenate([est.chi, est.stderr, est.gap_stderrs]))
    for bases, logs in runs[1:]:
        assert bases.tobytes() == runs[0][0].tobytes()
        assert logs.tobytes() == runs[0][1].tobytes()
    for values in spectra[1:]:
        assert values.tobytes() == spectra[0].tobytes()


@pytest.mark.parametrize("spec", [bern2(), diag3eps(), THREE, SEVENTEEN,
                                  iso3(), iso2()], ids=lambda s: s.name)
@pytest.mark.parametrize("columns", [1, None])
def test_folded_advance_matches_stepwise(spec, columns):
    # 203 steps: whole folds and a short last one, over several blocks.
    # Finite support folds atom-index words W steps at a time (W = 43 for
    # bern2) from tabled sub-words, a different association from the
    # matrix path's left-to-right products, so it matches within rounding;
    # rotation_invariant specs take the matrix path itself, bit for bit
    d = spec.dim
    start = np.broadcast_to(np.eye(d)[:, :columns], (50, d, columns or d))
    got = evolve_flags(spec, start, 203, SeededSampler(41))
    assert_matches_stepwise(got, stepwise_advance(spec, start, 203,
                                                  SeededSampler(41)))
    drawn = matrix_path(spec, start, 203, SeededSampler(41))
    assert_matches_stepwise(got, drawn)
    if spec.kind != "finite_support":
        assert np.array_equal(got[0], drawn[0])
        assert np.array_equal(got[1], drawn[1])


@pytest.mark.parametrize("spec", [bern2(), diag3eps(), THREE, SEVENTEEN],
                         ids=lambda s: s.name)
def test_word_tables_hold_left_associated_products(spec):
    # entry i_0 + i_1 K + ... of the length-l table is
    # a_{i_{l-1}} (... (a_{i_1} a_{i_0})), and of its log|det| table the
    # atoms' log|det a_{i_j}| summed in the same order, bit for bit
    atoms = spec.params["atoms"]
    k = len(atoms)
    atom_dets = np.linalg.slogdet(atoms)[1]
    _, _, prods, dets = dynamics._word_tables(spec)
    for length, (table, det) in enumerate(zip(prods, dets, strict=True),
                                          start=1):
        assert len(table) == len(det) == k ** length
        for code, entry in enumerate(table):
            word = [code // k ** j % k for j in range(length)]
            want, want_det = atoms[word[0]], atom_dets[word[0]]
            for i in word[1:]:
                want, want_det = atoms[i] @ want, atom_dets[i] + want_det
            assert np.array_equal(entry, want)
            assert det[code] == want_det


# finite-support rotations: every word has condition number 1, so the
# fold width is WORD_FOLD_STEPS
ROTS2 = finite_support("rots2", [givens(2, 0, 1, 0.8), givens(2, 0, 1, -0.8)],
                       [0.5, 0.5])


@pytest.mark.parametrize("spec, width", [
    (bern2(), 43), (diag3eps(), 32), (THREE, 26), (SEVENTEEN, 26),
    (ROTS2, WORD_FOLD_STEPS), (strong2(stretch=2.0), 2),
    (strong2(stretch=3.45), 1)], ids=lambda v: getattr(v, "name", str(v)))
def test_word_folds_stay_under_the_cap(spec, width):
    # the fold width derived from the tables' condition numbers keeps every
    # word product of at most W steps under FOLD_COND_CAP in 2-norm
    # condition: random words, and the worst tabled word of each length
    # repeated over W steps, the case the bound c_h^q c_r is built from
    h, got_width, prods, _ = dynamics._word_tables(spec)
    assert got_width == fold_width(spec) == width
    k = len(spec.params["atoms"])
    idx = np.random.default_rng(48).integers(k, size=(width, 2000))
    for length in range(1, h + 1):
        worst = int(np.argmax(np.linalg.cond(prods[length - 1])))
        word = [worst // k ** j % k for j in range(length)]
        idx[:, length - 1] = np.resize(word, width)
    for steps in range(1, width + 1):
        (prod,) = dynamics._folds(spec, idx[:steps])
        assert np.max(np.linalg.cond(prod)) <= FOLD_COND_CAP


@pytest.mark.parametrize("n", [64, 2000])
@pytest.mark.parametrize("spec, dtype", [
    (bern2(), None), (diag3eps(), None), (THREE, None), (SEVENTEEN, None),
    (diag3eps(), np.int64)],
    ids=lambda v: getattr(v, "name", getattr(v, "__name__", "counts")))
def test_fold_loop_is_the_dispatched_loop_bit_for_bit(spec, dtype, n):
    # the spectrum's 64 replicas and a pool's 2000, over two whole folds
    # and a short one: codes by Horner's rule in the counts' own dtype,
    # undispatched einsums and one log per QR step give the bytes of the
    # plain loop.  The first replica's first word is all K - 1, the
    # largest code (255 for bern2); int64 indices are what
    # test_word_folds_stay_under_the_cap folds
    h, width, *_ = dynamics._word_tables(spec)
    k, d = len(spec.params["atoms"]), spec.dim
    idx = ensemble._atom_counts(spec, SeededSampler(52),
                                (2 * width + 5) * n).reshape(-1, n)
    idx[:h, 0] = k - 1
    if dtype is not None:
        idx = idx.astype(dtype)
    q = width // h
    codes = dynamics._word_codes(idx[:q * h].reshape(q, h, n), k)
    (_, want), *_ = fold_loop_reference.word_codes(idx[None, :q * h], h, k)
    assert codes.dtype == idx.dtype
    assert np.array_equal(codes, want[:, 0])
    assert want.max() == k ** h - 1
    zeros = np.zeros(n)
    products, log_dets = dynamics._folds(spec, idx, zeros)
    want, want_dets = fold_loop_reference.folds(spec, idx, np.zeros(n))
    assert not zeros.any()
    assert len(products) == len(want) == 3
    assert products.strides == want.strides
    for got, ref in zip(products, want):
        assert got.tobytes() == ref.tobytes()
        assert got.strides == ref.strides
    assert log_dets.tobytes() == want_dets.tobytes()
    start = np.linalg.qr(np.random.default_rng(53).standard_normal(
        (n, d, d)))[0]
    for columns in (d - 1, d):
        bases = start[..., :columns]
        got = dynamics._apply(bases, products, np.zeros((n, columns)))
        ref = fold_loop_reference.apply(bases, products,
                                        np.zeros((n, columns)))
        # replica-last, as every stack advances, and C order, as a
        # trace's prefix products are orthonormalized
        got += dynamics.batched_orthonormalize(products[0] @ bases)
        ref += fold_loop_reference.batched_orthonormalize(
            products[0] @ bases)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec, width", [
    (iso2(), 30), (iso3(), 24), (rot2(), WORD_FOLD_STEPS)],
    ids=lambda v: getattr(v, "name", str(v)))
def test_drawn_folds_stay_under_the_cap(spec, width):
    # every draw K S has the stretch's singular values, so a product of w
    # draws has 2-norm condition number at most cond(S)^w: the width read
    # from that bound keeps random products of every width up to W under
    # FOLD_COND_CAP
    assert fold_width(spec) == width
    d = spec.dim
    mats = sample_batch(spec, SeededSampler(50), width * 2000).reshape(
        width, 2000, d, d)
    prod = np.eye(d)
    for a in mats:
        prod = a @ prod
        assert np.max(np.linalg.cond(prod)) <= FOLD_COND_CAP


def test_specs_and_configs_build_no_word_table():
    cfg = harness.load_config(None, {"ensemble": "diag3eps", "seed": 7},
                              environ={})
    # fresh specs: THREE and SEVENTEEN may hold tables from other tests
    specs = [bern2(), diag3eps(), cfg.spec(), from_text(to_text(THREE)),
             rotations("seventeen", 2, 17)]
    assert not any(spec in dynamics._WORD_TABLES for spec in specs)
    for spec in specs:
        evolve_flags(spec, np.eye(spec.dim)[None], 10, SeededSampler(47))
    tables = [dynamics._WORD_TABLES[spec] for spec in specs]
    assert [h for h, *_ in tables] == [8, 4, 4, 4, 1]
    assert all(len(table) <= WORD_TABLE
               for _, _, prods, _ in dynamics._WORD_TABLES.values()
               for table in prods)


def test_pushed_pin_and_burn_in_match_stepwise():
    spec = diag3eps()
    pool = stationary_flag_pool(spec, 200, 100, SeededSampler(42))
    pinned = dynamics._draws(spec, SeededSampler(43), 60, 1)[:, 0]
    want = pool
    for a in spec.params["atoms"][pinned]:
        want, _ = batched_orthonormalize(a @ want)
    assert np.max(np.abs(push_flags(pinned, pool, spec) - want)) < 1e-12
    # a window after a pool burn-in draws on the pool's stream, and a
    # prefix of a replica's window, pushed as a pin, reaches its flag at
    # the times the window names and at its end
    trace = stationary_orbit(spec, 1, 150, 100, SeededSampler(44), replicas=5,
                             times=(-149, -130))
    stream = SeededSampler(44)
    start = stationary_flag_pool(spec, 5, 100, stream)
    window = sample_batch(spec, stream, 5 * 150).reshape(150, 5, 3, 3)
    assert np.array_equal(matrices(trace), window.swapaxes(0, 1))
    assert np.array_equal(trace.bases[:, 0], start)
    for r in range(5):
        for k in (1, 20, 150):
            pushed = push_flags(trace.draws[r, :k], start[r:r + 1], spec)[0]
            kept = trace.bases[r, trace.index(k - 150)]
            assert np.max(np.abs(pushed - kept)) < 1e-12


def test_orbit_window_is_one_draw_call():
    # 100 replicas over 700 steps: 70 000 draws, more than DRAW_BLOCK, are
    # one sample_batch call read step-major
    spec = bern2()
    start = np.broadcast_to(np.eye(2), (100, 2, 2))
    trace = forward_orbit(spec, start, 700, SeededSampler(53))
    window = sample_batch(spec, SeededSampler(53), 700 * 100)
    assert np.array_equal(matrices(trace),
                          window.reshape(700, 100, 2, 2).swapaxes(0, 1))


@pytest.mark.parametrize("spec", [diag3eps(), iso3()], ids=lambda s: s.name)
def test_pinned_samples_push_each_pool_through_its_own_past(spec):
    # four realizations over the window [-60, 1], which names 0, one
    # window per fiber i: the samples over [-60, 0] and [-59, 1] are each
    # realization's own pool pushed through its own steps alone
    # (push_flags) and read on the trace's fiber in the frames kept at 0
    # and 1, bit for bit, and the trace's draws are not written (a Haar
    # trace's matrices are its draws)
    m = 60
    pools = [stationary_flag_pool(spec, 50, 30, SeededSampler(60 + r))
             for r in range(4)]
    for i in (1, 2):
        trace = stationary_orbit(spec, i, m + 1, 20, SeededSampler(52),
                                 t_end=1, replicas=4, times=(0,))
        assert trace.fiber_index == trace.select([1, 3]).fiber_index == i
        before = trace.draws.tobytes()
        for start, end, steps in ((-m, 0, slice(0, m)),
                                  (1 - m, 1, slice(1, m + 1))):
            got = list(pinned_samples(trace, pools, start, end))
            assert len(got) == 4 and trace.draws.tobytes() == before
            frames = trace.frames[:, trace.index(end)]
            for r, sample in enumerate(got):
                pushed = push_flags(trace.draws[r, steps], pools[r], spec)
                want = fiber_coordinates(pushed, frames[r], i)
                assert sample.tobytes() == want.tobytes()
    # -1 ends no fold, and 2 is past the window
    for end in (-1, 2):
        with pytest.raises(IndexError, match=f"time {end} is not kept"):
            pinned_samples(trace, pools, -m, end)
    # a start outside [-60, end] would slice the wrong steps silently
    for start, end in ((-m - 1, 0), (1, 0), (2, 1)):
        with pytest.raises(ValueError, match="is not in the window"):
            pinned_samples(trace, pools, start, end)


@pytest.mark.parametrize("stretch, width", [(2.0, 2), (3.45, 1)],
                         ids=["2.0", "3.45"])
def test_ill_conditioned_folds_split_and_match_stepwise(monkeypatch, stretch,
                                                        width):
    # atoms of condition number e^4 ~ 55 and e^6.9 ~ 1e3: eight-step
    # products reach 1e14 and 1e24, so the spec's width keeps folds under
    # FOLD_COND_CAP, in pairs at the first stretch and single steps at the
    # second; index words and drawn matrices fold at that one width
    spec = strong2(stretch=stretch)
    assert fold_width(spec) == width
    calls = []

    def counted(mats):
        calls.append(1)
        return batched_orthonormalize(mats)
    monkeypatch.setattr(dynamics, "batched_orthonormalize", counted)
    start = np.broadcast_to(np.eye(2), (30, 2, 2))
    got = evolve_flags(spec, start, 400, SeededSampler(45))
    folds = len(calls)
    drawn = matrix_path(spec, start, 400, SeededSampler(45))
    # 400 steps in blocks of whole folds
    assert folds == len(calls) - folds == 400 // width
    monkeypatch.undo()
    assert np.array_equal(got[0], drawn[0])
    assert np.array_equal(got[1], drawn[1])
    assert_matches_stepwise(got, stepwise_advance(spec, start, 400,
                                                  SeededSampler(45)))


def test_deterministic_spectrum_exact():
    est = lyapunov_spectrum(single("d21", np.diag([2.0, 1.0])), 200,
                            burnin=10, replicas=4,
                            sampler=SeededSampler(1))
    assert est.chi[0] == pytest.approx(np.log(2), abs=1e-12)
    assert est.chi[1] == pytest.approx(0.0, abs=1e-12)
    assert np.all(est.stderr < 1e-12)
    assert est.gap(1) == pytest.approx(np.log(2), abs=1e-12)


def test_rotation_spectrum_is_zero():
    est = lyapunov_spectrum(rot2(), 2000, burnin=50, replicas=16,
                            sampler=SeededSampler(2))
    assert np.all(np.abs(est.chi) <= np.maximum(3 * est.stderr, 1e-12))
    assert np.all(np.abs(est.chi) < 1e-10)


def test_spectrum_sum_rule_isotropic_ensemble():
    # every draw K S has |det| = |det S|, so the exponents of each replica
    # sum to log|det S| = 0.20 - 0.17 exactly, up to rounding
    est = lyapunov_spectrum(iso3(), 3000, burnin=100, replicas=64,
                            sampler=SeededSampler(3))
    assert abs(float(np.sum(est.chi)) - 0.03) <= 1e-9


def test_isotropic_spectrum_matches_closed_form():
    # A = K S with K Haar on O(2): the stationary measure is uniform on
    # the circle, so chi_1 = E log|S v| over uniform v = log((s_1 + s_2) / 2)
    # = log cosh 0.15, and chi_1 + chi_2 = log|det S| = 0 in every replica
    est = lyapunov_spectrum(iso2(), 20_000, burnin=1000, replicas=64,
                            sampler=SeededSampler(9))
    assert abs(est.chi[0] - np.log(np.cosh(0.15))) <= 3 * est.stderr[0]
    # exact to rounding, far inside 3 stderr
    assert abs(float(np.sum(est.chi))) < 1e-12


def test_isotropic_d3_spectrum_matches_quadrature():
    # iso3 = Haar(O(3)) diag(e^0.20, 1, e^-0.17): the stationary measure is
    # rotation invariant, so the exponents are sphere averages, computed by
    # quadrature in iso_reference (0.023711, 0.009884, -0.003595)
    want = iso3_exponents(iso3().params["stretch"])
    assert np.allclose(want, [0.023711, 0.009884, -0.003595], atol=1e-6)
    est = lyapunov_spectrum(iso3(), 20_000, burnin=1000, replicas=64,
                            sampler=SeededSampler(7))
    assert np.all(np.abs(est.chi - want) <= 3 * est.stderr)
    # the sum is log|det S| = 0.03 in every replica, to rounding
    assert float(np.sum(est.chi)) == pytest.approx(0.03, abs=1e-12)


def test_spectrum_sum_rule_exact_determinant_benchmarks():
    # every bern2/diag3eps atom has the same determinant, so the sum of
    # exponents matches E log|det| to rounding at any horizon
    for spec, want in ((bern2(), 0.0), (diag3eps(), 0.03)):
        est = lyapunov_spectrum(spec, 500, burnin=20, replicas=8,
                                sampler=SeededSampler(4))
        assert float(np.sum(est.chi)) == pytest.approx(want, abs=1e-12)


def full_flag_means(spec, n_steps, sampler, burnin, replicas):
    """The reference: ``lyapunov_spectrum``'s stream advanced as full
    flags, each exponent read off its own QR column.  The measurement
    draws what the spectrum's draws (``_packed_draws``), in the same
    blocks of whole folds as ``evolve_flags``.  Returns every replica's
    mean log|diag R| (replicas, d)."""
    stream = sampler.child(0xCC)
    bases = stationary_flag_pool(spec, replicas, burnin, stream)
    logs = 0.0
    for t in dynamics._block_steps(replicas, n_steps, fold_width(spec)):
        draws = dynamics._packed_draws(spec, stream, t, replicas)
        bases, logs = dynamics._apply(bases, dynamics._folds(spec, draws),
                                      logs)
    return logs / n_steps


def assert_spectrum_matches(est, means, rel, abs_=0.0):
    """est's exponents, stderrs and gap stderrs within ``rel`` relative
    (or ``abs_`` absolute) of those of the replica means (replicas, d)."""
    root = np.sqrt(len(means))
    gaps = means[:, :-1] - means[:, 1:]
    for got, want in ((est.chi, means.mean(axis=0)),
                      (est.stderr, means.std(axis=0, ddof=1) / root),
                      (est.gap_stderrs, gaps.std(axis=0, ddof=1) / root)):
        assert np.all(np.abs(got - want) <= np.maximum(rel * np.abs(want),
                                                       abs_))


@pytest.mark.parametrize("spec", [bern2(), diag3eps(), iso3(), diag4eps(),
                                  SCALED3, QUAD4], ids=lambda s: s.name)
def test_spectrum_reads_chi_d_off_log_det(spec):
    # at d <= 3 the spectrum reads chi_1 + ... + chi_j off the growth of
    # the first j columns' compound vector, with no QR chain, and at
    # d >= 4 off the QR chain of d - 1 columns; each replica's chi_d is its
    # draws' log|det| less the d - 1 volume's growth: every exponent and
    # every spread agrees with the full flags' QR columns to rounding
    est = lyapunov_spectrum(spec, 3000, SeededSampler(62), burnin=100,
                            replicas=64)
    means = full_flag_means(spec, 3000, SeededSampler(62), 100, 64)
    assert_spectrum_matches(est, means, 1e-12)
    if spec.dim > 3:
        # Gram-Schmidt never reads the last column
        assert np.array_equal(est.chi[:-1], means.mean(axis=0)[:-1])
    if spec is SCALED3:
        # the replicas' log|det| sums differ, so chi_d reads the draws
        assert np.ptp(means.sum(axis=1)) > 1e-3


@pytest.mark.parametrize("spec", [
    SCALED3, finite_support("skew", bern2().params["atoms"], [0.75, 0.25]),
    iso3(), diag4eps()], ids=lambda s: s.name)
def test_spectrum_draws_thresholds_outside_equal_dyadic_weights(
        monkeypatch, spec):
    # unequal weights, 3 or 8 atoms, or Haar draws: the measurement draws
    # what ``_draws`` draws, so the spectrum is that of the threshold draw
    # bit for bit; bern2's packed draw reads other indices of the same law
    def spectrum(s):
        est = lyapunov_spectrum(s, 700, SeededSampler(57), burnin=50,
                                replicas=16)
        return np.concatenate([est.chi, est.stderr, est.gap_stderrs])

    packed = [spectrum(s) for s in (spec, bern2())]
    monkeypatch.setattr(dynamics, "_packed_draws", dynamics._draws)
    drawn = [spectrum(s) for s in (spec, bern2())]
    assert packed[0].tobytes() == drawn[0].tobytes()
    assert packed[1].tobytes() != drawn[1].tobytes()


@pytest.mark.parametrize("stretch, width", [(2.0, 2), (3.45, 1)])
def test_spectrum_matches_the_qr_chain_at_narrow_folds(stretch, width):
    # strong2's draws stretch by e^stretch, so the compound vector grows
    # by up to e^(3.45 W) a fold and is rescaled every 205 folds at W = 1:
    # its |x|^2 would overflow at the end without the final rescale.  Each
    # replica mean carries rounding of about eps |chi| from either chain,
    # which spreads of 1e-6 to 1e-4 read at an absolute 1e-14
    spec = strong2(stretch=stretch)
    assert fold_width(spec) == width
    est = lyapunov_spectrum(spec, 3000, SeededSampler(62), burnin=100,
                            replicas=64)
    means = full_flag_means(spec, 3000, SeededSampler(62), 100, 64)
    assert_spectrum_matches(est, means, 1e-12, 1e-14)


@pytest.mark.parametrize("d", [3, 4])
def test_spectrum_matches_the_qr_chain_with_one_dominant_stretch(d):
    # Haar times diag(e^9.2, 1, ..., 1): every draw is a fold, with
    # condition number 9897, just under FOLD_COND_CAP, all of it in one
    # direction.  A fold's 2 x 2 minors lose eps cond to cancellation, as
    # Gram-Schmidt does; a 3 x 3 minor by Laplace expansion would lose
    # eps cond^2, which puts chi_3 and chi_4 of d = 4 about 2e-12 off.
    # Either chain's per-fold loss leaves about 5e-14 in each replica mean,
    # which spreads of 5e-4 to 2e-3 read at an absolute 1e-13
    spec = ensemble._haar_times("dominant", (9.2,) + (0.0,) * (d - 1))
    assert fold_width(spec) == 1
    assert 0.98 * FOLD_COND_CAP < np.exp(9.2) < FOLD_COND_CAP
    est = lyapunov_spectrum(spec, 3000, SeededSampler(62), burnin=100,
                            replicas=64)
    means = full_flag_means(spec, 3000, SeededSampler(62), 100, 64)
    assert_spectrum_matches(est, means, 1e-12, 1e-13)


def test_rotation_spectrum_matches_the_qr_chain():
    # every rot2 draw is orthogonal: the compound vector keeps its norm and
    # every exponent and spread is zero up to rounding in both chains
    est = lyapunov_spectrum(rot2(), 3000, SeededSampler(62), burnin=100,
                            replicas=64)
    means = full_flag_means(rot2(), 3000, SeededSampler(62), 100, 64)
    assert_spectrum_matches(est, means, 0.0, 1e-15)
    assert np.all(np.abs(est.chi) <= 1e-15)


def assert_minors2(mats):
    """``_minors2`` of mats (F, d, e, m) within 1e-13 of the largest minor
    of each matrix, against np.linalg.det of every 2 x 2 sub-block: a
    minor of a product with condition number c may lose eps c of its own
    size to cancellation, by either route."""
    pairs = [list(itertools.combinations(range(n), 2))
             for n in mats.shape[1:3]]
    want = np.stack([np.stack([np.linalg.det(
        mats[:, r][:, :, c].transpose(0, 3, 1, 2)) for c in pairs[1]],
        axis=1) for r in pairs[0]], axis=1)
    scale = np.abs(want).max(axis=(1, 2), keepdims=True)
    assert np.all(np.abs(dynamics._minors2(mats) - want) <= 1e-13 * scale)


@pytest.mark.parametrize("d, e", [(2, 2), (3, 3), (3, 2), (4, 4), (4, 3),
                                  (5, 5), (5, 4)])
def test_minors2_of_random_matrices(rng, d, e):
    # square matrices, as the folds, and d x (d - 1) ones, as the
    # spectrum's burned-in leading columns
    mats = rng.standard_normal((5, d, e, 7)) + 3 * np.eye(d, e)[:, :, None]
    assert_minors2(mats)


@pytest.mark.parametrize("spec", [bern2(), diag3eps(), THREE, diag4eps(),
                                  rotations("five", 5, 3)],
                         ids=lambda s: s.name)
def test_minors2_of_fold_products(spec):
    # whole folds of the spec's width, up to FOLD_COND_CAP in condition,
    # and the tabled words they are made of
    _, width, tables, _ = dynamics._word_tables(spec)
    draws = dynamics._draws(spec, SeededSampler(63), 3 * width, 16)
    assert_minors2(dynamics._folds(spec, draws).transpose(0, 2, 3, 1))
    assert_minors2(tables[-1].transpose(1, 2, 0)[None])


# top exponent of bern2, from renormalized products log||P_n v|| / n at
# 256 streams x 60k steps (se 2.6e-5); span averages of the increment sequence
# are heavy-tailed, so short reruns can sit 7e-4 off this with clean-looking
# replica scatter
BERN2_CHI1 = 0.010709


def test_spectrum_matches_norm_growth_oracle():
    # independent oracle: growth rate of ||P_n v|| under renormalization
    spec = bern2()
    est = lyapunov_spectrum(spec, 6000, burnin=2000, replicas=64,
                            sampler=SeededSampler(5))
    from flagdim.ensemble import sample_batch
    R, n = 128, 40_000
    v = np.tile([1.0, 0.7] / np.hypot(1.0, 0.7), (R, 1))
    acc = np.zeros(R)
    mats = np.stack([sample_batch(spec, SeededSampler(6, (r,)), n)
                     for r in range(R)])
    for k in range(n):
        v = np.einsum("rij,rj->ri", mats[:, k], v)
        norm = np.linalg.norm(v, axis=1)
        v /= norm[:, None]
        acc += np.log(norm)
    per = acc / n
    oracle = float(per.mean())
    assert abs(oracle - BERN2_CHI1) < 1e-3
    assert abs(est.chi[0] - oracle) < 1.5e-3
    assert abs(est.chi[0] - BERN2_CHI1) < 3 * est.stderr[0] + 1e-4


def test_forward_orbit_composition_invariant(rng):
    # the flags kept at the named times 5 and 12 and at the window's end
    # are the start under the product of the draws up to them
    spec = bern2()
    trace = forward_orbit(spec, np.eye(2), 25, SeededSampler(7), times=(5, 12))
    assert trace.times.tolist() == [0, 5, 12, 25]
    prod = np.eye(2)
    for k in range(25):
        prod = matrices(trace)[0, k] @ prod
        if k + 1 not in trace.times:
            continue
        kept = trace.bases[0, trace.index(k + 1)]
        direct = act_flag(LinearMap(prod), Flag(trace.bases[0, 0]))
        p1 = direct.basis[:, :1] @ direct.basis[:, :1].T
        p2 = kept[:, :1] @ kept[:, :1].T
        assert np.max(np.abs(p1 - p2)) < 1e-8


def test_forward_orbit_steps_through_maps():
    # each fold map takes the coordinate at its fold's start to the one at
    # its end; diag3eps folds 32 steps, and the named time 7 cuts a fold
    trace = forward_orbit(diag3eps(), np.eye(3), 40, SeededSampler(8),
                          fiber_index=2, times=(7,))
    assert trace.times.tolist() == [0, 7, 39, 40]
    for k in range(3):
        assert circle.distance(fiber_map_image(trace.maps[0, k], trace.x[0, k]),
                               trace.x[0, k + 1]) < 1e-9


@pytest.mark.parametrize("spec, i, seeds",
                         [(bern2(), 1, [49]), (diag3eps(), 2, range(40, 60)),
                          (strong2(stretch=3.45), 1, [49]),
                          (iso3(), 1, range(40, 60))],
                         ids=["bern2", "diag3eps", "strong2-3.45", "iso3"])
def test_folded_trace_matches_stepwise_qr(spec, i, seeds):
    # a trace naming every time folds one step at a time: its bases are
    # those of one plain QR step per matrix (the dispatched loop of
    # fold_loop_reference) bit for bit.  The default trace keeps only its
    # fold ends (W = 43 steps for bern2, 32 for diag3eps, 1 for strong2 at
    # stretch 3.45, 24 for iso3, and a short last fold of the 150-step
    # window); there its bases, frames and coordinates lie within 1e-12 of
    # the stepwise ones, and each fold map within 1e-12 of the product of
    # its steps' maps, relative to the fold's product.  The d =
    # 3 cases sweep seeds: their frames are only as close as the
    # completion rule keeps the rounding of their bases
    for seed in seeds:
        trace = stationary_orbit(spec, i, 150, 40, SeededSampler(seed),
                                 replicas=4)
        stepwise = stationary_orbit(spec, i, 150, 40, SeededSampler(seed),
                                    replicas=4, times=every_time(150, -150))
        assert stepwise.times.tolist() == list(range(-150, 1))
        bases = [stepwise.bases[:, 0]]
        for k in range(150):
            bases.append(fold_loop_reference.apply(
                bases[-1], [matrices(stepwise)[:, k]])[0])
        bases = np.stack(bases, axis=1)
        frames = completion_frames(bases[..., i - 1: i + 1])
        maps = np.einsum("...ki,...kl,...lj->...ij", frames[:, 1:],
                         matrices(stepwise), frames[:, :-1])
        assert stepwise.bases.tobytes() == bases.tobytes()
        assert np.max(np.abs(stepwise.maps - maps)) < 1e-12
        ks = trace.times + 150
        assert np.max(np.abs(trace.bases - bases[:, ks])) < 1e-12
        assert np.max(np.abs(trace.frames - frames[:, ks])) < 1e-12
        assert np.max(circle.distance(
            trace.x, fiber_coordinates(bases, frames, i)[:, ks])) < 1e-12
        for f, (lo, hi) in enumerate(zip(ks, ks[1:])):
            steps = np.eye(2)
            prod = np.eye(spec.dim)
            for k in range(lo, hi):
                steps = maps[:, k] @ steps
                prod = matrices(stepwise)[:, k] @ prod
            scale = np.linalg.norm(prod, 2, axis=(-2, -1))[:, None, None]
            assert np.max(np.abs(trace.maps[:, f] - steps) / scale) < 1e-12


def test_trace_window_and_index():
    # a window over [-20, 10] keeps its ends, its fold ends and the times
    # it names, and indexes no other time; it names none outside itself
    trace = stationary_orbit(bern2(), 1, 30, 50, SeededSampler(9), t_end=10,
                             times=(0,))
    assert trace.times.tolist() == [-20, 0, 10]
    assert trace.index(0) == 1
    for t in (11, 5):
        with pytest.raises(IndexError):
            trace.index(t)
    with pytest.raises(ValueError, match="outside the window"):
        stationary_orbit(bern2(), 1, 30, 50, SeededSampler(9), t_end=10,
                         times=(11,))


def test_stable_line_deterministic_d3():
    trace = forward_orbit(HYPER3, np.eye(3), 60, SeededSampler(10),
                          fiber_index=1, times=every_time(60))
    line = oseledets_stable_line(trace, 0, lookahead=40)
    # within the fiber over span(e1, e2) the contracted direction is e2
    assert circle.distance(line.coordinate, np.pi / 2) < 1e-9
    assert line.shift < 1e-9


def test_stable_line_deterministic_d2():
    trace = forward_orbit(HYPER2, np.eye(2), 60, SeededSampler(11),
                          times=every_time(60))
    line = oseledets_stable_line(trace, 0, lookahead=50)
    assert circle.distance(line.coordinate, np.pi / 2) < 1e-9


def test_stable_line_gate_on_isometries():
    trace = forward_orbit(rot2(), np.eye(2), 80, SeededSampler(12),
                          times=every_time(80))
    with pytest.raises(GapTooSmall):
        oseledets_stable_line(trace, 0, lookahead=60)


def test_stable_coordinates_certified(rng):
    # a 140-step window naming its first 80 times, certified at time 80
    # by its last 60 steps
    s = SeededSampler(13)
    trace = forward_orbit(strong2(), np.eye(2), 140, s, times=every_time(80))
    y, resolution = stable_coordinates(trace)
    assert resolution[0, trace.index(80)] <= 1e-2
    # a coordinate and a resolution at every time the window keeps
    assert trace.times[:81].tolist() == list(range(81))
    assert y.shape == resolution.shape == (1, len(trace.times))
    # recompute one point directly
    line = oseledets_stable_line(trace, 3, lookahead=60)
    assert circle.distance(y[0, 3], line.coordinate) < 1e-9


def log_distance_slope(spec, f0, n_steps, lookahead, sampler):
    """Slope of log dist(x_n, y_n) against n over a window of n_steps
    naming every time, on the first replica, with its least-squares
    stderr; y_n are the stable coordinates certified by the window's last
    ``lookahead`` steps."""
    trace = forward_orbit(spec, f0, n_steps + lookahead, sampler,
                          times=every_time(n_steps))
    y, resolution = stable_coordinates(trace)
    end = trace.index(n_steps)
    assert resolution[0, end] <= 1e-2
    d = circle.distance(trace.x[0, :end + 1], y[0, :end + 1])
    assert np.all(d > 0)
    t = trace.times[:end + 1].astype(float)
    logd = np.log(d)
    slope, intercept = np.polyfit(t, logd, 1)
    resid = logd - (slope * t + intercept)
    denom = float(np.sum((t - t.mean()) ** 2))
    return slope, np.sqrt(np.sum(resid ** 2) / max(len(t) - 2, 1) / denom)


def test_angle_decay_slope_near_zero_deterministic():
    # x_n converges to the attractor, y_n sits at the repeller: their
    # distance tends to a constant, so the log-distance slope vanishes.
    # tilt the stretch axes so the backward probes are not pinned on the
    # repelling fixed point
    c, s = np.cos(0.3), np.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    tilted = single("tilted2", q @ np.diag([2.0, 0.5]) @ q.T)
    f0 = Flag.from_matrix(np.array([[1.0, 0.0], [0.7, 1.0]])).basis
    slope, _ = log_distance_slope(tilted, f0, 80, 40, SeededSampler(14))
    assert abs(slope) < 5e-3


def test_angle_decay_slope_near_zero_strong2():
    slope, stderr = log_distance_slope(strong2(), np.eye(2), 320, 80,
                                       SeededSampler(15))
    lo, hi = slope - 2 * stderr, slope + 2 * stderr
    assert lo < 0 < hi or abs(slope) < 0.02


def arc_contains(arc, x, theta):
    """Whether the closed arc, two offsets about the coordinate x, holds
    theta, with 1e-12 of slack at each end."""
    d = np.mod(np.asarray(theta, dtype=float) - (x + arc.lo),
               circle.HALF_TURN)
    # a point one rounding step below lo wraps to just under a half turn;
    # fold it back so the slack covers both endpoints
    d = np.where(d > circle.HALF_TURN - 1e-12, d - circle.HALF_TURN, d)
    return d <= arc.length + 1e-12


def test_arc_invariants():
    with pytest.raises(IntervalWrap):
        Arc(lo=0.1, hi=0.5)
    with pytest.raises(IntervalWrap):
        Arc(lo=-2.0, hi=2.0)
    # two offsets about the coordinate x = 1
    x, arc = 1.0, Arc(lo=-0.5, hi=0.25)
    assert arc.length == pytest.approx(0.75)
    assert (arc_contains(arc, x, 1.0) and arc_contains(arc, x, 0.6)
            and arc_contains(arc, x, 1.2))
    assert not arc_contains(arc, x, 1.3)
    lo, hi = circle.wrap(x + np.array([arc.lo, arc.hi]))
    assert lo == pytest.approx(0.5) and hi == pytest.approx(1.25)


def test_stationary_interval_worked_example():
    # x = 0 and y = pi/2 give the arc from 3pi/4 of length pi/2
    trace = forward_orbit(HYPER2, np.eye(2), 60, SeededSampler(16),
                          times=every_time(60))
    y = oseledets_stable_line(trace, 0, lookahead=50).coordinate
    arc = stationary_interval(trace, 0, y)
    x = trace.x[:, trace.index(0)]
    assert circle.distance(trace.x[0, 0], 0.0) < 1e-12
    assert arc.length == pytest.approx(np.pi / 2, abs=1e-9)
    lo, hi = circle.wrap(x + np.array([arc.lo, arc.hi]))
    assert lo == pytest.approx(3 * np.pi / 4, abs=1e-9)
    assert hi == pytest.approx(np.pi / 4, abs=1e-9)
    assert arc_contains(arc, x, 0.0) and arc_contains(arc, x, np.pi / 8)
    assert not arc_contains(arc, x, 1.0)
    assert not arc_contains(arc, x, np.pi / 2)


def test_stationary_interval_rejects_coinciding_pair():
    trace = forward_orbit(HYPER2, np.eye(2), 60, SeededSampler(17))
    with pytest.raises(DegenerateFiberPair):
        stationary_interval(trace, 0, y=float(trace.x[0, trace.index(0)]))


def test_mobius_contraction_closed_form():
    # diag(2, 1/2) pulls the symmetric arc to half-width atan(4^-n); the
    # window names the times it reads, so each push composes the folds
    # from -n to 0
    trace = forward_orbit(HYPER2, np.eye(2), 80, SeededSampler(18),
                          t0=-40, times=(-40, -25, -20, -10, -6, -3, -1, 0))
    y = np.pi / 2
    for n in (1, 3, 6, 10, 20):
        arc = pull_forward(trace, stationary_interval(trace, -n, y), -n)
        want = 2 * np.arctan(4.0 ** -n)
        assert arc.length == pytest.approx(want, rel=1e-9)
    # lengths far below the coordinate's own resolution stay exact
    for n in (25, 40):
        tiny = pull_forward(trace, stationary_interval(trace, -n, y), -n)
        assert tiny.length == pytest.approx(2 * np.arctan(4.0 ** -n), rel=1e-12)
        assert tiny.length < 1e-14


def test_push_beyond_a_quarter_turn_matches_closed_form():
    # an arc of length 2.9 about a coordinate off the fixed point, with
    # offsets up to 2.15, under A = q diag(2, 1/2) q^T: A^n = q diag(2^n,
    # 2^-n) q^T takes the line at rot + phi to rot + atan(4^-n tan phi)
    rot = 0.3
    c, s = np.cos(rot), np.sin(rot)
    q = np.array([[c, -s], [s, c]])
    tilted = single("tilted2", q @ np.diag([2.0, 0.5]) @ q.T)
    phi = 0.7
    hi = np.pi / 2 - 0.12 - phi
    arc = Arc(lo=hi - 2.9, hi=hi)
    assert -arc.lo > np.pi / 2
    # each window starts on the arc's coordinate, the line at rot + phi
    c, s = np.cos(rot + phi), np.sin(rot + phi)
    start = np.array([[c, -s], [s, c]])
    for n in (1, 2, 5, 10, 20, 40):
        trace = forward_orbit(tilted, start, n, SeededSampler(29), t0=-n)
        assert circle.distance(trace.x[0, 0], rot + phi) < 1e-15
        image = dynamics.pull_forward(trace, arc, -n)
        shrink = 4.0 ** -n
        lo, hi = np.arctan(shrink * np.tan(phi + np.array([arc.lo, arc.hi])))
        assert image.length == pytest.approx(hi - lo, rel=1e-12)
        # the image is two offsets about the trace's coordinate at 0
        assert circle.distance(trace.x[0, trace.index(0)],
                               rot + np.arctan(shrink * np.tan(phi))) < 1e-12


def test_interval_decay_slope_deterministic():
    # eigenvalue ratio 1/4 forces interval lengths ~ 4^-n; the tilt keeps
    # the internal stable-line certification off the axis pathology
    c, s = np.cos(0.3), np.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    tilted = single("tilted2", q @ np.diag([2.0, 0.5]) @ q.T)
    rep = interval_decay_curve(tilted, 1, np.arange(4, 13), 3,
                               SeededSampler(19), burnin=30, lookahead=60)
    assert rep.slope == pytest.approx(-np.log(4), abs=5e-3)
    assert rep.replicas == 3


def test_interval_decay_curve_refuses_one_certified_replica():
    # one certified replica gives a slope but no spread for its stderr
    c, s = np.cos(0.3), np.sin(0.3)
    q = np.array([[c, -s], [s, c]])
    tilted = single("tilted2", q @ np.diag([2.0, 0.5]) @ q.T)
    with pytest.raises(GapTooSmall, match="1 of 1 replicas certified"):
        interval_decay_curve(tilted, 1, np.arange(4, 13), 1,
                             SeededSampler(19), burnin=30, lookahead=60)


def test_interval_decay_curve_refuses_a_single_depth():
    # a line through one depth n is no slope; refused before any draw
    with pytest.raises(ValueError, match="two distinct depths"):
        interval_decay_curve(strong2(), 1, [10, 10], 3, SeededSampler(19))


def test_pullforward_contains_x_and_excludes_y():
    spec = strong2()
    wrapped = 0
    for seed in range(12):
        trace = stationary_orbit(spec, 1, 300, 80, SeededSampler(20, (seed,)),
                                 t_end=200, times=every_time(300, -100))
        y0 = oseledets_stable_line(trace, 0, lookahead=195).coordinate
        for n in range(2, 100, 7):
            try:
                y = oseledets_stable_line(trace, -n, lookahead=195).coordinate
                arc = pull_forward(trace, stationary_interval(trace, -n, y),
                                   -n)
            except IntervalWrap:
                wrapped += 1
                continue
            x0 = float(trace.x[0, trace.index(0)])
            assert arc_contains(arc, x0, x0)
            if arc.length < circle.distance(x0, y0):
                assert not arc_contains(arc, x0, y0)
    assert wrapped == 0


def test_pullforward_contains_x_bern2():
    trace = stationary_orbit(bern2(), 1, 1700, 200, SeededSampler(21),
                             t_end=1550, times=every_time(1700, -150))
    for n in (20, 80, 140):
        y = oseledets_stable_line(trace, -n, lookahead=1500).coordinate
        arc = pull_forward(trace, stationary_interval(trace, -n, y), -n)
        x0 = float(trace.x[0, trace.index(0)])
        assert arc_contains(arc, x0, x0)


@pytest.mark.parametrize("spec, i", [(diag3eps(), 2), (hyper3mix(), 1)],
                         ids=["diag3eps", "hyper3mix"])
def test_trace_arrays_match_per_step_objects(spec, i):
    # a window over [-30, 50] naming every time, its lookahead the 50
    # steps after 0: the arrays against Flag / PartialFlag / CircleMap
    # built step by step, the backward pass against LU solves, and the
    # pushes against CircleMap.map_offset
    s = SeededSampler(24)
    n = 30
    trace = stationary_orbit(spec, i, n + 50, 40, s, t_end=50, replicas=3,
                             times=every_time(n + 50, -n))
    y, _ = stable_coordinates(trace)
    arcs = pull_forward(trace, stationary_interval(
        trace, -n, y[:, trace.index(-n)]), -n)
    for r in range(3):
        steps = [partial_flag(Flag(b), i) for b in trace.bases[r]]
        for k in range(len(trace.times) - 1):
            frame = np.column_stack(steps[k].frame)
            assert np.max(np.abs(trace.frames[r, k] - frame)) < 1e-12
            assert circle.distance(trace.x[r, k], fiber_coordinates(
                trace.bases[r, k], frame, i)) < 1e-12
            want = circle_map_between(matrices(trace)[r, k], steps[k],
                                      steps[k + 1]).matrix
            assert np.max(np.abs(trace.maps[r, k] - want)) < 1e-12
        pair = np.eye(2)
        maps = trace.maps[r]
        for k in range(79, -1, -1):
            pair = np.linalg.solve(maps[k], pair)
            pair /= np.linalg.norm(pair, axis=0, keepdims=True)
            if k <= n:
                want = circle.wrap(np.arctan2(pair[1, 0], pair[0, 0]))
                assert circle.distance(y[r, k], want) < 1e-12
        arc = stationary_interval(trace.select([r]), -n, y=y[r, trace.index(-n)])
        # the chain starts at the trace's coordinate at -n and must end
        # at its coordinate at 0, about which the pushed arcs are
        x = float(trace.x[r, trace.index(-n)])
        lo, hi = float(arc.lo[0]), float(arc.hi[0])
        for k in range(trace.index(-n), trace.index(0)):
            cmap = CircleMap(source=steps[k], target=steps[k + 1],
                             matrix=trace.maps[r, k])
            d1, d2 = cmap.map_offset(x, lo), cmap.map_offset(x, hi)
            x, lo, hi = cmap(x), min(d1, d2), max(d1, d2)
        assert circle.distance(x, trace.x[r, trace.index(0)]) < 1e-12
        assert (hi - lo) == pytest.approx(float(arcs.length[r]), rel=1e-10)


def stepwise_stable_coordinates(trace):
    """The backward pass forming each step's adjugate solve at that step;
    returns (y, resolution) at every kept time, as ``stable_coordinates``
    does."""
    count, n_maps = trace.maps.shape[:2]
    pair = np.broadcast_to(np.eye(2), (count, 2, 2))
    kept = np.empty((count, n_maps + 1, 2, 2))
    kept[:, n_maps] = pair
    for k in range(n_maps - 1, -1, -1):
        (a, b), (c, d) = np.moveaxis(trace.maps[:, k], 0, -1)
        adjugate = np.stack([np.stack([d, -b], axis=-1),
                             np.stack([-c, a], axis=-1)], axis=-2)
        pair = adjugate / det2(trace.maps[:, k])[:, None, None] @ pair
        pair = pair / np.linalg.norm(pair, axis=-2, keepdims=True)
        kept[:, k] = pair
    angles = circle.wrap(np.arctan2(kept[..., 1, :], kept[..., 0, :]))
    return angles[..., 0], circle.distance(angles[..., 0], angles[..., 1])


def piecewise_map_offsets(b, anchor, delta):
    """``CircleMap.map_offset`` over broadcast stacks, one piece at a time:
    the images T(anchor + delta) - T(anchor) and the largest cond(B)
    |delta|, from which offsets are cut into pieces."""
    det, span = det2(b), np.abs(delta) * np.linalg.cond(b)
    pieces = np.where(span < 1.0, 1.0, np.ceil(span) + 1.0)
    sub = delta / pieces
    c, s = np.cos(sub), np.sin(sub)
    total = np.zeros(np.broadcast(anchor, sub).shape)
    theta = anchor
    for m in range(int(np.max(pieces, initial=1.0))):
        u = circle.unit_vector(theta)
        bu = np.einsum("...ij,...j->...i", b, u)
        bup = np.einsum("...ij,...j->...i", b,
                        np.stack([-u[..., 1], u[..., 0]], axis=-1))
        term = np.arctan2(s * det, c * np.sum(bu * bu, axis=-1)
                          + s * np.sum(bu * bup, axis=-1))
        total = total + np.where(m < pieces, term, 0.0)
        theta = theta + sub
    return total, float(np.max(span, initial=0.0))


def stepwise_pull_forward(trace, arc, t):
    """``pull_forward`` one map at a time: each anchor, starting at the
    trace's coordinate at the arc's time, stepped by ``fiber_map_image``
    and each arc end pushed on its own, one piece at a time.  Returns the
    arcs, the anchors reached at 0 (one row per replica) and the largest
    cond(B) |offset| met."""
    starts = np.array([trace.index(s) for s in np.ravel(t)])
    anchor = trace.x[:, starts]
    lo, hi = (np.array(v, dtype=float).reshape(len(trace.maps), -1)
              for v in (arc.lo, arc.hi))
    widest = 0.0
    for step in range(int(starts.min()), trace.index(0)):
        live = starts <= step
        b = trace.maps[:, step, None]
        a = anchor[:, live]
        d1, span1 = piecewise_map_offsets(b, a, lo[:, live])
        d2, span2 = piecewise_map_offsets(b, a, hi[:, live])
        widest = max(widest, span1, span2)
        anchor[:, live] = fiber_map_image(b, a)
        lo[:, live], hi[:, live] = np.minimum(d1, d2), np.maximum(d1, d2)
    shape = np.shape(arc.lo)
    return Arc(lo=lo.reshape(shape), hi=hi.reshape(shape)), anchor, widest


# cond(B) |offset| >= 2 cut an offset into three pieces or more in the
# per-map push; strong2 at stretch 2 reaches 16 and more
@pytest.mark.parametrize("spec, i, widest_at_least", [
    (bern2(), 1, 2.0), (diag3eps(), 1, 2.0), (diag3eps(), 2, 2.0),
    (strong2(stretch=2.0), 1, 16.0)],
    ids=["bern2", "diag3eps-1", "diag3eps-2", "strong2"])
def test_folded_backward_pass_and_composed_pushes_match_stepwise(
        spec, i, widest_at_least):
    # a window over [-n, lookahead] naming the decay grid and 0, against
    # the trace of [-n, lookahead] naming every time, on one stream: the
    # backward pass through fold maps against one renormalized solve per
    # step at the times up to 0, also with a lookahead of no steps, and
    # the pushes through one offset map per fold, formed at the window's
    # own coordinates and composed per arc, against per-map pushes cut
    # into pieces
    n, lookahead = 60, 200
    grid = np.array([3, 10, 25, 60])
    for ahead_steps in (0, lookahead):
        trace, whole = (stationary_orbit(
            spec, i, n + ahead_steps, 100, SeededSampler(28),
            t_end=ahead_steps, replicas=5, times=times)
            for times in ([*-grid, 0], every_time(n + ahead_steps, -n)))
        y, resolution = stable_coordinates(trace)
        want_y, want_resolution = stepwise_stable_coordinates(whole)
        assert y.shape == resolution.shape == (5, len(trace.times))
        now = trace.index(0)
        assert np.max(circle.distance(
            y[:, :now + 1], want_y[:, trace.times[:now + 1] + n])) < 1e-12
        assert np.max(np.abs(resolution[:, now]
                             - want_resolution[:, whole.index(0)])) < 1e-12
    # the pushes read the coordinates of the last pass, at the lookahead
    arcs = stationary_interval(trace, -grid,
                               y[:, [trace.index(-m) for m in grid]])
    one = stationary_interval(trace, -n, y[:, trace.index(-n)])
    for arc, t in ((arcs, -grid), (one, -n)):
        pushed = dynamics.pull_forward(trace, arc, t)
        reference, anchor, widest = stepwise_pull_forward(whole, arc, t)
        assert widest >= widest_at_least
        # both are about the trace's coordinate at 0
        assert np.max(circle.distance(
            anchor, trace.x[:, trace.index(0), None])) < 1e-12
        for f in ("lo", "hi"):
            assert np.all(np.abs(getattr(pushed, f) - getattr(reference, f))
                          <= 1e-10 * reference.length)


def test_pulled_forward_stationary_intervals_keep_a_positive_length():
    # arcs about the trace's coordinates at -40, pulled forward to 0
    # through a lookahead window's fold maps, keep a positive length
    spec = bern2()
    trace = stationary_orbit(spec, 1, 140, 50, SeededSampler(31), t_end=100,
                             replicas=3, times=(0,))
    y, _ = stable_coordinates(trace)
    arc = stationary_interval(trace, -40, y[:, 0])
    assert np.all(dynamics.pull_forward(trace, arc, -40).length > 0)


@pytest.mark.parametrize("spec", [bern2(), diag3eps(), iso3()],
                         ids=lambda s: s.name)
def test_named_times_cut_folds_and_share_one_stream(spec):
    # a named time ends a fold and starts the next one's count; windows
    # naming different times draw one stream, keep the same draws, leave
    # the stream at one place and agree, to the rounding of their folds,
    # at the times both keep
    width = fold_width(spec)
    n = 3 * width
    streams = [SeededSampler(30), SeededSampler(30)]
    plain, named = (stationary_orbit(spec, 1, n, 50, s, replicas=4,
                                     times=times)
                    for s, times in zip(streams, [(), (5 - n, -width)]))
    assert (plain.times + n).tolist() == [0, width, 2 * width, n]
    assert (named.times + n).tolist() == [0, 5, 5 + width, 2 * width, n]
    assert matrices(named).tobytes() == matrices(plain).tobytes()
    a, b = (s.rng.bit_generator.random_raw() for s in streams)
    assert a == b
    for t in (-n, -width, 0):
        ka, kb = plain.index(t), named.index(t)
        assert np.max(np.abs(plain.bases[:, ka] - named.bases[:, kb])) < 1e-12
        assert np.max(circle.distance(plain.x[:, ka], named.x[:, kb])) < 1e-12


class _Stop(Exception):
    pass


@pytest.mark.parametrize("leg", ["interval", "decay"])
@pytest.mark.parametrize("spec, i", [
    (bern2(), 1), (diag3eps(), 1), (diag3eps(), 2), (iso3(), 2)],
    ids=["bern2", "diag3eps-1", "diag3eps-2", "iso3"])
def test_lookahead_draws_continue_the_window(spec, i, leg):
    # each leg runs one window over [-n, lookahead] that names 0, its
    # lookahead the steps after 0: the window draws what
    # stationary_orbit(..., n + lookahead, t_end=lookahead) draws, byte
    # for byte, and the stream ends where that window's does
    n, lookahead, replicas, burnin = 40, 150, 3, 60
    seen = []
    folded = dynamics.forward_orbit

    def spy(*args, **kwargs):
        seen.append(folded(*args, **kwargs))
        seen.append(args[3].rng.bit_generator.random_raw())
        raise _Stop
    with pytest.MonkeyPatch.context() as mp, pytest.raises(_Stop):
        mp.setattr(dynamics, "forward_orbit", spy)
        if leg == "interval":
            entropy.kappa_interval_estimator(
                spec, i, (None, None), SeededSampler(41), n=n,
                replicas=replicas, realization_burnin=burnin,
                lookahead=lookahead)
        else:
            interval_decay_curve(spec, i, [10, n], replicas, SeededSampler(41),
                                 burnin=burnin, lookahead=lookahead)
    trace, word = seen
    stream = SeededSampler(41)
    if leg == "interval":
        stream = stream.child(10)
    whole = stationary_orbit(spec, i, n + lookahead, burnin, stream,
                             t_end=lookahead, replicas=replicas)
    assert trace.times[[0, -1]].tolist() == [-n, lookahead]
    assert trace.times[trace.index(0)] == 0
    assert matrices(trace).tobytes() == matrices(whole).tobytes()
    assert word == stream.rng.bit_generator.random_raw()


@pytest.mark.parametrize("spec, i", [
    (bern2(), 1), (diag3eps(), 1), (diag3eps(), 2), (iso3(), 2),
    (strong2(stretch=2.0), 1), (rot2(), 1)],
    ids=["bern2", "diag3eps-1", "diag3eps-2", "iso3", "strong2", "rot2"])
def test_fold_level_lookahead_matches_the_stepwise_pass(spec, i):
    # an interval leg's window over [-n, lookahead] naming 0, at fold
    # level, against one solve per step over the trace of [-n, lookahead]
    # naming every time, on the same stream.  A
    # fold map is read off the fold's d x d product, whose rounding is eps
    # cond(P) <= eps FOLD_COND_CAP of its size (FOLD_COND_CAP's note);
    # pulling back contracts toward the stable line, so the pair carries
    # at most one such error per fold it crosses, and the coordinates at
    # the fold ends, which the isometry check reads, stay within the same
    # bound.  Measured on these streams: y within 4.7e-13 on diag3eps
    # fiber 2 (33 folds, a bound of 7.3e-11) and 1.2e-14 elsewhere, the
    # resolution within 1.8e-14
    n, lookahead, replicas = 100, 900, 5
    window, whole = (stationary_orbit(
        spec, i, n + lookahead, 200, SeededSampler(42), t_end=lookahead,
        replicas=replicas, times=times)
        for times in ((0,), every_time(n + lookahead, -n)))
    width, now = fold_width(spec), window.index(0)
    assert window.maps.shape[1] - now == -(-lookahead // width)
    assert window.x.shape == (replicas, window.maps.shape[1] + 1)
    y, resolution = stable_coordinates(window)
    want_y, want_resolution = stepwise_stable_coordinates(whole)
    resolution, want_resolution = resolution[:, now], want_resolution[
        :, whole.index(0)]
    tol = window.maps.shape[1] * np.finfo(float).eps * FOLD_COND_CAP
    assert y.shape == (replicas, len(window.times))
    assert np.max(circle.distance(
        y[:, :now + 1], want_y[:, window.times[:now + 1] + n])) < tol
    assert np.max(np.abs(resolution - want_resolution)) < 1e-12
    for stable_tol in (DECAY_STABLE_TOL, INTERVAL_STABLE_TOL):
        assert np.array_equal(resolution <= stable_tol,
                              want_resolution <= stable_tol)
    assert np.max(circle.distance(window.x, whole.x[:, window.times + n])) < tol


@pytest.mark.parametrize("spec, i", [(bern2(), 1), (diag3eps(), 2),
                                     (iso3(), 2)],
                         ids=["bern2", "diag3eps-2", "iso3"])
def test_certificate_at_zero_reads_only_the_maps_after_it(spec, i):
    # a window over [-n, lookahead] naming 0, and a second window over [0,
    # lookahead] from its time-0 flags on the stream that drew its first
    # n steps: the same y and resolution at time 0, bit for bit.  So a
    # replica's certificate is a function of its draws after 0 alone, and
    # dropping the uncertified replicas biases nothing read before 0
    n, lookahead, replicas = 60, 300, 4
    whole = stationary_orbit(spec, i, n + lookahead, 100, SeededSampler(44),
                             t_end=lookahead, replicas=replicas, times=(0,))
    now = whole.index(0)
    stream = SeededSampler(44)
    past = stationary_orbit(spec, i, n, 100, stream, replicas=replicas)
    assert past.bases[:, -1].tobytes() == whole.bases[:, now].tobytes()
    ahead = forward_orbit(spec, whole.bases[:, now], lookahead, stream, i)
    (y, resolution), (want_y, want_resolution) = (
        stable_coordinates(t) for t in (whole, ahead))
    assert y[:, now].tobytes() == want_y[:, 0].tobytes()
    assert resolution[:, now].tobytes() == want_resolution[:, 0].tobytes()


def name_every_time(monkeypatch):
    """Make every trace that dynamics runs name every time of its window,
    so that the legs run on stepwise traces."""
    folded = dynamics.forward_orbit

    def stepwise(spec, f0, n_steps, sampler, fiber_index=1, t0=0, times=()):
        return folded(spec, f0, n_steps, sampler, fiber_index, t0,
                      every_time(n_steps, t0))
    monkeypatch.setattr(dynamics, "forward_orbit", stepwise)


def assert_interval_legs_match_stepwise(spec, i, seed, tails, n, replicas,
                                        burnin, grid):
    """Fiber i's interval kappa and decay curve on verify's streams at
    program seed ``seed``, once on fold-level traces and once on traces
    naming every time: the same refusals, and the same certified
    replicas and mass counts, so the same kappa and stderr bit for bit;
    each log length within eps FOLD_COND_CAP per fold its fold-level
    traces hold (FOLD_COND_CAP's note).  Measured at seed 7: within
    6.8e-13 at the reduced budget of the test below, and 8.5e-14 (bern2),
    5.6e-12 and 4.5e-12 (diag3eps fibers 1 and 2) at the default one, so
    1e-12 does not hold there."""
    sampler = SeededSampler(seed)
    pools = [stationary_flag_pool(spec, tails, entropy.TAIL_BURNIN,
                                  sampler.child(3, 1, k), columns=spec.dim - 1)
             for k in (1, 2)]
    legs = [lambda: entropy.kappa_interval_estimator(
                spec, i, pools, sampler.child(3, i), n=n, replicas=replicas,
                realization_burnin=burnin),
            lambda: interval_decay_curve(spec, i, grid, replicas,
                                         sampler.child(5), burnin=burnin)]
    runs = []
    for stepwise in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if stepwise:
                name_every_time(mp)
            traces = []
            inner = dynamics.forward_orbit

            def kept(*args, **kwargs):
                traces.append(inner(*args, **kwargs))
                return traces[-1]
            mp.setattr(dynamics, "forward_orbit", kept)
            run = []
            for leg in legs:
                del traces[:]
                try:
                    run.append(leg())
                except harness.GATE_ERRORS as err:
                    run.append(err)
            runs.append(run)
            if not stepwise:
                folds = sum(t.maps.shape[1] for t in traces)
    (kappa, decay), (want_kappa, want_decay) = runs
    for got, want in zip(runs[0], runs[1]):
        assert type(got) is type(want)
        if isinstance(want, Exception):
            assert str(got) == str(want)
    if isinstance(want_kappa, entropy.KappaEstimate):
        assert (kappa.kappa, kappa.stderr) == (want_kappa.kappa,
                                               want_kappa.stderr)
        assert kappa.diagnostics == want_kappa.diagnostics
    if isinstance(want_decay, dynamics.IntervalDecayReport):
        assert decay.replicas == want_decay.replicas
        assert np.max(np.abs(decay.log_lengths - want_decay.log_lengths)) < (
            folds * np.finfo(float).eps * FOLD_COND_CAP)
    return runs


@pytest.mark.parametrize("spec, i, n", [
    (bern2(), 1, 60), (diag3eps(), 1, 60), (diag3eps(), 2, 60),
    (iso3(), 2, 60), (strong2(stretch=2.0), 1, 10), (rot2(), 1, 60)],
    ids=["bern2", "diag3eps-1", "diag3eps-2", "iso3", "strong2", "rot2"])
def test_interval_legs_match_the_all_times_trace(spec, i, n):
    # at a reduced budget; CI runs the default one on bern2 and diag3eps.
    # strong2's intervals shrink by about e^-2 a step, so its depth is
    # short enough for their images to hold pool mass.  rot2 reads its
    # interval kappa off the isometric substitute and its decay curve
    # refuses, on both traces alike
    (kappa, decay), _ = assert_interval_legs_match_stepwise(
        spec, i, 7, tails=1000, n=n, replicas=12, burnin=200,
        grid=np.linspace(n // 6, n, 4).astype(int))
    assert isinstance(kappa, entropy.KappaEstimate)
    assert isinstance(decay, GapTooSmall if spec.name == "rot2"
                      else dynamics.IntervalDecayReport)


def test_decay_slope_stderr_is_the_replica_spread():
    # least squares is linear in the data, so the mean of the replicas'
    # slopes is the slope of their mean curve; the stderr is their spread
    rep = interval_decay_curve(bern2(), 1, [10, 30, 50, 70, 90], 6,
                               SeededSampler(25), burnin=200, lookahead=600)
    t = rep.n_grid.astype(float)
    slopes = np.array([np.polyfit(t, row, 1)[0] for row in rep.log_lengths])
    assert rep.replicas == len(slopes) >= 2
    assert rep.slope == pytest.approx(np.polyfit(t, rep.mean_log_length, 1)[0],
                                      abs=1e-12)
    assert rep.slope == pytest.approx(slopes.mean(), abs=1e-12)
    assert rep.slope_stderr == pytest.approx(
        slopes.std(ddof=1) / np.sqrt(len(slopes)), rel=1e-12)


@pytest.mark.parametrize("spec", [bern2(), iso2()], ids=lambda s: s.kind)
def test_stationary_lines_read_replicas_every_thinning_steps(spec):
    # the folded word and matrix paths against one QR step per draw: a
    # read after the burn-in, then one every THINNING steps, the last cut;
    # bern2 draws packed atom indices, a step at a time
    replicas, burnin, count = 7, 30, 31
    got = stationary_lines(spec, replicas, burnin, count, SeededSampler(45))
    stream = SeededSampler(45)
    lines = np.zeros((replicas, 2, 1))
    lines[:, 0, 0] = 1.0
    lines = stepwise_advance(spec, lines, burnin, stream, packed_batch)[0]
    want = []
    for _ in range(5):   # four whole reads of 7 replicas and three angles
        want.append(np.arctan2(lines[:, 1, 0], lines[:, 0, 0]))
        lines = stepwise_advance(spec, lines, THINNING, stream,
                                 packed_batch)[0]
    want = circle.wrap(np.concatenate(want)[:count])
    assert len(got) == count
    assert np.max(circle.distance(got, want)) < 1e-12


def _lines_per_read(spec, replicas, burnin, count, sampler):
    """``stationary_lines`` as one ``evolve_flags`` call per thinned read,
    each drawing as the lines do (``_packed_draws``)."""
    draw = dynamics._packed_draws
    lines = np.zeros((replicas, 2, 1))
    lines[:, 0, 0] = 1.0
    lines, _ = evolve_flags(spec, lines, burnin, sampler, draw)
    reads = [fiber_coordinates(lines, np.eye(2), 1)]
    for _ in range(1, -(-count // replicas)):
        lines, _ = evolve_flags(spec, lines, THINNING, sampler, draw)
        reads.append(fiber_coordinates(lines, np.eye(2), 1))
    return np.concatenate(reads)[:count]


def three2():
    # three atoms: words of h = 4 steps, so a THINNING-step read folds a
    # 4-word and a 1-word
    return finite_support("three2", [strong2(0.9).params["atoms"][0],
                                     strong2(0.4).params["atoms"][1],
                                     strong2(1.7, 0.3).params["atoms"][0]],
                          [0.5, 0.3, 0.2])


@pytest.mark.parametrize("spec, replicas, count", [
    (bern2(), 7, 31), (iso2(), 7, 31), (three2(), 7, 31),
    # fold width 2: a read folds in runs of 2, 2 and 1
    (strong2(stretch=2.0), 7, 31),
    # 2 reads of 3000 replicas per draw block: 7 thinned reads in 4 blocks
    (bern2(), 3000, 8 * 3000 - 5), (iso2(), 3000, 8 * 3000 - 5),
], ids=["bern2", "iso2", "three-atoms", "width-2", "bern2-blocks",
        "iso2-blocks"])
def test_stationary_lines_equal_per_read_evolve_flags(spec, replicas, count):
    # a draw block's reads fold as one stack and take their QR steps read
    # by read: the angles of one evolve_flags call per read, bit for bit
    got = stationary_lines(spec, replicas, 30, count, SeededSampler(46))
    want = _lines_per_read(spec, replicas, 30, count, SeededSampler(46))
    assert len(got) == count
    assert got.tobytes() == want.tobytes()


# bern2's atoms and their transposes, equiprobable: d = 2 lines on packed
# indices of b = 2 bits
QUAD2 = finite_support("quad2", [*bern2().params["atoms"],
                                 *bern2().params["atoms"].swapaxes(1, 2)],
                       np.full(4, 0.25))


@pytest.mark.parametrize("spec, bits", [(bern2(), 1), (QUAD2, 2)],
                         ids=lambda v: getattr(v, "name", v))
@pytest.mark.parametrize("replicas", [64, 200])
def test_stationary_lines_spend_packed_words_per_step(spec, bits, replicas):
    # burn-in and reads alike spend ceil(R b / 64) raw words a step, in one
    # draw block each at 64 replicas and in three or four at 200: the call
    # leaves the stream (burnin + (reads - 1) THINNING) ceil(R b / 64)
    # words on
    assert ensemble._packed_bits(spec) == bits
    burnin, reads = 400, 100
    drawn, fresh = SeededSampler(49), SeededSampler(49)
    got = stationary_lines(spec, replicas, burnin, reads * replicas - 3,
                           drawn)
    assert len(got) == reads * replicas - 3
    fresh.rng.bit_generator.random_raw(
        (burnin + (reads - 1) * THINNING) * -(-replicas * bits // 64))
    assert (drawn.rng.bit_generator.random_raw()
            == fresh.rng.bit_generator.random_raw())


@pytest.mark.parametrize("spec", [rot2(), iso2(), three2()],
                         ids=lambda s: s.name)
def test_stationary_lines_draw_thresholds_outside_equal_dyadic_weights(
        monkeypatch, spec):
    # Haar draws or unequal weights: the burn-in and the reads draw what
    # ``_draws`` draws, as they did before the lines packed, so the angles
    # are the threshold draw's bit for bit; bern2's packed draw reads
    # other indices of the same law
    def lines(s):
        return stationary_lines(s, 100, 60, 1000, SeededSampler(47))

    packed = [lines(s) for s in (spec, bern2())]
    monkeypatch.setattr(dynamics, "_packed_draws", dynamics._draws)
    drawn = [lines(s) for s in (spec, bern2())]
    assert packed[0].tobytes() == drawn[0].tobytes()
    assert packed[1].tobytes() != drawn[1].tobytes()


@pytest.mark.parametrize("spec", [bern2(), diag3eps(), iso3(), diag4eps()],
                         ids=lambda s: s.name)
def test_narrow_pools_are_the_leading_columns_of_full_pools(spec):
    # Gram-Schmidt never reads a later column, so a pool of d - 1 leading
    # columns burns in to the full pool's, bit for bit, on the same stream
    d = spec.dim
    full = stationary_flag_pool(spec, 500, 300, SeededSampler(48))
    narrow = stationary_flag_pool(spec, 500, 300, SeededSampler(48),
                                  columns=d - 1)
    assert narrow.shape == (500, d, d - 1)
    assert narrow.tobytes() == full[..., :-1].tobytes()
