"""Orbits of the flag cocycle and everything read off them.

Every stack of flag bases folds W = ``fold_width(spec)`` consecutive
draws of each replica into one product and runs a single QR step,
``batched_orthonormalize``, per product.  The diagonal of R for a product
is the product of the per-step diagonals, so log|diag R| sums are those
of the stepwise orbit up to rounding.  W is derived from the spec so that
every product's condition number stays under FOLD_COND_CAP, which keeps
that rounding near machine precision and the Gram-Schmidt step
orthogonal; no fold is checked or cut while an orbit runs.  A stack that
keeps no matrices (``evolve_flags``) draws one block of whole folds and
at most DRAW_BLOCK draws at a time (``_draws``), so a narrow stack such
as the spectrum's 64 replicas draws many folds per block and a pool of
thousands one.  Each fold's log|diag R| is added to the stack's running
sum in fold order, so no sum depends on where blocks end, and the block
size trades only speed against memory.  A finite-support spec evolved
this way (the stationary pools, the orbit windows' burn-ins and the
spectrum's burn-in) draws atom indices instead, from the same stream, as
counts of integer thresholds that the bit generator's raw words reach,
one word an index (``ensemble._atom_counts``), and folds them as words.
Two stacks, on a spec of 2^b equiprobable atoms, b = 1, 2, 4 or 8, draw
packed indices instead: the spectrum's measurement and the d = 2
stationary sample, its burn-in and its reads.  Each of their steps
spends ceil(n b / 64) words, 64 / b indices a word
(``ensemble._packed_atom_counts``, ``_packed_draws``); every other spec
draws thresholds there too.  Both draws spend a fixed number of words a
step, so neither depends on where blocks end.  A
per-spec table, built on first use, holds every left-associated product
of l atoms for l = 1..h, h the largest of 8, 4, 2 and 1 with K^h <=
WORD_TABLE, its log|det|, and the largest condition number c_l over each
length.  A fold of W = q h + r steps is the product, left to right, of q
tabled h-words and one r-word, so its condition number is at most c_h^q
c_r by submultiplicativity: bern2 folds 43 steps and diag3eps 32.  A
rotation_invariant draw K S has the singular values of S, so the bound
is cond(S)^W: iso2 folds 30 steps, iso3 24 and rot2 64.

Every stack folds its draws through one routine, ``_folds``: the
evolved stacks, the spectrum, the d = 2 lines, the orbit traces and the
pinned pasts.  It returns one (F, m, d, d) stack of fold products with
one algorithm per kind: finite support reads its folds from the word
tables, and drawn matrices fold by their running products,
left-associated, for every fold and replica at once (``_fold_ends``).
Neither writes the draws.  A pinned past is a stretch of a realization's
orbit window and folds at W too: ``pinned_samples`` folds the kept
draws of all of a trace's realizations in one ``_folds`` call.  Each
replica's products are formed by the same operations whatever the
stack's width, so each is the one a push through that past alone forms
(``push_flags``) bit for bit.  Each pool is then pushed through its own
past, one pool at a time, and read in the frame the trace keeps at the
past's end.

The spectrum's 64 replicas burn in as a stack (64, d, d - 1) of leading
columns, and then measure on the burn-in's stream, on packed atom
indices where the spec has them.  chi_1 + ... + chi_j is the growth
rate of the j-volume of a flag's first j columns, to which the QR
cocycle's sums of log r_11 ... log r_jj telescope (Oseledets;
Bougerol-Lacroix, ch. III).  At d <= 3 the replicas then take no QR step: each carries its first column x_1
and, at d = 3, the 2 x 2 minors x_2 of its first two columns, and
advances them by every fold product P and its second compound C_2(P),
one matrix-vector einsum per fold (``_minors2``,
``lyapunov_spectrum``).  At d >= 4 the d - 1 columns run the QR chain:
Gram-Schmidt never reads a later column, so chi_1 ... chi_{d-1} are
those of full flags bit for bit.  Each replica's chi_d is its draws'
summed log|det A_t| less its d - 1 volume's growth.  Finite support
reads a fold's log|det| off the word tables at the codes its product is
read at (``_folds``); every rotation_invariant draw K S has log|det S|.
No other stack sums log|det|.

Stacks that advance this way (pools of thousands of replicas, the
spectrum's burn-in and its d >= 4 chain) keep their shape (n, d, k) but
are held replica-last: the replica axis is innermost in memory.  Word
tables are (d, d, K^l) buffers, so a gather of words comes out
replica-last; the words are folded by ``einsum`` into a (d, d, F, m)
buffer, each product times the stack is formed in Fortran order, and
``batched_orthonormalize`` returns Q in its input's order.
Every elementwise step of the fold, the product and Gram-Schmidt then
runs over contiguous replicas instead of once per 3x3 matrix.

A narrow stack, such as the spectrum's 64 replicas, is bound by numpy's
fixed cost per call rather than by its arithmetic: the flops of one fold
of 64 3x3 products are a small share of the calls that form it.  Two
rules keep that cost down without changing one floating-point operation.
The fold loop makes no dispatched numpy call: every einsum of the module
goes through one binding, ``_einsum``, numpy's undispatched einsum (the
``_implementation`` numpy attaches to each ``__array_function__``
function), and the word tables and their log|det| are read by the
arrays' own ``take`` and ``transpose`` (``_gather``).  Word codes are
formed by Horner's rule in the counts' own unsigned dtype
(``_word_codes``), one byte up to 256 atoms, rather than by an int64
einsum: a code is below K^h <= WORD_TABLE, so it never wraps.

Every stack of replicas draws from one sampler: step t takes one matrix
per replica, in replica order, so a replica's draws depend on the stack
it runs in.  A burn-in is a ``stationary_flag_pool`` on the stack's
stream; an orbit window (``stationary_orbit``) draws on that stream after
it, and a realization's pinned past is the start of its own window.  A
tail pool is read at its first d - 1 subspaces alone, so the pools burn
in as (n, d, d - 1) stacks of leading columns, bit for bit the full
flags' columns; the orbit windows' burn-ins run full flags.  An orbit
trace (``forward_orbit``) draws its whole window of T steps in one
``_draws`` call and keeps the draws, which the pins fold again.
Its reader names the times it reads, and the window's ends are always
named: the interval route names -n and 0, the decay curve its grid
depths and 0, the density route 0 and 1, the conditional samples the
window's end.  The steps between consecutive named times fold at W as
any stack's draws do (``_folds``), so that no fold straddles a named
time, and each fold takes one QR step.  The trace keeps, for R replicas
and the K times of its start and fold ends, arrays with the replica on
the leading axis: the flag bases (R, K, d, d), the completion frames of
the fiber planes (R, K, d, 2), the fiber coordinates (R, K) and each
fold's 2x2 fiber map F_end^T P F_start (R, K-1, 2, 2), P the fold's
product.  Naming every time gives folds of one step, the stepwise trace
that the tests hold the folds to.  The stable line of a window ending at
time 0 is certified by the maps after it, which nothing else reads: the
interval route and the decay curve continue their window past 0 by a
second ``forward_orbit`` call on the same stream, which names only its
ends, and the stable-line pass (``stable_coordinates``) pulls its pair
back through every fold map of the continuation and then of the window,
one renormalization per fold.

A d = 2 sample of the stationary measure needs nothing but the line of
each flag: ``stationary_lines`` burns in a ``stationary_flag_pool`` of
leading columns (R, 2, 1) and reads their angles then and again every
THINNING steps, off independent replicas rather than one orbit: on
bern2, cos 4 theta has autocorrelation -0.64 at lag 5 along one orbit, so
the points of one thinned orbit sample nu poorly.  The burn-in and the
reads draw packed atom indices where the spec has them
(``_packed_draws``): 6000 bern2 lines spend 94 words a step, not 6000.
The thinned reads of a draw block come from one draw, and their
THINNING-step products are formed (gathered, for finite support) at
once.

Intervals are carried as an anchor plus two signed offsets, never as
absolute endpoints.  A map B at the anchor u acts on an offset delta
through its offset map: (sin delta, cos delta) goes, up to a positive
factor, to N (sin delta, cos delta) with N = [[det B, 0], [<Bu, Bu_perp>,
|Bu|^2]] / |Bu|^2, read off by one atan2 in the frame of Bu.  Offset maps
are lower triangular with unit corner, so the maps along an orbit
compose by two multiply-adds per fold into one [[D, 0], [G, 1]], whose D
is the product of the folds' derivatives at the anchors.  An interval is
anchored at its replica's fiber coordinate, so a trace's own coordinates
are the anchors at every fold start (``pull_forward``).  Lengths that
decay like e^(-gap n) thus stay fully resolved long after the endpoints'
absolute coordinates have collapsed onto one double.  The image cross
product is det B sin delta, so the atan2 is exact for every |delta| < pi
and no offset is cut into pieces.  ``CircleMap.map_offset`` keeps its
per-map pieces, as an independent check of one step.
"""

import functools
import weakref
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from . import circle
from .ensemble import (_atom_counts, _packed_atom_counts, _packed_bits,
                       _support, mean_log_abs_det, sample_batch)
from .errors import (DegenerateBasis, DegenerateFiberPair, GapTooSmall,
                     IntervalWrap)
from .flagcore import (ORTHO_TOL, CircleMap, completion_frames, det2,
                       fiber_coordinates)

# Cap on the condition number of a product folded before one QR step:
# its rounding and the Gram-Schmidt loss of orthogonality grow like
# eps * cond(P) = 2e-12 at the cap, far below ORTHO_TOL.  The d <= 3
# spectrum's 2 x 2 minors of a fold lose the same eps * cond(P); a j x j
# minor for j >= 3 would lose eps * cond(P)^(j - 1), so no larger
# compound is formed (``lyapunov_spectrum``).  Every spec's
# fold width (``fold_width``) keeps a bound on that condition number under
# it, so no product is checked.
FOLD_COND_CAP = 1e4
WORD_FOLD_STEPS = 64      # steps folded into one product at most
# Draws per block at most, or one fold of the stack when that is more.  A
# block's draws live only through its own folds, so this bounds memory;
# each block costs a fixed overhead, so a larger one speeds up narrow
# stacks.  Stacks of more than DRAW_BLOCK / W replicas draw one fold per
# block.  Results do not depend on it (see ``evolve_flags``).
DRAW_BLOCK = 32768
WORD_TABLE = 256          # products per word table at most (K^h <= this)
DEGENERATE_DISTANCE = 1e-12   # x and y closer than this do not bound an interval
ANCHOR_TOL = 1e-12        # an arc anchored further than this from x is refused
DECAY_STABLE_TOL = 1e-2   # stable-line resolution a decay replica must reach
INTERVAL_STABLE_TOL = 0.05  # ... and one an interval-route replica must reach
THINNING = 5              # d = 2 stationary sample: steps between reads
# einsum without the __array_function__ dispatch of each call, the same
# computation; every einsum of the module calls it
_einsum = np.einsum._implementation


def batched_orthonormalize(mats):
    """QR with positive diagonal across a stack; returns Q and log|diag R|.

    A vectorized modified Gram-Schmidt over the stack (..., d, k): LAPACK's
    per-matrix overhead dominates np.linalg.qr for tiny matrices.  Q is
    allocated like ``mats``, so it comes back in the input's memory order:
    a replica-last stack (see ``_apply``) stays replica-last, and every
    column operation then runs over contiguous replicas.  Stacks advance
    through it once per folded product (see ``_apply``), so a call stands
    for up to the spec's fold width of steps; an orbit trace takes one
    call per fold as well (see ``forward_orbit``).
    A narrow stack pays numpy's fixed cost per call more than its
    arithmetic, so the loop makes no call it can spare: its einsums are
    undispatched (``_einsum``), each column's |r_jj| is written straight
    into the result, and one log over the result takes every column's
    log|r_jj| at once.
    """
    mats = np.asarray(mats, dtype=float)
    k = mats.shape[-1]
    q = np.empty_like(mats)
    logs = np.empty(mats.shape[:-2] + (k,))
    for j in range(k):
        col = mats[..., :, j]
        for i in range(j):
            prev = q[..., :, i]
            col = col - _einsum("...i,...i->...", prev, col)[..., None] * prev
        # |r_jj| goes into the result, which one log turns into log|r_jj|
        nrm = np.sqrt(_einsum("...i,...i->...", col, col), out=logs[..., j])
        np.divide(col, nrm[..., None], out=q[..., :, j])
    return q, np.log(logs, out=logs)


def _runs(seq, width):
    """seq (T, ...) as runs (F, width, ...), then one shorter run if left."""
    full = len(seq) // width * width
    for part, w in ((seq[:full], width), (seq[full:], len(seq) - full)):
        if len(part):
            yield part.reshape((-1, w) + part.shape[1:])


# spec -> _word_tables(spec), a pure function of the spec, dropped with it
_WORD_TABLES = weakref.WeakKeyDictionary()


def _fold_width(h, conds):
    """Steps per fold, from the largest condition number of each length.

    ``conds[l]`` bounds the condition number c_l of any l-step product for
    l = 1..h (``conds[0]`` = 1).  A fold of w = q h + r steps multiplies
    q h-step products and one r-step product, so its condition number is
    at most c_h^q c_r.  The width is the longest w, up to
    WORD_FOLD_STEPS, whose every width from 1 on keeps that bound under
    FOLD_COND_CAP, so a shorter last fold keeps it too.  A step that
    breaks the cap alone gives width 1.
    """
    def bound(w):
        return conds[h] ** (w // h) * conds[w % h]

    w = 0
    while w < WORD_FOLD_STEPS and bound(w + 1) <= FOLD_COND_CAP:
        w += 1
    return max(1, w)


def _word_tables(spec):
    """A finite-support spec's word length h, fold width, tables and
    log|det|s.

    Built on first use.  For each length l = 1..h the table holds the
    product of every word of l atom indices (i_0, ..., i_{l-1}), i_0 acting
    first, at its base-K code i_0 + i_1 K + ... + i_{l-1} K^(l-1), as the
    left-associated a_{i_{l-1}} (... (a_{i_1} a_{i_0})) that a fold of
    matrices forms (``_fold_ends``), and the log|det| table at the same
    code the sum of log|det a_{i_j}| over the word's atoms.  h is the
    largest of 8, 4, 2 and 1 with K^h <= WORD_TABLE, so no table holds
    more than WORD_TABLE products except the atoms themselves when K
    exceeds it.  The fold width comes from each length's largest 2-norm
    condition number (see ``_fold_width``).  Each table is a (d, d, K^l)
    buffer read through a (K^l, d, d) view, so that a gather along its
    last axis (``_gather``) comes out replica-last.
    """
    tables = _WORD_TABLES.get(spec)
    if tables is None:
        atoms = spec.params["atoms"]
        k, d = len(atoms), spec.dim
        h = next(w for w in (8, 4, 2, 1) if k ** w <= WORD_TABLE or w == 1)
        prods, dets = [atoms], [np.linalg.slogdet(atoms)[1]]
        for _ in range(1, h):
            prods.append((atoms[:, None] @ prods[-1][None]).reshape(-1, d, d))
            dets.append((dets[0][:, None] + dets[-1][None]).reshape(-1))
        conds = [1.0] + [float(np.max(np.linalg.cond(p))) for p in prods]
        views = [np.moveaxis(np.ascontiguousarray(np.moveaxis(p, 0, -1)), -1, 0)
                 for p in prods]
        tables = _WORD_TABLES.setdefault(
            spec, (h, _fold_width(h, conds), views, dets))
    return tables


def fold_width(spec):
    """The steps W that every stack of the spec folds into one product.

    Finite support takes the word tables' width (see ``_word_tables``).
    Every rotation_invariant draw K S has the singular values of S, and
    2-norm condition numbers are submultiplicative, so ``_fold_width``
    reads c_1 = cond(S) alone, one ``np.linalg.cond`` per call.
    """
    if spec.kind == "finite_support":
        return _word_tables(spec)[1]
    return _fold_width(1, [1.0, float(np.linalg.cond(spec.params["stretch"]))])


def _gather(table, codes):
    """``table[codes]``, shape (*codes.shape, d, d), held replica-last.

    A take along the last axis of the table's (d, d, K^l) buffer writes
    each entry's words contiguously, so the codes' axes, the replica axis
    among them, are innermost in memory.  The axes are moved by
    ``transpose`` and the take is the array's method: the same views and
    copy as ``np.moveaxis`` and ``np.take`` without their per-call
    dispatch.
    """
    words = table.transpose(1, 2, 0).take(codes, axis=-1)
    return words.transpose(tuple(range(2, words.ndim)) + (0, 1))


def _word_codes(words, k):
    """Base-K codes (..., m) of words (..., l, m) of atom indices, i_0 +
    i_1 K + ... + i_{l-1} K^(l-1), by Horner's rule in the indices' own
    dtype.  Every partial sum is below K^l <= WORD_TABLE when l > 1 (see
    ``_word_tables``), so one unsigned byte never wraps; at l = 1 the code
    is the index itself."""
    code = words[..., -1, :]
    for j in range(words.shape[-2] - 2, -1, -1):
        code = code * k + words[..., j, :]
    return code


def _apply(bases, products, logs=0.0):
    """One QR step of the stack (n, d, k) per product, in order.

    Each product multiplies the stack into a replica-last stack (Fortran
    order: the replica axis innermost in memory), which
    ``batched_orthonormalize`` keeps, so both run over contiguous replicas
    whatever order the products come in.  Each product's log|diag R| is
    added to the running sum ``logs`` (n, k) in turn, so a sum over many
    calls is the same whatever products each call gets; a stack whose sums
    nobody reads starts from 0.0.  Returns the bases reached and the new
    running sum; ``logs`` itself is not written.
    """
    bases = np.asarray(bases, dtype=float)
    for p in products:
        bases, logr = batched_orthonormalize(
            _einsum("...ij,...jk->...ik", p, bases, order="F"))
        logs = logs + logr
    return bases, logs


def _block_steps(n, steps, width):
    """Steps per draw block of an n-stack folded ``width`` steps at a time.

    A block holds as many whole folds as fit in DRAW_BLOCK draws, and at
    least one: a stack whose fold alone, n * width draws, exceeds
    DRAW_BLOCK draws one fold per block.  Only the last block may end in a
    shorter fold, so the blocks cut the steps into the same folds as one
    block over all of them would.
    """
    per = max(1, DRAW_BLOCK // (max(n, 1) * width)) * width
    for lo in range(0, steps, per):
        yield min(per, steps - lo)


def _draws(spec, sampler, steps, n):
    """The next ``steps`` draws of an n-stack, step-major: atom counts
    (steps, n) for finite support (``ensemble._atom_counts``), matrices
    (steps, n, d, d) otherwise, each as ``sample_batch`` draws them."""
    if spec.kind == "finite_support":
        return _atom_counts(spec, sampler, steps * n).reshape(steps, n)
    return sample_batch(spec, sampler, steps * n).reshape(
        steps, n, spec.dim, spec.dim)


def _packed_draws(spec, sampler, steps, n):
    """``_draws`` on packed atom indices where the spec has them: for 2^b
    equiprobable atoms (``ensemble._packed_bits``), ceil(n b / 64) raw
    words a step (``ensemble._packed_atom_counts``), and ``_draws`` for
    every other spec.  The spectrum's measurement and the d = 2 lines
    draw this way."""
    b = _packed_bits(spec)
    if b:
        return _packed_atom_counts(sampler, steps, n, b)
    return _draws(spec, sampler, steps, n)


def evolve_flags(spec, bases, n_steps, sampler, draw=_draws):
    """Advance a stack of flag bases n_steps with fresh draws.

    Step t draws one matrix per replica, as ``sample_batch(spec, sampler,
    n)`` would, in blocks of whole folds (``_block_steps``), each folded W
    = ``fold_width(spec)`` steps at a time: about n_steps / W QR steps.
    Only the draw differs between the kinds (``_draws``).  Finite support
    draws a block's atom indices on the same stream, as narrow counts
    (``ensemble._atom_counts``), and rotation_invariant the matrices; one
    ``_folds`` call turns either into the block's stack of fold products,
    and the stack takes one QR step per fold.  ``draw`` is the stack's draw
    routine, ``_draws`` or, for the d = 2 lines, ``_packed_draws``.
    Returns the bases reached, held replica-last (see ``_apply``), and
    each replica's log|diag R| summed over the steps (n, k), equal to the
    stepwise sums up to rounding.  Each fold's log|diag R| goes into one
    running sum in fold order, so the bases and sums do not depend on
    DRAW_BLOCK.  The spectrum folds the same way, but its measurement
    draws packed atom indices where the spec has them (``_packed_draws``)
    and at d <= 3 takes no QR step (see ``lyapunov_spectrum``).
    """
    bases = np.asarray(bases, dtype=float)
    n = len(bases)
    logs = np.zeros(bases.shape[:-2] + bases.shape[-1:])
    # a block's draws live only through its own folds, so none is held
    # while the next block is drawn
    for t in _block_steps(n, n_steps, fold_width(spec)):
        bases, logs = _apply(bases, _folds(spec, draw(spec, sampler, t, n)),
                             logs)
    return bases, logs


def _fold_ends(steps, width):
    """Each fold's product of drawn matrices steps (T, m, d, d): a new (F,
    m, d, d) stack, one product per fold in order, the last fold shorter
    when T is not a multiple of ``width``.

    A fold's running product steps[t] (... steps[lo]), left-associated, lo
    its first step, is formed for every fold and replica at once on the
    stack's own copy of the folds' first steps, so ``steps`` is neither
    written nor held.  numpy multiplies a stack one 2-d product at a time,
    so replica r's products are those of its steps folded alone, bit for
    bit.
    """
    folds = steps[::width].copy()
    for w in range(1, width):
        later = steps[w::width]
        folds[:len(later)] = later @ folds[:len(later)]
    return folds


def _folds(spec, draws, log_dets=None):
    """Fold products (F, m, d, d) of ``_draws`` output (T, m, ...), W =
    ``fold_width(spec)`` steps at a time, the last fold shorter when T is
    not a multiple of W.  No input is written.

    Drawn matrices fold by their running products (``_fold_ends``).
    Finite support reads its folds from the word tables (see
    ``_word_tables``): each run of ``_runs`` is cut into sub-words of h,
    and a fold's product is its sub-words' tabled products multiplied
    left to right, one einsum per sub-word for the run's folds at once.
    Each run's last einsum writes straight into one stack (a run of one
    sub-word is assigned to it); the stack is a (d, d, F, m) buffer, so
    every fold is held replica-last.  The width keeps every product under
    FOLD_COND_CAP, so none is checked or cut.  ``log_dets`` (m,), when
    given, is a running sum to which each word fold's log|det|, read from
    the tables at the same codes, is added in fold order, one sequential
    ``np.add.accumulate`` a run; the new sum is returned after the stack,
    and the folds of matrices return it as given.
    """
    if spec.kind != "finite_support":
        stack = _fold_ends(draws, fold_width(spec))
        return stack if log_dets is None else (stack, log_dets)
    h, width, tables, dets = _word_tables(spec)
    k, d, (t, m) = len(tables[0]), spec.dim, draws.shape
    stack = np.empty((d, d, -(-t // width), m)).transpose(2, 3, 0, 1)
    lo = 0
    for runs in _runs(draws, width):
        f, w, _ = runs.shape
        q, r = divmod(w, h)
        codes = [(h, _word_codes(runs[:, :q * h].reshape(
            f, q, h, m).swapaxes(0, 1), k))]
        if r:
            codes.append((r, _word_codes(runs[:, q * h:], k)[None]))
        words = [p for length, c in codes
                 for p in _gather(tables[length - 1], c)]
        prod = words[0]
        for p in words[1:-1]:
            prod = _einsum("...ij,...jk->...ik", p, prod)
        if len(words) == 1:
            stack[lo: lo + f] = prod
        else:
            _einsum("...ij,...jk->...ik", words[-1], prod,
                    out=stack[lo: lo + f])
        lo += f
        if log_dets is not None:
            folds = sum(dets[length - 1].take(c).sum(axis=0)
                        for length, c in codes)
            log_dets = np.add.accumulate(
                np.concatenate([log_dets[None], folds]))[-1]
    return stack if log_dets is None else (stack, log_dets)


def push_flags(pinned, bases, spec):
    """Apply a fixed sequence of the spec's draws to every base in the stack.

    ``pinned`` holds one replica's draws as ``_draws`` returns them: atom
    indices (T,) for finite support, matrices (T, d, d) otherwise.  They
    fold in one ``_folds`` call, as any draws of the spec do, so a push
    costs one QR step of the stack per fold rather than one per step.  The
    package pushes its pools through ``pinned_samples``; this per-past push
    is the reference the tests hold that routine to, and keeps its name
    for the benchmark's tracer.
    """
    return _apply(bases, _folds(spec, pinned[:, None]))[0]


def pinned_samples(trace, pools, i, start, end):
    """Fiber-i coordinates of ``pools[r]`` (tail flags, or their i leading
    columns) pushed through realization r's steps from ``start`` to
    ``end`` of the trace's window and read in the frame kept at ``end``.

    Every past folds from the trace's draws in one ``_folds`` call, which
    writes none of them, and sample r is ``push_flags`` of past r bit for
    bit.  Only a pool's leading i columns are pushed: Gram-Schmidt
    never reads a later one.  The samples come as the caller reads them,
    one pool pushed at a time.  An ``end`` the trace does not keep raises
    IndexError, a ``start`` before the window or after ``end`` ValueError.
    """
    k = trace.index(end)
    t0 = int(trace.times[0])
    if not t0 <= start <= end:
        raise ValueError(f"pinned past [{start}, {end}] is not in the "
                         f"window [{t0}, {trace.times[-1]}]")
    chain = _folds(trace.spec,
                   trace.draws[:, start - t0: end - t0].swapaxes(0, 1))
    return (fiber_coordinates(_apply(pool[..., :i], past[:, None])[0],
                              frame, i)
            for pool, frame, past in zip(pools, trace.frames[:, k],
                                         chain.swapaxes(0, 1), strict=True))


def stationary_flag_pool(spec, count, burnin, sampler, columns=None,
                         draw=_draws):
    """Approximate i.i.d. draws from the stationary flag distribution.

    Runs ``count`` independent replicas from the standard flag for
    ``burnin`` steps; with a positive gap they forget the start
    exponentially.  With ``columns`` = k given, only the k leading columns
    (count, d, k) run, which are those of the full flags bit for bit:
    Gram-Schmidt never reads a later column.  ``draw`` is the stack's draw
    routine (see ``evolve_flags``): the tail pools and every burn-in but
    the d = 2 lines' draw thresholds.
    """
    start = np.eye(spec.dim)[:, :columns]
    return evolve_flags(spec, np.broadcast_to(start, (count,) + start.shape),
                        burnin, sampler, draw)[0]


def stationary_lines(spec, replicas, burnin, count, sampler):
    """``count`` angles of d = 2 lines, approximate draws from nu.

    ``replicas`` leading columns (R, 2, 1) burn in ``burnin`` steps as a
    ``stationary_flag_pool``; their fiber coordinates are read then, and
    again every THINNING steps, until ``count`` angles are held (the last
    read cut short).  Reads of one replica are correlated, reads of
    different replicas independent.  Only the angles are kept, written
    read by read into one array.

    Both the burn-in and the reads draw through ``_packed_draws``: on 2^b
    equiprobable atoms each step spends ceil(R b / 64) raw words, so the
    call leaves the stream (burnin + (reads - 1) THINNING) ceil(R b / 64)
    words on; every other spec draws as ``evolve_flags`` does by default.
    The thinned reads draw on the same stream as ``evolve_flags`` calls of
    THINNING steps would, but one draw block of whole reads at a time
    (``_block_steps``): a block's k reads fold as one stack of k R
    THINNING-step pasts, read by read, so every word of the block is
    gathered (or every matrix product formed) at once.  Each read's slice
    of the stack then takes its QR steps, so the angles are those of the
    per-read calls bit for bit.
    """
    lines = stationary_flag_pool(spec, replicas, burnin, sampler, columns=1,
                                 draw=_packed_draws)
    reads = np.empty((max(1, -(-count // replicas)), replicas))
    # the fiber plane of d = 2 is the whole plane, framed by e_1, e_2
    reads[0] = fiber_coordinates(lines, np.eye(2), 1)
    k = 1
    for t in _block_steps(replicas, (len(reads) - 1) * THINNING, THINNING):
        draws = _packed_draws(spec, sampler, t, replicas)
        rest = draws.shape[2:]
        # (THINNING, reads * R): read j's replica r is column j R + r
        draws = draws.reshape((-1, THINNING, replicas) + rest).swapaxes(
            0, 1).reshape((THINNING, -1) + rest)
        products = _folds(spec, draws)
        for lo in range(0, draws.shape[1], replicas):
            lines, _ = _apply(lines, products[:, lo: lo + replicas])
            reads[k] = fiber_coordinates(lines, np.eye(2), 1)
            k += 1
    return reads.reshape(-1)[:count]


@dataclass(frozen=True, eq=False)
class SpectrumEstimate:
    chi: np.ndarray
    stderr: np.ndarray
    n_steps: int
    burnin: int
    replicas: int
    gap_stderrs: np.ndarray   # stderr of chi_i - chi_{i+1}, i = 1..d-1

    def gap(self, i):
        """chi_i - chi_{i+1}, 1-based."""
        return float(self.chi[i - 1] - self.chi[i])

    def gap_stderr(self, i):
        return float(self.gap_stderrs[i - 1])

    @property
    def dim(self):
        return len(self.chi)


@functools.lru_cache(maxsize=None)
def _pair_entries(d, e):
    """Flat indices (2, 2, C(d, 2), C(e, 2)) into a d x e matrix: for the
    row pair I and column pair J, [0] holds entries (I0, J0) and (I0, J1),
    [1] the entries (I1, J1) and (I1, J0) they multiply.  Pairs are in
    lexicographic order."""
    (i, k), (j, l) = (np.array(list(combinations(range(n), 2))).T
                      for n in (d, e))
    i, k = i[:, None] * e, k[:, None] * e
    return np.array([[i + j, i + l], [k + l, k + j]])


def _minors2(mats, out=None):
    """Every 2 x 2 minor of a stack mats (F, d, e, m), (F, C(d, 2), C(e, 2),
    m): entry [f, I, J, r] is det mats[f, I, J, r] over the row pair I and
    column pair J (``_pair_entries``), with the m replicas innermost, as
    each fold's advance reads them; written into ``out`` when given."""
    f, d, e, m = mats.shape
    flat = mats.reshape(f, d * e, m)
    first, second = _pair_entries(d, e)
    products = flat.take(first, axis=1)
    products *= flat.take(second, axis=1)
    return np.subtract(products[:, 0], products[:, 1], out=out)


def _rescale(x, exponents):
    """x (k, N, m) scaled by a power of two per vector, its largest entry
    into [1/2, 1): exact, so no mantissa moves.  The powers taken out are
    added to ``exponents`` (k, m)."""
    e = np.frexp(np.abs(x).max(axis=1))[1]
    exponents += e
    return np.ldexp(x, -e[:, None])


def lyapunov_spectrum(spec, n_steps, sampler, burnin=1000, replicas=64):
    """Per-step log growth of flag volumes averaged over time and replicas.

    chi_1 + ... + chi_j is the growth rate of j-volumes, (1/n) log|Lambda^j
    (A_n ... A_1) (b_1 ^ ... ^ b_j)|, for the first j columns of a
    stationary flag; the standard error comes from the spread of replica
    means, which are independent by construction.  The replicas burn in as
    d - 1 leading columns (``stationary_flag_pool``) and advance by the
    folded products P.  The measurement draws on the burn-in's stream
    after it, at d <= 3 and at d >= 4 alike, through ``_packed_draws``:
    packed atom indices for 2^b equiprobable atoms, 64 / b a raw word, and
    the burn-in's draw for every other spec.  Each replica's chi_d is its
    draws' summed log|det A_t| (finite support reads each fold's off the
    word tables, and ``_folds`` adds it to the sum as it folds the block;
    every K S has log|det S|) less its d - 1 volume's growth.  Each draw
    block folds in one ``_folds`` call into a stack (F, m, d, d), which
    the d >= 4 chain takes one QR step per fold and the d <= 3 compounds
    copy, replica-last, into their block.

    At d <= 3 each replica carries, for j = 1..d-1, the Pluecker
    coordinates x_j of its first j columns: x_1 the first column, x_2 its
    2 x 2 minors (``_minors2``), C(d, j) = d entries each.  Both advance
    by one stacked ``einsum`` per fold, x_1 by P and x_2 by P's second
    compound C_2(P): the QR cocycle's sum over folds of log r_11 + ... +
    log r_jj telescopes to the growth of log|x_j|, so no Gram-Schmidt
    chain runs.  Each x_j is scaled by a power of two (``_rescale``) every
    ``per`` folds, counted from the first, and once more before the final
    norms, so that |x_j|^2 cannot overflow.  The scaling is exact and
    each step's draw spends a fixed number of raw words, so no result
    depends on the schedule or on DRAW_BLOCK.  The schedule comes
    from the draws' singular values: one fold changes |x_j| by at most W
    times the largest |log| of a draw's top or bottom j singular values,
    and ``per`` folds of that keep the largest entry of an x_j rescaled
    into [1/2, 1) a normal double.  A fold's C_2 minors carry the
    cancellation eps s_1 / s_2 that Gram-Schmidt's r_22 does, at most
    eps FOLD_COND_CAP.

    At d >= 4 the d - 1 columns run the QR chain (``_apply``) and chi_j
    is the mean log r_jj, bit for bit that of full flags, since
    Gram-Schmidt never reads a later column.  A compound C_j for j >= 3
    would lose up to eps cond(P)^(j - 1) of its size per fold, well above
    the QR step's eps cond(P), and C(d, j)^2 entries a fold; it is not
    formed.

    A gap's standard error comes from the spread of the replicas' own
    gaps: neighbouring exponents of one replica are correlated (chi_1 +
    ... + chi_d is the replica's mean log|det A_t|), so their errors do
    not add in quadrature.
    """
    d = spec.dim
    # burn-in and measurement are two advances on one stream, so no fold
    # straddles the burn-in
    stream = sampler.child(0xCC)
    bases = stationary_flag_pool(spec, replicas, burnin, stream,
                                 columns=d - 1)
    width = fold_width(spec)
    logs = np.zeros((replicas, d - 1))
    chain = d > 3
    if not chain:
        # (d - 1, d, m): x_1 and, at d = 3, x_2
        cols = bases.transpose(1, 2, 0)
        x = start = cols[None, :, 0]
        if d == 3:
            x = start = np.concatenate([x, _minors2(cols[None])[:, :, 0]])
        exponents = np.zeros((d - 1, replicas), dtype=np.int64)
        # a rescaled x_j's largest entry, in [1/2, 1), stays a normal
        # double through 1021 binary orders, less the sqrt(d) between it
        # and |x_j|, of growth or decay
        sv = np.log(np.linalg.svd(_support(spec)[0], compute_uv=False))
        rate = width * max(np.abs(np.cumsum(sv, axis=1)).max(),
                           np.abs(np.cumsum(sv[:, ::-1], axis=1)).max())
        room = (-np.finfo(float).minexp - 1 - np.log2(d) / 2) * np.log(2)
        per = max(1, int(room // rate)) if rate > 0 else None
        folds = 0
    log_dets = np.zeros(replicas)
    for t in _block_steps(replicas, n_steps, width):
        prods, log_dets = _folds(
            spec, _packed_draws(spec, stream, t, replicas), log_dets)
        if chain:
            bases, logs = _apply(bases, prods, logs)
            continue
        # (F, d - 1, d, d, m): P and, at d = 3, C_2(P), for every fold,
        # written in place so that no other copy of the block is held
        comps = np.empty((len(prods), d - 1, d, d, replicas))
        comps[:, 0] = prods.transpose(0, 2, 3, 1)
        del prods
        if d == 3:
            _minors2(comps[:, 0], out=comps[:, 1])
        for c in comps:
            x = _einsum("kijm,kjm->kim", c, x)
            folds += 1
            if per and folds % per == 0:
                x = _rescale(x, exponents)
    if spec.kind != "finite_support":
        log_dets = log_dets + n_steps * mean_log_abs_det(spec)
    if chain:
        total = logs.sum(axis=1)
    else:
        x = _rescale(x, exponents)
        growth = (np.log(_einsum("kim,kim->km", x, x)) / 2
                  + exponents * np.log(2)
                  - np.log(_einsum("kim,kim->km", start, start)) / 2)
        logs, total = np.diff(growth, axis=0, prepend=0.0).T, growth[-1]
    means = np.column_stack([logs, log_dets - total]) / n_steps
    chi = means.mean(axis=0)
    stderr = means.std(axis=0, ddof=1) / np.sqrt(replicas)
    gaps = means[:, :-1] - means[:, 1:]
    gap_stderrs = gaps.std(axis=0, ddof=1) / np.sqrt(replicas)
    return SpectrumEstimate(chi=chi, stderr=stderr, n_steps=n_steps,
                            burnin=burnin, replicas=replicas,
                            gap_stderrs=gap_stderrs)


def _max_deviation(frames):
    """Largest entry of |F^T F - I| over a stack of orthonormal frames."""
    gram = _einsum("...ki,...kj->...ij", frames, frames)
    gram -= np.eye(frames.shape[-1])
    return np.max(np.abs(gram, out=gram), initial=0.0)


def circle_map_between(a_entries, src, dst):
    """CircleMap of a matrix between two already-built partial flags."""
    su, sw = src.frame
    tu, tw = dst.frame
    au, aw = a_entries @ su, a_entries @ sw
    return CircleMap(source=src, target=dst,
                     matrix=np.array([[tu @ au, tu @ aw], [tw @ au, tw @ aw]]))


@dataclass(frozen=True, eq=False)
class OrbitTrace:
    """Realizations of R replicas over one window, kept at its fold ends.

    The window's flags are kept only at times[k]: its start and the end
    of every fold, the times its reader named among them (see
    ``forward_orbit``).  Replica r's flag there has basis bases[r, k];
    frames[r, k] holds the completion frame (u, w) of its fiber plane as
    columns and x[r, k] the fiber coordinate of its i-dimensional
    subspace.  maps[r, k] is the fold's 2x2 fiber map F_{k+1}^T P F_k
    between the frames at its ends, P the fold's product: in exact
    arithmetic the product of its steps' maps.  draws[r] are the window's
    draws in step order, atom indices for finite support and matrices
    otherwise.
    """

    spec: object
    times: np.ndarray      # (K,)
    draws: np.ndarray      # (R, T) atom indices, or (R, T, d, d)
    bases: np.ndarray      # (R, K, d, d)
    frames: np.ndarray     # (R, K, d, 2)
    maps: np.ndarray       # (R, K-1, 2, 2)
    x: np.ndarray          # (R, K)

    def index(self, t):
        k = int(np.searchsorted(self.times, t))
        if k == len(self.times) or self.times[k] != t:
            raise IndexError(f"time {t} is not kept in window "
                             f"[{self.times[0]}, {self.times[-1]}]")
        return k

    def select(self, rows):
        """The trace of the replicas ``rows`` alone (itself when all, in order)."""
        if np.array_equal(rows, np.arange(len(self.x))):
            return self
        return replace(self, draws=self.draws[rows], bases=self.bases[rows],
                       frames=self.frames[rows], maps=self.maps[rows],
                       x=self.x[rows])


def forward_orbit(spec, f0, n_steps, sampler, fiber_index=1, t0=0, times=()):
    """Run the cocycle from given flags over the window [t0, t0 + n_steps].

    ``f0`` is one basis (d, d) or a stack of R bases; the window's n_steps
    draws per replica are the next on ``sampler``, one ``_draws`` call, as
    one ``sample_batch`` call of n_steps R draws would draw them.  The
    steps between consecutive named times, the window's ends and
    ``times``, fold at the spec's width W = ``fold_width(spec)``
    (``_folds``), so that no fold straddles a named time, and each fold
    takes one QR step, as every other stack of the spec folds.  The trace
    keeps the flags at the fold ends only (``OrbitTrace``), and the draws
    as drawn, which ``_folds`` never writes; naming every time gives folds
    of one step, the stepwise trace.  A second call from
    the trace's last bases on the same sampler continues it.  Every basis
    and frame must be orthonormal to ORTHO_TOL, and every fold map
    invertible.
    """
    i = fiber_index
    d = spec.dim
    if not 1 <= i <= d - 1:
        raise ValueError(f"fiber index {i} outside 1..{d - 1}")
    start = np.reshape(f0, (-1, d, d))
    cuts = sorted({0, n_steps, *(int(t) - t0 for t in np.ravel(times))})
    if cuts[0] < 0 or cuts[-1] > n_steps:
        raise ValueError(
            f"named times outside the window [{t0}, {t0 + n_steps}]")
    width = fold_width(spec)
    ends = [min(k + width, hi) for lo, hi in zip(cuts, cuts[1:])
            for k in range(lo, hi, width)]
    draws = _draws(spec, sampler, n_steps, len(start))
    bases = np.empty((len(start), len(ends) + 1, d, d))
    bases[:, 0] = start
    folds = np.empty((len(start), len(ends), d, d))
    f = 0
    for lo, hi in zip(cuts, cuts[1:]):
        for p in _folds(spec, draws[lo:hi]):
            folds[:, f] = p
            bases[:, f + 1] = _apply(bases[:, f], [p])[0]
            f += 1
    frames = completion_frames(bases[..., i - 1: i + 1])
    err = max(_max_deviation(bases), _max_deviation(frames))
    if not err < ORTHO_TOL:
        raise DegenerateBasis(f"basis is not orthonormal (deviation {err:.3e})")
    maps = frames[:, 1:].swapaxes(-1, -2) @ (folds @ frames[:, :-1])
    det = det2(maps)
    if not np.all(np.isfinite(det) & (det != 0.0)):
        raise DegenerateBasis("induced fiber map is singular")
    return OrbitTrace(spec=spec, times=t0 + np.array([0] + ends),
                      draws=draws.swapaxes(0, 1), bases=bases, frames=frames,
                      maps=maps, x=fiber_coordinates(bases, frames, i))


def stationary_orbit(spec, fiber_index, n_steps, burnin, sampler, t_end=0,
                     replicas=1, times=()):
    """Traces of ``replicas`` replicas whose window ends at ``t_end``.

    The replicas burn in from the standard flag as a
    ``stationary_flag_pool`` on ``sampler``, which approximates drawing
    the first window flag from the stationary distribution; the window,
    covering times [t_end - n_steps, t_end] and kept at the named
    ``times`` (``forward_orbit``), draws on the same stream.
    """
    start = stationary_flag_pool(spec, replicas, burnin, sampler)
    return forward_orbit(spec, start, n_steps, sampler,
                         fiber_index=fiber_index, t0=t_end - n_steps,
                         times=times)


def _unit_columns(pairs):
    """A stack of 2x2 matrices with each column scaled to unit length."""
    return pairs / np.sqrt(np.sum(pairs * pairs, axis=-2, keepdims=True))


def _inverses(maps):
    """Inverses of a stack of 2x2 maps (..., 2, 2): the adjugate [[d, -b],
    [-c, a]] (each map with both axes reversed, transposed and signed)
    over the determinant."""
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    adjugate = maps[..., ::-1, ::-1].swapaxes(-1, -2) * signs
    return adjugate / det2(maps)[..., None, None]


def stable_coordinates(trace, ahead):
    """Stable-line coordinates at a trace's kept times, with certificates.

    ``ahead`` continues the trace on its stream from its last flags
    (``forward_orbit``).  Two transverse directions, the axes u and w of
    the completion frame at ahead's end, are pulled back through ahead's
    fold maps and then the trace's, one inverse and one renormalization
    per fold.  Both converge to the stable line (backward iteration
    contracts toward it at the rate the forward cocycle expands away from
    it); their distance at the trace's end is the realized resolution
    there, and every earlier time only contracts further.  The certifying
    event is thus a function of ahead's maps alone, so callers that drop
    uncertified replicas do not bias statistics collected on the trace.
    A fold map read off its fold's d x d product P carries P's rounding,
    eps cond(P) <= eps FOLD_COND_CAP of its size: a product of fiber maps
    is a diagonal block of the triangular flag product, so its singular
    values lie within P's.

    Returns (y, resolution): y[r, k] is replica r's coordinate at
    trace.times[k] and resolution[r] its resolution at the trace's end,
    which callers hold against their tolerance (an isometric action has
    no stable line and never resolves).  An ``ahead`` that does not start
    at the trace's end time from its last bases is refused.
    """
    if not (ahead.times[0] == trace.times[-1]
            and np.array_equal(ahead.bases[:, 0], trace.bases[:, -1])):
        raise ValueError("ahead does not continue the trace from its last "
                         f"flags at time {trace.times[-1]}")
    maps = np.concatenate([trace.maps, ahead.maps], axis=1)
    pairs = [np.broadcast_to(np.eye(2), (len(maps), 2, 2))]
    for inverse in _inverses(maps)[:, ::-1].swapaxes(0, 1):
        pairs.append(_unit_columns(inverse @ pairs[-1]))
    # the pairs at the trace's kept times, earliest first
    kept = np.stack(pairs[:-len(trace.times) - 1:-1], axis=1)
    angles = circle.wrap(np.arctan2(kept[..., 1, :], kept[..., 0, :]))
    return angles[..., 0], circle.distance(angles[:, -1, 0], angles[:, -1, 1])


@dataclass(frozen=True, eq=False)
class Arc:
    """Closed arcs {anchor + t : lo <= t <= hi} with lo <= 0 <= hi.

    The fields are floats, or arrays of one shape holding one arc per
    entry.  Offsets are kept separate from the anchor so lengths far below
    the anchor's own floating point resolution remain exact.
    """

    anchor: object
    lo: object
    hi: object

    def __post_init__(self):
        if not np.all((self.lo <= 0.0) & (self.hi >= 0.0)):
            raise IntervalWrap(f"anchor left the arc: offsets [{self.lo}, {self.hi}]")
        if np.any(self.hi - self.lo >= circle.HALF_TURN):
            raise IntervalWrap(f"arc of length {np.max(self.hi - self.lo)} "
                               "covers the circle")

    @property
    def length(self):
        return self.hi - self.lo


def stationary_interval(trace, t, y):
    """The arcs around x_t excluding the half-distance ball at the stable line.

    ``t`` is one time or a sequence; the result holds one arc per replica,
    and per time for a sequence.  ``y`` holds the stable-line coordinates
    at those times, as ``stable_coordinates`` reads them.
    """
    ks = [trace.index(s) for s in np.ravel(t)]
    x = trace.x[:, ks] if np.ndim(t) else trace.x[:, ks[0]]
    rho = circle.distance(x, y)
    if np.any(rho < DEGENERATE_DISTANCE):
        raise DegenerateFiberPair(
            f"x and y coincide at time {t} (distance {np.min(rho):.2e})")
    start = y + rho / 2.0  # forward endpoint of the excluded ball
    lo = -np.mod(x - start, circle.HALF_TURN)
    return Arc(anchor=x, lo=lo, hi=lo + (circle.HALF_TURN - rho))


def _offset_maps(b, cos, sin):
    """Offset maps of 2x2 maps at unit anchors, broadcasting.

    ``b`` (..., 2, 2) acts in the completion frames and the anchor's unit
    vector is u = (cos, sin).  Returns (d, g, Bu): the offset map N /
    |Bu|^2 is [[d, 0], [g, 1]] with d = det B / |Bu|^2, the map's signed
    derivative at the anchor, and g = <Bu, Bu_perp> / |Bu|^2.
    """
    b00, b01, b10, b11 = (b[..., j, k] for j in (0, 1) for k in (0, 1))
    x, y = b00 * cos + b01 * sin, b10 * cos + b11 * sin
    # B u_perp for u_perp = (-sin, cos)
    xp, yp = b01 * cos - b00 * sin, b11 * cos - b10 * sin
    norm2 = x * x + y * y
    return det2(b) / norm2, (x * xp + y * yp) / norm2, (x, y)


def _image_arc(anchor, d, g, lo, hi):
    """The arc at ``anchor`` whose offsets are the images of lo and hi
    under the offset map [[d, 0], [g, 1]]: each is atan2(d sin delta, g sin
    delta + cos delta), exact for |delta| < pi."""
    ends = np.stack([lo, hi])
    sin = np.sin(ends)
    ends = np.arctan2(d * sin, g * sin + np.cos(ends))
    return Arc(anchor=anchor, lo=np.minimum(*ends), hi=np.maximum(*ends))


def push_arc(cmap, arc):
    """Image of an arc under one circle map, anchored offsets throughout."""
    d, g, bu = _offset_maps(cmap.matrix, np.cos(arc.anchor), np.sin(arc.anchor))
    return _image_arc(circle.wrap(np.arctan2(bu[1], bu[0])), d, g, arc.lo,
                      arc.hi)


def pull_forward(trace, arc, t):
    """Images at time 0 of arcs given at kept times t <= 0, replica by replica.

    ``arc`` holds one arc per replica for one time ``t``, or per replica
    and time for a sequence of times, each anchored at its replica's
    fiber coordinate there; an anchor further than ANCHOR_TOL from it is
    refused.  A fold map takes
    the coordinate at its start to the one at its end, so the trace's own
    coordinates are the anchors of every fold: each fold's offset map at
    its start coordinate is formed for every fold in one vectorized pass,
    and the maps are composed last fold first, D <- D d_f and G <- G d_f
    + g_f, keeping the composite from every fold on; an arc reads the one
    from its own time.  Each end's image is one atan2 of the composed map,
    exact for any offset under a half turn, so every image contains its
    anchor, the coordinate at time 0, by construction.
    """
    starts = np.array([trace.index(s) for s in np.ravel(t)])
    shape = np.shape(arc.lo)
    anchor, lo, hi = (np.broadcast_to(v, shape).reshape(len(trace.x),
                                                        len(starts))
                      for v in (arc.anchor, arc.lo, arc.hi))
    off = circle.distance(anchor, trace.x[:, starts])
    if not np.all(off <= ANCHOR_TOL):
        raise ValueError(f"arc anchored {np.max(off):.2e} off the fiber "
                         "coordinate at its time")
    first, end = int(starts.min()), trace.index(0)
    x = trace.x[:, first:end]
    d, g, _ = _offset_maps(trace.maps[:, first:end], np.cos(x), np.sin(x))
    # column k composes the folds from first + k on
    big_d, big_g = np.ones((2, len(x), end - first + 1))
    big_g[:, -1] = 0.0
    for k in range(end - first - 1, -1, -1):
        big_g[:, k] = big_g[:, k + 1] * d[:, k] + g[:, k]
        big_d[:, k] = big_d[:, k + 1] * d[:, k]
    k = starts - first
    image = _image_arc(np.broadcast_to(trace.x[:, end, None], lo.shape),
                       big_d[:, k], big_g[:, k], lo, hi)
    return Arc(anchor=image.anchor.reshape(shape), lo=image.lo.reshape(shape),
               hi=image.hi.reshape(shape))


@dataclass(frozen=True, eq=False)
class IntervalDecayReport:
    n_grid: np.ndarray
    log_lengths: np.ndarray   # (certified replicas, grid points)
    slope: float
    slope_stderr: float

    @property
    def replicas(self):
        return len(self.log_lengths)

    @property
    def mean_log_length(self):
        return self.log_lengths.mean(axis=0)

    def summary(self):
        return (f"log length(J_n) slope {self.slope:.5f} "
                f"(stderr {self.slope_stderr:.5f}, {self.replicas} replicas)")


def interval_decay_curve(spec, fiber_index, n_grid, replicas, sampler,
                         burnin=1000, lookahead=900):
    """Log lengths of pulled-forward stationary intervals on a grid of n.

    Each replica runs one stationary window covering [-max n, 0] that
    names the grid depths -n and 0, so that its folds end at each of them
    (``forward_orbit``), continues it ``lookahead`` steps on the same
    stream, and contributes every grid point; the slope should match the
    negative exponent gap.  The slope is the mean of the
    replicas' own least-squares slopes (equal to the slope fitted to the
    mean curve, least squares being linear in the data) and its stderr
    their spread over sqrt(R), so the variation between replicas is
    counted.  Replicas whose lookahead cannot certify the stable line are
    dropped; the certificate involves only maps after time 0, so dropping
    them leaves the lengths unbiased.  A replica is certified when its
    resolution is at most DECAY_STABLE_TOL; fewer than two certified
    replicas give no spread for the stderr and raise GapTooSmall.  A grid
    of fewer than two distinct depths has no slope, and a depth below 1
    no interval to push; both raise ValueError before any draw.
    """
    n_grid = np.asarray(sorted(int(n) for n in n_grid))
    if len(set(n_grid.tolist())) < 2:
        raise ValueError(f"need two distinct depths n, got {n_grid.tolist()}")
    if n_grid[0] < 1:
        raise ValueError("need n >= 1")
    trace = stationary_orbit(spec, fiber_index, int(n_grid[-1]), burnin,
                             sampler, replicas=replicas, times=-n_grid)
    y, resolution = stable_coordinates(trace, forward_orbit(
        spec, trace.bases[:, -1], lookahead, sampler, fiber_index))
    keep = np.flatnonzero(resolution <= DECAY_STABLE_TOL)
    if len(keep) < 2:
        raise GapTooSmall(
            f"{len(keep)} of {replicas} replicas certified a stable line at "
            f"lookahead {lookahead}, fewer than the two a stderr needs")
    ks = [trace.index(-n) for n in n_grid]
    kept = trace.select(keep)
    arc = pull_forward(kept, stationary_interval(kept, -n_grid, y[keep][:, ks]),
                       -n_grid)
    rows = np.log(arc.length)
    slopes = np.polyfit(n_grid.astype(float), rows.T, 1)[0]
    return IntervalDecayReport(
        n_grid=n_grid, log_lengths=rows, slope=float(slopes.mean()),
        slope_stderr=float(slopes.std(ddof=1) / np.sqrt(len(slopes))))
