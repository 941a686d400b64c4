"""Orbits of the flag cocycle and everything read off them.

Every stack of flag bases folds W = ``fold_width(spec)`` consecutive
draws of each replica into one product and runs a single QR step,
``batched_orthonormalize``, per product.  The diagonal of R for a product
is the product of the per-step diagonals, so log|diag R| sums are those
of the stepwise orbit up to rounding.  W is derived from the spec so that
every product's condition number stays under FOLD_COND_CAP, which keeps
that rounding near machine precision and the Gram-Schmidt step
orthogonal; no fold is checked or cut while an orbit runs.  Fresh
matrices come from ``draw_blocks``, one ``sample_batch`` call per block
of whole folds and at most DRAW_BLOCK draws, so a narrow stack such as
the spectrum's 64 replicas draws many folds per block and a pool of
thousands one.  Each fold's log|diag R| is added to the stack's running
sum in fold order, so no sum depends on where blocks end, and the block
size trades only speed against memory.  A finite-support spec evolved
without keeping its matrices (the spectrum, the stationary pools, every
burn-in among them, and the d = 2 leading columns) draws atom indices
instead, from the same stream, as counts of integer thresholds that the
bit generator's raw words reach (``ensemble._atom_counts``), and folds
them as words.  A per-spec table, built on first use, holds every
left-associated product of l atoms for l = 1..h, h the largest of
8, 4, 2 and 1 with K^h <= WORD_TABLE, and the largest condition number
c_l over each length.  A fold of W = q h + r steps is the product, left
to right, of q tabled h-words and one r-word, so its condition number is
at most c_h^q c_r by submultiplicativity: bern2 folds 43 steps and
diag3eps 32.  A rotation_invariant draw K S has the singular values of
S, so the bound is cond(S)^W: iso2 folds 30 steps, iso3 24 and rot2 64.
A pinned past is a sequence of the spec's draws and folds at W too.

Stacks that advance this way (pools of thousands of replicas, the
spectrum's 64) keep their shape (n, d, k) but are held replica-last: the
replica axis is innermost in memory.  Word tables are (d, d, K^l)
buffers, so a gather of words comes out replica-last; the words are
folded by ``einsum``, each product times the stack is formed in Fortran
order, and ``batched_orthonormalize`` returns Q in its input's order.
Every elementwise step of the fold, the product and Gram-Schmidt then
runs over contiguous replicas instead of once per 3x3 matrix.

Every stack of replicas draws from one sampler: step t takes one matrix
per replica, in replica order, so a replica's draws depend on the stack
it runs in.  A burn-in is a ``stationary_flag_pool`` on the stack's
stream; an orbit window (``stationary_orbit``) draws on that stream after
it, and a realization's pinned past is the start of its own window.  An
orbit trace keeps, for R replicas over one window of T steps, arrays with
the replica on the leading axis: the flag bases (R, T+1, d, d), the
completion frames of the fiber planes (R, T+1, d, 2), the induced 2x2
fiber maps (R, T, 2, 2) and the fiber coordinates (R, T+1).  A trace
keeps every flag of its window, so it cannot skip the times inside a
fold: it forms each fold's prefix products and orthonormalizes them, all
the fold's times at once, in one QR call per fold of the spec's width.
The stable-line pass and the interval pushes then run over every replica
at once, with each step's inverse, determinant and condition number
formed for many steps in one vectorized pass before their loops;
per-step Flag, PartialFlag and CircleMap objects are built only on
demand, for checking one step.
A d = 2 sample of the stationary measure needs nothing but the
line of each flag: ``stationary_lines`` runs leading columns (R, 2, 1)
from e_1 through ``evolve_flags`` and reads their angles after a burn-in
and again every THINNING steps, off independent replicas rather than one
orbit: on bern2, cos 4 theta has autocorrelation -0.64 at lag 5 along
one orbit, so the points of one thinned orbit sample nu poorly.

Composed circle maps are never formed as long matrix products in the
interval pushes.  Intervals are carried as an anchor plus two signed
offsets and pushed one step at a time through each map's closed-form
offset formula, both ends in one pass, so lengths that decay like
e^(-gap n) stay fully resolved long after the endpoints' absolute
coordinates have collapsed onto one double.
"""

import weakref
from dataclasses import dataclass, replace

import numpy as np

from . import circle
from .ensemble import SeededSampler, _atom_counts, sample_batch
from .errors import (DegenerateBasis, DegenerateFiberPair, GapTooSmall,
                     IntervalWrap)
from .flagcore import (ORTHO_TOL, CircleMap, Flag, PartialFlag,
                       completion_frames, det2, fiber_coordinates,
                       fiber_map_image)

# Cap on the condition number of a product folded before one QR step:
# its rounding and the Gram-Schmidt loss of orthogonality grow like
# eps * cond(P) = 2e-12 at the cap, far below ORTHO_TOL.  Every spec's
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
DECAY_STABLE_TOL = 1e-2   # stable-line resolution a decay replica must reach
_TIME_BLOCK = 128         # times per block when a trace derives its frames
PIECE_BLOCK = 8           # arc offset pieces pushed through a map at once
THINNING = 5              # d = 2 stationary sample: steps between reads


def batched_orthonormalize(mats):
    """QR with positive diagonal across a stack; returns Q and log|diag R|.

    A vectorized modified Gram-Schmidt over the stack (..., d, k): LAPACK's
    per-matrix overhead dominates np.linalg.qr for tiny matrices.  Q is
    allocated like ``mats``, so it comes back in the input's memory order:
    a replica-last stack (see ``_apply``) stays replica-last, and every
    column operation then runs over contiguous replicas.  Stacks advance
    through it once per folded product (see ``_apply``), so a call stands
    for up to the spec's fold width of steps; a trace orthonormalizes the
    prefix products of a whole fold in one call (see ``forward_orbit``).
    """
    mats = np.asarray(mats, dtype=float)
    k = mats.shape[-1]
    q = np.empty_like(mats)
    logs = np.empty(mats.shape[:-2] + (k,))
    for j in range(k):
        col = mats[..., :, j]
        for i in range(j):
            prev = q[..., :, i]
            col = col - np.einsum("...i,...i->...", prev, col)[..., None] * prev
        nrm = np.sqrt(np.einsum("...i,...i->...", col, col))
        np.divide(col, nrm[..., None], out=q[..., :, j])
        logs[..., j] = np.log(nrm)
    return q, logs


def _runs(seq, width):
    """seq (T, ...) as runs (F, width, ...), then one shorter run if left."""
    full = len(seq) // width * width
    for part, w in ((seq[:full], width), (seq[full:], len(seq) - full)):
        if len(part):
            yield part.reshape((-1, w) + part.shape[1:])


# spec -> _word_tables(spec) and spec -> fold_width(spec): pure functions
# of the spec, dropped with it
_WORD_TABLES = weakref.WeakKeyDictionary()
_FOLD_WIDTHS = weakref.WeakKeyDictionary()


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
    """A finite-support spec's word length h, fold width and tables.

    Built on first use.  For each length l = 1..h the table holds the
    product of every word of l atom indices (i_0, ..., i_{l-1}), i_0 acting
    first, at its base-K code i_0 + i_1 K + ... + i_{l-1} K^(l-1), as the
    left-associated a_{i_{l-1}} (... (a_{i_1} a_{i_0})) that ``advance``
    forms.  h is the largest of 8, 4, 2 and 1 with K^h <= WORD_TABLE, so
    no table holds more than WORD_TABLE products except the atoms
    themselves when K exceeds it.  The fold width comes from each length's
    largest 2-norm condition number (see ``_fold_width``).  Each table is
    a (d, d, K^l) buffer read through a (K^l, d, d) view, so that a
    gather along its last axis (``_gather``) comes out replica-last.
    """
    tables = _WORD_TABLES.get(spec)
    if tables is None:
        atoms = spec.params["atoms"]
        k, d = len(atoms), spec.dim
        h = next(w for w in (8, 4, 2, 1) if k ** w <= WORD_TABLE or w == 1)
        prods = [atoms]
        for _ in range(1, h):
            prods.append((atoms[:, None] @ prods[-1][None]).reshape(-1, d, d))
        conds = [1.0] + [float(np.max(np.linalg.cond(p))) for p in prods]
        views = [np.moveaxis(np.ascontiguousarray(np.moveaxis(p, 0, -1)), -1, 0)
                 for p in prods]
        tables = _WORD_TABLES.setdefault(spec, (h, _fold_width(h, conds), views))
    return tables


def fold_width(spec):
    """The steps W that every stack of the spec folds into one product.

    Built on first use.  Finite support takes the word tables' width (see
    ``_word_tables``).  Every rotation_invariant draw K S has the
    singular values of S, and 2-norm condition numbers are
    submultiplicative, so ``_fold_width`` reads c_1 = cond(S) alone.
    """
    width = _FOLD_WIDTHS.get(spec)
    if width is None:
        if spec.kind == "finite_support":
            width = _word_tables(spec)[1]
        else:
            cond = float(np.linalg.cond(spec.params["stretch"]))
            width = _fold_width(1, [1.0, cond])
        width = _FOLD_WIDTHS.setdefault(spec, width)
    return width


def _gather(table, codes):
    """``table[codes]``, shape (*codes.shape, d, d), held replica-last.

    ``np.take`` along the last axis of the table's (d, d, K^l) buffer
    writes each entry's words contiguously, so the codes' axes, the
    replica axis among them, are innermost in memory.
    """
    return np.moveaxis(np.take(np.moveaxis(table, 0, -1), codes, axis=-1),
                       (0, 1), (-2, -1))


def _word_products(spec, idx):
    """Fold products of the atoms idx (T, m) names, read from word tables.

    Each run of the spec's fold width W (the last one shorter when T is not
    a multiple) is cut into sub-words of h (see ``_word_tables``); its
    product is the sub-words' tabled products multiplied left to right.
    The width keeps every product under FOLD_COND_CAP, so none is checked
    or cut.  Returns the (m, d, d) products in order, replica-last.
    """
    h, width, tables = _word_tables(spec)
    weights = len(spec.params["atoms"]) ** np.arange(h)
    out = []
    for runs in _runs(idx, width):
        f, w, m = runs.shape
        q, r = divmod(w, h)
        words = list(_gather(tables[h - 1], np.einsum(
            "fqjm,j->qfm", runs[:, :q * h].reshape(f, q, h, m), weights)))
        if r:
            words.append(_gather(tables[r - 1], np.einsum(
                "fjm,j->fm", runs[:, q * h:], weights[:r])))
        prod = words[0]
        for p in words[1:]:
            prod = np.einsum("...ij,...jk->...ik", p, prod)
        out.extend(prod)
    return out


def _apply(bases, products, logs):
    """One QR step of the stack (n, d, k) per product, in order.

    Each product multiplies the stack into a replica-last stack (Fortran
    order: the replica axis innermost in memory), which
    ``batched_orthonormalize`` keeps, so both run over contiguous replicas
    whatever order the products come in.  Each product's log|diag R| is
    added to the running sum ``logs`` (n, k) in turn, so a sum over many
    calls is the same whatever products each call gets.  Returns the bases
    reached and the new running sum; ``logs`` itself is not written.
    """
    bases = np.asarray(bases, dtype=float)
    for p in products:
        bases, logr = batched_orthonormalize(
            np.einsum("...ij,...jk->...ik", p, bases, order="F"))
        logs = logs + logr
    return bases, logs


def advance(spec, bases, mats, logs=None):
    """Advance a stack of flag bases through given draws of the spec.

    ``mats`` is (T, m, d, d): step t applies mats[t, r] to replica r, or
    mats[t, 0] to every replica when m = 1.  A stack of leading columns,
    shape (n, d, k) with k < d, advances the first k subspaces of each
    flag: Gram-Schmidt never reads a later column.  Runs of
    ``fold_width(spec)`` matrices (the last one shorter when T is not a
    multiple) are multiplied out, left-associated, and each product takes
    one QR step.  Returns the bases reached, held replica-last (see
    ``_apply``), and each replica's log|diag R| summed over the steps
    (n, k), equal to the stepwise sums up to rounding.  The sum runs on
    from ``logs`` when given (zeros when not) and adds one fold at a
    time, so advancing a stream of draws in pieces of whole folds gives
    the sums of one call, bit for bit.
    """
    if logs is None:
        logs = np.zeros(np.shape(bases)[:-2] + np.shape(bases)[-1:])
    products = []
    for runs in _runs(np.asarray(mats, dtype=float), fold_width(spec)):
        prod = runs[:, 0]
        for j in range(1, runs.shape[1]):
            prod = runs[:, j] @ prod
        products.extend(prod)
    return _apply(bases, products, logs)


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


def draw_blocks(spec, sampler, n, steps):
    """The next ``steps`` draws of an n-stack, as blocks (T, n, d, d).

    Each block is one ``sample_batch(spec, sampler, T n)`` call, which
    reproduces T calls of ``sample_batch(spec, sampler, n)`` byte for byte:
    both kinds consume their stream in draw order.  Blocks hold whole folds
    of ``fold_width(spec)`` steps (see ``_block_steps``).
    """
    d = spec.dim
    for t in _block_steps(n, steps, fold_width(spec)):
        yield sample_batch(spec, sampler, t * n).reshape(t, n, d, d)


def evolve_flags(spec, bases, n_steps, sampler):
    """Advance a stack of flag bases n_steps with fresh draws.

    Step t draws one matrix per replica, as ``sample_batch(spec, sampler,
    n)`` would, in the blocks of ``draw_blocks``, each folded W =
    ``fold_width(spec)`` steps at a time: about n_steps / W QR steps.  Only
    the draw differs between the kinds.  Finite support draws a block's
    atom indices on the same stream, as narrow counts
    (``ensemble._atom_counts``), and folds them as words
    (``_word_products``); rotation_invariant draws the matrices and folds
    them by ``advance``, whose return value this has.  Each fold's
    log|diag R| goes into one running sum in fold order, so the bases and
    sums do not depend on DRAW_BLOCK.
    """
    bases = np.asarray(bases, dtype=float)
    n, d = len(bases), spec.dim
    logs = np.zeros(bases.shape[:-2] + bases.shape[-1:])
    # a block's draws live only through its own folds, so none is held
    # while the next block is drawn
    for t in _block_steps(n, n_steps, fold_width(spec)):
        if spec.kind == "finite_support":
            bases, logs = _apply(bases, _word_products(
                spec, _atom_counts(spec, sampler, t * n).reshape(t, n)), logs)
        else:
            bases, logs = advance(spec, bases, sample_batch(
                spec, sampler, t * n).reshape(t, n, d, d), logs)
    return bases, logs


def push_flags(pinned, bases, spec):
    """Apply a fixed sequence of the spec's draws to every base in the stack.

    The sequence folds ``fold_width(spec)`` steps at a time, as any draws
    of the spec do, so a push costs one QR step of the stack per fold
    rather than one per matrix.
    """
    return advance(spec, bases, np.asarray(pinned, dtype=float)[:, None])[0]


def stationary_flag_pool(spec, count, burnin, sampler):
    """Approximate i.i.d. draws from the stationary flag distribution.

    Runs ``count`` independent replicas from the standard flag for
    ``burnin`` steps; with a positive gap they forget the start exponentially.
    """
    start = np.broadcast_to(np.eye(spec.dim), (count, spec.dim, spec.dim))
    return evolve_flags(spec, start, burnin, sampler)[0]


def stationary_lines(spec, replicas, burnin, count, sampler):
    """``count`` angles of d = 2 lines, approximate draws from nu.

    ``replicas`` leading columns (R, 2, 1) start at e_1 and run ``burnin``
    steps through ``evolve_flags``; their fiber coordinates are read then,
    and again every THINNING steps, until ``count`` angles are held (the
    last read cut short).  Reads of one replica are correlated, reads of
    different replicas independent.  Only the angles are kept.
    """
    start = np.zeros((replicas, 2, 1))
    start[:, 0, 0] = 1.0
    # the fiber plane of d = 2 is the whole plane, framed by e_1, e_2
    lines, _ = evolve_flags(spec, start, burnin, sampler)
    reads = [fiber_coordinates(lines, np.eye(2), 1)]
    for _ in range(1, -(-count // replicas)):
        lines, _ = evolve_flags(spec, lines, THINNING, sampler)
        reads.append(fiber_coordinates(lines, np.eye(2), 1))
    return np.concatenate(reads)[:count]


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


def lyapunov_spectrum(spec, n_steps, burnin=1000, replicas=64, sampler=None):
    """Per-step log determinant increments averaged over time and replicas.

    chi_i is the mean i-th diagonal log increment of the QR cocycle after
    burn-in; the standard error comes from the spread of replica means,
    which are independent by construction.  A gap's standard error comes
    from the spread of the replicas' own gaps: neighbouring exponents of
    one replica are correlated (for bern2, chi_1 + chi_2 = E log|det A| in
    every replica), so their errors do not add in quadrature.
    """
    if sampler is None:
        sampler = SeededSampler(0)
    # burn-in and measurement are two advances on one stream, so no fold
    # straddles the burn-in
    stream = sampler.child(0xCC)
    bases = stationary_flag_pool(spec, replicas, burnin, stream)
    _, sums = evolve_flags(spec, bases, n_steps, stream)
    means = sums / n_steps
    chi = means.mean(axis=0)
    stderr = means.std(axis=0, ddof=1) / np.sqrt(replicas)
    gaps = means[:, :-1] - means[:, 1:]
    gap_stderrs = gaps.std(axis=0, ddof=1) / np.sqrt(replicas)
    return SpectrumEstimate(chi=chi, stderr=stderr, n_steps=n_steps,
                            burnin=burnin, replicas=replicas,
                            gap_stderrs=gap_stderrs)


def _max_deviation(frames):
    """Largest entry of |F^T F - I| over a stack of orthonormal frames."""
    gram = np.einsum("...ki,...kj->...ij", frames, frames)
    gram -= np.eye(frames.shape[-1])
    return np.max(np.abs(gram, out=gram), initial=0.0)


def _cond2(b):
    """Condition numbers of a stack of 2x2 matrices, in closed form.

    With f = |B|_F^2 and D = |det B| the squared singular values are
    (f +- sqrt(f^2 - 4 D^2)) / 2, so cond = (f + sqrt(f^2 - 4 D^2)) / 2D.
    """
    f = np.sum(b * b, axis=(-2, -1))
    det = np.abs(det2(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(np.maximum((f - 2 * det) * (f + 2 * det), 0.0))
        return (f + disc) / (2 * det)


def circle_map_between(a_entries, src, dst):
    """CircleMap of a matrix between two already-built partial flags."""
    su, sw = src.frame
    tu, tw = dst.frame
    au, aw = a_entries @ su, a_entries @ sw
    return CircleMap(source=src, target=dst,
                     matrix=np.array([[tu @ au, tu @ aw], [tw @ au, tw @ aw]]))


@dataclass(frozen=True, eq=False)
class OrbitTrace:
    """Realizations of R replicas over one window of consecutive times.

    Replica r's flag at time times[k] has basis bases[r, k];
    matrices[r, k] maps it to bases[r, k+1]; frames[r, k] holds the
    completion frame (u, w) of its fiber plane as columns; maps[r, k] is
    the induced fiber map between consecutive frames; x[r, k] is the fiber
    coordinate of the flag's own i-dimensional subspace.
    """

    fiber_index: int
    times: np.ndarray      # (T+1,)
    matrices: np.ndarray   # (R, T, d, d)
    bases: np.ndarray      # (R, T+1, d, d)
    frames: np.ndarray     # (R, T+1, d, 2)
    maps: np.ndarray       # (R, T, 2, 2)
    x: np.ndarray          # (R, T+1)

    def index(self, t):
        k = int(t) - int(self.times[0])
        if not 0 <= k < len(self.times):
            raise IndexError(f"time {t} outside window [{self.times[0]}, {self.times[-1]}]")
        return k

    def select(self, rows):
        """The trace of the replicas ``rows`` alone (itself when all, in order)."""
        if np.array_equal(rows, np.arange(len(self.x))):
            return self
        return replace(self, matrices=self.matrices[rows],
                       bases=self.bases[rows], frames=self.frames[rows],
                       maps=self.maps[rows], x=self.x[rows])

    # per-step objects, built on demand to check single steps
    def flag(self, k, r=0):
        return Flag(self.bases[r, k])

    def partial(self, k, r=0):
        i = self.fiber_index
        b = self.bases[r, k]
        return PartialFlag(missing=i, basis=np.column_stack(
            [b[:, : i - 1], self.frames[r, k], b[:, i + 1:]]))

    def circle_map(self, k, r=0):
        return CircleMap(source=self.partial(k, r),
                         target=self.partial(k + 1, r), matrix=self.maps[r, k])


def _fold_trace(start, mats, width):
    """Bases (R, T+1, d, d) of start (R, d, d) under mats (R, T, d, d).

    The window is cut into folds of ``width`` steps.  A fold's prefix
    products (its first w matrices, w = 1..width) are formed first; the
    flags at the fold's times are then one ``batched_orthonormalize`` call
    on those products times the flag the fold starts from, the stepwise
    flags up to rounding, since ``fold_width`` keeps every product under
    FOLD_COND_CAP.
    """
    # prefix[:, t] = mats[:, t] ... mats[:, lo], lo the start of t's fold
    prefix = mats.copy()
    for w in range(1, width):
        later = mats[:, w::width]
        prefix[:, w::width] = later @ prefix[:, w - 1::width][:, :later.shape[1]]
    count, n_steps = mats.shape[:2]
    bases = np.empty((count, n_steps + 1) + start.shape[1:])
    bases[:, 0] = start
    for lo in range(0, n_steps, width):
        hi = min(lo + width, n_steps)
        bases[:, lo + 1: hi + 1] = batched_orthonormalize(
            prefix[:, lo:hi] @ bases[:, lo, None])[0]
    return bases


def forward_orbit(spec, f0, n_steps, sampler, fiber_index=1, t0=0):
    """Run the cocycle from given flags, keeping the full trace.

    ``f0`` is one Flag or a stack of R bases; the window's n_steps
    matrices per replica are the next draws on ``sampler``, in the blocks
    of ``draw_blocks``.  The flags are formed one fold of W =
    ``fold_width(spec)`` steps at a time (``_fold_trace``), as every other
    stack of the spec folds.  Every basis and frame must be orthonormal,
    as Flag and PartialFlag require, and every fiber map invertible.
    """
    i = fiber_index
    d = spec.dim
    if not 1 <= i <= d - 1:
        raise ValueError(f"fiber index {i} outside 1..{d - 1}")
    start = np.reshape(f0.basis if isinstance(f0, Flag) else f0, (-1, d, d))
    # time-major blocks, read replica-major: each step's stack stays contiguous
    mats = np.concatenate([np.empty((0, len(start), d, d)), *draw_blocks(
        spec, sampler, len(start), n_steps)]).swapaxes(0, 1)
    bases = _fold_trace(start, mats, fold_width(spec))
    # frames and coordinates a block of times at a time, so temporaries
    # stay small next to the trace itself
    frames = np.empty((len(start), n_steps + 1, d, 2))
    x = np.empty((len(start), n_steps + 1))
    err = 0.0
    for lo in range(0, n_steps + 1, _TIME_BLOCK):
        block = bases[:, lo: lo + _TIME_BLOCK]
        frames[:, lo: lo + _TIME_BLOCK] = completion_frames(block[..., i - 1: i + 1])
        x[:, lo: lo + _TIME_BLOCK] = fiber_coordinates(
            block, frames[:, lo: lo + _TIME_BLOCK], i)
        err = max(err, _max_deviation(block),
                  _max_deviation(frames[:, lo: lo + _TIME_BLOCK]))
    if not err < ORTHO_TOL:
        raise DegenerateBasis(f"basis is not orthonormal (deviation {err:.3e})")
    maps = frames[:, 1:].swapaxes(-1, -2) @ (mats @ frames[:, :-1])
    det = det2(maps)
    if not np.all(np.isfinite(det) & (det != 0.0)):
        raise DegenerateBasis("induced fiber map is singular")
    return OrbitTrace(fiber_index=i, times=np.arange(t0, t0 + n_steps + 1),
                      matrices=mats, bases=bases, frames=frames, maps=maps,
                      x=x)


def stationary_orbit(spec, fiber_index, n_steps, burnin, sampler, t_end=0,
                     replicas=1):
    """Traces of ``replicas`` replicas whose window ends at ``t_end``.

    The replicas burn in from the standard flag as a
    ``stationary_flag_pool`` on ``sampler``, which approximates drawing
    the first window flag from the stationary distribution; the window,
    covering times [t_end - n_steps, t_end], draws on the same stream.
    """
    start = stationary_flag_pool(spec, replicas, burnin, sampler)
    return forward_orbit(spec, start, n_steps, sampler,
                         fiber_index=fiber_index, t0=t_end - n_steps)


def stable_coordinates(trace, lookahead):
    """Stable-line coordinates on the window's prefix, with certificates.

    Two transverse directions pulled back from the window's end both
    converge to the stable line (backward iteration contracts toward it at
    the rate the forward cocycle expands away from it); their distance at
    the anchor index is the realized resolution there, and every earlier
    time only contracts further.  The anchor sits ``lookahead`` steps
    before the window's end, so the certifying event is a function of the
    maps after the anchor alone; callers that drop uncertified replicas
    do not bias statistics collected before it.  The steps' inverses
    (adjugate over determinant) are formed in one vectorized pass per
    block of _TIME_BLOCK steps; the backward loop then steps every replica
    back at once, one 2x2 product and one renormalization per step.

    Returns (times, y, resolution): y[r] holds replica r's coordinates at
    times[: anchor + 1] and resolution[r] its resolution at the anchor,
    which callers hold against their tolerance (an isometric action has
    no stable line and never resolves).
    """
    maps = trace.maps
    count, n_maps = maps.shape[:2]
    anchor_k = n_maps - lookahead
    if anchor_k < 0:
        raise ValueError("window shorter than the requested lookahead")
    pair = np.broadcast_to(np.eye(2), (count, 2, 2))
    kept = np.empty((count, anchor_k + 1, 2, 2))
    if anchor_k == n_maps:
        kept[:, anchor_k] = pair
    # the inverses a block of steps at a time, time-major so that each
    # step's stack is contiguous, and small next to the trace
    for top in range(n_maps, 0, -_TIME_BLOCK):
        bottom = max(top - _TIME_BLOCK, 0)
        steps = maps[:, bottom:top].swapaxes(0, 1)
        inverse = np.empty(steps.shape)
        inverse[..., 0, 0] = steps[..., 1, 1]
        inverse[..., 0, 1] = -steps[..., 0, 1]
        inverse[..., 1, 0] = -steps[..., 1, 0]
        inverse[..., 1, 1] = steps[..., 0, 0]
        inverse /= det2(steps)[..., None, None]
        for k in range(top - 1, bottom - 1, -1):
            pair = inverse[k - bottom] @ pair
            pair = pair / np.sqrt(np.sum(pair * pair, axis=-2, keepdims=True))
            if k <= anchor_k:
                kept[:, k] = pair
    angles = circle.wrap(np.arctan2(kept[..., 1, :], kept[..., 0, :]))
    resolution = circle.distance(angles[:, anchor_k, 0], angles[:, anchor_k, 1])
    return trace.times[: anchor_k + 1], angles[..., 0], resolution


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

    @property
    def endpoints(self):
        return (circle.wrap(self.anchor + self.lo),
                circle.wrap(self.anchor + self.hi))

    def contains(self, theta):
        d = np.mod(np.asarray(theta, dtype=float) - (self.anchor + self.lo),
                   circle.HALF_TURN)
        # a point one rounding step below lo wraps to just under a half
        # turn; fold it back so the slack covers both endpoints
        d = np.where(d > circle.HALF_TURN - 1e-12, d - circle.HALF_TURN, d)
        return d <= self.length + 1e-12


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


def _map_offsets(b, anchor, delta, det, cond):
    """``CircleMap.map_offset`` over broadcast stacks of maps and offsets.

    ``det`` and ``cond`` are the maps' determinants and condition numbers
    (``det2`` and ``_cond2`` of ``b``).  The closed form is exact while the
    image offset stays under pi/2, which holds when cond(B) |delta| < 1;
    larger offsets are cut into ceil(cond(B) |delta|) + 1 pieces, as
    map_offset cuts them.  An offset that needs fewer pieces than the
    largest adds exact zeros for the rest, so each offset's image does not
    depend on what it is stacked with.
    """
    span = np.abs(delta) * cond
    pieces = np.where(span < 1.0, 1.0, np.ceil(span) + 1.0)
    sub = delta / pieces
    c, s = np.cos(sub), np.sin(sub)
    sdet = s * det
    shape = np.broadcast(anchor, sub).shape
    total = np.zeros(shape)
    theta = np.broadcast_to(anchor, shape)
    b00, b01, b10, b11 = (b[..., j, k] for j in (0, 1) for k in (0, 1))
    count = int(np.max(pieces, initial=1.0))
    # up to PIECE_BLOCK pieces at once: their start angles by a running
    # sum, the same additions one piece at a time would make
    for first in range(0, count, PIECE_BLOCK):
        m = np.arange(first, min(first + PIECE_BLOCK, count))
        thetas = np.empty((len(m),) + shape)
        thetas[0] = theta
        thetas[1:] = sub
        np.cumsum(thetas, axis=0, out=thetas)
        # B u and B u_perp for u = (cos theta, sin theta), u_perp = (-sin, cos)
        cos, sin = np.cos(thetas), np.sin(thetas)
        p, q = b00 * cos + b01 * sin, b10 * cos + b11 * sin
        pp, qp = b01 * cos - b00 * sin, b11 * cos - b10 * sin
        terms = np.arctan2(sdet, c * (p * p + q * q) + s * (p * pp + q * qp))
        terms = np.where(m.reshape((-1,) + (1,) * len(shape)) < pieces, terms, 0.0)
        for term in terms:
            total = total + term
        theta = thetas[-1] + sub
    return total


def _push(b, anchor, lo, hi, det, cond):
    """Image of the arcs (anchor, lo, hi) under b; both ends in one pass."""
    d1, d2 = _map_offsets(b, anchor, np.stack([lo, hi]), det, cond)
    return Arc(anchor=fiber_map_image(b, anchor), lo=np.minimum(d1, d2),
               hi=np.maximum(d1, d2))


def push_arc(cmap, arc):
    """Image of an arc under one circle map, anchored offsets throughout."""
    b = cmap.matrix
    return _push(b, arc.anchor, arc.lo, arc.hi, det2(b), _cond2(b))


def pull_forward(trace, arc, t):
    """Images at time 0 of arcs given at times t <= 0, replica by replica.

    ``arc`` holds one arc per replica for one time ``t``, or per replica
    and time for a sequence of times.  Each arc is pushed through its own
    replica's maps T_t, ..., T_{-1}; all arcs advance together, each from
    the step its time comes up, both ends in one ``_map_offsets`` pass per
    step.  The window's determinants and condition numbers are computed
    once, before the steps.  The anchor rides at x, so every image
    contains x_0 by construction, and the Arc invariant is asserted at
    every step.
    """
    starts = np.array([trace.index(s) for s in np.ravel(t)])
    shape = np.shape(arc.anchor)
    anchor, lo, hi = (np.array(np.broadcast_to(v, shape), dtype=float)
                      .reshape(len(trace.maps), len(starts))
                      for v in (arc.anchor, arc.lo, arc.hi))
    det, cond = det2(trace.maps), _cond2(trace.maps)
    for step in range(int(starts.min()), trace.index(0)):
        live = starts <= step
        pushed = _push(trace.maps[:, step, None], anchor[:, live],
                       lo[:, live], hi[:, live], det[:, step, None],
                       cond[:, step, None])
        anchor[:, live], lo[:, live], hi[:, live] = pushed.anchor, pushed.lo, pushed.hi
    return Arc(anchor=anchor.reshape(shape), lo=lo.reshape(shape),
               hi=hi.reshape(shape))


def interval_pullforward(trace, n, y):
    """Images at time 0 of the stationary intervals at times -n.

    ``n`` is one depth or a grid of them and ``y`` the stable-line
    coordinates at -n; the stationary interval at -n is pushed by
    T_{-n}, ..., T_{-1} (see pull_forward).
    """
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("need n >= 1")
    return pull_forward(trace, stationary_interval(trace, -n, y), -n)


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

    Each replica runs one stationary window covering [-max n, lookahead]
    and contributes every grid point; the slope should match the negative
    exponent gap.  The slope is the mean of the replicas' own least-squares
    slopes (equal to the slope fitted to the mean curve, least squares
    being linear in the data) and its stderr their spread over sqrt(R),
    so the variation between replicas is counted.  Replicas whose future
    window cannot certify the stable line are dropped; the certificate
    involves only maps after time 0, so dropping them leaves the lengths
    unbiased.  A replica is certified when its resolution is at most
    DECAY_STABLE_TOL.  A grid of fewer than two distinct depths has no
    slope and raises ValueError.
    """
    n_grid = np.asarray(sorted(int(n) for n in n_grid))
    if len(set(n_grid.tolist())) < 2:
        raise ValueError(f"need two distinct depths n, got {n_grid.tolist()}")
    n_max = int(n_grid[-1])
    trace = stationary_orbit(spec, fiber_index, n_max + lookahead, burnin,
                             sampler, t_end=lookahead, replicas=replicas)
    _, y, resolution = stable_coordinates(trace, lookahead=lookahead)
    keep = np.flatnonzero(resolution <= DECAY_STABLE_TOL)
    if not len(keep):
        raise GapTooSmall(
            f"no replica of {replicas} certified a stable line at "
            f"lookahead {lookahead}")
    ks = [trace.index(-n) for n in n_grid]
    arc = interval_pullforward(trace.select(keep), n_grid, y=y[keep][:, ks])
    rows = np.log(arc.length)
    slopes = np.polyfit(n_grid.astype(float), rows.T, 1)[0]
    stderr = (float(slopes.std(ddof=1) / np.sqrt(len(slopes)))
              if len(slopes) > 1 else float("inf"))
    return IntervalDecayReport(n_grid=n_grid, log_lengths=rows,
                               slope=float(slopes.mean()), slope_stderr=stderr)
