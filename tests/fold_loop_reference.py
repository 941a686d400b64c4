"""The finite-support fold loop through numpy's public, dispatched calls.

``dynamics`` forms its folds with as few numpy calls as it can: einsum
without its ``__array_function__`` dispatch, word codes by Horner's rule
in the atom counts' own unsigned dtype, word tables read through array
methods, and each |r_jj| written straight into the Gram-Schmidt result,
which one log then turns into log|r_jj|.  None of that may move a bit.
This reference forms the same folds the plain way: ``np.einsum`` as
called, codes as an int64 einsum against the powers of K, ``np.moveaxis``
and ``np.take``, and each column's log taken and assigned on its own.
The tests hold the package's loop to it byte for byte.
"""

import numpy as np

from flagdim import dynamics


def batched_orthonormalize(mats):
    """Modified Gram-Schmidt over a stack (..., d, k): Q, log|diag R|."""
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


def word_codes(runs, h, k):
    """(length, codes) of each sub-word of runs (F, w, m): the full
    h-words as (q, F, m), then the shorter rest as (1, F, m), int64."""
    f, w, m = runs.shape
    q, r = divmod(w, h)
    weights = k ** np.arange(h)
    codes = [(h, np.einsum("fqjm,j->qfm", runs[:, :q * h].reshape(
        f, q, h, m), weights))]
    if r:
        codes.append((r, np.einsum("fjm,j->fm", runs[:, q * h:],
                                   weights[:r])[None]))
    return codes


def gather(table, codes):
    """``dynamics._gather``: ``table[codes]``, held replica-last."""
    return np.moveaxis(np.take(np.moveaxis(table, 0, -1), codes, axis=-1),
                       (0, 1), (-2, -1))


def word_products(spec, idx, log_dets=None):
    """``dynamics._word_products`` of the atom indices idx (T, m)."""
    h, width, tables = dynamics._word_tables(spec)
    out = []
    for runs in dynamics._runs(idx, width):
        codes = word_codes(runs, h, len(spec.params["atoms"]))
        words = [p for length, c in codes
                 for p in gather(tables[length - 1], c)]
        prod = words[0]
        for p in words[1:]:
            prod = np.einsum("...ij,...jk->...ik", p, prod)
        out.extend(prod)
        if log_dets is not None:
            dets = dynamics._word_log_dets(spec)
            for fold in sum(np.take(dets[length - 1], c).sum(axis=0)
                            for length, c in codes):
                log_dets = log_dets + fold
    return out, log_dets


def apply(bases, products, logs=0.0):
    """``dynamics._apply``: one QR step of the stack per product."""
    bases = np.asarray(bases, dtype=float)
    for p in products:
        bases, logr = batched_orthonormalize(
            np.einsum("...ij,...jk->...ik", p, bases, order="F"))
        logs = logs + logr
    return bases, logs
