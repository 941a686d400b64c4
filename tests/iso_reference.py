"""Exact exponents of an isotropic d = 3 ensemble, by quadrature.

For A = K S with K Haar on O(3) and S a fixed invertible stretch, the law
of A is invariant under rotations on the left, so the stationary measure
on the flag manifold is the rotation-invariant one.  Furstenberg's formula
then reads the exponents off uniform averages over the sphere:

- chi_1 = int log|S v| dsigma(v), v a uniform unit vector;
- chi_1 + chi_2 = int log|det S on V| over uniform planes V, and for the
  plane with unit normal n that is log|det S| + log|S^(-T) n|;
- chi_1 + chi_2 + chi_3 = log|det S|.

Both integrands are smooth on the sphere, so Gauss-Legendre nodes in
cos(theta) times a uniform grid in phi converge fast.  Nothing here
samples.
"""

import numpy as np


def sphere_mean(f, nodes=64, angles=128):
    """Mean of f over the unit sphere; f maps (N, 3) unit vectors to (N,)."""
    z, w = np.polynomial.legendre.leggauss(nodes)
    phi = (np.arange(angles) + 0.5) * (2 * np.pi / angles)
    r = np.sqrt(1.0 - z * z)
    v = np.stack([np.outer(r, np.cos(phi)), np.outer(r, np.sin(phi)),
                  np.broadcast_to(z[:, None], (nodes, angles))], axis=-1)
    values = f(v.reshape(-1, 3)).reshape(nodes, angles)
    # the weights integrate over cos(theta) in [-1, 1], which has length 2
    return float(w @ values.mean(axis=1)) / 2.0


def iso3_exponents(stretch):
    """(chi_1, chi_2, chi_3) of Haar(O(3)) times the 3x3 ``stretch``."""
    s = np.asarray(stretch, dtype=float)
    log_det = float(np.log(abs(np.linalg.det(s))))
    inv_t = np.linalg.inv(s).T
    chi1 = sphere_mean(lambda v: np.log(np.linalg.norm(v @ s.T, axis=1)))
    chi12 = log_det + sphere_mean(
        lambda n: np.log(np.linalg.norm(n @ inv_t.T, axis=1)))
    return np.array([chi1, chi12 - chi1, log_det - chi12])
