"""Change of variables from the species pair (rho, mu) to the sum/log-ratio
pair (S, r), and the shifted log-ratio gradient whose L1 norm obeys a
Gronwall bound.

S = rho + mu,  r = log(rho/mu),  rho = S*sigmoid(r),  mu = S*sigmoid(-r),
rho - mu = S*h(r) with h(r) = (e^r - 1)/(e^r + 1) = tanh(r/2).
"""

from __future__ import annotations

import numpy as np

from .grid import grad, interface_mean
from .model import Nonlinearity, PotentialPair


def to_sum_ratio(rho: np.ndarray, mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cell arrays (S, r) of a positive, finite species pair, cells on the
    last axis.  A ValueError names the first nonpositive cell, else the
    first non-finite one."""
    bad = np.argwhere((rho <= 0.0) | (mu <= 0.0))
    if bad.size:
        raise ValueError(f"nonpositive density at cell {bad[0, -1]}")
    S, r = rho + mu, np.log(rho) - np.log(mu)
    # |r| < 1500 for finite positive densities: the sum is NaN or inf only if r is
    if not np.isfinite(r.sum()):
        bad = np.argwhere(~np.isfinite(r))
        raise ValueError(f"non-finite density at cell {bad[0, -1]}")
    return S, r


def shifted_gradient(S: np.ndarray, r: np.ndarray, pot: PotentialPair,
                     nl: Nonlinearity) -> np.ndarray:
    """Interface array  grad(r) - 2 w y(S)  with S averaged onto interfaces.

    The shift pairs the two-point gradient of r with the two-point potential
    difference w_fd_int, so for alpha = 1 (where y = -1) the result equals
    grad(r + V - W) exactly.
    """
    g_r = grad(r, pot.grid.dx)
    return g_r - 2.0 * pot.w_fd_int * nl.shift_profile(interface_mean(S))
