"""Change of variables from the species pair (rho, mu) to the sum/log-ratio
pair (S, r), and the shifted log-ratio gradient whose L1 norm obeys a
Gronwall bound.

S = rho + mu,  r = log(rho/mu),  rho = S*sigmoid(r),  mu = S*sigmoid(-r),
rho - mu = S*h(r) with h(r) = (e^r - 1)/(e^r + 1) = tanh(r/2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field, grad_interface, interface_mean
from .model import Nonlinearity, PotentialPair


@dataclass(frozen=True)
class SumRatioState:
    S: Field
    r: Field

    def __post_init__(self):
        if self.S.grid != self.r.grid:
            raise ValueError("S and r live on different grids")
        if np.any(self.S.values <= 0.0):
            raise ValueError("total density must be strictly positive")


def to_sum_ratio(rho: Field, mu: Field) -> SumRatioState:
    if rho.grid != mu.grid:
        raise ValueError("rho and mu live on different grids")
    bad = np.flatnonzero((rho.values <= 0.0) | (mu.values <= 0.0))
    if bad.size:
        raise ValueError(f"nonpositive density at cell {bad[0]}")
    S = rho.values + mu.values
    r = np.log(rho.values) - np.log(mu.values)
    return SumRatioState(Field(rho.grid, S), Field(rho.grid, r))


def shifted_gradient(sr: SumRatioState, pot: PotentialPair,
                     nl: Nonlinearity) -> Field:
    """Interface field  grad(r) - 2 w y(S)  with S averaged onto interfaces.

    The shift pairs the two-point gradient of r with the two-point potential
    difference w_fd_int, so for alpha = 1 (where y = -1) the result equals
    grad_interface(r + V - W) exactly.
    """
    g_r = grad_interface(sr.r).values
    u = g_r - 2.0 * pot.w_fd_int * nl.shift_profile(interface_mean(sr.S.values))
    return Field(sr.S.grid, u)
