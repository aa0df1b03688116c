"""Closed-form spectra of Hill operators -dxx + alpha^2 - Q sech^2(lambda x).

Rescaling y = lambda x reduces the operator to -dyy - Z sech^2(y) with
Z = Q / lambda^2, whose bound states sit at the classic reflectionless-well
levels

    k_m = -[ sqrt(Z + 1/4) - m - 1/2 ]^2,   m = 0, 1, ...,

for every m with sqrt(Z + 1/4) - m - 1/2 > 0 (the boundary case is a
threshold resonance, not an eigenvalue, and is excluded).  The discrete
eigenvalues of the original operator are alpha^2 + lambda^2 k_m and the
operator is nonnegative if and only if alpha^2 + alpha lambda >= Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "HillSpec",
    "HillSpectrum",
    "poeschl_teller_levels",
    "hill_spectrum_closed_form",
    "hill_nonnegativity_test",
    "case1_diagonal_reduction",
]


@dataclass(frozen=True)
class HillSpec:
    """Triple (alpha, lambda, Q) describing -dxx + alpha^2 - Q sech^2(lambda x)."""

    alpha: float
    lam: float
    Q: float

    def __post_init__(self):
        if not self.lam > 0:
            raise DomainError(f"potential width lam must be positive, got {self.lam}")
        if self.alpha < 0:
            raise DomainError(f"mass term alpha must be >= 0, got {self.alpha}")


@dataclass(frozen=True, eq=False)
class HillSpectrum:
    discrete_eigenvalues: np.ndarray  # sorted increasing, all < essential_edge
    negative_count: int
    essential_edge: float


def poeschl_teller_levels(Z: float) -> np.ndarray:
    """Bound-state levels k_m of -dyy - Z sech^2(y), increasing in m.

    Empty for Z <= 0 (no well, no bound states).  A level needs
    sqrt(Z + 1/4) - m - 1/2 strictly positive; the boundary case is a
    threshold resonance, not an eigenvalue, so values positive only at
    round-off scale are excluded as well.
    """
    if Z <= 0:
        return np.array([])
    s = math.sqrt(Z + 0.25)
    depth = Z / (s + 0.5)  # s - 1/2 without the cancellation at small Z
    resonance_tol = 1e-12 * max(1.0, s)
    levels = []
    m = 0
    while depth - m > resonance_tol:
        levels.append(-((depth - m) ** 2))
        m += 1
    return np.array(levels)


def hill_spectrum_closed_form(spec: HillSpec) -> HillSpectrum:
    """Discrete spectrum alpha^2 + lambda^2 k_m(Q / lambda^2).

    A level that is exactly zero in exact arithmetic can round to either
    side of zero here; the count treats |eigenvalue| at round-off scale as
    not negative (consistent with the equality case of the nonnegativity
    criterion).  Round-off scale is relative to the two terms that cancel,
    alpha^2 and lambda^2 |k_m|, so a shallow well without a mass term keeps
    its tiny but exactly negative ground state.
    """
    bound = spec.lam**2 * poeschl_teller_levels(spec.Q / spec.lam**2)
    eigenvalues = spec.alpha**2 + bound
    zero_scale = 1e-12 * np.maximum(spec.alpha**2, np.abs(bound))
    return HillSpectrum(
        discrete_eigenvalues=eigenvalues,
        negative_count=int(np.sum(eigenvalues < -zero_scale)),
        essential_edge=spec.alpha**2,
    )


def hill_nonnegativity_test(spec: HillSpec) -> bool:
    """True iff the operator is nonnegative: alpha^2 + alpha lambda >= Q.

    Equality means the ground state sits exactly at zero, which still counts
    as nonnegative.
    """
    return spec.alpha**2 + spec.alpha * spec.lam >= spec.Q


def case1_diagonal_reduction(eta0: float, b: float):
    """Diagonal Hill pair congruent to the symmetrized system operator
    for a = c = -b, and the resulting negative-eigenvalue count.

    Returns (hill1, hill2, n_tilde_L) with

        hill1: alpha^2 = 1/b, lambda = 1/(2 sqrt(b)), Q = 3/b
        hill2: alpha^2 = 1/b, lambda = 1/(2 sqrt(b)), Q = 3 eta0 / (b (9 + 4 eta0))

    and n_tilde_L the sum of their negative counts.  hill1 always carries
    exactly one negative eigenvalue with the next level exactly at zero;
    hill2 has Q < 0 (hence no negative spectrum) throughout eta0 in
    (-9/4, 0).  Raises PoleError at eta0 = -9/4 where hill2's strength has
    a pole.
    """
    if not b > 0:
        raise DomainError(f"b must be positive, got {b}")
    if not (-3.0 < eta0 < 0.0):
        raise DomainError(f"eta0 must lie in (-3, 0), got {eta0}")
    denom = 9.0 + 4.0 * eta0
    if abs(denom) < 1e-9:
        raise PoleError(f"hill2 strength has a pole at eta0 = -9/4 (eta0 = {eta0})")
    alpha = 1.0 / math.sqrt(b)
    lam = 1.0 / (2.0 * math.sqrt(b))
    hill1 = HillSpec(alpha=alpha, lam=lam, Q=3.0 / b)
    hill2 = HillSpec(alpha=alpha, lam=lam, Q=3.0 * eta0 / (b * denom))
    n = (
        hill_spectrum_closed_form(hill1).negative_count
        + hill_spectrum_closed_form(hill2).negative_count
    )
    return hill1, hill2, n
