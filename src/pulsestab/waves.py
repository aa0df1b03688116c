"""Explicit sech^2 traveling and standing pulses of the abc water-wave system.

The two-parameter family

    phi(x) = eta0 sech^2(lambda x),   psi = B phi,

solves the traveling-wave system

    (1 + c dxx) phi - w (1 - b dxx) psi + psi^2 / 2 = 0,
    -w (1 - b dxx) phi + (1 + a dxx) psi + phi psi  = 0,

with

    w = +/- (3 + 2 eta0) / sqrt(3 (3 + eta0)),
    B = +/- sqrt(3 / (3 + eta0)),
    lambda = (1/2) sqrt(2 eta0 / (3 (a - b) + 2 b (eta0 + 3))),

in exactly two parameter regimes: either a + b != 0 with the amplitude
pinned to eta0 = 3 (1 - 2p) / (2p), p = (c + b) / (a + b) (for a = c this
gives the standing wave eta0 = -3/2, w = 0), or a = c = -b where eta0 is
free in (-3, 0) u (0, inf).  The two signs are applied jointly to B and w;
mixed sign pairs do not solve the system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discretization import Grid, derivative_of_samples
from .errors import DomainError, GridTooSmall

__all__ = [
    "AbcParameters",
    "WaveSpec",
    "SampledWave",
    "resolve_wave_parameters",
    "standing_pulse",
    "sample_wave",
    "traveling_residual",
]

# lambda * half_length needed so that sech^2 periodization error sits below
# double-precision round-off (sech^2(40) ~ 7e-35)
DECAY_MARGIN = 40.0
_MARGIN_ROUNDOFF = 1e-12

_EQ_TOL = 1e-12


@dataclass(frozen=True)
class AbcParameters:
    """Model constants a < 0, b > 0, c < 0 (with d = b) and derived bounds."""

    a: float
    b: float
    c: float
    ratio_z: float = field(init=False)
    subsonic_bound: float = field(init=False)

    def __post_init__(self):
        if not (self.a < 0 and self.b > 0 and self.c < 0):
            raise DomainError(
                f"need a < 0, b > 0, c < 0; got a={self.a}, b={self.b}, c={self.c}"
            )
        object.__setattr__(self, "ratio_z", self.b / (-self.a))
        object.__setattr__(
            self, "subsonic_bound", min(1.0, math.sqrt(self.a * self.c) / self.b)
        )

    @property
    def equal_dispersion(self) -> bool:
        """True when a = c, where L can split into scalar parts; every
        command also runs on a != c waves, with L's two-component blocks."""
        return abs(self.a - self.c) <= _EQ_TOL * max(1.0, abs(self.a))

    @property
    def kdv_scaling(self) -> bool:
        """True when a = c = -b (free-amplitude branch)."""
        return self.equal_dispersion and abs(self.a + self.b) <= _EQ_TOL * max(
            1.0, abs(self.a), self.b
        )

    def standing_branch(self, spec: WaveSpec) -> bool:
        """True for the standing wave: a = c, eta0 = -3/2, w = 0.

        It selects the standing index route (index_count.standing_quadratic)
        alone; the split of L into scalar parts covers every subsonic a = c
        wave and is decided in discretization.scalar_split.
        """
        return self.equal_dispersion and abs(spec.eta0 + 1.5) < 1e-12 and abs(spec.w) < 1e-12


@dataclass(frozen=True)
class WaveSpec:
    """Branch data of one pulse: amplitude, width, component ratio, speed."""

    eta0: float
    lam: float
    B: float
    w: float
    sign_branch: int


@dataclass(frozen=True, eq=False)
class SampledWave:
    """Grid samples of phi and the ratio B, so that psi = B phi by construction."""

    grid: Grid
    phi: np.ndarray
    B: float

    @property
    def psi(self) -> np.ndarray:
        return self.B * self.phi


def resolve_wave_parameters(
    params: AbcParameters,
    eta0: float,
    sign_branch: int = +1,
) -> WaveSpec:
    """Resolve (w, lambda, B) for the requested amplitude and sign branch.

    Raises DomainError for eta0 <= -3 or eta0 = 0, for a negative width
    radicand, and in the pinned-amplitude regime (a + b != 0) when eta0
    does not match 3 (1 - 2p) / (2p).
    """
    if sign_branch not in (+1, -1):
        raise DomainError(f"sign_branch must be +1 or -1, got {sign_branch}")
    if eta0 <= -3.0:
        raise DomainError(f"eta0 must exceed -3, got {eta0}")
    if eta0 == 0.0:
        raise DomainError("eta0 = 0 is the trivial wave and is rejected")

    a, b, c = params.a, params.b, params.c
    # a = c = -b leaves the amplitude free; every other pulse has it pinned
    if not params.kdv_scaling:
        if abs(a + b) <= _EQ_TOL * max(1.0, abs(a), b):
            raise DomainError("a + b = 0 requires a = c = -b for a pulse to exist")
        p = (c + b) / (a + b)
        if p <= 0:
            raise DomainError(f"no pulse: p = (c + b)/(a + b) = {p} is not positive")
        pinned = 3.0 * (1.0 - 2.0 * p) / (2.0 * p)
        if abs(eta0 - pinned) > 1e-9 * max(1.0, abs(pinned)):
            raise DomainError(
                f"amplitude is pinned to eta0 = {pinned} for these parameters, got {eta0}"
            )

    radicand = 2.0 * eta0 / (3.0 * (a - b) + 2.0 * b * (eta0 + 3.0))
    if not radicand > 0:
        raise DomainError(f"width radicand {radicand} is not positive")
    lam = 0.5 * math.sqrt(radicand)
    w = sign_branch * (3.0 + 2.0 * eta0) / math.sqrt(3.0 * (3.0 + eta0))
    amp_ratio = sign_branch * math.sqrt(3.0 / (3.0 + eta0))
    return WaveSpec(eta0=eta0, lam=lam, B=amp_ratio, w=w, sign_branch=sign_branch)


def standing_pulse(a: float, b: float, sign_branch: int = +1) -> WaveSpec:
    """The standing pulse of (a, b) on a sign branch: c = a, eta0 = -3/2, w = 0."""
    return resolve_wave_parameters(AbcParameters(a=a, b=b, c=a), -1.5, sign_branch)


def sample_wave(spec: WaveSpec, grid: Grid) -> SampledWave:
    """Sample phi = eta0 sech^2(lambda x) on the grid, with psi = B phi.

    Raises GridTooSmall when lambda * half_length < 40, the margin that
    keeps the periodization error of sech^2 below round-off, by more than
    a relative 1e-12 (40 / lambda itself can round to 39.999...).
    """
    if spec.lam * grid.half_length < DECAY_MARGIN * (1.0 - _MARGIN_ROUNDOFF):
        raise GridTooSmall(
            f"half_length {grid.half_length} < {DECAY_MARGIN / spec.lam:.3f} "
            f"needed for decay margin {DECAY_MARGIN}/lambda"
        )
    # cosh^2 overflows far out on a long box, where eta0 / inf, -0.0, is phi's limit
    with np.errstate(over="ignore"):
        phi = spec.eta0 / np.cosh(spec.lam * grid.nodes) ** 2
    return SampledWave(grid=grid, phi=phi, B=spec.B)


def traveling_residual(wave: SampledWave, spec: WaveSpec, params: AbcParameters):
    """Sup-norm residuals (r1, r2) of the traveling-wave system."""
    phi, psi = wave.phi, wave.psi
    phi_dxx, psi_dxx = (derivative_of_samples(wave.grid, values, 2) for values in (phi, psi))
    r1 = phi + params.c * phi_dxx - spec.w * (psi - params.b * psi_dxx) + 0.5 * psi**2
    r2 = -spec.w * (phi - params.b * phi_dxx) + psi + params.a * psi_dxx + phi * psi
    return float(np.max(np.abs(r1))), float(np.max(np.abs(r2)))
