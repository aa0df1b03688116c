"""Periodic Fourier collocation: grids, multipliers, and operator assembly.

The real line is truncated to [-L, L) with periodic boundary conditions and
N equispaced nodes.  All constant-coefficient pieces (derivatives and the
fractional smoothing powers (1 - b dxx)^p) are exact Fourier multipliers on
the grid; potentials enter as diagonal matrices in physical space.  Waves of
interest decay super-exponentially, so periodization error sits below
round-off once the half-length respects the decay margin, and eigenvalue
convergence in N is spectral.

Assembled operators:

    L   = [[1 + c dxx,            b w dxx + psi - w],
           [b w dxx + psi - w,    1 + a dxx + phi  ]]          (two-component)
    Lt  = (1 - b dxx)^(-1/2) L (1 - b dxx)^(-1/2)              (symmetrized)
    J   = -dx (1 - b dxx)^(-1) swap,   JL = J @ L              (evolution)
    M   = pointwise orthogonal rotation of L (requires a = c); congruent,
          so it shares the inertia of L exactly on the same grid
    scalar kinds: kdv  = a dxx + 1 + 2 phi0
                  hill = a dxx + 1 - phi0      (phi0 the standing-wave profile)
                  generic = -dxx + alpha^2 - Q sech^2(lambda x)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidGrid

__all__ = [
    "Grid",
    "DiscreteOperator",
    "build_grid",
    "multiplier_matrix",
    "apply_multiplier",
    "derivative_of_samples",
    "spectral_derivative",
    "smoother_power",
    "inner_product",
    "assemble_system_operator_L",
    "assemble_tilde_L",
    "assemble_J",
    "assemble_JL",
    "assemble_rotated_operator",
    "assemble_scalar_operator",
]


@dataclass(frozen=True, eq=False)
class Grid:
    """Periodic collocation grid on [-L, L) with N nodes.

    nodes[j] = -L + 2 L j / N; wavenumbers are pi*k/L for the integer FFT
    frequencies k = 0, 1, ..., N/2-1, -N/2, ..., -1 (FFT storage order);
    quad_weight = 2L/N makes the trapezoid rule spectrally accurate for
    smooth periodic integrands.
    """

    n_points: int
    half_length: float
    nodes: np.ndarray
    wavenumbers: np.ndarray
    quad_weight: float


@dataclass(eq=False)
class DiscreteOperator:
    """Dense operator matrix."""

    entries: np.ndarray


def build_grid(n_points: int, half_length: float) -> Grid:
    """Build the periodic grid; N must be even and at least 16."""
    if n_points < 16 or n_points % 2 != 0:
        raise InvalidGrid(f"n_points must be even and >= 16, got {n_points}")
    if not half_length > 0:
        raise InvalidGrid(f"half_length must be positive, got {half_length}")
    n = int(n_points)
    L = float(half_length)
    nodes = -L + 2.0 * L * np.arange(n) / n
    wavenumbers = np.pi * np.fft.fftfreq(n, d=1.0 / n) / L
    return Grid(n, L, nodes, wavenumbers, 2.0 * L / n)


def apply_multiplier(grid: Grid, symbol: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier with the given symbol to sample values."""
    return np.real(np.fft.ifft(symbol * np.fft.fft(values)))


def multiplier_matrix(grid: Grid, symbol: np.ndarray) -> np.ndarray:
    """Dense real matrix of the Fourier multiplier with the given symbol."""
    spectral = np.fft.fft(np.eye(grid.n_points), axis=0)
    return np.real(np.fft.ifft(symbol[:, None] * spectral, axis=0))


def _derivative_symbol(grid: Grid, order: int) -> np.ndarray:
    symbol = (1j * grid.wavenumbers) ** order
    if order % 2 == 1:
        # The unpaired Nyquist mode has no odd-derivative partner; zeroing it
        # keeps odd-order matrices real and antisymmetric.
        symbol[grid.n_points // 2] = 0.0
    return symbol


def derivative_of_samples(grid: Grid, values: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative of sampled values."""
    return apply_multiplier(grid, _derivative_symbol(grid, order), values)


def spectral_derivative(grid: Grid, order: int) -> DiscreteOperator:
    """Dense differentiation matrix of the given order (1 or 2)."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    return DiscreteOperator(multiplier_matrix(grid, _derivative_symbol(grid, order)))


def smoother_power(grid: Grid, b: float, power: float) -> DiscreteOperator:
    """Fourier multiplier (1 + b xi^2)^power, realizing (1 - b dxx)^power.

    Exact on the periodic grid for any real power; symmetric positive
    definite for b > 0.
    """
    if not b > 0:
        raise DomainError(f"smoothing coefficient b must be positive, got {b}")
    symbol = (1.0 + b * grid.wavenumbers**2) ** power
    return DiscreteOperator(multiplier_matrix(grid, symbol))


def inner_product(u: np.ndarray, v: np.ndarray, grid: Grid) -> float:
    """Quadrature inner product 2L/N * sum(u_j v_j)."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return float(grid.quad_weight * np.dot(u, v))


def _two_component(block11, block12, block22) -> np.ndarray:
    return np.block([[block11, block12], [block12, block22]])


def assemble_system_operator_L(params, spec, wave, grid: Grid) -> DiscreteOperator:
    """Second-variation operator L of the linearized system (symmetric, 2N)."""
    _check_sizes(wave, grid)
    n = grid.n_points
    eye = np.eye(n)
    d2 = multiplier_matrix(grid, _derivative_symbol(grid, 2))
    a11 = eye + params.c * d2
    a12 = params.b * spec.w * d2 + np.diag(wave.psi) - spec.w * eye
    a22 = eye + params.a * d2 + np.diag(wave.phi)
    return DiscreteOperator(_two_component(a11, a12, a22))


def assemble_tilde_L(params, spec, wave, grid: Grid) -> DiscreteOperator:
    """Symmetrized operator (1 - b dxx)^(-1/2) L (1 - b dxx)^(-1/2).

    Shares the inertia of L (congruence with a positive definite factor) and
    has essential spectrum bounded away from zero in the subsonic regime.
    """
    lop = assemble_system_operator_L(params, spec, wave, grid).entries
    s1 = smoother_power(grid, params.b, -0.5).entries
    zero = np.zeros_like(s1)
    smoother = np.block([[s1, zero], [zero, s1]])
    tilde = smoother @ lop @ smoother
    tilde = 0.5 * (tilde + tilde.T)
    return DiscreteOperator(tilde)


def assemble_J(params, grid: Grid) -> DiscreteOperator:
    """Skew operator J = -dx (1 - b dxx)^(-1) swap (antisymmetric, 2N)."""
    xi = grid.wavenumbers
    symbol = _derivative_symbol(grid, 1) / (1.0 + params.b * xi**2)
    k = multiplier_matrix(grid, symbol)
    zero = np.zeros_like(k)
    return DiscreteOperator(-np.block([[zero, k], [k, zero]]))


def assemble_JL(params, spec, wave, grid: Grid) -> DiscreteOperator:
    """Evolution generator J L of the linearized flow (nonsymmetric, 2N)."""
    j = assemble_J(params, grid).entries
    lop = assemble_system_operator_L(params, spec, wave, grid).entries
    return DiscreteOperator(j @ lop)


def assemble_rotated_operator(params, spec, wave, grid: Grid) -> DiscreteOperator:
    """Pointwise orthogonal rotation of L (requires a = c).

    The constant rotation diagonalizing the swap matrix turns L into

        [[ (a + b w) dxx + (1 - w) + psi + phi/2,   phi/2                ],
         [ phi/2,   (a - b w) dxx + (1 + w) - psi + phi/2                ]]

    which is orthogonally similar to L on the grid, hence shares its
    spectrum and inertia exactly.
    """
    _require_equal_dispersion(params)
    _check_sizes(wave, grid)
    n = grid.n_points
    eye = np.eye(n)
    d2 = multiplier_matrix(grid, _derivative_symbol(grid, 2))
    w = spec.w
    m11 = (params.a + params.b * w) * d2 + (1.0 - w) * eye + np.diag(wave.psi + 0.5 * wave.phi)
    m22 = (params.a - params.b * w) * d2 + (1.0 + w) * eye + np.diag(-wave.psi + 0.5 * wave.phi)
    m12 = np.diag(0.5 * wave.phi)
    return DiscreteOperator(_two_component(m11, m12, m22))


def standing_wave_profile(a: float, grid: Grid) -> np.ndarray:
    """Standing-wave profile -(3/2) sech^2(x / (2 sqrt(-a))) on the grid."""
    lam = 1.0 / (2.0 * np.sqrt(-a))
    return -1.5 / np.cosh(lam * grid.nodes) ** 2


def assemble_scalar_operator(kind: str, params, grid: Grid, hill=None) -> DiscreteOperator:
    """Scalar N x N symmetric operator of the requested kind.

    kind "kdv"  -> a dxx + 1 + 2 phi0   (one negative eigenvalue, kernel phi0')
    kind "hill" -> a dxx + 1 - phi0     (positive, spectrum in [1, inf))
    kind "generic" -> -dxx + alpha^2 - Q sech^2(lambda x) for the HillSpec
    passed via `hill`.

    The kdv/hill kinds use the standing-wave profile, which exists only for
    equal dispersion coefficients a = c < 0.
    """
    n = grid.n_points
    eye = np.eye(n)
    d2 = multiplier_matrix(grid, _derivative_symbol(grid, 2))
    if kind in ("kdv", "hill"):
        if params is None:
            raise DomainError(f"kind {kind!r} requires model parameters")
        _require_equal_dispersion(params)
        phi0 = standing_wave_profile(params.a, grid)
        sign = 2.0 if kind == "kdv" else -1.0
        entries = params.a * d2 + eye + sign * np.diag(phi0)
    elif kind == "generic":
        if hill is None:
            raise DomainError("kind 'generic' requires a HillSpec")
        pot = hill.Q / np.cosh(hill.lam * grid.nodes) ** 2
        entries = -d2 + hill.alpha**2 * eye - np.diag(pot)
    else:
        raise DomainError(f"unknown scalar operator kind {kind!r}")
    return DiscreteOperator(entries)


def _require_equal_dispersion(params) -> None:
    scale = max(1.0, abs(params.a))
    if abs(params.a - params.c) > 1e-12 * scale:
        raise DomainError(f"operation requires a = c, got a={params.a}, c={params.c}")


def _check_sizes(wave, grid: Grid) -> None:
    if len(wave.phi) != grid.n_points:
        raise DomainError(
            f"wave sampled on {len(wave.phi)} points, grid has {grid.n_points}"
        )
