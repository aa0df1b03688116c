"""Periodic Fourier collocation: grids, multipliers, operator assembly, parity.

The real line is truncated to [-L, L) with periodic boundary conditions and
N equispaced nodes.  All constant-coefficient pieces (derivatives and the
fractional smoothing powers (1 - b dxx)^p) are exact Fourier multipliers on
the grid; potentials enter as diagonal matrices in physical space.  Waves of
interest decay super-exponentially, so periodization error sits below
round-off once the half-length respects the decay margin, and eigenvalue
convergence in N is spectral.

A multiplier is a circulant matrix, built from its one column
real(ifft(symbol)).  Composing multipliers multiplies symbols, so blocks are
assembled from symbols wherever the structure allows, and dense products
are left only where a potential sits between two multipliers.

Assembled operators:

    L   = [[1 + c dxx,            b w dxx + psi - w],
           [b w dxx + psi - w,    1 + a dxx + phi  ]]          (two-component)
    Lt  = S L S,  S = (1 - b dxx)^(-1/2)                       (symmetrized)
          block by block: circulants of the smoothed symbols, plus one
          N x N product S diag(v) S per potential v
    J   = -dx (1 - b dxx)^(-1) swap = -[[0, K], [K, 0]] = S J0 S,
          J0 = -dx swap
    JL  = J L                                                  (evolution)
          with no product: K times a multiplier is the circulant of the
          product symbol, and K diag(v) scales the columns of K by v;
          assembled only when the parity reduction of JL does not apply
    M   = pointwise orthogonal rotation of L (requires a = c); congruent,
          so it shares the inertia of L exactly on the same grid
    scalar kinds: kdv  = a dxx + 1 + 2 phi0
                  hill = a dxx + 1 - phi0      (phi0 the standing-wave profile)
                  generic = -dxx + alpha^2 - Q sech^2(lambda x)

Every pulse is even, so L, Lt and the scalar operators commute with the
reflection x -> -x, which maps node j to (N - j) mod N.  ReflectionParity
folds vectors onto orthonormal even and odd bases and splits such an
operator into its even and odd blocks, refusing one whose reflection
defect exceeds REFLECTION_DEFECT_TOL (see Kapitula & Promislow, Spectral
and Dynamical Stability of Nonlinear Waves, 2013, ch. 7).  dx anticommutes
with the reflection; derivative_parity_block is its odd-to-even block, from
which the JL count couples the parity blocks of Lt.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InvalidGrid, ReflectionDefect

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
    "ReflectionParity",
    "derivative_parity_block",
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
    """Dense real matrix of the Fourier multiplier with the given symbol.

    A multiplier on the periodic grid is circulant: entry (i, j) is
    column[(i - j) mod N], with column = real(ifft(symbol)) its first column.
    """
    n = grid.n_points
    column = np.real(np.fft.ifft(symbol))
    # Row i is the reversed column read cyclically from position N - 1 - i:
    # one window of two reversed copies laid end to end.
    windows = sliding_window_view(np.tile(column[::-1], 2), n)
    return windows[n - 1 :: -1].copy()


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


REFLECTION_DEFECT_TOL = 1e-10
_SQRT_HALF = np.sqrt(0.5)


class ReflectionParity:
    """Orthonormal even and odd bases of the grid reflection x -> -x.

    The reflection maps node j to (N - j) mod N and fixes nodes 0 and N/2.
    Per component the even basis is e_0, e_{N/2} and (e_j + e_{N-j}) / sqrt(2),
    the odd basis (e_j - e_{N-j}) / sqrt(2), for j = 1, ..., N/2 - 1: N/2 + 1
    and N/2 - 1 vectors.  An operator that commutes with the reflection is
    block diagonal in these bases, so its spectrum is the union of the two
    blocks' spectra and it maps even vectors to even vectors.  Scalar
    (length N) and two-component (length 2N) operators and vectors are
    accepted; each component is reflected on its own.
    """

    def __init__(self, grid: Grid):
        self.n_points = grid.n_points

    def _dimension(self, parity: str) -> int:
        """Basis vectors per component: N/2 + 1 even, N/2 - 1 odd."""
        if parity not in ("even", "odd"):
            raise ValueError(f"parity must be 'even' or 'odd', got {parity!r}")
        return self.n_points // 2 + (1 if parity == "even" else -1)

    @staticmethod
    def _components(length: int, unit: int) -> list[slice]:
        """Slices of the one or two components of a vector of this length."""
        if length not in (unit, 2 * unit):
            raise ValueError(f"length {length} is neither {unit} nor {2 * unit}")
        return [slice(start, start + unit) for start in range(0, length, unit)]

    def fold(self, values: np.ndarray, parity: str, axis: int = 0) -> np.ndarray:
        """Coefficients P^T x, in one basis, of grid values along the given axis."""
        half = self.n_points // 2
        dimension = self._dimension(parity)
        moved = np.moveaxis(values, axis, 0)
        components = self._components(len(moved), self.n_points)
        # keeps the memory layout of values, so folding columns copies no transpose
        folded = np.empty_like(moved[: len(components) * dimension])
        for k, component in enumerate(components):
            x = moved[component]
            part = folded[k * dimension : (k + 1) * dimension]
            # x_j pairs with x_{N-j}; x_0 and x_{N/2} are fixed nodes
            if parity == "even":
                part[...] = x[: half + 1]
                part[1:half] += x[: half : -1]
                part[1:half] *= _SQRT_HALF
            else:
                np.subtract(x[1:half], x[: half : -1], out=part)
                part *= _SQRT_HALF
        return np.moveaxis(folded, 0, axis)

    def split(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Even and odd blocks P^T A P of a matrix that commutes with the reflection.

        The blocks drop the coupling P_odd^T A P_even and P_even^T A P_odd,
        which vanishes when A commutes with the reflection; ReflectionDefect
        is raised when it exceeds REFLECTION_DEFECT_TOL times the largest
        block entry.
        """
        even_rows, odd_rows = self.fold(matrix, "even"), self.fold(matrix, "odd")
        even = self.fold(even_rows, "even", axis=1)
        odd = self.fold(odd_rows, "odd", axis=1)
        coupling = max(
            float(np.max(np.abs(self.fold(even_rows, "odd", axis=1)))),
            float(np.max(np.abs(self.fold(odd_rows, "even", axis=1)))),
        )
        scale = max(float(np.max(np.abs(even))), float(np.max(np.abs(odd))))
        if coupling > REFLECTION_DEFECT_TOL * scale:
            raise ReflectionDefect(
                f"operator does not commute with x -> -x: relative defect "
                f"{coupling / scale:.3e} > {REFLECTION_DEFECT_TOL}"
            )
        return even, odd


def derivative_parity_block(grid: Grid) -> np.ndarray:
    """First derivative from odd to even grid functions, P_even^T dx P_odd.

    dx anticommutes with the reflection, so it maps odd functions to even
    ones and even to odd; this is its (N/2 + 1) x (N/2 - 1) block on the
    ReflectionParity bases.  The even-to-odd block is minus its transpose.
    """
    parity = ReflectionParity(grid)
    d1 = multiplier_matrix(grid, _derivative_symbol(grid, 1))
    return parity.fold(parity.fold(d1, "even"), "odd", axis=1)


def _two_component(block11, block12, block22) -> np.ndarray:
    return np.block([[block11, block12], [block12, block22]])


def _plus_diagonal(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    matrix[np.diag_indices_from(matrix)] += values
    return matrix


def _constant_symbols(params, spec, grid: Grid):
    """Fourier symbols of the constant-coefficient parts of L's three blocks."""
    xi2 = grid.wavenumbers**2
    return (
        1.0 - params.c * xi2,
        -spec.w * (1.0 + params.b * xi2),
        1.0 - params.a * xi2,
    )


def assemble_system_operator_L(params, spec, wave, grid: Grid) -> DiscreteOperator:
    """Second-variation operator L of the linearized system (symmetric, 2N)."""
    _check_sizes(wave, grid)
    l11, l12, l22 = _constant_symbols(params, spec, grid)
    a11 = multiplier_matrix(grid, l11)
    a12 = _plus_diagonal(multiplier_matrix(grid, l12), wave.psi)
    a22 = _plus_diagonal(multiplier_matrix(grid, l22), wave.phi)
    return DiscreteOperator(_two_component(a11, a12, a22))


def assemble_tilde_L(params, spec, wave, grid: Grid) -> DiscreteOperator:
    """Symmetrized operator (1 - b dxx)^(-1/2) L (1 - b dxx)^(-1/2).

    Shares the inertia of L (congruence with a positive definite factor) and
    has essential spectrum bounded away from zero in the subsonic regime.
    Block by block: the smoothed constant parts are circulants of their
    symbols divided by 1 + b xi^2, and each potential v enters as
    S diag(v) S with S = (1 - b dxx)^(-1/2).
    """
    _check_sizes(wave, grid)
    s = smoother_power(grid, params.b, -0.5).entries
    smooth = 1.0 + params.b * grid.wavenumbers**2
    l11, l12, l22 = _constant_symbols(params, spec, grid)

    def potential(values: np.ndarray) -> np.ndarray:
        return (s * values[None, :]) @ s

    t11 = multiplier_matrix(grid, l11 / smooth)
    t12 = multiplier_matrix(grid, l12 / smooth) + potential(wave.psi)
    t22 = multiplier_matrix(grid, l22 / smooth) + potential(wave.phi)
    tilde = _two_component(t11, t12, t22)
    return DiscreteOperator(0.5 * (tilde + tilde.T))


def _skew_symbol(params, grid: Grid) -> np.ndarray:
    """Symbol of K = dx (1 - b dxx)^(-1), so that J = -[[0, K], [K, 0]]."""
    return _derivative_symbol(grid, 1) / (1.0 + params.b * grid.wavenumbers**2)


def assemble_J(params, grid: Grid) -> DiscreteOperator:
    """Skew operator J = -dx (1 - b dxx)^(-1) swap (antisymmetric, 2N)."""
    k = multiplier_matrix(grid, _skew_symbol(params, grid))
    zero = np.zeros_like(k)
    return DiscreteOperator(-np.block([[zero, k], [k, zero]]))


def assemble_JL(params, spec, wave, grid: Grid) -> DiscreteOperator:
    """Evolution generator J L of the linearized flow (nonsymmetric, 2N).

    J L = -[[K L12, K L22], [K L11, K L12]] without a matrix product: K times
    a constant-coefficient block is the circulant of the product symbol, and
    K diag(v) scales the columns of K by v.
    """
    _check_sizes(wave, grid)
    k_symbol = _skew_symbol(params, grid)
    k = multiplier_matrix(grid, k_symbol)
    l11, l12, l22 = _constant_symbols(params, spec, grid)
    kl11 = multiplier_matrix(grid, k_symbol * l11)
    kl12 = multiplier_matrix(grid, k_symbol * l12) + k * wave.psi[None, :]
    kl22 = multiplier_matrix(grid, k_symbol * l22) + k * wave.phi[None, :]
    return DiscreteOperator(-np.block([[kl12, kl22], [kl11, kl12]]))


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
    xi2 = grid.wavenumbers**2
    if kind in ("kdv", "hill"):
        if params is None:
            raise DomainError(f"kind {kind!r} requires model parameters")
        _require_equal_dispersion(params)
        phi0 = standing_wave_profile(params.a, grid)
        sign = 2.0 if kind == "kdv" else -1.0
        entries = _plus_diagonal(multiplier_matrix(grid, 1.0 - params.a * xi2), sign * phi0)
    elif kind == "generic":
        if hill is None:
            raise DomainError("kind 'generic' requires a HillSpec")
        pot = hill.Q / np.cosh(hill.lam * grid.nodes) ** 2
        entries = _plus_diagonal(multiplier_matrix(grid, xi2 + hill.alpha**2), -pot)
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
