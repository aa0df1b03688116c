"""Periodic Fourier collocation: grids, multipliers, and operators on the
cosine and sine bases.

The real line is truncated to [-L, L) with periodic boundary conditions and
N equispaced nodes.  Constant-coefficient pieces (derivatives and the
fractional smoothing powers (1 - b dxx)^p) are exact Fourier multipliers on
the grid.  Waves of interest decay super-exponentially, so periodization
error sits below round-off once the half-length respects the decay margin,
and eigenvalue convergence in N is spectral.

Every pulse is even, so L, Lt and the scalar operators commute with the
reflection x -> -x, which maps node j to (N - j) mod N.  With
xi_k = pi k / L, the even grid functions have the orthonormal cosine basis
c_k cos(xi_k x_j), k = 0, ..., N/2 (c_k = sqrt(2/N), and 1/sqrt(N) at k = 0
and N/2), and the odd ones the sine basis sqrt(2/N) sin(xi_k x_j),
k = 1, ..., N/2 - 1.  Fourier collocation on these bases is an exact
orthogonal change of basis (collocation equals Galerkin here: Boyd,
Chebyshev and Fourier Spectral Methods, 2001, ch. 4), so every operator is
assembled directly as its even and odd blocks (ParityBlocks):

* a multiplier with an even symbol sigma is the diagonal sigma(xi_k);
* dx maps sin_k to xi_k cos_k and cos_k to -xi_k sin_k;
* an even potential v is (1/2) c_k c_l [V(k - l) +- V(k + l)], + on the
  cosine block and - on the sine block, with V(m) = (-1)^m Re fft(v)[m mod N]
  (a Toeplitz-plus-Hankel matrix, see potential_blocks).  The Toeplitz and
  Hankel parts are strided views of the N + 1 values V(m).

Every operator is the diagonal of its symbols plus a coupling times one
potential, phi's blocks V (psi = B phi by construction, waves.SampledWave).
_folded_blocks writes T^-1 V T^-1 for a diagonal T in one pass from the
views, with T folded into the basis factors c_k / t_k, at three scales:
t = 1 for L and the scalar pair, 1 / s_k for Lt and the parts of its split,
and (1 - a xi_k^2)^(1/2) for K below.  With P = [[0, B], [B, 1]] and
S = (1 - b dxx)^(-1/2), the diagonal s_k = (1 + b xi_k^2)^(-1/2):

    L   = [[1 + c dxx, b w dxx - w], [b w dxx - w, 1 + a dxx]] + P x phi
    Lt  = S L S = [[(1 + c dxx) S^2, -w], [-w, (1 + a dxx) S^2]] + P x S phi S
    JL  = J L,  J = -dx (1 - b dxx)^(-1) swap                  (evolution)
          J anticommutes with the reflection, so JL maps each parity onto
          the other; spectra counts JL from Lt's parity blocks on every
          wave, so no command assembles it; tests compare it with the
          physical-space JL
    scalar pair: kdv  = a dxx + 1 + 2 phi0
                 hill = a dxx + 1 - phi0       (phi0 a standing pulse's samples)

Lt's smoothed symbols (_smoothed_symbols) serve its assembly and the
essential-spectrum edge.

Every subsonic a = c pulse has w = 0 (the standing branch, eta0 = -3/2) or
b = -a (the free-amplitude branch), so the smoothing 1 - b dxx that w
multiplies is 1 + a dxx, and L = W x (1 + a dxx) + P x phi with
W = [[1, -w], [-w, 1]].  The generalized eigenpairs P v = p W v,
p^2 (1 - w^2) - p (1 + 2 B w) - B^2 = 0 and v = (B + p w, p) normalized in
the W norm, give R = W V with R R^T = W and R diag(p) R^T = P, so
L = (R x I) blockdiag(parts) (R x I)^T with the scalar parts
(1 + a dxx) + p_i phi.  With C = (1 + a dxx)^(-1/2) and K = C V C
(kernel_blocks, or kernel_even_block for its cosine block alone), part i is
C^-1 (I + p_i K) C^-1, and since S is scalar,
Lt = (R x I) blockdiag(T (I + p_i K) T) (R x I)^T with T = S C^-1 the
diagonal t_k = sqrt((1 - a xi_k^2) / (1 + b xi_k^2)) (_t_diagonal), T = I
when b = -a.  scalar_split returns R, p, K and T (ScalarSplit) for the
verdict, whose parts differ only in p, so one eigenbasis of K serves them
all (spectra.stability_verdict).  split_parts writes the parts themselves
as T^2 + p_i S V S, from one fold and no K; the scalar pair is split_parts
at b = 0 (S = I) on phi0, a standing pulse's waves.sample_wave samples.
On the standing branch W = I, R is orthogonal and the parts (kdv p = 2 and
hill p = -1 at B = sqrt(2)) have Lt's eigenvalues.  On the free-amplitude
branch the parts are congruent to Lt: they carry its inertia (Sylvester's
law of inertia) but not its eigenvalues.  A supersonic wave (|w| > 1) has
an indefinite W and no real R; it does not split, nor does an a != c wave.

A potential whose samples are not even to REFLECTION_DEFECT_TOL raises
ReflectionDefect (see Kapitula & Promislow, Spectral and Dynamical
Stability of Nonlinear Waves, 2013, ch. 7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, InvalidGrid, ReflectionDefect

__all__ = [
    "Grid",
    "ParityBlocks",
    "ScalarSplit",
    "build_grid",
    "apply_multiplier",
    "derivative_of_samples",
    "parity_wavenumbers",
    "parity_coefficients",
    "potential_blocks",
    "kernel_blocks",
    "kernel_even_block",
    "split_parts",
    "splits",
    "scalar_split",
    "assemble_system_operator_L",
    "assemble_tilde_L",
    "smoothing_diagonal",
    "assemble_JL",
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


@dataclass(frozen=True, eq=False)
class ParityBlocks:
    """An operator restricted to the even and to the odd grid functions.

    Rows and columns are cosine or sine coefficients, one component after
    the other for two-component operators.  For an operator that commutes
    with x -> -x, `even` maps cosine to cosine coefficients and `odd` sine
    to sine; for one that anticommutes (JL), `even` maps cosine to sine
    coefficients and `odd` sine to cosine.
    """

    even: np.ndarray
    odd: np.ndarray


def build_grid(n_points: int, half_length: float) -> Grid:
    """Build the periodic grid; N must be even and >= 16, L positive with finite nodes."""
    if n_points < 16 or n_points % 2 != 0:
        raise InvalidGrid(f"n_points must be even and >= 16, got {n_points}")
    n = int(n_points)
    L = float(half_length)
    # the node offsets reach 2 L and the wavenumbers pi (N/2) / L
    if not (L > 0 and np.isfinite(2.0 * L * n) and np.isfinite(np.pi * n / L)):
        raise InvalidGrid(f"half_length must be positive with finite nodes, got {half_length}")
    nodes = -L + 2.0 * L * np.arange(n) / n
    wavenumbers = np.pi * np.fft.fftfreq(n, d=1.0 / n) / L
    return Grid(n, L, nodes, wavenumbers, 2.0 * L / n)


def apply_multiplier(grid: Grid, symbol: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier with the given symbol to sample values."""
    return np.real(np.fft.ifft(symbol * np.fft.fft(values)))


def _derivative_symbol(grid: Grid, order: int) -> np.ndarray:
    symbol = (1j * grid.wavenumbers) ** order
    if order % 2 == 1:
        # The unpaired Nyquist mode has no odd-derivative partner; zeroing it
        # keeps odd-order derivatives real and antisymmetric.
        symbol[grid.n_points // 2] = 0.0
    return symbol


def derivative_of_samples(grid: Grid, values: np.ndarray, order: int) -> np.ndarray:
    """Spectral derivative of sampled values."""
    return apply_multiplier(grid, _derivative_symbol(grid, order), values)


REFLECTION_DEFECT_TOL = 1e-10


def parity_wavenumbers(grid: Grid) -> np.ndarray:
    """xi_k = pi k / L for the cosine basis, k = 0, ..., N/2; the sine basis
    takes k = 1, ..., N/2 - 1, i.e. xi[1:-1]."""
    return np.pi * np.arange(grid.n_points // 2 + 1) / grid.half_length


def _cosine_scale(n: int) -> np.ndarray:
    """c_k, the norm factors of the cosine basis; the sine basis has c[1:-1]."""
    scale = np.full(n // 2 + 1, np.sqrt(2.0 / n))
    scale[[0, -1]] = np.sqrt(1.0 / n)
    return scale


def parity_coefficients(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cosine and sine coefficients of grid values, by one real FFT.

    Scalar (length N) and two-component (length 2N) values are accepted;
    each component is transformed on its own and the coefficients are
    concatenated.  sum_j v_j cos(xi_k x_j) = (-1)^k Re fft(v)[k] and
    sum_j v_j sin(xi_k x_j) = -(-1)^k Im fft(v)[k], since x_j = -L + 2 L j / N.
    """
    n = grid.n_points
    if len(values) not in (n, 2 * n):
        raise ValueError(f"length {len(values)} is neither {n} nor {2 * n}")
    half = n // 2
    signed_scale = _cosine_scale(n) * (-1.0) ** np.arange(half + 1)
    spectrum = np.fft.rfft(np.reshape(values, (-1, n)), axis=1) * signed_scale
    return spectrum.real.ravel(), -spectrum.imag[:, 1:half].ravel()


def _potential_views(grid: Grid, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Toeplitz part V(|k - l|) and the Hankel part V(k + l),
    k, l = 0, ..., N/2, of the even potential v, as read-only strided views
    of V(m) = (-1)^m Re fft(v)[m mod N], m = 0, ..., N.

    Raises ReflectionDefect when max |v_j - v_{(N-j) mod N}| exceeds
    REFLECTION_DEFECT_TOL * max |v|: an odd part would couple the two
    parity blocks, and the blocks drop that coupling.
    """
    n = grid.n_points
    half = n // 2
    defect = float(np.max(np.abs(values - values[-np.arange(n)])))
    scale = float(np.max(np.abs(values)))
    if defect > REFLECTION_DEFECT_TOL * scale:
        raise ReflectionDefect(
            f"potential is not even under x -> -x: relative defect "
            f"{defect / scale:.3e} > {REFLECTION_DEFECT_TOL}"
        )
    m = np.arange(n + 1)
    v_hat = (-1.0) ** m * np.fft.fft(values).real[m % n]
    # V(|j - N/2|), j = 0, ..., N: window N/2 - k, read from l, is V(|k - l|)
    mirrored = np.concatenate([v_hat[half:0:-1], v_hat[: half + 1]])
    toeplitz = sliding_window_view(mirrored, half + 1)[::-1]
    return toeplitz, sliding_window_view(v_hat, half + 1)


def _folded_block(
    toeplitz: np.ndarray, hankel: np.ndarray, scale: np.ndarray, combine
) -> np.ndarray:
    """(1/2) scale_k scale_l combine(T, H)[k, l], scaled by rows as T and H
    are combined and by columns in place."""
    block = combine(toeplitz, hankel) * (0.5 * scale)[:, None]
    block *= scale
    return block


def _folded_blocks(grid: Grid, values: np.ndarray, t) -> ParityBlocks:
    """Both blocks of T^-1 V T^-1, T the diagonal t at k = 0, ..., N/2 (or
    a scalar), for the even potential v: entry (k, l) is
    (1/2) (c_k / t_k) (c_l / t_l) [V(k - l) +- V(k + l)], + on the cosine
    block and - on the sine block (k, l = 1, ..., N/2 - 1), built from
    _potential_views with T^-1 folded into the basis factors c_k / t_k."""
    toeplitz, hankel = _potential_views(grid, values)
    scale = _cosine_scale(grid.n_points) / t
    inner = slice(1, -1)
    return ParityBlocks(
        _folded_block(toeplitz, hankel, scale, np.add),
        _folded_block(toeplitz[inner, inner], hankel[inner, inner], scale[inner], np.subtract),
    )


def potential_blocks(grid: Grid, values: np.ndarray) -> ParityBlocks:
    """Blocks of multiplication by the even potential v on the cosine and sine bases.

    Entry (k, l) is (1/2) c_k c_l [V(k - l) +- V(k + l)], + on the cosine
    block and - on the sine block, with V(m) = (-1)^m Re fft(v)[m mod N],
    from the product formulas of cosines and sines (_folded_blocks at
    t = 1).  ReflectionDefect when v is not even (_potential_views).
    """
    return _folded_blocks(grid, values, 1.0)


def _swap_odd_to_even(factor: np.ndarray, odd_rows: np.ndarray) -> np.ndarray:
    """[[0, D], [D, 0]] @ odd_rows, D = diag(factor) from sine k to cosine k.

    odd_rows holds two-component sine coefficients (k = 1, ..., N/2 - 1 per
    component) in its rows; the result has zero rows at k = 0 and N/2.  With
    factor = xi_k, D is the odd-to-even block of dx.
    """
    half = len(odd_rows) // 2
    scaled = np.tile(factor, 2)[:, None] * odd_rows
    pad = ((1, 1), (0, 0))
    return np.vstack([np.pad(scaled[half:], pad), np.pad(scaled[:half], pad)])


def _system_blocks(symbols, B: float, phi: ParityBlocks) -> ParityBlocks:
    """diag(symbols) + P x Phi, P = [[0, B], [B, 1]]: on each parity
    [[diag(s11), diag(s12) + B Phi], [diag(s12) + B Phi, diag(s22) + Phi]],
    with the symbols given at k = 0, ..., N/2.  Phi's own arrays take the
    diagonal s22."""

    def block(cut: slice, phi_block: np.ndarray) -> np.ndarray:
        s11, s12, s22 = (symbol[cut] for symbol in symbols)
        diagonal = np.diag_indices_from(phi_block)
        coupling = B * phi_block
        coupling[diagonal] += s12
        phi_block[diagonal] += s22
        return np.block([[np.diag(s11), coupling], [coupling, phi_block]])

    return ParityBlocks(block(slice(None), phi.even), block(slice(1, -1), phi.odd))


def _component_split(B: float, w: float) -> tuple[np.ndarray, np.ndarray]:
    """(p, R) with R R^T = W = [[1, -w], [-w, 1]] and R diag(p) R^T = [[0, B], [B, 1]].

    p solves p^2 (1 - w^2) - p (1 + 2 B w) - B^2 = 0, the positive root
    first.  With h = 1 + 2 B w, one root is q / (2 (1 - w^2)) for
    q = h + sign(h) sqrt(h^2 + 4 (1 - w^2) B^2), free of cancellation, and
    the other is -2 B^2 / q, from the product of the roots; near w^2 = 1
    the textbook formula loses digits in the second.  Column i of R is
    W v_i / |v_i|_W for v_i = (B + p_i w, p_i), with
    |v|_W^2 = B^2 + (1 - w^2) p^2.
    """
    weight = 1.0 - w**2
    h = 1.0 + 2.0 * B * w
    q = h + np.copysign(np.sqrt(h**2 + 4.0 * weight * B**2), h)
    p = np.sort([0.5 * q / weight, -2.0 * B**2 / q])[::-1]
    rotation = np.array([[B, B], weight * p - w * B]) / np.hypot(B, np.sqrt(weight) * p)
    return p, rotation


@dataclass(frozen=True, eq=False)
class ScalarSplit:
    """The split Lt = (R x I) blockdiag(T (I + p_i K) T) (R x I)^T: R with
    R R^T = W, the scales p (positive first), the parity blocks of K = C V C
    that every part shares and the diagonal t of T (module docstring)."""

    rotation: np.ndarray
    p: np.ndarray
    kernel: ParityBlocks
    t: np.ndarray


def kernel_blocks(a: float, grid: Grid, phi: np.ndarray) -> ParityBlocks:
    """The blocks of K = C V C, C = (1 + a dxx)^(-1/2), for the blocks V of
    the even potential phi: potential_blocks with C's diagonal 1 / t_k
    (_t_diagonal at b = 0) folded into the basis factors, c_k / t_k, so
    each block is written in one pass from the views of V."""
    return _folded_blocks(grid, phi, _t_diagonal(a, 0.0, grid))


def kernel_even_block(a: float, grid: Grid, phi: np.ndarray) -> np.ndarray:
    """The cosine block of K = C V C alone, equal to kernel_blocks(a, grid,
    phi).even bit for bit: the standing index reads no other."""
    toeplitz, hankel = _potential_views(grid, phi)
    scale = _cosine_scale(grid.n_points) / _t_diagonal(a, 0.0, grid)
    return _folded_block(toeplitz, hankel, scale, np.add)


def _t_diagonal(a: float, b: float, grid: Grid) -> np.ndarray:
    """t_k = sqrt((1 - a xi_k^2) / (1 + b xi_k^2)), the diagonal of
    T = S C^-1 at k = 0, ..., N/2; b = 0 gives C^-1."""
    xi2 = parity_wavenumbers(grid) ** 2
    return np.sqrt((1.0 - a * xi2) / (1.0 + b * xi2))


def _smoothed_symbols(a: float, b: float, c: float, w: float, grid: Grid):
    """Lt's constant part at k = 0, ..., N/2, L's symbols times s_k^2:
    ((1 - c xi^2) / (1 + b xi^2), -w, (1 - a xi^2) / (1 + b xi^2)).  At
    a = c the diagonals are T^2 (_t_diagonal squared)."""
    xi2 = parity_wavenumbers(grid) ** 2
    smooth = 1.0 + b * xi2
    return (1.0 - c * xi2) / smooth, np.full_like(xi2, -w), (1.0 - a * xi2) / smooth


def _smoothed_potential(b: float, grid: Grid, phi: np.ndarray) -> ParityBlocks:
    """The blocks of S V S for the even potential phi: _folded_blocks at
    t_k = 1 / s_k = (1 + b xi_k^2)^(1/2); b = 0 gives potential_blocks."""
    return _folded_blocks(grid, phi, np.sqrt(1.0 + b * parity_wavenumbers(grid) ** 2))


def split_parts(a: float, b: float, grid: Grid, phi: np.ndarray, p) -> tuple[ParityBlocks, ...]:
    """T (I + p_i K) T = T^2 + p_i S V S for each p_i, at a = c, from one
    fold of phi at S; K is not built.  The last part is built in the fold's
    own arrays, so a pair holds two operators, not three."""
    fold = _smoothed_potential(b, grid, phi)
    t2 = _smoothed_symbols(a, b, a, 0.0, grid)[2]
    parts = [ParityBlocks(pk * fold.even, pk * fold.odd) for pk in p[:-1]]
    for block in (fold.even, fold.odd):
        block *= p[-1]
    for part in (*parts, fold):
        for block, diagonal in ((part.even, t2), (part.odd, t2[1:-1])):
            block[np.diag_indices_from(block)] += diagonal
    return (*parts, fold)


def _check_samples(wave, grid: Grid) -> None:
    """DomainError unless the wave was sampled on a grid with this N and L."""
    sampled, wanted = (len(wave.phi), wave.grid.half_length), (grid.n_points, grid.half_length)
    if sampled != wanted:
        raise DomainError(f"wave sampled on (N, L) = {sampled}, grid has {wanted}")


def splits(params, spec) -> bool:
    """Whether L splits: the wave is subsonic, a = c, and w = 0 or b = -a."""
    return params.equal_dispersion and (spec.w == 0 or params.kdv_scaling) and abs(spec.w) < 1.0


def scalar_split(params, spec, wave, grid: Grid) -> ScalarSplit | None:
    """The scalar split of Lt (module docstring) when splits holds, else
    None; K is built only then."""
    _check_samples(wave, grid)
    if not splits(params, spec):
        return None
    p, rotation = _component_split(spec.B, spec.w)
    kernel = kernel_blocks(params.a, grid, wave.phi)
    return ScalarSplit(rotation, p, kernel, _t_diagonal(params.a, params.b, grid))


def assemble_system_operator_L(params, spec, wave, grid: Grid) -> ParityBlocks:
    """Second-variation operator L of the linearized system (symmetric, two-component)."""
    _check_samples(wave, grid)
    xi2 = parity_wavenumbers(grid) ** 2
    symbols = (1.0 - params.c * xi2, -spec.w * (1.0 + params.b * xi2), 1.0 - params.a * xi2)
    return _system_blocks(symbols, spec.B, potential_blocks(grid, wave.phi))


def smoothing_diagonal(b: float, grid: Grid) -> np.ndarray:
    """s_k = (1 + b xi_k^2)^(-1/2) at k = 0, ..., N/2: S = (1 - b dxx)^(-1/2)
    on the cosine basis, and s[1:-1] on the sine basis."""
    return 1.0 / np.sqrt(1.0 + b * parity_wavenumbers(grid) ** 2)


def assemble_tilde_L(params, spec, wave, grid: Grid) -> ParityBlocks:
    """Symmetrized operator (1 - b dxx)^(-1/2) L (1 - b dxx)^(-1/2).

    Shares the inertia of L (congruence with a positive definite factor) and
    has essential spectrum bounded away from zero in the subsonic regime.
    Assembled directly: the smoothed symbols plus P x S Phi S, one fold of
    phi at S.
    """
    _check_samples(wave, grid)
    symbols = _smoothed_symbols(params.a, params.b, params.c, spec.w, grid)
    return _system_blocks(symbols, spec.B, _smoothed_potential(params.b, grid, wave.phi))


def assemble_JL(params, spec, wave, grid: Grid) -> ParityBlocks:
    """Evolution generator J L of the linearized flow (nonsymmetric, two-component).

    J = -[[0, K], [K, 0]] with K = dx (1 - b dxx)^(-1), which maps sin_k to
    k_k cos_k and cos_k to -k_k sin_k, k_k = xi_k / (1 + b xi_k^2).  So J
    takes odd to even coefficients as J_eo = -[[0, D], [D, 0]], D = diag(k_k),
    and even to odd as -J_eo^T, and the blocks of J L are -J_eo^T L_even and
    J_eo L_odd.
    """
    lop = assemble_system_operator_L(params, spec, wave, grid)
    xi = parity_wavenumbers(grid)
    k = (xi / (1.0 + params.b * xi**2))[1:-1]
    even = lop.even
    half = len(even) // 2
    # -J_eo^T = [[0, D^T], [D^T, 0]] takes the cosine rows k = 1, ..., N/2 - 1
    # of the other component, scaled
    scaled = np.tile(k, 2)[:, None] * np.vstack([even[half + 1 : -1], even[1 : half - 1]])
    return ParityBlocks(scaled, -_swap_odd_to_even(k, lop.odd))


def assemble_scalar_operator(a: float, grid: Grid, phi: np.ndarray) -> tuple[ParityBlocks, ...]:
    """The scalar pair (kdv, hill) of the standing branch:

    kdv  = a dxx + 1 + 2 phi0   (one negative eigenvalue, kernel phi0')
    hill = a dxx + 1 - phi0     (positive, spectrum in [1, inf))

    the parts of the split L at phi, the samples of a standing pulse phi0,
    which exists only for a = c < 0: split_parts at b = 0, where S = I and
    T = C^-1.
    """
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    return split_parts(a, 0.0, grid, phi, (2.0, -1.0))
