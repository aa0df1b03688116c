"""Direct eigenvalue computations and the combined stability verdict.

The symmetrized operator Lt is assembled as its cosine and sine blocks and
diagonalized block by block, to read off its inertia (one negative
eigenvalue and a simple kernel for every admissible pulse).  On every
subsonic a = c wave the blocks are those of the two scalar parts of
Lt = (R x I) diag(S part_1 S, S part_2 S) (R x I)^T, R the constant 2x2
matrix with R R^T = W, the weight of L's constant part (see
discretization.assemble_system_operator_L), so each solve has half the
size; every other wave is one two-component part with R = I.  On the
standing branch W = I and the parts are orthogonal parts, whose eigenvalues
are Lt's; on the free-amplitude branch they are congruent parts, which
carry Lt's inertia by Sylvester's law but not its eigenvalues, so the
verdict classifies the parts' eigenvalues while the standalone spectrum
composes Lt's two-component blocks and reports Lt's own.  The evolution
generator JL is counted from the same blocks: with S = (1 - b dxx)^(-1/2)
and J0 = -dx swap, J = S J0 S, so JL = S (J0 Lt) S^-1 shares the spectrum
of J0 Lt, which couples the even block Lt_e and the odd block Lt_o through
J_eo = -[[0, D], [D, 0]] = -(swap x D), D = diag(xi_k) from sine k to
cosine k.  In the components of the parts J0 Lt is similar to
(R^T J0 R) blockdiag(parts) for any invertible R, so J_eo becomes
-(Sigma x D) with Sigma = R^T swap R, the plain swap when R = I.  The
eigenvalues of JL are the four zeros of J's even kernel and +-sqrt(mu) for
the eigenvalues mu of -G Lt_o, G = J_eo^T Lt_e J_eo (the even/odd
Hamiltonian reduction, Kapitula & Promislow, Spectral and Dynamical
Stability of Nonlinear Waves, 2013, ch. 7).  When every part's odd block V_i D_i V_i^T is positive
semidefinite the mu are the eigenvalues of the symmetric

    M = -Q^T G Q,   Q = blockdiag(V_i D_i^1/2),

one solve of size N - 2 however many parts, so every mu is real, with
absolute round-off eps |M|.  Odd eigenvalues within n eps max|D| below
zero, over the union of the parts, count as round-off of a semidefinite
block; one further below (supersonic waves, never subsonic a = c ones)
sends JL to a full nonsymmetric eigensolve of [[0, JL_odd], [JL_even, 0]],
its parity blocks laid out on the cosine and sine coefficients.  The odd
blocks' eigenvectors are computed only for this count; the standalone Lt
spectrum takes eigenvalues alone.
The essential-spectrum edge kappa comes from the smoothed 2x2
Fourier symbol minimized over the grid wavenumbers; the verdict does not
need it.  The verdict combines the inertia, the sign of the index quantity,
the parity identity

    n_unstable = n(Lt) - n(index quantity)   (mod 2),

and the direct count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import (
    Grid,
    assemble_JL,
    assemble_tilde_L,
    parity_wavenumbers,
)
from .errors import EigensolveFailure, NotSubsonic
from .index_count import IndexReport, index_report
from .waves import AbcParameters, SampledWave, WaveSpec

__all__ = [
    "SpectrumReport",
    "StabilityVerdict",
    "TildeLBlocks",
    "discrete_spectrum_tilde_L",
    "unstable_modes_JL",
    "essential_spectrum_gap",
    "hamiltonian_symmetry_defect",
    "stability_verdict",
]


@dataclass(frozen=True, eq=False)
class TildeLBlocks:
    """Lt as assembled (RotatedBlocks) with the odd block of each part
    diagonalized: part i has the even block even[i] and the odd block
    V diag(values) V^T for odd_eigen[i] = (values, V), values ascending.
    The parts' eigenvalues are Lt's only when the rotation is orthogonal;
    otherwise the parts carry Lt's inertia but not its eigenvalues."""

    rotation: np.ndarray
    even: tuple[np.ndarray, ...]
    odd_eigen: tuple[tuple[np.ndarray, np.ndarray], ...]

    @property
    def odd_values(self) -> np.ndarray:
        """The odd-block eigenvalues of every part, ascending."""
        return np.sort(np.concatenate([values for values, _ in self.odd_eigen]))


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray  # sorted real (Lt) or complex sorted by (Re, Im) (JL)
    negative_count: int
    zero_modes: int
    max_real_part: float | None
    ess_spectrum_gap: float | None
    n_unstable: int | None = None
    symmetry_defect: float | None = None
    blocks: TildeLBlocks | None = None  # JL only: the Lt blocks its count used


@dataclass(frozen=True)
class StabilityVerdict:
    n_tilde_L: int
    index_sign: str  # "neg" | "pos" | "indeterminate"
    parity_rhs: int
    n_unstable_direct: int
    verdict: str  # "stable" | "unstable" | "inconclusive"
    index_value: float
    max_real_part: float
    index_report: IndexReport  # the route's full report, index_value included


def _symmetric_eigen(solver, matrix: np.ndarray):
    try:
        return solver(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(f"symmetric eigensolve failed: {exc}") from exc


def _subsonic_gap(params: AbcParameters, spec: WaveSpec, grid: Grid) -> float | None:
    try:
        return essential_spectrum_gap(params, spec, grid)
    except NotSubsonic:
        return None


def _tilde_L_blocks(
    params: AbcParameters, spec: WaveSpec, wave: SampledWave, grid: Grid
) -> TildeLBlocks:
    """Assemble the parity blocks of Lt and diagonalize each odd one.

    ReflectionDefect if the wave is not even.
    """
    lt = assemble_tilde_L(params, spec, wave, grid)
    return TildeLBlocks(
        lt.rotation,
        tuple(part.even for part in lt.parts),
        tuple(_symmetric_eigen(np.linalg.eigh, part.odd) for part in lt.parts),
    )


def discrete_spectrum_tilde_L(
    params: AbcParameters,
    spec: WaveSpec,
    wave: SampledWave,
    grid: Grid,
    zero_tol: float | None = None,
    essential_gap: bool = True,
    blocks: TildeLBlocks | None = None,
) -> SpectrumReport:
    """Full symmetric eigensolve of the symmetrized operator, block by block.

    Lt commutes with x -> -x, so its eigenvalues are the sorted union of
    those of its even and odd blocks (ReflectionDefect if the wave is not
    even).  Assembled here, Lt is solved part by part when its rotation is
    orthogonal (the standing branch), and otherwise from its two-component
    blocks, composed from the congruent parts; every block takes
    eigenvalues only.  Blocks passed in, as a JL report carries them, are
    reused with their odd eigenvalues: the eigenvalues classified are then
    the parts', which carry Lt's inertia (Sylvester's law) but, for a free
    wave, not its eigenvalues.  zero_tol defaults to 1e-6 times the
    spectral radius of the eigenvalues classified; it separates the
    translational kernel from genuinely small eigenvalues (verified stable
    under N-refinement).  The essential-spectrum edge is reported when
    essential_gap is set and the wave is subsonic.
    """
    if blocks is None:
        lt = assemble_tilde_L(params, spec, wave, grid)
        pieces = lt.parts if lt.orthogonal else [lt]
        evens = [piece.even for piece in pieces]
        odd_values = [_symmetric_eigen(np.linalg.eigvalsh, piece.odd) for piece in pieces]
    else:
        evens, odd_values = blocks.even, [blocks.odd_values]
    even_values = [_symmetric_eigen(np.linalg.eigvalsh, even) for even in evens]
    eigenvalues = np.sort(np.concatenate(even_values + odd_values))
    if zero_tol is None:
        zero_tol = 1e-6 * max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
    return SpectrumReport(
        eigenvalues=eigenvalues,
        negative_count=int(np.sum(eigenvalues < -zero_tol)),
        zero_modes=int(np.sum(np.abs(eigenvalues) <= zero_tol)),
        max_real_part=None,
        ess_spectrum_gap=_subsonic_gap(params, spec, grid) if essential_gap else None,
    )


def hamiltonian_symmetry_defect(eigenvalues: np.ndarray, re_floor: float = 1e-8) -> float:
    """Largest distance from -conj(lambda) to the spectrum, over eigenvalues
    with |Re| > re_floor.  Zero for a perfectly symmetric quartet structure."""
    active = eigenvalues[np.abs(eigenvalues.real) > re_floor]
    if len(active) == 0:
        return 0.0
    defect = 0.0
    for lam in active:
        defect = max(defect, float(np.min(np.abs(eigenvalues - (-np.conj(lam))))))
    return defect


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _coupled_even_block(blocks: TildeLBlocks, xi: np.ndarray) -> np.ndarray:
    """G = (Sigma x D)^T Lt_e (Sigma x D) on the sine coefficients of the
    parts' components, Sigma = R^T swap R, D = diag(xi_k) from sine k to
    cosine k.

    D^T E D keeps rows and columns k = 1, ..., N/2 - 1 of a component block
    E of Lt_e and scales them by xi_k xi_l, so G costs O(N^2).
    """
    sigma = blocks.rotation.T @ _SWAP @ blocks.rotation
    m = len(xi)
    if len(blocks.even) == 1:
        even = blocks.even[0].reshape(2, m + 2, 2, m + 2)
        inner = {(a, b): even[a, 1:-1, b, 1:-1] for a in range(2) for b in range(2)}
    else:
        inner = {(a, a): even[1:-1, 1:-1] for a, even in enumerate(blocks.even)}
    g = np.zeros((2 * m, 2 * m))
    for c in range(2):
        for d in range(2):
            for (a, b), block in inner.items():
                weight = sigma[a, c] * sigma[b, d]
                if weight != 0.0:  # R = I leaves one nonzero weight per block
                    g[c * m : (c + 1) * m, d * m : (d + 1) * m] += weight * block
    scale = np.tile(xi, 2)
    g *= scale[:, None]
    g *= scale
    return g


def _reduced_matrix(blocks: TildeLBlocks, xi: np.ndarray) -> np.ndarray:
    """Q^T G Q = -M, Q = blockdiag(V_i D_i^1/2), block by block, so Q's zero
    blocks cost nothing; G and Q are dropped on return."""
    g = _coupled_even_block(blocks, xi)
    roots = [vectors * np.sqrt(np.maximum(part, 0.0)) for part, vectors in blocks.odd_eigen]
    edges = np.cumsum([0] + [len(root) for root in roots])
    reduced = np.empty((edges[-1], edges[-1]))
    for i, left in enumerate(roots):
        rows = slice(edges[i], edges[i + 1])
        for j in range(i, len(roots)):
            cols = slice(edges[j], edges[j + 1])
            np.matmul(left.T, g[rows, cols] @ roots[j], out=reduced[rows, cols])
            if j != i:
                reduced[cols, rows] = reduced[rows, cols].T
    return reduced


def _squared_eigenvalues(grid: Grid, blocks: TildeLBlocks) -> np.ndarray | None:
    """Eigenvalues mu = lambda^2 of JL off J's kernel, or None when the odd
    block of Lt is indefinite.

    With each part's odd block V_i D_i V_i^T and every D_i >= 0 the mu are
    the eigenvalues of the symmetric M = -Q^T G Q, Q = blockdiag(V_i D_i^1/2)
    and G from _coupled_even_block, so each is real and carries the absolute
    round-off eps |M|.  Odd eigenvalues within n eps max|D| below zero, over
    the union of the parts, are round-off of a semidefinite block and count
    as zero.
    """
    values = blocks.odd_values
    floor = len(values) * np.finfo(float).eps * np.max(np.abs(values))
    if values[0] < -floor:
        return None
    reduced = _reduced_matrix(blocks, parity_wavenumbers(grid)[1:-1])
    return -_symmetric_eigen(np.linalg.eigvalsh, reduced)


def unstable_modes_JL(
    params: AbcParameters,
    spec: WaveSpec,
    wave: SampledWave,
    grid: Grid,
    re_tol: float = 1e-6,
    essential_gap: bool = True,
) -> SpectrumReport:
    """Eigenvalues of JL; counts modes with real part above re_tol.

    From the parity blocks of Lt, which the report carries on: +-sqrt(mu)
    for the mu of _squared_eigenvalues and the zeros of J's even kernel
    (constants and Nyquist modes), or, when the odd block is indefinite, a
    full eigensolve of JL from its parity blocks.  The discretized essential
    spectrum sits on the imaginary axis up to round-off, so re_tol = 1e-6
    cleanly separates genuine growth rates.
    """
    blocks = _tilde_L_blocks(params, spec, wave, grid)
    squares = _squared_eigenvalues(grid, blocks)
    if squares is None:
        jl = assemble_JL(params, spec, wave, grid)
        even_size, odd_size = len(jl.odd), len(jl.even)
        matrix = np.block(
            [[np.zeros((even_size, even_size)), jl.odd], [jl.even, np.zeros((odd_size, odd_size))]]
        )
        try:
            eigenvalues = np.linalg.eigvals(matrix)
        except np.linalg.LinAlgError as exc:
            raise EigensolveFailure(f"general eigensolve failed: {exc}") from exc
    else:
        roots = np.sqrt(squares.astype(complex))
        even_size = sum(len(even) for even in blocks.even)
        kernel = np.zeros(even_size - len(squares), dtype=complex)
        eigenvalues = np.concatenate([roots, -roots, kernel])
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    return SpectrumReport(
        eigenvalues=eigenvalues,
        negative_count=int(np.sum(eigenvalues.real < -re_tol)),
        zero_modes=int(np.sum(np.abs(eigenvalues) <= re_tol)),
        max_real_part=float(np.max(eigenvalues.real)),
        ess_spectrum_gap=_subsonic_gap(params, spec, grid) if essential_gap else None,
        n_unstable=int(np.sum(eigenvalues.real > re_tol)),
        symmetry_defect=hamiltonian_symmetry_defect(eigenvalues),
        blocks=blocks,
    )


def essential_spectrum_gap(params: AbcParameters, spec: WaveSpec, grid: Grid) -> float:
    """Edge kappa of the smoothed essential spectrum over the grid wavenumbers.

    The zero-wave symbol is the 2x2 matrix

        [[1 - c xi^2,        -w (b xi^2 + 1)],
         [-w (b xi^2 + 1),   1 - a xi^2     ]]

    whose determinant is xi^4 (ac - b^2 w^2) + xi^2 (-a - c - 2 b w^2)
    + (1 - w^2), positive in the subsonic regime; kappa is the minimum over
    grid xi of the smaller eigenvalue after smoothing by (1 + b xi^2)^(-1/2)
    on both sides.
    """
    if abs(spec.w) >= params.subsonic_bound:
        raise NotSubsonic(
            f"|w| = {abs(spec.w)} is not below the subsonic bound {params.subsonic_bound}"
        )
    xi2 = grid.wavenumbers**2
    smooth = 1.0 + params.b * xi2
    t11 = (1.0 - params.c * xi2) / smooth
    t22 = (1.0 - params.a * xi2) / smooth
    t12 = -spec.w * (params.b * xi2 + 1.0) / smooth
    half_trace = 0.5 * (t11 + t22)
    # smaller eigenvalue of a symmetric 2x2 via trace/discriminant
    lower = half_trace - np.sqrt(np.maximum(0.25 * (t11 - t22) ** 2 + t12**2, 0.0))
    return float(np.min(lower))


def stability_verdict(
    params: AbcParameters,
    spec: WaveSpec,
    wave: SampledWave,
    grid: Grid,
    zero_tol: float | None = None,
    re_tol: float = 1e-6,
    index_tol: float = 1e-6,
) -> StabilityVerdict:
    """Combine inertia, index sign, parity, and the direct count.

    stable       <=  n(Lt) = 1, index < -index_tol, no direct unstable mode
    unstable     <=  index > index_tol or a direct unstable mode exists
    inconclusive <=  |index| <= index_tol, or the inertia assumption fails
    """
    # Lt is assembled once and its odd block diagonalized once, with the
    # eigenvectors the JL count needs; the inertia reuses the blocks, and the
    # verdict needs no essential-spectrum edge
    jl_report = unstable_modes_JL(params, spec, wave, grid, re_tol=re_tol, essential_gap=False)
    tilde_report = discrete_spectrum_tilde_L(
        params, spec, wave, grid, zero_tol=zero_tol, essential_gap=False, blocks=jl_report.blocks
    )
    report = index_report(params, spec, wave, grid)
    index_value = report.index_value

    if index_value < -index_tol:
        index_sign = "neg"
    elif index_value > index_tol:
        index_sign = "pos"
    else:
        index_sign = "indeterminate"

    n_tilde = tilde_report.negative_count
    n_index = 1 if index_value < 0 else 0
    parity_rhs = (n_tilde - n_index) % 2
    n_unstable = jl_report.n_unstable or 0

    if index_sign == "pos" or n_unstable > 0:
        verdict = "unstable"
    elif index_sign == "neg" and n_tilde == 1 and n_unstable == 0:
        verdict = "stable"
    else:
        verdict = "inconclusive"

    return StabilityVerdict(
        n_tilde_L=n_tilde,
        index_sign=index_sign,
        parity_rhs=parity_rhs,
        n_unstable_direct=n_unstable,
        verdict=verdict,
        index_value=index_value,
        max_real_part=jl_report.max_real_part or 0.0,
        index_report=report,
    )
