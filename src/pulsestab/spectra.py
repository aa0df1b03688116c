"""Direct eigenvalue computations and the combined stability verdict.

The symmetrized operator is diagonalized densely, on its even and odd
blocks, to read off its inertia (one negative eigenvalue and a simple kernel
for every admissible pulse); the evolution generator JL is diagonalized in
full to count modes with positive real part; and the essential-spectrum
edge kappa comes from the smoothed 2x2 Fourier symbol minimized over the
grid wavenumbers.  The verdict combines the inertia, the sign of the index
quantity, the parity identity

    n_unstable = n(Lt) - n(index quantity)   (mod 2),

and the direct count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .discretization import Grid, ReflectionParity, assemble_JL, assemble_tilde_L
from .errors import EigensolveFailure, NotSubsonic
from .index_count import IndexReport, index_report
from .waves import AbcParameters, SampledWave, WaveSpec

__all__ = [
    "SpectrumReport",
    "StabilityVerdict",
    "discrete_spectrum_tilde_L",
    "unstable_modes_JL",
    "essential_spectrum_gap",
    "hamiltonian_symmetry_defect",
    "stability_verdict",
]


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray  # sorted real (Lt) or complex sorted by (Re, Im) (JL)
    negative_count: int
    zero_modes: int
    max_real_part: float | None
    ess_spectrum_gap: float | None
    n_unstable: int | None = None
    symmetry_defect: float | None = None


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


def discrete_spectrum_tilde_L(
    params: AbcParameters,
    spec: WaveSpec,
    wave: SampledWave,
    grid: Grid,
    zero_tol: float | None = None,
) -> SpectrumReport:
    """Full symmetric eigensolve of the symmetrized operator, block by block.

    Lt commutes with x -> -x, so its eigenvalues are the sorted union of
    those of its even and odd blocks (ReflectionDefect if it does not).
    zero_tol defaults to 1e-6 times the spectral radius; it separates the
    translational kernel from genuinely small eigenvalues (verified stable
    under N-refinement).
    """
    matrix = assemble_tilde_L(params, spec, wave, grid).entries
    blocks = ReflectionParity(grid).split(matrix)
    try:
        eigenvalues = np.sort(np.concatenate([np.linalg.eigvalsh(block) for block in blocks]))
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(f"symmetric eigensolve failed: {exc}") from exc
    if zero_tol is None:
        zero_tol = 1e-6 * max(abs(eigenvalues[0]), abs(eigenvalues[-1]))
    try:
        gap = essential_spectrum_gap(params, spec, grid)
    except NotSubsonic:
        gap = None
    return SpectrumReport(
        eigenvalues=eigenvalues,
        negative_count=int(np.sum(eigenvalues < -zero_tol)),
        zero_modes=int(np.sum(np.abs(eigenvalues) <= zero_tol)),
        max_real_part=None,
        ess_spectrum_gap=gap,
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


def unstable_modes_JL(
    params: AbcParameters,
    spec: WaveSpec,
    wave: SampledWave,
    grid: Grid,
    re_tol: float = 1e-6,
) -> SpectrumReport:
    """General eigensolve of JL; counts modes with real part above re_tol.

    The discretized essential spectrum sits on the imaginary axis up to
    round-off, so re_tol = 1e-6 cleanly separates genuine growth rates.
    """
    matrix = assemble_JL(params, spec, wave, grid).entries
    try:
        eigenvalues = np.linalg.eigvals(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailure(f"general eigensolve failed: {exc}") from exc
    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    try:
        gap = essential_spectrum_gap(params, spec, grid)
    except NotSubsonic:
        gap = None
    return SpectrumReport(
        eigenvalues=eigenvalues,
        negative_count=int(np.sum(eigenvalues.real < -re_tol)),
        zero_modes=int(np.sum(np.abs(eigenvalues) <= re_tol)),
        max_real_part=float(np.max(eigenvalues.real)),
        ess_spectrum_gap=gap,
        n_unstable=int(np.sum(eigenvalues.real > re_tol)),
        symmetry_defect=hamiltonian_symmetry_defect(eigenvalues),
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
    tilde_report = discrete_spectrum_tilde_L(params, spec, wave, grid, zero_tol=zero_tol)
    jl_report = unstable_modes_JL(params, spec, wave, grid, re_tol=re_tol)
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
