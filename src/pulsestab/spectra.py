"""Direct eigenvalue computations and the combined stability verdict.

The symmetrized operator Lt is assembled as its cosine and sine blocks and
diagonalized block by block, to read off its inertia (one negative
eigenvalue and a simple kernel for every admissible pulse).  On every
subsonic a = c wave L splits, and part i of Lt is T (I + p_i K) T
(discretization.ScalarSplit; the discretization module docstring derives
it).  So the verdict diagonalizes K once per parity, one eigh of
K_o = V_K diag(kappa) V_K^T and one eigvalsh of K_e, and classifies the
eigenvalues 1 + p_i kappa of the congruent I + p_i K, which carry Lt's
inertia but not its eigenvalues.  Every other wave keeps Lt's
two-component blocks, with R = I.  The standalone spectrum reports Lt's
own eigenvalues: it solves the half-size parts (discretization.split_parts)
on the standing branch, where R is orthogonal, and Lt's two-component
blocks on every other wave.  The evolution generator JL is counted from
the same blocks: with S = (1 - b dxx)^(-1/2) and J0 = -dx swap,
J = S J0 S, so JL = S (J0 Lt) S^-1 shares the spectrum of J0 Lt, which
couples the even block Lt_e and the odd block Lt_o through
J_eo = -[[0, D], [D, 0]] = -(swap x D), D = diag(xi_k) from sine k to
cosine k.  In the components of the parts J0 Lt is similar to
(R^T J0 R) blockdiag(parts) for any invertible R, so J_eo becomes
-(Sigma x D) with Sigma = R^T swap R, the plain swap when R = I.  The
eigenvalues of JL are the four zeros of J's even kernel and +-sqrt(mu)
for the eigenvalues mu of -G Lt_o, G = J_eo^T Lt_e J_eo (the even/odd
Hamiltonian reduction, Kapitula & Promislow, Spectral and Dynamical
Stability of Nonlinear Waves, 2013, ch. 7; Kapitula, Kevrekidis &
Sandstede, Physica D 195, 2004).  Write every part's odd block as
Q_i diag(sigma_i) Q_i^T, Q_i its eigenvectors scaled by the square roots
of the eigenvalues' magnitudes and sigma_i their signs.  Since
eig(XY) = eig(YX), the mu are the eigenvalues of

    -diag(sigma) Q^T G Q,   Q = blockdiag(Q_i),

one matrix of size N - 2 however many parts: _reduced_matrix builds
Q^T G Q for one part, and _shared_reduced_matrix for the split parts from
K's eigenbasis, with neither Lt's parts nor G.  When every sigma is +1,
as on every subsonic a = c wave, it is the symmetric M = -Q^T G Q, so
every mu is real, with absolute round-off eps |M|; a supersonic wave's
indefinite odd block leaves it nonsymmetric, solved by eigvals.  The odd
blocks' eigenvectors are computed only for this count; the standalone Lt
spectrum takes eigenvalues alone.  The verdict needs no essential-spectrum
edge (essential_spectrum_gap).  It combines the inertia, the sign of the
index quantity, the parity identity

    n_unstable = n(Lt) - n(index quantity)   (mod 2),

and the direct count.  The verdict only needs to know whether some mu
exceeds re_tol^2, an inertia question.  So when the inertia and the index
already say stable and every sigma is +1, it first tries one Cholesky
factorization of -M + c I, c = (re_tol/2)^2: if it completes, every mu lies
below c (Sylvester's law; Higham, Accuracy and Stability of Numerical
Algorithms, 2002, ch. 10), the direct count is 0 and the verdict's
max_real_part is the certified bound re_tol/2.  Otherwise, or when the
factorization fails, it solves the reduced matrix as above.  On coarse
grids the unresolved translation pair has mu > c and fails the
factorization, so those verdicts take the full count; the JL spectrum
itself always does.

A verdict runs in two steps, so that the rows of a scan can share the
first.  verdict_basis is the row-invariant part, built from one pulse, its
anchor: the blocks, the eigh of the odd one, the eigvalsh of the even one
and what the index of the rows on the anchor's route reads
(index_count.index_source).  row_verdict evaluates one row on it: the
classified values 1 + p_i s kappa, n(Lt), the index, -M from A1 and A2, and
the certificate or the solve of M.  Every split wave has
lambda = 1/(2 sqrt(-a)), so on one grid its K is s times the anchor's,
s = eta0 / anchor eta0.  scan_verdicts lets split rows with the anchor's
index route and a read the anchor's basis with their own s, p, R and T,
and rows with the anchor's T its A1 and A2: an eta0 scan on a = c = -b
shares K's eigenbasis and A1, A2 (T = I), and a z scan (s = 1) shares K,
its eigenpairs and one StandingQuadratic.  Every other row, the standing
z = 1 row of an eta0 scan included, builds its own basis, and
stability_verdict is a scan of one row.  Each row's own lambda strays from
1/(2 sqrt(-a)) by a few ulps, so a row of a scan and the same pulse alone
can differ at round-off: counts, verdicts and certified bounds agree, an
uncertified max_real_part may move in its last digits.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .discretization import (
    Grid,
    ParityBlocks,
    ScalarSplit,
    _component_split,
    _t_diagonal,
    assemble_tilde_L,
    parity_wavenumbers,
    scalar_split,
    split_parts,
    splits,
)
from .errors import DomainError, EigensolveFailure, NotSubsonic, SolverError
from .index_count import IndexReport, index_route, index_source
from .waves import AbcParameters, SampledWave, WaveSpec, sample_wave

__all__ = [
    "SpectrumReport",
    "StabilityVerdict",
    "TildeLBlocks",
    "VerdictBasis",
    "discrete_spectrum_tilde_L",
    "unstable_modes_JL",
    "essential_spectrum_gap",
    "stability_verdict",
    "verdict_basis",
    "row_verdict",
    "scan_verdicts",
    "check_tolerances",
]


@dataclass(frozen=True, eq=False)
class TildeLBlocks:
    """The parity blocks the verdict classifies, the odd one diagonalized:
    the even block `even` and the odd block V diag(kappa) V^T for
    odd_eigen = (kappa, V), kappa ascending.

    Without p they are Lt's own two-component blocks, with R = I.  With p
    (a split wave, standing or free) they are the blocks of the split's K
    and t the diagonal of its T (discretization.ScalarSplit).  The parts
    classified are then the congruent I + p_i K (module docstring), so the
    default radius of zero_tol and the translation eigenvalue d0 are read
    on their scale.  A row of a scan reads its anchor's K with p_i s in
    place of p_i (module docstring).
    """

    rotation: np.ndarray
    even: np.ndarray
    odd_eigen: tuple[np.ndarray, np.ndarray]
    p: np.ndarray | None = None
    t: np.ndarray | None = None

    def classified(self, kappa: np.ndarray) -> np.ndarray:
        """Eigenvalues of the blocks classified: 1 + p_i kappa, part after
        part, or kappa itself without p."""
        if self.p is None:
            return kappa
        return np.concatenate([1.0 + pk * kappa for pk in self.p])

    @property
    def odd_values(self) -> np.ndarray:
        """The odd eigenvalues classified, in the columns of Q (module docstring)."""
        return self.classified(self.odd_eigen[0])


@dataclass(frozen=True, eq=False)
class SpectrumReport:
    eigenvalues: np.ndarray  # sorted real (Lt) or complex sorted by (Re, Im) (JL)
    negative_count: int
    zero_modes: int
    max_real_part: float | None
    ess_spectrum_gap: float | None
    n_unstable: int | None = None


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


def _verdict_operator(
    params: AbcParameters, spec: WaveSpec, wave: SampledWave, grid: Grid
) -> tuple[ParityBlocks, ScalarSplit | None]:
    """(blocks, split) of the verdict: the split's K when
    discretization.scalar_split splits L, else Lt's blocks and None.
    ReflectionDefect if the wave is not even."""
    split = scalar_split(params, spec, wave, grid)
    if split is None:
        return assemble_tilde_L(params, spec, wave, grid), None
    return split.kernel, split


def _classified(operator: ParityBlocks, split: ScalarSplit | None) -> TildeLBlocks:
    """The operator's TildeLBlocks, with one eigh of its odd block."""
    odd_eigen = _symmetric_eigen(np.linalg.eigh, operator.odd)
    if split is None:
        return TildeLBlocks(np.eye(2), operator.even, odd_eigen)
    return TildeLBlocks(split.rotation, operator.even, odd_eigen, split.p, split.t)


def _tilde_L_blocks(
    params: AbcParameters, spec: WaveSpec, wave: SampledWave, grid: Grid
) -> TildeLBlocks:
    return _classified(*_verdict_operator(params, spec, wave, grid))


def check_tolerances(zero_tol: float | None, re_tol: float, index_tol: float) -> None:
    """DomainError unless re_tol, index_tol and a given zero_tol are positive and finite."""
    for key, value in (("zero_tol", zero_tol), ("re_tol", re_tol), ("index_tol", index_tol)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise DomainError(f"{key} must be positive and finite, got {value}")


def _zero_tol(values: np.ndarray, zero_tol: float | None) -> float:
    """zero_tol, by default 1e-6 times the spectral radius of the values."""
    return 1e-6 * float(np.max(np.abs(values))) if zero_tol is None else zero_tol


def discrete_spectrum_tilde_L(
    params: AbcParameters,
    spec: WaveSpec,
    wave: SampledWave,
    grid: Grid,
    zero_tol: float | None = None,
) -> SpectrumReport:
    """Full symmetric eigensolve of the symmetrized operator, block by block.

    Lt commutes with x -> -x, so its eigenvalues are the sorted union of
    those of its even and odd blocks (ReflectionDefect if the wave is not
    even).  The blocks are the half-size parts T (I + p_i K) T on the
    standing branch, where R is orthogonal, and Lt's two-component blocks on
    every other wave; each takes eigenvalues only.  zero_tol defaults to
    1e-6 times the spectral radius; it separates the translational kernel
    from genuinely small eigenvalues (verified stable under N-refinement).
    The essential-spectrum edge is reported when the wave is subsonic.
    """
    split = scalar_split(params, spec, wave, grid) if spec.w == 0 else None
    if split is None:
        pieces = [assemble_tilde_L(params, spec, wave, grid)]
    else:
        pieces = split_parts(split.kernel, split.p, split.t)
    even_values = [_symmetric_eigen(np.linalg.eigvalsh, piece.even) for piece in pieces]
    odd_values = [_symmetric_eigen(np.linalg.eigvalsh, piece.odd) for piece in pieces]
    eigenvalues = np.sort(np.concatenate(even_values + odd_values))
    zero_tol = _zero_tol(eigenvalues, zero_tol)
    return SpectrumReport(
        eigenvalues=eigenvalues,
        negative_count=int(np.sum(eigenvalues < -zero_tol)),
        zero_modes=int(np.sum(np.abs(eigenvalues) <= zero_tol)),
        max_real_part=None,
        ess_spectrum_gap=_subsonic_gap(params, spec, grid),
    )


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _reduced_matrix(blocks: TildeLBlocks, xi: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Q^T G Q of one two-component part, R = I and Sigma = swap.

    G = (swap x D)^T Lt_e (swap x D), D = diag(xi_k) from sine k to cosine
    k, keeps rows and columns k = 1, ..., N/2 - 1 of each component block of
    Lt_e, swaps the components and scales by xi_k xi_l, so it costs O(N^2);
    Q = V Delta.
    """
    m = len(xi)
    inner = blocks.even.reshape(2, m + 2, 2, m + 2)[::-1, 1:-1, ::-1, 1:-1]
    scale = np.tile(xi, 2)
    g = scale[:, None] * inner.reshape(2 * m, 2 * m) * scale
    root = blocks.odd_eigen[1] * delta
    return root.T @ (g @ root)


def _shared_reduced_matrix(
    blocks: TildeLBlocks, xi: np.ndarray, delta: np.ndarray, products: dict | None = None
) -> np.ndarray:
    """Q^T G Q of the split parts T (I + p_i K) T, from K's eigenbasis.

    Part i's odd block is Q_i diag(sigma_i) Q_i^T, Q_i = T V Delta_i with
    Delta_i = |diag(1 + p_i kappa)|^1/2, part i's slice of delta, and G's
    block (c, d) is sum_a Sigma_ac Sigma_ad D^T T (I + p_a K_e) T D on the
    inner cosines.
    With X = diag(xi_k t_k^2) V, A1 = X^T X and A2 = X^T K_e X, block (c, d)
    of Q^T G Q is Delta_c (alpha_cd A1 + beta_cd A2) Delta_d for
    alpha = Sigma^T Sigma and beta = Sigma^T diag(p) Sigma.  A1 and A2 are
    read from products when it holds them, and kept there when it is empty.
    """
    vectors = blocks.odd_eigen[1]
    if products:
        a1, a2 = products["a1"], products["a2"]
    else:
        x = (xi * blocks.t[1:-1] ** 2)[:, None] * vectors
        a1 = x.T @ x
        a2 = x.T @ (blocks.even[1:-1, 1:-1] @ x)
        if products is not None:
            products.update(a1=a1, a2=a2)
    sigma = blocks.rotation.T @ _SWAP @ blocks.rotation
    alpha, beta = sigma.T @ sigma, sigma.T @ (blocks.p[:, None] * sigma)
    m = len(xi)
    deltas = delta.reshape(len(blocks.p), m)
    reduced = np.empty((2 * m, 2 * m))
    for c, d in ((0, 0), (0, 1), (1, 1)):
        block = reduced[c * m : (c + 1) * m, d * m : (d + 1) * m]
        np.multiply(a1, alpha[c, d], out=block)
        block += beta[c, d] * a2
        block *= deltas[c][:, None]
        block *= deltas[d]
        if c != d:
            reduced[d * m : (d + 1) * m, c * m : (c + 1) * m] = block.T
    return reduced


def _negated_reduced_matrix(
    grid: Grid, blocks: TildeLBlocks, products: dict | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(Q^T G Q, sigma) for the odd block Q diag(sigma) Q^T: the mu =
    lambda^2 of JL off J's kernel are the eigenvalues of
    -diag(sigma) Q^T G Q (module docstring), -M when sigma is all +1.  Odd
    eigenvalues classified within n eps max|D| below zero, over the union of
    the parts, are round-off of a semidefinite block and count as zero.
    products serves _shared_reduced_matrix.
    """
    values = blocks.odd_values
    floor = len(values) * np.finfo(float).eps * np.max(np.abs(values))
    signs = np.where(values < -floor, -1.0, 1.0)
    delta = np.sqrt(np.maximum(signs * values, 0.0))
    xi = parity_wavenumbers(grid)[1:-1]
    if blocks.p is None:
        return _reduced_matrix(blocks, xi, delta), signs
    return _shared_reduced_matrix(blocks, xi, delta, products), signs


def _below_shift(reduced: np.ndarray, shift: float) -> bool:
    """Whether every mu lies below shift: a Cholesky factorization of
    -M + shift I completes (Sylvester's law; Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, ch. 10).  reduced is -M; its diagonal is
    shifted in place and restored exactly."""
    diagonal = np.diag_indices_from(reduced)
    saved = reduced[diagonal]
    reduced[diagonal] += shift
    try:
        np.linalg.cholesky(reduced)
    except np.linalg.LinAlgError:
        return False
    finally:
        reduced[diagonal] = saved
    return True


def _jl_eigenvalues(grid: Grid, reduced: np.ndarray, signs: np.ndarray) -> np.ndarray:
    """Every eigenvalue of JL sorted by (Re, Im): +-sqrt(mu) and the zeros
    of J's even kernel, the mu solved from the (reduced, signs) of
    _negated_reduced_matrix, as the symmetric -M when every sign is +1."""
    if np.all(signs > 0):
        squares = -_symmetric_eigen(np.linalg.eigvalsh, reduced)
    else:
        try:
            squares = -np.linalg.eigvals(signs[:, None] * reduced)
        except np.linalg.LinAlgError as exc:
            raise EigensolveFailure(f"general eigensolve failed: {exc}") from exc
    roots = np.sqrt(squares.astype(complex))
    # J's even kernel: the constants and Nyquist modes of both components
    kernel = np.zeros(grid.n_points + 2 - len(squares), dtype=complex)
    eigenvalues = np.concatenate([roots, -roots, kernel])
    return eigenvalues[np.lexsort((eigenvalues.imag, eigenvalues.real))]


def unstable_modes_JL(
    params: AbcParameters,
    spec: WaveSpec,
    wave: SampledWave,
    grid: Grid,
    re_tol: float = 1e-6,
) -> SpectrumReport:
    """Eigenvalues of JL; counts modes with real part above re_tol.

    From the blocks of _tilde_L_blocks (Lt's own, or K's on a split wave):
    +-sqrt(mu) for the eigenvalues mu of the reduced matrix
    (_negated_reduced_matrix) and the zeros of J's even kernel (constants
    and Nyquist modes).  The discretized essential spectrum sits on the
    imaginary axis up to round-off, so re_tol = 1e-6 cleanly separates
    genuine growth rates.
    """
    blocks = _tilde_L_blocks(params, spec, wave, grid)
    eigenvalues = _jl_eigenvalues(grid, *_negated_reduced_matrix(grid, blocks))
    return SpectrumReport(
        eigenvalues=eigenvalues,
        negative_count=int(np.sum(eigenvalues.real < -re_tol)),
        zero_modes=int(np.sum(np.abs(eigenvalues) <= re_tol)),
        max_real_part=float(np.max(eigenvalues.real)),
        ess_spectrum_gap=_subsonic_gap(params, spec, grid),
        n_unstable=int(np.sum(eigenvalues.real > re_tol)),
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


@dataclass(frozen=True, eq=False)
class VerdictBasis:
    """The row-invariant half of a verdict, built from one pulse, its anchor:
    the blocks of _verdict_operator with the odd one diagonalized
    (TildeLBlocks), the eigenvalues of the even one and the index of the
    rows on the anchor's route (index_count.index_source).  A basis that
    serves several rows keeps A1 and A2 at the anchor's T in products for
    the rows that share that T; a single verdict's products is None, so it
    frees them once -M is built.
    """

    params: AbcParameters
    spec: WaveSpec
    grid: Grid
    blocks: TildeLBlocks
    even_kappa: np.ndarray
    index: Callable[[AbcParameters, WaveSpec], IndexReport]
    products: dict | None = None


def verdict_basis(
    params: AbcParameters, spec: WaveSpec, wave: SampledWave, grid: Grid
) -> VerdictBasis:
    """The basis of a verdict: build the blocks, read the index from them,
    diagonalize the odd block and free it, and take the even eigenvalues."""
    operator, split = _verdict_operator(params, spec, wave, grid)
    index = index_source(params, spec, wave, grid, operator, split)
    blocks = _classified(operator, split)
    # free the odd block: -M reads the even block and odd_eigen alone
    del operator, split
    even_kappa = _symmetric_eigen(np.linalg.eigvalsh, blocks.even)
    return VerdictBasis(params, spec, grid, blocks, even_kappa, index)


def _row_blocks(basis: VerdictBasis, params: AbcParameters, spec: WaveSpec) -> TildeLBlocks:
    """The basis's blocks as one row reads them: a split row on its
    anchor's basis reads K = s K_anchor, s = eta0 / anchor eta0, with its
    own p, R and T (module docstring)."""
    blocks = basis.blocks
    if spec is basis.spec:
        return blocks
    p, rotation = _component_split(spec.B, spec.w)
    t = blocks.t if params.b == basis.params.b else _t_diagonal(params.a, params.b, basis.grid)
    return TildeLBlocks(
        rotation, blocks.even, blocks.odd_eigen, p * (spec.eta0 / basis.spec.eta0), t
    )


def row_verdict(
    basis: VerdictBasis,
    params: AbcParameters,
    spec: WaveSpec,
    zero_tol: float | None = None,
    re_tol: float = 1e-6,
    index_tol: float = 1e-6,
) -> StabilityVerdict:
    """The verdict of one row on a basis: its anchor's, or a row that
    _basis_key puts with the anchor (see stability_verdict)."""
    check_tolerances(zero_tol, re_tol, index_tol)
    blocks = _row_blocks(basis, params, spec)
    report = basis.index(params, spec)
    index_value = report.index_value

    if index_value < -index_tol:
        index_sign = "neg"
    elif index_value > index_tol:
        index_sign = "pos"
    else:
        index_sign = "indeterminate"

    values = np.concatenate([blocks.classified(basis.even_kappa), blocks.odd_values])
    n_tilde = int(np.sum(values < -_zero_tol(values, zero_tol)))
    n_index = 1 if index_value < 0 else 0
    parity_rhs = (n_tilde - n_index) % 2

    products = basis.products if blocks.t is basis.blocks.t else None
    reduced, signs = _negated_reduced_matrix(basis.grid, blocks, products)
    bound = 0.5 * re_tol
    if (
        index_sign == "neg"
        and n_tilde == 1
        and np.all(signs > 0)
        and _below_shift(reduced, bound * bound)
    ):
        n_unstable, max_real_part = 0, bound
    else:
        real = _jl_eigenvalues(basis.grid, reduced, signs).real
        n_unstable, max_real_part = int(np.sum(real > re_tol)), float(np.max(real))

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
        max_real_part=max_real_part,
        index_report=report,
    )


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

    One pulse is a scan of one row: its verdict_basis, then its
    row_verdict.  The blocks are built once; the index, the inertia and the
    direct count all read them, and their odd block is diagonalized once.
    When the inertia and the index say stable and a Cholesky factorization
    of -M + (re_tol/2)^2 I completes, the direct count is certified (module
    docstring) and max_real_part = re_tol/2; otherwise it is the largest
    real part of JL's spectrum.  DomainError unless check_tolerances passes.
    """
    check_tolerances(zero_tol, re_tol, index_tol)
    basis = verdict_basis(params, spec, wave, grid)
    return row_verdict(basis, params, spec, zero_tol, re_tol, index_tol)


def _basis_key(params: AbcParameters, spec: WaveSpec) -> tuple | None:
    """Rows with one key share a basis: split waves on the same index route
    with the same a.  None for a row that needs a basis of its own."""
    route = index_route(params, spec)
    if route == "numeric" or not splits(params, spec):
        return None
    return route, params.a


def scan_verdicts(
    rows: Iterable[tuple[AbcParameters, WaveSpec]],
    grid: Grid,
    zero_tol: float | None = None,
    re_tol: float = 1e-6,
    index_tol: float = 1e-6,
) -> Iterator[StabilityVerdict | SolverError]:
    """The verdict of each row (params, spec), in order, every wave sampled
    on the one grid: a StabilityVerdict, or the SolverError that stopped it.

    Rows with one _basis_key share the verdict_basis of the first of them,
    and each takes its own row_verdict; every other row builds its own
    basis, as stability_verdict does.  A SolverError while building a basis
    is the result of every row that shares it; a DomainError, such as
    check_tolerances' before the first row, propagates.
    """
    check_tolerances(zero_tol, re_tol, index_tol)
    bases = {}
    for params, spec in rows:
        key = _basis_key(params, spec)
        basis = bases.get(key)
        if basis is None:
            try:
                basis = verdict_basis(params, spec, sample_wave(spec, grid), grid)
                if key is not None:
                    basis = replace(basis, products={})
            except SolverError as exc:
                basis = exc
            if key is not None:
                bases[key] = basis
        if isinstance(basis, SolverError):
            yield basis
            continue
        try:
            yield row_verdict(basis, params, spec, zero_tol, re_tol, index_tol)
        except SolverError as exc:
            yield exc
