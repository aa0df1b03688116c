"""Instability-index quantity: closed forms, numeric solves, and bisection.

The stability of a pulse with one negative direction of the symmetrized
second variation hinges on the sign of

    I = < L^(-1) [(1 - b dxx)(psi, phi)^T], (1 - b dxx)(psi, phi)^T >,

negative for stability, positive for instability.  Two closed-form routes
exist:

* free-amplitude branch (a = c = -b): differentiating the traveling-wave
  system along the branch gives L^(-1) RHS = d/dw (phi, psi)^T, and the
  quantity collapses to d(w) = (144 sqrt(b) / 5) eta0 (4 + eta0) / (2 eta0 + 9),
  identical on both sign branches and negative throughout eta0 in (-9/4, 0);

* standing-wave branch (a = c < 0): a constant orthogonal rotation block-
  diagonalizes L into the scalar pair (kdv, hill), the split that
  discretization.scalar_split decides, and with f = (1 - b dxx) phi,

      I = (1/3) (8 <kdv^(-1) f, f> + <hill^(-1) f, f>).

  The kdv part is exact:  kdv^(-1) f = (a + b) phi_a - phi  gives

      <kdv^(-1) f, f> = sqrt(-a) (-9/2 - 3 z + (3/10) z^2),   z = b / (-a).

  (The linear coefficient is -3; a value of -12/5 sometimes quoted for this
  family does not reproduce the defining inner products, e.g. at b = -a the
  inverse is exactly -phi and the quantity is the integral of phi^3, which
  is -(36/5) sqrt(-a).)  The hill part has no closed form; projecting f on
  a phi'' + phi (whose preimage is phi/2) and bounding the remainder g by
  0 < <hill^(-1) g, g> <= |g|^2 with |g|^2 = (2/5) sqrt(-a) (z - 1)^2
  sandwiches the normalized index:

      (2/45)(56 z^2 - 517 z - 754) < 3 I / sqrt(-a) <= (2/45)(65 z^2 - 535 z - 745),

  with equality of the two bounds at z = 1.  The bounds change sign at
  (107 + 9 sqrt(237)) / 26 ~ 9.44436 and (517 + 9 sqrt(5385)) / 112
  ~ 10.51288.

  Neither operator depends on b, and f = phi - z (-a phi'') is linear in z,
  so on every grid each part is exactly a quadratic in z:

      <A^(-1) f, f> = h00 - 2 z h01 + z^2 h11,   h_ij = <A^(-1) c_i, c_j>,

  with c_0 = phi and c_1 = -a phi''.  One factorization per operator with
  the two right-hand sides, sampled once for both operators, gives the Gram
  matrix h (StandingQuadratic), and every z is then a polynomial
  evaluation; the numeric kdv triple is the closed form
  sqrt(-a) (-9/2, 3/2, 3/10).  The bisection runs on these
  quadratics, and z_root, the root of 3 I(z) inside its final bracket,
  reports where the discrete crossing lies.

Every numeric index is read from an even block the verdict has already
built (spectra).  On a split wave part i of L is C^-1 (I + p_i K) C^-1
(derived in discretization), so <part_i^(-1) c, c> =
<(I + p_i K)^(-1) C c, C c>, and Lt = S L S gives
<L^(-1) r, r> = <Lt^(-1) S r, S r> on every other wave.  The right-hand
sides are even and the translation kernel is odd, so the even block is
nonsingular.  The hill part I - K needs no factorization:
multiplication by an even v leaves the cosine and the sine functions
invariant, so V's blocks have v's samples for eigenvalues, and C <= I
(a < 0) gives I - K >= (1 - max(max_j phi_j, 0)) I, which is >= I on the
standing branch (phi < 0).  In order, SolveFailure before any solve unless
that margin exceeds the round-off N eps max |phi|; KernelDefect for a
column whose sine coefficients reach 1e-8 of its norm; SolveFailure for a
failed solve; and IllConditioned for a column's residual on the physical
operator's scale (times C^-1 or S^-1) above 1e-6 * max(1, |column|_inf).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .discretization import (
    Grid,
    ParityBlocks,
    ScalarSplit,
    _check_samples,
    _component_split,
    _t_diagonal,
    apply_multiplier,
    assemble_tilde_L,
    derivative_of_samples,
    kernel_even_block,
    parity_coefficients,
    smoothing_diagonal,
)
from .errors import (
    DomainError,
    IllConditioned,
    KernelDefect,
    NoSignChange,
    SolveFailure,
)
from .waves import AbcParameters, sample_wave, standing_pulse

# largest relative odd part an index right-hand-side column may carry
_DEFECT_TOL = 1e-8
# largest residual of a column on its operator's scale, relative to max(1, |column_even|_inf)
_RESIDUAL_TOL = 1e-6

__all__ = [
    "IndexReport",
    "InnerIndex",
    "BisectionResult",
    "StandingQuadratic",
    "kdv_index_numeric",
    "hill_index_numeric",
    "index_lower_bound_poly",
    "index_upper_bound_poly",
    "standing_quadratic",
    "case2_index",
    "case1_index_closed_form",
    "general_index_numeric",
    "index_route",
    "index_source",
    "critical_ratio_bisection",
]


@dataclass(frozen=True)
class IndexReport:
    index_value: float
    kdv_part: float | None
    hill_part: float | None
    lower_bound_3I: float | None
    upper_bound_3I: float | None
    method: str  # "closed_form" | "numeric"
    stable_by_index: bool


@dataclass(frozen=True)
class BisectionResult:
    z_star: float
    bracket_lo: float
    bracket_hi: float
    iterations: int
    evaluations: int
    z_root: float  # root of the discrete 3 I(z) inside [bracket_lo, bracket_hi]


@dataclass(frozen=True)
class InnerIndex:
    """The index of a split pulse on the inner cosines, and the border
    count of its positive part, for spectra's factor route.

    value is I_in = <Lt_in^(-1) y, y>: Lt_in is Lt's even block without the
    mean and Nyquist cosines (k = 0 and N/2, the constraints that the kernel
    of J puts on the periodic grid) and y the inner cosines of S r.  It is
    the periodic-domain index of Haragus & Kapitula (Physica D 237, 2008).
    border is the number of negative eigenvalues of (A^(-1))_EE for the
    positive part's even block A = I + p_+ K, so n(A_in) = n(A) - border
    (_gram).
    """

    value: float
    border: int


def _standing_columns(a: float, grid: Grid, phi: np.ndarray) -> np.ndarray:
    """c_0 = phi and c_1 = -a phi'' of the samples phi, so that
    f = (1 - b dxx) phi = c_0 - z c_1."""
    return np.stack([phi, -a * derivative_of_samples(grid, phi, 2)])


def _gram(grid: Grid, block: np.ndarray, columns, scale: np.ndarray, inner: bool = False):
    """G[i, j] = <A^(-1) c_i, c_j> for the columns c_i, from the even block
    B = X A_e X, X = diag(scale): for B y = X c_e, A_e^(-1) c_e = X y, so
    G = w y^T X c_e, and the residual on A's scale is X^(-1) (B y - X c_e).

    With inner, the unit columns e_0 and e_N/2 (the mean and Nyquist
    cosines, the set E) are solved too, and the result is (G, G_in, border).
    G_in is G for A_in, A_e without E: with r~ = X c_e zeroed on E and
    y~ = B^(-1) r~ = y - (B^(-1) e_E) (X c_e)_E,
    G_in = w (r~^T y~ - y~_E^T [(B^(-1))_EE]^(-1) y~_E).  border is the
    number of negative eigenvalues of the 2 x 2 (B^(-1))_EE, so that
    n(B_in) = n(B) - border (Haynsworth, Linear Algebra Appl. 1, 1968).
    G_in and border are None when an eigenvalue of the corner lies within
    sqrt(eps) of the larger one's magnitude, where its sign is round-off.
    """
    evens = []
    for column in columns:
        column_even, column_odd = parity_coefficients(grid, column)
        defect = float(np.linalg.norm(column_odd)) / float(np.linalg.norm(column))
        if defect >= _DEFECT_TOL:
            raise KernelDefect(f"odd part of a right-hand side {defect:.3e} >= {_DEFECT_TOL}")
        evens.append(column_even)
    evens = np.column_stack(evens)
    rhs = scale[:, None] * evens
    k, ends = rhs.shape[1], [0, len(block) - 1]
    solved = rhs
    if inner:
        solved = np.zeros((len(block), k + 2))
        solved[:, :k] = rhs
        solved[ends, k:] = np.eye(2)
    try:
        y = np.linalg.solve(block, solved)
    except np.linalg.LinAlgError as exc:
        raise SolveFailure(f"even-block solve failed: {exc}") from exc
    y, units = y[:, :k], y[:, k:]
    residual = np.max(np.abs(block @ y - rhs) / scale[:, None], axis=0)
    if np.any(residual > _RESIDUAL_TOL * np.maximum(1.0, np.max(np.abs(evens), axis=0))):
        raise IllConditioned(f"even-block solve residual {residual.max():.3e} too large")
    gram = grid.quad_weight * (y.T @ rhs)
    if not inner:
        return gram
    (g00, g01), (g10, g11) = units[ends]
    g01 = 0.5 * (g01 + g10)
    det = g00 * g11 - g01 * g01
    # the larger |eigenvalue| of the symmetric corner; the smaller is |det| / largest
    largest = abs(0.5 * (g00 + g11)) + math.hypot(0.5 * (g00 - g11), g01)
    if abs(det) <= math.sqrt(np.finfo(float).eps) * largest * largest:
        return gram, None, None
    border = 1 if det < 0 else (0 if g00 > 0 else 2)
    y_tilde = y - units @ rhs[ends]
    r_tilde = rhs.copy()
    r_tilde[ends] = 0.0
    y_ends = y_tilde[ends]
    # [(B^(-1))_EE]^(-1) y~_E by the corner's adjugate
    corrected = np.array([[g11, -g01], [-g01, g00]]) @ y_ends / det
    inner_gram = r_tilde.T @ y_tilde - y_ends.T @ corrected
    return gram, grid.quad_weight * inner_gram, border


def _quadratic(coefficients: tuple[float, float, float], z: float) -> float:
    h00, h01, h11 = coefficients
    return h00 - 2.0 * z * h01 + z * z * h11


def _standing_samples(a: float, b: float, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(phi, K_e) of the standing pulse of (a, b), sampled as its verdict samples it."""
    phi = sample_wave(standing_pulse(a, b), grid).phi
    return phi, kernel_even_block(a, grid, phi)


def kdv_index_numeric(a: float, b: float, grid: Grid) -> float:
    """<kdv^(-1) f, f>, the kdv part of case2_index."""
    return case2_index(a, b, grid).kdv_part


def hill_index_numeric(a: float, b: float, grid: Grid) -> float:
    """<hill^(-1) f, f>, the hill part of case2_index."""
    return case2_index(a, b, grid).hill_part


def index_lower_bound_poly(z: float) -> float:
    """Lower bound of 3 I / sqrt(-a): dropping <hill^(-1) g, g> > 0."""
    return (2.0 / 45.0) * (56.0 * z * z - 517.0 * z - 754.0)


def index_upper_bound_poly(z: float) -> float:
    """Upper bound of 3 I / sqrt(-a): majorizing <hill^(-1) g, g> by |g|^2."""
    return (2.0 / 45.0) * (65.0 * z * z - 535.0 * z - 745.0)


@dataclass(frozen=True)
class StandingQuadratic:
    """The kdv and hill parts of the standing-branch index at one (a, grid).

    Each is a coefficient triple (h00, h01, h11) of h00 - 2 z h01 + z^2 h11
    in z = b / (-a); see the module docstring.  inner_kdv and inner_hill
    are the same parts on the inner cosines, and border the kdv part's
    border count (_gram), from the same solves; None where a corner's sign
    is round-off.
    """

    kdv: tuple[float, float, float]
    hill: tuple[float, float, float]
    inner_kdv: tuple[float, float, float] | None
    inner_hill: tuple[float, float, float] | None
    border: int | None

    def report(self, z: float) -> IndexReport:
        """Index report at ratio z.

        index_value = (1/3) (8 kdv_part + hill_part).  The two bound
        polynomials bracket 3 I / sqrt(-a) up to solver tolerance,
        coinciding at z = 1.
        """
        kdv_part = _quadratic(self.kdv, z)
        hill_part = _quadratic(self.hill, z)
        index_value = (8.0 * kdv_part + hill_part) / 3.0
        return IndexReport(
            index_value=index_value,
            kdv_part=kdv_part,
            hill_part=hill_part,
            lower_bound_3I=index_lower_bound_poly(z),
            upper_bound_3I=index_upper_bound_poly(z),
            method="numeric",
            stable_by_index=index_value < 0,
        )

    def inner(self, z: float) -> InnerIndex | None:
        """The InnerIndex at ratio z: I_in = (1/3) (8 kdv_in + hill_in)."""
        if self.inner_kdv is None or self.inner_hill is None:
            return None
        value = (8.0 * _quadratic(self.inner_kdv, z) + _quadratic(self.inner_hill, z)) / 3.0
        return InnerIndex(value, self.border)

    def root(self, lo: float, hi: float) -> float:
        """The root of 3 I(z) = h00 - 2 z h01 + z^2 h11 nearest the midpoint of [lo, hi]."""
        h00, h01, h11 = (8.0 * k + h for k, h in zip(self.kdv, self.hill))
        # the two roots q / h11 and h00 / q, without cancellation
        q = h01 + math.copysign(math.sqrt(max(h01 * h01 - h00 * h11, 0.0)), h01)
        mid = 0.5 * (lo + hi)
        return min((q / h11, h00 / q), key=lambda z: abs(z - mid))


def standing_quadratic(
    a: float, grid: Grid, shared: tuple[np.ndarray, np.ndarray] | None = None
) -> StandingQuadratic:
    """Both parts' coefficients, one even-block factorization each, from
    shared = (phi, K_e): samples phi and the even block of their
    kernel_blocks (the verdict's, or by default the z = 1 standing pulse's,
    b = -a, and its kernel_even_block alone; GridTooSmall below its margin).

    Each part I + p K is solved by _part_gram, with the unit columns of the
    inner index; the hill part is certified from phi's samples (module
    docstring), so K's odd block is neither read nor built.
    """
    scale = 1.0 / _t_diagonal(a, 0.0, grid)  # C
    phi, even = _standing_samples(a, -a, grid) if shared is None else shared
    margin = 1.0 - max(float(np.max(phi)), 0.0)
    roundoff = grid.n_points * np.finfo(float).eps * float(np.max(np.abs(phi)))
    if not margin > roundoff:
        raise SolveFailure(f"hill part margin {margin:.3e} <= round-off {roundoff:.3e}")
    columns = _standing_columns(a, grid, phi)
    grams, inners, borders = zip(*(_part_gram(grid, even, columns, scale, p) for p in (2.0, -1.0)))
    kdv, hill, inner_kdv, inner_hill = (
        None if g is None else (float(g[0, 0]), 0.5 * float(g[0, 1] + g[1, 0]), float(g[1, 1]))
        for g in (*grams, *inners)
    )
    return StandingQuadratic(kdv, hill, inner_kdv, inner_hill, borders[0])


def _part_gram(grid: Grid, even: np.ndarray, columns, scale: np.ndarray, p: float):
    """(G, G_in, border) of _gram for part A = I + p K, C = diag(scale):
    A = p (K + I/p) is solved with K_e's own diagonal shifted by 1/p and
    restored after, G and G_in divided by p and border that of A's corner."""
    diagonal = even.diagonal().copy()
    even[np.diag_indices_from(even)] += 1.0 / p
    try:
        gram, inner, border = _gram(grid, even, columns, scale, inner=True)
    finally:
        np.fill_diagonal(even, diagonal)
    if inner is None:
        return gram / p, None, None
    # (A^(-1))_EE = (B^(-1))_EE / p
    return gram / p, inner / p, border if p > 0 else 2 - border


def _split_inner(
    params: AbcParameters, spec, grid: Grid, even: np.ndarray, phi: np.ndarray, s: float
) -> InnerIndex | None:
    """The InnerIndex of a split pulse whose phi is s times the samples
    phi of its anchor, and K s times the anchor's, from one solve per part.

    With P = R diag(p) R^T, r = (B f, f) is P e_2 (x) f, so
    (R^(-1) x I) r = (p_i R_1i f)_i and, in the cosine coefficients,
    I = sum_i (p_i R_1i)^2 <(I + p_i K)^(-1) C f, C f>; I_in is the same sum
    of the inner parts.
    None when a corner's sign is round-off (_gram).
    """
    p, rotation = _component_split(spec.B, spec.w)
    f = apply_multiplier(grid, 1.0 + params.b * grid.wavenumbers**2, s * phi)
    scale = 1.0 / _t_diagonal(params.a, 0.0, grid)  # C
    value, borders = 0.0, []
    for pk, weight in zip(p, rotation[1]):
        _, inner, border = _part_gram(grid, even, [f], scale, pk * s)
        if inner is None:
            return None
        value += (pk * weight) ** 2 * float(inner[0, 0])
        borders.append(border)
    return InnerIndex(value, borders[0])  # p_+ comes first


def case2_index(a: float, b: float, grid: Grid) -> IndexReport:
    """Index report of the standing pulse of (a, b), a = c < 0: its verdict's, bit for bit."""
    return standing_quadratic(a, grid, _standing_samples(a, b, grid)).report(b / -a)


def case1_index_closed_form(eta0: float, b: float) -> float:
    """Branch derivative d(w) = (144 sqrt(b) / 5) eta0 (4 + eta0) / (2 eta0 + 9).

    Valid for a = c = -b and eta0 in (-9/4, 0), on both sign branches (the
    sign flips of dB/deta0 and deta0/dw cancel).
    """
    if not b > 0:
        raise DomainError(f"b must be positive, got {b}")
    if not (-2.25 < eta0 < 0.0):
        raise DomainError(f"closed form requires eta0 in (-9/4, 0), got {eta0}")
    return (144.0 * math.sqrt(b) / 5.0) * eta0 * (4.0 + eta0) / (2.0 * eta0 + 9.0)


def _general_index(params: AbcParameters, wave, grid: Grid, even: np.ndarray) -> float:
    """<L^(-1) r, r> = <Lt^(-1) S r, S r>, r = (1 - b dxx)(psi, phi)^T = (B f, f)
    with f = (1 - b dxx) phi, from Lt's even block."""
    f = apply_multiplier(grid, 1.0 + params.b * grid.wavenumbers**2, wave.phi)
    rhs = np.concatenate([wave.B * f, f])
    scale = np.tile(smoothing_diagonal(params.b, grid), 2)
    return float(_gram(grid, even, [rhs], scale)[0, 0])


def general_index_numeric(params: AbcParameters, spec, wave, grid: Grid) -> float:
    """<L^(-1) RHS, RHS> with RHS = (1 - b dxx)(psi, phi)^T, solved on the
    even block of Lt; ReflectionDefect or KernelDefect if either is not even.
    """
    return _general_index(params, wave, grid, assemble_tilde_L(params, spec, wave, grid).even)


def index_route(params: AbcParameters, spec) -> str:
    """The one route the index of a pulse takes (index_source):
    "standing", "closed_form" or "numeric"."""
    if params.standing_branch(spec):
        return "standing"
    if params.kdv_scaling and -2.25 < spec.eta0 < 0.0:
        return "closed_form"
    return "numeric"


def _report(value: float, method: str) -> IndexReport:
    return IndexReport(
        index_value=value,
        kdv_part=None,
        hill_part=None,
        lower_bound_3I=None,
        upper_bound_3I=None,
        method=method,
        stable_by_index=value < 0,
    )


def index_source(
    params: AbcParameters, spec, wave, grid: Grid, blocks: ParityBlocks, split: ScalarSplit | None
) -> tuple[Callable[[AbcParameters, object], IndexReport], Callable | None]:
    """(index, inner): the index report and the InnerIndex of every pulse
    on this one's route, as functions of (params, spec), from the
    verdict's blocks and split: the split's K when L splits, else Lt's
    blocks and None.  inner is None off a split wave, and returns None
    where a corner's sign is round-off.

    The standing branch (a = c, eta0 = -3/2, w = 0) solves
    standing_quadratic here, on the wave's own phi and the even block of
    its K (the split's, or kernel_even_block's if L does not split), and
    each pulse reports at its own z with the bounds, and I_in from the same
    solves; the free-amplitude branch (a = c = -b, eta0 in (-9/4, 0)) takes
    the closed form of each pulse, and I_in from one solve per part on the
    anchor's K scaled by s = eta0 / anchor eta0 (_split_inner), when it is
    asked; every other pulse, whose L never splits, solves here on Lt's
    even block and reports for itself alone.  At the z = 1 coincidence,
    where both branches meet, the standing route wins.
    """
    _check_samples(wave, grid)
    route = index_route(params, spec)
    if route == "standing":
        even = split.kernel.even if split else kernel_even_block(params.a, grid, wave.phi)
        quadratic = standing_quadratic(params.a, grid, (wave.phi, even))
        return (
            lambda params, spec: quadratic.report(params.ratio_z),
            lambda params, spec: quadratic.inner(params.ratio_z),
        )
    if route == "closed_form":

        def index(params, spec):
            return _report(case1_index_closed_form(spec.eta0, params.b), route)

        if split is None:
            return index, None
        anchor = spec.eta0

        def inner(params, spec):
            s = spec.eta0 / anchor
            return _split_inner(params, spec, grid, split.kernel.even, wave.phi, s)

        return index, inner
    report = _report(_general_index(params, wave, grid, blocks.even), route)
    return (lambda params, spec: report), None


def critical_ratio_bisection(
    z_lo: float,
    z_hi: float,
    tol: float,
    grid: Grid,
) -> BisectionResult:
    """Bisect the sign change of the standing-wave index over z = b / (-a).

    a is fixed to -1 and b = z varies; by the scaling covariance
    index(a, b) = sqrt(-a) index(-1, b / (-a)) the crossing is independent
    of |a|.  The coefficients are computed once, and each evaluation is the
    quadratic that case2_index would report at that z.  The halving stops
    once the bracket is narrower than tol, or once it holds no double
    strictly inside it.  Raises DomainError unless both ends and tol are
    finite, tol > 0 and the index values are finite, and NoSignChange when
    the endpoint signs agree.
    """
    if not (math.isfinite(z_lo) and math.isfinite(z_hi) and z_lo < z_hi and 0 < tol < math.inf):
        raise DomainError(f"need finite z_lo < z_hi and finite tol > 0: ({z_lo}, {z_hi}, {tol})")

    quadratic = standing_quadratic(-1.0, grid)

    def value(z: float) -> float:
        return quadratic.report(z).index_value

    def result(z: float, lo: float, hi: float, iterations: int) -> BisectionResult:
        return BisectionResult(z, lo, hi, iterations, evaluations, quadratic.root(lo, hi))

    f_lo, f_hi = value(z_lo), value(z_hi)
    evaluations = 2
    for z, f in ((z_lo, f_lo), (z_hi, f_hi)):
        if not math.isfinite(f):
            raise DomainError(f"index is not finite at z={z} ({f})")
    if f_lo == 0.0:
        return result(z_lo, z_lo, z_lo, 0)
    if f_hi == 0.0:
        return result(z_hi, z_hi, z_hi, 0)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChange(
            f"index has the same sign at z={z_lo} ({f_lo:.4g}) and z={z_hi} ({f_hi:.4g})"
        )
    lo, hi = z_lo, z_hi
    iterations = 0
    while hi - lo >= tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # lo and hi are adjacent doubles: tol is below their spacing
            break
        f_mid = value(mid)
        evaluations += 1
        iterations += 1
        if f_mid == 0.0:
            return result(mid, mid, mid, iterations)
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return result(0.5 * (lo + hi), lo, hi, iterations)
