"""Physical-space reference operators, built independently of the
cosine/sine assembly in pulsestab.discretization.

A multiplier is its symbol applied to every unit vector (the FFT of the
identity), a potential is a diagonal matrix, and compositions are explicit
matrix products.  parity_basis holds the cosine and sine basis vectors
sampled explicitly, so C^T A C gives the parity blocks of a reference matrix
A, and to_physical takes assembled blocks back to the grid.

The standing-branch references work with f = (1 - b dxx) phi itself: the
exact kdv preimage of f, and one even-block solve with f as the single
right-hand side (on the library's blocks), which the coefficient triples of
pulsestab.index_count must reproduce at every b.  The closed forms behind
the kdv part (the inner products of phi, phi_a and phi'', and
<kdv^(-1) f, f> itself) and the trapezoid inner product live here too.
"""

import math
from dataclasses import dataclass

import numpy as np

from pulsestab.discretization import (
    assemble_scalar_operator,
    derivative_of_samples,
    parity_coefficients,
)
from pulsestab.errors import DomainError
from pulsestab.waves import sample_wave, standing_pulse


def multiplier_matrix(grid, symbol):
    """Dense real matrix of the Fourier multiplier: the symbol applied to each unit vector."""
    spectral = np.fft.fft(np.eye(grid.n_points), axis=0)
    return np.real(np.fft.ifft(symbol[:, None] * spectral, axis=0))


def derivative_symbol(grid, order):
    symbol = (1j * grid.wavenumbers) ** order
    if order % 2 == 1:
        symbol[grid.n_points // 2] = 0.0  # the unpaired Nyquist mode
    return symbol


def spectral_derivative(grid, order):
    return multiplier_matrix(grid, derivative_symbol(grid, order))


def smoother_power(grid, b, power):
    """(1 - b dxx)^power as the multiplier (1 + b xi^2)^power."""
    return multiplier_matrix(grid, (1.0 + b * grid.wavenumbers**2) ** power)


def two_component(block11, block12, block22):
    return np.block([[block11, block12], [block12, block22]])


def system_operator_L(params, spec, wave, grid):
    eye = np.eye(grid.n_points)
    d2 = spectral_derivative(grid, 2)
    off = params.b * spec.w * d2 - spec.w * eye + np.diag(wave.psi)
    return two_component(eye + params.c * d2, off, eye + params.a * d2 + np.diag(wave.phi))


def translation_mode(wave):
    """(phi', psi'), the translation kernel of L, by spectral derivative."""
    return np.concatenate([derivative_of_samples(wave.grid, v, 1) for v in (wave.phi, wave.psi)])


def tilde_L(params, spec, wave, grid):
    half = smoother_power(grid, params.b, -0.5)
    smoother = np.kron(np.eye(2), half)
    return smoother @ system_operator_L(params, spec, wave, grid) @ smoother


def J(params, grid):
    """-dx (1 - b dxx)^(-1) swap."""
    k = spectral_derivative(grid, 1) @ smoother_power(grid, params.b, -1.0)
    zero = np.zeros_like(k)
    return -np.block([[zero, k], [k, zero]])


def JL(params, spec, wave, grid):
    return J(params, grid) @ system_operator_L(params, spec, wave, grid)


def rotated_operator(params, spec, wave, grid):
    """Pointwise orthogonal rotation of L for a = c:

        [[ (a + b w) dxx + (1 - w) + psi + phi/2,   phi/2                ],
         [ phi/2,   (a - b w) dxx + (1 + w) - psi + phi/2                ]]

    orthogonally similar to L on the grid.
    """
    eye = np.eye(grid.n_points)
    d2 = spectral_derivative(grid, 2)
    w = spec.w
    m11 = (params.a + params.b * w) * d2 + (1.0 - w) * eye + np.diag(wave.psi + 0.5 * wave.phi)
    m22 = (params.a - params.b * w) * d2 + (1.0 + w) * eye + np.diag(-wave.psi + 0.5 * wave.phi)
    return two_component(m11, np.diag(0.5 * wave.phi), m22)


def standing_profile(a, grid, b=None):
    """phi0 = -(3/2) sech^2(x / (2 sqrt(-a))) of the standing pulse of (a, b),
    b = -a by default, sampled by the package's one sampler."""
    return sample_wave(standing_pulse(a, -a if b is None else b), grid).phi


def scalar_operator(a, grid):
    """The scalar pair (kdv, hill) = (a dxx + 1 + 2 phi0, a dxx + 1 - phi0)."""
    phi0 = standing_profile(a, grid)
    base = a * spectral_derivative(grid, 2) + np.eye(grid.n_points)
    return base + np.diag(2.0 * phi0), base - np.diag(phi0)


def generic_hill(grid, hill):
    """-dxx + alpha^2 - Q sech^2(lambda x) for a HillSpec."""
    potential = hill.Q / np.cosh(hill.lam * grid.nodes) ** 2
    eye = np.eye(grid.n_points)
    return -spectral_derivative(grid, 2) + hill.alpha**2 * eye - np.diag(potential)


def hamiltonian_symmetry_defect(eigenvalues):
    """Largest distance from -conj(lambda) to the spectrum, over eigenvalues
    with |Re| > 1e-8.  Zero for a perfectly symmetric quartet structure."""
    active = eigenvalues[np.abs(eigenvalues.real) > 1e-8]
    if len(active) == 0:
        return 0.0
    defect = 0.0
    for lam in active:
        defect = max(defect, float(np.min(np.abs(eigenvalues - (-np.conj(lam))))))
    return defect


def parity_basis(grid, components=1):
    """Orthonormal cosine and sine basis vectors as columns: c_k cos(xi_k x_j),
    k = 0..N/2, and sqrt(2/N) sin(xi_k x_j), k = 1..N/2-1, per component."""
    n = grid.n_points
    k = np.arange(n // 2 + 1)
    # xi_k x_j = 2 pi k j / N - pi k; the angle is reduced exactly, mod 2 pi
    angle = 2.0 * np.pi * (np.outer(np.arange(n), k) % n) / n
    sign = (-1.0) ** k
    cosine = np.sqrt(2.0 / n) * sign * np.cos(angle)
    cosine[:, [0, -1]] /= np.sqrt(2.0)
    sine = np.sqrt(2.0 / n) * (sign * np.sin(angle))[:, 1:-1]
    stack = np.eye(components)
    return np.kron(stack, cosine), np.kron(stack, sine)


def to_physical(grid, blocks):
    """The grid matrix of assembled ParityBlocks; each block's row count
    tells which basis its image lies in (JL maps each parity onto the other)."""
    columns = blocks.even.shape[1] + blocks.odd.shape[1]
    even, odd = parity_basis(grid, columns // grid.n_points)

    def image(block):
        return even if len(block) == even.shape[1] else odd

    return image(blocks.even) @ blocks.even @ even.T + image(blocks.odd) @ blocks.odd @ odd.T


def inner_product(u, v, grid):
    """Quadrature inner product 2L/N * sum(u_j v_j)."""
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return float(grid.quad_weight * np.dot(u, v))


@dataclass(frozen=True)
class InnerProductTable:
    """Closed-form inner products of the standing-wave profile phi(x; a).

    phi = -(3/2) sech^2(x / (2 sqrt(-a))), phi_a its derivative in a.
    """

    phi_a_phi: float  # -3 / (2 sqrt(-a))
    phi_phipp: float  # -6 / (5 sqrt(-a))
    phi_a_phipp: float  # -3 / (10 |a| sqrt(-a))
    phi_phi: float  # 6 sqrt(-a)
    phipp_phipp: float  # 6 / (7 |a| sqrt(-a))


def closed_form_inner_products(a):
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    sa = math.sqrt(-a)
    return InnerProductTable(
        phi_a_phi=-1.5 / sa,
        phi_phipp=-1.2 / sa,
        phi_a_phipp=-0.3 / ((-a) * sa),
        phi_phi=6.0 * sa,
        phipp_phipp=6.0 / (7.0 * (-a) * sa),
    )


def standing_wave_a_derivative(a, grid):
    """Analytic derivative in a of the standing-wave profile.

    d/da [-(3/2) sech^2(lam(a) x)] = 3 lam'(a) x sech^2(lam x) tanh(lam x)
    with lam = 1 / (2 sqrt(-a)), lam' = 1 / (4 (-a)^(3/2)).
    """
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    lam = 1.0 / (2.0 * math.sqrt(-a))
    lam_a = 1.0 / (4.0 * (-a) ** 1.5)
    x = grid.nodes
    return 3.0 * lam_a * x / np.cosh(lam * x) ** 2 * np.tanh(lam * x)


def kdv_index_closed_form(a, b):
    """Closed form sqrt(-a) (-9/2 - 3 z + (3/10) z^2), z = b / (-a).

    Follows from the exact preimage (a + b) phi_a - phi paired with
    f = phi - b phi'' through the inner-product table; cross-validated by
    the even-block numeric solve to spectral accuracy.
    """
    if not (a < 0 and b > 0):
        raise DomainError(f"need a < 0 and b > 0, got a={a}, b={b}")
    z = b / (-a)
    return math.sqrt(-a) * (-4.5 - 3.0 * z + 0.3 * z * z)


def standing_rhs(a, b, grid):
    """f = (1 - b dxx) phi for the standing pulse of (a, b)."""
    phi = standing_profile(a, grid, b)
    return phi - b * derivative_of_samples(grid, phi, 2)


def kdv_inverse_apply(a, b, grid):
    """Exact preimage v = (a + b) phi_a - phi of f under the kdv operator.

    Verifies | (a dxx + 1 + 2 phi) v - f |_inf < 1e-7 and raises
    AssertionError otherwise.
    """
    phi = standing_profile(a, grid, b)
    v = (a + b) * standing_wave_a_derivative(a, grid) - phi
    f = standing_rhs(a, b, grid)
    residual = a * derivative_of_samples(grid, v, 2) + v + 2.0 * phi * v - f
    defect = float(np.max(np.abs(residual)))
    if defect >= 1e-7:
        raise AssertionError(f"kdv inverse identity residual {defect:.3e} >= 1e-7")
    return v


def standing_index_parts(a, b, grid):
    """(<kdv^(-1) f, f>, <hill^(-1) f, f>): one even-block solve per operator
    with f itself."""
    f_even, _ = parity_coefficients(grid, standing_rhs(a, b, grid))
    parts = []
    for blocks in assemble_scalar_operator(a, grid, standing_profile(a, grid, b)):
        u = np.linalg.solve(blocks.even, f_even)
        parts.append(float(grid.quad_weight * np.dot(u, f_even)))
    return tuple(parts)
