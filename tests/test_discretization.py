import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import WAVE_CASES, make_case1, make_standing
from pulsestab.discretization import (
    _component_split,
    _derivative_symbol,
    apply_multiplier,
    assemble_JL,
    assemble_scalar_operator,
    assemble_system_operator_L,
    assemble_tilde_L,
    build_grid,
    derivative_of_samples,
    kernel_blocks,
    kernel_even_block,
    parity_coefficients,
    parity_wavenumbers,
    potential_blocks,
    scalar_split,
)
from pulsestab.errors import DomainError, InvalidGrid, ReflectionDefect
from pulsestab.hill import HillSpec, case1_diagonal_reduction
from pulsestab.waves import AbcParameters, WaveSpec, sample_wave
from reference import inner_product, smoother_power, spectral_derivative, to_physical


def block_eigenvalues(blocks):
    return np.sort(np.concatenate([np.linalg.eigvalsh(blocks.even), np.linalg.eigvalsh(blocks.odd)]))


def test_build_grid_validation():
    with pytest.raises(InvalidGrid):
        build_grid(15, 10.0)
    with pytest.raises(InvalidGrid):
        build_grid(129, 10.0)
    with pytest.raises(InvalidGrid):
        build_grid(8, 10.0)
    with pytest.raises(InvalidGrid):
        build_grid(128, 0.0)


def test_grid_fields():
    grid = build_grid(16, math.pi)
    assert np.allclose(np.diff(grid.nodes), 2 * math.pi / 16)
    grid = build_grid(512, 40.0)
    assert grid.quad_weight == pytest.approx(80.0 / 512)
    assert grid.quad_weight * grid.n_points == pytest.approx(2 * grid.half_length)
    assert set(np.round(grid.wavenumbers * grid.half_length / math.pi)) == set(
        range(-256, 256)
    )


def test_spectral_exactness_bandlimited():
    grid = build_grid(128, 10.0)
    f = np.sin(math.pi * grid.nodes / grid.half_length)
    expected = (math.pi / grid.half_length) * np.cos(math.pi * grid.nodes / grid.half_length)
    assert np.max(np.abs(derivative_of_samples(grid, f, 1) - expected)) < 1e-10


def test_derivative_matrix_structure():
    # the reference matrices the block assembly is compared against
    grid = build_grid(64, 5.0)
    d1 = spectral_derivative(grid, 1)
    d2 = spectral_derivative(grid, 2)
    assert np.max(np.abs(d1 @ np.ones(64))) < 1e-13
    assert np.max(np.abs(d1 + d1.T)) < 1e-12
    assert np.max(np.abs(d2 - d2.T)) < 1e-12
    assert np.max(np.linalg.eigvalsh(d2)) < 1e-12  # negative semidefinite


def test_sech2_second_derivative_analytic():
    lam = 0.5
    grid = build_grid(512, 40.0 / lam)
    s2 = 1.0 / np.cosh(lam * grid.nodes) ** 2
    expected = 2 * lam**2 * s2 * (2.0 - 3.0 * s2)
    assert np.max(np.abs(derivative_of_samples(grid, s2, 2) - expected)) < 1e-8


@pytest.mark.parametrize("kind", ["order1", "order2", "smoother"])
def test_multiplier_matrix_matches_fft_of_identity(kind):
    # the multiplier applied to every unit vector is, on the cosine and sine
    # bases, the diagonal of its symbol at xi_k; dx maps sin_k to xi_k cos_k
    grid = build_grid(128, 20.0)
    if kind == "smoother":
        symbol = (1.0 + 1.3 * grid.wavenumbers**2) ** -0.5
    else:
        symbol = _derivative_symbol(grid, int(kind[-1]))
    matrix = reference.multiplier_matrix(grid, symbol)
    scale = np.max(np.abs(matrix))
    even, odd = reference.parity_basis(grid)
    xi = parity_wavenumbers(grid)
    if kind == "order1":
        expected = np.zeros((len(xi), len(xi) - 2))
        expected[1:-1] = np.diag(xi[1:-1])
        blocks = [(even.T @ matrix @ odd, expected), (odd.T @ matrix @ even, -expected.T)]
    else:
        diagonal = symbol[: len(xi)].real
        blocks = [
            (even.T @ matrix @ even, np.diag(diagonal)),
            (odd.T @ matrix @ odd, np.diag(diagonal[1:-1])),
        ]
    for computed, expected in blocks:
        np.testing.assert_allclose(computed, expected, rtol=0, atol=1e-13 * scale)


def test_smoother_power_properties():
    grid = build_grid(128, 20.0)
    identity = smoother_power(grid, 1.3, 0.0)
    assert np.max(np.abs(identity - np.eye(128))) < 1e-13
    half = smoother_power(grid, 1.3, 0.5)
    full = smoother_power(grid, 1.3, 1.0)
    assert np.max(np.abs(half @ half - full)) < 1e-10


def test_smoother_inverse_on_decaying_profile():
    lam = 0.5
    grid = build_grid(512, 40.0 / lam)
    f = 1.0 / np.cosh(lam * grid.nodes) ** 2
    b = 2.0
    forward = f - b * derivative_of_samples(grid, f, 2)
    inverse = 1.0 / (1.0 + b * grid.wavenumbers**2)
    assert np.max(np.abs(apply_multiplier(grid, inverse, forward) - f)) < 1e-9


def test_inner_product_table_and_parity(standing_z1):
    params, spec, grid, wave = standing_z1
    sa = math.sqrt(-params.a)
    assert inner_product(wave.phi, wave.phi, grid) == pytest.approx(6 * sa, rel=1e-8)
    phi_dx, phi_dxx = (derivative_of_samples(grid, wave.phi, order) for order in (1, 2))
    assert inner_product(phi_dxx, phi_dxx, grid) == pytest.approx(
        6.0 / (7.0 * abs(params.a) * sa), rel=1e-8
    )
    assert abs(inner_product(phi_dx, wave.phi, grid)) < 1e-12
    with pytest.raises(ValueError):
        inner_product(wave.phi[:-1], wave.phi, grid)


def test_system_operator_kernel_and_symmetry():
    params, spec, grid, wave = make_case1(-1.0, n=1024)
    lop = to_physical(grid, assemble_system_operator_L(params, spec, wave, grid))
    assert np.max(np.abs(lop - lop.T)) < 1e-12
    kernel = reference.translation_mode(wave)
    assert np.max(np.abs(lop @ kernel)) < 1e-8


def test_system_operator_zero_wave_blocks():
    params = AbcParameters(-1.0, 1.0, -2.0)
    spec = WaveSpec(eta0=0.0, lam=0.5, B=1.0, w=0.0, sign_branch=+1)
    grid = build_grid(128, 80.0)
    wave = sample_wave(spec, grid)
    lop = to_physical(grid, assemble_system_operator_L(params, spec, wave, grid))
    n = grid.n_points
    d2 = spectral_derivative(grid, 2)
    assert np.max(np.abs(lop[:n, :n] - (np.eye(n) + params.c * d2))) < 1e-12
    assert np.max(np.abs(lop[n:, n:] - (np.eye(n) + params.a * d2))) < 1e-12
    assert np.max(np.abs(lop[:n, n:])) < 1e-12


def test_tilde_L_kernel():
    params, spec, grid, wave = make_case1(-1.0, n=1024)
    tilde = to_physical(grid, assemble_tilde_L(params, spec, wave, grid))
    half = smoother_power(grid, params.b, 0.5)
    kernel = np.concatenate([half @ d for d in np.split(reference.translation_mode(wave), 2)])
    assert np.max(np.abs(tilde @ kernel)) < 1e-8


def test_tilde_L_zero_wave_symbol_oracle():
    # with a zero profile the symmetrized operator is a pure Fourier symbol;
    # its eigenvalues are the 2x2 smoothed-symbol eigenvalues over grid xi
    params = AbcParameters(-1.0, 2.0, -1.5)
    spec = WaveSpec(eta0=0.0, lam=0.5, B=1.0, w=0.3, sign_branch=+1)
    grid = build_grid(64, 80.0)
    wave = sample_wave(spec, grid)
    computed = block_eigenvalues(assemble_tilde_L(params, spec, wave, grid))
    xi2 = grid.wavenumbers**2
    smooth = 1.0 + params.b * xi2
    t11 = (1.0 - params.c * xi2) / smooth
    t22 = (1.0 - params.a * xi2) / smooth
    t12 = -spec.w * (params.b * xi2 + 1.0) / smooth
    disc = np.sqrt(0.25 * (t11 - t22) ** 2 + t12**2)
    expected = np.sort(np.concatenate([0.5 * (t11 + t22) - disc, 0.5 * (t11 + t22) + disc]))
    np.testing.assert_allclose(computed, expected, rtol=0, atol=1e-10)


def test_tilde_L_inertia_matches_hill_pair(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    evals = block_eigenvalues(assemble_tilde_L(params, spec, wave, grid))
    ztol = 1e-6 * max(abs(evals[0]), abs(evals[-1]))
    _, _, n_expected = case1_diagonal_reduction(spec.eta0, params.b)
    assert int(np.sum(evals < -ztol)) == n_expected == 1


@pytest.mark.parametrize("fixture", ["standing_z1", "case1_eta_minus1"])
def test_block_assembly_matches_explicit_products(fixture, request):
    params, spec, grid, wave = request.getfixturevalue(fixture)
    lop = reference.system_operator_L(params, spec, wave, grid)
    smoother = np.kron(np.eye(2), smoother_power(grid, params.b, -0.5))
    for assembled, expected in [
        (assemble_tilde_L(params, spec, wave, grid), smoother @ lop @ smoother),
        (assemble_JL(params, spec, wave, grid), reference.J(params, grid) @ lop),
    ]:
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(to_physical(grid, assembled) - expected)) <= 1e-13 * scale


@pytest.mark.parametrize("b", [1.0, 2.5])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("eta0", [-2.24999, -2.2, -1.0, -0.1, -1e-4])
def test_free_split_factors_the_constant_and_potential_matrices(eta0, sign, b):
    # R R^T = W and R diag(p) R^T = P, also where 1 - w^2 nearly vanishes
    # and the two p lie five decades apart (eta0 -> -9/4 and eta0 -> 0)
    params, spec, grid, wave = make_case1(eta0, b=b, sign=sign, n=64)
    p, rotation = _component_split(spec.B, spec.w)
    weight = np.array([[1.0, -spec.w], [-spec.w, 1.0]])
    potential = np.array([[0.0, spec.B], [spec.B, 1.0]])
    for product, expected in [(rotation @ rotation.T, weight), (rotation * p @ rotation.T, potential)]:
        assert np.max(np.abs(product - expected)) <= 1e-14 * np.max(np.abs(expected))
    assert p[0] > 0 > p[1]
    split = scalar_split(params, spec, wave, grid)
    assert np.array_equal(split.p, p)
    assert np.array_equal(split.rotation, rotation)


@pytest.mark.parametrize("sign", [1, -1])
def test_split_at_rest_is_the_standing_closed_form(sign):
    # at w = 0 the general formulas reduce bit for bit to the rotation that
    # diagonalizes [[0, B], [B, 1]], B = +-sqrt(2)
    params, spec, grid, wave = make_standing(b=4.0, sign=sign, n=64)
    p, rotation = _component_split(spec.B, spec.w)
    closed_p = 0.5 * (1.0 + np.array([1.0, -1.0]) * np.sqrt(1.0 + 4.0 * spec.B**2))
    closed_rotation = np.array([[spec.B, spec.B], closed_p]) / np.hypot(spec.B, closed_p)
    assert np.array_equal(p, closed_p)
    assert np.array_equal(rotation, closed_rotation)
    split = scalar_split(params, spec, wave, grid)
    assert np.array_equal(split.p, closed_p)
    assert np.array_equal(split.rotation, closed_rotation)


@pytest.mark.parametrize("eta0", [-2.6, 0.5])
def test_supersonic_free_wave_stays_one_part(eta0):
    # |w| > 1 makes W indefinite, so no real R with R R^T = W exists
    params, spec, grid, wave = make_case1(eta0, n=64)
    assert abs(spec.w) > 1.0
    assert scalar_split(params, spec, wave, grid) is None


BLOCK_CASES = [
    (operator, case) for operator in ("Lt", "L", "JL") for case in sorted(WAVE_CASES)
] + [("kdv", "standing_z1"), ("hill", "standing_z1")]


@pytest.mark.parametrize("operator, case", BLOCK_CASES)
def test_parity_blocks_match_the_reference_on_the_explicit_basis(operator, case):
    # C^T A_ref C with C the sampled cosine and sine vectors; the reference
    # couples the two parities only at round-off, which the blocks drop
    params, spec, grid, wave = WAVE_CASES[case](256)
    if operator in ("kdv", "hill"):
        pick = ("kdv", "hill").index(operator)
        assembled = assemble_scalar_operator(params.a, grid, wave.phi)[pick]
        matrix = reference.scalar_operator(params.a, grid)[pick]
    else:
        assembler, build = {
            "Lt": (assemble_tilde_L, reference.tilde_L),
            "L": (assemble_system_operator_L, reference.system_operator_L),
            "JL": (assemble_JL, reference.JL),
        }[operator]
        assembled = assembler(params, spec, wave, grid)
        matrix = build(params, spec, wave, grid)
    radius = np.linalg.norm(matrix, 2)  # the spectral radius of the symmetric ones
    even, odd = reference.parity_basis(grid, len(matrix) // grid.n_points)
    if operator == "JL":  # maps each parity onto the other
        expected = [(assembled.even, odd.T @ matrix @ even), (assembled.odd, even.T @ matrix @ odd)]
        dropped = max(np.max(np.abs(even.T @ matrix @ even)), np.max(np.abs(odd.T @ matrix @ odd)))
    else:
        expected = [(assembled.even, even.T @ matrix @ even), (assembled.odd, odd.T @ matrix @ odd)]
        dropped = max(np.max(np.abs(odd.T @ matrix @ even)), np.max(np.abs(even.T @ matrix @ odd)))
    for block, projected in expected:
        assert block.shape == projected.shape
        assert np.max(np.abs(block - projected)) <= 1e-13 * radius
    assert dropped <= 1e-13 * radius


def test_parity_fold_and_unfold(standing_z1):
    # cosine and sine coefficients by FFT: the shapes, no sine part for an
    # even function, and P^T v for the explicit basis P
    params, spec, grid, wave = standing_z1
    n = grid.n_points
    for even in (wave.phi, np.concatenate([wave.phi, wave.psi])):
        components = len(even) // n
        cosine, sine = parity_coefficients(grid, even)
        assert cosine.shape == (components * (n // 2 + 1),)
        assert np.max(np.abs(sine)) < 1e-15 * np.max(np.abs(even))
        basis, _ = reference.parity_basis(grid, components)
        np.testing.assert_allclose(cosine, basis.T @ even, rtol=0, atol=1e-13 * np.max(np.abs(even)))
    odd = derivative_of_samples(grid, wave.phi, 1)
    cosine, sine = parity_coefficients(grid, odd)
    assert sine.shape == (n // 2 - 1,)
    assert np.max(np.abs(cosine)) < 1e-14 * np.max(np.abs(odd))
    _, basis = reference.parity_basis(grid)
    np.testing.assert_allclose(sine, basis.T @ odd, rtol=0, atol=1e-13 * np.max(np.abs(odd)))
    with pytest.raises(ValueError):
        parity_coefficients(grid, wave.phi[:-2])


@given(
    n=st.sampled_from([16, 64, 128, 256]),
    amplitude=st.floats(min_value=0.1, max_value=3.0),
    sign=st.sampled_from([1.0, -1.0]),
    width=st.floats(min_value=0.3, max_value=4.0),
    bump=st.floats(min_value=-1.0, max_value=1.0),
    mode=st.integers(min_value=0, max_value=4),
    a=st.floats(min_value=-3.0, max_value=-0.3),
)
@settings(max_examples=40, deadline=None)
def test_potential_block_spectra_are_the_samples(n, amplitude, sign, width, bump, mode, a):
    # an even v leaves the cosine and the sine functions invariant, so each
    # block's eigenvalues are v's samples, and C <= I bounds K = C V C by
    # max(max v, 0): the sample bound the index certifies I - K with.  K,
    # with C folded into the basis factors, is C P^T diag(v) P C for the
    # explicit parity basis P, and its even block alone is K's even block
    # bit for bit
    grid = build_grid(n, 20.0)
    x = grid.nodes
    v = sign * amplitude / np.cosh(x / width) ** 2
    v += bump * np.cos(np.pi * mode * x / grid.half_length)
    tol = n * np.finfo(float).eps * np.max(np.abs(v))
    blocks = potential_blocks(grid, v)
    for block, samples in ((blocks.even, v[: n // 2 + 1]), (blocks.odd, v[1 : n // 2])):
        assert np.max(np.abs(np.linalg.eigvalsh(block) - np.sort(samples))) <= tol
    # lambda_min(I - K) = 1 - lambda_max(K), read off K without I's round-off
    shared = kernel_blocks(a, grid, v)
    scale = 1.0 / np.sqrt(1.0 - a * parity_wavenumbers(grid) ** 2)  # C
    for block, basis, c in zip(
        (shared.even, shared.odd), reference.parity_basis(grid), (scale, scale[1:-1])
    ):
        assert np.linalg.eigvalsh(block)[-1] <= max(np.max(v), 0.0) + tol
        dense = c[:, None] * (basis.T @ (v[:, None] * basis)) * c
        assert np.max(np.abs(block - dense)) <= tol
    assert np.array_equal(kernel_even_block(a, grid, v), shared.even)


def test_parity_split_is_an_orthogonal_change_of_basis():
    grid = build_grid(32, 10.0)
    even_basis, odd_basis = reference.parity_basis(grid)
    basis = np.hstack([even_basis, odd_basis])
    np.testing.assert_allclose(basis.T @ basis, np.eye(grid.n_points), rtol=0, atol=1e-15)
    rng = np.random.default_rng(0)
    values = rng.standard_normal(grid.n_points)
    mirror = (-np.arange(grid.n_points)) % grid.n_points
    symmetric = values + values[mirror]  # an even potential
    blocks = potential_blocks(grid, symmetric)
    m = grid.n_points // 2 + 1
    rotated = basis.T @ np.diag(symmetric) @ basis
    np.testing.assert_allclose(blocks.even, rotated[:m, :m], rtol=0, atol=1e-13)
    np.testing.assert_allclose(blocks.odd, rotated[m:, m:], rtol=0, atol=1e-13)
    # every entry that builds blocks of a potential checks that it is even
    for build in (
        lambda v: potential_blocks(grid, v),
        lambda v: kernel_blocks(-1.0, grid, v),
        lambda v: kernel_even_block(-1.0, grid, v),
    ):
        with pytest.raises(ReflectionDefect):
            build(values)


def test_jl_kernel_and_spectral_symmetry(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    jl = to_physical(grid, assemble_JL(params, spec, wave, grid))
    kernel = reference.translation_mode(wave)
    assert np.max(np.abs(jl @ kernel)) < 1e-8
    evals = np.linalg.eigvals(jl)
    # spectrum symmetric under negation and conjugation (set-to-set distance)
    negation_defect = np.abs(evals[:, None] + evals[None, :]).min(axis=1).max()
    assert negation_defect < 1e-6
    conjugation_defect = np.abs(evals[:, None] - np.conj(evals)[None, :]).min(axis=1).max()
    assert conjugation_defect < 1e-6


def test_jl_zero_wave_purely_imaginary():
    params = AbcParameters(-1.0, 1.0, -1.0)
    spec = WaveSpec(eta0=0.0, lam=0.5, B=1.0, w=0.2, sign_branch=+1)
    grid = build_grid(64, 80.0)
    wave = sample_wave(spec, grid)
    jl = to_physical(grid, assemble_JL(params, spec, wave, grid))
    evals = np.linalg.eigvals(jl)
    assert np.max(np.abs(evals.real)) < 1e-10


def test_skew_antisymmetry_relations():
    params = AbcParameters(-1.0, 1.5, -1.0)
    grid = build_grid(64, 20.0)
    j = reference.J(params, grid)
    assert np.max(np.abs(j + j.T)) < 1e-12
    d2 = spectral_derivative(grid, 2)
    n = grid.n_points
    zero = np.zeros((n, n))
    smooth2 = np.block([[np.eye(n) - params.b * d2, zero], [zero, np.eye(n) - params.b * d2]])
    assert np.max(np.abs(j.T @ smooth2 + smooth2 @ j)) < 1e-12
    d1 = spectral_derivative(grid, 1)
    j_tilde = -np.block([[zero, d1], [d1, zero]])
    assert np.max(np.abs(j_tilde + j_tilde.T)) < 1e-12


def test_scalar_operators_exact_identities():
    params, spec, grid, wave = make_standing(n=1024)
    phi = wave.phi
    kdv, hill = (to_physical(grid, part) for part in assemble_scalar_operator(params.a, grid, phi))
    dphi = derivative_of_samples(grid, phi, 1)
    ddphi = derivative_of_samples(grid, phi, 2)
    assert np.max(np.abs(kdv @ dphi)) < 1e-8
    assert np.max(np.abs(hill @ (phi / 2) - (params.a * ddphi + phi))) < 1e-8


def test_generic_scalar_operator_free_case():
    grid = build_grid(256, 40.0)
    evals = np.linalg.eigvalsh(reference.generic_hill(grid, HillSpec(1.3, 1.0, 0.0)))
    assert evals[0] == pytest.approx(1.3**2, rel=1e-12)


def test_scalar_pair_requires_negative_a():
    # the standing pulse phi0 exists only for a < 0, whatever samples are given
    grid = build_grid(256, 80.0)
    phi = reference.standing_profile(-1.0, grid)
    for a in (0.0, 1.0):
        with pytest.raises(DomainError):
            assemble_scalar_operator(a, grid, phi)


def test_inertia_chain_exact_agreement():
    # congruence/similarity chain: L, rotated form, diagonalized Hill pair
    for eta0, b in [(-1.0, 1.0), (-1.5, 1.0), (-0.5, 2.0)]:
        params, spec, grid, wave = make_case1(eta0, b=b, n=256)
        ev_l = block_eigenvalues(assemble_system_operator_L(params, spec, wave, grid))
        ev_m = np.linalg.eigvalsh(reference.rotated_operator(params, spec, wave, grid))
        np.testing.assert_allclose(ev_l, ev_m, rtol=0, atol=1e-9 * np.max(np.abs(ev_l)))
        ev_t = block_eigenvalues(assemble_tilde_L(params, spec, wave, grid))
        ztol_l = 1e-6 * np.max(np.abs(ev_l))
        ztol_t = 1e-6 * np.max(np.abs(ev_t))
        hill1, hill2, _ = case1_diagonal_reduction(eta0, b)
        pair = [reference.generic_hill(grid, hill1), reference.generic_hill(grid, hill2)]
        ev_pair = np.concatenate([np.linalg.eigvalsh(m) for m in pair])
        n_l = int(np.sum(ev_l < -ztol_l))
        n_m = int(np.sum(ev_m < -ztol_l))
        n_t = int(np.sum(ev_t < -ztol_t))
        n_pair = int(np.sum(ev_pair < -ztol_l))
        assert n_l == n_m == n_t == n_pair


def test_spectral_convergence_under_refinement():
    # doubling N at fixed L moves the sub-gap eigenvalues by < 1e-8
    # (N = 384 already puts the spectral tail below 1e-10 at this length)
    discrete = {}
    for n in (384, 768):
        params, spec, grid, wave = make_case1(-1.0, n=n, lfac=40.0)
        evals = block_eigenvalues(assemble_tilde_L(params, spec, wave, grid))
        discrete[n] = evals[:2]  # negative eigenvalue and kernel
    np.testing.assert_allclose(discrete[384], discrete[768], rtol=0, atol=1e-8)
