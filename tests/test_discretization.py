import math

import numpy as np
import pytest

from conftest import make_case1, make_standing
from pulsestab import (
    AbcParameters,
    DomainError,
    HillSpec,
    InvalidGrid,
    ReflectionDefect,
    ReflectionParity,
    WaveSpec,
    assemble_J,
    assemble_JL,
    assemble_rotated_operator,
    assemble_scalar_operator,
    assemble_system_operator_L,
    assemble_tilde_L,
    build_grid,
    case1_diagonal_reduction,
    inner_product,
    sample_wave,
    smoother_power,
    spectral_derivative,
)
from pulsestab.discretization import (
    _derivative_symbol,
    derivative_of_samples,
    multiplier_matrix,
    standing_wave_profile,
)


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
    d1 = spectral_derivative(grid, 1).entries
    f = np.sin(math.pi * grid.nodes / grid.half_length)
    expected = (math.pi / grid.half_length) * np.cos(math.pi * grid.nodes / grid.half_length)
    assert np.max(np.abs(d1 @ f - expected)) < 1e-10


def test_derivative_matrix_structure():
    grid = build_grid(64, 5.0)
    d1 = spectral_derivative(grid, 1).entries
    d2 = spectral_derivative(grid, 2).entries
    assert np.max(np.abs(d1 @ np.ones(64))) < 1e-13
    assert np.max(np.abs(d1 + d1.T)) < 1e-12
    assert np.max(np.abs(d2 - d2.T)) < 1e-12
    assert np.max(np.linalg.eigvalsh(d2)) < 1e-12  # negative semidefinite
    with pytest.raises(ValueError):
        spectral_derivative(grid, 3)


def test_sech2_second_derivative_analytic():
    lam = 0.5
    grid = build_grid(512, 40.0 / lam)
    d2 = spectral_derivative(grid, 2).entries
    s2 = 1.0 / np.cosh(lam * grid.nodes) ** 2
    expected = 2 * lam**2 * s2 * (2.0 - 3.0 * s2)
    assert np.max(np.abs(d2 @ s2 - expected)) < 1e-8


@pytest.mark.parametrize("kind", ["order1", "order2", "smoother"])
def test_multiplier_matrix_matches_fft_of_identity(kind):
    grid = build_grid(128, 20.0)
    if kind == "smoother":
        symbol = (1.0 + 1.3 * grid.wavenumbers**2) ** -0.5
    else:
        symbol = _derivative_symbol(grid, int(kind[-1]))
    # reference: the multiplier applied to every unit vector
    spectral = np.fft.fft(np.eye(grid.n_points), axis=0)
    reference = np.real(np.fft.ifft(symbol[:, None] * spectral, axis=0))
    scale = np.max(np.abs(reference))
    np.testing.assert_allclose(multiplier_matrix(grid, symbol), reference, rtol=0, atol=1e-13 * scale)


def test_smoother_power_properties():
    grid = build_grid(128, 20.0)
    identity = smoother_power(grid, 1.3, 0.0).entries
    assert np.max(np.abs(identity - np.eye(128))) < 1e-13
    half = smoother_power(grid, 1.3, 0.5).entries
    full = smoother_power(grid, 1.3, 1.0).entries
    assert np.max(np.abs(half @ half - full)) < 1e-10
    with pytest.raises(DomainError):
        smoother_power(grid, -1.0, 0.5)


def test_smoother_inverse_on_decaying_profile():
    lam = 0.5
    grid = build_grid(512, 40.0 / lam)
    f = 1.0 / np.cosh(lam * grid.nodes) ** 2
    b = 2.0
    forward = f - b * derivative_of_samples(grid, f, 2)
    inverse = smoother_power(grid, b, -1.0).entries
    assert np.max(np.abs(inverse @ forward - f)) < 1e-9


def test_inner_product_table_and_parity(standing_z1):
    params, spec, grid, wave = standing_z1
    sa = math.sqrt(-params.a)
    assert inner_product(wave.phi, wave.phi, grid) == pytest.approx(6 * sa, rel=1e-8)
    assert inner_product(wave.phi_dxx, wave.phi_dxx, grid) == pytest.approx(
        6.0 / (7.0 * abs(params.a) * sa), rel=1e-8
    )
    assert abs(inner_product(wave.phi_dx, wave.phi, grid)) < 1e-12
    with pytest.raises(ValueError):
        inner_product(wave.phi[:-1], wave.phi, grid)


def test_system_operator_kernel_and_symmetry():
    params, spec, grid, wave = make_case1(-1.0, n=1024)
    lop = assemble_system_operator_L(params, spec, wave, grid)
    assert np.max(np.abs(lop.entries - lop.entries.T)) < 1e-12
    kernel = np.concatenate([wave.phi_dx, wave.psi_dx])
    assert np.max(np.abs(lop.entries @ kernel)) < 1e-8


def test_system_operator_zero_wave_blocks():
    params = AbcParameters(-1.0, 1.0, -2.0)
    spec = WaveSpec(eta0=0.0, lam=0.5, B=1.0, w=0.0, sign_branch=+1)
    grid = build_grid(128, 80.0)
    wave = sample_wave(spec, grid)
    lop = assemble_system_operator_L(params, spec, wave, grid).entries
    n = grid.n_points
    d2 = spectral_derivative(grid, 2).entries
    assert np.max(np.abs(lop[:n, :n] - (np.eye(n) + params.c * d2))) < 1e-12
    assert np.max(np.abs(lop[n:, n:] - (np.eye(n) + params.a * d2))) < 1e-12
    assert np.max(np.abs(lop[:n, n:])) < 1e-12


def test_tilde_L_kernel():
    params, spec, grid, wave = make_case1(-1.0, n=1024)
    tilde = assemble_tilde_L(params, spec, wave, grid).entries
    half = smoother_power(grid, params.b, 0.5).entries
    kernel = np.concatenate([half @ wave.phi_dx, half @ wave.psi_dx])
    assert np.max(np.abs(tilde @ kernel)) < 1e-8


def test_tilde_L_zero_wave_symbol_oracle():
    # with a zero profile the symmetrized operator is a pure Fourier symbol;
    # its eigenvalues are the 2x2 smoothed-symbol eigenvalues over grid xi
    params = AbcParameters(-1.0, 2.0, -1.5)
    spec = WaveSpec(eta0=0.0, lam=0.5, B=1.0, w=0.3, sign_branch=+1)
    grid = build_grid(64, 80.0)
    wave = sample_wave(spec, grid)
    tilde = assemble_tilde_L(params, spec, wave, grid).entries
    computed = np.sort(np.linalg.eigvalsh(tilde))
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
    tilde = assemble_tilde_L(params, spec, wave, grid).entries
    evals = np.linalg.eigvalsh(tilde)
    ztol = 1e-6 * max(abs(evals[0]), abs(evals[-1]))
    _, _, n_expected = case1_diagonal_reduction(spec.eta0, params.b)
    assert int(np.sum(evals < -ztol)) == n_expected == 1


@pytest.mark.parametrize("fixture", ["standing_z1", "case1_eta_minus1"])
def test_block_assembly_matches_explicit_products(fixture, request):
    params, spec, grid, wave = request.getfixturevalue(fixture)
    lop = assemble_system_operator_L(params, spec, wave, grid).entries
    s1 = smoother_power(grid, params.b, -0.5).entries
    zero = np.zeros_like(s1)
    smoother = np.block([[s1, zero], [zero, s1]])
    for assembled, expected in [
        (assemble_tilde_L(params, spec, wave, grid), smoother @ lop @ smoother),
        (assemble_JL(params, spec, wave, grid), assemble_J(params, grid).entries @ lop),
    ]:
        scale = np.max(np.abs(expected))
        assert np.max(np.abs(assembled.entries - expected)) <= 1e-13 * scale


def test_parity_fold_and_unfold(standing_z1):
    params, spec, grid, wave = standing_z1
    parity = ReflectionParity(grid)
    n = grid.n_points
    for even in (wave.phi, np.concatenate([wave.phi, wave.psi])):
        components = len(even) // n
        assert parity.fold(even, "even").shape == (components * (n // 2 + 1),)
        assert np.max(np.abs(parity.fold(even, "odd"))) < 1e-15 * np.max(np.abs(even))
    odd = wave.phi_dx
    assert parity.fold(odd, "odd").shape == (n // 2 - 1,)
    with pytest.raises(ValueError):
        parity.fold(wave.phi, "neither")
    with pytest.raises(ValueError):
        parity.fold(wave.phi[:-2], "even")


def test_parity_split_is_an_orthogonal_change_of_basis():
    grid = build_grid(32, 10.0)
    parity = ReflectionParity(grid)
    # fold(I) = P^T, so its transpose holds the basis vectors as columns
    identity = np.eye(grid.n_points)
    basis = np.vstack([parity.fold(identity, "even"), parity.fold(identity, "odd")]).T
    np.testing.assert_allclose(basis.T @ basis, np.eye(grid.n_points), rtol=0, atol=1e-15)
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((grid.n_points, grid.n_points))
    mirror = (-np.arange(grid.n_points)) % grid.n_points
    symmetric = matrix + matrix[np.ix_(mirror, mirror)]  # commutes with the reflection
    even, odd = parity.split(symmetric)
    m = grid.n_points // 2 + 1
    np.testing.assert_allclose(even, (basis.T @ symmetric @ basis)[:m, :m], rtol=0, atol=1e-13)
    np.testing.assert_allclose(odd, (basis.T @ symmetric @ basis)[m:, m:], rtol=0, atol=1e-13)
    with pytest.raises(ReflectionDefect):
        parity.split(matrix)


def test_jl_kernel_and_spectral_symmetry(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    jl = assemble_JL(params, spec, wave, grid).entries
    kernel = np.concatenate([wave.phi_dx, wave.psi_dx])
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
    jl = assemble_JL(params, spec, wave, grid).entries
    evals = np.linalg.eigvals(jl)
    assert np.max(np.abs(evals.real)) < 1e-10


def test_skew_antisymmetry_relations():
    params = AbcParameters(-1.0, 1.5, -1.0)
    grid = build_grid(64, 20.0)
    j = assemble_J(params, grid).entries
    assert np.max(np.abs(j + j.T)) < 1e-12
    d2 = spectral_derivative(grid, 2).entries
    n = grid.n_points
    zero = np.zeros((n, n))
    smooth2 = np.block([[np.eye(n) - params.b * d2, zero], [zero, np.eye(n) - params.b * d2]])
    assert np.max(np.abs(j.T @ smooth2 + smooth2 @ j)) < 1e-12
    d1 = spectral_derivative(grid, 1).entries
    j_tilde = -np.block([[zero, d1], [d1, zero]])
    assert np.max(np.abs(j_tilde + j_tilde.T)) < 1e-12


def test_scalar_operators_exact_identities():
    params, spec, grid, wave = make_standing(n=1024)
    kdv = assemble_scalar_operator("kdv", params, grid).entries
    hill = assemble_scalar_operator("hill", params, grid).entries
    phi = standing_wave_profile(params.a, grid)
    dphi = derivative_of_samples(grid, phi, 1)
    ddphi = derivative_of_samples(grid, phi, 2)
    assert np.max(np.abs(kdv @ dphi)) < 1e-8
    assert np.max(np.abs(hill @ (phi / 2) - (params.a * ddphi + phi))) < 1e-8


def test_generic_scalar_operator_free_case():
    grid = build_grid(256, 40.0)
    op = assemble_scalar_operator("generic", None, grid, hill=HillSpec(1.3, 1.0, 0.0))
    evals = np.linalg.eigvalsh(op.entries)
    assert evals[0] == pytest.approx(1.3**2, rel=1e-12)
    with pytest.raises(DomainError):
        assemble_scalar_operator("generic", None, grid)
    with pytest.raises(DomainError):
        assemble_scalar_operator("weird", None, grid)


def test_scalar_kinds_require_equal_dispersion():
    grid = build_grid(256, 80.0)
    params = AbcParameters(-1.0, 1.0, -2.0)
    with pytest.raises(DomainError):
        assemble_scalar_operator("kdv", params, grid)


def test_inertia_chain_exact_agreement():
    # congruence/similarity chain: L, rotated form, diagonalized Hill pair
    for eta0, b in [(-1.0, 1.0), (-1.5, 1.0), (-0.5, 2.0)]:
        params, spec, grid, wave = make_case1(eta0, b=b, n=256)
        lop = assemble_system_operator_L(params, spec, wave, grid).entries
        rot = assemble_rotated_operator(params, spec, wave, grid).entries
        ev_l = np.linalg.eigvalsh(lop)
        ev_m = np.linalg.eigvalsh(rot)
        np.testing.assert_allclose(ev_l, ev_m, rtol=0, atol=1e-9 * np.max(np.abs(ev_l)))
        tilde = assemble_tilde_L(params, spec, wave, grid).entries
        ev_t = np.linalg.eigvalsh(tilde)
        ztol_l = 1e-6 * np.max(np.abs(ev_l))
        ztol_t = 1e-6 * np.max(np.abs(ev_t))
        hill1, hill2, _ = case1_diagonal_reduction(eta0, b)
        pair = [
            assemble_scalar_operator("generic", None, grid, hill=hill1).entries,
            assemble_scalar_operator("generic", None, grid, hill=hill2).entries,
        ]
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
        tilde = assemble_tilde_L(params, spec, wave, grid).entries
        evals = np.linalg.eigvalsh(tilde)
        discrete[n] = evals[:2]  # negative eigenvalue and kernel
    np.testing.assert_allclose(discrete[384], discrete[768], rtol=0, atol=1e-8)
