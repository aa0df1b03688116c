import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import count_calls, make_case1, make_general, make_standing
from pulsestab import index_count, spectra
from pulsestab.discretization import (
    apply_multiplier,
    build_grid,
    derivative_of_samples,
    kernel_blocks,
)
from pulsestab.errors import (
    DomainError,
    IllConditioned,
    KernelDefect,
    NoSignChange,
    SolveFailure,
)
from pulsestab.index_count import (
    case1_index_closed_form,
    case2_index,
    critical_ratio_bisection,
    general_index_numeric,
    hill_index_numeric,
    index_lower_bound_poly,
    index_source,
    index_upper_bound_poly,
    kdv_index_numeric,
    standing_quadratic,
)
from pulsestab.waves import AbcParameters, resolve_wave_parameters, sample_wave
from reference import (
    closed_form_inner_products,
    inner_product,
    kdv_index_closed_form,
    standing_profile,
    standing_wave_a_derivative,
)


@pytest.fixture(scope="module")
def standing_grid():
    return build_grid(512, 80.0)  # a = -1: lam = 1/2, L = 40/lam


def test_inner_product_table_at_unit_a():
    table = closed_form_inner_products(-1.0)
    assert table.phi_a_phi == pytest.approx(-1.5)
    assert table.phi_phipp == pytest.approx(-1.2)
    assert table.phi_a_phipp == pytest.approx(-0.3)
    assert table.phi_phi == pytest.approx(6.0)
    assert table.phipp_phipp == pytest.approx(6.0 / 7.0)
    with pytest.raises(DomainError):
        closed_form_inner_products(1.0)


@pytest.mark.parametrize("a", [-0.5, -1.0, -2.0])
def test_inner_product_table_matches_quadrature(a):
    lam = 1.0 / (2.0 * math.sqrt(-a))
    grid = build_grid(1024, 40.0 / lam)
    phi = standing_profile(a, grid)
    phi_a = standing_wave_a_derivative(a, grid)
    phi_pp = derivative_of_samples(grid, phi, 2)
    table = closed_form_inner_products(a)
    assert inner_product(phi_a, phi, grid) == pytest.approx(table.phi_a_phi, rel=1e-8)
    assert inner_product(phi, phi_pp, grid) == pytest.approx(table.phi_phipp, rel=1e-8)
    assert inner_product(phi_a, phi_pp, grid) == pytest.approx(table.phi_a_phipp, rel=1e-8)
    assert inner_product(phi, phi, grid) == pytest.approx(table.phi_phi, rel=1e-8)
    assert inner_product(phi_pp, phi_pp, grid) == pytest.approx(table.phipp_phipp, rel=1e-8)


def test_table_scaling_homogeneity():
    values = [closed_form_inner_products(a).phi_phi / math.sqrt(-a) for a in (-0.3, -1.0, -4.0)]
    assert values[0] == pytest.approx(values[1]) == pytest.approx(values[2])


def test_amplitude_derivative_finite_difference():
    # centered finite differences in a validate the analytic phi_a
    a = -1.3
    step = 1e-5 * abs(a)
    # the decay margin of the widest of the three profiles, at a - step
    lam = 1.0 / (2.0 * math.sqrt(-(a - step)))
    grid = build_grid(512, 40.0 / lam)
    fd = (standing_profile(a + step, grid) - standing_profile(a - step, grid)) / (2 * step)
    analytic = standing_wave_a_derivative(a, grid)
    assert np.max(np.abs(fd - analytic)) < 1e-9


def test_kdv_inverse_identities(standing_grid):
    a, b = -1.0, 2.0
    grid = standing_grid
    v = reference.kdv_inverse_apply(a, b, grid)
    phi = standing_profile(a, grid, b)
    phi_a = standing_wave_a_derivative(a, grid)
    # the kdv operator maps phi_a to -phi''
    image = a * derivative_of_samples(grid, phi_a, 2) + phi_a + 2 * phi * phi_a
    assert np.max(np.abs(image + derivative_of_samples(grid, phi, 2))) < 1e-7
    f = reference.standing_rhs(a, b, grid)
    assert inner_product(v, f, grid) == pytest.approx(kdv_index_closed_form(a, b), rel=1e-6)


def test_kdv_inverse_collapses_at_equal_coefficients(standing_grid):
    # b = -a: the preimage reduces to -phi
    v = reference.kdv_inverse_apply(-1.0, 1.0, standing_grid)
    phi = standing_profile(-1.0, standing_grid)
    np.testing.assert_allclose(v, -phi, rtol=0, atol=1e-14)


def test_kdv_closed_form_values():
    # z = 1: the preimage is exactly -phi, so the value is the integral of
    # phi^3 = -(36/5) sqrt(-a); both oracles (quadrature and the even-block
    # solve) confirm -7.2 at a = -1
    assert kdv_index_closed_form(-1.0, 1.0) == pytest.approx(-7.2, rel=1e-14)
    # b -> 0 limit
    assert kdv_index_closed_form(-1.0, 1e-9) == pytest.approx(-4.5, rel=1e-6)
    # z = 10: quadratic and linear terms cancel, leaving -9/2 sqrt(-a)
    assert kdv_index_closed_form(-1.0, 10.0) == pytest.approx(-4.5, rel=1e-14)
    with pytest.raises(DomainError):
        kdv_index_closed_form(1.0, 1.0)


@pytest.mark.parametrize("z", [0.1, 1.0, 5.0, 10.0])
def test_kdv_numeric_matches_closed_form(z, standing_grid):
    numeric = kdv_index_numeric(-1.0, z, standing_grid)
    assert numeric == pytest.approx(kdv_index_closed_form(-1.0, z), rel=1e-6)


def projection_split(a, b, grid):
    """f = c (a phi'' + phi) + g: the coefficient c and |g|^2."""
    phi = standing_profile(a, grid, b)
    h = a * derivative_of_samples(grid, phi, 2) + phi
    f = reference.standing_rhs(a, b, grid)
    coeff = inner_product(f, h, grid) / inner_product(h, h, grid)
    g = f - coeff * h
    return coeff, inner_product(g, g, grid)


def test_hill_index_at_equal_coefficients(standing_grid):
    # b = -a: the remainder g vanishes and the quantity is
    # (1/2) <phi, f> = (1/2)(6 + 6/5) sqrt(-a) = 3.6 sqrt(-a)
    hill_part = hill_index_numeric(-1.0, 1.0, standing_grid)
    coeff, g_norm_sq = projection_split(-1.0, 1.0, standing_grid)
    assert hill_part == pytest.approx(3.6, rel=1e-9)
    assert coeff == pytest.approx(1.0, rel=1e-10)
    assert g_norm_sq == pytest.approx(0.0, abs=1e-12)


def test_hill_projection_coefficient_and_remainder(standing_grid):
    for z in (0.5, 4.0, 9.0):
        hill_part = hill_index_numeric(-1.0, z, standing_grid)
        coeff, g_norm_sq = projection_split(-1.0, z, standing_grid)
        assert coeff == pytest.approx(7.0 / 9.0 + 2.0 * z / 9.0, abs=1e-8)
        # |g|^2 = (2/5) sqrt(-a) (z - 1)^2, from the table
        assert g_norm_sq == pytest.approx(0.4 * (z - 1.0) ** 2, rel=1e-8)
        lower = math.sqrt(1.0) * ((4.0 / 45) * z**2 + (46.0 / 45) * z + 112.0 / 45)
        upper = math.sqrt(1.0) * ((22.0 / 45) * z**2 + (2.0 / 9) * z + 26.0 / 9)
        assert lower - 1e-9 < hill_part <= upper + 1e-9


def test_hill_part_refused_when_a_sample_reaches_one(monkeypatch, standing_grid):
    # the hill part is certified from the samples alone: -2 phi0 peaks at 3,
    # and the reference spectrum of its I - K (the even block) is indefinite
    grid = standing_grid
    phi = -2.0 * standing_profile(-1.0, grid)
    shared = kernel_blocks(-1.0, grid, phi)
    assert np.linalg.eigvalsh(np.eye(len(shared.even)) - shared.even)[0] < -0.5
    solves = count_calls(monkeypatch, index_count, "_gram")
    with pytest.raises(SolveFailure, match="hill part"):
        standing_quadratic(-1.0, grid, (phi, shared.even))
    assert solves == []  # refused before any solve


def numeric_route(name, standing_grid, case1):
    """One numeric index route: kdv or hill part at a = -1, z = 4, or general L."""
    if name == "general":
        params, spec, grid, wave = case1
        return general_index_numeric(params, spec, wave, grid)
    route = {"kdv": kdv_index_numeric, "hill": hill_index_numeric}[name]
    return route(-1.0, 4.0, standing_grid)


@pytest.mark.parametrize("route", ["kdv", "hill"])
def test_standing_routes_refuse_an_odd_right_hand_side(
    monkeypatch, standing_grid, case1_eta_minus1, route
):
    # c' is odd: 1e-3 of it overlaps the odd kernel far beyond the 1e-8 bound;
    # only the phi'' column is contaminated, so every column must be checked
    standing_columns = index_count._standing_columns

    def contaminated(a, grid, phi):
        columns = standing_columns(a, grid, phi)
        columns[1] += 1e-3 * derivative_of_samples(grid, columns[1], 1)
        return columns

    monkeypatch.setattr(index_count, "_standing_columns", contaminated)
    with pytest.raises(KernelDefect):
        numeric_route(route, standing_grid, case1_eta_minus1)


@pytest.mark.parametrize("route", ["kdv", "hill", "general"])
def test_index_routes_refuse_an_inaccurate_solve(
    monkeypatch, standing_grid, case1_eta_minus1, route
):
    # a relative error of 1e-4 in the solution leaves a residual far above 1e-6
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda matrix, rhs: solve(matrix, rhs) * (1.0 + 1e-4))
    with pytest.raises(IllConditioned):
        numeric_route(route, standing_grid, case1_eta_minus1)


def test_projection_norm_identity(standing_grid):
    # |a phi'' + phi|^2 = (324/35) sqrt(-a)
    grid = standing_grid
    phi = standing_profile(-1.0, grid)
    h = -derivative_of_samples(grid, phi, 2) + phi
    assert inner_product(h, h, grid) == pytest.approx(324.0 / 35.0, rel=1e-8)


def test_case2_index_coincidence_at_unit_ratio(standing_grid):
    report = case2_index(-1.0, 1.0, standing_grid)
    assert report.kdv_part == pytest.approx(-7.2, rel=1e-8)
    assert report.hill_part == pytest.approx(3.6, rel=1e-8)
    assert 3.0 * report.index_value == pytest.approx(-54.0, abs=1e-6)
    assert report.lower_bound_3I == pytest.approx(-54.0, rel=1e-14)
    assert report.upper_bound_3I == pytest.approx(-54.0, rel=1e-14)
    assert report.stable_by_index


def test_case2_index_sign_examples(standing_grid):
    assert case2_index(-1.0, 0.1, standing_grid).stable_by_index
    report = case2_index(-1.0, 12.0, standing_grid)
    assert not report.stable_by_index
    assert report.lower_bound_3I == pytest.approx((2.0 / 45) * 1106.0)
    assert report.lower_bound_3I > 0


def test_case2_bound_sandwich_over_ratio_grid(standing_grid):
    for z in np.linspace(0.1, 12.0, 15):
        report = case2_index(-1.0, float(z), standing_grid)
        normalized = 3.0 * report.index_value
        assert report.lower_bound_3I - 1e-6 <= normalized <= report.upper_bound_3I + 1e-6


def test_case2_scaling_covariance():
    # index(a, b) = sqrt(-a) index(-1, b/(-a))
    for a, b in [(-2.0, 3.0), (-0.5, 2.0)]:
        lam = 1.0 / (2.0 * math.sqrt(-a))
        grid_a = build_grid(512, 40.0 / lam)
        grid_unit = build_grid(512, 80.0)
        scaled = case2_index(a, b, grid_a).index_value
        unit = case2_index(-1.0, b / (-a), grid_unit).index_value
        assert scaled == pytest.approx(math.sqrt(-a) * unit, rel=1e-6)


def test_case1_closed_form_values():
    assert case1_index_closed_form(-1.0, 1.0) == pytest.approx(-432.0 / 35.0, rel=1e-14)
    # both sign branches read the one closed form
    verdicts = []
    for sign in (1, -1):
        params, spec, grid, wave = make_case1(-1.0, sign=sign, n=256)
        verdicts.append(spectra.stability_verdict(params, spec, wave, grid))
    plus, minus = verdicts
    assert plus.index_value == minus.index_value == case1_index_closed_form(-1.0, 1.0)
    for eta0 in np.linspace(-2.2, -0.05, 20):
        assert case1_index_closed_form(float(eta0), 1.0) < 0
    with pytest.raises(DomainError):
        case1_index_closed_form(-2.3, 1.0)
    with pytest.raises(DomainError):
        case1_index_closed_form(0.1, 1.0)


def test_case1_at_unit_ratio_matches_standing_route(standing_grid):
    # eta0 = -3/2 with b = -a lies on both closed-form routes
    assert case1_index_closed_form(-1.5, 1.0) == pytest.approx(
        case2_index(-1.0, 1.0, standing_grid).index_value, rel=1e-8
    )


@pytest.mark.parametrize("eta0", [-2.0, -1.0, -0.3])
def test_general_index_matches_case1(eta0):
    params, spec, grid, wave = make_case1(eta0)
    numeric = general_index_numeric(params, spec, wave, grid)
    assert numeric == pytest.approx(case1_index_closed_form(eta0, 1.0), rel=1e-4)


def test_general_index_matches_branch_derivative_oracle():
    # second oracle: the preimage is the w-derivative of the wave family,
    # so the index equals <RHS, d/dw (phi, psi)> by finite differences
    eta0, b = -1.0, 1.0
    params, spec, grid, wave = make_case1(eta0, b=b)
    step = 1e-6
    # the width lam depends only on b here, so all three waves share the grid
    _, spec_up, _, wave_up = make_case1(eta0 + step, b=b)
    _, spec_dn, _, wave_dn = make_case1(eta0 - step, b=b)
    dw = spec_up.w - spec_dn.w
    dphi_dw = (wave_up.phi - wave_dn.phi) / dw
    dpsi_dw = (wave_up.psi - wave_dn.psi) / dw
    symbol = 1.0 + b * grid.wavenumbers**2
    rhs_top = apply_multiplier(grid, symbol, wave.psi)
    rhs_bottom = apply_multiplier(grid, symbol, wave.phi)
    oracle = inner_product(rhs_top, dphi_dw, grid) + inner_product(rhs_bottom, dpsi_dw, grid)
    numeric = general_index_numeric(params, spec, wave, grid)
    assert numeric == pytest.approx(oracle, rel=1e-5)


@pytest.mark.parametrize("z", [1.0, 5.0])
def test_general_index_matches_case2(z):
    params, spec, grid, wave = make_standing(a=-1.0, b=z)
    numeric = general_index_numeric(params, spec, wave, grid)
    decomposed = case2_index(-1.0, z, grid).index_value
    assert numeric == pytest.approx(decomposed, rel=1e-4)


def test_index_report_routes(standing_z1, case1_eta_minus1):
    # z = 1 is on both closed-form branches; the standing route takes it
    def verdict_report(params, spec, wave, grid):
        operator, split = spectra._verdict_operator(params, spec, wave, grid)
        return index_source(params, spec, wave, grid, operator, split)[0](params, spec)

    params, spec, grid, wave = standing_z1
    standing = verdict_report(params, spec, wave, grid)
    assert standing == case2_index(params.a, params.b, grid)
    assert standing.lower_bound_3I == pytest.approx(-54.0)
    params, spec, grid, wave = case1_eta_minus1
    free = verdict_report(params, spec, wave, grid)
    assert free.method == "closed_form"
    assert free.index_value == case1_index_closed_form(-1.0, 1.0)
    assert free.lower_bound_3I is None
    # a != c pins the amplitude: eta0 = 3 (1 - 2p) / (2p), p = (c + b) / (a + b)
    params = AbcParameters(a=-1.0, b=2.0, c=-1.2)
    spec = resolve_wave_parameters(params, -1.125)
    grid = build_grid(256, 40.0 / spec.lam)
    wave = sample_wave(spec, grid)
    general = verdict_report(params, spec, wave, grid)
    assert general.method == "numeric"
    assert general.index_value == general_index_numeric(params, spec, wave, grid)
    assert general.kdv_part is None


def test_general_index_parity_defect(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    symbol = 1.0 + params.b * grid.wavenumbers**2
    rhs = np.concatenate(
        [apply_multiplier(grid, symbol, wave.psi), apply_multiplier(grid, symbol, wave.phi)]
    )
    kernel = reference.translation_mode(wave)
    kernel /= np.linalg.norm(kernel)
    assert abs(np.dot(kernel, rhs)) / np.linalg.norm(rhs) < 1e-10


def test_general_index_kernel_defect_raised(monkeypatch, case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    # contaminate the RHS with an odd component so it overlaps the kernel; a
    # wave with an odd part is refused earlier, as a ReflectionDefect
    gram = index_count._gram

    def contaminated(grid, block, columns, scale):
        (rhs,) = columns
        return gram(grid, block, [rhs + 0.05 * reference.translation_mode(wave)], scale)

    monkeypatch.setattr(index_count, "_gram", contaminated)
    with pytest.raises(KernelDefect):
        general_index_numeric(params, spec, wave, grid)


# z at which the coefficient triples must reproduce the single-right-hand-side
# solve: both sides of z = 1, the critical ratio and both unstable points
AGREEMENT_Z = (0.1, 1.0, 4.0, 9.98584, 10.5, 12.0, 12.5)


@pytest.mark.parametrize("n", [512, 1024])
def test_case2_parts_match_the_single_rhs_solve(n):
    grid = build_grid(n, 100.0)  # the threshold grid at a = -1
    for z in AGREEMENT_Z:
        report = case2_index(-1.0, z, grid)
        kdv_part, hill_part = reference.standing_index_parts(-1.0, z, grid)
        tolerance = 1e-12 * (8.0 * abs(kdv_part) + abs(hill_part)) / 3.0
        assert report.kdv_part == pytest.approx(kdv_part, rel=0, abs=tolerance), z
        assert report.hill_part == pytest.approx(hill_part, rel=0, abs=tolerance), z


@pytest.mark.parametrize("n", [512, 1024])
def test_bisection_midpoint_signs_match_the_single_rhs_solve(n):
    # rerun the bisection on the reference solve; at each midpoint the
    # quadratic must give the same sign, so the brackets coincide
    grid = build_grid(n, 100.0)
    quadratic = standing_quadratic(-1.0, grid)
    lo, hi = 9.0, 11.0
    while hi - lo >= 1e-3:
        mid = 0.5 * (lo + hi)
        kdv_part, hill_part = reference.standing_index_parts(-1.0, mid, grid)
        stable = 8.0 * kdv_part + hill_part < 0
        assert (quadratic.report(mid).index_value < 0) == stable, mid
        lo, hi = (mid, hi) if stable else (lo, mid)
    result = critical_ratio_bisection(9.0, 11.0, 1e-3, grid)
    assert (result.bracket_lo, result.bracket_hi) == (lo, hi)


@pytest.mark.parametrize("a", [-1.0, -4.0])
def test_numeric_kdv_coefficients_are_the_closed_form(a):
    # sqrt(-a) (-9/2 - 3 z + (3/10) z^2) = h00 - 2 z h01 + z^2 h11
    lam = 1.0 / (2.0 * math.sqrt(-a))
    grid = build_grid(512, 40.0 / lam)
    quadratic = standing_quadratic(a, grid)
    expected = [math.sqrt(-a) * c for c in (-4.5, 1.5, 0.3)]
    np.testing.assert_allclose(quadratic.kdv, expected, rtol=0, atol=1e-12)
    # the default builds K_e alone, bit for bit the even block of phi0's K
    phi = standing_profile(a, grid)
    assert standing_quadratic(a, grid, (phi, kernel_blocks(a, grid, phi).even)) == quadratic


def test_bisection_root_lies_in_its_bracket():
    grid = build_grid(512, 100.0)
    result = critical_ratio_bisection(9.0, 11.0, 1e-3, grid)
    assert result.bracket_lo <= result.z_root <= result.bracket_hi
    report = standing_quadratic(-1.0, grid).report(result.z_root)
    assert report.index_value == pytest.approx(0.0, abs=1e-10)


def test_bisection_brackets_the_crossing():
    grid = build_grid(512, 100.0)
    result = critical_ratio_bisection(9.0, 11.0, 1e-3, grid)
    stable_edge = (107.0 + 9.0 * math.sqrt(237.0)) / 26.0
    unstable_edge = (517.0 + 9.0 * math.sqrt(5385.0)) / 112.0
    assert stable_edge < result.z_star < unstable_edge
    assert result.bracket_hi - result.bracket_lo < 1e-3
    # index negative below, positive above
    assert case2_index(-1.0, result.bracket_lo, grid).index_value < 0
    assert case2_index(-1.0, result.bracket_hi, grid).index_value > 0


def test_bisection_monotone_refinement():
    grid = build_grid(384, 100.0)
    coarse = critical_ratio_bisection(9.5, 10.5, 4e-3, grid)
    fine = critical_ratio_bisection(9.5, 10.5, 2e-3, grid)
    assert coarse.bracket_lo <= fine.z_star <= coarse.bracket_hi


def test_bisection_no_sign_change():
    grid = build_grid(384, 100.0)
    with pytest.raises(NoSignChange):
        critical_ratio_bisection(0.5, 2.0, 1e-3, grid)
    with pytest.raises(DomainError):
        critical_ratio_bisection(2.0, 0.5, 1e-3, grid)
    # an infinite end never lets the bracket shrink: its midpoint is that end
    for z_lo, z_hi in ((-math.inf, 11.0), (9.0, math.inf)):
        with pytest.raises(DomainError, match="need finite"):
            critical_ratio_bisection(z_lo, z_hi, 1e-3, grid)
    # z^2 overflows in the quadratic: the index at that end has no sign
    with pytest.raises(DomainError, match=r"index is not finite at z=1e\+308"):
        critical_ratio_bisection(9.0, 1e308, 1e-3, grid)


def test_bound_polynomials_change_sign_at_analytic_roots():
    stable_edge = (107.0 + 9.0 * math.sqrt(237.0)) / 26.0
    unstable_edge = (517.0 + 9.0 * math.sqrt(5385.0)) / 112.0
    assert index_upper_bound_poly(stable_edge) == pytest.approx(0.0, abs=1e-10)
    assert index_lower_bound_poly(unstable_edge) == pytest.approx(0.0, abs=1e-10)
    assert index_upper_bound_poly(stable_edge - 1e-6) < 0
    assert index_lower_bound_poly(unstable_edge + 1e-6) > 0

@given(
    a=st.floats(min_value=-3.0, max_value=-0.3),
    z=st.floats(min_value=0.5, max_value=14.0),
    n=st.sampled_from([128, 256, 512]),
)
@settings(max_examples=40, deadline=None)
@example(a=-2.0, z=4.0, n=256)
def test_verdict_index_from_its_own_blocks_matches_the_scalar_pair(a, z, n):
    # the verdict reads the index from K = C V C of its own wave, exactly;
    # the standalone route samples the same pulse, and the reference solves
    # each scalar operator with f itself
    params, spec, grid, wave = make_standing(a=a, b=z * -a, n=n, lfac=50.0)
    report = spectra.stability_verdict(params, spec, wave, grid).index_report
    own = standing_quadratic(a, grid, (wave.phi, kernel_blocks(a, grid, wave.phi).even))
    assert report == own.report(params.ratio_z)
    assert case2_index(a, z * -a, grid) == report
    parts = np.array(reference.standing_index_parts(a, z * -a, grid))
    got = np.array([report.kdv_part, report.hill_part])
    assert np.linalg.norm(got - parts) <= 1e-12 * np.linalg.norm(parts)


@pytest.mark.parametrize(
    "make",
    [make_general, lambda n: make_case1(-2.6, n=n, lfac=50.0)],
    ids=["a-ne-c", "free-supersonic"],
)
def test_general_index_from_lt_matches_the_physical_solve(make):
    params, spec, grid, wave = make(256)
    operator, split = spectra._verdict_operator(params, spec, wave, grid)
    report = index_source(params, spec, wave, grid, operator, split)[0](params, spec)
    even, _ = reference.parity_basis(grid, 2)
    smoother = reference.smoother_power(grid, params.b, 1.0)
    rhs = even.T @ np.concatenate([smoother @ wave.psi, smoother @ wave.phi])
    lop = even.T @ reference.system_operator_L(params, spec, wave, grid) @ even
    expected = grid.quad_weight * np.linalg.solve(lop, rhs) @ rhs
    assert report.method == "numeric"
    assert report.index_value == pytest.approx(expected, rel=1e-12)
