import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_case1, make_standing
from pulsestab.discretization import build_grid, derivative_of_samples
from pulsestab.errors import DomainError, GridTooSmall
from pulsestab.waves import (
    AbcParameters,
    SampledWave,
    WaveSpec,
    resolve_wave_parameters,
    sample_wave,
    traveling_residual,
)
from reference import inner_product


def test_standing_wave_parameters():
    params = AbcParameters(-1.0, 1.0, -1.0)
    spec = resolve_wave_parameters(params, -1.5, +1)
    assert spec.w == pytest.approx(0.0, abs=1e-15)
    assert spec.lam == pytest.approx(0.5, rel=1e-14)
    assert spec.B == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_case1_wave_parameters():
    # direct substitution: eta0 = -1 gives w = 1/sqrt(6), B = sqrt(3/2)
    params = AbcParameters(-1.0, 1.0, -1.0)
    spec = resolve_wave_parameters(params, -1.0, +1)
    assert spec.w == pytest.approx(0.4082482904638631, rel=1e-12)
    assert spec.B == pytest.approx(1.2247448713915890, rel=1e-12)
    assert spec.lam == pytest.approx(0.5, rel=1e-14)


@pytest.mark.parametrize("eta0", [-3.0, -3.5, 0.0])
def test_invalid_amplitudes_rejected(eta0):
    params = AbcParameters(-1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        resolve_wave_parameters(params, eta0)


def test_pinned_amplitude_mismatch():
    # a = c with a + b != 0 pins eta0 to -3/2
    params = AbcParameters(-1.0, 2.0, -1.0)
    with pytest.raises(DomainError):
        resolve_wave_parameters(params, -1.0)
    spec = resolve_wave_parameters(params, -1.5)
    assert spec.w == pytest.approx(0.0, abs=1e-15)


def test_unequal_dispersion_pulse_solves_system():
    # p = (c+b)/(a+b) = 1.5 pins eta0 = -2; the pulse still solves the system
    params = AbcParameters(a=-1.0, b=2.0, c=-0.5)
    spec = resolve_wave_parameters(params, -2.0)
    grid = build_grid(512, 40.0 / spec.lam)
    wave = sample_wave(spec, grid)
    r1, r2 = traveling_residual(wave, spec, params)
    assert max(r1, r2) < 1e-9


def test_negative_radicand_rejected():
    # p = (c+b)/(a+b) = 0.25 pins eta0 = 3, where the width radicand is -2
    params = AbcParameters(a=-4.0, b=1.0, c=-1.75)
    with pytest.raises(DomainError):
        resolve_wave_parameters(params, 3.0)


def test_supersonic_free_amplitude_pulse_resolves():
    params = AbcParameters(-1.0, 1.0, -1.0)
    spec = resolve_wave_parameters(params, -2.4)  # supersonic but a valid pulse
    assert abs(spec.w) > 1.0


def test_bad_sign_branch():
    params = AbcParameters(-1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        resolve_wave_parameters(params, -1.0, sign_branch=2)


def test_parameter_validation():
    with pytest.raises(DomainError):
        AbcParameters(1.0, 1.0, -1.0)
    with pytest.raises(DomainError):
        AbcParameters(-1.0, -1.0, -1.0)
    with pytest.raises(DomainError):
        AbcParameters(-1.0, 1.0, 1.0)
    params = AbcParameters(-4.0, 2.0, -1.0)
    assert params.ratio_z == pytest.approx(0.5)
    assert params.subsonic_bound == pytest.approx(1.0)  # sqrt(ac)/b = 1 here


@given(
    eta0=st.floats(min_value=-2.9, max_value=5.0).filter(lambda v: abs(v) > 1e-3),
    b=st.floats(min_value=0.1, max_value=10.0),
)
@settings(max_examples=200, deadline=None)
def test_branch_identities(eta0, b):
    params = AbcParameters(a=-b, b=b, c=-b)
    spec = resolve_wave_parameters(params, eta0)
    assert spec.B**2 * (3.0 + eta0) == pytest.approx(3.0, rel=1e-12)
    assert 3.0 * spec.w**2 * (3.0 + eta0) == pytest.approx((3.0 + 2.0 * eta0) ** 2, rel=1e-11, abs=1e-12)
    assert spec.lam == pytest.approx(1.0 / (2.0 * math.sqrt(b)), rel=1e-12)


def test_sign_symmetry():
    params, plus, grid, wave_plus = make_case1(-1.0, sign=+1, n=256)
    minus = resolve_wave_parameters(params, -1.0, -1)
    wave_minus = sample_wave(minus, grid)
    assert minus.w == -plus.w
    assert minus.B == -plus.B
    np.testing.assert_allclose(wave_minus.phi, wave_plus.phi, rtol=0, atol=0)
    r_plus = traveling_residual(wave_plus, plus, params)
    r_minus = traveling_residual(wave_minus, minus, params)
    assert r_plus == pytest.approx(r_minus, rel=1e-6, abs=1e-14)


def test_sampled_wave_structure(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    assert wave.phi[grid.n_points // 2] == pytest.approx(spec.eta0, rel=1e-14)  # x = 0
    np.testing.assert_allclose(wave.psi, spec.B * wave.phi, rtol=0, atol=1e-15)
    # even/odd structure on the symmetric grid
    assert abs(inner_product(wave.phi, derivative_of_samples(grid, wave.phi, 1), grid)) < 1e-12
    # boundary decay at the endpoints
    assert abs(wave.phi[0]) < 1e-12


def test_standing_profile_quadrature(standing_z1):
    params, spec, grid, wave = standing_z1
    assert wave.phi[grid.n_points // 2] == pytest.approx(-1.5, rel=1e-14)
    assert inner_product(wave.phi, wave.phi, grid) == pytest.approx(
        6.0 * math.sqrt(-params.a), rel=1e-10
    )


def test_grid_too_small():
    params = AbcParameters(-1.0, 1.0, -1.0)
    spec = resolve_wave_parameters(params, -1.5)  # lam = 1/2, needs L >= 80
    with pytest.raises(GridTooSmall):
        sample_wave(spec, build_grid(256, 60.0))


def test_decay_margin_allows_round_off():
    # lambda * (40 / lambda) rounds to 39.999... here, inside the margin's
    # round-off allowance; a grid short by 0.025% is still refused
    params, spec, grid, wave = make_standing(a=-0.875, b=0.875, n=64)
    assert spec.lam * grid.half_length < 40.0
    with pytest.raises(GridTooSmall):
        sample_wave(spec, build_grid(64, 39.99 / spec.lam))


def test_exact_wave_residuals():
    for eta0, b in [(-1.0, 1.0), (-2.0, 0.5), (-0.4, 2.0)]:
        params, spec, grid, wave = make_case1(eta0, b=b)
        r1, r2 = traveling_residual(wave, spec, params)
        assert max(r1, r2) < 1e-9
    params, spec, grid, wave = make_standing(a=-1.0, b=8.0)
    r1, r2 = traveling_residual(wave, spec, params)
    assert max(r1, r2) < 1e-9


def test_zero_profile_residual():
    params = AbcParameters(-1.0, 1.0, -1.0)
    spec = WaveSpec(eta0=0.0, lam=0.5, B=math.sqrt(2.0), w=0.0, sign_branch=+1)
    wave = sample_wave(spec, build_grid(128, 80.0))
    assert traveling_residual(wave, spec, params) == (0.0, 0.0)


def test_perturbed_profile_residual_scale(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    phi = wave.phi + 0.1 / np.cosh(spec.lam * grid.nodes) ** 2
    perturbed = SampledWave(grid=grid, phi=phi, psi=wave.psi)
    r1, r2 = traveling_residual(perturbed, spec, params)
    assert 0.01 < max(r1, r2) < 1.0
