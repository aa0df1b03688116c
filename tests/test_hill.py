import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import reference
from pulsestab.discretization import build_grid
from pulsestab.errors import DomainError, PoleError
from pulsestab.hill import (
    HillSpec,
    case1_diagonal_reduction,
    hill_nonnegativity_test,
    hill_spectrum_closed_form,
    poeschl_teller_levels,
)


def finite_difference_ground_state(Z, half_length=25.0, n=6000):
    """Independent oracle: FD eigensolve of -dyy - Z sech^2(y) on a fine grid."""
    x = np.linspace(-half_length, half_length, n)
    h = x[1] - x[0]
    main = 2.0 / h**2 - Z / np.cosh(x) ** 2
    off = -np.ones(n - 1) / h**2
    matrix = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.eigvalsh(matrix)[0]


def test_levels_empty_without_well():
    assert len(poeschl_teller_levels(0.0)) == 0
    assert len(poeschl_teller_levels(-3.0)) == 0


def test_levels_depth_two():
    # frozen from the FD oracle below (and exact: sqrt(2.25) - 0.5 = 1)
    levels = poeschl_teller_levels(2.0)
    np.testing.assert_allclose(levels, [-1.0], rtol=0, atol=1e-14)
    # second-order FD is O(h^2); one Richardson step removes the h^2 term
    coarse = finite_difference_ground_state(2.0, n=3000)
    fine = finite_difference_ground_state(2.0, n=6000)
    assert (4 * fine - coarse) / 3 == pytest.approx(-1.0, abs=1e-7)


def test_levels_depth_twelve():
    np.testing.assert_allclose(poeschl_teller_levels(12.0), [-9.0, -4.0, -1.0], atol=1e-13)


@given(Z=st.floats(min_value=0.01, max_value=400.0))
@settings(max_examples=200, deadline=None)
def test_levels_strictly_increasing(Z):
    levels = poeschl_teller_levels(Z)
    if len(levels) > 1:
        assert np.all(np.diff(levels) > 0)
    # threshold resonances (boundary equality) never enter the list
    assert np.all(levels < 0)


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_hill1_closed_spectrum(b):
    hill1, hill2, n = case1_diagonal_reduction(-1.0, b)
    spectrum = hill_spectrum_closed_form(hill1)
    expected = np.array([-5.0 / (4 * b), 0.0, 3.0 / (4 * b)])
    np.testing.assert_allclose(spectrum.discrete_eigenvalues, expected, rtol=0, atol=1e-13 / b)
    assert spectrum.negative_count == 1
    assert abs(spectrum.discrete_eigenvalues[1]) < 1e-13 / b  # second level exactly zero
    assert spectrum.essential_edge == pytest.approx(1.0 / b)


def test_repulsive_well_has_no_negative_spectrum():
    spectrum = hill_spectrum_closed_form(HillSpec(alpha=0.7, lam=1.2, Q=-3.0))
    assert spectrum.negative_count == 0
    assert len(spectrum.discrete_eigenvalues) == 0


def test_case1_second_operator_nonnegative():
    for eta0 in np.linspace(-2.2, -0.05, 12):
        hill1, hill2, n = case1_diagonal_reduction(float(eta0), 1.0)
        assert hill2.Q < 0
        assert hill_nonnegativity_test(hill2)
        assert n == 1


def test_case1_reduction_values():
    hill1, hill2, n = case1_diagonal_reduction(-1.0, 1.0)
    assert hill1.Q == pytest.approx(3.0)
    assert hill2.Q == pytest.approx(-0.6)
    assert hill1.alpha == pytest.approx(1.0)
    assert hill1.lam == pytest.approx(0.5)
    assert n == 1


def test_case1_reduction_domain_errors():
    with pytest.raises(PoleError):
        case1_diagonal_reduction(-2.25, 1.0)
    with pytest.raises(DomainError):
        case1_diagonal_reduction(-3.5, 1.0)
    with pytest.raises(DomainError):
        case1_diagonal_reduction(-1.0, -1.0)


def test_nonnegativity_boundary():
    assert hill_nonnegativity_test(HillSpec(1.0, 1.0, 2.0))  # ground state exactly 0
    assert not hill_nonnegativity_test(HillSpec(1.0, 1.0, 2.01))
    assert hill_nonnegativity_test(HillSpec(1.0, 1.0, -5.0))


@given(
    alpha=st.floats(min_value=0.0, max_value=3.0),
    lam=st.floats(min_value=0.05, max_value=3.0),
    Q=st.floats(min_value=-10.0, max_value=30.0),
)
@settings(max_examples=300, deadline=None)
@example(alpha=0.0, lam=1.0, Q=5.96e-8)  # ground state -3.6e-15, no mass term
def test_nonnegativity_iff_no_negative_levels(alpha, lam, Q):
    # stay off the exact nonnegativity boundary, where the two float paths
    # may round a zero ground state to opposite sides
    assume(abs(alpha**2 + alpha * lam - Q) > 1e-9)
    spec = HillSpec(alpha, lam, Q)
    closed = hill_spectrum_closed_form(spec).negative_count == 0
    assert hill_nonnegativity_test(spec) == closed


@given(
    alpha=st.floats(min_value=0.0, max_value=3.0),
    lam=st.floats(min_value=0.05, max_value=3.0),
    Q=st.floats(min_value=-10.0, max_value=30.0),
)
@settings(max_examples=300, deadline=None)
def test_lambda_scaling_covariance(alpha, lam, Q):
    original = hill_spectrum_closed_form(HillSpec(alpha, lam, Q)).discrete_eigenvalues
    rescaled = hill_spectrum_closed_form(
        HillSpec(alpha / lam, 1.0, Q / lam**2)
    ).discrete_eigenvalues
    assert len(original) == len(rescaled)
    if len(original):
        np.testing.assert_allclose(original, lam**2 * rescaled, rtol=1e-10, atol=1e-12)


def test_closed_form_matches_dense_eigensolve_random_sample():
    # 50 seeded (alpha, lam, Q) with Q in [-5, 20]: every sufficiently bound
    # closed-form level has a dense counterpart within 1e-6 at N=1024
    rng = np.random.default_rng(20240817)
    checked_levels = 0
    for _ in range(50):
        alpha = rng.uniform(0.3, 1.5)
        lam = rng.uniform(0.4, 1.6)
        Q = rng.uniform(-5.0, 20.0)
        spec = HillSpec(alpha, lam, Q)
        grid = build_grid(1024, 40.0 / lam)
        dense = np.linalg.eigvalsh(reference.generic_hill(grid, spec))
        closed = hill_spectrum_closed_form(spec).discrete_eigenvalues
        # levels too close to the essential edge are domain-truncation limited
        margin = (8.0 * lam / 40.0) ** 2
        resolvable = closed[closed < alpha**2 - margin]
        for level in resolvable:
            assert np.min(np.abs(dense - level)) < 1e-6
            checked_levels += 1
        n_dense_below = int(np.sum(dense < alpha**2 - margin))
        assert n_dense_below == len(resolvable)
    assert checked_levels > 30  # the sample genuinely exercises bound states
