import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import (
    WAVE_CASES,
    count_calls,
    make_case1,
    make_general,
    make_standing,
    solve_shapes,
)
from pulsestab import discretization, index_count, spectra
from pulsestab.cli import main
from pulsestab.discretization import assemble_tilde_L, build_grid, derivative_of_samples
from pulsestab.errors import DomainError, NotSubsonic, ReflectionDefect, SolverError
from pulsestab.index_count import general_index_numeric
from pulsestab.spectra import (
    discrete_spectrum_tilde_L,
    essential_spectrum_gap,
    stability_verdict,
    unstable_modes_JL,
)
from pulsestab.waves import AbcParameters, WaveSpec


def test_tilde_spectrum_case1(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    report = discrete_spectrum_tilde_L(params, spec, wave, grid)
    assert report.negative_count == 1
    assert report.zero_modes == 1
    assert report.ess_spectrum_gap > 0
    assert np.all(np.diff(report.eigenvalues) >= 0)


def test_tilde_spectrum_standing_branch(standing_z1):
    params, spec, grid, wave = standing_z1
    report = discrete_spectrum_tilde_L(params, spec, wave, grid)
    assert report.negative_count == 1
    assert report.zero_modes == 1
    # flat smoothed band for b = -a: the edge sits exactly at 1 - |w| = 1
    assert report.ess_spectrum_gap == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("fixture", ["standing_z1", "case1_eta_minus1"])
def test_tilde_spectrum_blocks_match_full_eigensolve(fixture, request):
    params, spec, grid, wave = request.getfixturevalue(fixture)
    report = discrete_spectrum_tilde_L(params, spec, wave, grid)
    full = np.linalg.eigvalsh(reference.tilde_L(params, spec, wave, grid))
    radius = np.max(np.abs(full))
    np.testing.assert_allclose(report.eigenvalues, full, rtol=0, atol=1e-12 * radius)


@pytest.mark.parametrize("z", [1.0, 4.0, 12.5])
def test_standing_spectrum_from_the_split_matches_the_assembled_blocks(z):
    # on the standing branch R is orthogonal, so the parts T (I + p_i K) T
    # carry the eigenvalues of Lt's assembled two-component blocks
    params, spec, grid, wave = make_standing(b=z, n=256)
    report = discrete_spectrum_tilde_L(params, spec, wave, grid)
    lt = assemble_tilde_L(params, spec, wave, grid)
    assembled = np.sort(np.concatenate([np.linalg.eigvalsh(lt.even), np.linalg.eigvalsh(lt.odd)]))
    radius = np.max(np.abs(assembled))
    assert np.max(np.abs(report.eigenvalues - assembled)) <= 1e-13 * radius
    zero_tol = 1e-6 * radius
    assert report.negative_count == np.sum(assembled < -zero_tol)
    assert report.zero_modes == np.sum(np.abs(assembled) <= zero_tol)


@pytest.mark.parametrize(
    "fixture",
    [
        pytest.param("case1_eta_minus1", id="phi"),
        pytest.param("standing_z1", id="standing-phi"),
    ],
)
def test_tilde_spectrum_refuses_a_wave_with_an_odd_part(fixture, request):
    params, spec, grid, wave = request.getfixturevalue(fixture)
    # an odd part of phi (and so of psi = B phi) breaks the reflection
    # symmetry the parity blocks rely on; the standing wave meets it in the
    # one potential of its split parts, the free wave in that of Lt
    phi = wave.phi + 0.05 * derivative_of_samples(grid, wave.phi, 1)
    broken = dataclasses.replace(wave, phi=phi)
    with pytest.raises(ReflectionDefect) as raised:
        discrete_spectrum_tilde_L(params, spec, broken, grid)
    assert isinstance(raised.value, SolverError)
    with pytest.raises(ReflectionDefect):
        general_index_numeric(params, spec, broken, grid)


def test_counts_stable_under_refinement():
    for n in (512, 1024):
        params, spec, grid, wave = make_case1(-2.0, n=n)
        report = discrete_spectrum_tilde_L(params, spec, wave, grid)
        assert (report.negative_count, report.zero_modes) == (1, 1)


def test_jl_stable_wave(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    report = unstable_modes_JL(params, spec, wave, grid)
    assert report.max_real_part < 1e-6
    assert report.n_unstable == 0
    assert reference.hamiltonian_symmetry_defect(report.eigenvalues) < 1e-6


def test_jl_unstable_standing_wave():
    # z = 12 sits beyond the certified instability edge 10.51288
    params, spec, grid, wave = make_standing(a=-1.0, b=12.0, n=512, lfac=50.0)
    report = unstable_modes_JL(params, spec, wave, grid)
    assert report.n_unstable == 1
    unstable = report.eigenvalues[report.eigenvalues.real > 1e-6]
    assert len(unstable) == 1
    assert unstable[0].real > 1e-3
    assert abs(unstable[0].imag) < 1e-8  # real growth mode
    # -sigma partner present
    assert reference.hamiltonian_symmetry_defect(report.eigenvalues) < 1e-6


def test_jl_stable_standing_wave(standing_z1):
    params, spec, grid, wave = standing_z1
    report = unstable_modes_JL(params, spec, wave, grid)
    assert report.max_real_part < 1e-6


def test_symmetry_defect_helper():
    quartet = np.array([0.5 + 1j, 0.5 - 1j, -0.5 + 1j, -0.5 - 1j])
    assert reference.hamiltonian_symmetry_defect(quartet) == 0.0
    broken = np.array([0.5 + 1j, 0.5 - 1j])
    assert reference.hamiltonian_symmetry_defect(broken) == pytest.approx(1.0)
    imaginary_only = np.array([1j, -1j, 2j, -2j])
    assert reference.hamiltonian_symmetry_defect(imaginary_only) == 0.0


def test_essential_gap_standing_identity():
    # w = 0, a = c = -1, b = 1: the smoothed symbol is the identity
    params, spec, grid, wave = make_standing(n=128)
    assert essential_spectrum_gap(params, spec, grid) == pytest.approx(1.0, abs=1e-14)


def test_essential_gap_flat_band_case1():
    # a = c = -b: both smoothed symbol branches are constant 1 -/+ w
    for eta0 in (-2.0, -1.0, -0.5):
        params, spec, grid, wave = make_case1(eta0, n=128)
        kappa = essential_spectrum_gap(params, spec, grid)
        assert kappa == pytest.approx(1.0 - abs(spec.w), rel=1e-12)
        assert kappa > 0


def test_determinant_factorization_case1():
    # at a = c = -b = -1, w = 1/sqrt(6): det of the unsmoothed symbol is
    # (1 - w^2)(1 + xi^2)^2
    params, spec, grid, wave = make_case1(-1.0, n=512, lfac=50.0)
    xi2 = grid.wavenumbers**2
    det = (
        (1.0 - params.c * xi2) * (1.0 - params.a * xi2)
        - spec.w**2 * (params.b * xi2 + 1.0) ** 2
    )
    factored = (1.0 - spec.w**2) * (1.0 + xi2) ** 2
    assert np.max(np.abs(det - factored)) < 1e-10


def test_not_subsonic_raises():
    params = AbcParameters(-1.0, 1.0, -1.0)
    spec = WaveSpec(eta0=-2.25, lam=0.5, B=2.0, w=1.0, sign_branch=+1)
    grid = build_grid(128, 80.0)
    with pytest.raises(NotSubsonic):
        essential_spectrum_gap(params, spec, grid)


def test_supersonic_wave_reports_no_gap():
    params, spec, grid, wave = make_case1(-2.4, n=256)  # |w| > 1
    report = discrete_spectrum_tilde_L(params, spec, wave, grid)
    assert report.ess_spectrum_gap is None


def test_verdict_stable_case1():
    params, spec, grid, wave = make_case1(-1.5)
    verdict = stability_verdict(params, spec, wave, grid)
    assert verdict.verdict == "stable"
    assert verdict.n_tilde_L == 1
    assert verdict.index_sign == "neg"
    assert verdict.parity_rhs == 0
    assert verdict.n_unstable_direct == 0
    assert verdict.n_unstable_direct % 2 == verdict.parity_rhs


def test_verdict_unstable_beyond_threshold():
    params, spec, grid, wave = make_standing(a=-1.0, b=12.0, n=512, lfac=50.0)
    verdict = stability_verdict(params, spec, wave, grid)
    assert verdict.verdict == "unstable"
    assert verdict.index_sign == "pos"
    assert verdict.parity_rhs == 1
    assert verdict.n_unstable_direct == 1
    assert verdict.max_real_part > 1e-3


def test_verdict_in_bound_gap_resolved_by_index():
    # z = 10 sits between the bound roots 9.44436 and 10.51288, but the
    # numeric index is (barely) positive there: unstable by index.  The
    # emerging growth mode is too wide for any desk-scale domain, so the
    # direct count lags the index verdict this close to the crossing.
    params, spec, grid, wave = make_standing(a=-1.0, b=10.0, n=512, lfac=50.0)
    verdict = stability_verdict(params, spec, wave, grid)
    assert verdict.index_sign == "pos"
    assert verdict.verdict == "unstable"


def test_verdict_inconclusive_with_fat_tolerance():
    params, spec, grid, wave = make_case1(-1.0, n=512)
    verdict = stability_verdict(params, spec, wave, grid, index_tol=1e6)
    assert verdict.index_sign == "indeterminate"
    assert verdict.verdict == "inconclusive"


def test_verdict_resolution_robustness():
    # verdicts must not change when N doubles at fixed length
    for z in (1.0, 8.0, 12.0, 16.0):
        verdicts = []
        for n in (512, 1024):
            params, spec, grid, wave = make_standing(b=z, n=n, lfac=50.0)
            verdicts.append(stability_verdict(params, spec, wave, grid).verdict)
        assert verdicts[0] == verdicts[1], f"z={z}: {verdicts}"


def test_verdict_parity_identity_mixed_scan():
    # stable points plus well-separated unstable points; near the crossing
    # the growth mode is wider than the domain and is excluded on purpose
    stable_z = np.linspace(0.5, 9.0, 7)
    unstable_z = [12.0, 14.0, 16.0]
    for z in list(stable_z) + unstable_z:
        params, spec, grid, wave = make_standing(a=-1.0, b=float(z), n=512, lfac=50.0)
        verdict = stability_verdict(params, spec, wave, grid)
        assert verdict.n_tilde_L == 1
        assert verdict.n_unstable_direct % 2 == verdict.parity_rhs, f"z={z}"


# supersonic free-amplitude waves, whose odd block of Lt is indefinite
SUPERSONIC_CASES = {
    f"supersonic_eta0{eta0}": lambda n, eta0=eta0: make_case1(eta0, n=n, lfac=50.0)
    for eta0 in (-2.3, -2.6, -2.9)
}


# N = 128 on the standing cases: the rotated count against the reference
# where a spurious translation pair decides the answer
@pytest.mark.parametrize(
    "case, n",
    [(case, n) for case in sorted(WAVE_CASES) for n in (256, 512)]
    + [("standing_z1", 128), ("standing_z12", 128)]
    + [(case, n) for case in SUPERSONIC_CASES for n in (128, 256)],
)
def test_jl_parity_reduction_matches_full_eigensolve(case, n, monkeypatch):
    params, spec, grid, wave = {**WAVE_CASES, **SUPERSONIC_CASES}[case](n)
    full = np.linalg.eigvals(reference.JL(params, spec, wave, grid))
    calls = solve_shapes(monkeypatch)
    report = unstable_modes_JL(params, spec, wave, grid)
    # a semidefinite odd block gives the symmetric -M and no eigvals; an
    # indefinite one the signed reduced matrix, of the same size N - 2
    assert calls == ([(n - 2, n - 2)] if case in SUPERSONIC_CASES else [])
    re_tol = 1e-6
    assert report.n_unstable == int(np.sum(full.real > re_tol))
    growth = float(np.max(full.real))
    if growth > re_tol:
        # relative 1e-9, plus the reference's own round-off on a small mode:
        # an error eps_2 in lambda^2 moves lambda by eps_2 / (2 lambda), and
        # eigvals(JL) and eigvals(JL^T) differ by up to 1.6e-9 relative on
        # the spurious N = 256 translation pairs of about 2e-4
        assert abs(report.max_real_part - growth) <= 1e-9 * growth + 1e-15 / growth
    else:
        assert report.max_real_part <= re_tol
    assert len(report.eigenvalues) == len(full)
    radius = np.max(np.abs(full))
    np.testing.assert_allclose(
        np.sort(np.abs(report.eigenvalues)), np.sort(np.abs(full)), rtol=0, atol=1e-7 * radius
    )
    # the pairs +-sqrt(mu) are exact
    assert reference.hamiltonian_symmetry_defect(report.eigenvalues) == 0.0


def assert_counts_match_the_reference(case):
    # the verdict classifies the congruent parts I + p_i K of Lt and reduces
    # JL in their components; the counts are those of the physical-space
    # operators
    params, spec, grid, wave = case
    verdict = stability_verdict(params, spec, wave, grid)
    lt = np.linalg.eigvalsh(reference.tilde_L(params, spec, wave, grid))
    jl = np.linalg.eigvals(reference.JL(params, spec, wave, grid))
    assert verdict.n_tilde_L == int(np.sum(lt < -1e-6 * np.max(np.abs(lt))))
    assert verdict.n_unstable_direct == int(np.sum(jl.real > 1e-6))


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("eta0", [-2.6, -2.3, -2.2, -1.6, -1.0, -0.4, -0.1])
def test_free_verdict_counts_match_the_reference(eta0, sign):
    assert_counts_match_the_reference(make_case1(eta0, sign=sign, n=256))


@pytest.mark.parametrize("z", [1.0, 4.0, 10.5, 12.5])
def test_standing_verdict_counts_match_the_reference(z):
    # T = S C^-1 is not I here: the parts classified are congruent to Lt's
    # orthogonal parts, not equal to them
    assert_counts_match_the_reference(make_standing(b=z, n=256, lfac=50.0))


def shared_cases():
    standing = [
        pytest.param(make_standing, {"b": z, "sign": sign}, id=f"standing-z{z}-{sign}")
        for z in (1.0, 4.0, 12.5)
        for sign in (1, -1)
    ]
    free = [
        pytest.param(make_case1, {"eta0": eta0, "sign": sign}, id=f"free-eta0{eta0}-{sign}")
        for eta0 in (-2.2, -1.0, -0.1)
        for sign in (1, -1)
    ]
    return standing + free


def assert_shared_basis_rebuilds_lt(case):
    # (R x I) blockdiag(T (I + p_i K) T) (R x I)^T is Lt on both parities,
    # and with Q_i = T V_K Delta_i, Q_i Q_i^T is T (I + p_i K_o) T, the odd
    # block of part i of (R^-1 x I) Lt (R^-1 x I)^T
    params, spec, grid, wave = case
    blocks = spectra._tilde_L_blocks(params, spec, wave, grid)
    lt = discretization.assemble_tilde_L(params, spec, wave, grid)
    kappa, vectors = blocks.odd_eigen
    k_odd = vectors * kappa @ vectors.T
    t = blocks.t
    assert len(blocks.p) == 2
    for shared, block, scale in ((blocks.even, lt.even, t), (k_odd, lt.odd, t[1:-1])):
        parts = [scale[:, None] * (np.eye(len(scale)) + pk * shared) * scale for pk in blocks.p]
        columns = blocks.rotation.T
        rebuilt = sum(np.kron(np.outer(r, r), part) for r, part in zip(columns, parts))
        assert np.max(np.abs(rebuilt - block)) <= 1e-13 * np.max(np.abs(block))
    m = len(kappa)
    inverse = np.kron(np.linalg.inv(blocks.rotation), np.eye(m))
    parts_odd = inverse @ lt.odd @ inverse.T
    for i, pk in enumerate(blocks.p):
        part_odd = parts_odd[i * m : (i + 1) * m, i * m : (i + 1) * m]
        root = t[1:-1, None] * vectors * np.sqrt(np.maximum(1.0 + pk * kappa, 0.0))
        assert np.max(np.abs(root @ root.T - part_odd)) <= 1e-13 * np.max(np.abs(part_odd))


@pytest.mark.parametrize("make, kwargs", shared_cases())
def test_split_parts_share_the_eigenbasis_of_k(make, kwargs):
    assert_shared_basis_rebuilds_lt(make(n=256, **kwargs))


@given(a=st.floats(min_value=-3.0, max_value=-0.3), z=st.floats(min_value=0.5, max_value=14.0))
@settings(max_examples=40, deadline=None)
def test_shared_basis_identity_holds_over_a_and_z(a, z):
    assert_shared_basis_rebuilds_lt(make_standing(a=a, b=z * -a, n=64))


def test_jl_indefinite_odd_block_takes_the_signed_reduced_matrix(monkeypatch):
    # the supersonic free-amplitude wave has an odd block of Lt down to -1:
    # its mu are the eigenvalues of -diag(sigma) Q^T G Q, of size N - 2
    params, spec, grid, wave = make_case1(-2.6, n=128, lfac=50.0)
    assert np.min(spectra._tilde_L_blocks(params, spec, wave, grid).odd_values) < -0.5
    calls = solve_shapes(monkeypatch)
    report = unstable_modes_JL(params, spec, wave, grid)
    assert calls == [(126, 126)]
    assert report.n_unstable == 8


@pytest.mark.parametrize("case, assembled", [("standing_z1", 0), ("general", 1)])
def test_verdict_assembles_lt_only_unsplit_and_skips_the_essential_gap(
    monkeypatch, case, assembled
):
    # a split verdict diagonalizes K = C V C and builds no Lt; an a != c
    # verdict assembles its one two-component Lt once
    params, spec, grid, wave = WAVE_CASES[case](512)
    names = {
        "assemble_tilde_L": spectra,
        "assemble_JL": discretization,
        "essential_spectrum_gap": spectra,
    }
    calls = {name: count_calls(monkeypatch, module, name) for name, module in names.items()}
    stability_verdict(params, spec, wave, grid)
    assert {name: len(made) for name, made in calls.items()} == {
        "assemble_tilde_L": assembled,
        "assemble_JL": 0,
        "essential_spectrum_gap": 0,
    }


@pytest.mark.parametrize(
    "case, built", [("standing_z1", 1), ("case1_eta_minus1", 1), ("general", 1)]
)
def test_verdict_potential_block_count(monkeypatch, case, built):
    # standing: phi for the split L behind Lt, whose K the index reads too;
    # free amplitude: phi for the split L behind Lt and a closed-form index;
    # general: phi for Lt (psi = B phi), whose even block the index solves
    params, spec, grid, wave = WAVE_CASES[case](256)
    calls = count_calls(monkeypatch, discretization, "_potential_views")
    stability_verdict(params, spec, wave, grid)
    assert len(calls) == built


@pytest.mark.parametrize(
    "make, sizes",
    [
        (lambda n: make_standing(b=4.0, n=n), [255, 255, 257, 257]),
        (lambda n: make_case1(-1.0, n=n), [510, 514]),
        (make_general, [510, 514]),
    ],
    ids=["standing", "free", "general"],
)
def test_standalone_spectrum_keeps_its_solve_sizes(monkeypatch, make, sizes):
    # on the standing branch R is orthogonal, so the spectrum solves the
    # half-size S part_i S; every other wave solves Lt's two-component blocks
    params, spec, grid, wave = make(512)
    shapes = solve_shapes(monkeypatch, "eigvalsh")
    discrete_spectrum_tilde_L(params, spec, wave, grid)
    assert sorted(shapes) == [(size, size) for size in sizes]


def test_standalone_jl_report_keeps_the_essential_gap(case1_eta_minus1):
    params, spec, grid, wave = case1_eta_minus1
    report = unstable_modes_JL(params, spec, wave, grid)
    assert report.ess_spectrum_gap == pytest.approx(1.0 - abs(spec.w), rel=1e-12)


@pytest.mark.parametrize(
    "make, n, certified",
    [
        pytest.param(lambda n: make_standing(b=4.0, n=n), 512, True, id="standing"),
        pytest.param(lambda n: make_case1(-1.0, n=n), 512, True, id="free"),
        # unstable by index: the certificate is not tried
        pytest.param(
            lambda n: make_standing(b=12.0, n=n, lfac=50.0), 512, False, id="standing-index-pos"
        ),
        # the unresolved translation pair fails the certificate, and the
        # full count keeps its spurious unstable mode
        pytest.param(lambda n: make_standing(b=4.0, n=n), 128, False, id="standing-n128"),
    ],
)
def test_split_verdict_diagonalizes_the_shared_potential_once(monkeypatch, make, n, certified):
    # a stable verdict on a resolved grid takes the factor route: one
    # Cholesky factorization of K_o's p_+ part (N/2 - 1 rows) and one of the
    # reflected Schur complement of K_e's (N/2), and no eigensolve and no
    # -M.  Every other verdict takes the eigen route: one eigh of K's odd
    # block and one eigvalsh of its even block (N/2 + 1) serve both split
    # parts; at N - 2 a verdict with a negative index factors
    # -M + (re_tol/2)^2 I once, and every verdict it does not certify solves M
    names = ("eigh", "eigvalsh", "eigvals", "cholesky")
    shapes = {name: solve_shapes(monkeypatch, name) for name in names}
    reductions = count_calls(monkeypatch, spectra, "_negated_reduced_matrix")
    params, spec, grid, wave = make(n)
    verdict = stability_verdict(params, spec, wave, grid)
    reduced = (n - 2,) * 2
    # the index certifies its Hill part from the samples, so every Cholesky
    # factorization is the verdict's
    factored = shapes["cholesky"]
    assert shapes["eigvals"] == []
    if certified:
        assert factored == [(n // 2 - 1,) * 2, (n // 2,) * 2]
        assert shapes["eigh"] == shapes["eigvalsh"] == []
        assert reductions == []
        assert (verdict.verdict, verdict.n_unstable_direct, verdict.n_tilde_L) == ("stable", 0, 1)
        assert verdict.max_real_part == 0.5e-6
        return
    assert shapes["eigh"] == [(n // 2 - 1,) * 2]
    assert factored == ([] if verdict.index_sign == "pos" else [reduced])
    assert sorted(shapes["eigvalsh"]) == [(n // 2 + 1,) * 2, reduced]
    assert (verdict.verdict, verdict.n_unstable_direct) == ("unstable", 1)
    assert verdict.max_real_part > 1e-6


def test_eta0_scan_diagonalizes_one_basis_and_factors_each_row(monkeypatch, capsys):
    # the eight free rows share K_1's potential block; each row takes the
    # factor route on it (N = 512: all stable), with its own two half-size
    # Cholesky factorizations and one solve per part for its inner index, so
    # the basis is never diagonalized
    n = 512
    potentials = count_calls(monkeypatch, discretization, "_potential_views")
    names = ("eigh", "eigvalsh", "eigvals", "cholesky", "solve")
    shapes = {name: solve_shapes(monkeypatch, name) for name in names}
    code = main(["scan", "--param", "eta0", "--from", "-2", "--to", "-0.6", "--steps", "8",
                 "--a", "-1", "--b", "1", "--c", "-1", "--grid-n", str(n)])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0
    assert [row.rsplit(",", 1)[1] for row in rows] == ["stable"] * 8
    assert len(potentials) == 1
    assert shapes == {
        "eigh": [],
        "eigvalsh": [],
        "eigvals": [],
        "cholesky": [(n // 2 - 1,) * 2, (n // 2,) * 2] * 8,
        "solve": [(n // 2 + 1,) * 2] * 16,
    }


def test_z_scan_solves_one_standing_quadratic_and_one_eigh(monkeypatch, capsys):
    # rows z = 4 and 7 are stable on the factor route; z = 10 and 13 have a
    # positive index and take the eigen route, whose basis the first of
    # them diagonalizes for both
    quadratics = count_calls(monkeypatch, index_count, "standing_quadratic")
    eigh = solve_shapes(monkeypatch, "eigh")
    eigvalsh = solve_shapes(monkeypatch, "eigvalsh")
    factored = solve_shapes(monkeypatch, "cholesky")
    code = main(["scan", "--param", "z", "--from", "4", "--to", "13", "--steps", "4",
                 "--grid-n", "512"])
    assert code == 0
    rows = capsys.readouterr().out.splitlines()
    assert [row.rsplit(",", 1)[1] for row in rows[1:]] == ["stable"] * 2 + ["unstable"] * 2
    assert len(quadratics) == 1
    assert eigh == [(255, 255)]
    assert eigvalsh == [(257, 257), (510, 510), (510, 510)]
    assert factored == [(255, 255), (256, 256)] * 2


@pytest.mark.parametrize(
    "tolerances",
    [{"re_tol": -1e-6}, {"re_tol": 0.0}, {"index_tol": math.inf}, {"zero_tol": math.nan}],
    ids=["re_tol-negative", "re_tol-zero", "index_tol-inf", "zero_tol-nan"],
)
def test_verdict_refuses_a_tolerance_that_is_not_positive_and_finite(monkeypatch, tolerances):
    # re_tol < 0 would count every eigenvalue of JL as unstable; each entry
    # refuses such a tolerance before it builds anything
    params, spec, grid, wave = make_standing(b=4.0, n=512)
    potentials = count_calls(monkeypatch, discretization, "_potential_views")
    basis = spectra.verdict_basis(params, spec, wave, grid)
    key = next(iter(tolerances))
    with pytest.raises(DomainError, match=f"{key} must be positive and finite"):
        stability_verdict(params, spec, wave, grid, **tolerances)
    with pytest.raises(DomainError, match=key):
        spectra.row_verdict(basis, params, spec, **tolerances)
    with pytest.raises(DomainError, match=key):
        next(spectra.scan_verdicts([(params, spec)], grid, **tolerances))
    assert len(potentials) == 1  # the basis built here, and nothing after


@given(
    case=st.one_of(
        st.tuples(st.just("standing"), st.floats(min_value=0.5, max_value=14.0)),
        st.tuples(
            st.just("free"),
            st.floats(min_value=-2.2, max_value=-0.1, exclude_min=True, exclude_max=True),
        ),
    ),
    n=st.sampled_from([128, 256, 512]),
)
@settings(max_examples=40, deadline=None)
def test_certified_direct_count_has_no_unstable_mu(case, n):
    # a completed Cholesky of -M + (re_tol/2)^2 I must mean that the full
    # eigvalsh of the same M finds no mu above re_tol^2
    branch, value = case
    if branch == "standing":
        params, spec, grid, wave = make_standing(b=value, n=n, lfac=50.0)
    else:
        params, spec, grid, wave = make_case1(value, n=n, lfac=50.0)
    blocks = spectra._tilde_L_blocks(params, spec, wave, grid)
    reduced, signs = spectra._negated_reduced_matrix(grid, blocks)
    assert np.all(signs > 0)  # every subsonic a = c odd block is semidefinite
    before = reduced.copy()
    re_tol = 1e-6
    certified = spectra._below_shift(reduced, (0.5 * re_tol) ** 2)
    assert np.array_equal(reduced, before)  # the shift is undone exactly
    if certified:
        assert np.max(-np.linalg.eigvalsh(reduced)) <= re_tol**2


def split_wave(case, sign, n):
    branch, first, second = case
    if branch == "standing":
        return make_standing(a=first, b=second * -first, sign=sign, n=n, lfac=50.0)
    return make_case1(second, b=first, sign=sign, n=n, lfac=50.0)


@given(
    case=st.one_of(
        st.tuples(
            st.just("standing"),
            st.floats(min_value=-3.0, max_value=-0.3),
            st.floats(min_value=0.5, max_value=14.0),
        ),
        st.tuples(
            st.just("free"),
            st.floats(min_value=0.5, max_value=3.0),
            # a pulse of amplitude below 1e-3 is wider than the doubles resolve
            st.floats(min_value=-2.25, max_value=-1e-3, exclude_min=True),
        ),
    ),
    sign=st.sampled_from([1, -1]),
    n=st.sampled_from([512, 1024]),
    zero_tol=st.sampled_from([None, 1e-4]),
)
@settings(max_examples=30, deadline=None)
# a pulse this shallow is one the eigen route does not certify: it counts
# JL's spectrum instead
@example(case=("free", 1.4146088229512928, -0.0015588132323936352), sign=1, n=512, zero_tol=None)
def test_factor_route_decides_only_what_the_eigen_route_decides(case, sign, n, zero_tol):
    # whenever the two half-size factorizations decide a split row, the
    # eigen route (its eigh, eigvalsh and -M) gives the same counts and
    # verdict, and the same max_real_part re_tol/2 whenever its own
    # certificate completes
    params, spec, grid, wave = split_wave(case, sign, n)
    basis = spectra.verdict_basis(params, spec, wave, grid)
    verdict = spectra.row_verdict(basis, params, spec, zero_tol)
    if not (
        verdict.index_sign == "neg"
        and spectra._factor_stable(basis, params, spec, zero_tol, 1e-6, 1e-6)
    ):
        return
    n_tilde, n_unstable, max_real_part = spectra._eigen_counts(
        basis, params, spec, "neg", zero_tol, 1e-6
    )
    assert (verdict.n_tilde_L, verdict.n_unstable_direct) == (n_tilde, n_unstable) == (1, 0)
    assert (verdict.verdict, verdict.max_real_part) == ("stable", 0.5e-6)
    if max_real_part != 0.5e-6:
        # the eigen route did not certify (a translation eigenvalue classified
        # negative beyond round-off, or a failed Cholesky factorization), and
        # its max_real_part is the largest real part of JL's spectrum, which
        # has no mode above re_tol
        blocks = spectra._row_blocks(basis, params, spec)
        reduced, signs = spectra._negated_reduced_matrix(grid, blocks)
        assert not (np.all(signs > 0) and spectra._below_shift(reduced, 0.25e-12))
        assert max_real_part <= 1e-6


def deflated_mu(params, spec, wave, grid):
    # the mu of -M with the translation's row and column removed: Q's
    # column at the p_+ part's odd eigenvalue nearest zero is the
    # translation, so range(Q) without it is the translation's complement
    blocks = spectra._tilde_L_blocks(params, spec, wave, grid)
    reduced, signs = spectra._negated_reduced_matrix(grid, blocks)
    assert np.all(signs > 0)
    translation = int(np.argmin(np.abs(blocks.odd_values)))
    keep = np.arange(len(reduced)) != translation
    return -np.linalg.eigvalsh(reduced[np.ix_(keep, keep)])


# z_L, the root of the standing I_in(z) at lambda L = 50 (a = -1); the top mu
# off the translation is -1.212e-6 at z_L - 0.01 and +1.211e-6 at z_L + 0.01
Z_L = 11.71798


@pytest.mark.parametrize("n", [512, 1024])
@pytest.mark.parametrize("offset, top", [(-0.01, -1.212e-6), (0.01, 1.211e-6)])
def test_inner_count_is_the_deflated_direct_count_across_z_l(n, offset, top):
    # k_r = n(Lt_e,inner) - [I_in < 0], n(Lt_e,inner) = n(A) - border for
    # the kdv part A = I + 2 K_e (the hill part is >= I), equals the number
    # of mu > 0 off the translation on each side of z_L, where I_in and the
    # top mu change sign
    params, spec, grid, wave = make_standing(b=Z_L + offset, n=n, lfac=50.0)
    basis = spectra.verdict_basis(params, spec, wave, grid)
    inner = basis.factor.inner(params, spec)
    kernel = basis.factor.split.kernel.even
    assert np.sum(np.linalg.eigvalsh(np.eye(len(kernel)) + 2.0 * kernel) < 0) == 1
    assert inner.border == 0
    assert (inner.value < 0) == (offset < 0)
    mu = deflated_mu(params, spec, wave, grid)
    assert 1 - inner.border - int(inner.value < 0) == int(np.sum(mu > 0))
    assert np.max(mu) == pytest.approx(top, rel=0.01)


@pytest.mark.parametrize(
    "case", [("standing", -1.0, 4.0), ("free", 1.0, -1.0)], ids=["standing", "free"]
)
def test_factor_route_declines_an_unresolved_translation_before_factoring(monkeypatch, case):
    # at N = 128 the translation's Rayleigh quotient d0 is 1e-1, far above
    # (re_tol/2)^2: the route declines before any factorization, and the
    # row keeps the eigen route's counts, its spurious unstable pair included
    params, spec, grid, wave = split_wave(case, 1, 128)
    basis = spectra.verdict_basis(params, spec, wave, grid)
    factored = solve_shapes(monkeypatch, "cholesky")
    solved = solve_shapes(monkeypatch, "solve")
    assert not spectra._factor_stable(basis, params, spec, None, 1e-6, 1e-6)
    assert factored == solved == []
    verdict = spectra.row_verdict(basis, params, spec)
    counts = spectra._eigen_counts(basis, params, spec, verdict.index_sign, None, 1e-6)
    assert (verdict.n_tilde_L, verdict.n_unstable_direct, verdict.max_real_part) == counts
    assert (verdict.verdict, verdict.n_unstable_direct) == ("unstable", 1)
