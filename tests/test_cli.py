import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import count_calls, solve_shapes
from pulsestab import cli, discretization, index_count, spectra
from pulsestab.errors import DomainError, EigensolveFailure
from pulsestab.cli import main

FAST = ["--grid-n", "512"]

# the last z the quadratic index bounds certify stable, and the first they
# certify unstable: z* lies between them
STABLE_EDGE = (107.0 + 9.0 * math.sqrt(237.0)) / 26.0
UNSTABLE_EDGE = (517.0 + 9.0 * math.sqrt(5385.0)) / 112.0


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_wave_command_json(capsys):
    code, out, err = run_cli(
        capsys, "wave", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1.5"
    )
    assert code == 0
    document = json.loads(out)
    assert document["schema_version"] == 1
    result = document["result"]
    assert result["w"] == pytest.approx(0.0, abs=1e-15)
    assert result["lam"] == pytest.approx(0.5)
    assert result["B"] == pytest.approx(1.41421356, rel=1e-8)
    assert result["residual_r1"] < 1e-9
    assert result["residual_r2"] < 1e-9


def test_wave_reports_are_reproducible(capsys):
    argv = ["wave", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1.0", *FAST]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)

    def strip(text):
        return [line for line in text.splitlines() if "generated_at" not in line]

    assert strip(first) == strip(second)


def test_spectrum_command(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1", *FAST
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["negative_count"] == 1
    assert result["zero_modes"] == 1
    assert result["ess_spectrum_gap"] == pytest.approx(1 - 1 / math.sqrt(6), rel=1e-9)
    assert len(result["eigenvalues"]) == 1024


def test_jl_spectrum_command(capsys):
    code, out, _ = run_cli(
        capsys, "jl-spectrum", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1", *FAST
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["max_real_part"] < 1e-6
    assert result["n_unstable"] == 0
    assert "symmetry_defect" not in result
    eigenvalues = np.array([complex(re, im) for re, im in result["eigenvalues"]])
    assert reference.hamiltonian_symmetry_defect(eigenvalues) < 1e-6


def test_index_command_stable(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1", *FAST
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"]["verdict"] == "stable"
    assert result["index_report"]["method"] == "closed_form"
    assert result["index_report"]["index_value"] == pytest.approx(-432 / 35, rel=1e-12)
    assert result["verdict"]["parity_rhs"] == 0


def test_index_command_standing_branch(capsys):
    code, out, _ = run_cli(
        capsys, "index", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1.5", *FAST
    )
    assert code == 0
    report = json.loads(out)["result"]["index_report"]
    assert report["kdv_part"] == pytest.approx(-7.2, rel=1e-6)
    assert report["hill_part"] == pytest.approx(3.6, rel=1e-6)
    assert report["lower_bound_3I"] == pytest.approx(-54.0)
    assert report["upper_bound_3I"] == pytest.approx(-54.0)


@pytest.mark.parametrize("z", ["1", "4"])
def test_index_command_evaluates_case2_index_once(capsys, monkeypatch, z):
    # the verdict's index report is the one the command prints, from one
    # pass of the standing route
    calls = count_calls(monkeypatch, index_count, "standing_quadratic")
    code, _, _ = run_cli(
        capsys, "index", "--a", "-1", "--b", z, "--c", "-1", "--eta0", "-1.5", *FAST
    )
    assert code == 0
    assert len(calls) == 1


def test_stable_standing_index_factors_only_the_certificate(capsys, monkeypatch):
    # the Hill part is certified from the samples: the one Cholesky
    # factorization is the direct count's -M + (re_tol/2)^2 I, and each index
    # part is one solve on K's even block
    n = 512
    factored = solve_shapes(monkeypatch, "cholesky")
    solved = solve_shapes(monkeypatch, "solve")
    code, out, _ = run_cli(
        capsys, "index", "--a", "-1", "--b", "4", "--c", "-1", "--eta0", "-1.5", *FAST
    )
    assert code == 0
    assert json.loads(out)["result"]["verdict"]["verdict"] == "stable"
    assert factored == [(n - 2,) * 2]
    assert solved == [(n // 2 + 1,) * 2] * 2


def test_index_command_verdict_and_report_agree_at_unit_ratio(capsys):
    # z = 1 lies on both the standing and the free-amplitude branch; one route
    # serves both the verdict and the report
    code, out, _ = run_cli(
        capsys, "index", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1.5", *FAST
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verdict"]["index_value"] == result["index_report"]["index_value"]
    assert result["index_report"]["index_value"] == pytest.approx(-18.0, rel=1e-8)
    assert sorted(result["verdict"]) == [
        "index_sign", "index_value", "max_real_part", "n_tilde_L",
        "n_unstable_direct", "parity_rhs", "verdict",
    ]


def test_index_command_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "index", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1",
        "--index-tol", "1e6", *FAST,
    )
    assert code == 4
    assert json.loads(out)["result"]["verdict"]["verdict"] == "inconclusive"


def test_domain_error_exit_code(capsys):
    code, out, err = run_cli(
        capsys, "wave", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-3", *FAST
    )
    assert code == 2
    assert "error" in err
    assert out == ""


def test_threshold_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "threshold", "--zmin", "9.0", "--zmax", "11.0", "--tol", "1e-3",
        "--grid-n", "384", "--grid-len", "100",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert STABLE_EDGE < result["z_star"] < UNSTABLE_EDGE
    assert result["bracket_hi"] - result["bracket_lo"] < 1e-3


def test_threshold_counts_its_halvings(capsys):
    # four halvings take the bracket [9, 11] below 0.25; the default
    # half-length is 50 / lambda = 100 at a = -1
    code, out, _ = run_cli(
        capsys, "threshold", "--zmin", "9", "--zmax", "11", "--tol", "0.25", "--grid-n", "256"
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert (result["iterations"], result["evaluations"]) == (4, 6)
    assert (result["bracket_lo"], result["z_star"], result["bracket_hi"]) == (9.875, 9.9375, 10.0)
    assert STABLE_EDGE < result["z_star"] < UNSTABLE_EDGE


def test_threshold_reports_the_root_of_the_discrete_index(capsys):
    code, out, _ = run_cli(
        capsys,
        "threshold", "--zmin", "9.0", "--zmax", "11.0", "--tol", "1e-3", *FAST,
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["bracket_lo"] <= result["z_root"] <= result["bracket_hi"]
    assert STABLE_EDGE < result["z_root"] < UNSTABLE_EDGE


@pytest.mark.parametrize("tol", ["0.5", "1e-3"])
def test_threshold_factors_each_scalar_operator_once(capsys, monkeypatch, tol):
    # the bisection evaluates the coefficient triples, not fresh solves, and
    # one even block of phi0's K serves both scalar operators: K's odd
    # block is never built
    routes = count_calls(monkeypatch, index_count, "standing_quadratic")
    potentials = count_calls(monkeypatch, discretization, "_potential_views")
    blocks = count_calls(monkeypatch, discretization, "_folded_block")
    reports = count_calls(monkeypatch, index_count, "case2_index")
    factored = solve_shapes(monkeypatch, "cholesky")
    solved = solve_shapes(monkeypatch, "solve")
    code, out, _ = run_cli(
        capsys, "threshold", "--zmin", "9", "--zmax", "11", "--tol", tol, "--grid-n", "256"
    )
    assert code == 0
    assert json.loads(out)["result"]["evaluations"] > 2
    assert len(routes) == 1
    assert len(potentials) == 1
    assert [args[0].shape for args in blocks] == [(129, 129)]
    assert len(reports) <= 1
    # the Hill part is certified from phi0's samples: no Cholesky factorization
    assert factored == []
    assert solved == [(129, 129)] * 2


def test_threshold_no_sign_change_is_domain_error(capsys):
    code, _, err = run_cli(
        capsys,
        "threshold", "--zmin", "0.5", "--zmax", "2.0",
        "--grid-n", "384", "--grid-len", "100",
    )
    assert code == 2
    assert "same sign" in err
    # an infinite end, one whose index overflows, or an infinite tol (which
    # would print "tol": Infinity, not JSON) is refused at once
    for bracket in (
        ["--zmin=-inf", "--zmax", "11"],
        ["--zmin", "9", "--zmax", "1e308"],
        ["--zmin", "9", "--zmax", "11", "--tol", "inf"],
    ):
        code, out, err = run_cli(capsys, "threshold", *bracket, "--grid-n", "256")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--zmin", "9", "--zmax", "11"],
        ["index", "--a", "-1", "--b", "10", "--c", "-1", "--eta0", "-1.5"],
    ],
    ids=["threshold", "index"],
)
def test_box_below_the_decay_margin_is_domain_error(capsys, argv):
    # lambda L = 5 at a = -1, an eighth of the decay margin 40
    code, out, err = run_cli(capsys, *argv, "--grid-len", "10", "--grid-n", "256")
    assert (code, out) == (2, "")
    assert "needed for decay margin" in err


def test_long_box_samples_the_pulse_without_warnings(capsys):
    # cosh^2 overflows at lambda |x| > 355; phi's limit there is -0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_cli(
            capsys, "index", "--a", "-1", "--b", "4", "--c", "-1", "--eta0", "-1.5",
            "--grid-len", "720", "--grid-n", "512",
        )
    assert (code, err) == (0, "")


def test_scan_eta0_all_stable(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _, _ = run_cli(
        capsys,
        "scan", "--param", "eta0", "--from", "-2.2", "--to", "-0.1", "--steps", "22",
        "--a", "-1", "--b", "1", "--c", "-1",
        "--grid-n", "512", "--output", str(out_path),
    )
    assert code == 0
    with out_path.open() as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 22
    assert set(r["verdict"] for r in rows) == {"stable"}
    header = rows[0].keys()
    assert list(header) == [
        "eta0", "w", "n_tilde_L", "index_value",
        "lower_bound", "upper_bound", "max_real_JL", "verdict",
    ]
    assert all(float(r["index_value"]) < 0 for r in rows)
    assert all(r["lower_bound"] == "" for r in rows)  # bounds are z-scan only


def test_scan_z_mixed_verdicts(capsys):
    code, out, _ = run_cli(
        capsys,
        "scan", "--param", "z", "--from", "4", "--to", "13", "--steps", "4",
        "--grid-n", "512", "--grid-len", "100",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    verdicts = [r["verdict"] for r in rows]
    assert verdicts[0] == "stable"
    assert verdicts[-1] == "unstable"
    assert all(r["lower_bound"] != "" for r in rows)
    assert float(rows[0]["lower_bound"]) < 3 * float(rows[0]["index_value"]) <= float(
        rows[0]["upper_bound"]
    ) + 1e-6


def test_scan_z_takes_a_from_the_a_flag(capsys):
    # scaling covariance: index(a, z (-a)) = sqrt(-a) index(-1, z), and the
    # default grid half-length 50 / lambda scales with sqrt(-a) as well
    def index_at_z1(*a_flag):
        code, out, _ = run_cli(
            capsys, "scan", "--param", "z", "--from", "1", "--to", "1", "--steps", "1",
            *a_flag, *FAST,
        )
        assert code == 0
        (row,) = csv.DictReader(out.splitlines())
        return float(row["index_value"])

    assert index_at_z1("--a", "-4") == pytest.approx(2.0 * index_at_z1("--a", "-1"), rel=1e-9)


def test_scan_z_rejects_b_and_c(capsys):
    for flag, value in (("--b", "2"), ("--c", "-1")):
        code, out, err = run_cli(
            capsys, "scan", "--param", "z", "--from", "1", "--to", "2", "--steps", "2",
            flag, value, *FAST,
        )
        assert code == 2
        assert out == ""
        assert "takes --a alone" in err


@pytest.mark.parametrize(
    "flag, value",
    [("--a", "-4"), ("--b", "7"), ("--c", "-2"), ("--eta0", "3"), ("--sign-branch", "-1")],
)
def test_threshold_rejects_wave_flags(capsys, flag, value):
    # threshold fixes a = -1; a wave flag it would ignore is refused
    code, out, err = run_cli(
        capsys, "threshold", "--zmin", "9", "--zmax", "11", "--tol", "0.5", "--grid-n", "256",
        flag, value,
    )
    assert code == 2
    assert out == ""
    assert "takes no --a" in err


def test_threshold_rejects_wave_keys_in_a_config_file(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("a = -4\nzmin = 9\nzmax = 11\n")
    code, out, err = run_cli(capsys, "threshold", "--config", str(config), "--grid-n", "256")
    assert code == 2
    assert out == ""
    assert "takes no --a" in err


SCAN_Z_POINT = ("scan", "--param", "z", "--from", "1", "--to", "1", "--steps", "1", "--grid-n", "128")


@pytest.mark.parametrize("by_file", [False, True], ids=["flag", "config"])
def test_scan_rejects_eta0(capsys, tmp_path, by_file):
    # a scan sets each row's eta0 (-3/2 on a z scan); an eta0 it would
    # ignore is refused, by flag or config key
    config = tmp_path / "run.cfg"
    config.write_text("eta0 = -0.5\n")
    extra = ("--config", str(config)) if by_file else ("--eta0", "-0.5")
    code, out, err = run_cli(capsys, *SCAN_Z_POINT, *extra)
    assert code == 2
    assert out == ""
    assert "takes no --eta0" in err


@pytest.mark.parametrize("line, key", [("from = abc", "from"), ("zmin = 9", "zmin")])
def test_config_key_of_another_command_is_refused(capsys, tmp_path, line, key):
    # a key that the command does not take is refused whether or not its
    # value would parse
    config = tmp_path / "run.cfg"
    config.write_text(f"a = -1\nb = 1\nc = -1\neta0 = -1.5\n{line}\n")
    code, out, err = run_cli(capsys, "wave", "--config", str(config))
    assert code == 2
    assert out == ""
    assert f"config key {key!r} is not an option of wave" in err


def fail_at(monkeypatch, eta0, error, step="row_verdict"):
    """Make a scan's row_verdict (or verdict_basis) raise error for the
    pulse of amplitude eta0."""
    original = getattr(spectra, step)

    def failing(*args, **kwargs):
        spec = args[2] if step == "row_verdict" else args[1]
        if spec.eta0 == eta0:
            raise error
        return original(*args, **kwargs)

    monkeypatch.setattr(spectra, step, failing)


SCAN_ETA0 = ("scan", "--param", "eta0", "--from", "-2", "--to", "-1", "--steps", "3",
             "--a", "-1", "--b", "1", "--c", "-1", "--grid-n", "256")


def test_scan_row_solver_failure_keeps_the_other_rows(capsys, monkeypatch):
    fail_at(monkeypatch, -2.0, EigensolveFailure("injected"))
    code, out, err = run_cli(capsys, *SCAN_ETA0)
    assert code == 3
    assert "solver failure at eta0 = -2" in err
    rows = list(csv.DictReader(out.splitlines()))
    assert [float(r["eta0"]) for r in rows] == [-2.0, -1.5, -1.0]
    failed, *evaluated = rows
    assert failed["verdict"] == "solver_failure"
    assert failed["w"] != ""  # resolved before the verdict failed
    assert all(failed[key] == "" for key in ("n_tilde_L", "index_value", "max_real_JL"))
    # N = 256 is too coarse for JL verdicts; only completeness is checked
    assert all(r["verdict"] != "solver_failure" and r["n_tilde_L"] == "1" for r in evaluated)


def test_scan_basis_solver_failure_fails_the_rows_that_share_it(capsys, monkeypatch):
    # rows -2 and -1 share the basis built at -2; the z = 1 row -1.5 is on
    # the standing route and builds its own
    fail_at(monkeypatch, -2.0, EigensolveFailure("injected"), step="verdict_basis")
    code, out, err = run_cli(capsys, *SCAN_ETA0)
    assert code == 3
    assert "solver failure at eta0 = -2" in err
    assert "solver failure at eta0 = -1:" in err
    rows = list(csv.DictReader(out.splitlines()))
    assert [float(r["eta0"]) for r in rows] == [-2.0, -1.5, -1.0]
    assert [r["verdict"] for r in rows[::2]] == ["solver_failure"] * 2
    assert all(r["w"] != "" and r["n_tilde_L"] == "" for r in rows[::2])
    assert rows[1]["verdict"] != "solver_failure"
    assert rows[1]["index_value"] == "-17.9999804794"


def test_scan_takes_the_standing_route_at_the_z1_coincidence(capsys):
    # eta0 = -3/2 on a = c = -b is the standing wave: its index is the
    # standing quadratic on the grid, not the free branch's closed form -18
    code, out, _ = run_cli(capsys, *SCAN_ETA0)
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert [r["index_value"] for r in rows] == ["-23.04", "-17.9999804794", "-12.3428571429"]


def config_of(*argv):
    return cli.config_from_args(cli.build_parser().parse_args([str(arg) for arg in argv]))


@given(
    case=st.one_of(
        st.tuples(
            st.just("eta0"),
            st.floats(min_value=-2.2, max_value=-0.1),
            st.floats(min_value=-2.2, max_value=-0.1),
            st.sampled_from([1.0, 2.5]),
        ),
        st.tuples(
            st.just("z"),
            st.floats(min_value=0.5, max_value=12.0),
            st.floats(min_value=0.5, max_value=12.0),
            st.sampled_from([-1.0, -2.5]),
        ),
    ),
    sign=st.sampled_from([1, -1]),
    n=st.sampled_from([128, 256, 512]),
    steps=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=25, deadline=None)
def test_scan_rows_equal_the_index_of_each_point(case, sign, n, steps):
    # the rows of a scan share one grid and one basis; each must give what
    # index gives for its own point on its own grid
    param, start, stop, coefficient = case
    if param == "eta0":
        family = ("--a", -coefficient, "--b", coefficient, "--c", -coefficient)
    else:
        family = ("--a", coefficient)
    common = ("--sign-branch", sign, "--grid-n", n)
    scan = config_of("scan", "--param", param, "--from", repr(start), "--to", repr(stop),
                     "--steps", steps, *family, *common)
    text, code = cli.cmd_scan(scan)
    assert code == 0
    cells = list(csv.DictReader(text.splitlines()))
    for cell, (value, spec, row) in zip(cells, cli._scan_results(scan), strict=True):
        if param == "z":
            family = ("--a", coefficient, "--b", repr(float(value) * -coefficient), "--c", coefficient)
        point = config_of("index", "--eta0", repr(spec.eta0), *family, *common)
        result, point_code = cli.cmd_index(point)
        verdict = result["verdict"]
        assert point_code == (4 if row.verdict == "inconclusive" else 0)
        assert (row.n_tilde_L, row.index_sign, row.verdict) == (
            verdict["n_tilde_L"], verdict["index_sign"], verdict["verdict"]
        )
        assert (cell["n_tilde_L"], cell["verdict"]) == (str(row.n_tilde_L), row.verdict)
        report = result["index_report"]
        if report["kdv_part"] is None:
            scale = abs(verdict["index_value"])
        else:
            scale = (8.0 * abs(report["kdv_part"]) + abs(report["hill_part"])) / 3.0
        assert abs(row.index_value - verdict["index_value"]) <= 1e-12 * scale
        if 0.5e-6 in (row.max_real_part, verdict["max_real_part"]):  # certified
            assert row.max_real_part == verdict["max_real_part"]


@pytest.mark.parametrize("bound", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("flag", ["--from", "--to"])
@pytest.mark.parametrize(
    "param, ends, family",
    [("eta0", ("-2", "-1"), ("--a", "-1", "--b", "1", "--c", "-1")), ("z", ("1", "2"), ())],
    ids=["eta0", "z"],
)
def test_scan_bounds_must_be_finite(capsys, param, ends, family, flag, bound):
    bounds = dict(zip(("--from", "--to"), ends), **{flag: bound})
    code, out, err = run_cli(
        capsys, "scan", "--param", param, *family, "--steps", "2", "--grid-n", "128",
        *(f"{key}={value}" for key, value in bounds.items()),
    )
    assert (code, out) == (2, "")
    assert err == f"error: {flag} must be finite, got {float(bound)}\n"


def test_scan_row_domain_error_aborts(capsys, monkeypatch):
    fail_at(monkeypatch, -1.5, DomainError("injected"))
    code, out, err = run_cli(capsys, *SCAN_ETA0)
    assert code == 2
    assert out == ""
    assert "injected" in err


def test_scan_missing_arguments(capsys):
    code, _, err = run_cli(capsys, "scan", "--param", "z", "--grid-n", "256")
    assert code == 2
    assert "scan requires" in err


def test_format_mismatch_rejected(capsys):
    # each command emits its one native format, so there is no --format flag
    argv = ["wave", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1.5", "--format", "json"]
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_config_file_precedence(capsys, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(
        "a = -1\nb = 1\nc = -1\neta0 = -1.5\ngrid_n = 256\n# comment line\n"
    )
    code, out, _ = run_cli(capsys, "wave", "--config", str(config))
    assert code == 0
    assert json.loads(out)["result"]["eta0"] == -1.5
    # flags win over the file
    code, out, _ = run_cli(capsys, "wave", "--config", str(config), "--eta0", "-1.0")
    assert code == 0
    assert json.loads(out)["result"]["eta0"] == -1.0


@pytest.mark.parametrize(
    "line, message",
    [
        ("grid-n = 128", "unknown config key 'grid-n'"),
        ("format = json", "unknown config key 'format'"),
        ("eta0 = abc", "config key 'eta0'"),
        (None, "cannot read config file"),
    ],
    ids=["unknown-key", "format-key", "not-a-number", "missing-file"],
)
def test_bad_config_file_is_domain_error(capsys, tmp_path, line, message):
    config = tmp_path / "run.cfg"
    if line is not None:
        config.write_text(f"a = -1\nb = 1\nc = -1\neta0 = -1.5\n{line}\n")
    code, out, err = run_cli(capsys, "wave", "--config", str(config))
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize("value", ["-1e-6", "0", "nan", "inf"])
@pytest.mark.parametrize("flag", ["--zero-tol", "--re-tol", "--index-tol"])
def test_meaningless_tolerance_flag_is_domain_error(capsys, flag, value):
    code, out, err = run_cli(
        capsys, "index", "--a", "-1", "--b", "4", "--c", "-1", "--eta0", "-1.5",
        f"{flag}={value}", *FAST,
    )
    assert code == 2
    assert out == ""
    assert "must be positive and finite" in err


@pytest.mark.parametrize("key", ["zero_tol", "re_tol", "index_tol"])
def test_meaningless_tolerance_config_key_is_domain_error(capsys, tmp_path, key):
    config = tmp_path / "run.cfg"
    config.write_text(f"a = -1\nb = 4\nc = -1\neta0 = -1.5\ngrid_n = 512\n{key} = nan\n")
    code, out, err = run_cli(capsys, "index", "--config", str(config))
    assert code == 2
    assert out == ""
    assert f"{key} must be positive and finite" in err


@pytest.mark.parametrize("length", ["inf", "1e308"])
def test_grid_length_without_finite_nodes_is_domain_error(capsys, length):
    code, out, err = run_cli(
        capsys, "index", "--a", "-1", "--b", "4", "--c", "-1", "--eta0", "-1.5",
        "--grid-len", length, *FAST,
    )
    assert code == 2
    assert out == ""
    assert "finite nodes" in err


def child_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this checkout's src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, **extra)
    inherited = [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + inherited)
    return env


def test_grid_too_large_for_memory_is_a_one_line_error():
    # N = 4194304 asks 32 TiB for the potential blocks; the child process
    # runs under a 3 GiB address-space limit, so the test can never take a
    # machine's memory
    argv = ["index", "--a", "-1", "--b", "4", "--c", "-1", "--eta0", "-1.5", "--grid-n", "4194304"]
    program = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from pulsestab.cli import main\n"
        f"sys.exit(main({argv!r}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program], env=child_env(OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory")
    assert len(done.stderr.splitlines()) == 1


def test_output_file_written(capsys, tmp_path):
    out_path = tmp_path / "wave.json"
    code, out, _ = run_cli(
        capsys,
        "wave", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1.5",
        "--output", str(out_path), *FAST,
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_path.read_text())["result"]["lam"] == pytest.approx(0.5)


def test_unwritable_report_path_is_a_one_line_error(capsys, tmp_path):
    out_path = tmp_path / "no-such-dir" / "wave.json"
    code, out, err = run_cli(
        capsys,
        "wave", "--a", "-1", "--b", "1", "--c", "-1", "--eta0", "-1.5",
        "--output", str(out_path), *FAST,
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1
    assert str(out_path) in err


DEFAULT_TOLERANCES = {"zero_tol": None, "re_tol": 1e-6, "index_tol": 1e-6}


@pytest.mark.parametrize(
    "argv, block",
    [
        (
            ["index", "--a", "-1", "--b", "4", "--c", "-1", "--eta0", "-1.5"],
            {
                "command": "index", "eta0": -1.5, "sign_branch": 1, "grid_n": 1024,
                "grid_len": None, "tolerances": DEFAULT_TOLERANCES,
                "params": {"a": -1.0, "b": 4.0, "c": -1.0, "ratio_z": 4.0, "subsonic_bound": 0.25},
            },
        ),
        (
            ["threshold", "--zmin", "9", "--zmax", "11"],
            {
                "command": "threshold", "eta0": None, "sign_branch": 1, "grid_n": 1024,
                "grid_len": None, "tolerances": DEFAULT_TOLERANCES,
                "zmin": 9.0, "zmax": 11.0, "tol": 1e-3,
            },
        ),
    ],
    ids=["index", "threshold"],
)
def test_report_config_block_defaults(capsys, argv, block):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == block


@pytest.mark.parametrize(
    "command, settings",
    [
        ("index", {"a": "-1", "b": "4", "c": "-1", "eta0": "-1.5", "sign_branch": "-1",
                   "grid_n": "256", "grid_len": "120", "zero_tol": "1e-5", "re_tol": "2e-6",
                   "index_tol": "1e-7"}),
        ("threshold", {"zmin": "9", "zmax": "11", "tol": "0.25", "grid_n": "256",
                       "grid_len": "90", "re_tol": "2e-6"}),
    ],
    ids=["index", "threshold"],
)
def test_report_config_block_is_the_same_by_flag_and_by_file(capsys, tmp_path, command, settings):
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in settings.items()]
    config = tmp_path / "run.cfg"
    config.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    half = len(flags) // 2
    blocks = []
    for argv in (flags, ["--config", str(config)], ["--config", str(config), *flags[half:]]):
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0
        blocks.append(json.loads(out)["config"])
    assert blocks[0] == blocks[1] == blocks[2]
    block = blocks[0]
    flat = {**block, **block["tolerances"], **block.get("params", {})}
    assert {key: flat[key] for key in settings} == {
        key: float(value) for key, value in settings.items()
    }


def test_index_command_imports_numpy_only():
    # numpy is the only declared runtime dependency; an index, threshold,
    # spectrum or eta0 scan command run in a fresh interpreter must not pull
    # in scipy
    env = child_env()
    wave = ["--a", "-1", "--b", "4", "--c", "-1", "--eta0", "-1.5", "--grid-n", "128"]
    commands = {
        "index": ["index", *wave],
        "threshold": ["threshold", "--zmin", "9", "--zmax", "11", "--tol", "0.5", "--grid-n", "256"],
        "spectrum": ["spectrum", *wave],
        "scan": ["scan", "--param", "eta0", "--a", "-1", "--b", "1", "--c", "-1",
                 "--from", "-1.5", "--to", "-0.5", "--steps", "2", "--grid-n", "128"],
    }
    results = {}
    for name, argv in commands.items():
        program = (
            "import sys\n"
            "from pulsestab.cli import main\n"
            f"code = main({argv!r})\n"
            "print('scipy' in sys.modules, file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, (name, done.stderr)
        assert done.stderr.splitlines()[-1] == "False", name
        results[name] = done.stdout
    assert json.loads(results["index"])["result"]["verdict"]["n_tilde_L"] == 1
    rows = list(csv.DictReader(io.StringIO(results["scan"])))
    assert [row["n_tilde_L"] for row in rows] == ["1", "1"]
