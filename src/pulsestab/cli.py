"""Command-line front end: single-point reports, scans, and the threshold search.

Commands
    wave         resolve a pulse and report (w, lambda, B) plus residuals
    spectrum     inertia report of the symmetrized operator
    jl-spectrum  eigenvalues of the evolution generator JL
    index        index quantity, bounds, parity, and the stability verdict
    threshold    bisection for the critical ratio z = b/(-a) (a fixed to -1)
    scan         CSV sweep over eta0 (free-amplitude family) or z (standing)

Single runs emit JSON (identical configs give byte-identical files apart from
the generated_at field); scans emit CSV.  Exit codes: 0 success, 2 domain
error or a grid too large for memory, 3 solver failure, 4 inconclusive
verdict (threshold and scan annotate instead of failing).  Flag values
override config-file values (plain key=value lines) which override
defaults; an unreadable config file, an unknown key, a value that does not
parse or a tolerance that is not positive and finite is a domain error.
Scan rows are evaluated in input order, on one grid built from the first
row's width, and share what they can of one verdict
(spectra.scan_verdicts); a row whose verdict raises a solver error, or
whose shared basis did, is written with verdict solver_failure and empty
cells for what it could not compute, the remaining rows still run, and the
scan exits 3.  A domain error aborts the scan.  A z scan takes a from --a
alone (default -1) and evaluates the standing waves c = a, b = z (-a); --b
or --c on a z scan is a domain error.  threshold fixes a = -1 and bisects
over z, so --a, --b, --c, --eta0 or --sign-branch on it is a domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .discretization import Grid, build_grid
from .errors import DomainError, SolverError, WorkbenchError
from .index_count import critical_ratio_bisection
from .spectra import (
    check_tolerances,
    discrete_spectrum_tilde_L,
    scan_verdicts,
    stability_verdict,
    unstable_modes_JL,
)
from .waves import (
    AbcParameters,
    WaveSpec,
    resolve_wave_parameters,
    sample_wave,
    traveling_residual,
)

SCHEMA_VERSION = 1

CSV_COLUMNS = [
    "w",
    "n_tilde_L",
    "index_value",
    "lower_bound",
    "upper_bound",
    "max_real_JL",
    "verdict",
]

# verdict of a scan row whose verdict raised SolverError
SOLVER_FAILURE = "solver_failure"


@dataclass(frozen=True)
class Tolerances:
    zero_tol: float | None = None  # None: 1e-6 * spectral radius
    re_tol: float = 1e-6
    index_tol: float = 1e-6


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: AbcParameters | None = None
    eta0: float | None = None
    sign_branch: int = +1
    grid_n: int = 1024
    grid_len: float | None = None  # None: 50 / lambda
    tolerances: Tolerances = field(default_factory=Tolerances)
    output_path: str | None = None
    # threshold
    zmin: float | None = None
    zmax: float | None = None
    tol: float = 1e-3
    # scan
    scan_param: str | None = None
    scan_from: float | None = None
    scan_to: float | None = None
    scan_steps: int | None = None


def _make_grid(config: RunConfig, lam: float) -> Grid:
    length = config.grid_len if config.grid_len is not None else 50.0 / lam
    return build_grid(config.grid_n, length)


def _resolved(config: RunConfig):
    if config.params is None or config.eta0 is None:
        raise DomainError("this command requires --a, --b, --c and --eta0")
    spec = resolve_wave_parameters(config.params, config.eta0, config.sign_branch)
    grid = _make_grid(config, spec.lam)
    return spec, grid, sample_wave(spec, grid)


def cmd_wave(config: RunConfig) -> tuple[dict, int]:
    spec, grid, wave = _resolved(config)
    r1, r2 = traveling_residual(wave, spec, config.params)
    result = asdict(spec)
    result.update(residual_r1=r1, residual_r2=r2)
    return result, 0


def cmd_spectrum(config: RunConfig) -> tuple[dict, int]:
    spec, grid, wave = _resolved(config)
    report = discrete_spectrum_tilde_L(
        config.params, spec, wave, grid, zero_tol=config.tolerances.zero_tol
    )
    result = {
        "eigenvalues": report.eigenvalues.tolist(),
        "negative_count": report.negative_count,
        "zero_modes": report.zero_modes,
        "max_real_part": report.max_real_part,
        "ess_spectrum_gap": report.ess_spectrum_gap,
    }
    return result, 0


def cmd_jl_spectrum(config: RunConfig) -> tuple[dict, int]:
    spec, grid, wave = _resolved(config)
    report = unstable_modes_JL(
        config.params, spec, wave, grid, re_tol=config.tolerances.re_tol
    )
    eigenvalues = [[float(z.real), float(z.imag)] for z in report.eigenvalues]
    return dict(vars(report), eigenvalues=eigenvalues), 0


def cmd_index(config: RunConfig) -> tuple[dict, int]:
    spec, grid, wave = _resolved(config)
    verdict = stability_verdict(config.params, spec, wave, grid, **asdict(config.tolerances))
    fields = asdict(verdict)
    result = {"index_report": fields.pop("index_report"), "verdict": fields}
    return result, 4 if verdict.verdict == "inconclusive" else 0


def cmd_threshold(config: RunConfig) -> tuple[dict, int]:
    if config.zmin is None or config.zmax is None:
        raise DomainError("threshold requires --zmin and --zmax")
    lam = 0.5  # a = -1 fixed; the standing-wave width is 1/(2 sqrt(-a))
    grid = _make_grid(config, lam)
    result = critical_ratio_bisection(config.zmin, config.zmax, config.tol, grid)
    return dict(asdict(result), tol=config.tol), 0


def _scan_values(config: RunConfig) -> np.ndarray:
    if config.scan_from is None or config.scan_to is None or config.scan_steps is None:
        raise DomainError("scan requires --param, --from, --to and --steps")
    if config.scan_steps < 1:
        raise DomainError(f"--steps must be >= 1, got {config.scan_steps}")
    return np.linspace(config.scan_from, config.scan_to, config.scan_steps)


def _scan_point(config: RunConfig, value: float) -> tuple[AbcParameters, WaveSpec]:
    if config.params is None:
        raise DomainError("this command requires --a, --b, --c and --eta0")
    if config.scan_param == "eta0":
        params, eta0 = config.params, float(value)
    else:  # z scan: standing waves at a = c, b = z (-a)
        params, eta0 = replace(config.params, b=float(value) * -config.params.a), -1.5
    return params, resolve_wave_parameters(params, eta0, config.sign_branch)


def _scan_row(param: str, value: float, spec: WaveSpec, verdict) -> dict:
    if isinstance(verdict, SolverError):
        print(f"solver failure at {param} = {value:.12g}: {verdict}", file=sys.stderr)
        row = dict.fromkeys(CSV_COLUMNS)  # None: an empty cell
        row.update({param: value, "w": spec.w, "verdict": SOLVER_FAILURE})
        return row
    if param == "z":
        lower = verdict.index_report.lower_bound_3I
        upper = verdict.index_report.upper_bound_3I
    else:  # the free-amplitude index is exact, not a bracket
        lower = upper = None
    return {
        param: value,
        "w": spec.w,
        "n_tilde_L": verdict.n_tilde_L,
        "index_value": verdict.index_value,
        "lower_bound": lower,
        "upper_bound": upper,
        "max_real_JL": verdict.max_real_part,
        "verdict": verdict.verdict,
    }


def _scan_results(config: RunConfig):
    """(value, spec, verdict or SolverError) of each scan row, in order."""
    if config.scan_param not in ("eta0", "z"):
        raise DomainError(f"--param must be 'eta0' or 'z', got {config.scan_param}")
    values = _scan_values(config)
    points = [_scan_point(config, value) for value in values]
    # every row of a scan has the first row's width up to round-off
    grid = _make_grid(config, points[0][1].lam)
    verdicts = scan_verdicts(points, grid, **asdict(config.tolerances))
    return zip(values, (spec for _, spec in points), verdicts)


def cmd_scan(config: RunConfig) -> tuple[str, int]:
    rows = [
        _scan_row(config.scan_param, value, spec, verdict)
        for value, spec, verdict in _scan_results(config)
    ]
    failed = any(row["verdict"] == SOLVER_FAILURE for row in rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow([config.scan_param] + CSV_COLUMNS)
    for row in rows:
        writer.writerow(
            [_csv_cell(row[key]) for key in [config.scan_param] + CSV_COLUMNS]
        )
    return buffer.getvalue(), 3 if failed else 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _config_summary(config: RunConfig) -> dict:
    summary = {
        "command": config.command,
        "eta0": config.eta0,
        "sign_branch": config.sign_branch,
        "grid_n": config.grid_n,
        "grid_len": config.grid_len,
        "tolerances": asdict(config.tolerances),
    }
    if config.params is not None:
        summary["params"] = asdict(config.params)
    if config.command == "threshold":
        summary.update(zmin=config.zmin, zmax=config.zmax, tol=config.tol)
    return summary


_HANDLERS = {
    "wave": cmd_wave,
    "spectrum": cmd_spectrum,
    "jl-spectrum": cmd_jl_spectrum,
    "index": cmd_index,
    "threshold": cmd_threshold,
    "scan": cmd_scan,
}


def run(config: RunConfig) -> int:
    """Execute one command, write its report, and return the exit code."""
    try:
        payload, code = _HANDLERS[config.command](config)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"error: out of memory (is --grid-n too large?): {exc}", file=sys.stderr)
        return 2

    if config.command == "scan":
        text = payload
    else:
        document = {
            "schema_version": SCHEMA_VERSION,
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "workbench_version": __version__,
            "config": _config_summary(config),
            "result": payload,
        }
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"

    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


_FLOAT_KEYS = {
    "a", "b", "c", "eta0", "grid_len", "zero_tol", "re_tol", "index_tol",
    "zmin", "zmax", "tol", "from", "to",
}
_INT_KEYS = {"sign_branch", "grid_n", "steps"}
_STR_KEYS = {"param", "output"}
_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


def _parse_config_file(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DomainError(f"cannot read config file: {exc}") from exc
    values = {}
    for raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line is not key=value: {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise DomainError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _merge(args: argparse.Namespace, file_values: dict) -> dict:
    merged = {}
    for key in _KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
        elif key in file_values:
            convert = float if key in _FLOAT_KEYS else int if key in _INT_KEYS else str
            try:
                merged[key] = convert(file_values[key])
            except ValueError as exc:
                raise DomainError(f"config key {key!r}: {exc}") from exc
    return merged


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, default=None, help="dispersion coefficient a < 0")
    parser.add_argument("--b", type=float, default=None, help="smoothing coefficient b > 0")
    parser.add_argument("--c", type=float, default=None, help="dispersion coefficient c < 0")
    parser.add_argument("--eta0", type=float, default=None, help="wave amplitude")
    parser.add_argument("--sign-branch", dest="sign_branch", type=int, choices=(-1, 1), default=None)
    parser.add_argument("--grid-n", dest="grid_n", type=int, default=None, help="grid points (default 1024)")
    parser.add_argument("--grid-len", dest="grid_len", type=float, default=None, help="half-length (default 50/lambda)")
    parser.add_argument("--zero-tol", dest="zero_tol", type=float, default=None)
    parser.add_argument("--re-tol", dest="re_tol", type=float, default=None)
    parser.add_argument("--index-tol", dest="index_tol", type=float, default=None)
    parser.add_argument("--output", type=str, default=None, help="report path (default stdout)")
    parser.add_argument("--config", type=str, default=None, help="key=value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsestab",
        description="Spectral-stability workbench for sech^2 pulses of the abc system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("wave", "spectrum", "jl-spectrum", "index"):
        _add_common(sub.add_parser(name))
    threshold = sub.add_parser("threshold")
    _add_common(threshold)
    threshold.add_argument("--zmin", type=float, default=None)
    threshold.add_argument("--zmax", type=float, default=None)
    threshold.add_argument("--tol", type=float, default=None)
    scan = sub.add_parser("scan")
    _add_common(scan)
    scan.add_argument("--param", type=str, choices=("eta0", "z"), default=None)
    scan.add_argument("--from", dest="from", type=float, default=None)
    scan.add_argument("--to", dest="to", type=float, default=None)
    scan.add_argument("--steps", type=int, default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = _parse_config_file(args.config) if getattr(args, "config", None) else {}
    merged = _merge(args, file_values)

    params = None
    if args.command == "threshold" and merged.keys() & {"a", "b", "c", "eta0", "sign_branch"}:
        raise DomainError(
            "threshold fixes a = -1 and bisects the standing waves over z; "
            "it takes no --a, --b, --c, --eta0 or --sign-branch"
        )
    if args.command == "scan" and merged.get("param") == "z":
        if "b" in merged or "c" in merged:
            raise DomainError("a z scan takes --a alone: each row sets b = z (-a) and c = a")
        a = merged.get("a", -1.0)
        params = AbcParameters(a=a, b=-a, c=a)  # z = 1; each row sets its own b
    elif all(k in merged for k in ("a", "b", "c")):
        params = AbcParameters(a=merged["a"], b=merged["b"], c=merged["c"])
    elif any(k in merged for k in ("a", "b", "c")):
        raise DomainError("provide all of --a, --b, --c or none")
    elif args.command == "scan" and merged.get("param") == "eta0":
        raise DomainError("eta0 scans require --a, --b and --c")

    tolerances = Tolerances(
        zero_tol=merged.get("zero_tol"),
        re_tol=merged.get("re_tol", 1e-6),
        index_tol=merged.get("index_tol", 1e-6),
    )
    check_tolerances(**asdict(tolerances))
    return RunConfig(
        command=args.command,
        params=params,
        eta0=merged.get("eta0"),
        sign_branch=merged.get("sign_branch", +1),
        grid_n=merged.get("grid_n", 1024),
        grid_len=merged.get("grid_len"),
        tolerances=tolerances,
        output_path=merged.get("output"),
        zmin=merged.get("zmin"),
        zmax=merged.get("zmax"),
        tol=merged.get("tol", 1e-3),
        scan_param=merged.get("param"),
        scan_from=merged.get("from"),
        scan_to=merged.get("to"),
        scan_steps=merged.get("steps"),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
