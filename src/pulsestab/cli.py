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
error, a grid too large for memory or a report that cannot be written, 3
solver failure, 4 inconclusive verdict (threshold and scan annotate instead
of failing).  Each option is declared once, in OPTIONS: its flag, config
key, type, default and place in the report's config block.  Flag values
override config-file values (plain key=value lines) which override
defaults; an unreadable config file, an unknown key, a value that does not
parse, a tolerance that is not positive and finite or a scan bound that is
not finite is a domain error.
Scan rows are evaluated in input order, on one grid built from the first
row's width, and share what they can of one verdict
(spectra.scan_verdicts); a row whose verdict raises a solver error, or
whose shared basis did, is written with verdict solver_failure and empty
cells for what it could not compute, the remaining rows still run, and the
scan exits 3.  A domain error aborts the scan.  A z scan takes a from --a
alone (default -1) and evaluates the standing waves c = a, b = z (-a); --b
or --c on a z scan is a domain error, and every scan sets its rows' eta0,
so --eta0 on a scan is one too.  threshold fixes a = -1 and bisects over
z, so --a, --b, --c, --eta0 or --sign-branch on it is a domain error.  A
config-file key is checked like its flag: a key that the command does not
take is a domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, replace
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
    standing_pulse,
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


COMMANDS = ("wave", "spectrum", "jl-spectrum", "index", "threshold", "scan")


@dataclass(frozen=True)
class Option:
    """One option, declared once: its flag --<key with - for _>, its
    config-file key and RunConfig key, its type, default and help."""

    key: str
    type: type
    default: object = None
    commands: tuple[str, ...] = COMMANDS  # the subcommands that take it
    # where the JSON report's config block carries the value: "config" at
    # its top level, "tolerances" in its tolerances (the keywords of the
    # verdicts), None nowhere (a, b and c are carried as params)
    section: str | None = "config"
    help: str | None = None  # "{default}" in it stands for the default
    choices: tuple | None = None


OPTIONS = (
    Option("a", float, section=None, help="dispersion coefficient a < 0"),
    Option("b", float, section=None, help="smoothing coefficient b > 0"),
    Option("c", float, section=None, help="dispersion coefficient c < 0"),
    Option("eta0", float, help="wave amplitude"),
    Option("sign_branch", int, +1, choices=(-1, 1)),
    Option("grid_n", int, 1024, help="grid points (default {default})"),
    Option("grid_len", float, help="half-length (default 50/lambda)"),
    Option("zero_tol", float, section="tolerances"),  # None: 1e-6 * spectral radius
    Option("re_tol", float, 1e-6, section="tolerances"),
    Option("index_tol", float, 1e-6, section="tolerances"),
    Option("output", str, section=None, help="report path (default stdout)"),
    # the one option a config file cannot set
    Option("config", str, section=None, help="key=value config file"),
    Option("zmin", float, commands=("threshold",)),
    Option("zmax", float, commands=("threshold",)),
    Option("tol", float, 1e-3, commands=("threshold",)),
    Option("param", str, commands=("scan",), choices=("eta0", "z")),
    Option("from", float, commands=("scan",)),
    Option("to", float, commands=("scan",)),
    Option("steps", int, commands=("scan",)),
)


@dataclass(frozen=True)
class RunConfig:
    """One command's settings: every option's value by key (its default
    unless a flag or the config file set it) and the wave coefficients."""

    command: str
    values: dict
    params: AbcParameters | None = None

    def __getitem__(self, key: str):
        return self.values[key]

    def section(self, name: str) -> dict:
        """The values of this command's options in a section of the config block."""
        return {
            option.key: self[option.key]
            for option in OPTIONS
            if option.section == name and self.command in option.commands
        }


def _make_grid(config: RunConfig, lam: float) -> Grid:
    length = config["grid_len"] if config["grid_len"] is not None else 50.0 / lam
    return build_grid(config["grid_n"], length)


def _resolved(config: RunConfig):
    if config.params is None or config["eta0"] is None:
        raise DomainError("this command requires --a, --b, --c and --eta0")
    spec = resolve_wave_parameters(config.params, config["eta0"], config["sign_branch"])
    grid = _make_grid(config, spec.lam)
    return spec, grid, sample_wave(spec, grid)


def cmd_wave(config: RunConfig) -> tuple[dict, int]:
    spec, grid, wave = _resolved(config)
    r1, r2 = traveling_residual(wave, spec, config.params)
    return dict(asdict(spec), residual_r1=r1, residual_r2=r2), 0


def cmd_spectrum(config: RunConfig) -> tuple[dict, int]:
    spec, grid, wave = _resolved(config)
    report = discrete_spectrum_tilde_L(config.params, spec, wave, grid, zero_tol=config["zero_tol"])
    result = dict(vars(report), eigenvalues=report.eigenvalues.tolist())
    del result["n_unstable"]  # JL's count; None here
    return result, 0


def cmd_jl_spectrum(config: RunConfig) -> tuple[dict, int]:
    spec, grid, wave = _resolved(config)
    report = unstable_modes_JL(config.params, spec, wave, grid, re_tol=config["re_tol"])
    eigenvalues = [[float(z.real), float(z.imag)] for z in report.eigenvalues]
    return dict(vars(report), eigenvalues=eigenvalues), 0


def cmd_index(config: RunConfig) -> tuple[dict, int]:
    spec, grid, wave = _resolved(config)
    verdict = stability_verdict(config.params, spec, wave, grid, **config.section("tolerances"))
    fields = asdict(verdict)
    result = {"index_report": fields.pop("index_report"), "verdict": fields}
    return result, 4 if verdict.verdict == "inconclusive" else 0


def cmd_threshold(config: RunConfig) -> tuple[dict, int]:
    if config["zmin"] is None or config["zmax"] is None:
        raise DomainError("threshold requires --zmin and --zmax")
    grid = _make_grid(config, standing_pulse(-1.0, 1.0).lam)  # a = -1; lam does not vary with b
    result = critical_ratio_bisection(config["zmin"], config["zmax"], config["tol"], grid)
    return dict(asdict(result), tol=config["tol"]), 0


def _scan_values(config: RunConfig) -> np.ndarray:
    if config["from"] is None or config["to"] is None or config["steps"] is None:
        raise DomainError("scan requires --param, --from, --to and --steps")
    if config["steps"] < 1:
        raise DomainError(f"--steps must be >= 1, got {config['steps']}")
    for key in ("from", "to"):
        if not np.isfinite(config[key]):
            raise DomainError(f"--{key} must be finite, got {config[key]}")
    return np.linspace(config["from"], config["to"], config["steps"])


def _scan_point(config: RunConfig, value: float) -> tuple[AbcParameters, WaveSpec]:
    params, sign = config.params, config["sign_branch"]
    if config["param"] == "eta0":
        return params, resolve_wave_parameters(params, float(value), sign)
    params = replace(params, b=float(value) * -params.a)  # z scan: b = z (-a), c = a
    return params, standing_pulse(params.a, params.b, sign)


def _scan_row(param: str, value: float, spec: WaveSpec, verdict) -> dict:
    row = dict.fromkeys(CSV_COLUMNS)  # None: an empty cell
    row.update({param: value, "w": spec.w})
    if isinstance(verdict, SolverError):
        print(f"solver failure at {param} = {value:.12g}: {verdict}", file=sys.stderr)
        row["verdict"] = SOLVER_FAILURE
        return row
    row.update(
        n_tilde_L=verdict.n_tilde_L,
        index_value=verdict.index_value,
        max_real_JL=verdict.max_real_part,
        verdict=verdict.verdict,
    )
    if param == "z":  # the free-amplitude index is exact, not a bracket
        row["lower_bound"] = verdict.index_report.lower_bound_3I
        row["upper_bound"] = verdict.index_report.upper_bound_3I
    return row


def _scan_results(config: RunConfig):
    """(value, spec, verdict or SolverError) of each scan row, in order."""
    if config["param"] not in ("eta0", "z"):
        raise DomainError(f"--param must be 'eta0' or 'z', got {config['param']}")
    values = _scan_values(config)
    points = [_scan_point(config, value) for value in values]
    # every row of a scan has the first row's width up to round-off
    grid = _make_grid(config, points[0][1].lam)
    verdicts = scan_verdicts(points, grid, **config.section("tolerances"))
    return zip(values, (spec for _, spec in points), verdicts)


def cmd_scan(config: RunConfig) -> tuple[str, int]:
    columns = [config["param"]] + CSV_COLUMNS
    rows = [
        _scan_row(config["param"], value, spec, verdict)
        for value, spec, verdict in _scan_results(config)
    ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_csv_cell(row[key]) for key in columns] for row in rows)
    failed = any(row["verdict"] == SOLVER_FAILURE for row in rows)
    return buffer.getvalue(), 3 if failed else 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _config_summary(config: RunConfig) -> dict:
    summary = dict(
        config.section("config"),
        command=config.command,
        tolerances=config.section("tolerances"),
    )
    if config.params is not None:
        summary["params"] = asdict(config.params)
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

    try:
        if config["output"]:
            with open(config["output"], "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    return code


# every option but --config can be set in a config file
_FILE_KEYS = {option.key for option in OPTIONS} - {"config"}


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
        if key not in _FILE_KEYS:
            raise DomainError(f"unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _given(args: argparse.Namespace) -> dict:
    """The values that flags or, below them, the config file give, by key;
    a file key that the command does not take is a domain error."""
    file_values = _parse_config_file(args.config) if args.config else {}
    given = {}
    for option in OPTIONS:
        key = option.key
        if key in file_values and args.command not in option.commands:
            raise DomainError(f"config key {key!r} is not an option of {args.command}")
        flag = getattr(args, key, None)  # None: not a flag of this command, or not given
        if flag is not None:
            given[key] = flag
        elif key in file_values:
            try:
                given[key] = option.type(file_values[key])
            except ValueError as exc:
                raise DomainError(f"config key {key!r}: {exc}") from exc
    return given


def _add(parser: argparse.ArgumentParser, option: Option) -> None:
    parser.add_argument(
        "--" + option.key.replace("_", "-"),
        dest=option.key,
        type=option.type,
        choices=option.choices,
        help=option.help and option.help.format(default=option.default),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsestab",
        description="Spectral-stability workbench for sech^2 pulses of the abc system",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every command are built once and shared
    common = argparse.ArgumentParser(add_help=False)
    for option in OPTIONS:
        if option.commands == COMMANDS:
            _add(common, option)
    for command in COMMANDS:
        flags = sub.add_parser(command, parents=[common])
        for option in OPTIONS:
            if option.commands != COMMANDS and command in option.commands:
                _add(flags, option)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    given = _given(args)

    params = None
    if args.command == "threshold" and given.keys() & {"a", "b", "c", "eta0", "sign_branch"}:
        raise DomainError(
            "threshold fixes a = -1 and bisects the standing waves over z; "
            "it takes no --a, --b, --c, --eta0 or --sign-branch"
        )
    if args.command == "scan" and "eta0" in given:
        raise DomainError("scan sets each row's eta0 (-3/2 on a z scan); it takes no --eta0")
    if args.command == "scan" and given.get("param") == "z":
        if "b" in given or "c" in given:
            raise DomainError("a z scan takes --a alone: each row sets b = z (-a) and c = a")
        a = given.get("a", -1.0)
        params = AbcParameters(a=a, b=-a, c=a)  # z = 1; each row sets its own b
    elif all(k in given for k in ("a", "b", "c")):
        params = AbcParameters(a=given["a"], b=given["b"], c=given["c"])
    elif any(k in given for k in ("a", "b", "c")):
        raise DomainError("provide all of --a, --b, --c or none")
    elif args.command == "scan" and given.get("param") == "eta0":
        raise DomainError("eta0 scans require --a, --b and --c")

    values = {option.key: given.get(option.key, option.default) for option in OPTIONS}
    config = RunConfig(args.command, values, params)
    check_tolerances(**config.section("tolerances"))
    return config


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
