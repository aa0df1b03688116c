"""The benchmark's workloads: seeded command streams and their oracles.

Each workload is a closed loop of `pulsestab` CLI commands issued by one
caller; the next command starts when the previous one has returned.  The
seed draws every input the program sees.  Each command's report is checked
against results known independently of the code under test (the corrected
standing-wave constants, the certified z* bracket, the closed-form Hill
counts), and a check returns the number of points the command evaluated:
one per verdict, or one per index evaluation of a bisection.

This module imports nothing from `pulsestab` at import time, so that the
set-up probes time the whole import of the package.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator

# z* of the standing branch, pinned by bisection at N = 1024, tol 1e-3, and
# the certified analytic bracket of the quadratic index bounds.
ZSTAR_PINNED = (9.9853, 9.9863)
ZSTAR_CERTIFIED = (9.44436, 10.51288)

SCAN_B = 1.0  # eta0-scan runs on the free-amplitude branch a = c = -b


class Mismatch(Exception):
    """A command's report disagrees with the oracle."""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    # inputs the oracle needs: "z" for index, "eta0" values for scan
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    grid_n: int
    warmup: tuple[str, ...]  # the first call, at a small grid, before timing
    commands: Callable[[random.Random], Iterator[Command]]
    check: Callable[[Command, str], int]  # returns points, raises Mismatch
    # commands per cycle of the stream; a run ends on a whole cycle, so the
    # mix of commands it times is the same however fast they run
    cycle: int = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# --- standing-verdict -------------------------------------------------------

STANDING_N = 1024


def _standing_commands(rng: random.Random) -> Iterator[Command]:
    # z = 1 is the coincidence a = c = -b where the verdict takes the
    # free-amplitude closed form and the CLI report takes case2_index.
    points = (1.0, rng.uniform(2.0, 8.0), rng.uniform(12.0, 13.0))
    while True:
        for z in points:
            argv = ("index", "--a", "-1", "--b", repr(z), "--c", "-1", "--eta0", "-1.5",
                    "--grid-n", str(STANDING_N))
            yield Command(argv, {"z": z})


def _standing_check(command: Command, text: str) -> int:
    z = command.expect["z"]
    result = json.loads(text)["result"]
    verdict, report = result["verdict"], result["index_report"]
    _require(verdict["n_tilde_L"] == 1, f"z={z}: n_tilde_L={verdict['n_tilde_L']}, expected 1")
    if z <= 8.0:
        expected = ("stable", "neg", 0, True)
    elif z >= 12.0:
        expected = ("unstable", "pos", 1, False)
    else:
        raise Mismatch(f"z={z} lies in no oracle interval")
    got = (verdict["verdict"], verdict["index_sign"], verdict["n_unstable_direct"],
           report["stable_by_index"])
    _require(got == expected, f"z={z}: (verdict, sign, direct, report) = {got}, expected {expected}")
    return 1


# Why: one 2N = 2048 eigenproblem per point, about 74% of it eigvals(JL), so
# spectra and discretization work shows here.  The cycle covers both verdicts
# and the z = 1 coincidence, where the verdict and the report take different
# index routes.
STANDING = Workload(
    name="standing-verdict",
    grid_n=STANDING_N,
    warmup=("index", "--a", "-1", "--b", "4", "--c", "-1", "--eta0", "-1.5", "--grid-n", "128"),
    commands=_standing_commands,
    check=_standing_check,
    cycle=3,
)


# --- zstar-bisect -----------------------------------------------------------

BISECT_N = 1024


def _bisect_commands(rng: random.Random) -> Iterator[Command]:
    argv = ("threshold", "--zmin", "9", "--zmax", "11", "--tol", "1e-3",
            "--grid-n", str(BISECT_N))
    while True:
        yield Command(argv)


def _bisect_check(command: Command, text: str) -> int:
    result = json.loads(text)["result"]
    z_star = result["z_star"]
    lo, hi = ZSTAR_PINNED
    _require(lo <= z_star <= hi, f"z*={z_star} outside [{lo}, {hi}]")
    lo, hi = ZSTAR_CERTIFIED
    _require(lo < z_star < hi, f"z*={z_star} outside the certified bracket ({lo}, {hi})")
    return int(result["evaluations"])


# Why: 13 case2_index evaluations on N x N scalar operators and no eigensolve,
# so nearly all the time is index_count and scalar assembly; a spectra-only
# change should read no change here.
BISECT = Workload(
    name="zstar-bisect",
    grid_n=BISECT_N,
    warmup=("threshold", "--zmin", "9", "--zmax", "11", "--tol", "0.5", "--grid-n", "256"),
    commands=_bisect_commands,
    check=_bisect_check,
)


# --- eta0-scan --------------------------------------------------------------

SCAN_N = 512
SCAN_STEPS = 8  # the scan size timed when the benchmark was specified


def _scan_commands(rng: random.Random) -> Iterator[Command]:
    # Both ends drawn inside [-2.2, -0.1], the subsonic range the README sweeps.
    while True:
        start, stop = rng.uniform(-2.2, -1.2), rng.uniform(-1.1, -0.1)
        argv = ("scan", "--param", "eta0", "--a", "-1", "--b", repr(SCAN_B), "--c", "-1",
                "--from", repr(start), "--to", repr(stop), "--steps", str(SCAN_STEPS),
                "--grid-n", str(SCAN_N))
        values = [start + (stop - start) * k / (SCAN_STEPS - 1) for k in range(SCAN_STEPS)]
        yield Command(argv, {"eta0": values})


def _scan_check(command: Command, text: str) -> int:
    from pulsestab.hill import case1_diagonal_reduction

    rows = list(csv.DictReader(io.StringIO(text)))
    expected = command.expect["eta0"]
    _require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
    for row, eta0 in zip(rows, expected):
        _require(math.isclose(float(row["eta0"]), eta0, rel_tol=1e-9, abs_tol=1e-12),
                 f"row eta0={row['eta0']}, expected {eta0}")
        n_tilde = int(row["n_tilde_L"])
        _, _, n_closed = case1_diagonal_reduction(eta0, SCAN_B)
        _require(row["verdict"] == "stable", f"eta0={eta0}: verdict {row['verdict']}")
        _require(n_tilde == 1 == n_closed,
                 f"eta0={eta0}: n_tilde_L={n_tilde}, closed form {n_closed}, expected 1")
    return len(rows)


# Why: many mid-size points through the scan's worker pool, whose threads
# contend with BLAS threads on few cores; the index is a closed form, so
# index_count idles.  A change that speeds one big matrix but slows concurrent
# small ones shows here.
SCAN = Workload(
    name="eta0-scan",
    grid_n=SCAN_N,
    warmup=("scan", "--param", "eta0", "--a", "-1", "--b", "1", "--c", "-1",
            "--from", "-1.5", "--to", "-0.5", "--steps", "2", "--grid-n", "128"),
    commands=_scan_commands,
    check=_scan_check,
)

WORKLOADS = {w.name: w for w in (STANDING, BISECT, SCAN)}
