"""Smoke run of the experiment script, in its own interpreter."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, out, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@pytest.mark.parametrize(
    "name, argv, rows, columns",
    [
        ("scan_index_bounds.py", ("--grid-n", "128", "--steps", "3"), 3, 4),
    ],
)
def test_scan_scripts(tmp_path, name, argv, rows, columns):
    out = tmp_path / "scan.csv"
    done = run_script(name, out, *argv)
    assert done.returncode == 0, done.stderr
    header, *body = read_csv(out)
    assert len(header) == columns
    assert len(body) == rows
    assert all(len(row) == columns for row in body)
