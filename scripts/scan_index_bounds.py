"""Sweep the standing-wave index over z = b/(-a) against its quadratic bounds.

Writes one CSV row per z with the numeric normalized index 3I/sqrt(-a) and
the lower/upper bound polynomials (which coincide at z = 1, where the
projection remainder vanishes).  Feed the CSV to any plotting tool to
reproduce the bound-gap picture.

Usage:
    python scripts/scan_index_bounds.py [--zmin 0.1] [--zmax 12] [--steps 60]
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

from pulsestab import (
    build_grid,
    index_lower_bound_poly,
    index_upper_bound_poly,
    standing_quadratic,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zmin", type=float, default=0.1)
    parser.add_argument("--zmax", type=float, default=12.0)
    parser.add_argument("--steps", type=int, default=60)
    parser.add_argument("--grid-n", type=int, default=512)
    parser.add_argument("--grid-len", type=float, default=100.0)
    parser.add_argument("--out", type=str, default="results/index_bounds.csv")
    args = parser.parse_args()
    if not args.zmin > 0:
        parser.error(f"z = b/(-a) must be positive, got --zmin {args.zmin}")

    grid = build_grid(args.grid_n, args.grid_len)
    # the index at a = -1 is a quadratic in z: one solve per operator serves every row
    quadratic = standing_quadratic(-1.0, grid)
    rows = []
    previous_sign = None
    for z in np.linspace(args.zmin, args.zmax, args.steps):
        report = quadratic.report(float(z))
        normalized = 3.0 * report.index_value
        rows.append((z, normalized, index_lower_bound_poly(z), index_upper_bound_poly(z)))
        sign = normalized > 0
        if previous_sign is not None and sign != previous_sign:
            print(f"index sign change near z = {z:.4f}")
        previous_sign = sign

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["z", "three_I_normalized", "lower_bound", "upper_bound"])
        writer.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
