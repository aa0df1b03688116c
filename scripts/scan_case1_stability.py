"""Verdict sweep over the free-amplitude family (a = c = -b).

Every subsonic amplitude eta0 in (-9/4, 0) should come out stable: one
negative direction, strictly negative branch-derivative index, and no
JL mode with positive real part.

Usage:
    python scripts/scan_case1_stability.py [--b 1.0] [--steps 20]
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path

import numpy as np

from pulsestab import (
    AbcParameters,
    build_grid,
    resolve_wave_parameters,
    scan_verdicts,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--b", type=float, default=1.0)
    parser.add_argument("--eta-min", type=float, default=-2.2)
    parser.add_argument("--eta-max", type=float, default=-0.1)
    parser.add_argument("--steps", type=int, default=20)
    parser.add_argument("--grid-n", type=int, default=512)
    parser.add_argument("--out", type=str, default="results/case1_stability.csv")
    args = parser.parse_args()

    params = AbcParameters(a=-args.b, b=args.b, c=-args.b)
    etas = np.linspace(args.eta_min, args.eta_max, args.steps)
    specs = [resolve_wave_parameters(params, float(eta0)) for eta0 in etas]
    # the rows share one grid and one eigenbasis of K, as in `pulsestab scan`
    grid = build_grid(args.grid_n, 50.0 / specs[0].lam)
    rows = []
    for eta0, spec, verdict in zip(etas, specs, scan_verdicts([(params, s) for s in specs], grid)):
        if isinstance(verdict, Exception):
            raise verdict
        rows.append(
            (eta0, spec.w, verdict.n_tilde_L, verdict.index_value,
             verdict.max_real_part, verdict.verdict)
        )
        print(f"eta0={eta0:+.4f}  w={spec.w:+.4f}  n={verdict.n_tilde_L}  "
              f"d(w)={verdict.index_value:+.5f}  maxRe={verdict.max_real_part:+.2e}  "
              f"{verdict.verdict}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["eta0", "w", "n_tilde_L", "index_value", "max_real_JL", "verdict"])
        writer.writerows(rows)
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
