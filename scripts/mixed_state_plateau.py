#!/usr/bin/env python3
"""Mixed-state scan of the ground-removing filter family.

For each purity parameter eta, optimizes b in the filter diag(0, b, b, 1)
over a grid of populations p, writes a CSV, and reports the plateau value
and the detected threshold population above which b = 1 becomes optimal.

Usage: python scripts/mixed_state_plateau.py [--etas 0.5,0.75,1.0] [--out results/mixed_scan.csv]
"""

import argparse
from pathlib import Path

import numpy as np

from coherence_forge import mixed_scan, plateau_threshold
from coherence_forge.cli import write_scan_csv


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--etas", default="0.5,0.75,1.0")
    parser.add_argument("--p-min", type=float, default=0.05)
    parser.add_argument("--p-max", type=float, default=0.6)
    parser.add_argument("--steps", type=int, default=23)
    parser.add_argument("--out", default="results/mixed_scan.csv")
    args = parser.parse_args()

    etas = [float(tok) for tok in args.etas.split(",")]
    p_values = list(np.linspace(args.p_min, args.p_max, args.steps))
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    rows = []
    for eta in etas:
        points = mixed_scan(eta, p_values)
        rows.extend((eta, pt) for pt in points)
        plateau = [pt for pt in points if pt.b_opt < 1 - 1e-6]
        if plateau and eta > 0:
            threshold = plateau_threshold(eta)
            print(
                f"eta = {eta:g}: plateau C = {plateau[0].coherence:.6f} nats, "
                f"mean energy = {plateau[0].mean_energy:.6f}, threshold p = {threshold:.4f}"
            )
        else:
            print(f"eta = {eta:g}: no interior optimum in the scanned range")
    write_scan_csv(out_path, rows)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    main()
