#!/usr/bin/env python3
"""Mixed-state scan of the ground-removing filter family.

For each purity parameter eta, optimizes b in the filter diag(0, b, b, 1)
over a grid of populations p, writes a CSV, and reports the plateau value
and the exact threshold population 1/(1 + t*) above which b = 1 becomes
optimal (``plateau_threshold``).

Usage: python scripts/mixed_state_plateau.py [--etas 0.5,0.75,1.0] [--out results/mixed_scan.csv]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from coherence_forge import DomainError, mixed_scan, plateau_threshold
from coherence_forge.cli import EXIT_DOMAIN, float_list, write_scan_csv
from coherence_forge.synthesis import MAX_SAMPLE_POINTS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--etas", type=float_list, default="0.5,0.75,1.0")
    parser.add_argument("--p-min", type=float, default=0.05)
    parser.add_argument("--p-max", type=float, default=0.6)
    parser.add_argument("--steps", type=int, default=23)
    parser.add_argument("--out", default="results/mixed_scan.csv")
    args = parser.parse_args()
    if not args.etas.size:
        parser.error("--etas needs at least one value")
    if args.steps < 2:
        parser.error("--steps must be at least 2")
    if args.steps > MAX_SAMPLE_POINTS:
        parser.error(f"--steps must be at most {MAX_SAMPLE_POINTS}")

    p_values = list(np.linspace(args.p_min, args.p_max, args.steps))
    rows = []
    for eta in args.etas.tolist():
        points = mixed_scan(eta, p_values)
        rows.extend((eta, pt) for pt in points)
        plateau = [pt for pt in points if pt.b_opt < 1 - 1e-6]
        if plateau and eta > 0:
            try:
                threshold = f"{plateau_threshold(eta):.4f}"
            except DomainError as exc:  # eta too small for the edge to be resolved
                threshold = f"unresolved ({exc})"
            print(
                f"eta = {eta:g}: plateau C = {plateau[0].coherence:.6f} nats, "
                f"mean energy = {plateau[0].mean_energy:.6f}, threshold p = {threshold}"
            )
        else:
            print(f"eta = {eta:g}: no interior optimum in the scanned range")
    out_path = Path(args.out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_scan_csv(out_path, rows)
    print(f"wrote {out_path}")


if __name__ == "__main__":
    try:
        main()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_DOMAIN)
