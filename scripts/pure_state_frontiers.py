#!/usr/bin/env python3
"""Trade-off frontiers of the optimal vs factorized filter families.

Traces coherence and mean energy against success probability for a
two-qubit pure product state, writes one CSV per target plus an overlay
SVG, and prints where the collective filters beat the factorized ones.

Usage: python scripts/pure_state_frontiers.py [--p 0.1] [--grid 200] [--out-dir results]
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from coherence_forge import (
    DomainError,
    FilterFamily,
    FilterTarget,
    TWO_QUBIT_SPECTRUM,
    product_pure_state,
    trace_frontier,
)
from coherence_forge.cli import EXIT_DOMAIN, write_frontier_csv, write_frontier_svg


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.1)
    parser.add_argument("--grid", type=int, default=200)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    state = product_pure_state(args.p, 2)

    for target in (FilterTarget.COHERENCE, FilterTarget.ENERGY):
        traced = {
            fam: trace_frontier(state, TWO_QUBIT_SPECTRUM, target, fam, grid=args.grid)
            for fam in FilterFamily
        }
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"frontier_{target.value}_p{args.p:g}.csv"
        write_frontier_csv(csv_path, [pt for pts in traced.values() for pt in pts])
        svg_path = out_dir / f"frontier_{target.value}_p{args.p:g}.svg"
        write_frontier_svg(svg_path, traced, target, f"{target.value} frontier, p = {args.p:g}")
        factorized = traced[FilterFamily.FACTORIZED]
        fact_ps = np.array([q.p_success for q in factorized])
        fact_val = np.array([q.measure(target) for q in factorized])
        gaps = [
            (pt.p_success, pt.measure(target) - float(np.interp(pt.p_success, fact_ps, fact_val)))
            for pt in traced[FilterFamily.OPTIMAL]
        ]
        ps, gap = max(gaps, key=lambda t: t[1])
        print(f"{target.value}: wrote {csv_path} and {svg_path}")
        print(f"  largest collective-vs-factorized gap {gap:.4f} at P_S = {ps:.4f}")


if __name__ == "__main__":
    try:
        main()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_DOMAIN)
