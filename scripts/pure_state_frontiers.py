#!/usr/bin/env python3
"""Trade-off frontiers of the optimal vs factorized filter families.

Traces coherence and mean energy against success probability for a
two-qubit pure product state, writes one CSV per target plus an overlay
SVG, and prints where the collective filters beat the factorized ones.

Usage: python scripts/pure_state_frontiers.py [--p 0.1] [--grid 200] [--out-dir results]
"""

import argparse
from pathlib import Path

import numpy as np

from coherence_forge import (
    FilterFamily,
    FilterTarget,
    TWO_QUBIT_SPECTRUM,
    product_pure_state,
    trace_frontier,
)
from coherence_forge.cli import write_frontier_csv
from coherence_forge.svgplot import line_plot


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=float, default=0.1)
    parser.add_argument("--grid", type=int, default=200)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    state = product_pure_state(args.p, 2)

    for target in (FilterTarget.COHERENCE, FilterTarget.ENERGY):
        optimal = trace_frontier(
            state, TWO_QUBIT_SPECTRUM, target, FilterFamily.OPTIMAL, grid=args.grid
        )
        factorized = trace_frontier(
            state, TWO_QUBIT_SPECTRUM, target, FilterFamily.FACTORIZED, grid=args.grid
        )
        csv_path = out_dir / f"frontier_{target.value}_p{args.p:g}.csv"
        write_frontier_csv(csv_path, optimal + factorized)

        measure = (
            (lambda pt: pt.mean_energy)
            if target is FilterTarget.ENERGY
            else (lambda pt: pt.coherence)
        )
        svg_path = out_dir / f"frontier_{target.value}_p{args.p:g}.svg"
        svg_path.write_text(
            line_plot(
                [
                    ("optimal", [q.p_success for q in optimal], [measure(q) for q in optimal]),
                    (
                        "factorized",
                        [q.p_success for q in factorized],
                        [measure(q) for q in factorized],
                    ),
                ],
                "success probability",
                "mean energy" if target is FilterTarget.ENERGY else "coherence (nats)",
                title=f"{target.value} frontier, p = {args.p:g}",
            ),
            encoding="utf-8",
        )
        fact_ps = np.array([q.p_success for q in factorized])
        fact_val = np.array([measure(q) for q in factorized])
        gaps = [
            (pt.p_success, measure(pt) - float(np.interp(pt.p_success, fact_ps, fact_val)))
            for pt in optimal
        ]
        ps, gap = max(gaps, key=lambda t: t[1])
        print(f"{target.value}: wrote {csv_path} and {svg_path}")
        print(f"  largest collective-vs-factorized gap {gap:.4f} at P_S = {ps:.4f}")


if __name__ == "__main__":
    main()
