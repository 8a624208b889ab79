#!/usr/bin/env python3
"""Process-matrix diagnostics for a set of nominal (a, b) filters.

For each filter, injects residual basis-state phases, then prints the
process purity, the raw fidelity against the ideal rank-1 process, and the
fidelity after the phase compensation recovers the injected profile.

Usage: python scripts/filter_process_metrics.py [--phases 0,0.15,-0.1,0]
"""

import argparse
import sys

from coherence_forge import DomainError
from coherence_forge.cli import EXIT_DOMAIN, float_list
from coherence_forge.optics import (
    PhaseProfile,
    choi_of_filter,
    compensate_phases,
    process_metrics,
)
from coherence_forge.synthesis import TwoQubitFilterParams

NOMINAL = [(0.0, 0.0), (0.0, 1.0), (0.32, 0.8), (0.64, 0.8), (1.0, 1.0)]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--phases", type=float_list, default="0,0.15,-0.1,0.05")
    args = parser.parse_args()
    phases = PhaseProfile(phases=args.phases)

    print(f"{'a':>6} {'b':>6} {'purity':>10} {'fidelity':>10} {'compensated':>12}")
    for a, b in NOMINAL:
        filt = TwoQubitFilterParams(a=a, b=b).to_filter()
        ideal = choi_of_filter(filt)
        noisy = choi_of_filter(filt, phases)
        purity, fidelity = process_metrics(noisy, ideal)
        compensated, _ = compensate_phases(noisy)
        _, recovered = process_metrics(compensated, ideal)
        print(f"{a:6.3f} {b:6.3f} {purity:10.6f} {fidelity:10.6f} {recovered:12.6f}")


if __name__ == "__main__":
    try:
        main()
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_DOMAIN)
