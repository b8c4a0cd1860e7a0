#!/usr/bin/env python3
"""Monte-Carlo mutual information of the xor symbol at the relay.

Writes results/mi_<scenario>.csv for perfect sync, phase offset uniform
over [-pi/4, pi/4], and time offset uniform over [-0.2T, 0.2T] and
[-T/2, T/2].  Defaults: 10^5 samples per SNR point on 0..14 dB.
"""

import argparse
import os
import sys

from pncsync.harness import ExperimentConfig, run_mi, scenario_label, write_mi_csv

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")

RUNS = [
    ("perfect", None),
    ("phase_unsync", None),
    ("time_unsync", 0.2),
    ("time_unsync", 0.5),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--samples", type=int, default=100_000, help="samples per SNR point")
    ap.add_argument("--seed", type=int, default=1234567)
    args = ap.parse_args()

    os.makedirs(RESULTS, exist_ok=True)
    grid = tuple(float(s) for s in range(0, 15))
    for scenario, offset in RUNS:
        cfg = ExperimentConfig(command="mi", scenario=scenario, snr_grid_db=grid,
                               samples_per_point=args.samples, offset_range=offset,
                               master_seed=args.seed)
        tag = scenario_label(cfg)
        out = os.path.join(RESULTS, f"mi_{tag}.csv")
        est = run_mi(cfg)
        write_mi_csv(out, cfg, est)
        print(f"{tag:<22s} mi at {grid[-1]:.0f} dB: {est[-1].mi_bits_per_dim:.4f} "
              f"bit/dim  -> {os.path.normpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
