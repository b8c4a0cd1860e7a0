#!/usr/bin/env python3
"""Monte-Carlo xor BER at the relay for the three synchronization levels.

Writes results/ber_<scenario>.csv for: perfect sync, phase offset uniform
over [-pi/4, pi/4] (ML detection with known offset), and time offset
uniform over [-0.2T, 0.2T] and [-T/2, T/2] (mid-offset sampling with the
scaled threshold).  Defaults: 10^6 bits per SNR point, seed 1234567.
"""

import argparse
import os
import sys

from pncsync.harness import ExperimentConfig, run_ber, scenario_label, write_ber_csv

RESULTS = os.path.join(os.path.dirname(__file__), "..", "results")

RUNS = [
    ("perfect", None),
    ("phase_unsync", None),
    ("time_unsync", 0.2),
    ("time_unsync", 0.5),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bits", type=int, default=1_000_000, help="bits per SNR point")
    ap.add_argument("--seed", type=int, default=1234567)
    args = ap.parse_args()

    os.makedirs(RESULTS, exist_ok=True)
    grid = tuple(0.5 * i for i in range(31))  # 0..15 dB
    for scenario, offset in RUNS:
        cfg = ExperimentConfig(command="ber", scenario=scenario, snr_grid_db=grid,
                               samples_per_point=args.bits, offset_range=offset,
                               master_seed=args.seed)
        tag = scenario_label(cfg)
        out = os.path.join(RESULTS, f"ber_{tag}.csv")
        results = run_ber(cfg)
        write_ber_csv(out, cfg, results)
        floor = min(r.ber for r in results)
        print(f"{tag:<22s} lowest ber {floor:.3e}  -> {os.path.normpath(out)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
