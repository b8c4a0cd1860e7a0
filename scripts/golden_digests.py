#!/usr/bin/env python3
"""sha256 of the `pnc` outputs for a fixed set of small configs.

A refactor that must not change any output runs this before and after
and compares the two listings.  The cases cover every scenario for BER
and MI, frame lengths 1000/100/37, batch counts 1-7, odd sample budgets
(whose per-scenario rounding differs), the default seed, the phase
scenario at 0-6 dB (where 27-80% of the ML decisions need the full
class scores), the time scenario at roll-offs 0.25 and 1.0 and, through a
config file, at truncation 8, and the penalty and chain commands.  Prints one
'case sha256' line per case.

    PYTHONPATH=src python scripts/golden_digests.py > digests.txt

With --check FILE it compares the digests with a listing instead (the
checked-in one is scripts/golden_digests.txt), names every case that
differs or is missing, and exits non-zero if any does:

    PYTHONPATH=src python scripts/golden_digests.py --check scripts/golden_digests.txt

--cases NAME... computes only the named cases (with --check, only those
are compared); tests/test_golden.py checks the fast closed-form ones so.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

from pncsync.cli import main as pnc

# (case, command, scenario, offset range, grid, samples, batches, frame length)
MONTE_CARLO = [
    ("ber_perfect_w1", "ber", "perfect", None, "0:12:1", 20000, 1, 1000),
    ("ber_perfect_odd_w3", "ber", "perfect", None, "2:6:0.5", 2001, 3, 1000),
    ("ber_perfect_f37_w7", "ber", "perfect", None, "0:8:2", 10001, 7, 37),
    ("ber_perfect_f100_w4", "ber", "perfect", None, "0:12:0.25", 10000, 4, 100),
    ("ber_phase_w1", "ber", "phase_unsync", None, "8:14:1", 20000, 1, 1000),
    ("ber_phase_odd_f1000", "ber", "phase_unsync", None, "8:10:1", 2001, 1, 1000),
    ("ber_phase_f100_w4", "ber", "phase_unsync", None, "8:14:0.5", 2001, 4, 100),
    ("ber_phase_f37_w7", "ber", "phase_unsync", None, "10:12:1", 10001, 7, 37),
    ("ber_phase_w3", "ber", "phase_unsync", None, "11:15:0.5", 5000, 3, 1000),
    ("ber_phase_low_w2", "ber", "phase_unsync", None, "0:6:1", 20000, 2, 1000),
    ("ber_time02_w1", "ber", "time_unsync", "0.2", "7:9:0.25", 20000, 1, 1000),
    ("ber_time05_odd_f1000", "ber", "time_unsync", "0.5", "3:6:0.5", 2001, 1, 1000),
    ("ber_time05_f100_w4", "ber", "time_unsync", "0.5", "2:8:0.5", 2001, 4, 100),
    ("ber_time05_f37_w7", "ber", "time_unsync", "0.5", "3:6:1", 10001, 7, 37),
    ("ber_time0_w3", "ber", "time_unsync", "0", "4:8:2", 5000, 3, 1000),
    ("ber_time_default", "ber", "time_unsync", None, "4:8:2", 4000, 1, 1000),
    ("mi_perfect_w1", "mi", "perfect", None, "0:14:1", 3000, 1, 1000),
    ("mi_perfect_odd_w3", "mi", "perfect", None, "0:6:0.5", 2001, 3, 1000),
    ("mi_perfect_f100_w4", "mi", "perfect", None, "0:14:0.5", 2000, 4, 100),
    ("mi_perfect_f37_w7", "mi", "perfect", None, "0:4:2", 10001, 7, 37),
    ("mi_phase_w1", "mi", "phase_unsync", None, "0:14:1", 2000, 1, 1000),
    ("mi_phase_odd_w3", "mi", "phase_unsync", None, "2:6:2", 2001, 3, 1000),
    ("mi_phase_f100_w4", "mi", "phase_unsync", None, "0:14:1", 2000, 4, 100),
    ("mi_phase_f37_w7", "mi", "phase_unsync", None, "0:4:2", 10001, 7, 37),
    ("mi_time05_w1", "mi", "time_unsync", "0.5", "0:14:1", 2000, 1, 1000),
    ("mi_time02_w1", "mi", "time_unsync", "0.2", "0:14:1", 2000, 1, 1000),
    ("mi_time05_odd_w3", "mi", "time_unsync", "0.5", "0:6:3", 2001, 3, 1000),
    ("mi_time05_f100_w4", "mi", "time_unsync", "0.5", "0:14:1", 1000, 4, 100),
    ("mi_time03_f37_w7", "mi", "time_unsync", "0.3", "0:4:2", 3001, 7, 37),
    ("mi_time0_w1", "mi", "time_unsync", "0", "2:4:2", 2000, 1, 1000),
    ("mi_time_default", "mi", "time_unsync", None, "2:4:2", 2000, 1, 1000),
]

OTHER = {
    "penalty_05": ["penalty"],
    "penalty_025": ["penalty", "--rolloff", "0.25"],
    "penalty_1": ["penalty", "--rolloff", "1.0"],
    "chain_5": ["chain", "--nodes", "5", "--bg-time", "1", "--period", "100"],
    "chain_9h": ["chain", "--nodes", "9", "--halved", "--errors", "0.2,0.01,0.003"],
    "ber_seed7": ["ber", "--scenario", "phase_unsync", "--snr-grid", "6,8",
                  "--samples", "20000", "--workers", "2", "--seed", "7"],
    "mi_seed7": ["mi", "--scenario", "time_unsync", "--offset-range", "0.3",
                 "--snr-grid", "4", "--samples", "5000", "--workers", "2", "--seed", "7"],
    "ber_default_seed": ["ber", "--snr-grid", "0:3:1", "--samples", "3000"],
    "ber_time05_r025": ["ber", "--scenario", "time_unsync", "--offset-range", "0.5",
                        "--rolloff", "0.25", "--snr-grid", "2:8:2", "--samples", "4000",
                        "--workers", "2", "--seed", "4242"],
    "ber_time05_r1": ["ber", "--scenario", "time_unsync", "--offset-range", "0.5",
                      "--rolloff", "1.0", "--snr-grid", "2:8:2", "--samples", "4000",
                      "--workers", "2", "--seed", "4242"],
    "mi_time05_r025": ["mi", "--scenario", "time_unsync", "--offset-range", "0.5",
                       "--rolloff", "0.25", "--snr-grid", "0:12:3", "--samples", "2000",
                       "--seed", "4242"],
    "mi_time05_r1": ["mi", "--scenario", "time_unsync", "--offset-range", "0.5",
                     "--rolloff", "1.0", "--snr-grid", "0:12:3", "--samples", "2000",
                     "--seed", "4242"],
}

# case -> (config file text, argv); the argv gains --config FILE
CONFIGS = {
    "ber_time04_t8_config": (
        "scenario = time_unsync\noffset_range = 0.4\ntruncation = 8\nrolloff = 0.35\n"
        "snr_grid_db = 2 5 8\nsamples_per_point = 4000\nframe_length = 200\n"
        "master_seed = 4242\n", ["ber"]),
    "mi_time04_t8_config": (
        "scenario = time_unsync\noffset_range = 0.4\ntruncation = 8\nrolloff = 0.35\n"
        "snr_grid_db = 0 4 8\nsamples_per_point = 2000\nframe_length = 200\n"
        "master_seed = 4242\n", ["mi"]),
    "penalty_t8_config": ("truncation = 8\nrolloff = 0.35\n", ["penalty"]),
}


def cases() -> dict:
    out = {}
    for name, cmd, scenario, offset, grid, samples, batches, frame in MONTE_CARLO:
        argv = [cmd, "--scenario", scenario, "--snr-grid", grid, "--samples", str(samples),
                "--workers", str(batches), "--frame-length", str(frame), "--seed", "4242"]
        if offset is not None:
            argv += ["--offset-range", offset]
        out[name] = argv
    out.update(OTHER)
    return out


def digests(names=None) -> dict:
    """{case: sha256 hex digest of its output file}, in case order; all cases or `names`."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        todo = cases()
        for name, (text, argv) in CONFIGS.items():
            cfg = os.path.join(tmp, name + ".cfg")
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            todo[name] = argv + ["--config", cfg]
        for name, argv in todo.items():
            if names is not None and name not in names:
                continue
            path = os.path.join(tmp, name + ".csv")
            with contextlib.redirect_stdout(io.StringIO()):
                pnc(argv + ["--out", path])
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def check(listing: str, got: dict, complete: bool = True) -> list:
    """One message per case whose digest differs from the listing's or is absent.

    With complete=False, `got` is a subset and listed cases it lacks are fine.
    """
    want = dict(line.split() for line in listing.splitlines() if line.strip())
    bad = [f"{name}: expected {want[name]}, got {digest}"
           for name, digest in got.items() if name in want and want[name] != digest]
    bad += [f"{name}: not in the listing" for name in got if name not in want]
    if complete:
        bad += [f"{name}: listed but not computed" for name in want if name not in got]
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", metavar="FILE",
                    help="compare with this listing instead of printing one")
    ap.add_argument("--cases", nargs="+", metavar="NAME", choices=[*cases(), *CONFIGS],
                    help="only these cases")
    args = ap.parse_args(argv)
    got = digests(args.cases)
    if args.check is None:
        for name, digest in got.items():
            print(f"{name} {digest}")
        return 0
    with open(args.check, encoding="utf-8") as fh:
        bad = check(fh.read(), got, complete=args.cases is None)
    for msg in bad:
        print(msg)
    print(f"{len(bad)} case(s) differ from {args.check}" if bad
          else f"all {len(got)} cases match {args.check}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
