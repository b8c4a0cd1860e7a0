"""Command-line entry point: pnc ber|mi|penalty|chain."""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import fields
from decimal import Decimal, InvalidOperation
from pathlib import Path

from . import harness

_MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> tuple:
    """SNR grid as 'start:stop[:step]' (default step 1) or a list, as in a config file.

    A range holds start + i*step for every i that stays at or below stop.
    Points are computed in decimal and rounded once, so '0:1:0.3' gives
    0.9, not 0.8999999999999999.  A range must give at most
    _MAX_GRID_POINTS strictly increasing finite floats in [start, stop].
    """
    if ":" not in text:
        return harness.parse_floats(text)
    parts = text.split(":")
    if len(parts) == 2:
        parts.append("1")
    try:
        start, stop, step = (Decimal(v) for v in parts)
    except (InvalidOperation, ValueError):
        raise ValueError(f"snr grid {text!r}: expected 'start:stop[:step]'") from None
    if not (start.is_finite() and stop.is_finite() and step.is_finite()):
        problem = "values must be finite"
    elif step <= 0:
        problem = "step must be positive"
    elif stop < start:
        problem = "stop is below start"
    else:
        try:
            n = min(int((stop - start) // step) + 1, _MAX_GRID_POINTS + 1)
            grid = tuple(float(start + i * step) for i in range(n))
        except ArithmeticError:  # beyond the decimal context's precision or exponent range
            grid = ()
        lo, hi = float(start), float(stop)
        if 0 < len(grid) <= _MAX_GRID_POINTS and all(b > a for a, b in zip(grid, grid[1:])) \
                and all(math.isfinite(g) and lo <= g <= hi for g in grid):
            return grid
        problem = f"points must be 1 to {_MAX_GRID_POINTS} distinct finite floats"
    raise ValueError(f"snr grid {text!r}: {problem}")


def _common(sub):
    sub.set_defaults(usage_error=sub.error)  # names this subcommand's usage
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--seed", dest="master_seed", type=int, help="master RNG seed")
    sub.add_argument("--workers", type=int, help="batches per SNR point, run in turn, not in "
                     "parallel; each rounds its share of --samples up to whole frames")
    sub.add_argument("--out", dest="output_path", help="output file path")


def build_parser() -> argparse.ArgumentParser:
    """The `pnc` parser; each option's dest is the ExperimentConfig field it sets."""
    ap = argparse.ArgumentParser(
        prog="pnc",
        description="Synchronization-error experiments for physical-layer "
                    "network coding on a two-way relay")
    sp = ap.add_subparsers(dest="command", required=True)

    for cmd, blurb in (("ber", "Monte-Carlo xor BER at the relay"),
                       ("mi", "Monte-Carlo mutual information at the relay")):
        sub = sp.add_parser(cmd, help=blurb)
        _common(sub)
        sub.add_argument("--scenario", choices=harness.SCENARIOS)
        sub.add_argument("--snr-grid", dest="snr_grid_db",
                         help="'start:stop[:step]' or a comma or space list, dB")
        sub.add_argument("--samples", dest="samples_per_point", type=int,
                         help="bits (ber) or samples (mi) per SNR point")
        sub.add_argument("--offset-range", type=float,
                         help="time-offset half-range x, dt/T in [-x, x]")
        sub.add_argument("--rolloff", type=float)
        sub.add_argument("--frame-length", type=int)

    sub = sp.add_parser("penalty", help="closed-form penalty curves and summary")
    _common(sub)
    sub.add_argument("--rolloff", type=float)

    sub = sp.add_parser("chain", help="N-node chain synchronization plan")
    _common(sub)
    sub.add_argument("--nodes", dest="chain_nodes", type=int)
    sub.add_argument("--bg-time", dest="chain_bg_time", type=float,
                     help="per-group sync time, s")
    sub.add_argument("--period", dest="chain_period", type=float,
                     help="resynchronization period, s")
    sub.add_argument("--errors", dest="chain_local_errors",
                     help="local error triple 'theta,freq,time'")
    sub.add_argument("--halved", dest="chain_halved", action="store_true", default=None,
                     help="also report the combined-sub-phase ts/2 estimate")
    return ap


def _overrides(args) -> dict:
    """The ExperimentConfig fields the command line sets, parsed."""
    ov = {f.name: getattr(args, f.name) for f in fields(harness.ExperimentConfig)
          if getattr(args, f.name, None) is not None}
    if "snr_grid_db" in ov:
        ov["snr_grid_db"] = _parse_grid(ov["snr_grid_db"])
    if "chain_local_errors" in ov:
        ov["chain_local_errors"] = harness.parse_floats(ov["chain_local_errors"])
    return ov


def main(argv=None) -> int:
    """Run one `pnc` command; bad input exits 2 with a one-line message, as argparse does."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        ov = _overrides(args)
        if args.config:
            cfg = harness.config_from_file(args.config, **ov)
        else:
            cfg = harness.ExperimentConfig(**ov)
        out = cfg.output_path and Path(cfg.output_path)
        if out and not out.parent.is_dir():
            raise ValueError(f"output path {cfg.output_path!r}: {str(out.parent)!r} "
                             "is not a directory")
        if out and out.is_dir():
            raise ValueError(f"output path {cfg.output_path!r} is a directory")
    except ValueError as exc:
        args.usage_error(str(exc))

    if cfg.command == "ber":
        results = harness.run_ber(cfg)
        for r in results:
            print(f"snr {r.snr_db:6.2f} dB  {r.scenario:<20s} ber {r.ber:.6e} "
                  f"({r.num_errors}/{r.num_bits})")
    elif cfg.command == "mi":
        results = harness.run_mi(cfg)
        for e in results:
            print(f"snr {e.snr_db:6.2f} dB  {e.scenario:<20s} "
                  f"mi {e.mi_bits_per_dim:.4f} bit/dim  (n={e.num_samples})")
    elif cfg.command == "penalty":
        _, summary = harness.run_penalty(cfg)
        for key, val in summary.items():
            print(f"{key} = {val:.4f}")
    else:
        text = harness.run_chain(cfg)
        if not cfg.output_path:
            print(text, end="")
    if cfg.output_path:
        print(f"wrote {cfg.output_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
