"""Command-line entry point: pnc ber|mi|penalty|chain."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from . import harness


_COMMAND_HELP = {
    "ber": "Monte-Carlo xor BER at the relay",
    "mi": "Monte-Carlo mutual information at the relay",
    "penalty": "closed-form penalty curves and summary",
    "chain": "N-node chain synchronization plan",
}
# flag and argparse options of each ExperimentConfig field but truncation (a
# config-file key only); `harness.reads` says which commands offer it
_FLAGS = {
    "master_seed": ("--seed", dict(type=int, help="master RNG seed")),
    "output_path": ("--out", dict(help="output file path")),
    "scenario": ("--scenario", dict(choices=harness.SCENARIOS)),
    "workers": ("--workers", dict(type=int, help="batches per SNR point, run in turn, not in "
                                  "parallel; each rounds its share of --samples up to whole "
                                  "frames")),
    "snr_grid_db": ("--snr-grid", dict(help="'start:stop[:step]' or a comma or space list, dB")),
    "samples_per_point": ("--samples", dict(type=int,
                                            help="bits (ber) or samples (mi) per SNR point")),
    "offset_range": ("--offset-range", dict(type=float,
                                            help="time-offset half-range x, dt/T in [-x, x]")),
    "rolloff": ("--rolloff", dict(type=float)),
    "frame_length": ("--frame-length", dict(type=int)),
    "chain_nodes": ("--nodes", dict(type=int)),
    "chain_bg_time": ("--bg-time", dict(type=float, help="per-group sync time, s")),
    "chain_period": ("--period", dict(type=float, help="resynchronization period, s")),
    "chain_local_errors": ("--errors", dict(help="local error triple 'theta,freq,time'")),
    "chain_halved": ("--halved", dict(action="store_true", default=None,
                                      help="also report the combined-sub-phase ts/2 estimate")),
}


def _build_parser() -> argparse.ArgumentParser:
    """The `pnc` parser; each option's dest is the ExperimentConfig field it sets.

    A subcommand offers a field's flag when it or one of its scenarios reads the field.
    """
    ap = argparse.ArgumentParser(
        prog="pnc",
        description="Synchronization-error experiments for physical-layer "
                    "network coding on a two-way relay")
    sp = ap.add_subparsers(dest="command", required=True)
    for cmd, blurb in _COMMAND_HELP.items():
        sub = sp.add_parser(cmd, help=blurb)
        sub.set_defaults(usage_error=sub.error)  # names this subcommand's usage
        sub.add_argument("--config", help="flat key=value config file")
        for name, (flag, options) in _FLAGS.items():
            if harness.reads(name, cmd):
                sub.add_argument(flag, dest=name, **options)
    return ap


# built once per process: parse_args keeps no state between calls, and
# in-process callers of main (tests, the benchmark worker) then skip the build
_PARSER = _build_parser()


def _overrides(args) -> dict:
    """The ExperimentConfig fields the command line sets; text parses as in a config file."""
    ov = {f.name: getattr(args, f.name) for f in fields(harness.ExperimentConfig)
          if getattr(args, f.name, None) is not None}
    return {k: harness.parse_value(k, v) if isinstance(v, str) else v for k, v in ov.items()}


def main(argv=None) -> int:
    """Run one `pnc` command; bad input exits 2 with a one-line message, as argparse does."""
    args = _PARSER.parse_args(argv)
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

    label = harness.scenario_label(cfg)  # of ber and mi rows
    if cfg.command == "ber":
        for snr, err, bits in harness.run_ber(cfg):
            print(f"snr {snr:6.2f} dB  {label:<20s} ber {err / bits:.6e} ({err}/{bits})")
    elif cfg.command == "mi":
        for snr, mi, n in harness.run_mi(cfg):
            print(f"snr {snr:6.2f} dB  {label:<20s} mi {mi:.4f} bit/dim  (n={n})")
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
