"""The four benchmark workloads, as the `pnc` argv lists of one round.

A round is every invocation of a workload, run one after another in one
process (a closed loop with a single client).  The round's inputs come
from the round seed, which derives from the workload seed, so the same
workload seed always gives the same argv lists and the same RNG streams.

Sizes are fixed fractions of the acceptance sizes, small enough that a
round takes about two seconds on a 2-core box and a run of 15 seconds
holds several rounds.  The proportions inside each workload follow the
paper's figures, so the layer shares match the full-size runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

WORKLOADS = {
    "ber_curves": "the four acceptance BER curves at 2e5 bits/point: ML detection "
                  "and the mid-offset convolution, never the MI kernel",
    "mi_curves": "the reproduce_mi curves on 0-14 dB: the log-mixture MI kernel "
                 "of the time curves dominates, detection is barely touched",
    "short_frames": "BER and MI of all scenarios at frame 100 with 4 batches: "
                    "per-frame set-up (hypotheses, taps) dominates, not kernels",
    "closed_form": "pnc penalty over roll-offs and pnc chain over N: analysis and "
                   "chain, which no Monte-Carlo workload runs",
}

# Functions a traced run of each workload must reach; a traced run in which
# one of them records no calls fails.
_MONTE_CARLO = ("cli.main", "impairments.isi_taps", "impairments.mid_offset_frame",
                "detection.build_hypotheses", "mapping.qpsk_modulate")
_BER = ("harness.run_ber", "harness.write_ber_csv", "detection.ml_xor_bits",
        "detection.threshold_bits", "impairments.raised_cosine", "impairments.fold_phase")
_MI = ("harness.run_mi", "harness.write_mi_csv", "mutual_info.mi_time_unsync",
       "mutual_info.mi_given_theta", "mutual_info.mi_phase_unsync")
REQUIRED = {
    "ber_curves": _MONTE_CARLO + _BER,
    "mi_curves": _MONTE_CARLO + _MI,
    "short_frames": _MONTE_CARLO + _BER + _MI,
    "closed_form": ("cli.main", "harness.write_penalty_csv", "analysis.emit_penalty_curves",
                    "analysis.avg_sinr_penalty_db", "analysis.worst_sinr_penalty_db",
                    "analysis.isi_variance", "impairments.raised_cosine",
                    "chain.make_plan", "chain.serialize_plan"),
}

# closed_form draws its inputs per round from these grids; the references
# cover every value in them.
ROLLOFFS = tuple(round(0.05 * k, 2) for k in range(1, 21))
CHAIN_NODES = (3, 4, 5, 6, 7, 9, 12, 16, 21, 27, 35, 46, 60, 79, 103, 135,
               177, 232, 304, 399, 523, 686, 900, 1181)
PENALTIES_PER_ROUND = 8
CHAINS_PER_ROUND = 12
CHAIN_PERIOD = 10000.0


@dataclass(frozen=True)
class Invocation:
    """One `pnc` call without its --seed and --out arguments."""

    command: str                 # ber | mi | penalty | chain
    options: tuple = ()          # extra (flag, value) pairs; value None = bare flag
    grid: str | None = None      # --snr-grid for ber and mi
    samples: int | None = None   # --samples for ber and mi

    def argv(self) -> list[str]:
        out = [self.command]
        for flag, value in self.options:
            out.append(flag)
            if value is not None:
                out.append(str(value))
        if self.grid is not None:
            out += ["--snr-grid", self.grid]
        if self.samples is not None:
            out += ["--samples", str(self.samples)]
        return out

    @property
    def case(self) -> str:
        """Reference key: invocations of one case share an output distribution."""
        return " ".join(self.argv())

    def grid_points(self) -> list[float]:
        """The SNR values the output rows must carry, in order."""
        start, stop, step = (float(v) for v in self.grid.split(":"))
        n = int(round((stop - start) / step)) + 1
        return [start + i * step for i in range(n)]


def _scen(scenario, offset=None, frame=None, workers=None):
    opts = [("--scenario", scenario)]
    if offset is not None:
        opts.append(("--offset-range", offset))
    if frame is not None:
        opts.append(("--frame-length", frame))
    if workers is not None:
        opts.append(("--workers", workers))
    return tuple(opts)


_BER_BITS = 200_000
_MI_SAMPLES = 2_000

_FIXED = {
    "ber_curves": (
        Invocation("ber", _scen("perfect"), "0:15:0.5", _BER_BITS),
        Invocation("ber", _scen("time_unsync", 0.2), "7:9:0.25", _BER_BITS),
        Invocation("ber", _scen("time_unsync", 0.5), "3:6:0.5", _BER_BITS),
        Invocation("ber", _scen("phase_unsync"), "11:15:0.5", _BER_BITS),
    ),
    "mi_curves": (
        Invocation("mi", _scen("perfect"), "0:14:1", _MI_SAMPLES),
        Invocation("mi", _scen("phase_unsync"), "0:14:1", _MI_SAMPLES),
        Invocation("mi", _scen("time_unsync", 0.5), "0:14:1", _MI_SAMPLES),
        Invocation("mi", _scen("time_unsync", 0.2), "0:14:1", _MI_SAMPLES),
    ),
    "short_frames": (
        Invocation("ber", _scen("perfect", frame=100, workers=4), "0:12:0.25", 10_000),
        Invocation("ber", _scen("phase_unsync", frame=100, workers=4), "8:14:0.5", 20_000),
        Invocation("ber", _scen("time_unsync", 0.5, frame=100, workers=4), "2:8:0.5", 20_000),
        Invocation("mi", _scen("perfect", frame=100, workers=4), "0:14:0.5", 2_000),
        Invocation("mi", _scen("phase_unsync", frame=100, workers=4), "0:14:1", 2_000),
        Invocation("mi", _scen("time_unsync", 0.5, frame=100, workers=4), "0:14:1", 1_000),
    ),
}


def _penalty(rolloff):
    return Invocation("penalty", (("--rolloff", rolloff),))


def _chain(nodes, halved):
    opts = (("--nodes", nodes), ("--period", CHAIN_PERIOD))
    return Invocation("chain", opts + ((("--halved", None),) if halved else ()))


def round_seed(seed: int, rnd: int) -> int:
    """Seed of round `rnd` of a run with workload seed `seed`."""
    return seed * 1000 + rnd


def round_invocations(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one round with round seed `seed`."""
    if workload in _FIXED:
        return list(_FIXED[workload])
    if workload != "closed_form":
        raise ValueError(f"unknown workload {workload!r}")
    pick = random.Random(seed)
    rolloffs = sorted(pick.sample(ROLLOFFS, PENALTIES_PER_ROUND))
    nodes = sorted(pick.sample(CHAIN_NODES, CHAINS_PER_ROUND))
    return ([_penalty(b) for b in rolloffs]
            + [_chain(n, pick.random() < 0.5) for n in nodes])


def reference_cases(workload: str) -> list[Invocation]:
    """Every case a round of `workload` can contain."""
    if workload in _FIXED:
        return list(_FIXED[workload])
    return ([_penalty(b) for b in ROLLOFFS]
            + [_chain(n, h) for n in CHAIN_NODES for h in (False, True)])


def shrink(inv: Invocation) -> Invocation:
    """The same code path as `inv` at the smallest size: two SNR points, 1000 samples."""
    if inv.grid is None:
        return inv
    first = float(inv.grid.split(":")[0])
    return replace(inv, grid=f"{first:g}:{first + 1:g}:1", samples=1000)


def warmup_invocations(workload: str) -> list[Invocation]:
    """One shrunken call per distinct command and scenario of the workload.

    Runs before the timed rounds so that lazy imports and first-call set-up
    inside numpy and scipy are not charged to the first round.
    """
    seen, out = set(), []
    for inv in reference_cases(workload):
        key = (inv.command, inv.options[0] if inv.grid is not None else None)
        if key not in seen:
            seen.add(key)
            out.append(shrink(inv))
    return out
