"""Experiment configuration, seeded Monte-Carlo runners and CSV output.

Scenarios follow the three synchronization levels compared throughout:

  perfect        zero offsets; per-dimension midpoint threshold detection
  phase_unsync   phase offset uniform over [-pi/4, pi/4], drawn per frame
                 and known to the relay, which runs ML xor detection
  time_unsync    symbol-time offset uniform over [-x, x] symbols per frame,
                 mid-offset sampling and threshold detection at the
                 scaled level spacing

Each scenario is one row of a table: its RNG stream index and its BER and
MI batch functions.  One sweep drives both runners: batch b of SNR point i
draws from SeedSequence(seed, spawn_key=(scenario index, i, b)), and the
batches reduce in fixed order, so identical configurations produce
byte-identical output files.  The runners return the sweep's rows, one
tuple per SNR point: (snr_db, errors, bits) for BER and (snr_db, mi,
samples) for MI.  The CSV writers and `pnc` read these rows; scenario
label and seed are the config's.

Draw contract of a BER batch.  A batch works in blocks of at most _BLOCK
(2^16) symbols, whole frames where it has frames (at least one frame per
block), so its memory does not grow with the budget.  Per block, in order:

  perfect        uint8 indices (m,) into the 16 points of
                 `build_hypotheses`, in the class-major layout of
                 `mapping`, then noise (2, m) for I and Q
  phase_unsync   offsets uniform(-pi/4, pi/4) (F,), each through
                 `fold_phase`; uint8 indices (F, n) into each frame's
                 points, `build_hypotheses` of the F offsets; noise (2, F, n)
  time_unsync    offsets uniform(-x, x) (F,), no draw at x = 0; +-1 trains
                 (F, 2, 2, n + 2L) drawn as int32 (frame, I/Q, train,
                 symbol); noise (F, 2, n)

(`impairments.superposed_frames` and `impairments.time_offset_frames`.)
The MI batches draw through the same two.  Perfect and phase MI take
their G phase offsets (0 alone, or the 20 `mutual_info.PHASE_OFFSETS`)
as the G frames of `superposed_frames`, max(1, 2^14 // G) samples per
offset at a time: indices (G, n), then noise (2, G, n).  The time MI
draws one frame of one dimension at a time: offset, two trains, noise.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation

import numpy as np

from . import analysis, chain, mutual_info
from .detection import build_hypotheses, ml_xor_bits, threshold_bits
from .impairments import PulseShape, fold_phase, superposed_frames, time_offset_frames
from .mapping import POINT_BITS

COMMANDS = ("ber", "mi", "penalty", "chain")
# |SNR| bound of ber and mi: noise variance 1e-30 to 1e30; at a few thousand
# dB, 10^(-snr/10) under- or overflows and the estimators fail
MAX_ABS_SNR_DB = 300.0
_MAX_GRID_POINTS = 10_000  # points of an SNR range

_BER_MI = ("ber", "mi")  # the commands that run a scenario
# ExperimentConfig field -> the commands and scenarios that read it.  A field
# away from its default where its command and scenario do not read it is
# refused, and `pnc` offers its flag only on the commands that read it.
READERS = {
    **dict.fromkeys(("command", "output_path"), COMMANDS),
    # penalty and chain draw nothing, but bench/worker.py passes --seed to
    # every invocation of bench/workloads.py
    "master_seed": COMMANDS,
    **dict.fromkeys(("scenario", "snr_grid_db", "samples_per_point", "workers"), _BER_MI),
    # perfect BER and perfect and phase MI read no frames, but the short_frames
    # workload of bench/workloads.py passes them --frame-length 100
    "frame_length": _BER_MI,
    "offset_range": ("time_unsync",),
    **dict.fromkeys(("rolloff", "truncation"), ("penalty", "time_unsync")),
    **dict.fromkeys(("chain_nodes", "chain_bg_time", "chain_period", "chain_local_errors",
                     "chain_halved"), ("chain",)),
}


def reads(name: str, command: str, scenario: str | None = None) -> bool:
    """Whether `command` on `scenario` (on any of its scenarios if None) reads field `name`."""
    readers = READERS[name]
    scenarios = SCENARIOS if scenario is None else (scenario,)
    return command in readers or command in _BER_MI and any(s in readers for s in scenarios)


@dataclass(frozen=True)
class ExperimentConfig:
    command: str = "ber"
    scenario: str = "perfect"
    snr_grid_db: tuple = tuple(float(s) for s in range(0, 13))
    offset_range: float = 0.5           # time_unsync half-range x (dt/T in [-x, x])
    samples_per_point: int = 100_000    # bits for ber, samples for mi
    rolloff: float = 0.5
    truncation: int = 16
    master_seed: int = 12345
    workers: int = 1
    output_path: str | None = None
    frame_length: int = 1000
    # chain command inputs
    chain_nodes: int = 5
    chain_bg_time: float = 1.0
    chain_period: float = 100.0
    chain_local_errors: tuple = (0.1, 0.02, 0.001)
    chain_halved: bool = False

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"command must be one of {COMMANDS}, got {self.command!r}")
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        grid = tuple(float(s) for s in self.snr_grid_db)
        if not grid:
            raise ValueError("snr_grid_db must be non-empty")
        if not all(math.isfinite(s) for s in grid):
            raise ValueError(f"snr_grid_db must be finite, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ValueError("snr_grid_db must be strictly increasing")
        object.__setattr__(self, "snr_grid_db", grid)
        if self.command in _BER_MI:
            if self.samples_per_point < 1000:
                raise ValueError("samples_per_point must be >= 1000 for statistical commands")
            far = [s for s in grid if abs(s) > MAX_ABS_SNR_DB]
            if far:
                raise ValueError(f"snr_grid_db must lie within +-{MAX_ABS_SNR_DB:g} dB, "
                                 f"got {far[0]!r}")
            if self.frame_length > self.samples_per_point:
                raise ValueError(f"frame_length must be <= samples_per_point "
                                 f"({self.samples_per_point}), got {self.frame_length}")
        if not 0.0 <= self.offset_range <= 0.5:
            raise ValueError("offset_range must be in [0, 0.5]")
        self.pulse()  # rolloff in [0, 1] and truncation >= 1
        self.chain_config()  # chain inputs, feasibility included
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.frame_length < 1:
            raise ValueError("frame_length must be >= 1")
        if self.output_path == "":
            raise ValueError("output_path must not be empty")
        for f in fields(self):  # then every value a run would ignore
            if getattr(self, f.name) != f.default and \
                    not reads(f.name, self.command, self.scenario):
                readers = READERS[f.name]
                # a field some scenario reads is refused by the scenario, else by the command
                by_scenario = self.command in _BER_MI and not set(readers) <= set(COMMANDS)
                raise ValueError(f"{f.name} applies only to {' and '.join(readers)}, "
                                 f"not {self.scenario if by_scenario else self.command}")

    def pulse(self) -> PulseShape:
        return PulseShape(self.rolloff, self.truncation)

    def chain_config(self) -> chain.ChainConfig:
        return chain.ChainConfig(num_nodes=self.chain_nodes, bg_sync_time=self.chain_bg_time,
                                 period=self.chain_period, local_errors=self.chain_local_errors)


# ---------------------------------------------------------------------------
# config files: flat "key = value" lines; '#' starts a comment at the start of
# a line or after whitespace, so a value may hold one ("a#b.csv")


_COMMENT = re.compile(r"(?:^|\s)#")
_KINDS = {f.name: f.type.removesuffix(" | None") for f in fields(ExperimentConfig)}


def parse_config_file(path) -> dict:
    """Read a flat key-value config document into a dict of typed values."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, val = line.split("=", 1)
            key = key.strip()
            if key not in _KINDS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = parse_value(key, val.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return out


def parse_floats(text: str) -> tuple:
    """A list of floats separated by commas or whitespace, in a config file or a flag."""
    return tuple(float(v) for v in text.replace(",", " ").split())


def parse_value(name: str, text: str):
    """Config field `name` from its text, alike in a file and a flag, by its annotation."""
    if name == "snr_grid_db":
        return _parse_grid(text)
    kind = _KINDS[name]
    if kind == "tuple":
        return parse_floats(text)
    if kind == "bool":
        if text.lower() not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
            raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
        return text.lower() in ("1", "true", "yes", "on")
    return {"int": int, "float": float, "str": str}[kind](text)


def _parse_grid(text: str) -> tuple:
    """SNR grid as 'start:stop[:step]' (default step 1) or a list of floats.

    A range holds start + i*step for every i that stays at or below stop.
    Points are computed in decimal and rounded once, so '0:1:0.3' gives
    0.9, not 0.8999999999999999.  A range must give at most
    _MAX_GRID_POINTS strictly increasing finite floats in [start, stop].
    """
    if ":" not in text:
        return parse_floats(text)
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


def config_from_file(path, **overrides) -> ExperimentConfig:
    data = parse_config_file(path)
    data.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(**data)


# ---------------------------------------------------------------------------
# Monte-Carlo batches: (cfg, snr_db, budget, rng) -> (sum, count).  Each
# rounds its budget to whole symbols or frames its own way (2001 bits give
# 2000 perfect/phase bits, 4000 time bits at frame 1000), and its draw order
# is part of the RNG stream contract (module docstring).

_BLOCK = 1 << 16  # symbols per block of a BER batch


def _blocks(units: int, unit_symbols: int):
    """Sizes of the blocks of at most _BLOCK symbols (at least one unit) of a batch."""
    per = max(1, _BLOCK // unit_symbols)
    for start in range(0, units, per):
        yield min(per, units - start)


def _ber_perfect(cfg, snr_db, num_bits, rng):
    nsym = max(1, num_bits // 2)
    points = build_hypotheses((0.0,))  # levels 0 and +-2 per dimension
    err = 0
    for m in _blocks(nsym, 1):
        r, idx = superposed_frames(points, m, 10.0 ** (-snr_db / 20.0), rng)
        # the float view puts each sample's I and Q side by side, like its xor bits
        bits = threshold_bits(r.view(float), 1.0)
        err += int(np.count_nonzero(bits != np.take(POINT_BITS, idx, axis=0).reshape(1, -1)))
    return err, 2 * nsym


def _ber_phase(cfg, snr_db, num_bits, rng):
    sigma2 = 10.0 ** (-snr_db / 10.0)
    n = cfg.frame_length
    nframes = max(1, math.ceil(max(1, num_bits // 2) / n))
    err = 0
    for f in _blocks(nframes, n):
        drawn = rng.uniform(-math.pi / 4, math.pi / 4, f).tolist()
        points = build_hypotheses(tuple(fold_phase(t)[0] for t in drawn))
        r, idx = superposed_frames(points, n, math.sqrt(sigma2), rng)
        bits = ml_xor_bits(r.reshape(-1), points, sigma2)
        err += int(np.count_nonzero(bits != np.take(POINT_BITS, idx, axis=0).reshape(-1, 2)))
    return err, 2 * nframes * n


def _ber_time(cfg, snr_db, num_bits, rng):
    sd_half = 10.0 ** (-snr_db / 20.0) / 2.0  # half-amplitude sampling convention
    pulse = cfg.pulse()
    n = cfg.frame_length
    nframes = max(1, math.ceil(num_bits / (2 * n)))
    err = 0
    for f in _blocks(nframes, n):
        # independent I and Q streams, same offset per frame
        taps, r, truth = time_offset_frames(f, 2, n, cfg.offset_range, pulse, sd_half, rng)
        scale = 0.5 * taps[:, pulse.truncation_symbols, None, None]  # half of p(dt/2)
        err += int(np.count_nonzero(threshold_bits(r, scale) != truth))
    return err, 2 * nframes * n


def _mi_perfect(cfg, snr_db, num_samples, rng):
    return mutual_info.mi_given_theta(snr_db, 0.0, num_samples, rng) * num_samples, num_samples


def _mi_phase(cfg, snr_db, num_samples, rng):
    n = max(1, num_samples // mutual_info.PHASE_GRID_POINTS) * mutual_info.PHASE_GRID_POINTS
    return mutual_info.mi_phase_unsync(snr_db, num_samples, rng) * n, n


def _mi_time(cfg, snr_db, num_samples, rng):
    n = max(1, math.ceil(num_samples / cfg.frame_length)) * cfg.frame_length
    mi = mutual_info.mi_time_unsync(snr_db, cfg.offset_range, num_samples, rng,
                                    cfg.pulse(), cfg.frame_length)
    return mi * n, n


# scenario -> (its index in every RNG spawn key, BER batch, MI batch)
_SCENARIOS = {
    "perfect": (0, _ber_perfect, _mi_perfect),
    "phase_unsync": (1, _ber_phase, _mi_phase),
    "time_unsync": (2, _ber_time, _mi_time),
}
SCENARIOS = tuple(_SCENARIOS)


def scenario_label(cfg: ExperimentConfig) -> str:
    """Scenario column of the result rows; time_unsync carries its range."""
    if cfg.scenario == "time_unsync":
        return f"time_unsync_x{cfg.offset_range:g}"
    return cfg.scenario


def _sweep(cfg: ExperimentConfig, stream: int, batch):
    """(snr, sum, count) per SNR point, over cfg.workers batches of the budget.

    Batch b of point i draws from SeedSequence(seed, spawn_key=(stream, i, b))
    and the batches reduce in fixed order, so a result depends only on the
    config, the seed and the batch count.
    """
    share = max(1, cfg.samples_per_point // cfg.workers)
    for i, snr in enumerate(cfg.snr_grid_db):
        total = count = 0
        for b in range(cfg.workers):
            rng = np.random.default_rng(
                np.random.SeedSequence(cfg.master_seed, spawn_key=(stream, i, b)))
            s, n = batch(cfg, snr, share, rng)
            total += s
            count += n
        yield float(snr), total, count


# ---------------------------------------------------------------------------
# BER / MI / penalty / chain runners


def run_ber(cfg: ExperimentConfig) -> list[tuple]:
    """Monte-Carlo xor BER at the relay, one (snr_db, errors, bits) row per SNR point."""
    stream, batch, _ = _SCENARIOS[cfg.scenario]
    rows = list(_sweep(cfg, stream, batch))
    if cfg.output_path:
        write_ber_csv(cfg.output_path, cfg, rows)
    return rows


def run_mi(cfg: ExperimentConfig) -> list[tuple]:
    """Mutual information, one (snr_db, mi, samples) row per SNR point; mi in [0, 1] bit/dim."""
    stream, _, batch = _SCENARIOS[cfg.scenario]
    rows = [(snr, float(np.clip(acc / used, 0.0, 1.0)), used)
            for snr, acc, used in _sweep(cfg, stream, batch)]
    if cfg.output_path:
        write_mi_csv(cfg.output_path, cfg, rows)
    return rows


def run_penalty(cfg: ExperimentConfig):
    """Closed-form penalty curves and the scalar penalty/SIR summary of the CSV footer."""
    pulse = cfg.pulse()
    curves = analysis.emit_penalty_curves(pulse)
    avg_phase = analysis.avg_phase_penalty_db()
    pnc_sir = analysis.PNC_1D_SIR_DB
    summary = {
        "avg_phase_penalty_db": avg_phase,
        "worst_phase_penalty_db": analysis.phase_penalty_db(math.pi / 4),
        "avg_sinr_penalty_db": analysis.avg_sinr_penalty_db(pulse),
        "worst_sinr_penalty_db": analysis.worst_sinr_penalty_db(pulse),
        "sir_1d_traditional_db": analysis.sir_1d_traditional_db(4.0),
        "sir_1d_pnc_db": pnc_sir,
        "sir_1d_pnc_minus_avg_phase_db": pnc_sir + avg_phase,
    }
    if cfg.output_path:
        write_penalty_csv(cfg.output_path, cfg, curves, summary)
    return curves, summary


def run_chain(cfg: ExperimentConfig) -> str:
    """Serialized synchronization plan for the configured chain."""
    text = chain.serialize_plan(*chain.make_plan(cfg.chain_config(), halved_sync=cfg.chain_halved))
    if cfg.output_path:
        _write_lines(cfg.output_path, text.splitlines())
    return text


# ---------------------------------------------------------------------------
# CSV output (utf-8, LF, '#' header comments)


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ber_csv(path, cfg: ExperimentConfig, rows):
    """The rows of `run_ber` as a CSV file, with ber = errors / bits."""
    label, seed = scenario_label(cfg), cfg.master_seed
    lines = [
        "# figure: ber-vs-snr-sync-comparison",
        f"# scenario={cfg.scenario} offset_range={cfg.offset_range!r} "
        f"samples_per_point={cfg.samples_per_point} workers={cfg.workers} seed={seed}",
        "snr_db,scenario,ber,num_bits,num_errors,seed",
    ]
    lines += [f"{snr!r},{label},{err / bits!r},{bits},{err},{seed}" for snr, err, bits in rows]
    _write_lines(path, lines)


def write_mi_csv(path, cfg: ExperimentConfig, rows):
    """The rows of `run_mi` as a CSV file."""
    label, seed = scenario_label(cfg), cfg.master_seed
    lines = [
        "# figure: mutual-information-vs-snr-sync-comparison",
        f"# scenario={cfg.scenario} offset_range={cfg.offset_range!r} "
        f"samples_per_point={cfg.samples_per_point} seed={seed}",
        "snr_db,scenario,mi_bits_per_dim,num_samples,num_workers,seed",
    ]
    lines += [f"{snr!r},{label},{mi!r},{n},{cfg.workers},{seed}" for snr, mi, n in rows]
    _write_lines(path, lines)


def write_penalty_csv(path, cfg: ExperimentConfig, curves, summary):
    lines = [
        "# figure: sync-error-penalty-curves",
        f"# rolloff={cfg.rolloff!r} truncation={cfg.truncation} snr0_db={analysis.SNR0_DB!r}",
        "curve,parameter,penalty_db",
    ]
    for name, points in curves:
        for p, v in points:
            lines.append(f"{name},{p!r},{v!r}")
    for key, val in summary.items():
        lines.append(f"# {key} = {val!r}")
    _write_lines(path, lines)
