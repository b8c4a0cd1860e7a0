import hashlib
import json
import math
import re
import shlex
import tracemalloc
from dataclasses import fields
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.special import erfc

from pncsync import harness
from pncsync.cli import _build_parser, _overrides, main as cli_main
from pncsync.impairments import PulseShape, isi_taps, mid_offset_frame, raised_cosine
from pncsync.mutual_info import mi_given_theta
from pncsync.harness import (ExperimentConfig, _parse_grid, config_from_file, parse_config_file,
                             run_ber, run_chain, run_mi, run_penalty, scenario_label)
from oracles import horizontal_gap_db, max_horizontal_gap_db, snr_at_level, time_ber
from test_traced_workloads import workloads as bench_workloads


def qfunc(x):
    return 0.5 * erfc(x / math.sqrt(2.0))


def perfect_ber_theory(snr_db):
    # threshold crossing over levels {0, +-2} with threshold +-1:
    # 1.5 Q(1/sigma) - 0.5 Q(3/sigma)
    s = 10.0 ** (-snr_db / 20.0)
    return 1.5 * qfunc(1.0 / s) - 0.5 * qfunc(3.0 / s)


def cli_usage_error(argv, capsys) -> str:
    """The one-line message `pnc` exits 2 with on bad input, without a traceback.

    The usage line above it is that of the subcommand the message names.
    """
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.splitlines()
    prog = lines[-1].partition(": error: ")[0]
    assert lines[0].startswith(f"usage: {prog} "), (lines[0], prog)
    return lines[-1]


# ---------------------------------------------------------------------------
# config


def test_config_defaults_valid():
    cfg = ExperimentConfig()
    assert cfg.command == "ber"
    assert cfg.snr_grid_db[0] == 0.0 and cfg.snr_grid_db[-1] == 12.0


def test_config_validation(tmp_path, capsys):
    for bad in (dict(command="nope"), dict(scenario="nope"), dict(snr_grid_db=()),
                dict(snr_grid_db=(3.0, 2.0)), dict(samples_per_point=10),
                dict(offset_range=0.7), dict(workers=0), dict(master_seed=-1),
                dict(chain_bg_time=math.nan), dict(command="penalty", chain_nodes=2)):
        with pytest.raises(ValueError):
            ExperimentConfig(**bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(snr_grid_db=(0.0, bad))
    # a time-offset range the scenario would silently ignore
    for scenario in ("perfect", "phase_unsync"):
        for command in ("ber", "mi"):
            with pytest.raises(ValueError, match="only to time_unsync"):
                ExperimentConfig(command=command, scenario=scenario, offset_range=0.2)
    ExperimentConfig(scenario="time_unsync", offset_range=0.2)
    # a frame longer than the budget: ber would allocate it whole, mi would run it whole
    for command in ("ber", "mi"):
        with pytest.raises(ValueError, match=r"^frame_length must be <= samples_per_point "
                                             r"\(1000\), got 1001$"):
            ExperimentConfig(command=command, scenario="time_unsync", samples_per_point=1000,
                             frame_length=1001)
        ExperimentConfig(command=command, scenario="time_unsync", samples_per_point=1000,
                         frame_length=1000)
    # penalty and chain draw no samples, so they refuse a sample budget
    with pytest.raises(ValueError, match="^samples_per_point applies only to ber and mi, "
                                         "not penalty$"):
        ExperimentConfig(command="penalty", samples_per_point=1)
    # the pulse is range-checked for every command and scenario
    for command in harness.COMMANDS:
        for bad in (7.0, -3.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="rolloff"):
                ExperimentConfig(command=command, rolloff=bad, samples_per_point=1000)
        for bad in (0, -4):
            with pytest.raises(ValueError, match="truncation"):
                ExperimentConfig(command=command, truncation=bad, samples_per_point=1000)
    for edge in (0.0, 1.0):  # valid where the pulse is read
        ExperimentConfig(command="penalty", rolloff=edge, truncation=1)
        for command in ("ber", "mi"):
            ExperimentConfig(command=command, scenario="time_unsync", rolloff=edge, truncation=1)
    for argv in (["ber", "--scenario", "perfect", "--rolloff", "7", "--snr-grid", "4"],
                 ["mi", "--scenario", "phase_unsync", "--rolloff", "-3", "--snr-grid", "4"],
                 ["penalty", "--rolloff", "1.5"]):
        assert re.fullmatch(f"pnc {argv[0]}: error: rolloff must be in .*",
                            cli_usage_error(argv, capsys))
    p = tmp_path / "t0.cfg"
    p.write_text("command = penalty\ntruncation = 0\n", encoding="utf-8")
    assert cli_usage_error(["penalty", "--config", str(p)], capsys) == \
        "pnc penalty: error: truncation must be >= 1, got 0"
    # library callers still get the ValueError
    with pytest.raises(ValueError, match="truncation must be >= 1"):
        config_from_file(p)
    p.write_text("output_path =\n", encoding="utf-8")
    assert cli_usage_error(["mi", "--config", str(p), "--snr-grid", "5", "--samples", "1000"],
                           capsys) == "pnc mi: error: output_path must not be empty"


def test_config_file_roundtrip(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        "# comment\n"
        "command = mi\n"
        "scenario = time_unsync\n"
        "snr_grid_db = 0, 2, 4  # note\n"
        "offset_range = 0.2\n"
        "samples_per_point = 5000\n"
        "master_seed = 99\n"
        "  # indented comment\n"
        "output_path = runs/a#b.csv\t# '#' after whitespace starts a comment\n"
        "workers = 2\n",
        encoding="utf-8")
    cfg = config_from_file(p)
    assert cfg.command == "mi"
    assert cfg.scenario == "time_unsync"
    assert cfg.snr_grid_db == (0.0, 2.0, 4.0)
    assert cfg.output_path == "runs/a#b.csv"  # '#' inside a value is kept
    assert cfg.offset_range == 0.2
    assert cfg.master_seed == 99 and cfg.workers == 2
    # overrides win
    cfg2 = config_from_file(p, master_seed=7)
    assert cfg2.master_seed == 7


def test_config_file_reads_back_every_field(tmp_path):
    # per command, every field it reads away from its default, so a field whose
    # annotation has no parser, or that the file cannot set, fails here
    away = dict(scenario="time_unsync", snr_grid_db=(1.5, 3.0), offset_range=0.25,
                samples_per_point=5000, rolloff=0.35, truncation=8, master_seed=7, workers=3,
                output_path="out/mi.csv", frame_length=200, chain_nodes=6, chain_bg_time=0.5,
                chain_period=50.0, chain_local_errors=(0.2, 0.01, 0.002), chain_halved=True)
    default = ExperimentConfig()
    for command in harness.COMMANDS:
        cfg = ExperimentConfig(command=command, **{k: v for k, v in away.items()
                                                   if harness.reads(k, command, "time_unsync")})
        assert [f.name for f in fields(cfg) if f.name != "command"
                and harness.reads(f.name, command)
                and getattr(cfg, f.name) == getattr(default, f.name)] == []
        p = tmp_path / f"{command}.cfg"
        p.write_text("".join(f"{f.name} = "
                             f"{' '.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                             for f in fields(cfg) for v in [getattr(cfg, f.name)]),
                     encoding="utf-8")
        assert config_from_file(p) == cfg


def test_config_file_rejects_unknown_keys(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("no_such_key = 1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_file(p)


def test_config_file_separator_is_equals_only(tmp_path):
    p = tmp_path / "sep.cfg"
    p.write_text("output_path = run:1.csv\n", encoding="utf-8")
    assert parse_config_file(p) == {"output_path": "run:1.csv"}
    p.write_text("# colon form\nworkers: 2\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{p}:2: expected 'key = value'")):
        parse_config_file(p)
    p.write_text("output_path: run=1.csv\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{p}:1: unknown key 'output_path: run'")):
        parse_config_file(p)


def test_config_file_booleans_are_strict(tmp_path):
    p = tmp_path / "b.cfg"
    for word, want in (("1", True), ("TRUE", True), ("Yes", True), ("on", True),
                       ("0", False), ("False", False), ("NO", False), ("Off", False)):
        p.write_text(f"chain_halved = {word}\n", encoding="utf-8")
        assert parse_config_file(p) == {"chain_halved": want}
    for word in ("flase", "tru", "2", "y", "enabled"):
        p.write_text(f"# halving\nchain_halved = {word}\n", encoding="utf-8")
        msg = re.escape(f"{p}:2: bad value for 'chain_halved'")
        with pytest.raises(ValueError, match=msg):
            parse_config_file(p)


def test_config_file_bad_value_names_line_and_key(tmp_path):
    p = tmp_path / "v.cfg"
    for key, text in (("workers", "x"), ("workers", "1.5"), ("rolloff", "half"),
                      ("snr_grid_db", "0 2 x"), ("chain_local_errors", "0.1,,b")):
        p.write_text(f"command = ber\n\n{key} = {text}\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{p}:3: bad value for '{key}'")):
            parse_config_file(p)


# config-file fuzzing: valid documents round-trip; one bad line is named by path:line

_INT_KEYS = ("samples_per_point", "truncation", "master_seed", "workers", "frame_length",
             "chain_nodes")
_FLOAT_KEYS = ("offset_range", "rolloff", "chain_bg_time", "chain_period")
_TUPLE_KEYS = ("snr_grid_db", "chain_local_errors")
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")
_NAME = st.text("abcdefghijklmnopqrstuvwxyzABCXYZ0123456789._-/:", min_size=1, max_size=20)


def _value_and_text(key):
    """Strategy of (typed value, config text) for one key."""
    floats = st.floats(allow_nan=False)
    if key in _INT_KEYS:
        return st.integers(-10**12, 10**12).map(lambda v: (v, str(v)))
    if key in _FLOAT_KEYS:
        return floats.map(lambda v: (v, repr(v)))
    if key in _TUPLE_KEYS:
        return st.tuples(st.lists(floats, max_size=6), st.sampled_from([" ", ", ", ","])) \
            .map(lambda t: (tuple(t[0]), t[1].join(map(repr, t[0]))))
    if key == "chain_halved":
        upper = st.lists(st.booleans(), min_size=5, max_size=5)  # per letter, any case
        return st.tuples(st.sampled_from(_TRUE + _FALSE), upper).map(lambda t: (
            t[0] in _TRUE, "".join(c.upper() if u else c for c, u in zip(*t))))
    if key == "command":
        return st.sampled_from(harness.COMMANDS).map(lambda v: (v, v))
    if key == "scenario":
        return st.sampled_from(harness.SCENARIOS).map(lambda v: (v, v))
    return _NAME.map(lambda v: (v, v))


@st.composite
def _documents(draw):
    """(expected dict, list of config lines) for a random valid document."""
    keys = draw(st.lists(st.sampled_from([f.name for f in fields(ExperimentConfig)]),
                         unique=True))
    want, lines = {}, []
    for key in keys:
        value, text = draw(_value_and_text(key))
        sep = draw(st.sampled_from([" = ", "=", "  =  "]))
        tail = draw(st.sampled_from(["", "  ", " # note"]))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", "# comment", "   "])))
        lines.append(f"{key}{sep}{text}{tail}")
        want[key] = value
    return want, lines


def _bad_line(kind, draw):
    if kind == "unknown":
        key = draw(_NAME.filter(lambda k: k not in {f.name for f in fields(ExperimentConfig)}))
        return key, f"{key} = 1", "unknown key"
    key = draw(st.sampled_from(_INT_KEYS + _FLOAT_KEYS + _TUPLE_KEYS + ("chain_halved",)))
    if key == "chain_halved":
        text = draw(st.text("abcdefnorstuy23", min_size=1, max_size=6)
                    .filter(lambda w: w not in _TRUE + _FALSE))
    elif key in _TUPLE_KEYS:
        text = draw(st.sampled_from(["1 x", "a", "1,,b", "0 2 nine"]))
    else:
        text = draw(st.sampled_from(["x", "one", "1.2.3", "--1", "0x10"]
                                    + (["1.5", "1e3"] if key in _INT_KEYS else [])))
    return key, f"{key} = {text}", f"bad value for '{key}'"


@given(_documents())
def test_config_file_fuzz_roundtrip(tmp_path_factory, doc):
    want, lines = doc
    p = tmp_path_factory.mktemp("fuzz") / "doc.cfg"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert parse_config_file(p) == want


@given(_documents(), st.sampled_from(["unknown", "value"]), st.data())
def test_config_file_fuzz_rejects_with_path_and_line(tmp_path_factory, doc, kind, data):
    _, lines = doc
    key, bad, why = _bad_line(kind, data.draw)
    at = data.draw(st.integers(0, len(lines)))
    lines = lines[:at] + [bad] + lines[at:]
    p = tmp_path_factory.mktemp("fuzz") / "doc.cfg"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        parse_config_file(p)
    msg = str(exc.value)
    assert msg.startswith(f"{p}:{at + 1}: ") and why in msg and key in msg


# ---------------------------------------------------------------------------
# BER runner


def test_perfect_ber_matches_analytic_oracle():
    # 4-sigma bound: loose enough for a fixed seed, far tighter than any
    # convention error (wrong noise scaling would shift the BER by 2x)
    cfg = ExperimentConfig(command="ber", scenario="perfect",
                           snr_grid_db=(6.02, 9.54), samples_per_point=400_000,
                           master_seed=2)
    for snr, err, bits in run_ber(cfg):
        want = perfect_ber_theory(snr)
        sigma4 = 4.0 * math.sqrt(want * (1 - want) / bits)
        assert abs(err / bits - want) < sigma4


@pytest.mark.parametrize("snr", [20 * math.log10(2.0), 8.0, 20 * math.log10(3.0)])
def test_time_oracle_at_zero_offset_is_the_perfect_closed_form(snr):
    # at dt = 0 the ISI taps vanish (to 1e-16), so the inversion must give the closed form
    w, p = time_ber(snr, 0.0, PulseShape(0.5, 16))
    assert w.tolist() == [1.0]
    assert p[0] == pytest.approx(perfect_ber_theory(snr), rel=1e-12, abs=0)
    # and the offset average has converged at 16 Gauss-Legendre nodes
    w, p = time_ber(snr, 0.5, PulseShape(0.5, 16))
    w2, p2 = time_ber(snr, 0.5, PulseShape(0.5, 16), nodes=32)
    assert np.sum(w * p) == pytest.approx(np.sum(w2 * p2), rel=1e-12, abs=0)


def test_time_unsync_at_zero_range_equals_perfect_statistically():
    base = ExperimentConfig(command="ber", scenario="time_unsync", offset_range=0.0,
                            snr_grid_db=(8.0,), samples_per_point=400_000, master_seed=3)
    _, err, bits = run_ber(base)[0]
    want = perfect_ber_theory(8.0)
    sigma3 = 3.0 * math.sqrt(want * (1 - want) / bits)
    assert abs(err / bits - want) < sigma3


def test_phase_unsync_ber_worse_than_perfect():
    snr = (8.0,)
    n = 200_000
    _, perfect_err, perfect_bits = run_ber(ExperimentConfig(
        command="ber", scenario="perfect", snr_grid_db=snr, samples_per_point=n))[0]
    _, phase_err, phase_bits = run_ber(ExperimentConfig(
        command="ber", scenario="phase_unsync", snr_grid_db=snr, samples_per_point=n))[0]
    assert phase_err / phase_bits > perfect_err / perfect_bits


def test_ber_monotone_in_snr():
    cfg = ExperimentConfig(command="ber", scenario="perfect",
                           snr_grid_db=(2.0, 5.0, 8.0), samples_per_point=200_000)
    bers = [err / bits for _, err, bits in run_ber(cfg)]
    assert bers[0] > bers[1] > bers[2]


def test_ber_csv_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig(command="ber", scenario="time_unsync",
                               snr_grid_db=(4.0, 6.0), samples_per_point=20_000,
                               offset_range=0.5, master_seed=11, workers=2,
                               output_path=str(out))
        run_ber(cfg)
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()
    assert header[0].startswith("# figure:")
    assert header[2] == "snr_db,scenario,ber,num_bits,num_errors,seed"


def test_ber_worker_split_changes_batching_not_totals(tmp_path):
    # same seed, different worker counts: the written ber is the exact ratio of its counts
    for w in (1, 3):
        out = tmp_path / f"w{w}.csv"
        cfg = ExperimentConfig(command="ber", scenario="perfect", snr_grid_db=(6.0, 8.0),
                               samples_per_point=30_000, workers=w, master_seed=5,
                               output_path=str(out))
        rows = run_ber(cfg)
        written = [line.split(",") for line in out.read_text().splitlines()[3:]]
        assert [(float(s), int(k), int(n)) for s, _, _, n, k, _ in written] == rows
        for _, _, ber, bits, errors, _ in written:
            assert float(ber) == int(errors) / int(bits)
            assert 0 <= int(errors) <= int(bits) == 30_000


def test_ber_streams_are_keyed_by_scenario_point_batch():
    # point 1 of a time_unsync run, recomputed draw by draw from the streams
    # (2, point, batch): 3000 bits per batch = 3 frames x 2 dims, one block
    cfg = ExperimentConfig(command="ber", scenario="time_unsync", offset_range=0.3,
                           snr_grid_db=(3.0, 5.0), samples_per_point=6_000, workers=2,
                           frame_length=500, master_seed=17)
    got = run_ber(cfg)[1]
    pulse, L, n = cfg.pulse(), cfg.truncation, cfg.frame_length
    sd = 10.0 ** (-5.0 / 20.0) / 2.0
    err = tot = 0
    for b in range(2):
        rng = np.random.default_rng(np.random.SeedSequence(17, spawn_key=(2, 1, b)))
        dt = rng.uniform(-0.3, 0.3, 3)
        a = rng.integers(0, 2, (3, 2, 2, n + 2 * L), dtype=np.int32) * 2 - 1
        noise = rng.standard_normal((3, 2, n))
        centre = raised_cosine(dt / 2, 0.5)
        for f in range(3):
            scale = 0.5 * centre[f]
            _, (te,), (tl,) = isi_taps((float(dt[f]),), pulse)
            for d in range(2):
                a1, a3 = a[f, d]
                r = mid_offset_frame(a1, a3, te, tl)[L:L + n] + sd * noise[f, d]
                err += int(np.sum((np.abs(r) <= scale) != (a1[L:L + n] != a3[L:L + n])))
                tot += n
    assert got == (5.0, err, tot)
    assert scenario_label(cfg) == "time_unsync_x0.3"


@pytest.mark.parametrize("scenario", ["perfect", "phase_unsync", "time_unsync"])
def test_ber_memory_does_not_grow_with_the_budget(scenario):
    # a batch works in blocks of at most harness._BLOCK symbols, so ten times
    # the bits (2e5 -> 2e6 symbols, several blocks either way) need no more memory
    peaks = []
    for bits in (400_000, 4_000_000):
        cfg = ExperimentConfig(command="ber", scenario=scenario, snr_grid_db=(8.0,),
                               samples_per_point=bits, master_seed=9)
        tracemalloc.start()
        try:
            run_ber(cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0], peaks


# ---------------------------------------------------------------------------
# MI runner


def test_mi_streams_are_keyed_by_scenario_point_batch():
    cfg = ExperimentConfig(command="mi", scenario="perfect", snr_grid_db=(0.0, 5.0),
                           samples_per_point=3_000, master_seed=21)
    for i, (snr, mi, n) in enumerate(run_mi(cfg)):
        rng = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(0, i, 0)))
        want = mi_given_theta(snr, 0.0, 3_000, rng)
        assert mi == pytest.approx(want, rel=0, abs=1e-12)
        assert n == 3_000


def test_mi_csv_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        cfg = ExperimentConfig(command="mi", scenario="perfect",
                               snr_grid_db=(0.0, 6.0), samples_per_point=5_000,
                               master_seed=4, workers=2, output_path=str(out))
        run_mi(cfg)
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[2] == "snr_db,scenario,mi_bits_per_dim,num_samples,num_workers,seed"
    row = lines[3].split(",")
    assert row[0] == "0.0" and row[1] == "perfect"
    assert row[4] == "2" and row[5] == "4"
    assert 0.0 <= float(row[2]) <= 1.0


# ---------------------------------------------------------------------------
# penalty runner


def test_penalty_summary_reference_values():
    s = run_penalty(ExperimentConfig(command="penalty"))[1]
    assert s["avg_phase_penalty_db"] == pytest.approx(-3.434, abs=0.05)
    assert s["worst_phase_penalty_db"] == pytest.approx(-7.656, abs=0.01)
    assert s["sir_1d_traditional_db"] == pytest.approx(8.492, abs=0.05)
    assert s["sir_1d_pnc_db"] == 15.3
    # about 11.9 dB of SIR headroom is left after the average phase penalty
    assert s["sir_1d_pnc_minus_avg_phase_db"] == pytest.approx(11.9, abs=0.05)


def test_penalty_csv_contains_curves_and_footer(tmp_path):
    out = tmp_path / "pen.csv"
    cfg = ExperimentConfig(command="penalty", output_path=str(out))
    curves, summary = run_penalty(cfg)
    assert len(curves) == 2
    text = out.read_text()
    lines = text.splitlines()
    assert lines[2] == "curve,parameter,penalty_db"
    assert any(l.startswith("phase,") for l in lines)
    assert any(l.startswith("time,") for l in lines)
    footer = [l for l in lines if l.startswith("# avg_phase_penalty_db")]
    assert footer and float(footer[0].split("=")[1]) == pytest.approx(-3.434, abs=0.05)
    footer_sinr = [l for l in lines if l.startswith("# avg_sinr_penalty_db")]
    assert footer_sinr


# ---------------------------------------------------------------------------
# chain runner


def test_run_chain_matches_module_and_is_deterministic(tmp_path):
    cfg = ExperimentConfig(command="chain", chain_nodes=5, chain_bg_time=1.0,
                           chain_period=100.0)
    text = run_chain(cfg)
    assert "num_groups = 2" in text
    assert run_chain(cfg) == text
    out = tmp_path / "plan.txt"
    cfg2 = ExperimentConfig(command="chain", chain_nodes=5, output_path=str(out))
    run_chain(cfg2)
    assert out.read_text().startswith("phase,step,group")


def test_every_bench_chain_plan_keeps_its_bytes(tmp_path, capsys):
    # every chain case of the closed_form benchmark reference, read-only: 24
    # values of N from 3 to 1181, odd and even, each with and without --halved
    ref = json.loads((Path(__file__).resolve().parents[1] / "bench" / "reference"
                      / "closed_form.json").read_text(encoding="utf-8"))
    cases = {case: c["sha256"] for case, c in ref["cases"].items() if case.startswith("chain ")}
    assert len(cases) == 48
    out = tmp_path / "plan.txt"
    differ = []
    for case, want in cases.items():
        assert cli_main(case.split() + ["--seed", str(ref["seeds"][0]), "--out", str(out)]) == 0
        if hashlib.sha256(out.read_bytes()).hexdigest() != want:
            differ.append(case)
    capsys.readouterr()
    assert differ == []


def test_run_chain_rejects_small_n():
    with pytest.raises(ValueError, match="N >= 3"):
        run_chain(ExperimentConfig(command="chain", chain_nodes=2))


# ---------------------------------------------------------------------------
# curve comparison oracles of the acceptance checks


def test_snr_at_level_linear_and_log():
    snrs = [0.0, 1.0, 2.0]
    assert snr_at_level(snrs, [0.0, 0.5, 1.0], 0.25) == pytest.approx(0.5)
    assert snr_at_level(snrs, [1e-1, 1e-2, 1e-3], 1e-2, log_scale=True) == pytest.approx(1.0)
    assert math.isnan(snr_at_level(snrs, [0.0, 0.1, 0.2], 0.9))


def test_horizontal_gap_between_shifted_curves():
    snrs = np.linspace(0, 10, 11)
    ref = 1 / (1 + np.exp(-(snrs - 5)))
    test = 1 / (1 + np.exp(-(snrs - 7)))  # same curve, 2 dB right
    gap = horizontal_gap_db(snrs, ref, snrs, test, 0.5)
    assert gap == pytest.approx(2.0, abs=1e-9)
    worst = max_horizontal_gap_db(snrs, ref, snrs, test, 0.0, 10.0)
    assert worst == pytest.approx(2.0, abs=0.05)


# ---------------------------------------------------------------------------
# CLI


def test_cli_chain_stdout(capsys):
    rc = cli_main(["chain", "--nodes", "5", "--bg-time", "1", "--period", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "num_groups = 2" in out


def test_cli_ber_with_config_and_overrides(tmp_path, capsys):
    cfgfile = tmp_path / "c.cfg"
    cfgfile.write_text("scenario = perfect\nsamples_per_point = 2000\n", encoding="utf-8")
    out = tmp_path / "ber.csv"
    rc = cli_main(["ber", "--config", str(cfgfile), "--snr-grid", "4:8:2",
                   "--seed", "9", "--out", str(out)])
    assert rc == 0
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[2].startswith("snr_db,")
    assert len(lines) == 6  # 2 comments + header + 3 points


# `pnc <command> --scenario <scenario> --snr-grid 4,6 --samples 2000`, printed to stdout
_FROZEN_STDOUT = {
    ("ber", "perfect"): [
        "snr   4.00 dB  perfect              ber 8.050000e-02 (161/2000)",
        "snr   6.00 dB  perfect              ber 4.050000e-02 (81/2000)",
    ],
    ("mi", "perfect"): [
        "snr   4.00 dB  perfect              mi 0.7193 bit/dim  (n=2000)",
        "snr   6.00 dB  perfect              mi 0.8809 bit/dim  (n=2000)",
    ],
    ("ber", "phase_unsync"): [
        "snr   4.00 dB  phase_unsync         ber 8.250000e-02 (165/2000)",
        "snr   6.00 dB  phase_unsync         ber 9.750000e-02 (195/2000)",
    ],
    ("mi", "phase_unsync"): [
        "snr   4.00 dB  phase_unsync         mi 0.6111 bit/dim  (n=2000)",
        "snr   6.00 dB  phase_unsync         mi 0.7663 bit/dim  (n=2000)",
    ],
    ("ber", "time_unsync"): [
        "snr   4.00 dB  time_unsync_x0.5     ber 1.575000e-01 (315/2000)",
        "snr   6.00 dB  time_unsync_x0.5     ber 7.500000e-02 (150/2000)",
    ],
    ("mi", "time_unsync"): [
        "snr   4.00 dB  time_unsync_x0.5     mi 0.5516 bit/dim  (n=2000)",
        "snr   6.00 dB  time_unsync_x0.5     mi 0.7864 bit/dim  (n=2000)",
    ],
}


@pytest.mark.parametrize("command, scenario", list(_FROZEN_STDOUT))
def test_cli_ber_and_mi_stdout_is_frozen(command, scenario, capsys):
    assert cli_main([command, "--scenario", scenario, "--snr-grid", "4,6",
                     "--samples", "2000"]) == 0
    assert capsys.readouterr().out.splitlines() == _FROZEN_STDOUT[command, scenario]


def test_cli_penalty_prints_summary(capsys):
    rc = cli_main(["penalty"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "avg_phase_penalty_db" in out


def test_cli_grid_points_are_exact_decimals():
    assert _parse_grid("0:1:0.3") == (0.0, 0.3, 0.6, 0.9)
    assert _parse_grid("4:8") == (4.0, 5.0, 6.0, 7.0, 8.0)
    assert _parse_grid("0:1:0.6") == (0.0, 0.6)  # stop is an upper bound
    assert _parse_grid("0.3:0.9:0.3") == (0.3, 0.6, 0.9)  # float(0.3) < Decimal 0.3
    assert _parse_grid("5,10") == (5.0, 10.0)
    # grids on binary fractions keep the floats start + i*step
    for text in ("0:15:0.5", "7:9:0.25", "3:6:0.5", "11:15:0.5", "0:14:1",
                 "0:12:0.25", "8:14:0.5", "2:8:0.5", "-3:0:0.5"):
        start, stop, step = (float(v) for v in text.split(":"))
        n = int(round((stop - start) / step)) + 1
        assert _parse_grid(text) == tuple(start + i * step for i in range(n))


@pytest.mark.parametrize("text", ["0:10:0", "0:10:-1", "10:0:1", "a:b:c", "0:1:0.5:2",
                                  "nan:1:1", "0:inf:1"])
def test_cli_grid_rejects_degenerate_ranges(text):
    with pytest.raises(ValueError, match=f"snr grid '{text}'"):
        _parse_grid(text)


_NUMBER = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
    st.decimals().map(str),
    st.from_regex(r"[-+]?\d{0,35}(\.\d{0,35})?([eE][-+]?\d{1,9})?", fullmatch=True),
    st.text("0123456789.-+eEinfa_ ", max_size=10),
)


@given(st.lists(_NUMBER, min_size=2, max_size=4))
def test_cli_grid_fuzz_gives_increasing_finite_points_in_range(parts):
    text = ":".join(parts)
    try:
        grid = _parse_grid(text)
    except ValueError:
        return
    start, stop = (float(Decimal(v)) for v in parts[:2])
    assert isinstance(grid, tuple) and grid
    assert all(isinstance(g, float) and math.isfinite(g) for g in grid)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert start <= grid[0] and grid[-1] <= stop


@pytest.mark.parametrize("text", ["0:1e12:1e-12", "0:1e30:1e-30", "1e400:1e400:1",
                                  "0.1:0.1000000000000000000000000000002:1e-31"])
def test_cli_grid_rejects_unbounded_or_collapsing_ranges(text):
    with pytest.raises(ValueError, match=f"snr grid '{text}'"):
        _parse_grid(text)


@pytest.mark.parametrize("grid", ["nan", "0,inf"])
def test_cli_rejects_non_finite_snr(grid, capsys):
    msg = cli_usage_error(["ber", "--snr-grid", grid, "--samples", "2000"], capsys)
    assert msg.startswith("pnc ber: error: ") and "finite" in msg


@pytest.mark.parametrize("snr", ["4000", "-4000"])
@pytest.mark.parametrize("command", ["ber", "mi"])
def test_cli_rejects_snr_whose_noise_variance_under_or_overflows(command, snr, capsys):
    # 10^(-snr/10) is 0 at 4000 dB and overflows at -4000 dB
    msg = cli_usage_error([command, "--scenario", "perfect", f"--snr-grid={snr}",
                           "--samples", "1000"], capsys)
    assert msg == f"pnc {command}: error: snr_grid_db must lie within +-300 dB, got {snr}.0"
    ExperimentConfig(command=command, snr_grid_db=(-300.0, 300.0))


@pytest.mark.parametrize("argv", ["chain --nodes 5 --errors=-0.1,0.02,-0.001",
                                  "ber --snr-grid 5:1"])
def test_cli_config_error_shows_the_subcommand_usage(argv, capsys):
    # a rejected value is reported by the chosen subcommand's parser, so the
    # usage line lists that subcommand's options, not the command list
    cmd = argv.split()[0]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv.split())
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: pnc {cmd} [-h]")
    assert not any("{ber,mi,penalty,chain}" in line for line in lines)
    assert ("--errors" if cmd == "chain" else "--snr-grid") in " ".join(lines[:-1])
    assert lines[-1].startswith(f"pnc {cmd}: error: ")


def test_cli_bad_grid_exits_2_with_one_line(capsys):
    assert cli_usage_error(["ber", "--snr-grid", "5:1"], capsys) == \
        "pnc ber: error: snr grid '5:1': stop is below start"


@pytest.mark.parametrize("argv, message", [
    ("chain --nodes 2", "N >= 3 required, got 2"),
    ("chain --errors 0.1,0.2", "local_errors must be a triple"),
    ("chain --nodes 12 --bg-time 1 --period 10",
     "infeasible: ts = (N-2)*bg_sync_time = 10.0 >= period = 10.0"),
    ("chain --bg-time nan", "bg_sync_time must be positive and finite, got nan"),
    ("chain --errors nan,1,1", "local_errors must be finite, got (nan, 1.0, 1.0)"),
    ("ber --seed -1 --snr-grid 4 --samples 1000", "master_seed must be >= 0, got -1"),
    ("chain --nodes 5 --errors=-0.1,0.02,-0.001",
     "local_errors must be >= 0, got (-0.1, 0.02, -0.001)"),
    ("ber --snr-grid= --samples 1000", "snr_grid_db must be non-empty"),
    ("chain --errors=", "local_errors must be a triple"),
    # checked before the run, which would otherwise spend its whole budget first
    ("penalty --out nodir/x.csv", "output path 'nodir/x.csv': 'nodir' is not a directory"),
    ("chain --out .", "output path '.' is a directory"),
    # an empty path would run the whole budget, then write nothing and say nothing
    ("ber --snr-grid 5 --samples 1000 --out=", "output_path must not be empty"),
    ("ber --scenario time_unsync --snr-grid 5 --samples 1000 --frame-length 1000000000000",
     "frame_length must be <= samples_per_point (1000), got 1000000000000"),
    ("mi --scenario time_unsync --snr-grid 5 --samples 1000 --frame-length 200000",
     "frame_length must be <= samples_per_point (1000), got 200000"),
], ids=["nodes", "errors_pair", "infeasible", "bg_time_nan", "errors_nan", "negative_seed",
        "errors_negative", "grid_empty", "errors_empty", "out_missing_dir", "out_is_dir",
        "out_empty", "ber_frame_over_budget", "mi_frame_over_budget"])
def test_cli_bad_config_inputs_exit_2_with_one_line(argv, message, capsys):
    assert cli_usage_error(argv.split(), capsys) == f"pnc {argv.split()[0]}: error: {message}"


def test_cli_flags_set_config_fields_only():
    # _overrides reads a flag by its dest, so a dest that is no config field would be dropped
    names = {f.name for f in fields(ExperimentConfig)} | {"config", "usage_error"}
    for cmd in harness.COMMANDS:
        assert set(vars(_build_parser().parse_args([cmd]))) <= names, cmd


@pytest.mark.parametrize("text", ["0.1,0.02,0.001", "0.1 0.02 0.001", " 0.1 ,0.02,  0.001 ",
                                  "0:14", "0:1:0.3", "5:1"])
def test_cli_lists_parse_as_in_the_config_file(tmp_path, text, capsys):
    p = tmp_path / "c.cfg"
    if text == "5:1":  # a bad range: the same message from the file and from the flag
        p.write_text(f"snr_grid_db = {text}\n", encoding="utf-8")
        message = "snr grid '5:1': stop is below start"
        with pytest.raises(ValueError) as in_file:
            parse_config_file(p)
        assert str(in_file.value) == f"{p}:1: bad value for 'snr_grid_db': {message}"
        assert cli_usage_error(["ber", "--snr-grid", text], capsys) == f"pnc ber: error: {message}"
        assert cli_usage_error(["ber", "--config", str(p)], capsys) == \
            f"pnc ber: error: {in_file.value}"
        return
    grid = _overrides(_build_parser().parse_args(["ber", "--snr-grid", text]))
    if ":" in text:  # a range, in a file too
        p.write_text(f"snr_grid_db = {text}\n", encoding="utf-8")
        want = {"0:14": tuple(map(float, range(15))), "0:1:0.3": (0.0, 0.3, 0.6, 0.9)}[text]
        assert grid["snr_grid_db"] == parse_config_file(p)["snr_grid_db"] == want
        assert config_from_file(p, command="ber").snr_grid_db == want
        return
    p.write_text(f"snr_grid_db = {text}\nchain_local_errors = {text}\n", encoding="utf-8")
    in_file = parse_config_file(p)
    errors = _overrides(_build_parser().parse_args(["chain", "--errors", text]))
    assert errors["chain_local_errors"] == in_file["chain_local_errors"] == (0.1, 0.02, 0.001)
    assert grid["snr_grid_db"] == in_file["snr_grid_db"] == (0.1, 0.02, 0.001)


@pytest.mark.parametrize("argv", ["penalty --workers 3", "chain --nodes 3 --workers 7"])
def test_cli_workers_is_refused_where_there_are_no_batches(argv, capsys):
    # penalty and chain run no Monte-Carlo batches, so they do not take --workers
    with pytest.raises(SystemExit) as exc:
        cli_main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["penalty", "chain"])
def test_config_file_workers_is_refused_where_there_are_no_batches(command, tmp_path, capsys):
    # the file key, like the flag, would be accepted and ignored
    p = tmp_path / "w.cfg"
    p.write_text("workers = 7\n", encoding="utf-8")
    assert cli_usage_error([command, "--config", str(p)], capsys) == \
        f"pnc {command}: error: workers applies only to ber and mi, not {command}"
    p.write_text("workers = 1\n", encoding="utf-8")
    assert cli_main([command, "--config", str(p), "--out", str(tmp_path / "o.txt")]) == 0


@pytest.mark.parametrize("command, scenario", [("ber", "perfect"), ("ber", "phase_unsync"),
                                               ("mi", "perfect"), ("mi", "phase_unsync"),
                                               ("chain", "perfect")])
def test_pulse_is_refused_where_no_pulse_is_read(command, scenario):
    # only penalty and time_unsync read the pulse; elsewhere it would be ignored
    where = "chain" if command == "chain" else scenario
    for name, value in (("rolloff", 0.3), ("rolloff", 0.0), ("truncation", 8)):
        with pytest.raises(ValueError, match=f"^{name} applies only to penalty and "
                                              f"time_unsync, not {where}$"):
            ExperimentConfig(command=command, scenario=scenario, **{name: value})
    ExperimentConfig(command=command, scenario=scenario, rolloff=0.5, truncation=16)


def test_cli_pulse_is_refused_where_no_pulse_is_read(tmp_path, capsys):
    assert cli_usage_error(["mi", "--scenario", "phase_unsync", "--rolloff", "0.9"], capsys) \
        == "pnc mi: error: rolloff applies only to penalty and time_unsync, not phase_unsync"
    assert cli_usage_error(["ber", "--scenario", "perfect", "--rolloff", "0.3"], capsys) \
        == "pnc ber: error: rolloff applies only to penalty and time_unsync, not perfect"
    p = tmp_path / "f.cfg"
    p.write_text("rolloff = 0.35\n", encoding="utf-8")
    assert cli_usage_error(["chain", "--config", str(p)], capsys) \
        == "pnc chain: error: rolloff applies only to penalty and time_unsync, not chain"
    # where the pulse is read, the same values run
    for argv in (["penalty", "--config", str(p)],
                 ["mi", "--scenario", "time_unsync", "--config", str(p), "--snr-grid", "4",
                  "--samples", "1000", "--frame-length", "100"]):
        assert cli_main(argv + ["--out", str(tmp_path / "o.csv")]) == 0


def test_every_field_has_one_reader_entry():
    assert sorted(harness.READERS) == sorted(f.name for f in fields(ExperimentConfig))
    for name, readers in harness.READERS.items():
        assert readers and set(readers) <= set(harness.COMMANDS + harness.SCENARIOS), name


# config-file keys a command reads neither itself nor through its scenario
_IGNORED_KEYS = {
    "penalty-scenario": ("penalty", "scenario = time_unsync", "scenario", "ber and mi"),
    "penalty-offset_range": ("penalty", "offset_range = 0.2", "offset_range", "time_unsync"),
    "penalty-snr_grid_db": ("penalty", "snr_grid_db = 0:3", "snr_grid_db", "ber and mi"),
    "penalty-frame_length": ("penalty", "frame_length = 7", "frame_length", "ber and mi"),
    "penalty-samples_per_point": ("penalty", "samples_per_point = 5000", "samples_per_point",
                                  "ber and mi"),
    # all four at once: the first in field order is named
    "penalty-four_keys": ("penalty", "frame_length = 7\nsnr_grid_db = 0:3\noffset_range = 0.2\n"
                          "scenario = time_unsync", "scenario", "ber and mi"),
    "chain-scenario": ("chain", "scenario = phase_unsync", "scenario", "ber and mi"),
    "chain-offset_range": ("chain", "offset_range = 0", "offset_range", "time_unsync"),
    "chain-snr_grid_db": ("chain", "snr_grid_db = 4", "snr_grid_db", "ber and mi"),
    "chain-frame_length": ("chain", "frame_length = 100", "frame_length", "ber and mi"),
    "chain-samples_per_point": ("chain", "samples_per_point = 1", "samples_per_point",
                                "ber and mi"),
    "ber-chain_nodes": ("ber", "chain_nodes = 9", "chain_nodes", "chain"),
    "ber-chain_halved": ("ber", "chain_halved = yes", "chain_halved", "chain"),
    "mi-chain_nodes": ("mi", "chain_nodes = 9", "chain_nodes", "chain"),
    "mi-chain_halved": ("mi", "chain_halved = on", "chain_halved", "chain"),
}


@pytest.mark.parametrize("command, text, key, readers", list(_IGNORED_KEYS.values()),
                         ids=list(_IGNORED_KEYS))
def test_config_file_keys_the_command_ignores_are_refused(command, text, key, readers,
                                                          tmp_path, capsys):
    p = tmp_path / "k.cfg"
    p.write_text(text + "\n", encoding="utf-8")
    assert cli_usage_error([command, "--config", str(p)], capsys) == \
        f"pnc {command}: error: {key} applies only to {readers}, not {command}"


def test_every_bench_argv_builds_its_config():
    # bench/workloads.py as tests/test_traced_workloads.py loads it: from its file, read-only
    for w in sorted(bench_workloads.WORKLOADS):
        for inv in bench_workloads.reference_cases(w):
            argv = inv.argv() + ["--seed", "7", "--out", "x.out"]
            cfg = ExperimentConfig(**_overrides(_build_parser().parse_args(argv)))
            assert cfg.command == inv.command, argv


# each subcommand's options as `pnc <command> --help` lists them
_FLAG_SETS = {
    "ber": ["--config", "--seed", "--out", "--scenario", "--workers", "--snr-grid", "--samples",
            "--offset-range", "--rolloff", "--frame-length"],
    "penalty": ["--config", "--seed", "--out", "--rolloff"],
    "chain": ["--config", "--seed", "--out", "--nodes", "--bg-time", "--period", "--errors",
              "--halved"],
}
_FLAG_SETS["mi"] = _FLAG_SETS["ber"]


def test_each_subcommand_offers_the_flags_of_the_fields_it_reads():
    sub = next(a for a in _build_parser()._actions if a.dest == "command").choices
    assert list(sub) == list(harness.COMMANDS)
    for cmd, parser in sub.items():
        flags = [o for a in parser._actions for o in a.option_strings if o not in ("-h", "--help")]
        assert flags == _FLAG_SETS[cmd], cmd
        assert {a.dest for a in parser._actions if a.dest not in ("help", "config")} == \
            {name for name in harness.READERS if name != "command" and name != "truncation"
             and harness.reads(name, cmd)}, cmd


def test_cli_parser_carries_no_state_between_calls(tmp_path, capsys):
    # main parses with one parser per process; no call may leave a value to the next
    halved, plain, again = (tmp_path / f"{n}.txt" for n in ("halved", "plain", "again"))
    assert cli_main(["chain", "--halved", "--out", str(halved)]) == 0
    assert cli_main(["chain", "--out", str(plain)]) == 0
    assert "ts_halved_s" in halved.read_text(encoding="utf-8")
    assert "ts_halved_s" not in plain.read_text(encoding="utf-8")

    assert cli_usage_error(["chain", "--nodes", "2"], capsys) == \
        "pnc chain: error: N >= 3 required, got 2"
    assert cli_main(["chain", "--out", str(again)]) == 0
    assert again.read_bytes() == plain.read_bytes()

    small = ["--snr-grid", "6", "--samples", "2000"]
    capsys.readouterr()
    assert cli_main(["ber", "--scenario", "phase_unsync", *small]) == 0
    assert cli_main(["ber", *small]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[3] for line in lines] == ["phase_unsync", "perfect"]


def test_readme_commands_build_their_configs():
    # the README's reproduction table is the recipe for every result; build, do not run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Reproducing the results", 1)[1].split("\n## ", 1)[0]
    commands = re.findall(r"`pnc ([^`]*)`", section)
    outputs = []
    for line in commands:
        cfg = ExperimentConfig(**_overrides(_build_parser().parse_args(shlex.split(line))))
        if cfg.command in ("ber", "mi"):
            assert cfg.output_path == f"results/{cfg.command}_{scenario_label(cfg)}.csv", line
        if cfg.output_path:
            outputs.append(cfg.output_path)
    assert len(outputs) == len(set(outputs)) == 9
    assert len(commands) == 13


def test_cli_mi_smoke(tmp_path):
    out = tmp_path / "mi.csv"
    rc = cli_main(["mi", "--scenario", "perfect", "--snr-grid", "5,10",
                   "--samples", "2000", "--out", str(out)])
    assert rc == 0
    assert out.read_text().count("\n") == 5
