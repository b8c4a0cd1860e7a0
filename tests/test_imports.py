"""Which commands load scipy: only `pnc penalty`, for its quadrature.

Each case runs in a fresh interpreter, so modules imported by other tests
do not count.  This checks what is loaded, not how long loading takes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pncsync

SRC = str(Path(pncsync.__file__).resolve().parents[1])

PROBE = """
import contextlib, io, json, sys
from pncsync.cli import main
argv = json.loads(sys.argv[1])
if argv:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def scipy_modules_after(argv) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],  # import pncsync.cli only
    ["chain", "--nodes", "5", "--bg-time", "1", "--period", "100"],
    ["ber", "--scenario", "phase_unsync", "--snr-grid", "8,10", "--samples", "2000"],
    ["ber", "--scenario", "time_unsync", "--snr-grid", "4", "--samples", "2000"],
    ["mi", "--scenario", "phase_unsync", "--snr-grid", "4", "--samples", "1000"],
    ["mi", "--scenario", "time_unsync", "--snr-grid", "4", "--samples", "1000"],
], ids=["import", "chain", "ber_phase", "ber_time", "mi_phase", "mi_time"])
def test_command_leaves_scipy_unloaded(argv, tmp_path):
    if argv:
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert scipy_modules_after(argv) == []


# footer of `pnc penalty` at the default rolloff, as written before the
# scipy import moved into analysis.avg_phase_penalty_db
PENALTY_FOOTER = {
    "avg_phase_penalty_db": -3.4340268408725665,
    "worst_phase_penalty_db": -7.655513706757261,
    "avg_sinr_penalty_db": -1.7669572668585491,
    "worst_sinr_penalty_db": -5.442391090587302,
    "sir_1d_traditional_db": 8.492043206051541,
    "sir_1d_pnc_db": 15.3,
    "sir_1d_pnc_minus_avg_phase_db": 11.865973159127435,
}


def test_penalty_loads_scipy_integrate_and_writes_the_same_footer(tmp_path):
    out = tmp_path / "penalty.csv"
    assert "scipy.integrate" in scipy_modules_after(["penalty", "--out", str(out)])
    footer = [line[2:].split(" = ") for line in out.read_text().splitlines()
              if " = " in line]
    assert [key for key, _ in footer] == list(PENALTY_FOOTER)
    for key, val in footer:
        assert float(val) == pytest.approx(PENALTY_FOOTER[key], rel=1e-12, abs=1e-12), key
