"""The package runs on numpy alone: no `pnc` command loads scipy.

Each load check runs in a fresh interpreter, so modules imported by other
tests do not count; it checks what is loaded, not how long loading takes.
The penalty footer and its phase average, the closed form that replaced
scipy quadrature, are checked here too, the average against mpmath.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest

import pncsync
from pncsync.analysis import avg_phase_penalty_db
from pncsync.cli import main

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
    ["penalty"],
], ids=["import", "chain", "ber_phase", "ber_time", "mi_phase", "mi_time", "penalty"])
def test_command_leaves_scipy_unloaded(argv, tmp_path):
    if argv:
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert scipy_modules_after(argv) == []


# footer of `pnc penalty` at the default rolloff
PENALTY_FOOTER = {
    "avg_phase_penalty_db": -3.4340268408725674,
    "worst_phase_penalty_db": -7.655513706757261,
    "avg_sinr_penalty_db": -1.7669572668585491,
    "worst_sinr_penalty_db": -5.442391090587302,
    "sir_1d_traditional_db": 8.492043206051541,
    "sir_1d_pnc_db": 15.3,
    "sir_1d_pnc_minus_avg_phase_db": 11.865973159127433,
}


def test_penalty_writes_the_footer(tmp_path, capsys):
    out = tmp_path / "penalty.csv"
    assert main(["penalty", "--out", str(out)]) == 0
    footer = [line[2:].split(" = ") for line in out.read_text().splitlines()
              if " = " in line]
    assert [key for key, _ in footer] == list(PENALTY_FOOTER)
    for key, val in footer:
        assert float(val) == pytest.approx(PENALTY_FOOTER[key], rel=1e-12, abs=1e-12), key


def test_avg_phase_penalty_is_the_nearest_double():
    got = avg_phase_penalty_db()
    with mpmath.workdps(50):
        exact = 10 * mpmath.log10(3 - 8 / mpmath.pi)
        err = [abs(mpmath.mpf(x) - exact)
               for x in (got, math.nextafter(got, math.inf), math.nextafter(got, -math.inf))]
    assert err[0] < min(err[1:])
