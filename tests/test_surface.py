"""Every public function of the package is reached by a `pnc` command.

Small runs of every command and scenario go through `pnc` under a profiler
that records each Python function called.  A public module-level function
that none of them reaches is test-only code: it moves into tests/oracles.py
or goes.
"""

import importlib
import inspect
import pkgutil
import sys

import pncsync
from pncsync.cli import main


def test_every_public_function_is_run_by_a_command(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = time_unsync\ntruncation = 8\n", encoding="utf-8")
    small = ["--snr-grid", "6", "--samples", "2000"]
    runs = [[cmd, "--scenario", scenario] + small
            for cmd in ("ber", "mi") for scenario in ("perfect", "phase_unsync", "time_unsync")]
    runs += [["penalty"], ["chain", "--halved"], ["ber", "--config", str(cfg)] + small]
    called = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / f"{i}.out")]) == 0
    finally:
        sys.setprofile(None)

    public = {}
    for info in pkgutil.iter_modules(pncsync.__path__):
        mod = importlib.import_module(f"pncsync.{info.name}")
        public.update((f"{info.name}.{name}", f) for name, f in vars(mod).items()
                      if inspect.isfunction(f) and f.__module__ == mod.__name__
                      and not name.startswith("_"))
    unreached = [n for n, f in public.items() if f.__code__ not in called]
    assert sorted(unreached) == []
