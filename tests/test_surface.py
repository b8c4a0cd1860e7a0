"""Every public function of the package is reached, and every public class built, by `pnc`.

Small runs of every command and scenario go through `pnc` under a profiler
that records each Python function called.  A public module-level function
that none of them reaches is test-only code: it moves into tests/oracles.py
or goes.  So does a public class whose `__init__` none of them runs: a
record that only tests build.
"""

import importlib
import inspect
import pkgutil
import sys

import pytest

import pncsync
from pncsync.cli import main


@pytest.fixture(scope="module")
def called(tmp_path_factory):
    """The code objects of the Python functions the small `pnc` runs call."""
    tmp_path = tmp_path_factory.mktemp("surface")
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
    return called


def _public(kind):
    """{'module.name': object} of the package's public functions or classes."""
    found = {}
    for info in pkgutil.iter_modules(pncsync.__path__):
        mod = importlib.import_module(f"pncsync.{info.name}")
        found.update((f"{info.name}.{name}", obj) for name, obj in vars(mod).items()
                     if kind(obj) and obj.__module__ == mod.__name__
                     and not name.startswith("_"))
    return found


def test_every_public_function_is_run_by_a_command(called):
    unreached = [n for n, f in _public(inspect.isfunction).items() if f.__code__ not in called]
    assert sorted(unreached) == []


def test_every_public_class_is_built_by_a_command(called):
    classes = _public(inspect.isclass)
    assert classes  # the check must see the package's classes
    unbuilt = [n for n, c in classes.items()
               if getattr(c.__init__, "__code__", None) not in called]
    assert sorted(unbuilt) == []
