"""The benchmark's traced runs reach every function they require.

`bench/spans.Tracer` wraps each public pncsync function wherever it is
bound, and a traced benchmark run reports a problem when a function named
in `bench/workloads.REQUIRED` records no calls.  Some wrappers also read
an argument by position or name (the sample counts of `ml_xor_bits`,
`mi_given_theta` and `mi_time_unsync`).  Running each workload's warm-up
calls through `pnc` under the tracer fails here when a renamed function
is no longer reached or an argument the tracer reads is gone.  The bench
modules are loaded from their files, read-only.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from pncsync import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


spans, workloads = _load("spans"), _load("workloads")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_warmup_reaches_every_required_function(workload, tmp_path):
    invs = workloads.warmup_invocations(workload)
    tracer = spans.Tracer()
    tracer.install()
    try:
        for i, inv in enumerate(invs):
            tracer.invocation = i
            argv = inv.argv() + ["--seed", "7", "--out", str(tmp_path / f"{i}.out")]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0  # the wrapped main, as the bench worker calls it
    finally:
        tracer.uninstall()
    _, calls = tracer.summarise()
    assert calls["cli.main"] == len(invs)
    assert [fn for fn in workloads.REQUIRED[workload] if not calls.get(fn)] == []
