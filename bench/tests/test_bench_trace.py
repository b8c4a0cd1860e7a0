"""Smoke tests of the benchmark: tracing leaves outputs unchanged, every
metric comes out under its name and unit, and a directory without the
program is refused."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pncsync import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _digests(records):
    return [hashlib.sha256(Path(r["out"]).read_bytes()).hexdigest() for r in records]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tracing_leaves_outputs_unchanged(workload, tmp_path):
    invs = workloads.warmup_invocations(workload)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    plain = worker.run_invocations(cli, invs, 7, str(tmp_path / "plain"))
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = worker.run_invocations(cli, invs, 7, str(tmp_path / "traced"), tracer)
    finally:
        tracer.uninstall()
    assert [r["error"] for r in plain + traced] == [None] * (2 * len(invs))
    assert _digests(plain) == _digests(traced)
    _, calls = tracer.summarise()
    assert calls["cli.main"] == len(invs)


def test_wrappers_reach_every_binding_and_come_off():
    import pncsync.harness  # noqa: F401  (loads every module)

    def bound():
        return [(name, attr, obj) for name, mod in sys.modules.items()
                if name.startswith("pncsync.")
                for attr, obj in vars(mod).items()
                if callable(obj) and getattr(obj, "__module__", "").startswith("pncsync.")
                and not attr.startswith("_") and not isinstance(obj, type)]

    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = bound()
        assert any(n == "pncsync.harness" and a == "build_hypotheses" for n, a, _ in wrapped)
        assert all(hasattr(obj, "__wrapped__") for _, _, obj in wrapped)
    finally:
        tracer.uninstall()
    assert not any(hasattr(obj, "__wrapped__") for _, _, obj in bound())


def test_every_metric_comes_out_with_its_unit(tmp_path):
    result = worker.run("closed_form", 3, 0.0, 1, str(tmp_path), min_rounds=2,
                        select=lambda invs: invs[:1] + invs[-1:])
    attempted, failed, problems, _ = run.check_outputs(
        result, checks.load_reference("closed_form"))
    assert (failed, problems) == (0, [])
    layer, trace_problems = run.layer_metrics(result)
    assert trace_problems == []
    assert {k: v["unit"] for k, v in layer.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}

    setup_s = run.measure_setup(run.child_env(), str(tmp_path), probes=1)
    e2e = run.e2e_metrics(result, setup_s, attempted, failed)
    assert {k: v["unit"] for k, v in e2e.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in e2e.values())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(SPEC["workloads"][0]) == {"name", "why"}


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "closed_form",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
