"""Smoke test of the benchmark: every workload at tiny size, untraced and
traced, must finish, pass its checks and report every metric named in
BENCHMARK.json.

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))


def _run(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_reports_every_metric(workload, trace):
    info, result = _run(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    assert info["provenance"]["seed"] == 3
    if trace:
        assert info["absent"] == []
        counts = {name: m["value"] for name, m in result["metrics"].items()}
        assert counts["montecarlo.pool_startups"] == {"size_grid": 21, "power_cell": 0, "cli_session": 0}[workload]
        assert counts["dispersion_test.tests"] >= 1


def test_absent_function_is_reported_not_fatal(monkeypatch):
    """A layer function a later version removes reads as absent."""
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import tracing

    import ginar.cls

    monkeypatch.delattr(ginar.cls, "build_regressors")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert "cls.build_regressors" in tracer.absent
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, 1, 0.0, ROOT / "src")
    assert metrics["cls.build_regressors_calls_per_test"]["value"] == 0.0


def test_without_sources_exits_nonzero_without_result():
    """Copied alone, without src/, the benchmark refuses to run."""
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "power_cell", "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )  # fmt: skip
    assert out.returncode == 2
    assert out.stdout.strip() == ""
