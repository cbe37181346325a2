"""Self-test of the benchmark at tiny input sizes.

    python3 -m pytest perfbench -q

Checks that every workload emits exactly the metrics BENCHMARK.json declares,
with their units, in both modes; that the correctness checks can fail; and
that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_library()

import oppaccess  # noqa: E402
import oppaccess.cli  # noqa: E402,F401
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=cwd)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_emits_every_declared_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
    if not trace:
        for name in ("setup_s", "wall_s", "peak_rss_mb", "instance_p50_ms", "instance_tail_ms"):
            assert result["metrics"][name]["value"] > 0
        assert "failed_frac" in proc.stdout


def _checked(items):
    passes = worker.timed_section(items, 0.0)
    return worker.check_outputs(items, passes)


def test_wrong_reference_value_fails_items(monkeypatch, tmp_path):
    items = workloads.build("sim-stateful", 3, "tiny", str(tmp_path))
    assert _checked(items)[1] == 0
    monkeypatch.setattr(workloads, "exact_value", lambda *args: 1e6)
    attempted, failed, messages = _checked(items)
    assert failed == attempted > 0
    assert all("SE from exact" in m for m in messages)


def test_raising_item_counts_as_failed(tmp_path):
    items = workloads.build("dp-solve", 3, "tiny", str(tmp_path))

    def boom():
        raise oppaccess.ResourceLimitError("memoised state count exceeded cap 1")

    items[0].run = boom
    attempted, failed, messages = _checked(items)
    assert attempted == len(items) and failed == 1
    assert "ResourceLimitError" in messages[0]


def test_changed_output_between_passes_fails(tmp_path):
    items = workloads.build("dp-solve", 3, "tiny", str(tmp_path))
    outputs = iter([(1.0, 1.0), (2.0, 2.0)])
    items[0].run = lambda: next(outputs)
    passes = {"untraced": [(0.0, worker.run_pass(items)), (0.0, worker.run_pass(items))]}
    attempted, failed, messages = worker.check_outputs(items, passes)
    assert failed == 1 and "differs from the first pass" in messages[0]


def test_tracer_restores_the_library(tmp_path):
    before = (oppaccess.sim.simulate, oppaccess.dp.tau, oppaccess.cli._CHECKS["lemma2"],
              oppaccess.dp.FiniteHorizonSolver.__dict__["optimal_value"])
    t = tracer.Tracer()
    items = workloads.build("verify-suite", 3, "tiny", str(tmp_path))
    passes = worker.timed_section(items, 0.0, t)
    after = (oppaccess.sim.simulate, oppaccess.dp.tau, oppaccess.cli._CHECKS["lemma2"],
             oppaccess.dp.FiniteHorizonSolver.__dict__["optimal_value"])
    assert before == after
    layers = t.layer_metrics(len(passes["traced"]))
    assert layers["verify.theorem1.instances"][0] > 0
    assert layers["cli.artifact_bytes"][0] > 0
    assert layers["dp.v_states"][0] > 0


def test_tail_percentile_leaves_ten_items_beyond():
    values = list(range(1, 101))
    assert run.percentile_with_tail(values) == (90.0, 90)
    assert run.percentile_with_tail([5, 1, 3]) == (100.0, 5)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "dp-solve", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
