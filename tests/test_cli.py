import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

import oppaccess
from oppaccess import FiniteHorizonSolver
from oppaccess.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


SOLVE_CFG = {
    "kind": "solve",
    "model": {"p01": 0.2, "p11": 0.8},
    "horizon": {"T": 2, "beta": 1.0},
    "n": 2,
    "k": 1,
    "initial_belief": [0.5, 0.5],
    "seed": 1,
}


def read_rows(out_dir):
    import csv

    with open(Path(out_dir) / "results.csv") as f:
        return list(csv.DictReader(f))


class TestRunSolve:
    def test_hand_instance_value(self, runner, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CFG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["analytic_value"]) == pytest.approx(1.15, abs=1e-12)
        assert float(rows[0]["greedy_gap"]) == pytest.approx(0.0, abs=1e-9)
        meta = json.loads((out / "meta.json").read_text())
        assert meta["seed"] == 1
        assert meta["config"]["kind"] == "solve"

    def test_stationary_preset(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG, initial_belief="stationary")
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output

    def test_stationary_degenerate_falls_back(self, runner, tmp_path):
        cfg_data = dict(
            SOLVE_CFG, model={"p01": 0.0, "p11": 1.0}, initial_belief="stationary"
        )
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output


class TestErrorPaths:
    def test_malformed_yaml_exit_2(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("kind: [unclosed")
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", str(path), "--out-dir", str(out)])
        assert result.exit_code == 2
        assert not (out / "results.csv").exists()

    def test_unknown_key_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, dict(SOLVE_CFG, bogus=1))
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_unknown_kind_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, dict(SOLVE_CFG, kind="meditate"))
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_bad_k_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, dict(SOLVE_CFG, k=5))
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_threads_key_rejected(self, runner, tmp_path):
        # Nothing ever read ``threads``; a config that still sets it is an error.
        cfg = write_config(tmp_path, dict(SOLVE_CFG, threads=2))
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 2
        assert "threads" in result.output
        assert not (out / "results.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_threads_option_rejected(self, runner, tmp_path, command):
        cfg = write_config(tmp_path, dict(SOLVE_CFG, grid={"k": [1]}))
        result = runner.invoke(
            main, [command, cfg, "--out-dir", str(tmp_path / "o"), "--threads", "2"]
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("cap", ["0", "-1"])
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_max_memo_below_one_rejected(self, runner, tmp_path, command, cap):
        # Such a cap used to report every verify instance as a resource error
        # and exit 0, a run that checked nothing.
        cfg_data = {
            "kind": "verify",
            "seed": 9,
            "verify": {"properties": ["theorem1"], "count": 5, "n_max": 3, "T_max": 3},
        }
        if command == "sweep":
            cfg_data["grid"] = {"verify.count": [5]}
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "o"
        result = runner.invoke(main, [command, cfg, "--out-dir", str(out), "--max-memo", cap])
        assert result.exit_code == 2, result.output
        assert "--max-memo" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("indices", [[5], [1, 2]], ids=["beyond-n", "not-k"])
    def test_fixed_indices_checked_against_n_and_k(self, runner, tmp_path, indices):
        cfg_data = dict(
            SOLVE_CFG,
            kind="simulate",
            policy={"name": "fixed", "indices": indices},
            replications=5,
        )
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert not (out / "results.csv").exists()

    def test_resource_cap_exit_4(self, runner, tmp_path):
        cfg_data = dict(
            SOLVE_CFG,
            horizon={"T": 5, "beta": 1.0},
            n=4,
            k=2,
            initial_belief=[0.11, 0.52, 0.83, 0.4],
        )
        cfg = write_config(tmp_path, cfg_data)
        result = runner.invoke(
            main, ["run", cfg, "--out-dir", str(tmp_path / "o"), "--max-memo", "5"]
        )
        assert result.exit_code == 4


    def test_w_property_resource_cap_reported_exit_0(self, runner, tmp_path):
        # A W check over the cap reports one resource error per instance and
        # counts no violation, so the run still exits 0.
        props = ["lemma3A", "lemma3B", "lemma2", "affinity"]
        cfg_data = {
            "kind": "verify",
            "seed": 9,
            "verify": {"properties": props, "count": 3, "n_max": 4, "T_max": 4},
        }
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out), "--max-memo", "5"])
        assert result.exit_code == 0, result.output
        rows = read_rows(out)
        assert [(r["instance"], r["violations"]) for r in rows] == [(p, "0") for p in props]
        assert all(int(r["errors"]) > 0 for r in rows)
        records = [json.loads(line) for line in (out / "violations.json").read_text().splitlines()]
        assert len(records) == sum(int(r["errors"]) for r in rows)
        assert all(rec["property_id"].endswith("/resource") for rec in records)


class TestSimulateAndCompare:
    def test_optimal_policy_resource_cap_exit_4(self, runner, tmp_path):
        cfg_data = dict(
            SOLVE_CFG,
            kind="simulate",
            policy="optimal",
            horizon={"T": 5, "beta": 1.0},
            n=4,
            k=2,
            initial_belief=[0.11, 0.52, 0.83, 0.4],
            replications=20,
        )
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "o"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out), "--max-memo", "5"])
        assert result.exit_code == 4, result.output
        assert not (out / "results.csv").exists()

    def test_simulate_greedy(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG, kind="simulate", policy="greedy", replications=2000)
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        row = read_rows(out)[0]
        mean, se = float(row["simulated_mean"]), float(row["std_error"])
        assert abs(mean - 1.15) <= 4 * se

    def test_simulate_traces_flag(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG, kind="simulate", policy="greedy", replications=5)
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out), "--traces"])
        assert result.exit_code == 0, result.output
        traces = (out / "traces_greedy.jsonl").read_text().strip().split("\n")
        assert len(traces) == 5 * 2
        assert json.loads(traces[0])["v"] == 1

    def test_fixed_policy_mapping(self, runner, tmp_path):
        cfg_data = dict(
            SOLVE_CFG,
            kind="simulate",
            policy={"name": "fixed", "indices": [2]},
            replications=50,
        )
        cfg = write_config(tmp_path, cfg_data)
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output

    def test_compare(self, runner, tmp_path):
        cfg_data = dict(
            SOLVE_CFG,
            kind="compare",
            policies=["greedy", "round-robin"],
            replications=500,
        )
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        row = read_rows(out)[0]
        assert "mean_diff" in row and "se_diff" in row

    def test_byte_identical_reruns(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG, kind="simulate", policy="greedy", replications=500)
        cfg = write_config(tmp_path, cfg_data)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
            assert result.exit_code == 0
            row = (out / "results.csv").read_text()
            # strip the runtime column, which is wall-clock and legitimately varies
            outs.append([line.rsplit(",", 1)[0] for line in row.splitlines()])
        assert outs[0] == outs[1]


class TestVerifyKind:
    def test_verify_positive_exit_0(self, runner, tmp_path):
        cfg_data = {
            "kind": "verify",
            "seed": 9,
            "verify": {"properties": ["theorem1", "affinity"], "count": 15,
                       "n_max": 4, "T_max": 4},
        }
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "violations.json").read_text().strip() == ""
        rows = read_rows(out)
        assert {r["instance"] for r in rows} == {"theorem1", "affinity"}

    def test_negative_scan_artifact(self, runner, tmp_path):
        cfg_data = {
            "kind": "verify",
            "seed": 9,
            "verify": {"properties": ["negative-scan"], "count": 10,
                       "n_max": 3, "T_max": 3},
        }
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        report = json.loads((out / "negative_scan.json").read_text())
        assert report["scanned"] == 10


class TestSweep:
    def test_single_point_matches_run(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG)
        cfg_data["grid"] = {"k": [1]}
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_rows(out)
        assert len(rows) == 1
        assert float(rows[0]["analytic_value"]) == pytest.approx(1.15, abs=1e-12)

    def test_grid_over_k_greedy_gap(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG)
        cfg_data["grid"] = {"k": [1, 2]}
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_rows(out)
        assert len(rows) == 2
        for row in rows:
            assert abs(float(row["greedy_gap"])) <= 1e-9
            assert row["regime"] == "positive"

    def test_beta_zero_collapses_to_one_step(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG, initial_belief=[0.3, 0.6])
        cfg_data["grid"] = {"horizon.beta": [0.0, 0.5, 1.0]}
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = {float(row["grid.horizon.beta"]): row for row in read_rows(out)}
        assert float(rows[0.0]["analytic_value"]) == pytest.approx(0.6)

    def test_negative_regime_annotation(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG)
        cfg_data["grid"] = {"model.p11": [0.8, 0.1]}
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = {float(row["grid.model.p11"]): row for row in read_rows(out)}
        assert rows[0.8]["regime"] == "positive"
        assert rows[0.1]["regime"] == "negative"
        assert rows[0.1]["negative_scan_gap"] != ""

    def test_verify_sweep_over_count(self, runner, tmp_path):
        cfg_data = {
            "kind": "verify",
            "seed": 9,
            "verify": {"properties": ["theorem1", "affinity"], "n_max": 3, "T_max": 2},
            "grid": {"verify.count": [1, 2]},
        }
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_rows(out)
        assert sorted((r["grid_point"], r["instance"], r["count"]) for r in rows) == [
            ("0", "affinity", "1"), ("0", "theorem1", "1"),
            ("1", "affinity", "2"), ("1", "theorem1", "2"),
        ]
        assert all(r["grid.verify.count"] == r["count"] for r in rows)

    # Merged results.csv of two negative-regime sweeps, less the wall-clock
    # runtime_s column, as written before the gap was computed once per point.
    SOLVE_SWEEP = (
        {"kind": "solve", "model": {"p01": 0.2, "p11": 0.8}, "horizon": {"T": 4, "beta": 0.9},
         "n": 4, "k": 2, "initial_belief": [0.9, 0.2, 0.5, 0.4],
         "grid": {"model.p11": [0.8, 0.1], "k": [1, 2]}},
        4,
        "analytic_value,best_action,greedy_gap,greedy_value,grid.k,grid.model.p11,grid_point,instance,negative_scan_gap,policy,regime\n"
        "2.7047873894400003,1,0,2.7047873894400003,1,0.80000000000000004,0,0,,optimal,positive\n"
        "1.3676013086400001,1,0.10862781238800001,1.2589734962520001,1,0.10000000000000001,1,0,0.10862781238800001,optimal,negative\n"
        "4.7089186439936004,1+3,0,4.7089186439936004,2,0.80000000000000004,2,0,,optimal,positive\n"
        "2.3345135791167202,1+3,0.19947217560228037,2.1350414035144398,2,0.10000000000000001,3,0,0.19947217560228037,optimal,negative\n",
    )
    SIMULATE_SWEEP = (
        {"kind": "simulate", "model": {"p01": 0.2, "p11": 0.8}, "horizon": {"T": 4, "beta": 0.9},
         "n": 4, "k": 2, "initial_belief": [0.9, 0.2, 0.5, 0.4],
         "policies": ["greedy", "round-robin", "random"], "replications": 300, "seed": 5,
         "grid": {"model.p11": [0.8, 0.1]}},
        1,
        "grid.model.p11,grid_point,instance,negative_scan_gap,policy,regime,replications,simulated_mean,std_error\n"
        "0.80000000000000004,0,0,,greedy,positive,300,4.7068566666666669,0.086644458532491864\n"
        "0.80000000000000004,0,0,,round-robin,positive,300,3.5207866666666661,0.073892983447347058\n"
        "0.80000000000000004,0,0,,random,positive,300,3.4256099999999998,0.089528160487579861\n"
        "0.10000000000000001,1,0,0.19947217560228037,greedy,negative,300,2.3436366666666668,0.055667955852267234\n"
        "0.10000000000000001,1,0,0.19947217560228037,round-robin,negative,300,1.9555366666666669,0.050799773368803661\n"
        "0.10000000000000001,1,0,0.19947217560228037,random,negative,300,1.8450299999999999,0.057643714128114906\n",
    )

    @pytest.mark.parametrize("case", [SOLVE_SWEEP, SIMULATE_SWEEP], ids=["solve", "simulate"])
    def test_negative_gap_solved_once_per_point(self, runner, tmp_path, monkeypatch, case):
        import csv
        import io

        cfg_data, expected_solves, expected_csv = case
        calls = []
        query = FiniteHorizonSolver.optimal_value
        monkeypatch.setattr(
            FiniteHorizonSolver,
            "optimal_value",
            lambda self, belief, t: calls.append(t) or query(self, belief, t),
        )
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        # solve: one solve per point and none for the gap; simulate: one gap
        # solve per negative-regime point, however many policies it runs.
        assert len(calls) == expected_solves
        with open(out / "results.csv", newline="") as f:
            rows = list(csv.reader(f))
        if "runtime_s" in rows[0]:
            col = rows[0].index("runtime_s")
            rows = [r[:col] + r[col + 1:] for r in rows]
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows(rows)
        assert text.getvalue() == expected_csv

    @pytest.mark.parametrize(
        "grid",
        [{"model.p01": 0.3}, {"model.p01": []}, {"k": [1, 2], "model.p01": "0.3"}],
        ids=["scalar", "empty", "string-after-list"],
    )
    def test_axis_must_be_nonempty_list(self, runner, tmp_path, grid):
        cfg = write_config(tmp_path, dict(SOLVE_CFG, grid=grid))
        out = tmp_path / "sweep"
        result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "must be a nonempty list" in result.output
        assert not (out / "point_0000").exists()

    def test_sweep_without_grid_rejected(self, runner, tmp_path):
        cfg = write_config(tmp_path, SOLVE_CFG)
        result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(tmp_path / "o")])
        assert result.exit_code == 2


class TestVerifyConfigErrors:
    @pytest.mark.parametrize(
        "verify",
        [
            {"count": "two"},
            {"count": 2.7},
            {"count": True},
            {"count": -1},
            {"n_max": 4.0},
            {"n_max": 1},
            {"T_max": "3"},
            {"T_max": 0},
            {"regime": "sideways"},
            {"regime": "negative", "properties": None},
            {"regime": "negative", "properties": ["affinity", "theorem1"]},
            {"properties": ["affinity", "lemma9"]},
            {"properties": "affinity"},
        ],
        ids=[
            "count-str", "count-float", "count-bool", "count-negative",
            "n_max-float", "n_max-below-2", "T_max-str", "T_max-zero",
            "regime-unknown", "regime-negative-default-properties",
            "regime-negative-theorem1", "property-unknown", "properties-not-list",
        ],
    )
    def test_rejected_before_any_property_runs(self, runner, tmp_path, verify):
        section = {"properties": ["affinity"], "count": 2, "n_max": 3, "T_max": 2}
        section.update(verify)
        section = {key: v for key, v in section.items() if v is not None}
        cfg = write_config(tmp_path, {"kind": "verify", "seed": 9, "verify": section})
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output
        assert not (out / "violations.json").exists()
        assert not (out / "results.csv").exists()

    def test_negative_regime_without_theorem1_runs(self, runner, tmp_path):
        cfg_data = {
            "kind": "verify",
            "seed": 9,
            "verify": {"properties": ["affinity"], "regime": "negative", "count": 3,
                       "n_max": 3, "T_max": 2},
        }
        cfg = write_config(tmp_path, cfg_data)
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output


SIM_CFG = dict(SOLVE_CFG, kind="simulate", replications=5)
VERIFY_CFG = {
    "kind": "verify",
    "seed": 9,
    "verify": {"properties": ["affinity"], "count": 1, "n_max": 3, "T_max": 2},
}


class TestRejectedBeforeAnyWork:
    # (command, config, extra arguments)
    CASES = {
        "n-float": ("run", dict(SOLVE_CFG, n=3.7), []),
        "n-bool": ("run", dict(SOLVE_CFG, n=True), []),
        "T-float": ("run", dict(SOLVE_CFG, horizon={"T": 2.9}), []),
        "p01-str": ("run", dict(SOLVE_CFG, model={"p01": "0.2", "p11": 0.8}), []),
        "replications-float": ("run", dict(SIM_CFG, replications=2.5), []),
        "seed-float": ("run", dict(SIM_CFG, seed=2.5), []),
        "seed-2**64": ("run", dict(SIM_CFG, seed=2**64), []),
        "seed-negative": ("run", dict(SIM_CFG, seed=-1), []),
        "verify-seed-negative": ("run", dict(VERIFY_CFG, seed=-1), []),
        "option-seed-negative": ("run", SIM_CFG, ["--seed", "-1"]),
        "option-seed-2**64": ("run", SIM_CFG, ["--seed", str(2**64)]),
        "fixed-index-float": ("run", dict(SIM_CFG, policy={"name": "fixed", "indices": [1.5]}), []),
        "indices-on-greedy": ("run", dict(SIM_CFG, policy={"name": "greedy", "indices": [1]}), []),
        "policies-empty": ("run", dict(SIM_CFG, policies=[]), []),
        "policy-and-policies": ("run", dict(SIM_CFG, policy="greedy", policies=["random"]), []),
        "p01-huge-int": ("run", dict(SOLVE_CFG, model={"p01": 10**400, "p11": 0.8}), []),
        "property-unhashable": ("run", dict(VERIFY_CFG, verify={"properties": [[1]]}), []),
        "grid-in-run": ("run", dict(SOLVE_CFG, grid={"k": [1]}), []),
        "policy-in-solve": ("run", dict(SOLVE_CFG, policy="greedy"), []),
        "model-in-verify": ("run", dict(VERIFY_CFG, model={"p01": 0.2, "p11": 0.8}), []),
        "sweep-invalid-second-point": ("sweep", dict(SOLVE_CFG, grid={"model.p01": [0.3, 7]}), []),
        "sweep-unknown-axis": ("sweep", dict(SOLVE_CFG, grid={"foo.bar": [1]}), []),
        "sweep-unknown-kind": ("sweep", dict(VERIFY_CFG, grid={"kind": ["nope"]}), []),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_2_and_nothing_written(self, runner, tmp_path, case):
        command, cfg_data, extra = self.CASES[case]
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, [command, cfg, "--out-dir", str(out), *extra])
        assert result.exit_code == 2, result.output
        assert "config error:" in result.output
        # No results.csv, meta.json or point_* directory: the out dir is never made.
        assert not out.exists()


def test_sweep_seed_axis_sets_each_point_seed(runner, tmp_path):
    cfg = write_config(tmp_path, dict(SIM_CFG, replications=200, grid={"seed": [1, 2, 3]}))
    out = tmp_path / "sweep"
    result = runner.invoke(main, ["sweep", cfg, "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert len({row["simulated_mean"] for row in read_rows(out)}) == 3
    for point, seed in enumerate([1, 2, 3]):
        meta = json.loads((out / f"point_{point:04d}" / "meta.json").read_text())
        assert meta["seed"] == seed


def test_python_m_entry_point(tmp_path):
    src = str(Path(oppaccess.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run_module(cfg_data, out):
        cfg = write_config(tmp_path, cfg_data, name=f"{out}.yaml")
        command = [sys.executable, "-m", "oppaccess.cli", "run", cfg, "--out-dir", str(tmp_path / out)]
        return subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)

    ok = run_module(SOLVE_CFG, "ok")
    assert ok.returncode == 0, ok.stderr
    assert (tmp_path / "ok" / "results.csv").exists()
    bad = run_module(dict(SOLVE_CFG, n=3.7), "bad")
    assert bad.returncode == 2
    assert "config error:" in bad.stderr
    assert not (tmp_path / "bad").exists()


# Fuzzing: random mappings and grids over known and junk keys.  Integers stay
# small and --max-memo is tiny, so no example does real work; a verify section
# always carries a count for the same reason (the default is 100 instances).
_ints = st.integers(1, 3)
_numbers = st.floats(0, 1) | st.sampled_from([0, 1, 0.2, 0.8])
_POLICY_NAMES = ["greedy", "optimal", "ordered-list", "round-robin", "random", "fixed", "junk"]
_PROPERTY_NAMES = ["theorem1", "lemma3A", "lemma3B", "lemma2", "affinity", "negative-scan", "junk"]
_junk = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 4)
    | st.sampled_from([2.5, 3.0, 1.5, math.nan, math.inf, "0.2", "junk"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["kind", "n", "p01", "count", "name", "junk"]), inner,
                      max_size=3),
    max_leaves=6,
)


def _mapping(fields, required=()):
    return st.fixed_dictionaries(
        {key: fields[key] for key in required},
        optional={key: value for key, value in fields.items() if key not in required},
    )


_policy = st.sampled_from(_POLICY_NAMES) | _mapping(
    {"name": st.sampled_from(_POLICY_NAMES), "indices": st.lists(_ints, max_size=3)}, ["name"]
)
_FIELDS = {
    "seed": st.integers(0, 4),
    "model": _mapping({"p01": _numbers, "p11": _numbers}, ["p01", "p11"]),
    "horizon": _mapping({"T": _ints, "beta": _numbers}, ["T"]),
    "n": _ints,
    "k": st.integers(1, 2),
    "initial_belief": st.just("stationary") | st.lists(_numbers, max_size=4),
    "policy": _policy,
    "policies": st.lists(_policy, max_size=3),
    "replications": _ints,
    "verify": _mapping(
        {"count": _ints, "properties": st.lists(st.sampled_from(_PROPERTY_NAMES), max_size=3),
         "regime": st.sampled_from(["positive", "negative", "boundary", "sideways"]),
         "n_max": _ints, "T_max": _ints},
        ["count"],
    ),
}
_INSTANCE = ["model", "horizon", "n", "k"]
# kind: (keys always drawn, keys sometimes drawn)
_KINDS = {
    "solve": (_INSTANCE, ["seed", "initial_belief", "policy"]),
    "simulate": (_INSTANCE, ["seed", "initial_belief", "policy", "policies", "replications"]),
    "compare": (_INSTANCE + ["policies"], ["seed", "initial_belief", "replications"]),
    "verify": (["verify"], ["seed", "model"]),
    "nope": ([], ["seed"]),
}
_AXES = {
    "n": _ints, "k": st.integers(1, 2), "seed": st.integers(0, 4), "horizon.T": _ints,
    "model.p01": _numbers,
    "verify.count": _ints, "policy.name": st.sampled_from(_POLICY_NAMES), "foo.bar": _ints,
    "kind": st.sampled_from(["solve", "simulate", "compare", "nope"]),
}
_grids = st.lists(st.sampled_from(list(_AXES)), min_size=1, max_size=2, unique=True).flatmap(
    lambda axes: st.fixed_dictionaries({axis: st.lists(_AXES[axis], min_size=1, max_size=3) for axis in axes})
)


def _slots(node):
    """Every (container, key) position in a nested config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


@st.composite
def _configs(draw, with_grid):
    """A config of one kind with its needed keys, some optional ones, and up
    to two values anywhere in it replaced by junk."""
    kind = draw(st.sampled_from(list(_KINDS)))
    needed, optional = _KINDS[kind]
    keys = needed + draw(st.lists(st.sampled_from(optional), max_size=2, unique=True))
    cfg = {"kind": kind, **{key: draw(_FIELDS[key]) for key in keys}}
    if with_grid:
        cfg["grid"] = draw(_grids)
    slots = list(_slots(cfg))
    for i in draw(st.lists(st.integers(0, len(slots) - 1), max_size=2)):
        node, key = slots[i]
        node[key] = draw(_junk)
    if draw(st.sampled_from(range(10))) == 9:
        cfg = draw(_junk)
    if isinstance(cfg, dict) and isinstance(cfg.get("verify"), dict):
        cfg["verify"].setdefault("count", 1)
    return cfg


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), command=st.sampled_from(["run", "sweep"]))
def test_fuzzed_configs_end_in_a_documented_exit_code(data, command):
    cfg = data.draw(_configs(with_grid=command == "sweep"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        args = [command, str(path), "--out-dir", str(Path(tmp) / "out"), "--max-memo", "5"]
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
