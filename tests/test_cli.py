import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

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
