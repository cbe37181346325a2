import json
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

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


class TestSimulateAndCompare:
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
