import hashlib
import json
import math
import os
import re
import shutil
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
from oppaccess.cli import load_config, main


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
        with pytest.warns(UserWarning, match="stationary belief undefined"):
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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_out_of_memory_exit_4(self, runner, tmp_path, command):
        # The (10**12, 25) float64 uniforms need 182 TiB, more than any
        # process's address space, so numpy refuses the allocation at once.
        cfg_data = dict(
            SOLVE_CFG,
            kind="simulate",
            policy="greedy",
            horizon={"T": 5, "beta": 1.0},
            n=5,
            k=2,
            initial_belief=[0.5] * 5,
            replications=1_000_000_000_000,
        )
        if command == "sweep":
            cfg_data["grid"] = {"k": [2]}
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "o"
        result = runner.invoke(main, [command, cfg, "--out-dir", str(out)])
        assert result.exit_code == 4, result.output
        assert "resource cap: out of memory" in result.output
        assert not (out / "results.csv").exists()

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

    def test_optimal_policy_past_64_channels_exit_0(self, runner, tmp_path):
        # n = 70: positions past the width of an int64 bit pattern.
        cfg_data = dict(
            SOLVE_CFG, kind="simulate", policy="optimal", n=70,
            initial_belief="stationary", replications=20,
        )
        cfg = write_config(tmp_path, cfg_data)
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert len(read_rows(out)) == 1

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

    def test_two_fixed_policies_keep_their_own_traces(self, runner, tmp_path):
        cfg_data = dict(SOLVE_CFG, kind="simulate", replications=5)
        specs = [{"name": "fixed", "indices": [i]} for i in (1, 2)]
        out = tmp_path / "both"
        cfg = write_config(tmp_path, dict(cfg_data, policies=specs), "both.yaml")
        result = runner.invoke(main, ["run", cfg, "--out-dir", str(out), "--traces"])
        assert result.exit_code == 0, result.output
        assert [row["policy"] for row in read_rows(out)] == ["fixed-1", "fixed-2"]
        names = sorted(p.name for p in out.glob("traces_*"))
        assert names == ["traces_fixed-1.jsonl", "traces_fixed-2.jsonl"]
        for spec, name in zip(specs, names):
            alone = tmp_path / name
            cfg = write_config(tmp_path, dict(cfg_data, policy=spec), "alone.yaml")
            result = runner.invoke(main, ["run", cfg, "--out-dir", str(alone), "--traces"])
            assert result.exit_code == 0, result.output
            assert (out / name).read_bytes() == (alone / name).read_bytes()

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
        # Every artifact but meta.json, which alone holds wall-clock times:
        # one runtime_s entry per results.csv row, in row order.
        sim = dict(SOLVE_CFG, kind="simulate", policies=["greedy", "random"], replications=500)
        cases = {
            "solve": ("run", SOLVE_CFG, []),
            "simulate": ("run", sim, ["--traces"]),
            "compare": ("run", dict(sim, kind="compare"), []),
            "sweep": ("sweep", dict(sim, grid={"model.p11": [0.8, 0.1]}), ["--traces"]),
        }
        for case, (command, cfg_data, extra) in cases.items():
            cfg = write_config(tmp_path, cfg_data, f"{case}.yaml")
            artifacts = []
            for name in ("a", "b"):
                out = tmp_path / case / name
                result = runner.invoke(main, [command, cfg, "--out-dir", str(out), *extra])
                assert result.exit_code == 0, result.output
                files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "meta.json")
                artifacts.append({p.relative_to(out): p.read_bytes() for p in files})
                meta = json.loads((out / "meta.json").read_text())
                assert meta["schema_version"] == 2
                assert len(meta["runtime_s"]) == len(read_rows(out))
            assert "traces" not in extra or any(p.suffix == ".jsonl" for p in artifacts[0])
            assert artifacts[0] == artifacts[1]


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def readme_configs():
    return [c for c in map(yaml.safe_load, readme_blocks("yaml")) if "kind" in c]


class TestReadmeExamples:
    def test_every_config_parses(self):
        configs = readme_configs()
        assert [c["kind"] for c in configs] == ["solve", "simulate", "compare", "verify"]
        for cfg in configs:
            load_config(cfg)

    @pytest.mark.parametrize("kind", ["solve", "simulate", "compare"])
    def test_config_runs_in_full(self, runner, tmp_path, kind):
        (cfg,) = [c for c in readme_configs() if c["kind"] == kind]
        out = tmp_path / "out"
        result = runner.invoke(main, ["run", write_config(tmp_path, cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        assert read_rows(out)

    def test_simulate_trace_lines(self, runner, tmp_path):
        (cfg,) = [c for c in readme_configs() if c["kind"] == "simulate"]
        # Replication 0's substream does not depend on the replication count.
        cfg["replications"] = 1
        out = tmp_path / "out"
        args = ["run", write_config(tmp_path, cfg), "--out-dir", str(out), "--traces"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        (shown,) = readme_blocks("json")
        assert (out / "traces_greedy.jsonl").read_text() == shown


# sha256 of results.csv, violations.json and negative_scan.json for three
# verify configs, each at the default cap and at --max-memo 40, where
# resource reports come out in instance order.  A refactor must keep these
# bytes; the digests are never re-recorded to let a change through.
VERIFY_ARTIFACT_CONFIGS = {
    "criterion9": {
        "kind": "verify", "seed": 77,
        "verify": {"properties": ["theorem1", "lemma3A", "affinity", "negative-scan"],
                   "count": 25, "n_max": 4, "T_max": 4},
    },
    "negative-w": {
        "kind": "verify", "seed": 21,
        "verify": {"properties": ["lemma3A", "lemma3B", "lemma2", "affinity", "negative-scan"],
                   "regime": "negative", "count": 60, "n_max": 6, "T_max": 6},
    },
}
VERIFY_ARTIFACT_DIGESTS = {
    ("readme", None): (0, {
        "results.csv": "21f4dc07c96eae8438c39fa94fbb65ec3d53d9f8d9a6643321bcc37c43874e35",
        "violations.json": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "negative_scan.json": "3c1640640522613238e2d554debf8e6cedd9741284b917b7cc94ebb1610c870c",
    }),
    ("readme", "40"): (0, {
        "results.csv": "ccdc04397781ea6aa74350e70c228e74a46bf5251a57d677a0259103bc7190ae",
        "violations.json": "25ea3828c1226ae781f60e55f0d2f9dc400b46e792274f2b4dbbdc7e7559b55c",
        "negative_scan.json": "e5d87e938a5c818cb0cbdda229fe9f0e624248043cd18ee6b1bed2a965fed289",
    }),
    ("criterion9", None): (0, {
        "results.csv": "60aa3ab397aa8e879aeeb21cbaac4ab95240799ee9ddd09de6143f5f2b7b2163",
        "violations.json": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
        "negative_scan.json": "de4586ffb39437f8a8a91c396ef107d3d03ba135d0cb34b738abc422d158ee52",
    }),
    ("criterion9", "40"): (0, {
        "results.csv": "15732b618617ad0f2ca88a101e31101061061a75b0363658fb89e6689713cafd",
        "violations.json": "d1aad6ff94b562f0a78e061aafab7d7d350117ef477393c89a4f96a9c5d5d6fc",
        "negative_scan.json": "6166b7e5853fe57f2d54b1bba92f78268ffbe6024018f6e39f00c0440cf22c8d",
    }),
    ("negative-w", None): (3, {
        "results.csv": "d9622f0716d28ac172a3ff7e6ac3c118ff51175156d9a9c4ee5ba8fe74f0e189",
        "violations.json": "03b20e2fd5e42d7b311f2976d540768e137c418cee784f67872502ba6a7c7500",
        "negative_scan.json": "8db7caaa5e3f5258067cbd5f4a041883333a399281603e3faa4a6ee6de4abf3a",
    }),
    ("negative-w", "40"): (3, {
        "results.csv": "d5b768714bc47ba629b2d591091c6d5c74bfcc98471b930334c6ad07471605ea",
        "violations.json": "5878d25970d3d47f32ba8360afcdc4e93c4d05b40fe2762612b97915bf2bcb88",
        "negative_scan.json": "920a2c14d05e8935c6e8096b607e1cbbc68148bc920670ec96e835f14e2793de",
    }),
}


@pytest.mark.parametrize("name,cap", list(VERIFY_ARTIFACT_DIGESTS))
def test_verify_artifacts_are_pinned(runner, tmp_path, name, cap):
    if name == "readme":
        (cfg,) = [c for c in readme_configs() if c["kind"] == "verify"]
    else:
        cfg = VERIFY_ARTIFACT_CONFIGS[name]
    out = tmp_path / "out"
    args = ["run", write_config(tmp_path, cfg), "--out-dir", str(out)]
    result = runner.invoke(main, args + (["--max-memo", cap] if cap else []))
    status, digests = VERIFY_ARTIFACT_DIGESTS[name, cap]
    assert result.exit_code == status, result.output
    got = {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in digests}
    assert got == digests


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

    # Merged results.csv of two negative-regime sweeps.  The negative rows'
    # greedy_value and greedy_gap hold greedy's own value, which
    # test_negative_rows_hold_greedys_value checks against the exact rollout.
    SOLVE_SWEEP = (
        {"kind": "solve", "model": {"p01": 0.2, "p11": 0.8}, "horizon": {"T": 4, "beta": 0.9},
         "n": 4, "k": 2, "initial_belief": [0.9, 0.2, 0.5, 0.4],
         "grid": {"model.p11": [0.8, 0.1], "k": [1, 2]}},
        4,
        "analytic_value,best_action,greedy_gap,greedy_value,grid.k,grid.model.p11,grid_point,instance,policy,regime\n"
        "2.7047873894400003,1,0,2.7047873894400003,1,0.80000000000000004,0,0,optimal,positive\n"
        "1.3676013086400001,1,0,1.3676013086400001,1,0.10000000000000001,1,0,optimal,negative\n"
        "4.7089186439936004,1+3,0,4.7089186439936004,2,0.80000000000000004,2,0,optimal,positive\n"
        "2.3345135791167202,1+3,0,2.3345135791167202,2,0.10000000000000001,3,0,optimal,negative\n",
    )
    SIMULATE_SWEEP = (
        {"kind": "simulate", "model": {"p01": 0.2, "p11": 0.8}, "horizon": {"T": 4, "beta": 0.9},
         "n": 4, "k": 2, "initial_belief": [0.9, 0.2, 0.5, 0.4],
         "policies": ["greedy", "round-robin", "random"], "replications": 300, "seed": 5,
         "grid": {"model.p11": [0.8, 0.1]}},
        0,
        "grid.model.p11,grid_point,instance,policy,regime,replications,simulated_mean,std_error\n"
        "0.80000000000000004,0,0,greedy,positive,300,4.7068566666666669,0.086644458532491864\n"
        "0.80000000000000004,0,0,round-robin,positive,300,3.5207866666666661,0.073892983447347058\n"
        "0.80000000000000004,0,0,random,positive,300,3.4256099999999998,0.089528160487579861\n"
        "0.10000000000000001,1,0,greedy,negative,300,2.3436366666666668,0.055667955852267234\n"
        "0.10000000000000001,1,0,round-robin,negative,300,1.9555366666666669,0.050799773368803661\n"
        "0.10000000000000001,1,0,random,negative,300,1.8450299999999999,0.057643714128114906\n",
    )

    @pytest.mark.parametrize("case", [SOLVE_SWEEP, SIMULATE_SWEEP], ids=["solve", "simulate"])
    def test_negative_gap_solved_once_per_point(self, runner, tmp_path, monkeypatch, case):
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
        # solve: one solve per point; simulate: none, since its rows report no
        # exact value.
        assert len(calls) == expected_solves
        assert (out / "results.csv").read_text() == expected_csv

    @pytest.mark.parametrize("case", [SOLVE_SWEEP, SIMULATE_SWEEP], ids=["solve", "simulate"])
    def test_negative_rows_hold_greedys_value(self, case):
        import csv
        import io

        from _oracles import exact_policy_value

        cfg_data, _, expected_csv = case
        base = {key: value for key, value in cfg_data.items() if key != "grid"}
        negative = 0
        for row in csv.DictReader(io.StringIO(expected_csv)):
            if row["regime"] != "negative":
                continue
            negative += 1
            cfg = json.loads(json.dumps(base))
            cfg["model"]["p11"] = float(row["grid.model.p11"])
            cfg["k"] = int(row.get("grid.k") or cfg["k"])
            c = load_config(cfg).instance
            rollout = exact_policy_value(
                c.initial_belief.omega, 1, c.model, c.horizon, c.k,
                lambda w, t: oppaccess.greedy_action(w, c.k),
            )
            v = FiniteHorizonSolver(c.model, c.horizon, c.k).optimal_value(c.initial_belief, 1)
            if "greedy_value" in row:
                assert abs(float(row["greedy_value"]) - rollout) <= 1e-12
                assert abs(float(row["greedy_gap"]) - (v.value - rollout)) <= 1e-12
        assert negative == (2 if "greedy_value" in expected_csv else 3)

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
        # Integers past int64, which numpy can neither size an array by nor draw.
        "solve-T-1e20": ("run", dict(SOLVE_CFG, horizon={"T": 10**20}), []),
        "simulate-T-1e20": ("run", dict(SIM_CFG, horizon={"T": 10**20}), []),
        "replications-1e20": ("run", dict(SIM_CFG, replications=10**20), []),
        "simulate-n-1e20": ("run", dict(SIM_CFG, n=10**20, initial_belief="stationary"), []),
        "verify-T_max-1e20": ("run", dict(VERIFY_CFG, verify={"count": 1, "T_max": 10**20}), []),
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


@pytest.mark.parametrize(
    "cfg_data, entry",
    [
        (dict(VERIFY_CFG, verify={"properties": ["affinity", "affinity", "negative-scan"]}),
         "verify.properties lists 'affinity' more than once"),
        (dict(SIM_CFG, policies=["round-robin", {"name": "fixed", "indices": [2]},
                                 {"name": "fixed", "indices": [2]}]),
         "policies lists ActionSet(indices=(2,)) more than once"),
    ],
    ids=["properties", "policies"],
)
def test_repeated_entry_exits_2_and_names_it(runner, tmp_path, cfg_data, entry):
    # A repeat would run a check twice, or write one policy's rows and traces
    # twice; compare alone may pit a policy against itself.
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", write_config(tmp_path, cfg_data), "--out-dir", str(out)])
    assert result.exit_code == 2, result.output
    assert f"config error: {entry}" in result.output
    assert not out.exists()


def test_compare_of_a_policy_against_itself_runs(runner, tmp_path):
    cfg = write_config(tmp_path, dict(SIM_CFG, kind="compare", policies=["greedy", "greedy"]))
    result = runner.invoke(main, ["run", cfg, "--out-dir", str(tmp_path / "out")])
    assert result.exit_code == 0, result.output
    assert read_rows(tmp_path / "out")[0]["policy"] == "greedy vs greedy"


INT64_MAX = 2**63 - 1


@pytest.mark.parametrize(
    "cfg_data",
    [
        dict(SOLVE_CFG, horizon={"T": INT64_MAX, "beta": 0.9}),
        dict(SIM_CFG, horizon={"T": INT64_MAX}),
        dict(SIM_CFG, replications=INT64_MAX),
    ],
    ids=["solve-T", "simulate-T", "replications"],
)
def test_largest_int64_ends_at_once_in_exit_4(runner, tmp_path, cfg_data):
    # At the bound the config is accepted, and the run stops before sizing any
    # array: a V graph needs a node per step, so one over the cap is refused
    # before it is built, and the simulation's uniforms exceed numpy's size
    # limit, which is reported as out of memory.
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", write_config(tmp_path, cfg_data), "--out-dir", str(out)])
    assert result.exit_code == 4, result.output
    assert "resource cap:" in result.output
    assert not (out / "results.csv").exists()


def test_largest_int64_T_max_gives_each_verify_instance_a_resource_report(runner, tmp_path):
    # Instances 0-4 need a W graph with a node per step, refused before it is
    # built.  Instance 5 has beta = 0, and its W table exceeds numpy's size
    # limit: that instance's MemoryError is its own resource report in each
    # W property, and the run goes on to exit 0.
    cfg_data = dict(VERIFY_CFG, verify={"count": 6, "T_max": INT64_MAX})
    out = tmp_path / "out"
    result = runner.invoke(main, ["run", write_config(tmp_path, cfg_data), "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    records = [json.loads(line) for line in (out / "violations.json").read_text().splitlines()]
    props = ["theorem1", "lemma3A", "lemma3B", "lemma2", "affinity"]
    assert [(r["property_id"], r["instance"]["index"]) for r in records] == [
        (f"{prop}/resource", i) for prop in props for i in range(6)
    ]
    for r in records:
        memory = r["instance"]["index"] == 5
        assert (r["instance"]["beta"] == 0.0) == memory
        assert r["error"].startswith("MemoryError: " if memory else "ResourceLimitError: W state")
    assert read_rows(out)[-1]["errors"] == "5"  # negative-scan: V answers beta = 0 at once


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


PROBES = Path(__file__).parent / "data" / "probes"


def _console_command():
    """The installed ``oppaccess`` script when it is on PATH, else the module."""
    script = shutil.which("oppaccess")
    return [script] if script else [sys.executable, "-m", "oppaccess.cli"]


@pytest.mark.parametrize(
    "name",
    [
        "solve", "simulate_optimal", "simulate_random", "verify_lemma2", "solve_wide",
        "solve_long", "sweep_negative_wide", "verify_n_max", "verify_w_over_cap",
        "solve_huge_T", "verify_huge_T", "verify_negative_huge_T",
        "solve_huge_sets", "simulate_random_huge_sets",
    ],
)
def test_resource_probe_ends_at_once(tmp_path, name):
    # Each probe's C(n, k) but solve_wide's is far over the cap: the run must
    # end with exit 4, or, for verify, exit 0 and one lemma2/resource record,
    # instead of listing the sensing sets.  solve_wide (n = 70, k = 1) is
    # under it and must solve.  solve_long's T is past int64: exit 2.  The
    # sweep's negative point runs no V solve, so it exits 0 with a merged
    # results.csv.  verify_n_max's n_max is over the cap: exit 4 before any
    # instance is drawn.  verify_w_over_cap's over-cap W shapes each give
    # lemma3A/resource records.  The three *_huge_T probes run under the
    # largest cap with T = 2^62, whose tables of aged entries numpy cannot
    # address: the solve exits 4 as out of memory, and each verify instance
    # gets a resource record.  The two *_huge_sets probes' C(66, 33) passes
    # that cap, but their tables of sensing sets numpy cannot address: exit
    # 4 as out of memory.  A subprocess with a timeout turns a
    # regression into a failure rather than a hung suite; the runs take about
    # 0.35 s, most of it interpreter start-up, and verify_w_over_cap 0.75 s.
    src = str(Path(oppaccess.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    command = "sweep" if name.startswith("sweep") else "run"
    if name.endswith(("huge_T", "huge_sets")):
        cap = str(INT64_MAX)
    else:
        cap = "4000" if name == "verify_w_over_cap" else "100000"
    args = [command, str(PROBES / f"{name}.yaml"), "--out-dir", str(out), "--max-memo", cap]
    result = subprocess.run(
        _console_command() + args, env=env, capture_output=True, text=True, timeout=5
    )
    if name == "solve_long":
        assert result.returncode == 2, result.stderr
        assert "config error: horizon.T must lie in" in result.stderr
        assert not out.exists()
    elif name in (
        "solve", "simulate_optimal", "simulate_random", "verify_n_max", "solve_huge_T",
        "solve_huge_sets", "simulate_random_huge_sets",
    ):
        assert result.returncode == 4, result.stderr
        assert "Traceback" not in result.stderr
        if name == "verify_n_max":
            message = "verify.n_max = 9223372036854775807 exceeds cap 100000"
        elif name == "solve_huge_T":
            # V's (h + 2, B) table: h = T - 1 steps left, B = 5 bases.
            message = "out of memory: (4611686018427387905, 5) float64 array cannot be addressed"
        elif name.endswith("huge_sets"):
            # The sensing sets' (C, n) positions, C = C(66, 33).
            message = "out of memory: (7219428434016265740, 66) float64 array cannot be addressed"
        else:
            message = "C(40, 20) = 137846528820 sensing sets exceed cap"
        assert f"resource cap: {message}" in result.stderr
        assert not (out / "results.csv").exists()
    else:
        assert result.returncode == 0, result.stderr
        assert (out / "results.csv").read_text()
    if name == "verify_lemma2":
        records = [json.loads(line) for line in (out / "violations.json").read_text().splitlines()]
        assert [r["property_id"] for r in records] == ["lemma2/resource"]
        assert "C(35, 23) = 834451800 sensing sets exceed cap 100000" in records[0]["error"]
    if name == "verify_w_over_cap":
        records = [json.loads(line) for line in (out / "violations.json").read_text().splitlines()]
        assert [r["property_id"] for r in records] == ["lemma3A/resource"] * 112
        assert all("node count exceeded cap 4000" in r["error"] for r in records)
    if name == "verify_huge_T":
        # Instance 0 has beta = 0, so W's graph is one node but its (T, vectors)
        # table is past numpy's size limit, and the affinity check's shorter
        # table is refused by the allocator; instance 1's W graph build is
        # refused before its first depth.
        records = [json.loads(line) for line in (out / "violations.json").read_text().splitlines()]
        props = ["theorem1", "lemma3A", "lemma3B", "lemma2", "affinity"]
        assert [(r["property_id"], r["instance"]["index"]) for r in records] == [
            (f"{prop}/resource", i) for prop in props for i in range(2)
        ]
        assert all(r["error"].startswith("MemoryError: ") for r in records)
        assert [r["errors"] for r in read_rows(out)] == ["2"] * 5 + ["1"]
    if name == "verify_negative_huge_T":
        # V answers instance 0 (beta = 0) at once; instance 1's V solve needs a
        # (T + 1, 5) table of aged entries.
        scan = json.loads((out / "negative_scan.json").read_text())
        assert (scan["scanned"], scan["findings"]) == (2, [])
        assert [e["instance"]["index"] for e in scan["errors"]] == [1]
        assert scan["errors"][0]["error"] == (
            "MemoryError: (2569345756469950197, 5) float64 array cannot be addressed"
        )


def test_simulate_optimal_probe_results_pinned(runner, tmp_path):
    # optimal, greedy and ordered-list at n = 6, k = 2, T = 7 with 2,000
    # replications.  The optimal policy's solver answers every step after the
    # first from the graph its first query solved; results.csv keeps the
    # bytes that a solve of each step's roots gave.
    out = tmp_path / "out"
    config = str(PROBES / "simulate_optimal_pins.yaml")
    result = runner.invoke(main, ["run", config, "--out-dir", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "results.csv").read_text() == (
        "instance,policy,simulated_mean,std_error,replications\n"
        "0,optimal,8.9702462276249992,0.039356183817111534,2000\n"
        "0,greedy,8.9702462276249992,0.039356183817111534,2000\n"
        "0,ordered-list,8.9708492837656237,0.039232574325407839,2000\n"
    )


def test_simulate_probe_draws_the_nature_stream_once(runner, tmp_path, monkeypatch):
    # greedy, random and round-robin on one seed share the hidden paths: the
    # run draws the nature stream (1) once and random's policy stream (2)
    # once.  results.csv and the traces keep the bytes they had when each
    # policy drew its own paths.
    from oppaccess import sim

    streams = []
    real = sim._substream_uniforms
    monkeypatch.setattr(
        sim, "_substream_uniforms", lambda *args: streams.append(args[1]) or real(*args)
    )
    out = tmp_path / "out"
    config = str(PROBES / "simulate_shared_paths.yaml")
    result = runner.invoke(main, ["run", config, "--out-dir", str(out), "--traces"])
    assert result.exit_code == 0, result.output
    assert streams == [1, 2]
    digests = {"results.csv": hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()}
    for name in ("greedy", "random", "round-robin"):
        digests[name] = hashlib.sha256((out / f"traces_{name}.jsonl").read_bytes()).hexdigest()
    assert digests == {
        "results.csv": "c3b9fc3b462919da22de63a9a07ce11440ec0775623478ae00889bfd661a90f6",
        "greedy": "12fa972433eb42d529f0a39cfc1710503aa1675417a7227d775e29e2a27c6b5d",
        "random": "ce901c3ffb88d44c548e21f563f5afa5fbb5d1f4293f335060cbed0395451bc7",
        "round-robin": "99dea2976bb1b2f954a5f5dce20f1f1a15dc98856f9b67474492f1bfd18cd155",
    }


def test_replications_sweep_probe_keeps_its_bytes(runner, tmp_path, monkeypatch):
    # A sweep over replications [4000, 1000] with --traces: each point draws
    # its own hidden paths, since they are held keyed on the replication
    # count, so the nature stream (1) and random's policy stream (2) are drawn
    # once a point.  The 20,000-line trace files span three writer blocks.
    # results.csv and every trace file are pinned to digests of the output of
    # the writer that formatted each block's rows afresh.
    from oppaccess import sim

    streams = []
    real = sim._substream_uniforms
    monkeypatch.setattr(
        sim, "_substream_uniforms", lambda *args: streams.append(args[1]) or real(*args)
    )
    out = tmp_path / "sweep"
    config = str(PROBES / "sweep_replications.yaml")
    result = runner.invoke(main, ["sweep", config, "--out-dir", str(out), "--traces"])
    assert result.exit_code == 0, result.output
    assert streams == [1, 2, 1, 2]
    digests = {"results.csv": hashlib.sha256((out / "results.csv").read_bytes()).hexdigest()}
    for path in sorted(out.glob("point_*/traces_*.jsonl")):
        digests[f"{path.parent.name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == {
        "results.csv": "c404fe1a53dbbc0dad07877bff5e75aa38d4e75be58970a1b292689134412217",
        "point_0000/traces_greedy.jsonl": "9fa7071a8ab03fee50551427e9289170758dc212b800a98d58531e823d7a4015",
        "point_0000/traces_random.jsonl": "d747b2d92b1d6dc0c3773036276b95880661827f6e956e0aab290f1fe9234cd2",
        "point_0000/traces_round-robin.jsonl": "03860db2c0bcc49a6138deb2a1533d82604183a938bb4a5ade9dad97683e0fba",
        "point_0001/traces_greedy.jsonl": "f610bb7812db11a15166c63032d98e705d9d99fa86cde3a05d30c14762f9265b",
        "point_0001/traces_random.jsonl": "23b32a64142c763a947b9591a3aeaa6672fd63bb43a48df1232b6695b9ce3a8f",
        "point_0001/traces_round-robin.jsonl": "869272937c4814be6317e7a0113cdc45ec11b319aa2daec984e6603c4470eddc",
    }


# Runs the command in its arguments, then prints the largest peak resident set
# of the processes it waited for, in KiB on Linux.  The probe runs in this
# wrapper because the test process's own children counter would also hold
# every earlier probe's peak.
_PEAK_OF_CHILD = """
import resource, subprocess, sys
status = subprocess.run(sys.argv[1:], timeout=120).returncode
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(status)
"""


@pytest.mark.parametrize(
    "name, value",
    [("solve_frontier", "15.28138611072572"), ("solve_frontier_negative", "14.31934843964742")],
)
def test_frontier_solve_within_time_and_memory(tmp_path, name, value):
    # The largest V solves in the suite, through the console command: n = 8,
    # k = 3, T = 8 with p11 > p01 (about 252k V graph nodes and 3.7M (state,
    # selection) pairs), and the same beliefs with p11 < p01, where aging
    # reverses the entries' order.  Each takes about 2 s and 104 MiB on one
    # core, ten times any other V solve here: V's level passes hold one chunk
    # of pairs at a time, so the peak is about what V keeps between its
    # passes (37 MiB) plus the interpreter.  Each must exit 0 within 120 s,
    # peak under 131 MiB resident (the measured peak plus 25%), and write its
    # recorded values.
    src = str(Path(oppaccess.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    command = _console_command() + ["run", str(PROBES / f"{name}.yaml"), "--out-dir", str(out)]
    result = subprocess.run(
        [sys.executable, "-c", _PEAK_OF_CHILD, *command],
        env=env, capture_output=True, text=True, timeout=150,
    )
    assert result.returncode == 0, result.stderr
    peak_mib = int(result.stdout.split()[-1]) / 1024
    assert peak_mib < 131, f"peak RSS {peak_mib:.0f} MiB"
    (row,) = read_rows(out)
    assert (row["analytic_value"], row["greedy_value"]) == (value, value)


def test_negative_sweep_point_runs_no_v_solve(runner, tmp_path):
    # The negative point's simulate needs no exact value, so C(30, 15) sensing
    # sets over the cap do not stop the sweep.
    out = tmp_path / "sweep"
    result = runner.invoke(main, ["sweep", str(PROBES / "sweep_negative_wide.yaml"),
                                  "--out-dir", str(out), "--max-memo", "100000"])
    assert result.exit_code == 0, result.output
    rows = read_rows(out)
    assert [(r["grid.model.p11"], r["regime"]) for r in rows] == [
        ("0.90000000000000002", "positive"), ("0.29999999999999999", "negative")
    ]


# Fuzzing: random mappings and grids over known and junk keys.  Integers stay
# small and --max-memo is 5 or 500, so no example does real work; a verify
# section always carries a count for the same reason (the default is 100
# instances).  n is sometimes 64..70, wider than an int64 bit pattern: at the
# cap of 500 a k = 1 example lists its sensing sets.
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
    "n": _ints | st.integers(64, 70),
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


# p01 = 0, p11 = 1 with a stationary belief takes the documented fallback.
@pytest.mark.filterwarnings("ignore:stationary belief undefined:UserWarning")
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    data=st.data(), command=st.sampled_from(["run", "sweep"]), cap=st.sampled_from(["5", "500"])
)
def test_fuzzed_configs_end_in_a_documented_exit_code(data, command, cap):
    cfg = data.draw(_configs(with_grid=command == "sweep"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(cfg))
        args = [command, str(path), "--out-dir", str(Path(tmp) / "out"), "--max-memo", cap]
        result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 2, 3, 4), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
