"""Experiment front end: YAML configs in, CSV tables and JSON sidecars out.

Experiment kinds:

* ``solve``    -- exact DP and greedy values for one instance.
* ``simulate`` -- Monte Carlo estimate of one or more policies.
* ``compare``  -- common-random-numbers comparison of two policies.
* ``verify``   -- run the verification suites; nonzero exit on violations.

``sweep`` repeats any of the above over a parameter grid.  Exit codes:
0 success, 2 config error, 3 verification violations, 4 resource cap hit.

All numeric CSV fields are written with 17 significant digits, so artifacts
are byte-identical across reruns with the same config and seed and values
round-trip exactly through double precision.
"""

from __future__ import annotations

import csv
import itertools
import json
import sys
import time
import warnings
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import click
import yaml

from . import __version__
from .model import BeliefVector, HorizonSpec, TransitionModel
from .dp import FiniteHorizonSolver, ResourceLimitError
from .policies import (
    FixedSetPolicy,
    GreedyPolicy,
    OptimalPolicy,
    OrderedListPolicy,
    Policy,
    RoundRobinPolicy,
    UniformRandomPolicy,
)
from .sim import SimConfig, common_random_numbers_compare, simulate, write_traces
from .verify import (
    REGIMES,
    InstanceSampler,
    check_affinity,
    check_lemma2_reduction,
    check_lemma3_A,
    check_lemma3_B,
    check_theorem1,
    scan_negative_regime,
    summary_table,
    violations_to_json,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_VIOLATIONS = 3
EXIT_RESOURCE = 4

RESULT_SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _require_keys(section: dict, allowed: set, required: set, where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")


def _as_dict(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    return value


def load_config(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = yaml.safe_load(f)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    cfg = _as_dict(cfg, "config")
    allowed = {
        "kind", "model", "horizon", "n", "k", "initial_belief", "policy",
        "policies", "replications", "seed", "verify", "grid",
    }
    _require_keys(cfg, allowed, {"kind"}, "config")
    if cfg["kind"] not in ("solve", "simulate", "compare", "verify"):
        raise ConfigError(f"unknown experiment kind {cfg['kind']!r}")
    return cfg


def _parse_model(cfg: dict) -> TransitionModel:
    section = _as_dict(cfg.get("model"), "model")
    _require_keys(section, {"p01", "p11"}, {"p01", "p11"}, "model")
    try:
        return TransitionModel(float(section["p01"]), float(section["p11"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model: {exc}")


def _parse_horizon(cfg: dict) -> HorizonSpec:
    section = _as_dict(cfg.get("horizon"), "horizon")
    _require_keys(section, {"T", "beta"}, {"T"}, "horizon")
    try:
        return HorizonSpec(int(section["T"]), float(section.get("beta", 1.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad horizon: {exc}")


def _parse_belief(cfg: dict, n: int, model: TransitionModel) -> BeliefVector:
    raw = cfg.get("initial_belief", "stationary")
    if raw == "stationary":
        try:
            star = model.stationary_belief()
        except ValueError:
            warnings.warn(
                "stationary belief undefined for p11=1, p01=0; using 0.5"
            )
            star = 0.5
        return BeliefVector.initial((star,) * n)
    if isinstance(raw, list):
        if len(raw) != n:
            raise ConfigError(f"initial_belief has {len(raw)} entries, expected n={n}")
        try:
            return BeliefVector.initial(tuple(float(w) for w in raw))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad initial_belief: {exc}")
    raise ConfigError("initial_belief must be a list of probabilities or 'stationary'")


def _build_policy(
    spec: Any,
    n: int,
    k: int,
    model: TransitionModel,
    horizon: HorizonSpec,
    max_states: int,
) -> Policy:
    if isinstance(spec, str):
        name, params = spec, {}
    else:
        section = _as_dict(spec, "policy")
        _require_keys(section, {"name", "indices"}, {"name"}, "policy")
        name, params = section["name"], section
    if name == "greedy":
        return GreedyPolicy(k)
    if name == "optimal":
        return OptimalPolicy(model, horizon, k, max_states)
    if name == "ordered-list":
        return OrderedListPolicy(k)
    if name == "round-robin":
        return RoundRobinPolicy(n, k)
    if name == "random":
        return UniformRandomPolicy(n, k)
    if name == "fixed":
        if "indices" not in params:
            raise ConfigError("fixed policy needs an 'indices' list")
        try:
            policy = FixedSetPolicy([int(i) for i in params["indices"]])
            policy.action_set.validate_for(n, k)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad fixed policy indices: {exc}")
        return policy
    raise ConfigError(f"unknown policy {name!r}")


def _parse_nk(cfg: dict) -> tuple:
    try:
        n, k = int(cfg["n"]), int(cfg["k"])
    except (KeyError, TypeError, ValueError):
        raise ConfigError("config needs integer n and k")
    if not (1 <= k <= n):
        raise ConfigError(f"need 1 <= k <= n, got k={k}, n={n}")
    return n, k


def _run_solve(cfg: dict, seed: int, max_states: int) -> List[dict]:
    model, horizon = _parse_model(cfg), _parse_horizon(cfg)
    n, k = _parse_nk(cfg)
    belief = _parse_belief(cfg, n, model)
    solver = FiniteHorizonSolver(model, horizon, k, max_states)
    t0 = time.perf_counter()
    result = solver.optimal_value(belief, 1)
    gv = solver.greedy_value(belief, 1)
    runtime = time.perf_counter() - t0
    return [
        {
            "instance": 0,
            "policy": "optimal",
            "analytic_value": result.value,
            "greedy_value": gv,
            "greedy_gap": result.value - gv,
            "best_action": "+".join(map(str, result.best_actions[0].indices)),
            "runtime_s": runtime,
        }
    ]


def _sim_config(cfg: dict, seed: int, traces: bool) -> SimConfig:
    model, horizon = _parse_model(cfg), _parse_horizon(cfg)
    n, k = _parse_nk(cfg)
    belief = _parse_belief(cfg, n, model)
    try:
        reps = int(cfg.get("replications", 1000))
    except (TypeError, ValueError):
        raise ConfigError("replications must be an integer")
    try:
        return SimConfig(model, horizon, n, k, belief, reps, seed, traces)
    except ValueError as exc:
        raise ConfigError(str(exc))


def _run_simulate(cfg: dict, seed: int, max_states: int, out_dir: Path, traces: bool) -> List[dict]:
    sim_cfg = _sim_config(cfg, seed, traces)
    specs = cfg.get("policies", [cfg.get("policy", "greedy")])
    if not isinstance(specs, list):
        raise ConfigError("policies must be a list")
    rows = []
    for i, spec in enumerate(specs):
        policy = _build_policy(
            spec, sim_cfg.n, sim_cfg.k, sim_cfg.model, sim_cfg.horizon, max_states
        )
        t0 = time.perf_counter()
        summary = simulate(sim_cfg, policy)
        runtime = time.perf_counter() - t0
        rows.append(
            {
                "instance": 0,
                "policy": policy.name,
                "simulated_mean": summary.mean,
                "std_error": summary.std_error,
                "replications": summary.replications,
                "runtime_s": runtime,
            }
        )
        if traces and summary.traces is not None:
            write_traces(str(out_dir / f"traces_{policy.name}.jsonl"), summary.traces)
    return rows


def _run_compare(cfg: dict, seed: int, max_states: int) -> List[dict]:
    sim_cfg = _sim_config(cfg, seed, False)
    specs = cfg.get("policies")
    if not (isinstance(specs, list) and len(specs) == 2):
        raise ConfigError("compare needs a 'policies' list with exactly two entries")
    pa, pb = (
        _build_policy(s, sim_cfg.n, sim_cfg.k, sim_cfg.model, sim_cfg.horizon, max_states)
        for s in specs
    )
    t0 = time.perf_counter()
    paired = common_random_numbers_compare(sim_cfg, pa, pb)
    runtime = time.perf_counter() - t0
    return [
        {
            "instance": 0,
            "policy": f"{pa.name} vs {pb.name}",
            "mean_a": paired.mean_a,
            "mean_b": paired.mean_b,
            "mean_diff": paired.mean_diff,
            "se_diff": paired.se_diff,
            "replications": paired.replications,
            "runtime_s": runtime,
        }
    ]


_CHECKS = {
    "theorem1": check_theorem1,
    "lemma3A": check_lemma3_A,
    "lemma3B": check_lemma3_B,
    "lemma2": check_lemma2_reduction,
    "affinity": check_affinity,
}


def _verify_int(section: dict, name: str, default: int, minimum: int) -> int:
    value = section.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"verify.{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"verify.{name} must be >= {minimum}, got {value}")
    return value


def _run_verify(cfg: dict, seed: int, max_states: int, out_dir: Path) -> tuple:
    """Returns (rows, total violations, resource errors)."""
    section = _as_dict(cfg.get("verify", {}), "verify")
    allowed = {"properties", "count", "regime", "n_max", "T_max"}
    _require_keys(section, allowed, set(), "verify")
    props = section.get("properties", list(_CHECKS) + ["negative-scan"])
    if not isinstance(props, list):
        raise ConfigError("verify.properties must be a list")
    for prop in props:
        if prop != "negative-scan" and prop not in _CHECKS:
            raise ConfigError(f"unknown verify property {prop!r}")
    count = _verify_int(section, "count", 100, 0)
    n_max = _verify_int(section, "n_max", 5, 2)
    t_max = _verify_int(section, "T_max", 5, 1)
    regime = section.get("regime", "positive")
    if regime not in REGIMES:
        raise ConfigError(f"verify.regime must be one of {list(REGIMES)}, got {regime!r}")
    if regime == "negative" and "theorem1" in props:
        raise ConfigError("theorem1 holds only for p11 >= p01; it cannot run with regime 'negative'")
    results: Dict[str, list] = {}
    rows = []
    n_violations = 0
    n_errors = 0
    all_viols = []
    for prop in props:
        if prop == "negative-scan":
            samp = InstanceSampler(
                seed=seed, regime="negative", n_range=(2, n_max), T_range=(1, t_max)
            )
            report = scan_negative_regime(samp, count, max_states)
            (out_dir / "negative_scan.json").write_text(
                json.dumps(report.to_dict(), sort_keys=True, indent=2)
            )
            rows.append(
                {
                    "instance": prop,
                    "policy": "greedy",
                    "violations": len(report.findings),
                    "errors": len(report.errors),
                    "count": count,
                }
            )
            n_errors += len(report.errors)
            continue
        samp = InstanceSampler(
            seed=seed,
            regime=regime,
            n_range=(2, n_max),
            T_range=(1, t_max),
            sorted_beliefs=prop in ("lemma3A", "lemma3B", "lemma2"),
        )
        viols = _CHECKS[prop](samp, count, max_states)
        real = [v for v in viols if v.error is None]
        errs = [v for v in viols if v.error is not None]
        results[prop] = viols
        all_viols.extend(viols)
        n_violations += len(real)
        n_errors += len(errs)
        rows.append(
            {
                "instance": prop,
                "policy": "greedy",
                "violations": len(real),
                "errors": len(errs),
                "count": count,
            }
        )
    (out_dir / "violations.json").write_text(violations_to_json(all_viols) + "\n")
    if results:
        click.echo(summary_table(results))
    return rows, n_violations, n_errors


def _write_csv(path: Path, rows: List[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in fields])


def _write_sidecar(path: Path, cfg: dict, seed: int, wall: float) -> None:
    sidecar = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "library_version": __version__,
        "config": cfg,
        "seed": seed,
        "wall_time_s": wall,
    }
    path.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")


def _execute(cfg: dict, seed: int, max_states: int, out_dir: Path, traces: bool) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    status = EXIT_OK
    if cfg["kind"] == "solve":
        rows = _run_solve(cfg, seed, max_states)
    elif cfg["kind"] == "simulate":
        rows = _run_simulate(cfg, seed, max_states, out_dir, traces)
    elif cfg["kind"] == "compare":
        rows = _run_compare(cfg, seed, max_states)
    else:
        rows, n_violations, _ = _run_verify(cfg, seed, max_states, out_dir)
        if n_violations:
            status = EXIT_VIOLATIONS
    _write_csv(out_dir / "results.csv", rows)
    _write_sidecar(out_dir / "meta.json", cfg, seed, time.perf_counter() - t0)
    return status


def _grid_points(grid: dict) -> List[dict]:
    """Every combination of axis values; each axis must be a nonempty list."""
    keys = sorted(grid)
    for key in keys:
        if not isinstance(grid[key], list) or not grid[key]:
            raise ConfigError(f"grid axis {key!r} must be a nonempty list, got {grid[key]!r}")
    return [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]


def _apply_override(cfg: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"grid axis {dotted!r} does not address a mapping")
    node[parts[-1]] = value


@click.group()
def main() -> None:
    """Finite-horizon opportunistic channel access experiments."""


def _common_options(fn):
    fn = click.option("--seed", type=int, default=None, help="Override the config seed.")(fn)
    fn = click.option("--out-dir", type=click.Path(), default="results",
                      show_default=True)(fn)
    fn = click.option("--max-memo", type=int, default=10_000_000, show_default=True,
                      help="Cap on memoised DP states.")(fn)
    fn = click.option("--traces/--no-traces", default=False,
                      help="Export per-step simulation traces (JSONL).")(fn)
    return fn


def _resolve_seed(cfg: dict, seed: Optional[int]) -> int:
    if seed is not None:
        return seed
    raw = cfg.get("seed", 0)
    try:
        return int(raw)
    except (TypeError, ValueError):
        raise ConfigError("seed must be an integer")


@main.command()
@click.argument("config", type=click.Path())
@_common_options
def run(config, seed, out_dir, max_memo, traces):
    """Execute the experiment described by CONFIG."""
    try:
        cfg = load_config(config)
        the_seed = _resolve_seed(cfg, seed)
        status = _execute(cfg, the_seed, max_memo, Path(out_dir), traces)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except ResourceLimitError as exc:
        click.echo(f"resource cap: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    sys.exit(status)


@main.command()
@click.argument("config", type=click.Path())
@_common_options
def sweep(config, seed, out_dir, max_memo, traces):
    """Repeat the experiment over the config's parameter grid."""
    try:
        cfg = load_config(config)
        grid = _as_dict(cfg.get("grid"), "grid")
        if not grid:
            raise ConfigError("sweep config needs a nonempty 'grid' mapping")
        the_seed = _resolve_seed(cfg, seed)
        base = {k: v for k, v in cfg.items() if k != "grid"}
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        all_rows: List[dict] = []
        status = EXIT_OK
        t0 = time.perf_counter()
        for point_id, overrides in enumerate(_grid_points(grid)):
            point_cfg = json.loads(json.dumps(base))
            for dotted, value in overrides.items():
                _apply_override(point_cfg, dotted, value)
            point_dir = out / f"point_{point_id:04d}"
            rc = _execute(point_cfg, the_seed, max_memo, point_dir, traces)
            status = max(status, rc)
            with open(point_dir / "results.csv", newline="") as f:
                point_rows = list(csv.DictReader(f))
            model = _parse_model(point_cfg) if "model" in point_cfg else None
            annotations = {}
            if model is not None and point_rows:
                annotations["regime"] = (
                    "positive" if model.positively_correlated else "negative"
                )
                if not model.positively_correlated:
                    # A solve point has the gap already; its CSV text round-trips.
                    annotations["negative_scan_gap"] = (
                        point_rows[0]["greedy_gap"]
                        if point_cfg["kind"] == "solve"
                        else _point_negative_gap(point_cfg, the_seed, max_memo)
                    )
            for row in point_rows:
                row["grid_point"] = point_id
                for dotted, value in overrides.items():
                    row[f"grid.{dotted}"] = value
                row.update(annotations)
                all_rows.append(row)
        fields = sorted({k for r in all_rows for k in r})
        normalized = [{f: r.get(f, "") for f in fields} for r in all_rows]
        _write_csv(out / "results.csv", normalized)
        _write_sidecar(out / "meta.json", cfg, the_seed, time.perf_counter() - t0)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except ResourceLimitError as exc:
        click.echo(f"resource cap: {exc}", err=True)
        sys.exit(EXIT_RESOURCE)
    sys.exit(status)


def _point_negative_gap(cfg: dict, seed: int, max_states: int) -> float:
    """Greedy/optimal gap of the grid point's own instance (negative regime)."""
    model, horizon = _parse_model(cfg), _parse_horizon(cfg)
    n, k = _parse_nk(cfg)
    belief = _parse_belief(cfg, n, model)
    solver = FiniteHorizonSolver(model, horizon, k, max_states)
    return solver.optimal_value(belief, 1).value - solver.greedy_value(belief, 1)
