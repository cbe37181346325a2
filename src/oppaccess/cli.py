"""Experiment front end: YAML configs in, CSV tables and JSON sidecars out.

Experiment kinds:

* ``solve``    -- the exact optimal value and greedy's exact value for one instance.
* ``simulate`` -- Monte Carlo estimate of one or more policies.
* ``compare``  -- common-random-numbers comparison of two policies.
* ``verify``   -- run the verification suites; nonzero exit on violations.

``sweep`` repeats any of the above over a parameter grid.  Exit codes:
0 success, 2 config error, 3 verification violations, 4 resource cap hit.

Every config is parsed once, by ``load_config``, into a checked record
before any work runs; ``sweep`` parses every grid point before it runs any.

All numeric CSV fields are written with 17 significant digits, so artifacts
are byte-identical across reruns with the same config and seed and values
round-trip exactly through double precision.
"""

from __future__ import annotations

import copy
import csv
import functools
import itertools
import json
import sys
import time
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, List, Optional, Sequence, Tuple, Union

import click
import yaml

from . import __version__
from .model import ActionSet, BeliefVector, HorizonSpec, TransitionModel, _as_int, _as_prob
from .dp import (
    _INT64_MAX,
    DEFAULT_MAX_STATES,
    FiniteHorizonSolver,
    ResourceLimitError,
    selection_count,
)
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

RESULT_SCHEMA_VERSION = 2


class ConfigError(Exception):
    pass


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


_CHECKS = {
    "theorem1": check_theorem1,
    "lemma3A": check_lemma3_A,
    "lemma3B": check_lemma3_B,
    "lemma2": check_lemma2_reduction,
    "affinity": check_affinity,
}
_PROPERTIES = [*_CHECKS, "negative-scan"]


def _random_policy(c: SimConfig, max_states: int) -> UniformRandomPolicy:
    # The policy keeps a table of all C(n, k) sensing sets.
    selection_count(c.n, c.k, max_states)
    return UniformRandomPolicy(c.n, c.k)


_POLICIES = {
    "greedy": lambda c, max_states: GreedyPolicy(c.k),
    "optimal": lambda c, max_states: OptimalPolicy(c.model, c.horizon, c.k, max_states),
    "ordered-list": lambda c, max_states: OrderedListPolicy(c.k),
    "round-robin": lambda c, max_states: RoundRobinPolicy(c.n, c.k),
    "random": _random_policy,
}

# Allowed keys of each mapping, with their defaults; _REQUIRED keys have none.
_REQUIRED = object()
_INSTANCE_KEYS = {
    "kind": _REQUIRED, "seed": 0, "model": _REQUIRED, "horizon": _REQUIRED,
    "n": _REQUIRED, "k": _REQUIRED, "initial_belief": "stationary",
}
_KEYS = {
    "solve": _INSTANCE_KEYS,
    "simulate": {**_INSTANCE_KEYS, "policy": "greedy", "policies": None, "replications": 1000},
    "compare": {**_INSTANCE_KEYS, "policies": _REQUIRED, "replications": 1000},
    "verify": {"kind": _REQUIRED, "seed": 0, "verify": {}},
}
_MODEL_KEYS = {"p01": _REQUIRED, "p11": _REQUIRED}
_HORIZON_KEYS = {"T": _REQUIRED, "beta": 1.0}
_POLICY_KEYS = {"name": _REQUIRED, "indices": None}
_VERIFY_KEYS = {
    "properties": _PROPERTIES, "count": 100, "regime": "positive", "n_max": 5, "T_max": 5,
}
# sim keys its Philox streams by the seed modulo 2**64.  Every other integer
# lies in int64, where numpy sizes arrays and draws integers.
_SEED_MAX = 2**64 - 1


@dataclass(frozen=True)
class _Experiment:
    """One parsed and checked config; the runners read nothing else."""

    mapping: dict  # the config as written, echoed into meta.json
    kind: str
    seed: int
    # solve, simulate, compare: the instance (solve ignores replications)
    instance: Optional[SimConfig] = None
    # simulate, compare: a policy name, or a fixed policy's channels
    policies: Tuple[Union[str, ActionSet], ...] = ()
    # verify
    properties: Tuple[str, ...] = ()
    count: int = 0
    sampler: Optional[InstanceSampler] = None


def _fields(value: Any, table: dict, where: str) -> dict:
    """`value` checked as a mapping over the keys of `table`, defaults filled in."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping, got {type(value).__name__}")
    unknown = [key for key in value if key not in table]
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    missing = [key for key, default in table.items() if default is _REQUIRED and key not in value]
    if missing:
        raise ConfigError(f"missing keys in {where}: {missing}")
    return {key: value.get(key, default) for key, default in table.items()}


def load_config(cfg: dict, seed: Optional[int] = None) -> _Experiment:
    """Parse and check one config mapping; `seed`, when given, overrides its seed.

    Every check runs here, before any work: a malformed or out-of-range value
    raises ConfigError.  Numbers are read by ``model``'s readers under their
    dotted config names, and their ValueErrors, like the library
    constructors', are re-raised as ConfigError.
    """
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _KEYS:
        raise ConfigError(f"unknown experiment kind {kind!r}; expected one of {list(_KEYS)}")
    values = _fields(cfg, _KEYS[kind], "config")
    try:
        seed = _as_int(values["seed"] if seed is None else seed, "seed", 0, _SEED_MAX)
        if kind == "verify":
            return _Experiment(cfg, kind, seed, **_verify_fields(values["verify"], seed))
        instance = _instance(values, seed)
        return _Experiment(cfg, kind, seed, instance, _policy_specs(cfg, values, instance))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _instance(values: dict, seed: int) -> SimConfig:
    section = _fields(values["model"], _MODEL_KEYS, "model")
    model = TransitionModel(*(_as_prob(section[p], f"model.{p}") for p in ("p01", "p11")))
    section = _fields(values["horizon"], _HORIZON_KEYS, "horizon")
    T = _as_int(section["T"], "horizon.T", 1, _INT64_MAX)
    horizon = HorizonSpec(T, _as_prob(section["beta"], "horizon.beta", 0.0))
    n = _as_int(values["n"], "n", 1, _INT64_MAX)
    k = _as_int(values["k"], "k", 1, n)
    raw = values["initial_belief"]
    if raw == "stationary":
        try:
            star = model.stationary_belief()
        except ValueError:
            warnings.warn("stationary belief undefined for p11=1, p01=0; using 0.5")
            star = 0.5
        omega = (star,) * n
    elif isinstance(raw, list):
        omega = tuple(_as_prob(w, "initial_belief entry") for w in raw)
    else:
        raise ConfigError("initial_belief must be a list of probabilities or 'stationary'")
    replications = _as_int(values.get("replications", 1), "replications", 1, _INT64_MAX)
    return SimConfig(model, horizon, n, k, BeliefVector(omega), replications, seed)


def _policy_specs(cfg: dict, values: dict, instance: SimConfig) -> tuple:
    if values["kind"] == "solve":
        return ()
    if "policy" in cfg and "policies" in cfg:
        raise ConfigError("give either 'policy' or 'policies', not both")
    specs = cfg.get("policies", [values.get("policy")])
    compare = values["kind"] == "compare"
    if not isinstance(specs, list) or not specs or (compare and len(specs) != 2):
        size = "exactly two" if compare else "one or more"
        raise ConfigError(f"{values['kind']} needs a 'policies' list with {size} entries")
    specs = tuple(_policy_spec(spec, instance) for spec in specs)
    if not compare:  # compare may pit a policy against itself
        _check_unrepeated(specs, "policies")
    return specs


def _check_unrepeated(entries: Sequence, where: str) -> None:
    """Raise ConfigError naming the first entry that repeats an earlier one."""
    for i, entry in enumerate(entries):
        if entry in entries[:i]:
            raise ConfigError(f"{where} lists {entry!r} more than once")


def _policy_spec(spec: Any, instance: SimConfig) -> Union[str, ActionSet]:
    spec = {"name": spec} if isinstance(spec, str) else spec
    name = _fields(spec, _POLICY_KEYS, "policy")["name"]
    if name == "fixed":
        indices = spec.get("indices")
        if not isinstance(indices, list):
            raise ConfigError("fixed policy needs an 'indices' list")
        action = ActionSet(tuple(_as_int(i, "fixed policy index", 1, _INT64_MAX) for i in indices))
        action.validate_for(instance.n, instance.k)
        return action
    if not isinstance(name, str) or name not in _POLICIES:
        raise ConfigError(f"unknown policy {name!r}")
    if "indices" in spec:
        raise ConfigError(f"'indices' applies only to the fixed policy, not {name!r}")
    return name


def _verify_fields(section: Any, seed: int) -> dict:
    values = _fields(section, _VERIFY_KEYS, "verify")
    props = values["properties"]
    if not isinstance(props, list) or any(prop not in _PROPERTIES for prop in props):
        raise ConfigError(f"verify.properties must be a list drawn from {_PROPERTIES}, got {props!r}")
    _check_unrepeated(props, "verify.properties")
    if values["regime"] == "negative" and "theorem1" in props:
        raise ConfigError("theorem1 holds only for p11 >= p01; it cannot run with regime 'negative'")
    n_max = _as_int(values["n_max"], "verify.n_max", 2, _INT64_MAX)
    t_max = _as_int(values["T_max"], "verify.T_max", 1, _INT64_MAX)
    return {
        "properties": tuple(props),
        "count": _as_int(values["count"], "verify.count", 0, _INT64_MAX),
        "sampler": InstanceSampler(seed, values["regime"], (2, n_max), (1, t_max)),
    }


def _build_policy(spec: Union[str, ActionSet], instance: SimConfig, max_states: int) -> Policy:
    if isinstance(spec, ActionSet):
        return FixedSetPolicy(spec.indices)
    return _POLICIES[spec](instance, max_states)


def _run_solve(exp: _Experiment, max_states: int) -> List[dict]:
    c = exp.instance
    solver = FiniteHorizonSolver(c.model, c.horizon, c.k, max_states)
    t0 = time.perf_counter()
    result = solver.optimal_value(c.initial_belief, 1)
    gv = solver.greedy_audit(c.initial_belief, 1).value
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


def _run_simulate(exp: _Experiment, max_states: int, out_dir: Path, traces: bool) -> List[dict]:
    sim_cfg = replace(exp.instance, record_traces=traces)
    rows = []
    for spec in exp.policies:
        policy = _build_policy(spec, sim_cfg, max_states)
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


def _run_compare(exp: _Experiment, max_states: int) -> List[dict]:
    pa, pb = (_build_policy(spec, exp.instance, max_states) for spec in exp.policies)
    t0 = time.perf_counter()
    paired = common_random_numbers_compare(exp.instance, pa, pb)
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


def _run_verify(exp: _Experiment, max_states: int, out_dir: Path) -> tuple:
    """Returns (rows, total violations)."""
    n_max = exp.sampler.n_range[1]
    if n_max > max_states:
        # Each instance draws up to n_max belief entries, before any cap is read.
        raise ResourceLimitError(f"verify.n_max = {n_max} exceeds cap {max_states}")
    results = {}
    rows = []
    n_violations = 0
    all_viols = []
    for prop in exp.properties:
        if prop == "negative-scan":
            sampler = replace(exp.sampler, regime="negative")
            report = scan_negative_regime(sampler, exp.count, max_states)
            (out_dir / "negative_scan.json").write_text(
                json.dumps(report.to_dict(), sort_keys=True, indent=2)
            )
            found, errors = len(report.findings), len(report.errors)
        else:
            viols = _CHECKS[prop](exp.sampler, exp.count, max_states)
            found = sum(v.error is None for v in viols)
            errors = len(viols) - found
            results[prop] = viols
            all_viols.extend(viols)
            n_violations += found
        rows.append(
            {
                "instance": prop,
                "policy": "greedy",
                "violations": found,
                "errors": errors,
                "count": exp.count,
            }
        )
    (out_dir / "violations.json").write_text(violations_to_json(all_viols) + "\n")
    if results:
        click.echo(summary_table(results))
    return rows, n_violations


def _write_csv(path: Path, rows: List[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    # Wall-clock times go to meta.json alone, so results.csv reruns byte for byte.
    fields = [field for field in rows[0] if field != "runtime_s"]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in fields])


def _write_sidecar(path: Path, cfg: dict, seed: int, wall: float, rows: List[dict]) -> None:
    sidecar = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "library_version": __version__,
        "config": cfg,
        "seed": seed,
        "wall_time_s": wall,
        "runtime_s": [row["runtime_s"] for row in rows if "runtime_s" in row],
    }
    path.write_text(json.dumps(sidecar, sort_keys=True, indent=2, default=str) + "\n")


def _execute(exp: _Experiment, max_states: int, out_dir: Path, traces: bool) -> tuple:
    """Run one experiment and write its artifacts; returns (exit status, result rows)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    status = EXIT_OK
    if exp.kind == "solve":
        rows = _run_solve(exp, max_states)
    elif exp.kind == "simulate":
        rows = _run_simulate(exp, max_states, out_dir, traces)
    elif exp.kind == "compare":
        rows = _run_compare(exp, max_states)
    else:
        rows, n_violations = _run_verify(exp, max_states, out_dir)
        if n_violations:
            status = EXIT_VIOLATIONS
    _write_csv(out_dir / "results.csv", rows)
    _write_sidecar(out_dir / "meta.json", exp.mapping, exp.seed, time.perf_counter() - t0, rows)
    return status, rows


def _read_mapping(path: str) -> dict:
    try:
        with open(path) as f:
            cfg = yaml.safe_load(f)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a mapping, got {type(cfg).__name__}")
    return cfg


def _grid_points(grid: dict) -> List[dict]:
    """Every combination of axis values; each axis must be a nonempty list."""
    for key, values in grid.items():
        if not isinstance(key, str):
            raise ConfigError(f"grid axis {key!r} must be a dotted config path")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid axis {key!r} must be a nonempty list, got {values!r}")
    keys = sorted(grid)
    return [dict(zip(keys, values)) for values in itertools.product(*(grid[k] for k in keys))]


def _point_config(base: dict, overrides: dict) -> dict:
    cfg = copy.deepcopy(base)
    for dotted, value in overrides.items():
        parts = dotted.split(".")
        node = cfg
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ConfigError(f"grid axis {dotted!r} does not address a mapping")
        node[parts[-1]] = value
    return cfg


@click.group()
def main() -> None:
    """Finite-horizon opportunistic channel access experiments."""


def _command(body):
    """Register `body` as a subcommand taking CONFIG and the common options.

    `body` returns the exit status; a config error exits 2, and a resource cap
    or a failed allocation exits 4, each with its message on stderr.
    """

    @functools.wraps(body)
    def callback(**kwargs):
        try:
            status = body(**kwargs)
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            status = EXIT_CONFIG
        except ResourceLimitError as exc:
            click.echo(f"resource cap: {exc}", err=True)
            status = EXIT_RESOURCE
        except MemoryError as exc:
            click.echo(f"resource cap: out of memory: {exc}", err=True)
            status = EXIT_RESOURCE
        sys.exit(status)

    callback = click.option("--seed", type=int, default=None,
                            help="Override the config seed.")(callback)
    callback = click.option("--out-dir", type=click.Path(), default="results",
                            show_default=True)(callback)
    callback = click.option("--max-memo", type=click.IntRange(min=1),
                            default=DEFAULT_MAX_STATES, show_default=True,
                            help="Cap on the node count of each DP state graph: "
                                 "a solver's V graph and each W graph, capped "
                                 "separately.  It also caps C(n, k), the number "
                                 "of sensing sets that the optimal and random "
                                 "policies, V solves and the lemma2 check list, "
                                 "and a verify run's verify.n_max.")(callback)
    callback = click.option("--traces/--no-traces", default=False,
                            help="Export per-step simulation traces (JSONL).")(callback)
    callback = click.argument("config", type=click.Path())(callback)
    return main.command()(callback)


@_command
def run(config, seed, out_dir, max_memo, traces):
    """Execute the experiment described by CONFIG."""
    return _execute(load_config(_read_mapping(config), seed), max_memo, Path(out_dir), traces)[0]


@_command
def sweep(config, seed, out_dir, max_memo, traces):
    """Repeat the experiment over the config's parameter grid."""
    cfg = _read_mapping(config)
    grid = cfg.get("grid")
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("sweep config needs a nonempty 'grid' mapping")
    base = {key: value for key, value in cfg.items() if key != "grid"}
    # Every point is parsed before any directory is made or any point runs.
    points = [
        (overrides, load_config(_point_config(base, overrides), seed))
        for overrides in _grid_points(grid)
    ]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    all_rows: List[dict] = []
    status = EXIT_OK
    t0 = time.perf_counter()
    for point_id, (overrides, exp) in enumerate(points):
        point_status, point_rows = _execute(exp, max_memo, out / f"point_{point_id:04d}", traces)
        status = max(status, point_status)
        annotations = {}
        if exp.instance is not None:
            positive = exp.instance.model.positively_correlated
            annotations["regime"] = "positive" if positive else "negative"
        for row in point_rows:
            row["grid_point"] = point_id
            for dotted, value in overrides.items():
                row[f"grid.{dotted}"] = value
            row.update(annotations)
            all_rows.append(row)
    fields = sorted({k for r in all_rows for k in r})
    normalized = [{f: r.get(f, "") for f in fields} for r in all_rows]
    _write_csv(out / "results.csv", normalized)
    _write_sidecar(out / "meta.json", cfg, points[0][1].seed, time.perf_counter() - t0, all_rows)
    return status


if __name__ == "__main__":
    main()
