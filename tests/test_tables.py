"""``dp._TABLES``, the one store of what the process keeps between calls, only caches.

A fixed sequence of calls gives the same bytes whether each call reads the
entries the calls before it left or starts from empty tables; a repeated
call reads the held entry, and after ``clear()`` each kind is built again,
to equal bytes.
"""

from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from oppaccess import dp, sim
from oppaccess.cli import main
from oppaccess.dp import FiniteHorizonSolver, ResourceLimitError, w_table
from oppaccess.model import BeliefVector, HorizonSpec, TransitionModel
from oppaccess.policies import GreedyPolicy, UniformRandomPolicy
from oppaccess.sim import SimConfig, common_random_numbers_compare, simulate

MODEL, HORIZON, N, K = TransitionModel(0.3, 0.8), HorizonSpec(4, 0.9), 5, 2
OMEGA = (0.1, 0.35, 0.5, 0.7, 0.9)
VECTORS = [OMEGA, (0.9, 0.7, 0.5, 0.35, 0.1), (0.2, 0.2, 0.6, 0.6, 0.3)]


def sim_config(traces=False, seed=11):
    return SimConfig(MODEL, HORIZON, N, K, BeliefVector(OMEGA), 200, seed, traces)


def hexes(values):
    return [float(v).hex() for v in np.ravel(values)]


def v_solve():
    solver = FiniteHorizonSolver(MODEL, HORIZON, K)
    q = solver.action_value_table([OMEGA], 1)
    audit = solver.greedy_audit(BeliefVector(OMEGA), 1)
    w = solver.greedy_value(BeliefVector(OMEGA), 1)
    audit_row = (audit.value.hex(), audit.regret.hex(), audit.t, hexes(audit.omega), w.hex())
    return hexes(q), audit_row, solver.cache_stats()


def w_table_over_cap():
    # The (5, 2, 3) graph has more than 5 nodes: refused whether it is
    # built, held, or held as a stopped build.
    with pytest.raises(ResourceLimitError, match="exceeded cap 5"):
        w_table(MODEL, HORIZON, K, VECTORS, max_states=5)
    return "refused"


def w_table_under_cap():
    return hexes(w_table(MODEL, HORIZON, K, VECTORS))


def traced_simulate():
    traces = simulate(sim_config(traces=True), UniformRandomPolicy(N, K)).traces
    columns = (traces.states, traces.actions, traces.observations, traces.rewards)
    return [c.tobytes() for c in columns]


def crn_compare():
    # Another seed than traced_simulate's: each of the two misses the paths
    # the other left.
    paired = common_random_numbers_compare(
        sim_config(seed=12), GreedyPolicy(K), UniformRandomPolicy(N, K)
    )
    means = (paired.mean_a, paired.mean_b, paired.mean_diff, paired.se_diff)
    return hexes(means), paired.diffs.tobytes()


def make_verify_run(tmp_path):
    # Each call writes into a directory of its own; meta.json holds wall time.
    runs = iter(range(1_000))

    def verify_run():
        out = tmp_path / f"verify{next(runs)}"
        cfg = tmp_path / "verify.yaml"
        cfg.write_text("kind: verify\nseed: 5\nverify: {count: 8, n_max: 5, T_max: 4}\n")
        result = CliRunner().invoke(main, ["run", str(cfg), "--out-dir", str(out)])
        assert result.exit_code == 0, result.output
        return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "meta.json"}

    return verify_run


def test_outputs_do_not_depend_on_what_the_tables_hold(tmp_path):
    calls = [
        w_table_over_cap, w_table_over_cap, v_solve, w_table_under_cap,
        traced_simulate, crn_compare, make_verify_run(tmp_path),
    ]
    warm = [call() for call in calls]
    assert {key[0] for key in dp._TABLES} == {"sets", "W", "paths"}
    warm_again = [call() for call in calls]
    cold = []
    for call in calls:
        dp._TABLES.clear()
        cold.append(call())
    for name, a, b, c in zip([c.__name__ for c in calls], warm, warm_again, cold):
        assert a == b == c, name
    assert set(warm[-1]) == {"results.csv", "violations.json", "negative_scan.json"}


def test_a_repeated_call_reads_the_held_entry_and_clear_builds_it_again(monkeypatch):
    calls = Counter()
    for module, name in [(dp, "_build_w_graph"), (sim, "_nature_uniforms")]:
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real, name=name: calls.update([name]) or real(*args)
        )

    def entries():
        return (
            dp._selection_arrays(N, K),
            dp._w_graph(N, K, HORIZON.T - 1, dp.DEFAULT_MAX_STATES),
            sim._hidden_paths(sim_config()),
        )

    def contents(sets, graph, paths):
        return (
            [a.tobytes() for a in sets],
            graph.sensed.tobytes(), graph.starts, [c.tobytes() for c in graph.children],
            graph.nodes,
            paths.tobytes(),
        )

    first = entries()
    again = entries()
    assert all(a is b for a, b in zip(first, again))
    sets, graph, paths = first
    assert dp._TABLES[("sets", N, K)] is sets
    assert dp._TABLES[("W", N, K, HORIZON.T - 1)] is graph
    key, held = dp._TABLES[("paths",)]
    assert key == sim._path_key(sim_config()) and held is paths
    assert calls == Counter({"_build_w_graph": 1, "_nature_uniforms": 1})
    dp._TABLES.clear()
    rebuilt = entries()
    assert not any(a is b for a, b in zip(first, rebuilt))
    assert contents(*rebuilt) == contents(*first)
    assert calls == Counter({"_build_w_graph": 2, "_nature_uniforms": 2})
