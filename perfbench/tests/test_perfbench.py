"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import OUTPUT, WORKLOADS  # noqa: E402


@pytest.fixture
def runner_for(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def make(name, seed=3):
        runner = run.Runner(WORKLOADS[name], seed, str(tmp_path / name), run.load_digests(name))
        runner.set_up()
        return runner
    return make


def _bindings():
    """Every attribute of the rankfair modules and traced classes, by identity."""
    seen = {}
    for module in tracing._rankfair_modules():
        for attr, value in vars(module).items():
            seen[(module.__name__, attr)] = value
    for modname, clsname, _ in tracing.VALUATION_METHODS:
        cls = getattr(sys.modules[modname], clsname)
        for attr, value in vars(cls).items():
            seen[(modname, clsname, attr)] = value
    return seen


def test_two_traced_runs_give_identical_counts():
    counts = []
    for _ in range(2):
        out = subprocess.run(
            [sys.executable, run.__file__, "--workload", "rank-usw-ef1", "--seed", "7",
             "--seconds", "0", "--trace", "1"],
            stdout=subprocess.PIPE, text=True, check=True, timeout=120).stdout
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        counts.append({key: metric["value"] for key, metric in metrics.items()
                       if metric["unit"] in ("count", "ratio") and key != "trace_overhead"})
    assert counts[0] == counts[1]
    assert counts[0]["matroid_intersection.circuit_queries"] > 0
    assert counts[0]["valuations.value_calls"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(name, runner_for):
    runner = runner_for(name)
    _, plain = runner.op(runner.order[0])
    with tracing.Tracer() as tracer:
        _, traced = runner.op(runner.order[0])
    assert tracer.spans
    assert [(c.stdout, c.files) for c in plain] == [(c.stdout, c.files) for c in traced]
    assert runner.failures == []


def test_moved_item_counts_as_failed_op(runner_for, monkeypatch):
    execute = run.execute

    def execute_and_corrupt(cli, calls):
        latency = execute(cli, calls)
        document = json.loads(calls[0].files[OUTPUT])
        bundles = document["bundles"]
        agents = sorted(bundles)
        giver = next(a for a in agents if bundles[a])
        taker = agents[(agents.index(giver) + 1) % len(agents)]
        bundles[taker].append(bundles[giver].pop(0))
        calls[0].files[OUTPUT] = (json.dumps(document, indent=2) + "\n").encode()
        return latency

    monkeypatch.setattr(run, "execute", execute_and_corrupt)
    runner = runner_for("rank-usw-ef1")
    ops = run.measure(runner, 0)
    assert runner.attempted == len(ops) == 1
    assert len(runner.failures) == 1
    assert "outputs differ from the recorded digest" in runner.failures[0]["problems"]


def test_traced_run_restores_every_binding(runner_for):
    runner = runner_for("desk-certify")
    before = _bindings()
    tracer = tracing.Tracer()
    with tracer:
        assert _bindings() != before
        runner.op(runner.order[0])
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert {span[0] for span in tracer.spans} >= {
        "cli", "matroid_intersection.path", "fairness.po", "oracle.scan", "valuations.verify"}


def test_missing_sources_are_refused(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    with pytest.raises(run.Unavailable):
        run.import_cli()


def test_tail_has_ten_samples_beyond_it():
    value, percentile = run.tail([float(k) for k in range(40)])
    assert value == 29.0 and percentile == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (1.0, 0.0)
