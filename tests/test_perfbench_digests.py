"""Every benchmark input's outputs, byte for byte, as ``perfbench/digests.json``
records them.

Each workload's whole universe of inputs runs through ``rankfair.cli.main``
as the benchmark runs it, and every op must pass the workload's output
checks and match its recorded SHA-256.  A change that moves any output the
benchmark can produce fails here, not only in a benchmark run.
"""

import os
import sys

import pytest

import rankfair.cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
from workloads import UNIVERSE, WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_universe_input_matches_its_recorded_digest(tmp_path, monkeypatch, name):
    workload = WORKLOADS[name]
    digests = run.load_digests(name)
    assert len(digests) == UNIVERSE
    monkeypatch.chdir(tmp_path)
    failures = {}
    for index in range(UNIVERSE):
        generated = workload.generate(index)
        workload.write(str(tmp_path), index, generated)
        calls = workload.calls(index, generated)
        run.execute(rankfair.cli, calls)
        problems = run.judge(workload, index, generated, calls, digests)
        if problems:
            failures[index] = problems
    assert failures == {}
