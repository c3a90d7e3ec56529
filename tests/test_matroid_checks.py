"""Pareto optimality and maximin shares by matroid intersection, against the scan.

For the matroid rank families, ``check_po_bruteforce`` compares the
allocation's welfare with one intersection optimum and walks placements
only to name a Pareto witness; ``mms_share`` floor-divides by n the
optimum of the instance in which every agent values by the one agent's
valuation.  The scans they replace, ``fairness._first_dominating`` and
``fairness._mms_scan``, are called here directly as the reference.
"""

import random

import pytest

from rankfair import fairness, oracle
from rankfair.core import Allocation, Instance
from rankfair.fairness import (_first_dominating, _mms_scan, check_mms,
                               check_po_bruteforce, mms_share)
from rankfair.matroid_intersection import max_common_independent_set
from rankfair.valuations import BinaryAssignmentValuation, TruncatedValuation

from randgen import random_allocation, random_matroid_instance

# The largest m drawn for n agents: (n + 1)^m stays at most 7^6 = 117,649
# placements, so the reference scans of 300 instances fit in about a second.
MAX_M = {1: 8, 2: 8, 3: 7, 4: 6, 5: 6, 6: 6}


def _instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 6)
        yield rng, random_matroid_instance(rng, n=n, m=rng.randint(0, MAX_M[n]))


def _values(instance, allocation):
    return tuple(instance.value(a, allocation.bundle(a)) for a in instance.agents)


def test_shares_and_pareto_verdicts_match_the_scan(monkeypatch):
    scans = []  # check_po_bruteforce walks only to name a witness
    monkeypatch.setattr(fairness, "_first_dominating",
                        lambda *args: scans.append(args) or _first_dominating(*args))
    seen = {"dominated": 0, "undominated random": 0, "share above v(M) // n": 0,
            "share at its bound": 0, "positive share": 0}
    for rng, inst in _instances(300, 1919):
        for agent in inst.agents:
            share = mms_share(inst, agent)
            expected = _mms_scan(inst, inst.valuation(agent))
            assert repr(share) == repr(expected), (inst, agent)
            full = inst.value(agent, frozenset(inst.items))
            seen["positive share"] += share > 0
            seen["share above v(M) // n"] += share > full // inst.n
            seen["share at its bound"] += 0 < share == min(inst.m // inst.n, full)

        allocations = [max_common_independent_set(inst)]
        allocations += [random_allocation(rng, inst) for _ in range(3)]
        for k, allocation in enumerate(allocations):
            witness = _first_dominating(inst, _values(inst, allocation))
            assert witness is None or k > 0   # an intersection optimum is undominated
            scans.clear()
            assert check_po_bruteforce(inst, allocation) == (witness is None, witness)
            assert len(scans) == (witness is not None)
            if k:
                seen["dominated" if witness else "undominated random"] += 1
    assert seen["dominated"] >= 300 and seen["undominated random"] >= 100, seen
    assert min(seen.values()) >= 30, seen


def test_each_verdict_and_share_runs_one_intersection(monkeypatch):
    runs = []
    monkeypatch.setattr(fairness, "max_common_independent_set",
                        lambda inst: runs.append(inst) or max_common_independent_set(inst))
    for rng, inst in _instances(60, 5151):
        for allocation in (random_allocation(rng, inst), max_common_independent_set(inst)):
            runs.clear()
            check_po_bruteforce(inst, allocation)
            assert runs == [inst]
        for agent in inst.agents:
            runs.clear()
            mms_share(inst, agent)
            assert len(runs) == 1
            assert all(runs[0].valuation(a) is inst.valuation(agent) for a in inst.agents)


def test_share_may_exceed_the_full_value_over_n():
    # four items of a rank-3 transversal matroid: v(M) // 4 = 0, yet each of
    # four parts can hold one item worth 1
    items = ("o1", "o2", "o3", "o4")
    agents = ("g1", "g2", "g3", "g4")
    rank3 = BinaryAssignmentValuation({"c%d" % k: set(items) for k in range(3)})
    inst = Instance(agents=agents, items=items,
                    valuations={a: TruncatedValuation(rank3, 3) for a in agents})
    assert inst.value("g1", frozenset(items)) == 3
    assert mms_share(inst, "g1") == _mms_scan(inst, inst.valuation("g1")) == 1


def _forbid(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("enumeration reached on a matroid-rank instance")
    monkeypatch.setattr(oracle, "subset_tables", refuse)
    monkeypatch.setattr(oracle, "_Walk", refuse)
    monkeypatch.setattr(fairness, "_Walk", refuse)


def test_matroid_instances_decide_without_enumerating(monkeypatch):
    rng = random.Random(2323)
    inst = random_matroid_instance(rng, n=3, m=7)
    optimum = max_common_independent_set(inst)
    dominated = Allocation.from_bundles(inst, {})
    shares = {agent: _mms_scan(inst, inst.valuation(agent)) for agent in inst.agents}
    witness = _first_dominating(inst, _values(inst, dominated))
    assert witness is not None and max(shares.values()) > 0

    with monkeypatch.context() as patch:
        _forbid(patch)
        assert check_po_bruteforce(inst, optimum) == (True, None)
        entries = check_mms(inst, optimum)
        assert {agent: entry.share for agent, entry in entries.items()} == shares
        with pytest.raises(AssertionError, match="enumeration reached"):
            check_po_bruteforce(inst, dominated)   # naming the witness walks
    assert check_po_bruteforce(inst, dominated) == (False, witness)
