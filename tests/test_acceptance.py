"""Acceptance gate: twelve criteria, one test each.

Every test registers its verdict in CRITERIA so the terminal summary can
print one pass/fail line per criterion after the run.  Tests here re-derive
expectations from oracles and fixtures; constants are pinned exactly.
"""

import functools
import os
import random
import tempfile
import time
from fractions import Fraction

import pytest

import rankfair
from rankfair.balanced_flow import leximin_flow_allocation
from rankfair.bench import build_corpus, group_instances, load_ratings, \
    load_users, run_bench
from rankfair.cli import main
from rankfair.core import (Allocation, TransferabilityViolated, clean,
                           is_clean, is_complete, values_vector)
from rankfair.documents import dump_path, serialize_instance
from rankfair.eit import (eit_ef1, find_transferable_item,
                          envy_graph_baseline, potential_phi)
from rankfair.fairness import (check_mms, check_po_bruteforce, check_wprop1,
                               envy_report, min_eqc, mms_share)
from rankfair.matroid_intersection import max_common_independent_set
from rankfair.oracle import (enumerate_allocations, max_usw_value, nash_key,
                             oracle_optimal, verify_equivalences)
from rankfair.valuations import verify_matroid_rank

import fixtures
from randgen import (random_binary_additive_instance, random_matroid_instance,
                     random_oxs_instance, random_scaled_instance)


class _Registry:
    def __init__(self):
        self.results = {}


CRITERIA = _Registry()


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                CRITERIA.results[number] = (False, label)
                raise
            CRITERIA.results[number] = (True, label)
        return run
    return deco


def _data_path(name):
    return os.path.join(os.path.dirname(rankfair.__file__), "data", name)


def _usw(instance, allocation):
    return sum(values_vector(instance, allocation))


def _sorted_vector(instance, allocation):
    return tuple(sorted(values_vector(instance, allocation)))


@functools.lru_cache(maxsize=None)
def _matroid_sweep():
    rng = random.Random(6083)
    return tuple(random_matroid_instance(rng) for _ in range(200))


def _value_tables(instance):
    items = list(instance.items)
    tables = {}
    for agent in instance.agents:
        table = {}
        for mask in range(1 << len(items)):
            subset = frozenset(items[i] for i in range(len(items))
                               if mask >> i & 1)
            table[subset] = instance.value(agent, subset)
        tables[agent] = table
    return tables


def _pareto_frontier(instance, allocations, tables):
    """Split allocations into (pareto, dominated) by achievable vectors."""
    vectors = [tuple(tables[a][alloc.bundle(a)] for a in instance.agents)
               for alloc in allocations]
    distinct = set(vectors)
    pareto, dominated = [], []
    for alloc, vector in zip(allocations, vectors):
        if any(w != vector and all(x >= y for x, y in zip(w, vector))
               for w in distinct):
            dominated.append((alloc, vector))
        else:
            pareto.append((alloc, vector))
    return pareto, dominated


@criterion(1, "matching fixture: intersection, EIT, flow, oracle agree")
def test_criterion_01_matching_fixture():
    inst = fixtures.two_group_matching_instance()

    mci = max_common_independent_set(inst)
    assert _usw(inst, mci) == 6 == max_usw_value(inst)

    final, _log = eit_ef1(inst)
    assert _usw(inst, final) == 6
    assert envy_report(inst, final).ef1

    flow_alloc, _network = leximin_flow_allocation(inst)
    assert flow_alloc.bundle("g1") == frozenset({"o1", "o2", "o3"})
    assert flow_alloc.bundle("g2") == frozenset({"o4", "o5", "o6"})
    assert _sorted_vector(inst, flow_alloc) == (3, 3)

    for objective in ("leximin", "mnw", "min_convex"):
        result = oracle_optimal(inst, objective)
        assert tuple(sorted(result.optimal_vector)) == (3, 3)
        assert result.witness_count == len(result.witnesses) == 2
        achieved = {_sorted_vector(inst, w) for w in result.witnesses}
        assert achieved == {(3, 3)}


@criterion(2, "weighted table: unique USW optimum fails EF1")
def test_criterion_02_usw_unique_not_ef1():
    inst = fixtures.usw_not_ef1_instance()
    result = oracle_optimal(inst, "usw")
    assert result.optimal_value == Fraction(5, 4)
    assert result.witness_count == 1
    optimum = result.witnesses[0]
    assert optimum.bundle("alice") == frozenset({"item1"})
    assert optimum.bundle("bob") == frozenset({"item2", "item3"})
    assert not envy_report(inst, optimum).ef1


@criterion(3, "three-agent table: leximin 3.1 vs max 4.9, PO gap")
def test_criterion_03_leximin_below_max_usw():
    inst = fixtures.leximin_not_usw_instance()
    leximin = oracle_optimal(inst, "leximin")
    split = fixtures.leximin_not_usw_split(inst)
    assert _sorted_vector(inst, split) == tuple(sorted(leximin.optimal_vector))
    assert _usw(inst, split) == Fraction(31, 10)
    assert max_usw_value(inst) == Fraction(49, 10)
    po_ok, _ = check_po_bruteforce(inst, split)
    assert po_ok
    assert _usw(inst, split) < max_usw_value(inst)


@criterion(4, "four-item pair: EF1 and USW-optimal but not EFX0")
def test_criterion_04_ef1_not_efx0():
    inst = fixtures.ef1_not_efx0_instance()
    alloc = fixtures.ef1_not_efx0_allocation(inst)
    assert alloc.bundle("g1") == frozenset({"o1"})
    assert alloc.bundle("g2") == frozenset({"o2", "o3", "o4"})
    report = envy_report(inst, alloc)
    assert report.ef1
    assert _usw(inst, alloc) == max_usw_value(inst)
    assert not report.efx0
    assert report.pairs[("g1", "g2")].efx0_violator == "o4"


@criterion(5, "MMS fixture: share 3 unmet by pinned allocation")
def test_criterion_05_mms_shortfall():
    inst = fixtures.ef_not_mms_instance()
    assert mms_share(inst, "g2") == 3
    alloc = fixtures.ef_not_mms_allocation(inst)
    assert alloc.bundle("g2") == frozenset({"o4", "o6"})
    assert inst.value("g2", alloc.bundle("g2")) == 2
    entries = check_mms(inst, alloc)
    assert not entries["g2"].ok
    assert entries["g2"].share == 3 and entries["g2"].value == 2


@criterion(6, "200-instance equivalence sweep under 60 seconds")
def test_criterion_06_equivalence_sweep():
    start = time.monotonic()
    sweep = _matroid_sweep()
    assert len(sweep) >= 200
    failures = []
    for index, inst in enumerate(sweep):
        report = verify_equivalences(inst)
        if not report.ok:
            failures.append((index, [o.name for o in report.outcomes if not o.ok]))
    elapsed = time.monotonic() - start
    assert failures == []
    assert elapsed < 60, "sweep took %.1fs" % elapsed


@criterion(7, "EIT mechanics: potential drop, step bound, invariants")
def test_criterion_07_eit_mechanics():
    for inst in _matroid_sweep():
        best = max_usw_value(inst)
        m = len(inst.items)
        final, log = eit_ef1(inst)
        assert len(log) <= m * m / 2

        current = max_common_independent_set(inst)
        assert is_clean(inst, current)
        assert _usw(inst, current) == best
        for step in log.steps:
            assert step.phi_before == potential_phi(inst, current)
            assert step.phi_before - step.phi_after >= 2
            bundles = {a: set(b) for a, b in current.bundles.items()}
            bundles[step.source].discard(step.item)
            bundles[step.target].add(step.item)
            current = Allocation(bundles, current.withheld)
            assert step.phi_after == potential_phi(inst, current)
            assert is_clean(inst, current)
            assert _usw(inst, current) == best
        assert current.bundles == final.bundles

        report = envy_report(inst, final)
        assert report.ef1 and report.efx_plus


@criterion(8, "200-instance flow vs oracle leximin agreement")
def test_criterion_08_flow_matches_oracle():
    rng = random.Random(5417)
    for _ in range(200):
        inst = random_oxs_instance(rng)
        alloc, network = leximin_flow_allocation(inst)
        oracle = oracle_optimal(inst, "leximin")
        assert _sorted_vector(inst, alloc) == tuple(sorted(oracle.optimal_vector))
        flows = network.out_flows()
        for agent in inst.agents:
            assert flows[agent] == inst.value(agent, alloc.bundle(agent))


@criterion(9, "scaled instances: every clean MNW optimum is EF1")
def test_criterion_09_mnw_implies_ef1_under_scaling():
    inst = fixtures.scaled_pair_instance()
    leximin = fixtures.scaled_pair_leximin(inst)
    assert _sorted_vector(inst, leximin) == (3, 3)
    assert tuple(sorted(oracle_optimal(inst, "leximin").optimal_vector)) == (3, 3)
    assert not envy_report(inst, leximin).ef1
    nash = fixtures.scaled_pair_nash(inst)
    assert values_vector(inst, nash) == (2, 6)
    assert tuple(sorted(oracle_optimal(inst, "mnw").optimal_vector)) == (2, 6)
    assert envy_report(inst, nash).ef1

    rng = random.Random(90210)
    for _ in range(100):
        sample = random_scaled_instance(rng)
        tables = _value_tables(sample)
        best_key = None
        optima = []
        for alloc in enumerate_allocations(sample):
            vector = tuple(tables[a][alloc.bundle(a)] for a in sample.agents)
            key = nash_key(vector)
            if best_key is None or key > best_key:
                best_key, optima = key, [alloc]
            elif key == best_key:
                optima.append(alloc)
        for optimum in optima:
            if is_clean(sample, optimum):
                assert envy_report(sample, optimum).ef1
            cleaned = clean(sample, optimum)
            assert envy_report(sample, cleaned).ef1


@criterion(10, "implication sweeps: WPROP1, MEF1, EQ1-leximin, MMS")
def test_criterion_10_implication_sweeps():
    rng = random.Random(41)
    for _ in range(50):
        inst = random_matroid_instance(rng, m=rng.randint(3, 5))
        tables = _value_tables(inst)
        allocations = list(enumerate_allocations(inst))
        pareto, _ = _pareto_frontier(inst, allocations, tables)
        for alloc, _vector in pareto:
            if envy_report(inst, alloc).ef1:
                wprop_ok, _ = check_wprop1(inst, alloc)
                assert wprop_ok
                assert envy_report(inst, alloc).mef1

    rng = random.Random(42)
    for _ in range(50):
        inst = random_matroid_instance(rng, m=rng.randint(3, 5))
        tables = _value_tables(inst)
        allocations = list(enumerate_allocations(inst))
        pareto, _ = _pareto_frontier(inst, allocations, tables)
        target = tuple(sorted(oracle_optimal(inst, "leximin").optimal_vector))
        for alloc, vector in pareto:
            if min_eqc(inst, alloc) <= 1:
                assert tuple(sorted(vector)) == target

    rng = random.Random(43)
    for _ in range(50):
        inst = random_binary_additive_instance(rng)
        tables = _value_tables(inst)
        allocations = list(enumerate_allocations(inst))
        pareto, _ = _pareto_frontier(inst, allocations, tables)
        for alloc, _vector in pareto:
            if envy_report(inst, alloc).ef1:
                entries = check_mms(inst, alloc)
                assert all(entry.ok for entry in entries.values())


@criterion(11, "ratings bench: waste-free EIT, EF1 baseline, trap PO")
def test_criterion_11_bench_corpus():
    ratings, users = _data_path("ratings.dat"), _data_path("users.dat")
    assert main(["bench", "--ratings", ratings, "--users", users,
                 "--attribute", "gender", "--items", "8", "--runs", "3",
                 "--seed", "2026"]) == 0

    corpus = build_corpus(load_ratings(ratings), load_users(users))
    report = run_bench(corpus, "gender", items_per_run=8, runs=5, seed=2026)
    for run in report.run_results:
        for (algorithm, _model), outcome in run.outcomes.items():
            assert outcome.pof >= 1
            if algorithm == "eit-general":
                assert outcome.waste_count == 0 and not outcome.exhausted
        for inst in group_instances(corpus, "gender", run.items).values():
            baseline = envy_graph_baseline(inst)
            assert is_complete(inst, baseline)
            assert envy_report(inst, baseline).ef1

    trap = fixtures.baseline_trap_instance()
    trapped = envy_graph_baseline(trap)
    po_ok, witness = check_po_bruteforce(trap, trapped)
    assert not po_ok
    for agent in trap.agents:
        assert trap.value(agent, witness.bundle(agent)) \
            >= trap.value(agent, trapped.bundle(agent))


@criterion(12, "negative controls: rejection paths and diagnostics")
def test_criterion_12_negative_controls():
    inst = fixtures.nonsubmodular_pair_instance()
    items = frozenset(inst.items)
    report = verify_matroid_rank(inst.valuation("p1"), items)
    assert not report.ok and report.axiom == "submodularity"
    witness = report.witness
    assert witness["gain_without"] < witness["gain_with"]

    alloc = fixtures.nonsubmodular_pair_allocation(inst)
    with pytest.raises(TransferabilityViolated) as err:
        find_transferable_item(inst, alloc, "p1", "p2")
    assert "p1" in str(err.value) and "p2" in str(err.value)

    weighted = fixtures.usw_not_ef1_instance()
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "weighted.json")
        dump_path(serialize_instance(weighted), path)
        assert main(["solve", "--algorithm", "leximin-flow",
                     "--input", path]) == 2
