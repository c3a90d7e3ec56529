"""Differential tests of the oracle's block walk against a per-placement loop.

``_reference_scan`` is the walk the block walk replaced: one
``itertools.product`` pattern per placement, bundles rebuilt from the
pattern and valued through the instance.  Every exhaustive check must give
the same answers, witnesses and witness order on it.
"""

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import partial, reduce
from itertools import islice, product
from operator import add, itemgetter

import pytest

from rankfair import oracle
from rankfair.core import Allocation, Instance, is_clean
from rankfair.fairness import check_po_bruteforce, ef1_pair, mms_share
from rankfair.oracle import (OBJECTIVES, _digit_masks, _Walk, _objective_key,
                             _reported_optimum, _tables, enumerate_allocations,
                             leximin_key, max_usw_value, nash_key, oracle_optimal,
                             usw_optimal_all_clean_complete, verify_equivalences)
from rankfair.valuations import (AssignmentValuation, BinaryAdditiveValuation,
                                 BinaryAssignmentValuation, ScaledValuation)

import fixtures as fx
from randgen import random_matroid_instance, random_scaled_instance


def _reference_scan(instance, complete_only):
    """[(allocation, vector)] over every placement, in lex order."""
    n, items = instance.n, instance.items
    out = []
    for pattern in product(range(n if complete_only else n + 1), repeat=len(items)):
        allocation = Allocation.from_bundles(instance, {
            agent: frozenset(item for item, digit in zip(items, pattern) if digit == k)
            for k, agent in enumerate(instance.agents)})
        out.append((allocation, tuple(instance.value(agent, allocation.bundle(agent))
                                      for agent in instance.agents)))
    return out


def _reference_oracle(instance, scan, objective, convex, witness_cap):
    key_of = _objective_key(objective, convex)
    best_key = best_vector = None
    winners, count = [], 0
    for allocation, vector in scan:
        key = key_of(vector)
        if best_key is None or key > best_key:
            best_key, best_vector, winners, count = key, vector, [allocation], 1
        elif key == best_key:
            count += 1
            if len(winners) < witness_cap:
                winners.append(allocation)
    return (objective, _reported_optimum(objective, best_key, best_vector, convex),
            best_vector, tuple(winners), count, len(scan))


def _dominates(winner, loser):
    return all(a >= b for a, b in zip(winner, loser)) and winner != loser


def _is_ef1(instance, allocation):
    return all(ef1_pair(instance, allocation, i, j)[0]
               for i in instance.agents for j in instance.agents if i != j)


def _reference_equivalences(instance, scan):
    """Outcome name -> counterexample allocation (None when the claim holds).

    Covers the four claims whose counterexample names a placement.
    """
    first = {}
    for allocation, vector in scan:
        first.setdefault(vector, allocation)
    vectors = set(first)
    best = max(map(sum, vectors))
    usw_optimal = {v for v in vectors if sum(v) == best}
    lex_best = max(map(leximin_key, vectors))
    nash_best = max(map(nash_key, vectors))
    gap = next((v for v in sorted(vectors) if sum(v) < best
                and not any(_dominates(w, v) for w in vectors)), None)

    def balances(v):
        return any(v[j] >= v[i] + 2 and tuple(
            z + (k == i) - (k == j) for k, z in enumerate(v)) in usw_optimal
            for i in range(len(v)) for j in range(len(v)))

    unreachable = next((v for v in sorted(usw_optimal)
                        if leximin_key(v) != lex_best and not balances(v)), None)

    def violation(is_optimal):
        return next((allocation for allocation, vector in scan if is_optimal(vector)
                     and is_clean(instance, allocation)
                     and not _is_ef1(instance, allocation)), None)

    return {
        "pareto_implies_usw_optimal": None if gap is None else first[gap],
        "clean_leximin_ef1": violation(lambda v: leximin_key(v) == lex_best),
        "clean_mnw_ef1": violation(lambda v: nash_key(v) == nash_best),
        "usw_optimal_reachability": None if unreachable is None else first[unreachable],
    }


class _Table:
    """A valuation read from a table of frozensets; absent bundles are worth 0."""

    def __init__(self, table):
        self.table = table

    def value(self, bundle):
        return self.table.get(frozenset(bundle), 0)


def _zero_instance(n, m):
    items = tuple("o%d" % k for k in range(1, m + 1))
    agents = tuple("g%d" % k for k in range(1, n + 1))
    return Instance(agents=agents, items=items,
                    valuations={a: BinaryAdditiveValuation(set()) for a in agents})


def _cases():
    rng = random.Random(31)
    cases = [random_matroid_instance(rng, n=n, m=m)
             for n, m in ((2, 0), (3, 0), (1, 5), (1, 6), (2, 5), (2, 6), (3, 5), (2, 7))]
    cases += [random_scaled_instance(rng, n=2, m=m) for m in (3, 4, 5)]
    fractional = ScaledValuation(BinaryAdditiveValuation({"o1", "o3"}), Fraction(3, 2))
    cases.append(Instance(agents=("p1", "p2"), items=("o1", "o2", "o3"),
                          valuations={"p1": fractional,
                                      "p2": BinaryAdditiveValuation({"o2", "o3"})}))
    cases += [fx.scaled_pair_instance(), fx.usw_not_ef1_instance(),
              fx.truncation_shortfall_instance(), _zero_instance(2, 3)]
    # Not monotone: its utilitarian optima are clean but withhold an item.
    drop = _Table({frozenset({"o1"}): 1, frozenset({"o2"}): 1})
    cases.append(Instance(agents=("p1",), items=("o1", "o2"), valuations={"p1": drop}))
    # Every block its own shape: weights 2^p make each bundle's value its mask.
    items = tuple("o%d" % k for k in range(1, 7))
    masks = {item: {item: 2 ** p} for p, item in enumerate(items)}
    cases.append(Instance(agents=("p1", "p2"), items=items, valuations={
        agent: AssignmentValuation(items, masks) for agent in ("p1", "p2")}))
    # Many blocks of one shape: an agent that values none of the leading items
    # gathers a single column.
    cases.append(Instance(agents=("p1", "p2"), items=items, valuations={
        "p1": BinaryAdditiveValuation({"o4", "o6"}),
        "p2": BinaryAdditiveValuation({"o1", "o2", "o5"})}))
    cases.append(Instance(agents=("g1", "g2", "g3"), items=items[:5], valuations={
        "g1": BinaryAdditiveValuation({"o4", "o5"}),
        "g2": BinaryAssignmentValuation({"m1": {"o1", "o3"}, "m2": {"o3", "o5"}}),
        "g3": BinaryAdditiveValuation(set())}))
    return cases


CASES = _cases()


def test_cases_cover_the_walks_edge_shapes():
    shapes = {(inst.n, inst.m) for inst in CASES}
    assert {(2, 0), (1, 5), (2, 7)} <= shapes          # m = 0, one agent, odd m
    assert any(isinstance(value, Fraction)
               for inst in CASES for _, vector in _reference_scan(inst, False)
               for value in vector)


def _reference_blocks(walk, tables, m, complete_only):
    """Each block's keys, gathered afresh for every block from the walk's
    key numbers, as the walk did before blocks shared their shapes."""
    n, base = len(tables), len(tables) if complete_only else len(tables) + 1
    if base < 2 or not m:
        return [[0] * base ** m]
    head = m // 2
    columns = [list(map(numbers.__getitem__, table))
               for numbers, table in zip(walk.numbers, tables)]
    lead = _digit_masks(n, base, head)
    gathers = [itemgetter(*masks) for masks in _digit_masks(n, base, m - head)]
    return [list(reduce(partial(map, add), [
        gather(column[masks[h]::1 << head])
        for gather, column, masks in zip(gathers, columns, lead)]))
        for h in range(base ** head)]


def test_cases_cover_distinct_and_shared_shapes():
    def shapes(inst):
        return _Walk(inst, _tables(inst, False, 10 ** 6), False).shapes

    distinct, shared, three = map(shapes, CASES[-3:])
    assert len(distinct) == len(set(distinct)) == 27
    assert len(shared) == 27 and len(set(shared)) == 3
    assert len(three) == 16 and len(set(three)) == 2


@pytest.mark.parametrize("complete_only", [False, True])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_record_holds_each_blocks_distinct_keys(index, complete_only):
    inst = CASES[index]
    tables = _tables(inst, complete_only, 10 ** 6)
    walk = _Walk(inst, tables, complete_only)
    reference = _reference_blocks(walk, tables, inst.m, complete_only)
    assert [walk.keys(shape) for shape in walk.shapes] == reference
    assert walk.size == len(reference[0])
    counts = walk.counts()
    assert list(walk.record) == list(dict.fromkeys(walk.shapes))
    assert [walk.record[shape] for shape in walk.shapes] == [
        tuple(dict.fromkeys(keys)) for keys in reference]
    assert sum(counts.values()) == sum(map(len, reference))


@pytest.mark.parametrize("complete_only", [False, True])
@pytest.mark.parametrize("index", range(len(CASES)))
def test_block_walk_matches_the_per_placement_loop(index, complete_only):
    inst = CASES[index]
    scan = _reference_scan(inst, complete_only)
    assert list(enumerate_allocations(inst, complete_only=complete_only)) == [
        allocation for allocation, _ in scan]

    walk = _Walk(inst, _tables(inst, complete_only, 10 ** 6), complete_only)
    counts = walk.counts()
    assert list(counts.items()) == list(Counter(vector for _, vector in scan).items())

    first = {}
    for allocation, vector in scan:
        first.setdefault(vector, allocation)
    for vector in counts:
        assert walk.first(vector.__eq__) == first[vector]
    assert walk.first(lambda vector: False) is None

    for objective in OBJECTIVES:
        for convex in ("sum_squares", "zlogz"):
            for cap in (64, 2):
                result = oracle_optimal(inst, objective, convex=convex,
                                        complete_only=complete_only, witness_cap=cap)
                got = (result.objective, result.optimal_value, result.optimal_vector,
                       result.witnesses, result.witness_count, result.scanned)
                expected = _reference_oracle(inst, scan, objective, convex, cap)
                assert got == expected
                assert repr(got[1:3]) == repr(expected[1:3])   # same number types

    assert max_usw_value(inst, complete_only=complete_only) == max(
        sum(vector) for _, vector in scan)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_po_mms_and_equivalences_match_the_per_placement_loop(index):
    inst = CASES[index]
    scan = _reference_scan(inst, False)
    rng = random.Random(index)
    candidates = [Allocation.from_bundles(inst, {})] + [
        scan[rng.randrange(len(scan))][0] for _ in range(6)]
    for allocation in candidates:
        current = tuple(inst.value(a, allocation.bundle(a)) for a in inst.agents)
        witness = next((other for other, vector in scan if _dominates(vector, current)), None)
        assert check_po_bruteforce(inst, allocation) == (witness is None, witness)

    complete = _reference_scan(inst, True)
    for agent in inst.agents:
        share = mms_share(inst, agent)
        expected = max(min(inst.value(agent, allocation.bundle(a)) for a in inst.agents)
                       for allocation, _ in complete)
        assert share == expected and repr(share) == repr(expected)

    best = max(sum(vector) for _, vector in scan)
    assert usw_optimal_all_clean_complete(inst) == all(
        not allocation.withheld and is_clean(inst, allocation)
        for allocation, vector in scan if sum(vector) == best)

    report = verify_equivalences(inst)
    for name, counterexample in _reference_equivalences(inst, scan).items():
        outcome = report.outcome(name)
        assert outcome.ok == (counterexample is None), name
        if counterexample is not None:
            assert outcome.counterexample["allocation"] == counterexample, name


def test_block_record_skips_only_blocks_without_a_winner(monkeypatch):
    # 64 blocks, one per placement of o1..o3.  Only g3 values those items,
    # so every utilitarian winner sits in block 42 (o1..o3 all with g3).
    items = tuple("o%d" % k for k in range(1, 8))
    inst = Instance(agents=("g1", "g2", "g3"), items=items, valuations={
        "g1": BinaryAdditiveValuation({"o4", "o5", "o6"}),
        "g2": BinaryAssignmentValuation({"m1": {"o6", "o7"}, "m2": {"o7"}}),
        "g3": BinaryAdditiveValuation({"o1", "o2", "o3", "o7"})})
    scan = _reference_scan(inst, False)
    walk = _Walk(inst, _tables(inst, False, 10 ** 6), False)
    counts = walk.counts()
    assert len(walk.shapes) == 64
    built, keys = [], _Walk.keys
    monkeypatch.setattr(_Walk, "keys",
                        lambda self, shape: built.append(shape) or keys(self, shape))
    skipped = 0
    for objective in OBJECTIVES:
        key_of = _objective_key(objective, "sum_squares")
        best = max(map(key_of, counts))
        winners = {vector for vector in counts if key_of(vector) == best}
        expected = [allocation for allocation, vector in scan if vector in winners]
        wanted = set(map(walk.key, winners))
        holding = [h for h, shape in enumerate(walk.shapes)
                   if not wanted.isdisjoint(walk.record[shape])]
        skipped += 64 - len(holding)
        for cap in (1, 2, 64):
            built.clear()
            assert list(islice(walk.allocations(winners), cap)) == expected[:cap]
            assert built and built == [walk.shapes[h] for h in holding][:len(built)]
        built.clear()
        assert list(walk.allocations(winners)) == expected
        assert built == [walk.shapes[h] for h in holding]
        if objective == "usw":
            assert holding == [42]
    assert skipped > 64


def test_counts_sums_each_shape_once_and_gathers_each_mask_once(monkeypatch):
    # The instance of test_block_record_skips_only_blocks_without_a_winner:
    # g1 and g2 value none of o1..o3, so each gathers one column, and g3's
    # column depends on how many of them it holds.
    items = tuple("o%d" % k for k in range(1, 8))
    inst = Instance(agents=("g1", "g2", "g3"), items=items, valuations={
        "g1": BinaryAdditiveValuation({"o4", "o5", "o6"}),
        "g2": BinaryAssignmentValuation({"m1": {"o6", "o7"}, "m2": {"o7"}}),
        "g3": BinaryAdditiveValuation({"o1", "o2", "o3", "o7"})})
    tables = _tables(inst, False, 10 ** 6)
    gathered, built = [], []

    def counting_itemgetter(*masks):
        gather, calls = itemgetter(*masks), []
        gathered.append(calls)
        return lambda column: calls.append(None) or gather(column)

    keys = _Walk.keys
    monkeypatch.setattr(oracle, "itemgetter", counting_itemgetter)
    monkeypatch.setattr(_Walk, "keys",
                        lambda self, shape: built.append(shape) or keys(self, shape))
    walk = _Walk(inst, tables, False)
    assert list(map(len, gathered)) == [2 ** 3] * 3
    counts = walk.counts()
    assert len(walk.shapes) == 64 and built == list(dict.fromkeys(walk.shapes))
    assert len(built) == 4
    assert sum(counts.values()) == 4 ** 7


class _Mirror:
    """Worth 1 exactly when the bundle is non-empty and its trailing five
    items mirror its leading five."""

    def __init__(self, items):
        self.items = items

    def value(self, bundle):
        held = [item in bundle for item in self.items]
        return int(any(held) and held[:5] == held[5:])


def test_counts_keeps_no_block_key_lists():
    # Each agent's column differs for each of its 32 leading masks, so all
    # 4^5 blocks have their own shape, yet there are only 8 vectors.
    items = tuple("o%d" % k for k in range(1, 11))
    agents = ("g1", "g2", "g3")
    inst = Instance(agents=agents, items=items,
                    valuations={agent: _Mirror(items) for agent in agents})
    tables = _tables(inst, False, 4 ** 10)
    tracemalloc.start()
    try:
        walk = _Walk(inst, tables, False)
        counts = walk.counts()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(walk.shapes)) == len(walk.record) == 4 ** 5
    assert len(counts) == 8 and sum(counts.values()) == 4 ** 10
    assert peak < 5 * 2 ** 20


def test_scaled_pair_counterexample_is_the_first_clean_leximin_optimum():
    inst = fx.scaled_pair_instance()
    report = verify_equivalences(inst)
    outcome = report.outcome("clean_leximin_ef1")
    assert not outcome.ok
    assert outcome.counterexample["vector"] == (3, 3)
    assert outcome.counterexample["allocation"] == fx.scaled_pair_leximin(inst)
    assert report.outcome("clean_mnw_ef1").ok


def test_all_optimal_placements_are_streamed_in_little_memory():
    # All-zero valuations make every one of the 4^9 placements
    # utilitarian-optimal; the answer must not keep them.
    inst = _zero_instance(3, 9)
    tracemalloc.start()
    try:
        assert usw_optimal_all_clean_complete(inst) is False
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20


DEMO_SHA256 = "e9539bf0c348377320098ffcebf9fd7ab3c3c9834a9dc767a9cb1eda74c1f91d"


@pytest.mark.parametrize("seed", ["0", "1", "5"])
def test_fairness_tour_output_is_pinned(seed):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.join(root, "src"))
    run = subprocess.run([sys.executable, os.path.join(root, "demos", "fairness_tour.py")],
                         env=env, capture_output=True, check=True)
    assert hashlib.sha256(run.stdout).hexdigest() == DEMO_SHA256
