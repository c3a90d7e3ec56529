"""The structural ``exchange`` query against the value-oracle definition."""

import random

import pytest

from rankfair import matroid_intersection, valuations
from rankfair.core import Instance, NonMatroidOracle
from rankfair.matroid_intersection import max_common_independent_set
from rankfair.valuations import (AllOrNothingValuation, AssignmentValuation,
                                 BinaryAdditiveValuation,
                                 BinaryAssignmentValuation, ScaledValuation,
                                 TruncatedValuation)

from randgen import _agents, _items, random_transversal
from test_matroid_intersection import _unclean_table_instance


def reference_exchange(valuation, bundle, items):
    """Sinks and circuits of a clean ``bundle`` asked of value alone."""
    value, size = valuation.value, len(bundle)
    sinks, circuits = set(), {}
    for o in items:
        if o in bundle:
            continue
        if value(bundle | {o}) == size + 1:
            sinks.add(o)
        else:
            circuits[o] = [x for x in sorted(bundle)
                           if value((bundle - {x}) | {o}) == size]
    return sinks, circuits


def materialized(valuation, bundle, items):
    """``exchange``'s answer with every circuit asked for, in the shape of
    ``reference_exchange``: the sinks, and each other item outside the
    bundle with its circuit."""
    sinks, circuit = valuation.exchange(bundle, items)
    return sinks, {o: circuit(o) for o in items if o not in bundle and o not in sinks}


def _random_transversal(rng, items):
    """Transversal valuations with the awkward shapes mixed in: members with
    no items, members repeating another's items, items outside ``items``
    and items no member takes."""
    adjacency = {}
    for j in range(rng.randint(0, 7)):
        shape = rng.random()
        if shape < 0.15:
            row = set()
        elif shape < 0.3 and adjacency:
            row = set(rng.choice(list(adjacency.values())))
        else:
            row = {it for it in items if rng.random() < rng.choice((0.2, 0.5, 0.9))}
        if rng.random() < 0.1:
            row.add("elsewhere")
        adjacency["m%d" % j] = row
    return BinaryAssignmentValuation(adjacency)


def _random_structural(rng, items, depth=0):
    kind = rng.random()
    if kind < 0.25:
        density = rng.choice((0.0, 0.3, 0.7, 1.0))
        return BinaryAdditiveValuation({it for it in items if rng.random() < density})
    if kind < 0.6 or depth == 2:
        return _random_transversal(rng, items)
    inner = _random_structural(rng, items, depth + 1)
    rank = inner.value(frozenset(items))
    return TruncatedValuation(inner, rng.randint(0, rank + 1))


def _random_clean_bundle(rng, valuation, items):
    """A random independent set, greedily grown up to a random target size."""
    target = rng.randint(0, len(items))
    bundle = frozenset()
    for o in rng.sample(items, len(items)):
        if len(bundle) == target:
            break
        if valuation.value(bundle | {o}) == len(bundle) + 1:
            bundle |= {o}
    return bundle


def test_exchange_matches_value_oracle_definition():
    rng = random.Random(20230412)
    cases = at_cap = below_cap = 0
    for _ in range(300):
        items = list(_items(rng.randint(1, 10)))
        valuation = _random_structural(rng, items)
        for bundle in {frozenset(), *(_random_clean_bundle(rng, valuation, items)
                                      for _ in range(3))}:
            expected = reference_exchange(valuation, bundle, items)
            assert materialized(valuation, bundle, items) == expected, (valuation, bundle)
            cases += 1
            if isinstance(valuation, TruncatedValuation):
                at_cap += len(bundle) == valuation.cap
                below_cap += len(bundle) < valuation.cap
    assert cases >= 500 and at_cap >= 50 and below_cap >= 50


def test_exchange_on_named_shapes():
    items = ["o1", "o2", "o3", "o4"]
    nested = TruncatedValuation(TruncatedValuation(
        BinaryAssignmentValuation({"m0": {"o1", "o2"}, "m1": {"o2"}, "m2": set()}), 2), 1)
    shapes = [
        (BinaryAssignmentValuation({"m0": set()}), frozenset()),
        (BinaryAssignmentValuation({"m0": {"o1", "o2"}, "m1": {"o1", "o2"},
                                    "m2": {"o3"}}), frozenset({"o1", "o3"})),
        (TruncatedValuation(BinaryAdditiveValuation(items), 0), frozenset()),
        (TruncatedValuation(BinaryAdditiveValuation({"o1", "o2"}), 2),
         frozenset({"o1", "o2"})),
        (nested, frozenset()),
        (nested, frozenset({"o2"})),
    ]
    for valuation, bundle in shapes:
        assert materialized(valuation, bundle, items) == reference_exchange(
            valuation, bundle, items)


def test_exchange_computes_each_circuit_on_first_request(monkeypatch):
    closures = []
    closure = valuations._alternating_closure

    def counted(items, edges, item_of):
        closures.append(tuple(items))
        return closure(items, edges, item_of)

    monkeypatch.setattr(valuations, "_alternating_closure", counted)
    items = ["o1", "o2", "o3", "o4", "o5"]
    oxs = BinaryAssignmentValuation({"m0": {"o1", "o3"}, "m1": {"o2", "o3"},
                                     "m2": {"o1", "o2", "o4"}})
    bundle = frozenset({"o1", "o2", "o4"})
    sinks, circuit = oxs.exchange(bundle, items)
    assert sinks == set() and closures == []
    assert circuit("o3") == ["o1", "o2", "o4"]
    assert len(closures) == 2  # one per member adjacent to o3
    assert circuit("o3") == ["o1", "o2", "o4"] and circuit("o5") == []
    assert len(closures) == 2
    capped_sinks, capped = TruncatedValuation(oxs, 3).exchange(bundle, items)
    assert capped_sinks == set() and capped("o5") == [] and len(closures) == 2


def test_exchange_declines_unclean_bundles_and_other_families():
    items = ["o1", "o2", "o3"]
    single = BinaryAssignmentValuation({"m0": {"o1", "o2"}})
    assert single.exchange(frozenset({"o1", "o2"}), items) is None
    assert BinaryAdditiveValuation({"o1"}).exchange(frozenset({"o2"}), items) is None
    assert TruncatedValuation(single, 0).exchange(frozenset({"o1"}), items) is None
    assert TruncatedValuation(single, 5).exchange(frozenset({"o1", "o2"}), items) is None
    unit = AssignmentValuation(["m0"], {"m0": {"o1": 1}})
    for other in (unit, ScaledValuation(single, 2), AllOrNothingValuation({"o1"})):
        assert not hasattr(other, "exchange")
        assert TruncatedValuation(other, 1).exchange(frozenset(), items) is None


def reference_coloops(valuation, bundle):
    """The items of ``bundle`` whose removal costs exactly 1, asked of value."""
    whole = valuation.value(bundle)
    return {x for x in bundle if valuation.value(bundle - {x}) == whole - 1}


def _random_bundle(rng, items):
    return frozenset(it for it in items if rng.random() < rng.choice((0.3, 0.6, 0.9)))


def test_coloops_match_value_oracle_definition():
    rng = random.Random(77031)
    seen = {"clean": 0, "unclean": 0, "some coloop": 0, "no coloop": 0,
            "partly coloops": 0, "above cap": 0, "at or below cap": 0}
    for _ in range(400):
        items = list(_items(rng.randint(1, 10)))
        valuation = _random_structural(rng, items)
        bundles = {frozenset(), frozenset(items), _random_clean_bundle(rng, valuation, items),
                   *(_random_bundle(rng, items) for _ in range(3))}
        for bundle in bundles:
            expected = reference_coloops(valuation, bundle)
            assert valuation.coloops(bundle) == expected, (valuation, bundle)
            seen["clean" if valuation.value(bundle) == len(bundle) else "unclean"] += 1
            seen["some coloop" if expected else "no coloop"] += 1
            seen["partly coloops"] += 0 < len(expected) < len(bundle)
            if isinstance(valuation, TruncatedValuation):
                above = valuation.inner.value(bundle) > valuation.cap
                seen["above cap" if above else "at or below cap"] += 1
    assert min(seen.values()) >= 100, seen


def test_coloops_only_where_the_matroid_is_explicit():
    single = BinaryAssignmentValuation({"m0": {"o1", "o2"}, "m1": set()})
    assert single.coloops(frozenset({"o1", "o2", "o3"})) == set()
    assert single.coloops(frozenset({"o2", "o3"})) == {"o2"}
    assert TruncatedValuation(single, 0).coloops(frozenset({"o1"})) == set()
    unit = AssignmentValuation(["m0"], {"m0": {"o1": 1}})
    for other in (unit, ScaledValuation(single, 2), AllOrNothingValuation({"o1"})):
        assert getattr(other, "coloops", None) is None
        assert getattr(TruncatedValuation(other, 1), "coloops", None) is None


@pytest.fixture
def inside_union_side(monkeypatch):
    """Counts matchings and all-or-nothing value calls made inside _union_side."""
    counts = {"depth": 0, "cardinality": 0, "weight": 0, "all_or_nothing": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            if counts["depth"]:
                counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    union_side = matroid_intersection._union_side

    def tracked_union_side(*args):
        counts["depth"] += 1
        try:
            return union_side(*args)
        finally:
            counts["depth"] -= 1

    monkeypatch.setattr(matroid_intersection, "_union_side", tracked_union_side)

    def from_scratch(cls, name):  # a matching runs on a cache miss
        assignment_value = cls.assignment_value

        def counted_miss(self, bundle):
            if counts["depth"] and frozenset(bundle) not in self._cache:
                counts[name] += 1
            return assignment_value(self, bundle)
        monkeypatch.setattr(cls, "assignment_value", counted_miss)

    from_scratch(BinaryAssignmentValuation, "cardinality")
    from_scratch(AssignmentValuation, "weight")
    monkeypatch.setattr(AllOrNothingValuation, "value",
                        counted("all_or_nothing", AllOrNothingValuation.value))
    return counts


def _instance(valuation_of, n=6, m=24):
    rng = random.Random(4)
    items, agents = _items(m), _agents(n)
    return Instance(agents=agents, items=items,
                    valuations={a: valuation_of(rng, a, items) for a in agents})


def test_structural_union_side_runs_no_matching(inside_union_side):
    oxs = _instance(lambda rng, a, items: random_transversal(rng, a, items))
    truncated = _instance(lambda rng, a, items: TruncatedValuation(
        random_transversal(rng, a, items), rng.randint(0, 5)))
    for instance in (oxs, truncated):
        max_common_independent_set(instance)
    assert inside_union_side["cardinality"] == 0


def test_other_truncations_take_the_value_oracle_path(inside_union_side):
    unit = _instance(lambda rng, a, items: TruncatedValuation(AssignmentValuation(
        ["m0", "m1"], {"m0": {it: 1 for it in items if rng.random() < 0.3},
                       "m1": {it: 1 for it in items if rng.random() < 0.3}}), 2))
    max_common_independent_set(unit)
    assert inside_union_side["weight"] > 0

    pair = Instance(agents=("g1", "g2"), items=("o1", "o2", "o3"), valuations={
        "g1": BinaryAdditiveValuation({"o1", "o2"}),
        "g2": TruncatedValuation(AllOrNothingValuation({"o2", "o3"}), 1)})
    max_common_independent_set(pair)
    assert inside_union_side["all_or_nothing"] > 0

    # An all-or-nothing truncation's only clean bundle is empty, so it never
    # gets to an unclean one; a truncated table does, as the table does.
    tables = _unclean_table_instance()
    truncated = Instance(agents=tables.agents, items=tables.items, valuations={
        a: TruncatedValuation(tables.valuation(a), len(tables.items))
        for a in tables.agents})
    with pytest.raises(NonMatroidOracle,
                       match="augmentation produced an unclean bundle") as info:
        max_common_independent_set(truncated)
    assert info.value.agent == "g2"
