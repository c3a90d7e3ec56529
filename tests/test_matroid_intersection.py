import hashlib
import itertools
import random

import pytest

from rankfair import matroid_intersection
from rankfair.core import (Instance, NonMatroidOracle, validate_allocation, values_vector,
                           is_clean)
from rankfair.eit import eit_ef1, max_utilitarian_welfare
from rankfair.matroid_intersection import max_common_independent_set
from rankfair.oracle import max_usw_value

import fixtures as fx
from fixtures import (nonsubmodular_pair_instance,
                      two_group_matching_instance)
from randgen import (_agents, _items, random_binary_additive,
                     random_binary_additive_instance, random_matroid_instance,
                     random_oxs_instance, random_transversal)


def test_two_group_optimum_uses_every_item():
    inst = two_group_matching_instance()
    alloc = max_common_independent_set(inst)
    assert not validate_allocation(inst, alloc)
    assert sum(values_vector(inst, alloc)) == 6
    assert is_clean(inst, alloc)


def test_result_is_clean_valid_and_usw_optimal_fuzz():
    rng = random.Random(60221023)
    for _ in range(60):
        inst = random_matroid_instance(rng, m=rng.randint(3, 6))
        alloc = max_common_independent_set(inst)
        assert not validate_allocation(inst, alloc)
        assert is_clean(inst, alloc)
        # the oracle scans every placement; the intersection must match it
        assert sum(values_vector(inst, alloc)) == max_usw_value(inst)


def test_non_rank_valuation_handled_as_clean_bundle_oracle():
    # The intersection only queries "is this bundle clean"; the shoe
    # valuation answers those queries consistently (a lone shoe is never
    # clean), so the run terminates benignly instead of raising, and the
    # shoes go to the agent who counts them individually.
    inst = nonsubmodular_pair_instance()
    alloc = max_common_independent_set(inst)
    assert alloc.bundle("p1") == frozenset()
    assert alloc.bundle("p2") == frozenset(inst.items)
    assert sum(values_vector(inst, alloc)) == 3


def test_deterministic_witness():
    inst = two_group_matching_instance()
    first = max_common_independent_set(inst)
    for _ in range(3):
        again = max_common_independent_set(inst)
        assert again.bundles == first.bundles
        assert again.withheld == first.withheld


_FIXTURES = (
    fx.two_group_matching_instance, fx.usw_not_ef1_instance, fx.leximin_not_usw_instance,
    fx.ef1_not_efx0_instance, fx.ef_not_mms_instance, fx.nonsubmodular_pair_instance,
    fx.baseline_trap_instance, fx.scaled_pair_instance, fx.mef1_not_ef1_instance,
    fx.capped_count_instance, fx.truncation_shortfall_instance, fx.forced_split_instance,
)


def _golden_cases():
    rng = random.Random(20200316)
    for _ in range(10):
        yield random_matroid_instance(rng, n=rng.randint(2, 4), m=rng.randint(4, 10))
    for _ in range(8):
        yield random_oxs_instance(rng, n_max=5, m_max=12)
    for _ in range(6):
        yield random_binary_additive_instance(rng, n=rng.randint(2, 4), m=rng.randint(3, 9))
    for make in _FIXTURES:
        yield make()
    for _ in range(3):
        yield random_matroid_instance(rng, n=8, m=32)


def _witness(inst) -> str:
    """Intersection bundles and withheld pool, then the EIT transfer log.

    A run that raises records the exception instead, so non-rank fixtures
    pin their failure as well.
    """
    try:
        alloc = max_common_independent_set(inst)
        _, log = eit_ef1(inst)
    except RuntimeError as exc:
        return "%s: %s" % (type(exc).__name__, exc)
    bundles = "|".join("%s:%s" % (a, " ".join(inst.sorted_items(alloc.bundle(a))))
                       for a in inst.agents)
    withheld = " ".join(inst.sorted_items(alloc.withheld))
    return "%s\n%s\n%s" % (bundles, withheld, log.to_tsv())


# first 16 hex digits of the SHA-256 of _witness, one per _golden_cases entry
_GOLDEN = [
    "382bd7657785ad50",
    "754ca18ebdfb0299",
    "95e82a5f828d5d8a",
    "030c3a4a3b407fd9",
    "eb74501b724320e8",
    "5da1f23cf8601f55",
    "e7c3fe90bb20d4d5",
    "1f7ba0150c779e57",
    "b4bc30e6c3f6aedf",
    "841b461f4cbcd672",
    "ce986ad7537c66ca",
    "5223e6b26f368398",
    "ba09a4915e7d6009",
    "6c0472188f28f906",
    "e0b8421178505be6",
    "2447bdd159431bbf",
    "3aa9271651704875",
    "bfabc00e04970d35",
    "a88e480f1498788d",
    "30c2791e379a9869",
    "781dbf430d319709",
    "c3da5c259910e04d",
    "a2d72c333075a25b",
    "3ef73051f4564490",
    "48e8b6ab77a0046b",
    "5ba02524e474bcb8",
    "23713607bff95ffd",
    "9bd2de040483c8a3",
    "b9c3e5de77609407",
    "f08ebc28eebf3154",
    "3d402331160339ad",
    "cdbf00c25b0f9d94",
    "0768f918642f1a70",
    "28e0b9b5e62aad54",
    "aec5fcc0585ac781",
    "457d47e4a0b08489",
    "faa3c8f79e071a1c",
    "e26905fcdf683455",
    "30052fdd9ec0fc92",
]


def test_intersection_and_transfer_witness_is_pinned():
    cases = list(_golden_cases())
    assert len(cases) == len(_GOLDEN)
    for inst, expected in zip(cases, _GOLDEN):
        assert hashlib.sha256(_witness(inst).encode()).hexdigest()[:16] == expected


class _TableValuation:
    """Any valuation at all, given as a table over every bundle."""

    def __init__(self, table):
        self.table = table

    def value(self, bundle):
        return self.table[frozenset(bundle)]


def _table_instance(rng):
    """Three agents, four items, each bundle valued at random in 0..|bundle|."""
    items = ("o1", "o2", "o3", "o4")
    subsets = [frozenset(s) for r in range(5) for s in itertools.combinations(items, r)]
    return Instance(agents=("g1", "g2", "g3"), items=items, valuations={
        a: _TableValuation({s: rng.randint(0, len(s)) if s else 0 for s in subsets})
        for a in ("g1", "g2", "g3")})


def _unclean_table_instance():
    # the first table drawn from this seed whose run raises
    rng = random.Random(1)
    for _ in range(133):
        _table_instance(rng)
    return _table_instance(rng)


def test_unclean_augmentation_raises_non_matroid_oracle():
    with pytest.raises(NonMatroidOracle,
                       match="augmentation produced an unclean bundle") as info:
        max_common_independent_set(_unclean_table_instance())
    assert info.value.agent == "g2"


def _reference_graph(inst, X):
    """Sources, sinks and arcs from the generic circuit definition.

    The circuit of y in X + y is y with every x whose removal restores
    independence, asked of plain independence oracles for both matroids.
    """
    def partition(S):
        return len({o for _, o in S}) == len(S)

    def union(S):
        return all(inst.value(a, B) == len(B) for a in inst.agents
                   for B in [{o for b, o in S if b == a}])

    def circuit(independent, y):
        if independent(X | {y}):
            return None
        return [x for x in sorted(X) if independent((X | {y}) - {x})]

    sources, sinks = [], []
    arcs = {(a, o): [] for a in inst.agents for o in inst.items}
    for y in sorted(set(arcs) - X):
        c_part, c_union = circuit(partition, y), circuit(union, y)
        if c_part is None:
            sources.append(y)
        for x in c_part or ():
            arcs[x].append(y)
        if c_union is None:
            sinks.append(y)
        else:
            arcs[y] = c_union
    return tuple(sources), tuple(sinks), arcs


def _differential_cases():
    rng = random.Random(31337)
    for _ in range(8):
        yield random_matroid_instance(rng)
    for _ in range(4):
        yield random_oxs_instance(rng, n_max=4, m_max=8)
    for _ in range(3):
        yield random_binary_additive_instance(rng)
    for _ in range(3):
        yield _table_instance(rng)
    yield fx.nonsubmodular_pair_instance()
    yield _unclean_table_instance()


def test_exchange_graph_matches_reference_circuits(monkeypatch):
    # The search never builds the graph, so each call is asked for its
    # starts, its ends and the successors of every vertex while it runs:
    # the successor closure reads the X of that augmentation only.  X is
    # replayed from the returned paths.
    search = matroid_intersection.shortest_path
    reached = []
    run = {}

    def recording(starts, successors, is_end):
        inst, X = run["instance"], run["X"]
        starts = list(starts)
        vertices = [(a, o) for a in inst.agents for o in inst.items]
        reached.append((inst, X, tuple(starts),
                        tuple(sorted(v for v in vertices if is_end(v))),
                        {v: list(successors(v)) for v in vertices}))
        path = search(starts, successors, is_end)
        if path is not None:
            run["X"] = X ^ frozenset(path)
        return path

    monkeypatch.setattr(matroid_intersection, "shortest_path", recording)
    for inst in _differential_cases():
        run.update(instance=inst, X=frozenset())
        try:
            max_common_independent_set(inst)
        except NonMatroidOracle:
            pass
    assert len(reached) > 40
    for inst, X, sources, sinks, arcs in reached:
        assert (sources, sinks, arcs) == _reference_graph(inst, X)


def test_scale_oxs_welfare_equals_global_matching():
    rng = random.Random(1203)
    items, agents = _items(64), _agents(12)
    inst = Instance(agents=agents, items=items, valuations={
        a: random_transversal(rng, a, items, max_members=4, density=0.3) for a in agents})
    alloc = max_common_independent_set(inst)
    assert not validate_allocation(inst, alloc)
    assert is_clean(inst, alloc)
    assert sum(values_vector(inst, alloc)) == max_utilitarian_welfare(inst)


def test_scale_binary_additive_welfare_is_approved_cover():
    rng = random.Random(1204)
    items, agents = _items(64), _agents(12)
    inst = Instance(agents=agents, items=items, valuations={
        a: random_binary_additive(rng, items, density=0.1) for a in agents})
    alloc = max_common_independent_set(inst)
    approved = set().union(*(inst.valuation(a).approved for a in agents))
    assert is_clean(inst, alloc)
    assert sum(values_vector(inst, alloc)) == len(approved & set(items))
