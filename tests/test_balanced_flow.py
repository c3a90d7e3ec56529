import hashlib
import random

import pytest

from rankfair.balanced_flow import _members, leximin_flow_allocation, network_dump
from rankfair.core import InapplicableAlgorithm, Instance, validate_allocation, values_vector
from rankfair.eit import max_utilitarian_welfare
from rankfair.oracle import oracle_optimal
from rankfair.valuations import AssignmentValuation, BinaryAssignmentValuation

import fixtures as fx
from randgen import random_oxs_instance, random_transversal


def test_two_group_pinned_witness():
    inst = fx.two_group_matching_instance()
    alloc, network = leximin_flow_allocation(inst)
    assert alloc.bundle("g1") == frozenset({"o1", "o2", "o3"})
    assert alloc.bundle("g2") == frozenset({"o4", "o5", "o6"})
    assert not alloc.withheld
    assert network.out_flows() == {"g1": 3, "g2": 3}


def test_four_item_pair_balances_to_two_two():
    inst = fx.ef1_not_efx0_instance()
    alloc, network = leximin_flow_allocation(inst)
    assert tuple(sorted(values_vector(inst, alloc))) == (2, 2)
    assert network.out_flows() == {"g1": 2, "g2": 2}


def test_empty_adjacency_withholds_everything():
    inst = Instance(agents=("g1",), items=("o1", "o2"),
                    valuations={"g1": BinaryAssignmentValuation({"m": set()})})
    alloc, network = leximin_flow_allocation(inst)
    assert alloc.bundle("g1") == frozenset()
    assert alloc.withheld == frozenset({"o1", "o2"})
    assert network.out_flows().get("g1", 0) == 0


def test_single_unit_path():
    inst = Instance(agents=("g1",), items=("o1",),
                    valuations={"g1": BinaryAssignmentValuation({"m": {"o1"}})})
    alloc, network = leximin_flow_allocation(inst)
    assert alloc.bundle("g1") == frozenset({"o1"})
    assert network.out_flows() == {"g1": 1}


def test_non_binary_weights_are_refused():
    inst = fx.usw_not_ef1_instance()
    with pytest.raises(InapplicableAlgorithm):
        leximin_flow_allocation(inst)


def _with_stray_entries(rng, inst):
    """The same instance, its valuations naming items it does not hold."""
    valuations = {}
    for agent in inst.agents:
        v = inst.valuation(agent)
        weights = {mb: dict(v.weights[mb]) for mb in v.members}
        for mb in v.members:
            for k in range(rng.randint(0, 3)):
                weights[mb]["zz%d" % k] = rng.choice((1, 1, 2))
        valuations[agent] = AssignmentValuation(v.members, weights)
    return Instance(agents=inst.agents, items=inst.items, valuations=valuations)


def test_adjacency_outside_the_instance_is_skipped():
    bare = Instance(agents=("g1",), items=("o1",),
                    valuations={"g1": BinaryAssignmentValuation({"m": {"o1"}})})
    stray = Instance(agents=("g1",), items=("o1",),
                     valuations={"g1": BinaryAssignmentValuation({"m": {"o1", "zz"}})})
    pairs = [(stray, bare)]
    rng = random.Random(5150)
    for _ in range(40):
        inst = random_oxs_instance(rng, n_max=4, m_max=10)
        pairs.append((_with_stray_entries(rng, inst), inst))
    for with_stray, without in pairs:
        got, got_network = leximin_flow_allocation(with_stray)
        want, want_network = leximin_flow_allocation(without)
        assert (got.bundles, got.withheld) == (want.bundles, want.withheld)
        assert network_dump(got_network) == network_dump(want_network)


def _dump_invariant_cases():
    yield from _pinned_flow_cases()
    rng = random.Random(8080)
    for _ in range(60):
        n, m = rng.randint(1, 10), rng.randint(1, 40)
        items = tuple("o%d" % (k + 1) for k in range(m))
        agents = tuple("g%d" % (k + 1) for k in range(n))
        yield Instance(agents=agents, items=items, valuations={
            a: random_transversal(rng, a, items, density=rng.choice((0.1, 0.3, 0.6)))
            for a in agents})


def test_dump_rows_are_a_feasible_flow():
    """Read off the dump text alone: bounds, zero costs, conservation, out-flows."""
    for inst in _dump_invariant_cases():
        alloc, network = leximin_flow_allocation(inst)
        lines = network_dump(network).splitlines()
        assert lines[0] == "tail\thead\tcapacity\tcost\tflow"
        balance = {}
        source = {}
        for line in lines[1:]:
            tail, head, capacity, cost, flow = line.split("\t")
            capacity, cost, flow = int(capacity), int(cost), int(flow)
            assert 0 <= flow <= capacity and cost == 0, line
            balance[tail] = balance.get(tail, 0) - flow
            balance[head] = balance.get(head, 0) + flow
            if tail == "s":
                source[head] = flow
        assert {node: net for node, net in balance.items()
                if node not in ("s", "t") and net} == {}
        assert source == {"g/%s" % a: f for a, f in network.out_flows().items()}
        assert source == {"g/%s" % a: inst.value(a, alloc.bundle(a)) for a in inst.agents}


def test_flow_vector_equals_oracle_leximin_fuzz():
    rng = random.Random(424242)
    for _ in range(80):
        inst = random_oxs_instance(rng)
        alloc, network = leximin_flow_allocation(inst)
        assert not validate_allocation(inst, alloc)
        got = tuple(sorted(values_vector(inst, alloc)))
        want = tuple(sorted(oracle_optimal(inst, "leximin").optimal_vector))
        assert got == want
        out = network.out_flows()
        for agent in inst.agents:
            assert out.get(agent, 0) == inst.value(agent, alloc.bundle(agent))


def test_total_out_flow_is_the_welfare_optimum():
    """``solve leximin-flow`` reads its price of fairness off the flow."""
    rng = random.Random(31337)
    saturated = short = 0
    for n, m in [(1, 3), (3, 7), (5, 14), (8, 32), (12, 64), (24, 20), (24, 150)] * 3:
        items = tuple("o%d" % (k + 1) for k in range(m))
        agents = tuple("g%d" % (k + 1) for k in range(n))
        inst = Instance(agents=agents, items=items, valuations={
            a: random_transversal(rng, a, items, density=0.3) for a in agents})
        _, network = leximin_flow_allocation(inst)
        total = sum(network.out_flows().values())
        assert total == max_utilitarian_welfare(inst)
        saturated += total == m
        short += total < m
    assert saturated >= 3 and short >= 3, (saturated, short)


def test_network_dump_edge_list_format():
    inst = fx.two_group_matching_instance()
    _, network = leximin_flow_allocation(inst)
    lines = network_dump(network).splitlines()
    assert lines[0] == "tail\thead\tcapacity\tcost\tflow"
    body = [line.split("\t") for line in lines[1:]]
    assert all(len(row) == 5 for row in body)
    # source rows carry the out-flow per group
    source_rows = [row for row in body if row[0] == "s"]
    assert sorted(row[1] for row in source_rows) == ["g/g1", "g/g2"]
    assert sorted(int(row[4]) for row in source_rows) == [3, 3]


def test_flow_is_deterministic():
    inst = fx.two_group_matching_instance()
    first, _ = leximin_flow_allocation(inst)
    for _ in range(3):
        again, _ = leximin_flow_allocation(inst)
        assert again.bundles == first.bundles


def _pinned_flow_cases():
    rng = random.Random(20200316)
    for _ in range(30):
        yield random_oxs_instance(rng, n_max=5, m_max=14)
    # more members than items
    rng = random.Random(7)
    for _ in range(4):
        yield random_oxs_instance(rng, n_max=3, m_max=2, max_members=5)
    yield Instance(agents=("g1", "g2"), items=("o1", "o2"), valuations={
        "g1": BinaryAssignmentValuation({"a": {"o1", "o2"}, "b": {"o1"}, "c": {"o2"}}),
        "g2": BinaryAssignmentValuation({"d": {"o1"}, "e": {"o1", "o2"}})})
    # empty adjacency, for a binary and for a unit-weight assignment valuation
    yield Instance(agents=("g1", "g2"), items=("o1", "o2", "o3"), valuations={
        "g1": BinaryAssignmentValuation({"m1": set(), "m2": set()}),
        "g2": BinaryAssignmentValuation({"m": {"o2"}})})
    yield Instance(agents=("g1", "g2"), items=("o1", "o2", "o3"), valuations={
        "g1": AssignmentValuation(("a", "b"), {"a": {"o1": 1, "o3": 1}, "b": {"o1": 1}}),
        "g2": AssignmentValuation(("c",), {})})


# (first 16 hex digits of the SHA-256 of network_dump, bundles in agent order)
_PINNED_FLOWS = [
    ("63baabe56c75d2ee", "g1:o2 o3 o4 o9|g2:o1 o5"),
    ("be5678af40d800eb", "g1:o1|g2:|g3:|g4:"),
    ("8abda5c49d653d62", "g1:o4|g2:o1|g3:o2 o3 o5"),
    ("31b24b140ac8417c", "g1:o1|g2:o2"),
    ("cd74c30c39a91edd", "g1:o5|g2:o6 o7|g3:o4|g4:o1 o3|g5:o2"),
    ("ce66d3f6384c0568", "g1:o1 o3"),
    ("6831009c31b1aa3b", "g1:o1 o3 o4|g2:o6|g3:o2|g4:o5"),
    ("371d54f71e05a431", "g1:o4 o7|g2:o2 o5|g3:o1 o6|g4:o3"),
    ("9090b2271b76fc92", "g1:o2|g2:o3|g3:o1|g4:|g5:"),
    ("e464e6413b37c091", "g1:o1|g2:|g3:|g4:"),
    ("83dad8a1b318520a", "g1:o3 o4 o9|g2:o2|g3:o5 o6|g4:o1 o7 o8"),
    ("0cb52d1906ecd4b6", "g1:o1 o2 o4 o5|g2:o3"),
    ("179d8b24dec6a55f", "g1:o5 o8 o12|g2:o2 o3 o7 o10|g3:o4 o11 o13|g4:o1 o6 o9"),
    ("a2a89676827789e1", "g1:o1 o10|g2:o2 o5 o9|g3:o3 o4 o7|g4:o8|g5:o6"),
    ("5d31cc8b34795857", "g1:o2|g2:o3|g3:o1"),
    ("8f302402a9934773", "g1:o10 o12 o13|g2:o1 o7 o11|g3:o2|g4:o3 o4 o6|g5:o5 o8 o9"),
    ("bdca9b94577d6e55", "g1:o1 o5|g2:o3 o4|g3:o2"),
    ("1a4aff91893f408c", "g1:o1 o4|g2:o2 o3 o8|g3:o5 o7|g4:o6"),
    ("5c99777935e26083", "g1:o1 o2|g2:o4|g3:o3"),
    ("c0e7173c5504dfcb", "g1:o4|g2:o1 o2"),
    ("9ad7f7f4c3124e11", "g1:o2 o4 o6|g2:o1 o3 o5"),
    ("fba64a5d97f8b99e", "g1:o1 o2"),
    ("ca64cd969499ed78", "g1:o5 o6 o8|g2:o1 o7|g3:o2 o3 o4"),
    ("a1db5d78b206a9a6", "g1:o2 o7|g2:o3 o6 o8|g3:o1 o4 o5"),
    ("c266d429ed243c9e", "g1:o4 o5 o6|g2:o2 o3 o9 o11|g3:o1 o7 o8 o10|g4:o13"),
    ("d73eeebbadb74c05", "g1:o1 o7"),
    ("82070418631be0f4", "g1:o2|g2:o4|g3:o1"),
    ("8ab1de5ea1d22a96", "g1:o1 o2 o3|g2:o4"),
    ("3be1fed10795816b", "g1:o4 o6 o8|g2:o1 o3 o5 o11"),
    ("f1ac5718695a061f", "g1:o2 o8|g2:o5 o6|g3:o10|g4:o1 o3 o4"),
    ("cf61056b523d34d2", "g1:o1|g2:"),
    ("c568511aa107eff2", "g1:o1"),
    ("3041c133e0af8e1f", "g1:"),
    ("b2b976c54c62aeaa", "g1:"),
    ("bcf33b41f2eed1ef", "g1:o2|g2:o1"),
    ("9ab3d62567492e5e", "g1:|g2:o2"),
    ("91cb2c181a72953b", "g1:o1 o3|g2:"),
]


def test_flow_witness_is_pinned():
    cases = list(_pinned_flow_cases())
    assert len(cases) == len(_PINNED_FLOWS)
    for inst, (dump_sha, bundles) in zip(cases, _PINNED_FLOWS):
        alloc, network = leximin_flow_allocation(inst)
        got = "|".join("%s:%s" % (a, " ".join(inst.sorted_items(alloc.bundle(a))))
                       for a in inst.agents)
        assert got == bundles
        assert hashlib.sha256(network_dump(network).encode()).hexdigest()[:16] == dump_sha


def _reference_path_to_sink(start, sink, adj, head, cap, seen):
    """Residual arcs of the first start-sink path, successors in ascending node index."""
    stack, arcs = [iter(adj[start])], []
    while stack:
        for a in stack[-1]:
            v = head[a]
            if cap[a] > 0 and not seen[v]:
                seen[v] = True
                arcs.append(a)
                if v == sink:
                    return arcs
                stack.append(iter(adj[v]))
                break
        else:
            stack.pop()
            if arcs:
                arcs.pop()
    return None


def _reference_leximin_flow(instance):
    """(bundles, loads, dump) from a generic residual network: arc 2k and its
    reverse 2k+1 in flat head/cap arrays, adjacency lists ascending in head."""
    members = _members(instance)
    n, items = instance.n, instance.items
    first_item = 1 + n + len(members)
    sink = first_item + len(items)
    labels = (["s"] + ["g/%s" % a for a in instance.agents]
              + ["m/%s/%s" % (a, mb) for a, mb, _ in members]
              + ["o/%s" % item for item in items] + ["t"])
    head, cap = [], []
    adj = [[] for _ in labels]

    def add_arc(u, v):
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((1, 0))

    groups = {a: g for g, a in enumerate(instance.agents, 1)}
    for u, (a, _, _) in enumerate(members, n + 1):
        add_arc(groups[a], u)
    for u, (_, _, row) in enumerate(members, n + 1):
        for k in row:
            add_arc(u, first_item + k)
    item_arcs_end = len(head)
    for v in range(first_item, sink):
        add_arc(v, sink)

    load = [0] * (n + 1)
    while True:
        seen = [False] * len(labels)
        for g in sorted(groups.values(), key=lambda g: (load[g], g)):
            if not seen[g]:
                seen[g] = True
                arcs = _reference_path_to_sink(g, sink, adj, head, cap, seen)
                if arcs is not None:
                    break
        else:
            break
        load[g] += 1
        for a in arcs:
            cap[a] -= 1
            cap[a ^ 1] += 1

    bundles = {a: set() for a in instance.agents}
    for a in range(2 * len(members), item_arcs_end, 2):
        if cap[a + 1]:
            bundles[members[head[a + 1] - n - 1][0]].add(items[head[a] - first_item])
    loads = {a: load[g] for a, g in groups.items()}
    lines = ["tail\thead\tcapacity\tcost\tflow"]
    lines += ["s\t%s\t%d\t0\t%d" % (labels[g], instance.m, load[g]) for g in groups.values()]
    lines += ["%s\t%s\t%d\t0\t%d" % (labels[head[a + 1]], labels[head[a]],
                                       cap[a] + cap[a + 1], cap[a + 1])
              for a in range(0, len(head), 2)]
    return bundles, loads, "\n".join(lines) + "\n"


def _assert_matches_reference(inst):
    alloc, network = leximin_flow_allocation(inst)
    bundles, loads, dump = _reference_leximin_flow(inst)
    assert {a: set(alloc.bundle(a)) for a in inst.agents} == bundles
    assert network.loads == loads
    assert network_dump(network) == dump


def _ladder():
    for n, m in [(12, 64), (24, 150), (32, 200), (64, 400)]:
        rng = random.Random(1)
        items = tuple("o%d" % (k + 1) for k in range(m))
        agents = tuple("g%d" % (k + 1) for k in range(n))
        yield Instance(agents=agents, items=items, valuations={
            a: random_transversal(rng, a, items, density=0.3) for a in agents})


def _reference_cases():
    yield from _dump_invariant_cases()
    rng = random.Random(271828)
    for _ in range(300):
        yield random_oxs_instance(rng, n_max=6, m_max=14, max_members=rng.randint(1, 5))
    rng = random.Random(5150)
    for _ in range(40):
        yield _with_stray_entries(rng, random_oxs_instance(rng, n_max=4, m_max=10))
    yield from _ladder()


def test_mate_array_solver_matches_the_residual_network_reference():
    """Same bundles, loads and dump bytes as the generic residual-arc solver."""
    for inst in _reference_cases():
        _assert_matches_reference(inst)


def test_deep_augmenting_path_needs_no_recursion():
    """The last augmentation threads every member of a 3,000-member chain."""
    length = 3000
    items = tuple("o%d" % (k + 1) for k in range(length + 1))
    adjacency = {"h%d" % k: {items[k], items[k + 1]} for k in range(length)}
    adjacency["x"] = {items[0]}
    inst = Instance(agents=("g1",), items=items,
                    valuations={"g1": BinaryAssignmentValuation(adjacency)})
    alloc, network = leximin_flow_allocation(inst)
    assert inst.value("g1", alloc.bundle("g1")) == length + 1
    assert network.out_flows() == {"g1": length + 1}
    _assert_matches_reference(inst)
