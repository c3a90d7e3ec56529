"""``usw-ef1`` against the code it replaced, kept here as references.

``reference_intersection`` is the intersection that searched the exchange
graph for every augmentation and rebuilt every bundle, union side and
held set each time.  ``reference_eit_ef1`` is the transfer loop that
rescanned all n(n - 1) ordered pairs after every transfer, with an EF1
test that knows no rank bound (``reference_verdict``), and valued every
bundle twice per logged step (``reference_move``).  ``reference_grow`` is
the (0,1)-OXS matching engine that tried every item.  On seeded
mixed-rank instances the solvers must give identical allocations, transfer
logs and exceptions.
"""

import random
from itertools import combinations
from collections import Counter
from dataclasses import dataclass

from rankfair import matroid_intersection
from rankfair.core import (Allocation, AllocationError, Instance, NonMatroidOracle,
                           assert_valid, ef1_pair, first_ef1_violation, is_clean,
                           values_vector)
from rankfair.eit import WITHHELD, TransferLog, eit_ef1, find_transferable_item
from rankfair.matroid_intersection import max_common_independent_set, shortest_path
from rankfair.valuations import (AllOrNothingValuation, BinaryAdditiveValuation,
                                 BinaryAssignmentValuation, TruncatedValuation)

from randgen import _agents, _items, random_allocation, random_binary_additive, \
    random_rank_valuation, random_transversal
from test_matroid_intersection import _TableValuation


def _eager_side(instance, agent, bundle):
    """The union side with every circuit asked for, as a dict."""
    sinks, circuit = matroid_intersection._union_side(instance, agent, bundle)
    return sinks, {o: circuit(o) for o in instance.items
                   if o not in bundle and o not in sinks}


def reference_intersection(instance):
    agents, items = sorted(instance.agents), sorted(instance.items)
    union_sides = {}
    X = frozenset()
    bundles = {a: set() for a in instance.agents}
    while True:
        sides = {}
        for a in instance.agents:
            key = (a, frozenset(bundles[a]))
            if key not in union_sides:
                union_sides[key] = _eager_side(instance, *key)
            sides[a] = union_sides[key]

        def successors(v):
            a, o = v
            if v in X:
                return [(b, o) for b in agents if b != a]
            return [(a, x) for x in sides[a][1].get(o, ())]

        held = {o for _, o in X}
        sources = ((a, o) for a in agents for o in items if o not in held)
        path = shortest_path(sources, successors, lambda v: v[1] in sides[v[0]][0])
        if path is None:
            return Allocation.from_bundles(instance, bundles)
        X = X ^ frozenset(path)
        if len({o for _, o in X}) != len(X):
            raise NonMatroidOracle(path[-1][0], "augmentation produced a duplicated item")
        bundles = {a: set() for a in instance.agents}
        for a, o in X:
            bundles[a].add(o)
        moved = {a for a, _ in path}
        unclean = next((a for a in instance.agents if a in moved
                        and instance.value(a, bundles[a]) != len(bundles[a])), None)
        if unclean is not None:
            raise NonMatroidOracle(unclean, "augmentation produced an unclean bundle")


def reference_verdict(instance, valuation, own, theirs):
    coloops = getattr(valuation, "coloops", None)
    if coloops is not None and own >= len(theirs):
        return True, None
    whole = valuation.value(theirs)
    if own >= whole:
        return True, None
    if coloops is not None:
        if own + 1 < whole:
            return False, None
        removable = theirs if whole == len(theirs) else coloops(theirs)
        if not removable:
            return False, None
        return True, min(removable, key=instance.item_index.__getitem__)
    for o in instance.sorted_items(theirs):
        if own >= valuation.value(theirs - {o}):
            return True, o
    return False, None


def reference_violation(instance, allocation):
    for i in instance.agents:
        valuation = instance.valuation(i)
        own = valuation.value(allocation.bundle(i))
        for j in instance.agents:
            if i != j and not reference_verdict(instance, valuation, own,
                                                 allocation.bundle(j))[0]:
                return i, j
    return None


def _phi(instance, allocation):
    return sum(z * z for z in values_vector(instance, allocation))


def reference_move(log, instance, allocation, item, source, target):
    bundles = {a: set(b) for a, b in allocation.bundles.items()}
    withheld = set(allocation.withheld)
    (withheld if source == WITHHELD else bundles[source]).discard(item)
    (withheld if target == WITHHELD else bundles.setdefault(target, set())).add(item)
    moved = Allocation(bundles, withheld)
    log.steps.append((len(log.steps) + 1, item, source, target,
                      _phi(instance, allocation), _phi(instance, moved)))
    return moved


@dataclass
class _Steps:
    steps: list

    def to_tsv(self):
        return TransferLog([_Step(*step) for step in self.steps]).to_tsv()


@dataclass
class _Step:
    step: int
    item: str
    source: str
    target: str
    phi_before: object
    phi_after: object


def reference_eit_ef1(instance, initial=None):
    optimum = reference_intersection(instance)
    best_usw = sum(values_vector(instance, optimum))
    if initial is None:
        allocation = optimum
    else:
        assert_valid(instance, initial)
        if not is_clean(instance, initial):
            raise AllocationError("initial allocation is not clean")
        initial_usw = sum(values_vector(instance, initial))
        if initial_usw != best_usw:
            raise AllocationError(
                f"initial allocation is not utilitarian optimal "
                f"(welfare {initial_usw}, optimum {best_usw})")
        allocation = initial
    log = _Steps([])
    for _ in range(instance.m * instance.m // 2 + 1):
        pair = reference_violation(instance, allocation)
        if pair is None:
            return allocation, log
        i, j = pair
        o = find_transferable_item(instance, allocation, i, j)
        allocation = reference_move(log, instance, allocation, o, j, i)
    raise RuntimeError("transfer loop exceeded the m^2/2 step bound; "
                       "valuations are probably not matroid rank functions")


def reference_grow(valuation, holder, items):
    _, edges = valuation._edges
    matched = len(holder)
    for item in items:
        seen = set()
        stack = [[item, None, iter(edges.get(item, ()))]]
        while stack:
            top = stack[-1]
            for member in top[2]:
                if member not in seen:
                    break
            else:
                stack.pop()
                continue
            seen.add(member)
            top[1] = member
            if member not in holder:
                holder.update((mb, x) for x, mb, _ in stack)
                break
            stack.append([holder[member], None, iter(edges[holder[member]])])
    return len(holder) - matched


def _valuation(rng, agent, items):
    kind = rng.random()
    if kind < 0.1:
        return AllOrNothingValuation(rng.sample(items, rng.randint(1, 3)))
    if kind < 0.4:  # rank-tight: a cap that most bundles reach
        return TruncatedValuation(random_rank_valuation(rng, agent, items),
                                  rng.randint(0, 3))
    return random_rank_valuation(rng, agent, items)


def _instance(rng, n, m):
    items, agents = _items(m), _agents(n)
    return Instance(agents=agents, items=items,
                    valuations={a: _valuation(rng, a, items) for a in agents})


def _cases():
    rng = random.Random(20240531)
    for _ in range(90):
        yield _instance(rng, rng.randint(2, 8), rng.randint(4, 16))
    for _ in range(12):
        yield _instance(rng, rng.randint(2, 8), rng.randint(17, 40))
    for _ in range(20):  # as many agents as items or more: searches with long paths
        m = rng.randint(4, 8)
        yield _instance(rng, rng.randint(m // 2, 8), m)


def _outcome(run):
    """What a run returns, or the type, message and agent of what it raises."""
    try:
        return run()
    except (RuntimeError, AllocationError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "agent", None)


def _allocation(allocation):
    return sorted((a, sorted(b)) for a, b in allocation.bundles.items()), \
        sorted(allocation.withheld)


def _reversed_start(instance):
    """A clean welfare-optimal allocation other than the intersection's:
    the intersection's on the instance with the agents' valuations in
    reverse order, handed back to their owners."""
    owner = dict(zip(instance.agents, reversed(instance.agents)))
    swapped = Instance(agents=instance.agents, items=instance.items, valuations={
        a: instance.valuation(owner[a]) for a in instance.agents})
    start = reference_intersection(swapped)
    return Allocation({owner[a]: start.bundle(a) for a in instance.agents}, start.withheld)


def _eit(run):
    def result():
        allocation, log = run()
        return _allocation(allocation), log.to_tsv()
    return _outcome(result)


def test_intersection_and_transfers_match_the_references(monkeypatch):
    paths = Counter()
    search = matroid_intersection.shortest_path

    def counted(starts, successors, is_end):
        path = search(starts, successors, is_end)
        paths[0 if path is None else len(path)] += 1
        return path

    seen = Counter()
    for instance in _cases():
        monkeypatch.setattr(matroid_intersection, "shortest_path", counted)
        got = _outcome(lambda: _allocation(max_common_independent_set(instance)))
        monkeypatch.undo()
        assert got == _outcome(lambda: _allocation(reference_intersection(instance)))
        eit = _eit(lambda: eit_ef1(instance))
        assert eit == _eit(lambda: reference_eit_ef1(instance)), instance
        start = _reversed_start(instance)
        assert _eit(lambda: eit_ef1(instance, initial=start)) == \
            _eit(lambda: reference_eit_ef1(instance, initial=start))
        transfers = eit[1].count("\n") - 1
        seen["transfers"] += transfers
        seen["runs with transfers"] += transfers > 0
        seen["all-or-nothing"] += any(isinstance(instance.valuation(a), AllOrNothingValuation)
                                      for a in instance.agents)
    assert sum(n for length, n in paths.items() if length > 1) >= 10, paths
    assert seen["runs with transfers"] >= 30 and seen["all-or-nothing"] >= 30, seen


def _ef1(instance, allocation, i, j):
    own = instance.value(i, allocation.bundle(i))
    return reference_verdict(instance, instance.valuation(i), own, allocation.bundle(j))[0]


def _receiver_loses_ef1(instance):
    """Whether some transfer of the reference run leaves an agent k, EF1 of
    the receiver i before it, not EF1 of i after it."""
    allocation, log = reference_intersection(instance), _Steps([])
    _, steps = reference_eit_ef1(instance)
    for _, item, source, target, _, _ in steps.steps:
        moved = reference_move(log, instance, allocation, item, source, target)
        if any(_ef1(instance, allocation, k, target) and not _ef1(instance, moved, k, target)
               for k in instance.agents if k != target):
            return True
        allocation = moved
    return False


def test_transfers_match_the_reference_on_binary_additive_draws():
    # Many transfers per run; on some, an agent stops being EF1 of the
    # agent that just received an item, so those pairs must be tested again.
    rng = random.Random(7)
    transfers = lost = 0
    for _ in range(600):
        n = rng.randint(3, 6)
        items, agents = _items(rng.randint(2 * n, 3 * n)), _agents(n)
        instance = Instance(agents=agents, items=items, valuations={
            a: random_binary_additive(rng, items, rng.choice((0.3, 0.9))) for a in agents})
        eit = _eit(lambda: eit_ef1(instance))
        assert eit == _eit(lambda: reference_eit_ef1(instance))
        transfers += eit[1].count("\n") - 1
        lost += _receiver_loses_ef1(instance)
    assert transfers >= 3000 and lost >= 200, (transfers, lost)


def _table_instance(rng):
    """Two agents, six items, each non-empty bundle S valued |S| or |S| - 1
    at random: clean bundles abound, but an exchange can make one unclean."""
    items = _items(6)
    subsets = [frozenset(s) for r in range(1, 7) for s in combinations(items, r)]
    return Instance(agents=("g1", "g2"), items=items, valuations={
        a: _TableValuation({frozenset(): 0, **{
            s: len(s) - rng.randint(0, 1) for s in subsets}}) for a in ("g1", "g2")})


def test_non_matroid_oracle_names_the_same_agent():
    rng = random.Random(4111)
    raised = Counter()
    for _ in range(2000):
        instance = _table_instance(rng)
        got = _outcome(lambda: _allocation(max_common_independent_set(instance)))
        assert got == _outcome(lambda: _allocation(reference_intersection(instance)))
        if got[0] == "NonMatroidOracle":
            raised[got[2]] += 1
    assert min(raised["g1"], raised["g2"]) >= 3, raised


def _coloops_valuation(rng, agent, items, depth=0):
    """Every family that answers coloops, truncations of truncations too."""
    kind = rng.random()
    if kind < 0.3:
        return BinaryAdditiveValuation({o for o in items if rng.random() < 0.5})
    if kind < 0.65 or depth == 2:
        return random_transversal(rng, agent, items, max_members=rng.randint(1, 4))
    inner = _coloops_valuation(rng, agent, items, depth + 1)
    return TruncatedValuation(inner, rng.randint(0, inner.value(frozenset(items)) + 1))


def test_rank_bound_keeps_every_ef1_verdict():
    rng = random.Random(6029)
    seen = Counter()
    for _ in range(250):
        n, m = rng.randint(2, 5), rng.randint(2, 10)
        items, agents = _items(m), _agents(n)
        instance = Instance(agents=agents, items=items, valuations={
            a: _coloops_valuation(rng, a, items) for a in agents})
        for _ in range(3):
            allocation = random_allocation(rng, instance, allow_withheld=rng.random() < 0.5)
            violation = first_ef1_violation(instance, allocation)
            assert violation == reference_violation(instance, allocation)
            seen["not EF1" if violation else "EF1"] += 1
            seen["withheld"] += bool(allocation.withheld)
            for i in agents:
                valuation = instance.valuation(i)
                own = valuation.value(allocation.bundle(i))
                rank = valuation.value(frozenset(items))
                seen["unclean"] += own != len(allocation.bundle(i))
                for j in agents:
                    if i != j:
                        theirs = allocation.bundle(j)
                        assert ef1_pair(instance, allocation, i, j) == \
                            reference_verdict(instance, valuation, own, theirs)
                        seen["bound decides"] += len(theirs) > own >= rank
    assert min(seen.values()) >= 100, seen


def test_rank_bound_asks_no_value_of_the_other_bundle(monkeypatch):
    # own = v_i(E) = 1 < |A_j| = 3, so only the rank bound ends the test early
    asked, grown = [], []
    value, grow = BinaryAdditiveValuation.value, BinaryAssignmentValuation._grow

    def recorded_value(self, bundle):
        asked.append(frozenset(bundle))
        return value(self, bundle)

    def recorded_grow(self, holder, items):
        grown.append(frozenset(items))
        return grow(self, holder, items)

    monkeypatch.setattr(BinaryAdditiveValuation, "value", recorded_value)
    monkeypatch.setattr(BinaryAssignmentValuation, "_grow", recorded_grow)
    items = ("o1", "o2", "o3", "o4")
    allocation = Allocation({"i": {"o1"}, "j": {"o2", "o3", "o4"}})
    additive = Instance(agents=("i", "j"), items=items, valuations={
        "i": BinaryAdditiveValuation({"o1"}), "j": BinaryAdditiveValuation(items)})
    asked.clear()  # the instance checks every empty value
    assert ef1_pair(additive, allocation, "i", "j") == (True, None)
    assert asked == [frozenset({"o1"}), frozenset(items)]

    transversal = Instance(agents=("i", "j"), items=items, valuations={
        "i": BinaryAssignmentValuation({"m1": {"o1", "o2"}}),
        "j": BinaryAdditiveValuation(items)})
    grown.clear()
    for _ in range(2):  # the second verdict is read off the valuation's cache
        assert ef1_pair(transversal, allocation, "i", "j") == (True, None)
    assert grown == [frozenset({"o1"}), frozenset(items)]


def test_early_stopped_grow_leaves_the_same_holder():
    rng = random.Random(5881)
    stopped = 0
    for _ in range(400):
        items = list(_items(rng.randint(1, 12)))
        valuation = random_transversal(rng, "g", items, max_members=rng.randint(1, 5),
                                       density=rng.choice((0.2, 0.5, 0.9)))
        order = rng.sample(items, rng.randint(0, len(items)))
        start = {}
        reference_grow(valuation, start, order[:rng.randint(0, len(order))])
        got, expected = dict(start), dict(start)
        gain = valuation._grow(got, order)
        assert gain == reference_grow(valuation, expected, order)
        assert got == expected
        stopped += len(got) == len(valuation.members) and len(order) > len(got)
    assert stopped >= 50
