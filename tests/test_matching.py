import random
from collections import Counter
from fractions import Fraction
from math import lcm

from rankfair.matching import max_weight_matching
from rankfair.valuations import BinaryAssignmentValuation

from test_valuations import brute_force_matching_value


def _reference_max_cardinality_matching(items, members, adjacent) -> dict:
    """The former cardinality kernel: BinaryAssignmentValuation's reference.

    ``adjacent(member, item)`` says whether a pair is allowed.  Items are
    inserted in the given order, augmenting paths probe members in the given
    order.  Returns {item: member} for the matched items.
    """
    members = list(members)
    matched_item = {}  # member -> item

    def try_place(item, banned):
        for member in members:
            if member in banned or not adjacent(member, item):
                continue
            banned.add(member)
            if member not in matched_item or try_place(matched_item[member], banned):
                matched_item[member] = item
                return True
        return False

    for item in items:
        try_place(item, set())
    return {item: member for member, item in matched_item.items()}


def test_cardinality_simple_chain():
    v = BinaryAssignmentValuation({"m1": {"a", "b"}, "m2": {"b"}})
    size, match = v.assignment_value({"a", "b"})
    assert size == len(match) == 2
    assert set(match) == {"a", "b"}
    assert set(match.values()) == {"m1", "m2"}


def test_cardinality_empty_and_saturated():
    assert BinaryAssignmentValuation({"m": {"a"}}).assignment_value(()) == (0, {})
    assert BinaryAssignmentValuation({}).assignment_value({"a"}) == (0, {})
    size, match = BinaryAssignmentValuation(
        {"m": {"a", "b", "c"}}).assignment_value({"a", "b", "c"})
    assert size == len(match) == 1


def test_cardinality_matches_the_reference_kernel():
    """assignment_value's witness is the former kernel's, item for item and
    in iteration order, on seeded (0,1) adjacencies over a wider ground set."""
    rng = random.Random(16180)
    seen = Counter()
    for _ in range(2000):
        items = ["o%d" % k for k in range(rng.randint(0, 14))]
        ground = items + ["x%d" % k for k in range(rng.randint(0, 3))]
        members = ["m%d" % k for k in range(rng.randint(1, 7))]
        density = rng.choice((0.0, 0.1, 0.25, 0.5, 0.75, 1.0))
        adjacency = {mb: [it for it in ground if rng.random() < density]
                     for mb in members}
        if rng.random() < 0.3:
            adjacency[rng.choice(members)] = []
        v = BinaryAssignmentValuation(adjacency)
        bundles = [frozenset(), frozenset(items)]
        bundles += [frozenset(rng.sample(items, rng.randint(0, len(items))))
                    for _ in range(8)]
        for bundle in bundles:
            got = v.assignment_value(bundle)
            want = _reference_max_cardinality_matching(
                sorted(bundle), members, lambda mb, it: it in v.adjacency[mb])
            assert got == (len(want), want)
            assert list(got[1].items()) == list(want.items()), (adjacency, bundle)
            seen["empty bundle" if not bundle else "bundle"] += 1
            seen["unmatched item"] += len(want) < len(bundle)
            seen["three or more matched"] += len(want) >= 3
        seen["member with no item"] += any(not row for row in adjacency.values())
        seen["adjacency outside the items"] += any(
            it not in items for row in adjacency.values() for it in row)
        seen["density %s" % density] += 1
    assert len(seen) == 12 and min(seen.values()) >= 200, seen


def test_weight_prefers_heavy_assignment():
    weights = {("m1", "a"): 5, ("m1", "b"): 4, ("m2", "a"): 3}

    def weight(mb, it):
        return weights.get((mb, it), 0)

    total, witness = max_weight_matching(["a", "b"], ["m1", "m2"], weight)
    assert total == 7
    assert witness == {"a": "m2", "b": "m1"}


def test_weight_zero_edges_never_matched():
    total, witness = max_weight_matching(
        ["a", "b"], ["m1", "m2"], lambda mb, it: 0)
    assert total == 0 and witness == {}


def test_weight_matches_brute_force_fuzz():
    rng = random.Random(1404)
    for _ in range(200):
        items = ["o%d" % k for k in range(rng.randint(0, 5))]
        members = ["m%d" % k for k in range(rng.randint(0, 4))]
        table = {(mb, it): Fraction(rng.randint(0, 9), rng.choice((1, 2, 4)))
                 for mb in members for it in items if rng.random() < 0.6}

        def weight(mb, it):
            return table.get((mb, it), 0)

        total, witness = max_weight_matching(items, members, weight)
        assert total == brute_force_matching_value(items, members, weight)
        assert sum(weight(mb, it) for it, mb in witness.items()) == total
        assert len(set(witness.values())) == len(witness)
        assert all(weight(mb, it) > 0 for it, mb in witness.items())


def test_weight_witness_deterministic():
    rng = random.Random(8)
    items = ["o%d" % k for k in range(5)]
    members = ["m%d" % k for k in range(4)]
    table = {(mb, it): rng.randint(0, 3) for mb in members for it in items}

    def weight(mb, it):
        return table[(mb, it)]

    first = max_weight_matching(items, members, weight)
    for _ in range(3):
        assert max_weight_matching(items, members, weight) == first


def _reference_max_weight_matching(items, members, weight):
    """The former kernel, on the weights as given: the integer kernel's reference.

    Same relaxation order, strict-improvement rule, best-free-member choice
    and path reconstruction, with gains and parents in dicts keyed by
    ("i", item) and ("m", member).
    """
    items = list(items)
    members = list(members)
    edges = {}
    for it in items:
        for mb in members:
            w = weight(mb, it)
            if w > 0:
                edges[(it, mb)] = w
    match_of_item = {}
    match_of_member = {}
    while True:
        gain = {("i", it): 0 for it in items if it not in match_of_item}
        parent = {}
        if not gain:
            break
        for _ in range(len(items) + len(members) + 1):
            improved = False
            for it in items:
                gi = gain.get(("i", it))
                if gi is None:
                    continue
                for mb in members:
                    w = edges.get((it, mb))
                    if w is None or match_of_item.get(it) == mb:
                        continue
                    g = gi + w
                    node = ("m", mb)
                    if node not in gain or g > gain[node]:
                        gain[node] = g
                        parent[node] = ("i", it)
                        improved = True
                    if mb in match_of_member:
                        it2 = match_of_member[mb]
                        g2 = gain[node] - edges[(it2, mb)]
                        node2 = ("i", it2)
                        if node2 not in gain or g2 > gain[node2]:
                            gain[node2] = g2
                            parent[node2] = node
                            improved = True
            if not improved:
                break
        best = None
        for mb in members:
            node = ("m", mb)
            if mb not in match_of_member and node in gain and gain[node] > 0:
                if best is None or gain[node] > gain[best]:
                    best = node
        if best is None:
            break
        adds, removes = [], []
        node = best
        while True:
            prev = parent.get(node)
            if node[0] == "m":
                adds.append((prev[1], node[1]))
            elif prev is None:
                break
            else:
                removes.append((node[1], prev[1]))
            node = prev
        for it, mb in removes:
            del match_of_item[it]
            del match_of_member[mb]
        for it, mb in adds:
            match_of_item[it] = mb
            match_of_member[mb] = it
    total = sum(edges[(it, mb)] for it, mb in match_of_item.items())
    return total, dict(match_of_item)


_PRIMES = (7919, 7927, 7933, 7937)  # any two of them have an LCM above 10^6


def _weight_family(rng, family):
    if family == "zero":
        return lambda: 0
    if family == "int":
        return lambda: rng.randint(-3, 9)
    if family == "ties":
        return lambda: rng.choice((0, 1, 1, 2))
    if family == "fraction":
        return lambda: Fraction(rng.randint(-2, 12), rng.choice((1, 2, 3, 4, 6)))
    if family == "whole fraction":
        return lambda: Fraction(rng.randint(0, 5))
    if family == "mixed":
        return lambda: rng.choice((rng.randint(-1, 6),
                                   Fraction(rng.randint(0, 12), rng.choice((2, 3, 5)))))
    return lambda: Fraction(rng.randint(0, 40_000), rng.choice(_PRIMES))


def test_integer_kernel_matches_the_reference_kernel():
    rng = random.Random(271828)
    families = ("zero", "int", "ties", "fraction", "whole fraction", "mixed", "large lcm")
    seen = Counter()
    for case in range(2100):
        family = families[case % len(families)]
        draw = _weight_family(rng, family)
        items = ["o%d" % k for k in range(rng.choice((0, 1, 2, 3, 4, 5, 6, 7)))]
        members = ["m%d" % k for k in range(rng.choice((0, 1, 2, 3, 4, 5, 6)))]
        density = rng.choice((0.3, 0.7, 1.0))
        table = {(mb, it): draw() for mb in members for it in items
                 if rng.random() < density}

        def weight(mb, it):
            return table.get((mb, it), 0)

        got = max_weight_matching(items, members, weight)
        want = _reference_max_weight_matching(items, members, weight)
        assert got == want
        assert type(got[0]) is type(want[0])
        assert list(got[1].items()) == list(want[1].items())
        positive = [w for w in table.values() if w > 0]
        if not items or not members:
            seen["empty side"] += 1
        elif not positive:
            seen["no positive weight"] += 1
        seen[type(got[0]).__name__] += 1
        if any(w < 0 for w in table.values()):
            seen["negative weight"] += 1
        if lcm(*(Fraction(w).denominator for w in positive)) > 10 ** 6:
            seen["lcm above 10^6"] += 1
        if len(got[1]) >= 3:
            seen["three or more matched"] += 1
    assert min(seen.values()) >= 100, seen
    assert len(seen) == 7, seen


def test_total_type_follows_the_matched_weights():
    # Fraction(3, 1) is still a Fraction; an unmatched Fraction does not count
    assert max_weight_matching(["a"], ["m"], lambda mb, it: Fraction(3, 1)) == (3, {"a": "m"})
    assert type(max_weight_matching(["a"], ["m"], lambda mb, it: Fraction(3, 1))[0]) is Fraction
    weights = {("m", "a"): 2, ("m", "b"): Fraction(1, 2)}
    total, witness = max_weight_matching(["a", "b"], ["m"], lambda mb, it: weights[(mb, it)])
    assert (total, type(total), witness) == (2, int, {"a": "m"})
    total, witness = max_weight_matching([], ["m"], lambda mb, it: 1)
    assert (total, type(total), witness) == (0, int, {})
