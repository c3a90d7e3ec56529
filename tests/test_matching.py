import random
from collections import Counter
from fractions import Fraction
from math import lcm

from rankfair.core import Instance
from rankfair.eit import max_utilitarian_welfare
from rankfair.matching import max_weight_matching
from rankfair.valuations import AssignmentValuation, BinaryAssignmentValuation


def brute_force_matching_value(items, members, weight):
    """Best total weight over all injective item-to-member maps.

    Exponential reference implementation: independent of the augmenting-path
    code under test, used as ground truth on small inputs.
    """
    items = list(items)
    best = [0]

    def rec(k, used, total):
        if k == len(items):
            if total > best[0]:
                best[0] = total
            return
        rec(k + 1, used, total)
        for mb in members:
            if mb in used:
                continue
            w = weight(mb, items[k])
            if w > 0:
                rec(k + 1, used | {mb}, total + w)

    rec(0, frozenset(), 0)
    return best[0]


def _integer_edges(items, members, weight) -> tuple:
    """(scale, item -> {member: weight * scale}) of a weight table, as
    ``AssignmentValuation._edges`` builds it: members in order, non-positive
    weights dropped, scale the LCM of the kept weights' denominators."""
    kept = {(it, mb): Fraction(w) for it in items for mb in members
            if (w := weight(mb, it)) > 0}
    scale = lcm(*(w.denominator for w in kept.values()))
    edges = {}
    for (it, mb), w in kept.items():
        edges.setdefault(it, {})[mb] = int(w * scale)
    return scale, edges


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


def test_cardinality_follows_a_path_through_thousands_of_members():
    """Member j is adjacent to items j and j + 1.  The items sort in
    descending order, so each takes its lower member until item 0, whose
    search runs the whole chain: past item 3,000 to the free last member
    when item 3,001 is left out, and to a dead end when it is in."""
    n = 3001
    item = ["o%04d" % (n - j) for j in range(n + 1)]
    v = BinaryAssignmentValuation({"c%04d" % j: {item[j], item[j + 1]} for j in range(n)})
    assert v.value(frozenset(item[:n])) == n
    assert v.value(frozenset(item)) == n


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
    _, edges = _integer_edges(["a", "b"], ["m1", "m2"],
                             lambda mb, it: weights.get((mb, it), 0))
    total, witness = max_weight_matching(["a", "b"], ["m1", "m2"], edges)
    assert total == 7
    assert witness == {"a": "m2", "b": "m1"}


def test_weight_zero_edges_never_matched():
    scale, edges = _integer_edges(["a", "b"], ["m1", "m2"], lambda mb, it: 0)
    assert (scale, edges) == (1, {})
    total, witness = max_weight_matching(["a", "b"], ["m1", "m2"], edges)
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

        scale, edges = _integer_edges(items, members, weight)
        total, witness = max_weight_matching(items, members, edges)
        assert type(total) is int
        assert Fraction(total, scale) == brute_force_matching_value(items, members, weight)
        assert sum(weight(mb, it) for it, mb in witness.items()) == Fraction(total, scale)
        assert len(set(witness.values())) == len(witness)
        assert all(weight(mb, it) > 0 for it, mb in witness.items())


def test_weight_witness_deterministic():
    rng = random.Random(8)
    items = ["o%d" % k for k in range(5)]
    members = ["m%d" % k for k in range(4)]
    table = {(mb, it): rng.randint(0, 3) for mb in members for it in items}
    _, edges = _integer_edges(items, members, lambda mb, it: table[(mb, it)])
    first = max_weight_matching(items, members, edges)
    for _ in range(3):
        assert max_weight_matching(items, members, edges) == first


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

        scale, edges = _integer_edges(items, members, weight)
        got = max_weight_matching(items, members, edges)
        want = _reference_max_weight_matching(items, members, weight)
        assert type(got[0]) is int and Fraction(got[0], scale) == want[0]
        assert list(got[1].items()) == list(want[1].items())
        positive = [w for w in table.values() if w > 0]
        if not items or not members:
            seen["empty side"] += 1
        elif not positive:
            seen["no positive weight"] += 1
        seen[type(want[0]).__name__] += 1
        if any(w < 0 for w in table.values()):
            seen["negative weight"] += 1
        if lcm(*(Fraction(w).denominator for w in positive)) > 10 ** 6:
            seen["lcm above 10^6"] += 1
        if len(got[1]) >= 3:
            seen["three or more matched"] += 1
    assert min(seen.values()) >= 100, seen
    assert len(seen) == 7, seen


def test_total_type_follows_the_matched_weights():
    """The welfare optimum is a Fraction when some matched weight is one, an
    int otherwise; a valuation's value is an int whenever it is whole."""
    def welfare(weights, items):
        valuations = {"p%d" % k: AssignmentValuation(tuple(rows), rows)
                      for k, rows in enumerate(weights)}
        return max_utilitarian_welfare(
            Instance(agents=tuple(valuations), items=items, valuations=valuations))

    def value(rows, items):
        return AssignmentValuation(tuple(rows), rows).value(items)

    # a whole Fraction weight is stored as an int
    for got in (welfare([{"m": {"a": Fraction(3, 1)}}], ("a",)),
                value({"m": {"a": Fraction(3, 1)}}, {"a"})):
        assert (got, type(got)) == (3, int)
    # an unmatched Fraction does not count
    rows = {"m": {"a": 2, "b": Fraction(1, 2)}}
    for got in welfare([rows], ("a", "b")), value(rows, {"a", "b"}):
        assert (got, type(got)) == (2, int)
    assert AssignmentValuation(("m",), rows).assignment_value({"a", "b"})[1] == {"a": "m"}
    # matched Fractions summing to a whole number
    halves = [{"m": {"a": Fraction(1, 2)}}, {"n": {"b": Fraction(1, 2)}}]
    got = welfare(halves, ("a", "b"))
    assert (got, type(got)) == (1, Fraction)
    got = value({**halves[0], **halves[1]}, {"a", "b"})
    assert (got, type(got)) == (1, int)
    for got in welfare([{"m": {"a": 1}}], ()), value({"m": {"a": 1}}, ()):
        assert (got, type(got)) == (0, int)
