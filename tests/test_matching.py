import random
from collections import Counter
from fractions import Fraction
from math import lcm

from rankfair.core import Instance
from rankfair.eit import max_utilitarian_welfare
from rankfair.valuations import (AssignmentValuation, BinaryAssignmentValuation, _norm,
                                 _unscaled)


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


def _valuation(items, members, weight):
    """The AssignmentValuation of a weight table over ``items``, negative
    weights clamped to 0, since the constructor refuses them."""
    return AssignmentValuation(members, {mb: {it: max(weight(mb, it), 0) for it in items}
                                         for mb in members})


def _assert_valid_witness(valuation, bundle, value, witness):
    """Distinct members, positive weights, bundle items only, and a weight
    sum equal to the value."""
    assert set(witness) <= set(bundle)
    assert len(set(witness.values())) == len(witness)
    assert all(valuation.weights[mb].get(it, 0) > 0 for it, mb in witness.items())
    assert sum(valuation.weights[mb][it] for it, mb in witness.items()) == value


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
    v = AssignmentValuation(["m1", "m2"], {"m1": {"a": 5, "b": 4}, "m2": {"a": 3}})
    total, witness = v.assignment_value({"a", "b"})
    assert total == 7
    assert witness == {"a": "m2", "b": "m1"}


def test_weight_zero_edges_never_matched():
    v = _valuation(["a", "b"], ["m1", "m2"], lambda mb, it: 0)
    assert v._edges == (1, {})
    assert v.assignment_value({"a", "b"}) == (0, {})


def test_weight_matches_brute_force_fuzz():
    rng = random.Random(1404)
    for _ in range(200):
        items = ["o%d" % k for k in range(rng.randint(0, 5))]
        members = ["m%d" % k for k in range(rng.randint(0, 4))]
        table = {(mb, it): Fraction(rng.randint(0, 9), rng.choice((1, 2, 4)))
                 for mb in members for it in items if rng.random() < 0.6}

        def weight(mb, it):
            return table.get((mb, it), 0)

        v = _valuation(items, members, weight)
        total, witness = v.assignment_value(items)
        want = brute_force_matching_value(items, members, weight)
        assert total == want and type(total) is type(_norm(want))
        _assert_valid_witness(v, items, total, witness)


def test_weight_witness_deterministic():
    """A witness is a function of its bundle: value_with calls made before
    it, in any order, leave it as a fresh copy grows it."""
    rng = random.Random(8)
    items = ["o%d" % k for k in range(5)]
    members = ["m%d" % k for k in range(4)]
    table = {(mb, it): rng.randint(0, 3) for mb in members for it in items}
    first = _valuation(items, members, lambda mb, it: table[(mb, it)]).assignment_value(items)
    for _ in range(3):
        v = _valuation(items, members, lambda mb, it: table[(mb, it)])
        bundle = frozenset()
        for o in rng.sample(items, len(items)):
            v.value_with(bundle, o)
            bundle |= {o}
        got = v.assignment_value(items)
        assert got == first and list(got[1].items()) == list(first[1].items())


def _reference_max_weight_matching(items, members, weight):
    """The former weighted kernel, on the weights as given: the reference for
    assignment_value's values (its witnesses may break ties otherwise).

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


def test_assignment_value_matches_the_reference_kernel():
    """Values (and their types) equal the former kernel's on every weight
    family; each witness is valid and equals a fresh copy's, whatever
    value_with calls came before it."""
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

        v = _valuation(items, members, weight)
        bundles = [frozenset(), frozenset(rng.sample(items, rng.randint(0, len(items)))),
                   frozenset(items)]
        if items and rng.random() < 0.5:  # a value_with history before any witness
            seen["value_with history"] += 1
            for _ in range(4):
                v.value_with(rng.choice(bundles), rng.choice(items))
        for bundle in bundles:
            got = v.assignment_value(bundle)
            total, _ = _reference_max_weight_matching(sorted(bundle), members, weight)
            want = _norm(total)
            assert got[0] == want and type(got[0]) is type(want), (table, bundle)
            _assert_valid_witness(v, bundle, *got)
            fresh = _valuation(items, members, weight).assignment_value(bundle)
            assert list(got[1].items()) == list(fresh[1].items())
        positive = [w for w in table.values() if w > 0]
        if not items or not members:
            seen["empty side"] += 1
        elif not positive:
            seen["no positive weight"] += 1
        seen[type(want).__name__] += 1
        if any(w < 0 for w in table.values()):
            seen["negative weight"] += 1
        if lcm(*(Fraction(w).denominator for w in positive)) > 10 ** 6:
            seen["lcm above 10^6"] += 1
        if len(got[1]) >= 3:
            seen["three or more matched"] += 1
    assert min(seen.values()) >= 100, seen
    assert len(seen) == 8, seen


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


def _reference_augment(edges, total, mates, item):
    """The former ``AssignmentValuation._augment``, on item -> member mates:
    (scaled total, matching) after the best alternating path from the
    unmatched ``item``; the inputs when no path gains."""
    holder = {member: x for x, member in mates.items()}
    gain = {item: 0}
    expanded = {}
    reach, came = {}, {}
    queue = [item]
    for x in queue:
        gx, mate = gain[x], mates.get(x)
        if expanded.get(x) == gx:
            continue
        expanded[x] = gx
        for member, w in edges.get(x, {}).items():
            g = gx + w
            if member == mate or (member in reach and reach[member] >= g):
                continue
            reach[member], came[member] = g, x
            if member in holder:
                y = holder[member]
                gain[y] = g - edges[y][member]
                queue.append(y)
    best, end = 0, None
    for member, g in reach.items():
        if member not in holder and g > best:
            best, end = g, member
    for y, g in gain.items():
        if y != item and g > best:
            best, end = g, mates[y]
    if end is None:
        return total, mates
    grown = dict(mates)
    if end in holder:
        del grown[holder[end]]
    x = None
    while x != item:
        x = came[end]
        grown[x], end = end, mates.get(x)
    return total + best, grown


def _reference_match(edges, holder, items):
    """The former ``BinaryAssignmentValuation._match``: grows ``holder``
    (member -> item) by a depth-first augmenting-path search per item."""
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


class _ReferenceEngine:
    """The former assignment_value and value_with of one valuation, with
    their own cache and value-only store of (scaled total, item -> member)."""

    def __init__(self, valuation):
        self.binary = isinstance(valuation, BinaryAssignmentValuation)
        self.scale, self.edges = valuation._edges
        self.cache, self.grown = {}, {}

    def _augment(self, total, mates, item):
        if not self.binary:
            return _reference_augment(self.edges, total, mates, item)
        holder = {member: x for x, member in mates.items()}
        _reference_match(self.edges, holder, (item,))
        if len(holder) == len(mates):
            return total, mates
        return total + 1, {x: member for member, x in holder.items()}

    def assignment_value(self, bundle):
        bundle = frozenset(bundle)
        if bundle not in self.cache:
            if self.binary:
                holder = {}
                _reference_match(self.edges, holder, sorted(bundle))
                witness = {x: member for member, x in holder.items()}
                self.cache[bundle] = (len(witness), witness)
            else:
                total, witness = 0, {}
                for item in sorted(bundle):
                    total, witness = self._augment(total, witness, item)
                self.cache[bundle] = (_unscaled(total, self.scale), witness)
        return self.cache[bundle]

    def value_with(self, bundle, item):
        bundle = frozenset(bundle)
        grown = bundle | {item}
        if grown in self.cache:
            return self.cache[grown][0]
        if grown not in self.grown:
            hit = self.grown.get(bundle)
            if hit is None:
                value, witness = self.assignment_value(bundle)
                hit = (int(value * self.scale), witness)
            if item not in bundle:
                hit = self._augment(*hit, item)
            self.grown[grown] = hit
        return _unscaled(self.grown[grown][0], self.scale)


_DIFFERENTIAL_WEIGHTS = (1, 2, 3, Fraction(1, 2), Fraction(5, 3))


def _differential_valuation(rng, binary, items, members, seen):
    density = rng.uniform(0.2, 0.7)
    pairs = [(mb, it) for mb in members for it in items if rng.random() < density]
    if binary:
        adjacency = {mb: [] for mb in members}
        for mb, it in pairs:
            adjacency[mb].append(it)
        return BinaryAssignmentValuation(adjacency)
    tie = rng.random() < 0.25  # every weight equal
    if tie:
        seen["equal weights"] += 1
    weight = rng.choice(_DIFFERENTIAL_WEIGHTS)
    weights = {mb: {} for mb in members}
    for mb, it in pairs:
        weights[mb][it] = weight if tie else rng.choice(_DIFFERENTIAL_WEIGHTS)
    return AssignmentValuation(members, weights)


def _grown_mates(valuation):
    """The value-only store with each holder read as item -> member."""
    return {bundle: (total, {x: member for member, x in holder.items()})
            for bundle, (total, holder) in valuation._grown.items()}


def _snapshot(valuation, bundles):
    return ({bundle: (value, dict(witness)) for bundle in bundles
             for value, witness in (valuation.assignment_value(bundle),)},
            {bundle: (total, dict(holder))
             for bundle, (total, holder) in valuation._grown.items()})


def test_grown_holders_match_the_former_engines():
    """Each class's one engine, ``_grow``, gives the former engines' values,
    witnesses and value-only store on seeded bundles and value_with chains
    in random item orders; a chain changes no witness and no stored holder
    it did not write.  (0,1)-OXS witnesses also keep their iteration order;
    weighted ones are compared as mappings, since a witness read off a
    holder lists its items in the order their members were first matched."""
    rng = random.Random(30)
    seen = Counter()
    for case in range(1100):
        binary = case % 2 == 1
        kind = "binary" if binary else "weighted"
        items = ["o%d" % k for k in range(rng.randint(0, 10))]
        members = ["m%d" % k for k in range(rng.randint(1, 5))]
        v = _differential_valuation(rng, binary, items, members, seen)
        ref = _ReferenceEngine(v)
        bundles = [frozenset(items)] + [frozenset(rng.sample(items, rng.randint(0, len(items))))
                                        for _ in range(3)]
        for bundle in bundles:
            got, want = v.assignment_value(bundle), ref.assignment_value(bundle)
            assert got == want and type(got[0]) is type(want[0]), (kind, bundle)
            if binary:
                assert list(got[1].items()) == list(want[1].items())
            seen[kind + " bundles"] += 1
            seen[kind + " unmatched item"] += len(got[1]) < len(bundle)
        for _ in range(2):  # value_with chains from a start bundle
            before = _snapshot(v, bundles)
            bundle = frozenset(rng.sample(items, rng.randint(0, len(items))))
            for item in rng.sample(items, len(items)):
                probe = rng.choice(items)
                assert v.value_with(bundle, probe) == ref.value_with(bundle, probe)
                got, want = v.value_with(bundle, item), ref.value_with(bundle, item)
                assert got == want and type(got) is type(want), (kind, bundle, item)
                seen[kind + " value_with steps"] += 1
                bundle |= {item}
            after = _snapshot(v, bundles)
            assert after[0] == before[0]
            assert {b: after[1][b] for b in before[1]} == before[1]
            assert _grown_mates(v) == ref.grown
    for kind in ("binary", "weighted"):
        assert seen[kind + " bundles"] >= 2000 and seen[kind + " value_with steps"] >= 2000, seen
        assert seen[kind + " unmatched item"] >= 200, seen
    assert seen["equal weights"] >= 100, seen
