"""Valuation families and the exhaustive matroid-rank verifier.

All families expose value(bundle) with exact results.  The assignment
families additionally expose assignment_value(bundle), returning the value
together with a deterministic witness matching of bundle items to members;
the witness never pairs an item with a member that weights it zero.
Both grow it from the empty matching over the sorted bundle, one item at a
time: weighted assignment valuations by the best alternating path from
each item (``_augment``), (0,1)-OXS valuations (BinaryAssignmentValuation)
by a depth-first augmenting-path search (``_match``).  Every matching reads
the valuation's one integer weight index, ``_edges``, and divides its total
back by the index's scale.

The families whose matroid is explicit (binary additive, transversal and
truncations of either) also expose exchange(bundle, items): for a clean
bundle A, the items o outside A with v(A + o) = |A| + 1 (sinks), and for
every other o the sorted items x of A with v(A - x + o) = |A| (o's circuit
in A + o, without o).  It reads both off the matroid's structure instead
of asking value, and returns None when A is not clean.  They also answer
coloops(bundle), for any bundle A: the items x of A with v(A - x) =
v(A) - 1, which every basis of A contains.  Since a matroid rank never
exceeds the bundle's size and loses 1 exactly at a coloop, this decides
EF1 without valuing A minus each item (``core.ef1_pair``).  A truncation
has the query only when its inner valuation has it.

Assignment valuations also expose value_with(bundle, item), the value of
bundle + item found by one alternating-path search from item over bundle's
maximum-weight matching, instead of a matching from scratch; on (0,1)-OXS
valuations that search is a single augmenting path.  It takes that matching
from a value-only store of the matchings value_with itself grew, else from
assignment_value's witness, and writes the grown one only to the store.
Witnesses never come from the store: value() and assignment_value() read
only their cache of matchings from scratch, so the matchings that waste
accounting and the transfer heuristics see stay those.  A truncation has value_with
only when its inner valuation has it.

``subset_tables`` gives every subset's value as a list in bitmask order.
The explicit families read theirs off their matroid's structure through
subset_table(items): binary additive counts approved items, (0,1)-OXS
takes Ore's deficiency form of Hall's theorem over its member sets (up to
_TABLE_MEMBERS members), and a truncation caps its inner table.  Every
other table is grown, each subset from its predecessor by one item
through value_with wherever a valuation has it, and each subset valued
afresh otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import starmap
from math import lcm
from types import MappingProxyType
from typing import Mapping

from .core import BudgetExceeded

EXHAUSTIVE_LIMIT = 14
# The most members for which a (0,1)-OXS valuation reads its table off its
# 2^p member sets; past it, growing the table by augmenting paths is faster.
_TABLE_MEMBERS = 7


def _norm(value):
    """Collapse integral Fractions to int; leave everything else alone."""
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


def _unscaled(total, scale):
    """total / scale exactly: an int when whole, else a Fraction."""
    return total // scale if total % scale == 0 else Fraction(total, scale)


def _mask(chosen, items):
    """The bitmask of the items in ``chosen``; bit p stands for items[p]."""
    return sum(1 << p for p, item in enumerate(items) if item in chosen)


def _subset(items, mask):
    """The subset of ``items`` whose bits are set in ``mask``."""
    return frozenset(item for p, item in enumerate(items) if mask >> p & 1)


def _table_of(valuation, items):
    """The valuation's subset_table(items), or None when it has none."""
    table = getattr(valuation, "subset_table", None)
    return None if table is None else table(items)


def _counts(mask, m, base=0):
    """[base + |s & mask| for every mask s of m bits], by doubling: the masks
    with bit p follow those without it, one higher where ``mask`` has bit p."""
    row = [base]
    for p in range(m):
        row += [x + 1 for x in row] if mask >> p & 1 else row
    return row


@dataclass(frozen=True)
class BinaryAdditiveValuation:
    """v(S) = number of approved items inside S."""

    approved: frozenset

    def __post_init__(self):
        object.__setattr__(self, "approved", frozenset(self.approved))

    def value(self, bundle) -> int:
        return len(self.approved & frozenset(bundle))

    def exchange(self, bundle, items):
        """Free matroid on the approved items: every circuit is a loop."""
        if not self.approved >= bundle:
            return None
        return ({o for o in items if o in self.approved and o not in bundle},
                {o: [] for o in items if o not in self.approved})

    def coloops(self, bundle):
        """Removing an approved item costs 1, any other item nothing."""
        return self.approved & bundle

    def subset_table(self, items):
        """Every subset's value: its count of approved items."""
        return _counts(_mask(self.approved, items), len(items))


class AssignmentValuation:
    """v(S) = weight of a maximum-weight matching of S's items to members.

    ``weights`` maps member -> {item: weight}; weights must be non-negative
    ints or Fractions, and zero weights are equivalent to absent entries.
    Member order is the order of ``members``; it drives witness tie-breaks.
    The stored weights are read-only, since values are cached per bundle.
    """

    def __init__(self, members, weights: Mapping):
        self.members = tuple(members)
        if len(set(self.members)) != len(self.members):
            raise ValueError("duplicate member identifiers")
        wt = {}
        for member in self.members:
            row = {}
            for item, w in dict(weights.get(member, {})).items():
                w = w if isinstance(w, int) else Fraction(w)
                if w < 0:
                    raise ValueError(f"negative weight for ({member!r}, {item!r})")
                if w > 0:
                    row[item] = _norm(w)
            wt[member] = MappingProxyType(row)
        self.weights = MappingProxyType(wt)
        self._cache = {}
        self._grown = {}  # value-only store: bundle -> (scaled total, matching)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.members == other.members
            and self.weights == other.weights
        )

    def __repr__(self):
        return f"{type(self).__name__}(members={self.members!r})"

    def assignment_value(self, bundle) -> tuple:
        """(value, witness) where witness maps items to distinct members: a
        maximum-weight matching grown from empty over the sorted bundle, each
        item by the best alternating path from it (``_augment``)."""
        bundle = frozenset(bundle)
        hit = self._cache.get(bundle)
        if hit is None:
            total, witness = 0, {}
            for item in sorted(bundle):
                total, witness = self._augment(total, witness, item)
            hit = (_unscaled(total, self._edges[0]), witness)
            self._cache[bundle] = hit
        return hit

    def value(self, bundle):
        return self.assignment_value(bundle)[0]

    @cached_property
    def _edges(self):
        """(scale, item -> {member: weight * scale}), members in order: the
        one integer weight index behind every matching of this valuation.

        scale is the LCM of the weights' denominators, so every weight and
        every matching value becomes an integer once multiplied by it.
        """
        scale = lcm(*(w.denominator
                      for row in self.weights.values() for w in row.values()))
        edges = {}
        for member in self.members:
            for item, w in self.weights[member].items():
                edges.setdefault(item, {})[member] = w.numerator * (scale // w.denominator)
        return scale, edges

    def value_with(self, bundle, item):
        """v(bundle + item), grown from a maximum-weight matching M of bundle.

        v(A + o) = v(A) + max(0, g), where g is the best net gain of an
        alternating path that starts at o: o to a member, that member's item
        in M back off it, on to another member, and so on, ending at a free
        member or by dropping an item.  Every other component of M xor M'
        has zero gain, since M and M' are each optimal.  M is bundle's
        cached witness or a matching this method grew; the grown matching
        of bundle + item goes into the value-only store.
        """
        bundle = frozenset(bundle)
        grown = bundle | {item}
        hit = self._cache.get(grown)
        if hit is not None:
            return hit[0]
        scale, _ = self._edges
        if grown not in self._grown:
            hit = self._grown.get(bundle)
            if hit is None:
                value, witness = self.assignment_value(bundle)
                hit = (int(value * scale), witness)
            if item not in bundle:
                hit = self._augment(*hit, item)
            self._grown[grown] = hit
        return _unscaled(self._grown[grown][0], scale)

    def _augment(self, total, mates, item):
        """(scaled total, matching) after the best alternating path from the
        unmatched ``item``: one longest-path search, since M admits no
        gainful alternating cycle.  The inputs when no path gains.  Gains
        only rise, so an item queued again at the gain it was last expanded
        with relaxes nothing and is skipped."""
        _, edges = self._edges
        holder = {member: x for x, member in mates.items()}
        gain = {item: 0}  # item -> best gain of a path that frees it
        expanded = {}  # item -> the gain it was last expanded with
        reach, came = {}, {}  # member -> best gain of a path to it, its item
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
        best, end = 0, None  # a free end member, or the member that drops its item
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


class BinaryAssignmentValuation(AssignmentValuation):
    """Assignment valuation with 0/1 weights, given as adjacency lists.

    v(S) is then the size of a maximum matching of S's items to members,
    i.e. the rank of S in the transversal matroid of the adjacency graph.
    The matching is this class's own augmenting-path search (``_match``):
    assignment_value grows it from empty over the sorted bundle, and
    value_with grows a bundle's matching by one item.  ``weights`` is a
    read-only unit view of the adjacency, built without normalization.
    """

    def __init__(self, adjacency: Mapping):
        rows = {mb: dict.fromkeys(items, 1) for mb, items in adjacency.items()}
        self.members = tuple(rows)
        self.adjacency = MappingProxyType(
            {mb: frozenset(row) for mb, row in rows.items()})
        self.weights = MappingProxyType(
            {mb: MappingProxyType(row) for mb, row in rows.items()})
        self._cache = {}
        self._grown = {}

    @cached_property
    def _edges(self):
        """(1, item -> {member: 1}), members in order."""
        edges = {}
        for member in self.members:
            for item in self.adjacency[member]:
                edges.setdefault(item, {})[member] = 1
        return 1, edges

    def _match(self, holder, items):
        """Grow ``holder`` (member -> item) by a depth-first augmenting-path
        search from each of ``items`` in turn, members in order, on a stack of
        [item, member tried, members left].  A search that fails leaves holder
        as it was."""
        _, edges = self._edges
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

    def assignment_value(self, bundle) -> tuple:
        bundle = frozenset(bundle)
        hit = self._cache.get(bundle)
        if hit is None:
            holder = {}
            self._match(holder, sorted(bundle))
            witness = {x: member for member, x in holder.items()}
            hit = (len(witness), witness)
            self._cache[bundle] = hit
        return hit

    def _augment(self, total, mates, item):
        """(size, matching) after one augmenting-path search from the
        unmatched ``item``; the inputs when no path reaches a free member."""
        holder = {member: x for x, member in mates.items()}
        self._match(holder, (item,))
        if len(holder) == len(mates):
            return total, mates
        return total + 1, {x: member for member, x in holder.items()}

    def exchange(self, bundle, items):
        """Sinks and circuits from alternating paths of A's witness matching.

        A member is good if it is free, or if its item is adjacent to a good
        member: then an alternating path frees it.  o is a sink iff it is
        adjacent to a good member.  Otherwise every member adjacent to o is
        matched, and o's circuit is the set of items reachable from those
        members along alternating paths (member, its item, that item's
        members, ...): exactly the x for which A - x + o has a matching.
        """
        witness = self.assignment_value(bundle)[1] if bundle else {}
        if len(witness) != len(bundle):
            return None
        _, edges = self._edges
        item_of = {member: item for item, member in witness.items()}
        queue = [member for member in self.members if member not in item_of]
        good = set(queue)
        for member in queue:
            for x in self.adjacency[member] & bundle:
                if witness[x] not in good:
                    good.add(witness[x])
                    queue.append(witness[x])
        reach = {}

        def reachable(member):
            if member not in reach:
                found, stack = {item_of[member]}, [item_of[member]]
                while stack:
                    for other in edges[stack.pop()]:
                        if item_of[other] not in found:
                            found.add(item_of[other])
                            stack.append(item_of[other])
                reach[member] = found
            return reach[member]

        sinks, circuits = set(), {}
        for o in items:
            if o in bundle:
                continue
            members = edges.get(o, ())
            if not good.isdisjoint(members):
                sinks.add(o)
            else:
                circuits[o] = sorted(set().union(*map(reachable, members)))
        return sinks, circuits

    def coloops(self, bundle):
        """The items of A that every maximum matching of A covers.

        A backward search over A's witness matching: from the unmatched
        items to their members, then to those members' items.  Each item
        it reaches can be left unmatched by swapping along the way back,
        so v(A - x) = v(A); every matched item it never reaches is a coloop.
        """
        witness = self.assignment_value(bundle)[1]
        _, edges = self._edges
        item_of = {member: item for item, member in witness.items()}
        stack = [x for x in bundle if x not in witness]
        free = set(stack)
        while stack:
            for member in edges.get(stack.pop(), ()):
                x = item_of[member]
                if x not in free:
                    free.add(x)
                    stack.append(x)
        return set(witness) - free

    def subset_table(self, items):
        """Every subset's value by Ore's deficiency form of Hall's theorem.

        A maximum matching of S has size min over the sets T of the p
        members of p - |T| + |N(T) & S| (König: T's complement and N(T) & S
        cover every edge).  Only the least p - |T| for each distinct
        N(T) & items matters, so the table is the least of one count per
        distinct neighbourhood.  None past _TABLE_MEMBERS members.
        """
        if len(self.members) > _TABLE_MEMBERS:
            return None
        least = {0: len(self.members)}  # N(T) & items as a mask -> least p - |T|
        for member in self.members:
            reach = _mask(self.adjacency[member], items)
            for covered, off in list(least.items()):
                if least.get(covered | reach, off) > off - 1:
                    least[covered | reach] = off - 1
        rows = [_counts(covered, len(items), off) for covered, off in least.items()]
        return rows[0] if len(rows) == 1 else list(map(min, *rows))


@dataclass(frozen=True)
class TruncatedValuation:
    """v(S) = min(inner value, cap).  Caps a binary-marginal valuation.

    Capping preserves binary marginals, monotonicity and submodularity, so
    truncating a matroid rank function yields another matroid rank function.
    """

    inner: object
    cap: int

    def __post_init__(self):
        if (isinstance(self.cap, bool) or not isinstance(self.cap, int)
                or self.cap < 0):
            raise ValueError(f"cap must be a non-negative integer, got {self.cap!r}")

    def value(self, bundle):
        return min(self.inner.value(frozenset(bundle)), self.cap)

    def exchange(self, bundle, items):
        """The inner answer below the cap; at the cap no item is a sink, and
        an inner sink's circuit is all of A."""
        exchange = getattr(self.inner, "exchange", None)
        if exchange is None or len(bundle) > self.cap:
            return None
        answer = exchange(bundle, items)
        if answer is None or len(bundle) < self.cap:
            return answer
        sinks, circuits = answer
        return set(), {**circuits, **dict.fromkeys(sinks, sorted(bundle))}

    @property
    def coloops(self):
        """None unless the inner valuation answers coloops; its answer at
        or below the cap, and none above it, where v(A - x) = cap = v(A)."""
        coloops = getattr(self.inner, "coloops", None)
        if coloops is None:
            return None
        return lambda bundle: (set() if self.inner.value(bundle) > self.cap
                               else coloops(bundle))

    @property
    def value_with(self):
        """None unless the inner valuation answers value_with; else its
        answer, capped."""
        value_with = getattr(self.inner, "value_with", None)
        if value_with is None:
            return None
        return lambda bundle, item: min(value_with(bundle, item), self.cap)

    def subset_table(self, items):
        """The inner table capped; None when the inner valuation has none."""
        table, cap = _table_of(self.inner, items), self.cap
        return None if table is None else [value if value < cap else cap for value in table]


@dataclass(frozen=True)
class ScaledValuation:
    """v(S) = lam * inner(S) for a positive rational lam.

    With a binary-marginal inner valuation, marginal gains are 0 or lam, so
    a bundle is clean exactly when it is worth lam times its size.  For
    lam != 1 this family leaves the matroid-rank class on purpose.
    """

    inner: object
    lam: Fraction

    def __post_init__(self):
        lam = self.lam if isinstance(self.lam, int) else Fraction(self.lam)
        if lam <= 0:
            raise ValueError(f"scale factor must be positive, got {self.lam!r}")
        object.__setattr__(self, "lam", _norm(lam))

    def value(self, bundle):
        return _norm(self.lam * self.inner.value(frozenset(bundle)))


@dataclass(frozen=True)
class AllOrNothingValuation:
    """v(S) = 1 if S contains every required item, else 0.

    With two or more required items this valuation is not submodular (the
    marginal gain of the last missing piece jumps from 0 to 1), which makes
    it the canonical negative control for matroid-rank checks.
    """

    required: frozenset

    def __post_init__(self):
        object.__setattr__(self, "required", frozenset(self.required))

    def value(self, bundle) -> int:
        return 1 if self.required <= frozenset(bundle) else 0


def is_matroid_rank_family(valuation) -> bool:
    """True for the families that are matroid rank functions by construction.

    These are binary additive valuations, assignment valuations whose
    weights are all 1 (transversal matroids) and truncations of either.
    The answer comes from the valuation's type and stored weights alone,
    without a value query.
    """
    while isinstance(valuation, TruncatedValuation):
        valuation = valuation.inner
    if isinstance(valuation, BinaryAdditiveValuation):
        return True
    return isinstance(valuation, AssignmentValuation) and all(
        w == 1 for row in valuation.weights.values() for w in row.values())


def subset_tables(valuations, items) -> list:
    """tables[k][mask]: the k-th valuation's value of the subset of ``items``
    whose bits are set in mask; bit p stands for items[p].

    A valuation whose subset_table(items) answers reads its table off its
    matroid's structure.  Every other table is grown: each subset is its
    predecessor (mask without its lowest bit) plus its lowest item, and a
    valuation with value_with grows it so, one item at a time; the others
    value it afresh.  The caller bounds the cost of 2^len(items) values each.
    """
    tables, subsets = [], None
    for valuation in valuations:
        table = _table_of(valuation, items)
        if table is None:
            if subsets is None:
                subsets, steps = _subsets(items)
            grow = getattr(valuation, "value_with", None)
            table = ([valuation.value(subset) for subset in subsets] if grow is None
                     else [valuation.value(subsets[0]), *starmap(grow, steps)])
        tables.append(table)
    return tables


def _subsets(items) -> tuple:
    """(subsets, steps): subsets[mask] is the frozenset of mask's items, each
    its predecessor subsets[mask ^ low] plus its lowest item, and steps holds
    that (predecessor, item) pair for every non-empty mask in order."""
    subsets = [frozenset()] * (1 << len(items))
    steps = []
    for mask in range(1, len(subsets)):
        low = mask & -mask
        parent, item = subsets[mask ^ low], items[low.bit_length() - 1]
        steps.append((parent, item))
        subsets[mask] = parent | {item}
    return subsets, steps


@dataclass(frozen=True)
class RankReport:
    """Outcome of verify_matroid_rank.

    ``ok`` is the verdict; on failure ``axiom`` names the broken property
    ("empty value", "monotonicity", "binary marginals", "cardinality bound",
    "submodularity") and ``witness`` is a dict with the offending subset(s),
    item(s) and values.  ``subsets_checked`` records the scan size.
    """

    ok: bool
    axiom: str = ""
    witness: dict = field(default_factory=dict)
    subsets_checked: int = 0


def verify_matroid_rank(valuation, items) -> RankReport:
    """Exhaustively certify that ``valuation`` is a matroid rank function.

    Checks, over every subset of ``items``: value of the empty set is zero,
    marginal gains lie in {0, 1} (monotone, and so 0 <= v(S) <= |S|), and
    the local submodularity condition  v(S + o) - v(S) >= v(S + o' + o) - v(S + o')
    for all o != o' outside S.  Together these are equivalent to the rank
    axioms of a matroid.

    The scan is exact and exponential; more than EXHAUSTIVE_LIMIT items
    are refused with BudgetExceeded rather than silently sampled.
    The first counterexample in deterministic scan order (subsets by
    ascending bitmask, items by ascending index) is reported.  Once every
    gain is 0 or 1, each subset's gain-1 items are one bitset, and a
    subset's submodularity violations are its gain-0 items that have gain 1
    in some subset one item larger.
    """
    items = list(items)
    m = len(items)
    if m > EXHAUSTIVE_LIMIT:
        raise BudgetExceeded("exhaustive matroid-rank verification", 2**m, 2**EXHAUSTIVE_LIMIT)

    (table,) = subset_tables([valuation], items)
    checked = 2**m

    if table[0] != 0:
        return RankReport(False, "empty value", {"value": table[0]}, checked)

    # ones[mask]: the items outside mask with gain 1; every other gain is 0
    full = (1 << m) - 1
    ones = [0] * (1 << m)
    for mask in range(1 << m):
        free = full ^ mask
        while free:
            bit = free & -free
            free ^= bit
            gain = table[mask | bit] - table[mask]
            if gain == 1:
                ones[mask] |= bit
            elif gain != 0:
                return RankReport(
                    False,
                    "monotonicity" if gain < 0 else "binary marginals",
                    {"subset": _subset(items, mask), "item": items[bit.bit_length() - 1],
                     "gain": gain},
                    checked,
                )

    # local submodularity: an item of gain 0 at mask keeps gain 0 at mask + k2.
    # No k2 needs skipping: ones[mask | k2] lacks k2, and is ones[mask] for k2 in mask.
    bits = [1 << k for k in range(m)]
    for mask in range(1 << m):
        zeros = full & ~mask & ~ones[mask]
        if not zeros:
            continue
        raised = 0
        for bit2 in bits:
            raised |= ones[mask | bit2]
        raised &= zeros
        if raised:
            bit = raised & -raised
            bit2 = next(bit2 for bit2 in bits if ones[mask | bit2] & bit)
            return RankReport(
                False,
                "submodularity",
                {
                    "subset": _subset(items, mask),
                    "item": items[bit.bit_length() - 1],
                    "context_item": items[bit2.bit_length() - 1],
                    "gain_without": table[mask | bit] - table[mask],
                    "gain_with": table[mask | bit2 | bit] - table[mask | bit2],
                },
                checked,
            )
    return RankReport(True, subsets_checked=checked)


def spot_check_matroid_rank(valuation, items, samples: int, seed: int) -> RankReport:
    """Probabilistic variant for instances too large to scan exhaustively.

    Samples random (subset, item, context item) triples and checks the same
    axioms on them.  A pass is NOT a certificate, only a failure is
    conclusive; callers must label results accordingly.
    """
    import random

    items = list(items)
    rng = random.Random(seed)
    checked = 0
    for _ in range(samples):
        sub = frozenset(it for it in items if rng.random() < 0.5)
        outside = [it for it in items if it not in sub]
        checked += 1
        base = valuation.value(sub)
        if not 0 <= base <= len(sub):
            return RankReport(
                False, "cardinality bound", {"subset": sub, "value": base}, checked
            )
        if not outside:
            continue
        o = rng.choice(outside)
        gain = valuation.value(sub | {o}) - base
        if gain < 0:
            return RankReport(False, "monotonicity", {"subset": sub, "item": o, "gain": gain}, checked)
        if gain not in (0, 1):
            return RankReport(
                False, "binary marginals", {"subset": sub, "item": o, "gain": gain}, checked
            )
        rest = [it for it in outside if it != o]
        if rest:
            o2 = rng.choice(rest)
            with_ctx = valuation.value(sub | {o2, o}) - valuation.value(sub | {o2})
            if gain < with_ctx:
                return RankReport(
                    False,
                    "submodularity",
                    {
                        "subset": sub,
                        "item": o,
                        "context_item": o2,
                        "gain_without": gain,
                        "gain_with": with_ctx,
                    },
                    checked,
                )
    return RankReport(True, subsets_checked=checked)
