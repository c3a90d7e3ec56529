"""Exhaustive enumeration ground truth for small instances.

Scans every placement of items (each goes to one agent or is withheld),
computes exact optima under several welfare objectives, and machine-checks
the structural relationships that hold between those optima under
matroid-rank valuations.  Every scan refuses to start once the number of
placements exceeds an explicit budget: this module is a measuring
instrument for tests, not a solver.

``_Walk`` over the bitmask value tables of ``_tables`` is the package's
one placement walk: ``fairness`` runs on it too, to name Pareto witnesses
and to check valuations outside the matroid rank families, behind the
same budget gate (``_gate``).  It fixes the leading half of the items per
block and gathers the keys of every placement of the trailing half with
``itemgetter``, one int per value vector.  An agent's trailing column
depends only on its own leading items, so a block's keys depend only on
its *shape*, the tuple of its agents' distinct-column numbers; each shape
is summed and counted once.  Checks decide on the distinct vectors, which
one counting walk gathers (``_Walk.counts``), which records each shape's
distinct keys on the walk.  The walk decodes its own placements, in
enumeration order, to name a witness or when a check needs more than a
vector: ``_Walk.allocations`` yields those whose vector is wanted,
rebuilding only the blocks whose shape's record holds one, and
``_Walk.first`` returns the first whose vector passes a test, building
only each shape's first block.
Cleanliness and EF1 are then asked of ``core``'s predicates
(``first_zero_marginal``, ``first_ef1_violation``) on the decoded
allocation, so the theorem checks test the same rules as the solvers and
``check``.  The ``convex`` gauge argument is read by the min_convex
objective only.

The verification routines run on any instance; their pass guarantees are
only promised for matroid-rank valuations, and running them on other
valuation classes is how the expected failures are demonstrated.
"""

from collections import Counter
from dataclasses import dataclass
from functools import partial, reduce
from itertools import compress, count, islice
from operator import add, getitem, itemgetter
from typing import Callable, Mapping, Optional

from .core import (ENUMERATION_BUDGET, Allocation, BudgetExceeded, Instance,
                   first_ef1_violation, first_zero_marginal, values_vector)
from .valuations import subset_tables

WITNESS_CAP = 64

OBJECTIVES = ("usw", "egalitarian", "leximin", "mnw", "min_convex", "max_concave")


def sum_squares(vector) -> object:
    return sum(z * z for z in vector)


def sum_fourth(vector) -> object:
    return sum(z ** 4 for z in vector)


def iterated_power(vector) -> object:
    """Product of z**z over positive entries; 0 contributes the factor 1.

    On non-negative integer vectors this orders exactly like the sum of
    z*ln(z) (with the 0*ln(0)=0 limit convention) while staying in exact
    integer arithmetic.
    """
    out = 1
    for z in vector:
        if z > 0:
            out *= z ** z
    return out


CONVEX_BUILTINS: Mapping[str, Callable] = {
    "sum_squares": sum_squares,
    "sum_fourth": sum_fourth,
    "zlogz": iterated_power,
}


def nash_key(vector):
    """(support size, product over the support); bigger is better.

    The empty support gets product 1 so that any agent with positive value
    beats the all-zero vector on the first component already.
    """
    support = [z for z in vector if z > 0]
    prod = 1
    for z in support:
        prod *= z
    return (len(support), prod)


def leximin_key(vector):
    return tuple(sorted(vector))


@dataclass(frozen=True)
class OracleResult:
    objective: str
    optimal_value: object
    optimal_vector: tuple
    witnesses: tuple
    witness_count: int
    scanned: int


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    ok: bool
    detail: str = ""
    counterexample: Optional[dict] = None


@dataclass(frozen=True)
class EquivalenceReport:
    outcomes: tuple

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def outcome(self, name: str) -> CheckOutcome:
        for candidate in self.outcomes:
            if candidate.name == name:
                return candidate
        raise KeyError(name)


def _gate(instance: Instance, complete_only: bool, budget: int,
          what: str = "allocation enumeration") -> None:
    """Refuse with BudgetExceeded(what, ...) when a scan of the instance's
    placements (withholding allowed unless complete_only) exceeds budget."""
    base = instance.n if complete_only else instance.n + 1
    if base ** instance.m > budget:
        raise BudgetExceeded(what, base ** instance.m, budget)


def _tables(instance: Instance, complete_only: bool, budget: int, valuations=None,
            what: str = "allocation enumeration") -> list:
    """A value table per valuation, the agents' by default.

    Passes ``_gate`` first.  Bit p of a mask stands for the p-th item in
    index order.  With a single placement (one agent, no withholding) a
    table is the one-entry list [v(M)]; otherwise 2^m <= base^m <= budget
    and it covers every subset.
    """
    _gate(instance, complete_only, budget, what)
    items = instance.items
    if valuations is None:
        valuations = [instance.valuation(agent) for agent in instance.agents]
    if (instance.n if complete_only else instance.n + 1) < 2:
        return [[valuation.value(frozenset(items))] for valuation in valuations]
    return subset_tables(valuations, items)


def _digit_masks(n, base, length):
    """masks[k][t]: agent k's bits in the t-th of base^length placements, in lex order."""
    masks = [[0]] * n
    for _ in range(length):  # prepend a leading digit, which takes bit 0
        masks = [[(digit == k) | rest << 1 for digit in range(base) for rest in agent]
                 for k, agent in enumerate(masks)]
    return masks


class _Walk:
    """Every placement of m items over per-agent value tables, block by block.

    Digit p of a placement gives item p to the agent of that index; digit
    n withholds it and is absent when complete_only is set.  Placements are
    numbered in lex order.  A block fixes the leading m // 2 digits, the low
    bits of every mask, and lists the keys of the trailing placements,
    numbered start + t.

    A key is one int that stands for a placement's value vector: agent k's
    distinct values are numbered in table order, and the key is the sum of
    number_k(v_k) * radix**k.  A block's keys are then the elementwise sums
    of the agents' gathered key columns, and the checks count and test one
    int per placement instead of a tuple.

    Agent k's column in a block depends only on agent k's own leading
    mask, so each agent gathers one column per leading mask, and equal
    columns share one number.  A block's *shape* is the tuple of its
    agents' column numbers, and blocks of one shape hold the same keys:
    the walk sums and counts each distinct shape once, and a repeated
    shape holds no key that its first block lacks.
    """

    def __init__(self, instance: Instance, tables, complete_only):
        n, m = len(tables), instance.m
        self.instance, self.complete_only = instance, complete_only
        self.base = n if complete_only else n + 1
        self.values = [list(dict.fromkeys(table)) for table in tables]
        self.radix = max(map(len, self.values), default=1)
        self.powers = [self.radix ** k for k in range(n)]
        self.numbers = [{value: number * power for number, value in enumerate(values)}
                        for values, power in zip(self.values, self.powers)]
        head = m // 2
        if self.base < 2 or not m:  # one block: a column of zeros, one key per placement
            self.size = self.base ** m
            self.columns, self.shapes = [[[0] * self.size]], [(0,)]
            return
        self.size, self.columns, numbered = self.base ** (m - head), [], []
        for numbers, table, masks in zip(self.numbers, tables,
                                         _digit_masks(n, self.base, m - head)):
            column, gather = list(map(numbers.__getitem__, table)), itemgetter(*masks)
            distinct = {}  # gathered column -> its number, in order of first gather
            numbered.append([distinct.setdefault(gather(column[lead::1 << head]), len(distinct))
                             for lead in range(1 << head)])
            self.columns.append(list(distinct))
        self.shapes = list(zip(*(map(number.__getitem__, lead) for number, lead
                                 in zip(numbered, _digit_masks(n, self.base, head)))))

    def vectors(self, keys):
        """The value vectors of the list ``keys``, in order."""
        if not self.values:
            return iter([()] * len(keys))
        return zip(*(map(values.__getitem__, [key // power % self.radix for key in keys])
                     for values, power in zip(self.values, self.powers)))

    def key(self, vector) -> int:
        return sum(numbers[value] for numbers, value in zip(self.numbers, vector))

    def keys(self, shape) -> list:
        """The keys of every block of ``shape``, in order."""
        return list(reduce(partial(map, add), map(getitem, self.columns, shape)))

    def counts(self) -> Counter:
        """Placements per distinct vector, keyed in order of first occurrence.

        Shapes are counted in order of first appearance, which keeps that
        order.  ``record`` maps each distinct shape to its distinct keys.
        """
        counts, self.record = Counter(), {}
        for shape, times in Counter(self.shapes).items():
            block = Counter(self.keys(shape))
            counts.update(block if times == 1 else
                          {key: number * times for key, number in block.items()})
            self.record[shape] = tuple(block)
        return Counter(dict(zip(self.vectors(list(counts)), counts.values())))

    def allocations(self, wanted):
        """Yield the placements whose vector is in ``wanted``, in order.

        Only the blocks whose shape holds a wanted key, by the ``record``
        of ``counts``, are built.
        """
        wanted = set(map(self.key, wanted))
        holding = {shape for shape, keys in self.record.items() if not wanted.isdisjoint(keys)}
        for h, shape in enumerate(self.shapes):
            if shape in holding:
                for index in compress(count(h * self.size),
                                      map(wanted.__contains__, self.keys(shape))):
                    yield _allocation_at(self.instance, index, self.complete_only)

    def first(self, test):
        """The first placement whose vector passes ``test``, or None.

        Only each shape's first block is built, since a repeated shape
        holds no fresh key, and each distinct key is tested once.
        """
        seen = set()  # keys of earlier blocks, none of which passes
        for shape in dict.fromkeys(self.shapes):
            keys = self.keys(shape)
            fresh = list(set(keys) - seen)
            seen.update(fresh)
            passing = {key for key, vector in zip(fresh, self.vectors(fresh)) if test(vector)}
            if passing:
                start = self.shapes.index(shape) * self.size
                index = next(compress(count(start), map(passing.__contains__, keys)))
                return _allocation_at(self.instance, index, self.complete_only)
        return None


def _allocation_at(instance: Instance, index, complete_only=False) -> Allocation:
    """The placement numbered ``index``: its base-(n+1) digits, n when
    complete_only, place the items in order, and digit n withholds."""
    base, m = (instance.n if complete_only else instance.n + 1), instance.m
    bundles = [[] for _ in range(instance.n + 1)]
    for p, item in enumerate(instance.items):
        bundles[index // base ** (m - 1 - p) % base].append(item)
    return Allocation.from_bundles(instance, dict(zip(instance.agents, bundles)))


def enumerate_allocations(instance: Instance, complete_only: bool = False,
                          budget: int = ENUMERATION_BUDGET):
    """Stream every allocation (including withholding) in lexicographic order."""
    _gate(instance, complete_only, budget)
    base = instance.n if complete_only else instance.n + 1
    for index in range(base ** instance.m):
        yield _allocation_at(instance, index, complete_only)


def _gauge(convex) -> Callable:
    return CONVEX_BUILTINS[convex] if isinstance(convex, str) else convex


def _objective_key(objective: str, convex):
    if objective == "usw":
        return lambda vector: sum(vector)
    if objective == "egalitarian":
        return lambda vector: min(vector)
    if objective == "leximin":
        return leximin_key
    if objective == "mnw":
        return nash_key
    if objective == "min_convex":
        phi = _gauge(convex)
        return lambda vector: (sum(vector), -phi(vector))
    if objective == "max_concave":
        return lambda vector: (sum(vector), nash_key(vector))
    raise ValueError("unknown objective: %r" % (objective,))


def _reported_optimum(objective: str, key, vector, convex):
    if objective == "min_convex":
        return (key[0], _gauge(convex)(vector))
    return key


def oracle_optimal(instance: Instance, objective: str, convex="sum_squares",
                   complete_only: bool = False, budget: int = ENUMERATION_BUDGET,
                   witness_cap: int = WITNESS_CAP) -> OracleResult:
    """Exact optimum of the objective by full enumeration.

    usw and egalitarian maximize their scalar; leximin maximizes the
    ascending sorted vector lexicographically; mnw maximizes support size
    and then the product over the support.  Among utilitarian-optimal
    allocations, min_convex minimizes the symmetric convex gauge
    ``convex`` (a CONVEX_BUILTINS name or a function), and max_concave
    maximizes the sum of ln z with the largest-support refinement, i.e.
    the Nash key.  ``convex`` is read by min_convex only.  Witnesses come
    out in enumeration order, capped at witness_cap.
    """
    if objective not in OBJECTIVES:
        raise ValueError("unknown objective: %r" % (objective,))
    key_of = _objective_key(objective, convex)
    walk = _Walk(instance, _tables(instance, complete_only, budget), complete_only)
    counts = walk.counts()
    keys = {vector: key_of(vector) for vector in counts}
    best_vector = max(keys, key=keys.__getitem__, default=None)
    best_key = keys.get(best_vector)
    winners = {vector for vector, key in keys.items() if key == best_key}
    return OracleResult(
        objective=objective,
        optimal_value=_reported_optimum(objective, best_key, best_vector, convex),
        optimal_vector=best_vector,
        witnesses=tuple(islice(walk.allocations(winners), witness_cap)),
        witness_count=sum(counts[vector] for vector in winners),
        scanned=sum(counts.values()),
    )


def _dominates(winner, loser) -> bool:
    better = False
    for a, b in zip(winner, loser):
        if a < b:
            return False
        if a > b:
            better = True
    return better


def verify_equivalences(instance: Instance,
                        budget: int = ENUMERATION_BUDGET) -> EquivalenceReport:
    """Machine-check the structural claims that full enumeration can decide.

    Six outcomes, all by exhaustive scan:

    - pareto_implies_usw_optimal: every undominated valuation vector has
      maximal sum.
    - optimizer_sets_coincide: the sorted-vector sets of the leximin
      optima, the Nash-welfare optima, the sum-of-squares and
      sum-of-fourth-powers minimizers among utilitarian optima, and the
      log-sum maximizers among utilitarian optima are all the same
      singleton.
    - clean_leximin_ef1 / clean_mnw_ef1: every clean optimal allocation
      of the respective kind is envy-free up to one item.
    - usw_optimal_reachability: every utilitarian-optimal allocation that
      is not leximin admits a one-unit transfer from a richer agent
      (by at least 2) to a poorer one that lands on another achievable
      utilitarian-optimal vector.
    - pigou_dalton_consistency: across achievable utilitarian-optimal
      vector pairs related by such a transfer, the convex gauges strictly
      decrease and the Nash key strictly increases.

    All six provably hold for matroid-rank valuations; counterexamples on
    other valuation classes are reported, not raised.
    """
    walk = _Walk(instance, _tables(instance, False, budget), False)
    counts = walk.counts()
    vectors = set(counts)
    max_usw = max(sum(vector) for vector in vectors)
    usw_optimal = {vector for vector in vectors if sum(vector) == max_usw}
    outcomes = []

    # (a) Pareto optimality forces utilitarian optimality.
    pareto_gap = next((vector for vector in sorted(vectors) if sum(vector) != max_usw
                       and not any(_dominates(other, vector) for other in vectors)), None)
    outcomes.append(CheckOutcome(
        name="pareto_implies_usw_optimal",
        ok=pareto_gap is None,
        detail="" if pareto_gap is None else
        "undominated vector with non-maximal sum: %s (sum %s < %s)" % (
            pareto_gap, sum(pareto_gap), max_usw),
        counterexample=None if pareto_gap is None else {
            "vector": pareto_gap,
            "allocation": walk.first(pareto_gap.__eq__),
        },
    ))

    # (b) The five optimizer families single out the same sorted vector.
    def optimal_vectors(objective, convex="sum_squares"):
        key_of = _objective_key(objective, convex)
        keys = {vector: key_of(vector) for vector in vectors}
        best = max(keys.values())
        return {vector for vector, key in keys.items() if key == best}

    optima = {
        "leximin": optimal_vectors("leximin"),
        "mnw": optimal_vectors("mnw"),
        "min_sum_squares_among_usw_optimal": optimal_vectors("min_convex", "sum_squares"),
        "min_sum_fourth_among_usw_optimal": optimal_vectors("min_convex", "sum_fourth"),
        "max_log_sum_among_usw_optimal": optimal_vectors("max_concave"),
    }
    leximin_optima, nash_optima = optima["leximin"], optima["mnw"]
    families = {name: set(map(leximin_key, found)) for name, found in optima.items()}
    coincide = all(family == families["leximin"] for family in families.values())
    singleton = all(len(family) == 1 for family in families.values())
    outcomes.append(CheckOutcome(
        name="optimizer_sets_coincide",
        ok=coincide and singleton,
        detail="" if coincide and singleton else
        "optimizer families diverge: %s" % (
            {name: sorted(family) for name, family in families.items()},),
        counterexample=None if coincide and singleton else {
            name: sorted(family) for name, family in families.items()},
    ))

    # (c) Clean optima of either kind are envy-free up to one item.
    violations = {}
    for allocation in walk.allocations(leximin_optima | nash_optima):
        if (first_zero_marginal(instance, allocation) is not None
                or first_ef1_violation(instance, allocation) is None):
            continue
        vector = values_vector(instance, allocation)
        for name, optimal in (("clean_leximin_ef1", leximin_optima),
                              ("clean_mnw_ef1", nash_optima)):
            if vector in optimal:
                violations.setdefault(name, (vector, allocation))
        if len(violations) == 2:
            break
    for name in ("clean_leximin_ef1", "clean_mnw_ef1"):
        violation = violations.get(name)
        outcomes.append(CheckOutcome(
            name=name,
            ok=violation is None,
            detail="" if violation is None else
            "clean optimal allocation with vector %s violates EF1" % (violation[0],),
            counterexample=None if violation is None else {
                "vector": violation[0], "allocation": violation[1]},
        ))

    # (d) Non-leximin utilitarian optima can always move one unit down.
    def balancing_transfers(vector):
        # one unit from j to i, j richer by at least 2, landing in usw_optimal
        for i in range(len(vector)):
            for j in range(len(vector)):
                if vector[j] >= vector[i] + 2:
                    shifted = list(vector)
                    shifted[i] += 1
                    shifted[j] -= 1
                    if tuple(shifted) in usw_optimal:
                        yield tuple(shifted)

    unreachable = next((vector for vector in sorted(usw_optimal - leximin_optima)
                        if next(balancing_transfers(vector), None) is None), None)
    outcomes.append(CheckOutcome(
        name="usw_optimal_reachability",
        ok=unreachable is None,
        detail="" if unreachable is None else
        "utilitarian-optimal vector %s admits no balancing one-unit transfer"
        % (unreachable,),
        counterexample=None if unreachable is None else {
            "vector": unreachable,
            "allocation": walk.first(unreachable.__eq__),
        },
    ))

    # (e) One-unit balancing transfers move every gauge the right way.
    gauge_breach = next((
        (vector, shifted)
        for vector in sorted(usw_optimal) for shifted in balancing_transfers(vector)
        if not (sum_squares(shifted) < sum_squares(vector)
                and sum_fourth(shifted) < sum_fourth(vector)
                and nash_key(shifted) > nash_key(vector))), None)
    outcomes.append(CheckOutcome(
        name="pigou_dalton_consistency",
        ok=gauge_breach is None,
        detail="" if gauge_breach is None else
        "transfer %s -> %s failed to improve every gauge" % gauge_breach,
        counterexample=None if gauge_breach is None else {
            "before": gauge_breach[0], "after": gauge_breach[1]},
    ))

    return EquivalenceReport(outcomes=tuple(outcomes))


def max_usw_value(instance: Instance, complete_only: bool = False,
                  budget: int = ENUMERATION_BUDGET):
    """Maximum utilitarian welfare over the enumerated allocations."""
    tables = _tables(instance, complete_only, budget)
    return max(map(sum, _Walk(instance, tables, complete_only).counts()))


def usw_optimal_all_clean_complete(instance: Instance,
                                   budget: int = ENUMERATION_BUDGET) -> bool:
    """Whether every utilitarian-optimal allocation is clean and complete.

    For matroid-rank valuations this holds exactly when the maximal
    utilitarian welfare equals the number of items.  The optima are
    streamed in enumeration order and the scan stops at the first one
    that withholds an item or is unclean.
    """
    walk = _Walk(instance, _tables(instance, False, budget), False)
    counts = walk.counts()
    best = max(map(sum, counts))
    return not any(allocation.withheld or first_zero_marginal(instance, allocation) is not None
                   for allocation in walk.allocations({v for v in counts if sum(v) == best}))
