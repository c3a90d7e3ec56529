"""Envy-induced transfers, the envy-graph baseline, waste and price of fairness.

Two transfer procedures share the same core move (take an item out of an
envied bundle, give it to the envious agent).  Every step, theirs and
the repairs around it, is made and logged by ``TransferLog.move``:

* ``eit_ef1`` works on matroid rank valuations.  Starting from a clean
  utilitarian-optimal allocation, every transfer keeps the allocation clean
  and welfare-optimal, the squared-values potential drops by at least 2 per
  step, and the loop stops on an EF1 allocation within m^2/2 steps.

* ``eit_general`` is the heuristic for weighted assignment valuations;
  it repairs each move by backfilling the donor and cascading the items
  that witness matchings leave unused.  It has no termination guarantee,
  so it runs under a step budget, stops once a round start repeats, and
  reports exhaustion explicitly instead of looping forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import (
    Allocation,
    AllocationError,
    InapplicableAlgorithm,
    Instance,
    TransferabilityViolated,
    assert_valid,
    clean,
    ef1_pair,
    first_ef1_violation,
    format_exact,
    is_clean,
    marginal_gain,
    values_vector,
)
from .matroid_intersection import max_common_independent_set, shortest_path
from .oracle import sum_squares
from .valuations import AssignmentValuation

WITHHELD = "-"  # stands in for the withheld pool in transfer logs


@dataclass(frozen=True)
class TransferStep:
    step: int
    item: str
    source: str
    target: str
    phi_before: object
    phi_after: object


@dataclass
class TransferLog:
    steps: list = field(default_factory=list)

    def move(self, instance, allocation, item, source, target) -> Allocation:
        """``allocation`` with ``item`` moved from ``source`` to ``target``.

        Either end may be WITHHELD, the pool.  The step is logged with the
        potential before and after.
        """
        bundles = {a: set(b) for a, b in allocation.bundles.items()}
        withheld = set(allocation.withheld)
        (withheld if source == WITHHELD else bundles[source]).discard(item)
        (withheld if target == WITHHELD else bundles.setdefault(target, set())).add(item)
        moved = Allocation(bundles, withheld)
        self.steps.append(TransferStep(
            len(self.steps) + 1, item, source, target,
            potential_phi(instance, allocation), potential_phi(instance, moved)))
        return moved

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def to_tsv(self) -> str:
        lines = ["step\titem\tfrom\tto\tphi_before\tphi_after"]
        for s in self.steps:
            lines.append(
                f"{s.step}\t{s.item}\t{s.source}\t{s.target}\t"
                f"{format_exact(s.phi_before)}\t{format_exact(s.phi_after)}"
            )
        return "\n".join(lines) + "\n"


def potential_phi(instance: Instance, allocation: Allocation):
    """Sum of squared bundle values; the termination potential for transfers."""
    return sum_squares(values_vector(instance, allocation))


def find_transferable_item(
    instance: Instance, allocation: Allocation, envious: str, envied: str
) -> str:
    """Lowest-index item in the envied bundle with positive marginal gain.

    For monotone submodular valuations such an item always exists whenever
    the envy does; if none is found the input was not submodular and
    TransferabilityViolated says so.
    """
    v = instance.valuation(envious)
    mine = allocation.bundle(envious)
    for o in instance.sorted_items(allocation.bundle(envied)):
        if marginal_gain(v, mine, o) > 0:
            return o
    raise TransferabilityViolated(envious, envied)


def eit_ef1(instance: Instance, initial: Allocation | None = None) -> tuple:
    """Clean, utilitarian-optimal, EF1 allocation by envy-induced transfers.

    Valuations must be matroid rank functions.  ``initial``, when given,
    must be a valid, clean, utilitarian-optimal allocation (re-validated
    here, AllocationError otherwise); by default the matroid-intersection
    optimum is used.  Pairs are scanned in instance order and the
    lowest-index transferable item moves first, so runs are reproducible.

    Returns (allocation, TransferLog).
    """
    optimum = max_common_independent_set(instance)
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
                f"(welfare {initial_usw}, optimum {best_usw})"
            )
        allocation = initial
    log = TransferLog()
    bound = instance.m * instance.m // 2 + 1
    for _ in range(bound):
        pair = first_ef1_violation(instance, allocation)
        if pair is None:
            return allocation, log
        i, j = pair
        o = find_transferable_item(instance, allocation, i, j)
        allocation = log.move(instance, allocation, o, j, i)
    raise RuntimeError(
        "transfer loop exceeded the m^2/2 step bound; "
        "valuations are probably not matroid rank functions"
    )


@dataclass
class EitGeneralResult:
    allocation: Allocation
    log: TransferLog
    steps: int
    exhausted: bool  # True when the budget ran out or the rounds cycled before EF1 held
    optimum: object  # maximum utilitarian welfare, the start's welfare


def _require_assignment(instance: Instance, what: str):
    for a in instance.agents:
        if not isinstance(instance.valuation(a), AssignmentValuation):
            raise InapplicableAlgorithm(
                f"{what} needs assignment valuations; agent {a!r} has "
                f"{type(instance.valuation(a)).__name__}"
            )


def _global_optimum_matching(instance: Instance):
    """Max-weight matching of all items to (agent, member) pairs.

    One AssignmentValuation over those pairs grows it, as it grows every
    bundle's witness: from empty over the sorted items, each by its best
    alternating path.  Its total weight, summed exactly from the matched
    weights, is the maximum utilitarian welfare for assignment valuations,
    since the per-bundle matchings are independent.
    """
    rows = {(a, mb): instance.valuation(a).weights[mb]
            for a in instance.agents for mb in instance.valuation(a).members}
    _, witness = AssignmentValuation(rows, rows).assignment_value(instance.items)
    return sum(rows[node][item] for item, node in witness.items()), witness


def initial_assignment_allocation(instance: Instance) -> tuple:
    """Clean utilitarian-optimal start: global matching, then cleaning.

    Returns (allocation, the matching's total weight): that total is the
    maximum utilitarian welfare, and cleaning keeps it.
    """
    total, witness = _global_optimum_matching(instance)
    bundles = {a: set() for a in instance.agents}
    for item, (agent, _member) in witness.items():
        bundles[agent].add(item)
    return clean(instance, Allocation.from_bundles(instance, bundles)), total


def _unused_items(instance, allocation, agent):
    """Items of the agent's bundle that its witness matching leaves aside."""
    bundle = allocation.bundle(agent)
    _, witness = instance.valuation(agent).assignment_value(bundle)
    return [o for o in instance.sorted_items(bundle) if o not in witness]


def _best_positive(candidates, gain):
    """The first candidate of maximal positive gain; None if no gain is positive."""
    best = max(candidates, key=gain, default=None)  # max keeps the first maximal one
    return best if best is not None and gain(best) > 0 else None


def eit_general(instance: Instance, budget: int | None = None) -> EitGeneralResult:
    """Envy-induced transfers for weighted assignment valuations.

    Per round: among all pairs (i, j) where i envies j beyond one item and
    all items o in j's bundle with positive marginal gain for i, the triple
    maximizing  gain_i(o) + loss_j(o)  moves (ties: lowest i, then j, then
    o).  The donor j is backfilled with the withheld item of maximum
    positive marginal gain.  Then, while some witness matching leaves an
    item of its bundle unused, the first such agent (i, then instance
    order) cascades its lowest-index unused item: the item goes to the
    agent with the largest positive marginal gain for it, computed with
    the item withheld, or to the pool when nobody gains, and a receiver
    left with an unused item cascades that one next.  Ties go to the
    lowest index, so no unused item survives a round.

    Termination is not guaranteed; after ``budget`` rounds (default
    10*m^2), or as soon as a round starts from an allocation an earlier
    round started from (the rounds then cycle for ever), the current
    allocation is returned with ``exhausted=True``.
    The result carries the maximum utilitarian welfare, read off the global
    matching of the start, so a price of fairness needs no second one.
    """
    _require_assignment(instance, "envy-induced transfers")
    agents, m = instance.agents, instance.m
    if budget is None:
        budget = 10 * m * m
    allocation, optimum = initial_assignment_allocation(instance)
    log = TransferLog()
    steps = 0

    def cascade(source):
        # every hop strictly raises the receiving agent's value while no
        # other value changes, so states never repeat; the bound is a
        # safety net only
        nonlocal allocation
        for _hop in range(10 * instance.n * m + 10):
            item = _unused_items(instance, allocation, source)[0]
            receiver = _best_positive(agents, lambda k: marginal_gain(
                instance.valuation(k), allocation.bundle(k) - {item}, item))
            allocation = log.move(instance, allocation, item, source,
                                  WITHHELD if receiver is None else receiver)
            if receiver is None or not _unused_items(instance, allocation, receiver):
                return
            source = receiver
        raise RuntimeError("revocation cascade failed to settle")

    def envious_moves():
        # (gain_i(o) + loss_j(o), (i, j, o)) in (i, j, o) order
        for i in agents:
            vi = instance.valuation(i)
            mine = allocation.bundle(i)
            base = vi.value(mine)
            for j in agents:
                if i == j or ef1_pair(instance, allocation, i, j)[0]:
                    continue
                vj = instance.valuation(j)
                theirs = allocation.bundle(j)
                theirs_value = vj.value(theirs)
                for o in instance.sorted_items(theirs):
                    gain_i = vi.value(mine | {o}) - base
                    if gain_i > 0:
                        yield gain_i + theirs_value - vj.value(theirs - {o}), (i, j, o)

    starts = set()  # round-start allocations: a round's move depends on nothing else
    while True:
        start = (allocation.withheld, *map(allocation.bundle, agents))
        best = max(envious_moves(), key=lambda move: move[0], default=None)
        if best is None or steps >= budget or start in starts:
            return EitGeneralResult(allocation, log, steps, best is not None, optimum)
        starts.add(start)
        steps += 1
        _, (i, j, o) = best
        allocation = log.move(instance, allocation, o, j, i)
        fill = _best_positive(instance.sorted_items(allocation.withheld), lambda w: marginal_gain(
            instance.valuation(j), allocation.bundle(j), w))
        if fill is not None:
            allocation = log.move(instance, allocation, fill, WITHHELD, j)
        order = [i] + [a for a in agents if a != i]
        while (holder := next((k for k in order if _unused_items(instance, allocation, k)),
                              None)) is not None:
            cascade(holder)


def _shortest_envy_cycle(agents, edges):
    """Shortest cycle of the envy graph ``edges`` (agent -> envied agents).

    Each start in ``agents`` order gets a shortest cycle through it, with
    successors taken in ``edges`` order, and the first strictly shorter
    cycle wins.  None when the graph is acyclic.
    """
    best = None
    for start in agents:
        path = shortest_path([start], edges.__getitem__, lambda v: start in edges[v])
        if path is not None and (best is None or len(path) < len(best)):
            best = path
    return best


def _value_with(valuation, bundle, item):
    """v(bundle + item); assignment valuations and their truncations grow it
    off bundle's matching."""
    grow = getattr(valuation, "value_with", None)
    return valuation.value(bundle | {item}) if grow is None else grow(bundle, item)


def envy_graph_baseline(instance: Instance) -> Allocation:
    """Greedy envy-graph procedure with the max-marginal-gain heuristic.

    Each round allocates one unallocated item: among agents currently
    envied by no one, the (agent, item) pair of maximum marginal gain wins
    (ties: lowest agent index, then lowest item index).  When every agent
    is envied, the shortest envy cycle rotates bundles (each envious agent
    on the cycle takes the bundle it envies) until someone is unenvied.
    The result is complete and EF1 for any monotone valuations; it carries
    no efficiency guarantee and can even miss Pareto optimality.

    worth[i][j] holds v_i(bundle of j): a round values only the grown
    bundle, under every valuation, and a rotation permutes the columns.
    An agent's marginal gains are kept until its bundle changes.
    """
    agents = instance.agents
    bundles = {a: frozenset() for a in agents}
    remaining = list(instance.items)
    worth = {}
    for i in agents:
        empty = instance.valuation(i).value(frozenset())
        worth[i] = dict.fromkeys(agents, empty)
    probes = {}  # agent -> (its bundle, {item: marginal gain on it})

    def envy_edges():
        return {i: [j for j in agents if j != i and worth[i][j] > worth[i][i]]
                for i in agents}

    def unenvied_agents(edges):
        envied = set()
        for outs in edges.values():
            envied.update(outs)
        return [a for a in agents if a not in envied]

    max_rounds = len(remaining) * (instance.n**2 + 1) + instance.n**2
    for _round in range(max_rounds):
        if not remaining:
            break
        edges = envy_edges()
        free = unenvied_agents(edges)
        if not free:
            cycle = _shortest_envy_cycle(agents, edges)
            if cycle is None:
                raise RuntimeError("every agent envied but the envy graph is acyclic")
            taken = {a: cycle[(idx + 1) % len(cycle)] for idx, a in enumerate(cycle)}
            bundles.update({a: bundles[b] for a, b in taken.items()})
            for row in worth.values():
                row.update({a: row[b] for a, b in taken.items()})
            continue
        best = None
        for agent in free:
            v = instance.valuation(agent)
            bundle = bundles[agent]
            if agent not in probes or probes[agent][0] != bundle:
                probes[agent] = (bundle, {})
            gains = probes[agent][1]
            for item in remaining:
                if item not in gains:
                    gains[item] = _value_with(v, bundle, item) - worth[agent][agent]
                gain = gains[item]
                if best is None or gain > best[0]:
                    best = (gain, agent, item)
        _, agent, item = best
        for i in agents:
            worth[i][agent] = _value_with(instance.valuation(i), bundles[agent], item)
        bundles[agent] = bundles[agent] | {item}
        remaining.remove(item)
    if remaining:
        raise RuntimeError("envy-graph rounds exhausted before allocating everything")
    return Allocation.from_bundles(instance, bundles)


def waste(instance: Instance, allocation: Allocation) -> tuple:
    """(count, percentage) of allocated items doing no good where they sit.

    An allocated item is wasted when its holder's witness matching leaves
    it unassigned although some other agent has positive marginal gain for
    it.  Withheld items are not counted.  Requires assignment valuations
    (the notion of "unassigned under the witness" has no meaning otherwise).
    """
    _require_assignment(instance, "waste accounting")
    wasted = sum(
        any(marginal_gain(instance.valuation(other), allocation.bundle(other), o) > 0
            for other in instance.agents if other != h)
        for h in instance.agents for o in _unused_items(instance, allocation, h))
    m = instance.m
    return wasted, (Fraction(100 * wasted, m) if m else Fraction(0))


def max_utilitarian_welfare(instance: Instance):
    """Exact optimal welfare for assignment instances (global matching)."""
    _require_assignment(instance, "welfare optimum")
    return _global_optimum_matching(instance)[0]


def price_of_fairness(instance: Instance, allocation: Allocation, optimum=None):
    """Optimal welfare divided by achieved welfare.

    Exact Fraction >= 1 normally; a positive optimum over zero achieved
    welfare gives math.inf, and the 0/0 corner is defined as 1.  Pass the
    optimal welfare as ``optimum`` when a solver has found it already;
    otherwise ``max_utilitarian_welfare`` computes it.
    """
    if optimum is None:
        optimum = max_utilitarian_welfare(instance)
    achieved = sum(values_vector(instance, allocation))
    if achieved == 0:
        return 1 if optimum == 0 else math.inf
    return Fraction(optimum) / Fraction(achieved)
