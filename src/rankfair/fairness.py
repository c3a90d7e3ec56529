"""Fairness and efficiency checkers for allocations of indivisible goods.

Envy-style criteria (EF, EF1, EFX variants, MEF1) are evaluated per ordered
agent pair and collected into a report.  Global criteria (proportionality,
WPROP1, equitability up to c items, maximin share, brute-force Pareto
optimality) are computed by dedicated functions; the exhaustive ones refuse
to run past an explicit enumeration budget instead of silently degrading.
The EF1 flag and witness of a pair come from ``core.ef1_pair``, the
package's one EF1 rule.

For the families that ``valuations.is_matroid_rank_family`` vouches for,
both Pareto optimality and each maximin share cost one intersection
(``max_common_independent_set``).  An allocation is Pareto optimal iff its
welfare is optimal: one augmenting path from a worse one, cleaned, raises
one agent by 1 and no other agent's value moves.  Agent i's share is
floor(W / n), W the optimum when all n agents value by v_i: n disjoint
independent sets rebalance, by the augmentation axiom, to sizes within 1.
The other families run on the enumeration oracle's block walk
(``oracle._Walk``): the share from its vector ``counts``, and Pareto
optimality from ``first``, the first dominating placement, which also
names every Pareto witness.  Both paths refuse past the walk's
enumeration budget (``oracle._gate``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Mapping, Optional

from .core import (ENUMERATION_BUDGET, Allocation, BudgetExceeded, Instance, ef1_pair,
                   values_vector)
from .matroid_intersection import max_common_independent_set
from .oracle import _Walk, _dominates, _gate, _tables
from .valuations import is_matroid_rank_family


@dataclass(frozen=True)
class PairCheck:
    """Envy diagnostics for one ordered pair (i evaluates j's bundle)."""

    envious: bool
    gap: object  # v_i(A_j) - v_i(A_i); positive exactly when envious
    ef: bool
    ef1: bool
    efx0: bool
    efx_plus: bool
    efx_plus_guarded: bool
    mef1: bool
    ef1_witness: Optional[str] = None
    efx0_violator: Optional[str] = None
    mef1_witness: Optional[str] = None


@dataclass(frozen=True)
class MmsEntry:
    share: object
    value: object
    ok: bool
    alpha: Optional[Fraction]


@dataclass(frozen=True)
class FairnessReport:
    """Per-pair envy flags plus optional global criteria.

    Global fields are None until the corresponding checker has been run;
    envy_report fills only the pair section.
    """

    pairs: Mapping[tuple, PairCheck]
    wprop1: Optional[bool] = None
    wprop1_margins: Optional[Mapping[str, object]] = None
    proportional: Optional[bool] = None
    proportional_margins: Optional[Mapping[str, object]] = None
    min_eqc: Optional[int] = None
    mms: Optional[Mapping[str, MmsEntry]] = None
    po: Optional[bool] = None
    po_witness: Optional[Allocation] = None

    def all_pairs(self, flag: str) -> bool:
        return all(getattr(check, flag) for check in self.pairs.values())

    @property
    def ef(self) -> bool:
        return self.all_pairs("ef")

    @property
    def ef1(self) -> bool:
        return self.all_pairs("ef1")

    @property
    def efx0(self) -> bool:
        return self.all_pairs("efx0")

    @property
    def efx_plus(self) -> bool:
        return self.all_pairs("efx_plus")

    @property
    def efx_plus_guarded(self) -> bool:
        return self.all_pairs("efx_plus_guarded")

    @property
    def mef1(self) -> bool:
        return self.all_pairs("mef1")


def _pair_check(instance: Instance, allocation: Allocation, i: str, j: str) -> PairCheck:
    own_bundle = allocation.bundle(i)
    other_bundle = allocation.bundle(j)
    own = instance.value(i, own_bundle)
    other = instance.value(i, other_bundle)
    envious = own < other
    gap = other - own

    ef1, ef1_witness = ef1_pair(instance, allocation, i, j)
    ordered = instance.sorted_items(other_bundle)
    reduced = {o: instance.value(i, other_bundle - {o}) for o in ordered}

    efx0_violator = None
    for o in ordered:
        if own < reduced[o]:
            efx0_violator = o
            break
    efx0 = efx0_violator is None

    if envious:
        # Only removals with a positive marginal gain are required to
        # eliminate the envy; zero-marginal items are exempt.
        efx_plus = all(own >= reduced[o] for o in ordered if other - reduced[o] > 0)
    else:
        efx_plus = True
    efx_plus_guarded = ef1 and efx_plus

    mef1_witness = None
    if envious:
        for o in ordered:
            merged = instance.value(i, own_bundle | (other_bundle - {o}))
            if own >= merged - own:
                mef1_witness = o
                break
        mef1 = mef1_witness is not None
    else:
        mef1 = True

    return PairCheck(
        envious=envious, gap=gap, ef=not envious, ef1=ef1, efx0=efx0,
        efx_plus=efx_plus, efx_plus_guarded=efx_plus_guarded, mef1=mef1,
        ef1_witness=ef1_witness,
        efx0_violator=efx0_violator,
        mef1_witness=mef1_witness,
    )


def envy_report(instance: Instance, allocation: Allocation) -> FairnessReport:
    """Evaluate every ordered agent pair for the envy-style criteria."""
    pairs = {}
    for i in instance.agents:
        for j in instance.agents:
            if i != j:
                pairs[(i, j)] = _pair_check(instance, allocation, i, j)
    return FairnessReport(pairs=pairs)


def check_proportional(instance: Instance, allocation: Allocation):
    """Each agent must realize at least 1/n of her value for all items.

    Returns (ok, margins) where margin_i = v_i(A_i) - v_i(O)/n.
    """
    n = instance.n
    everything = frozenset(instance.items)
    margins = {}
    for i in instance.agents:
        entitlement = Fraction(instance.value(i, everything), 1) / n
        margins[i] = instance.value(i, allocation.bundle(i)) - entitlement
    return all(margin >= 0 for margin in margins.values()), margins


def check_wprop1(instance: Instance, allocation: Allocation):
    """Weak proportionality up to one item.

    margin_i = v_i(A_i) - [v_i(O)/n - max value of a single item outside A_i];
    the max over an empty set counts as zero.  Returns (ok, margins).
    """
    n = instance.n
    everything = frozenset(instance.items)
    margins = {}
    for i in instance.agents:
        outside = instance.sorted_items(everything - allocation.bundle(i))
        best_single = 0
        for o in outside:
            single = instance.value(i, frozenset({o}))
            if single > best_single:
                best_single = single
        threshold = Fraction(instance.value(i, everything), 1) / n - best_single
        margins[i] = instance.value(i, allocation.bundle(i)) - threshold
    return all(margin >= 0 for margin in margins.values()), margins


def _eqc_holds(instance: Instance, allocation: Allocation, c: int) -> bool:
    values = {i: instance.value(i, allocation.bundle(i)) for i in instance.agents}
    for j in instance.agents:
        bundle = allocation.bundle(j)
        if len(bundle) <= c:
            continue
        ordered = instance.sorted_items(bundle)
        worst_rival = min(values[i] for i in instance.agents if i != j)
        satisfied = False
        for removal in combinations(ordered, c):
            if worst_rival >= instance.value(j, bundle - frozenset(removal)):
                satisfied = True
                break
        if not satisfied:
            return False
    return True


def min_eqc(instance: Instance, allocation: Allocation,
            budget: int = ENUMERATION_BUDGET) -> int:
    """Smallest c such that the allocation is equitable up to c items.

    EQc requires, for every ordered pair (i, j) with |A_j| > c, some subset
    S of A_j with |S| = c and v_i(A_i) >= v_j(A_j minus S).  The check is
    exhaustive over subsets and refuses when the enumeration would exceed
    the budget.
    """
    if instance.n == 1:
        return 0
    sizes = [len(allocation.bundle(j)) for j in instance.agents]
    deepest = max(sizes)
    spent = 0
    for c in range(deepest + 1):
        spent += sum(comb(size, c) for size in sizes if size > c)
        if spent > budget:
            raise BudgetExceeded("equitability subset enumeration", spent, budget)
        if _eqc_holds(instance, allocation, c):
            return c
    # c = deepest leaves every pair vacuous, so the loop always returns.
    raise AssertionError("equitability scan failed to terminate")


_MMS_SCAN = "maximin-share partition enumeration"


def _mms_scan(instance: Instance, valuation, budget: int = ENUMERATION_BUDGET):
    """``valuation``'s maximin share by a scan of all n^m complete placements
    over its one value table, read for every part."""
    tables = _tables(instance, True, budget, [valuation], _MMS_SCAN)
    return max(map(min, _Walk(instance, tables * instance.n, True).counts()), default=None)


def mms_share(instance: Instance, agent: str, budget: int = ENUMERATION_BUDGET):
    """Maximin share: best over complete n-partitions of the worst part.

    Parts may be empty, so the share is 0 whenever there are fewer items
    than agents.  Refuses over the budget of a scan of all n^m complete
    placements, whichever path answers.  For the matroid rank families the
    share is floor(W / n), W the optimum welfare when every agent values by
    ``agent``'s valuation; v(M) // n may be less (four parts of a rank-3
    matroid's four items can each be worth 1).  Others are scanned.
    """
    valuation = instance.valuation(agent)
    if not is_matroid_rank_family(valuation):
        return _mms_scan(instance, valuation, budget)
    _gate(instance, True, budget, _MMS_SCAN)
    alike = Instance(instance.agents, instance.items,
                     dict.fromkeys(instance.agents, valuation))
    return len(max_common_independent_set(alike).allocated_items()) // instance.n


def check_mms(instance: Instance, allocation: Allocation,
              budget: int = ENUMERATION_BUDGET) -> Mapping[str, MmsEntry]:
    """Per-agent maximin-share satisfaction with the realized alpha ratio."""
    entries = {}
    for i in instance.agents:
        share = mms_share(instance, i, budget=budget)
        value = instance.value(i, allocation.bundle(i))
        if share == 0:
            alpha = None
        else:
            alpha = Fraction(value, 1) / Fraction(share, 1)
        entries[i] = MmsEntry(share=share, value=value, ok=value >= share, alpha=alpha)
    return entries


def _first_dominating(instance: Instance, current, budget: int = ENUMERATION_BUDGET):
    """The first allocation in enumeration order whose value vector
    dominates ``current``, or None, by a scan of all (n+1)^m placements."""
    walk = _Walk(instance, _tables(instance, False, budget), False)
    return walk.first(lambda vector: _dominates(vector, current))


def check_po_bruteforce(instance: Instance, allocation: Allocation,
                        budget: int = ENUMERATION_BUDGET):
    """Pareto test against all (n+1)^m placements.

    Returns (True, None) when nothing dominates the allocation, otherwise
    (False, witness) with the first dominating allocation in enumeration
    order (items in index order, each placed with agent 1, agent 2, ...,
    withheld last).  Refuses over the budget of that scan, whichever path
    answers.  For the matroid rank families, the allocation is dominated
    iff its welfare is below the optimum, and the scan runs only to name
    the witness; other valuations are answered by the scan.
    """
    _gate(instance, False, budget)
    current = values_vector(instance, allocation)
    if (all(is_matroid_rank_family(instance.valuation(a)) for a in instance.agents)
            and sum(current) == len(max_common_independent_set(instance).allocated_items())):
        return True, None
    witness = _first_dominating(instance, current, budget)
    return witness is None, witness


def full_report(instance: Instance, allocation: Allocation,
                include_po: bool = False,
                budget: int = ENUMERATION_BUDGET) -> FairnessReport:
    """Envy report augmented with every global criterion.

    The exhaustive sections raise BudgetExceeded rather than being skipped,
    so callers on large instances should request only what they can afford.
    """
    report = envy_report(instance, allocation)
    prop_ok, prop_margins = check_proportional(instance, allocation)
    wprop_ok, wprop_margins = check_wprop1(instance, allocation)
    report = replace(
        report,
        proportional=prop_ok, proportional_margins=prop_margins,
        wprop1=wprop_ok, wprop1_margins=wprop_margins,
        min_eqc=min_eqc(instance, allocation, budget=budget),
        mms=check_mms(instance, allocation, budget=budget),
    )
    if include_po:
        po_ok, po_witness = check_po_bruteforce(instance, allocation, budget=budget)
        report = replace(report, po=po_ok, po_witness=po_witness)
    return report
