"""Small hand-built instances, each demonstrating one structural phenomenon.

These are the worked examples used across the test suite and the demos.
Each factory returns a fresh Instance (valuations carry caches, so sharing
across tests is undesirable); companion allocation builders return the
specific allocations whose properties the fixture exists to show.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from rankfair.core import Allocation, Instance
from rankfair.valuations import (
    AllOrNothingValuation,
    AssignmentValuation,
    BinaryAdditiveValuation,
    BinaryAssignmentValuation,
    ScaledValuation,
    TruncatedValuation,
)


def two_group_matching_instance() -> Instance:
    """Two groups of four members over six items.

    The envy-free split (4, 2) coexists with the strictly more balanced
    (3, 3), which is the unique leximin (and Nash-optimal) value vector.
    Maximum utilitarian welfare is 6, i.e. every item can be used.
    """
    g1 = BinaryAssignmentValuation(
        {"a1": {"o1", "o6"}, "a2": {"o2", "o4"}, "a3": {"o3"}, "a4": {"o5"}}
    )
    g2 = BinaryAssignmentValuation(
        {"b1": {"o3"}, "b2": {"o4"}, "b3": {"o5"}, "b4": {"o6"}}
    )
    return Instance(
        agents=("g1", "g2"),
        items=("o1", "o2", "o3", "o4", "o5", "o6"),
        valuations={"g1": g1, "g2": g2},
    )


def ef_not_leximin_allocation(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"g1": {"o1", "o2", "o3", "o5"}, "g2": {"o4", "o6"}}
    )


def balanced_split_allocation(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"g1": {"o1", "o2", "o3"}, "g2": {"o4", "o5", "o6"}}
    )


def usw_not_ef1_instance() -> Instance:
    """Additive weights where the unique welfare-maximizing split is unfair.

    Alice weighs the three items (1/4, 3/8, 3/8), Bob (0, 1/2, 1/2); giving
    Alice item1 and Bob the rest is the only utilitarian optimum and it
    violates EF1 for Alice.  Additive valuations are encoded as assignment
    valuations with one dedicated member per item.
    """
    alice = AssignmentValuation(
        members=("a_item1", "a_item2", "a_item3"),
        weights={
            "a_item1": {"item1": Fraction(1, 4)},
            "a_item2": {"item2": Fraction(3, 8)},
            "a_item3": {"item3": Fraction(3, 8)},
        },
    )
    bob = AssignmentValuation(
        members=("b_item2", "b_item3"),
        weights={
            "b_item2": {"item2": Fraction(1, 2)},
            "b_item3": {"item3": Fraction(1, 2)},
        },
    )
    return Instance(
        agents=("alice", "bob"),
        items=("item1", "item2", "item3"),
        valuations={"alice": alice, "bob": bob},
    )


def usw_not_ef1_optimum(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"alice": {"item1"}, "bob": {"item2", "item3"}}
    )


def leximin_not_usw_instance() -> Instance:
    """Three unit-demand agents where leximin sacrifices welfare.

    The leximin allocation (values 2, 1, 0.1; welfare 3.1) is Pareto optimal
    but not utilitarian optimal (the optimum 4.9 leaves one agent empty).
    """
    alice = AssignmentValuation(("alice_m",), {"alice_m": {"o1": 2, "o2": 1}})
    bob = AssignmentValuation(("bob_m",), {"bob_m": {"o1": 2, "o2": 1}})
    charlie = AssignmentValuation(
        ("charlie_m",),
        {"charlie_m": {"o2": Fraction(29, 10), "o3": Fraction(1, 10)}},
    )
    return Instance(
        agents=("alice", "bob", "charlie"),
        items=("o1", "o2", "o3"),
        valuations={"alice": alice, "bob": bob, "charlie": charlie},
    )


def leximin_not_usw_split(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"alice": {"o1"}, "bob": {"o2"}, "charlie": {"o3"}}
    )


def ef1_not_efx0_instance() -> Instance:
    """Four items, two groups; the canonical EF1-but-not-EFX0 allocation.

    Giving group 1 just o1 and group 2 the rest is clean, complete and
    utilitarian optimal, and satisfies EF1; removing the useless-to-group-1
    item o4 from the envied bundle still leaves envy, breaking EFX0.
    """
    g1 = BinaryAssignmentValuation({"a1": {"o1", "o2"}, "a2": {"o3"}})
    g2 = BinaryAssignmentValuation({"b1": {"o2"}, "b2": {"o3"}, "b3": {"o4"}})
    return Instance(
        agents=("g1", "g2"),
        items=("o1", "o2", "o3", "o4"),
        valuations={"g1": g1, "g2": g2},
    )


def ef1_not_efx0_allocation(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"g1": {"o1"}, "g2": {"o2", "o3", "o4"}}
    )


def ef_not_mms_instance() -> Instance:
    """Eight items, two groups; envy-freeness can undershoot the maximin share.

    Group 2's maximin share is 3, yet an envy-free utilitarian optimum
    exists in which group 2 only gets value 2.
    """
    g1 = BinaryAssignmentValuation(
        {
            "a1": {"o1", "o6"},
            "a2": {"o2", "o4"},
            "a3": {"o3"},
            "a4": {"o5"},
            "a5": {"o7"},
            "a6": {"o8"},
        }
    )
    g2 = BinaryAssignmentValuation(
        {"b1": {"o3", "o7"}, "b2": {"o4"}, "b3": {"o5", "o8"}, "b4": {"o6"}}
    )
    return Instance(
        agents=("g1", "g2"),
        items=tuple(f"o{k}" for k in range(1, 9)),
        valuations={"g1": g1, "g2": g2},
    )


def ef_not_mms_allocation(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance,
        {"g1": {"o1", "o2", "o3", "o5", "o7", "o8"}, "g2": {"o4", "o6"}},
    )


def nonsubmodular_pair_instance() -> Instance:
    """An all-or-nothing pair (both shoes or nothing) next to a unit counter.

    Agent 1 values only the complete pair {left, right}.  The standard
    transfer argument fails here: agent 1 can envy agent 2's pair although
    no single item has positive marginal gain for agent 1.
    """
    v1 = AllOrNothingValuation({"left_shoe", "right_shoe"})
    v2 = BinaryAdditiveValuation({"red_left", "left_shoe", "right_shoe"})
    return Instance(
        agents=("p1", "p2"),
        items=("red_left", "left_shoe", "right_shoe"),
        valuations={"p1": v1, "p2": v2},
    )


def nonsubmodular_pair_allocation(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"p1": {"red_left"}, "p2": {"left_shoe", "right_shoe"}}
    )


def baseline_trap_instance() -> Instance:
    """Two items, two agents; the greedy envy-graph heuristic picks the
    Pareto-dominated split.

    Agent 1 wants any one item (capped count), agent 2 only values o1.  The
    heuristic hands o1 to agent 1 and o2 to agent 2, giving values (1, 0),
    dominated by the swap (1, 1).
    """
    v1 = TruncatedValuation(BinaryAdditiveValuation({"o1", "o2"}), 1)
    v2 = BinaryAdditiveValuation({"o1"})
    return Instance(
        agents=("p1", "p2"), items=("o1", "o2"), valuations={"p1": v1, "p2": v2}
    )


def scaled_pair_instance() -> Instance:
    """A scaled agent makes leximin and Nash welfare disagree.

    Agent 1 approves the first three of four items; agent 2 values every
    item at 3 (a 3-scaled approval of everything).  The unique leximin
    value vector (3, 3) fails EF1, while the Nash-optimal vector (2, 6)
    admits envy-free witnesses.
    """
    v1 = BinaryAdditiveValuation({"o1", "o2", "o3"})
    v2 = ScaledValuation(BinaryAdditiveValuation({"o1", "o2", "o3", "o4"}), 3)
    return Instance(
        agents=("p1", "p2"),
        items=("o1", "o2", "o3", "o4"),
        valuations={"p1": v1, "p2": v2},
    )


def scaled_pair_leximin(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"p1": {"o1", "o2", "o3"}, "p2": {"o4"}}
    )


def scaled_pair_nash(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"p1": {"o1", "o2"}, "p2": {"o3", "o4"}}
    )


@dataclass(frozen=True)
class PenalizedCountValuation:
    """|S|, except one marked item stops counting once it has company.

    v(S) = |S| - 1 when the marked item is in S and |S| >= 2, else |S|.
    Monotone but not submodular; exists to separate marginal-envy fairness
    from EF1.
    """

    marked: str

    def value(self, bundle) -> int:
        bundle = frozenset(bundle)
        if self.marked in bundle and len(bundle) >= 2:
            return len(bundle) - 1
        return len(bundle)


def mef1_not_ef1_instance() -> Instance:
    v1 = PenalizedCountValuation("o1")
    v2 = BinaryAdditiveValuation({"o1", "o2", "o3", "o4"})
    return Instance(
        agents=("p1", "p2"),
        items=("o1", "o2", "o3", "o4"),
        valuations={"p1": v1, "p2": v2},
    )


def mef1_not_ef1_allocation(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"p1": {"o1"}, "p2": {"o2", "o3", "o4"}}
    )


def capped_count_instance() -> Instance:
    """Cap-2 counter versus plain counter: positive-marginal EFX is vacuous.

    With bundles of sizes 1 and 3, agent 1 (who counts items up to 2) envies
    agent 2 beyond EF1, yet no item in the envied bundle has positive
    marginal gain on the reduced bundle, so the positive-marginal EFX
    variant holds vacuously.
    """
    items = ("o1", "o2", "o3", "o4")
    v1 = TruncatedValuation(BinaryAdditiveValuation(items), 2)
    v2 = BinaryAdditiveValuation(items)
    return Instance(agents=("p1", "p2"), items=items, valuations={"p1": v1, "p2": v2})


def truncation_shortfall_instance() -> Instance:
    """Caps keep maximum welfare (3) below the item count (4).

    Consequently no allocation is simultaneously clean and complete.
    """
    items = ("o1", "o2", "o3", "o4")
    v1 = TruncatedValuation(BinaryAdditiveValuation(items), 1)
    v2 = TruncatedValuation(BinaryAdditiveValuation(items), 2)
    return Instance(agents=("p1", "p2"), items=items, valuations={"p1": v1, "p2": v2})


def forced_split_instance() -> Instance:
    """Two identical counting agents over four items.

    Starting from the extreme clean optimum (4, 0), envy-driven transfers
    must land on the balanced (2, 2).
    """
    items = ("o1", "o2", "o3", "o4")
    v = lambda: BinaryAdditiveValuation(items)
    return Instance(
        agents=("p1", "p2"), items=items, valuations={"p1": v(), "p2": v()}
    )


def forced_split_start(instance: Instance) -> Allocation:
    return Allocation.from_bundles(
        instance, {"p1": {"o1", "o2", "o3", "o4"}, "p2": set()}
    )
