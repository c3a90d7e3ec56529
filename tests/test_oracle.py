import random
import time
from fractions import Fraction

import pytest

from rankfair.core import BudgetExceeded, Instance, values_vector
from rankfair.fairness import mms_share
from rankfair.oracle import (enumerate_allocations, iterated_power,
                             leximin_key, max_usw_value, nash_key,
                             oracle_optimal, sum_fourth, sum_squares,
                             usw_optimal_all_clean_complete,
                             verify_equivalences)
from rankfair.valuations import BinaryAdditiveValuation

import fixtures as fx
from randgen import random_matroid_instance


def test_gauge_functions():
    assert sum_squares((1, 2, 3)) == 14
    assert sum_fourth((1, 2)) == 17
    assert iterated_power((2, 3)) == 4 * 27
    assert iterated_power((0, 2)) == 4      # zero contributes a factor 1
    assert iterated_power(()) == 1
    assert nash_key((0, 2, 3)) == (2, 6)
    assert nash_key((0, 0)) == (0, 1)       # empty support, empty product
    assert leximin_key((3, 1, 2)) == (1, 2, 3)


def test_enumeration_counts_with_and_without_withholding():
    inst = fx.ef1_not_efx0_instance()      # n=2, m=4
    assert sum(1 for _ in enumerate_allocations(inst)) == 3 ** 4
    assert sum(1 for _ in enumerate_allocations(inst, complete_only=True)) == 2 ** 4
    for alloc in enumerate_allocations(inst, complete_only=True):
        assert not alloc.withheld


def test_budget_refusal():
    inst = fx.two_group_matching_instance()
    with pytest.raises(BudgetExceeded):
        oracle_optimal(inst, "usw", budget=100)
    with pytest.raises(BudgetExceeded):
        verify_equivalences(inst, budget=100)
    with pytest.raises(BudgetExceeded):
        list(enumerate_allocations(inst, budget=100))


def test_unknown_objective_rejected():
    inst = fx.ef1_not_efx0_instance()
    with pytest.raises(ValueError):
        oracle_optimal(inst, "median")


def test_unique_usw_optimum_table_instance():
    inst = fx.usw_not_ef1_instance()
    result = oracle_optimal(inst, "usw")
    assert result.optimal_value == Fraction(5, 4)
    assert result.witness_count == 1
    only = result.witnesses[0]
    assert only.bundle("alice") == frozenset({"item1"})
    assert only.bundle("bob") == frozenset({"item2", "item3"})


def test_leximin_below_max_usw_instance():
    inst = fx.leximin_not_usw_instance()
    lex = oracle_optimal(inst, "leximin")
    assert tuple(sorted(lex.optimal_vector)) == (Fraction(1, 10), 1, 2)
    assert sum(lex.optimal_vector) == Fraction(31, 10)
    assert max_usw_value(inst) == Fraction(49, 10)


def test_two_group_optimizer_families_agree_on_the_vector():
    inst = fx.two_group_matching_instance()
    expected = (3, 3)
    for objective in ("leximin", "mnw", "min_convex", "max_concave"):
        result = oracle_optimal(inst, objective)
        assert tuple(sorted(result.optimal_vector)) == expected, objective
        for witness in result.witnesses:
            assert tuple(sorted(values_vector(inst, witness))) == expected
    assert oracle_optimal(inst, "mnw").optimal_value == (2, 9)
    assert oracle_optimal(inst, "min_convex").optimal_value == (6, 18)
    fourth = oracle_optimal(inst, "min_convex", convex="sum_fourth")
    assert fourth.optimal_value == (6, 162)
    assert tuple(sorted(fourth.optimal_vector)) == expected


def test_max_concave_ignores_the_convex_gauge():
    # Maximizing sum_fourth among utilitarian optima would pick (3, 0, 2);
    # max_concave maximizes the Nash key whatever gauge is passed.
    inst = Instance(agents=("g1", "g2", "g3"),
                    items=("o1", "o2", "o3", "o4", "o5"),
                    valuations={"g1": BinaryAdditiveValuation({"o2", "o4", "o5"}),
                                "g2": BinaryAdditiveValuation({"o1", "o2", "o5"}),
                                "g3": BinaryAdditiveValuation({"o1", "o3"})})
    default = oracle_optimal(inst, "max_concave")
    assert default.optimal_vector == (2, 2, 1)
    assert default.optimal_value == (5, (3, 4))
    for convex in ("sum_fourth", "zlogz", sum_squares):
        result = oracle_optimal(inst, "max_concave", convex=convex)
        assert result.optimal_vector == default.optimal_vector
        assert result.optimal_value == default.optimal_value
        assert result.witness_count == default.witness_count


def test_one_agent_complete_scans_skip_the_subset_table():
    # One agent and no withholding leave a single placement, so no 2^m
    # table may be built: 2^40 values would never finish.
    items = tuple("o%d" % k for k in range(40))
    inst = Instance(agents=("a",), items=items,
                    valuations={"a": BinaryAdditiveValuation(items[::2])})
    start = time.perf_counter()
    result = oracle_optimal(inst, "usw", complete_only=True, budget=1)
    share = mms_share(inst, "a", budget=1)
    assert time.perf_counter() - start < 1
    assert result.optimal_vector == (20,)
    assert result.scanned == 1 and result.witness_count == 1
    assert result.witnesses[0].bundle("a") == frozenset(items)
    assert share == 20
    with pytest.raises(BudgetExceeded):
        oracle_optimal(inst, "usw", budget=2 ** 40 - 1)


def test_witness_cap_counts_all_winners():
    zero = BinaryAdditiveValuation(set())
    inst = Instance(agents=("a", "b"),
                    items=tuple("o%d" % k for k in range(7)),
                    valuations={"a": zero, "b": zero})
    result = oracle_optimal(inst, "usw")
    assert result.witness_count == 3 ** 7
    assert len(result.witnesses) == 64


def test_equivalences_pass_on_matroid_instances():
    rng = random.Random(321)
    for _ in range(15):
        inst = random_matroid_instance(rng, m=rng.randint(4, 5))
        report = verify_equivalences(inst)
        assert report.ok, [o for o in report.outcomes if not o.ok]
    names = [o.name for o in report.outcomes]
    assert names == ["pareto_implies_usw_optimal", "optimizer_sets_coincide",
                     "clean_leximin_ef1", "clean_mnw_ef1",
                     "usw_optimal_reachability", "pigou_dalton_consistency"]


def test_equivalences_fail_pattern_on_scaled_pair():
    # scaling breaks the matroid-rank guarantees selectively: the Nash
    # optimum is still EF1 but the leximin one is not, utilitarian
    # optimality decouples from Pareto optimality, and the optimizer
    # families split
    inst = fx.scaled_pair_instance()
    report = verify_equivalences(inst)
    flags = {o.name: o.ok for o in report.outcomes}
    assert not flags["pareto_implies_usw_optimal"]
    assert not flags["optimizer_sets_coincide"]
    assert not flags["clean_leximin_ef1"]
    assert flags["clean_mnw_ef1"]
    assert not report.ok
    bad = report.outcome("clean_leximin_ef1")
    assert bad.counterexample is not None


def test_scaled_pair_optima():
    inst = fx.scaled_pair_instance()
    assert tuple(sorted(oracle_optimal(inst, "leximin").optimal_vector)) == (3, 3)
    mnw = oracle_optimal(inst, "mnw")
    assert tuple(sorted(mnw.optimal_vector)) == (2, 6)
    assert mnw.optimal_value == (2, 12)


def test_clean_complete_characterization():
    assert usw_optimal_all_clean_complete(fx.two_group_matching_instance())
    assert usw_optimal_all_clean_complete(fx.capped_count_instance())
    assert not usw_optimal_all_clean_complete(fx.truncation_shortfall_instance())


def test_clean_complete_matches_max_usw_equals_m_fuzz():
    rng = random.Random(1900)
    for _ in range(40):
        inst = random_matroid_instance(rng, m=rng.randint(3, 5))
        left = usw_optimal_all_clean_complete(inst)
        right = max_usw_value(inst) == inst.m
        assert left == right
