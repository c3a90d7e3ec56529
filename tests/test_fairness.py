import random
from fractions import Fraction

import pytest

from rankfair.core import Allocation, BudgetExceeded, Instance
from rankfair.fairness import (check_mms, check_po_bruteforce,
                               check_proportional, check_wprop1, ef1_pair,
                               envy_report, full_report, min_eqc, mms_share)
from rankfair.valuations import BinaryAdditiveValuation

import fixtures as fx
from randgen import random_matroid_instance, random_allocation


def test_ef1_but_not_efx0_pair_pins():
    inst = fx.ef1_not_efx0_instance()
    alloc = fx.ef1_not_efx0_allocation(inst)
    report = envy_report(inst, alloc)
    pc = report.pairs[("g1", "g2")]
    assert pc.envious and pc.gap == 1
    assert pc.ef1 and pc.ef1_witness == "o2"
    assert not pc.efx0 and pc.efx0_violator == "o4"
    assert pc.efx_plus and pc.efx_plus_guarded
    back = report.pairs[("g2", "g1")]
    assert not back.envious and back.gap == -3
    assert back.ef1_witness is None and back.efx0_violator is None
    assert report.ef1 and not report.efx0 and not report.ef


def test_efx0_violator_certifies_remaining_envy():
    inst = fx.ef1_not_efx0_instance()
    alloc = fx.ef1_not_efx0_allocation(inst)
    pc = envy_report(inst, alloc).pairs[("g1", "g2")]
    left = alloc.bundle("g2") - {pc.efx0_violator}
    assert inst.value("g1", alloc.bundle("g1")) < inst.value("g1", left)


def test_mef1_without_ef1():
    inst = fx.mef1_not_ef1_instance()
    alloc = fx.mef1_not_ef1_allocation(inst)
    report = envy_report(inst, alloc)
    assert not report.ef1
    assert report.mef1


def test_proportional_and_wprop1_margins():
    inst = fx.usw_not_ef1_instance()
    opt = fx.usw_not_ef1_optimum(inst)
    prop_ok, prop_margins = check_proportional(inst, opt)
    assert not prop_ok
    assert prop_margins == {"alice": Fraction(-1, 4), "bob": Fraction(1, 2)}
    wprop_ok, wprop_margins = check_wprop1(inst, opt)
    assert wprop_ok
    assert wprop_margins == {"alice": Fraction(1, 8), "bob": Fraction(1, 2)}


def test_wprop1_empty_outside_pool_means_no_discount():
    inst = Instance(
        agents=("a",),
        items=("x", "y"),
        valuations={"a": BinaryAdditiveValuation({"x", "y"})},
    )
    complete = Allocation.from_bundles(inst, {"a": {"x", "y"}})
    ok, margins = check_wprop1(inst, complete)
    assert ok and margins == {"a": 0}
    empty = Allocation.from_bundles(inst, {"a": set()})
    ok, margins = check_wprop1(inst, empty)
    # share 2, best outside single 1: still short by 1
    assert not ok and margins == {"a": -1}


def test_min_eqc_pins_on_two_group():
    inst = fx.two_group_matching_instance()
    assert min_eqc(inst, fx.ef_not_leximin_allocation(inst)) == 2
    assert min_eqc(inst, fx.balanced_split_allocation(inst)) == 0


def test_min_eqc_bounded_by_largest_bundle():
    # stripping a whole bundle always works, so c never exceeds the largest
    # bundle size and the reported c really is the smallest working cut
    rng = random.Random(12)
    for _ in range(20):
        inst = random_matroid_instance(rng, m=4)
        alloc = random_allocation(rng, inst)
        c = min_eqc(inst, alloc)
        biggest = max(len(alloc.bundle(a)) for a in inst.agents)
        assert 0 <= c <= biggest


def test_mms_share_and_check_pins():
    inst = fx.ef_not_mms_instance()
    alloc = fx.ef_not_mms_allocation(inst)
    assert mms_share(inst, "g2") == 3
    entries = check_mms(inst, alloc)
    assert entries["g1"].ok and entries["g1"].share == 4 and entries["g1"].value == 6
    assert entries["g1"].alpha == Fraction(3, 2)
    assert not entries["g2"].ok and entries["g2"].share == 3 and entries["g2"].value == 2
    assert entries["g2"].alpha == Fraction(2, 3)
    assert envy_report(inst, alloc).ef


def test_mms_alpha_none_when_share_zero():
    inst = Instance(
        agents=("a", "b"),
        items=("x",),
        valuations={"a": BinaryAdditiveValuation({"x"}),
                    "b": BinaryAdditiveValuation(set())},
    )
    alloc = Allocation.from_bundles(inst, {"a": {"x"}, "b": set()})
    entries = check_mms(inst, alloc)
    # b's maximin share over 2 agents is 0; trivially satisfied
    assert entries["b"].share == 0 and entries["b"].ok
    assert entries["b"].alpha is None
    assert entries["a"].share == 0 and entries["a"].ok


def test_po_bruteforce_finds_trap_witness():
    inst = fx.baseline_trap_instance()
    stuck = Allocation.from_bundles(inst, {"p1": {"o1"}, "p2": {"o2"}})
    ok, witness = check_po_bruteforce(inst, stuck)
    assert not ok
    assert witness.bundle("p1") == frozenset({"o2"})
    assert witness.bundle("p2") == frozenset({"o1"})
    swapped = Allocation.from_bundles(inst, {"p1": {"o2"}, "p2": {"o1"}})
    ok, witness = check_po_bruteforce(inst, swapped)
    assert ok and witness is None


def test_po_witness_actually_dominates():
    rng = random.Random(47)
    for _ in range(25):
        inst = random_matroid_instance(rng, m=4)
        alloc = random_allocation(rng, inst)
        ok, witness = check_po_bruteforce(inst, alloc)
        if ok:
            continue
        old = [inst.value(a, alloc.bundle(a)) for a in inst.agents]
        new = [inst.value(a, witness.bundle(a)) for a in inst.agents]
        assert all(n >= o for n, o in zip(new, old)) and new != old


def test_budgets_refuse_rather_than_approximate():
    inst = fx.two_group_matching_instance()
    alloc = fx.balanced_split_allocation(inst)
    with pytest.raises(BudgetExceeded):
        min_eqc(inst, alloc, budget=1)
    with pytest.raises(BudgetExceeded):
        mms_share(inst, "g1", budget=1)
    with pytest.raises(BudgetExceeded):
        check_po_bruteforce(inst, alloc, budget=1)


def test_budget_refusals_name_what_they_would_enumerate():
    inst = fx.two_group_matching_instance()
    alloc = fx.balanced_split_allocation(inst)
    for call, what, needed in (
            (lambda: mms_share(inst, "g1", budget=1),
             "maximin-share partition enumeration", 2 ** inst.m),
            (lambda: check_po_bruteforce(inst, alloc, budget=1),
             "allocation enumeration", 3 ** inst.m)):
        with pytest.raises(BudgetExceeded) as caught:
            call()
        assert (caught.value.what, caught.value.needed) == (what, needed)
    # one budget governs every exhaustive section of the report
    with pytest.raises(BudgetExceeded) as caught:
        full_report(inst, alloc, include_po=True, budget=3 ** inst.m - 1)
    assert caught.value.what == "allocation enumeration"


def test_ef1_pair_reports_the_first_removal_in_index_order():
    inst = Instance(agents=("a", "b"), items=("x", "y", "z"),
                    valuations={"a": BinaryAdditiveValuation({"x", "y", "z"}),
                                "b": BinaryAdditiveValuation({"x"})})
    alloc = Allocation.from_bundles(inst, {"a": {"x"}, "b": {"z", "y"}})
    assert ef1_pair(inst, alloc, "a", "b") == (True, "y")
    assert ef1_pair(inst, alloc, "b", "a") == (True, "x")
    assert envy_report(inst, alloc).pairs[("a", "b")].ef1_witness == "y"
    alloc = Allocation.from_bundles(inst, {"b": {"x", "y", "z"}})
    assert ef1_pair(inst, alloc, "a", "b") == (False, None)
    assert ef1_pair(inst, alloc, "b", "a") == (True, None)


def test_envy_report_agrees_with_ef1_pair_fuzz():
    """Every pair of the report carries ef1_pair's verdict and witness."""
    rng = random.Random(6161)
    seen = {"ef": 0, "ef1 by removal": 0, "not ef1": 0}
    for _ in range(150):
        inst = random_matroid_instance(rng)
        alloc = random_allocation(rng, inst)
        for (i, j), pair in envy_report(inst, alloc).pairs.items():
            assert (pair.ef1, pair.ef1_witness) == ef1_pair(inst, alloc, i, j)
            seen["ef" if pair.ef else "ef1 by removal" if pair.ef1 else "not ef1"] += 1
    assert min(seen.values()) >= 30, seen


def test_full_report_sections():
    inst = fx.two_group_matching_instance()
    alloc = fx.balanced_split_allocation(inst)
    report = full_report(inst, alloc)
    assert report.po is None and report.po_witness is None
    assert report.min_eqc == 0
    assert report.proportional is not None and report.wprop1 is not None
    assert set(report.mms) == {"g1", "g2"}
    with_po = full_report(inst, alloc, include_po=True)
    assert with_po.po is True
