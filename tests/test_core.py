import random
from fractions import Fraction

import pytest

from rankfair.core import (Allocation, AllocationError, Instance, clean,
                           first_zero_marginal, format_exact, is_clean, is_complete,
                           marginal_gain, parse_exact, validate_allocation,
                           values_vector)
from rankfair.valuations import BinaryAdditiveValuation, BinaryAssignmentValuation

from randgen import random_matroid_instance, random_allocation


def tiny_instance():
    return Instance(
        agents=("a", "b"),
        items=("x", "y", "z"),
        valuations={
            "a": BinaryAdditiveValuation({"x", "y"}),
            "b": BinaryAdditiveValuation({"y", "z"}),
        },
    )


def test_instance_rejects_duplicates():
    v = BinaryAdditiveValuation({"x"})
    with pytest.raises(ValueError):
        Instance(agents=("a", "a"), items=("x",), valuations={"a": v})
    with pytest.raises(ValueError):
        Instance(agents=("a",), items=("x", "x"), valuations={"a": v})


def test_instance_requires_valuation_per_agent():
    with pytest.raises(ValueError):
        Instance(agents=("a", "b"), items=("x",),
                 valuations={"a": BinaryAdditiveValuation({"x"})})


def test_allocation_accessors():
    inst = tiny_instance()
    alloc = Allocation.from_bundles(inst, {"a": {"x"}, "b": {"y"}})
    assert alloc.bundle("a") == frozenset({"x"})
    assert alloc.bundle("missing") == frozenset()
    assert alloc.withheld == frozenset({"z"})
    assert alloc.allocated_items() == frozenset({"x", "y"})


def test_values_and_profiles():
    inst = tiny_instance()
    alloc = Allocation.from_bundles(inst, {"a": {"x", "y"}, "b": {"z"}})
    assert values_vector(inst, alloc) == (2, 1)


def test_marginal_gain():
    v = BinaryAdditiveValuation({"x", "y"})
    assert marginal_gain(v, frozenset(), "x") == 1
    assert marginal_gain(v, frozenset({"x"}), "z") == 0


def test_clean_removes_zero_marginal_items_only():
    inst = Instance(
        agents=("a",),
        items=("x", "y", "z"),
        valuations={"a": BinaryAssignmentValuation({"m1": {"x", "y"}})},
    )
    alloc = Allocation.from_bundles(inst, {"a": {"x", "y", "z"}})
    assert not is_clean(inst, alloc)
    cleaned = clean(inst, alloc)
    assert is_clean(inst, cleaned)
    assert inst.value("a", cleaned.bundle("a")) == inst.value("a", alloc.bundle("a"))
    # dropped items land in the withheld pool, nothing is lost
    assert cleaned.bundle("a") | cleaned.withheld == frozenset(inst.items)


def test_first_zero_marginal_scans_in_index_order():
    inst = Instance(
        agents=("a", "b"),
        items=("x", "y", "z"),
        valuations={"a": BinaryAdditiveValuation({"x"}),
                    "b": BinaryAssignmentValuation({"m1": {"x", "y"}})},
    )
    alloc = Allocation.from_bundles(inst, {"a": {"x"}, "b": {"z", "y"}})
    assert first_zero_marginal(inst, alloc) == ("b", "z")
    alloc = Allocation.from_bundles(inst, {"a": {"z", "y", "x"}})
    assert first_zero_marginal(inst, alloc) == ("a", "y")
    assert first_zero_marginal(inst, clean(inst, alloc)) is None


def test_is_complete():
    inst = tiny_instance()
    assert is_complete(inst, Allocation.from_bundles(inst, {"a": {"x", "y", "z"}}))
    assert not is_complete(inst, Allocation.from_bundles(inst, {"a": {"x"}}))


def test_validate_allocation_reports_all_violations():
    inst = tiny_instance()
    bad = Allocation({"a": {"x", "w"}, "b": {"x"}}, withheld={"x"})
    violations = validate_allocation(inst, bad)
    text = "; ".join(violations)
    assert "w" in text          # unknown item
    assert "both" in text       # x in two bundles
    assert any("withheld" in v for v in violations)


def test_validate_allocation_unknown_agent():
    inst = tiny_instance()
    bad = Allocation({"ghost": {"x"}})
    assert any("ghost" in v for v in validate_allocation(inst, bad))


def test_clean_preserves_values_randomized():
    rng = random.Random(4021)
    for _ in range(40):
        inst = random_matroid_instance(rng)
        alloc = random_allocation(rng, inst)
        cleaned = clean(inst, alloc)
        assert is_clean(inst, cleaned)
        assert values_vector(inst, cleaned) == values_vector(inst, alloc)
        assert not validate_allocation(inst, cleaned)


@pytest.mark.parametrize("value,text", [
    (0, "0"),
    (7, "7"),
    (-3, "-3"),
    (Fraction(1, 4), "0.25"),
    (Fraction(1, 3), "1/3"),
    (Fraction(31, 10), "3.1"),
    (Fraction(-5, 8), "-0.625"),
    (Fraction(49, 10), "4.9"),
])
def test_format_exact_pins(value, text):
    assert format_exact(value) == text
    assert parse_exact(text) == value


def test_parse_exact_rejects_floats_and_junk():
    with pytest.raises(ValueError):
        parse_exact("nan")
    with pytest.raises(ValueError):
        parse_exact("")
    with pytest.raises(TypeError):
        parse_exact(1.5)
    with pytest.raises(TypeError):
        parse_exact(True)


def test_format_parse_round_trip_randomized():
    rng = random.Random(99)
    for _ in range(300):
        q = Fraction(rng.randint(-400, 400), rng.randint(1, 60))
        out = parse_exact(format_exact(q))
        assert out == q and isinstance(out, (int, Fraction))
