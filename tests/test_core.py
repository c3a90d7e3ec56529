import random
from fractions import Fraction

import pytest

from rankfair.core import (Allocation, AllocationError, Instance, clean, ef1_pair,
                           first_zero_marginal, format_exact, is_clean, is_complete,
                           marginal_gain, parse_exact, validate_allocation,
                           values_vector)
from rankfair.valuations import (BinaryAdditiveValuation, BinaryAssignmentValuation,
                                 ScaledValuation, TruncatedValuation)

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


def test_ef1_pair_asks_coloops_only_of_matroid_ranks():
    # A truncated scaled valuation can exceed the bundle's size, so it must
    # not take the matroid branch: 2 >= |{a, b}| is no EF1 verdict here.
    doubled = TruncatedValuation(ScaledValuation(BinaryAdditiveValuation({"a", "b", "x"}), 2), 10)
    inst = Instance(agents=("i", "j"), items=("a", "b", "x"), valuations={
        "i": doubled, "j": BinaryAdditiveValuation({"a"})})
    alloc = Allocation.from_bundles(inst, {"i": {"x"}, "j": {"a", "b"}})
    assert ef1_pair(inst, alloc, "i", "j") == (True, "a")
    assert getattr(doubled, "coloops", None) is None


class ValueOnly:
    """A valuation with its ``coloops`` query stripped: value alone."""

    def __init__(self, inner):
        self.value = inner.value


def _ef1_branch(instance, allocation, i, j):
    """Which case of the matroid branch decides (i, j), from values alone."""
    v = instance.valuation(i)
    own, theirs = v.value(allocation.bundle(i)), allocation.bundle(j)
    whole = v.value(theirs)
    if own >= len(theirs):
        return "own at least size"
    if own >= whole:
        return "no envy"
    if own + 1 < whole:
        return "envy by two"
    if whole == len(theirs):
        return "independent"
    coloop = any(v.value(theirs - {o}) == own for o in theirs)
    return "coloop" if coloop else "no coloop"


def test_ef1_pair_matroid_branch_matches_the_value_loop(monkeypatch):
    calls = {"matroid": 0, "loop": 0, "reference": 0}
    mode = ["matroid"]
    assignment_value = BinaryAssignmentValuation.assignment_value

    def counted(self, bundle):  # counts the matchings run from scratch
        calls[mode[0]] += frozenset(bundle) not in self._cache
        return assignment_value(self, bundle)

    monkeypatch.setattr(BinaryAssignmentValuation, "assignment_value", counted)
    rng = random.Random(31337)
    seen = {"empty": 0, "unclean": 0, "partial": 0}
    for _ in range(200):
        seed, n, m = rng.random(), rng.randint(2, 4), rng.randint(3, 9)
        inst = random_matroid_instance(random.Random(seed), n, m)
        fresh = random_matroid_instance(random.Random(seed), n, m)
        loop = Instance(agents=fresh.agents, items=fresh.items, valuations={
            a: ValueOnly(fresh.valuation(a)) for a in fresh.agents})
        allocs = [random_allocation(rng, inst, allow_withheld=rng.random() < 0.5)
                  for _ in range(3)]
        allocs.append(clean(inst, allocs[0]))
        for alloc in allocs:
            seen["partial"] += not is_complete(inst, alloc)
            for i in inst.agents:
                for j in inst.agents:
                    if i == j:
                        continue
                    mode[0] = "matroid"
                    got = ef1_pair(inst, alloc, i, j)
                    mode[0] = "loop"
                    assert got == ef1_pair(loop, alloc, i, j), (inst, alloc, i, j)
                    mode[0] = "reference"
                    theirs = alloc.bundle(j)
                    seen["empty"] += not theirs
                    seen["unclean"] += fresh.value(j, theirs) != len(theirs)
                    branch = _ef1_branch(fresh, alloc, i, j)
                    seen[branch] = seen.get(branch, 0) + 1
    assert len(seen) == 9 and min(seen.values()) >= 50, seen
    assert calls["matroid"] < calls["loop"], calls


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
    for text in ("1e3", "1E-2", "1_000", "\u0663"):   # exponent, "_", Arabic-Indic three
        with pytest.raises(ValueError, match="cannot parse exact number"):
            parse_exact(text)
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
