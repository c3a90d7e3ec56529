import random
from fractions import Fraction

import pytest

from rankfair import oracle, valuations
from rankfair.balanced_flow import leximin_flow_allocation
from rankfair.core import BudgetExceeded, Instance
from rankfair.valuations import (AllOrNothingValuation, AssignmentValuation,
                                 BinaryAdditiveValuation,
                                 BinaryAssignmentValuation, EXHAUSTIVE_LIMIT,
                                 ScaledValuation, TruncatedValuation, _norm,
                                 is_matroid_rank_family,
                                 spot_check_matroid_rank, verify_matroid_rank)

from fixtures import nonsubmodular_pair_instance
from randgen import random_matroid_instance, random_transversal
from test_matching import _reference_max_weight_matching, brute_force_matching_value


def test_binary_additive_counts_approved():
    v = BinaryAdditiveValuation({"a", "b"})
    assert v.value(frozenset()) == 0
    assert v.value({"a", "c"}) == 1
    assert v.value({"a", "b", "c"}) == 2


def test_assignment_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        AssignmentValuation(("m", "m"), {})
    with pytest.raises(ValueError):
        AssignmentValuation(("m",), {"m": {"x": -1}})


def test_assignment_weights_are_read_only():
    v = AssignmentValuation(("m",), {"m": {"o1": 1}})
    assert v.value({"o1"}) == 1
    with pytest.raises(TypeError):
        v.weights["m"]["o1"] = 0
    with pytest.raises(TypeError):
        v.weights["m2"] = {"o1": 1}
    assert v.weights == {"m": {"o1": 1}}
    b = BinaryAssignmentValuation({"m": {"o1"}})
    assert b.value({"o1"}) == 1
    with pytest.raises(TypeError):
        b.adjacency["m"] = frozenset()
    with pytest.raises(TypeError):
        b.weights["m"]["o1"] = 0
    assert b == BinaryAssignmentValuation({"m": {"o1"}})
    assert BinaryAssignmentValuation({"m": ["o1"]}) == b
    assert is_matroid_rank_family(b)
    alloc, _ = leximin_flow_allocation(
        Instance(agents=("a",), items=("o1",), valuations={"a": b}))
    assert alloc.bundle("a") == {"o1"}


def test_assignment_value_matches_brute_force_fuzz():
    rng = random.Random(777)
    for _ in range(120):
        n_items = rng.randint(0, 5)
        n_members = rng.randint(1, 4)
        items = ["o%d" % k for k in range(n_items)]
        members = ["m%d" % k for k in range(n_members)]
        weights = {
            mb: {it: Fraction(rng.randint(0, 6), rng.choice((1, 2, 3)))
                 for it in items if rng.random() < 0.6}
            for mb in members
        }
        v = AssignmentValuation(members, weights)
        got = v.value(frozenset(items))
        want = brute_force_matching_value(items, members,
                                          lambda mb, it: v.weights[mb].get(it, 0))
        assert got == want


def test_assignment_witness_is_consistent_and_zero_free():
    rng = random.Random(31)
    for _ in range(60):
        items = ["o%d" % k for k in range(rng.randint(1, 5))]
        members = ["m%d" % k for k in range(rng.randint(1, 4))]
        weights = {mb: {it: rng.randint(0, 4) for it in items if rng.random() < 0.7}
                   for mb in members}
        v = AssignmentValuation(members, weights)
        value, witness = v.assignment_value(frozenset(items))
        assert sum(v.weights[mb].get(it, 0) for it, mb in witness.items()) == value
        assert len(set(witness.values())) == len(witness)
        for it, mb in witness.items():
            assert it in items
            assert v.weights[mb].get(it, 0) > 0


def _value_with_valuation(rng):
    """A small assignment valuation over o0..o{m-1} for the value_with tests.

    Weights come from a narrow range, so ties are common; half the draws use
    Fractions, some members weight nothing, some items no member weights,
    and one draw in six is a 0/1 adjacency (BinaryAssignmentValuation).
    """
    items = ["o%d" % k for k in range(rng.randint(1, 7))]
    members = ["m%d" % k for k in range(rng.randint(0, 5))]
    unweighted = set(rng.sample(items, rng.randint(0, len(items) // 2)))
    rows = {mb: [it for it in items if it not in unweighted and rng.random() < 0.5]
            for mb in members if rng.random() < 0.85}
    if rng.random() < 1 / 6:
        return items, BinaryAssignmentValuation(
            {mb: set(rows.get(mb, ())) for mb in members})
    fractional = rng.random() < 0.5

    def draw():
        w = rng.randint(1, 3)
        return Fraction(w, rng.choice((1, 2, 3))) if fractional else w

    return items, AssignmentValuation(
        members, {mb: {it: draw() for it in row} for mb, row in rows.items()})


def _reference_matching(valuation, bundle):
    """The reference kernel's (value, witness) of bundle under valuation."""
    total, witness = _reference_max_weight_matching(
        sorted(bundle), valuation.members, lambda mb, it: valuation.weights[mb].get(it, 0))
    return _norm(total), witness


def test_value_with_matches_the_kernel(monkeypatch):
    """Chains from a start bundle to the whole ground set, probing every item
    at every step, run a matching on the start bundle alone."""
    kernel_runs = []

    assignment_value = AssignmentValuation.assignment_value

    def counted(self, bundle):  # a matching runs on a cache miss
        if frozenset(bundle) not in self._cache:
            kernel_runs.append(frozenset(bundle))
        return assignment_value(self, bundle)
    # BinaryAssignmentValuation inherits it, so one wrapper counts both classes
    monkeypatch.setattr(AssignmentValuation, "assignment_value", counted)
    rng = random.Random(4242)
    cases = 0
    for _ in range(300):
        items, v = _value_with_valuation(rng)
        order = rng.sample(items, len(items))
        bundle = start = frozenset(order[:rng.randint(0, len(items) - 1)])
        cached = rng.random() < 0.5
        if cached:
            v.value(start)  # start from the cached witness
        kernel_runs.clear()
        for grow in order:
            for o in items:
                got = v.value_with(bundle, o)
                want = _reference_matching(v, bundle | {o})[0]
                assert got == want and type(got) is type(want), (bundle, o)
                cases += 1
            bundle |= {grow}
        assert kernel_runs == ([] if cached else [start])
        if type(v) is AssignmentValuation:
            # a bundle first reached through value_with gets a fresh copy's witness
            got = v.assignment_value(bundle)
            assert got[0] == _reference_matching(v, bundle)[0]
            assert got == AssignmentValuation(v.members, v.weights).assignment_value(bundle)
    assert cases >= 2000


def _table_valuation_maker(rng, items):
    """(kind, make): make() builds a fresh copy of one seeded valuation.

    A transversal, truncated transversal (cap 0 to m), weighted assignment
    or scaled transversal valuation over items, with some members that take
    no item and some items that no member takes.
    """
    members = ["m%d" % k for k in range(rng.randint(0, 4))]
    untaken = set(rng.sample(items, rng.randint(0, len(items) // 2)))
    rows = {mb: {it for it in items if it not in untaken and rng.random() < 0.45}
            for mb in members}
    if members and rng.random() < 0.5:
        rows[rng.choice(members)] = set()
    weights = {mb: {it: rng.choice((1, 2, 3, Fraction(1, 2), Fraction(5, 3)))
                    for it in row} for mb, row in rows.items()}
    cap, lam = rng.randint(0, len(items)), rng.choice((2, Fraction(3, 2)))
    kind = rng.choice(("transversal", "truncated", "weighted", "scaled"))
    if kind == "weighted":
        return kind, lambda: AssignmentValuation(members, weights)
    if kind == "truncated":
        return kind, lambda: TruncatedValuation(BinaryAssignmentValuation(rows), cap)
    if kind == "scaled":
        return kind, lambda: ScaledValuation(BinaryAssignmentValuation(rows), lam)
    return kind, lambda: BinaryAssignmentValuation(rows)


def _subsets(items):
    return [frozenset(items[p] for p in range(len(items)) if mask >> p & 1)
            for mask in range(1 << len(items))]


def test_grown_tables_match_per_subset_values(monkeypatch):
    """Tables grown one item at a time hold what value() gives each subset,
    with the same number types, and leave the kernel's witnesses alone.
    No (0,1)-OXS valuation reads its table off its member sets here, so
    every table of this test is grown."""
    monkeypatch.setattr(valuations, "_TABLE_MEMBERS", -1)
    rng = random.Random(9090)
    kinds = set()
    for _ in range(240):
        items = ["o%d" % k for k in range(rng.randint(0, 7))]
        kind, make = _table_valuation_maker(rng, items)
        kinds.add(kind)
        valuation, fresh = make(), make()
        assert getattr(valuation, "subset_table", lambda items: None)(items) is None
        subsets = _subsets(items)
        (table,) = valuations.subset_tables([valuation], items)
        assert list(map(repr, table)) == [repr(fresh.value(s)) for s in subsets], kind
        kernel = getattr(valuation, "inner", valuation)
        fresh_kernel = getattr(fresh, "inner", fresh)
        for bundle in rng.sample(subsets, min(8, len(subsets))):
            assert kernel.assignment_value(bundle) == fresh_kernel.assignment_value(bundle)
    assert kinds == {"transversal", "truncated", "weighted", "scaled"}


def _structured_valuation_maker(rng, items):
    """(kind, make) for a seeded binary additive or (0,1)-OXS valuation over
    items, or a truncation (cap 0 to m + 1) of one, or of a truncation.

    Approved and adjacent items include some outside ``items``; some items
    are in no member's adjacency, some members take no item, and a (0,1)-OXS
    valuation may have no member at all.
    """
    outside = ["x%d" % k for k in range(3)]
    untaken = set(rng.sample(items, rng.randint(0, len(items) // 2)))
    pool = [it for it in items if it not in untaken] + outside
    members = ["m%d" % k for k in range(rng.randint(0, valuations._TABLE_MEMBERS))]
    density = rng.choice((0.2, 0.45, 0.7))
    rows = {mb: {it for it in pool if rng.random() < density} for mb in members}
    if members and rng.random() < 0.5:
        rows[rng.choice(members)] = set()
    approved = {it for it in pool if rng.random() < 0.6}
    caps = [rng.randint(0, len(items) + 1) for _ in range(2)]
    kind = rng.choice(("additive", "transversal", "truncated additive",
                       "truncated transversal", "truncated truncation"))
    if kind == "additive":
        return kind, lambda: BinaryAdditiveValuation(approved)
    if kind == "transversal":
        return kind, lambda: BinaryAssignmentValuation(rows)
    if kind == "truncated additive":
        return kind, lambda: TruncatedValuation(BinaryAdditiveValuation(approved), caps[0])
    if kind == "truncated transversal":
        return kind, lambda: TruncatedValuation(BinaryAssignmentValuation(rows), caps[0])
    return kind, lambda: TruncatedValuation(
        TruncatedValuation(BinaryAssignmentValuation(rows), caps[0]), caps[1])


def test_structured_tables_match_per_subset_values():
    """subset_table(items) holds what value() gives each subset, in mask order and
    with the same number types, for every family that has one."""
    rng = random.Random(4242)
    kinds, members, caps = set(), set(), set()
    for _ in range(400):
        items = ["o%d" % k for k in range(rng.randint(0, 10))]
        kind, make = _structured_valuation_maker(rng, items)
        kinds.add(kind)
        valuation, fresh = make(), make()
        table = valuation.subset_table(items)
        assert list(map(repr, table)) == [repr(fresh.value(s)) for s in _subsets(items)], kind
        assert valuations.subset_tables([valuation], items) == [table]
        kernel = valuation
        while isinstance(kernel, TruncatedValuation):
            caps.add("0" if kernel.cap == 0 else "m + 1" if kernel.cap > len(items)
                     else "m" if kernel.cap == len(items) else "between")
            kernel = kernel.inner
        if isinstance(kernel, BinaryAssignmentValuation):
            members.add(len(kernel.members))
    assert len(kinds) == 5
    assert members == set(range(valuations._TABLE_MEMBERS + 1)), members
    assert caps == {"0", "between", "m", "m + 1"}, caps


def test_tables_past_the_member_cutoff_are_grown():
    """Past _TABLE_MEMBERS members a (0,1)-OXS valuation, and a truncation
    of it, have no table, and subset_tables grows theirs."""
    rng = random.Random(5151)
    for _ in range(20):
        items = ["o%d" % k for k in range(rng.randint(0, 7))]
        rows = {"m%d" % k: {it for it in items if rng.random() < 0.45}
                for k in range(valuations._TABLE_MEMBERS + rng.randint(1, 3))}
        cap = rng.randint(0, len(items) + 1)
        for make in (lambda: BinaryAssignmentValuation(rows),
                     lambda: TruncatedValuation(BinaryAssignmentValuation(rows), cap)):
            valuation, fresh = make(), make()
            assert valuation.subset_table(items) is None
            (table,) = valuations.subset_tables([valuation], items)
            assert list(map(repr, table)) == [repr(fresh.value(s)) for s in _subsets(items)]


def test_other_families_have_no_table():
    """Weighted, scaled and all-or-nothing valuations have no subset_table query,
    and a truncation of a weighted or scaled valuation answers None; their
    tables are grown."""
    rng = random.Random(6262)
    seen = set()
    for _ in range(60):
        items = ["o%d" % k for k in range(rng.randint(0, 6))]
        kind, make = _table_valuation_maker(rng, items)
        if kind not in ("weighted", "scaled"):
            continue
        seen.add(kind)
        cap = rng.randint(0, len(items) + 1)
        assert not hasattr(make(), "subset_table")
        capped, fresh = TruncatedValuation(make(), cap), TruncatedValuation(make(), cap)
        assert capped.subset_table(items) is None
        (table,) = valuations.subset_tables([capped], items)
        assert list(map(repr, table)) == [repr(fresh.value(s)) for s in _subsets(items)]
    assert seen == {"weighted", "scaled"}
    assert not hasattr(AllOrNothingValuation({"a", "b"}), "subset_table")


def test_structured_tables_make_no_value_queries(monkeypatch):
    """On 3 x 9 mixed matroid rank instances the oracle's tables and the rank
    verifier ask no valuation for value, value_with or assignment_value."""
    calls = []

    def counted(cls, name):
        method = cls.__dict__[name]

        def wrapper(*args, **kwargs):
            calls.append((cls.__name__, name))
            return method(*args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    for cls, names in ((BinaryAdditiveValuation, ("value",)),
                       (AssignmentValuation, ("value", "assignment_value", "value_with")),
                       (TruncatedValuation, ("value",))):
        for name in names:
            counted(cls, name)
    rng = random.Random(2424)
    kinds = set()
    for _ in range(6):
        inst = random_matroid_instance(rng, n=3, m=9)  # values the empty bundle
        kinds.update(type(v).__name__ + type(getattr(v, "inner", v)).__name__
                     for v in map(inst.valuation, inst.agents))
        calls.clear()
        tables = oracle._tables(inst, False, 4 ** 9)
        for agent in inst.agents:
            assert verify_matroid_rank(inst.valuation(agent), inst.items).ok
        assert calls == []
        assert [inst.value(agent, inst.items) for agent in inst.agents] == [
            table[-1] for table in tables]
        assert calls  # the counters count
    assert len(kinds) == 4, kinds


def test_truncation_grows_only_what_its_inner_valuation_grows():
    assert TruncatedValuation(BinaryAdditiveValuation({"a"}), 1).value_with is None
    capped = TruncatedValuation(BinaryAssignmentValuation({"m": {"a", "b"}, "n": {"b"}}), 1)
    assert capped.value_with(frozenset({"a"}), "b") == 1


def test_binary_assignment_is_transversal_rank():
    v = BinaryAssignmentValuation({"m1": {"a", "b"}, "m2": {"b"}})
    assert v.value({"a"}) == 1
    assert v.value({"b"}) == 1
    assert v.value({"a", "b"}) == 2
    assert v.value({"a", "b", "c"}) == 2
    report = verify_matroid_rank(v, frozenset({"a", "b", "c"}))
    assert report.ok


def test_truncation_caps_and_preserves_rank():
    inner = BinaryAdditiveValuation({"a", "b", "c"})
    v = TruncatedValuation(inner, 2)
    assert v.value({"a", "b", "c"}) == 2
    assert v.value({"a"}) == 1
    assert verify_matroid_rank(v, frozenset({"a", "b", "c"})).ok
    with pytest.raises(ValueError):
        TruncatedValuation(inner, -1)
    with pytest.raises(ValueError):
        TruncatedValuation(inner, True)


def test_truncated_transversal_stays_rank_fuzz():
    rng = random.Random(555)
    items = ("o1", "o2", "o3", "o4", "o5")
    for _ in range(40):
        base = random_transversal(rng, "g", items)
        v = TruncatedValuation(base, rng.randint(0, 4))
        assert verify_matroid_rank(v, frozenset(items)).ok


def test_scaling_leaves_rank_class_unless_unit():
    inner = BinaryAdditiveValuation({"a", "b"})
    scaled = ScaledValuation(inner, 3)
    assert scaled.value({"a", "b"}) == 6
    report = verify_matroid_rank(scaled, frozenset({"a", "b"}))
    assert not report.ok and report.axiom == "binary marginals"
    assert verify_matroid_rank(ScaledValuation(inner, 1), frozenset({"a", "b"})).ok
    half = ScaledValuation(inner, Fraction(1, 2))
    assert half.value({"a"}) == Fraction(1, 2)
    with pytest.raises(ValueError):
        ScaledValuation(inner, 0)
    with pytest.raises(ValueError):
        ScaledValuation(inner, -2)


def test_matroid_rank_families_are_told_by_type():
    additive = BinaryAdditiveValuation({"a", "b"})
    transversal = BinaryAssignmentValuation({"m": {"a"}})
    unit = AssignmentValuation(("m",), {"m": {"a": 1, "b": Fraction(1)}})
    for valuation in (additive, transversal, unit,
                      TruncatedValuation(unit, 1),
                      TruncatedValuation(TruncatedValuation(additive, 2), 1)):
        assert is_matroid_rank_family(valuation)
    weighted = AssignmentValuation(("m",), {"m": {"a": 2, "b": 1}})
    for valuation in (weighted, TruncatedValuation(weighted, 1),
                      ScaledValuation(additive, 1), ScaledValuation(additive, 2),
                      TruncatedValuation(ScaledValuation(additive, 1), 1),
                      AllOrNothingValuation({"a", "b"})):
        assert not is_matroid_rank_family(valuation)


def test_all_or_nothing_values():
    v = AllOrNothingValuation({"l", "r"})
    assert v.value({"l"}) == 0
    assert v.value({"r"}) == 0
    assert v.value({"l", "r"}) == 1


def test_shoe_valuation_rejected_with_numeric_witness():
    inst = nonsubmodular_pair_instance()
    v = inst.valuation(inst.agents[0])
    report = verify_matroid_rank(v, frozenset(inst.items))
    assert not report.ok
    assert report.axiom == "submodularity"
    w = report.witness
    sub, o, ctx = w["subset"], w["item"], w["context_item"]
    gain_without = v.value(sub | {o}) - v.value(sub)
    gain_with = v.value(sub | {ctx, o}) - v.value(sub | {ctx})
    assert gain_without == w["gain_without"]
    assert gain_with == w["gain_with"]
    assert gain_without < gain_with


def test_verify_accepts_random_rank_functions():
    rng = random.Random(212)
    items = ("o1", "o2", "o3", "o4")
    for _ in range(30):
        v = random_transversal(rng, "g", items)
        assert verify_matroid_rank(v, frozenset(items)).ok


def test_verify_refuses_oversized_ground_sets():
    items = frozenset("i%d" % k for k in range(EXHAUSTIVE_LIMIT + 1))
    v = BinaryAdditiveValuation(items)
    with pytest.raises(BudgetExceeded):
        verify_matroid_rank(v, items)


def test_spot_check_catches_shoe_and_passes_rank():
    inst = nonsubmodular_pair_instance()
    shoe = inst.valuation(inst.agents[0])
    report = spot_check_matroid_rank(shoe, frozenset(inst.items), samples=60, seed=0)
    assert not report.ok and report.axiom == "submodularity"
    good = BinaryAssignmentValuation({"m": {"a", "b"}})
    assert spot_check_matroid_rank(good, frozenset({"a", "b"}), samples=40, seed=0).ok


def test_spot_check_reports_the_cardinality_bound():
    # lambda = 2 doubles every value, so any nonempty sample exceeds its size
    items = ("a", "b", "c")
    doubled = ScaledValuation(BinaryAdditiveValuation(set(items)), 2)
    report = spot_check_matroid_rank(doubled, items, samples=5, seed=0)
    assert not report.ok and report.axiom == "cardinality bound"
    assert report.witness == {"subset": frozenset({"c"}), "value": 2}
    # the exhaustive scan meets the gain of 2 on the empty set first
    assert verify_matroid_rank(doubled, items).axiom == "binary marginals"
