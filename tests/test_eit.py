import hashlib
import random
from fractions import Fraction
from math import inf

import pytest

from rankfair import eit, valuations
from rankfair.cli import main
from rankfair.core import (Allocation, AllocationError, InapplicableAlgorithm,
                           Instance, TransferabilityViolated, is_clean,
                           validate_allocation, values_vector)
from rankfair.eit import (eit_ef1, eit_general,
                          envy_graph_baseline, find_transferable_item,
                          max_utilitarian_welfare,
                          potential_phi, price_of_fairness, waste)
from rankfair.documents import dump_path, serialize_instance
from rankfair.fairness import envy_report
from rankfair.oracle import max_usw_value
from rankfair.valuations import BinaryAssignmentValuation

import fixtures as fx
import randgen
from randgen import random_matroid_instance, random_weighted_assignment_instance


def test_forced_split_transfer_by_transfer():
    inst = fx.forced_split_instance()
    alloc, log = eit_ef1(inst, fx.forced_split_start(inst))
    assert tuple(sorted(values_vector(inst, alloc))) == (2, 2)
    moves = [(s.item, s.source, s.target, s.phi_before, s.phi_after) for s in log]
    assert moves == [("o1", "p1", "p2", 16, 10), ("o2", "p1", "p2", 10, 8)]
    assert [s.step for s in log] == [1, 2]


def test_transfer_log_tsv_layout():
    inst = fx.forced_split_instance()
    _, log = eit_ef1(inst, fx.forced_split_start(inst))
    lines = log.to_tsv().splitlines()
    assert lines[0] == "step\titem\tfrom\tto\tphi_before\tphi_after"
    assert lines[1] == "1\to1\tp1\tp2\t16\t10"
    assert len(lines) == 3


def test_eit_ef1_validates_initial_allocation():
    inst = fx.two_group_matching_instance()
    unclean = Allocation.from_bundles(
        inst, {"g1": set(inst.items), "g2": set()})
    with pytest.raises(AllocationError):
        eit_ef1(inst, unclean)
    suboptimal = Allocation.from_bundles(inst, {"g1": {"o1"}, "g2": {"o4"}})
    with pytest.raises(AllocationError):
        eit_ef1(inst, suboptimal)


def test_eit_ef1_fuzz_invariants():
    rng = random.Random(2718)
    for _ in range(50):
        inst = random_matroid_instance(rng)
        alloc, log = eit_ef1(inst)
        assert envy_report(inst, alloc).ef1
        assert is_clean(inst, alloc)
        assert sum(values_vector(inst, alloc)) == max_usw_value(inst)
        assert len(log) <= inst.m * inst.m // 2
        for step in log:
            assert step.phi_before - step.phi_after >= 2


def test_find_transferable_item_picks_lowest_index():
    inst = fx.forced_split_instance()
    start = fx.forced_split_start(inst)
    assert find_transferable_item(inst, start, "p2", "p1") == "o1"


def test_transferability_diagnostic_on_shoe_pair():
    inst = fx.nonsubmodular_pair_instance()
    alloc = fx.nonsubmodular_pair_allocation(inst)
    with pytest.raises(TransferabilityViolated) as err:
        find_transferable_item(inst, alloc, "p1", "p2")
    assert "p1" in str(err.value) and "p2" in str(err.value)


def test_eit_general_on_weighted_table():
    inst = fx.usw_not_ef1_instance()
    result = eit_general(inst)
    assert not result.exhausted
    assert result.allocation.bundle("alice") == frozenset({"item1", "item2"})
    assert result.allocation.bundle("bob") == frozenset({"item3"})
    assert values_vector(inst, result.allocation) == (Fraction(5, 8), Fraction(1, 2))
    assert len(result.log) == 1
    step = result.log.steps[0]
    assert (step.item, step.source, step.target) == ("item2", "bob", "alice")
    assert (step.phi_before, step.phi_after) == (Fraction(17, 16), Fraction(41, 64))
    assert envy_report(inst, result.allocation).ef1
    assert waste(inst, result.allocation) == (0, Fraction(0))
    assert price_of_fairness(inst, result.allocation) == Fraction(10, 9)


def test_eit_general_budget_exhaustion_is_reported_not_raised():
    inst = fx.usw_not_ef1_instance()
    result = eit_general(inst, budget=0)
    assert result.exhausted
    assert len(result.log) == 0
    assert not envy_report(inst, result.allocation).ef1


def test_eit_general_requires_assignment_valuations():
    rng = random.Random(5)
    inst = random_matroid_instance(rng)
    has_assignment_only = all(
        isinstance(inst.valuation(a), BinaryAssignmentValuation) for a in inst.agents)
    if not has_assignment_only:
        with pytest.raises(InapplicableAlgorithm):
            eit_general(inst)


def test_eit_general_fuzz_postconditions():
    rng = random.Random(31415)
    for _ in range(40):
        inst = random_weighted_assignment_instance(rng)
        result = eit_general(inst)
        assert not result.exhausted
        assert not validate_allocation(inst, result.allocation)
        assert envy_report(inst, result.allocation).ef1
        count, pct = waste(inst, result.allocation)
        assert count == 0 and pct == 0
        assert price_of_fairness(inst, result.allocation) >= 1
        # the start's welfare, reused by callers for the price of fairness
        assert result.optimum == max_utilitarian_welfare(inst)
        assert (price_of_fairness(inst, result.allocation, result.optimum)
                == price_of_fairness(inst, result.allocation))


def test_envy_graph_baseline_two_group():
    inst = fx.two_group_matching_instance()
    alloc = envy_graph_baseline(inst)
    assert alloc.allocated_items() == frozenset(inst.items)
    assert envy_report(inst, alloc).ef1
    assert alloc.bundle("g1") == frozenset({"o1", "o2", "o3", "o5"})
    assert alloc.bundle("g2") == frozenset({"o4", "o6"})


def test_envy_graph_baseline_fuzz_complete_and_ef1():
    rng = random.Random(1618)
    for _ in range(40):
        inst = random_weighted_assignment_instance(rng)
        alloc = envy_graph_baseline(inst)
        assert alloc.allocated_items() == frozenset(inst.items)
        assert not validate_allocation(inst, alloc)
        assert envy_report(inst, alloc).ef1


# (randgen family, seed, arguments, first 16 hex digits of the SHA-256 of
# the baseline's bundles).  Each draw rotates at least one envy cycle; the
# weighted-assignment ones rotate 3-cycles or two cycles in one run.
_ROTATING = [
    ("random_matroid_instance", 349, {}, "67fa25303a8407e8"),
    ("random_matroid_instance", 527, {}, "f8c8f79a88dd9626"),
    ("random_matroid_instance", 189, {"n": 4, "m": 8}, "98ea36944485ceb0"),
    ("random_binary_additive_instance", 4, {}, "69ae1ed3e31e879a"),
    ("random_binary_additive_instance", 135, {}, "d8b9dffc8064cf16"),
    ("random_oxs_instance", 9, {}, "a09dd8145d834205"),
    ("random_oxs_instance", 233, {}, "487d16222ce63add"),
    ("random_scaled_instance", 65, {}, "d5e5044052f2fc49"),
    ("random_scaled_instance", 482, {}, "3aefd7d2da404de5"),
    ("random_weighted_assignment_instance", 317, {"n": 4, "m": 8}, "4e455c13ef7ffcad"),
    ("random_weighted_assignment_instance", 385, {"n": 4, "m": 8}, "3f4fdbc04c11cba1"),
    ("random_weighted_assignment_instance", 643, {"n": 4, "m": 8}, "fb711fae5efca892"),
    ("random_weighted_assignment_instance", 1222, {"n": 4, "m": 8}, "f346d4bd7d4b4470"),
    ("random_weighted_assignment_instance", 1460, {"n": 4, "m": 8}, "88758c9c04b939cc"),
]


def _rotating_instance(family, seed, kwargs):
    return getattr(randgen, family)(random.Random(seed), **kwargs)


def _baseline_digest(inst, alloc):
    text = "|".join("%s:%s" % (a, " ".join(inst.sorted_items(alloc.bundle(a))))
                    for a in inst.agents)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("family,seed,kwargs,expected", _ROTATING)
def test_envy_graph_baseline_rotation_is_pinned(family, seed, kwargs, expected):
    inst = _rotating_instance(family, seed, kwargs)
    assert _baseline_digest(inst, envy_graph_baseline(inst)) == expected


def test_envy_graph_baseline_matches_only_empty_bundles(monkeypatch):
    """Bundle-plus-one values come off each valuation's matchings: a matching
    runs once per agent, on the empty bundle, and never on a probe."""
    runs = []
    assignment_value = valuations.AssignmentValuation.assignment_value

    def counting(self, bundle):  # a matching runs on a cache miss
        if frozenset(bundle) not in self._cache:
            runs.append((self.members, frozenset(bundle)))
        return assignment_value(self, bundle)

    monkeypatch.setattr(valuations.AssignmentValuation, "assignment_value", counting)
    weighted = [case for case in _ROTATING
                if case[0] == "random_weighted_assignment_instance"]
    weighted.append(("random_weighted_assignment_instance", 7, {"n": 5, "m": 14}, None))
    for family, seed, kwargs, expected in weighted:
        runs.clear()
        inst = _rotating_instance(family, seed, kwargs)
        alloc = envy_graph_baseline(inst)
        assert alloc.allocated_items() == frozenset(inst.items)
        assert expected in (None, _baseline_digest(inst, alloc))
        assert all(items == frozenset() for _, items in runs)
        assert len(runs) == len(set(runs)) <= inst.n


def test_pinned_baseline_draws_rotate_cycles(monkeypatch):
    cycles = []
    search = eit._shortest_envy_cycle

    def recording(agents, edges):
        cycles.append(search(agents, edges))
        return cycles[-1]

    monkeypatch.setattr(eit, "_shortest_envy_cycle", recording)
    lengths = []
    for family, seed, kwargs, _ in _ROTATING:
        cycles.clear()
        envy_graph_baseline(_rotating_instance(family, seed, kwargs))
        assert cycles
        lengths.extend(len(cycle) for cycle in cycles)
    assert max(lengths) == 3


# (randgen family, seed, arguments, first 16 hex digits of the SHA-256 of
# `solve --algorithm eit-general --format machine`'s exit code and stdout,
# and of its transfer log).  Together the draws reach every kind of step;
# seed 125 at 4 x 8 backfills the first of two withheld items of equal gain,
# and seeds 1261 and 2639 stop, exhausted, at a repeated round start.
_EIT_GENERAL = [
    ("random_weighted_assignment_instance", 6, {}, "91aa210174b6fc6b", "c823c116e4a719b2"),
    ("random_weighted_assignment_instance", 52, {}, "4ec9a6bd157356bf", "705ca8c719072eb1"),
    ("random_weighted_assignment_instance", 165, {}, "2ce75a22324d8082", "e1837d1193171655"),
    ("random_weighted_assignment_instance", 311, {}, "4fd3ce8d1252b387", "5374b2b7b72154b8"),
    ("random_weighted_assignment_instance", 125, {"n": 4, "m": 8}, "a2c69c4e03295461", "f870afba5fe56387"),
    ("random_weighted_assignment_instance", 63, {"n": 4, "m": 8}, "125e9abc84f76c92", "b6493239e531a456"),
    ("random_weighted_assignment_instance", 8, {"n": 5, "m": 10}, "b8092d7a5aa00262", "7092bb19f21973bf"),
    ("random_weighted_assignment_instance", 1261, {"n": 4, "m": 6}, "431cfbd8cafbdb3d", "ce0484056f6f57c7"),
    ("random_weighted_assignment_instance", 2639, {"n": 3, "m": 6}, "44e1e13258f6dbb8", "488df50f9cb59652"),
    ("random_oxs_instance", 38, {}, "eaab7c4ba6fa6afe", "0e59153f621ff48d"),
]


def test_eit_general_stops_at_a_repeated_round_start():
    """The pinned draws 1261 and 2639 reach a round-start allocation again;
    the rounds would cycle from there, so the run stops, exhausted, long
    before its default budget of 10 m^2 rounds."""
    for seed, kwargs in ((1261, {"n": 4, "m": 6}), (2639, {"n": 3, "m": 6})):
        inst = _rotating_instance("random_weighted_assignment_instance", seed, kwargs)
        result = eit_general(inst)
        assert result.exhausted and 0 < result.steps < 10 * inst.m ** 2


def _eit_general_cli(tmp_path, monkeypatch, capsys, family, seed, kwargs):
    """(instance, exit code and stdout, transfer log) of one pinned draw."""
    monkeypatch.chdir(tmp_path)  # relative paths keep stdout free of tmp_path
    inst = _rotating_instance(family, seed, kwargs)
    dump_path(serialize_instance(inst), "instance.json")
    code = main(["solve", "--algorithm", "eit-general", "--input", "instance.json",
                 "--output", "result.json", "--format", "machine"])
    output = "%d\n%s" % (code, capsys.readouterr().out)
    return inst, output, (tmp_path / "result.json.transfers.tsv").read_text()


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("family,seed,kwargs,output,transfers", _EIT_GENERAL)
def test_eit_general_cli_output_is_pinned(tmp_path, monkeypatch, capsys,
                                          family, seed, kwargs, output, transfers):
    _, out, tsv = _eit_general_cli(tmp_path, monkeypatch, capsys, family, seed, kwargs)
    assert (_sha16(out), _sha16(tsv)) == (output, transfers)


def _step_kinds(inst, tsv):
    """The kinds of step in an eit_general transfer log, read off a replay.

    A step out of the pool is a backfill.  A step taken while some witness
    matching leaves an item of its own bundle aside belongs to a cascade,
    and revokes when it goes to the pool; a cascade step out of the
    previous one's receiver is a further hop.  Any other step is a round's.
    """
    start = eit.initial_assignment_allocation(inst)[0]
    held = {a: set(start.bundle(a)) for a in inst.agents}
    held[eit.WITHHELD] = set(start.withheld)
    kinds, receiver = set(), None
    for row in tsv.splitlines()[1:]:
        _, item, source, target, _, _ = row.split("\t")
        if source == eit.WITHHELD:
            kind = "backfill"
        elif all(len(inst.valuation(a).assignment_value(held[a])[1]) == len(held[a])
                 for a in inst.agents):
            kind = "round"
        else:
            kind = "revoke" if target == eit.WITHHELD else "cascade"
            if source == receiver:
                kinds.add("hop")
        kinds.add(kind)
        receiver = target if kind == "cascade" else None
        held[source].remove(item)
        held[target].add(item)
    return kinds


def test_pinned_eit_general_draws_reach_every_kind_of_step(tmp_path, monkeypatch, capsys):
    kinds = set()
    for family, seed, kwargs, _, _ in _EIT_GENERAL:
        inst, out, tsv = _eit_general_cli(tmp_path, monkeypatch, capsys, family, seed, kwargs)
        kinds |= _step_kinds(inst, tsv)
        if out.startswith("3\n"):  # the transfer budget ran out
            kinds.add("exhausted")
    assert kinds == {"round", "backfill", "cascade", "revoke", "hop", "exhausted"}


def test_waste_counts_idle_items_wanted_elsewhere():
    g1 = BinaryAssignmentValuation({"x": {"o1", "o2"}})
    g2 = BinaryAssignmentValuation({"y": {"o2"}})
    inst = Instance(agents=("g1", "g2"), items=("o1", "o2"),
                    valuations={"g1": g1, "g2": g2})
    hoard = Allocation.from_bundles(inst, {"g1": {"o1", "o2"}, "g2": set()})
    assert waste(inst, hoard) == (1, Fraction(50))
    assert price_of_fairness(inst, hoard) == 2
    # withheld items are not wasted by definition
    nothing = Allocation.from_bundles(inst, {"g1": set(), "g2": set()})
    assert waste(inst, nothing) == (0, Fraction(0))
    assert price_of_fairness(inst, nothing) == inf


def test_pof_zero_over_zero_is_one():
    inst = Instance(agents=("g1",), items=("o1",),
                    valuations={"g1": BinaryAssignmentValuation({"x": set()})})
    alloc = Allocation.from_bundles(inst, {"g1": set()})
    assert max_utilitarian_welfare(inst) == 0
    assert price_of_fairness(inst, alloc) == 1


def test_waste_requires_assignment_valuations():
    inst = fx.mef1_not_ef1_instance()
    alloc = fx.mef1_not_ef1_allocation(inst)
    with pytest.raises(InapplicableAlgorithm):
        waste(inst, alloc)
