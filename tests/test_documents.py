import json
from fractions import Fraction

import pytest

from rankfair.cli import main
from rankfair.core import Allocation, Instance
from rankfair.documents import (MAX_NESTING, DocumentError, dumps, loads, parse_allocation,
                                parse_instance, serialize_allocation,
                                serialize_instance, valuation_to_descriptor)
from rankfair.valuations import (AllOrNothingValuation, AssignmentValuation,
                                 BinaryAdditiveValuation,
                                 BinaryAssignmentValuation, ScaledValuation,
                                 TruncatedValuation)

import fixtures as fx


ALL_FIXTURES = (
    fx.two_group_matching_instance,
    fx.usw_not_ef1_instance,
    fx.leximin_not_usw_instance,
    fx.ef1_not_efx0_instance,
    fx.ef_not_mms_instance,
    fx.nonsubmodular_pair_instance,
    fx.baseline_trap_instance,
    fx.scaled_pair_instance,
    fx.capped_count_instance,
    fx.truncation_shortfall_instance,
    fx.forced_split_instance,
)


@pytest.mark.parametrize("factory", ALL_FIXTURES, ids=lambda f: f.__name__)
def test_instance_round_trip(factory):
    inst = factory()
    again = parse_instance(loads(dumps(serialize_instance(inst))))
    assert again.agents == inst.agents
    assert again.items == inst.items
    for agent in inst.agents:
        assert again.valuation(agent) == inst.valuation(agent)


def test_mixed_descriptor_round_trip():
    items = ("a", "b", "c")
    inst = Instance(
        agents=("p1", "p2", "p3", "p4"),
        items=items,
        valuations={
            "p1": TruncatedValuation(BinaryAdditiveValuation({"a", "b"}), 1),
            "p2": ScaledValuation(BinaryAssignmentValuation({"m": {"a"}}), Fraction(3, 2)),
            "p3": AssignmentValuation(("m1",), {"m1": {"a": Fraction(1, 4), "c": 2}}),
            "p4": AllOrNothingValuation({"b", "c"}),
        },
    )
    again = parse_instance(loads(dumps(serialize_instance(inst))))
    for agent in inst.agents:
        assert again.valuation(agent) == inst.valuation(agent)
        for bundle in ({"a"}, {"a", "b"}, set(items)):
            assert again.value(agent, bundle) == inst.value(agent, bundle)


def test_numbers_serialize_as_exact_strings():
    inst = fx.usw_not_ef1_instance()
    text = dumps(serialize_instance(inst))
    payload = json.loads(text)
    weights = [w for entry in payload["agents"]
               for member in entry["valuation"]["members"]
               for w in member["weights"].values()]
    assert weights and all(isinstance(w, str) for w in weights)
    assert "0.25" in weights
    assert text.endswith("\n")


def test_allocation_round_trip_with_metrics():
    inst = fx.two_group_matching_instance()
    alloc = fx.balanced_split_allocation(inst)
    doc = serialize_allocation(alloc, inst, metrics={"usw": "6"})
    assert doc["withheld"] == []
    assert doc["metrics"] == {"usw": "6"}
    again = parse_allocation(loads(dumps(doc)), inst)
    assert again.bundles == alloc.bundles
    assert again.withheld == alloc.withheld


def _instance_doc(valuation_descriptor, items=("a",)):
    return {
        "schema": 1,
        "items": list(items),
        "agents": [{"id": "p", "valuation": valuation_descriptor}],
    }


def test_parse_instance_rejects_floats():
    doc = _instance_doc({"type": "assignment",
                         "members": [{"id": "m", "weights": {"a": 0.5}}]})
    with pytest.raises(DocumentError):
        parse_instance(doc)


def test_parse_instance_rejects_bool_weight():
    doc = _instance_doc({"type": "assignment",
                         "members": [{"id": "m", "weights": {"a": True}}]})
    with pytest.raises(DocumentError):
        parse_instance(doc)


def test_parse_instance_wrong_schema_and_kind():
    with pytest.raises(DocumentError):
        parse_instance({"schema": 2, "items": [], "agents": []})
    with pytest.raises(DocumentError):
        parse_instance(_instance_doc({"type": "mystery"}))


def test_parse_instance_bounds_the_wrapper_depth():
    def wrapped(depth):
        descriptor = {"type": "binary_additive", "approved": ["a"]}
        for k in range(depth):
            descriptor = ({"type": "truncated", "cap": 1, "inner": descriptor} if k % 2
                          else {"type": "scaled", "lambda": "1", "inner": descriptor})
        return _instance_doc(descriptor)

    assert parse_instance(wrapped(MAX_NESTING)).value("p", {"a"}) == 1
    with pytest.raises(DocumentError, match="more than %d deep" % MAX_NESTING):
        parse_instance(wrapped(MAX_NESTING + 1))


def test_parse_instance_detects_stray_items():
    doc = _instance_doc({"type": "binary_additive", "approved": ["a", "zz"]})
    with pytest.raises(DocumentError) as err:
        parse_instance(doc)
    assert "zz" in str(err.value)


def test_parse_allocation_validates():
    inst = fx.two_group_matching_instance()
    overlap = {"schema": 1,
               "bundles": {"g1": ["o1"], "g2": ["o1"]},
               "withheld": [it for it in inst.items if it != "o1"]}
    with pytest.raises(DocumentError) as err:
        parse_allocation(overlap, inst)
    assert "o1" in str(err.value)
    missing_pool = {"schema": 1, "bundles": {"g1": ["o1"]}, "withheld": []}
    with pytest.raises(DocumentError):
        parse_allocation(missing_pool, inst)


def test_loads_reports_line_and_column():
    with pytest.raises(DocumentError) as err:
        loads('{"schema": 1,\n  "items": [}')
    assert err.value.line == 2
    assert err.value.column is not None


def test_serialized_allocation_is_sorted_and_stable():
    inst = fx.two_group_matching_instance()
    alloc = Allocation.from_bundles(inst, {"g1": {"o5", "o1"}, "g2": {"o4"}})
    doc = serialize_allocation(alloc, inst)
    assert doc["bundles"]["g1"] == ["o1", "o5"]
    assert doc["withheld"] == ["o2", "o3", "o6"]
    assert dumps(doc) == dumps(serialize_allocation(alloc, inst))


def _document(**fields):
    document = {"schema": 1, "items": ["a", "b"],
                "agents": [{"id": "p", "valuation": {"type": "binary_additive",
                                                     "approved": ["a"]}}]}
    document.update(fields)
    return document


def _valued(descriptor):
    return _document(agents=[{"id": "p", "valuation": descriptor}])


_UNIT = {"type": "binary_additive", "approved": []}

# (instance document, the one line `validate` prints to stderr)
_BAD_INSTANCES = [
    (_valued({"type": "assignment", "members": [{"id": "m", "weights": {"a": [1]}}]}),
     "error: agent 'p' weight a has unsupported number type 'list'"),
    (_valued({"type": "assignment", "members": [{"id": "m", "weights": ["a"]}]}),
     "error: agent 'p' weights must be an object"),
    (_valued({"type": "truncated", "cap": "1", "inner": _UNIT}),
     "error: agent 'p' cap must be an integer"),
    ([], "error: instance document must be a JSON object"),
    (_document(items=["a", 1]), "error: items must be a list of string identifiers"),
    (_document(agents=[]), "error: agents must be a non-empty list"),
    (_document(agents=[{"id": "p"}]),
     "error: each agent needs an id and a valuation descriptor"),
    (_document(items=["a", "a"]), "error: duplicate item identifiers"),
    (_document(agents=[{"id": "p", "valuation": _UNIT}] * 2),
     "error: duplicate agent identifiers"),
]


@pytest.mark.parametrize("document,message", _BAD_INSTANCES)
def test_malformed_instance_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                        document, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(document))
    assert main(["validate", "--input", "in.json"]) == 1
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.parametrize("allocation,message", [
    ([], "error: allocation document must be a JSON object"),
    ({"schema": 1, "bundles": []}, "error: bundles must map agent ids to item lists"),
    ({"schema": 1, "bundles": {"q": []}}, "error: unknown agents in allocation: q"),
])
def test_malformed_allocation_exits_1_with_one_error_line(tmp_path, monkeypatch, capsys,
                                                          allocation, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "in.json").write_text(json.dumps(_document()))
    (tmp_path / "alloc.json").write_text(json.dumps(allocation))
    assert main(["check", "--input", "in.json", "--allocation", "alloc.json",
                 "--properties", "ef1"]) == 1
    assert capsys.readouterr().err == message + "\n"


def test_a_valuation_without_a_document_form_is_refused():
    """No input document builds one, so only a library caller reaches this."""
    with pytest.raises(DocumentError, match="valuation type 'object' has no document form"):
        valuation_to_descriptor(object())
