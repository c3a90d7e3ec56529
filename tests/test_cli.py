"""End-to-end CLI coverage through main(), one test per exit path."""

import hashlib
import json
import os
import random
import subprocess
import sys

import pytest

import rankfair

from rankfair import cli, documents
from rankfair.cli import main
from rankfair.core import Allocation, Instance
from rankfair.documents import MAX_NESTING, dump_path, load_path, serialize_allocation, \
    serialize_instance
from rankfair.valuations import BinaryAdditiveValuation

import fixtures
from randgen import random_transversal


def _write_instance(tmp_path, instance, name="instance.json"):
    path = tmp_path / name
    dump_path(serialize_instance(instance), str(path))
    return str(path)


def _write_allocation(tmp_path, allocation, instance, name="allocation.json"):
    path = tmp_path / name
    dump_path(serialize_allocation(allocation, instance), str(path))
    return str(path)


@pytest.fixture
def fig_pair(tmp_path):
    instance = fixtures.ef1_not_efx0_instance()
    allocation = fixtures.ef1_not_efx0_allocation(instance)
    return (_write_instance(tmp_path, instance),
            _write_allocation(tmp_path, allocation, instance))


def test_solve_usw_ef1_writes_document(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.two_group_matching_instance())
    out = tmp_path / "result.json"
    code = main(["solve", "--algorithm", "usw-ef1", "--input", doc,
                 "--output", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "usw: 6" in text and "ef1: true" in text
    written = load_path(str(out))
    assert written["schema"] == 1
    assert (tmp_path / "result.json.transfers.tsv").exists()


def test_solve_machine_payload(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.ef1_not_efx0_instance())
    code = main(["solve", "--algorithm", "usw-ef1", "--input", doc,
                 "--format", "machine"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 1
    assert payload["metrics"]["algorithm"] == "usw-ef1"
    assert payload["metrics"]["ef1"] is True
    assert payload["metrics"]["usw"] == "4"


def _document(tmp_path, agents, items=("o1", "o2"), name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, "items": list(items), "agents": [
        {"id": agent, "valuation": valuation} for agent, valuation in agents]}))
    return str(path)


def _weights(member, weights):
    return {"type": "assignment", "members": [{"id": member, "weights": weights}]}


def _scaled(lam, approved):
    return {"type": "scaled", "lambda": lam,
            "inner": {"type": "binary_additive", "approved": approved}}


@pytest.mark.parametrize("agents", [
    # weights other than 1: gains are not binary (the optimum is 4, not 3)
    [("a", _weights("a1", {"o1": "1", "o2": "2"})),
     ("b", _weights("b1", {"o1": "1", "o2": "3"}))],
    # all-or-nothing is not submodular, and a scale of 2 doubles every gain
    [("a", {"type": "all_or_nothing", "required": ["o1", "o2"]}),
     ("b", _scaled("2", ["o1", "o2"]))],
])
def test_solve_usw_ef1_refuses_non_rank_valuations(tmp_path, capsys, agents):
    code = main(["solve", "--algorithm", "usw-ef1",
                 "--input", _document(tmp_path, agents)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("inapplicable: valuation of agent 'a' is not a matroid rank")


def test_solve_usw_ef1_verifies_a_unit_scale(tmp_path, capsys):
    doc = _document(tmp_path, [("a", _scaled("1", ["o1", "o2"])),
                               ("b", {"type": "binary_additive", "approved": ["o1"]})])
    code = main(["solve", "--algorithm", "usw-ef1", "--input", doc,
                 "--format", "machine"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    assert metrics["usw"] == "2" and metrics["ef1"] is True


def test_solve_usw_ef1_past_the_verifier_limit(tmp_path, capsys):
    items = ["o%d" % k for k in range(1, 17)]
    declared = [
        ("a", {"type": "binary_additive", "approved": items[:10]}),
        ("b", {"type": "truncated", "cap": 3,
               "inner": _weights("b1", {item: "1" for item in items[8:]})}),
        ("c", {"type": "binary_assignment",
               "members": [{"id": "c1", "adjacent": items[::2]},
                           {"id": "c2", "adjacent": items[1::2]}]}),
    ]
    doc = _document(tmp_path, declared, items)
    assert main(["solve", "--algorithm", "usw-ef1", "--input", doc,
                 "--format", "machine"]) == 0
    metrics = json.loads(capsys.readouterr().out)["metrics"]
    # a's ten approved items, b's one member and c's two: every agent full
    assert metrics["usw"] == "13" and metrics["ef1"] is True
    # a unit scale is matroid rank too, but 16 items are past the verifier
    doc = _document(tmp_path, declared + [("d", _scaled("1", items))], items,
                    name="scaled.json")
    assert main(["solve", "--algorithm", "usw-ef1", "--input", doc]) == 2
    assert "too many to verify" in capsys.readouterr().err


def test_solve_leximin_flow_network_sidecar(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.two_group_matching_instance())
    out = tmp_path / "flow.json"
    code = main(["solve", "--algorithm", "leximin-flow", "--input", doc,
                 "--output", str(out)])
    assert code == 0
    sidecar = tmp_path / "flow.json.network.tsv"
    assert sidecar.read_text().startswith("tail\thead\tcapacity\tcost\tflow")


# SHA-256 of `solve --algorithm leximin-flow --output F --format machine` on
# seeded (0,1)-OXS instances (at most four members, edge density 0.3): of
# stdout, which F repeats byte for byte, and of F.network.tsv.  Recorded while
# the flow was still solved on a generic edge-list network.
_FLOW_CLI_PINS = [
    (12, 64, 1, "3a1564108700cb116f18c12ca317938c3602bafa66af8a203b2bf659ac42c933",
     "f070c08bf3361198561265a05034f58227bb0e1afc06265e0f6efac0fd699f48"),
    (12, 64, 2, "98061e8f1653c33407ddf15d04dfe3fd71b9eb0d42a63521d9694fe4371591bf",
     "98efca5045c8411c9f6241d79e649455bb2c7b469952940a7dd34ba35990bff0"),
    (12, 64, 3, "642d12f35ee32ac11742263897113e8850eba7dc0c6b820b110de650f5b9658c",
     "e88626c98b20db13d51dced321ed018c640d843975231e194a16043767701e1c"),
    (24, 150, 1, "f3fbba1c7045056d31bdfa16e2c2aa8e9d0f4c1a7e086a3964856b099ebc7e6f",
     "3e44eae41cb2f9aabc07ab5643844ffb88c3fc72302f03604c2036d6801a4e90"),
    (24, 150, 2, "242d7dca1a7fb9515d2bddf8bd08e38212cc4e05cc9e60c5edaccf9207dc1290",
     "3a78fcf0ae78bfaa704859c5693ec324e6b24a75e87cf29c033800784d20ee5b"),
    (32, 200, 1, "36ac4a3c6332d2f53b40b85f68fcd9d575de519d451d49e236000ebb3743269e",
     "1f05dae8cd508008b6ec929ca295577926f20f6ab89e015e2cebe6b9da059ffd"),
    (64, 400, 1, "06eb38059a13ef5d016aa2b1d425fc814ba160565335a77bd283edffaba3ac1d",
     "3221c8f56f845cf50ada14ff9c5ec557ba86360c59fff922ffc751391481b197"),
]


@pytest.mark.parametrize("n,m,seed,document_sha,dump_sha", _FLOW_CLI_PINS)
def test_solve_leximin_flow_is_pinned_at_scale(tmp_path, capsys, monkeypatch,
                                               n, m, seed, document_sha, dump_sha):
    rng = random.Random(seed)
    items = tuple("o%d" % (k + 1) for k in range(m))
    agents = tuple("g%d" % (k + 1) for k in range(n))
    instance = Instance(agents=agents, items=items, valuations={
        a: random_transversal(rng, a, items, density=0.3) for a in agents})
    # relative paths: the side file's path is part of the document
    monkeypatch.chdir(tmp_path)
    _write_instance(tmp_path, instance)
    code = main(["solve", "--algorithm", "leximin-flow", "--input", "instance.json",
                 "--output", "flow.json", "--format", "machine"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert (tmp_path / "flow.json").read_text() == out
    assert hashlib.sha256(out.encode()).hexdigest() == document_sha
    dump = (tmp_path / "flow.json.network.tsv").read_bytes()
    assert hashlib.sha256(dump).hexdigest() == dump_sha


def test_solve_serializes_its_document_once(tmp_path, capsys, monkeypatch):
    calls = []
    dumps = documents.dumps

    def counted(document):
        calls.append(document)
        return dumps(document)

    doc = _write_instance(tmp_path, fixtures.two_group_matching_instance())
    monkeypatch.setattr(documents, "dumps", counted)
    monkeypatch.setattr(cli, "dumps", counted)
    out = tmp_path / "solved.json"
    assert main(["solve", "--algorithm", "usw-ef1", "--input", doc,
                 "--output", str(out), "--format", "machine"]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out == out.read_text() == dumps(calls[0])


def test_solve_leximin_flow_refuses_weighted(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.usw_not_ef1_instance())
    code = main(["solve", "--algorithm", "leximin-flow", "--input", doc])
    assert code == 2
    assert "unit weights" in capsys.readouterr().err


def test_solve_eit_general_budget_exhaustion(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.usw_not_ef1_instance())
    out = tmp_path / "partial.json"
    code = main(["solve", "--algorithm", "eit-general", "--input", doc,
                 "--output", str(out), "--budget", "0"])
    assert code == 3
    assert out.exists()
    assert "budget" in capsys.readouterr().err


def test_solve_eit_general_completes(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.usw_not_ef1_instance())
    code = main(["solve", "--algorithm", "eit-general", "--input", doc,
                 "--format", "machine"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["transfers"] == 1
    assert payload["metrics"]["pof"] == "10/9"
    assert payload["metrics"]["waste_count"] == 0


def test_solve_envy_graph(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.baseline_trap_instance())
    code = main(["solve", "--algorithm", "envy-graph", "--input", doc,
                 "--format", "machine"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["ef1"] is True


def test_check_pass_and_fail(fig_pair, capsys):
    instance_path, allocation_path = fig_pair
    code = main(["check", "--input", instance_path,
                 "--allocation", allocation_path,
                 "--properties", "ef1,complete"])
    assert code == 0
    assert "ef1 PASS" in capsys.readouterr().out
    code = main(["check", "--input", instance_path,
                 "--allocation", allocation_path,
                 "--properties", "efx0"])
    assert code == 4
    out = capsys.readouterr().out
    assert "efx0 FAIL" in out and "witness o4 (g1 -> g2)" in out


def test_check_all_expands(fig_pair, capsys):
    instance_path, allocation_path = fig_pair
    code = main(["check", "--input", instance_path,
                 "--allocation", allocation_path,
                 "--properties", "all", "--format", "machine"])
    assert code == 4
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    names = [entry["name"] for entry in payload["properties"]]
    assert set(names) >= {"ef", "ef1", "efx0", "mms", "po", "wprop1"}
    verdicts = {entry["name"]: entry["pass"] for entry in payload["properties"]}
    assert verdicts["ef1"] and not verdicts["efx0"]


def test_check_eq_property(fig_pair, capsys):
    instance_path, allocation_path = fig_pair
    assert main(["check", "--input", instance_path,
                 "--allocation", allocation_path,
                 "--properties", "eq2"]) == 0
    capsys.readouterr()
    assert main(["check", "--input", instance_path,
                 "--allocation", allocation_path,
                 "--properties", "eq0"]) == 4


def test_check_unknown_property(fig_pair, capsys):
    instance_path, allocation_path = fig_pair
    code = main(["check", "--input", instance_path,
                 "--allocation", allocation_path,
                 "--properties", "shiny"])
    assert code == 1
    assert "shiny" in capsys.readouterr().err


def test_oracle_text_and_machine(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.leximin_not_usw_instance())
    code = main(["oracle", "--input", doc, "--objective", "usw"])
    assert code == 0
    out = capsys.readouterr().out
    assert 'optimal value: "4.9"' in out
    code = main(["oracle", "--input", doc, "--objective", "leximin",
                 "--format", "machine"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    # vector stays in agent order; the leximin key sorts internally
    assert payload["optimal_vector"] == ["2", "1", "0.1"]
    assert sorted(payload["optimal_vector"]) == ["0.1", "1", "2"]


def test_oracle_budget_refusal(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.two_group_matching_instance())
    code = main(["oracle", "--input", doc, "--objective", "usw",
                 "--budget", "10"])
    assert code == 5
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("prop", ["mms", "po"])
def test_check_refuses_matroid_rank_certificates_past_the_budget(tmp_path, capsys, prop):
    # (0,1)-OXS valuations: the intersection could answer, but the gate refuses first
    instance = fixtures.two_group_matching_instance()
    allocation = fixtures.balanced_split_allocation(instance)
    code = main(["check", "--input", _write_instance(tmp_path, instance),
                 "--allocation", _write_allocation(tmp_path, allocation, instance),
                 "--properties", prop, "--budget", str(2 ** instance.m - 1)])
    assert code == 5
    assert capsys.readouterr().err.startswith("budget exceeded: ")


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_check_and_oracle_reject_budget_below_one(fig_pair, capsys, budget):
    doc, alloc = fig_pair
    code = main(["check", "--input", doc, "--allocation", alloc,
                 "--properties", "po", "--budget", budget])
    assert code == 1
    assert "--budget must be at least 1" in capsys.readouterr().err
    code = main(["oracle", "--input", doc, "--objective", "usw",
                 "--budget", budget])
    assert code == 1
    assert "--budget must be at least 1" in capsys.readouterr().err


def test_validate_accepts_and_rejects(tmp_path, capsys):
    good = _write_instance(tmp_path, fixtures.two_group_matching_instance())
    assert main(["validate", "--input", good]) == 0
    assert "OK (exhaustive" in capsys.readouterr().out
    bad = _write_instance(tmp_path, fixtures.nonsubmodular_pair_instance(),
                          name="shoes.json")
    code = main(["validate", "--input", bad])
    assert code == 4
    out = capsys.readouterr().out
    assert "submodularity" in out and "FAIL" in out


def test_validate_spot_check_mode(tmp_path, capsys):
    doc = _write_instance(tmp_path, fixtures.nonsubmodular_pair_instance())
    code = main(["validate", "--input", doc, "--spot-check", "80",
                 "--seed", "3"])
    assert code == 4
    assert "non-conclusive" in capsys.readouterr().out


def test_validate_witness_follows_item_order(tmp_path):
    # Every item is worth 2, so the first marginal checked already fails;
    # the reported item is the first one in index order, whatever the
    # hash seed of the process.
    items = ["o%d" % k for k in range(1, 7)]
    doc = tmp_path / "instance.json"
    doc.write_text(json.dumps({
        "schema": 1, "items": items,
        "agents": [{"id": "a", "valuation": {"type": "assignment", "members": [
            {"id": "a1", "weights": {item: "2" for item in items}}]}}]}))
    src = os.path.dirname(os.path.dirname(os.path.abspath(rankfair.__file__)))
    for seed in ("1", "2", "3", "4", "5", "6"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-m", "rankfair", "validate",
                              "--input", str(doc)],
                             env=env, capture_output=True, text=True)
        assert run.returncode == 4
        assert run.stdout == "agent a: FAIL binary marginals subset=[] item=o1 gain=2\n"


def test_parse_error_exit_code(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text("{not json\n")
    assert main(["oracle", "--input", str(broken),
                 "--objective", "usw"]) == 1
    assert main(["oracle", "--input", str(tmp_path / "missing.json"),
                 "--objective", "usw"]) == 1
    capsys.readouterr()
    oversized = tmp_path / "oversized.json"   # json.dumps cannot render this int
    oversized.write_text('{"schema": 1, "items": ["o1"], "agents": [{"id": "a", "valuation": '
                         '{"type": "truncated", "cap": %s, "inner": {"type": "binary_additive",'
                         ' "approved": ["o1"]}}}]}' % ("9" * 5000))
    assert main(["validate", "--input", str(oversized)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid JSON") and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "check", "bench-ratings", "bench-users",
                                     "bench-delimiter"])
def test_unreadable_text_is_a_document_error(tmp_path, capsys, ratings_path, users_path,
                                              command):
    """Bytes that are not UTF-8, and an empty bench delimiter, exit 1 with one
    ``error:`` line instead of a traceback."""
    bad = tmp_path / "bad.dat"
    bad.write_bytes(b"\xff")
    instance = _write_instance(tmp_path, fixtures.usw_not_ef1_instance())
    bench = ["bench", "--attribute", "gender", "--items", "6", "--runs", "1", "--seed", "7"]
    argv, message = {
        "solve": (["solve", "--input", str(bad), "--algorithm", "usw-ef1"],
                  "cannot read %s: not UTF-8 text" % bad),
        "check": (["check", "--input", instance, "--allocation", str(bad),
                   "--properties", "ef1"], "cannot read %s: not UTF-8 text" % bad),
        "bench-ratings": (bench + ["--ratings", str(bad), "--users", users_path],
                          "cannot read %s: not UTF-8 text" % bad),
        "bench-users": (bench + ["--ratings", ratings_path, "--users", str(bad)],
                        "cannot read %s: not UTF-8 text" % bad),
        "bench-delimiter": (bench + ["--ratings", ratings_path, "--users", users_path,
                                     "--delimiter", ""], "the delimiter must not be empty"),
    }[command]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def _truncated_chain(depth):
    """An instance document whose one valuation nests ``depth`` truncations."""
    return ('{"schema": 1, "items": ["o1"], "agents": [{"id": "a", "valuation": '
            + '{"type": "truncated", "cap": 1, "inner": ' * depth
            + '{"type": "binary_additive", "approved": ["o1"]}' + "}" * depth + "}]}")


@pytest.mark.parametrize("text, message", [
    ("[" * 100_000 + "]" * 100_000, "error: invalid JSON: "),
    (_truncated_chain(3000), "error: invalid JSON: "),
    (_truncated_chain(2 * MAX_NESTING), "error: agent 'a' nests truncated and scaled valuations "),
], ids=["brackets", "chain-past-the-parser", "chain-past-the-valuation"])
def test_deeply_nested_documents_are_errors(tmp_path, capsys, text, message):
    doc = tmp_path / "instance.json"
    doc.write_text(text)
    assert main(["validate", "--input", str(doc)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message) and "Traceback" not in err


def _validate_agent_valuation(tmp_path, capsys, valuation):
    doc = tmp_path / "instance.json"
    doc.write_text(json.dumps({"schema": 1, "items": ["o1"], "agents": [
        {"id": "a", "valuation": valuation}]}))
    code = main(["validate", "--input", str(doc)])
    return code, capsys.readouterr().err


def test_members_object_is_a_document_error(tmp_path, capsys):
    code, err = _validate_agent_valuation(tmp_path, capsys, {
        "type": "binary_assignment", "members": {"c1": ["o1"]}})
    assert code == 1
    assert err.startswith("error: agent 'a' descriptor is malformed: ")
    assert "Traceback" not in err


def test_non_object_valuation_is_a_document_error(tmp_path, capsys):
    code, err = _validate_agent_valuation(tmp_path, capsys, "x")
    assert code == 1
    assert err == "error: agent 'a' descriptor must be an object with a type\n"


def _agent(agent_id="a", **valuation):
    return {"id": agent_id,
            "valuation": valuation or {"type": "binary_additive", "approved": ["o1"]}}


_IDS = "must be a list of string identifiers"


@pytest.mark.parametrize("agents, allocation, message", [
    ([_agent(1)], None, "agent id 1 is not a string identifier"),
    ([_agent(type="binary_additive", approved=[1])], None, "agent 'a' approved " + _IDS),
    ([_agent(type="binary_additive", approved="o1")], None, "agent 'a' approved " + _IDS),
    ([_agent(type="binary_assignment", members=[{"id": "m", "adjacent": ["o1"]},
                                                {"id": "m", "adjacent": ["o2"]}])],
     None, "agent 'a': duplicate member identifiers"),
    ([_agent(type="assignment", members=[{"id": "m1", "weights": {"o1": "1e3"}}])], None,
     "agent 'a' weight o1: cannot parse exact number from '1e3'"),
    ([_agent()], {"bundles": {"a": [1, "zz"]}}, "bundle of agent 'a' " + _IDS),
    ([_agent()], {"bundles": {"a": [["o1"]]}}, "bundle of agent 'a' " + _IDS),
    ([_agent()], {"bundles": {"a": ["o1", "o1"]}}, "bundle of agent 'a' lists an item twice"),
    ([_agent()], {"bundles": {"a": ["o1"]}, "withheld": [1, "o2"]}, "withheld " + _IDS),
    ([_agent()], {"bundles": {"a": ["o1"]}, "withheld": [["o2"]]}, "withheld " + _IDS),
    ([_agent()], {"bundles": {"a": ["o1"]}, "withheld": "o2o3"}, "withheld " + _IDS),
], ids=["agent-id-number", "approved-number", "approved-string", "duplicate-member",
        "weight-exponent", "bundle-number", "bundle-nested", "bundle-duplicate", "withheld-number",
        "withheld-nested", "withheld-string"])
def test_malformed_documents_are_errors(tmp_path, capsys, agents, allocation, message):
    """Identifiers that are not strings, or are listed twice, exit 1 with one error line."""
    instance = tmp_path / "instance.json"
    instance.write_text(json.dumps({"schema": 1, "items": ["o1", "o2", "o3"],
                                    "agents": agents}))
    if allocation is None:
        argv = ["solve", "--algorithm", "usw-ef1", "--input", str(instance)]
    else:
        document = tmp_path / "allocation.json"
        document.write_text(json.dumps(dict(allocation, schema=1)))
        argv = ["check", "--input", str(instance), "--allocation", str(document),
                "--properties", "ef1"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_check_names_the_first_failing_pair_in_instance_order(tmp_path, capsys):
    instance = Instance(agents=("b", "a"), items=("x", "y"), valuations={
        "a": BinaryAdditiveValuation({"x"}), "b": BinaryAdditiveValuation({"y"})})
    allocation = Allocation.from_bundles(instance, {"a": {"y"}, "b": {"x"}})
    code = main(["check", "--input", _write_instance(tmp_path, instance),
                 "--allocation", _write_allocation(tmp_path, allocation, instance),
                 "--properties", "ef"])
    assert code == 4
    assert capsys.readouterr().out == "ef FAIL b -> a (gap 1)\n"


def test_usage_error_exit_code(capsys):
    assert main(["solve", "--algorithm", "usw-ef1"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_main_builds_one_parser(tmp_path, capsys, monkeypatch, ratings_path,
                                users_path):
    doc = _write_instance(tmp_path, fixtures.two_group_matching_instance())
    argvs = [
        ["solve", "--algorithm", "usw-ef1"],
        ["solve", "--algorithm", "envy-graph", "--input", doc, "--format", "machine"],
        ["bench", "--ratings", ratings_path, "--users", users_path,
         "--attribute", "gender", "--items", "6", "--runs", "2", "--seed", "7"],
    ]

    def run_all():
        outcomes = []
        for argv in argvs:
            code = main(argv)
            outcomes.append((code,) + tuple(capsys.readouterr()))
        return outcomes

    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._shared_parser.cache_clear()
    shared = run_all()
    assert len(built) == 1
    monkeypatch.setattr(cli, "_shared_parser", build)
    assert run_all() == shared
    assert [outcome[0] for outcome in shared] == [1, 0, 0]
    assert shared[0][2].startswith("error: the following arguments are required")


def test_bench_command(tmp_path, capsys, ratings_path, users_path):
    code = main(["bench", "--ratings", ratings_path, "--users", users_path,
                 "--attribute", "gender", "--items", "6", "--runs", "2",
                 "--seed", "7"])
    assert code == 0
    out = capsys.readouterr().out
    assert "envy-graph/ratings" in out and "PoF" in out
    code = main(["bench", "--ratings", ratings_path, "--users", users_path,
                 "--attribute", "gender", "--items", "6", "--runs", "2",
                 "--seed", "7", "--format", "machine"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["runs"] == 2 and len(payload["cells"]) == 4


@pytest.mark.parametrize("argv, message", [
    (["bench", "--items", "-1"], "items per run must be at least 1"),
    (["bench", "--items", "6", "--budget", "-1"], "--budget must be at least 0, got -1"),
    (["bench", "--items", "6", "--ratings-map", "user=0,item=1"],
     "ratings column map needs a 'rating' entry"),
    (["bench", "--items", "6", "--ratings-map", ""],
     "ratings column map needs a 'user' entry"),
    (["validate", "--spot-check", "0"], "--spot-check must be at least 1, got 0"),
    (["validate", "--spot-check", "-5"], "--spot-check must be at least 1, got -5"),
    (["validate", "--budget", "3"], "unrecognized arguments: --budget 3"),
    (["validate", "--seed", "7"], "--seed needs --spot-check"),
    (["solve", "--algorithm", "eit-general", "--budget", "-1"],
     "--budget must be at least 0, got -1"),
    # str.isdigit() accepts superscripts, which int() refuses
    (["bench", "--items", "6", "--ratings-map", "user=0,item=1,rating=\u00b2"],
     "bad column mapping entry 'rating=\u00b2'"),
    (["check", "--properties", "eq\u00b3"], "unknown property 'eq\u00b3'"),
], ids=["bench-items", "bench-budget", "ratings-map-no-rating", "ratings-map-empty",
        "spot-check-zero", "spot-check-negative", "validate-budget", "validate-seed-alone",
        "solve-budget",
        "ratings-map-superscript", "check-eq-superscript"])
def test_out_of_range_counts_are_usage_errors(tmp_path, capsys, ratings_path,
                                              users_path, argv, message):
    if argv[0] == "bench":
        argv = argv + ["--ratings", ratings_path, "--users", users_path,
                       "--attribute", "gender", "--runs", "1", "--seed", "7"]
    else:
        instance = fixtures.usw_not_ef1_instance()
        argv = argv + ["--input", _write_instance(tmp_path, instance)]
        if argv[0] == "check":
            empty = Allocation.from_bundles(instance, {})
            argv += ["--allocation", _write_allocation(tmp_path, empty, instance)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", "error: %s\n" % message)
