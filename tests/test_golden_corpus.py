"""Byte-level pins of the exhaustive commands on a seeded corpus.

Every case runs `check --properties all,clean,eq1`, `oracle` under four
objectives and `validate`, all with `--format machine`, and pins the
SHA-256 of each command's exit code and stdout.  The corpus mixes matroid
rank, (0,1)-OXS, scaled and all-or-nothing instances at 3 x 6 and 2 x 8,
each with a seeded random allocation (partial, then complete) or the
envy-graph baseline's, plus one allocation that is not Pareto optimal.
A second, smaller set pins `check --properties mms,po` at 4 and 5 agents.
"""

import hashlib
import json
import random

from rankfair.cli import main
from rankfair.core import Allocation, Instance
from rankfair.documents import dump_path, serialize_allocation, serialize_instance
from rankfair.eit import envy_graph_baseline
from rankfair.matroid_intersection import max_common_independent_set
from rankfair.valuations import AllOrNothingValuation

import fixtures
from randgen import (_agents, _items, random_allocation, random_matroid_instance,
                     random_rank_valuation, random_scaled_instance, random_transversal)

SIZES = ((3, 6), (2, 8))
OBJECTIVES = ("usw", "leximin", "mnw", "min_convex")


def _oxs_instance(rng, n, m):
    items, agents = _items(m), _agents(n)
    return Instance(agents=agents, items=items,
                    valuations={a: random_transversal(rng, a, items) for a in agents})


def _all_or_nothing_instance(rng, n, m):
    """The first agent needs two to three items at once; the others are rank."""
    items, agents = _items(m), _agents(n)
    valuations = {a: random_rank_valuation(rng, a, items) for a in agents[1:]}
    valuations[agents[0]] = AllOrNothingValuation(rng.sample(items, rng.randint(2, 3)))
    return Instance(agents=agents, items=items, valuations=valuations)


FAMILIES = (
    lambda rng, n, m: random_matroid_instance(rng, n=n, m=m),
    _oxs_instance,
    lambda rng, n, m: random_scaled_instance(rng, n=n, m=m),
    _all_or_nothing_instance,
)


def _corpus():
    rng = random.Random(20260606)
    for round_ in range(3):
        for make in FAMILIES:
            for n, m in SIZES:
                instance = make(rng, n, m)
                if round_ == 2:
                    yield instance, envy_graph_baseline(instance)
                else:
                    yield instance, random_allocation(rng, instance, allow_withheld=round_ == 0)
    trap = fixtures.baseline_trap_instance()
    yield trap, Allocation.from_bundles(trap, {"p1": {"o1"}, "p2": {"o2"}})


def _run(capsys, argv):
    code = main(argv)
    return "%d\n%s" % (code, capsys.readouterr().out)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _validate_pin(output):
    """validate's output with every failing agent's witness left out.

    The witness follows the item order and is pinned on its own, under
    several hash seeds, in test_cli.
    """
    code, _, payload = output.partition("\n")
    document = json.loads(payload)
    for entry in document["agents"]:
        entry.pop("witness", None)
    return "%s\n%s" % (code, json.dumps(document, sort_keys=True))


def _case_digests(tmp_path, capsys, instance, allocation):
    doc = str(tmp_path / "instance.json")
    alloc = str(tmp_path / "allocation.json")
    dump_path(serialize_instance(instance), doc)
    dump_path(serialize_allocation(allocation, instance), alloc)
    digests = [_digest(_run(capsys, ["check", "--input", doc, "--allocation", alloc,
                                     "--properties", "all,clean,eq1",
                                     "--format", "machine"]))]
    for objective in OBJECTIVES:
        digests.append(_digest(_run(capsys, ["oracle", "--input", doc, "--objective",
                                             objective, "--format", "machine"])))
    digests.append(_digest(_validate_pin(
        _run(capsys, ["validate", "--input", doc, "--format", "machine"]))))
    return " ".join(digests)


# check, oracle usw/leximin/mnw/min_convex, validate; one line per _corpus case
_GOLDEN = [
    "80ce68e7d91ba2a6 e33e498afeaf302a f9627ee01d0291b1 ab634aada678b782 cf4a3c7247bd4e21 83639e1e94025db2",
    "4c8bfe9ce808f7f9 a5c2fdecb819b3ef d9cd910d341dc574 eeae352d20b7851d a559f6e8af8d51df ee85569f1331b164",
    "59801faf4fe3bd2d 6009f30f595d45b8 fe1d5a8a4f7f484c c1d837f21bde8794 c2c5ed853f8c98ef 83639e1e94025db2",
    "33f0bf13ed5ade21 3cd680bd118c07c5 9bd575fe27b2570f 748020bb6657f1c9 b777037504ad8578 ee85569f1331b164",
    "00285f7c4bf63a40 052fc7ee2fea0390 cef8e2b8407232e3 b3a876521b3e965e 9b8b48e1d910e9e4 f60afc3aa5fd0571",
    "aaf614cf5fede389 194be8d03dd3c9f9 3779bf55e6e364ae fd31d809259da77c 78107e8a7f265fb6 4007cd87af897e7a",
    "149288528ba858dc a8569fbc559888bc ba052d8be756f1af 82a9b4be829d2515 9fe78a06bdfd9b3e e06794600cc2c42e",
    "834c428a37700bd1 89489288388784ef 02001b092c254e58 558c0f772a4c8e59 479cbaf9a50921d5 50720c51cc07f7c5",
    "f4b7bcd90f75949f c3d4022eb25e8ba8 ccdf32581af1f9cb 132a35d8934a1719 44e7b2a487ae8425 83639e1e94025db2",
    "a44cbac380f18076 7bae5a6df6d3495e ae500c1612c8fc3b 723007a179b20a19 a2f8050cc6f5a26a ee85569f1331b164",
    "4f601d76d722acde c448d25c1c0e2662 28c85b4d497c57fe 34c32b413177328e fd4d798a02f5a150 83639e1e94025db2",
    "aa605bf05ed215ec c178500ad0501889 fd445c388cfe2cfd c88b5425386ec4ae d16f668e7dc20397 ee85569f1331b164",
    "c21b4a50a8cd06e8 9d830e5d072b71d1 e4f5b07f6b1021c3 c9e3d1b8af59625b 14960286f7519149 cb37e5da6a75bd88",
    "574a436f2ce95f1f d74587c10173a1a8 8c9b18e96c4973a3 0f37bb86d4ed8cb4 dd8719c4c1a63cd7 c0f520114afbaf52",
    "ba343f2d20a5a703 9d5ee2b0f64a0ac5 40ca83fb635d701f c575caa9bd87a494 7efda2c04c3053b5 e06794600cc2c42e",
    "25e09f849446ac00 577cbab16bd5a4d9 9a33d0b988a4b800 8eaf127adcde5d9a fee4d8fd799f08ae 50720c51cc07f7c5",
    "56a29f40c7d5b0ef 205282654ec3221e b49e0d009c356921 d6ffcb656d3dbd19 a9ef4d5d28181c7d 83639e1e94025db2",
    "bcaa1600c40fa15f d044547b7d565643 b6c67ea65ec4a9d6 0499e988f696935e 9c19a3d8174acc2b ee85569f1331b164",
    "5c1665d233c79767 da3480e8fb2320b1 8f7b21524cdb4a3f c01467a53b3bdf47 38d0da80983fd40b 83639e1e94025db2",
    "1b634785924ed8d9 1e03656e20e764d8 a8d1399e6c1e8157 3ce03d0be3fe486d 1a3790f681c9bb70 ee85569f1331b164",
    "0a72d82f893a7926 4331ca4446d267f4 0df0dde6577c2ea7 7c3c2f0aa5556efb 71721fda0e73fffd f60afc3aa5fd0571",
    "d33fdec6ea0215dd d8316f9d9d4f96d8 c171ef5f1585ff68 9fc4d57a927278f4 c1470e4d336c6bfe 4007cd87af897e7a",
    "f41b6e5787aaca7d 5db139cc2979f213 53b7d9b92a3c5ee4 0059ee290009772b ba5dfcde32aa2388 e06794600cc2c42e",
    "9d74a26044d9f80c f16d0aa2cc56cbac 924dbf9ee8a3bf01 7126ed0ed5686164 90918e15c3e6ceac 50720c51cc07f7c5",
    "077b77222b0354b3 0227098e67d0e174 2c6b3df60b86967c 80fc431d2ea58b99 a62101c0d37b1673 25dfdc336cb44974",
]


def test_exhaustive_commands_are_pinned(tmp_path, capsys):
    got = [_case_digests(tmp_path, capsys, instance, allocation)
           for instance, allocation in _corpus()]
    assert got == _GOLDEN


def _larger_cases():
    """Seeded 4 x 5 and 5 x 5 matroid-rank instances, each with a random
    allocation, the intersection optimum less one item (dominated by the
    optimum, since its bundles are clean) and the optimum itself."""
    rng = random.Random(20261020)
    for n in (4, 4, 5, 5):
        instance = random_matroid_instance(rng, n=n, m=5)
        optimum = max_common_independent_set(instance)
        holder = next(a for a in instance.agents if optimum.bundle(a))
        bundles = {a: set(optimum.bundle(a)) for a in instance.agents}
        bundles[holder].remove(min(bundles[holder]))
        for allocation in (random_allocation(rng, instance),
                           Allocation.from_bundles(instance, bundles), optimum):
            yield instance, allocation


# check --properties mms,po: random, dominated, optimum; one line per instance
_LARGER = [
    "1410c809099c8d5f bdae6ecdd48ba62a b3faab4c12c30281",
    "7ae98b39a3ec0e71 b6b6ba74b9e4beaf e6d9cad29eb77dfc",
    "2e5c515ed5e3cfcc e875ab594c7a088f 694099f510fab891",
    "f920ac54c7cb00d3 d5489aa4b930ba9c b3faab4c12c30281",
]


def test_shares_and_pareto_verdicts_are_pinned_past_three_agents(tmp_path, capsys):
    doc = str(tmp_path / "instance.json")
    alloc = str(tmp_path / "allocation.json")
    got = []
    for instance, allocation in _larger_cases():
        dump_path(serialize_instance(instance), doc)
        dump_path(serialize_allocation(allocation, instance), alloc)
        got.append(_digest(_run(capsys, ["check", "--input", doc, "--allocation", alloc,
                                         "--properties", "mms,po", "--format", "machine"])))
    assert [" ".join(got[k:k + 3]) for k in range(0, len(got), 3)] == _LARGER
