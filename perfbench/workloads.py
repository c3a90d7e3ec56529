"""The four benchmark workloads: seeded inputs, op definitions and output checks.

Every input is drawn from a finite universe of ``UNIVERSE`` instances per
workload.  Universe member ``u`` is generated from ``random.Random("<workload>:<u>")``,
so its bytes never depend on the run's seed; the run seed only picks the
order in which the universe is visited.  That keeps the inputs fully seeded
while letting ``digests.json`` hold the output digest of every input the
benchmark can ever give the program.

The generators mirror the families of ``tests/randgen.py`` (same draws in the
same order) without importing it: the program receives only the JSON
documents written here, plus the bundled ratings corpus for ratings-bench.
"""

import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

UNIVERSE = 48
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORPUS = os.path.join(SRC, "rankfair", "data")

# --- generators -------------------------------------------------------------


def _items(m):
    return ["o%d" % (k + 1) for k in range(m)]


def _agents(n):
    return ["g%d" % (k + 1) for k in range(n)]


def binary_additive(rng, items, density=0.6):
    return {"type": "binary_additive",
            "approved": [it for it in items if rng.random() < density]}


def transversal(rng, agent, items, max_members=4, density=0.45):
    members = []
    for j in range(rng.randint(1, max_members)):
        members.append({"id": "%s_m%d" % (agent, j),
                        "adjacent": [it for it in items if rng.random() < density]})
    return {"type": "binary_assignment", "members": members}


def rank_valuation(rng, agent, items):
    """Mixed binary-additive / (0,1)-OXS / truncated matroid rank function."""
    kind = rng.choice(("additive", "transversal", "truncated"))
    if kind == "additive":
        return binary_additive(rng, items)
    if kind == "transversal":
        return transversal(rng, agent, items)
    if rng.random() < 0.5:
        inner = binary_additive(rng, items)
    else:
        inner = transversal(rng, agent, items)
    return {"type": "truncated", "cap": rng.randint(1, max(1, len(items) - 1)),
            "inner": inner}


def _document(items, agents, valuation_of):
    return {"schema": 1, "items": items,
            "agents": [{"id": a, "valuation": valuation_of(a)} for a in agents]}


def mixed_rank_instance(rng, n, m):
    items, agents = _items(m), _agents(n)
    return _document(items, agents, lambda a: rank_valuation(rng, a, items))


def oxs_instance(rng, n, m, max_members=4, density=0.3):
    items, agents = _items(m), _agents(n)
    return _document(items, agents,
                     lambda a: transversal(rng, a, items, max_members, density))


# --- ops --------------------------------------------------------------------

OUTPUT = "out.json"


@dataclass
class Call:
    """One ``rankfair.cli.main`` invocation and what it left behind."""

    argv: list
    exits: tuple = (0,)        # exit codes the op accepts
    side_files: tuple = ()     # files the call writes, read back after the op
    exit_code: object = None
    stdout: str = ""
    error: str = ""            # traceback of an uncaught exception
    files: dict = field(default_factory=dict)  # side file name -> bytes


def digest(calls) -> str:
    """SHA-256 over every call's stdout and side files, in order."""
    h = hashlib.sha256()
    for call in calls:
        h.update(b"\0stdout\n")
        h.update(call.stdout.encode())
        for name in call.side_files:
            h.update(("\0file %s\n" % name).encode())
            h.update(call.files.get(name, b"\0missing"))
    return h.hexdigest()


class Workload:
    """One workload: its size, its op and the checks of the op's outputs.

    Universe member ``u`` is the op's input: a JSON document written to
    ``in-<u>.json`` or, for ratings-bench, a corpus seed.
    """

    name = ""
    size = ""
    op = ""

    def rng(self, index):
        return random.Random("%s:%d" % (self.name, index))

    def order(self, seed):
        """The run's visiting order of the universe."""
        order = list(range(UNIVERSE))
        random.Random("%s:order:%d" % (self.name, seed)).shuffle(order)
        return order

    def generate(self, index):
        raise NotImplementedError

    def write(self, workdir, index, generated):
        with open(os.path.join(workdir, "in-%d.json" % index), "w", encoding="utf-8") as handle:
            handle.write(json.dumps(generated))

    def calls(self, index, generated):
        raise NotImplementedError

    def check(self, generated, calls):
        """Problems in the outputs of an op whose calls all exited as expected."""
        raise NotImplementedError


def _solve(index, algorithm, machine=True):
    argv = ["solve", "--input", "in-%d.json" % index, "--algorithm", algorithm,
            "--output", OUTPUT]
    if machine:
        argv += ["--format", "machine"]
    side = {"usw-ef1": (OUTPUT, OUTPUT + ".transfers.tsv"),
            "leximin-flow": (OUTPUT, OUTPUT + ".network.tsv")}[algorithm]
    return Call(argv, side_files=side)


def _output(call):
    return json.loads(call.files[OUTPUT])


def _tsv_rows(data):
    lines = data.decode().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def check_usw_ef1(generated, call):
    """metrics.ef1, core.is_clean, and the transfer log's bound and potential drops."""
    from rankfair.core import is_clean
    from rankfair.documents import parse_allocation, parse_instance
    document = _output(call)
    instance = parse_instance(generated)
    allocation = parse_allocation(document, instance)
    problems = []
    if document["metrics"]["ef1"] is not True:
        problems.append("metrics.ef1 is not true")
    if not is_clean(instance, allocation):
        problems.append("allocation is not clean")
    steps = _tsv_rows(call.files[OUTPUT + ".transfers.tsv"])
    if len(steps) > instance.m ** 2 / 2:
        problems.append("%d transfers exceed m^2/2" % len(steps))
    for row in steps:
        if Fraction(row["phi_before"]) - Fraction(row["phi_after"]) < 2:
            problems.append("transfer %s lowers phi by less than 2" % row["step"])
    return problems


class RankUswEf1(Workload):
    """The paper's headline solver.

    Matroid intersection does almost all the work, on hot valuation caches;
    the flow and the weighted matching are bypassed.
    """

    name = "rank-usw-ef1"
    size = "8 agents x 32 items, each binary-additive, (0,1)-OXS or truncated"
    op = "solve --algorithm usw-ef1 --output out.json --format machine"

    def generate(self, index):
        return mixed_rank_instance(self.rng(index), 8, 32)

    def calls(self, index, generated):
        return [_solve(index, "usw-ef1")]

    def check(self, generated, calls):
        return check_usw_ef1(generated, calls[0])


class OxsLeximinFlow(Workload):
    """The convex-cost min-cost flow, plus one large global weighted matching.

    Bypasses matroid intersection.  Scaled down from 32 x 200 so that a run
    completes a couple of dozen ops.
    """

    name = "oxs-leximin-flow"
    size = "24 agents x 150 items, (0,1)-OXS, at most 4 members, edge density 0.3"
    op = "solve --algorithm leximin-flow --output out.json"

    def generate(self, index):
        return oxs_instance(self.rng(index), 24, 150)

    def calls(self, index, generated):
        return [_solve(index, "leximin-flow", machine=False)]

    def check(self, generated, calls):
        call = calls[0]
        metrics = _output(call)["metrics"]
        problems = []
        if metrics["pof"] != "1":
            problems.append("pof is %s, not 1" % metrics["pof"])
        if metrics["ef1"] is not True:
            problems.append("metrics.ef1 is not true")
        out_flows = {row["head"].split("/", 1)[1]: row["flow"]
                     for row in _tsv_rows(call.files[OUTPUT + ".network.tsv"])
                     if row["tail"] == "s"}
        if out_flows != metrics["values"]:
            problems.append("source out-flows differ from the agents' values")
        return problems


class DeskCertify(Workload):
    """The brute-force certification path.

    The PO and MMS scans, the exhaustive oracle and the rank verifier query
    many distinct small bundles on cold tables, unlike rank-usw-ef1's hot
    caches.
    """

    name = "desk-certify"
    size = "3 agents x 9 items, mixed matroid rank; 4 calls per op"
    op = ("solve --algorithm usw-ef1, check --properties all,clean, "
          "oracle --objective leximin, validate (all --format machine)")

    def generate(self, index):
        return mixed_rank_instance(self.rng(index), 3, 9)

    def calls(self, index, generated):
        doc = "in-%d.json" % index
        return [_solve(index, "usw-ef1"),
                Call(["check", "--input", doc, "--allocation", OUTPUT,
                      "--properties", "all,clean", "--format", "machine"], exits=(0, 4)),
                Call(["oracle", "--input", doc, "--objective", "leximin",
                      "--format", "machine"]),
                Call(["validate", "--input", doc, "--format", "machine"])]

    def check(self, generated, calls):
        solve, check, oracle, validate = calls
        problems = check_usw_ef1(generated, solve)
        verdicts = {row["name"]: row["pass"] for row in json.loads(check.stdout)["properties"]}
        for prop in ("ef1", "clean", "po"):
            if verdicts.get(prop) is not True:
                problems.append("check: %s does not pass" % prop)
        usw = Fraction(json.loads(solve.stdout)["metrics"]["usw"])
        leximin = json.loads(oracle.stdout)["optimal_vector"]
        if sum(Fraction(v) for v in leximin) != usw:
            problems.append("oracle leximin vector does not sum to the solve's usw")
        if json.loads(validate.stdout)["ok"] is not True:
            problems.append("validate does not report ok")
        return problems


class RatingsBench(Workload):
    """The paper's PoF/waste experiment on the bundled ratings corpus.

    The only caller of eit_general and the envy-graph baseline; about a
    thousand small Fraction-weighted matchings per op, against
    oxs-leximin-flow's one large integer matching.
    """

    name = "ratings-bench"
    size = "bundled ratings corpus, 20 sampled items, 1 run, grouped by occupation"
    op = "bench --attribute occupation --items 20 --runs 1 --seed k --format machine"

    def generate(self, index):
        return self.rng(index).randrange(2 ** 31)

    def write(self, workdir, index, generated):
        pass

    def calls(self, index, generated):
        return [Call(["bench", "--ratings", os.path.join(CORPUS, "ratings.dat"),
                      "--users", os.path.join(CORPUS, "users.dat"),
                      "--attribute", "occupation", "--items", "20", "--runs", "1",
                      "--seed", str(generated), "--format", "machine"])]

    def check(self, generated, calls):
        problems = []
        for cell in json.loads(calls[0].stdout)["cells"]:
            where = "%s/%s" % (cell["algorithm"], cell["model"])
            if (cell["algorithm"] == "eit-general" and not cell["exhausted_runs"]
                    and cell["mean_waste_pct"] != "0"):
                problems.append("%s wastes %s%%" % (where, cell["mean_waste_pct"]))
            if cell["mean_pof"] != "inf" and Fraction(cell["mean_pof"]) < 1:
                problems.append("%s has PoF %s below 1" % (where, cell["mean_pof"]))
        return problems


WORKLOADS = {w.name: w for w in (RankUswEf1(), OxsLeximinFlow(), DeskCertify(), RatingsBench())}
