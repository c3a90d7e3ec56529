"""Command-line front end.

Commands: solve (run an allocation algorithm on an instance document),
check (evaluate fairness/efficiency properties of an allocation), oracle
(exhaustive optimum of an objective), validate (matroid-rank axioms per
agent), bench (ratings-corpus experiment table).

Exit codes: 0 success; 1 parse or I/O failure; 2 algorithm inapplicable to
the instance's valuations; 3 transfer budget exhausted before the fairness
target was reached; 4 a requested property failed; 5 an exhaustive
computation refused to start because its enumeration budget was exceeded.
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import inf

from .balanced_flow import leximin_flow_allocation, network_dump
from .bench import (LEGACY_DELIMITER, LEGACY_RATINGS_COLUMNS, LEGACY_USERS_COLUMNS,
                    build_corpus, load_ratings, load_users, render_machine,
                    render_text, run_bench)
from .core import (ENUMERATION_BUDGET, Allocation, AllocationError, BudgetExceeded,
                   InapplicableAlgorithm, Instance, NonMatroidOracle,
                   TransferabilityViolated, first_ef1_violation, first_zero_marginal,
                   format_exact, values_vector)
from .documents import (DocumentError, dump_path, dumps, load_path,
                        parse_allocation, parse_instance, serialize_allocation)
from .eit import (eit_ef1, eit_general, envy_graph_baseline, price_of_fairness,
                  waste)
from .fairness import (check_mms, check_po_bruteforce, check_proportional,
                       check_wprop1, envy_report, min_eqc)
from .oracle import CONVEX_BUILTINS, OBJECTIVES, oracle_optimal, sum_squares
from .valuations import (EXHAUSTIVE_LIMIT, is_matroid_rank_family,
                         spot_check_matroid_rank, verify_matroid_rank)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INAPPLICABLE = 2
EXIT_TRANSFER_BUDGET = 3
EXIT_PROPERTY = 4
EXIT_ENUMERATION_BUDGET = 5

ENVY_FLAGS = ("ef", "ef1", "efx0", "efx_plus", "efx_plus_guarded", "mef1")
ALL_PROPERTIES = ("ef", "ef1", "efx0", "efx_plus", "mef1",
                  "proportional", "wprop1", "mms", "po")
ORACLE_WITNESSES = 3  # the most witnesses `oracle` prints


def _print_err(message: str) -> None:
    print(message, file=sys.stderr)


def _exact(value) -> str:
    if value == inf:
        return "inf"
    return format_exact(value)


def _render_value(value):
    """JSON-safe rendering of exact numbers, tuples and nested pairs."""
    if isinstance(value, (tuple, list)):
        return [_render_value(entry) for entry in value]
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    return _exact(value)


def _instance_from(path: str) -> Instance:
    return parse_instance(load_path(path))


def _solve_metrics(instance, allocation, algorithm, log, exhausted, side_files,
                   optimum):
    vector = values_vector(instance, allocation)
    metrics = {
        "algorithm": algorithm,
        "usw": _exact(sum(vector)),
        "values": {agent: _exact(v) for agent, v in zip(instance.agents, vector)},
        "sorted_values": [_exact(v) for v in sorted(vector)],
        "phi": _exact(sum_squares(vector)),
        "ef1": first_ef1_violation(instance, allocation) is None,
    }
    try:
        count, pct = waste(instance, allocation)
        metrics["waste_count"] = count
        metrics["waste_pct"] = _exact(pct)
        metrics["pof"] = _exact(price_of_fairness(instance, allocation, optimum))
    except InapplicableAlgorithm:
        metrics["waste_count"] = None
        metrics["waste_pct"] = None
        metrics["pof"] = None
    if log is not None:
        metrics["transfers"] = len(log)
        metrics["exhausted"] = exhausted
    metrics.update(side_files)
    return metrics


def _require_matroid_rank(instance) -> None:
    """Refuse an instance unless every valuation is a matroid rank function.

    A valuation of a family that is matroid rank by construction passes on
    its type alone; any other is verified exhaustively, which needs at most
    EXHAUSTIVE_LIMIT items.
    """
    for agent in instance.agents:
        valuation = instance.valuation(agent)
        if is_matroid_rank_family(valuation):
            continue
        if instance.m > EXHAUSTIVE_LIMIT:
            raise InapplicableAlgorithm(
                "agent %r has a %s valuation, which is not matroid rank by "
                "construction, and %d items are too many to verify (limit %d)"
                % (agent, type(valuation).__name__, instance.m, EXHAUSTIVE_LIMIT))
        report = verify_matroid_rank(valuation, instance.items)
        if not report.ok:
            raise InapplicableAlgorithm(
                "valuation of agent %r is not a matroid rank function (%s fails)"
                % (agent, report.axiom))


def cmd_solve(args) -> int:
    budget = _at_least("--budget", args.budget, 0)
    instance = _instance_from(args.input)
    log = None
    exhausted = False
    network = None
    optimum = None  # the optimal welfare, when the solver has found it
    if args.algorithm == "usw-ef1":
        _require_matroid_rank(instance)
        allocation, log = eit_ef1(instance)
    elif args.algorithm == "leximin-flow":
        allocation, network = leximin_flow_allocation(instance)
        # a maximum flow: its total out-flow is the optimal welfare
        optimum = sum(network.out_flows().values())
    elif args.algorithm == "eit-general":
        result = eit_general(instance, budget=budget)
        allocation, log, exhausted = result.allocation, result.log, result.exhausted
        optimum = result.optimum
    else:
        allocation = envy_graph_baseline(instance)

    side_files = {}
    if args.output and log is not None:
        log_path = args.output + ".transfers.tsv"
        with open(log_path, "w", encoding="utf-8") as handle:
            handle.write(log.to_tsv())
        side_files["transfer_log"] = log_path
    elif log is not None:
        side_files["transfer_log"] = None
    if args.output and network is not None:
        dump = args.output + ".network.tsv"
        with open(dump, "w", encoding="utf-8") as handle:
            handle.write(network_dump(network))
        side_files["network_dump"] = dump

    metrics = _solve_metrics(instance, allocation, args.algorithm, log,
                             exhausted, side_files, optimum)
    document = serialize_allocation(allocation, instance, metrics)
    text = dump_path(document, args.output) if args.output else None
    if args.format == "machine":
        print(text or dumps(document), end="")
    else:
        print("algorithm: %s" % args.algorithm)
        for agent in instance.agents:
            items = document["bundles"][agent]
            print("%s: %s" % (agent, ", ".join(items) if items else "(empty)"))
        print("withheld: %s" % (", ".join(document["withheld"]) or "(none)"))
        print("usw: %s | sorted values: %s | phi: %s"
              % (metrics["usw"], ", ".join(metrics["sorted_values"]), metrics["phi"]))
        extras = ["ef1: %s" % str(metrics["ef1"]).lower()]
        if "transfers" in metrics:
            extras.append("transfers: %d" % metrics["transfers"])
        if metrics["waste_pct"] is not None:
            extras.append("waste: %s (%s%%)" % (metrics["waste_count"], metrics["waste_pct"]))
            extras.append("pof: %s" % metrics["pof"])
        print(" | ".join(extras))
        if args.output:
            print("written: %s" % args.output)
    if exhausted:
        _print_err("transfer budget exhausted before reaching EF1")
        return EXIT_TRANSFER_BUDGET
    return EXIT_OK


def _first_failing_pair(report, flag):
    """The first pair failing ``flag``, in the report's (instance) order."""
    for pair, check in report.pairs.items():
        if not getattr(check, flag):
            return pair, check
    return None, None


def _evaluate_property(token, instance, allocation, cache, budget):
    if token in ENVY_FLAGS:
        if "envy" not in cache:
            cache["envy"] = envy_report(instance, allocation)
        report = cache["envy"]
        passed = report.all_pairs(token)
        if passed:
            return True, ""
        (i, j), check = _first_failing_pair(report, token)
        if token == "efx0" and check.efx0_violator is not None:
            return False, "witness %s (%s -> %s)" % (check.efx0_violator, i, j)
        return False, "%s -> %s (gap %s)" % (i, j, _exact(check.gap))
    if token == "proportional":
        ok, margins = check_proportional(instance, allocation)
        return ok, "" if ok else _margin_witness(instance, margins)
    if token == "wprop1":
        ok, margins = check_wprop1(instance, allocation)
        return ok, "" if ok else _margin_witness(instance, margins)
    if token == "mms":
        entries = check_mms(instance, allocation, budget=budget)
        failing = [(agent, entry) for agent, entry in entries.items() if not entry.ok]
        if not failing:
            return True, ""
        agent, entry = min(failing, key=lambda pair: instance.agent_index[pair[0]])
        return False, "agent %s: share %s, got %s" % (
            agent, _exact(entry.share), _exact(entry.value))
    if token == "po":
        ok, witness = check_po_bruteforce(instance, allocation, budget=budget)
        if ok:
            return True, ""
        described = ", ".join("%s: [%s]" % (agent, " ".join(instance.sorted_items(witness.bundle(agent))))
                              for agent in instance.agents)
        return False, "dominated by {%s}" % described
    if token.startswith("eq") and token[2:].isascii() and token[2:].isdigit():
        c = min_eqc(instance, allocation, budget=budget)
        bound = int(token[2:])
        return c <= bound, "min c = %d" % c
    if token == "clean":
        hit = first_zero_marginal(instance, allocation)
        if hit is None:
            return True, ""
        return False, "agent %s holds zero-marginal item %s" % hit
    if token == "complete":
        if not allocation.withheld:
            return True, ""
        return False, "withheld: %s" % ", ".join(instance.sorted_items(allocation.withheld))
    raise DocumentError("unknown property %r" % (token,))


def _margin_witness(instance, margins) -> str:
    for agent in instance.agents:
        if margins[agent] < 0:
            return "agent %s short by %s" % (agent, _exact(-margins[agent]))
    return ""


def _at_least(flag: str, value, minimum: int):
    """The value of a count flag, or None when absent; below ``minimum`` is a usage error."""
    if value is not None and value < minimum:
        raise DocumentError("%s must be at least %d, got %d" % (flag, minimum, value))
    return value


def _enumeration_budget(args) -> int:
    """The --budget of an exhaustive command, which is at least 1."""
    budget = _at_least("--budget", args.budget, 1)
    return ENUMERATION_BUDGET if budget is None else budget


def cmd_check(args) -> int:
    budget = _enumeration_budget(args)
    instance = _instance_from(args.input)
    allocation = parse_allocation(load_path(args.allocation), instance)
    tokens = []
    for token in args.properties.split(","):
        token = token.strip()
        if not token:
            continue
        if token == "all":
            tokens.extend(ALL_PROPERTIES)
        else:
            tokens.append(token)
    if not tokens:
        raise DocumentError("no properties requested")

    cache: dict = {}
    rows = []
    for token in tokens:
        passed, witness = _evaluate_property(token, instance, allocation, cache, budget)
        rows.append({"name": token, "pass": passed, "witness": witness})

    all_ok = all(row["pass"] for row in rows)
    if args.format == "machine":
        print(json.dumps({"properties": rows, "ok": all_ok}, indent=2))
    else:
        for row in rows:
            line = "%s %s" % (row["name"], "PASS" if row["pass"] else "FAIL")
            if row["witness"]:
                line += " " + row["witness"]
            print(line)
    return EXIT_OK if all_ok else EXIT_PROPERTY


def cmd_oracle(args) -> int:
    budget = _enumeration_budget(args)
    instance = _instance_from(args.input)
    result = oracle_optimal(instance, args.objective, convex=args.convex,
                            complete_only=args.complete_only, budget=budget,
                            witness_cap=ORACLE_WITNESSES)
    if args.format == "machine":
        payload = {
            "objective": result.objective,
            "optimal_value": _render_value(result.optimal_value),
            "optimal_vector": _render_value(result.optimal_vector),
            "witness_count": result.witness_count,
            "scanned": result.scanned,
            "witnesses": [
                {agent: instance.sorted_items(witness.bundle(agent))
                 for agent in instance.agents}
                for witness in result.witnesses
            ],
        }
        print(json.dumps(payload, indent=2))
    else:
        print("objective: %s" % result.objective)
        print("optimal value: %s" % json.dumps(_render_value(result.optimal_value)))
        print("vector: (%s)" % ", ".join(_exact(v) for v in result.optimal_vector))
        print("witnesses: %d (scanned %d)" % (result.witness_count, result.scanned))
        first = result.witnesses[0]
        for agent in instance.agents:
            items = instance.sorted_items(first.bundle(agent))
            print("  %s: %s" % (agent, ", ".join(items) if items else "(empty)"))
    return EXIT_OK


_WITNESS_KEY_ORDER = ("subset", "item", "context_item", "value", "size",
                      "gain", "gain_without", "gain_with")


def cmd_validate(args) -> int:
    samples = _at_least("--spot-check", args.spot_check, 1)
    if args.seed is not None and samples is None:
        raise DocumentError("--seed needs --spot-check")
    instance = _instance_from(args.input)
    items = instance.items
    rows = []
    failed = False
    for agent in instance.agents:
        valuation = instance.valuation(agent)
        if samples is not None:
            report = spot_check_matroid_rank(valuation, items, samples=samples,
                                             seed=args.seed if args.seed is not None else 0)
            mode = "spot (non-conclusive)"
        else:
            report = verify_matroid_rank(valuation, items)
            mode = "exhaustive"
        rows.append((agent, mode, report))
        if not report.ok:
            failed = True

    if args.format == "machine":
        payload = []
        for agent, mode, report in rows:
            entry = {"agent": agent, "mode": mode, "ok": report.ok,
                     "subsets_checked": report.subsets_checked}
            if not report.ok:
                entry["axiom"] = report.axiom
                entry["witness"] = {key: _render_value(value if not isinstance(value, frozenset)
                                                       else sorted(value))
                                    for key, value in report.witness.items()}
            payload.append(entry)
        print(json.dumps({"agents": payload, "ok": not failed}, indent=2))
    else:
        for agent, mode, report in rows:
            if report.ok:
                print("agent %s: OK (%s, %d subsets)" % (agent, mode, report.subsets_checked))
            else:
                parts = []
                for key in _WITNESS_KEY_ORDER:
                    if key in report.witness:
                        value = report.witness[key]
                        if isinstance(value, frozenset):
                            value = "[%s]" % " ".join(sorted(value))
                        parts.append("%s=%s" % (key, value))
                print("agent %s: FAIL %s %s" % (agent, report.axiom, " ".join(parts)))
    return EXIT_PROPERTY if failed else EXIT_OK


def _parse_column_map(spec: str) -> dict:
    columns = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        name, _, index = piece.partition("=")
        if not (index.isascii() and index.isdigit()):  # int() refuses '²'; isdigit() does not
            raise DocumentError("bad column mapping entry %r" % (piece,))
        columns[name.strip()] = int(index)
    return columns


def cmd_bench(args) -> int:
    budget = _at_least("--budget", args.budget, 0)
    ratings = load_ratings(args.ratings, args.delimiter,
                           _parse_column_map(args.ratings_map))
    users = load_users(args.users, args.delimiter,
                       _parse_column_map(args.users_map))
    corpus = build_corpus(ratings, users)
    report = run_bench(corpus, args.attribute, args.items, args.runs, args.seed,
                       transfer_budget=budget)
    if args.format == "machine":
        print(json.dumps(render_machine(report), indent=2))
    else:
        print(render_text(report), end="")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Argument errors map to the parse failure exit code, not argparse's."""

    def error(self, message):
        raise DocumentError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="rankfair",
                     description="Fair allocation of indivisible goods under "
                                 "matroid-rank and assignment valuations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, budget=True):
        p.add_argument("--format", choices=("text", "machine"), default="text")
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="override the relevant enumeration or transfer budget")

    solve = sub.add_parser("solve", help="run an allocation algorithm")
    solve.add_argument("--input", required=True)
    solve.add_argument("--algorithm", required=True,
                       choices=("usw-ef1", "leximin-flow", "eit-general", "envy-graph"))
    solve.add_argument("--output", default=None)
    common(solve)
    solve.set_defaults(func=cmd_solve)

    check = sub.add_parser("check", help="evaluate properties of an allocation")
    check.add_argument("--input", required=True)
    check.add_argument("--allocation", required=True)
    check.add_argument("--properties", required=True,
                       help="comma list: ef, ef1, efx0, efx_plus, efx_plus_guarded, "
                            "mef1, proportional, wprop1, mms, po, eqN, clean, "
                            "complete, or all")
    common(check)
    check.set_defaults(func=cmd_check)

    oracle = sub.add_parser("oracle", help="exhaustive optimum of an objective")
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--objective", required=True, choices=OBJECTIVES)
    oracle.add_argument("--convex", default="sum_squares", choices=tuple(CONVEX_BUILTINS),
                        help="gauge of min_convex; no other objective reads it")
    oracle.add_argument("--complete-only", action="store_true")
    common(oracle)
    oracle.set_defaults(func=cmd_oracle)

    validate = sub.add_parser("validate", help="check matroid-rank axioms per agent")
    validate.add_argument("--input", required=True)
    validate.add_argument("--spot-check", type=int, default=None, metavar="SAMPLES",
                          help="probabilistic mode: random subset samples instead "
                               "of the exhaustive scan (non-conclusive)")
    validate.add_argument("--seed", type=int, default=None)
    common(validate, budget=False)
    validate.set_defaults(func=cmd_validate)

    bench = sub.add_parser("bench", help="ratings-corpus experiment table")
    bench.add_argument("--ratings", required=True)
    bench.add_argument("--users", required=True)
    bench.add_argument("--attribute", required=True)
    bench.add_argument("--items", type=int, required=True)
    bench.add_argument("--runs", type=int, required=True)
    bench.add_argument("--seed", type=int, required=True)
    bench.add_argument("--delimiter", default=LEGACY_DELIMITER)
    bench.add_argument("--ratings-map",
                       default=",".join("%s=%d" % kv for kv in LEGACY_RATINGS_COLUMNS.items()))
    bench.add_argument("--users-map",
                       default=",".join("%s=%d" % kv for kv in LEGACY_USERS_COLUMNS.items()))
    common(bench)
    bench.set_defaults(func=cmd_bench)
    return parser


@cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main() reuses: parsing leaves no state on it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _shared_parser().parse_args(argv)
        return args.func(args)
    except DocumentError as exc:
        _print_err("error: %s" % exc)
        return EXIT_PARSE
    except (InapplicableAlgorithm, NonMatroidOracle, TransferabilityViolated) as exc:
        _print_err("inapplicable: %s" % exc)
        return EXIT_INAPPLICABLE
    except AllocationError as exc:
        _print_err("error: %s" % exc)
        return EXIT_PARSE
    except BudgetExceeded as exc:
        _print_err("budget exceeded: %s" % exc)
        return EXIT_ENUMERATION_BUDGET
    except OSError as exc:
        _print_err("i/o error: %s" % exc)
        return EXIT_PARSE


def console_main() -> None:
    sys.exit(main())
