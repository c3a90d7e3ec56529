"""Ratings-corpus experiment harness.

Replays the sampled-items protocol on a delimited ratings corpus: each run
draws k items with a seeded generator, keeps the users who rated at least
one drawn item, groups them by a demographic attribute, and builds one
assignment-valuation instance per weight model:

- ratings: member weights are the raw ratings;
- norm: each group's weights are divided by the group's matching value of
  the whole drawn sample, so the valuation equals v_h(S) / v_h(O) exactly.

Both the general transfer heuristic and the envy-graph baseline run on
every instance; the report carries per-run outcomes and per-cell means of
waste and price of fairness.  Replicates use seeds derived from the master
seed, so one seed fixes the entire table bit for bit; they are independent
and could run in parallel, but execute sequentially here since desk-scale
runs are matching-bound and small.
"""

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import inf
from typing import Mapping, Optional, Sequence

from .core import Instance, format_exact, parse_exact, values_vector
from .documents import DocumentError
from .eit import eit_general, envy_graph_baseline, price_of_fairness, waste
from .valuations import AssignmentValuation

LEGACY_DELIMITER = "::"
LEGACY_RATINGS_COLUMNS = {"user": 0, "item": 1, "rating": 2}
LEGACY_USERS_COLUMNS = {"user": 0, "gender": 1, "age": 2, "occupation": 3, "zip": 4}

ALGORITHMS = ("envy-graph", "eit-general")
MODELS = ("ratings", "norm")


@dataclass(frozen=True)
class RatingsCorpus:
    """Parsed ratings plus user attributes.

    Users appearing in ratings but missing from the attributes file are
    dropped (with a warning at build time) and listed in ``dropped_users``.
    """

    ratings: tuple
    attributes: Mapping
    dropped_users: tuple

    def items(self) -> tuple:
        return tuple(sorted({item for _, item, _ in self.ratings}))


def _rows(path: str, delimiter: str, columns: Mapping, required: Sequence,
          what: str):
    """(line number, fields) for each non-blank line of a delimited file.

    The column map must name every ``required`` column, the delimiter must
    not be empty, the file must be UTF-8 text and every row must reach the
    map's highest column; each failure raises DocumentError.
    """
    for name in required:
        if name not in columns:
            raise DocumentError("%s column map needs a %r entry" % (what, name))
    if not delimiter:
        raise DocumentError("the delimiter must not be empty")
    needed = max(columns.values()) + 1
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc.strerror)) from exc
    with handle:
        try:
            for lineno, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                fields = line.rstrip("\n").split(delimiter)
                if len(fields) < needed:
                    raise DocumentError("%s line %d: expected at least %d fields, got %d"
                                        % (path, lineno, needed, len(fields)))
                yield lineno, fields
        except UnicodeDecodeError as exc:
            raise DocumentError("cannot read %s: not UTF-8 text" % path) from exc


def load_ratings(path: str, delimiter: str = LEGACY_DELIMITER,
                 columns: Optional[Mapping] = None) -> list:
    """Rows of (user, item, rating) with exact non-negative ratings."""
    columns = dict(LEGACY_RATINGS_COLUMNS if columns is None else columns)
    rows = []
    for lineno, fields in _rows(path, delimiter, columns,
                                ("user", "item", "rating"), "ratings"):
        raw = fields[columns["rating"]]
        try:
            rating = parse_exact(raw)
        except ValueError as exc:
            raise DocumentError("%s line %d: %s" % (path, lineno, exc)) from exc
        if rating < 0:
            raise DocumentError("%s line %d: negative rating %s"
                                % (path, lineno, raw))
        rows.append((fields[columns["user"]], fields[columns["item"]], rating))
    return rows


def load_users(path: str, delimiter: str = LEGACY_DELIMITER,
               columns: Optional[Mapping] = None) -> dict:
    """user id -> {attribute name: value} for every non-user column."""
    columns = dict(LEGACY_USERS_COLUMNS if columns is None else columns)
    users = {}
    for _, fields in _rows(path, delimiter, columns, ("user",), "users"):
        users[fields[columns["user"]]] = {name: fields[idx]
                                          for name, idx in columns.items()
                                          if name != "user"}
    return users


def build_corpus(ratings: Sequence, attributes: Mapping) -> RatingsCorpus:
    known = set(attributes)
    kept = []
    dropped = set()
    for user, item, rating in ratings:
        if user in known:
            kept.append((user, item, rating))
        else:
            dropped.add(user)
    if dropped:
        warnings.warn("dropped %d user(s) with ratings but no attributes: %s"
                      % (len(dropped), ", ".join(sorted(dropped))))
    return RatingsCorpus(ratings=tuple(kept), attributes=dict(attributes),
                         dropped_users=tuple(sorted(dropped)))


def group_instances(corpus: RatingsCorpus, attribute: str,
                    sampled_items: Sequence) -> dict:
    """One instance per weight model over the sampled items.

    Agents are the attribute values among users who gave a positive rating
    to at least one sampled item.  The norm model divides each group's
    weights by that group's raw value of the full sample, which scales the
    matching value exactly.
    """
    sampled = tuple(sampled_items)
    chosen = set(sampled)
    per_user = {}
    for user, item, rating in corpus.ratings:
        if item in chosen and rating > 0:
            per_user.setdefault(user, {})[item] = rating
    groups = {}
    for user in sorted(per_user):
        info = corpus.attributes[user]
        if attribute not in info:
            raise DocumentError("attribute %r not present for user %r"
                                % (attribute, user))
        groups.setdefault(str(info[attribute]), []).append(user)
    agents = tuple(sorted(groups))
    if not agents:
        raise DocumentError("no user rated any of the sampled items positively")

    raw_valuations = {}
    for agent in agents:
        members = groups[agent]
        raw_valuations[agent] = AssignmentValuation(
            members, {u: per_user[u] for u in members})
    raw_instance = Instance(agents=agents, items=sampled,
                            valuations=raw_valuations)

    norm_valuations = {}
    for agent in agents:
        members = groups[agent]
        full_value = raw_valuations[agent].value(frozenset(sampled))
        if full_value == 0:
            scale = 1
        else:
            scale = Fraction(1, 1) / full_value
        norm_valuations[agent] = AssignmentValuation(
            members,
            {u: {item: rating * scale for item, rating in per_user[u].items()}
             for u in members})
    norm_instance = Instance(agents=agents, items=sampled,
                             valuations=norm_valuations)
    return {"ratings": raw_instance, "norm": norm_instance}


@dataclass(frozen=True)
class RunOutcome:
    algorithm: str
    model: str
    usw: object
    waste_count: int
    waste_pct: Fraction
    pof: object
    exhausted: bool


@dataclass(frozen=True)
class BenchRun:
    seed: str
    items: tuple
    outcomes: Mapping  # (algorithm, model) -> RunOutcome


@dataclass(frozen=True)
class BenchCell:
    algorithm: str
    model: str
    mean_waste_pct: object
    mean_pof: object
    exhausted_runs: int


@dataclass(frozen=True)
class BenchReport:
    attribute: str
    items_per_run: int
    runs: int
    seed: int
    group_count: int
    run_results: tuple
    cells: Mapping  # (algorithm, model) -> BenchCell


def _run_seed(seed: int, index: int) -> str:
    return "%d:%d" % (seed, index)


def run_bench(corpus: RatingsCorpus, attribute: str, items_per_run: int,
              runs: int, seed: int, transfer_budget: Optional[int] = None) -> BenchReport:
    universe = corpus.items()
    if items_per_run < 1:
        raise DocumentError("items per run must be at least 1")
    if items_per_run > len(universe):
        raise DocumentError("cannot sample %d items from a corpus with %d"
                            % (items_per_run, len(universe)))
    if runs < 1:
        raise DocumentError("runs must be at least 1")

    run_results = []
    group_counts = set()
    for index in range(runs):
        derived = _run_seed(seed, index)
        rng = random.Random(derived)
        sampled = tuple(rng.sample(universe, items_per_run))
        instances = group_instances(corpus, attribute, sampled)
        group_counts.add(len(instances["ratings"].agents))
        outcomes = {}
        for model in MODELS:
            instance = instances[model]
            # the transfers start from the global optimum: both prices of
            # fairness reuse its welfare
            general = eit_general(instance, budget=transfer_budget)
            outcomes[("envy-graph", model)] = _outcome(
                "envy-graph", model, instance, envy_graph_baseline(instance),
                general.optimum, exhausted=False)
            outcomes[("eit-general", model)] = _outcome(
                "eit-general", model, instance, general.allocation,
                general.optimum, exhausted=general.exhausted)
        run_results.append(BenchRun(seed=derived, items=sampled, outcomes=outcomes))

    cells = {}
    for algorithm in ALGORITHMS:
        for model in MODELS:
            picked = [run.outcomes[(algorithm, model)] for run in run_results]
            mean_waste = sum(o.waste_pct for o in picked) / Fraction(runs)
            pofs = [o.pof for o in picked]
            mean_pof = inf if any(p == inf for p in pofs) else sum(pofs) / Fraction(runs)
            cells[(algorithm, model)] = BenchCell(
                algorithm=algorithm, model=model,
                mean_waste_pct=mean_waste, mean_pof=mean_pof,
                exhausted_runs=sum(1 for o in picked if o.exhausted))
    return BenchReport(attribute=attribute, items_per_run=items_per_run,
                       runs=runs, seed=seed,
                       group_count=max(group_counts) if group_counts else 0,
                       run_results=tuple(run_results), cells=cells)


def _outcome(algorithm, model, instance, allocation, optimum, exhausted) -> RunOutcome:
    count, pct = waste(instance, allocation)
    return RunOutcome(algorithm=algorithm, model=model,
                      usw=sum(values_vector(instance, allocation)),
                      waste_count=count, waste_pct=pct,
                      pof=price_of_fairness(instance, allocation, optimum),
                      exhausted=exhausted)


def _fixed(value, places: int) -> str:
    """Exact decimal rendering of a rational, rounded half-up."""
    if value == inf:
        return "inf"
    as_fraction = Fraction(value)
    scale = 10 ** places
    shifted = as_fraction * scale
    whole = shifted.numerator // shifted.denominator
    if 2 * (shifted - whole) >= 1:
        whole += 1
    sign = "-" if whole < 0 else ""
    digits = str(abs(whole)).rjust(places + 1, "0")
    return "%s%s.%s" % (sign, digits[:-places], digits[-places:])


def render_text(report: BenchReport) -> str:
    """Fixed-width table: one column per algorithm and weight model."""
    header = ("attribute: %s (%d groups), runs: %d, items per run: %d, seed: %d"
              % (report.attribute, report.group_count, report.runs,
                 report.items_per_run, report.seed))
    columns = [(algorithm, model) for algorithm in ALGORITHMS for model in MODELS]
    width = 2 + max(len("%s/%s" % col) for col in columns)
    lines = [header, ""]
    lines.append("".ljust(8) + "".join(("%s/%s" % col).ljust(width) for col in columns))
    pof_cells = [_fixed(report.cells[col].mean_pof, 4) for col in columns]
    lines.append("PoF".ljust(8) + "".join(cell.ljust(width) for cell in pof_cells))
    waste_cells = [_fixed(report.cells[col].mean_waste_pct, 2) + "%" for col in columns]
    lines.append("Waste".ljust(8) + "".join(cell.ljust(width) for cell in waste_cells))
    exhausted = sum(cell.exhausted_runs for cell in report.cells.values())
    if exhausted:
        lines.append("")
        lines.append("transfer budget exhausted in %d cell run(s)" % exhausted)
    return "\n".join(lines) + "\n"


def render_machine(report: BenchReport) -> dict:
    def number(x):
        return "inf" if x == inf else format_exact(Fraction(x))

    return {
        "attribute": report.attribute,
        "groups": report.group_count,
        "runs": report.runs,
        "items_per_run": report.items_per_run,
        "seed": report.seed,
        "cells": [
            {"algorithm": cell.algorithm, "model": cell.model,
             "mean_pof": number(cell.mean_pof),
             "mean_waste_pct": number(cell.mean_waste_pct),
             "exhausted_runs": cell.exhausted_runs}
            for cell in (report.cells[(a, m)] for a in ALGORITHMS for m in MODELS)
        ],
        "run_seeds": [run.seed for run in report.run_results],
    }
