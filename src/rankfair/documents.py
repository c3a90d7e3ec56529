"""JSON documents for instances and allocations.

Numbers are carried as exact decimal or fraction strings so that the
exact-arithmetic contract survives serialization; floats are rejected on
input.  Parsing raises DocumentError with a line/column position when the
underlying text is not valid JSON, and with a plain message for semantic
problems (unknown items, negative weights, bad schema).
"""

import json
from typing import Mapping, Optional

from .core import Allocation, Instance, format_exact, parse_exact, validate_allocation
from .valuations import (
    AllOrNothingValuation,
    AssignmentValuation,
    BinaryAdditiveValuation,
    BinaryAssignmentValuation,
    ScaledValuation,
    TruncatedValuation,
)

SCHEMA_VERSION = 1

# The most truncated and scaled wrappers one valuation may stack: every
# query recurses through them all, so a deeper stack exhausts the interpreter.
MAX_NESTING = 100


class DocumentError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None,
                 column: Optional[int] = None):
        if line is not None:
            message = "%s (line %d, column %d)" % (message, line, column)
        super().__init__(message)
        self.line = line
        self.column = column


def _exact_in(value, where: str):
    if isinstance(value, bool) or isinstance(value, float):
        raise DocumentError("%s must be an exact decimal or fraction string, got %r"
                            % (where, value))
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return parse_exact(value)
        except ValueError as exc:
            raise DocumentError("%s: %s" % (where, exc)) from exc
    raise DocumentError("%s has unsupported number type %r" % (where, type(value).__name__))


def valuation_to_descriptor(valuation) -> dict:
    """Serializable descriptor for every document-supported valuation type."""
    if isinstance(valuation, BinaryAdditiveValuation):
        return {"type": "binary_additive", "approved": sorted(valuation.approved)}
    if isinstance(valuation, BinaryAssignmentValuation):
        return {"type": "binary_assignment",
                "members": [{"id": member, "adjacent": sorted(valuation.adjacency[member])}
                            for member in valuation.members]}
    if isinstance(valuation, AssignmentValuation):
        return {"type": "assignment",
                "members": [{"id": member,
                             "weights": {item: format_exact(w)
                                         for item, w in sorted(valuation.weights[member].items())}}
                            for member in valuation.members]}
    if isinstance(valuation, TruncatedValuation):
        return {"type": "truncated", "cap": valuation.cap,
                "inner": valuation_to_descriptor(valuation.inner)}
    if isinstance(valuation, ScaledValuation):
        return {"type": "scaled", "lambda": format_exact(valuation.lam),
                "inner": valuation_to_descriptor(valuation.inner)}
    if isinstance(valuation, AllOrNothingValuation):
        return {"type": "all_or_nothing", "required": sorted(valuation.required)}
    raise DocumentError("valuation type %r has no document form"
                        % (type(valuation).__name__,))


def _identifiers(value, what: str) -> frozenset:
    """A list of string identifiers as a frozenset; any other value is a DocumentError."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise DocumentError("%s must be a list of string identifiers" % what)
    return frozenset(value)


def descriptor_to_valuation(descriptor: Mapping, where: str, referenced: set,
                            depth: int = 0):
    """The valuation a descriptor describes; its item identifiers join
    ``referenced``.  ``depth`` counts the wrappers around it."""
    if not isinstance(descriptor, Mapping) or "type" not in descriptor:
        raise DocumentError("%s descriptor must be an object with a type" % where)
    if depth > MAX_NESTING:
        raise DocumentError("%s nests truncated and scaled valuations more than %d deep"
                            % (where, MAX_NESTING))

    def items(value, key):
        found = _identifiers(value, "%s %s" % (where, key))
        referenced.update(found)
        return found

    kind = descriptor["type"]
    try:
        if kind == "binary_additive":
            return BinaryAdditiveValuation(items(descriptor["approved"], "approved"))
        if kind == "binary_assignment":
            adjacency = [(entry["id"], items(entry["adjacent"], "adjacent"))
                         for entry in descriptor["members"]]
            if len(dict(adjacency)) != len(adjacency):
                raise ValueError("duplicate member identifiers")
            return BinaryAssignmentValuation(dict(adjacency))
        if kind == "assignment":
            members = [entry["id"] for entry in descriptor["members"]]
            weights = {}
            for entry in descriptor["members"]:
                row = entry["weights"]
                if not isinstance(row, Mapping):
                    raise DocumentError("%s weights must be an object" % where)
                items(list(row), "weights")
                weights[entry["id"]] = {item: _exact_in(w, "%s weight %s" % (where, item))
                                        for item, w in row.items()}
            return AssignmentValuation(members, weights)
        if kind == "truncated":
            cap = descriptor["cap"]
            if not isinstance(cap, int) or isinstance(cap, bool):
                raise DocumentError("%s cap must be an integer" % where)
            return TruncatedValuation(
                descriptor_to_valuation(descriptor["inner"], where, referenced, depth + 1), cap)
        if kind == "scaled":
            lam = _exact_in(descriptor["lambda"], "%s lambda" % where)
            return ScaledValuation(
                descriptor_to_valuation(descriptor["inner"], where, referenced, depth + 1), lam)
        if kind == "all_or_nothing":
            return AllOrNothingValuation(items(descriptor["required"], "required"))
    except DocumentError:
        raise
    except (KeyError, TypeError) as exc:
        raise DocumentError("%s descriptor is malformed: %s" % (where, exc)) from exc
    except ValueError as exc:
        raise DocumentError("%s: %s" % (where, exc)) from exc
    raise DocumentError("%s has unknown valuation type %r" % (where, kind))


def serialize_instance(instance: Instance) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "items": list(instance.items),
        "agents": [{"id": agent,
                    "valuation": valuation_to_descriptor(instance.valuation(agent))}
                   for agent in instance.agents],
    }


def parse_instance(data) -> Instance:
    if not isinstance(data, Mapping):
        raise DocumentError("instance document must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise DocumentError("unsupported schema version %r (expected %d)"
                            % (data.get("schema"), SCHEMA_VERSION))
    items = data.get("items")
    agents = data.get("agents")
    if not isinstance(items, list) or not all(isinstance(it, str) for it in items):
        raise DocumentError("items must be a list of string identifiers")
    if not isinstance(agents, list) or not agents:
        raise DocumentError("agents must be a non-empty list")
    known = set(items)
    ids = []
    valuations = {}
    for entry in agents:
        if not isinstance(entry, Mapping) or "id" not in entry or "valuation" not in entry:
            raise DocumentError("each agent needs an id and a valuation descriptor")
        agent = entry["id"]
        if not isinstance(agent, str):
            raise DocumentError("agent id %r is not a string identifier" % (agent,))
        ids.append(agent)
        referenced = set()
        valuations[agent] = descriptor_to_valuation(
            entry["valuation"], "agent %r" % (agent,), referenced)
        stray = referenced - known
        if stray:
            raise DocumentError("agent %r references unknown items: %s"
                                % (agent, ", ".join(sorted(stray))))
    try:
        return Instance(agents=tuple(ids), items=tuple(items), valuations=valuations)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def serialize_allocation(allocation: Allocation, instance: Instance,
                         metrics: Optional[Mapping] = None) -> dict:
    document = {
        "schema": SCHEMA_VERSION,
        "bundles": {agent: instance.sorted_items(allocation.bundle(agent))
                    for agent in instance.agents},
        "withheld": instance.sorted_items(allocation.withheld),
    }
    if metrics is not None:
        document["metrics"] = dict(metrics)
    return document


def parse_allocation(data, instance: Instance) -> Allocation:
    if not isinstance(data, Mapping):
        raise DocumentError("allocation document must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise DocumentError("unsupported schema version %r (expected %d)"
                            % (data.get("schema"), SCHEMA_VERSION))
    bundles_field = data.get("bundles")
    if not isinstance(bundles_field, Mapping):
        raise DocumentError("bundles must map agent ids to item lists")
    stray_agents = set(bundles_field) - set(instance.agents)
    if stray_agents:
        raise DocumentError("unknown agents in allocation: %s"
                            % (", ".join(sorted(stray_agents))))

    def distinct(value, what):
        found = _identifiers(value, what)
        if len(found) != len(value):
            raise DocumentError("%s lists an item twice" % what)
        return found

    bundles = {agent: distinct(bundles_field.get(agent, []), "bundle of agent %r" % (agent,))
               for agent in instance.agents}
    allocation = Allocation.from_bundles(instance, bundles)
    violations = validate_allocation(instance, allocation)
    if violations:
        raise DocumentError("; ".join(violations))
    declared = data.get("withheld")
    if declared is not None:
        if distinct(declared, "withheld") != allocation.withheld:
            raise DocumentError(
                "declared withheld set %s does not match the complement %s"
                % (sorted(declared), instance.sorted_items(allocation.withheld)))
    return allocation


def loads(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("invalid JSON: %s" % exc.msg,
                            line=exc.lineno, column=exc.colno) from exc
    except (ValueError, RecursionError) as exc:  # too many digits, or too deep
        raise DocumentError("invalid JSON: %s" % exc) from exc


def load_path(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DocumentError("cannot read %s: %s" % (path, exc.strerror)) from exc
    except UnicodeDecodeError as exc:
        raise DocumentError("cannot read %s: not UTF-8 text" % path) from exc
    return loads(text)


def dumps(document: Mapping) -> str:
    return json.dumps(document, indent=2) + "\n"


def dump_path(document: Mapping, path: str) -> str:
    """Write ``dumps(document)`` to ``path``; returns the text written."""
    text = dumps(document)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return text
