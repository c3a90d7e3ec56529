"""Domain model: instances, allocations, value vectors, cleaning, validation.

The per-bundle allocation predicates live here, each defined once:
``first_zero_marginal`` (cleanliness) and ``ef1_pair`` with
``first_ef1_violation`` (envy-freeness up to one item).  Both report the
first violation in index order; the solvers, the checkers and the
enumeration oracle all take their verdicts from them.  For a valuation
that answers ``coloops(bundle)`` (see ``valuations``), ``ef1_pair`` reads
the verdict off that bundle's matroid: a matroid rank is at most the
bundle's size, and removing an item lowers it exactly when the item is a
coloop, so at most one value and one coloop query decide the pair.

Everything in this package is exact arithmetic (int or fractions.Fraction).
Floats are deliberately never produced by any computation here: leximin and
Nash comparisons are exact statements and rounding would corrupt them.

An instance fixes an ordered list of agents, an ordered list of items, and
one valuation oracle per agent.  Allocations are partial by design: items
not handed to any agent sit in the withheld pool.  "Lowest index" in any
tie-break refers to the position in the instance's agent/item ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping

Value = "int | Fraction"

# Default cap on the cases an exhaustive computation may enumerate
# (placements, partitions or subsets) before it refuses to start.
ENUMERATION_BUDGET = 2_000_000


class AllocationError(ValueError):
    """An allocation breaks the structural rules of its instance."""


class BudgetExceeded(RuntimeError):
    """An exhaustive computation would exceed its configured budget.

    Raised instead of silently truncating: callers asked for an exhaustive
    answer and must not mistake a partial scan for one.
    """

    def __init__(self, what: str, needed, budget):
        super().__init__(f"{what}: needs {needed}, budget is {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


class InapplicableAlgorithm(RuntimeError):
    """The requested algorithm does not apply to this instance's valuations."""


class TransferabilityViolated(RuntimeError):
    """An envied bundle holds no item with positive marginal gain.

    Cannot happen for submodular valuations; raising it is how non-submodular
    inputs announce themselves mid-run.
    """

    def __init__(self, envious: str, envied: str):
        super().__init__(
            f"transferability violated: agent {envious!r} envies {envied!r} "
            f"but no item in the envied bundle has positive marginal gain"
        )
        self.envious = envious
        self.envied = envied


class NonMatroidOracle(RuntimeError):
    """A valuation declared matroid-rank failed an independence query mid-run."""

    def __init__(self, agent: str, detail: str = ""):
        msg = f"valuation of agent {agent!r} is not a matroid rank function"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.agent = agent


@dataclass(frozen=True)
class Instance:
    """Agents, items, and one valuation per agent.

    Agent and item identifiers must be unique strings; orderings are
    significant (they define every deterministic tie-break downstream).
    """

    agents: tuple
    items: tuple
    valuations: Mapping

    def __post_init__(self):
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "valuations", dict(self.valuations))
        if len(set(self.agents)) != len(self.agents):
            raise ValueError("duplicate agent identifiers")
        if len(set(self.items)) != len(self.items):
            raise ValueError("duplicate item identifiers")
        missing = [a for a in self.agents if a not in self.valuations]
        if missing:
            raise ValueError(f"no valuation for agents {missing}")
        for a in self.agents:
            v0 = self.valuations[a].value(frozenset())
            if v0 != 0:
                raise ValueError(f"agent {a!r}: value of the empty bundle is {v0}, not 0")

    @cached_property
    def agent_index(self) -> dict:
        return {a: k for k, a in enumerate(self.agents)}

    @cached_property
    def item_index(self) -> dict:
        return {o: k for k, o in enumerate(self.items)}

    @property
    def n(self) -> int:
        return len(self.agents)

    @property
    def m(self) -> int:
        return len(self.items)

    def valuation(self, agent: str):
        return self.valuations[agent]

    def value(self, agent: str, bundle) -> "Value":
        return self.valuations[agent].value(frozenset(bundle))

    def sorted_items(self, bundle) -> list:
        return sorted(bundle, key=self.item_index.__getitem__)


@dataclass(frozen=True)
class Allocation:
    """Bundles per agent plus an explicit withheld pool.

    ``bundles`` may omit agents (their bundle is empty).  Items appearing in
    neither a bundle nor ``withheld`` are simply unallocated; completeness is
    a separate predicate, not a constructor requirement.
    """

    bundles: Mapping
    withheld: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(
            self, "bundles", {a: frozenset(b) for a, b in dict(self.bundles).items()}
        )
        object.__setattr__(self, "withheld", frozenset(self.withheld))

    @staticmethod
    def from_bundles(instance: Instance, bundles: Mapping) -> "Allocation":
        """Build an allocation whose withheld pool is the exact complement."""
        bundles = {a: frozenset(b) for a, b in bundles.items()}
        used = set()
        for b in bundles.values():
            used |= b
        withheld = frozenset(instance.items) - used
        return Allocation(bundles, withheld)

    def bundle(self, agent: str) -> frozenset:
        return self.bundles.get(agent, frozenset())

    def allocated_items(self) -> frozenset:
        out = set()
        for b in self.bundles.values():
            out |= b
        return frozenset(out)


def marginal_gain(valuation, bundle, item: str) -> "Value":
    """Value added by ``item`` on top of ``bundle``.

    Raises ValueError when the item is already inside the bundle; a zero
    answer there would silently corrupt transfer logic.
    """
    bundle = frozenset(bundle)
    if item in bundle:
        raise ValueError(f"item {item!r} already in the bundle")
    return valuation.value(bundle | {item}) - valuation.value(bundle)


def values_vector(instance: Instance, allocation: Allocation) -> tuple:
    """Per-agent bundle values in instance agent order."""
    return tuple(
        instance.value(a, allocation.bundle(a)) for a in instance.agents
    )


def _zero_marginal_item(instance: Instance, agent: str, bundle: frozenset):
    """The lowest-index item of the bundle whose removal costs the agent nothing."""
    v = instance.valuation(agent)
    base = v.value(bundle)
    for item in instance.sorted_items(bundle):
        if v.value(bundle - {item}) == base:
            return item
    return None


def clean(instance: Instance, allocation: Allocation) -> Allocation:
    """Strip zero-marginal items from every bundle into the withheld pool.

    Deterministic: agents in instance order; within an agent, the
    lowest-index item whose removal keeps the bundle value unchanged is
    removed first, and the bundle is rescanned after every removal.  Bundle
    values are preserved exactly, so welfare is unchanged.
    """
    bundles = {a: allocation.bundle(a) for a in instance.agents}
    withheld = set(allocation.withheld)
    for agent in instance.agents:
        item = _zero_marginal_item(instance, agent, bundles[agent])
        while item is not None:
            bundles[agent] -= {item}
            withheld.add(item)
            item = _zero_marginal_item(instance, agent, bundles[agent])
    return Allocation(bundles, frozenset(withheld))


def first_zero_marginal(instance: Instance, allocation: Allocation):
    """The first (agent, item) whose removal leaves the agent's value unchanged.

    Agents and items are scanned in index order; None means no bundle holds
    such an item.
    """
    for agent in instance.agents:
        item = _zero_marginal_item(instance, agent, allocation.bundle(agent))
        if item is not None:
            return agent, item
    return None


def ef1_pair(instance: Instance, allocation: Allocation, i: str, j: str) -> tuple:
    """(ok, item): whether agent i is envy-free of j up to one item.

    i passes when it does not envy j (item None), or when removing some item
    of A_j ends the envy; item is then the first such item in index order.
    The verdict is ``_ef1_verdict``'s.
    """
    valuation = instance.valuation(i)
    return _ef1_verdict(instance, valuation, valuation.value(allocation.bundle(i)),
                        allocation.bundle(j))


def _ef1_verdict(instance: Instance, valuation, own, theirs: frozenset) -> tuple:
    """``ef1_pair``'s (ok, item) for an agent with ``valuation`` who values
    its own bundle at ``own``, against the bundle ``theirs``.

    When the valuation answers ``coloops`` (a matroid rank function whose
    matroid is explicit), the verdict comes from that structure: v_i(A_j)
    is at most |A_j|, and v_i(A_j - o) is v_i(A_j) - 1 exactly when o is a
    coloop of A_j and v_i(A_j) otherwise.  So own >= |A_j| needs no value
    of A_j, own + 1 < v_i(A_j) is a violation, and at own + 1 = v_i(A_j)
    the witness is the first coloop (the first item when v_i(A_j) = |A_j|,
    since then every item is one).  Other valuations value A_j minus each
    item in turn.
    """
    coloops = getattr(valuation, "coloops", None)
    if coloops is not None and own >= len(theirs):
        return True, None
    whole = valuation.value(theirs)
    if own >= whole:
        return True, None
    if coloops is not None:
        if own + 1 < whole:
            return False, None
        removable = theirs if whole == len(theirs) else coloops(theirs)
        if not removable:
            return False, None
        return True, min(removable, key=instance.item_index.__getitem__)
    for o in instance.sorted_items(theirs):
        if own >= valuation.value(theirs - {o}):
            return True, o
    return False, None


def first_ef1_violation(instance: Instance, allocation: Allocation):
    """First ordered pair (i, j), in instance order, where i is not EF1 of j.

    None when the allocation is EF1.  Each agent's own bundle is valued once.
    """
    bundles = [allocation.bundle(a) for a in instance.agents]
    for i, own_bundle in zip(instance.agents, bundles):
        valuation = instance.valuation(i)
        own = valuation.value(own_bundle)
        for j, theirs in zip(instance.agents, bundles):
            if i != j and not _ef1_verdict(instance, valuation, own, theirs)[0]:
                return i, j
    return None


def is_clean(instance: Instance, allocation: Allocation) -> bool:
    """True iff no bundle contains an item whose removal costs nothing.

    For valuations with binary marginal gains this is equivalent to every
    bundle being worth exactly its size.
    """
    return first_zero_marginal(instance, allocation) is None


def is_complete(instance: Instance, allocation: Allocation) -> bool:
    """True iff every item of the instance sits in some bundle."""
    return allocation.allocated_items() == frozenset(instance.items)


def validate_allocation(instance: Instance, allocation: Allocation) -> list:
    """Check structural soundness; returns a list of violation messages.

    An empty list means the allocation is valid: bundle keys are instance
    agents, all placed items exist, and no item occurs twice (across two
    bundles or inside both a bundle and the withheld pool).
    """
    violations = []
    known_items = set(instance.items)
    seen = {}
    for agent in allocation.bundles:
        if agent not in instance.agent_index:
            violations.append(f"unknown agent {agent!r} in bundles")
    for agent in instance.agents:
        bundle = allocation.bundle(agent)
        ordered = instance.sorted_items(bundle & known_items) + sorted(bundle - known_items)
        for item in ordered:
            if item not in known_items:
                violations.append(f"unknown item {item!r} in bundle of agent {agent!r}")
                continue
            if item in seen:
                violations.append(
                    f"item {item!r} appears in bundles of both {seen[item]!r} and {agent!r}"
                )
            seen[item] = agent
    for item in sorted(allocation.withheld):
        if item not in known_items:
            violations.append(f"unknown item {item!r} in withheld pool")
        elif item in seen:
            violations.append(
                f"item {item!r} is both withheld and in the bundle of {seen[item]!r}"
            )
    return violations


def assert_valid(instance: Instance, allocation: Allocation) -> None:
    """Raise AllocationError on the first structural violation."""
    violations = validate_allocation(instance, allocation)
    if violations:
        raise AllocationError(violations[0])


def format_exact(value) -> str:
    """Render an exact number as a string no information is lost through.

    Integers print plainly.  Fractions print as a finite decimal when the
    denominator divides a power of ten, and as "p/q" otherwise, so the
    output can always be parsed back to the identical value.
    """
    if isinstance(value, int):
        return str(value)
    if not isinstance(value, Fraction):
        raise TypeError(f"expected int or Fraction, got {type(value).__name__}")
    num, den = value.numerator, value.denominator
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    k = max(twos, fives)
    if k == 0:
        return str(num)
    scaled = num * 10**k // den
    digits = str(abs(scaled)).rjust(k + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:]}"


_EXACT_CHARACTERS = frozenset("0123456789+-./")


def parse_exact(raw) -> "Value":
    """Parse an exact number: an int, or a string like "3", "2.9", "3/8".

    Floats are rejected on purpose; they would smuggle rounding into a
    codebase whose comparisons are all exact.  A string holds only ASCII
    digits and "+-./" inside surrounding whitespace: no exponent, whose
    ten bytes could ask for a gigabyte integer, no "_" and no other digits.
    """
    if isinstance(raw, bool):
        raise TypeError("booleans are not numbers here")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        try:
            if not set(raw.strip()) <= _EXACT_CHARACTERS:
                raise ValueError(raw)
            value = Fraction(raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse exact number from {raw!r}") from exc
        return int(value) if value.denominator == 1 else value
    raise TypeError(
        f"expected int or string for an exact number, got {type(raw).__name__} ({raw!r})"
    )
