"""Seeded random instance generators shared by the test modules.

Everything is driven by an explicit random.Random so sweeps are
reproducible; no module-level state.
"""

from fractions import Fraction

from rankfair.core import Allocation, Instance
from rankfair.valuations import (AssignmentValuation, BinaryAdditiveValuation,
                                 BinaryAssignmentValuation, ScaledValuation,
                                 TruncatedValuation)


def _items(m):
    return tuple("o%d" % (k + 1) for k in range(m))


def _agents(n):
    return tuple("g%d" % (k + 1) for k in range(n))


def random_binary_additive(rng, items, density=0.6):
    return BinaryAdditiveValuation({it for it in items if rng.random() < density})


def random_transversal(rng, agent, items, max_members=4, density=0.45):
    members = {}
    for j in range(rng.randint(1, max_members)):
        members["%s_m%d" % (agent, j)] = {it for it in items if rng.random() < density}
    return BinaryAssignmentValuation(members)


def random_rank_valuation(rng, agent, items):
    """Mixed binary-additive / transversal / truncated matroid rank function."""
    kind = rng.choice(("additive", "transversal", "truncated"))
    if kind == "additive":
        return random_binary_additive(rng, items)
    if kind == "transversal":
        return random_transversal(rng, agent, items)
    if rng.random() < 0.5:
        inner = random_binary_additive(rng, items)
    else:
        inner = random_transversal(rng, agent, items)
    return TruncatedValuation(inner, rng.randint(1, max(1, len(items) - 1)))


def random_matroid_instance(rng, n=None, m=None) -> Instance:
    n = rng.choice((2, 3)) if n is None else n
    m = rng.randint(4, 7) if m is None else m
    items, agents = _items(m), _agents(n)
    return Instance(agents=agents, items=items,
                    valuations={a: random_rank_valuation(rng, a, items) for a in agents})


def random_binary_additive_instance(rng, n=None, m=None) -> Instance:
    n = rng.choice((2, 3)) if n is None else n
    m = rng.randint(3, 5) if m is None else m
    items, agents = _items(m), _agents(n)
    return Instance(agents=agents, items=items,
                    valuations={a: random_binary_additive(rng, items) for a in agents})


def random_oxs_instance(rng, n_max=3, m_max=7, max_members=4) -> Instance:
    """(0,1)-OXS: every agent a transversal rank over random adjacency."""
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    items, agents = _items(m), _agents(n)
    return Instance(agents=agents, items=items,
                    valuations={a: random_transversal(rng, a, items, max_members)
                                for a in agents})


_LAMBDAS = (1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 2))


def random_scaled_instance(rng, n=None, m=None) -> Instance:
    """Agent-wise positive multiples of matroid rank functions."""
    n = rng.choice((2, 3)) if n is None else n
    m = rng.randint(3, 6) if m is None else m
    items, agents = _items(m), _agents(n)
    vals = {}
    for a in agents:
        if rng.random() < 0.5:
            base = random_binary_additive(rng, items)
        else:
            base = random_transversal(rng, a, items)
        vals[a] = ScaledValuation(base, rng.choice(_LAMBDAS))
    return Instance(agents=agents, items=items, valuations=vals)


def random_weighted_assignment_instance(rng, n=None, m=None) -> Instance:
    """Assignment valuations with heterogeneous positive rational weights."""
    n = rng.choice((2, 3)) if n is None else n
    m = rng.randint(3, 5) if m is None else m
    items, agents = _items(m), _agents(n)
    vals = {}
    for a in agents:
        members = ["%s_m%d" % (a, j) for j in range(rng.randint(1, 3))]
        weights = {}
        for mb in members:
            weights[mb] = {it: Fraction(rng.randint(1, 8), rng.choice((1, 2, 4)))
                           for it in items if rng.random() < 0.5}
        vals[a] = AssignmentValuation(members, weights)
    return Instance(agents=agents, items=items, valuations=vals)


def random_allocation(rng, instance: Instance, allow_withheld=True) -> Allocation:
    bundles = {a: set() for a in instance.agents}
    for item in instance.items:
        k = rng.randint(0, len(instance.agents) - (0 if allow_withheld else 1))
        if k < len(instance.agents):
            bundles[instance.agents[k]].add(item)
    return Allocation.from_bundles(instance, bundles)
