"""Clean utilitarian-optimal allocations via matroid intersection.

Ground set: pairs (agent, item).  Two matroids live on it.  The partition
side allows at most one copy of each item; the union side allows a set
exactly when every agent's incident items form a clean bundle for them
(value equals size).  A maximum common independent set therefore *is* a
clean allocation of maximum utilitarian welfare, and is found here by
repeated shortest augmenting paths in the exchange graph.

Both circuits of an outside pair (a, o) are read off the structure of the
current set X.  Partition side: if some agent h holds o, the circuit is
{(a, o), (h, o)}; otherwise there is none.  Union side: the matroid is the
direct sum of one clean-bundle matroid per agent, so only a's own bundle A
takes part.  There is no circuit when v_a(A + o) = |A| + 1; otherwise the
circuit is (a, o) together with {(a, x) : x in A, v_a(A - x + o) = |A|}.
That answer depends on (a, A) alone and is kept for the whole run.

Only use this on instances whose valuations are matroid rank functions
(binary-marginal, monotone, submodular); anything else either leaves an
unclean bundle after an augmentation (raising NonMatroidOracle with the
offending agent) or silently computes nonsense, which is why the CLI gates
access behind declared families or an explicit verification pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Allocation, Instance, NonMatroidOracle


@dataclass(frozen=True)
class ExchangeGraph:
    """Exchange graph of a common independent set X.

    Vertices are ``(agent, item)`` tuples.  ``sources``: pairs outside X
    addable on the partition side (item unused).  ``sinks``: pairs outside
    X addable on the union side (the agent absorbs the item cleanly).
    ``arcs`` maps each vertex to its sorted successor list: from y outside
    X to the members of its union-side circuit, and from x inside X to the
    outside pairs whose partition-side circuit contains x.  Augmenting
    along a shortest source-to-sink path keeps X common independent.
    """

    vertices: tuple
    sources: tuple
    sinks: tuple
    arcs: dict = field(hash=False)


def _bundles(instance: Instance, X) -> dict:
    bundles = {a: set() for a in instance.agents}
    for a, o in X:
        bundles[a].add(o)
    return bundles


def _union_side(instance: Instance, agent: str, bundle: frozenset):
    """Union-side sinks and circuits of ``agent``'s pairs outside ``bundle``.

    Returns (sink items, {item: sorted circuit items inside ``bundle``}).
    """
    value = instance.valuation(agent).value
    size = len(bundle)
    sinks = []
    circuits = {}
    for o in instance.items:
        if o in bundle:
            continue
        if value(bundle | {o}) == size + 1:
            sinks.append(o)
        else:
            circuits[o] = [x for x in sorted(bundle)
                           if value((bundle - {x}) | {o}) == size]
    return sinks, circuits


def build_exchange_graph(instance: Instance, X, union_sides: dict) -> ExchangeGraph:
    """Exchange graph of the common independent set X.

    ``union_sides`` maps (agent, bundle) to that agent's union side; the
    caller passes one dict per run so unchanged bundles are not re-valued.
    """
    holder = {o: a for a, o in X}
    bundles = _bundles(instance, X)
    vertices = tuple((a, o) for a in instance.agents for o in instance.items)
    arcs = {v: [] for v in vertices}
    sources = []
    sinks = []
    for a in instance.agents:
        key = (a, frozenset(bundles[a]))
        if key not in union_sides:
            union_sides[key] = _union_side(instance, *key)
        sink_items, circuits = union_sides[key]
        sinks.extend((a, o) for o in sink_items)
        for o in instance.items:
            if o in bundles[a]:
                continue
            if o in circuits:
                arcs[(a, o)] = [(a, x) for x in circuits[o]]
            if o in holder:
                arcs[(holder[o], o)].append((a, o))
            else:
                sources.append((a, o))
    for x in X:
        arcs[x].sort()
    return ExchangeGraph(
        vertices=vertices,
        sources=tuple(sorted(sources)),
        sinks=tuple(sorted(sinks)),
        arcs=arcs,
    )


def _shortest_augmenting_path(graph: ExchangeGraph):
    """Shortest source-to-sink path; ties by lexicographically least vertices.

    Returns the vertex sequence or None.  Distance-to-sink is computed by a
    reverse breadth-first search, then the path is grown greedily: start at
    the least source of minimal distance and always step to the least
    successor one layer closer to a sink.
    """
    sinks = set(graph.sinks)
    if not sinks or not graph.sources:
        return None
    reverse = {v: [] for v in graph.vertices}
    for v, outs in graph.arcs.items():
        for w in outs:
            reverse[w].append(v)
    dist = {v: 0 for v in sinks}
    frontier = sorted(sinks)
    while frontier:
        nxt = []
        for v in frontier:
            for u in reverse[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    nxt.append(u)
        frontier = sorted(set(nxt))
    reachable = [s for s in graph.sources if s in dist]
    if not reachable:
        return None
    best = min(dist[s] for s in reachable)
    node = min(s for s in reachable if dist[s] == best)
    path = [node]
    while dist[node] > 0:
        node = min(w for w in graph.arcs[node] if dist.get(w) == dist[node] - 1)
        path.append(node)
    return path


def max_common_independent_set(instance: Instance) -> Allocation:
    """Clean allocation of maximum utilitarian welfare.

    Runs at most m augmentations; every augmentation grows the common
    independent set by exactly one element.  After each augmentation the
    new set is re-checked against both matroids; a failure means some
    valuation is not actually a matroid rank function and is reported as
    NonMatroidOracle naming that agent.
    """
    union_sides = {}
    X = frozenset()
    while True:
        graph = build_exchange_graph(instance, X, union_sides)
        path = _shortest_augmenting_path(graph)
        if path is None:
            break
        X = X ^ frozenset(path)
        if len({o for _, o in X}) != len(X):
            raise NonMatroidOracle(
                path[-1][0], "augmentation produced a duplicated item"
            )
        bundles = _bundles(instance, X)
        unclean = next((a for a in instance.agents
                        if instance.value(a, bundles[a]) != len(bundles[a])), None)
        if unclean is not None:
            raise NonMatroidOracle(
                unclean, "augmentation produced an unclean bundle"
            )
    return Allocation.from_bundles(instance, _bundles(instance, X))
