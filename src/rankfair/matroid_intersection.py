"""Clean utilitarian-optimal allocations via matroid intersection.

Ground set: pairs (agent, item).  Two matroids live on it.  The partition
side allows at most one copy of each item; the union side allows a set
exactly when every agent's incident items form a clean bundle for them
(value equals size).  A maximum common independent set therefore *is* a
clean allocation of maximum utilitarian welfare, and is found here by
repeated shortest augmenting paths in the exchange graph.

The exchange graph of the current set X is never built.  Each augmentation
runs ``shortest_path`` over it, asking for a vertex's successors only when
the search expands that vertex, and both circuits are read off the
structure of X.  Partition side: a pair (a, o) outside X is a source when
no agent holds o; otherwise its circuit is {(a, o), (h, o)} with h the
holder, so (h, o) has an arc to every (b, o) with b != h.  Union side: the
matroid is the direct sum of one clean-bundle matroid per agent, so only
a's own bundle A takes part.  (a, o) is a sink when v_a(A + o) = |A| + 1;
otherwise it has an arc to every (a, x) with x in A and v_a(A - x + o) =
|A|.  That answer depends on (a, A) alone and is kept for the whole run.
When a's valuation family knows its matroid (``exchange`` in
``valuations``), the answer comes from that structure; otherwise it comes
from value queries.

Only use this on instances whose valuations are matroid rank functions
(binary-marginal, monotone, submodular); anything else either leaves an
unclean bundle after an augmentation (raising NonMatroidOracle with the
offending agent) or silently computes nonsense.  The CLI therefore admits
a valuation only when ``valuations.is_matroid_rank_family`` vouches for it
or ``verify_matroid_rank`` certifies it.
"""

from __future__ import annotations

from collections import deque

from .core import Allocation, Instance, NonMatroidOracle


def shortest_path(starts, successors, is_end):
    """Lexicographically least shortest path from a start to an end vertex.

    A FIFO breadth-first search from ``starts``; returns the vertex list
    of the path to the first end vertex it reaches, or None.  The queue
    dequeues vertices in the order it discovers them, so testing each
    vertex on discovery finds the same end as testing it on dequeue,
    without building the successor lists ahead of it.  When ``starts``
    and every ``successors(v)`` come in ascending order, each layer is
    discovered in lexicographic order of its least shortest path, so that
    first end closes the lexicographically least of all shortest
    start-to-end paths.  ``starts`` may be a one-shot iterable: it is read
    in order, and not past the first start that is an end, which is then
    the whole path.
    """
    parent = {}
    for v in starts:
        if is_end(v):
            return [v]
        parent[v] = None
    queue = deque(parent)
    end = None
    while end is None and queue:
        v = queue.popleft()
        for w in successors(v):
            if w not in parent:
                parent[w] = v
                queue.append(w)
                if is_end(w):
                    end = w
                    break
    path = []
    while end is not None:
        path.append(end)
        end = parent[end]
    return path[::-1] or None


def _bundles(instance: Instance, X) -> dict:
    bundles = {a: set() for a in instance.agents}
    for a, o in X:
        bundles[a].add(o)
    return bundles


def _union_side(instance: Instance, agent: str, bundle: frozenset):
    """Union-side sinks and circuits of ``agent``'s pairs outside ``bundle``.

    Returns (set of sink items, {item: sorted circuit items inside ``bundle``}),
    from the valuation's ``exchange`` query when it answers, and otherwise
    from value queries.
    """
    valuation = instance.valuation(agent)
    exchange = getattr(valuation, "exchange", None)
    answer = exchange and exchange(bundle, instance.items)
    if answer is not None:
        return answer
    value = valuation.value
    size = len(bundle)
    sinks = set()
    circuits = {}
    for o in instance.items:
        if o in bundle:
            continue
        if value(bundle | {o}) == size + 1:
            sinks.add(o)
        else:
            circuits[o] = [x for x in sorted(bundle)
                           if value((bundle - {x}) | {o}) == size]
    return sinks, circuits


def max_common_independent_set(instance: Instance) -> Allocation:
    """Clean allocation of maximum utilitarian welfare.

    Runs at most m augmentations; every augmentation grows the common
    independent set by exactly one element.  Vertices are searched in
    tuple order, so ids compare as strings (``g10`` before ``g2``).  After
    each augmentation the new set is re-checked against both matroids,
    the union side only for the agents on the path, since no other bundle
    changed; a failure means some valuation is not actually a matroid rank
    function and is reported as NonMatroidOracle naming the first such
    agent in instance order.
    """
    agents, items = sorted(instance.agents), sorted(instance.items)
    union_sides = {}
    X = frozenset()
    bundles = _bundles(instance, X)
    while True:
        sides = {}
        for a in instance.agents:
            key = (a, frozenset(bundles[a]))
            if key not in union_sides:
                union_sides[key] = _union_side(instance, *key)
            sides[a] = union_sides[key]

        def successors(v):
            a, o = v
            if v in X:
                return [(b, o) for b in agents if b != a]
            return [(a, x) for x in sides[a][1].get(o, ())]

        held = {o for _, o in X}
        sources = ((a, o) for a in agents for o in items if o not in held)
        path = shortest_path(sources, successors, lambda v: v[1] in sides[v[0]][0])
        if path is None:
            return Allocation.from_bundles(instance, bundles)
        X = X ^ frozenset(path)
        if len({o for _, o in X}) != len(X):
            raise NonMatroidOracle(
                path[-1][0], "augmentation produced a duplicated item"
            )
        bundles = _bundles(instance, X)
        moved = {a for a, _ in path}  # every other bundle is unchanged, and clean
        unclean = next((a for a in instance.agents if a in moved
                        and instance.value(a, bundles[a]) != len(bundles[a])), None)
        if unclean is not None:
            raise NonMatroidOracle(
                unclean, "augmentation produced an unclean bundle"
            )
