"""Clean utilitarian-optimal allocations via matroid intersection.

Ground set: pairs (agent, item).  Two matroids live on it.  The partition
side allows at most one copy of each item; the union side allows a set
exactly when every agent's incident items form a clean bundle for them
(value equals size).  A maximum common independent set therefore *is* a
clean allocation of maximum utilitarian welfare, and is found here by
repeated shortest augmenting paths in the exchange graph.

Most augmentations need no search: when some source is already a sink,
the first such source in tuple order is the whole path, and it is read
off the per-agent sink sets.  Otherwise the exchange graph of the current
set X is searched but never built: ``shortest_path`` asks for a vertex's
successors only when it expands that vertex, and both circuits are read
off the structure of X.  Partition side: a pair (a, o) outside X is a
source when no agent holds o; otherwise its circuit is {(a, o), (h, o)}
with h the holder, so (h, o) has an arc to every (b, o) with b != h.
Union side: the matroid is the direct sum of one clean-bundle matroid per
agent, so only a's own bundle A takes part.  (a, o) is a sink when
v_a(A + o) = |A| + 1; otherwise it has an arc to every (a, x) with x in A
and v_a(A - x + o) = |A|.  That answer depends on (a, A) alone and is kept
until a's bundle changes.  When a's valuation family knows its matroid
(``exchange`` in ``valuations``), the sinks come from that structure and
each circuit is computed there the first time the search asks for it;
otherwise value queries give them all.

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


def _union_side(instance: Instance, agent: str, bundle: frozenset):
    """Union-side sinks and circuits of ``agent``'s pairs outside ``bundle``.

    Returns (set of sink items, circuit), where circuit(o) gives the sorted
    circuit items inside ``bundle`` of an item o outside it that is no sink.
    The valuation's ``exchange`` query answers when it can, computing each
    circuit on first request; otherwise value queries answer, all at once.
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
    return sinks, circuits.__getitem__


def _augmenting_path(instance: Instance, X, held, sides):
    """The lexicographically least shortest augmenting path for X, or None.

    ``held`` is the set of items X holds and ``sides[a]`` agent a's union
    side for its bundle in X.  The first source that is a sink closes the
    path by itself: that is the least unheld sink item of the first agent,
    in sorted order, that has one, read off ``sides`` without a search.
    Only when no agent has one does ``shortest_path`` run over the exchange
    graph, from the sources in tuple order.
    """
    agents = sorted(instance.agents)
    for a in agents:
        free = sides[a][0] - held
        if free:
            return [(a, min(free))]

    def successors(v):
        a, o = v
        if v in X:
            return [(b, o) for b in agents if b != a]
        sinks, circuit = sides[a]
        return () if o in sinks else [(a, x) for x in circuit(o)]

    sources = ((a, o) for a in agents for o in sorted(instance.items) if o not in held)
    return shortest_path(sources, successors, lambda v: v[1] in sides[v[0]][0])


def max_common_independent_set(instance: Instance) -> Allocation:
    """Clean allocation of maximum utilitarian welfare.

    Runs at most m augmentations; each one flips the path that
    ``_augmenting_path`` returns, which grows the common independent set X
    by exactly one element.  Vertices are searched in tuple order, so ids
    compare as strings (``g10`` before ``g2``).  X, the bundles and the
    union sides carry over from one augmentation to the next; only the
    agents on the path get a new bundle and a new union side.  After each
    augmentation the new set is re-checked against both matroids: the
    partition side over the whole of X, by reading its held items off it
    afresh, and the union side only for the agents on the path, since no
    other bundle changed.  A failure means some valuation is not actually a
    matroid rank function and is reported as NonMatroidOracle naming the
    first such agent in instance order.
    """
    X, held = set(), set()
    bundles = dict.fromkeys(instance.agents, frozenset())
    sides = {a: _union_side(instance, a, bundles[a]) for a in instance.agents}
    while True:
        path = _augmenting_path(instance, X, held, sides)
        if path is None:
            return Allocation.from_bundles(instance, bundles)
        for a, o in path:
            bundles[a] = bundles[a] - {o} if (a, o) in X else bundles[a] | {o}
        X.symmetric_difference_update(path)
        held = {o for _, o in X}
        if len(held) != len(X):
            raise NonMatroidOracle(
                path[-1][0], "augmentation produced a duplicated item"
            )
        moved = {a for a, _ in path}  # every other bundle is unchanged, and clean
        unclean = next((a for a in instance.agents if a in moved
                        and instance.value(a, bundles[a]) != len(bundles[a])), None)
        if unclean is not None:
            raise NonMatroidOracle(
                unclean, "augmentation produced an unclean bundle"
            )
        sides.update((a, _union_side(instance, a, bundles[a])) for a in moved)
