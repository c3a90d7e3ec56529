"""The one shortest-path search against the two extractions it replaced.

``shortest_path`` serves both the matroid intersection (sorted starts and
successors, so it must return the lexicographically least shortest path)
and the envy-cycle baseline (successors in agent order).  Each use is
compared here with a test-local copy of the search it replaced, on seeded
random digraphs.
"""

import random
from collections import Counter, deque

from rankfair.eit import _shortest_envy_cycle
from rankfair.matroid_intersection import shortest_path


def _reverse_bfs_path(vertices, sources, sinks, arcs):
    """The former augmenting-path extraction of the matroid intersection.

    Distance to the sinks by a reverse breadth-first search, then a greedy
    walk from the least source of minimal distance, always to the least
    successor one layer closer to a sink.
    """
    sinks = set(sinks)
    if not sinks or not sources:
        return None
    reverse = {v: [] for v in vertices}
    for v, outs in arcs.items():
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
    reachable = [s for s in sources if s in dist]
    if not reachable:
        return None
    best = min(dist[s] for s in reachable)
    node = min(s for s in reachable if dist[s] == best)
    path = [node]
    while dist[node] > 0:
        node = min(w for w in arcs[node] if dist.get(w) == dist[node] - 1)
        path.append(node)
    return path


def _bfs_cycle(agents, edges):
    """The former envy-cycle search: a breadth-first search with path copies."""
    best = None
    for start in agents:
        queue = [(start, [start])]
        seen = {start}
        while queue:
            node, path = queue.pop(0)
            for nxt in edges[node]:
                if nxt == start:
                    if best is None or len(path) < len(best):
                        best = path
                elif nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, path + [nxt]))
    return best


def _shortest_path_count(starts, arcs, ends):
    """(distance, number of shortest start-to-end paths), or None."""
    dist = dict.fromkeys(starts, 0)
    ways = dict.fromkeys(starts, 1)
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        for w in arcs[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                ways[w] = 0
                queue.append(w)
            if dist[w] == dist[v] + 1:
                ways[w] += ways[v]
    reached = [dist[v] for v in ends if v in dist]
    if not reached:
        return None
    best = min(reached)
    return best, sum(ways[v] for v in ends if dist.get(v) == best)


def _random_graph(rng):
    """Pair vertices with string ids, so ``g10`` sorts before ``g2``."""
    agents = ["g%d" % k for k in range(1, rng.randint(1, 12) + 1)]
    items = ["o%d" % k for k in range(1, rng.randint(1, 3) + 1)]
    vertices = [(a, o) for a in agents for o in items]
    density = rng.choice((0.05, 0.15, 0.3, 0.6))
    arcs = {v: sorted(w for w in vertices if w != v and rng.random() < density)
            for v in vertices}
    sources = sorted(rng.sample(vertices, rng.randint(1, min(4, len(vertices)))))
    sinks = sorted(rng.sample(vertices, rng.randint(0, min(3, len(vertices)))))
    return vertices, sources, sinks, arcs


def test_matches_reverse_bfs_extraction_on_random_digraphs():
    rng = random.Random(90210)
    seen = Counter()
    for _ in range(3000):
        vertices, sources, sinks, arcs = _random_graph(rng)
        ends = set(sinks)
        expanded = []

        def successors(v):
            expanded.append(v)
            return arcs[v]

        path = shortest_path(sources, successors, ends.__contains__)
        assert path == _reverse_bfs_path(vertices, sources, sinks, arcs)
        # ends are tested on discovery, so no end is ever expanded
        assert ends.isdisjoint(expanded)
        shortest = _shortest_path_count(sources, arcs, ends)
        if shortest is None:
            seen["unreachable" if ends else "no end"] += 1
        elif shortest[0] == 0:
            assert expanded == []
            seen["start is an end"] += 1
        elif shortest[1] > 1:
            seen["tie of %s paths" % ("long" if shortest[0] > 1 else "short")] += 1
        if len(sources) > 1 and path is not None and path[0] != sources[0]:
            seen["not the least start"] += 1
    assert min(seen.values()) >= 30, seen
    assert len(seen) == 6, seen


def test_a_start_that_is_an_end_needs_no_successors():
    calls = []

    def successors(v):
        calls.append(v)
        return [v + 1]

    # the last start is the only end; the starts ahead of it are not expanded
    assert shortest_path([0, 5, 9], successors, lambda v: v == 9) == [9]
    assert calls == []
    # an end one step away: only the starts ahead of it are expanded
    assert shortest_path([0, 5], successors, lambda v: v == 6) == [5, 6]
    assert calls == [0, 5]

    # starts may be one-shot, and are not read past the first end
    def starts(*vertices):
        yield from vertices
        raise AssertionError("starts read past the first end")

    del calls[:]
    assert shortest_path(starts(3, 7, 8), successors, lambda v: v > 5) == [7]
    assert shortest_path(starts(2, 2, 4), successors, lambda v: v == 4) == [4]
    assert calls == []
    assert shortest_path(iter([0, 5]), successors, lambda v: v == 6) == [5, 6]
    assert calls == [0, 5]


def test_matches_bfs_cycle_search_on_random_envy_graphs():
    rng = random.Random(4242)
    lengths = Counter()
    for _ in range(2000):
        agents = ["g%d" % k for k in range(1, rng.randint(1, 9) + 1)]
        rng.shuffle(agents)
        density = rng.choice((0.1, 0.25, 0.5))
        edges = {a: [b for b in agents if b != a and rng.random() < density]
                 for a in agents}
        cycle = _shortest_envy_cycle(agents, edges)
        assert cycle == _bfs_cycle(agents, edges)
        lengths[0 if cycle is None else len(cycle)] += 1
    assert lengths[0] >= 30 and lengths[2] >= 30 and lengths[3] >= 30, lengths
    assert sum(lengths[k] for k in lengths if k > 3) >= 10, lengths
