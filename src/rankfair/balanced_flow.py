"""Leximin allocations for unit-weight assignment valuations via network flow.

The instance becomes a four-layer unit-capacity network: source -> group ->
member -> item -> sink, with a member-item arc exactly where the member is
adjacent to the item.  Any integral maximum flow is a clean utilitarian
optimal allocation (group h receives the items its members absorb, and the
out-flow f(s,h) equals v_h(A_h)).  Among all maximum flows, the one whose
out-flow vector is leximin-maximal is found by making the source arcs
convex: the k-th unit entering group h costs 2k-1, so a flow of k units
costs k^2, and a min-cost maximum flow minimizes the sum of squared
out-flows, which picks the leximin (equivalently Nash-optimal) vector.

Only the source arcs carry a cost, so every augmenting path costs the
marginal 2f+1 of the group it leaves the source through.  Successive
shortest paths then needs no shortest-path search: it augments from the
least-loaded group that still reaches the sink, along the lexicographically
least node-index path, which a depth-first search in ascending node order
finds first.  Loads stay plain integers and the result is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .core import Allocation, AllocationError, InapplicableAlgorithm, Instance
from .valuations import AssignmentValuation


@dataclass(frozen=True)
class FlowEdge:
    tail: tuple
    head: tuple
    capacity: int
    cost: int = 0
    flow: int = 0


@dataclass(frozen=True)
class FlowNetwork:
    """Edge list network; node names are structured tuples.

    ("s",) and ("t",) are the terminals, ("g", agent) the group layer,
    ("m", agent, member) the member layer, ("o", item) the item layer.
    """

    nodes: tuple
    edges: tuple
    source: tuple = ("s",)
    sink: tuple = ("t",)

    def out_flows(self) -> dict:
        """Flow leaving the source, keyed by agent."""
        return {
            e.head[1]: e.flow for e in self.edges if e.tail == self.source
        }


def _node_label(node: tuple) -> str:
    return "/".join(str(part) for part in node)


def network_dump(network: FlowNetwork) -> str:
    """Tab-separated edge list: tail, head, capacity, cost, flow."""
    lines = ["tail\thead\tcapacity\tcost\tflow"]
    for e in network.edges:
        lines.append(
            f"{_node_label(e.tail)}\t{_node_label(e.head)}\t{e.capacity}\t{e.cost}\t{e.flow}"
        )
    return "\n".join(lines) + "\n"


def _adjacency(instance: Instance) -> dict:
    """agent -> member -> sorted item list; rejects non-unit weights."""
    adj = {}
    for a in instance.agents:
        v = instance.valuation(a)
        if isinstance(v, AssignmentValuation):
            rows = {}
            for mb in v.members:
                for item, w in v.weights[mb].items():
                    if w != 1:
                        raise InapplicableAlgorithm(
                            f"flow construction needs unit weights; agent {a!r} "
                            f"member {mb!r} weighs {item!r} at {w}"
                        )
                rows[mb] = instance.sorted_items(v.weights[mb])
            adj[a] = rows
        else:
            raise InapplicableAlgorithm(
                f"flow construction needs assignment valuations; agent {a!r} "
                f"has {type(v).__name__}"
            )
    return adj


def build_flow_network(instance: Instance) -> FlowNetwork:
    """Zero-flow network for a unit-weight assignment instance."""
    adj = _adjacency(instance)
    m = instance.m
    s, t = ("s",), ("t",)
    nodes = [s]
    edges = []
    for a in instance.agents:
        nodes.append(("g", a))
        edges.append(FlowEdge(s, ("g", a), capacity=m))
    for a in instance.agents:
        for mb in instance.valuation(a).members:
            nodes.append(("m", a, mb))
            edges.append(FlowEdge(("g", a), ("m", a, mb), capacity=1))
    for a in instance.agents:
        for mb in instance.valuation(a).members:
            for item in adj[a][mb]:
                edges.append(FlowEdge(("m", a, mb), ("o", item), capacity=1))
    for item in instance.items:
        nodes.append(("o", item))
        edges.append(FlowEdge(("o", item), t, capacity=1))
    nodes.append(t)
    return FlowNetwork(nodes=tuple(nodes), edges=tuple(edges))


def _path_to_sink(start, sink, adj, head, cap, seen):
    """Residual arcs of the first start-sink path a depth-first search finds.

    Successors are tried in ascending node index and ``seen`` is shared with
    the caller, so the path is the lexicographically least one that avoids
    every node already ruled out.  None when the sink is out of reach.
    """
    stack, arcs = [iter(adj[start])], []
    while stack:
        for a in stack[-1]:
            v = head[a]
            if cap[a] > 0 and not seen[v]:
                seen[v] = True
                arcs.append(a)
                if v == sink:
                    return arcs
                stack.append(iter(adj[v]))
                break
        else:
            stack.pop()
            if arcs:
                arcs.pop()
    return None


def balanced_max_flow(network: FlowNetwork) -> FlowNetwork:
    """Maximum flow whose source out-flow vector is leximin-maximal.

    Each augmentation starts from the least-loaded group with spare source
    capacity that reaches the sink without the source (ties: lowest node
    index), along the lexicographically least node-index path.  One visited
    set serves every group of an augmentation: nothing reachable from a
    group that failed reaches the sink.  Only source arcs may carry a cost
    and each group has one of them, else ValueError.  Returns a copy of the
    network with the ``flow`` fields filled in.
    """
    index = {node: k for k, node in enumerate(network.nodes)}
    s, t = index[network.source], index[network.sink]
    source_edge = {}  # group node -> position of its source arc
    forward = {}  # position of any other edge -> its forward residual arc
    head, cap = [], []  # residual arc pairs: 2k forward, 2k+1 backward
    adj = [[] for _ in network.nodes]
    for pos, e in enumerate(network.edges):
        u, v = index[e.tail], index[e.head]
        if u == s:
            if v in source_edge:
                raise ValueError(f"two source arcs into {_node_label(e.head)}")
            source_edge[v] = pos
            continue
        if e.cost:
            raise ValueError(f"arc {_node_label(e.tail)} -> {_node_label(e.head)} "
                             f"costs {e.cost}; only source arcs may")
        forward[pos] = len(head)
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head += [v, u]
        cap += [e.capacity, 0]
    for out in adj:
        out.sort(key=lambda a: (head[a], a))
    load = dict.fromkeys(source_edge, 0)
    while True:
        seen = [False] * len(network.nodes)
        seen[s] = True
        spare = [g for g in load if load[g] < network.edges[source_edge[g]].capacity]
        for g in sorted(spare, key=lambda g: (load[g], g)):
            if not seen[g]:
                seen[g] = True
                arcs = [] if g == t else _path_to_sink(g, t, adj, head, cap, seen)
                if arcs is not None:
                    break
        else:
            break
        load[g] += 1
        for a in arcs:
            cap[a] -= 1
            cap[a ^ 1] += 1
    flows = {pos: load[g] for g, pos in source_edge.items()}
    flows.update((pos, cap[a ^ 1]) for pos, a in forward.items())
    flowed = tuple(replace(e, flow=flows[pos]) for pos, e in enumerate(network.edges))
    return FlowNetwork(nodes=network.nodes, edges=flowed, source=network.source, sink=network.sink)


def flow_to_allocation(network: FlowNetwork, instance: Instance) -> Allocation:
    """Read the allocation off a flowed network.

    Items whose member arc carries one unit go to that member's group; items
    with no flow are withheld.  Zero total flow therefore withholds
    everything.  Non-integral or over-unit flows are structural corruption
    and raise ValueError.
    """
    bundles = {a: set() for a in instance.agents}
    for e in network.edges:
        if e.tail[0] == "m" and e.head[0] == "o":
            if e.flow not in (0, 1):
                raise ValueError(
                    f"non-unit flow {e.flow!r} on arc {_node_label(e.tail)} -> "
                    f"{_node_label(e.head)}"
                )
            if e.flow == 1:
                bundles[e.tail[1]].add(e.head[1])
    return Allocation.from_bundles(instance, bundles)


def leximin_flow_allocation(instance: Instance) -> tuple:
    """Build, solve and read back: returns (allocation, flowed network).

    Sanity-checks that each group's source out-flow equals its realized
    value under the extracted allocation; a mismatch means the solver or
    the extraction is corrupt.
    """
    network = balanced_max_flow(build_flow_network(instance))
    allocation = flow_to_allocation(network, instance)
    out = network.out_flows()
    for agent in instance.agents:
        realized = instance.value(agent, allocation.bundle(agent))
        if out.get(agent, 0) != realized:
            raise AllocationError(
                f"source out-flow {out.get(agent, 0)} of group {agent!r} "
                f"differs from its realized value {realized}"
            )
    return allocation, network
