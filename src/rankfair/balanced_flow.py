"""Leximin allocations for unit-weight assignment valuations via network flow.

The instance becomes a four-layer network: source -> group -> member ->
item -> sink, with a member-item arc exactly where the member is adjacent to
the item.  Any integral maximum flow is a clean utilitarian optimal
allocation, and the out-flow f(s,h) equals v_h(A_h).  The maximum flow whose
out-flow vector is leximin-maximal is the one that minimizes the sum of
squared out-flows: the k-th unit into a group costs 2k-1.  No arc stores that
cost; the convexity lives in the augmentation rule.  Every augmenting path
costs the 2f+1 of the group it leaves the source through, so successive
shortest paths augments from the least-loaded group that still reaches the
sink, along the lexicographically least node-index path, which a depth-first
search in ascending node order finds first.  The flow is solved on residual
arrays built straight from the instance; the bundles and the dump are read
off them, and the dump's cost column is a constant 0 kept for its format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Allocation, AllocationError, InapplicableAlgorithm, Instance
from .valuations import AssignmentValuation


@dataclass(frozen=True)
class FlowNetwork:
    """A solved network as residual arrays; ``labels`` name the nodes.

    Nodes are numbered source, groups, members, items, sink.  Arc 2k is the
    k-th arc below the source and 2k+1 its reverse, so cap[2k+1] is its flow.
    Each source arc has capacity ``source_capacity`` and carries its load.
    """

    labels: tuple
    head: tuple
    cap: tuple
    loads: dict  # agent -> flow on its source arc
    source_capacity: int

    def out_flows(self) -> dict:
        """Flow leaving the source, keyed by agent."""
        return dict(self.loads)


def network_dump(network: FlowNetwork) -> str:
    """Tab-separated arc list: tail, head, capacity, cost, flow."""
    labels, head, cap = network.labels, network.head, network.cap
    lines = ["tail\thead\tcapacity\tcost\tflow"]
    lines += [f"s\t{labels[g]}\t{network.source_capacity}\t0\t{load}"
              for g, load in enumerate(network.loads.values(), 1)]
    lines += [f"{labels[head[a + 1]]}\t{labels[head[a]]}\t{cap[a] + cap[a + 1]}\t0\t{cap[a + 1]}"
              for a in range(0, len(head), 2)]
    return "\n".join(lines) + "\n"


def _members(instance: Instance) -> list:
    """(agent, member, ascending indices of its items), in member-node order.

    Items the instance does not hold are skipped; other weights must be 1.
    """
    index = instance.item_index
    members = []
    for a in instance.agents:
        v = instance.valuation(a)
        if not isinstance(v, AssignmentValuation):
            raise InapplicableAlgorithm(
                f"flow construction needs assignment valuations; agent {a!r} "
                f"has {type(v).__name__}"
            )
        for mb in v.members:
            weights = v.weights[mb]
            row = [item for item in weights if item in index]
            for item in row:
                if weights[item] != 1:
                    raise InapplicableAlgorithm(
                        f"flow construction needs unit weights; agent {a!r} "
                        f"member {mb!r} weighs {item!r} at {weights[item]}"
                    )
            members.append((a, mb, sorted(index[item] for item in row)))
    return members


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


def leximin_flow_allocation(instance: Instance) -> tuple:
    """Build, solve and read back: returns (allocation, solved network).

    Each augmentation starts from the least-loaded group that reaches the
    sink (ties: lowest node index).  One visited set serves every group of
    an augmentation: nothing reachable from a group that failed reaches the
    sink.  The source capacity m never binds: a group at load m holds every
    item.  A group's out-flow must equal its realized value, else the solver
    or the extraction is corrupt and AllocationError is raised.
    """
    members = _members(instance)
    n, items = instance.n, instance.items
    first_item = 1 + n + len(members)
    sink = first_item + len(items)
    labels = (["s"] + [f"g/{a}" for a in instance.agents]
              + [f"m/{a}/{mb}" for a, mb, _ in members]
              + [f"o/{item}" for item in items] + ["t"])
    head, cap = [], []
    # Arcs are added tail layer by tail layer, heads ascending within a
    # tail, so every adjacency list comes out ascending in head node.
    adj = [[] for _ in labels]

    def add_arc(u, v):
        adj[u].append(len(head))
        adj[v].append(len(head) + 1)
        head.extend((v, u))
        cap.extend((1, 0))

    groups = {a: g for g, a in enumerate(instance.agents, 1)}
    for u, (a, _, _) in enumerate(members, n + 1):
        add_arc(groups[a], u)
    for u, (_, _, row) in enumerate(members, n + 1):
        for k in row:
            add_arc(u, first_item + k)
    item_arcs_end = len(head)
    for v in range(first_item, sink):
        add_arc(v, sink)

    load = [0] * (n + 1)  # by group node
    while True:
        seen = [False] * len(labels)
        for g in sorted(groups.values(), key=lambda g: (load[g], g)):
            if not seen[g]:
                seen[g] = True
                arcs = _path_to_sink(g, sink, adj, head, cap, seen)
                if arcs is not None:
                    break
        else:
            break
        load[g] += 1
        for a in arcs:
            cap[a] -= 1
            cap[a ^ 1] += 1

    bundles = {a: [] for a in instance.agents}
    for a in range(2 * len(members), item_arcs_end, 2):
        if cap[a + 1]:
            bundles[members[head[a + 1] - n - 1][0]].append(items[head[a] - first_item])
    allocation = Allocation.from_bundles(instance, bundles)
    loads = {a: load[g] for a, g in groups.items()}
    for agent in instance.agents:
        realized = instance.value(agent, allocation.bundle(agent))
        if loads[agent] != realized:
            raise AllocationError(
                f"source out-flow {loads[agent]} of group {agent!r} "
                f"differs from its realized value {realized}"
            )
    return allocation, FlowNetwork(labels=tuple(labels), head=tuple(head), cap=tuple(cap),
                                   loads=loads, source_capacity=instance.m)
