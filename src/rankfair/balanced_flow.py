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
search in ascending node order finds first.

Every arc below the source has capacity 1, so the flow is a matching, kept
as mate arrays: member u carries item held[u], item k is carried by member
holder[k] (-1: none).  In ascending node order, a group's residual
successors are then its idle members; a carrying member's are its own group,
then its items; an item's is the sink when free, else its holder.  The
bundles and the dump are read off the mate arrays; the dump's cost column is
a constant 0 kept for its format.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Allocation, AllocationError, InapplicableAlgorithm, Instance
from .valuations import AssignmentValuation


@dataclass(frozen=True)
class FlowNetwork:
    """A solved network as its mate arrays over ``items`` and ``members``,
    the (agent, member, ascending item indices) rows in member-node order.

    Each source arc has capacity ``source_capacity`` and carries its group's
    load; every other arc has capacity 1.
    """

    items: tuple
    members: tuple
    held: tuple
    holder: tuple
    loads: dict  # agent -> flow on its source arc
    source_capacity: int

    def out_flows(self) -> dict:
        """Flow leaving the source, keyed by agent."""
        return dict(self.loads)


def network_dump(network: FlowNetwork) -> str:
    """Tab-separated arc list: tail, head, capacity, cost, flow; source,
    group-member, member-item, then item-sink arcs, each in node order."""
    items, members, held = network.items, network.members, network.held
    lines = ["tail\thead\tcapacity\tcost\tflow"]
    lines += [f"s\tg/{a}\t{network.source_capacity}\t0\t{load}"
              for a, load in network.loads.items()]
    lines += [f"g/{a}\tm/{a}/{mb}\t1\t0\t{int(k >= 0)}"
              for (a, mb, _), k in zip(members, held)]
    lines += [f"m/{a}/{mb}\to/{items[k]}\t1\t0\t{int(k == c)}"
              for (a, mb, row), c in zip(members, held) for k in row]
    lines += [f"o/{item}\tt\t1\t0\t{int(u >= 0)}"
              for item, u in zip(items, network.holder)]
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


def _path_to_free_item(start, group_of, group_members, rows, held, holder, seen):
    """(path, free item) of the first start-sink path a depth-first search finds.

    The path lists groups (as ~g) and members; a member after a member was
    reached through the item it carries.  Successors come in the residual
    order of the module docstring and ``seen`` (group, member and item
    flags) is shared with the caller, so the path is the lexicographically
    least one that avoids every node already ruled out.  None when the sink
    is out of reach.
    """
    seen_group, seen_member, seen_item = seen
    path, stack = [~start], [iter(group_members[start])]
    while stack:
        node = path[-1]
        for x in stack[-1]:
            if node < 0:  # a group on to its member x, if idle
                if held[x] >= 0 or seen_member[x]:
                    continue
            else:  # a member on to item x: the sink if x is free, else its holder
                if seen_item[x]:
                    continue
                seen_item[x] = True
                if holder[x] < 0:
                    return path, x
                x = holder[x]
                if seen_member[x]:
                    continue
            seen_member[x] = True
            path.append(x)
            stack.append(iter(rows[x]))
            g = group_of[x]
            if held[x] >= 0 and not seen_group[g]:
                # a carrying member's first successor: back to its group
                seen_group[g] = True
                path.append(~g)
                stack.append(iter(group_members[g]))
            break
        else:
            stack.pop()
            path.pop()
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
    groups = {a: g for g, a in enumerate(instance.agents)}
    group_of = [groups[a] for a, _, _ in members]
    rows = [row for _, _, row in members]
    held, holder = [-1] * len(members), [-1] * len(items)
    group_members = [[u for u, h in enumerate(group_of) if h == g] for g in range(n)]

    load = [0] * n
    while True:
        seen = ([False] * n, [False] * len(members), [False] * len(items))
        for g in sorted(range(n), key=load.__getitem__):  # stable: ties by index
            if not seen[0][g]:
                seen[0][g] = True
                found = _path_to_free_item(g, group_of, group_members, rows, held, holder, seen)
                if found is not None:
                    break
        else:
            break
        load[g] += 1
        path, item = found
        for x in reversed(path):
            if x < 0:  # the member before a group goes idle
                item = -1
            else:  # a member takes the item its successor carried
                held[x], item = item, held[x]
                if held[x] >= 0:
                    holder[held[x]] = x

    bundles = {a: [] for a in instance.agents}
    for (a, _, _), k in zip(members, held):
        if k >= 0:
            bundles[a].append(items[k])
    allocation = Allocation.from_bundles(instance, bundles)
    loads = {a: load[g] for a, g in groups.items()}
    for agent in instance.agents:
        realized = instance.value(agent, allocation.bundle(agent))
        if loads[agent] != realized:
            raise AllocationError(
                f"source out-flow {loads[agent]} of group {agent!r} "
                f"differs from its realized value {realized}"
            )
    return allocation, FlowNetwork(items=tuple(items), members=tuple(members),
                                   held=tuple(held), holder=tuple(holder),
                                   loads=loads, source_capacity=instance.m)
