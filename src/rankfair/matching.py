"""Deterministic maximum-weight bipartite matching on integer weights.

The weighted kernel behind AssignmentValuation and the welfare optimum;
unweighted (0,1) matchings are BinaryAssignmentValuation's own
augmenting-path search.  Determinism of the returned witness matters (two
runs on the same input must agree item for item), so every tie-break
follows the caller-supplied item and member orders: items are inserted in
order, and alternating paths are found with a fixed relaxation order that
only accepts strict improvements.  The kernel only adds, subtracts and
compares weights, so the caller passes them as integers: a valuation's
``_edges`` index holds its weights scaled by the LCM of their
denominators, which keeps every decision and the witness, and the caller
divides the total back.
"""

from __future__ import annotations


def max_weight_matching(items, members, edges) -> tuple:
    """Maximum-weight matching of items to members; items may stay unmatched.

    ``edges`` maps an item to {member: positive int weight}, its members in
    the order of ``members``; a pair without an entry is no edge, so the
    witness never pairs an item with a member that values it at zero.

    Returns (total weight, {item: member}), the total an int.

    Method: successive augmentation.  Each round finds the alternating path
    of maximum net gain from any unmatched item to any free member
    (Bellman-Ford style relaxation over the residual graph, items and then
    members in order) and applies it while the gain is positive.  After
    every round the current matching has maximum weight among matchings of
    its size, which is what makes the greedy stop rule correct.
    """
    items, members = list(items), list(members)
    n, p = len(items), len(members)
    index = {mb: k for k, mb in enumerate(members)}
    rows = [[(index[mb], w) for mb, w in edges.get(it, {}).items()] for it in items]
    item_mate = {}  # item -> member, in matching order
    member_mate = [None] * p  # member -> item
    mate_weight = [0] * p  # member -> weight of its matched edge
    while len(item_mate) < n:
        gain_i = [None if i in item_mate else 0 for i in range(n)]
        gain_m = [None] * p
        from_item, via = [None] * p, [None] * p  # member -> item, edge weight
        from_member = [None] * n  # matched item -> member undoing its edge
        # relax until stable; path length is bounded by node count
        for _ in range(n + p + 1):
            improved = False
            for i, row in enumerate(rows):
                gi = gain_i[i]
                if gi is None:
                    continue
                mate = item_mate.get(i)
                for k, w in row:
                    if k == mate:
                        continue
                    gk = gain_m[k]
                    if gk is None or gi + w > gk:
                        gain_m[k] = gk = gi + w
                        from_item[k], via[k] = i, w
                        improved = True
                    # member -> its matched item (undo that edge)
                    i2 = member_mate[k]
                    if i2 is not None:
                        g2 = gk - mate_weight[k]
                        if gain_i[i2] is None or g2 > gain_i[i2]:
                            gain_i[i2] = g2
                            from_member[i2] = k
                            improved = True
            if not improved:
                break
        best = None
        for k, g in enumerate(gain_m):
            if member_mate[k] is None and g is not None and g > 0:
                if best is None or g > gain_m[best]:
                    best = k
        if best is None:
            break
        # reconstruct the alternating path, then flip its edges
        adds, removes = [], []
        k = best
        for _ in range(n):
            i = from_item[k]
            adds.append((i, k))
            k = from_member[i]
            if k is None:
                break
            removes.append((i, k))
        else:
            raise RuntimeError("augmenting path reconstruction did not terminate")
        for i, k in removes:
            del item_mate[i]
            member_mate[k] = None
        for i, k in adds:
            item_mate[i] = k
            member_mate[k] = i
            mate_weight[k] = via[k]

    total = sum(mate_weight[k] for k in item_mate.values())
    return total, {items[i]: members[k] for i, k in item_mate.items()}
