"""Deterministic maximum-weight bipartite matching, exact arithmetic.

The weighted kernel behind AssignmentValuation, the welfare optimum and the
waste accounting; unweighted (0,1) matchings are BinaryAssignmentValuation's
own augmenting-path search.  Determinism of the returned witness matters
(two runs on the same input must agree item for item), so every tie-break
follows the caller-supplied item and member orders: items are inserted in
order, and alternating paths are found with a fixed relaxation order that
only accepts strict improvements.  The kernel only adds, subtracts and
compares weights, so it runs on integers: every weight is scaled by the LCM
of their denominators, which keeps every decision and the witness, and the
total is scaled back exactly at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def max_weight_matching(items, members, weight) -> tuple:
    """Maximum-weight matching of items to members; items may stay unmatched.

    ``weight(member, item)`` must return an int or a Fraction; non-positive
    weights are treated as absent edges, so the witness never pairs an item
    with a member that values it at zero.

    Returns (total weight, {item: member}).  The total is a Fraction when
    some matched weight is one, and an int otherwise.

    Method: successive augmentation.  Each round finds the alternating path
    of maximum net gain from any unmatched item to any free member
    (Bellman-Ford style relaxation over the residual graph, items and then
    members in order) and applies it while the gain is positive.  After
    every round the current matching has maximum weight among matchings of
    its size, which is what makes the greedy stop rule correct.
    """
    items, members = list(items), list(members)
    n, p = len(items), len(members)
    rows = [[(k, w) for k, mb in enumerate(members) if (w := weight(mb, it)) > 0]
            for it in items]
    scale = lcm(*(w.denominator for row in rows for _, w in row))
    fractional = {(i, k) for i, row in enumerate(rows)
                  for k, w in row if not isinstance(w, int)}
    rows = [[(k, w.numerator * (scale // w.denominator)) for k, w in row]
            for row in rows]
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
    if fractional.isdisjoint(item_mate.items()):
        total //= scale
    else:
        total = Fraction(total, scale)
    return total, {items[i]: members[k] for i, k in item_mate.items()}
