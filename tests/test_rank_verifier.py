"""Differential test of verify_matroid_rank's bitset scan against the
per-triple loop it replaced.

``_reference_verify`` is that loop: every (subset, item) marginal gain, then
every (subset, item, context item) triple for local submodularity, each
gain recomputed from the table.  The two must report the same verdict,
axiom, witness (down to the repr of its values) and scan size on seeded
tables that break each axiom many times over, with int and Fraction values.
"""

import random
from collections import Counter
from fractions import Fraction

from rankfair.valuations import RankReport, verify_matroid_rank


class _Table:
    """A valuation read from a table of frozensets."""

    def __init__(self, table):
        self.table = table

    def value(self, bundle):
        return self.table[frozenset(bundle)]


def _reference_verify(valuation, items) -> RankReport:
    m = len(items)
    subset = [frozenset(items[k] for k in range(m) if mask >> k & 1)
              for mask in range(2**m)]
    table = [valuation.value(s) for s in subset]
    checked = 2**m
    if table[0] != 0:
        return RankReport(False, "empty value", {"value": table[0]}, checked)
    for mask in range(2**m):
        for k in range(m):
            bit = 1 << k
            if mask & bit:
                continue
            gain = table[mask | bit] - table[mask]
            if gain < 0:
                return RankReport(False, "monotonicity",
                                  {"subset": subset[mask], "item": items[k], "gain": gain},
                                  checked)
            if gain not in (0, 1):
                return RankReport(False, "binary marginals",
                                  {"subset": subset[mask], "item": items[k], "gain": gain},
                                  checked)
    for mask in range(2**m):
        for k in range(m):
            bit = 1 << k
            if mask & bit:
                continue
            gain_here = table[mask | bit] - table[mask]
            for k2 in range(m):
                bit2 = 1 << k2
                if k2 == k or mask & bit2:
                    continue
                gain_later = table[mask | bit2 | bit] - table[mask | bit2]
                if gain_here < gain_later:
                    return RankReport(False, "submodularity", {
                        "subset": subset[mask], "item": items[k],
                        "context_item": items[k2], "gain_without": gain_here,
                        "gain_with": gain_later}, checked)
    return RankReport(True, subsets_checked=checked)


def _random_table(rng, items):
    """{subset: value} over every subset of items.

    The base is |S & A| + max(0, |S & B| - t) for disjoint random A and B
    and 0 <= t < |B|: a matroid rank function when t = 0, and a monotone
    0/1-marginal function that is not submodular otherwise, with t + 1 ways
    to raise an item's gain from a subset that holds t - 1 items of B.  Then, at random, the empty value, one
    subset's value, or both are shifted by a small int or Fraction, which
    breaks monotonicity or binary marginals, and values become Fractions.
    """
    m = len(items)
    order = rng.sample(items, m)
    cut = rng.randint(0, m)
    approved = set(order[:cut])
    together = set(order[cut:cut + rng.choice((0, 1, 2, 3, 4))])
    threshold = rng.randrange(len(together)) if together else 0
    table = {}
    for mask in range(2**m):
        s = frozenset(items[k] for k in range(m) if mask >> k & 1)
        table[s] = len(s & approved) + max(0, len(s & together) - threshold)
    shift = rng.choice((0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)))
    if shift:
        target = rng.choice(sorted(table, key=sorted))
        table[target] += shift
    if rng.random() < 0.1:
        table[frozenset()] += rng.choice((1, Fraction(1, 2)))
    if rng.random() < 0.5:
        table = {s: Fraction(v) for s, v in table.items()}
    return table


def _report(report):
    """The report's fields, with the repr of each witness value (a subset's
    members sorted, since a frozenset's repr follows its build order)."""
    return (report.ok, report.axiom, report.subsets_checked,
            {key: repr(sorted(value) if isinstance(value, frozenset) else value)
             for key, value in report.witness.items()})


def test_bitset_scan_matches_the_triple_loop():
    rng = random.Random(2718)
    axioms = Counter()
    for _ in range(1500):
        items = ["o%d" % k for k in range(rng.randint(0, 7))]
        valuation = _Table(_random_table(rng, items))
        got = verify_matroid_rank(valuation, items)
        assert _report(got) == _report(_reference_verify(valuation, items)), items
        axioms[got.axiom or "ok"] += 1
    for axiom in ("ok", "empty value", "monotonicity", "binary marginals", "submodularity"):
        assert axioms[axiom] >= 20, axioms
