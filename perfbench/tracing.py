"""Spans and counters around rankfair's layers, installed from outside the package.

``Tracer.install`` replaces each traced function under every name any
``rankfair`` module bound it to (``from .matching import max_weight_matching``
makes a second binding in ``valuations`` and ``eit``), patches the valuation
methods at class level, and ``Tracer.uninstall`` puts every original object
back.  Spans (name, start, end, parent, op id) are kept in memory and written
as JSONL when the run ends.

Hot inner calls (valuation queries, ``find_circuit``) are only counted: a span
per call would cost more than the call.
"""

import functools
import json
import sys
import time

# (module, function, span name).  A span's self time is its duration minus
# the time covered by its child spans.
SPANS = (
    ("rankfair.cli", "main", "cli"),
    ("rankfair.documents", "load_path", "documents.parse"),
    ("rankfair.documents", "parse_instance", "documents.parse"),
    ("rankfair.documents", "serialize_allocation", "documents.write"),
    ("rankfair.documents", "dump_path", "documents.write"),
    ("rankfair.valuations", "verify_matroid_rank", "valuations.verify"),
    ("rankfair.matching", "max_cardinality_matching", "matching.cardinality"),
    ("rankfair.matching", "max_weight_matching", "matching.weight"),
    ("rankfair.matroid_intersection", "max_common_independent_set", "matroid_intersection.path"),
    ("rankfair.matroid_intersection", "build_exchange_graph", "matroid_intersection.exchange_graph"),
    ("rankfair.eit", "eit_ef1", "eit.ef1_repair"),
    ("rankfair.eit", "eit_general", "eit.general"),
    ("rankfair.eit", "envy_graph_baseline", "eit.envy_graph"),
    ("rankfair.eit", "price_of_fairness", "eit.pof"),
    ("rankfair.eit", "waste", "eit.waste"),
    ("rankfair.balanced_flow", "build_flow_network", "balanced_flow.build"),
    ("rankfair.balanced_flow", "balanced_max_flow", "balanced_flow.solve"),
    ("rankfair.balanced_flow", "network_dump", "balanced_flow.dump"),
    ("rankfair.fairness", "envy_report", "fairness.envy_report"),
    ("rankfair.fairness", "check_po_bruteforce", "fairness.po"),
    ("rankfair.fairness", "check_mms", "fairness.mms"),
    ("rankfair.oracle", "oracle_optimal", "oracle.scan"),
    ("rankfair.bench", "run_bench", "bench"),
)

# (module, function, counter): counted, no span.
COUNTED_FUNCTIONS = (
    ("rankfair.matroid_intersection", "find_circuit", "find_circuit"),
)

# (module, class, method): counted as valuation queries, patched on the class.
VALUATION_METHODS = (
    ("rankfair.core", "Instance", "value"),
    ("rankfair.valuations", "BinaryAdditiveValuation", "value"),
    ("rankfair.valuations", "AssignmentValuation", "value"),
    ("rankfair.valuations", "AssignmentValuation", "assignment_value"),
    ("rankfair.valuations", "BinaryAssignmentValuation", "assignment_value"),
    ("rankfair.valuations", "TruncatedValuation", "value"),
    ("rankfair.valuations", "ScaledValuation", "value"),
    ("rankfair.valuations", "AllOrNothingValuation", "value"),
)


def _add(counts, key, amount):
    counts[key] = counts.get(key, 0) + amount


def _transfers(tracer, args, result):
    log = result[1] if isinstance(result, tuple) else result.log
    _add(tracer.counts, "eit.transfers", len(log))


def _flow(tracer, args, result):
    network = args[0]
    _add(tracer.counts, "balanced_flow.solver_arcs",
         sum(e.capacity if e.tail == network.source else 1 for e in network.edges))
    _add(tracer.counts, "balanced_flow.augmentations", sum(result.out_flows().values()))


def _po(tracer, args, result):
    instance = args[0]
    _add(tracer.counts, "fairness.po_placements", (instance.n + 1) ** instance.m)


def _scanned(tracer, args, result):
    _add(tracer.counts, "oracle.scanned", result.scanned)


# Counts read off a traced call's arguments or result, by span name.
OBSERVERS = {
    "eit.ef1_repair": _transfers,
    "eit.general": _transfers,
    "balanced_flow.solve": _flow,
    "fairness.po": _po,
    "oracle.scan": _scanned,
}


def _rankfair_modules():
    return [module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "rankfair" or name.startswith("rankfair."))]


def bindings(original):
    """Every (module, attribute) of the rankfair package bound to ``original``."""
    return [(module, attr) for module in _rankfair_modules()
            for attr, value in list(vars(module).items()) if value is original]


class Tracer:
    """Records spans and counts while installed; restores everything on uninstall."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, op id]
        self.stack = []
        self.counts = {}
        self.op = None
        self._saved = []    # (owner, attribute, original object)

    # -- recording --

    def _span(self, name, fn, observe):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # calls are counted per calling module, which tells matchings
            # made for valuation queries apart from the others
            key = "%s.calls.from.%s" % (name, sys._getframe(1).f_globals.get("__name__"))
            counts[key] = counts.get(key, 0) + 1
            index = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
            if observe is not None:
                observe(self, args, result)
            return result
        return traced

    def _counted(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    # -- installing --

    def _replace(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every traced name that exists.

        A function that a later version of the package renames or removes
        is skipped, so its counts read 0 instead of the traced run failing.
        """
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__: m for m in _rankfair_modules()}
        for modname, fname, span in SPANS:
            original = getattr(modules.get(modname), fname, None)
            if original is not None:
                wrapper = self._span(span, original, OBSERVERS.get(span))
                for module, attr in bindings(original):
                    self._replace(module, attr, wrapper)
        for modname, fname, key in COUNTED_FUNCTIONS:
            original = getattr(modules.get(modname), fname, None)
            if original is not None:
                wrapper = self._counted(key, original)
                for module, attr in bindings(original):
                    self._replace(module, attr, wrapper)
        for modname, clsname, method in VALUATION_METHODS:
            cls = getattr(modules.get(modname), clsname, None)
            if cls is not None and method in vars(cls):
                key = "query.%s.%s" % (clsname, method)
                self._replace(cls, method, self._counted(key, vars(cls)[method]))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reading --

    def self_times(self, first=0):
        """Span name -> summed self time over spans[first:]."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans[first:]:
            if parent is not None:
                child_time[parent] += end - start
        totals = {}
        for index in range(first, len(self.spans)):
            name, start, end, parent, op = self.spans[index]
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")
