"""Seeded benchmark of the rankfair command line, end to end and per layer.

    python3 perfbench/run.py --workload rank-usw-ef1 --seed 1 --seconds 28 --trace 0

Each op calls ``rankfair.cli.main`` in this process, in a closed loop with
one client: the next op starts when the previous one has returned.  Inputs
come from ``--seed`` (see ``workloads.py``); every op's outputs are checked
and their SHA-256 compared with ``digests.json``, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
set of ops alternately untraced and with the wrappers of ``tracing.py``
installed, and reports per-layer self times and exact counts per op, plus
``trace_overhead``; no end-to-end metric comes from a traced run.

``--workload`` takes one name, a comma list or ``all``; ``--trace both``
runs both modes.  More than one (workload, mode) pair runs each pair in a
child process of its own, so peak memory stays per workload.

Every metric is printed by name with its unit and sample count, then the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Results go to ``perfbench-results/`` at the
repository root, with the traced run's spans as JSONL beside them.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from workloads import ROOT, SRC, WORKLOADS, digest
import tracing

SETUPS = 9
RESULTS = os.path.join(ROOT, "perfbench-results")
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

# Ops per traced cycle: the first ones of the run's visiting order.  Fixed, so
# that two traced runs with one seed give identical counts.
TRACED_OPS = {"rank-usw-ef1": 3, "oxs-leximin-flow": 3, "desk-certify": 2, "ratings-bench": 12}
TRACE_HASH_SEED = "0"


class Unavailable(Exception):
    """The checkout holds no rankfair sources to benchmark."""


def import_cli():
    """Import ``rankfair.cli`` afresh from the checkout's ``src``."""
    if not os.path.isfile(os.path.join(SRC, "rankfair", "__init__.py")):
        raise Unavailable("no rankfair package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "rankfair" or n.startswith("rankfair.")]:
        del sys.modules[name]
    cli = importlib.import_module("rankfair.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise Unavailable("rankfair was imported from %s, not %s" % (cli.__file__, SRC))
    return cli


def set_up(workload, seed, workdir):
    """Import rankfair, generate the run's inputs and write them: timed."""
    shutil.rmtree(workdir, ignore_errors=True)
    gc.collect()  # frees the previous set-up's modules, which form cycles
    start = time.perf_counter()
    cli = import_cli()
    order = workload.order(seed)
    inputs = {index: workload.generate(index) for index in order}
    os.makedirs(workdir)
    for index in order:
        workload.write(workdir, index, inputs[index])
    return time.perf_counter() - start, cli, order, inputs


def execute(cli, calls):
    """Run an op's calls in the current directory; return its latency."""
    for call in calls:
        for name in call.side_files:
            with contextlib.suppress(FileNotFoundError):
                os.remove(name)
    start = time.perf_counter()
    for call in calls:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                call.exit_code = cli.main(call.argv)
        except Exception:
            call.error = traceback.format_exc()
        call.stdout = out.getvalue()
        if call.error or call.exit_code not in call.exits:
            break
    latency = time.perf_counter() - start
    for call in calls:
        for name in call.side_files:
            with contextlib.suppress(FileNotFoundError), open(name, "rb") as handle:
                call.files[name] = handle.read()
    return latency


def judge(workload, index, generated, calls, digests):
    """Problems with one op's outputs; empty when the op succeeded."""
    problems = []
    for call in calls:
        if call.error:
            problems.append("%s raised %s" % (call.argv[0], call.error.strip().splitlines()[-1]))
        elif call.exit_code not in call.exits:
            problems.append("%s exited %r" % (call.argv[0], call.exit_code))
    if not problems:
        try:
            problems.extend(workload.check(generated, calls))
        except Exception as exc:  # malformed output is a failed op, not a crash
            problems.append("output check raised %r" % (exc,))
    expected = digests.get(str(index))
    if expected is None:
        problems.append("no recorded digest for input %d" % index)
    elif digest(calls) != expected:
        problems.append("outputs differ from the recorded digest")
    return problems


class Runner:
    """One workload's ops against the latest set-up's ``rankfair.cli``."""

    def __init__(self, workload, seed, rundir, digests):
        self.workload = workload
        self.seed = seed
        self.rundir = rundir
        self.digests = digests
        self.setups = []      # seconds each set-up took
        self.workdir = None
        self.attempted = 0
        self.failures = []

    def set_up(self):
        """Set up afresh in a new work directory and move into it."""
        previous = self.workdir
        self.workdir = os.path.join(self.rundir, "work%d" % len(self.setups))
        elapsed, self.cli, self.order, self.inputs = set_up(self.workload, self.seed, self.workdir)
        self.setups.append(elapsed)
        os.chdir(self.workdir)
        if previous is not None:
            shutil.rmtree(previous, ignore_errors=True)

    def op(self, index):
        """Run and judge one op; return (latency, calls)."""
        calls = self.workload.calls(index, self.inputs[index])
        latency = execute(self.cli, calls)
        self.attempted += 1
        problems = judge(self.workload, index, self.inputs[index], calls, self.digests)
        if problems:
            self.failures.append({"input": index, "problems": problems})
        return latency, calls


def tail(latencies):
    """(value, percentile): the highest percentile with ten samples beyond it.

    With ten or fewer samples no such percentile exists and the fastest op
    is reported, as percentile 0.
    """
    ordered = sorted(latencies)
    if len(ordered) <= 10:
        return ordered[0], 0.0
    return ordered[-11], 100.0 * (len(ordered) - 10) / len(ordered)


def measure(runner, seconds, setups=0):
    """Closed loop over the visiting order; return [(input, latency)].

    ``setups`` more set-ups run between ops, spread evenly over the run, so
    that their median samples the whole run as the op latencies do.
    """
    ops = []
    first = len(runner.setups)
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        done = len(runner.setups) - first
        if done < setups and time.perf_counter() - start >= seconds * (done + 1) / (setups + 1):
            runner.set_up()
        index = runner.order[len(ops) % len(runner.order)]
        ops.append((index, runner.op(index)[0]))
    return ops


def time_metric(span):
    return span + ("_s" if "." in span else ".self_s")


def layer_counts(counts):
    """Per-layer counts of one traced cycle, before dividing by its ops."""
    def total(prefix):
        return sum(value for key, value in counts.items() if key.startswith(prefix))

    return {
        "valuations.value_calls": total("query."),
        "valuations.assignment_calls": total("query.AssignmentValuation.assignment_value")
        + total("query.BinaryAssignmentValuation.assignment_value"),
        "valuations.matchings": total("matching.cardinality.calls.from.rankfair.valuations")
        + total("matching.weight.calls.from.rankfair.valuations"),
        "matching.cardinality_calls": total("matching.cardinality.calls."),
        "matching.weight_calls": total("matching.weight.calls."),
        "matroid_intersection.augmentations":
            total("matroid_intersection.exchange_graph.calls.")
            - total("matroid_intersection.path.calls."),
        "matroid_intersection.circuit_queries": total("find_circuit"),
        "eit.transfers": total("eit.transfers"),
        "balanced_flow.augmentations": total("balanced_flow.augmentations"),
        "balanced_flow.solver_arcs": total("balanced_flow.solver_arcs"),
        "fairness.po_placements": total("fairness.po_placements"),
        "oracle.scanned": total("oracle.scanned"),
    }


def measure_traced(runner, seconds, tracer):
    """Alternate untraced and traced passes over the fixed traced ops."""
    ops = runner.order[:TRACED_OPS[runner.workload.name]]
    cycles = []
    start = time.perf_counter()
    # a cycle starts only if one more cycle of the mean length ends in time
    while not cycles or (time.perf_counter() - start) * (len(cycles) + 1) / len(cycles) <= seconds:
        # every op, traced or not, is judged against the recorded digests
        plain = sum(runner.op(index)[0] for index in ops)
        first_span = len(tracer.spans)
        before = dict(tracer.counts)
        traced = 0.0
        with tracer:
            for index in ops:
                tracer.op = runner.attempted
                traced += runner.op(index)[0]
        counts = {key: value - before.get(key, 0) for key, value in tracer.counts.items()}
        cycles.append({"plain_s": plain, "traced_s": traced,
                       "self_s": tracer.self_times(first_span),
                       "counts": layer_counts(counts)})
    return ops, cycles


def layer_metrics(ops, cycles):
    """Per-op layer metrics: times are medians over cycles, counts from the first."""
    per_op = len(ops)
    metrics = {}
    for _, _, span in tracing.SPANS:
        metrics[time_metric(span)] = (statistics.median(
            cycle["self_s"].get(span, 0.0) for cycle in cycles) / per_op, "s")
    counts = cycles[0]["counts"]
    for key, value in counts.items():
        if key not in ("valuations.assignment_calls", "valuations.matchings"):
            metrics[key] = (value / per_op, "count")
    calls = counts["valuations.assignment_calls"]
    metrics["valuations.cache_hit_ratio"] = (
        (1 - counts["valuations.matchings"] / calls) if calls else 0.0, "ratio")
    scan = statistics.median(cycle["self_s"].get("oracle.scan", 0.0) for cycle in cycles)
    metrics["oracle.placements_per_s"] = (
        counts["oracle.scanned"] / scan if scan else 0.0, "1/s")
    metrics["trace_overhead"] = (sum(c["traced_s"] for c in cycles)
                                 / sum(c["plain_s"] for c in cycles), "ratio")
    return metrics


def commit():
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_digests(name):
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            return json.load(handle).get(name, {})
    except FileNotFoundError:
        return {}


def declared_metrics(trace):
    """Metric names BENCHMARK.json asks a run in this mode to report."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def run_one(name, seed, seconds, trace):
    """Run one workload in one mode in this process; return the result object."""
    workload = WORKLOADS[name]
    rundir = os.path.join(RESULTS, "%s-seed%d-trace%d-%d" % (name, seed, trace, os.getpid()))
    runner = Runner(workload, seed, rundir, load_digests(name))
    here = os.getcwd()
    try:
        runner.set_up()
        if trace:
            tracer = tracing.Tracer()
            ops, cycles = measure_traced(runner, seconds, tracer)
            metrics = layer_metrics(ops, cycles)
            samples = "%d ops x %d cycles" % (len(ops), len(cycles))
            detail = {"traced_ops": ops, "cycles": [
                {"plain_s": c["plain_s"], "traced_s": c["traced_s"]} for c in cycles]}
        else:
            ops = measure(runner, seconds, SETUPS - 1)
            latencies = [latency for _, latency in ops]
            detail = {"setups_s": runner.setups, "ops": ops}
    finally:
        os.chdir(here)
        shutil.rmtree(runner.workdir, ignore_errors=True)

    notes = []
    if trace:
        if any(cycle["counts"] != cycles[0]["counts"] for cycle in cycles):
            notes.append("layer counts differ between traced cycles")
        tracer.write_jsonl(os.path.join(rundir, "spans.jsonl"))
        units = {key: samples for key in metrics}
    else:
        value, percentile = tail(latencies)
        metrics = {
            "setup_s": (statistics.median(runner.setups), "s"),
            "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (value, "s"),
            "error_rate": (len(runner.failures) / runner.attempted, "ratio"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        n = "%d ops" % len(latencies)
        units = {"setup_s": "median of %d set-ups" % len(runner.setups), "ops_per_s": n,
                 "latency_p50_s": n,
                 "latency_tail_s": "p%.1f of %d ops, 10 slower" % (percentile, len(latencies)),
                 "error_rate": "%d of %d ops failed" % (len(runner.failures), runner.attempted),
                 "peak_rss_mib": "whole process"}

    print("# workload %s  seed %d  seconds %s  trace %d" % (name, seed, seconds, trace))
    print("# size: %s" % workload.size)
    print("# op: %s" % workload.op)
    print("# python %s  cpus %d  commit %s" % (platform.python_version(), os.cpu_count(), commit()))
    for key in sorted(metrics):
        value, unit = metrics[key]
        print("%-40s %16.6g %-6s %s" % (key, value, unit, units[key]))
    for failure in runner.failures[:10]:
        print("# FAILED input %d: %s" % (failure["input"], "; ".join(failure["problems"])))
    for note in notes:
        print("# ERROR: %s" % note)

    wanted = declared_metrics(trace)
    result = {
        "correct": not runner.failures and not notes,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {key: {"value": metrics[key][0], "unit": metrics[key][1]} for key in wanted},
    }
    with open(os.path.join(rundir, "results.json"), "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                   "python": platform.python_version(), "cpus": os.cpu_count(),
                   "commit": commit(), "samples": units, "failures": runner.failures,
                   "notes": notes, "all_metrics": {k: {"value": v, "unit": u}
                                                   for k, (v, u) in metrics.items()},
                   "result": result, "detail": detail}, handle, indent=2)
    return result


def run_children(pairs, seed, seconds):
    """Run each (workload, mode) pair in a child process; merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, trace in pairs:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            raise RuntimeError("%s (trace %d) exited with %d" % (name, trace, child.returncode))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            merged["metrics"]["%s/%s" % (name, key)] = metric
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="one of %s, a comma list, or all" % ", ".join(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error("unknown workload %s" % ", ".join(unknown))
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    pairs = [(name, mode) for name in names for mode in modes]
    if pairs == [(names[0], 1)] and os.environ.get("PYTHONHASHSEED") != TRACE_HASH_SEED:
        # How many valuation queries the program makes depends on set
        # iteration order, hence on the string hash seed: a traced run pins
        # it so that its counts repeat exactly from run to run.
        argv = sys.argv[1:] if argv is None else argv
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__)] + list(argv),
                  dict(os.environ, PYTHONHASHSEED=TRACE_HASH_SEED))
    try:
        if len(pairs) == 1:
            result = run_one(names[0], args.seed, args.seconds, modes[0])
        else:
            result = run_children(pairs, args.seed, args.seconds)
    except (Unavailable, RuntimeError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
