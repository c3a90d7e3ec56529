"""Record the output digest of every input in each workload's universe.

    python3 perfbench/record_digests.py [workload ...]

Runs each universe member's op once, refuses to record an op whose exit
codes or output checks fail, and rewrites those workloads' entries in
``digests.json``.  Run it only at a commit whose outputs are the reference:
the benchmark counts every later op whose outputs differ as failed.
"""

import json
import os
import shutil
import sys

from run import DIGESTS, RESULTS, execute, import_cli, judge
from workloads import UNIVERSE, WORKLOADS, digest


def record(name):
    workload = WORKLOADS[name]
    workdir = os.path.join(RESULTS, "record-%s-%d" % (name, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    cli = import_cli()
    here = os.getcwd()
    os.chdir(workdir)
    digests = {}
    try:
        for index in range(UNIVERSE):
            generated = workload.generate(index)
            workload.write(workdir, index, generated)
            calls = workload.calls(index, generated)
            execute(cli, calls)
            problems = [p for p in judge(workload, index, generated, calls, {})
                        if not p.startswith("no recorded digest")]
            if problems:
                raise SystemExit("%s input %d: %s" % (name, index, "; ".join(problems)))
            digests[str(index)] = digest(calls)
    finally:
        os.chdir(here)
        shutil.rmtree(workdir, ignore_errors=True)
    return digests


def main(names):
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    for name in names or list(WORKLOADS):
        table[name] = record(name)
        print("%s: %d digests" % (name, len(table[name])))
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
