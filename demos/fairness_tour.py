"""Walk one small instance through the solvers and checkers.

Two groups share six items; each group can use at most some of them
(capacity comes from a matching between items and member slots).  The
script computes a welfare-maximal allocation, repairs it to EF1 by item
transfers, recomputes it as a balanced flow, and asks the brute-force
oracle to confirm that the outcome is leximin- and Nash-optimal.

Run:  python3 demos/fairness_tour.py
"""

from rankfair import (BinaryAssignmentValuation, Instance, envy_report,
                      eit_ef1, full_report, leximin_flow_allocation,
                      max_common_independent_set, oracle_optimal,
                      values_vector)


def two_group_matching_instance():
    """Two groups of four members over six items; each member uses one item."""
    g1 = BinaryAssignmentValuation(
        {"a1": {"o1", "o6"}, "a2": {"o2", "o4"}, "a3": {"o3"}, "a4": {"o5"}}
    )
    g2 = BinaryAssignmentValuation(
        {"b1": {"o3"}, "b2": {"o4"}, "b3": {"o5"}, "b4": {"o6"}}
    )
    return Instance(
        agents=("g1", "g2"),
        items=("o1", "o2", "o3", "o4", "o5", "o6"),
        valuations={"g1": g1, "g2": g2},
    )


def show(title, instance, allocation):
    vector = values_vector(instance, allocation)
    print("%-24s" % (title + ":"), end=" ")
    for agent in instance.agents:
        items = ",".join(instance.sorted_items(allocation.bundle(agent)))
        print("%s={%s}" % (agent, items), end="  ")
    print("values=%s usw=%s" % (vector, sum(vector)))


def main():
    instance = two_group_matching_instance()
    print("agents:", ", ".join(instance.agents))
    print("items: ", ", ".join(instance.items))
    print()

    start = max_common_independent_set(instance)
    show("max welfare (greedy)", instance, start)

    repaired, log = eit_ef1(instance)
    show("after %d transfer(s)" % len(log), instance, repaired)
    print("EF1:", envy_report(instance, repaired).ef1)
    print()

    flow, _network = leximin_flow_allocation(instance)
    show("balanced flow", instance, flow)

    for objective in ("leximin", "mnw"):
        result = oracle_optimal(instance, objective)
        print("oracle %-8s optimum: vector %s, %d witness(es)"
              % (objective, tuple(result.optimal_vector), result.witness_count))
    print()

    report = full_report(instance, flow, include_po=True)
    print("flow allocation fairness:",
          "ef1=%s efx0=%s po=%s" % (report.ef1, report.efx0, report.po))


if __name__ == "__main__":
    main()
