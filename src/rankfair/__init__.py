"""Fair allocation of indivisible goods under matroid-rank valuations.

Exact algorithms and exhaustive verifiers for envy-based fairness (EF1,
EFX variants, MEF1), share-based fairness (proportionality, WPROP1, MMS,
equitability up to c items) and efficiency (utilitarian optimality,
Pareto optimality, leximin, Nash welfare) when agents value bundles by
matroid rank functions, with special support for assignment (OXS)
valuations built from weighted matchings.
"""

from .core import (Allocation, AllocationError, BudgetExceeded,
                   InapplicableAlgorithm, Instance, NonMatroidOracle,
                   TransferabilityViolated, assert_valid, clean, format_exact,
                   is_clean, is_complete, marginal_gain, parse_exact,
                   validate_allocation, values_vector)
from .valuations import (AllOrNothingValuation, AssignmentValuation,
                         BinaryAdditiveValuation, BinaryAssignmentValuation,
                         RankReport, ScaledValuation, TruncatedValuation,
                         spot_check_matroid_rank, verify_matroid_rank)
from .fairness import (FairnessReport, MmsEntry, PairCheck, check_mms,
                       check_po_bruteforce, check_proportional, check_wprop1,
                       envy_report, full_report, min_eqc, mms_share)
from .oracle import (EquivalenceReport, OracleResult, enumerate_allocations,
                     max_usw_value, oracle_optimal,
                     usw_optimal_all_clean_complete, verify_equivalences)
from .eit import (EitGeneralResult, TransferLog, eit_ef1, eit_general,
                  envy_graph_baseline, max_utilitarian_welfare, potential_phi,
                  price_of_fairness, waste)
from .balanced_flow import leximin_flow_allocation, network_dump
from .matroid_intersection import max_common_independent_set
from .documents import (DocumentError, dump_path, dumps, load_path, loads,
                        parse_allocation, parse_instance, serialize_allocation,
                        serialize_instance)
from .bench import build_corpus, load_ratings, load_users, run_bench

__version__ = "0.1.0"

__all__ = [
    "Allocation", "AllocationError", "BudgetExceeded", "InapplicableAlgorithm",
    "Instance", "NonMatroidOracle", "TransferabilityViolated", "assert_valid",
    "clean", "format_exact", "is_clean", "is_complete", "marginal_gain",
    "parse_exact", "validate_allocation", "values_vector",
    "AllOrNothingValuation", "AssignmentValuation", "BinaryAdditiveValuation",
    "BinaryAssignmentValuation", "RankReport", "ScaledValuation",
    "TruncatedValuation", "spot_check_matroid_rank", "verify_matroid_rank",
    "FairnessReport", "MmsEntry", "PairCheck", "check_mms",
    "check_po_bruteforce", "check_proportional", "check_wprop1",
    "envy_report", "full_report", "min_eqc", "mms_share",
    "EquivalenceReport", "OracleResult", "enumerate_allocations",
    "max_usw_value", "oracle_optimal", "usw_optimal_all_clean_complete",
    "verify_equivalences",
    "EitGeneralResult", "TransferLog", "eit_ef1", "eit_general",
    "envy_graph_baseline", "max_utilitarian_welfare", "potential_phi",
    "price_of_fairness", "waste",
    "leximin_flow_allocation", "network_dump",
    "max_common_independent_set",
    "DocumentError", "dump_path", "dumps", "load_path", "loads",
    "parse_allocation", "parse_instance", "serialize_allocation",
    "serialize_instance",
    "build_corpus", "load_ratings", "load_users", "run_bench",
]
