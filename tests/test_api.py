"""The public API: ``fairsplit.__all__`` is pinned, so adding or removing a
name is an edit to this list."""

import fairsplit

PUBLIC_API = [
    "BudgetExceededError",
    "ColorFlowGraph",
    "ColoredPath",
    "ContinuousSplitting",
    "CycleSplit",
    "DiscreteSplitting",
    "ImpossibilityReport",
    "Instance",
    "InstanceTooLargeError",
    "InternalInvariantError",
    "NODE_BUDGET",
    "Necklace",
    "PAIR_BUDGET",
    "PairSplit",
    "PreconditionError",
    "SchemaError",
    "SignVector",
    "StableSplit",
    "TuckerReport",
    "build_flow_graph",
    "cancel_cycles",
    "compose_splits",
    "continuous_splitting_from_json",
    "continuous_splitting_to_json",
    "cycle_split_from_json",
    "cycle_split_to_json",
    "demonstrate_r2_failure",
    "discrete_splitting_from_json",
    "discrete_splitting_to_json",
    "enumerate_qstable_splits",
    "fraction_from_json",
    "fraction_to_json",
    "instance_to_json",
    "iter_canonical_colorings",
    "lambda_table",
    "load_instance",
    "loads_instance",
    "normalize_advantages",
    "pair_split_from_json",
    "pair_split_to_json",
    "round_color_r0",
    "round_color_r1",
    "round_color_rq1",
    "search_continuous",
    "search_discrete",
    "solve_cycle_split",
    "solve_pair_split",
    "solve_qstable_bruteforce",
    "solve_qstable_power2",
    "split_with_advantages",
    "stable_split_from_json",
    "stable_split_to_json",
    "tucker_verify",
    "verify_continuous",
    "verify_cycle_split",
    "verify_discrete",
    "verify_pair_split",
    "verify_qstable_split",
]


def test_public_api_is_pinned():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert len(set(fairsplit.__all__)) == len(fairsplit.__all__)
    assert fairsplit.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(fairsplit, name), name
