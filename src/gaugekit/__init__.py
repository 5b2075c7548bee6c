"""gaugekit: a gauge-integration laboratory over exact rationals.

Tagged partitions subordinate to gauges, Cantor-type sets with exact
queries, a catalog of pathological functions, negligible-variation testing
and verdict machinery for the fundamental theorem and the substitution
identity, including bit-exact reproduction of the classical counterexamples.

Importing the package loads none of its modules: each exported name is
looked up in its module when it is accessed (PEP 562), so a command that
never uses ``cov`` never loads it.
"""

_EXPORTS = {
    "core": (
        "Gauge",
        "HkReport",
        "Item",
        "Iv",
        "PartitionTree",
        "Rat",
        "TaggedPartition",
        "ValueWithError",
        "constant_gauge",
        "cousin_partition",
        "dump_partition_csv",
        "hk_estimate",
        "is_subordinate",
        "merge_partitions",
        "min_gauge",
        "rat",
        "rat_str",
        "riemann_sum",
        "sample_partitions",
        "validate_partition",
    ),
    "sets": (
        "ComponentRef",
        "GeneratedSet",
        "complement_component",
        "distance",
        "distance_bounds",
        "dump_realization_csv",
        "endpoint_sample",
        "measure_at",
        "member",
        "realize",
        "reflected_cantor",
        "svc",
        "ternary_cantor",
    ),
    "funcs": (
        "FnSpec",
        "cantor_abs",
        "cantor_fn",
        "catalog",
        "compose",
        "deriv_spec",
        "lookup",
        "product",
        "quartic_root",
        "svc_dist_fn",
    ),
    "variation": (
        "GreedySign",
        "PerCell",
        "SplitAt",
        "VariationReport",
        "adversarial_variation",
        "dini_upper_estimate",
        "gauge_dist_complement",
        "gauge_from_dini",
        "gauge_from_zero_derivative",
        "image_measure_bound",
        "subinterval_ncv_scan",
        "test_negligible_variation",
        "variation_sums",
    ),
    "cov": (
        "CovInstance",
        "CovReport",
        "cov_check",
        "cov_scan_all_subintervals",
        "ftc_check",
        "ftc_instance",
        "instances",
        "lookup_instance",
        "svc_composition_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
