"""gaugekit: a gauge-integration laboratory over exact rationals.

Tagged partitions subordinate to gauges, Cantor-type sets with exact
queries, a catalog of pathological functions, negligible-variation testing
and verdict machinery for the fundamental theorem and the substitution
identity, including bit-exact reproduction of the classical counterexamples.
"""

from .core import (
    Gauge,
    HkReport,
    Item,
    Iv,
    PartitionTree,
    Rat,
    TaggedPartition,
    ValueWithError,
    constant_gauge,
    cousin_partition,
    dump_partition_csv,
    hk_estimate,
    is_subordinate,
    merge_partitions,
    min_gauge,
    rat,
    rat_str,
    riemann_sum,
    sample_partitions,
    validate_partition,
)
from .sets import (
    ComponentRef,
    GeneratedSet,
    complement_component,
    distance,
    distance_bounds,
    dump_realization_csv,
    endpoint_sample,
    measure_at,
    member,
    realize,
    reflected_cantor,
    svc,
    ternary_cantor,
)
from .funcs import (
    FnSpec,
    cantor_abs,
    cantor_fn,
    catalog,
    compose,
    deriv_spec,
    lookup,
    product,
    quartic_root,
    svc_dist_fn,
)
from .variation import (
    GreedySign,
    PerCell,
    SplitAt,
    VariationReport,
    adversarial_variation,
    dini_upper_estimate,
    gauge_dist_complement,
    gauge_from_dini,
    gauge_from_zero_derivative,
    image_measure_bound,
    subinterval_ncv_scan,
    test_negligible_variation,
    variation_sums,
)
from .cov import (
    CovInstance,
    CovReport,
    cov_check,
    cov_scan_all_subintervals,
    ftc_check,
    ftc_instance,
    instances,
    lookup_instance,
    svc_composition_check,
)

__version__ = "0.1.0"
