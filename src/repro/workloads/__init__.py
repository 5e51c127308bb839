"""Declarative traffic workloads: arrival processes, SLO classes, admission.

The paper evaluates one workload -- a fixed ordered sequence over 35
consumer pairs.  This package turns the workload into a first-class,
composable axis of every experiment:

* arrival models (:mod:`~repro.workloads.arrivals`): Poisson, bursty MMPP,
  diurnal modulation, heavy-tailed Pareto batches -- vectorized with scalar
  reference twins,
* traffic classes (:mod:`~repro.workloads.base`): priority, latency
  deadline,
* per-node admission control (:mod:`~repro.workloads.admission`) and
  queueing policies (:mod:`~repro.workloads.queueing`): FIFO, priority,
  deadline-aware drop,
* SLO-attainment metrics (:mod:`~repro.workloads.slo`): p50/p95/p99
  latency, deadline-miss and rejection rates per class,
* the ``"name:key=value,..."`` spec registry
  (:mod:`~repro.workloads.registry`) carried on
  ``ExperimentConfig.workload`` and entering every result-cache key.

The round-based simulator consumes a
:class:`~repro.workloads.queueing.TimedRequestSequence` through a
pre-generation release hook; admission is a pure function of the arrival
trace, independent of when release is batched.
"""

from repro.workloads.admission import AdmissionController
from repro.workloads.arrivals import (
    counts_to_rounds,
    diurnal_rates,
    mmpp_rates,
    modulated_poisson_counts,
    pareto_batch_sizes,
    poisson_counts,
)
from repro.workloads.base import (
    CLASS_MIXES,
    DEFAULT_MIX,
    TRAFFIC_CLASSES,
    TimedRequest,
    TrafficClass,
    WorkloadBuild,
)
from repro.workloads.queueing import QUEUE_POLICIES, TimedRequestSequence
from repro.workloads.registry import (
    DEFAULT_WORKLOAD,
    WORKLOAD_NAMES,
    WORKLOAD_PARAMS,
    build_workload,
    is_timed_workload,
    parse_workload_spec,
    validate_workload_spec,
)
from repro.workloads.slo import ClassSlo, group_slo_summary, slo_as_dict, slo_summary

__all__ = [
    "AdmissionController",
    "CLASS_MIXES",
    "ClassSlo",
    "DEFAULT_MIX",
    "DEFAULT_WORKLOAD",
    "QUEUE_POLICIES",
    "TRAFFIC_CLASSES",
    "TimedRequest",
    "TimedRequestSequence",
    "TrafficClass",
    "WORKLOAD_NAMES",
    "WORKLOAD_PARAMS",
    "WorkloadBuild",
    "build_workload",
    "counts_to_rounds",
    "diurnal_rates",
    "group_slo_summary",
    "is_timed_workload",
    "mmpp_rates",
    "modulated_poisson_counts",
    "pareto_batch_sizes",
    "parse_workload_spec",
    "poisson_counts",
    "slo_as_dict",
    "slo_summary",
    "validate_workload_spec",
]
