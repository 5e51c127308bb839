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
  ``ExperimentConfig.workload`` and entering the config's equality.

The protocols' round loop releases a
:class:`~repro.workloads.queueing.TimedRequestSequence`'s arrivals at the
start of every round, before generation; admission is a pure function of
the arrival trace, independent of when release is batched.

Every public name below is a lazy export (:mod:`repro.lazy`): importing
one submodule does not import the rest (``repro serve``'s admission
reads ``workloads.admission`` before any numpy is loaded).
"""

from repro.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.workloads.admission": ("AdmissionController",),
        "repro.workloads.arrivals": (
            "counts_to_rounds",
            "diurnal_rates",
            "mmpp_rates",
            "modulated_poisson_counts",
            "pareto_batch_sizes",
            "poisson_counts",
        ),
        "repro.workloads.base": (
            "CLASS_MIXES",
            "DEFAULT_MIX",
            "TRAFFIC_CLASSES",
            "TimedRequest",
            "TrafficClass",
            "WorkloadBuild",
        ),
        "repro.workloads.queueing": ("QUEUE_POLICIES", "TimedRequestSequence"),
        "repro.workloads.registry": (
            "DEFAULT_WORKLOAD",
            "WORKLOAD_NAMES",
            "WORKLOAD_PARAMS",
            "build_workload",
            "is_timed_workload",
            "parse_workload_spec",
            "validate_workload_spec",
        ),
        "repro.workloads.slo": ("ClassSlo", "group_slo_summary", "slo_as_dict", "slo_summary"),
    },
)
