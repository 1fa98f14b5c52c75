"""The paper's primary contribution for stretch ``k >= 3``.

:mod:`repro.core.conversion` implements the Theorem 2.1 fault-oversampling
conversion (and its Corollary 2.2 instantiation with the greedy spanner),
:mod:`repro.core.clpr` the CLPR09 exponential-in-r baseline it improves on,
and :mod:`repro.core.verify` the exhaustive / sampled / Lemma 3.1 verifiers
used by tests and benchmarks. Both fault kinds share that code: the
conversion and the fault-set verifiers take the kind as ``kind="vertex"``
(the paper's model) or ``kind="edge"`` (Theorem 2.3's sampling).

The constructors here self-register in :mod:`repro.registry` under two
names: ``theorem21`` (both fault kinds, read from ``spec.faults.kind``,
and the adaptive stop under ``params.until_valid``) and ``clpr09``. The
registry, not this module list, is the authoritative catalogue of what
can be built.
"""

from .clpr import CLPRResult, clpr_fault_tolerant_spanner
from .conversion import (
    BaseSpannerAlgorithm,
    ConversionResult,
    ConversionStats,
    fault_tolerant_spanner,
    fault_tolerant_spanner_until_valid,
    resolve_iterations,
    survival_probability,
)
from .verify import (
    IncrementalFT2Verifier,
    count_fault_sets,
    count_two_paths,
    edge_satisfied,
    fault_sets,
    first_violating_fault_set,
    is_fault_tolerant_spanner,
    is_ft_2spanner,
    sampled_fault_check,
    unsatisfied_edges,
)

__all__ = [
    "BaseSpannerAlgorithm",
    "CLPRResult",
    "ConversionResult",
    "ConversionStats",
    "IncrementalFT2Verifier",
    "clpr_fault_tolerant_spanner",
    "count_fault_sets",
    "count_two_paths",
    "edge_satisfied",
    "fault_sets",
    "fault_tolerant_spanner",
    "fault_tolerant_spanner_until_valid",
    "first_violating_fault_set",
    "is_fault_tolerant_spanner",
    "is_ft_2spanner",
    "resolve_iterations",
    "sampled_fault_check",
    "survival_probability",
    "unsatisfied_edges",
]
