"""Distributed algorithms in the LOCAL model (Sections 2.3 and 3.5).

Padded decompositions (Lemma 3.7), the distributed Baswana–Sen base
spanner, the Theorem 2.3 distributed fault-tolerance conversion, and
Algorithm 2's cluster-decomposed LP with local rounding (Theorem 3.9).

The two end-to-end pipelines self-register in :mod:`repro.registry` as
``distributed-ft`` and ``distributed-ft2`` (capability flag
``distributed=True``), so they build through the same
:class:`repro.session.Session` front door as the centralized algorithms.
Every LOCAL protocol here runs on the one round loop of
:mod:`repro.distsim`, so ``distributed-ft`` has a single path and
reports ``resolved_method="dict"`` whatever ``SpannerSpec.method`` says;
``distributed-ft2`` keeps ``method=`` for its centralized Lemma 3.7
sampler (:func:`sample_padded_decomposition`).
:func:`repro.distsim.communication_graph` is re-exported here because
every entry point in this package runs on the undirected communication
topology of its (possibly directed) problem graph.
"""

from ..distsim.runtime import communication_graph
from .cluster_lp import (
    ClusterLPIteration,
    DistributedLPResult,
    DistributedSpannerResult,
    default_iteration_count,
    distributed_ft2_lp,
    distributed_ft2_spanner,
)
from .decomposition import (
    DEFAULT_P,
    PaddedDecomposition,
    PaddedDecompositionAlgorithm,
    default_radius_cap,
    distributed_padded_decomposition,
    sample_padded_decomposition,
)
from .ft_spanner import DistributedFTResult, distributed_ft_spanner
from .local_verify import LocalLemma31Verifier, distributed_lemma31_check
from .local_spanner import BaswanaSenNode, distributed_baswana_sen, shared_coin

__all__ = [
    "BaswanaSenNode",
    "ClusterLPIteration",
    "DEFAULT_P",
    "DistributedFTResult",
    "DistributedLPResult",
    "DistributedSpannerResult",
    "LocalLemma31Verifier",
    "PaddedDecomposition",
    "PaddedDecompositionAlgorithm",
    "communication_graph",
    "default_iteration_count",
    "default_radius_cap",
    "distributed_baswana_sen",
    "distributed_ft2_lp",
    "distributed_ft2_spanner",
    "distributed_ft_spanner",
    "distributed_lemma31_check",
    "distributed_padded_decomposition",
    "sample_padded_decomposition",
    "shared_coin",
]
