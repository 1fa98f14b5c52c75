"""Public-API quality gates: exports resolve, are documented, and stable."""

from __future__ import annotations

import importlib
import inspect

import pytest

PACKAGES = [
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.distributed",
    "repro.distsim",
    "repro.graph",
    "repro.lp",
    "repro.registry",
    "repro.sched",
    "repro.session",
    "repro.spanners",
    "repro.spec",
    "repro.two_spanner",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} missing __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} listed but missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_sorted_and_unique(package):
    module = importlib.import_module(package)
    names = [n for n in module.__all__ if n != "__version__"]
    assert names == sorted(names), f"{package}.__all__ is not sorted"
    assert len(names) == len(set(names)), f"{package}.__all__ has duplicates"


@pytest.mark.parametrize("package", PACKAGES)
def test_public_callables_have_docstrings(package):
    module = importlib.import_module(package)
    undocumented = []
    for name in module.__all__:
        if name.startswith("__"):
            continue
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"{package}: undocumented exports {undocumented}"


@pytest.mark.parametrize("package", PACKAGES)
def test_module_docstrings_present(package):
    module = importlib.import_module(package)
    assert (module.__doc__ or "").strip(), f"{package} has no module docstring"


def test_version_is_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_error_hierarchy_rooted():
    """Every library exception derives from ReproError (catchability)."""
    from repro import errors

    for name in dir(errors):
        obj = getattr(errors, name)
        if (
            inspect.isclass(obj)
            and issubclass(obj, Exception)
            and obj.__module__ == "repro.errors"
        ):
            assert issubclass(obj, errors.ReproError) or obj is errors.ReproError


def test_seed_parameter_conventions():
    """Randomized public entry points accept a ``seed`` argument."""
    import repro
    from repro.distributed import distributed_padded_decomposition
    from repro.spanners import baswana_sen_spanner, thorup_zwick_spanner

    for fn in (
        repro.fault_tolerant_spanner,
        repro.approximate_ft2_spanner,
        repro.clpr_fault_tolerant_spanner,
        baswana_sen_spanner,
        thorup_zwick_spanner,
        distributed_padded_decomposition,
    ):
        assert "seed" in inspect.signature(fn).parameters, fn.__name__


def test_method_parameter_conventions():
    """The shared dispatch kwarg reaches every rewired constructor."""
    import repro
    from repro.distributed import sample_padded_decomposition
    from repro.spanners import (
        baswana_sen_spanner,
        build_distance_oracle,
        greedy_spanner,
        thorup_zwick_spanner,
    )

    for fn in (
        repro.fault_tolerant_spanner,
        repro.fault_tolerant_spanner_until_valid,
        repro.clpr_fault_tolerant_spanner,
        baswana_sen_spanner,
        build_distance_oracle,
        greedy_spanner,
        thorup_zwick_spanner,
        sample_padded_decomposition,
    ):
        assert "method" in inspect.signature(fn).parameters, fn.__name__


def test_registry_is_the_front_door():
    """Every registered algorithm is introspectable and spec-buildable."""
    from repro import available_algorithms, get_algorithm
    from repro.spec import SpannerSpec

    names = available_algorithms()
    assert len(names) >= 11
    for name in names:
        info = get_algorithm(name)
        assert (info.summary or "").strip(), f"{name} has no summary"
        assert (info.stretch_domain or "").strip(), f"{name} has no domain"
        assert callable(info.builder)
        # A spec naming the algorithm constructs without touching it.
        SpannerSpec(name, stretch=3)


def test_registered_builders_have_docstrings():
    from repro import available_algorithms, get_algorithm

    undocumented = [
        name
        for name in available_algorithms()
        if not (get_algorithm(name).builder.__doc__ or "").strip()
    ]
    assert not undocumented, f"undocumented builders: {undocumented}"


def test_spec_front_door_exports():
    """The typed front door is re-exported at the top level."""
    import repro

    for name in (
        "Session", "SpannerSpec", "FaultModel", "BuildReport",
        "available_algorithms", "get_algorithm", "register_algorithm",
        "describe_algorithms", "SpecError", "InvalidSpec", "UnknownAlgorithm",
        "FaultScenario", "SurvivorView",
    ):
        assert name in repro.__all__, name
        assert hasattr(repro, name), name


def test_fault_scenario_exports():
    """The scenario vocabulary is exported from repro.graph and repro."""
    import repro
    import repro.graph as rg

    for name in ("FaultScenario", "SurvivorView", "scenario_fault_sets"):
        assert name in rg.__all__, name
        assert hasattr(rg, name), name
    assert repro.FaultScenario is rg.FaultScenario
    assert repro.SurvivorView is rg.SurvivorView


def test_scenario_parameter_conventions():
    """Every per-survivor pipeline accepts the scenarios= vocabulary."""
    import repro

    for fn in (
        repro.fault_tolerant_spanner,
        repro.clpr_fault_tolerant_spanner,
        repro.is_fault_tolerant_spanner,
    ):
        assert "scenarios" in inspect.signature(fn).parameters, fn.__name__


def test_fault_kind_is_a_keyword_argument():
    """The conversion and the fault-set verifiers take the fault kind as
    ``kind=``; no edge-fault twin module or name remains."""
    import repro.core
    import repro.graph

    for fn in (
        repro.core.fault_tolerant_spanner,
        repro.core.is_fault_tolerant_spanner,
        repro.core.sampled_fault_check,
    ):
        param = inspect.signature(fn).parameters["kind"]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY, fn.__name__
        assert param.default == "vertex", fn.__name__
    assert inspect.signature(repro.graph.scenario_fault_sets).parameters[
        "kind"
    ].default == "vertex"
    for name in (
        "edge_fault_tolerant_spanner",
        "is_edge_fault_tolerant_spanner",
        "sampled_edge_fault_check",
    ):
        assert not hasattr(repro.core, name), name
    assert not hasattr(repro.graph, "scenario_edge_fault_sets")
    with pytest.raises(ImportError):
        importlib.import_module("repro.core.edge_faults")
