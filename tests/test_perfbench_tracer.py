"""The benchmark's layer tracer still finds every library name it wraps.

``perfbench/tracer.py`` patches library functions and methods from the
outside, by module path and attribute name. A rename in the library
would only show up as a ``trace.missing`` count in a benchmark run, so
this test loads the tracer as it is and checks that every target
resolves and that uninstalling restores the original objects.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _owner_and_attr(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def test_every_target_resolves_and_uninstall_restores_it():
    tracer_module = _load_tracer()
    originals = []
    for target, _name, _after in tracer_module.TARGETS:
        try:
            owner, attr = _owner_and_attr(target)
            originals.append((target, owner, attr, inspect.getattr_static(owner, attr)))
        except (ImportError, AttributeError):
            pass  # reported below through ``tracer.missing``
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        for target, owner, attr, original in originals:
            assert inspect.getattr_static(owner, attr) is not original, target
    finally:
        tracer.uninstall()
    for target, owner, attr, original in originals:
        assert inspect.getattr_static(owner, attr) is original, target
