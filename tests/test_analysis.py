"""Measurement harness: stretch profiles, stats, tables."""

from __future__ import annotations

import math

import pytest

from repro.analysis import (
    StretchProfile,
    exhaustive_stretch_profile,
    format_cell,
    log_log_slope,
    render_table,
    sampled_stretch_profile,
    stretch_after_faults,
)
from repro.core import fault_tolerant_spanner
from repro.graph import complete_graph, connected_gnp_graph, cycle_graph


class TestStretch:
    def test_identity_spanner_stretch_one(self):
        g = complete_graph(5)
        assert stretch_after_faults(g, g, []) == 1.0
        assert stretch_after_faults(g, g, [0, 1]) == 1.0

    def test_detects_distortion(self):
        g = complete_graph(4)
        h = g.copy()
        h.remove_edge(0, 1)
        assert stretch_after_faults(h, g, []) == 2.0
        # one midpoint faulted: the other still gives a 2-path
        assert stretch_after_faults(h, g, [2]) == 2.0
        # faulting both midpoints disconnects 0-1 in h but not in g
        assert stretch_after_faults(h, g, [2, 3]) == math.inf

    @pytest.mark.parametrize("missing", [0, 3])
    def test_spanner_missing_a_host_vertex_has_infinite_stretch(self, missing):
        g = complete_graph(4)
        h = g.copy()
        h.remove_vertex(missing)
        assert stretch_after_faults(h, g, []) == math.inf
        assert stretch_after_faults(h, g, [missing]) == 1.0

    def test_exhaustive_profile(self):
        g = complete_graph(5)
        result = fault_tolerant_spanner(g, 3, 1, seed=1)
        profile = exhaustive_stretch_profile(result.spanner, g, 1)
        assert profile.max <= 3.0 + 1e-9
        assert profile.fraction_within(3.0) == 1.0
        assert len(profile.samples) == 1 + 5

    def test_sampled_profile(self):
        g = connected_gnp_graph(12, 0.5, seed=2)
        result = fault_tolerant_spanner(g, 3, 2, seed=3)
        profile = sampled_stretch_profile(result.spanner, g, 2, trials=25, seed=4)
        assert len(profile.samples) == 25
        assert profile.max <= 3.0 + 1e-9
        assert profile.mean >= 1.0

    def test_empty_profile(self):
        p = StretchProfile()
        assert p.max == 1.0
        assert p.fraction_within(2.0) == 1.0


class TestStats:
    def test_log_log_slope_recovers_exponent(self):
        xs = [10, 20, 40, 80]
        ys = [x ** 1.5 for x in xs]
        assert log_log_slope(xs, ys) == pytest.approx(1.5)

    def test_log_log_slope_validation(self):
        with pytest.raises(ValueError):
            log_log_slope([1], [1])
        with pytest.raises(ValueError):
            log_log_slope([1, 2], [1])
        with pytest.raises(ValueError):
            log_log_slope([5, 5], [1, 2])


class TestTables:
    def test_format_cell(self):
        assert format_cell(3) == "3"
        assert format_cell(3.14159) == "3.14"
        assert format_cell(math.inf) == "inf"
        assert format_cell(math.nan) == "-"
        assert format_cell(True) == "yes"
        assert format_cell(2.0) == "2"

    def test_render_table_alignment(self):
        out = render_table(["a", "long_header"], [[1, 2.5], [10, 3.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "long_header" in lines[0]
        assert set(lines[1]) <= {"-", " "}

    def test_render_table_title_and_validation(self):
        out = render_table(["x"], [[1]], title="T")
        assert out.startswith("T\n")
        with pytest.raises(ValueError):
            render_table(["x"], [[1, 2]])
