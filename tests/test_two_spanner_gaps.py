"""The paper's integrality-gap experiments as assertions (E4/E5 kernels)."""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.two_spanner import (
    gadget_optimum,
    kc_gap_on_gadget,
    old_lp_gap_on_complete_graph,
)


class TestCompleteGraphGap:
    def test_gap_certificate_fields(self):
        gap = old_lp_gap_on_complete_graph(7, 1)
        assert gap.lp_value <= gap.analytic_lp_upper + 1e-6
        assert gap.integral_lower_bound == 7 * 2
        assert math.isnan(gap.exact_opt)

    def test_gap_grows_linearly_with_r(self):
        """Section 3.1: Ω(r) gap for LP (2) on K_n."""
        gaps = [old_lp_gap_on_complete_graph(8, r).gap_lower_bound for r in (0, 1, 2, 3)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        # the gap scales like (r+1)(n-r-2)/(n-1); at n=8 the r=3 vs r=0
        # ratio should comfortably exceed 2
        assert gaps[3] / gaps[0] >= 2.0

    def test_exact_opt_small_instance(self):
        """The degree bound holds at every r, also once r >= n - 1, where
        no third vertex need survive the faults."""
        for n in (2, 3, 4):
            for r in range(n + 1):
                gap = old_lp_gap_on_complete_graph(n, r, solve_exact=True)
                assert not math.isnan(gap.exact_opt)
                assert gap.exact_opt >= gap.integral_lower_bound - 1e-9, (n, r)
                assert gap.gap_lower_bound <= gap.exact_opt / gap.lp_value + 1e-9

    def test_k1_gap_is_one(self):
        """K_1 has no arcs: LP, integral bound and optimum are all 0."""
        for r in (0, 1, 2):
            gap = old_lp_gap_on_complete_graph(1, r, solve_exact=True)
            assert gap.lp_value == gap.integral_lower_bound == gap.exact_opt == 0
            assert gap.gap_lower_bound == 1.0
        only_lp_zero = dataclasses.replace(gap, integral_lower_bound=2)
        assert only_lp_zero.gap_lower_bound == math.inf


class TestGadgetGap:
    def test_gadget_optimum_formula(self):
        assert gadget_optimum(3, 100.0) == 106.0

    def test_gap_without_kc_grows_with_r(self):
        """Section 3.2: Ω(r) gap for LP (3) without knapsack-cover."""
        gaps = [kc_gap_on_gadget(r, 1000.0).gap_without_kc for r in (1, 2, 4, 8)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))
        # asymptotically the gap is ~ (r+1); check it's in the ballpark
        assert gaps[-1] >= 5.0

    def test_gap_with_kc_is_constant(self):
        """Adding the KC family closes the gadget gap completely."""
        for r in (1, 2, 4, 8):
            gap = kc_gap_on_gadget(r, 1000.0)
            assert gap.gap_with_kc == pytest.approx(1.0, abs=1e-6)

    def test_lp3_value_formula(self):
        r, M = 4, 1000.0
        gap = kc_gap_on_gadget(r, M)
        assert gap.lp3_value == pytest.approx(M / (r + 1) + 2 * r, rel=1e-6)
