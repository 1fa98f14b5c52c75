"""Measurement and reporting harness shared by tests, benchmarks and the CLI.

Stretch profiles of a spanner under faults, the log-log slope that E2
fits against the theoretical size exponent, and plain-text tables.
Sweeps themselves run through :func:`repro.sweep.run_sweep`.
"""

from .stats import log_log_slope
from .stretch import (
    StretchProfile,
    exhaustive_stretch_profile,
    sampled_stretch_profile,
    stretch_after_faults,
)
from .tables import format_cell, print_table, render_table

__all__ = [
    "StretchProfile",
    "exhaustive_stretch_profile",
    "format_cell",
    "log_log_slope",
    "print_table",
    "render_table",
    "sampled_stretch_profile",
    "stretch_after_faults",
]
