"""Small statistics helpers shared by benchmarks and experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence


@dataclass
class Summary:
    """Five-number-style summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    maximum: float


def summarize(samples: Sequence[float]) -> Summary:
    """Mean/std/min/max of a nonempty sample (population std)."""
    if not samples:
        return Summary(count=0, mean=math.nan, std=math.nan,
                       minimum=math.nan, maximum=math.nan)
    n = len(samples)
    mean = sum(samples) / n
    var = sum((s - mean) ** 2 for s in samples) / n
    return Summary(
        count=n,
        mean=mean,
        std=math.sqrt(var),
        minimum=min(samples),
        maximum=max(samples),
    )


def log_log_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of ``log y`` against ``log x``.

    Experiment E2 fits measured spanner sizes against ``n`` on a log-log
    scale and compares the slope with the theoretical exponent
    ``1 + 2/(k+1)``.
    """
    if len(xs) != len(ys):
        raise ValueError("xs and ys must have equal length")
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pairs) < 2:
        raise ValueError("need at least two positive points for a slope")
    lx = [math.log(x) for x, _ in pairs]
    ly = [math.log(y) for _, y in pairs]
    n = len(pairs)
    mx = sum(lx) / n
    my = sum(ly) / n
    denom = sum((x - mx) ** 2 for x in lx)
    if denom == 0:
        raise ValueError("xs are all equal; slope undefined")
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / denom


def growth_ratios(values: Sequence[float]) -> List[float]:
    """Successive ratios ``values[i+1] / values[i]`` (inf on zero)."""
    out = []
    for a, b in zip(values, values[1:]):
        out.append(b / a if a else math.inf)
    return out


def geometric_mean(samples: Sequence[float]) -> float:
    """Geometric mean of positive samples."""
    if not samples:
        return math.nan
    if any(s <= 0 for s in samples):
        raise ValueError("geometric mean needs positive samples")
    return math.exp(sum(math.log(s) for s in samples) / len(samples))
