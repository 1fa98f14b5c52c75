"""The log-log slope that E2 fits to measured spanner sizes."""

from __future__ import annotations

import math
from typing import Sequence


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
