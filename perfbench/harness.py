"""Drift calibration, percentiles and result assembly for ``run.py``.

Raw wall time on a small shared VM drifts by tens of percent within a
minute, so every timed unit is *calibrated*: its raw time is multiplied
by ``d_ref / d``, where ``d`` is how long a fixed pure-Python spin loop
takes on the machine right now and ``d_ref`` how long it takes on the
reference VM. Units are grouped into windows of at least
:data:`WINDOW_S` of program time, and each window gets one factor from
micro-spins sampled *inside* its timed calls (:class:`SpeedSampler`),
because the machine's speed also changes in the middle of a two-second
build. A full spin closes each window: it checks that nothing else of
the process ran meanwhile, and the spins on either side of a window too
short to hold :data:`MIN_SAMPLES` micro-spins supply its factor. Spin
time never enters a metric.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import signal
import statistics
import time

#: Iterations of one bracketing burst (about 3 ms on the reference VM).
SPIN_LOOPS = 20_000

#: Bursts per bracketing spin. A spin reports their median, so a burst
#: that an interrupt or a neighbour's spike lands on does not skew it.
SPIN_BURSTS = 7

#: Median burst duration on the reference VM (2-vCPU Intel Xeon guest,
#: CPython 3.11). Calibrated times read as reference-VM seconds.
SPIN_REF_S = 0.0031

#: A window closes (and a spin runs) once this much program time has
#: accumulated since the previous spin.
WINDOW_S = 0.2

#: Spin attempts before a contaminated reading is accepted and flagged.
SPIN_ATTEMPTS = 3

#: Iterations of one micro-spin (about 0.15 ms on the reference VM).
MICRO_LOOPS = 1_000

#: Wall-clock period of the micro-spins inside timed calls (about 1.5%
#: overhead, which is subtracted from the calls' times).
SAMPLE_PERIOD_S = 0.01

#: Fewest micro-spins a window needs for its own factor.
MIN_SAMPLES = 8


def _spin_body(loops: int) -> int:
    acc = 1
    table = [0] * 64
    for i in range(loops):
        acc = (acc * 1103515245 + 12345) & 0xFFFFFFF
        table[acc & 63] += i
    return acc + table[0]


def spin() -> tuple:
    """One bracketing spin: ``(median burst seconds, clean)``.

    GC is off while the spin runs. The reading is *clean* when no other
    thread of this process used the CPU meanwhile (process CPU time grew
    like this thread's CPU time) and no child process is alive, so a
    change cannot look faster by loading the machine between units.
    """
    enabled = gc.isenabled()
    gc.disable()
    bursts = []
    try:
        p0 = time.process_time()
        t0 = time.thread_time()
        for _ in range(SPIN_BURSTS):
            w0 = time.perf_counter()
            _spin_body(SPIN_LOOPS)
            bursts.append(time.perf_counter() - w0)
        t1 = time.thread_time()
        p1 = time.process_time()
    finally:
        if enabled:
            gc.enable()
    other_threads = (p1 - p0) - (t1 - t0)
    clean = other_threads <= max(0.002, 0.05 * (t1 - t0)) and not (
        multiprocessing.active_children()
    )
    return statistics.median(bursts), clean


class SpeedSampler:
    """Samples the machine's speed inside timed calls.

    While a call runs, a wall-clock interval timer fires every
    :data:`SAMPLE_PERIOD_S`; its handler (run by the interpreter between
    bytecodes of the main thread) times one micro-spin in thread CPU
    time, so a spin that the workload's own worker processes preempt
    still reads the speed at which the machine runs code. Pausing keeps
    the time left on the timer, so calls shorter than the period are
    still sampled, uniformly over the concatenated call time. Work that
    runs at speed ``r(t)`` while the spin takes ``d(t)`` has calibrated
    time ``∫ d_ref / d(t) dt``, so the factor is ``d_ref`` times the mean
    of ``1 / d`` over the samples. Handler time is kept in
    :attr:`overhead_s` for :func:`timed` to subtract.
    """

    def __init__(self) -> None:
        self.durations = []
        self.overhead_s = 0.0
        self._remaining = SAMPLE_PERIOD_S
        self._previous = signal.signal(signal.SIGALRM, self._handler)

    def _handler(self, _signum, _frame) -> None:
        entered = time.perf_counter()
        cpu = time.thread_time()
        _spin_body(MICRO_LOOPS)
        self.durations.append(time.thread_time() - cpu)
        self.overhead_s += time.perf_counter() - entered

    def resume(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._remaining, SAMPLE_PERIOD_S)

    def pause(self) -> None:
        remaining, _interval = signal.setitimer(signal.ITIMER_REAL, 0.0)
        self._remaining = remaining or SAMPLE_PERIOD_S

    def take_factor(self):
        """Factor of the samples since the last call, ``None`` if too few."""
        durations, self.durations = self.durations, []
        if len(durations) < MIN_SAMPLES:
            return None
        d_ref = SPIN_REF_S * MICRO_LOOPS / SPIN_LOOPS
        return d_ref * sum(1.0 / d for d in durations) / len(durations)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def timed(sampler: SpeedSampler, fn, *args, **kwargs) -> tuple:
    """``(result, raw seconds)`` of one call, sampler handler time excluded."""
    overhead = sampler.overhead_s
    sampler.resume()
    started = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        sampler.pause()
    # Read the clock after pausing, so a handler still pending at the
    # pause is inside the interval whose overhead is subtracted.
    elapsed = time.perf_counter() - started
    return result, elapsed - (sampler.overhead_s - overhead)


class Calibrator:
    """Times units in windows, each closed by a bracketing spin.

    ``record`` files one raw unit time; once the window holds at least
    :data:`WINDOW_S` of program time it closes: a spin runs and every
    unit in the window gets the window's factor (see the module
    docstring). ``close`` flushes a partial window. A window whose
    bracketing spins stayed contaminated marks its units unclean.
    """

    def __init__(self, sampler: SpeedSampler) -> None:
        self.sampler = sampler
        self.spins = []
        #: Spins that stayed contaminated after every attempt.
        self.contaminated = 0
        self._last, self._last_clean = self._spin()
        sampler.take_factor()
        self._pending = []
        self._pending_s = 0.0
        #: (unit, tag, raw seconds, factor, clean) per recorded unit, in order.
        self.samples = []

    def _spin(self) -> tuple:
        for _attempt in range(SPIN_ATTEMPTS):
            seconds, clean = spin()
            if clean:
                break
        if not clean:
            self.contaminated += 1
        self.spins.append(seconds)
        return seconds, clean

    def _advance(self) -> tuple:
        """Spin again: ``(factor for the time since the last spin, clean)``."""
        before, before_clean = self._last, self._last_clean
        self._last, self._last_clean = self._spin()
        factor = self.sampler.take_factor()
        if factor is None:
            factor = SPIN_REF_S / (0.5 * (before + self._last))
        return factor, before_clean and self._last_clean

    def calibrate(self, raw_s: float) -> tuple:
        """Close a window that holds no units (a setup): ``(calibrated, clean)``."""
        self.close()
        factor, clean = self._advance()
        return raw_s * factor, clean

    def record(self, unit: int, tag, raw_s: float) -> None:
        self._pending.append((unit, tag, raw_s))
        self._pending_s += raw_s
        if self._pending_s >= WINDOW_S:
            self.close()

    def close(self) -> None:
        if not self._pending:
            return
        factor, clean = self._advance()
        self.samples.extend(
            (unit, tag, raw, factor, clean) for unit, tag, raw in self._pending
        )
        self._pending = []
        self._pending_s = 0.0

    def calibrated(self, tag=None):
        return [raw * f for _u, t, raw, f, _c in self.samples if tag is None or t == tag]

    def raw(self, tag=None):
        return [raw for _u, t, raw, _f, _c in self.samples if tag is None or t == tag]

    def factors(self) -> dict:
        """Calibration factor of each unit, by unit index."""
        return {unit: f for unit, _t, _raw, f, _c in self.samples}

    def unclean_units(self) -> set:
        return {unit for unit, _t, _raw, _f, clean in self.samples if not clean}


class Runner:
    """Executes timed units: one call of the public API each.

    Each unit's raw time goes to the calibrator (tagged with the unit
    kind) and, during the traced pass, the tracer attributes the spans
    opened inside the call to the unit's index.
    """

    def __init__(self, calibrator: Calibrator, tracer=None) -> None:
        self.calibrator = calibrator
        self.tracer = tracer
        #: Raw seconds of the most recent unit.
        self.last_raw = 0.0

    def unit(self, index: int, tag, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.unit = index
        try:
            result, self.last_raw = timed(self.calibrator.sampler, fn, *args, **kwargs)
        finally:
            if self.tracer is not None:
                self.tracer.unit = -1
        self.calibrator.record(index, tag, self.last_raw)
        return result


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def rel_iqr(values) -> float:
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def tail(values) -> tuple:
    """``(percentile, value)``: the highest percentile with ten samples beyond it.

    Nearest rank, capped at p99. Below 20 samples no percentile above
    the median has ten samples beyond it, and the median is returned.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    pct = min(99.0, 100.0 * (n - 10) / n)
    if pct <= 50.0:
        return 50.0, median(values)
    rank = math.ceil(pct / 100.0 * n)
    return pct, sorted(values)[rank - 1]


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}
