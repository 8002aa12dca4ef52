"""Host-speed calibration and the summary statistics the benchmark reports.

The cores of a shared host change speed by nearly a factor of two from
one second to the next.  A fixed pure-Python loop tracks that speed:
every operation is timed together with calibration samples taken just
before, during (`Sampler`) and just after it, and its reported time is
its raw time multiplied by REFERENCE_CALIBRATION_S over the mean of
those samples, that is, scaled to the speed of the host on which the
reference figure was measured.  Raw times are reported alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

# Seconds calibrate() takes per CALIBRATION_ROUNDS rounds on the reference
# host: an Intel Xeon with 2 cores shared with other tenants, CPython 3.11.7.
REFERENCE_CALIBRATION_S = 0.02

CALIBRATION_ROUNDS = 10_000
SAMPLE_ROUNDS = 1_000  # about 2 ms: one sample taken during an operation
SAMPLE_EVERY_S = 0.1


def calibrate(rounds: int = CALIBRATION_ROUNDS) -> float:
    """Seconds per CALIBRATION_ROUNDS rounds of a fixed loop of dict,
    tuple and frozenset work, measured over `rounds` rounds."""
    start = time.perf_counter()
    table: dict = {}
    hits = 0
    for i in range(rounds):
        key = (i & 15, i % 7)
        members = frozenset((i & 3, i & 5, i % 3))
        table[key] = table.get(key, 0) + len(members)
        hits += any(m > 1 for m in members)
    return (time.perf_counter() - start) * CALIBRATION_ROUNDS / rounds


class Sampler:
    """Calibration samples taken every SAMPLE_EVERY_S seconds of wall time
    while the block runs, from a SIGALRM handler in the same thread, so
    they see the core the computation runs on.  `busy_s` is the time the
    samples themselves took, to be subtracted from the block's time."""

    def __init__(self, every_s: float = SAMPLE_EVERY_S) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate(SAMPLE_ROUNDS))
        self.busy_s += time.perf_counter() - start

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.every_s, self.every_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def scale(samples) -> float:
    """Factor from raw seconds to reference-host seconds."""
    return REFERENCE_CALIBRATION_S / statistics.fmean(samples)


def median(values) -> float:
    return statistics.median(values)


def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample, with its percentile rank and the sample
    count.  None with fewer than eleven samples."""
    n = len(values)
    if n < 11:
        return None
    return {
        "value": sorted(values)[n - 11],
        "percentile": round(100.0 * (n - 10) / n, 2),
        "samples": n,
    }
