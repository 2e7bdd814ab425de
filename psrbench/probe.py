"""Machine-speed timeline, to take host drift out of the benchmark's times.

On a shared host the speed of one core drifts by 10-50% within seconds,
which is more than the regressions the benchmark must catch, and a probe
on the other core does not track it. So while a run measures, an
interval timer (SIGALRM, 20 Hz) interrupts the main thread between
bytecodes and runs one chunk of fixed standard-library work shaped like
psrkit's hot path: JSON lines parsed, state strings split into integer
tuples, small objects built, a dict updated. The process stays single
threaded, and the probe never calls psrkit, so a change to psrkit cannot
move it.

The timeline may be entered several times; it samples only while
entered. A command's time is its wall time minus the chunks that ran
inside it, times a speed factor: the reference chunk time over the
median chunk time sampled from half a second before the command to half
a second after it. The result is in reference-machine seconds: seconds on a
machine where one chunk takes ``REFERENCE_CHUNK_S``. The median makes
the factor immune to a chunk that happens to pay for a garbage
collection of psrkit's objects. A command with no samples near it (one
run while the timeline was not entered) gets the whole run's factor.
"""

from __future__ import annotations

import bisect
import json
import random
import signal
import statistics
from time import perf_counter

# median chunk time on a shared 2-vCPU x86-64 host with CPython 3.11.7
REFERENCE_CHUNK_S = 0.0009
INTERVAL_S = 0.05
WINDOW_S = 0.5


class _Detection:
    __slots__ = ("state", "conf")

    def __init__(self, state, conf):
        self.state = state
        self.conf = conf


def _lines(count: int = 100) -> list[str]:
    rng = random.Random(0)
    lines = []
    for frame in range(count):
        state = ",".join(rng.choice(("0", "1", "1", "-1")) for _ in range(11))
        detection = {"state": state, "conf": rng.random()}
        lines.append(json.dumps({"frame": frame, "detections": [detection]}))
    return lines


def _chunk(lines: list[str]) -> None:
    seen: dict[tuple, int] = {}
    built = []
    for line in lines:
        record = json.loads(line)
        for detection in record["detections"]:
            state = tuple(int(v) for v in detection["state"].split(","))
            seen[state] = seen.get(state, 0) + 1
            built.append(_Detection(state, float(detection["conf"])))


class SpeedTimeline:
    """Probe chunks sampled every INTERVAL_S while the context is active."""

    def __init__(self):
        self._lines = _lines()
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous_handler = None

    def __enter__(self) -> SpeedTimeline:
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def _sample(self, signum, frame) -> None:
        started = perf_counter()
        _chunk(self._lines)
        self.starts.append(started)
        self.durations.append(perf_counter() - started)

    def _between(self, start: float, end: float) -> list[float]:
        low = bisect.bisect_left(self.starts, start)
        return self.durations[low : bisect.bisect_right(self.starts, end)]

    def factor(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Reference chunk time over the median chunk time near [start, end]."""
        window = self._between(start - WINDOW_S, end + WINDOW_S) or self.durations
        return REFERENCE_CHUNK_S / statistics.median(window)

    def scaled(self, interval: tuple[float, float]) -> float:
        """Seconds of ``(start, end)`` less probing, in reference seconds."""
        start, end = interval
        busy = end - start - sum(self._between(start, end))
        return busy * self.factor(start, end)
