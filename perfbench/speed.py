"""A clock that discounts the machine's changing speed.

On a shared host the same Python code runs up to twice as fast in one
second as in the next, and the fast and slow spells last from a fraction
of a second to minutes.  So a wall time says as much about the neighbours
as about the program.  ``SpeedClock`` measures that speed while the
program runs: a ``SIGALRM`` timer interrupts the program every
``PERIOD_S`` and runs ``probe()`` on the same core.  The probe reads
``PROBE_READS`` bytes at fixed scattered places of a ``PROBE_MB`` buffer
and does not touch ivhecke.  The slow spells come mostly from neighbours
that share the memory caches, and a probe that misses the core's caches
tracks them.  On the 2-vCPU VM the baseline was measured on, such a probe
cut the spread of 1-4 s pieces of the workloads by a factor 2 to 5, and a
probe of small dict and integer work (which stays in the core's caches)
by much less; a 128 MB buffer tracked the ``blocks`` workload (250 MB of
its own) better than a 32 MB one.  Each stretch of program time between
two probes is then rated by the median of the ``WINDOW`` probes around it:

    scaled time = sum over stretches of  duration * reference / probe time

so a scaled second is the time the machine needs for the work of one
second at a speed where a probe takes ``reference`` seconds.  Work the
program drops shortens the scaled time as it shortens the wall time; a
slow spell of the machine does not lengthen it.  The time spent in probes
is left out of both.  The references are fixed constants, chosen so that
scaled and wall seconds are close on that VM; they only set the scale.

``start()`` and ``stop()`` take ``EDGE_PROBES`` probes each, just before
and just after the measured span, so that every stretch has probes on
both sides.  A span of tens of milliseconds (such as importing the
package) is probed every ``SHORT_PERIOD_S`` instead: probed only at its
edges, its scaled time spread as much as its wall time.  Probes that
follow each other that closely find the buffer still cached and run
faster, hence the separate ``SHORT_REFERENCE_PROBE_S``.  Long spans keep
``PERIOD_S``, since probing them every 20 ms slowed them and widened
their spread.
"""

import signal
import time

PERIOD_S = 0.1
REFERENCE_PROBE_S = 0.0008
SHORT_PERIOD_S = 0.002
SHORT_REFERENCE_PROBE_S = 0.00015
WINDOW = 4
EDGE_PROBES = WINDOW // 2 + 1
PROBE_MB = 128
PROBE_READS = 3000


def _scattered(count: int, size: int) -> list[int]:
    """``count`` fixed places in ``range(size)`` (a linear congruential
    sequence, so that no module ivhecke might import is loaded here)."""
    x, out = 12345, []
    for _ in range(count):
        x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
        out.append((x >> 16) % size)
    return out


# Written once per page, so that every page is resident: peak RSS grows by
# exactly PROBE_MB, which the worker subtracts.
_BUFFER = bytearray(PROBE_MB << 20)
_BUFFER[::4096] = b"\1" * len(range(0, len(_BUFFER), 4096))
_PLACES = _scattered(PROBE_READS, len(_BUFFER))


def probe() -> float:
    """Duration of PROBE_READS scattered reads of the buffer (0.1-1 ms)."""
    start = time.perf_counter()
    buffer, total = _BUFFER, 0
    for i in _PLACES:
        total += buffer[i]
    return time.perf_counter() - start


def median(values) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def scaled_seconds(start: float, end: float, probes, reference_s: float = REFERENCE_PROBE_S) -> float:
    """Scaled time of the span [start, end] given the probes as (start, duration).

    Every probe that starts inside the span cuts it; the stretch before
    each cut (and the one before ``end``) is rated by the median of the
    ``WINDOW // 2`` probes before it and the ``WINDOW // 2`` after it.
    """
    probes = sorted(probes)
    half = WINDOW // 2
    first = next((i for i, (t, _) in enumerate(probes) if t >= start), len(probes))
    inside = [i for i in range(first, len(probes)) if probes[i][0] < end]
    if first < half or len(probes) - (inside[-1] + 1 if inside else first) < half:
        raise ValueError(f"need {half} probes before and after the span")
    total = 0.0
    since = start
    for j in [*inside, None]:
        cut = end if j is None else probes[j][0]
        k = (inside[-1] + 1 if inside else first) if j is None else j
        window = [d for _, d in probes[k - half : k + half]]
        total += (cut - since) * reference_s / median(window)
        if j is not None:
            since = probes[j][0] + probes[j][1]
    return total


class SpeedClock:
    """Measures one span in wall seconds and in scaled seconds.

    With ``timer=False`` only the edge probes run; use that where a
    signal handler must not run inside the span (a traced run, whose
    spans would count the probes).
    """

    def __init__(
        self, timer: bool = True, period_s: float = PERIOD_S, reference_s: float = REFERENCE_PROBE_S
    ) -> None:
        self.timer = timer
        self.period_s = period_s
        self.reference_s = reference_s
        self.probes: list[tuple[float, float]] = []
        self.start_t = self.end_t = 0.0

    def _probe(self, *_signal) -> None:
        t = time.perf_counter()
        self.probes.append((t, probe()))

    def start(self) -> None:
        probe()  # the first probe of a process runs cold; discard it
        for _ in range(EDGE_PROBES):
            self._probe()
        if self.timer:
            self._previous = signal.signal(signal.SIGALRM, self._probe)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self.start_t = time.perf_counter()

    def stop(self) -> None:
        self.end_t = time.perf_counter()
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._previous)
        for _ in range(EDGE_PROBES):
            self._probe()

    @property
    def probe_s(self) -> float:
        """Time spent in probes inside the span."""
        return sum(d for t, d in self.probes if self.start_t <= t < self.end_t)

    @property
    def wall_s(self) -> float:
        """Wall time of the span, probes left out."""
        return self.end_t - self.start_t - self.probe_s

    @property
    def scaled_s(self) -> float:
        return scaled_seconds(self.start_t, self.end_t, self.probes, self.reference_s)

    @property
    def probe_median_s(self) -> float:
        return median(d for _, d in self.probes)
