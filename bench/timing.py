"""Host-speed probes that take the host out of the timed calls, and
per-arrival stamps.

The benchmark shares a small virtual machine with other tenants, and the
speed at which it runs Python drifts by up to a factor of two over phases
of a second or more, some as long as a whole run. So the timed call is cut
into slices by probes: each probe times a fixed pure-Python loop that
touches no fabboo code. A slice's host speed is the mean of the probes at
its two ends, and its time is scaled by (REFERENCE_PROBE_S / that speed):
the time the slice would have taken on a host that runs the probe in
REFERENCE_PROBE_S. A change in fabboo does not move the probes, so it
shows in the scaled times in full. Probe time is taken out of the slice
it falls in.

`HostClock` takes a probe just before and just after the call, and one
inside it every SLICE_S seconds of this process's own CPU time: a
virtual interval timer (SIGVTALRM) runs the probe in the main thread
between two bytecodes of whatever runs. Nothing in fabboo is hooked. A
process that waits for worker processes uses no CPU time, so no probe
runs then and none competes with the workers for a core.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array

SLICE_S = 0.05
PROBE_ITERATIONS = 5000
# the probe's time in the fast phases of the 2-vCPU machine the benchmark
# was written on; it fixes the scale of every scaled time
REFERENCE_PROBE_S = 0.00065


def _reference_loop(n: int) -> float:
    total = 0.0
    last = {}
    for i in range(n):
        x = i * 0.5
        total += x * x / (x + 1.0)
        last[i & 63] = total
    return total


def scale(probe_s: float) -> float:
    """Factor that takes a time measured while the probe took `probe_s`
    seconds to the reference host speed."""
    return REFERENCE_PROBE_S / probe_s


class Probe:
    """Times the reference loop and keeps every sample of the run, for the
    report."""

    def __init__(self):
        self.samples = []

    def __call__(self) -> float:
        t0 = time.perf_counter()
        _reference_loop(PROBE_ITERATIONS)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds


class HostClock:
    """Probes around one timed call and inside it.

    `on_probe(seconds)` is told how long each in-call probe held the
    main thread, so that a span tracer can keep it out of its spans.
    """

    def __init__(self, probe: Probe, on_probe=None):
        self.probe = probe
        self.on_probe = on_probe
        self.probes = []      # probe seconds: before, in-call, after
        self.inside = []      # (perf_counter at start, seconds held) in-call

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        seconds = self.probe()
        held = time.perf_counter() - t0
        self.probes.append(seconds)
        self.inside.append((t0, held))
        if self.on_probe is not None:
            self.on_probe(held)

    def start(self) -> None:
        self.probes.append(self.probe())
        self.saved = signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, SLICE_S, SLICE_S)
        self.t_start = time.perf_counter()

    def stop(self) -> None:
        self.t_end = time.perf_counter()
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self.saved)
        # a probe that began after the call ended is not part of it
        while self.inside and self.inside[-1][0] >= self.t_end:
            self.inside.pop()
            self.probes.pop()
        self.probes.append(self.probe())

    @property
    def wall(self) -> float:
        return self.t_end - self.t_start

    @property
    def host(self) -> float:
        """Mean probe seconds over the call."""
        return sum(self.probes) / len(self.probes)

    def factors(self):
        """Scale factor of each slice: slice k runs from in-call probe k
        (or the start) to probe k + 1 (or the end)."""
        p = self.probes
        return [scale((a + b) / 2) for a, b in zip(p, p[1:])]

    def scaled(self) -> float:
        """The call's time at the reference host speed, probes excluded."""
        edges = [self.t_start] + [t for t, _ in self.inside] + [self.t_end]
        held = [0.0] + [h for _, h in self.inside]
        return sum((b - a - h) * f for a, b, h, f
                   in zip(edges, edges[1:], held, self.factors()))

    def scaled_gaps(self, stamps: "Stamps"):
        """Host-scaled gaps between consecutive arrival stamps, from the
        start of the call to its end, and the indices of the gaps inside
        a segment. A probe's time comes out of the gap it began in, and
        that gap ends its slice."""
        flat = array("d", [self.t_start])
        inside = []
        for seg in stamps.segments:
            inside.extend(range(len(flat), len(flat) + len(seg) - 1))
            flat.extend(seg)
        flat.append(self.t_end)
        gaps = array("d", (b - a for a, b in zip(flat, flat[1:])))
        bounds = [0]
        for t, held in self.inside:
            gap = max(bisect.bisect_right(flat, t) - 1, 0)
            gaps[gap] -= held
            bounds.append(gap + 1)
        bounds.append(len(gaps))
        for k, factor in enumerate(self.factors()):
            for j in range(bounds[k], bounds[k + 1]):
                gaps[j] *= factor
        return gaps, inside


class Stamps:
    """One perf_counter stamp per arrival, taken as the consumer pulls it.

    Each wrapped source gets its own segment; the gap between two stamps
    of a segment is the latency of one prequential step.
    """

    def __init__(self):
        self.segments = []

    def wrap(self, source):
        seg = array("d")
        self.segments.append(seg)
        pc = time.perf_counter
        append = seg.append
        for inst in source:
            append(pc())
            yield inst
