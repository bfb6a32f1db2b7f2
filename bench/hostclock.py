"""Host-speed-normalised timing for a shared, noisy host.

On a host whose cores are shared with other tenants, the speed of a core
swings by tens of percent over seconds, and the swings of the two vCPUs are
not correlated, so neither CPU time nor a probe on another core can correct
for them. What does follow them is a fixed reference loop run in the same
thread, interleaved with the work at a fine grain.

``HostClock`` times a region that way. While it is open, a SIGALRM every
``PERIOD_S`` seconds runs ``ref_chunk`` (a fixed pure-Python loop that calls
nothing of pcsub) in the timed thread and times it. On exit:

- ``raw_s`` is the wall time of the region without the reference chunks;
- ``speed`` is ``REF_CHUNK_S`` over the mean time of a chunk in the region,
  so 1.0 means the host ran at its reference speed, 0.8 that it was 20 %
  slower;
- ``seconds`` is ``raw_s * speed``: the region's time in seconds at the
  reference host speed.

``work_ns`` is a clock that stands still while a reference chunk runs;
the span tracer uses it, so span times and tick latencies do not include
the chunks.

``REF_CHUNK_S`` is the median chunk time measured on the reference host
(2 vCPUs, Intel Xeon at 2.1 GHz, Python 3.11). It is a fixed constant, so
``seconds`` stays comparable between runs and commits; only its scale
depends on it.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01
REF_ITERS = 2000
REF_CHUNK_S = 0.000300

_ref_ns = 0  # nanoseconds this process has spent in reference chunks


def ref_chunk() -> int:
    acc = {}
    for i in range(REF_ITERS):
        k = i & 255
        acc[k] = acc.get(k, 0) + i
    return len(acc)


def work_ns() -> int:
    return time.perf_counter_ns() - _ref_ns


class HostClock:
    """Context manager: time a region, normalised to the reference host speed."""

    def __enter__(self) -> "HostClock":
        self.ref_s, self.chunks = 0.0, 0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._t0 = time.perf_counter()
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._previous)
        self.raw_s = wall - self.ref_s
        self.speed = REF_CHUNK_S * self.chunks / self.ref_s
        self.seconds = self.raw_s * self.speed

    def _sample(self, *_signal) -> None:
        global _ref_ns
        t0 = time.perf_counter_ns()
        ref_chunk()
        dur = time.perf_counter_ns() - t0
        _ref_ns += dur
        self.ref_s += dur * 1e-9
        self.chunks += 1
