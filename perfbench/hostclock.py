"""Host-speed probe: how much slower than quiet the host ran during a job.

The machine the benchmark was built on shares its cores with other
tenants, and their load slows this process by up to 2x, in stretches from
a fraction of a second to a minute long.  CPU time moves with wall time,
so the core itself runs slower; no affinity or priority of our own avoids
it.  While a `HostClock` runs, an interval timer interrupts the measured
process every `INTERVAL_S` and times a fixed pure-Python loop (the probe)
in it.  A job's *slowdown* is the mean probe time around the job over
`REF_S`, the probe time on a quiet host, and its *host-normalised time*
is its wall time over its slowdown: the time it would have taken on the
quiet host.  The program under test is not touched; the probe adds about
0.5% to wall time.

Measured on the build machine: over 100 s of a fixed `spectrum` job the
probe's slowdown and the job's wall time correlated at 0.96, and the
quartile spread of the per-job time fell from 30% of its median (wall)
to 10% (normalised); for a fixed `metric` job, 0.995 and 14% to 3%.
"""
import contextlib
import signal
import statistics
import time

INTERVAL_S = 0.01
LOOPS = 1000
# probe time on a quiet host: the 5th percentile of 10^4 probes on the
# build machine (2-core Intel Xeon, Python 3.11.7)
REF_S = 55e-6
# a job with fewer probes than this is judged by the latest MIN_PROBES
MIN_PROBES = 10


def probe() -> float:
    """Seconds taken by the fixed loop."""
    t0 = time.perf_counter()
    x = 0
    for i in range(LOOPS):
        x += i * i
    return time.perf_counter() - t0


class HostClock:
    """Probe times, taken every `INTERVAL_S` while `running()`."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(probe())

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        return len(self.samples)

    def slowdown(self, since: int) -> float:
        """Mean probe time since mark `since` (at least the latest
        MIN_PROBES) over REF_S; 1 before the first probe."""
        end = len(self.samples)
        if end == 0:
            return 1.0
        return statistics.fmean(self.samples[min(since, max(0, end - MIN_PROBES)):end]) / REF_S
