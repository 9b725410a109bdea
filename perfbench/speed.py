"""Reference-speed sampling: take the box's speed drift out of host times.

The sandbox is a shared two-core VM whose speed moves by up to 1.8x for
seconds to minutes at a time: across 16 back-to-back runs of one workload
the per-op-minimum wall time ranged 2.52 s .. 3.41 s (+36 %), with the
slow phases outlasting whole runs, so repeating ops inside a run cannot
remove them.  Every run therefore also measures the box.  A periodic
``SIGALRM`` runs a fixed probe every 20 ms — half arithmetic, half
dictionary lookups over a table larger than the caches, because
neighbours slow compute-bound and memory-bound bytecode by different
amounts — and each op's time is divided by the local slowdown before the
minimum over passes is taken.

The program slows less than the probe does.  Over those 16 runs (and 8 of
a second workload) dividing by the probe's full slowdown over-corrected
by 25 %, while dividing by its square root left the median where a quiet
box puts it and cut the range from 36 % to 11 % (30 % to 9 %).  So::

    slowdown = sqrt(median(probes around the op) / NOMINAL_PROBE_NS)

is an empirical rule, not a model; ``perfbench/README.md`` has the table.
Reported host times are *seconds at reference speed*: on a box whose probe
takes its nominal 480 µs they are the measured seconds.  The measured
seconds are kept beside them in every result file (``measured``).  Time
spent in probes that interrupt an op is subtracted from it.

The same handler enforces the per-op timeout, so one timer serves both.
"""

import contextlib
import random
import signal
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

#: Probe size: ~100 µs of arithmetic and ~390 µs of lookups when quiet.
ARITHMETIC_ITERATIONS = 2000
LOOKUPS = 600
TABLE_ENTRIES = 400_000
#: The probe's time on the reference box in its quiet state.
NOMINAL_PROBE_NS = 480_000
#: How much of the probe's slowdown the program shares (see above).
DAMPING = 0.5
#: Seconds between probes (2.4 % of the run is spent probing).
PERIOD_S = 0.020
#: Probes taken into a local median on each side of an op.
NEIGHBOURS = 5


class OpTimeout(BaseException):
    """Raised by the sampler inside an op that overran its deadline.

    A ``BaseException`` so no ``except Exception`` inside the program
    under test can swallow it.
    """


class SpeedSampler:
    """Periodic probe of interpreter speed, plus the op deadline."""

    def __init__(self):
        rng = random.Random(0)
        self._table = {b"k%08d" % i: i for i in range(TABLE_ENTRIES)}
        self._keys = list(self._table)
        rng.shuffle(self._keys)
        self._cursor = 0
        self.times = []       # ns timestamp of each probe
        self.values = []      # ns each probe took
        #: ``[ns]`` spent inside the handler so far; ops read it before
        #: and after to subtract the probes that interrupted them.
        self.spent = [0]
        #: ``[ns timestamp or 0]`` after which the running op times out.
        self.deadline = [0]
        #: A traced run's ``Recorder.covered`` cell: a probe counts as a
        #: covered child of whatever call it interrupts, so it stays out
        #: of that call's self time.
        self.cover = None

    def _on_alarm(self, _signum, _frame):
        begin = perf_counter_ns()
        x = 0
        for i in range(ARITHMETIC_ITERATIONS):
            x += i * i % 7
        table = self._table
        cursor = self._cursor
        self._cursor = (cursor + LOOKUPS) % (TABLE_ENTRIES - LOOKUPS)
        for key in self._keys[cursor:cursor + LOOKUPS]:
            x += table[key]
        end = perf_counter_ns()
        self.times.append(begin)
        self.values.append(end - begin)
        deadline = self.deadline[0]
        took = perf_counter_ns() - begin
        self.spent[0] += took
        if self.cover is not None:
            self.cover[0] += took
        if deadline and end > deadline:
            self.deadline[0] = 0
            raise OpTimeout()

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def slowdown(self, begin, end):
        """Local slowdown over ``[begin, end]`` ns (1.0 = reference speed).

        From the median of the probes inside the interval and
        :data:`NEIGHBOURS` on each side; 1.0 before the first probe.
        """
        low = max(0, bisect_left(self.times, begin) - NEIGHBOURS)
        high = bisect_right(self.times, end) + NEIGHBOURS
        window = self.values[low:high]
        if not window:
            return 1.0
        return (statistics.median(window) / NOMINAL_PROBE_NS) ** DAMPING

    def at_reference_speed(self, starts, durations):
        """Durations (ns) rescaled by the slowdown around each op."""
        scaled = []
        cached_window, cached = None, 1.0
        times = self.times
        for begin, duration in zip(starts, durations):
            window = (bisect_left(times, begin),
                      bisect_right(times, begin + duration))
            if window != cached_window:     # neighbouring ops share probes
                cached_window = window
                cached = self.slowdown(begin, begin + duration)
            scaled.append(duration / cached)
        return scaled
