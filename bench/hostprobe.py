"""A fixed loop timed next to the benchmark's calls, to tell how fast the
shared host was while they ran; see ``run.calm_seconds``."""

import time


class HostProbe:
    """Times a fixed pure-Python loop of about 0.2 ms, once per tick.

    The shared host slows down in spells that last from a fraction of a
    second to minutes.  The loop slows down with the calls around it, so
    its time next to a call says how slow the host was during the call.
    ``samples`` holds (clock reading at the end of the tick, loop seconds).
    """

    LOOP = 2000
    # The loop's time on a calm host: the 1st percentile of a run's ticks
    # was 0.1725-0.1763 ms in nine of ten 55-s runs on the machine this was
    # tuned on (2 cores of an x86_64 VM, CPython 3.11).  A fixed figure, not
    # one taken from each run, because in the tenth the whole minute was
    # slow and that percentile 8 % higher.
    CALM_S = 173e-6

    def __init__(self):
        self.samples = []

    def tick(self, *_):
        """Time the loop once; takes and ignores the search progress hook's
        arguments."""
        t0 = time.perf_counter()
        x = 0
        for i in range(self.LOOP):
            x = (x * 31 + i) & 0xFFFFFFFF
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))
