"""A fixed yardstick of machine speed, timed between the passes of a run.

On the 2-core sandbox the benchmark was written on, the speed of the machine
drifts by 1.3x to 1.8x over minutes, in CPU time as well as wall time, so no
number of passes within one run averages the drift out. A plain interpreter
loop drifts with it. In a 5-minute recording of sweep-tq passes, the median
pass time of 30-second windows ranged from 0.71x to 1.26x of the overall
median (quartiles 35% apart). The same medians divided by the yardstick's
median in each window ranged from 0.91x to 1.06x (quartiles 10% apart). A
yardstick of small numpy calls tracked worse (quartiles 15% to 20% apart),
so the yardstick is pure Python. It never calls cewlab, so a change to the
program moves the scaled figure as much as the measured one.

End-to-end times are therefore reported at reference speed: the median of
the measured seconds x REF_S / the median of the yardstick times taken among
them. Scaling each pass by its own neighbours instead adds the noise of two
short samples to every pass.
"""
from __future__ import annotations

import statistics
import time

#: Seconds the yardstick is taken to last; scaled times are "seconds at the
#: speed where the yardstick takes REF_S". About its time on the sandbox above.
REF_S = 0.1

_LOOPS = 1_000_000


class Yardstick:
    def __init__(self):
        self.run()  # first-call costs stay out of every timing

    @staticmethod
    def run() -> int:
        acc = 0
        for i in range(_LOOPS):
            acc += i * i
        return acc

    def seconds(self) -> float:
        started = time.perf_counter()
        self.run()
        return time.perf_counter() - started


def scaled(seconds: float, refs: list[float]) -> float:
    """Measured seconds at reference speed, given yardstick times taken among them."""
    return seconds * REF_S / statistics.median(refs)
