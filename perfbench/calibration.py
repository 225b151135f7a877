"""A fixed piece of work, timed next to every pass, that measures how fast the host is running.

The shared host this benchmark was sized on changes speed by up to half for
a minute or more at a time, and the program slows with it. ``pass_cal``
divides a pass's CPU time by the CPU time of this work, run just before and
just after it, and ``setup_s`` divides each import probe's wall time by the
time of the work run just before it. The host's speed cancels and a change in
the program's speed does not: nothing here imports ``planswitch``.

The work has the shape of the program's own: float parsing, a per-slot loop
over small objects, many small numpy calls with a generator built for each,
and one large numpy sort.
"""

from __future__ import annotations

import time

import numpy as np

_ROUNDS = 10

# CPU seconds the work takes, roughly, on the host the reference figures in
# README.md come from. A time divided by the work's own time and multiplied by
# this reads as seconds on that host.
REFERENCE_CPU_S = 0.15


class _Slot:
    __slots__ = ("value", "offset")

    def __init__(self, value: float, offset: float) -> None:
        self.value = value
        self.offset = offset


def _step(slot: _Slot, acc: float, beta: float) -> float:
    v = slot.value + acc - slot.offset
    return 0.0 if v > 0.0 else (-beta if v < -beta else v)


class Calibration:
    def __init__(self) -> None:
        data = np.random.default_rng(12345).random(50_000)
        self._data = data
        self._small = data[:36].copy()
        self._text = [repr(x) for x in data[:8000].tolist()]

    def _work(self) -> float:
        slots = [_Slot(float(s), 0.5) for s in self._text]
        acc = 0.0
        for slot in slots:
            acc = _step(slot, acc, 0.3)
        total = 0.0
        for i in range(300):
            g = np.random.default_rng(i)
            total += float(np.cumsum(self._small * g.random())[-1])
            total += float(np.minimum(self._small, 0.4).sum())
        return acc + total + float(np.sort(self._data)[0])

    def cpu_s(self) -> float:
        """CPU seconds this process spends on a fixed amount of work."""
        start = time.process_time()
        for _ in range(_ROUNDS):
            self._work()
        return time.process_time() - start
