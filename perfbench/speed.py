"""Machine-speed calibration for timings on a shared, noisy host.

On a machine shared with other tenants the same Python code runs up to
about 1.5x slower for stretches of seconds to minutes, so raw wall times of
identical runs spread by 20-30 %. A fixed calibration slice, which touches
no starvlc code, is timed between ops, at most every `SAMPLE_EVERY_S`
seconds. Each op's time is multiplied by `NOMINAL_SLICE_S` divided by the
median of the `WINDOW` slices nearest before and after it: it becomes
seconds on a machine where the slice takes `NOMINAL_SLICE_S`, about its
median on the 2-core x86_64 host the benchmark was tuned on. The median
keeps one slice that an interrupt stretched from skewing an op. A faster or
slower program does not change the slice, so the scaled times still move
with the program; a busier machine slows both and cancels out. The raw
times are reported beside them.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

NOMINAL_SLICE_S = 2.8e-3
SAMPLE_EVERY_S = 0.1
WINDOW = 5  # slices on each side of a piece of work

_A = np.linspace(0.0, 1.0, 320)
_B = _A[::-1].copy()


def calibration_slice() -> float:
    """A fixed mix of interpreted float arithmetic and small numpy calls,
    like the solver's inner loops, but independent of starvlc."""
    total = 0.0
    for i in range(10_000):
        total += math.sqrt(i) * 0.5
    v = _A
    for _ in range(150):
        v = np.clip(v + 0.1 * _B, 0.0, 1.0) * 0.9
        total += float(v @ _B) + float(np.max(np.abs(v - _A)))
    return total


class Speed:
    """Slice samples over one stretch of work (a batch, or the set-up).

    Take a sample before the first timed piece of work and after the last.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        """Time one calibration slice."""
        start = time.perf_counter()
        calibration_slice()
        end = time.perf_counter()
        self.samples.append(end - start)
        self._last = end

    def maybe_sample(self) -> None:
        """Sample once per SAMPLE_EVERY_S since the last slice, up to
        WINDOW times, so a long op gets a full window right after it."""
        due = int((time.perf_counter() - self._last) / SAMPLE_EVERY_S)
        for _ in range(min(due, WINDOW)):
            self.sample()

    def mark(self) -> int:
        """Call before a piece of work; pass the mark to `factor_since`."""
        return len(self.samples)

    def factor_since(self, mark: int) -> float:
        """Scale for work done between `mark` and the next slice."""
        near = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return NOMINAL_SLICE_S / statistics.median(near)

    def factor(self) -> float:
        """Scale for the whole stretch: the median of all its slices."""
        return NOMINAL_SLICE_S / statistics.median(self.samples)
