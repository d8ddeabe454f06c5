"""Deterministic random number streams.

Compute durations in the simulator carry small amounts of jitter so that
measured distributions look like real measurements (histograms have width,
percentiles differ from means).  Every jitter source draws from a named
stream so that adding a new consumer never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial
from typing import Callable


class DeterministicRng:
    """A collection of independent, named, seeded random streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the :class:`random.Random` for ``name``, creating it on first use.

        Stream seeds are derived by hashing the root seed with the stream
        name, so streams are independent and stable across runs.
        """
        rng = self._streams.get(name)
        if rng is None:
            digest = hashlib.sha256(f"{self._seed}:{name}".encode()).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._streams[name] = rng
        return rng

    def jitter_ns(self, name: str, mean_ns: float, rel_sigma: float = 0.08) -> int:
        """Draw a jittered duration around ``mean_ns``.

        Durations are drawn from a lognormal-ish positive distribution:
        a gaussian multiplier clamped at ``1 - 3*rel_sigma`` so durations
        can never go negative or absurdly small.
        """
        if mean_ns <= 0:
            return 0
        return _jitter(self.stream(name).gauss, mean_ns, rel_sigma)

    def bind_jitter(
        self, name: str, mean_ns: float, rel_sigma: float = 0.08
    ) -> Callable[[], int]:
        """``jitter_ns(name, mean_ns, rel_sigma)`` as a zero-argument draw.

        The stream is looked up once, here; each call draws the same
        value the equivalent :meth:`jitter_ns` call would, from the same
        shared stream.
        """
        if mean_ns <= 0:
            return lambda: 0
        return partial(_jitter, self.stream(name).gauss, mean_ns, rel_sigma)

    def heavy_tail_ns(
        self,
        name: str,
        mean_ns: float,
        rel_sigma: float = 0.10,
        tail_probability: float = 0.01,
        tail_factor: float = 5.0,
    ) -> int:
        """Draw a duration with an occasional heavy tail.

        Real syscall and network latencies show rare outliers (cache misses,
        queueing); this helper makes the 99th percentile meaningfully larger
        than the median, as in the paper's scatter plots.
        """
        base = self.jitter_ns(name, mean_ns, rel_sigma)
        rng = self.stream(name + ":tail")
        if rng.random() < tail_probability:
            return int(base * (1.0 + rng.random() * tail_factor))
        return base


def _jitter(gauss: Callable[[float, float], float], mean_ns: float, rel_sigma: float) -> int:
    factor = gauss(1.0, rel_sigma)
    floor = max(0.05, 1.0 - 3.0 * rel_sigma)
    if factor < floor:
        factor = floor
    return max(1, int(mean_ns * factor))
