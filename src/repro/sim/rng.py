"""Deterministic random number streams.

Compute durations in the simulator carry small amounts of jitter so that
measured distributions look like real measurements (histograms have width,
percentiles differ from means).  Every jitter source draws from a named
stream so that adding a new consumer never perturbs existing streams.
"""

from __future__ import annotations

import hashlib
import random
from math import cos, log, sin, sqrt, tau
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
        return _bound_draw(self.stream(name), mean_ns, rel_sigma)()

    def bind_jitter(
        self, name: str, mean_ns: float, rel_sigma: float = 0.08
    ) -> Callable[[], int]:
        """``jitter_ns(name, mean_ns, rel_sigma)`` as a zero-argument draw.

        The stream is looked up once, here; each call draws the same
        value the equivalent :meth:`jitter_ns` call would, from the same
        shared stream.
        """
        if mean_ns <= 0:
            return _no_jitter
        return _bound_draw(self.stream(name), mean_ns, rel_sigma)

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


def _no_jitter() -> int:
    return 0


def _bound_draw(rng: random.Random, mean_ns: float, rel_sigma: float) -> Callable[[], int]:
    """The one jitter draw: ``rng.gauss(1.0, rel_sigma)``, clamped, scaled.

    The draw runs :meth:`random.Random.gauss`'s algorithm inline — two
    uniforms give a pair of normal deviates, the second cached in the
    stream's own ``gauss_next`` — so it consumes and yields exactly what
    ``gauss`` would, and interleaves with every other draw (bound or
    not, or a direct ``gauss`` call) on the same stream.  The factor is
    clamped at ``max(0.05, 1 - 3 * rel_sigma)``, the duration at 1 ns.
    """
    uniform = rng.random
    floor = max(0.05, 1.0 - 3.0 * rel_sigma)

    def draw() -> int:
        z = rng.gauss_next
        if z is None:
            x2pi = uniform() * tau
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            z = cos(x2pi) * g2rad
            rng.gauss_next = sin(x2pi) * g2rad
        else:
            rng.gauss_next = None
        factor = 1.0 + z * rel_sigma
        if factor < floor:
            factor = floor
        ns = int(mean_ns * factor)
        return ns if ns > 1 else 1

    return draw
