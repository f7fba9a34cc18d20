"""Counters, gauges and histograms on the simulated clock.

Instruments are named (dotted names, e.g. ``keynote.memo.hit``) and created
lazily through a :class:`MetricsRegistry`.  Every update is stamped with the
registry clock's current simulated time, so the metrics line up with trace
spans and audit records from the same run; histogram samples keep their
timestamps, which lets the export show *when* latency was paid, not just how
much.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator

from repro.util.clock import SimulatedClock


def nearest_rank(samples: Iterable[float], fraction: float,
                 empty: float = math.nan) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` (``0 <= fraction <= 1``) of the samples at or below it;
    ``empty`` when there are no samples.

    >>> nearest_rank([4.0, 1.0, 3.0, 2.0], 0.5)
    2.0
    """
    ordered = sorted(samples)
    if not ordered:
        return empty
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1]


class Counter:
    """A monotonically increasing count.

    >>> c = Counter("requests")
    >>> _ = c.inc(); _ = c.inc(2)
    >>> c.value
    3
    """

    def __init__(self, name: str, clock: SimulatedClock | None = None) -> None:
        self.name = name
        self.clock = clock or SimulatedClock()
        self.value = 0
        self.updated_at: float | None = None

    def inc(self, amount: int = 1) -> int:
        """Add ``amount`` (must be non-negative); returns the new value."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount
        self.updated_at = self.clock.now()
        return self.value

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "name": self.name, "value": self.value,
                "updated_at": self.updated_at}


class Gauge:
    """A value that can move both ways (pool sizes, queue depths)."""

    def __init__(self, name: str, clock: SimulatedClock | None = None) -> None:
        self.name = name
        self.clock = clock or SimulatedClock()
        self.value: float = 0.0
        self.updated_at: float | None = None

    def set(self, value: float) -> float:
        self.value = float(value)
        self.updated_at = self.clock.now()
        return self.value

    def add(self, delta: float) -> float:
        return self.set(self.value + delta)

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "name": self.name, "value": self.value,
                "updated_at": self.updated_at}


class Histogram:
    """A distribution of observations, each stamped with simulated time.

    >>> h = Histogram("latency")
    >>> for v in (1.0, 2.0, 3.0):
    ...     _ = h.observe(v)
    >>> h.count, h.mean(), h.percentile(50)
    (3, 2.0, 2.0)
    """

    def __init__(self, name: str, clock: SimulatedClock | None = None) -> None:
        self.name = name
        self.clock = clock or SimulatedClock()
        #: (observed_at, value) pairs in observation order
        self.samples: list[tuple[float, float]] = []

    def observe(self, value: float) -> float:
        self.samples.append((self.clock.now(), float(value)))
        return value

    @property
    def count(self) -> int:
        return len(self.samples)

    def total(self) -> float:
        return sum(v for _t, v in self.samples)

    def minimum(self) -> float:
        return min((v for _t, v in self.samples), default=math.nan)

    def maximum(self) -> float:
        return max((v for _t, v in self.samples), default=math.nan)

    def mean(self) -> float:
        if not self.samples:
            return math.nan
        return self.total() / len(self.samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile, ``0 <= p <= 100``."""
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        return nearest_rank((v for _t, v in self.samples), p / 100)

    def as_dict(self) -> dict[str, Any]:
        summary = {"type": "histogram", "name": self.name,
                   "count": self.count}
        if self.samples:
            summary.update(
                total=self.total(), min=self.minimum(), max=self.maximum(),
                mean=self.mean(), p50=self.percentile(50),
                p95=self.percentile(95), p99=self.percentile(99),
                samples=[{"at": t, "value": v} for t, v in self.samples])
        return summary


class MetricsRegistry:
    """Lazily creates and holds named instruments over one clock.

    Asking for an existing name returns the existing instrument; asking for
    a name already held by a *different* instrument kind raises, so
    ``keynote.memo.hit`` can never silently be both a counter and a gauge.
    """

    def __init__(self, clock: SimulatedClock | None = None) -> None:
        self.clock = clock or SimulatedClock()
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name, self.clock)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}")
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def time(self, name: str):
        """Context manager observing the block's simulated duration into
        histogram ``name`` (zero when nothing advanced the clock)."""
        return _HistogramTimer(self.histogram(name), self.clock)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def get(self, name: str) -> "Counter | Gauge | Histogram | None":
        return self._instruments.get(name)

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """Name -> serialised instrument, sorted by name."""
        return {name: self._instruments[name].as_dict()
                for name in self.names()}

    def reset(self) -> None:
        """Forget every instrument (callers re-create them lazily)."""
        self._instruments.clear()

    def __iter__(self) -> Iterator["Counter | Gauge | Histogram"]:
        return iter(self._instruments[name] for name in self.names())

    def __len__(self) -> int:
        return len(self._instruments)


class _HistogramTimer:
    def __init__(self, histogram: Histogram, clock: SimulatedClock) -> None:
        self.histogram = histogram
        self.clock = clock
        self.started_at: float | None = None

    def __enter__(self) -> "_HistogramTimer":
        self.started_at = self.clock.now()
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        assert self.started_at is not None
        self.histogram.observe(self.clock.now() - self.started_at)
