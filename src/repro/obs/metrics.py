"""Metrics primitives: counters, gauges, histograms, and the registry.

This is the canonical home of every measurement accumulator in the
reproduction.  A :class:`MetricsRegistry` holds instruments keyed by
``(node, layer, name)`` -- the same coordinates the paper's evaluation
slices by (which node, which micro-protocol layer, which quantity) -- and
can export the whole table as dict/JSON/CSV.

All instruments are pure accumulators: observing them never schedules
events, draws randomness, or charges simulated CPU, so an instrumented
run is byte-identical (in simulated time) to an uninstrumented one.
"""

from __future__ import annotations

import json
import math


# ----------------------------------------------------------------------
# sample statistics
# ----------------------------------------------------------------------
def mean(samples):
    if not samples:
        return float("nan")
    return sum(samples) / len(samples)


def percentile(samples, q):
    """Nearest-rank percentile; ``q`` in [0, 100]."""
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1, int(math.ceil(q / 100.0 * len(ordered))) - 1))
    return ordered[rank]


def stddev(samples):
    if len(samples) < 2:
        return 0.0
    mu = mean(samples)
    return math.sqrt(sum((s - mu) ** 2 for s in samples) / (len(samples) - 1))


# ----------------------------------------------------------------------
# instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self):
        self.value = 0

    def inc(self, n=1):
        self.value += n

    def summary(self):
        return {"value": self.value}

    def __repr__(self):
        return "Counter(%r)" % (self.value,)


class Gauge:
    """A point-in-time value (queue depth, window occupancy, ...)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self):
        self.value = None

    def set(self, value):
        self.value = value

    def add(self, delta):
        self.value = (self.value or 0) + delta

    def summary(self):
        return {"value": self.value}

    def __repr__(self):
        return "Gauge(%r)" % (self.value,)


class Histogram:
    """A distribution of samples (latencies, batch sizes, costs)."""

    __slots__ = ("samples",)
    kind = "histogram"

    def __init__(self):
        self.samples = []

    def observe(self, value):
        self.samples.append(value)

    @property
    def count(self):
        return len(self.samples)

    @property
    def total(self):
        return sum(self.samples)

    @property
    def mean(self):
        return mean(self.samples)

    @property
    def maximum(self):
        return max(self.samples) if self.samples else float("nan")

    @property
    def p50(self):
        return percentile(self.samples, 50)

    @property
    def p99(self):
        return percentile(self.samples, 99)

    def percentile(self, q):
        return percentile(self.samples, q)

    def summary(self):
        return {"count": self.count,
                "mean": self.mean,
                "p50": self.p50,
                "p99": self.p99,
                "max": self.maximum}

    def __repr__(self):
        return "Histogram(n=%d, mean=%s)" % (self.count, self.mean)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
class MetricsRegistry:
    """Instruments keyed by ``(node, layer, name)``.

    ``node`` is a node id (or a tag like ``"app"`` for application-level
    aggregates, ``None`` for global quantities); ``layer`` is the
    micro-protocol layer name (or ``"net"``/``"scheduler"`` for the
    simulation substrate); ``name`` is the quantity.
    """

    def __init__(self):
        self._instruments = {}

    # creation / access ------------------------------------------------
    def _get_or_make(self, node, layer, name, cls):
        key = (node, layer, name)
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls()
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError("metric %r is a %s, not a %s"
                            % (key, instrument.kind, cls.kind))
        return instrument

    def counter(self, node, layer, name):
        return self._get_or_make(node, layer, name, Counter)

    def gauge(self, node, layer, name):
        return self._get_or_make(node, layer, name, Gauge)

    def histogram(self, node, layer, name):
        return self._get_or_make(node, layer, name, Histogram)

    def get(self, node, layer, name):
        """The instrument at that key, or None if never touched."""
        return self._instruments.get((node, layer, name))

    # hot-path conveniences ---------------------------------------------
    def inc(self, node, layer, name, n=1):
        self.counter(node, layer, name).inc(n)

    def observe(self, node, layer, name, value):
        self.histogram(node, layer, name).observe(value)

    def set_gauge(self, node, layer, name, value):
        self.gauge(node, layer, name).set(value)

    # queries ------------------------------------------------------------
    def __len__(self):
        return len(self._instruments)

    def select(self, node=..., layer=None, name=None):
        """Sub-dict of instruments matching the given coordinates."""
        out = {}
        for (knode, klayer, kname), instrument in self._instruments.items():
            if node is not ... and knode != node:
                continue
            if layer is not None and klayer != layer:
                continue
            if name is not None and kname != name:
                continue
            out[(knode, klayer, kname)] = instrument
        return out

    def total(self, name, layer=None):
        """Sum of the counters called ``name`` across all nodes."""
        acc = 0
        for instrument in self.select(layer=layer, name=name).values():
            if isinstance(instrument, Counter):
                acc += instrument.value
        return acc

    def merged_histogram(self, name, layer=None):
        """All samples of the histograms called ``name``, pooled."""
        pooled = Histogram()
        for instrument in self.select(layer=layer, name=name).values():
            if isinstance(instrument, Histogram):
                pooled.samples.extend(instrument.samples)
        return pooled

    # per-shard namespaces (repro.shard): instruments stay keyed by node
    # -- one registry serves the whole plane -- and these projections
    # slice them by any node subset, e.g. one shard's member block
    def select_nodes(self, nodes, layer=None, name=None):
        """Instruments of any node in ``nodes`` (a shard's namespace)."""
        nodes = set(nodes)
        out = {}
        for (knode, klayer, kname), instrument in self._instruments.items():
            if knode not in nodes:
                continue
            if layer is not None and klayer != layer:
                continue
            if name is not None and kname != name:
                continue
            out[(knode, klayer, kname)] = instrument
        return out

    def total_nodes(self, nodes, name, layer=None):
        """Sum of the counters called ``name`` across ``nodes`` only."""
        acc = 0
        for instrument in self.select_nodes(nodes, layer=layer,
                                            name=name).values():
            if isinstance(instrument, Counter):
                acc += instrument.value
        return acc

    def merged_histogram_nodes(self, nodes, name, layer=None):
        """Pooled samples of ``name`` across ``nodes`` only."""
        pooled = Histogram()
        for instrument in self.select_nodes(nodes, layer=layer,
                                            name=name).values():
            if isinstance(instrument, Histogram):
                pooled.samples.extend(instrument.samples)
        return pooled

    # export -------------------------------------------------------------
    def rows(self):
        """One flat dict per instrument, deterministically ordered."""
        keys = sorted(self._instruments,
                      key=lambda k: (repr(k[0]), str(k[1]), str(k[2])))
        for key in keys:
            instrument = self._instruments[key]
            row = {"node": repr(key[0]), "layer": key[1], "name": key[2],
                   "kind": instrument.kind}
            row.update(instrument.summary())
            yield row

    def to_dict(self):
        return list(self.rows())

    def to_json(self, indent=None):
        return json.dumps(self.to_dict(), indent=indent, default=repr)

    def to_csv(self):
        fields = ("node", "layer", "name", "kind", "value",
                  "count", "mean", "p50", "p99", "max")
        lines = [",".join(fields)]
        for row in self.rows():
            lines.append(",".join(str(row.get(f, "")) for f in fields))
        return "\n".join(lines) + "\n"

    def write_json(self, path, indent=2):
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=indent))

    def write_csv(self, path):
        with open(path, "w") as handle:
            handle.write(self.to_csv())
