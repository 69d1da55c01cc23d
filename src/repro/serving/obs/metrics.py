"""A metrics registry: counters, gauges, fixed-bucket histograms.

Latency is recorded into histograms with **fixed buckets** rather than a
rolling sample window, because percentiles of a window do not merge
across processes while every histogram cell (bucket count, sum, count,
counter value) is a monotonic number: fleet aggregation is plain
summation and any quantile can be estimated *after* the merge.  The
bucket bounds are therefore part of the fleet contract: every worker
uses the same defaults below.

Three output surfaces, one source of truth:

- :meth:`MetricsRegistry.as_dict` — a JSON-able document (shipped
  inside the existing ``GET /metrics`` JSON payload, and what the
  supervisor merges across workers with :func:`merge_dicts`);
- :meth:`MetricsRegistry.render_text` /
  :func:`render_text_from_dict` — Prometheus text exposition
  (``Accept: text/plain`` content negotiation on ``/metrics``);
- :func:`parse_text` — a tiny validating parser for the exposition
  format (no external deps), used by the CI smoke and the tests to
  assert the output is real Prometheus, not Prometheus-shaped.

Ownership: the layer that does the work owns the instrument it records
into (HTTP server, query service, shard router) and a registry *adopts*
those objects (:meth:`MetricsRegistry.adopt`) — an event is recorded
once, and a scrape reads the very cells the hot path wrote.  Collect
hooks remain for state that is not an event stream (in-flight gauges,
totals kept by the WAL / compactor / replication layers).
"""

from __future__ import annotations

import math
import resource
import sys
import threading

# The shared fleet contract: latency buckets in seconds.  Spanning
# 0.5 ms – 5 s covers a cache hit on localhost through a saturated
# fleet's worst tail; the +Inf bucket is implicit.
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

TEXT_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _check_name(name: str) -> str:
    if not name or name[0].isdigit() or not set(name) <= _NAME_OK:
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _format_value(value: float) -> str:
    """A Prometheus sample value: integers bare, floats via repr."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _label_suffix(names: tuple[str, ...], values: tuple[str, ...], extra: str = "") -> str:
    parts = [
        f'{name}="{_escape_label(value)}"' for name, value in zip(names, values)
    ]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Metric:
    """Shared cell bookkeeping: labels → value(s), under one lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labels: tuple[str, ...]) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labels = tuple(labels)
        self._cells: dict[tuple[str, ...], object] = {}
        self._lock = threading.Lock()

    def _key(self, labels: dict) -> tuple[str, ...]:
        if set(labels) != set(self.labels):
            raise ValueError(
                f"{self.name} expects labels {self.labels}, got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.labels)


class Counter(_Metric):
    """A monotonically increasing sum per label cell."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; inc({amount})")
        key = self._key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount

    def set_total(self, value: float, **labels) -> None:
        """Mirror an externally maintained monotonic total.

        For collect hooks that project an existing counter (pipeline
        ``appends``, compactor seconds) into the registry at scrape
        time.  The source must be monotonic — this does not enforce
        it, it just records the current total.
        """
        key = self._key(labels)
        with self._lock:
            self._cells[key] = float(value)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._cells.get(key, 0.0))

    def _cell_dicts(self) -> list[dict]:
        with self._lock:
            return [
                {"labels": dict(zip(self.labels, key)), "value": value}
                for key, value in sorted(self._cells.items())
            ]

    def _render(self, lines: list[str]) -> None:
        for cell in self._cell_dicts():
            suffix = _label_suffix(
                self.labels, tuple(cell["labels"][n] for n in self.labels)
            )
            lines.append(f"{self.name}{suffix} {_format_value(cell['value'])}")


class Gauge(Counter):
    """A value that can go anywhere; fleet aggregation sums cells."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._cells[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._cells[key] = self._cells.get(key, 0.0) + amount


class Histogram(_Metric):
    """Observations into fixed cumulative buckets (sum-mergeable).

    Each cell holds per-bucket counts (non-cumulative internally,
    rendered cumulative per the exposition format), the running sum,
    and the total count.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labels: tuple[str, ...],
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> None:
        super().__init__(name, help, labels)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(f"buckets must be strictly increasing: {buckets}")
        if bounds and bounds[-1] == math.inf:
            bounds = bounds[:-1]  # +Inf is implicit
        self.buckets = bounds

    def _empty_cell(self) -> dict:
        return {"counts": [0] * (len(self.buckets) + 1), "sum": 0.0, "count": 0}

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                cell = self._cells[key] = self._empty_cell()
            index = len(self.buckets)  # the +Inf slot
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            cell["counts"][index] += 1
            cell["sum"] += value
            cell["count"] += 1

    def cell(self, **labels) -> dict:
        """A copy of one cell; all zeros if never observed (like ``value``)."""
        key = self._key(labels)
        with self._lock:
            cell = self._cells.get(key)
            if cell is None:
                return self._empty_cell()
            return {
                "counts": list(cell["counts"]),
                "sum": cell["sum"],
                "count": cell["count"],
            }

    def _cell_dicts(self) -> list[dict]:
        with self._lock:
            return [
                {
                    "labels": dict(zip(self.labels, key)),
                    "counts": list(cell["counts"]),
                    "sum": cell["sum"],
                    "count": cell["count"],
                }
                for key, cell in sorted(self._cells.items())
            ]

    def _render(self, lines: list[str]) -> None:
        bounds = [*self.buckets, math.inf]
        for cell in self._cell_dicts():
            values = tuple(cell["labels"][n] for n in self.labels)
            cumulative = 0
            for bound, count in zip(bounds, cell["counts"]):
                cumulative += count
                suffix = _label_suffix(
                    self.labels, values, f'le="{_format_value(bound)}"'
                )
                lines.append(f"{self.name}_bucket{suffix} {cumulative}")
            suffix = _label_suffix(self.labels, values)
            lines.append(f"{self.name}_sum{suffix} {_format_value(cell['sum'])}")
            lines.append(f"{self.name}_count{suffix} {cell['count']}")


class MetricsRegistry:
    """Named metric families plus scrape-time collect hooks.

    Registration is idempotent by name (same kind and labels required),
    so every layer can declare the instruments it feeds without
    coordinating module import order.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Metric] = {}
        self._hooks: list = []
        self._lock = threading.Lock()

    def _register(self, metric: _Metric) -> _Metric:
        with self._lock:
            existing = self._families.get(metric.name)
            if existing is not None:
                if (
                    existing.kind != metric.kind
                    or existing.labels != metric.labels
                ):
                    raise ValueError(
                        f"metric {metric.name!r} already registered as "
                        f"{existing.kind}{existing.labels}, not "
                        f"{metric.kind}{metric.labels}"
                    )
                return existing
            self._families[metric.name] = metric
            return metric

    def counter(self, name: str, help: str, labels: tuple[str, ...] = ()) -> Counter:
        return self._register(Counter(name, help, tuple(labels)))

    def gauge(self, name: str, help: str, labels: tuple[str, ...] = ()) -> Gauge:
        return self._register(Gauge(name, help, tuple(labels)))

    def histogram(
        self,
        name: str,
        help: str,
        labels: tuple[str, ...] = (),
        buckets: tuple[float, ...] = LATENCY_BUCKETS,
    ) -> Histogram:
        return self._register(Histogram(name, help, tuple(labels), buckets))

    def adopt(self, metric: _Metric) -> _Metric:
        """Expose an instrument another layer created and records into.

        The registry keeps the object itself, so a scrape reads the
        cells the owner wrote — nothing is copied.  A different object
        already registered under the same name is an error.
        """
        if self._register(metric) is not metric:
            raise ValueError(
                f"metric {metric.name!r} is already registered as another object"
            )
        return metric

    def add_collect(self, hook) -> None:
        """Register a zero-arg hook run before every scrape.

        Hooks mirror externally owned state (in-flight gauges, pipeline
        counters, cache info) into gauges/counters so the hot path
        never pays for double accounting.
        """
        with self._lock:
            self._hooks.append(hook)

    def _collect(self) -> list[_Metric]:
        with self._lock:
            hooks = list(self._hooks)
            families = list(self._families.values())
        for hook in hooks:
            hook()
        # A hook may have registered a family on first run.
        with self._lock:
            families = list(self._families.values())
        return sorted(families, key=lambda m: m.name)

    def as_dict(self) -> dict:
        """A JSON-able snapshot (runs collect hooks)."""
        families = []
        for metric in self._collect():
            family = {
                "name": metric.name,
                "type": metric.kind,
                "help": metric.help,
                "labels": list(metric.labels),
                "cells": metric._cell_dicts(),
            }
            if isinstance(metric, Histogram):
                family["buckets"] = list(metric.buckets)
            families.append(family)
        return {"families": families}

    def render_text(self) -> str:
        """Prometheus text exposition (runs collect hooks)."""
        lines: list[str] = []
        for metric in self._collect():
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            metric._render(lines)
        return "\n".join(lines) + "\n"


# -- scrape-time mirrors shared by the server and the supervisor ---------
def mirror_wal_counters(reg: MetricsRegistry, pipeline) -> None:
    """Project an ``IngestPipeline``'s append / fold / fsync totals into ``reg``.

    One definition of the ``wal_*`` families for every process that owns
    a pipeline (a single-process server, or the supervisor in
    ``--workers`` mode), so the names and help strings cannot drift.
    """
    counters = dict(pipeline.counters)
    log = pipeline.log
    for name, help, total in (
        ("wal_appends_total", "WAL append batches", counters.get("appends", 0)),
        ("wal_events_total", "WAL events appended", counters.get("events", 0)),
        ("wal_compactions_total", "Compaction folds completed",
         counters.get("compactions", 0)),
        ("wal_records_folded_total", "WAL records folded into snapshots",
         counters.get("records_folded", 0)),
        ("wal_checkpoints_total", "Checkpoints written",
         counters.get("checkpoints", 0)),
        ("wal_log_full_total", "Upserts rejected because the log was full",
         counters.get("log_full_rejections", 0)),
        ("wal_fsyncs_total", "WAL fsync calls", log.fsyncs),
        ("wal_fsynced_bytes_total", "Bytes written to the WAL before fsync",
         log.fsynced_bytes),
    ):
        reg.counter(name, help).set_total(total)
    reg.gauge("wal_log_bytes", "Live WAL size in bytes").set(log.size_bytes)


def proc_status_kib(pid: int | str = "self") -> dict[str, int]:
    """The memory fields of ``/proc/<pid>/status`` in KiB (``VmRSS``,
    ``VmHWM``, ``RssAnon``, ``RssFile``, …); ``OSError`` without a ``/proc``."""
    with open(f"/proc/{pid}/status") as status:
        rows = (line.split() for line in status)
        return {row[0].rstrip(":"): int(row[1]) for row in rows if row[-1] == "kB"}


def process_memory_bytes() -> tuple[int, int]:
    """``(resident, peak resident)`` bytes of this process.

    ``VmRSS`` / ``VmHWM``; where there is no ``/proc``, ``ru_maxrss``
    stands in for both (the kernel keeps no current figure there).
    """
    try:
        kib = proc_status_kib()
        return kib["VmRSS"] * 1024, kib["VmHWM"] * 1024
    except (OSError, KeyError):
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        peak *= 1 if sys.platform == "darwin" else 1024
        return peak, peak


def mirror_process(reg: MetricsRegistry, *, worker: int) -> None:
    """Project this process's footprint into ``reg`` (scrape time only).

    Labelled by ``worker`` so a supervisor's fleet merge keeps one cell
    per worker instead of summing them.
    """
    resident, peak = process_memory_bytes()
    for name, help, value in (
        ("process_resident_memory_bytes", "Resident set size in bytes", resident),
        ("process_peak_resident_memory_bytes",
         "Peak resident set size in bytes (VmHWM)", peak),
        ("process_modules_loaded", "Entries in sys.modules", len(sys.modules)),
    ):
        reg.gauge(name, help, ("worker",)).set(value, worker=worker)


# -- fleet merging (dict form) ------------------------------------------
def merge_dicts(dicts: "list[dict]") -> dict:
    """Sum per-cell values across per-worker registry snapshots.

    Counters and histogram cells (bucket counts, sum, count) add;
    gauges add too — the fleet view of ``in_flight`` or ``log_bytes``
    is the sum over workers, and per-worker values stay visible in the
    supervisor's per-worker JSON.  Families missing from some workers
    merge from those that have them.  Mismatched types or histogram
    bucket bounds for the same name raise — that is a fleet contract
    violation, not something to paper over.
    """
    merged: dict[str, dict] = {}
    for snapshot in dicts:
        for family in snapshot.get("families", []):
            name = family["name"]
            target = merged.get(name)
            if target is None:
                merged[name] = {
                    "name": name,
                    "type": family["type"],
                    "help": family.get("help", ""),
                    "labels": list(family.get("labels", [])),
                    "cells": [
                        {key: (list(v) if isinstance(v, list) else v)
                         for key, v in cell.items()}
                        for cell in family.get("cells", [])
                    ],
                    **(
                        {"buckets": list(family["buckets"])}
                        if "buckets" in family
                        else {}
                    ),
                }
                continue
            if target["type"] != family["type"] or target["labels"] != list(
                family.get("labels", [])
            ):
                raise ValueError(
                    f"metric {name!r} disagrees across workers: "
                    f"{target['type']}{target['labels']} vs "
                    f"{family['type']}{family.get('labels')}"
                )
            if target.get("buckets") != (
                list(family["buckets"]) if "buckets" in family else None
            ) and "buckets" in family:
                raise ValueError(f"histogram {name!r} bucket bounds disagree")
            by_key = {
                tuple(sorted(cell["labels"].items())): cell
                for cell in target["cells"]
            }
            for cell in family.get("cells", []):
                key = tuple(sorted(cell["labels"].items()))
                mine = by_key.get(key)
                if mine is None:
                    copied = {
                        k: (list(v) if isinstance(v, list) else v)
                        for k, v in cell.items()
                    }
                    target["cells"].append(copied)
                    by_key[key] = copied
                elif "value" in cell:
                    mine["value"] += cell["value"]
                else:
                    mine["counts"] = [
                        a + b for a, b in zip(mine["counts"], cell["counts"])
                    ]
                    mine["sum"] += cell["sum"]
                    mine["count"] += cell["count"]
    return {"families": sorted(merged.values(), key=lambda f: f["name"])}


def family_total(snapshot: dict, name: str, **labels) -> float:
    """Sum one family's cells in an :meth:`as_dict`/:func:`merge_dicts` doc.

    Counter and gauge cells contribute their value, histogram cells
    their observation count; ``labels`` restricts the sum to the cells
    that carry exactly those label values.  An absent family totals 0.
    """
    total = 0.0
    for family in snapshot.get("families", []):
        if family["name"] != name:
            continue
        for cell in family.get("cells", []):
            if all(cell["labels"].get(k) == str(v) for k, v in labels.items()):
                total += cell["value"] if "value" in cell else cell["count"]
    return total


def render_text_from_dict(snapshot: dict) -> str:
    """Prometheus exposition from an :meth:`as_dict`/:func:`merge_dicts` doc."""
    lines: list[str] = []
    for family in sorted(
        snapshot.get("families", []), key=lambda f: f["name"]
    ):
        name = family["name"]
        labels = tuple(family.get("labels", []))
        lines.append(f"# HELP {name} {_escape_help(family.get('help', ''))}")
        lines.append(f"# TYPE {name} {family['type']}")
        for cell in family.get("cells", []):
            values = tuple(str(cell["labels"][n]) for n in labels)
            if "value" in cell:
                suffix = _label_suffix(labels, values)
                lines.append(f"{name}{suffix} {_format_value(cell['value'])}")
            else:
                bounds = [*family.get("buckets", []), math.inf]
                cumulative = 0
                for bound, count in zip(bounds, cell["counts"]):
                    cumulative += count
                    suffix = _label_suffix(
                        labels, values, f'le="{_format_value(bound)}"'
                    )
                    lines.append(f"{name}_bucket{suffix} {cumulative}")
                suffix = _label_suffix(labels, values)
                lines.append(f"{name}_sum{suffix} {_format_value(cell['sum'])}")
                lines.append(f"{name}_count{suffix} {cell['count']}")
    return "\n".join(lines) + "\n"


# -- a tiny validating parser -------------------------------------------
def parse_text(text: str) -> dict:
    """Parse/validate Prometheus text exposition; stdlib only.

    Returns ``{family: {"type": ..., "samples": {(name, labels-tuple):
    value}}}`` where ``labels-tuple`` is a sorted tuple of ``(label,
    value)`` pairs.  Raises :class:`ValueError` on anything malformed:
    samples before their TYPE line, unparseable values, duplicate
    sample keys, histogram bucket counts that are not cumulative, or a
    histogram ``_count`` that disagrees with its ``+Inf`` bucket.  This
    is what the CI smoke runs against a live scrape.
    """
    families: dict[str, dict] = {}

    def family_of(sample_name: str) -> str | None:
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and base in families and families[base]["type"] == "histogram":
                return base
        return sample_name if sample_name in families else None

    def parse_labels(raw: str, line: str) -> tuple:
        labels = []
        rest = raw
        while rest:
            eq = rest.find("=")
            if eq < 0 or len(rest) <= eq + 1 or rest[eq + 1] != '"':
                raise ValueError(f"malformed labels in line: {line!r}")
            name = rest[:eq].strip()
            if not name or not set(name) <= _NAME_OK:
                raise ValueError(f"bad label name in line: {line!r}")
            # Scan the quoted value, honoring backslash escapes.
            i = eq + 2
            value_chars = []
            while i < len(rest):
                ch = rest[i]
                if ch == "\\":
                    if i + 1 >= len(rest):
                        raise ValueError(f"dangling escape in line: {line!r}")
                    esc = rest[i + 1]
                    value_chars.append(
                        {"n": "\n", "\\": "\\", '"': '"'}.get(esc, esc)
                    )
                    i += 2
                elif ch == '"':
                    break
                else:
                    value_chars.append(ch)
                    i += 1
            else:
                raise ValueError(f"unterminated label value in line: {line!r}")
            labels.append((name, "".join(value_chars)))
            rest = rest[i + 1 :]
            if rest.startswith(","):
                rest = rest[1:]
            elif rest:
                raise ValueError(f"malformed labels in line: {line!r}")
        return tuple(sorted(labels))

    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"malformed HELP line: {line!r}")
            families.setdefault(
                parts[2], {"type": None, "samples": {}}
            )
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ValueError(f"malformed TYPE line: {line!r}")
            family = families.setdefault(parts[2], {"samples": {}})
            family["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # comment
        # A sample: name[{labels}] value
        brace = line.find("{")
        if brace >= 0:
            close = line.rfind("}")
            if close < brace:
                raise ValueError(f"unbalanced braces in line: {line!r}")
            sample_name = line[:brace]
            labels = parse_labels(line[brace + 1 : close], line)
            value_text = line[close + 1 :].strip()
        else:
            sample_name, _, value_text = line.partition(" ")
            labels = ()
            value_text = value_text.strip()
        if not sample_name or not set(sample_name) <= _NAME_OK:
            raise ValueError(f"bad sample name in line: {line!r}")
        base = family_of(sample_name)
        if base is None:
            raise ValueError(
                f"sample {sample_name!r} has no preceding TYPE declaration"
            )
        try:
            value = float(value_text.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise ValueError(f"bad sample value in line: {line!r}")
        samples = families[base]["samples"]
        key = (sample_name, labels)
        if key in samples:
            raise ValueError(f"duplicate sample: {key}")
        samples[key] = value

    # Histogram invariants: buckets cumulative, _count == +Inf bucket.
    for name, family in families.items():
        if family.get("type") != "histogram":
            continue
        series: dict[tuple, list[tuple[float, float]]] = {}
        for (sample_name, labels), value in family["samples"].items():
            if not sample_name.endswith("_bucket"):
                continue
            le = dict(labels).get("le")
            if le is None:
                raise ValueError(f"{sample_name} sample without le label")
            rest = tuple(sorted(pair for pair in labels if pair[0] != "le"))
            series.setdefault(rest, []).append(
                (float(le.replace("+Inf", "inf")), value)
            )
        for rest, buckets in series.items():
            buckets.sort()
            counts = [count for _, count in buckets]
            if counts != sorted(counts):
                raise ValueError(
                    f"{name}{dict(rest)} bucket counts are not cumulative"
                )
            if buckets[-1][0] != math.inf:
                raise ValueError(f"{name}{dict(rest)} is missing the +Inf bucket")
            count_key = (f"{name}_count", rest)
            if count_key in family["samples"] and (
                family["samples"][count_key] != buckets[-1][1]
            ):
                raise ValueError(
                    f"{name}{dict(rest)} _count disagrees with the +Inf bucket"
                )
    return families
