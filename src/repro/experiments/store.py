"""Serialization and streaming persistence of campaign results.

The paper's artifact parallelizes Monte-Carlo jobs across machines and
aggregates raw output files afterwards (§A.7).  This module provides the
equivalent for the Python reproduction, in two layers:

* **Documents** — :class:`SweepResult` objects round-trip through JSON
  (``repro-sweep-v2``: cells, per-cell timings, *and* the sweep config,
  so a shard file is self-describing), and results from
  independently-run shards merge into one result via
  :func:`merge_sweeps`.
* **Streams** — the :class:`JsonlStore` family appends each completed
  work unit to a JSONL file the moment it finishes, so a killed
  campaign loses nothing.  Each campaign kind is declared once, as a
  :class:`CampaignSchema` in :data:`CAMPAIGNS` (table below); its store
  class (:class:`ShardStore`, :class:`Fig10Store`, :class:`FleetStore`)
  adds only the ``append`` that encodes one result.  Loading, the
  header check, quarantine markers and config (de)serialization are
  read off the declaration, and so are the record keys and grid
  dimensions the ``python -m repro store`` toolbox
  (:mod:`repro.experiments.storetools`) and
  :func:`repro.experiments.monitor.grid_shape` use.  The one driver
  loop, :func:`repro.experiments.runner.run_campaign`, streams every
  campaign's results through its store and skips persisted keys on
  restart, so an interrupted run resumes bit-identically.  (The drivers
  still assemble the complete in-memory result they return — the store
  bounds *loss*, not driver memory.)  A record is one line; a crash
  mid-append leaves at most one damaged final line, which loading
  tolerates and appending repairs or trims.

Campaign schema table (one :class:`CampaignSchema` each):

==========  ================  =====  ===================================  ===============
store       header format     kind   key fields                           grid
==========  ================  =====  ===================================  ===============
ShardStore  repro-sweep-v2    cell   error_count int, probability float,  error counts ×
                                     profiler str                         probabilities ×
                                                                          profilers
Fig10Store  repro-fig10-v1    fig10  probability float, code_index int,   probabilities ×
                                     count int (at-risk stratum)          codes × strata
FleetStore  repro-fleet-v1    fleet  start int, stop int, slice_index     chips
                                     int, num_slices int
==========  ================  =====  ===================================  ===============

On-disk records (one JSON object per line):

* ``header`` — ``{"format": <header format>, "kind": "header",
  "config": {...} | null}``; the config dict round-trips the
  campaign's frozen config dataclass
  (:class:`~repro.experiments.config.SweepConfig` /
  :class:`~repro.experiments.config.CaseStudyConfig` /
  :class:`~repro.experiments.config.FleetConfig`) field for field.
* ``cell`` — the key fields, ``words`` (list of per-word metric dicts,
  one per Monte-Carlo word), and optional ``seconds`` (the cell's
  recorded compute wall-clock, used for ETAs); ``kind`` comes last.
* ``fig10`` — the key fields, the per-profiler ``before`` / ``after`` /
  ``to_zero`` trajectory dicts, and optional ``seconds``.
* ``fleet`` — the key fields (a chip range, or one heavy chip's cell
  slice), the per-chip ``chips`` payload (word coordinates, at-risk
  positions, identified positions), and optional ``seconds``.
* ``quarantine`` — exactly the key fields of the record it stands in
  for, nothing else: a shard a ``--continue-past-quarantine`` run set
  aside.  Loading ignores it, so a rerun recomputes exactly those
  shards, and ``store summary`` reports the ones not yet resolved by a
  completed record.

Duplicate keys always resolve **last-wins** on load; the
``python -m repro store`` toolbox compacts superseded records away and
prunes quarantine markers that a later completed record resolved.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Mapping
from dataclasses import asdict, dataclass, replace
from functools import partial
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple

from repro.experiments.config import CaseStudyConfig, FleetConfig, SweepConfig
from repro.experiments.runner import SweepCell, SweepResult, WordMetrics

__all__ = [
    "sweep_to_json",
    "sweep_from_json",
    "merge_sweeps",
    "config_to_dict",
    "config_from_dict",
    "CampaignSchema",
    "SWEEP",
    "FIG10",
    "FLEET",
    "CAMPAIGNS",
    "CAMPAIGNS_BY_FORMAT",
    "CAMPAIGNS_BY_KIND",
    "campaign_for_config",
    "StoreContents",
    "JsonlStore",
    "ShardStore",
    "Fig10Store",
    "FleetStore",
]

def _metrics_to_dict(metrics: WordMetrics) -> dict:
    return {
        "direct_total": metrics.direct_total,
        "direct_identified": list(metrics.direct_identified),
        "indirect_total": metrics.indirect_total,
        "indirect_missed": list(metrics.indirect_missed),
        "post_total": metrics.post_total,
        "post_identified": list(metrics.post_identified),
        "capability": list(metrics.capability),
        "first_direct_round": metrics.first_direct_round,
    }


def _metrics_from_dict(payload: dict) -> WordMetrics:
    return WordMetrics(
        direct_total=int(payload["direct_total"]),
        direct_identified=tuple(payload["direct_identified"]),
        indirect_total=int(payload["indirect_total"]),
        indirect_missed=tuple(payload["indirect_missed"]),
        post_total=int(payload["post_total"]),
        post_identified=tuple(payload["post_identified"]),
        capability=tuple(payload["capability"]),
        first_direct_round=int(payload["first_direct_round"]),
    )


def config_to_dict(config) -> dict | None:
    """JSON-safe dict of a campaign config (``None`` for anything else).

    Campaigns may run with any hashable config-like object; only the
    library's own frozen dataclasses — the ``config_class`` of a
    :data:`CAMPAIGNS` entry — are given a guaranteed round-trip.
    """
    if campaign_for_config(config) is None:
        return None
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(config).items()
    }


def config_from_dict(payload: dict | None, config_class: type):
    """Inverse of :func:`config_to_dict` (``None`` passes through)."""
    if payload is None:
        return None
    return config_class(
        **{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in payload.items()
        }
    )


def _cell_record(key: tuple[int, float, str], cell: SweepCell, seconds: float | None) -> dict:
    entry = {**SWEEP.key_record(key), "words": [_metrics_to_dict(m) for m in cell.words]}
    if seconds is not None:
        entry["seconds"] = seconds
    return entry


def _cell_from_record(entry: dict) -> SweepCell:
    error_count, probability, profiler = SWEEP.key_of(entry)
    return SweepCell(
        error_count=error_count,
        probability=probability,
        profiler=profiler,
        words=[_metrics_from_dict(m) for m in entry["words"]],
    )


def sweep_to_json(sweep: SweepResult) -> str:
    """Serialize a sweep — cells, per-cell timings, and config — to JSON.

    Emits the self-describing ``repro-sweep-v2`` document: when the
    sweep's config is the library's :class:`SweepConfig` it rides along
    and :func:`sweep_from_json` restores it, so a shard file remembers
    what experiment produced it.  A cell's wall-clock seconds ride along
    as its ``seconds`` field when the engine recorded them, so
    aggregated shard files keep the cost accounting the
    streaming/distributed backends need.
    """
    cells = [
        _cell_record(key, cell, sweep.timings.get(key))
        for key, cell in sorted(sweep.cells.items())
    ]
    return json.dumps(
        {"format": SWEEP.format, "config": config_to_dict(sweep.config), "cells": cells}
    )


def sweep_from_json(document: str) -> SweepResult:
    """Inverse of :func:`sweep_to_json`; any other format is refused."""
    payload = json.loads(document)
    if payload.get("format") != SWEEP.format:
        raise ValueError(
            f"not a {SWEEP.format} sweep document (format {payload.get('format')!r})"
        )
    cells: dict[tuple[int, float, str], SweepCell] = {}
    timings: dict[tuple[int, float, str], float] = {}
    for entry in payload["cells"]:
        key = SWEEP.key_of(entry)
        cells[key] = _cell_from_record(entry)
        if "seconds" in entry:
            timings[key] = float(entry["seconds"])
    config = config_from_dict(payload.get("config"), SweepConfig)
    return SweepResult(config=config, cells=cells, timings=timings)


def merge_sweeps(shards: Iterable[SweepResult]) -> SweepResult:
    """Merge independently-run shards into one result.

    Cells present in several shards concatenate their word lists (the
    paper's "aggregate the raw data, regardless of how the ECC codes are
    partitioned") and *sum* their timings — the merged cell's cost is the
    total CPU spent on it across shards.  The merged result keeps the
    first shard's config, falling back to the first non-``None`` config
    so a resumed store (config on disk) merged with a fresh run keeps a
    usable config either way.
    """
    shards = list(shards)
    if not shards:
        raise ValueError("need at least one shard")
    merged: dict[tuple[int, float, str], SweepCell] = {}
    timings: dict[tuple[int, float, str], float] = {}
    for shard in shards:
        for key, cell in shard.cells.items():
            words = list(cell.words)
            if key in merged:
                _check_compatible(merged[key], cell)
                words = merged[key].words + words
            merged[key] = replace(cell, words=words)
        for key, seconds in shard.timings.items():
            timings[key] = timings.get(key, 0.0) + seconds
    config = shards[0].config
    if config is None:
        config = next((s.config for s in shards if s.config is not None), None)
    return SweepResult(config=config, cells=merged, timings=timings)


def _check_compatible(a: SweepCell, b: SweepCell) -> None:
    if a.words and b.words:
        if len(a.words[0].capability) != len(b.words[0].capability):
            raise ValueError(
                "cannot merge shards with different round counts "
                f"({len(a.words[0].capability)} vs {len(b.words[0].capability)})"
            )


def _chips_done(keys: Iterable[tuple]) -> int:
    """Chips whose every fleet shard has landed.

    A fleet record is a shard, not a chip: a range shard completes its
    whole chip span, but a heavy chip is done only when every slice of
    its ``(start, stop, num_slices)`` group is present.
    """
    groups: dict[tuple, set] = {}
    for start, stop, slice_index, num_slices in keys:
        groups.setdefault((start, stop, num_slices), set()).add(slice_index)
    return sum(
        stop - start
        for (start, stop, num_slices), slices in groups.items()
        if len(slices) == num_slices
    )


@dataclass(frozen=True)
class CampaignSchema:
    """One campaign kind, declared once: its records, config and grid.

    Stores, the ``repro store`` toolbox, the coverage math and the
    driver loop all read this declaration instead of repeating it.
    """

    #: Header format tag.
    format: str
    #: ``kind`` of a completed record.
    kind: str
    #: ``(field, type)`` of every key field, in on-disk order.
    key_fields: tuple[tuple[str, type], ...]
    #: The frozen config dataclass whose header dict round-trips.
    config_class: type
    #: ``(label, config field, size of that field)`` per grid dimension.
    grid: tuple[tuple[str, str, Callable[[Any], int]], ...]
    #: A completed record's payload, as the campaign's shard worker
    #: returns it.
    decode: Callable[[dict], Any]
    #: Progress noun of one record (``cells`` / ``shards``).
    unit: str
    #: Summary label of the completed records.
    label: str
    #: Operator-facing names of the store file and of the config.
    store_name: str
    config_name: str
    #: Completed work units among the given record keys, when records
    #: subdivide units (``None``: every record is one unit).
    units_done: Callable[[Iterable[tuple]], int] | None = None

    def key_of(self, record: Mapping) -> tuple:
        """The typed key a completed or quarantine record carries."""
        return tuple(kind(record[name]) for name, kind in self.key_fields)

    def key_record(self, key: tuple) -> dict:
        """The key fields of a record, in on-disk order."""
        return {name: kind(value) for (name, kind), value in zip(self.key_fields, key)}

    def grid_shape(self, config) -> tuple[list[tuple[str, int]], int]:
        """``([(label, count), ...], total)`` of a config or its header dict."""
        get = config.get if isinstance(config, Mapping) else partial(getattr, config)
        dims = [(label, size(get(name))) for label, name, size in self.grid]
        return dims, math.prod(count for _, count in dims)


SWEEP = CampaignSchema(
    format="repro-sweep-v2",
    kind="cell",
    key_fields=(("error_count", int), ("probability", float), ("profiler", str)),
    config_class=SweepConfig,
    grid=(
        ("error counts", "error_counts", len),
        ("probabilities", "probabilities", len),
        ("profilers", "profilers", len),
    ),
    decode=_cell_from_record,
    unit="cells",
    label="sweep cells",
    store_name="sweep shard store",
    config_name="sweep",
)

FIG10 = CampaignSchema(
    format="repro-fig10-v1",
    kind="fig10",
    key_fields=(("probability", float), ("code_index", int), ("count", int)),
    config_class=CaseStudyConfig,
    grid=(
        ("probabilities", "probabilities", len),
        ("codes", "num_codes", int),
        ("strata", "max_at_risk", lambda max_at_risk: max(0, int(max_at_risk) - 1)),
    ),
    decode=lambda record: (record["before"], record["after"], record["to_zero"]),
    unit="shards",
    label="fig10 shards",
    store_name="Fig 10 case-study store",
    config_name="case-study",
)

FLEET = CampaignSchema(
    format="repro-fleet-v1",
    kind="fleet",
    key_fields=(("start", int), ("stop", int), ("slice_index", int), ("num_slices", int)),
    config_class=FleetConfig,
    grid=(("chips", "num_chips", int),),
    decode=lambda record: {"chips": record["chips"]},
    unit="shards",
    label="fleet shards",
    store_name="fleet store",
    config_name="fleet",
    units_done=_chips_done,
)

#: Every campaign kind, and the two lookups stores at rest need.
CAMPAIGNS = (SWEEP, FIG10, FLEET)
CAMPAIGNS_BY_FORMAT = {campaign.format: campaign for campaign in CAMPAIGNS}
CAMPAIGNS_BY_KIND = {campaign.kind: campaign for campaign in CAMPAIGNS}


def campaign_for_config(config) -> CampaignSchema | None:
    """The campaign whose config class ``config`` is (``None`` if opaque)."""
    return next((c for c in CAMPAIGNS if isinstance(config, c.config_class)), None)


def unknown_record(path: Path, number: int, record: dict) -> ValueError:
    """The error for a line that is no record of the store being read."""
    if record.get("format") == SWEEP.format and "cells" in record:
        # A whole sweep_to_json document, not a store: resuming onto it
        # would ignore its cells and append records that corrupt it.
        return ValueError(
            f"{path} is a sweep_to_json document, not a JSONL shard store; "
            "load it with sweep_from_json (and give --resume its own path)"
        )
    return ValueError(f"{path}: unknown shard record on line {number + 1}")


class StoreContents(NamedTuple):
    """What :meth:`JsonlStore.load` read: config, payloads, seconds."""

    config: Any
    #: Winning (last-appended) payload per key, in first-append order.
    payloads: dict
    #: Recorded compute seconds of the winning records that carry them.
    seconds: dict


class JsonlStore:
    """Append-only, torn-tail-tolerant JSONL record file.

    One JSON object per line; appends flush and fsync per record, so
    after a crash the file holds every fully-reported record plus at
    most one truncated tail line, which reading skips and appending
    repairs or trims.  A subclass names its :class:`CampaignSchema` as
    :attr:`campaign` and defines ``append``; :meth:`load`, the header
    check and :meth:`append_quarantine` follow from the declaration.
    The :mod:`~repro.experiments.storetools` toolbox streams the raw
    records of any kind through this base class.
    """

    #: The campaign whose records the store holds; set by subclasses.
    campaign: CampaignSchema

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._handle: IO[str] | None = None

    # -- reading --------------------------------------------------------

    def exists(self) -> bool:
        return self.path.exists()

    def iter_records(self, include_torn: bool = False) -> Iterator[tuple[int, dict | None]]:
        """Stream ``(line_number, record)`` pairs without loading the file.

        A torn write only ever affects the last line (appends are
        sequential), so a JSON error on the final line is silently
        dropped — an interrupted append, recomputed on resume — while
        an error anywhere earlier means real corruption and raises.
        With ``include_torn``, the torn final line is yielded as
        ``(line_number, None)`` instead of dropped, so a streaming
        consumer (the ``repro store`` toolbox) can report it from the
        same single pass.
        """
        if not self.path.exists():
            return
        held: tuple[int, str] | None = None
        with open(self.path, "r", encoding="utf-8") as handle:
            for number, raw in enumerate(handle):
                if not raw.strip():
                    continue
                if held is not None:
                    yield held[0], self._parse_line(*held)
                held = (number, raw)
            if held is not None:
                try:
                    record = json.loads(held[1])
                except json.JSONDecodeError:
                    if include_torn:
                        yield held[0], None
                    return  # torn tail from an interrupted append
                yield held[0], record

    def _parse_line(self, number: int, raw: str) -> dict:
        try:
            return json.loads(raw)
        except json.JSONDecodeError:
            raise ValueError(
                f"{self.path}: corrupt shard record on line {number + 1}"
            ) from None

    def load(self) -> StoreContents:
        """Read every intact record; tolerate a truncated final line.

        Duplicate keys resolve last-wins.  Quarantine markers are
        skipped: their shards were never computed, so a resume
        recomputes them (``store summary`` reports unresolved ones).
        """
        campaign = self.campaign
        config = None
        payloads: dict = {}
        seconds: dict = {}
        for number, record in self.iter_records():
            kind = record.get("kind")
            if kind == campaign.kind:
                key = campaign.key_of(record)
                payloads[key] = campaign.decode(record)
                if "seconds" in record:
                    seconds[key] = float(record["seconds"])
                else:
                    seconds.pop(key, None)
            elif kind == "header":
                self._check_header(record)
                config = config_from_dict(record.get("config"), campaign.config_class)
            elif kind != "quarantine":
                raise unknown_record(self.path, number, record)
        return StoreContents(config, payloads, seconds)

    def _check_header(self, record: dict) -> None:
        """Refuse a header of any format but the store's own."""
        found = record.get("format")
        own = self.campaign
        if found == own.format:
            return
        other = CAMPAIGNS_BY_FORMAT.get(found)
        what = f"a {other.store_name}, not" if other is not None else "not"
        raise ValueError(
            f"{self.path} is {what} a {own.store_name} (header format "
            f"{found!r}, expected {own.format!r}); give each exhibit its own "
            "--resume path"
        )

    # -- writing --------------------------------------------------------

    def open(self, config=None) -> "JsonlStore":
        """Open for appending, writing the header record on a new file.

        An existing file first has any torn tail line removed (records
        are written newline-terminated in one call, so an interrupted
        append is exactly a final line with no ``\\n``); appending after
        the fragment without trimming would otherwise fuse the next
        record onto it and corrupt both.
        """
        if self._handle is not None:
            return self
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._trim_torn_tail()
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._handle = open(self.path, "a", encoding="utf-8")
        if fresh:
            self._write_record(
                {"format": self.campaign.format, "kind": "header", "config": config_to_dict(config)}
            )
        return self

    def _trim_torn_tail(self) -> None:
        """Truncate an interrupted final append.

        Mirrors exactly what :meth:`load` keeps, so nothing ever gets
        appended *after* a record that loading would skip, and nothing
        loading would *keep* is dropped: a final line missing its
        newline is repaired in place when it still parses (the tear hit
        only the terminator — ``load`` counts that record, so the disk
        must too) and truncated otherwise; a newline-terminated final
        line that does not parse (a crash between flush and fsync can
        persist the trailing page, newline included, while losing an
        earlier one) is truncated as well.
        """
        with open(self.path, "rb+") as handle:
            size = handle.seek(0, os.SEEK_END)
            if not size:
                return
            # A tear only ever affects the tail, so inspect a window off
            # the end instead of reading a paper-scale store whole; the
            # window grows until it spans the last few (possibly huge)
            # records or the file start.
            window = 1 << 16
            while True:
                start = max(0, size - window)
                handle.seek(start)
                data = handle.read(size - start)
                if start == 0 or data.count(b"\n") >= 3:
                    break
                window <<= 1
            if not data.endswith(b"\n"):
                tail_start = data.rfind(b"\n") + 1  # 0 on a header-only tear
                try:
                    json.loads(data[tail_start:])
                except json.JSONDecodeError:
                    data = data[:tail_start]
                    handle.truncate(start + tail_start)
                else:
                    handle.seek(0, os.SEEK_END)
                    handle.write(b"\n")
                    data += b"\n"
            if not data:
                return
            last_start = data.rfind(b"\n", 0, len(data) - 1) + 1
            if last_start == 0 and start > 0:
                return  # one intact giant record fills the window: valid
            try:
                json.loads(data[last_start:])
            except json.JSONDecodeError:
                handle.truncate(start + last_start)

    def _write_record(self, record: dict) -> None:
        assert self._handle is not None
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _append(self, record: dict, seconds: float | None = None) -> None:
        """Durably append one record (opens the store if needed).

        ``seconds`` (the shard's recorded compute wall-clock) rides
        last, for the ETA math; results never depend on it.
        """
        if self._handle is None:
            self.open()
        if seconds is not None:
            record["seconds"] = seconds
        self._write_record(record)

    def append_quarantine(self, key: tuple) -> None:
        """Durably record that a run set this key's shard aside.

        The marker never shadows data: :meth:`load` ignores it (so a
        resume recomputes the shard) and the toolbox prunes it once a
        completed record with the same key lands.
        """
        self._append({"kind": "quarantine", **self.campaign.key_record(key)})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlStore":
        return self.open()

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardStore(JsonlStore):
    """Completed sweep cells of ``run_sweep(..., resume=PATH)``."""

    campaign = SWEEP

    def append(
        self, key: tuple[int, float, str], cell: SweepCell, seconds: float | None = None
    ) -> None:
        """Durably append one completed cell (opens the store if needed)."""
        # Sweep records carry their kind last, after the cell document.
        self._append({**_cell_record(key, cell, seconds), "kind": SWEEP.kind})


#: One persisted case-study shard result, exactly as
#: :func:`repro.experiments.fig10.run_case_shard` returns it:
#: ``(before, after, to_zero)`` keyed by profiler name.
Fig10ShardResult = tuple[dict, dict, dict]


class Fig10Store(JsonlStore):
    """Completed Fig 10 shards of ``fig10.run(..., resume=PATH)``.

    Floats survive JSON exactly (Python serializes them via repr, which
    round-trips), so a resumed case study is bit-identical.
    """

    campaign = FIG10

    def append(
        self,
        key: tuple[float, int, int],
        result: Fig10ShardResult,
        seconds: float | None = None,
    ) -> None:
        """Durably append one completed shard (opens the store if needed)."""
        before, after, to_zero = result
        record = {
            "kind": FIG10.kind,
            **FIG10.key_record(key),
            "before": before,
            "after": after,
            "to_zero": to_zero,
        }
        self._append(record, seconds)


class FleetStore(JsonlStore):
    """Completed fleet shards of ``fleet.run(..., resume=PATH)``.

    Slice payloads merge associatively regardless of arrival order, so
    a killed campaign resumes bit-identically.
    """

    campaign = FLEET

    def append(
        self, key: tuple[int, int, int, int], payload: dict, seconds: float | None = None
    ) -> None:
        """Durably append one completed fleet shard (opens if needed)."""
        record = {"kind": FLEET.kind, **FLEET.key_record(key), "chips": payload["chips"]}
        self._append(record, seconds)
